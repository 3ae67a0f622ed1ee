"""The value types' contract: field-wise equality and hashing, the repr of
their fields, immutability of the frozen ones, and pickling and copying."""

import copy
import pickle

import pytest

from revderiv.corpus import CorpusConfig
from revderiv.faa_di_bruno import fdb_report
from revderiv.laws import LawFailure, LawReport
from revderiv.maps import ArityProfile, PolyMap
from revderiv.partitions import SetPartition
from revderiv.poly import Polynomial
from revderiv.syntax import parse_map


def _report():
    return fdb_report(parse_map("(x1^2 + x1)"), parse_map("(x1^3, x1)"), 1, "forward")


# each builds a fresh value; the same builder twice gives equal, distinct objects
VALUES = {
    "Polynomial": lambda: Polynomial(1, (((1,), 2),)),
    "ArityProfile": lambda: ArityProfile((2, 0, 1)),
    "PolyMap": lambda: PolyMap(ArityProfile((1,)), (Polynomial(1, (((1,), 2),)),)),
    "SetPartition": lambda: SetPartition(((1, 3), (2,))),
    "CorpusConfig": lambda: CorpusConfig(2, max_order=4),
    "FdbSummand": lambda: _report().summands[-1],
    "FdbReport": _report,
    "LawFailure": lambda: LawFailure("rd1", ["(x1)"], "(x1)", "(x2)"),
    "LawReport": lambda: LawReport("rd-axioms", 1, 2, [], 0, ["rd1"], [0]),
}
FROZEN = ("Polynomial", "ArityProfile", "PolyMap", "SetPartition", "CorpusConfig",
          "FdbSummand", "FdbReport")
PICKLED = ("PolyMap", "SetPartition", "CorpusConfig", "FdbReport")
# the text a dataclass's repr gives
REPRS = {
    "Polynomial": "Polynomial(dim=1, terms=(((1,), 2),))",
    "PolyMap": "PolyMap(domain=ArityProfile(blocks=(1,)), "
               "coords=(Polynomial(dim=1, terms=(((1,), 2),)),))",
    "CorpusConfig": "CorpusConfig(max_dim=2, max_degree=3, max_order=4)",
    "SetPartition": "SetPartition(blocks=((1, 3), (2,)))",
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    # an instance of another class, or a tuple of the same fields, is never equal
    other = next(VALUES[n]() for n in VALUES if n != name)
    assert a != other and other != a
    assert a != tuple(getattr(a, field) for field in type(a).__match_args__)
    if name in REPRS:
        assert repr(a) == REPRS[name]
    field = type(a).__match_args__[0]
    if name in FROZEN:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
    if name in PICKLED:
        for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert copied is not a and copied == a and hash(copied) == hash(a)
            assert repr(copied) == repr(a)
