"""Exact reverse- and forward-derivative calculus for polynomial maps."""

from .combinators import (
    NotDLinearError,
    dagger,
    forward_derivative,
    is_dlinear,
    is_klinear_in_block,
    partial_forward,
    partial_reverse,
    reverse_derivative,
    slice_compose,
)
from .corpus import CorpusConfig
from .faa_di_bruno import FdbReport, FdbSummand, fdb_report
from .laws import LawFailure, LawReport, SUITE_NAMES, run_suite
from .maps import (
    ArityProfile,
    PolyMap,
    compose,
    embed_blocks,
    flatten,
    identity,
    pair,
    precompose_blocks,
    projection,
    reblock,
    select_blocks,
    zero_map,
)
from .partitions import SetPartition, enumerate_partitions
from .poly import Monomial, Polynomial
from .syntax import ParseError, parse_map, parse_polynomial
from .towers import forward_tower, reverse_tower

__version__ = "0.1.0"

__all__ = [
    "ArityProfile",
    "CorpusConfig",
    "FdbReport",
    "FdbSummand",
    "LawFailure",
    "LawReport",
    "Monomial",
    "NotDLinearError",
    "ParseError",
    "PolyMap",
    "Polynomial",
    "SetPartition",
    "SUITE_NAMES",
    "compose",
    "dagger",
    "embed_blocks",
    "enumerate_partitions",
    "fdb_report",
    "flatten",
    "forward_derivative",
    "forward_tower",
    "identity",
    "is_dlinear",
    "is_klinear_in_block",
    "pair",
    "parse_map",
    "parse_polynomial",
    "partial_forward",
    "partial_reverse",
    "precompose_blocks",
    "projection",
    "reblock",
    "reverse_derivative",
    "reverse_tower",
    "run_suite",
    "select_blocks",
    "slice_compose",
    "zero_map",
]
