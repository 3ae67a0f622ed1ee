"""Exact rational coefficients.

Every coefficient in the engine is an exact rational number.  ``Scalar`` is
the single name the rest of the package imports, so the coefficient type can
be swapped without touching the algebra.  ``fractions.Fraction`` already
guarantees lowest terms and a positive denominator.
"""

from fractions import Fraction

Scalar = Fraction

