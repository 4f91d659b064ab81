"""Negative continued fractions with exact integer arithmetic.

A coefficient list [t1, ..., tp] stands for the nested expression

    t1 - 1/(t2 - 1/(... - 1/tp)).

Every rational x < -1 has a unique expansion with all coefficients
<= -2; these lists are exactly the weight chains of the rays of a
star-shaped plumbing.  The work is done on integer numerators and
denominators: :func:`expand_ratio` is a Euclid loop.
:class:`fractions.Fraction` appears only at the API boundary, as the
input of :func:`expand_cf`, and is imported only when it runs (an
annotation is never evaluated).  The chains' convergents, which only
the S^3 harness reads, are in :mod:`plumbhf.s3`.
"""

from __future__ import annotations

from .errors import OutOfRangeError


def expand_cf(x: Fraction | int) -> list[int]:
    """The unique all-(<= -2) expansion of a rational x < -1.

    Raises OutOfRangeError for x >= -1; see :func:`expand_ratio`.
    """
    from fractions import Fraction
    x = Fraction(x)
    if x >= -1:
        raise OutOfRangeError(f"expansion needs x < -1, got {x}")
    return expand_ratio(x.numerator, x.denominator)


def expand_ratio(p: int, q: int) -> list[int]:
    """The expansion of p/q, given in lowest terms with q > 0 and p/q < -1.

    Take t1 = floor(x) (t1 = x when x is an integer) and recurse on
    -1/(x - t1).  On x = p/q that is one Euclid step,
    p/q -> -q/(p - t1*q), which stays in lowest terms; the denominator
    strictly drops, so this terminates.  The caller guarantees the
    preconditions, so no Fraction is built.
    """
    out: list[int] = []
    while q != 1:
        t = p // q
        out.append(t)
        p, q = -q, p - t * q
    out.append(p)
    return out
