"""Negative continued fractions with exact rational arithmetic.

A coefficient list [t1, ..., tp] stands for the nested expression

    t1 - 1/(t2 - 1/(... - 1/tp)).

Every rational x < -1 has a unique expansion with all coefficients
<= -2; these lists are exactly the weight chains of the rays of a
star-shaped plumbing.  Values are :class:`fractions.Fraction` throughout;
:func:`expand_ratio` works on the numerator and denominator as integers,
and :func:`expand_cf` hands a Fraction's terms to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DegenerateFractionError, OutOfRangeError


def _fold(coeffs: Sequence[int]) -> Fraction:
    value = Fraction(coeffs[-1])
    for t in reversed(coeffs[:-1]):
        if value == 0:
            raise DegenerateFractionError(
                f"zero denominator while evaluating {list(coeffs)}"
            )
        value = t - Fraction(1) / value
    return value


def eval_cf(coeffs: Sequence[int]) -> Fraction:
    """Value of a canonical coefficient list (nonempty, all <= -2).

    Canonical lists never hit a zero denominator: every tail evaluates
    below -1.  The result is always < -1.
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(t > -2 for t in coeffs):
        raise ValueError(f"coefficients must all be <= -2, got {list(coeffs)}")
    return _fold(coeffs)


def eval_cf_literal(coeffs: Sequence[int]) -> Fraction:
    """Value of an arbitrary integer coefficient list.

    Used for lists obtained by bumping a last coefficient, which may
    legitimately end in -1.  Raises DegenerateFractionError if any tail
    evaluates to zero.
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    return _fold(coeffs)


def expand_cf(x: Fraction | int) -> list[int]:
    """The unique all-(<= -2) expansion of a rational x < -1.

    Raises OutOfRangeError for x >= -1; see :func:`expand_ratio`.
    """
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


def convergents(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """Tail values of a canonical list as normalized integer pairs.

    Entry i (0-based) is (A, B) with A/B the value of the tail starting
    at coefficient i, normalized A > 0 > B; the final entry is the
    sentinel (1, 0).  Built by the backward recurrence
    A_l = -t_l*A_{l+1} + B_{l+1}, B_l = -A_{l+1}, which also forces
    B_p = -1 for the last genuine tail.
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(t > -2 for t in coeffs):
        raise ValueError(f"coefficients must all be <= -2, got {list(coeffs)}")
    pairs = [(1, 0)]
    a, b = 1, 0
    for t in reversed(coeffs):
        a, b = -t * a + b, -a
        pairs.append((a, b))
    pairs.reverse()
    return pairs


def _reciprocal(x: Fraction) -> Fraction:
    if x == 0:
        raise DegenerateFractionError("reciprocal of zero")
    return Fraction(1) / x


def bumped_sum_check(t: Sequence[int], s: Sequence[int]) -> tuple[bool, bool]:
    """Both reciprocal-sum inequalities for a pair of rays.

    Given canonical coefficient lists t, s, bump the last coefficient of
    one ray by +1 (evaluated literally, even if it becomes -1) and ask
    whether 1/value(bumped) + 1/value(other) <= -1.  Returns the pair
    (bump t, bump s).  These hold for every two-ray sphere quadruple and
    bound which extended weight chains can stay in the sphere family.
    """
    vt, vs = eval_cf(t), eval_cf(s)
    bt = eval_cf_literal(list(t[:-1]) + [t[-1] + 1])
    bs = eval_cf_literal(list(s[:-1]) + [s[-1] + 1])
    return (
        _reciprocal(bt) + _reciprocal(vs) <= -1,
        _reciprocal(vt) + _reciprocal(bs) <= -1,
    )
