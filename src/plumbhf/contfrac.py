"""Negative continued fractions with exact integer arithmetic.

A coefficient list [t1, ..., tp] stands for the nested expression

    t1 - 1/(t2 - 1/(... - 1/tp)).

Every rational x < -1 has a unique expansion with all coefficients
<= -2; these lists are exactly the weight chains of the rays of a
star-shaped plumbing.  The work is done on integer numerators and
denominators: :func:`expand_ratio` is a Euclid loop and
:func:`convergents` a backward recurrence.  :class:`fractions.Fraction`
appears only at the API boundary, as the input of :func:`expand_cf`, and
is imported only when it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import OutOfRangeError

if TYPE_CHECKING:
    from fractions import Fraction


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


def _head(coeffs: Sequence[int]) -> tuple[int, int]:
    """(A, B) with A/B the value of coeffs, by the convergents recurrence."""
    a, b = 1, 0
    for t in reversed(coeffs):
        a, b = -t * a + b, -a
    return a, b


def bumped_sum_check(t: Sequence[int], s: Sequence[int]) -> tuple[bool, bool]:
    """Both reciprocal-sum inequalities for a pair of rays.

    Given canonical coefficient lists t, s, bump the last coefficient of
    one ray by +1 (even if it becomes -1) and ask whether
    1/value(bumped) + 1/value(other) <= -1.  Returns the pair
    (bump t, bump s).  These hold for every two-ray sphere quadruple and
    bound which extended weight chains can stay in the sphere family.

    Every tail of a bumped canonical list is still <= -1, so each value
    is A/B with A > 0 > B, and B/A + D/C <= -1 is B*C + D*A <= -A*C.
    """
    (a, b), (c, d) = convergents(t)[0], convergents(s)[0]
    ab, bb = _head([*t[:-1], t[-1] + 1])
    cb, db = _head([*s[:-1], s[-1] + 1])
    return (bb * c + d * ab <= -ab * c, b * cb + db * a <= -a * cb)
