import math
import random
from fractions import Fraction

import pytest

from plumbhf import (
    OutOfRangeError,
    bumped_sum_check,
    convergents,
    eval_cf,
    expand_cf,
)
from support import reduced_fractions


def test_expand_known_values():
    assert expand_cf(-2) == [-2]
    assert expand_cf(-5) == [-5]
    assert expand_cf(Fraction(-7, 3)) == [-3, -2, -2]
    assert expand_cf(Fraction(5, -4)) == [-2, -2, -2, -2]
    assert expand_cf(Fraction(11, -6)) == [-2, -6]


def test_expand_rejects_x_at_least_minus_one():
    for x in (-1, Fraction(-1, 2), 0, 3, Fraction(99, -100)):
        with pytest.raises(OutOfRangeError):
            expand_cf(x)


def _expand_by_fractions(x):
    """The recursion in expand_cf's docstring, step by step in Fraction."""
    out = []
    while x.denominator != 1:
        t = math.floor(x)
        out.append(t)
        x = Fraction(-1) / (x - t)
    return out + [int(x)]


def test_expand_matches_fraction_reference():
    for x in reduced_fractions(200):
        assert expand_cf(x) == _expand_by_fractions(x), x
    assert expand_cf(-7) == expand_cf(Fraction(-7)) == [-7]
    assert expand_cf(Fraction(-14, 6)) == expand_cf(Fraction(-7, 3))
    for x in (-1, 0, Fraction(1, 2)):
        with pytest.raises(OutOfRangeError):
            expand_cf(x)


def test_eval_known_values():
    assert eval_cf([-2]) == -2
    assert eval_cf([-3, -2, -2]) == Fraction(-7, 3)
    assert eval_cf([-2, -2, -2, -2]) == Fraction(-5, 4)


def test_eval_validates_coefficients():
    with pytest.raises(ValueError):
        eval_cf([])
    with pytest.raises(ValueError):
        eval_cf([-2, -1])
    with pytest.raises(ValueError):
        eval_cf([0])


def test_round_trip_all_small_rationals():
    """expand then eval is the identity on every reduced a/b < -1 with
    |a|, |b| <= 50, and every expansion is canonical."""
    seen = 0
    for x in reduced_fractions(50):
        coeffs = expand_cf(x)
        assert all(t <= -2 for t in coeffs)
        assert eval_cf(coeffs) == x
        seen += 1
    assert seen > 700


def test_expansions_are_injective():
    table = {}
    for x in reduced_fractions(30):
        key = tuple(expand_cf(x))
        assert key not in table
        table[key] = x


def test_convergents_frozen_table():
    assert convergents([-3, -2, -2]) == [(7, -3), (3, -2), (2, -1), (1, 0)]


def test_convergents_recurrence_and_tail_values():
    for x in list(reduced_fractions(25))[::7]:
        coeffs = expand_cf(x)
        pairs = convergents(coeffs)
        assert pairs[-1] == (1, 0)
        assert pairs[-2][1] == -1
        # head pair is x itself, normalized A > 0 > B
        assert pairs[0] == (-x.numerator, -x.denominator)
        # backward recurrence stated in the docstring
        for i, t in enumerate(coeffs):
            a_next, b_next = pairs[i + 1]
            assert pairs[i] == (-t * a_next + b_next, -a_next)
        # each pair is the exact tail value, normalized A > 0 > B
        for i in range(len(coeffs)):
            a, b = pairs[i]
            assert a > 0 > b
            assert Fraction(a, b) == eval_cf(coeffs[i:])
        # numerators strictly decrease down to the sentinel
        nums = [a for a, _ in pairs]
        assert nums == sorted(nums, reverse=True)
        assert len(set(nums)) == len(nums)


def test_convergents_validates_input():
    with pytest.raises(ValueError):
        convergents([])
    with pytest.raises(ValueError):
        convergents([-1])


def _fold_by_fractions(coeffs):
    """Literal value of any coefficient list whose tails never vanish."""
    value = Fraction(coeffs[-1])
    for t in reversed(coeffs[:-1]):
        value = t - 1 / value
    return value


def _bumped_by_fractions(t, s):
    bt = _fold_by_fractions(t[:-1] + [t[-1] + 1])
    bs = _fold_by_fractions(s[:-1] + [s[-1] + 1])
    vt, vs = _fold_by_fractions(t), _fold_by_fractions(s)
    return (1 / bt + 1 / vs <= -1, 1 / vt + 1 / bs <= -1)


def test_bumped_sum_check_examples():
    # rays of the smallest sphere quadruple (2,-1,3,-1)
    assert bumped_sum_check([-2], [-3]) == (True, True)
    # two rays of ratio -3 fail in both directions: 1/(-2) + 1/(-3) > -1
    assert bumped_sum_check([-3], [-3]) == (False, False)
    # all-(-2) rays bump to exactly -1, which always passes
    assert bumped_sum_check([-2, -2], [-2, -2, -2]) == (True, True)
    for bad in ([], [-1], [-2, 0]):
        with pytest.raises(ValueError):
            bumped_sum_check(bad, [-2])
        with pytest.raises(ValueError):
            bumped_sum_check([-2], bad)
    # seeded random canonical pairs against the Fraction reference
    rng = random.Random(7)
    outcomes = set()
    for _ in range(2000):
        t, s = (
            [rng.choice((-2, -2, -2, -3, -4, -7)) for _ in range(rng.randint(1, 5))]
            for _ in range(2)
        )
        got = bumped_sum_check(t, s)
        assert got == _bumped_by_fractions(t, s), (t, s)
        outcomes.add(got)
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
