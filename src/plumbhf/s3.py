"""The two-ray S^3 property harness behind ``plumbhf s3``.

Two-ray Seifert data with center weight -1 describe S^3 = Sigma(x, y).
Each coprime pair x < y gives exactly one such quadruple
(a1, b1, a2, b2), the rays of Sigma(x, y) with the ray of ratio >= -2
first, and :func:`s3_row` checks five properties of the game on that
star: a unique good initial, the bumped reciprocal sums of the two
weight chains, the number of center moves, the pairing vector's jumps
along the witness, and the goodness of the reversed witness.

What the checks need lives here too: :func:`reverse_negate`, and one
backward loop over a weight chain (:func:`_tails`), which gives
:func:`convergents`, :func:`bumped_sum_check` and
:func:`pairing_vector_from_rays` their integer pairs.  No count, survey
or graph file reads any of it, so the CLI imports this module only when
``s3`` runs.
"""

from __future__ import annotations

from collections.abc import Sequence

from .game import Association, AssociationGame, GoodSequence, is_good_sequence
from .graph import Frozen
from .seifert import brieskorn, coprime_tuples, star_graph


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
    return _tails(coeffs)


def _tails(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs of :func:`convergents` for any coefficients, unchecked:
    a bumped chain may end in -1."""
    pairs = [(1, 0)]
    for t in reversed(coeffs):
        a, b = pairs[-1]
        pairs.append((-t * a + b, -a))
    return pairs[::-1]


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
    ab, bb = _tails([*t[:-1], t[-1] + 1])[0]
    cb, db = _tails([*s[:-1], s[-1] + 1])[0]
    return (bb * c + d * ab <= -ab * c, b * cb + db * a <= -a * cb)


def pairing_vector_from_rays(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """The pairing vector from the weight chains of the two rays.

    ``first`` is the ray whose ratio is >= -2.  Entries (in canonical
    vertex order: center, first ray, second ray) are -A1*C1 at the
    center, C1*B_i along the first ray and A1*D_j along the second,
    where (A_i, B_i) and (C_j, D_j) are the convergent pairs of the two
    chains.  Along any good sequence its pairing with the states jumps
    by exactly 2 at center moves and 0 otherwise.
    """
    first_cv, second_cv = convergents(first), convergents(second)
    a1, c1 = first_cv[0][0], second_cv[0][0]
    return (-a1 * c1, *(c1 * b for _, b in first_cv[:-1]), *(a1 * d for _, d in second_cv[:-1]))


def reverse_negate(seq: GoodSequence) -> GoodSequence:
    """The reversed, negated sequence; good whenever seq is good."""
    states = tuple(Association(seq.graph, tuple(-x for x in s.values)) for s in seq.states[::-1])
    return GoodSequence(states, tuple(reversed(seq.moved)))


class S3Row(Frozen):
    """Per-quadruple verification outcomes for the two-ray S^3 family."""

    quadruple: tuple[int, int, int, int]
    unique_good_initial: bool
    bumped_sums_hold: bool
    central_count_matches: bool
    pairing_jumps_match: bool
    reversal_is_good: bool
    count: int
    central_moves: int

    def failures(self) -> list[str]:
        """The names of the properties that do not hold: the bool fields
        that are False, in field order."""
        return [name for name in self._fields if getattr(self, name) is False]


def s3_row(pair: tuple[int, int]) -> S3Row:
    """Check the five structural properties on the star of Sigma(pair) = S^3."""
    inv = brieskorn(pair)
    (a1, b1), (a2, b2) = inv.rays
    graph = star_graph(inv)
    result = AssociationGame(graph).good_initial_count()
    expected_minimum = tuple(m + 2 for m in graph.weights)
    unique = result.count == 1 and result.initials[0].values == expected_minimum
    witness = result.witnesses[0] if result.witnesses else None

    # the star lists the center, then the first ray, then the second
    split = graph.neighbors[0][1]
    t, s = graph.weights[1:split], graph.weights[split:]
    bumped = bumped_sum_check(t, s) == (True, True)

    central = witness.moved.count(0) if witness else -1
    central_ok = central == a1 + a2 - 1

    jumps_ok = False
    reversal_ok = False
    if witness is not None:
        pv = pairing_vector_from_rays(t, s)
        values = [  # strict: a length mismatch raises ValueError
            sum(x * y for x, y in zip(pv, state.values, strict=True)) for state in witness.states
        ]
        jumps_ok = all(
            after - before == (2 if moved == 0 else 0)
            for before, after, moved in zip(values, values[1:], witness.moved)
        )
        reversal_ok = is_good_sequence(reverse_negate(witness))

    return S3Row(
        quadruple=(a1, b1, a2, b2),
        unique_good_initial=unique,
        bumped_sums_hold=bumped,
        central_count_matches=central_ok,
        pairing_jumps_match=jumps_ok,
        reversal_is_good=reversal_ok,
        count=result.count,
        central_moves=central,
    )


def s3_rows(bound: int = 20) -> list[S3Row]:
    """One row per sphere quadruple with a1 + a2 <= bound, sorted by
    a1 + a2, then by the quadruple.

    The sphere equation a1*a2 + a2*b1 + a1*b2 = 1 forces gcd(a1, a2) = 1.
    Mod a1 it fixes b1 = (a2^-1 mod a1) - a1, and then
    b2 = (1 - a1*a2 - a2*b1)/a1 falls in (-a2, 0).  So each coprime pair
    x < y has exactly one quadruple: the rays of Sigma(x, y), whose center
    is -1 and whose rays come ratio >= -2 first.
    """
    pairs = (t for t in coprime_tuples(bound - 2, 2) if sum(t) <= bound)
    rows = [s3_row(t) for t in pairs]
    return sorted(rows, key=lambda r: (r.quadruple[0] + r.quadruple[2],) + r.quadruple)
