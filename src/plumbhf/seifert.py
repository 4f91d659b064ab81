"""Seifert-fibered homology sphere data and their star-shaped plumbings.

A Seifert homology sphere over S^2 is described by a center weight m < 0
and rays (a_i, b_i) with 0 < -b_i < a_i, gcd(a_i, b_i) = 1, subject to

    a_1 ... a_k * (-m + sum b_i/a_i) = 1,

which forces pairwise coprime a_i and |det| = 1 for the associated star.
Each ray plumbs as the weight chain of the expansion of a_i/b_i.  For
pairwise coprime multiplicities the data is recovered by solving
b_i * (prod a / a_i) = 1 (mod a_i) with -a_i < b_i < 0.  Construction
is integer-only and runs one way, tuple to invariants to star:
:func:`brieskorn` gives the invariants and builds no graph,
:func:`star_graph` plumbs them, and :func:`sigma_star` is the two steps
followed by the one definiteness check of a Brieskorn row's star.
:func:`star_graph` builds a star directly in canonical form, with no
``build_graph`` validation pass: it is a tree by construction, and the
forms sweep still checks that its edges form a forest.

Two-ray data with m = -1 describe S^3 = Sigma(x, y); those quadruples
(a1, b1, a2, b2) satisfy a1*a2 + a2*b1 + a1*b2 = 1 and carry exactly one
ray ratio >= -2, which the invariants' order puts first.  The S^3
harness (:mod:`plumbhf.s3`, with the pairing vector of those two rays)
reads each quadruple off the rays of Sigma(x, y) for the coprime pairs
that :func:`coprime_tuples`, the survey's tuple generator, lists, and
plays on that same star.

The paper's theorem (arXiv:0909.3975) on the invariants: for pairwise
coprime a_1..a_n with P = prod a_j, N0 = (n-2)*P - sum P/a_j is negative
only for (2, 3, 5).  For every other tuple Delta(N0 mod P) < 0, with
Nemethi's Delta(i) = 1 - m*i + sum floor(i*b_j/a_j) (Geom. Topol. 9,
2005), so tau has a second minimum and the sphere a second good
initial.  Three fibers p, q, r: S = <qr, pr, pq> is symmetric with
Frobenius number N0 + pqr, so N0 is not in S (pqr is) but is in N0 - S,
and Delta(N0) = -1.  For n >= 4 it is a tested proposition, which
``tests/test_seifert.py::test_only_the_poincare_sphere_lacks_a_delta_witness``
checks to a <= 20 (four fibers) and a <= 14 (five).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

from .contfrac import expand_ratio
from .errors import NonNegDefiniteError, NotCoprimeError
from .graph import Frozen, PlumbingGraph, is_negative_definite


class SeifertInvariants(Frozen):
    """Center weight and rays, rays kept sorted by a_i/b_i descending.

    The defining product equation is validated exactly at construction,
    so an instance always describes an integral homology sphere.
    """

    center_weight: int
    rays: tuple[tuple[int, int], ...]

    def __init__(self, center_weight: int, rays: tuple[tuple[int, int], ...]) -> None:
        if center_weight >= 0:
            raise ValueError(f"center weight must be negative, got {center_weight}")
        if not rays:
            raise ValueError("at least one ray is required")
        for a, b in rays:
            if a < 2 or not (-a < b < 0):
                raise ValueError(f"ray ({a}, {b}) needs a >= 2 and -a < b < 0")
            if math.gcd(a, b) != 1:
                raise ValueError(f"ray ({a}, {b}) is not reduced")
        product = math.prod(a for a, _ in rays)
        rays = _sort_rays(rays, product)
        value = -center_weight * product + sum(b * (product // a) for a, b in rays)
        if value != 1:
            raise ValueError(
                f"data does not satisfy the homology-sphere equation: "
                f"prod(a) * (-m + sum b/a) = {value}, expected 1"
            )
        vars(self).update(center_weight=center_weight, rays=rays)


def _sort_rays(rays, product: int) -> tuple[tuple[int, int], ...]:
    """Rays by a/b descending: ``product`` is a multiple of every a, so the
    key b * (product / a) is an exact integer, and as b < 0 < a, b/a
    ascending is a/b descending."""
    return tuple(sorted(rays, key=lambda r: r[1] * (product // r[0])))


def star_graph(inv: SeifertInvariants, name: str | None = None) -> PlumbingGraph:
    """Star-shaped plumbing: center first, then each ray inward-to-out.

    Ray weights are the expansions of a_i/b_i, hence all <= -2; vertex
    ids follow the canonical order used everywhere else (center 0, then
    the rays in the sorted order of the invariants).  A ray is reduced
    with -a < b < 0, so -a/-b is a/b in lowest terms and below -1.  The
    spokes (0, first vertex of each ray) sort before the chains' (v, v + 1),
    and every vertex but the center has one lower neighbor: the star is
    numbered parent-first, so the forms sweep folds each vertex into its
    lower neighbor and roots the star at the center.
    """
    weights: list[int] = [inv.center_weight]
    spokes: list[tuple[int, int]] = []
    chains: list[tuple[int, int]] = []
    for a, b in inv.rays:
        first = len(weights)
        weights += expand_ratio(-a, -b)
        spokes.append((0, first))
        chains += zip(range(first, len(weights) - 1), range(first + 1, len(weights)))
    return PlumbingGraph(tuple(weights), tuple(spokes + chains), name)


def coprime_tuples(max_a: int, rays: int) -> list[tuple[int, ...]]:
    """Ascending pairwise-coprime tuples of ``rays`` multiplicities in 2..max_a."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(rays):  # each coprime prefix, in order, grows by every larger coprime x
        out = [t + (x,) for t in out for x in range(t[-1] + 1 if t else 2, max_a + 1)
               if math.gcd(x, math.prod(t)) == 1]
    return out


def brieskorn(multiplicities: Sequence[int]) -> SeifertInvariants:
    """Seifert data of the Brieskorn sphere with the given multiplicities.

    Needs every a_i >= 2 and the a_i pairwise coprime (NotCoprimeError
    otherwise).  Each b_i is the mod-a_i inverse of prod(a)/a_i shifted
    into (-a_i, 0); the center weight then comes out of the defining
    equation, which SeifertInvariants checks exactly along with m < 0
    (ValueError otherwise).  No graph is built: :func:`sigma_star`
    builds and checks the star.
    """
    a = tuple(map(int, multiplicities))
    if not a:
        raise ValueError("at least one multiplicity is required")
    for x in a:
        if x < 2:
            raise ValueError(f"multiplicities must be >= 2, got {x}")
    for x, y in combinations(a, 2):
        if math.gcd(x, y) != 1:
            raise NotCoprimeError(f"gcd({x}, {y}) > 1")
    product = math.prod(a)
    rays = tuple((ai, pow(product // ai, -1, ai) - ai) for ai in a)  # -a_i < b_i < 0
    m = (sum(bi * (product // ai) for ai, bi in rays) - 1) // product
    return SeifertInvariants(m, rays)


def sigma_star(params: tuple[int, ...]) -> PlumbingGraph:
    """The unreduced star of the Brieskorn sphere Sigma(params), named
    ``sigma`` + str(params): :func:`star_graph` of :func:`brieskorn`'s
    invariants, verified negative definite (NonNegDefiniteError otherwise).

    The check's forms sweep stays on the graph, so the analysis that
    follows does not repeat it.
    """
    star = star_graph(brieskorn(params), "sigma" + str(params))
    if not is_negative_definite(star):
        raise NonNegDefiniteError(f"star of {params} is not negative definite")
    return star
