"""Seifert-fibered homology sphere data and their star-shaped plumbings.

A Seifert homology sphere over S^2 is described by a center weight m < 0
and rays (a_i, b_i) with 0 < -b_i < a_i, gcd(a_i, b_i) = 1, subject to

    a_1 ... a_k * (-m + sum b_i/a_i) = 1,

which forces pairwise coprime a_i and |det| = 1 for the associated star.
Each ray plumbs as the weight chain of the expansion of a_i/b_i.  For
pairwise coprime multiplicities the data is recovered by solving
b_i * (prod a / a_i) = 1 (mod a_i) with -a_i < b_i < 0.  Construction
is integer-only, and a Brieskorn row builds one star: :func:`sigma_star`
returns the very graph whose definiteness :func:`brieskorn` checks.

Two-ray data with m = -1 describe S^3; those quadruples (a1, b1, a2, b2)
satisfy a1*a2 + a2*b1 + a1*b2 = 1, carry exactly one ray ratio >= -2, and
shrink under a blow-down-style reduction move until that ratio is
exactly -2 (the base family (2, -1, 2k+1, -k)).
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import Sequence

from .contfrac import convergents, expand_ratio
from .errors import BaseCaseError, NonNegDefiniteError, NotCoprimeError
from .graph import Frozen, PlumbingGraph, build_graph, is_negative_definite


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
        # sorted by a/b descending: a/b > c/d iff a*d > c*b, as b, d < 0
        rays = tuple(sorted(rays, key=cmp_to_key(lambda r, s: s[0] * r[1] - r[0] * s[1])))
        product = math.prod(a for a, _ in rays)
        value = -center_weight * product + sum(b * (product // a) for a, b in rays)
        if value != 1:
            raise ValueError(
                f"data does not satisfy the homology-sphere equation: "
                f"prod(a) * (-m + sum b/a) = {value}, expected 1"
            )
        vars(self).update(center_weight=center_weight, rays=rays)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.rays)


def star_graph(inv: SeifertInvariants, name: str | None = None) -> PlumbingGraph:
    """Star-shaped plumbing: center first, then each ray inward-to-out.

    Ray weights are the expansions of a_i/b_i, hence all <= -2; vertex
    ids follow the canonical order used everywhere else (center 0, then
    the rays in the sorted order of the invariants).  A ray is reduced
    with -a < b < 0, so -a/-b is a/b in lowest terms and below -1.
    """
    weights: list[int] = [inv.center_weight]
    edges: list[tuple[int, int]] = []
    for a, b in inv.rays:
        prev = 0
        for t in expand_ratio(-a, -b):
            idx = len(weights)
            weights.append(t)
            edges.append((prev, idx))
            prev = idx
    return build_graph(weights, edges, name)


def brieskorn(multiplicities: Sequence[int]) -> SeifertInvariants:
    """Seifert data of the Brieskorn sphere with the given multiplicities.

    Needs every a_i >= 2 and the a_i pairwise coprime (NotCoprimeError
    otherwise).  Each b_i is the mod-a_i inverse of prod(a)/a_i shifted
    into (-a_i, 0); the center weight then comes out of the defining
    equation, which SeifertInvariants checks exactly along with m < 0
    (ValueError otherwise).  The resulting star is verified negative
    definite (NonNegDefiniteError otherwise).
    """
    return _brieskorn_star(multiplicities)[0]


def sigma_star(params: tuple[int, ...]) -> PlumbingGraph:
    """The unreduced star of the Brieskorn sphere Sigma(params).

    It is the very graph :func:`brieskorn` checks for definiteness, so
    its forms, and later its hash, are computed once.
    """
    return _brieskorn_star(params, name="sigma" + str(params))[1]


def _brieskorn_star(
    multiplicities: Sequence[int], name: str | None = None
) -> tuple[SeifertInvariants, PlumbingGraph]:
    a = tuple(int(x) for x in multiplicities)
    if not a:
        raise ValueError("at least one multiplicity is required")
    for x in a:
        if x < 2:
            raise ValueError(f"multiplicities must be >= 2, got {x}")
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if math.gcd(a[i], a[j]) != 1:
                raise NotCoprimeError(f"gcd({a[i]}, {a[j]}) > 1")
    product = math.prod(a)
    rays = []
    for ai in a:
        cofactor = product // ai
        bi = pow(cofactor, -1, ai) - ai  # -a_i < b_i < 0
        rays.append((ai, bi))
    total = sum(bi * (product // ai) for ai, bi in rays)
    m = (total - 1) // product
    inv = SeifertInvariants(m, tuple(rays))
    star = star_graph(inv, name)
    if not is_negative_definite(star):
        raise NonNegDefiniteError(f"star of {a} is not negative definite")
    return inv, star


class SphereQuadruple(Frozen):
    """Two-ray S^3 data (a1, b1, a2, b2).

    Construction checks only the sign/range constraints on each ray;
    whether the sphere equation holds is the separate predicate
    :func:`is_sphere_quadruple`, and reduction outputs are returned in
    raw move order, so canonical display order (ratio >= -2 first) is a
    method rather than an invariant.
    """

    a1: int
    b1: int
    a2: int
    b2: int

    def __init__(self, a1: int, b1: int, a2: int, b2: int) -> None:
        for a, b in ((a1, b1), (a2, b2)):
            if a < 2 or not (-a < b < 0):
                raise ValueError(f"ray ({a}, {b}) needs a >= 2 and -a < b < 0")
        vars(self).update(a1=a1, b1=b1, a2=a2, b2=b2)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.b1, self.a2, self.b2)

    def canonical(self) -> "SphereQuadruple":
        """Rays ordered so the unique ratio >= -2 comes first.

        With b < 0, a/b >= -2 is a <= -2b.
        """
        first = self.a1 <= -2 * self.b1
        if first == (self.a2 <= -2 * self.b2):
            raise ValueError(f"{self.as_tuple()} does not have exactly one ratio >= -2")
        if first:
            return self
        return SphereQuadruple(self.a2, self.b2, self.a1, self.b1)


def is_sphere_quadruple(q: SphereQuadruple) -> bool:
    """Exact integer form of 1 + b1/a1 + b2/a2 = 1/(a1*a2)."""
    return q.a1 * q.a2 + q.a2 * q.b1 + q.a1 * q.b2 == 1


def reduce_quadruple(q: SphereQuadruple) -> SphereQuadruple:
    """One reduction step, strictly shrinking both multiplicities.

    The ray with ratio > -2 is moved into first position and replaced by
    (-b1, 2*b1 + a1) while the other ray drops to (a2 + b2, b2).  Raises
    BaseCaseError when the distinguished ratio is exactly -2 (the
    irreducible family) and ValueError if q is not a sphere quadruple.
    """
    if not is_sphere_quadruple(q):
        raise ValueError(f"{q.as_tuple()} does not satisfy the sphere equation")
    c = q.canonical()
    if c.a1 == -2 * c.b1:
        raise BaseCaseError(f"{c.as_tuple()} has ray ratio exactly -2")
    return SphereQuadruple(-c.b1, 2 * c.b1 + c.a1, c.a2 + c.b2, c.b2)


def enumerate_quadruples(bound: int) -> list[SphereQuadruple]:
    """All sphere quadruples with a1 + a2 <= bound, canonical, no dups.

    Closes the base family (2, -1, 2k+1, -k) under the two inverse
    reduction moves (b1 = -a1', a1 = b1' + 2*a1', a2 = a2' - b2',
    b2 = b2', and the same with the rays swapped).  Both multiplicities
    grow strictly under inversion, so pruning at the bound is complete.
    """
    if bound < 5:
        raise ValueError("bound must be at least 5 (the smallest quadruple is (2,-1,3,-1))")
    found: dict[tuple[int, int, int, int], SphereQuadruple] = {}
    frontier: list[SphereQuadruple] = []
    k = 1
    while 2 + (2 * k + 1) <= bound:
        q = SphereQuadruple(2, -1, 2 * k + 1, -k)
        found[q.as_tuple()] = q
        frontier.append(q)
        k += 1
    while frontier:
        q = frontier.pop()
        rays = ((q.a1, q.b1, q.a2, q.b2), (q.a2, q.b2, q.a1, q.b1))
        for x1, y1, x2, y2 in rays:
            parent = SphereQuadruple(y1 + 2 * x1, -x1, x2 - y2, y2)
            if not is_sphere_quadruple(parent):
                raise ValueError(
                    f"inverse move from {q.as_tuple()} gave {parent.as_tuple()}, "
                    f"which does not satisfy the sphere equation"
                )
            if parent.a1 + parent.a2 > bound:
                continue
            key = parent.canonical().as_tuple()
            if key not in found:
                canon = parent.canonical()
                found[key] = canon
                frontier.append(canon)
    return sorted(found.values(), key=lambda q: (q.a1 + q.a2,) + q.as_tuple())


def quadruple_star(q: SphereQuadruple, name: str | None = None) -> PlumbingGraph:
    """Two-ray star with center weight -1 for a sphere quadruple."""
    if not is_sphere_quadruple(q):
        raise ValueError(f"{q.as_tuple()} does not satisfy the sphere equation")
    inv = SeifertInvariants(-1, ((q.a1, q.b1), (q.a2, q.b2)))
    return star_graph(inv, name)


def pairing_vector(q: SphereQuadruple) -> tuple[int, ...]:
    """Distinguished integer vector on the star of a sphere quadruple.

    See :func:`pairing_vector_from_rays`; this expands the two rays of
    the canonical quadruple.  Raises ValueError if q is not a sphere
    quadruple.
    """
    if not is_sphere_quadruple(q):
        raise ValueError(f"{q.as_tuple()} does not satisfy the sphere equation")
    c = q.canonical()
    return pairing_vector_from_rays(expand_ratio(-c.a1, -c.b1), expand_ratio(-c.a2, -c.b2))


def pairing_vector_from_rays(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """The pairing vector from the weight chains of the two rays.

    ``first`` is the ray whose ratio is >= -2.  Entries (in canonical
    vertex order: center, first ray, second ray) are -A1*C1 at the
    center, C1*B_i along the first ray and A1*D_j along the second,
    where (A_i, B_i) and (C_j, D_j) are the convergent pairs of the two
    chains.  Along any good sequence its pairing with the states jumps
    by exactly 2 at center moves and 0 otherwise.
    """
    first_cv = convergents(first)
    second_cv = convergents(second)
    a1 = first_cv[0][0]
    c1 = second_cv[0][0]
    return (
        (-a1 * c1,)
        + tuple(c1 * b for _, b in first_cv[:-1])
        + tuple(a1 * d for _, d in second_cv[:-1])
    )
