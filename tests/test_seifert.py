import math
import random
from fractions import Fraction

import pytest

from plumbhf.contfrac import expand_cf, expand_ratio
from plumbhf.errors import NotCoprimeError
from plumbhf.graph import build_graph, graph_determinant, is_negative_definite
from plumbhf.report import analyze
from plumbhf.seifert import (
    SeifertInvariants,
    SphereQuadruple,
    brieskorn,
    coprime_tuples,
    enumerate_quadruples,
    quadruple_star,
    sigma_star,
    star_graph,
)
from support import brute_quadruples, e8, is_sphere_quadruple, reduce_quadruple, star


def test_brieskorn_poincare_invariants():
    inv = brieskorn((2, 3, 5))
    assert inv.center_weight == -2
    assert inv.rays == ((5, -4), (3, -2), (2, -1))


def test_brieskorn_237_invariants():
    inv = brieskorn((2, 3, 7))
    assert inv.center_weight == -1
    assert inv.rays == ((2, -1), (3, -1), (7, -1))


def test_brieskorn_satisfies_product_equation():
    for mults in ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (5, 7, 9, 11)):
        inv = brieskorn(mults)
        product = 1
        for a, b in inv.rays:
            product *= a
            assert -a < b < 0
        # the defining property of the surgery description
        total = Fraction(-inv.center_weight) + sum(Fraction(b, a) for a, b in inv.rays)
        assert product * total == 1


def test_brieskorn_rejects_shared_factors():
    with pytest.raises(NotCoprimeError):
        brieskorn((2, 4, 5))
    with pytest.raises(NotCoprimeError):
        brieskorn((3, 6, 35))


def test_brieskorn_rejects_small_multiplicities():
    with pytest.raises(ValueError):
        brieskorn((1, 2, 3))
    with pytest.raises(ValueError):
        brieskorn(())


def test_brieskorn_single_multiplicity_is_a_sphere_chain():
    # one ray gives S^3 presented as a chain; still a homology sphere
    g = star_graph(brieskorn((5,)))
    assert g.weights == (-1, -2, -2, -2, -2)
    assert abs(graph_determinant(g)) == 1


def test_brieskorn_order_insensitive():
    assert brieskorn((7, 2, 3)) == brieskorn((2, 3, 7))


def test_star_graph_poincare_is_e8():
    g = star_graph(brieskorn((2, 3, 5)))
    ref = e8()
    assert g.weights == ref.weights
    assert g.edges == ref.edges
    assert graph_determinant(g) == 1
    assert is_negative_definite(g)


def test_star_graph_shape():
    g = star_graph(brieskorn((2, 3, 7)))
    assert g.weights == (-1, -2, -3, -7)
    assert g.edges == ((0, 1), (0, 2), (0, 3))
    assert analyze(g).is_homology_sphere
    assert g.bad == (0,)


def test_seifert_invariants_sorted_and_validated():
    inv = SeifertInvariants(-2, ((2, -1), (5, -4), (3, -2)))
    assert inv.rays == ((5, -4), (3, -2), (2, -1))
    with pytest.raises(ValueError):
        SeifertInvariants(-2, ((2, -1), (3, -2), (5, -3)))  # product equation fails
    with pytest.raises(ValueError):
        SeifertInvariants(-2, ((2, -3), (3, -2), (5, -4)))  # b out of range
    with pytest.raises(ValueError):
        SeifertInvariants(2, ((2, -1),))  # center must be negative


def test_sphere_quadruple_validation():
    q = SphereQuadruple(2, -1, 3, -1)
    assert q.as_tuple() == (2, -1, 3, -1)
    assert is_sphere_quadruple(q)
    assert not is_sphere_quadruple(SphereQuadruple(2, -1, 3, -2))
    with pytest.raises(ValueError):
        SphereQuadruple(2, -2, 3, -1)  # b1 must stay in (-a1, 0)
    with pytest.raises(ValueError):
        SphereQuadruple(1, 0, 3, -1)


def test_canonical_puts_large_ratio_first():
    q = SphereQuadruple(3, -1, 2, -1)
    assert q.canonical().as_tuple() == (2, -1, 3, -1)
    assert SphereQuadruple(2, -1, 3, -1).canonical().as_tuple() == (2, -1, 3, -1)
    # the integer comparison a <= -2b is the ratio test a/b >= -2
    rays = [(a, b) for a in range(2, 10) for b in range(-a + 1, 0)]
    for a1, b1 in rays:
        for a2, b2 in rays:
            q = SphereQuadruple(a1, b1, a2, b2)
            big = [Fraction(a, b) >= -2 for a, b in ((a1, b1), (a2, b2))]
            if big[0] == big[1]:
                with pytest.raises(ValueError):
                    q.canonical()
            else:
                c = q.canonical()
                assert Fraction(c.a1, c.b1) >= -2 > Fraction(c.a2, c.b2)


def test_reduce_step_and_base_case():
    q = SphereQuadruple(5, -3, 3, -1)
    assert reduce_quadruple(q).as_tuple() == (3, -1, 2, -1)
    with pytest.raises(ValueError):
        reduce_quadruple(SphereQuadruple(2, -1, 3, -1))
    with pytest.raises(ValueError):
        reduce_quadruple(SphereQuadruple(2, -1, 3, -2))


def test_reduce_chain_terminates_at_base_family():
    for q in enumerate_quadruples(20):
        steps = 0
        while True:
            try:
                q = reduce_quadruple(q).canonical()
            except ValueError:
                break
            steps += 1
            assert steps < 50
        assert q.canonical().a1 == 2 and q.canonical().b1 == -1


def test_reduce_inverts_the_closure_move():
    q = SphereQuadruple(2, -1, 3, -1)
    parent = SphereQuadruple(q.b1 + 2 * q.a1, -q.a1, q.a2 - q.b2, q.b2)
    assert parent.as_tuple() == (3, -2, 4, -1)
    assert is_sphere_quadruple(parent)
    back = reduce_quadruple(parent.canonical())
    assert back.canonical().as_tuple() == q.as_tuple()


def test_enumerate_matches_brute_scan():
    got = {q.as_tuple() for q in enumerate_quadruples(40)}
    assert got == brute_quadruples(40)
    assert len(got) == 206


def test_each_quadruple_star_is_the_sigma_star_of_its_pair():
    """enumerate_quadruples reads each quadruple off brieskorn((a1, a2)), so
    its star is Sigma(a1, a2)'s; the names differ, so weights and edges only."""
    for q in enumerate_quadruples(40):
        g, sigma = quadruple_star(q), sigma_star(tuple(sorted((q.a1, q.a2))))
        assert (g.weights, g.edges) == (sigma.weights, sigma.edges), q


def test_enumerate_ordering_and_bound():
    qs = enumerate_quadruples(12)
    sums = [q.a1 + q.a2 for q in qs]
    assert sums == sorted(sums)
    assert all(s <= 12 for s in sums)
    assert qs[0].as_tuple() == (2, -1, 3, -1)
    with pytest.raises(ValueError):
        enumerate_quadruples(4)


def test_quadruple_star_properties():
    for q in enumerate_quadruples(10):
        g = quadruple_star(q)
        assert g.weights[0] == -1
        assert len(g.neighbors[0]) == 2
        assert is_negative_definite(g)
        assert abs(graph_determinant(g)) == 1
    # with center -1 the invariants' homology-sphere equation is the sphere equation
    with pytest.raises(ValueError, match="homology-sphere equation"):
        quadruple_star(SphereQuadruple(2, -1, 3, -2))


def _fraction_invariants(m, rays):
    """Sorted rays, or the equation's error text, computed with Fractions."""
    ordered = tuple(sorted(rays, key=lambda ray: Fraction(ray[0], ray[1]), reverse=True))
    total = Fraction(-m) + sum(Fraction(b, a) for a, b in ordered)
    value = math.prod(a for a, _ in ordered) * total
    if value != 1:
        return (
            "data does not satisfy the homology-sphere equation: "
            f"prod(a) * (-m + sum b/a) = {value}, expected 1"
        )
    return ordered


def _integer_invariants(m, rays):
    try:
        return SeifertInvariants(m, rays).rays
    except ValueError as exc:
        return str(exc)


def _brieskorn_data(mults):
    """(m, rays) as brieskorn solves them, without its definiteness check."""
    product = math.prod(mults)
    rays = [(a, pow(product // a, -1, a) - a) for a in mults]
    return (sum(b * (product // a) for a, b in rays) - 1) // product, rays


def test_integer_invariants_match_the_fraction_reference():
    """Same ray order, same accept/reject and same error text as Fractions."""
    rng = random.Random(6)
    tuples = coprime_tuples(30, 3)
    assert len(tuples) == 1037
    cases = []
    for t in tuples:
        m, rays = _brieskorn_data(t)
        rng.shuffle(rays)
        cases.append((m, tuple(rays)))
    for _ in range(600):
        k = rng.randint(1, 5)
        if rng.random() < 0.5:
            mults = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], k)
            m, rays = _brieskorn_data(mults)
            if rng.random() < 0.5:  # break the equation
                m -= rng.randint(1, 3)
        else:
            m, rays = -rng.randint(1, 6), []
            while len(rays) < k:
                a = rng.randint(2, 40)
                b = -rng.randint(1, a - 1)
                if math.gcd(a, b) == 1:
                    rays.append((a, b))
        rng.shuffle(rays)
        cases.append((m, tuple(rays)))
    accepted = 0
    for m, rays in cases:
        expected = _fraction_invariants(m, rays)
        assert _integer_invariants(m, rays) == expected, (m, rays)
        accepted += isinstance(expected, tuple)
    assert 1037 < accepted < len(cases) - 200  # both outcomes well covered


def test_star_chains_are_the_fraction_expansions():
    for t in coprime_tuples(30, 3):
        m, rays = _brieskorn_data(t)
        inv = SeifertInvariants(m, tuple(rays))
        weights = [m]
        for a, b in inv.rays:
            weights += expand_cf(Fraction(a, b))
        assert star_graph(inv).weights == tuple(weights)


def test_direct_stars_equal_the_validated_construction():
    """star_graph builds canonical edges with no build_graph pass; build_graph
    on the same weights and edges, and on the edges in construction order
    (support.star), gives the same graph, neighbors, hash and forms."""
    stars = [
        (sigma_star(t), brieskorn(t)) for rays, a in ((3, 30), (4, 12)) for t in coprime_tuples(a, rays)
    ]
    stars += [
        (quadruple_star(q), SeifertInvariants(-1, ((q.a1, q.b1), (q.a2, q.b2))))
        for q in enumerate_quadruples(40)
    ]
    for g, inv in stars:
        chains = [expand_ratio(-a, -b) for a, b in inv.rays]
        for built in (build_graph(g.weights, g.edges, g.name), star(inv.center_weight, *chains, name=g.name)):
            assert built == g, g
            assert built.neighbors == g.neighbors
            assert built.canonical_hash == g.canonical_hash
            assert built.forms == g.forms
    assert len(stars) > 1037 + 100
