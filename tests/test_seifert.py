import itertools
import math
import random
from fractions import Fraction

import pytest

import plumbhf.seifert
from plumbhf.contfrac import expand_cf, expand_ratio
from plumbhf.errors import NonNegDefiniteError, NotCoprimeError
from plumbhf.graph import (
    PlumbingGraph,
    build_graph,
    complement_determinant,
    graph_determinant,
    is_negative_definite,
)
from plumbhf.report import analyze, brieskorn_row
from plumbhf.s3 import s3_rows
from plumbhf.seifert import (
    SeifertInvariants,
    _sort_rays,
    brieskorn,
    coprime_tuples,
    sigma_star,
    star_graph,
)
from support import (
    brieskorn_data,
    brute_quadruples,
    canonical_quadruple,
    coprime_pairs,
    delta,
    e8,
    is_sphere_quadruple,
    star,
)


def test_brieskorn_poincare_invariants():
    inv = brieskorn((2, 3, 5))
    assert inv.center_weight == -2
    assert inv.rays == ((5, -4), (3, -2), (2, -1))


def test_brieskorn_237_invariants():
    inv = brieskorn((2, 3, 7))
    assert inv.center_weight == -1
    assert inv.rays == ((2, -1), (3, -1), (7, -1))


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


def test_brieskorn_builds_no_graph(monkeypatch):
    def no_star(inv, name=None):
        raise AssertionError("brieskorn built a star")

    monkeypatch.setattr(plumbhf.seifert, "star_graph", no_star)
    assert brieskorn((2, 3, 5)).rays == ((5, -4), (3, -2), (2, -1))


def test_sigma_star_alone_checks_definiteness(monkeypatch):
    monkeypatch.setattr(plumbhf.seifert, "is_negative_definite", lambda graph: False)
    with pytest.raises(NonNegDefiniteError, match=r"star of \(2, 3, 5\) is not negative definite"):
        sigma_star((2, 3, 5))
    assert brieskorn((2, 3, 5)).center_weight == -2  # the invariants need no star
    with pytest.raises(NonNegDefiniteError):
        brieskorn_row((2, 3, 5))


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


@pytest.mark.parametrize(
    "center, rays, message",
    [(0, ((2, -1), (3, -1)), "center weight must be negative, got 0"),
     (-1, ((2, -2),), r"ray \(2, -2\) needs a >= 2 and -a < b < 0"),
     (-1, ((3, 0),), r"ray \(3, 0\) needs a >= 2 and -a < b < 0"),
     (-1, ((1, -1),), r"ray \(1, -1\) needs a >= 2 and -a < b < 0"),
     (-2, ((2, -1), (3, -2), (5, -3)), "homology-sphere equation"),
     (-2, ((2, -3), (3, -2), (5, -4)), r"ray \(2, -3\) needs a >= 2 and -a < b < 0"),
     (2, ((2, -1),), "center weight must be negative, got 2"),
     (-1, (), "at least one ray"),
     (-1, ((4, -2),), r"ray \(4, -2\) is not reduced"),
     # with center -1 the homology-sphere equation is the S^3 sphere equation
     (-1, ((2, -1), (3, -2)), "homology-sphere equation")],
    ids=["center-0", "b-is-minus-a", "b-is-0", "a-is-1", "product-equation", "b-below-minus-a",
         "center-positive", "no-rays", "not-reduced", "sphere-equation"],
)
def test_each_refused_invariant_is_named_at_its_bound(center, rays, message):
    """The first four also fail a later check (the sphere equation or gcd):
    only the message tells which refused them."""
    with pytest.raises(ValueError, match=message):
        SeifertInvariants(center, rays)


def test_the_integer_ray_key_orders_every_pair_of_reduced_rays_by_ratio():
    """The ray order fixes a star's vertex ids, and so every graph_hash."""
    rays = [(a, b) for a in range(2, 41) for b in range(1 - a, 0) if math.gcd(a, b) == 1]
    ratio = {r: Fraction(*r) for r in rays}
    for r, s in itertools.permutations(rays, 2):
        expected = (r, s) if ratio[r] > ratio[s] else (s, r)
        assert _sort_rays((r, s), r[0] * s[0]) == expected


def test_sphere_quadruple_validation():
    assert is_sphere_quadruple((2, -1, 3, -1))
    assert not is_sphere_quadruple((2, -1, 3, -2))
    with pytest.raises(ValueError):
        SeifertInvariants(-1, ((2, -2), (3, -1)))  # b1 must stay in (-a1, 0)
    with pytest.raises(ValueError):
        SeifertInvariants(-1, ((1, 0), (3, -1)))


def test_canonical_puts_large_ratio_first():
    """Each Sigma(x, y) has center -1 and exactly one ray ratio >= -2, which
    the invariants' order puts first, so s3_row reads a canonical quadruple
    off its rays."""
    pairs = coprime_pairs(120)
    assert len(pairs) == 2074
    for t in pairs:
        inv = brieskorn(t)
        (a1, b1), (a2, b2) = inv.rays
        assert inv.center_weight == -1, t
        assert Fraction(a1, b1) >= -2 > Fraction(a2, b2), t
        assert is_sphere_quadruple((a1, b1, a2, b2)), t
    # the support helper's integer comparison a <= -2b is the ratio test a/b >= -2
    assert canonical_quadruple((3, -1, 2, -1)) == (2, -1, 3, -1)
    assert canonical_quadruple((2, -1, 3, -1)) == (2, -1, 3, -1)
    rays = [(a, b) for a in range(2, 10) for b in range(-a + 1, 0)]
    for a1, b1 in rays:
        for a2, b2 in rays:
            if (Fraction(a1, b1) >= -2) != (Fraction(a2, b2) >= -2):
                c = canonical_quadruple((a1, b1, a2, b2))
                assert Fraction(c[0], c[1]) >= -2 > Fraction(c[2], c[3])


def test_enumerate_matches_brute_scan():
    """s3_rows enumerates each sphere quadruple once, by a1 + a2, then the
    quadruple, as a raw scan of the sphere equation finds them."""
    got = [r.quadruple for r in s3_rows(40)]
    assert got == sorted(brute_quadruples(40), key=lambda q: (q[0] + q[2],) + q)
    assert len(got) == 206


def test_enumerate_ordering_and_bound():
    assert s3_rows(4) == []  # the smallest quadruple (2,-1,3,-1) has a1 + a2 = 5
    assert [r.quadruple for r in s3_rows(7)] == [(2, -1, 3, -1), (2, -1, 5, -2), (3, -2, 4, -1)]


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


def test_integer_invariants_match_the_fraction_reference():
    """Same ray order, same accept/reject and same error text as Fractions."""
    rng = random.Random(6)
    tuples = coprime_tuples(30, 3)
    assert len(tuples) == 1037
    cases = []
    for t in tuples:
        m, rays, _, _ = brieskorn_data(t)
        rng.shuffle(rays)
        cases.append((m, tuple(rays)))
    for _ in range(600):
        k = rng.randint(1, 5)
        if rng.random() < 0.5:
            mults = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], k)
            m, rays, _, _ = brieskorn_data(mults)
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
        m, rays, _, _ = brieskorn_data(t)
        inv = SeifertInvariants(m, tuple(rays))
        weights = [m]
        for a, b in inv.rays:
            weights += expand_cf(Fraction(a, b))
        assert star_graph(inv).weights == tuple(weights)


def test_direct_stars_equal_the_validated_construction():
    """star_graph builds canonical edges with no build_graph pass; build_graph
    on the same weights and edges, and on the edges in construction order
    (support.star), gives the same graph, neighbors, hash and forms."""
    tuples = coprime_tuples(30, 3) + coprime_tuples(12, 4) + coprime_pairs(40)
    stars = [(sigma_star(t), brieskorn(t)) for t in tuples]
    for g, inv in stars:
        chains = [expand_ratio(-a, -b) for a, b in inv.rays]
        for built in (build_graph(g.weights, g.edges, g.name), star(inv.center_weight, *chains, name=g.name)):
            assert built == g, g
            assert built.neighbors == g.neighbors
            assert built.canonical_hash == g.canonical_hash
            assert built.forms == g.forms
    assert len(stars) > 1037 + 100


def test_only_the_poincare_sphere_lacks_a_delta_witness():
    """The paper's theorem on the invariants, as seifert.py's docstring
    proves it: with P = prod(a) and N0 = (n - 2)*P - sum P/a_j,
    Delta(N0) = -1 on every pairwise-coprime tuple, and N0 >= 1 on every
    tuple of three or more but (2, 3, 5), so tau falls after its first
    minimum and has a second.  At (2, 3, 5) N0 = -1, and Delta never
    falls below 0: HF+ is trivial."""
    below_one = []
    for max_a, rays in ((100, 3), (20, 4), (14, 5)):
        for t in coprime_tuples(max_a, rays):
            inv = brieskorn(t)
            n0 = brieskorn_data(t)[3]
            assert delta(inv.center_weight, inv.rays, n0) == -1, t
            if n0 < 1:
                below_one.append((t, n0))
    assert below_one == [((2, 3, 5), -1)]
    poincare = brieskorn((2, 3, 5))
    assert min(delta(poincare.center_weight, poincare.rays, i) for i in range(30)) == 0


# every star of one to five rays in these ranges (star_graph's proof covers all)
STARS = (coprime_tuples(59, 1) + coprime_tuples(40, 2) + coprime_tuples(40, 3)
         + coprime_tuples(13, 4) + coprime_tuples(11, 5))


def test_every_star_of_one_to_five_rays_stores_the_forms_its_sweep_reads():
    """A second route to the forms star_graph stores: the sweep, on a
    graph with the star's weights and edges and nothing stored, reads
    ((-1)^n, True), so |det| = 1 and a negative definite form."""
    assert len(STARS) == 58 + 450 + 2518 + 72 + 6
    for t in STARS:
        g = star_graph(brieskorn(t))
        swept = PlumbingGraph(g.weights, g.edges)
        assert "forms" not in vars(swept)
        assert g.forms == swept.forms == ((-1) ** g.vertex_count, True), t


def test_the_tau_period_of_every_star_is_the_product_of_its_multiplicities():
    """P = |det(G - v0)|, the period of the tau walk's stop rule, at v0 =
    the center (a star's only possible bad vertex, and vertex 0): each
    ray chain of a/b has |det| = a."""
    for t in STARS:
        assert abs(complement_determinant(star_graph(brieskorn(t)), 0)) == math.prod(t), t
