"""Acceptance gate: one test per criterion, one printed line each.

Each test prints "criterion N: PASS/FAIL ..." directly to the terminal
(bypassing capture) so a plain pytest run shows the per-criterion
outcome alongside the usual test report.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from plumbhf.contfrac import expand_cf
from plumbhf.files import canonical_graph_hash
from plumbhf.game import AssociationGame
from plumbhf.graph import blow_down, graph_determinant, is_negative_definite
from plumbhf.report import survey_all_minus_two, survey_brieskorn
from plumbhf.s3 import s3_rows
from plumbhf.seifert import brieskorn, sigma_star, star_graph
from support import (
    blow_up_edge,
    blow_up_leaf,
    brute_quadruples,
    chain,
    cofactor_det,
    coprime_pairs,
    e8,
    eval_cf,
    interior_association_count,
    intersection_matrix,
    random_forest,
    random_small_star,
    reduced_fractions,
    star,
)


@contextmanager
def announce(capfd, number, summary):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number}: FAIL  {summary}")
        raise
    detail = f"  [{info['detail']}]" if info["detail"] else ""
    with capfd.disabled():
        print(f"criterion {number}: PASS  {summary}{detail}")


def full_count(graph):
    return AssociationGame(graph).good_initial_count().count


def test_criterion_1_poincare_sphere(capfd):
    with announce(capfd, 1, "Poincare sphere exact invariants") as info:
        start = time.perf_counter()
        inv = brieskorn((2, 3, 5))
        assert inv.center_weight == -2
        assert sorted(b for _, b in inv.rays) == [-4, -2, -1]
        assert sorted(len(expand_cf(Fraction(a, b))) for a, b in inv.rays) == [1, 2, 4]
        graph = star_graph(inv)
        assert graph.vertex_count == 8
        assert all(w == -2 for w in graph.weights)
        assert graph_determinant(graph) == 1
        assert is_negative_definite(graph)
        # the degree-3 center is the one bad vertex (m = -2 > -3), the
        # most the counting algorithm allows
        assert graph.bad == (0,)
        assert full_count(graph) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = f"count 1 in {elapsed:.3f}s"


def test_criterion_2_triple_sweep(capfd):
    with announce(capfd, 2, "3-ray sweep a <= 30: only (2,3,5) has count 1") as info:
        start = time.perf_counter()
        rows = survey_brieskorn(max_a=30, rays=3, early_stop=2)
        assert len(rows) == 1037
        trivial = [r.params for r in rows if r.verdict == "trivial-rank"]
        assert trivial == [(2, 3, 5)]
        by_params = {r.params: r for r in rows}
        for t in ((2, 3, 11), (2, 5, 7), (3, 4, 5)):
            assert by_params[t].count >= 2
        # exact full count for the smallest nontrivial sphere
        assert full_count(star_graph(brieskorn((2, 3, 7)))) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        info["detail"] = f"{len(rows)} tuples in {elapsed:.1f}s"


def test_criterion_3_all_minus_two_solutions(capfd):
    with announce(capfd, 3, "all-(-2) candidates: (1,2,4) and nothing else") as info:
        rows = survey_all_minus_two(max_p=12, rays=3)
        hits = [r.params for r in rows if r.verdict == "solution"]
        assert hits == [(1, 2, 4)]
        for rays in (4, 5, 6):
            rows = survey_all_minus_two(max_p=12, rays=rays)
            assert all(r.verdict == "non-solution" for r in rows)
        info["detail"] = "n=3 gives (1,2,4); n=4,5,6 give none"


def test_criterion_4_sphere_quadruple_properties(capfd):
    with announce(capfd, 4, "two-ray sphere stars: all five properties") as info:
        start = time.perf_counter()
        rows = s3_rows(20)
        assert len(rows) >= 10
        assert len(rows) == 45
        for row in rows:
            assert row.unique_good_initial, row
            assert row.bumped_sums_hold, row
            assert row.central_count_matches, row
            assert row.pairing_jumps_match, row
            assert row.reversal_is_good, row
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = f"{len(rows)} quadruples in {elapsed:.1f}s"


def test_criterion_5_oracle_equivalences(capfd):
    with announce(capfd, 5, "independent oracles agree exactly") as info:
        corpus = [
            chain(),
            chain(-1),
            chain(-2),
            chain(-2, -1, -2),
            chain(-2, -2, -2, -2),
            star(-2, [-2, -2], [-2, -2], [-2, -2]),
            e8(),
            star_graph(brieskorn((2, 3, 5))),
            star_graph(brieskorn((2, 3, 7))),
            star_graph(brieskorn((2, 3, 11))),
        ]
        rng = random.Random(5)
        corpus += [random_forest(rng, max_vertices=9) for _ in range(30)]
        for graph in corpus:
            assert graph.vertex_count <= 9
            matrix = [list(row) for row in intersection_matrix(graph)]
            assert graph_determinant(graph) == cofactor_det(matrix)

        ours = {sum(brieskorn(t).rays, ()) for t in coprime_pairs(20)}  # S^3 = Sigma(x, y)
        assert ours == brute_quadruples(20)
        assert len(ours) == 45

        seen = 0
        for x in reduced_fractions(50):
            coeffs = expand_cf(x)
            assert all(t <= -2 for t in coeffs)
            assert eval_cf(coeffs) == x
            seen += 1
        assert seen > 700
        info["detail"] = f"{len(corpus)} determinants, 45 quadruples, {seen} fractions"


def test_criterion_6_product_lower_bound(capfd):
    with announce(capfd, 6, "count >= interior product bound on 50 stars") as info:
        rng = random.Random(20260819)
        for _ in range(50):
            graph = random_small_star(rng)
            bound = interior_association_count(graph)
            result = AssociationGame(graph).good_initial_count(early_stop=bound)
            assert result.count >= bound, (graph.weights, graph.edges)
        info["detail"] = "0 violations"


def test_criterion_7_blow_down_invariance(capfd):
    with announce(capfd, 7, "blow-down preserves count and |det| on 20 graphs") as info:
        sigma237 = star_graph(brieskorn((2, 3, 7)))
        corpus = [sigma_star(t) for t in coprime_pairs(12)]
        corpus += [blow_up_edge(e8(), 0, v) for v in (1, 5, 7)]
        corpus += [blow_up_leaf(e8(), 0), blow_up_leaf(sigma237, 0)]
        corpus += [chain(-3, -1, -3), chain(-1), chain(-1, -2)]
        assert len(corpus) == 20
        for graph in corpus:
            assert -1 in graph.weights
            reduced = blow_down(graph)
            assert reduced.vertex_count < graph.vertex_count
            assert abs(graph_determinant(reduced)) == abs(graph_determinant(graph))
            assert full_count(reduced) == full_count(graph)
        # edge blow-up round-trips to the same graph
        assert canonical_graph_hash(blow_down(blow_up_edge(e8(), 0, 1))) == (
            canonical_graph_hash(e8())
        )
        info["detail"] = "20 graphs invariant"


def test_criterion_8_projective_space_control(capfd):
    with announce(capfd, 8, "single -2 vertex has count 2") as info:
        result = AssociationGame(chain(-2)).good_initial_count()
        assert result.count == 2
        assert result.initial_total == 2
        assert not result.partial
        info["detail"] = "count 2 of 2 initials"
