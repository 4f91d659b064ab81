import gc
import itertools
import math
import random
import re
import warnings
import weakref

import pytest

from plumbhf.errors import SelfCheckError, TooManyBadVerticesError
from plumbhf.game import (
    Association,
    AssociationGame,
    GoodSequence,
    is_final,
    is_good_sequence,
    is_initial,
)
from plumbhf.graph import (
    blow_down,
    build_graph,
    graph_determinant,
    is_negative_definite,
)
from plumbhf.report import analyze
from plumbhf.s3 import pairing_vector_from_rays, reverse_negate
from plumbhf.seifert import brieskorn, coprime_tuples, sigma_star, star_graph
from support import (
    brute_initial_states,
    chain,
    e8,
    interior_association_count,
    laufer_chi,
    oracle_completes,
    random_forest,
    random_unimodular_tree,
    relabeled_forest,
    star,
)


def assoc(graph, *values):
    return Association(graph, tuple(values))


def test_association_validation():
    g = chain(-2, -3)
    a = assoc(g, 0, -1)
    assert a.values == (0, -1)
    with pytest.raises(ValueError):
        assoc(g, 1, -1)  # parity of the first entry is wrong
    with pytest.raises(ValueError):
        assoc(g, 4, -1)  # above the bound -m
    with pytest.raises(ValueError):
        assoc(g, 0)


def test_initial_and_final_predicates():
    g = chain(-2, -3)
    assert is_initial(assoc(g, 0, -1))
    assert is_final(assoc(g, 0, -1))
    assert is_initial(assoc(g, 2, 3)) and not is_final(assoc(g, 2, 3))
    assert is_final(assoc(g, -2, -3)) and not is_initial(assoc(g, -2, -3))


def sequence(graph, moved, *states):
    return GoodSequence(tuple(assoc(graph, *s) for s in states), moved)


def test_replay_of_hand_built_sequences():
    """is_good_sequence is the one check of move legality."""
    g = chain(-1, -2)
    states = [(1, 0), (-1, 2), (1, -2), (-1, 0)]
    assert is_good_sequence(sequence(g, (0, 1, 0), *states))
    # no vertex 2, 3 or 5; vertex -1, read from the end of the tuple, is
    # vertex 1, which is at -m = 2 before the second move
    for moved in [(2, 3, 2), (0, -1, 0), (0, 1, 5)]:
        assert not is_good_sequence(sequence(g, moved, *states))
    # initial and final, but the moved vertex is at 0, not at -m(v) = 2
    single = build_graph([-2], [])
    assert is_good_sequence(sequence(single, (0,), (2,), (-2,)))
    assert not is_good_sequence(sequence(single, (0,), (0,), (-2,)))
    # vertex 1 is no neighbor of vertex 0, so moving 0 must leave it as it is
    apart = build_graph([-2, -2], [])
    assert is_good_sequence(sequence(apart, (0, 1), (2, 2), (-2, 2), (-2, -2)))
    assert not is_good_sequence(sequence(apart, (0,), (2, 2), (-2, -2)))
    with pytest.raises(ValueError, match="at least one state"):
        GoodSequence((), ())
    with pytest.raises(ValueError, match="exactly one moved vertex per step"):
        sequence(g, (0, 1), *states)
    with pytest.raises(ValueError):  # moving 0 at (1, 2) would push 1 to 4 > 2
        assoc(g, -1, 4)


def test_good_sequence_replay():
    g = chain(-1, -2)
    seq = AssociationGame(g).completes_to_good(assoc(g, 1, 0))
    assert seq is not None
    assert is_good_sequence(seq)
    assert seq.states[0].values == (1, 0)
    assert is_final(seq.states[-1])
    # tampering with the moved list breaks the replay
    broken = GoodSequence(seq.states, (0,) * len(seq.moved))
    assert not is_good_sequence(broken)


@pytest.mark.parametrize("graphs, counts", [
    pytest.param([build_graph([w], []) for w in (-1, -2, -3)], [1, 2, 3], id="single-vertex"),
    pytest.param([e8()], [1], id="e8"),
    # chains of p (-2)-vertices: count equals |det| = p + 1
    pytest.param([chain(*([-2] * p)) for p in range(1, 6)], [2, 3, 4, 5, 6], id="all-minus-two-chains"),
])
def test_counts_frozen_small_cases(graphs, counts):
    assert [AssociationGame(g).good_initial_count().count for g in graphs] == counts


def test_a_count_is_abs_det_exactly_on_rational_trees():
    """The L-space oracle for counts with |det| > 1: on a connected
    negative-definite tree with at most one bad vertex, the count is |det|
    iff Laufer's loop finds the graph rational (support.laufer_chi)."""
    # fixed inputs: every lens-space chain of 1 to 4 vertices weighted -2..-5
    # is rational, so its count is one good initial per spin^c structure,
    # |det|, here always more than 1 (at most 5^4 = 625 initials a chain)
    for p in range(1, 5):
        for weights in itertools.product(range(-5, -1), repeat=p):
            g = chain(*weights)
            count = AssociationGame(g).good_initial_count().count
            assert laufer_chi(g) == 1 and count == abs(graph_determinant(g)) > 1, weights
    rng = random.Random(15)
    seen = {"rational, |det| > 1": 0, "not rational": 0}  # both outcomes, and counts past 1
    drawn = 0
    while drawn < 400:
        g = random_forest(rng, max_vertices=8, weight_range=(-5, -1), edge_chance=1.0)
        if not is_negative_definite(g) or len(g.bad) > 1 or math.prod(-w for w in g.weights) > 3000:
            continue
        drawn += 1
        det, rational = abs(graph_determinant(g)), laufer_chi(g) == 1
        assert (AssociationGame(g).good_initial_count().count == det) == rational, g
        seen["rational, |det| > 1"] += rational and det > 1
        seen["not rational"] += not rational
    assert seen["rational, |det| > 1"] >= 300 and seen["not rational"] >= 10, seen


def test_poincare_unique_initial_is_minimal():
    r = AssociationGame(e8()).good_initial_count()
    assert r.count == 1
    assert r.initials[0].values == tuple(w + 2 for w in e8().weights)
    assert r.initial_total == 256
    assert not r.partial


def test_237_exact_count_and_initials():
    g = star_graph(brieskorn((2, 3, 7)))
    r = AssociationGame(g).good_initial_count()
    assert r.count == 2
    assert r.initial_total == 42
    assert [a.values for a in r.initials] == [(1, 0, -1, -5), (1, 0, -1, -3)]
    for w in r.witnesses:
        assert is_good_sequence(w)


def test_early_stop_semantics():
    g = build_graph([-5], [])  # count 5
    full = AssociationGame(g).good_initial_count()
    assert full.count == 5 and not full.partial
    part = AssociationGame(g).good_initial_count(early_stop=2)
    assert part.count == 2 and part.partial
    assert part.initials == full.initials[:2]
    # an early_stop above the true count still yields the exact count
    over = AssociationGame(g).good_initial_count(early_stop=9)
    assert over.count == 5 and not over.partial
    with pytest.raises(ValueError):
        AssociationGame(g).good_initial_count(early_stop=0)


def test_early_stop_partial_edge_cases():
    """Partial iff the stop leaves a later initial unscanned, counting the
    skipped initials with an adjacent capped pair as unscanned."""
    r = AssociationGame(chain(-2, -2)).good_initial_count(early_stop=3)
    assert r.count == 3 and r.partial  # (2, 2) has a capped pair, never scanned
    assert not AssociationGame(build_graph([-5], [])).good_initial_count(early_stop=5).partial
    isolated = build_graph([-2, -2], [])
    assert AssociationGame(isolated).good_initial_count().count == 4
    assert not AssociationGame(isolated).good_initial_count(early_stop=4).partial
    assert AssociationGame(isolated).good_initial_count(early_stop=3).partial


def test_play_moves_the_lowest_capped_vertex():
    """Witnesses are pinned: each step moves the lowest capped vertex."""
    r = AssociationGame(build_graph([-2, -2, -2], [(0, 2)])).good_initial_count()
    assert r.initials[-1].values == (2, 2, 0)
    assert r.witnesses[-1].moved == (0, 1, 2)


def test_initial_states_skip_adjacent_capped_pairs():
    """The scan yields exactly the initials without an adjacent capped
    pair, in the lexicographic order of the unpruned product.  Shuffled
    ids give vertices several lower neighbors, and caps of 0 (no initial
    at all), 1 (always capped) and >= 2 all occur."""
    rng = random.Random(11)
    graphs = [e8(), blow_down(sigma_star((3, 5, 7))), build_graph([], [])]
    graphs += [random_forest(rng, max_vertices=7) for _ in range(200)]
    for i in range(300):
        g = relabeled_forest(rng)
        if i % 10 == 0:  # a vertex of weight 0 or 1 leaves no initial state
            weights = list(g.weights)
            weights[rng.randrange(len(weights))] = rng.choice((0, 1))
            g = build_graph(weights, g.edges)
        graphs.append(g)
    seen = {"pruned": 0, "no initials": 0, "cap 1": 0, "cap >= 2": 0, "two lower neighbors": 0}
    for g in graphs:
        expected = brute_initial_states(g)
        got = [tuple(s) for s in AssociationGame(g)._initial_states()]
        assert got == expected, g
        seen["pruned"] += len(expected) < math.prod(max(-w, 0) for w in g.weights)
        seen["no initials"] += not got
        seen["cap 1"] += -1 in g.weights
        seen["cap >= 2"] += min(g.weights, default=0) <= -2
        seen["two lower neighbors"] += any(
            sum(u < v for u in ns) >= 2 for v, ns in enumerate(g.neighbors)
        )
    assert brute_initial_states(graphs[2]) == [()]  # the empty graph has one, empty, initial
    assert seen["pruned"] >= 100 and all(n >= 30 for n in seen.values()), seen


def _move(g, k, v):
    """Move v in the offsets k, in place; the new state as an Association."""
    k[v] = 0
    for u in g.neighbors[v]:
        k[u] += 1
    return Association(g, tuple(m + 2 * x for m, x in zip(g.weights, k)))


def _assert_play_decides_every_state(forests):
    """_play agrees with the oracle on every state, and a good play moves
    the lowest capped vertex each step, keeps every state an association
    and ends at a final one.  Returns the games' summed (capped_pairs,
    move_cycles)."""
    capped_pairs = move_cycles = 0
    for g in forests:
        game = AssociationGame(g)
        for k in itertools.product(*[range(-w + 1) for w in g.weights]):
            moves = game._play(k)
            values = tuple(w + 2 * x for w, x in zip(g.weights, k))
            assert (moves is not None) == oracle_completes(g, values), (g, k)
            if moves is not None:
                a, offsets = Association(g, values), list(k)
                for v in moves:
                    assert v == min(u for u, x in enumerate(offsets) if x == -g.weights[u]), (g, k, moves)
                    a = _move(g, offsets, v)
                assert is_final(a)
        capped_pairs += game.capped_pairs
        move_cycles += game.move_cycles
    return capped_pairs, move_cycles


def test_play_decides_every_state_of_nonsingular_forms():
    """On every state, not only the initial ones, the play that stops at
    the first adjacent capped pair agrees with the oracle."""
    rng = random.Random(13)
    forests = []
    while len(forests) < 200:
        g = random_forest(rng, max_vertices=6)
        if graph_determinant(g) != 0:
            forests.append(g)
    capped_pairs, move_cycles = _assert_play_decides_every_state(forests)
    assert capped_pairs >= 100
    assert move_cycles == 0


def test_repeated_calls_on_one_game_agree():
    """A game carries nothing from one call to the next: repeated counts
    and completions on one game give identical results."""
    g = blow_down(sigma_star((3, 5, 7)))
    game = AssociationGame(g)
    first = game.good_initial_count()
    first_partial = game.good_initial_count(early_stop=2)
    first_witnesses = first.witnesses
    for _ in range(2):
        again = game.good_initial_count()
        assert again == first
        assert again.witnesses == first_witnesses
        assert game.good_initial_count(early_stop=2) == first_partial
    ranges = [range(w + 2, -w + 1, 2) for w in g.weights]
    every_seventh = itertools.islice(itertools.product(*ranges), 0, None, 7)
    starts = [Association(g, values) for values in every_seventh]
    once = [game.completes_to_good(a) for a in starts]
    assert [game.completes_to_good(a) for a in starts] == once
    assert sum(seq is not None for seq in once) >= 1


def test_two_bad_vertices_refused():
    g = chain(-2, -1, -2, -1, -2)
    with pytest.raises(TooManyBadVerticesError):
        AssociationGame(g).good_initial_count()


def test_non_definite_graph_warns():
    affine = star(-2, [-2, -2], [-2, -2], [-2, -2])
    with pytest.warns(UserWarning):
        AssociationGame(affine).good_initial_count()


DOMAIN_WARNING_CALLS = {
    "analyze": analyze,
    "AssociationGame.good_initial_count": lambda g: AssociationGame(g).good_initial_count(),
    "completes_to_good": lambda g: AssociationGame(g).completes_to_good(Association(g, (2, 1, 2))),
}


@pytest.mark.parametrize("call", DOMAIN_WARNING_CALLS.values(), ids=DOMAIN_WARNING_CALLS)
@pytest.mark.parametrize("name", [None, "singular"])
def test_the_domain_warning_names_the_graph_at_the_callers_line(call, name):
    """Each entry point attributes the warning to the first frame outside
    the package, this file, whatever depth inside the package warns."""
    g = build_graph([-2, -1, -2], [(0, 1), (1, 2)], name=name)  # singular: not definite
    label = f"with hash {g.canonical_hash}" if name is None else repr(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(g)
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
    assert str(caught[0].message).startswith(f"graph {label} is outside the validity domain")


def test_singular_chain_has_no_good_initials():
    g = chain(-2, -1, -2)
    assert graph_determinant(g) == 0
    game = AssociationGame(g)
    with pytest.warns(UserWarning):
        r = game.good_initial_count()
    assert r.count == 0
    assert r.initial_total == 4


@pytest.mark.parametrize("weights", [(-2, 0), (1,), (-2, -3, 2)])
def test_a_weight_of_zero_or_more_leaves_no_initials(weights):
    """A vertex with m(v) >= 0 has no offset in 1..-m(v), so no state is initial."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # none of these forms is negative definite
        r = AssociationGame(chain(*weights)).good_initial_count()
    assert (r.count, r.initial_total, r.partial) == (0, 0, False)


def test_play_decides_every_state_of_singular_forms():
    """A play that revisits a state is not good; on every state, not only
    the initial ones, the cycle-checked play agrees with the oracle."""
    rng = random.Random(7)
    forests = [chain(-1, -1)]
    while len(forests) < 201:
        g = random_forest(rng, max_vertices=6)
        if graph_determinant(g) == 0:
            forests.append(g)
    _, move_cycles = _assert_play_decides_every_state(forests)
    assert move_cycles >= 100  # the corpus must exercise the cycle rule
    # chain(-1, -1) from k = (1, 0) moves back and forth forever
    game = AssociationGame(chain(-1, -1))
    assert game._play((1, 0)) is None


def test_completes_to_good_validations():
    g = chain(-2, -2)
    game = AssociationGame(g)
    with pytest.raises(ValueError):
        game.completes_to_good(Association(chain(-2, -3), (0, -1)))
    with pytest.raises(ValueError):
        game.completes_to_good(Association(g, (-2, 0)))  # hits the lower bound


def test_a_start_with_an_adjacent_capped_pair_is_one_stopped_play():
    g = chain(-2, -2, -3)
    game = AssociationGame(g)
    assert game.completes_to_good(assoc(g, 2, 2, -1)) is None
    assert (game.capped_pairs, game.move_cycles) == (1, 0)


def test_the_tau_walk_takes_one_period_on_three_ray_stars():
    """Delta >= -1 = -|det| there, so the stop rule's t stays -1 and the walk
    ends at step P - 1 (module doc), P = a1*a2*a3 = |det| of the star minus its center."""
    for t in coprime_tuples(12, 3):
        game = AssociationGame(sigma_star(t))
        game.good_initial_count()
        assert game.tau_steps == math.prod(t)


def test_interior_association_count():
    assert interior_association_count(e8()) == 1
    assert interior_association_count(build_graph([-3], [])) == 2
    assert interior_association_count(star(-2, [-2], [-3])) == 2
    assert interior_association_count(chain(-4, -5)) == 12
    with pytest.raises(ValueError):
        interior_association_count(chain(-2, -1, -2))


def test_pairing_vector_frozen_examples():
    # the weight chains of the rays of (2, -1, 3, -1), (2, -1, 5, -2) and (3, -2, 4, -1)
    assert pairing_vector_from_rays([-2], [-3]) == (-6, -3, -2)
    assert pairing_vector_from_rays([-2], [-3, -2]) == (-10, -5, -4, -2)
    assert pairing_vector_from_rays([-2, -2], [-4]) == (-12, -8, -4, -3)


def test_reverse_negate_replays():
    g = sigma_star((3, 4))  # the quadruple (3, -2, 4, -1)
    seq = AssociationGame(g).good_initial_count().witnesses[0]
    rev = reverse_negate(seq)
    assert is_good_sequence(rev)
    assert rev.states[0].values == tuple(-x for x in seq.states[-1].values)
    assert rev.moved == tuple(reversed(seq.moved))


@pytest.mark.parametrize(
    "start, play",
    [((0,), [0]), ((2,), [])],
    ids=["uncapped-move", "short-of-final"],
)
def test_a_bad_play_raises_instead_of_returning_a_witness(monkeypatch, start, play):
    """Every witness is replayed from initial to final: a play that moves
    an uncapped vertex or stops before a final state raises, from
    completes_to_good and from a count's witnesses."""
    g = build_graph([-2], [])  # both initials, k = 1 and k = 2, are good
    monkeypatch.setattr(AssociationGame, "_play", lambda self, state: list(play))
    offsets = ((start[0] + 2) // 2,)
    with pytest.raises(SelfCheckError, match=re.escape(f"play {play} from offsets {offsets} fails the replay")):
        AssociationGame(g).completes_to_good(assoc(g, *start))
    result = AssociationGame(g).good_initial_count()
    assert result.count == 2
    with pytest.raises(SelfCheckError, match="fails the replay"):
        result.witnesses


def test_result_does_not_keep_the_game_alive():
    game = AssociationGame(sigma_star((3, 5, 7)))
    result = game.good_initial_count()
    ref = weakref.ref(game)
    del game
    gc.collect()
    assert ref() is None
    assert all(is_good_sequence(w) for w in result.witnesses)


def _assert_tau_equals_scan(g):
    """The exact count walks tau, and its result (initials, their order,
    moves, count, partial, initial_total) equals the scan's."""
    game = AssociationGame(g)
    tau = game.good_initial_count()
    steps = game.tau_steps
    assert steps > 0
    assert tau == game._count(game._initial_states()), g
    assert game.tau_steps == steps  # the scan does not walk
    return tau


def test_tau_matches_the_scan_on_brieskorn_stars():
    """Every pairwise-coprime tuple with 3 rays and a <= 17, 4 rays and
    a <= 9, 5 rays and a <= 7, up to 300k initials.  With three or more
    rays the star is already blown down (a center of degree >= 3, rays
    of weight <= -2), so each tuple gives one graph."""
    compared = 0
    for rays, max_a in ((3, 17), (4, 9), (5, 7)):
        for t in coprime_tuples(max_a, rays):
            g = sigma_star(t)
            assert blow_down(g) == g
            if math.prod(-w for w in g.weights) <= 300_000:
                _assert_tau_equals_scan(g)
                compared += 1
    assert compared >= 165


def test_tau_matches_the_scan_on_random_unimodular_trees():
    rng = random.Random(5)
    # Delta(i) < -1 here, so the stop rule must wait a period past that step
    deep = build_graph([-37, -1, -4, -2, -5, -3], [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5)])
    graphs = [deep, e8(), build_graph([-1], [])]
    graphs += [random_unimodular_tree(rng, nodes=2 if i % 5 == 0 else 1) for i in range(300)]
    two_nodes = no_bad = ranked = 0
    for g in graphs:
        two_nodes += sum(len(ns) >= 3 for ns in g.neighbors) >= 2
        no_bad += not g.bad
        ranked += _assert_tau_equals_scan(g).count >= 2
    assert AssociationGame(deep).good_initial_count().count == 192
    assert two_nodes >= 50 and no_bad >= 10 and ranked >= 50


def test_scan_runs_outside_the_tau_domain():
    """|det| != 1, a disconnected forest and an early stop use the scan."""
    det2 = star(-1, [-2], [-4], [-5])
    assert abs(graph_determinant(det2)) == 2 and is_negative_definite(det2)
    forest = build_graph([-2, -2, -2, -2, -2, -2, -2, -2, -1], e8().edges)
    assert graph_determinant(forest) == -1 and not forest.is_connected
    cases = [(det2, None), (forest, None), (e8(), 1), (sigma_star((2, 3, 7)), 5)]
    for g, early_stop in cases:
        game = AssociationGame(g)
        r = game.good_initial_count(early_stop)
        assert game.tau_steps == game.laufer_steps == 0
        assert r == game._count(game._initial_states(), early_stop)
    assert AssociationGame(forest).good_initial_count().count == 1


def test_a_tau_initial_whose_play_fails_raises(monkeypatch):
    g = sigma_star((2, 3, 7))
    initial = AssociationGame(g).good_initial_count().initials[1]
    offsets = tuple((x - m) // 2 for m, x in zip(g.weights, initial.values))
    play = AssociationGame._play

    def failing(self, state):
        return None if tuple(state) == offsets else play(self, state)

    monkeypatch.setattr(AssociationGame, "_play", failing)
    with pytest.raises(SelfCheckError, match="not a good initial"):
        AssociationGame(g).good_initial_count()


@pytest.mark.parametrize(
    "state",
    [[0] + [1] * 7, [3] + [1] * 7, [1] * 7, [1] * 9],
    ids=["below-one", "above-cap", "short", "long"],
)
def test_a_good_start_out_of_range_raises(monkeypatch, state):
    """The count checks the offsets it keeps, even of a start whose play
    succeeds: none of these is an initial state of E8."""
    monkeypatch.setattr(AssociationGame, "_initial_states", lambda self: iter([state]))
    monkeypatch.setattr(AssociationGame, "_play", lambda self, state: [])
    with pytest.raises(SelfCheckError, match="is not an initial state"):
        AssociationGame(e8()).good_initial_count(early_stop=1)
    monkeypatch.setattr(AssociationGame, "_tau_states", lambda self: [tuple(state)])
    with pytest.raises(SelfCheckError, match="is not an initial state"):
        AssociationGame(e8()).good_initial_count()


def test_each_kept_start_is_checked_once(monkeypatch):
    """One _is_initial call per good initial, on the tau walk and the scan."""
    calls = []
    check = AssociationGame._is_initial

    def counted(self, state):
        calls.append(tuple(state))
        return check(self, state)

    monkeypatch.setattr(AssociationGame, "_is_initial", counted)
    g = sigma_star((2, 3, 7))
    for early_stop in (None, 2, 9):
        del calls[:]
        game = AssociationGame(g)
        result = game.good_initial_count(early_stop)
        assert result.count == 2 and (game.tau_steps > 0) == (early_stop is None)
        assert calls == list(result.offsets)
