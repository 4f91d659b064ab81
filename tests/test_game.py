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
    good_initial_count,
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
from plumbhf.s3 import reverse_negate
from plumbhf.seifert import brieskorn, sigma_star, star_graph
from support import (
    brute_initial_states,
    chain,
    coprime_pairs,
    e8,
    interior_association_count,
    oracle_completes,
    oracle_count,
    pairing_vector,
    random_forest,
    random_small_star,
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


def test_engine_matches_bfs_oracle_on_random_graphs():
    """The production engine (one in-place play per start, with a
    visited set on singular forms) agrees with an uncached oracle."""
    rng = random.Random(101)
    singular = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(150):
            g = random_forest(rng, max_vertices=6)
            if graph_determinant(g) == 0:
                singular += 1
            game = AssociationGame(g)
            ranges = [range(w + 2, -w + 1, 2) for w in g.weights]
            for values in itertools.product(*ranges):
                a = Association(g, tuple(values))
                got = game.completes_to_good(a)
                assert (got is not None) == oracle_completes(g, values)
                if got is not None:
                    assert is_good_sequence(got)
    assert singular >= 1  # the corpus must exercise the cycle-checked plays


def test_counts_frozen_small_cases():
    assert good_initial_count(build_graph([-1], [])).count == 1
    assert good_initial_count(build_graph([-2], [])).count == 2
    assert good_initial_count(build_graph([-3], [])).count == 3
    assert good_initial_count(e8()).count == 1
    # chains of p (-2)-vertices: count equals |det| = p + 1
    for p in range(1, 6):
        g = chain(*([-2] * p))
        assert good_initial_count(g).count == p + 1


def test_poincare_unique_initial_is_minimal():
    r = good_initial_count(e8())
    assert r.count == 1
    assert r.initials[0].values == tuple(w + 2 for w in e8().weights)
    assert r.initial_total == 256
    assert not r.partial


def test_237_exact_count_and_initials():
    g = star_graph(brieskorn((2, 3, 7)))
    r = good_initial_count(g)
    assert r.count == 2
    assert r.initial_total == 42
    assert [a.values for a in r.initials] == [(1, 0, -1, -5), (1, 0, -1, -3)]
    for w in r.witnesses:
        assert is_good_sequence(w)


def test_counts_match_full_oracle():
    cases = [
        e8(),
        chain(-2, -3, -2),
        star(-2, [-2], [-3]),
        star(-3, [-2, -2], [-4]),
        sigma_star((2, 5)),  # the quadruple (2, -1, 5, -2)
        star_graph(brieskorn((2, 3, 7))),
        chain(-2, -2, -2),
    ]
    for g in cases:
        assert good_initial_count(g).count == oracle_count(g)


def test_early_stop_semantics():
    g = build_graph([-5], [])  # count 5
    full = good_initial_count(g)
    assert full.count == 5 and not full.partial
    part = good_initial_count(g, early_stop=2)
    assert part.count == 2 and part.partial
    assert part.initials == full.initials[:2]
    # an early_stop above the true count still yields the exact count
    over = good_initial_count(g, early_stop=9)
    assert over.count == 5 and not over.partial
    with pytest.raises(ValueError):
        good_initial_count(g, early_stop=0)


def test_early_stop_partial_edge_cases():
    """Partial iff the stop leaves a later initial unscanned, counting the
    skipped initials with an adjacent capped pair as unscanned."""
    r = good_initial_count(chain(-2, -2), early_stop=3)
    assert r.count == 3 and r.partial  # (2, 2) has a capped pair, never scanned
    assert not good_initial_count(build_graph([-5], []), early_stop=5).partial
    isolated = build_graph([-2, -2], [])
    assert good_initial_count(isolated).count == 4
    assert not good_initial_count(isolated, early_stop=4).partial
    assert good_initial_count(isolated, early_stop=3).partial


def test_play_moves_the_lowest_capped_vertex():
    """Witnesses are pinned: each step moves the lowest capped vertex."""
    r = good_initial_count(build_graph([-2, -2, -2], [(0, 2)]))
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
    only capped vertices, keeps every state an association and ends at a
    final one.  Returns the games' summed (capped_pairs, move_cycles)."""
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
                    assert offsets[v] == -g.weights[v], (g, k, moves)
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
        good_initial_count(g)


def test_non_definite_graph_warns():
    affine = star(-2, [-2, -2], [-2, -2], [-2, -2])
    with pytest.warns(UserWarning):
        good_initial_count(affine)


def test_singular_chain_has_no_good_initials():
    g = chain(-2, -1, -2)
    assert graph_determinant(g) == 0
    game = AssociationGame(g)
    with pytest.warns(UserWarning):
        r = game.good_initial_count()
    assert r.count == 0
    assert r.initial_total == 4


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


def test_interior_association_count():
    assert interior_association_count(e8()) == 1
    assert interior_association_count(build_graph([-3], [])) == 2
    assert interior_association_count(star(-2, [-2], [-3])) == 2
    assert interior_association_count(chain(-4, -5)) == 12
    with pytest.raises(ValueError):
        interior_association_count(chain(-2, -1, -2))


def test_interior_bound_holds_on_small_stars():
    rng = random.Random(33)
    for _ in range(12):
        g = random_small_star(rng)
        bound = interior_association_count(g)
        assert good_initial_count(g, early_stop=bound).count >= bound


def test_pairing_vector_frozen_examples():
    assert pairing_vector((2, -1, 3, -1)) == (-6, -3, -2)
    assert pairing_vector((2, -1, 5, -2)) == (-10, -5, -4, -2)
    assert pairing_vector((3, -2, 4, -1)) == (-12, -8, -4, -3)
    # canonical order does not depend on the order the rays are given in
    assert pairing_vector((3, -1, 2, -1)) == (-6, -3, -2)
    with pytest.raises(ValueError):
        pairing_vector((4, -2, 3, -1))  # not a sphere quadruple


def test_pairing_jumps_two_at_center_moves():
    for t in coprime_pairs(10):
        g = sigma_star(t)
        seq = good_initial_count(g).witnesses[0]
        pv = pairing_vector(sum(brieskorn(t).rays, ()))
        values = [sum(x * y for x, y in zip(pv, s.values, strict=True)) for s in seq.states]
        for before, after, moved in zip(values, values[1:], seq.moved):
            assert after - before == (2 if moved == 0 else 0)


def test_central_count_is_a1_plus_a2_minus_one():
    cases = {  # Sigma(x, y): its quadruple (a1, b1, a2, b2) has a1 + a2 = x + y
        (2, 3): 4,  # (2, -1, 3, -1)
        (3, 4): 6,  # (3, -2, 4, -1)
        (2, 5): 6,  # (2, -1, 5, -2)
    }
    for pair, expected in cases.items():
        seq = good_initial_count(sigma_star(pair)).witnesses[0]
        assert seq.moved.count(0) == expected == sum(pair) - 1


def test_reverse_negate_replays():
    g = sigma_star((3, 4))  # the quadruple (3, -2, 4, -1)
    seq = good_initial_count(g).witnesses[0]
    rev = reverse_negate(seq)
    assert is_good_sequence(rev)
    assert rev.states[0].values == tuple(-x for x in seq.states[-1].values)
    assert rev.moved == tuple(reversed(seq.moved))


def _eager_witness(n0):
    """The witness as the count used to build it with every good initial:
    move the lowest capped vertex until none is capped, validating each
    state as an Association."""
    g = n0.graph
    k = [(x - m) // 2 for m, x in zip(g.weights, n0.values)]
    states, moved = [n0], []
    while True:
        capped = [v for v, m in enumerate(g.weights) if k[v] == -m]
        if not capped:
            return GoodSequence(tuple(states), tuple(moved))
        moved.append(capped[0])
        states.append(_move(g, k, capped[0]))


def test_lazy_witnesses_equal_the_eager_construction():
    rng = random.Random(17)
    graphs = [sigma_star((3, 5, 7)), sigma_star((2, 3, 7)), e8()]
    while len(graphs) < 103:
        g = random_forest(rng, max_vertices=6)
        if is_negative_definite(g) and len(g.bad) <= 1:
            graphs.append(g)
    witnessed = 0
    for g in graphs:
        for early_stop in (None, 2):
            r = good_initial_count(g, early_stop)
            first = r.witnesses
            assert r.witnesses is first  # built once, on the first read
            assert len(first) == r.count == len(r.moves)
            for n0, moves, w in zip(r.initials, r.moves, first):
                eager = _eager_witness(n0)
                assert w.states == eager.states
                assert w.moved == eager.moved == moves
                assert is_good_sequence(w)
                witnessed += len(w.moved) > 0
    assert witnessed >= 50  # the corpus must exercise nonempty plays


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
    result = good_initial_count(g)
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


def _coprime(rays, max_a):
    for t in itertools.combinations(range(2, max_a + 1), rays):
        if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(t, 2)):
            yield t


def test_tau_matches_the_scan_on_brieskorn_stars():
    """Every pairwise-coprime tuple with 3 rays and a <= 17, 4 rays and
    a <= 9, 5 rays and a <= 7, up to 300k initials.  With three or more
    rays the star is already blown down (a center of degree >= 3, rays
    of weight <= -2), so each tuple gives one graph."""
    compared = 0
    for rays, max_a in ((3, 17), (4, 9), (5, 7)):
        for t in _coprime(rays, max_a):
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
    assert good_initial_count(deep).count == 192
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
    assert good_initial_count(forest).count == 1


def test_a_tau_initial_whose_play_fails_raises(monkeypatch):
    g = sigma_star((2, 3, 7))
    initial = good_initial_count(g).initials[1]
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
        good_initial_count(e8(), early_stop=1)
    monkeypatch.setattr(AssociationGame, "_tau_states", lambda self: [tuple(state)])
    with pytest.raises(SelfCheckError, match="is not an initial state"):
        good_initial_count(e8())


def test_lazy_initials_equal_the_reported_values():
    rng = random.Random(31)
    graphs = [e8(), sigma_star((2, 3, 7)), sigma_star((3, 5, 7)), sigma_star((2, 3, 5, 7))]
    graphs += [blow_down(sigma_star((2, 5, 9))), sigma_star((3, 4))]
    graphs += [random_unimodular_tree(rng) for _ in range(60)]
    for g in graphs:
        for early_stop in (None, 2):
            result = good_initial_count(g, early_stop)
            assert "initials" not in vars(result)
            reported = analyze(g, early_stop=early_stop).good_initials
            assert reported == tuple(a.values for a in result.initials), g
            assert result.initials is result.initials  # built once, on the first read
            assert all(is_initial(a) for a in result.initials)


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
