import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twooptlab import (
    CapExceededError,
    Instance,
    InvalidMoveError,
    Tour,
    TwoChange,
    apply_two_change,
    canonicalize,
    constant_instance,
    enumerate_canonical_tours,
    enumerate_two_changes,
    pair_count,
    pair_index,
    random_instance,
    tour_length,
    two_change_delta,
)
from twooptlab.core import all_pairs, canonical_tour_count, move_edges, move_quadruples
from twooptlab.rng import substream


def test_pair_index_is_lexicographic_bijection():
    for n in range(4, 13):
        pairs = all_pairs(n)
        assert len(pairs) == pair_count(n)
        for k, (i, j) in enumerate(pairs):
            assert pair_index(i, j, n) == k
            assert pair_index(j, i, n) == k


def test_pair_index_rejects_self_loop():
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)


def test_random_instance_has_six_weights_at_n4():
    inst = random_instance(4, seed=3)
    assert len(inst.weights) == 6
    assert all(0.0 <= w < 1.0 for w in inst.weights)
    assert inst.mode == "float"


def test_random_instance_is_deterministic():
    a = random_instance(5, seed=1)
    b = random_instance(5, seed=1)
    assert a.weights == b.weights


def test_random_instance_weight_mean_matches_uniform_law():
    # Law-of-large-numbers check over 10^4 regenerated instances.
    total = 0.0
    count = 0
    for offset in range(10_000):
        inst = random_instance(6, seed=7 + offset)
        total += sum(inst.weights)
        count += len(inst.weights)
    assert abs(total / count - 0.5) < 0.01


def test_random_instance_rejects_small_n():
    with pytest.raises(ValueError):
        random_instance(3, seed=0)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(n=4, weights=(1,) * 5, mode="exact")
    with pytest.raises(ValueError):
        Instance(n=4, weights=(1.0,) * 6, mode="exact")
    with pytest.raises(ValueError):
        Instance(n=4, weights=(1,) * 6, mode="float")
    with pytest.raises(ValueError):
        Instance(n=4, weights=(-1,) + (1,) * 5, mode="exact")
    with pytest.raises(ValueError):
        Instance(n=4, weights=(float("inf"),) + (1.0,) * 5, mode="float")
    with pytest.raises(ValueError):
        Instance(n=4, weights=(1,) * 6, mode="mixed")


def test_instance_json_round_trip():
    inst = random_instance(5, seed=2)
    again = Instance.from_json_dict(inst.to_json_dict())
    assert again == inst


def test_instance_json_rejects_fractional_exact_weight():
    data = {"n": 4, "mode": "exact", "weights": [1.7, 1, 1, 1, 1, 1]}
    with pytest.raises(ValueError, match="integer"):
        Instance.from_json_dict(data)
    data["weights"][0] = 2.0  # integral floats still load as ints
    assert Instance.from_json_dict(data).weights[0] == 2


def test_instance_json_rejects_fractional_n():
    data = {"n": 5.9, "mode": "exact", "weights": [1] * 10}
    with pytest.raises(ValueError, match="n must be an integer"):
        Instance.from_json_dict(data)
    data["n"] = 5.0
    assert Instance.from_json_dict(data).n == 5


def test_tour_length_uniform_weights():
    inst = constant_instance(4, value=1)
    assert tour_length(inst, Tour((0, 1, 2, 3))) == 4
    assert tour_length(constant_instance(4, value=0), Tour((0, 1, 2, 3))) == 0


def test_tour_length_hand_sum():
    # Pair order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
    inst = Instance(n=4, weights=(1, 5, 4, 2, 6, 3), mode="exact")
    assert tour_length(inst, Tour((0, 1, 2, 3))) == 1 + 2 + 3 + 4


def test_tour_length_dimension_mismatch():
    inst = constant_instance(4)
    with pytest.raises(ValueError):
        tour_length(inst, Tour((0, 1, 2, 3, 4)))


def test_delta_zero_for_equal_weights():
    inst = constant_instance(5, value=2)
    tour = Tour((0, 1, 2, 3, 4))
    for move in enumerate_two_changes(5):
        assert two_change_delta(inst, tour, move) == 0


def test_delta_hand_value():
    weights = [0.0] * pair_count(5)
    weights[pair_index(0, 1, 5)] = 0.9
    weights[pair_index(2, 3, 5)] = 0.8
    weights[pair_index(0, 2, 5)] = 0.1
    weights[pair_index(1, 3, 5)] = 0.2
    inst = Instance(n=5, weights=tuple(weights), mode="float")
    delta = two_change_delta(inst, Tour((0, 1, 2, 3, 4)), TwoChange(0, 2))
    assert delta == pytest.approx(1.4, abs=1e-12)


def test_delta_rejects_adjacent_removals():
    with pytest.raises(InvalidMoveError):
        two_change_delta(constant_instance(5), Tour((0, 1, 2, 3, 4)), TwoChange(0, 4))
    with pytest.raises(InvalidMoveError):
        apply_two_change(Tour((0, 1, 2, 3, 4)), TwoChange(1, 7))


def test_delta_matches_length_difference_on_random_cases():
    rng = substream(2024, "delta-identity")
    for _ in range(100):
        n = int(rng.integers(5, 9))
        inst = random_instance(n, seed=int(rng.integers(10_000)))
        order = list(range(n))
        rng.shuffle(order)
        tour = Tour(canonicalize(order))
        moves = enumerate_two_changes(n)
        move = moves[int(rng.integers(len(moves)))]
        lhs = two_change_delta(inst, tour, move)
        rhs = tour_length(inst, tour) - tour_length(inst, apply_two_change(tour, move))
        assert abs(lhs - rhs) < 1e-12


def test_apply_two_change_hand_example():
    result = apply_two_change(Tour((0, 1, 2, 3, 4)), TwoChange(0, 2))
    assert result.order == (0, 2, 1, 3, 4)
    assert result.canonical


def test_apply_two_change_is_reversible():
    tour = Tour((0, 3, 1, 4, 2))
    for move in enumerate_two_changes(5):
        moved = apply_two_change(tour, move)
        back = {apply_two_change(moved, rev).order for rev in enumerate_two_changes(5)}
        assert canonicalize(tour.order) in back


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_apply_two_change_preserves_invariants(n, seed):
    rng = substream(seed, "property-tour")
    order = list(range(n))
    rng.shuffle(order)
    tour = Tour(canonicalize(order))
    moves = enumerate_two_changes(n)
    move = moves[int(rng.integers(len(moves)))]
    moved = apply_two_change(tour, move)
    assert sorted(moved.order) == list(range(n))
    assert moved.canonical
    assert moved.order != tour.order


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(8))))
def test_canonicalization_is_idempotent(order):
    once = canonicalize(tuple(order))
    assert canonicalize(once) == once
    assert once[0] == 0 and once[1] < once[-1]


def test_canonical_forms_share_edge_set():
    order = (2, 0, 3, 1, 4)
    tour = Tour(order)
    canon = tour.canonicalized()
    as_sets = lambda t: {frozenset(e) for e in t.edges()}
    assert as_sets(tour) == as_sets(canon)


@pytest.mark.parametrize("n,count", [(4, 2), (5, 5), (6, 9)])
def test_enumerate_two_changes_counts(n, count):
    moves = enumerate_two_changes(n)
    assert len(moves) == count == n * (n - 3) // 2
    assert len(set(moves)) == len(moves)
    for move in moves:
        move.validate_for(n)


@pytest.mark.parametrize("n,count", [(4, 3), (5, 12), (8, 2520)])
def test_enumerate_canonical_tours_counts(n, count):
    tours = list(enumerate_canonical_tours(n))
    assert len(tours) == count == canonical_tour_count(n)
    assert len({t.order for t in tours}) == count
    assert all(t.canonical for t in tours)


def test_enumeration_cap_refusal_mentions_cap():
    with pytest.raises(CapExceededError, match="cap"):
        list(enumerate_canonical_tours(11))
    with pytest.raises(CapExceededError):
        list(enumerate_canonical_tours(13, cap=12))


def test_move_edges_identifies_chords():
    (e1, e2), (f1, f2) = move_edges(Tour((0, 1, 2, 3, 4)), TwoChange(0, 2))
    assert (e1, e2) == ((0, 1), (2, 3))
    assert (f1, f2) == ((0, 2), (1, 3))


def test_move_quadruples_are_one_immutable_tuple_per_n():
    for n in range(4, 13):
        quads = move_quadruples(n)
        assert move_quadruples(n) is quads
        assert quads == tuple((m.i, m.i + 1, m.j, (m.j + 1) % n) for m in enumerate_two_changes(n))
    with pytest.raises(TypeError):
        quads[0] = (0, 1, 2, 3)


def test_move_quadruples_match_move_edges_on_reference_tour():
    for n in range(4, 10):
        tour = Tour(tuple(range(n)))
        quads = move_quadruples(n)
        assert len(quads) == len(enumerate_two_changes(n))
        for (a, b, c, d), move in zip(quads, enumerate_two_changes(n)):
            assert move_edges(tour, move) == (((a, b), (c, d)), ((a, c), (b, d)))
