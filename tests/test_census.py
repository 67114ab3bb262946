import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from twooptlab import (
    CapExceededError,
    Tour,
    apply_two_change,
    build_transition_graph,
    canonicalize,
    constant_instance,
    count_two_optimal_exact,
    enumerate_canonical_tours,
    enumerate_two_changes,
    is_two_optimal,
    random_instance,
    transition_stats,
    tour_length,
    two_change_delta,
    two_optimal_tours,
)
from twooptlab import census, core
from twooptlab.census import TransitionGraph
from twooptlab.core import Instance, all_pairs, pair_count, pair_index
from twooptlab.reduction import BaseGraph, build_reduction_instance
from twooptlab.rng import substream

# Two-sided level of the statistical checks, and its normal quantile (about 4.9).
ALPHA = 1e-6
Z_ALPHA = NormalDist().inv_cdf(1 - ALPHA / 2)


def test_equal_weights_every_tour_is_two_optimal():
    inst = constant_instance(5, value=3)
    for tour in enumerate_canonical_tours(5):
        assert is_two_optimal(inst, tour)


def test_expensive_edge_breaks_optimality():
    weights = [0.01] * pair_count(5)
    weights[pair_index(0, 1, 5)] = 10.0
    inst = Instance(n=5, weights=tuple(weights), mode="float")
    # The reference tour uses the expensive edge (0, 1); swapping it out
    # for two cheap chords strictly improves.
    assert not is_two_optimal(inst, Tour((0, 1, 2, 3, 4)))


def test_is_two_optimal_agrees_with_direct_scan():
    rng = substream(77, "census-oracle")
    for _ in range(50):
        n = int(rng.integers(5, 8))
        inst = random_instance(n, seed=int(rng.integers(100_000)))
        order = list(range(n))
        rng.shuffle(order)
        tour = Tour(canonicalize(order))
        brute = all(
            two_change_delta(inst, tour, move) <= 0 for move in enumerate_two_changes(n)
        )
        assert is_two_optimal(inst, tour) == brute


def test_is_two_optimal_answers_for_the_cycle_in_either_direction():
    # The reflected moves subtract the added chords in the other order, and on
    # these float weights that rounds across zero; the census reads canonical orders.
    weights = (0.7, 5e-324, 0.0, 1.0, 2.2, 5e-324, 0.1, 0.0, 0.6, 2.2, 2.2, 1e-17, 0.3, 1.1, 1.0)
    inst = Instance(n=6, weights=weights, mode="float")
    listed = list(two_optimal_tours(inst))
    assert count_two_optimal_exact(inst) == 2 and Tour((0, 3, 5, 2, 1, 4)) in listed
    for tour in enumerate_canonical_tours(6):
        o = tour.order
        for written in (o, (0,) + o[:0:-1], o[2:] + o[:2]):
            assert is_two_optimal(inst, Tour(written)) == (tour in listed)


@pytest.mark.parametrize("size", [4, 6])
def test_is_two_optimal_refuses_a_tour_of_another_size(size):
    with pytest.raises(ValueError, match=f"tour has {size} vertices, instance has 5"):
        is_two_optimal(random_instance(5, seed=0), Tour(tuple(range(size))))


@pytest.mark.parametrize("n,count", [(4, 3), (5, 12), (6, 60), (7, 360), (8, 2520), (9, 20160)])
def test_census_equal_weights(n, count):
    assert count_two_optimal_exact(constant_instance(n)) == count


@pytest.mark.parametrize("n", range(4, 10))
def test_equal_weight_search_lists_every_canonical_order(n):
    # Under equal weights the search tests no move, and keeps every order.
    blocks = census._two_optimal_orders(constant_instance(n), 9)
    orders = [tuple(o) for o in np.concatenate(list(blocks), axis=1).T.tolist()]
    assert len(orders) == math.factorial(n - 1) // 2
    assert orders == sorted(set(orders))
    if n <= 8:
        assert orders == [t.order for t in enumerate_canonical_tours(n)]


@st.composite
def tied_or_float_instances(draw):
    n = draw(st.integers(4, 8))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 2), min_size=pair_count(n), max_size=pair_count(n)))
        return Instance(n=n, weights=tuple(weights), mode="exact")
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=pair_count(n), max_size=pair_count(n))
    )
    return Instance(n=n, weights=tuple(weights), mode="float")


def _full_scan(inst):
    return [t for t in enumerate_canonical_tours(inst.n) if is_two_optimal(inst, t)]


@settings(max_examples=60, deadline=None)
@given(tied_or_float_instances())
def test_pruned_census_equals_full_scan(inst):
    full = _full_scan(inst)
    assert list(two_optimal_tours(inst)) == full
    assert count_two_optimal_exact(inst) == len(full)


def test_census_full_scan_keeps_every_tour():
    inst = constant_instance(9)
    tours = list(two_optimal_tours(inst))
    assert len(tours) == 20_160
    assert tours == list(enumerate_canonical_tours(9))


def _near_limit_instance(n, magnitude):
    # Half the weights sit a few units below the magnitude and half a few
    # above 0, so deltas reach twice the magnitude and ties are decided by the
    # lowest bits; int64 holds every delta below 2**61, Python ints beyond it.
    rng = substream(n, "large-weights")
    low = rng.integers(0, 4, pair_count(n)).tolist()
    high = (rng.random(pair_count(n)) < 0.5).tolist()
    weights = tuple(magnitude - 1 - r if h else r for r, h in zip(low, high))
    return Instance(n=n, weights=weights, mode="exact")


@pytest.mark.parametrize("magnitude", [2**61, 2**63, 2**80], ids=["2^61", "2^63", "2^80"])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_census_is_exact_for_weights_near_int64_limits(n, magnitude):
    inst = _near_limit_instance(n, magnitude)
    assert census._weight_table(inst).dtype == (np.int64 if magnitude == 2**61 else object)
    full = _full_scan(inst)
    assert full and len(full) < len(list(enumerate_canonical_tours(n)))
    assert list(two_optimal_tours(inst)) == full


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_boundaries_keep_the_full_scan_order(chunk, monkeypatch):
    # Tiny chunks put boundaries inside every level of the frontier search.
    monkeypatch.setattr(census, "_CHUNK_ORDERS", chunk)
    rng = substream(chunk, "chunked-census")
    for n in range(4, 9):
        tied = tuple(int(w) for w in rng.integers(0, 3, pair_count(n)))
        for inst in (Instance(n=n, weights=tied, mode="exact"), random_instance(n, seed=n)):
            full = _full_scan(inst)
            assert list(two_optimal_tours(inst)) == full
            assert count_two_optimal_exact(inst) == len(full)


def test_census_memory_is_bounded_by_the_chunk():
    # The ungated search keeps every tour of this one-class instance, which
    # the census itself settles with a single order.  Measured 0.65 MB
    # chunked; the whole n = 9 frontier at once takes 3.9 MB.
    tracemalloc.start()
    try:
        blocks = census._two_optimal_orders(constant_instance(9), 9)
        assert sum(block.shape[1] for block in blocks) == 20_160
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_count_equals_tours_across_many_chunks():
    k3 = BaseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = build_reduction_instance(k3, 6)
    tours = list(two_optimal_tours(inst))
    assert len(tours) == 20_160 > census._CHUNK_ORDERS
    assert count_two_optimal_exact(inst) == len(tours)
    assert [t.order for t in tours] == sorted(t.order for t in tours)


_P3 = BaseGraph.from_edges(3, [(0, 1), (1, 2)])
_K3 = BaseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
_P4 = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
_C4 = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.mark.parametrize(
    "inst, classes",
    [
        (build_reduction_instance(_K3, 6), [[0, 1, 2], [3, 4, 5, 6, 7, 8]]),
        (build_reduction_instance(_C4, 5), [[0, 2], [1, 3], [4, 5, 6, 7, 8]]),
        (random_instance(8, seed=0), [[v] for v in range(8)]),
        (constant_instance(7), [list(range(7))]),
    ],
    ids=["K3-m6", "C4-m5", "random", "constant"],
)
def test_twin_classes(inst, classes):
    assert census._twin_classes(inst) == classes


@pytest.mark.parametrize("graph", [_P3, _K3, _P4, _C4], ids=["P3", "K3", "P4", "C4"])
def test_quotient_count_equals_the_listed_tours_on_reduction_instances(graph):
    for m in range(graph.nv + 1, min(2 * graph.nv, 10 - graph.nv) + 1):
        inst = build_reduction_instance(graph, m)
        assert count_two_optimal_exact(inst) == len(list(two_optimal_tours(inst)))


@st.composite
def planted_twin_instances(draw):
    # Every vertex copies the weights of its class's first member, and the
    # pairs inside a class share one weight, so each class is a set of twins.
    n = draw(st.integers(5, 8))
    label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    members = [[u for u in range(n) if label[u] == label[v]] for v in range(n)]
    mode = draw(st.sampled_from(["exact", "float"]))
    values = st.integers(0, 3) if mode == "exact" else st.floats(0.0, 1.0)
    base = draw(st.lists(values, min_size=pair_count(n), max_size=pair_count(n)))

    def source(i, j):
        return (members[i][0], members[j][0]) if label[i] != label[j] else members[i][:2]

    weights = tuple(base[pair_index(*source(i, j), n)] for i, j in all_pairs(n))
    return Instance(n=n, weights=weights, mode=mode), members


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=30, deadline=None)
@given(planted_twin_instances())
def test_quotient_census_equals_full_scan_with_planted_twins(chunk, planted):
    inst, members = planted
    classes = census._twin_classes(inst)
    assert all(any(set(cls) <= set(found) for found in classes) for cls in members)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "_CHUNK_ORDERS", chunk)
        assert count_two_optimal_exact(inst) == len(_full_scan(inst))


def test_float_twins_count_the_canonical_members_of_each_orbit():
    # The deltas of a tour and of its reflection subtract the same weights in
    # another order and round apart here, so |G| * P / 2 would give 3.
    weights = (0.1, 0.1, 0.6, 0.1, 0.1, 2.2, 0.1, 2.2, 0.1, 2.2)
    inst = Instance(n=5, weights=weights, mode="float")
    assert census._twin_classes(inst) == [[0], [1, 2, 4], [3]]
    assert count_two_optimal_exact(inst) == len(_full_scan(inst)) == 4


def test_census_equals_graph_sinks():
    cases = [(7, 42)] + [(n, seed) for n in (8, 9) for seed in range(3)]
    for n, seed in cases:
        inst = random_instance(n, seed=seed)
        graph = build_transition_graph(inst)
        assert count_two_optimal_exact(inst) == len(graph.sinks()), (n, seed)


def test_census_within_bounds_for_float_instances():
    for seed in range(10):
        inst = random_instance(6, seed=seed)
        count = count_two_optimal_exact(inst)
        assert 1 <= count <= 60


def test_census_cap_refusal():
    with pytest.raises(CapExceededError):
        count_two_optimal_exact(random_instance(11, seed=0))
    with pytest.raises(CapExceededError):
        count_two_optimal_exact(random_instance(13, seed=0), cap=12)


def test_graph_equal_weights_has_no_arcs():
    graph = build_transition_graph(constant_instance(5))
    assert len(graph.orders) == 12
    assert graph.arcs.shape == (0, 2)


def _node(graph, k):
    return Tour(tuple(graph.orders[k].tolist()))


def _reference_arcs(inst):
    nodes = list(enumerate_canonical_tours(inst.n))
    index = {tour.order: k for k, tour in enumerate(nodes)}
    return sorted(
        (k, index[apply_two_change(tour, move).order])
        for k, tour in enumerate(nodes)
        for move in enumerate_two_changes(inst.n)
        if two_change_delta(inst, tour, move) > 0
    )


@pytest.fixture
def cold_move_targets():
    """Start and end with no per-n node list or move table kept, so the test builds its own."""
    census._move_targets.cache_clear()
    yield
    census._move_targets.cache_clear()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_move_table_sends_each_node_where_the_scalar_move_does(n, cold_move_targets):
    # Every (move, node) entry, not only the improving ones an instance looks up.
    orders, table = census._move_targets(n)
    nodes = [Tour(tuple(order)) for order in orders.T.tolist()]
    index = {tour.order: k for k, tour in enumerate(nodes)}
    for move, row in zip(enumerate_two_changes(n), table.tolist(), strict=True):
        assert row == [index[apply_two_change(tour, move).order] for tour in nodes]


def _weighted_instance(n, weights):
    if weights == "float":
        return random_instance(n, seed=8)
    if weights == "tied":
        tied = substream(n, "tied-arcs").integers(0, 3, pair_count(n))
        return Instance(n=n, weights=tuple(int(w) for w in tied), mode="exact")
    return _near_limit_instance(n, 2 ** int(weights[2:]))


def _assert_graph_matches_the_scalar_scan(inst):
    graph = build_transition_graph(inst)
    assert list(map(tuple, graph.arcs.tolist())) == _reference_arcs(inst)
    assert [_node(graph, k) for k in graph.sinks()] == list(two_optimal_tours(inst))
    return graph


@pytest.mark.parametrize("weights", ["float", "tied", "2^61", "2^63", "2^80"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_graph_arcs_equal_the_scalar_move_scan(n, weights):
    _assert_graph_matches_the_scalar_scan(_weighted_instance(n, weights))


def test_graphs_built_in_turn_reuse_the_table_of_their_n(cold_move_targets):
    # Each size change evicts the one kept table; the second and third weight kinds reuse it.
    sizes = (6, 7, 6, 8, 7)
    for n in sizes:
        for weights in ("float", "tied", "2^63"):
            _assert_graph_matches_the_scalar_scan(_weighted_instance(n, weights))
    info = census._move_targets.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(sizes), 2 * len(sizes), 1)


def test_graph_orders_are_shared_and_read_only():
    first = build_transition_graph(_weighted_instance(7, "float"))
    with pytest.raises(ValueError):
        first.orders[0, 0] = 1
    second = _assert_graph_matches_the_scalar_scan(_weighted_instance(7, "tied"))
    assert np.shares_memory(first.orders, second.orders)


def test_graph_arcs_strictly_decrease_length():
    # Strict decrease along every arc is exactly acyclicity here.
    for seed in range(20):
        inst = random_instance(6, seed=seed)
        graph = build_transition_graph(inst)
        for u, v in graph.arcs:
            assert tour_length(inst, _node(graph, v)) < tour_length(inst, _node(graph, u))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_graph_orders_are_the_canonical_tours(n):
    graph = build_transition_graph(random_instance(n, seed=n))
    assert graph.orders.tolist() == [list(t.order) for t in enumerate_canonical_tours(n, cap=9)]


def test_graph_nodes_come_from_the_census_search(monkeypatch, cold_move_targets):
    def refuse(*args, **kwargs):
        raise AssertionError("the itertools enumerator is the oracle only")

    monkeypatch.setattr(core, "enumerate_canonical_tours", refuse)
    monkeypatch.setattr(census, "enumerate_canonical_tours", refuse, raising=False)
    inst = random_instance(6, seed=1)
    graph = build_transition_graph(inst)
    assert len(graph.orders) == 60
    assert transition_stats(graph, walks=10).sinks == count_two_optimal_exact(inst)


def test_graph_cap_refusal():
    # The refusal is raised on every call: a failed table build is not kept.
    for _ in range(2):
        with pytest.raises(CapExceededError):
            build_transition_graph(random_instance(10, seed=0))
    build_transition_graph(random_instance(9, seed=0))
    with pytest.raises(CapExceededError):
        build_transition_graph(random_instance(10, seed=0))


def test_stats_on_arcless_graph():
    graph = build_transition_graph(constant_instance(5))
    stats = transition_stats(graph, walks=100, seed=0)
    assert stats.sinks == 12
    assert stats.longest_path == 0
    assert set(stats.walk_lengths) == {0}


def test_stats_on_hand_built_chain():
    # Starts are uniform on 0 -> 1 -> 2, so lengths are uniform on {0, 1, 2}.
    orders = np.array([t.order for t in enumerate_canonical_tours(4)])
    graph = TransitionGraph(n=4, orders=orders, arcs=np.array([[0, 1], [1, 2]]))
    walks = 3000
    stats = transition_stats(graph, walks=walks, seed=1)
    assert stats.sinks == 1
    assert stats.longest_path == 2
    counts = np.bincount(stats.walk_lengths, minlength=3)
    assert len(counts) == 3
    lo, hi = binom.ppf(ALPHA / 2, walks, 1 / 3), binom.isf(ALPHA / 2, walks, 1 / 3)
    assert all(lo <= k <= hi for k in counts), counts


def _walk_length_moments(graph):
    """Exact mean and variance of the improving-walk length from a uniform start.

    E[L(u)] = 0 at a sink and 1 + the mean of E[L(v)] over the successors v
    otherwise; E[L(u)^2] follows from L(u) = 1 + L(v) the same way.
    """
    successors = [[] for _ in graph.orders]
    for u, v in graph.arcs.tolist():
        successors[u].append(v)
    moments = {}

    def walk(u):
        if u not in moments:
            if not successors[u]:
                moments[u] = (0.0, 0.0)
            else:
                after = [walk(v) for v in successors[u]]
                mean = sum(m for m, _ in after) / len(after)
                square = sum(s for _, s in after) / len(after)
                moments[u] = (1 + mean, 1 + 2 * mean + square)
        return moments[u]

    first, second = np.array([walk(u) for u in range(len(graph.orders))]).mean(axis=0)
    return first, second - first**2


@pytest.mark.parametrize("n", [7, 8])
def test_walk_lengths_match_the_exact_walk_distribution(n):
    graph = build_transition_graph(random_instance(n, seed=n))
    mean, variance = _walk_length_moments(graph)
    walks = 20_000
    stats = transition_stats(graph, walks=walks, seed=n)
    lengths = np.array(stats.walk_lengths)
    z = (lengths.mean() - mean) / math.sqrt(variance / walks)
    assert abs(z) <= Z_ALPHA, z
    assert lengths.max() <= stats.longest_path


def test_stats_longest_path_ignores_tied_lengths():
    # Equal computed lengths along improving arcs (float rounding can do this)
    # must not shorten the longest path.
    orders = np.array([t.order for t in enumerate_canonical_tours(4)])
    graph = TransitionGraph(n=4, orders=orders, arcs=np.array([[0, 1], [1, 2]]))
    assert transition_stats(graph, walks=10, seed=1).longest_path == 2


def _longest_path_dp(graph):
    successors = [[] for _ in graph.orders]
    for u, v in graph.arcs.tolist():
        successors[u].append(v)
    longest = {}

    def walk(u):
        if u not in longest:
            longest[u] = max((1 + walk(v) for v in successors[u]), default=0)
        return longest[u]

    return max(walk(u) for u in range(len(graph.orders)))


def test_stats_longest_path_equals_a_python_dp():
    rng = substream(9, "longest-path")
    for n in (6, 6, 7, 7, 8, 8):
        graph = build_transition_graph(random_instance(n, seed=int(rng.integers(100_000))))
        assert transition_stats(graph, walks=0).longest_path == _longest_path_dp(graph)


def test_stats_refuses_float_rounding_cycle():
    # Float rounding makes one 2-change and its reverse both look improving
    # between tours 0 and 5, so no longest path exists.
    weights = (0.3, 0.2, 0.6, 0.2, 2.2, 2.2, 2.2, 1.1, 0.7, 0.2)
    graph = build_transition_graph(Instance(n=5, weights=weights, mode="float"))
    assert {(0, 5), (5, 0)} <= set(map(tuple, graph.arcs.tolist()))
    with pytest.raises(ValueError, match="cycle"):
        transition_stats(graph, walks=10, seed=1)


def test_stats_sinks_match_census():
    inst = random_instance(6, seed=3)
    graph = build_transition_graph(inst)
    stats = transition_stats(graph, walks=300, seed=5)
    assert stats.sinks == count_two_optimal_exact(inst)
    assert stats.longest_path >= max(stats.walk_lengths)


def test_sink_set_equals_two_optimal_set():
    for seed in range(5):
        inst = random_instance(6, seed=100 + seed)
        graph = build_transition_graph(inst)
        sinks = set(graph.sinks())
        for k in range(len(graph.orders)):
            assert (k in sinks) == is_two_optimal(inst, _node(graph, k))


def test_stats_json_shape():
    graph = build_transition_graph(random_instance(5, seed=4))
    payload = transition_stats(graph, walks=50, seed=2).to_json_dict()
    assert set(payload) == {"sinks", "longest_path", "walk_lengths"}
    assert sum(payload["walk_lengths"].values()) == 50


def test_exact_mode_census_uses_strict_improvement():
    # Zero-improvement moves must not count as improving in exact mode.
    inst = constant_instance(6, value=7)
    graph = build_transition_graph(inst)
    assert len(graph.arcs) == 0
    assert count_two_optimal_exact(inst) == len(list(enumerate_canonical_tours(6)))
