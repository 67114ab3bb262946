import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twooptlab import (
    BaseGraph,
    CapExceededError,
    ReductionParams,
    SingularMatrixError,
    build_reduction_instance,
    census_vector,
    coefficient_matrix,
    coefficient_matrix_determinant,
    count_path_covers_bruteforce,
    count_two_optimal_exact,
    cover_coefficient,
    corrected_cover_coefficient,
    hamiltonian_path_count,
    recover_corrected_counts,
    recover_path_cover_counts,
    reduction_report,
    tours_per_cover_empirical,
    verify_no_nonedge_characterization,
)
from twooptlab.core import Instance, all_pairs, pair_count
from twooptlab.reduction import (
    canonical_cover,
    cover_census,
    default_params,
    enumerate_path_covers,
    feasible_size_profiles,
    tour_segments,
)
from twooptlab.rng import substream

K2 = BaseGraph.from_edges(2, [(0, 1)])
P3 = BaseGraph.from_edges(3, [(0, 1), (1, 2)])
K3 = BaseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P4 = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_edge_list_parsing():
    g = BaseGraph.from_edge_list_text("0 1\n\n# comment\n1 2\n")
    assert g == P3
    with pytest.raises(ValueError):
        BaseGraph.from_edge_list_text("2 2\n")


def test_params_invariants():
    with pytest.raises(ValueError):
        ReductionParams(m=2, L=1, N=2, M=100).validate_for(2)  # m too small
    with pytest.raises(ValueError):
        ReductionParams(m=3, L=1, N=3, M=100).validate_for(2)  # N != 2L
    with pytest.raises(ValueError):
        ReductionParams(m=3, L=1, N=2, M=10).validate_for(2)  # M too small
    ReductionParams(m=3, L=1, N=2, M=11).validate_for(2)


def test_build_instance_weight_table():
    inst = build_reduction_instance(K2, ReductionParams(m=3, L=1, N=2, M=100))
    assert inst.n == 5 and inst.mode == "exact"
    assert inst.weight(0, 1) == 0
    assert inst.weight(0, 2) == 1
    assert inst.weight(2, 3) == 2


def test_build_instance_penalty_edges_iff_incomplete():
    complete = build_reduction_instance(K3, default_params(3, 4))
    assert all(w < complete.weight(0, 3) or w in (0, 1, 2) for w in complete.weights)
    assert default_params(3, 4).M not in complete.weights
    p3_inst = build_reduction_instance(P3, default_params(3, 4))
    m_weights = [w for w in p3_inst.weights if w == default_params(3, 4).M]
    assert len(m_weights) == 1
    assert p3_inst.weight(0, 2) == default_params(3, 4).M


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.sampled_from(["exact", "float"]),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_weight_tables_follow_the_pair_layout(n, mode, seed, data):
    # Distinct weights, so a pair read from the wrong slot cannot go unnoticed.
    ranks = substream(seed, "weight-matrix", n).permutation(pair_count(n))
    weights = tuple(int(r) if mode == "exact" else float(r) + 0.5 for r in ranks)
    inst = Instance(n=n, weights=weights, mode=mode)
    mat = inst.weight_matrix()
    assert all(mat[i][i] == 0 for i in range(n))
    for i, j in all_pairs(n):
        assert mat[i][j] == mat[j][i] == inst.weight(i, j)

    nv = data.draw(st.integers(min_value=2, max_value=5))
    edges = data.draw(st.sets(st.sampled_from(all_pairs(nv))))
    m = data.draw(st.integers(min_value=nv + 1, max_value=2 * nv))
    big_l = data.draw(st.integers(min_value=1, max_value=5))
    params = ReductionParams(m=m, L=big_l, N=2 * big_l, M=(nv + m) * 2 * big_l + 1)
    reduced = build_reduction_instance(BaseGraph.from_edges(nv, edges), params)
    for i, j in all_pairs(nv + m):
        inside = sum(v < nv for v in (i, j))
        expected = {2: 0 if (i, j) in edges else params.M, 1: params.L, 0: params.N}[inside]
        assert reduced.weight(i, j) == expected


def test_no_nonedge_characterization_small_bases():
    assert verify_no_nonedge_characterization(K2, default_params(2, 3))
    assert verify_no_nonedge_characterization(P3, default_params(3, 4))
    assert verify_no_nonedge_characterization(K3, default_params(3, 4))


def test_no_nonedge_cap():
    with pytest.raises(CapExceededError):
        verify_no_nonedge_characterization(P4, default_params(4, 6))
    with pytest.raises(CapExceededError):
        cover_census(P4, default_params(4, 6))


def test_all_tours_two_optimal_when_base_complete():
    inst = build_reduction_instance(K2, default_params(2, 3))
    assert count_two_optimal_exact(inst) == 12


def test_cover_coefficients():
    assert cover_coefficient(1, 3) == 6
    assert cover_coefficient(2, 3) == 24
    for m in range(1, 9):
        assert cover_coefficient(1, m) == math.factorial(m)
    with pytest.raises(ValueError):
        cover_coefficient(4, 3)


def test_corrected_coefficient_matches_paper_without_singletons():
    for m in range(3, 7):
        for size in range(1, 4):
            assert corrected_cover_coefficient(size, size, m) == cover_coefficient(size, m)
    assert corrected_cover_coefficient(2, 0, 3) == Fraction(cover_coefficient(2, 3), 4)


def test_path_cover_bruteforce_hand_counts():
    assert count_path_covers_bruteforce(P3) == [1, 2, 1]
    assert count_path_covers_bruteforce(K3) == [3, 3, 1]
    assert count_path_covers_bruteforce(BaseGraph.from_edges(3, [])) == [0, 0, 1]


def linear_forest_counts(g: BaseGraph) -> list[int]:
    """Cover counts from edge subsets: a cover of size s is an acyclic subset of
    nv - s edges in which no vertex has degree above 2."""
    counts = [0] * g.nv
    edges = sorted(g.edges)
    for mask in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        degree = [0] * g.nv
        root = list(range(g.nv))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        forest = True
        for u, v in chosen:
            degree[u] += 1
            degree[v] += 1
            ru, rv = find(u), find(v)
            forest = forest and ru != rv and degree[u] <= 2 and degree[v] <= 2
            root[ru] = rv
        if forest:
            counts[g.nv - len(chosen) - 1] += 1
    return counts


def test_path_cover_bruteforce_matches_linear_forest_count():
    rng = substream(11, "linear-forests")
    for _ in range(120):
        nv = int(rng.integers(2, 7))
        edges = [(u, v) for u, v in all_pairs(nv) if rng.random() < 0.6]
        g = BaseGraph.from_edges(nv, edges)
        assert count_path_covers_bruteforce(g) == linear_forest_counts(g), sorted(g.edges)


def test_path_cover_enumeration_is_duplicate_free():
    covers = list(enumerate_path_covers(P4))
    assert len(covers) == len(set(covers))
    assert all(
        sorted(v for path in cover for v in path) == list(range(4)) for cover in covers
    )


def test_all_singleton_cover_always_present():
    for g in (K2, P3, K3, P4):
        counts = count_path_covers_bruteforce(g)
        assert counts[g.nv - 1] == 1


def test_tour_segments_restriction():
    # Tour 0-2-3-1-4 on the K2 reduction: auxiliary vertices are 2, 3, 4.
    assert tour_segments((0, 2, 3, 1, 4), 2) == canonical_cover([(0,), (1,)])
    assert tour_segments((0, 1, 2, 3, 4), 2) == canonical_cover([(0, 1)])


def test_tours_per_cover_k2_m3():
    params = default_params(2, 3)
    assert tours_per_cover_empirical(K2, params, [(0, 1)]) == 6
    assert tours_per_cover_empirical(K2, params, [(0,), (1,)]) == 6


def test_cover_census_partitions_two_optimal_tours():
    for g, m in ((K2, 3), (K2, 4), (P3, 4)):
        params = default_params(g.nv, m)
        census = cover_census(g, params)
        total = count_two_optimal_exact(build_reduction_instance(g, params))
        assert sum(census.values()) == total


def test_cover_census_p4_matches_corrected_model_per_cover():
    # Every cover class of P4 at m=5, frozen from exhaustive enumeration of
    # the 20160 tours; the corrected coefficient reproduces each class and
    # coincides with the paper coefficient exactly when no path is a
    # singleton (the two-path split 960 == c(2, 5)).
    census = cover_census(P4, default_params(4, 5))
    expected = {
        canonical_cover([(0, 1, 2, 3)]): 120,
        canonical_cover([(0,), (1, 2, 3)]): 480,
        canonical_cover([(0, 1), (2, 3)]): 960,
        canonical_cover([(0, 1, 2), (3,)]): 480,
        canonical_cover([(0,), (1,), (2, 3)]): 1440,
        canonical_cover([(0,), (1, 2), (3,)]): 1440,
        canonical_cover([(0, 1), (2,), (3,)]): 1440,
        canonical_cover([(0,), (1,), (2,), (3,)]): 1440,
    }
    assert census == expected
    for cover, count in expected.items():
        q = sum(1 for path in cover if len(path) >= 2)
        assert corrected_cover_coefficient(len(cover), q, 5) == count
    assert expected[canonical_cover([(0, 1), (2, 3)])] == cover_coefficient(2, 5)


def test_coefficient_matrix_values():
    assert coefficient_matrix(1) == [[2]]
    assert coefficient_matrix(2) == [[6, 24], [24, 144]]


def test_coefficient_matrix_nonsingular_up_to_8():
    for nv in range(1, 9):
        assert coefficient_matrix_determinant(nv) != 0


def test_recovery_round_trip():
    a = (1, 2, 1)
    c = coefficient_matrix(3)
    b = [sum(c[row][col] * a[row] for row in range(3)) for col in range(3)]
    result = recover_path_cover_counts(b, 3)
    assert [int(x) for x in result.a] == list(a)
    assert result.integral and result.nonnegative

    zeros = recover_path_cover_counts([0, 0, 0], 3)
    assert all(x == 0 for x in zeros.a)


def test_recovery_random_round_trips():
    rng = substream(9, "recovery")
    for nv in range(1, 7):
        c = coefficient_matrix(nv)
        for _ in range(5):
            a = [int(rng.integers(0, 50)) for _ in range(nv)]
            b = [sum(c[row][col] * a[row] for row in range(nv)) for col in range(nv)]
            result = recover_path_cover_counts(b, nv)
            assert [int(x) for x in result.a] == a


def test_feasible_profiles():
    assert feasible_size_profiles(2) == [(1, 1), (2, 0)]
    assert feasible_size_profiles(3) == [(1, 1), (2, 1), (3, 0)]
    # nv=4 admits two profiles at size 2, so the stratified system degenerates.
    assert (2, 2) in feasible_size_profiles(4)
    assert len(feasible_size_profiles(4)) > 4


def test_corrected_recovery_rank_failure_reported():
    result = recover_corrected_counts([0, 0, 0, 0], 4)
    assert not result.full_rank
    assert result.a is None
    assert "rank" in result.detail


def test_end_to_end_k2():
    report = reduction_report(K2)
    assert report["b"] == [12, 60]
    assert report["brute_force_a"] == [1, 1]
    paper, corrected = report["models"]
    assert paper["a"] == [1, "1/4"]
    assert not paper["integral"]
    assert corrected["a"] == [1, 1]
    assert report["corrected_matches_bruteforce"]


def test_census_vector_cap():
    with pytest.raises(CapExceededError):
        census_vector(P4)


def test_census_vector_p4_under_the_hard_cap():
    assert census_vector(P4, cap=12) == [7800, 79920, 882000, 10483200]


def test_hamiltonian_path_counts():
    # The brute-force size-1 cover count is the reference value.
    assert count_path_covers_bruteforce(P3)[0] == 1
    k4 = BaseGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert count_path_covers_bruteforce(k4)[0] == 12
    c4 = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert count_path_covers_bruteforce(c4)[0] == 4


def test_hamiltonian_path_count_via_pipeline():
    for g in (P3, K3):
        assert hamiltonian_path_count(g) == count_path_covers_bruteforce(g)[0]
    with pytest.raises((SingularMatrixError, CapExceededError)):
        hamiltonian_path_count(P4)
