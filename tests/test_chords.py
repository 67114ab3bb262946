import math

import pytest

from twooptlab import (
    TwoChange,
    build_chord_disjoint_set,
    log_product_bound,
    participation_formula,
    participation_spectrum,
    verify_chord_disjoint,
)
from twooptlab.chords import ChordDisjointSet

VALID_SIZES = [5, 9, 17, 33, 65]


def test_construction_n5_hand_values():
    s = build_chord_disjoint_set(5)
    assert [(m.i, m.j) for m in s.moves] == [(0, 3), (1, 3)]
    assert s.k_by_edge == (1, 1, 0, 2, 0)
    assert s.stage_of_move == (1, 1)


def test_construction_n9_stage_counts():
    s = build_chord_disjoint_set(9)
    assert len(s.moves) == 12
    assert s.stage_of_move.count(1) == 8
    assert s.stage_of_move.count(2) == 4


def test_construction_rejects_bad_sizes():
    for n in (4, 6, 8, 15, 16):
        with pytest.raises(ValueError):
            build_chord_disjoint_set(n)


@pytest.mark.parametrize("n", VALID_SIZES)
def test_handshake_identity(n):
    s = build_chord_disjoint_set(n)
    assert sum(s.k_by_edge) == 2 * len(s.moves)
    assert s.k_by_edge[n - 1] == 0  # final edge never participates


@pytest.mark.parametrize("n", VALID_SIZES)
def test_pairwise_chord_disjoint(n):
    assert verify_chord_disjoint(build_chord_disjoint_set(n))


def test_duplicated_move_is_not_chord_disjoint():
    s = ChordDisjointSet(
        n=5,
        moves=(TwoChange(0, 2), TwoChange(0, 2)),
        k_by_edge=(2, 0, 2, 0, 0),
        stage_of_move=(1, 1),
    )
    assert not verify_chord_disjoint(s)
    # Distinct moves whose only shared chord is the later move's second one:
    # (1, 4) adds {1, 4} and {2, 5}; (0, 3) adds {0, 3} and {1, 4}.
    s = ChordDisjointSet(
        n=9,
        moves=(TwoChange(1, 4), TwoChange(0, 3)),
        k_by_edge=(1, 1, 0, 1, 1, 0, 0, 0, 0),
        stage_of_move=(1, 1),
    )
    assert not verify_chord_disjoint(s)


def test_spectrum_hand_values():
    assert participation_spectrum(build_chord_disjoint_set(5)).values == (0, 0, 1, 1, 2)
    sp9 = participation_spectrum(build_chord_disjoint_set(9))
    assert sp9.values == (0, 0, 1, 2, 3, 3, 4, 5, 6)
    assert sp9.product_positive == 2160 == (9 - 1) // 2 * 720 - 720  # 3 * 6!


@pytest.mark.parametrize("n", VALID_SIZES)
def test_spectrum_shape_and_product(n):
    sp = participation_spectrum(build_chord_disjoint_set(n))
    assert sp.values.count(0) == 2
    assert max(sp.values) == n - 3
    assert set(range(n - 2)) <= set(sp.values)
    expected = ((n - 1) // 2 - 1) * math.factorial(n - 3)
    assert sp.product_positive == expected
    assert sp.log_product_positive == pytest.approx(math.log(expected), rel=1e-12)


@pytest.mark.parametrize("n", VALID_SIZES)
def test_formula_matches_construction(n):
    s = build_chord_disjoint_set(n)
    for position in range(1, n + 1):
        assert participation_formula(n, position) == s.k_by_edge[position - 1]


def test_formula_spot_values_n9():
    assert participation_formula(9, 1) == 3  # odd edge, label bits (1, 1)
    assert participation_formula(9, 8) == 6  # even edge, label bits (0, 0)
    assert participation_formula(9, 9) == 0  # excluded final edge


def test_log_product_bound_hand_values():
    s5 = build_chord_disjoint_set(5)
    expected5 = 0.5 * (3 * math.log(math.pi / 2) - math.log(2))
    assert log_product_bound(s5) == pytest.approx(expected5, rel=1e-12)

    s9 = build_chord_disjoint_set(9)
    expected9 = 0.5 * (7 * math.log(math.pi / 2) - math.log(2160))
    assert log_product_bound(s9) == pytest.approx(expected9, rel=1e-12)


def test_log_product_bound_decreases_with_n():
    values = [log_product_bound(build_chord_disjoint_set(n)) for n in (9, 17, 33, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_moves_are_valid_two_changes():
    for n in VALID_SIZES:
        for move in build_chord_disjoint_set(n).moves:
            move.validate_for(n)


def test_blue_removals_sit_at_even_positions():
    s = build_chord_disjoint_set(17)
    for move in s.moves:
        # move.j is the 0-based position of the blue edge; 1-based it is even.
        assert (move.j + 1) % 2 == 0


def test_json_export_shape():
    payload = build_chord_disjoint_set(9).to_json_dict()
    assert payload["n"] == 9
    assert len(payload["moves"]) == 12
    assert len(payload["k"]) == 9
    assert len(payload["stages"]) == 12
