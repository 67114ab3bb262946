"""Staged construction of a chord-disjoint 2-change set for n = 2^k + 1.

Edges of the reference tour (0, 1, ..., n-1) are labelled e_1 .. e_n in
traversal order; e_n is left out of the construction entirely.  Stage t
splits the remaining n-1 edges into 2^t equal segments.  Odd segments are
"red", even segments "blue", and the stage pairs every red edge of an odd
segment with the blue edges of its successor segment sitting at even global
positions.  The union over stages t = 1 .. log2(n-1) - 1 is pairwise
chord-disjoint, every participation count 0 .. n-3 occurs, and the product
of the positive counts is ((n-1)/2 - 1) * (n-3)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Tour, TwoChange, move_edges


def _stage_count(n: int) -> int:
    k = (n - 1).bit_length() - 1
    if n < 5 or n != 2**k + 1:
        raise ValueError(f"construction needs n = 2**k + 1 with k >= 2, got n={n}")
    return k - 1


@dataclass(frozen=True)
class ChordDisjointSet:
    """Constructed move set with per-edge participation counts.

    ``k_by_edge[p-1]`` is the participation count of edge e_p (1-based
    positions along the reference tour); ``stage_of_move`` aligns with
    ``moves``.
    """

    n: int
    moves: tuple[TwoChange, ...]
    k_by_edge: tuple[int, ...]
    stage_of_move: tuple[int, ...]

    def positive_counts(self) -> list[int]:
        return [k for k in self.k_by_edge if k > 0]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "moves": [[m.i, m.j] for m in self.moves],
            "k": list(self.k_by_edge),
            "stages": list(self.stage_of_move),
        }


def build_chord_disjoint_set(n: int) -> ChordDisjointSet:
    """Run every stage and return the union of the added 2-changes."""
    stages = _stage_count(n)
    moves: list[TwoChange] = []
    stage_of_move: list[int] = []
    k_by_edge = [0] * n
    for t in range(1, stages + 1):
        seg = (n - 1) // 2**t
        for i in range(1, 2**t, 2):
            red = range((i - 1) * seg + 1, i * seg + 1)
            blue_even = [p for p in range(i * seg + 1, (i + 1) * seg + 1) if p % 2 == 0]
            for r in red:
                for b in blue_even:
                    moves.append(TwoChange(r - 1, b - 1))
                    stage_of_move.append(t)
                    k_by_edge[r - 1] += 1
                    k_by_edge[b - 1] += 1
    return ChordDisjointSet(
        n=n,
        moves=tuple(moves),
        k_by_edge=tuple(k_by_edge),
        stage_of_move=tuple(stage_of_move),
    )


def verify_chord_disjoint(s: ChordDisjointSet) -> bool:
    """Exhaustive check that no two moves share an added chord, in one pass.

    Chords are read off ``core.move_edges`` on the reference tour, whose
    vertices are its positions.
    """
    reference = Tour(tuple(range(s.n)))
    added = [frozenset(chord) for move in s.moves for chord in move_edges(reference, move)[1]]
    return len(set(added)) == len(added)


@dataclass(frozen=True)
class ParticipationSpectrum:
    values: tuple[int, ...]  # sorted multiset of the k_e
    product_positive: int


def participation_spectrum(s: ChordDisjointSet) -> ParticipationSpectrum:
    return ParticipationSpectrum(
        values=tuple(sorted(s.k_by_edge)), product_positive=math.prod(s.positive_counts())
    )


def participation_formula(n: int, position: int) -> int:
    """Predicted participation count of edge e_position from its segment labels.

    Collecting, per stage, whether the edge falls in an odd (red) segment
    gives a bit string; odd-position edges score that string read as a
    binary number, even-position edges score n-3 minus it.  Edge e_n is 0 by
    convention.
    """
    stages = _stage_count(n)
    if not (1 <= position <= n):
        raise ValueError(f"position must be in 1..{n}, got {position}")
    if position == n:
        return 0
    value = 0
    for t in range(1, stages + 1):
        seg = (n - 1) // 2**t
        segment_index = (position + seg - 1) // seg
        bit = segment_index % 2
        value += bit * 2 ** (stages - t)
    if position % 2 == 1:
        return value
    return n - 3 - value


def log_product_bound(s: ChordDisjointSet) -> float:
    """Log of the product over participating edges of sqrt(pi / (2 k_e))."""
    return sum(
        0.5 * (math.log(math.pi) - math.log(2.0) - math.log(k))
        for k in s.positive_counts()
    )
