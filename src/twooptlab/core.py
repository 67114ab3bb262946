"""Complete weighted instances, canonical tours, and 2-change moves.

Vertices are labelled 0..n-1.  Edge weights live on unordered pairs (i, j)
with i < j, stored flat in lexicographic pair order; every module shares this
layout so weight vectors, polytope columns and serialized arrays line up.

Tours are Hamiltonian cycles in canonical form: vertex 0 first, and the
smaller of its two neighbours second.  This fixes rotation and reflection,
so distinct canonical tours number (n-1)!/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

from .errors import CapExceededError, InvalidMoveError
from .rng import substream

# Limits on n for exhaustive tour scans; (n-1)!/2 tours grow past any budget.
ENUMERATION_CAP = 10  # pruned 2-optimal census, by default
ENUMERATION_HARD_CAP = 12  # pruned census under --i-know-this-is-huge
ALL_TOURS_CAP = 9  # scans that keep or visit every tour: transition graph, reduction verifiers


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Flat lexicographic index of the unordered pair (i, j), i != j."""
    if i == j:
        raise ValueError("self-loops carry no weight")
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered pairs in the shared lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class Instance:
    """Complete graph with symmetric edge weights in one numeric mode.

    ``mode`` is "exact" (integer weights, exact comparisons) or "float"
    (64-bit weights).  Mixing value types within one instance is rejected.
    """

    n: int
    weights: tuple
    mode: str
    label: str = ""

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"instances need n >= 4, got n={self.n}")
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.weights) != pair_count(self.n):
            raise ValueError(
                f"expected {pair_count(self.n)} weights for n={self.n}, "
                f"got {len(self.weights)}"
            )
        for w in self.weights:
            if self.mode == "exact":
                if not isinstance(w, int) or isinstance(w, bool):
                    raise ValueError("exact mode requires integer weights")
            else:
                if not isinstance(w, float):
                    raise ValueError("float mode requires float weights")
                if not math.isfinite(w):
                    raise ValueError("weights must be finite")
            if w < 0:
                raise ValueError("weights must be non-negative")

    def weight(self, i: int, j: int):
        return self.weights[pair_index(i, j, self.n)]

    def weight_matrix(self) -> list[list]:
        """Dense symmetric lookup table; zero diagonal."""
        zero = 0 if self.mode == "exact" else 0.0
        mat = [[zero] * self.n for _ in range(self.n)]
        for (i, j), w in zip(all_pairs(self.n), self.weights):
            mat[i][j] = mat[j][i] = w
        return mat

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "weights": list(self.weights),
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        """Parse an instance object; every malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"instance JSON must be an object, got {type(data).__name__}")
        try:
            mode = data["mode"]
            n = _integral(data["n"], "n")
            if not isinstance(data["weights"], list):
                raise ValueError(f"instance key 'weights' takes a list, got {data['weights']!r}")
            weights = tuple(
                _integral(w, "weights") if mode == "exact" else float(_number(w, "weights"))
                for w in data["weights"]
            )
        except KeyError as exc:
            raise ValueError(f"instance JSON lacks key {exc}") from exc
        except OverflowError as exc:
            raise ValueError(f"malformed instance JSON: {exc}") from exc
        return cls(n=n, weights=weights, mode=mode, label=str(data.get("label", "")))


def _number(value, key: str):
    """``value`` if it is a JSON number (an int or float, not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"instance key {key!r} takes JSON numbers, got {value!r}")
    return value


def _integral(value, key: str) -> int:
    """int(value) for an integral JSON number; refuses to truncate 1.7 to 1."""
    if isinstance(_number(value, key), float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def random_instance(n: int, seed: int) -> Instance:
    """Float instance with i.i.d. uniform [0, 1) weights; (n, seed) reproducible."""
    if n < 4:
        raise ValueError(f"invalid size n={n}, need n >= 4")
    rng = substream(seed, "uniform-weights", n)
    weights = tuple(float(w) for w in rng.random(pair_count(n)))
    return Instance(n=n, weights=weights, mode="float", label=f"uniform(n={n},seed={seed})")


def constant_instance(n: int, value=1) -> Instance:
    return Instance(n=n, weights=(value,) * pair_count(n), mode="exact")


def canonicalize(order: Sequence[int]) -> tuple[int, ...]:
    """Rotate vertex 0 to the front, then fix the traversal direction."""
    order = tuple(order)
    k = order.index(0)
    rot = order[k:] + order[:k]
    if rot[1] > rot[-1]:
        rot = (0,) + rot[:0:-1]
    return rot


@dataclass(frozen=True)
class Tour:
    """Hamiltonian cycle as a vertex sequence (a permutation of 0..n-1)."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if n < 3:
            raise ValueError("tours need at least 3 vertices")
        if sorted(self.order) != list(range(n)):
            raise ValueError("tour order must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def canonical(self) -> bool:
        return self.order[0] == 0 and self.order[1] < self.order[-1]

    def canonicalized(self) -> "Tour":
        return Tour(canonicalize(self.order))

    def edges(self) -> list[tuple[int, int]]:
        o = self.order
        return [(o[i], o[(i + 1) % self.n]) for i in range(self.n)]


@dataclass(frozen=True)
class TwoChange:
    """A 2-change identified by the tour positions of its removed edges.

    Position p removes the edge joining order[p] and order[p+1 mod n].  The
    two replacement chords are then determined by the tour.
    """

    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i < self.j):
            raise ValueError("need 0 <= i < j")

    def validate_for(self, n: int) -> None:
        if self.j >= n:
            raise InvalidMoveError(f"position {self.j} out of range for n={n}")
        if self.j - self.i < 2 or (self.i == 0 and self.j == n - 1):
            raise InvalidMoveError(
                f"positions ({self.i}, {self.j}) remove adjacent tour-edges"
            )


def enumerate_two_changes(n: int) -> list[TwoChange]:
    """All n(n-3)/2 position pairs removing non-adjacent tour-edges."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    moves = []
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            moves.append(TwoChange(i, j))
    return moves


@functools.cache
def move_quadruples(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Tour positions (a, b, c, d) = (i, i+1, j, j+1 mod n) per move.

    Aligned with enumerate_two_changes.  On a tour o the move removes the
    edges (o[a], o[b]) and (o[c], o[d]) and adds (o[a], o[c]) and (o[b], o[d]).
    Built once per n; every caller shares the one immutable tuple.
    """
    return tuple((m.i, m.i + 1, m.j, (m.j + 1) % n) for m in enumerate_two_changes(n))


def move_edges(tour: Tour, move: TwoChange):
    """Removed tour-edge pair and added chord pair, as vertex pairs."""
    move.validate_for(tour.n)
    o = tour.order
    i, j = move.i, move.j
    j1 = (j + 1) % tour.n
    removed = ((o[i], o[i + 1]), (o[j], o[j1]))
    added = ((o[i], o[j]), (o[i + 1], o[j1]))
    return removed, added


def tour_length(inst: Instance, tour: Tour):
    """Total weight of the cycle; exact in exact mode."""
    if tour.n != inst.n:
        raise ValueError(f"tour has {tour.n} vertices, instance has {inst.n}")
    o = tour.order
    total = inst.weight(o[-1], o[0])
    for a, b in zip(o, o[1:]):
        total += inst.weight(a, b)
    return total


def two_change_delta(inst: Instance, tour: Tour, move: TwoChange):
    """Improvement in tour length; positive means strictly improving."""
    if tour.n != inst.n:
        raise ValueError(f"tour has {tour.n} vertices, instance has {inst.n}")
    (e1, e2), (f1, f2) = move_edges(tour, move)
    return inst.weight(*e1) + inst.weight(*e2) - inst.weight(*f1) - inst.weight(*f2)


def apply_two_change(tour: Tour, move: TwoChange) -> Tour:
    """Reverse the segment between the removal positions; re-canonicalize."""
    move.validate_for(tour.n)
    o = tour.order
    i, j = move.i, move.j
    new_order = o[: i + 1] + o[i + 1 : j + 1][::-1] + o[j + 1 :]
    return Tour(canonicalize(new_order))


def canonical_tour_count(n: int) -> int:
    return math.factorial(n - 1) // 2


def check_enumeration_cap(n: int, cap: int = ENUMERATION_CAP) -> None:
    """The one size check of every exhaustive tour scan; the hard ceiling wins over cap."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    cap = min(cap, ENUMERATION_HARD_CAP)
    if n > cap:
        raise CapExceededError(
            f"refusing to enumerate {canonical_tour_count(n)} tours at n={n}; "
            f"cap is {cap} (hard ceiling {ENUMERATION_HARD_CAP})"
        )


def enumerate_canonical_tours(n: int, cap: int = ENUMERATION_CAP) -> Iterator[Tour]:
    """Yield every canonical tour exactly once, in lexicographic order."""
    check_enumeration_cap(n, cap)
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield Tour((0,) + rest)
