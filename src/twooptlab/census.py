"""Exhaustive 2-optimality census and transition-graph analytics.

The transition graph has a node per canonical tour and an arc for every
strictly improving 2-change.  Arcs strictly decrease tour length, so the
graph is acyclic and its sinks are exactly the 2-optimal tours.  The census
routines are the ground-truth oracle for the probabilistic estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    ENUMERATION_CAP,
    Instance,
    Tour,
    canonicalize,
    enumerate_canonical_tours,
    move_quadruples,
    tour_length,
)
from .errors import CapExceededError
from .rng import substream

GRAPH_CAP = 9


def is_two_optimal(inst: Instance, tour: Tour) -> bool:
    """True iff no 2-change strictly improves the tour."""
    w = inst.weight_matrix()
    o = tour.order
    zero = 0 if inst.mode == "exact" else 0.0
    return not any(
        w[o[a]][o[b]] + w[o[c]][o[d]] - w[o[a]][o[c]] - w[o[b]][o[d]] > zero
        for a, b, c, d in move_quadruples(inst.n)
    )


def two_optimal_tours(inst: Instance, cap: int = ENUMERATION_CAP) -> Iterator[Tour]:
    """Yield the 2-optimal canonical tours in lexicographic order.

    The weight matrix is built once, and each tour is dropped at its first
    strictly improving move.  Every exact scanner goes through here.
    """
    w = inst.weight_matrix()
    moves = move_quadruples(inst.n)
    zero = 0 if inst.mode == "exact" else 0.0
    for tour in enumerate_canonical_tours(inst.n, cap=cap):
        o = tour.order
        for i, i1, j, j1 in moves:
            a, b, c, d = o[i], o[i1], o[j], o[j1]
            if w[a][b] + w[c][d] - w[a][c] - w[b][d] > zero:
                break
        else:
            yield tour


def count_two_optimal_exact(inst: Instance, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of 2-optimal canonical tours."""
    return sum(1 for _ in two_optimal_tours(inst, cap=cap))


@dataclass(frozen=True)
class TransitionGraph:
    """Improving-move DAG over canonical tours, nodes in lexicographic order."""

    n: int
    nodes: tuple[Tour, ...]
    lengths: tuple
    arcs: tuple[tuple[int, int], ...]

    def out_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.arcs:
            adj[u].append(v)
        return adj

    def sinks(self) -> list[int]:
        has_out = [False] * len(self.nodes)
        for u, _ in self.arcs:
            has_out[u] = True
        return [i for i, out in enumerate(has_out) if not out]


def build_transition_graph(inst: Instance, cap: int = GRAPH_CAP) -> TransitionGraph:
    """Full node and improving-arc sets; refuses n beyond the graph cap."""
    n = inst.n
    if n > min(cap, GRAPH_CAP):
        raise CapExceededError(
            f"transition graph at n={n} exceeds cap {min(cap, GRAPH_CAP)}"
        )
    nodes = tuple(enumerate_canonical_tours(n, cap=GRAPH_CAP))
    index = {t.order: k for k, t in enumerate(nodes)}
    lengths = tuple(tour_length(inst, t) for t in nodes)
    w = inst.weight_matrix()
    moves = move_quadruples(n)
    zero = 0 if inst.mode == "exact" else 0.0
    arcs = []
    for k, tour in enumerate(nodes):
        o = tour.order
        for i, i1, j, j1 in moves:
            a, b, c, d = o[i], o[i1], o[j], o[j1]
            if w[a][b] + w[c][d] - w[a][c] - w[b][d] > zero:
                # Reverse positions i+1..j; slice to j + 1, since j1 wraps to 0.
                target = o[:i1] + o[i1 : j + 1][::-1] + o[j + 1 :]
                arcs.append((k, index[canonicalize(target)]))
    arcs.sort()
    return TransitionGraph(n=n, nodes=nodes, lengths=lengths, arcs=tuple(arcs))


@dataclass(frozen=True)
class TransitionStats:
    sinks: int
    longest_path: int
    walk_lengths: tuple[int, ...]

    def to_json_dict(self) -> dict:
        hist: dict[str, int] = {}
        for length in self.walk_lengths:
            hist[str(length)] = hist.get(str(length), 0) + 1
        return {
            "sinks": self.sinks,
            "longest_path": self.longest_path,
            "walk_lengths": hist,
        }


def transition_stats(graph: TransitionGraph, walks: int = 1000, seed: int = 0) -> TransitionStats:
    """Sink count, exact longest path, and sampled improving-walk lengths.

    Walks start from uniform random nodes and pick an improving arc uniformly
    at random until they reach a sink.
    """
    adj = graph.out_adjacency()
    sinks = sum(1 for targets in adj if not targets)

    # Arcs strictly decrease length, so ascending length is a reverse
    # topological order; ties carry no arcs.
    order = sorted(range(len(graph.nodes)), key=lambda k: graph.lengths[k])
    longest = [0] * len(graph.nodes)
    for k in order:
        if adj[k]:
            longest[k] = 1 + max(longest[t] for t in adj[k])
    longest_path = max(longest, default=0)

    rng = substream(seed, "improving-walks")
    lengths = []
    for _ in range(walks):
        node = int(rng.integers(len(graph.nodes)))
        steps = 0
        while adj[node]:
            node = adj[node][int(rng.integers(len(adj[node])))]
            steps += 1
        lengths.append(steps)
    return TransitionStats(sinks=sinks, longest_path=longest_path, walk_lengths=tuple(lengths))
