"""Exhaustive 2-optimality census and transition-graph analytics.

The transition graph has a node per canonical tour and an arc for every
strictly improving 2-change.  Arcs strictly decrease tour length, so the
graph is acyclic and its sinks are exactly the 2-optimal tours; float
rounding can still make a move and its reverse both look improving, and
``transition_stats`` refuses such a cycle.  The exact census finds the same
2-optimal tours by a prefix-pruned search.  The census routines are the
ground-truth oracle for the probabilistic estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    ALL_TOURS_CAP,
    ENUMERATION_CAP,
    Instance,
    Tour,
    canonicalize,
    check_enumeration_cap,
    enumerate_canonical_tours,
    move_quadruples,
)
from .rng import substream


def is_two_optimal(inst: Instance, tour: Tour) -> bool:
    """True iff no 2-change strictly improves the tour."""
    w = inst.weight_matrix()
    o = tour.order
    zero = 0 if inst.mode == "exact" else 0.0
    return not any(
        w[o[a]][o[b]] + w[o[c]][o[d]] - w[o[a]][o[c]] - w[o[b]][o[d]] > zero
        for a, b, c, d in move_quadruples(inst.n)
    )


def _two_optimal_orders(inst: Instance, cap: int) -> Iterator[tuple[int, ...]]:
    """Vertex orders of the 2-optimal canonical tours, in lexicographic order.

    Depth-first over tour positions 1..n-1 (position 0 holds vertex 0), trying
    free vertices in increasing order.  Each move is tested once, when the
    last position it reads, max(c, d), is filled, and a prefix is dropped at
    its first strictly improving move.  The last two positions are filled
    inline, where the canonical rule order[1] < order[n-1] is applied.
    """
    n = inst.n
    check_enumeration_cap(n, cap)
    w = inst.weight_matrix()
    zero = 0 if inst.mode == "exact" else 0.0
    closing: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for a, b, c, d in move_quadruples(n):
        closing[max(c, d)].append((a, b, c, d))
    pen, last = n - 2, n - 1
    tail = closing[pen] + closing[last]
    o = [0] * n
    free = [[] for _ in range(n)]  # free[p]: vertices not in o[:p], ascending
    free[1] = list(range(1, n))
    tried = [0] * n  # tried[p]: how many of free[p] position p has taken
    p = 1
    while p:
        k = tried[p]
        if k == n - p:
            p -= 1
            continue
        tried[p] = k + 1
        cand = free[p]
        o[p] = cand[k]
        for a, b, c, d in closing[p]:
            if w[o[a]][o[b]] + w[o[c]][o[d]] - w[o[a]][o[c]] - w[o[b]][o[d]] > zero:
                break
        else:
            rest = cand[:k] + cand[k + 1 :]
            if p < pen - 1:
                p += 1
                free[p] = rest
                tried[p] = 0
                continue
            x, y = rest
            for s, t in ((x, y), (y, x)):
                if o[1] > t:
                    continue
                o[pen] = s
                o[last] = t
                for a, b, c, d in tail:
                    if w[o[a]][o[b]] + w[o[c]][o[d]] - w[o[a]][o[c]] - w[o[b]][o[d]] > zero:
                        break
                else:
                    yield tuple(o)


def two_optimal_tours(inst: Instance, cap: int = ENUMERATION_CAP) -> Iterator[Tour]:
    """Yield the 2-optimal canonical tours in lexicographic order.

    The prefix-pruned search behind every exact scanner; refuses n beyond the
    enumeration cap.
    """
    for order in _two_optimal_orders(inst, cap):
        yield Tour(order)


def count_two_optimal_exact(inst: Instance, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of 2-optimal canonical tours."""
    return sum(1 for _ in _two_optimal_orders(inst, cap))


@dataclass(frozen=True)
class TransitionGraph:
    """Improving-move DAG over canonical tours, nodes in lexicographic order."""

    n: int
    nodes: tuple[Tour, ...]
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


def build_transition_graph(inst: Instance) -> TransitionGraph:
    """Full node and improving-arc sets; refuses n beyond ``ALL_TOURS_CAP``."""
    n = inst.n
    nodes = tuple(enumerate_canonical_tours(n, cap=ALL_TOURS_CAP))
    index = {t.order: k for k, t in enumerate(nodes)}
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
    return TransitionGraph(n=n, nodes=nodes, arcs=tuple(arcs))


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
    at random until they reach a sink.  A cyclic arc set raises ValueError.
    """
    if walks < 0:
        raise ValueError(f"walks must be >= 0, got {walks}")
    adj = graph.out_adjacency()
    sinks = sum(1 for targets in adj if not targets)

    # Peel the sinks off layer by layer: a node leaves with its last
    # successor, so the layers after the first count the longest path.  Only
    # the arcs are read; float lengths that tie or round cannot shorten it.
    preds: list[list[int]] = [[] for _ in graph.nodes]
    for u, v in graph.arcs:
        preds[v].append(u)
    unpeeled = [len(targets) for targets in adj]
    layer = [k for k, targets in enumerate(adj) if not targets]
    peeled = layers = 0
    while layer:
        peeled += len(layer)
        layers += 1
        next_layer = []
        for v in layer:
            for u in preds[v]:
                unpeeled[u] -= 1
                if not unpeeled[u]:
                    next_layer.append(u)
        layer = next_layer
    if peeled < len(graph.nodes):
        raise ValueError("improving arcs form a cycle; no longest path exists")
    longest_path = max(layers - 1, 0)

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
