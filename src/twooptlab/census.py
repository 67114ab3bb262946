"""Exhaustive 2-optimality census and transition-graph analytics.

The transition graph has a node per canonical tour and an arc for every
strictly improving 2-change.  Arcs strictly decrease tour length, so the
graph is acyclic and its sinks are exactly the 2-optimal tours; float
rounding can still make a move and its reverse both look improving, and
``transition_stats`` refuses such a cycle.  The exact census finds the same
2-optimal tours by a prefix-pruned breadth-first search over numpy arrays of
partial tours, which tests each 2-change once per array at the position
that completes it.  The census routines are the ground-truth oracle for the
probabilistic estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

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


# Children made per extension step of the census search.  The frontier is
# extended depth-first in chunks of at most this many children, so its memory
# stays small and fixed: chunks of 100,000 raised the peak RSS of the perfbench
# census workload from 60.5 MB to 64.3 MB for no gain in speed, while 4,096
# gave 60.8 MB.
_CHUNK_ORDERS = 4096


def _weight_table(inst: Instance) -> np.ndarray:
    """Flat n*n weight table whose 2-change deltas are computed exactly.

    Float weights stay float64, so deltas round as the scalar formula does.
    Exact weights below 2**61 fit int64 with every four-term delta; larger
    ones fall back to Python ints in an object array.
    """
    if inst.mode == "float":
        dtype = np.float64
    elif max(inst.weights) < 2**61:
        dtype = np.int64
    else:
        dtype = object
    return np.array(inst.weight_matrix(), dtype=dtype).ravel()


def _two_optimal_orders(inst: Instance, cap: int) -> Iterator[np.ndarray]:
    """Vertex orders of the 2-optimal canonical tours, as (n, k) int16 blocks.

    Each column is one order; columns come in lexicographic order, block after
    block.  The search is breadth-first over tour positions 1..n-1 (position 0
    holds vertex 0) on a (positions, k) frontier of partial tours, extended
    depth-first in chunks of at most ``_CHUNK_ORDERS`` children.  Filling
    position p gives every prefix each free vertex in increasing order, so
    the children stay lexicographic, and then tests every move whose last
    position, max(c, d), is p; a child survives only if none of them strictly
    improves.  Filling the last position first applies the canonical rule
    order[1] < order[n-1].
    """
    n = inst.n
    check_enumeration_cap(n, cap)
    w = _weight_table(inst)
    closing: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for a, b, c, d in move_quadruples(n):
        closing[max(c, d)].append((a, b, c, d))

    def extend(front: np.ndarray, p: int) -> np.ndarray:
        k = front.shape[1]
        used = np.zeros((k, n), dtype=bool)
        used[np.arange(k), front] = True
        parent, vertex = np.nonzero(~used)  # row-major: by parent, then vertex
        if p == n - 1:
            keep = front[1, parent] < vertex
            parent, vertex = parent[keep], vertex[keep]
        child = np.empty((p + 1, len(parent)), dtype=np.int16)
        child[:p] = front[:, parent]
        child[p] = vertex
        scaled = child * n  # flat index of (u, v) in w is u * n + v
        improving = np.zeros(len(parent), dtype=bool)
        for a, b, c, d in closing[p]:
            # Left to right, as in the scalar formula, so float deltas round alike.
            delta = w[scaled[a] + child[b]]
            delta += w[scaled[c] + child[d]]
            delta -= w[scaled[a] + child[c]]
            delta -= w[scaled[b] + child[d]]
            improving |= delta > 0
        return child[:, ~improving]

    def descend(front: np.ndarray, p: int) -> Iterator[np.ndarray]:
        step = max(1, _CHUNK_ORDERS // (n - p))
        for first in range(0, front.shape[1], step):
            child = extend(front[:, first : first + step], p)
            if not child.shape[1]:
                continue
            if p == n - 1:
                yield child
            else:
                yield from descend(child, p + 1)

    yield from descend(np.zeros((1, 1), dtype=np.int16), 1)


def two_optimal_tours(inst: Instance, cap: int = ENUMERATION_CAP) -> Iterator[Tour]:
    """Yield the 2-optimal canonical tours in lexicographic order.

    The prefix-pruned search behind every exact scanner; refuses n beyond the
    enumeration cap.
    """
    for block in _two_optimal_orders(inst, cap):
        for order in block.T.tolist():
            yield Tour(tuple(order))


def count_two_optimal_exact(inst: Instance, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of 2-optimal canonical tours."""
    return sum(block.shape[1] for block in _two_optimal_orders(inst, cap))


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
