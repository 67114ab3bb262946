"""Exhaustive 2-optimality census and transition-graph analytics.

The transition graph has a node per canonical tour and an arc for every
strictly improving 2-change.  Arcs strictly decrease tour length, so the
graph is acyclic and its sinks are exactly the 2-optimal tours; float
rounding can still make a move and its reverse both look improving, and
``transition_stats`` refuses such a cycle.  Both exhaustive scans, oracles
for the estimators, share one search: the census prunes a breadth-first search
over partial tours, and the graph runs it on equal weights, where every
canonical order survives.  That node list, and the table of the node each move
sends each node to, depend on n alone, so the graph builds them once for the
last n it saw; each instance then scores every move on all nodes at once with
``_delta``, looks its improving moves up in the table and keeps its arcs as one
(m, 2) array.  A 2-change improves exactly when its two removed edges are
incompatible, so the census reads every 2-change test from one table per
instance, ``_compatible``, of n-bit masks over edge pairs.  Each partial tour
carries the AND of the masks of its edges, and the vertices it may take next
are the set bits of one mask.  The search keeps its partial tours as int16
columns; every gather on the int16 arrays goes through ``take`` or a flat intp
index, never through an int16 fancy index, which numpy casts to intp on each
call.
A census checks the enumeration cap before any set-up, then builds the
instance's weight table once; the twin classes and the search both read it.

The census counts once per orbit of the instance's twin classes.  Vertices u
and v are twins when w(u, x) = w(v, x) for every other vertex x, as the
interchangeable auxiliaries of the reduction instances are.  Swapping twins
maps each 2-change delta to one with the same four weights in the same
roles, so float deltas round alike and 2-optimality is kept.  The group G of
twin permutations fixing vertex 0, of order |G| = prod_C |C - {0}|!, acts
freely on vertex orders that start with 0, and each orbit has one gated
representative: the one that places each twin class, vertex 0 left out, in
increasing order.  With exact weights, reflection keeps 2-optimality too, so
the count is |G| * P / 2 over the P gated 2-optimal orders in either
direction.  A float delta and its reflection subtract the same terms in
another order and may round apart, so the search tests each order only in
its own direction: a 2-optimal gated order o stands for the g in G with
g(o[1]) < g(o[n-1]), the canonical members of its orbit.  A gated o[1] is the
least of its class and o[n-1] the greatest of its own, so orders with
o[1] > o[n-1] stand for none, and the search keeps the canonical rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ALL_TOURS_CAP,
    ENUMERATION_CAP,
    Instance,
    Tour,
    canonicalize,
    check_enumeration_cap,
    constant_instance,
    move_quadruples,
)
from .rng import substream


def is_two_optimal(inst: Instance, tour: Tour) -> bool:
    """True iff no 2-change strictly improves the cycle, read as its canonical order.

    The censuses test canonical orders, so both directions of a cycle get the
    answer they count even where float deltas of the reflection round apart.
    """
    if tour.n != inst.n:
        raise ValueError(f"tour has {tour.n} vertices, instance has {inst.n}")
    w = inst.weight_matrix()
    o = canonicalize(tour.order)
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


def _twin_classes(w: np.ndarray, n: int) -> list[list[int]]:
    """Twin classes in increasing order: u, v are twins when w(u, x) = w(v, x) for every other x.

    ``w`` is the flat table of ``_weight_table``.  Twins share their weights to
    each other as well, so the relation is an equivalence and each class is
    the twins of its smallest member.
    """
    rows = w.reshape(n, n)
    same = rows[:, None, :] == rows[None, :, :]  # same[u, v, x]: w(u, x) = w(v, x)
    vertices = np.arange(n)
    same[vertices, :, vertices] = True  # x = u and x = v are not compared
    same[:, vertices, vertices] = True
    classes: dict[int, list[int]] = {}
    for v, first in enumerate(same.all(axis=2).argmax(axis=1).tolist()):
        classes.setdefault(first, []).append(v)
    return list(classes.values())


def _delta(w: np.ndarray, orders: np.ndarray, scaled: np.ndarray, move) -> np.ndarray:
    """Gain of the 2-change (a, b, c, d) on every column; ``scaled`` is ``orders * n``.

    The transition graph scores one move at a time on all its nodes this way.
    Terms are summed left to right, as in the scalar formula, so float deltas
    round alike.
    """
    a, b, c, d = move
    delta = w.take(scaled[a] + orders[b])
    delta += w.take(scaled[c] + orders[d])
    delta -= w.take(scaled[a] + orders[c])
    delta -= w.take(scaled[b] + orders[d])
    return delta


def _bits(n: int) -> np.ndarray:
    """``1 << v`` for each vertex v, in the narrowest unsigned dtype that holds n bits."""
    return np.array([1 << v for v in range(n)], dtype=np.min_scalar_type((1 << n) - 1))


def _compatible(w: np.ndarray, n: int) -> np.ndarray:
    """(n, n, n) table of n-bit masks: bit v of [a, b, u] says edge u->v may follow a->b.

    The bit is set when the 2-change that removes the tour edges a->b and u->v
    does not strictly improve, ((w_ab + w_uv) - w_au) - w_bv > 0 being false.
    The terms are summed left to right on ``w``'s dtype, as ``_delta`` does,
    so float decisions round alike.  Bit v of [a, b, v] is clear, and bit 0 of
    every [0, b, u] is set: edge 0->o_1 and a closing edge u->0 are adjacent,
    so no 2-change removes both.
    """
    rows = w.reshape(n, n)
    gain = rows[:, :, None, None] + rows[None, None, :, :]
    gain -= rows[:, None, :, None]
    gain -= rows[None, :, None, :]
    bits = _bits(n)
    table = (~(gain > 0)).reshape(n**3, n) @ bits
    table = table.reshape(n, n, n)
    table &= ~bits
    table[0] |= 1
    return table


def _two_optimal_orders(
    inst: Instance, w: np.ndarray, gate: Sequence[Sequence[int]] = ()
) -> Iterator[np.ndarray]:
    """Vertex orders of the 2-optimal canonical tours, as (n, k) int16 blocks.

    Each column is one order; columns come in lexicographic order, block after
    block.  The search is breadth-first over tour positions 1..n-1 (position 0
    holds vertex 0) on a (positions, k) frontier of partial tours, extended
    depth-first in chunks of at most ``_CHUNK_ORDERS`` children.  Filling
    position p gives every prefix each free vertex in increasing order, so
    the children stay lexicographic.  Filling the last position first applies
    the canonical rule order[1] < order[n-1].

    A 2-change improves exactly when its two removed edges are incompatible
    in ``_compatible``'s table, so each prefix carries one mask per vertex u:
    the AND of the table rows of its placed edges, its last edge left out,
    which is adjacent to the next one.  The vertices a prefix may take next
    form one mask too: the row of its last vertex, less its placed vertices
    and, under the gate, the members whose predecessor is not placed yet.  Its
    set bits, unpacked in increasing order, are the children.  At the last
    position the closing edge v->0 must pass bit 0 of the child's row v as
    well.  Under equal weights no table is built and no mask carried.

    ``w`` is ``_weight_table(inst)``; callers check the enumeration cap first.
    ``gate`` lists vertex classes, each in increasing order and without
    vertex 0; a member may fill a position only after every smaller member of
    its class.
    """
    n = inst.n
    bits = _bits(n)
    # Masks unpack as little-endian bytes of 8 bits each, 2**depth entries a mask.
    little = bits.dtype.newbyteorder("<")
    depth = (8 * bits.itemsize).bit_length() - 1
    # A gated vertex v may be placed once the member u before it is: bit v of
    # (placed << s) & late[s], s = v - u.  Vertices in no late[s] are never held back.
    late: dict[int, int] = {}
    for cls in gate:
        for u, v in zip(cls, cls[1:]):
            late[v - u] = late.get(v - u, 0) | 1 << v
    early = (1 << n) - 1 - sum(late.values())
    # Under equal weights every 2-change gains exactly 0, so no edge is tested.
    if len(set(inst.weights)) > 1:
        table = _compatible(w, n).reshape(n * n, n)
        root = np.full((1, n), (1 << n) - 1, dtype=bits.dtype)
    else:
        root = None

    def extend(
        front: np.ndarray, masks: np.ndarray | None, p: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        k = front.shape[1]
        placed = np.bitwise_or.reduce(bits.take(front), axis=0)
        if masks is None:
            allowed = placed ^ ((1 << n) - 1)
        else:
            allowed = masks.ravel().take(front[p - 1] + np.arange(0, k * n, n))
            allowed &= ~placed
            if p > 1:
                # The parent's last edge is no longer its children's last.
                rows = table.take(front[p - 2] * n + front[p - 1], axis=0)
                rows &= masks
                masks = rows
        if late:
            ready = early
            for shift, members in late.items():
                ready = ready | ((placed << shift) & members)
            allowed &= ready
        # Bit v of allowed[r] unpacks to entry r * 2**depth + v of free.
        free = np.unpackbits(allowed.astype(little, copy=False).view(np.uint8), bitorder="little")
        index = free.view(bool).nonzero()[0]  # by parent, then vertex
        parent, vertex = index >> depth, index & (1 << depth) - 1
        if p == n - 1:
            keep = front[1].take(parent) < vertex
            if masks is not None:
                # The closing edge vertex->0 must be compatible with every edge but the first.
                keep &= (masks.ravel().take(parent * n + vertex) & 1).astype(bool)
            parent, vertex = parent[keep], vertex[keep]
        child = np.empty((p + 1, len(parent)), dtype=np.int16)
        front.take(parent, axis=1, out=child[:p])
        child[p] = vertex
        if masks is None or p == n - 1:
            return child, None
        return child, masks.take(parent, axis=0)

    def descend(front: np.ndarray, masks: np.ndarray | None, p: int) -> Iterator[np.ndarray]:
        step = max(1, _CHUNK_ORDERS // (n - p))
        for first in range(0, front.shape[1], step):
            part = None if masks is None else masks[first : first + step]
            child, child_masks = extend(front[:, first : first + step], part, p)
            if not child.shape[1]:
                continue
            if p == n - 1:
                yield child
            else:
                yield from descend(child, child_masks, p + 1)

    yield from descend(np.zeros((1, 1), dtype=np.int16), root, 1)


def two_optimal_tours(inst: Instance, cap: int = ENUMERATION_CAP) -> Iterator[Tour]:
    """Yield the 2-optimal canonical tours in lexicographic order.

    The prefix-pruned search behind every exact scanner; refuses n beyond the
    enumeration cap.
    """
    check_enumeration_cap(inst.n, cap)
    for block in _two_optimal_orders(inst, _weight_table(inst)):
        for order in block.T.tolist():
            yield Tour(tuple(order))


def count_two_optimal_exact(inst: Instance, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of 2-optimal canonical tours, searched once per twin-class orbit.

    See the module docstring; without twins every canonical tour is searched.
    """
    n = inst.n
    check_enumeration_cap(n, cap)
    w = _weight_table(inst)
    movable = [[v for v in cls if v] for cls in _twin_classes(w, n)]
    # ends[x * n + y] counts the surviving orders with order[1] = x and order[n-1] = y.
    ends = np.zeros(n * n, dtype=np.int64)
    for block in _two_optimal_orders(inst, w, movable):
        ends += np.bincount(block[1] * n + block[-1], minlength=n * n)
    twins = {v: cls for cls in movable for v in cls}
    group = math.prod(math.factorial(len(cls)) for cls in movable)
    total = 0
    for key in np.flatnonzero(ends).tolist():
        # G maps (x, y) onto each pair of distinct vertices of their classes equally often.
        x, y = divmod(key, n)
        pairs = [(a, b) for a in twins[x] for b in twins[y] if a != b]
        total += int(ends[key]) * (group // len(pairs)) * sum(a < b for a, b in pairs)
    return total


@dataclass(frozen=True)
class TransitionGraph:
    """Improving-move DAG over canonical tours; node k is row k of the sorted ``orders``.

    ``arcs`` is an (m, 2) integer array of (from, to) rows in increasing lexicographic order.
    """

    n: int
    orders: np.ndarray
    arcs: np.ndarray

    def sinks(self) -> np.ndarray:
        return np.setdiff1d(np.arange(len(self.orders)), self.arcs[:, 0])


@functools.lru_cache(maxsize=1)
def _move_targets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, T) orders of every canonical tour and (moves, T) int32 move targets.

    Depends on n alone, so graphs built one after another at the same n share
    it.  Column k of the orders is node k, in increasing order; ``table[m, u]``
    is the node that move m of ``move_quadruples(n)`` sends node u to.
    """
    # Under equal weights the search tests no 2-change and keeps every canonical order.
    check_enumeration_cap(n, ALL_TOURS_CAP)
    equal = constant_instance(n)
    blocks = _two_optimal_orders(equal, _weight_table(equal))
    orders = np.concatenate(list(blocks), axis=1).astype(np.int64)
    count = orders.shape[1]
    # Position 0 holds vertex 0 and position n-1 the vertex left over, so base n-1 keys
    # of positions 1..n-2 (digits o - 1) tell the orders apart and index a dense node
    # lookup.  Every target is canonical, so it reads only entries set here.
    radix = np.zeros(n, dtype=np.int64)
    radix[1 : n - 1] = (n - 1) ** np.arange(n - 3, -1, -1)
    offset = radix.sum()
    lookup = np.empty((n - 1) ** (n - 2), dtype=np.int32)
    lookup[radix @ orders - offset] = np.arange(count)
    moves = move_quadruples(n)
    table = np.empty((len(moves), count), dtype=np.int32)
    for m, (a, b, c, d) in enumerate(moves):
        target = orders.copy()
        target[b : c + 1] = target[b : c + 1][::-1]
        flip = target[1] > target[n - 1]
        target[1:, flip] = target[1:, flip][::-1]
        table[m] = lookup[radix @ target - offset]
    orders.flags.writeable = False
    table.flags.writeable = False
    return orders, table


def build_transition_graph(inst: Instance) -> TransitionGraph:
    """Full node and improving-arc sets; refuses n beyond ``ALL_TOURS_CAP``.

    The returned ``orders`` is a read-only view shared by every graph built at this n.
    """
    n = inst.n
    orders, table = _move_targets(n)
    w = _weight_table(inst)
    scaled = orders * n
    count = orders.shape[1]
    # Every target is below the node count T, so sorting src * T + dst sorts the arcs by (src, dst).
    codes = []
    for m, move in enumerate(move_quadruples(n)):
        improving = np.flatnonzero(_delta(w, orders, scaled, move) > 0)
        codes.append(improving * count + table[m, improving])
    code = np.concatenate(codes)
    code.sort()
    # Split straight into the (m, 2) array, with no column temporaries or stacked copy.
    arcs = np.empty((len(code), 2), dtype=code.dtype)
    np.divmod(code, count, out=(arcs[:, 0], arcs[:, 1]))
    return TransitionGraph(n=n, orders=orders.T, arcs=arcs)


@dataclass(frozen=True)
class TransitionStats:
    sinks: int
    longest_path: int
    walk_lengths: tuple[int, ...]

    def to_json_dict(self) -> dict:
        lengths, counts = np.unique(self.walk_lengths, return_counts=True)
        return {
            "sinks": self.sinks,
            "longest_path": self.longest_path,
            "walk_lengths": dict(zip(map(str, lengths.tolist()), counts.tolist())),
        }


def transition_stats(graph: TransitionGraph, walks: int = 1000, seed: int = 0) -> TransitionStats:
    """Sink count, exact longest path, and sampled improving-walk lengths.

    Walks start from uniform random nodes and pick an improving arc uniformly
    at random until they reach a sink.  They advance in lock-step as one
    array: each step draws one out-arc for every walk still off a sink and
    drops the walks that reached one.  A cyclic arc set raises ValueError.
    """
    if walks < 0:
        raise ValueError(f"walks must be >= 0, got {walks}")
    count = len(graph.orders)
    src, dst = graph.arcs.T
    out_degree = np.bincount(src, minlength=count)
    sinks = int(np.count_nonzero(out_degree == 0))

    # Peel the sources off layer by layer: a node leaves with its last
    # predecessor, so the layers after the first count the longest path.  Only
    # the arcs are read; float lengths that tie or round cannot shorten it.
    # Node u's out-arcs are the out_degree[u] rows from first[u] on, so each
    # layer reads only its own arcs.
    first = np.cumsum(out_degree) - out_degree
    unpeeled = np.bincount(dst, minlength=count)
    layer = np.flatnonzero(unpeeled == 0)
    layers = 0
    while len(layer):
        layers += 1
        begin, size = first[layer], out_degree[layer]
        arcs = np.repeat(begin - np.cumsum(size) + size, size) + np.arange(size.sum())
        hits = np.bincount(dst[arcs], minlength=count)
        unpeeled -= hits
        layer = np.flatnonzero((hits > 0) & (unpeeled == 0))
    if unpeeled.any():
        raise ValueError("improving arcs form a cycle; no longest path exists")
    longest_path = max(layers - 1, 0)

    rng = substream(seed, "improving-walks")
    at = rng.integers(count, size=walks)
    lengths = np.zeros(walks, dtype=np.int64)
    live = np.flatnonzero(out_degree[at])
    while len(live):
        node = at[live]
        at[live] = dst[first[node] + rng.integers(out_degree[node])]
        lengths[live] += 1
        live = live[out_degree[at[live]] > 0]
    return TransitionStats(
        sinks=sinks, longest_path=longest_path, walk_lengths=tuple(lengths.tolist())
    )
