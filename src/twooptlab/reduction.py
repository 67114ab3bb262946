"""Path-cover counting through 2-optimal-tour censuses.

A base graph G on nV vertices is embedded into a complete exact-weight
instance on nV+m vertices by adding m auxiliary vertices: original edges get
weight 0, missing pairs inside V get the large penalty M, pairs inside the
auxiliary set get N, and crossing pairs get L with N = 2L.  With M large
enough, a tour is 2-optimal exactly when it uses no penalty edge, and its
maximal runs of original vertices form a path cover of G.  Counting
2-optimal tours for m = nV+1 .. 2nV therefore pins down the number of path
covers of each size via an exact linear solve.

Two per-cover counting models are exposed side by side:

* the "paper" model, with per-cover coefficient 2^(l-1) m! (m-1)! / (m-l)!
  for a cover of size l, and
* a "corrected" model that charges orientation choices only to paths with
  at least two vertices (2^(q-1) in place of 2^(l-1), q = number of such
  paths), since single-vertex paths cannot be flipped.

Exhaustive counting at desk scale matches the corrected model; the paper
model overcounts covers containing singleton paths.  Both recoveries are
reported so the discrepancy stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .census import count_two_optimal_exact, two_optimal_tours
from .core import (
    ALL_TOURS_CAP,
    ENUMERATION_CAP,
    Instance,
    all_pairs,
    check_enumeration_cap,
    enumerate_canonical_tours,
)
from .errors import CapExceededError, SingularMatrixError
from .rational import determinant_exact, solve_exact

COVER_CAP = 10  # base-graph vertices for path-cover enumeration


@dataclass(frozen=True)
class BaseGraph:
    """Simple graph on vertices 0..nv-1."""

    nv: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.nv < 2:
            raise ValueError("base graphs need at least 2 vertices")
        for u, v in self.edges:
            if not (0 <= u < v < self.nv):
                raise ValueError(f"bad edge ({u}, {v}) for nv={self.nv}")

    @classmethod
    def from_edges(cls, nv: int, edges) -> "BaseGraph":
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(nv=nv, edges=normalized)

    @classmethod
    def from_edge_list_text(cls, text: str) -> "BaseGraph":
        """Parse "u v" lines (0-indexed); blank lines and # comments ignored."""
        edges = []
        top = -1
        for k, line in enumerate(text.splitlines(), 1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            try:
                u, v = map(int, tokens)
                problem = "negative vertex label" if min(u, v) < 0 else "self-loop" if u == v else ""
            except ValueError:
                problem = "need two integer vertex labels"
            if problem:
                raise ValueError(f"edge list line {k}: {problem}, got {line.strip()!r}")
            edges.append((u, v))
            top = max(top, u, v)
        return cls.from_edges(top + 1, edges)

    def neighbours(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.nv)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: sorted(ws) for v, ws in adj.items()}


@dataclass(frozen=True)
class ReductionParams:
    """Auxiliary-vertex count and the three exact construction weights."""

    m: int
    L: int
    N: int
    M: int

    def validate_for(self, nv: int) -> None:
        if not (nv + 1 <= self.m <= 2 * nv):
            raise ValueError(f"need nv+1 <= m <= 2*nv, got m={self.m} for nv={nv}")
        if self.N != 2 * self.L or self.L <= 0:
            raise ValueError("need N = 2L with L > 0")
        if self.M <= (nv + self.m) * self.N:
            raise ValueError("need M > (nv + m) * N so no improving move adds a penalty edge")


def default_params(nv: int, m: int) -> ReductionParams:
    # Smallest weights satisfying the invariants; ties are exact, so any
    # valid choice yields the same 2-optimal set.
    return ReductionParams(m=m, L=1, N=2, M=(nv + m) * 2 + 1)


def build_reduction_instance(g: BaseGraph, params: ReductionParams) -> Instance:
    """Exact complete instance on nv+m vertices; auxiliaries take the top labels."""
    params.validate_for(g.nv)
    n = g.nv + params.m
    weights = tuple(
        (0 if (i, j) in g.edges else params.M) if j < g.nv
        else params.L if i < g.nv
        else params.N
        for i, j in all_pairs(n)
    )
    label = f"reduction(nv={g.nv},m={params.m},L={params.L},N={params.N},M={params.M})"
    return Instance(n=n, weights=weights, mode="exact", label=label)


def _contains_non_edge(order: tuple[int, ...], g: BaseGraph) -> bool:
    n = len(order)
    for k in range(n):
        u, v = order[k], order[(k + 1) % n]
        if u < g.nv and v < g.nv and (min(u, v), max(u, v)) not in g.edges:
            return True
    return False


def verify_no_nonedge_characterization(g: BaseGraph, params: ReductionParams) -> bool:
    """Exhaustively check: 2-optimal tours == tours avoiding penalty edges."""
    inst = build_reduction_instance(g, params)
    # Both sides come out in lexicographic order, so list equality is set equality.
    tours = enumerate_canonical_tours(inst.n, cap=ALL_TOURS_CAP)
    avoiding = [t for t in tours if not _contains_non_edge(t.order, g)]
    return list(two_optimal_tours(inst, cap=ALL_TOURS_CAP)) == avoiding


def cover_coefficient(size: int, m: int) -> int:
    """Per-cover tour count under the paper model: 2^(size-1) m! (m-1)! / (m-size)!."""
    if not (1 <= size <= m):
        raise ValueError(f"need 1 <= size <= m, got size={size}, m={m}")
    return 2 ** (size - 1) * math.factorial(m) * math.factorial(m - 1) // math.factorial(m - size)


def corrected_cover_coefficient(size: int, non_singleton: int, m: int) -> Fraction:
    """Per-cover tour count charging orientations only to non-singleton paths."""
    if not (0 <= non_singleton <= size):
        raise ValueError("need 0 <= non_singleton <= size")
    return Fraction(cover_coefficient(size, m), 2 ** (size - non_singleton))


def canonical_cover(paths) -> frozenset[tuple[int, ...]]:
    """Normalize a path cover: each path oriented small-end first."""
    out = []
    for path in paths:
        path = tuple(path)
        if len(path) > 1 and path[0] > path[-1]:
            path = path[::-1]
        out.append(path)
    return frozenset(out)


def tour_segments(order: tuple[int, ...], nv: int) -> frozenset[tuple[int, ...]]:
    """Maximal runs of base-graph vertices along the cyclic tour, as a cover."""
    n = len(order)
    # Start scanning right after an auxiliary vertex so no run wraps around.
    start = next(k for k, v in enumerate(order) if v >= nv)
    runs = []
    current: list[int] = []
    for step in range(1, n + 1):
        v = order[(start + step) % n]
        if v < nv:
            current.append(v)
        elif current:
            runs.append(tuple(current))
            current = []
    return canonical_cover(runs)


def cover_census(g: BaseGraph, params: ReductionParams) -> dict:
    """2-optimal tour counts keyed by the path cover each tour restricts to."""
    inst = build_reduction_instance(g, params)
    counts: dict[frozenset, int] = {}
    for tour in two_optimal_tours(inst, cap=ALL_TOURS_CAP):
        cover = tour_segments(tour.order, g.nv)
        counts[cover] = counts.get(cover, 0) + 1
    return counts


def tours_per_cover_empirical(g: BaseGraph, params: ReductionParams, cover) -> int:
    """Exact number of 2-optimal tours restricting to the given cover."""
    return cover_census(g, params).get(canonical_cover(cover), 0)


def _arms(v: int, allowed: frozenset[int], adj: dict[int, list[int]]):
    """Directed simple extensions from v inside ``allowed`` (v excluded)."""
    results = [()]
    stack = [((w,), frozenset((w,))) for w in adj[v] if w in allowed]
    while stack:
        prefix, used = stack.pop()
        results.append(prefix)
        for w in adj[prefix[-1]]:
            if w in allowed and w not in used and w != v:
                stack.append((prefix + (w,), used | {w}))
    return results


def _paths_through(v: int, allowed: frozenset[int], adj: dict[int, list[int]]):
    """Canonical simple paths containing v with all vertices in ``allowed``.

    Two disjoint arms make each longer path once per direction; only the
    direction that starts at the smaller end is kept.
    """
    arms = _arms(v, allowed, adj)
    paths = []
    for left, right in product(arms, arms):
        if set(left) & set(right):
            continue
        path = left[::-1] + (v,) + right
        if len(path) == 1 or path[0] < path[-1]:
            paths.append(path)
    return sorted(paths)


def enumerate_path_covers(g: BaseGraph):
    """Yield every path cover of g exactly once (paths in canonical form)."""
    if g.nv > COVER_CAP:
        raise CapExceededError(f"path-cover enumeration needs nv <= {COVER_CAP}, got {g.nv}")
    adj = g.neighbours()

    def rec(uncovered: frozenset[int]):
        if not uncovered:
            yield []
            return
        v = min(uncovered)
        for path in _paths_through(v, uncovered, adj):
            rest = uncovered.difference(path)
            for tail in rec(rest):
                yield [path] + tail

    for cover in rec(frozenset(range(g.nv))):
        yield canonical_cover(cover)


def count_path_covers_bruteforce(g: BaseGraph) -> list[int]:
    """a[l-1] = number of path covers of size l, by exhaustive enumeration."""
    counts = [0] * g.nv
    for cover in enumerate_path_covers(g):
        counts[len(cover) - 1] += 1
    return counts


def coefficient_matrix(nv: int) -> list[list[int]]:
    """C with C[l][m-index] = paper coefficient at cover size l, m = nv+1..2nv."""
    if nv < 1:
        raise ValueError("nv must be >= 1")
    return [
        [cover_coefficient(size, nv + col + 1) for col in range(nv)]
        for size in range(1, nv + 1)
    ]


def coefficient_matrix_determinant(nv: int) -> int:
    return determinant_exact(coefficient_matrix(nv))


@dataclass(frozen=True)
class RecoveryResult:
    model: str
    b: tuple[int, ...]
    a: tuple[Fraction, ...] | None  # None when the system is rank-deficient
    detail: str = ""

    @property
    def full_rank(self) -> bool:
        return self.a is not None

    @property
    def integral(self) -> bool:
        return self.a is not None and all(x.denominator == 1 for x in self.a)

    @property
    def nonnegative(self) -> bool:
        return self.a is not None and all(x >= 0 for x in self.a)

    def to_json_dict(self) -> dict:
        def fmt(x: Fraction):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return {
            "model": self.model,
            "b": list(self.b),
            "a": None if self.a is None else [fmt(x) for x in self.a],
            "full_rank": self.full_rank,
            "integral": self.integral,
            "nonnegative": self.nonnegative,
            "detail": self.detail,
        }


def _recover(model: str, b, nv: int, columns, coefficient) -> RecoveryResult:
    """Solve sum_col coefficient(*col, m) * a_col = b_m, m = nv+1..2nv, exactly.

    One equation per m and one unknown per column.  A system with more
    unknowns than equations, or with proportional columns, is reported as
    rank-deficient, never papered over.
    """
    if len(b) != nv:
        raise ValueError(f"need {nv} census values, got {len(b)}")
    b = tuple(int(x) for x in b)
    matrix = [[coefficient(*col, m) for col in columns] for m in range(nv + 1, 2 * nv + 1)]
    try:
        return RecoveryResult(model, b, tuple(solve_exact(matrix, list(b))))
    except ValueError:  # non-square, or SingularMatrixError: either way rank-deficient
        detail = f"{len(columns)} stratified unknowns vs {nv} measurements"
        return RecoveryResult(model, b, None, detail + "; system is rank-deficient")


def recover_path_cover_counts(b, nv: int) -> RecoveryResult:
    """Paper-model recovery: one unknown per cover size 1..nv."""
    return _recover("paper", b, nv, [(size,) for size in range(1, nv + 1)], cover_coefficient)


def feasible_size_profiles(nv: int) -> list[tuple[int, int]]:
    """(size, non-singleton count) pairs a cover of nv vertices can realize."""
    profiles = []
    for size in range(1, nv + 1):
        if size == nv:
            profiles.append((size, 0))
            continue
        # q paths with >= 2 vertices plus size-q singletons must fit in nv.
        for q in range(1, min(size, nv - size) + 1):
            profiles.append((size, q))
    return profiles


def recover_corrected_counts(b, nv: int) -> RecoveryResult:
    """Corrected-model recovery: one unknown per feasible (size, q) profile.

    Whenever some size admits several q values the profile columns are
    proportional and the system is rank-deficient.
    """
    return _recover(
        "corrected", b, nv, feasible_size_profiles(nv), corrected_cover_coefficient
    )


def census_vector(g: BaseGraph, cap: int = ENUMERATION_CAP) -> list[int]:
    """2-optimal tour counts of the reduction instances for m = nv+1 .. 2nv."""
    check_enumeration_cap(3 * g.nv, cap)  # the m = 2nv instance; refuse before any census
    b = []
    for m in range(g.nv + 1, 2 * g.nv + 1):
        inst = build_reduction_instance(g, default_params(g.nv, m))
        b.append(count_two_optimal_exact(inst, cap=cap))
    return b


def reduction_report(g: BaseGraph, cap: int = ENUMERATION_CAP) -> dict:
    """Brute-force cover counts plus both model recoveries, side by side."""
    b = census_vector(g, cap=cap)
    brute = count_path_covers_bruteforce(g)
    paper = recover_path_cover_counts(b, g.nv)
    corrected = recover_corrected_counts(b, g.nv)
    matches = corrected.a is not None and list(corrected.a) == brute
    return {
        "nv": g.nv,
        "edges": sorted(g.edges),
        "b": b,
        "brute_force_a": brute,
        "models": [paper.to_json_dict(), corrected.to_json_dict()],
        "corrected_matches_bruteforce": matches,
    }


def hamiltonian_path_count(g: BaseGraph) -> int:
    """Number of Hamiltonian paths = number of size-1 path covers.

    Read off the corrected recovery of the census vector, so it refuses what
    ``census_vector`` refuses (nv >= 4 under the default cap) and raises
    ``SingularMatrixError`` where the recovery is not full rank;
    ``count_path_covers_bruteforce(g)[0]`` is the brute-force value.
    """
    result = recover_corrected_counts(census_vector(g), g.nv)
    if result.a is None:
        raise SingularMatrixError(result.detail)
    return int(result.a[0])
