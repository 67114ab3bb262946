"""Oracles for the tests that share no code with the package."""

import numpy as np


def held_karp(w) -> float | int:
    """Length of a shortest tour on the symmetric (n, n) weight matrix ``w``, n >= 3.

    Held & Karp's dynamic programme (J. SIAM 10(1), 1962): ``best[s, j]`` is the
    shortest path from vertex 0 through the set s of vertices 1..n-1 (bit j-1
    for vertex j) that ends at vertex j, extended one (set size, last vertex)
    at a time.  Sums stay in ``w``'s dtype, so integer weights give the exact
    optimum.
    """
    w = np.asarray(w)
    m = len(w) - 1
    unreached = w.sum() + 1  # longer than any path
    best = np.full((1 << m, m), unreached, dtype=w.dtype)
    best[1 << np.arange(m), np.arange(m)] = w[0, 1:]
    sets = np.arange(1 << m)
    sizes = np.array([bin(s).count("1") for s in range(1 << m)])
    for size in range(2, m + 1):
        for j in range(m):
            s = sets[(sizes == size) & (sets >> j & 1 == 1)]
            best[s, j] = (best[s ^ (1 << j)] + w[1:, j + 1]).min(axis=1)
    return (best[-1] + w[1:, 0]).min()
