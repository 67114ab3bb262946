"""Regenerate ``reference.json``, the pinned values the benchmark checks against.

    python3 perfbench/make_reference.py    # about 15 min on 2 cores

Every entry records how it was made.  The probability and interaction
references come from numpy code in this directory that re-derives the
quantity from its definition; only the telescoping spread is taken from the
program's own estimator, because it describes that estimator's noise.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

CHUNK = 200_000


def fixed_tour_probability(n: int, samples: int, seed: int) -> dict:
    """P(tour 0..n-1 is 2-optimal) under i.i.d. uniform weights, by plain sampling."""
    rng = np.random.default_rng([seed, n])
    pairs = n * (n - 1) // 2
    hits = 0
    done = 0
    while done < samples:
        m = min(CHUNK, samples - done)
        hits += int(oracles.reference_tour_two_optimal(rng.random((m, pairs)), n).sum())
        done += m
    p = hits / samples
    return {"p": p, "se": math.sqrt(p * (1 - p) / samples), "hits": hits, "samples": samples,
            "seed": [seed, n], "method": "oracles.reference_tour_two_optimal on uniform draws"}


def chord_moves(n: int) -> list[tuple[int, int]]:
    """0-based tour positions of the staged chord-disjoint construction, from its definition."""
    k = (n - 1).bit_length() - 1
    moves = []
    for t in range(1, k):
        seg = (n - 1) // 2**t
        for i in range(1, 2**t, 2):
            for r in range((i - 1) * seg + 1, i * seg + 1):
                for b in range(i * seg + 1, (i + 1) * seg + 1):
                    if b % 2 == 0:
                        moves.append((r - 1, b - 1))
    return moves


def interaction_factor(n: int, samples: int, seed: int) -> dict:
    """E exp(-sum_moves x_e x_f / sqrt(k_e k_f)) over i.i.d. unit half-normals."""
    moves = chord_moves(n)
    k = np.zeros(n)
    for e, f in moves:
        k[e] += 1
        k[f] += 1
    e_idx = np.array([e for e, _ in moves])
    f_idx = np.array([f for _, f in moves])
    coupling = 1.0 / np.sqrt(k[e_idx] * k[f_idx])
    rng = np.random.default_rng([seed, n])
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(CHUNK // 4, samples - done)
        x = np.abs(rng.standard_normal((m, n)))
        vals = np.exp(-(x[:, e_idx] * x[:, f_idx]) @ coupling)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = total_sq / samples - mean * mean
    return {"g": mean, "se": math.sqrt(var / samples), "samples": samples, "seed": [seed, n],
            "method": "numpy half-normal sampling over the construction re-derived from its definition"}


def telescoping_spread(n: int, samples_per_phase: int, seeds: range) -> dict:
    """Spread of log(estimate) of the program's telescoping estimator over seeds."""
    workloads.import_program()
    from twooptlab.polytopes import build_two_opt_polytope, estimate_volume_telescoping

    p = build_two_opt_polytope(n)
    logs = [math.log(estimate_volume_telescoping(p, samples_per_phase, s).estimate) for s in seeds]
    mean = float(np.mean(logs))
    return {"n": n, "samples_per_phase": samples_per_phase, "runs": len(logs),
            "seeds": [seeds.start, seeds.stop], "mean_log": mean,
            "sd_log": float(np.std(logs, ddof=1)),
            "method": "twooptlab estimate_volume_telescoping, one chain per seed"}


def dense_counts() -> dict:
    """2-optimal counts of the reduction instances the census workload's dense part uses."""
    wanted = {(graph, m) for sizes in workloads.SIZES.values() for graph, m in sizes["dense_census"]}
    for sizes in workloads.SIZES.values():
        for graph in sizes["reduce"]:
            nv = workloads.BASE_GRAPHS[graph][0]
            wanted |= {(graph, m) for m in range(nv + 1, 2 * nv + 1)}
    out = {}
    for graph, m in sorted(wanted):
        nv, edges = workloads.BASE_GRAPHS[graph]
        inst = workloads.reduction_instance(nv, edges, m, L=1, extra=0)
        out[f"{graph}/m={m}"] = oracles.count_two_optimal(oracles.weight_matrix(inst))
    return out


def main() -> int:
    start = time.time()
    ref: dict = {"generated_by": "perfbench/make_reference.py"}
    ref["fixed_tour_probability"] = {
        str(n): fixed_tour_probability(n, budget, seed=20_000)
        for n, budget in [(4, 20_000_000), (5, 20_000_000), (6, 50_000_000), (7, 20_000_000),
                          (8, 20_000_000), (9, 20_000_000), (10, 50_000_000),
                          (11, 100_000_000), (12, 200_000_000)]
    }
    print(f"probabilities done at {time.time() - start:.0f}s", flush=True)
    ref["interaction_factor"] = {
        str(n): interaction_factor(n, 20_000_000, seed=30_000) for n in (9, 17, 33, 65)
    }
    ref["dense_counts"] = dense_counts()
    print(f"counts done at {time.time() - start:.0f}s", flush=True)
    ref["telescoping"] = telescoping_spread(6, 100, range(40_000, 40_240))
    print(f"telescoping done at {time.time() - start:.0f}s", flush=True)
    oracles.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
