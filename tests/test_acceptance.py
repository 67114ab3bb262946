"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of failures) so a run doubles as a checklist.
"""

import math

import numpy as np
import pytest

import twooptlab as tl
from twooptlab.orthants import amemiya_residuals, equicorrelated_closed_forms
from twooptlab.polytopes import Polytope
from twooptlab.reduction import cover_census, default_params
from twooptlab.rng import substream


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_census_ground_truth():
    # n in {5, 6, 7}, 20 seeds each: exact census == transition-graph sinks,
    # and every sink passes the direct optimality scan.  Exact equality.
    ok = True
    for n in (5, 6, 7):
        for seed in range(20):
            inst = tl.random_instance(n, seed=seed)
            graph = tl.build_transition_graph(inst)
            sinks = graph.orders[graph.sinks()].tolist()
            if tl.count_two_optimal_exact(inst) != len(sinks):
                ok = False
            if not all(tl.is_two_optimal(inst, tl.Tour(tuple(order))) for order in sinks):
                ok = False
    report("census-ground-truth", ok)


def test_no_nonedge_characterization_exhaustive():
    # Optimality <=> no penalty edge, exhaustively, for every base graph and
    # every valid m keeping the instance within the enumeration cap.
    bases = {
        "K2": tl.BaseGraph.from_edges(2, [(0, 1)]),
        "P3": tl.BaseGraph.from_edges(3, [(0, 1), (1, 2)]),
        "K3": tl.BaseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        "P4": tl.BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    }
    checked = 0
    ok = True
    for name, g in bases.items():
        for m in range(g.nv + 1, 2 * g.nv + 1):
            if g.nv + m > 9:
                continue
            checked += 1
            if not tl.verify_no_nonedge_characterization(g, default_params(g.nv, m)):
                ok = False
    report("no-nonedge-characterization", ok and checked == 9, f"{checked} (graph, m) pairs")


def test_reduction_round_trip():
    # Nonzero exact determinant for nV <= 8 and exact recovery of 100 random
    # integer vectors per size.
    ok = True
    rng = substream(2028, "acceptance-roundtrip")
    for nv in range(1, 9):
        if tl.coefficient_matrix_determinant(nv) == 0:
            ok = False
        c = tl.coefficient_matrix(nv)
        for _ in range(100):
            a = [int(rng.integers(0, 1000)) for _ in range(nv)]
            b = [sum(c[row][col] * a[row] for row in range(nv)) for col in range(nv)]
            result = tl.recover_path_cover_counts(b, nv)
            if [int(x) for x in result.a] != a or not result.integral:
                ok = False
    report("reduction-round-trip", ok)


def test_reduction_end_to_end():
    p3 = tl.BaseGraph.from_edges(3, [(0, 1), (1, 2)])
    k3 = tl.BaseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    ok = True
    for g in (p3, k3):
        rep = tl.reduction_report(g)
        if not rep["corrected_matches_bruteforce"]:
            ok = False
        models = {m["model"]: m for m in rep["models"]}
        if models["corrected"]["a"] != rep["brute_force_a"]:
            ok = False
        # Per-cover counts match the paper coefficient on covers whose paths
        # all have >= 2 vertices (here: the Hamiltonian-path covers).
        for m in (4, 5, 6):
            census = cover_census(g, default_params(g.nv, m))
            for cover, observed in census.items():
                if all(len(path) >= 2 for path in cover):
                    if observed != tl.cover_coefficient(len(cover), m):
                        ok = False
    # Documented paper-model counterexample: the all-singleton cover of the
    # one-edge base graph at m=3 yields 6 tours, not the coefficient 24.
    k2 = tl.BaseGraph.from_edges(2, [(0, 1)])
    observed = tl.tours_per_cover_empirical(k2, default_params(2, 3), [(0,), (1,)])
    if observed != 6 or tl.cover_coefficient(2, 3) != 24:
        ok = False
    report("reduction-end-to-end", ok, "P3, K3 at m in {4,5,6}; counterexample 6 != 24")


def test_construction_full_verification():
    ok = True
    for n in (5, 9, 17, 33, 65):
        s = tl.build_chord_disjoint_set(n)
        spectrum = tl.participation_spectrum(s)
        if not tl.verify_chord_disjoint(s):
            ok = False
        if any(
            tl.participation_formula(n, p + 1) != s.k_by_edge[p] for p in range(n)
        ):
            ok = False
        if spectrum.values.count(0) != 2 or max(spectrum.values) != n - 3:
            ok = False
        if spectrum.product_positive != ((n - 1) // 2 - 1) * math.factorial(n - 3):
            ok = False
    report("construction", ok, "n in {5, 9, 17, 33, 65}")


def test_volume_vs_probability_and_figure_sweep():
    # Route one: mean exact census over 200 random n=6 instances, scaled by
    # the 60 canonical tours.  Route two: rejection volume at 10^7 samples.
    counts = np.array(
        [tl.count_two_optimal_exact(tl.random_instance(6, seed)) for seed in range(200)],
        dtype=float,
    )
    mean_frac = counts.mean() / 60.0
    se_frac = counts.std(ddof=1) / math.sqrt(len(counts)) / 60.0
    vol = tl.estimate_volume_rejection(tl.build_two_opt_polytope(6), 10_000_000, seed=123)
    gap = abs(mean_frac - vol.estimate)
    tol = 3 * math.hypot(se_frac, vol.stderr)
    report(
        "volume-vs-probability",
        gap <= tol,
        f"census {mean_frac:.5f} vs volume {vol.estimate:.5f}, 3sigma {tol:.5f}",
    )

    rows = tl.figure_sweep(range(5, 13), samples=4_000_000, seed=2029)
    print("figure sweep (n, estimate, stderr, log_ref_sqrt_factorial):")
    for row in rows:
        print(
            f"  {row['n']},{row['estimate']:.3e},{row['stderr']:.1e},"
            f"{row['log_ref_sqrt_factorial']:.3f}"
        )
    monotone = all(a["estimate"] > b["estimate"] for a, b in zip(rows, rows[1:]))
    report("figure-sweep-decay", monotone, "n = 5..12 recorded above")


def test_estimator_cross_validation():
    ok = True
    details = []
    for n in (5, 6, 7, 8):
        p = tl.build_two_opt_polytope(n)
        tele = tl.estimate_volume_telescoping(p, 1500, seed=300 + n)
        rej = tl.estimate_volume_rejection(p, 1_000_000, seed=400 + n)
        gap = abs(tele.estimate - rej.estimate)
        tol = 3 * math.hypot(tele.stderr, rej.stderr)
        details.append(f"n={n}: {gap:.2e}<={tol:.2e}")
        if tele.degenerate or gap > tol:
            ok = False
    for dim in (3, 4, 5, 6):
        simplex = Polytope(np.ones((1, dim)), np.ones(1))
        truth = 1.0 / math.factorial(dim)
        rej = tl.estimate_volume_rejection(simplex, 2_000_000, seed=500 + dim)
        tele = tl.estimate_volume_telescoping(simplex, 150_000, seed=600 + dim)
        if abs(rej.estimate - truth) > 3 * rej.stderr:
            ok = False
        if abs(tele.estimate - truth) > 3 * tele.stderr:
            ok = False
    report("estimator-cross-validation", ok, "; ".join(details))


def test_interaction_factor_slope():
    # Regression of the log interaction estimate on n over {17, 33, 65} at
    # 10^6 samples per point; slope within 20% of -ln(1.226).
    res = tl.interaction_slope([17, 33, 65], samples=1_000_000, seed=0)
    target = -math.log(1.226)
    ok = abs(res["slope"] - target) <= 0.2 * abs(target)
    report(
        "interaction-slope",
        ok,
        f"slope {res['slope']:.4f} vs target {target:.4f}",
    )


def test_orthant_suite():
    ok = True
    details = []

    # Identity covariance: orthant probability 2^-d within 3 sigma, d <= 6.
    for d in range(2, 7):
        est = tl.orthant_prob_mc(tl.identity_spec(d), 400_000, seed=700 + d)
        if abs(est.estimate - 2.0**-d) > 3 * est.stderr:
            ok = False

    # Bivariate equicorrelated closed form.
    est2 = tl.orthant_prob_mc(tl.equicorrelated_spec(2), 400_000, seed=710)
    truth2 = 0.25 + math.asin(-0.25) / (2 * math.pi)
    if abs(est2.estimate - truth2) > 3 * est2.stderr:
        ok = False
    details.append(f"d=2 mc {est2.estimate:.5f} vs {truth2:.5f}")

    # Amemiya identity for the equicorrelated family.
    for d in (2, 3, 4):
        spec = tl.equicorrelated_spec(d)
        moments = tl.truncated_moments_mc(spec, 40_000, seed=720 + d)
        residuals = amemiya_residuals(spec, moments)
        tol = 3 * (np.abs(spec.precision) * moments.stderr).sum(axis=1)
        if not np.all(np.abs(residuals) <= tol):
            ok = False

    # Conditioned-moment bound dominates MC truth on every tested spec.
    for spec, seed in [(tl.identity_spec(d), 730 + d) for d in (2, 4, 6)] + [
        (tl.equicorrelated_spec(d), 740 + d) for d in (2, 3, 4, 6)
    ]:
        moments = tl.truncated_moments_mc(spec, 30_000, seed=seed)
        bound = tl.orthant_moment_bound(spec, moments.diagonal())
        mc = tl.orthant_prob_mc(spec, 300_000, seed=seed + 50)
        if math.exp(bound) < mc.estimate - 3 * mc.stderr:
            ok = False

    # Closed-form determinant and covariance entries vs dense computation.
    for d in range(2, 51):
        spec = tl.equicorrelated_spec(d)
        forms = equicorrelated_closed_forms(d)
        if abs(np.linalg.det(spec.precision) - forms["det_precision"]) > 1e-10 * forms["det_precision"]:
            ok = False
        if abs(spec.covariance[0, 0] - forms["sigma_diag"]) > 1e-10 * forms["sigma_diag"]:
            ok = False
        if abs(spec.covariance[0, 1] - forms["sigma_off"]) > 1e-10 * abs(forms["sigma_off"]):
            ok = False

    # Reduced-bound slope across d = 8..64.
    xs = np.array([8.0, 16.0, 32.0, 64.0])
    ys = np.array([tl.reduced_orthant_bound(int(d)) for d in xs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    target = -(math.log(2.0) + 2.0 / (9.0 * math.pi))
    if abs(slope - target) > 0.1 * abs(target):
        ok = False
    details.append(f"reduced slope {slope:.4f} vs {target:.4f}")

    report("orthant-suite", ok, "; ".join(details))


def test_bound_chain():
    # The empirical chain bound must sit above the measured log probability
    # that the fixed tour is 2-optimal at n = 9.
    rep = tl.counting_bounds(9, samples=400_000, seed=2)
    measured = tl.estimate_volume_rejection(tl.build_two_opt_polytope(9), 2_000_000, seed=77)
    ok = rep.log_chain_bound >= math.log(measured.estimate)
    constant_ok = round(tl.BOUND_CONSTANT, 5) == 1.20976 and tl.BOUND_CONSTANT < 1.2098
    report(
        "bound-chain",
        ok and constant_ok,
        f"chain {rep.log_chain_bound:.3f} >= ln p {math.log(measured.estimate):.3f}; "
        f"c = {tl.BOUND_CONSTANT:.5f}",
    )
