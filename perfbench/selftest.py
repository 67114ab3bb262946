"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes about a minute.  Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import child  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def test_metric_names_match_benchmark_json():
    spec = bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS


def test_smoke_runs_every_workload_traced_and_untraced():
    spec = bench_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            assert set(result["metrics"]) == names, workload
            for metric in result["metrics"].values():
                assert math.isfinite(metric["value"])


def corrupted_failures(workload: str, module: str, name: str, corrupt) -> int:
    """Run a smoke workload in-process with ``module.name``'s result passed through ``corrupt``."""
    workloads.import_program()
    original = getattr(sys.modules[module], name)

    def corrupted(*args, **kwargs):
        return corrupt(original(*args, **kwargs))

    patched = tracing.replace_everywhere(module, name, corrupted)
    try:
        result = child.run_workload(workload, seed=5, seconds=0.5, trace=False,
                                    t0=time.monotonic(), smoke=True)
    finally:
        tracing.restore(patched)
    return result["failed"]


def test_corrupted_census_trips_the_checks():
    assert corrupted_failures("census", "twooptlab.census", "count_two_optimal_exact",
                              lambda count: count + 1) > 0
    # And the unpatched program passes again in the same process.
    result = child.run_workload("census", seed=5, seconds=0.5, trace=False,
                                t0=time.monotonic(), smoke=True)
    assert result["failed"] == 0


def test_biased_telescoping_trips_the_checks():
    assert corrupted_failures("estimators", "twooptlab.polytopes", "estimate_volume_telescoping",
                              lambda est: dataclasses.replace(est, estimate=10 * est.estimate)) > 0


def test_spread_check_catches_a_noisier_chain():
    rng = np.random.default_rng(1)
    sd = 0.3
    assert oracles.spread_ok(list(rng.normal(0.0, sd, 40)), sd)
    assert not oracles.spread_ok(list(rng.normal(0.0, 3 * sd, 40)), sd)


def test_same_seed_gives_same_artifacts():
    digests = [child.run_workload("estimators", seed=9, seconds=0.1, trace=False, t0=time.monotonic(),
                                  smoke=True)["round0_digest"] for _ in range(2)]
    assert digests[0] == digests[1]


def test_numpy_census_matches_pure_python():
    rng = np.random.default_rng(0)
    for n in (5, 6, 7):
        inst = workloads.float_instance(n, rng)
        w = oracles.weight_matrix(inst)
        count = 0
        for rest in itertools.permutations(range(1, n)):
            if rest[0] < rest[-1]:
                o = (0,) + rest
                count += all(w[o[i]][o[i1]] + w[o[j]][o[j1]] - w[o[i]][o[j]] - w[o[i1]][o[j1]] <= 0
                             for i, i1, j, j1 in oracles.move_positions(n))
        assert oracles.count_two_optimal(w) == count, n


def test_fails_without_the_program():
    tmp = Path(tempfile.mkdtemp(dir=child.OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "census", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(tmp)


def main() -> int:
    child.OUT_DIR.mkdir(exist_ok=True)
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            start = time.perf_counter()
            try:
                test()
                status = "ok"
            except AssertionError as exc:
                failed += 1
                status = f"FAILED {exc}"
            print(f"{name}: {status} ({time.perf_counter() - start:.1f}s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
