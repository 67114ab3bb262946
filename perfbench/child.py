"""One workload run in a fresh process; ``run.py`` starts it.

    python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1 --t0 MONOTONIC
                               [--setup-only] [--smoke]

Set-up (importing ``twooptlab.cli`` and writing every input) is timed from
``--t0``, the parent's CLOCK_MONOTONIC reading just before it started this
process.  Then rounds run until ``--seconds`` is used up; untraced rounds run
with no wrappers, and the pace probe is timed after every round.  With
``--trace 1`` untraced and traced rounds alternate.
Checks, reproducibility re-runs and artifact digests come after the timed
section, so they add to neither wall time nor peak memory.  The last stdout
line is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = workloads.ROOT / ".perfbench"


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def git_commit() -> str | None:
    head = workloads.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = workloads.ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = workloads.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": git_commit(),
    }


def artifact_bytes(steps) -> int:
    return sum(s.outcome.artifact.stat().st_size for s in steps
               if s.outcome is not None and s.outcome.artifact is not None and s.outcome.artifact.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The pace probe: a fixed pure-Python loop of the census kind (list indexing,
# float sums, comparisons), owned by the benchmark so that no change to the
# program can move it.  The machine's speed drifts by a quarter and more over
# minutes, alike for the program and the probe, so each call's time is divided
# by the probe's time right after its round.  PROBE_REFERENCE_S, about the
# probe's fastest time on the development machine (a 2-vCPU Xeon VM), turns
# the ratios back into seconds.
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.004
_probe_rng = random.Random(20241018)
_PROBE_W = [[_probe_rng.random() for _ in range(12)] for _ in range(12)]
_PROBE_TOURS = [_probe_rng.sample(range(12), 12) for _ in range(384)]


def _probe_kernel() -> int:
    w = _PROBE_W
    improving = 0
    for o in _PROBE_TOURS:
        for i in range(10):
            for j in range(i + 2, 12):
                a, b, c, d = o[i], o[i + 1], o[j], o[(j + 1) % 12]
                if w[a][b] + w[c][d] - w[a][c] - w[b][d] > 0.0:
                    improving += 1
    return improving


def probe_seconds() -> float:
    """Fastest of PROBE_REPEATS timings of the pace probe."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def run_rounds(plan, cli, workdir: Path, seconds: float, trace: bool):
    """Closed loop of rounds.  Returns per-round records and the tracer, if any."""
    tracer = tracing.Tracer() if trace else None
    records = []
    start = time.perf_counter()
    while True:
        r = len(records)
        traced = trace and r % 2 == 1
        steps = plan.round(r)
        if traced:
            tracer.begin_round()
            tracer.install()
        walls, cpus = [], []
        for step in steps:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            step.run(cli, workdir)
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - cpu0)
        wall = sum(walls)
        record = {"round": r, "traced": traced, "wall_s": wall, "cpu_s": sum(cpus),
                  "step_s": {s.label: w for s, w in zip(steps, walls)},
                  "step_cpu_s": {s.label: c for s, c in zip(steps, cpus)}}
        record["probe_s"] = probe_seconds()
        if traced:
            tracer.uninstall()
            record["layers"] = tracing.round_layer_metrics(
                tracer.counters, wall, tracer.cli_self_seconds(), artifact_bytes(steps))
        records.append(record)
        elapsed = time.perf_counter() - start
        need = 2 if trace else 1
        # Stop before a round that would overrun the budget.
        if len(records) >= need and elapsed + wall > seconds:
            return records, tracer


def paced_round(records: list[dict], key: str) -> float:
    """A round's time at the reference pace.

    Every round makes the same calls with the same work, so call k of every
    round is a sample of one quantity.  Each sample is divided by the probe
    time after its round, which removes the slow phases of the machine; the
    lower quartile over rounds then drops the short bursts that slow single
    calls.  Summed over the round's calls, times PROBE_REFERENCE_S.
    """
    ratios: dict[str, list[float]] = {}
    for record in records:
        for label, seconds in record[key].items():
            position = label.split("-", 1)[1]  # drop the round prefix "rNN-"
            ratios.setdefault(position, []).append(seconds / record["probe_s"])
    return PROBE_REFERENCE_S * sum(lower_quartile(v) for v in ratios.values())


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_workload(name: str, seed: int, seconds: float, trace: bool, t0: float,
                 smoke: bool = False, setup_only: bool = False) -> dict:
    cli = workloads.import_program()
    seed %= 1 << 64  # seed sequences take non-negative integers
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    cwd = os.getcwd()
    try:
        plan = workloads.PLANS[name](seed, workloads.SIZES["smoke" if smoke else "full"], workdir)
        # Relative paths keep manifests, and so artifact bytes, independent of the directory.
        os.chdir(workdir)
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"setup_s": setup_s}

        records, tracer = run_rounds(plan, cli, workdir, seconds, trace)
        rss = peak_rss_mb()

        check_start = time.perf_counter()
        done = [plan.round(r) for r in range(min(len(records), workloads.MAX_ROUNDS))]
        checks = [c for steps in done for step in steps for c in step.results()]
        for label, extra in (("run checks", lambda: plan.run_checks(plan, done)),
                             ("repro", lambda: plan.repro(plan, cli, workdir))):
            try:
                checks += extra()
            except Exception:  # a crash while checking is a failed check
                checks.append((f"{label}:crashed", False))
        oracle_s = time.perf_counter() - check_start

        digests = {p.name: sha256(p) for p in sorted(workdir.iterdir()) if p.suffix in (".out", ".again", ".w1")}
        first = sorted(s.artifact for s in done[0] if s.artifact)
        round0 = hashlib.sha256("".join(digests[a] for a in first).encode()).hexdigest()
        failed = [n for n, ok in checks if not ok]
        errors = [s.outcome.error or s.outcome.stdout for steps in done for s in steps
                  if s.outcome and s.outcome.code != 0]

        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        metrics = {
            "wall_s": paced_round(untraced, "step_s"),
            "cpu_s": paced_round(untraced, "step_cpu_s"),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        if trace:
            layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
            layers["bench.trace_overhead_s"] = paced_round(traced, "step_s") - metrics["wall_s"]
            layers["bench.oracle_s"] = oracle_s
            metrics["layers"] = layers
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
        return {
            "workload": name,
            "seed": seed,
            "smoke": smoke,
            "rounds": records,
            "metrics": metrics,
            "attempted": len(checks),
            "failed": len(failed),
            "failed_checks": failed[:50],
            "errors": errors[:5],
            "round0_digest": round0,
            "artifacts": digests,
            "oracle_s": oracle_s,
            "environment": environment(),
        }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.t0,
                          smoke=args.smoke, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
