"""twooptlab benchmark: one workload, timed end to end, checked against oracles.

    python3 perfbench/run.py --workload census --seed 1 --seconds 50 --trace 0

Workloads: census, estimators (see README.md).  Run
from the root of a checkout; the program is imported from ``src/``.  Each
run starts one process that measures, with SETUP_PROBES set-up-only
processes before it and as many after it, all fresh.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The last stdout line is
the JSON result; a per-run record (environment, checks, artifact digests)
goes to ``.perfbench/``.  ``--smoke`` runs tiny sizes for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "estimators")
# Set-up-only processes on each side of the measuring one; spreading them over
# the run keeps one slow phase of the machine from setting setup_s.
SETUP_PROBES = 2
# Time allowed beyond --seconds for the set-up probes, the checks and the re-runs.
DEADLINE_MARGIN_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def start_child(args, extra: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON summary; raise on failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + extra + ["--t0", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process overran the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    try:
        setups = [start_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = start_child(args, [], deadline)
        setups += [start_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    m = result["metrics"]
    setups.append(m["setup_s"])
    m["setup_s"] = statistics.median(setups)
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in m["layers"].items()}
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = dict(result, setup_samples=setups, trace=args.trace)
    out_dir = ROOT / ".perfbench"
    record_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    env = result["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"nproc {env['nproc']}, numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']['name']}, "
          f"threads {env['thread_env'] or 'unset'}, commit {env['git_commit']}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'check_fail_ratio':36s} {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for name in result["failed_checks"]:
        print(f"  FAILED {name}")
    for error in result["errors"][:1]:
        print("  first failing call said:\n" + error[-2000:])
    print(f"  round-0 artifact digest {result['round0_digest']}; record in {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
