"""Command-line front end: every experiment is reproducible from its manifest.

Each artifact embeds a manifest (command, parameters, seed, worker count,
version); re-running the same manifest reproduces the artifact byte for
byte.  Input files (``--instance``, ``--graph``) are read once and named by
the sha256 of the bytes read, not by their path, so the same input anywhere
writes the same artifact.  Wall time is reported on stderr so it never
perturbs artifact bytes.
Exit code 0 means every verification passed; refusals, bad input and failed
verifications exit 1 with a machine-readable diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bounds import counting_bounds, estimate_interaction_factor, figure_sweep, interaction_slope
from .census import build_transition_graph, count_two_optimal_exact, transition_stats
from .chords import (
    build_chord_disjoint_set,
    log_product_bound,
    participation_formula,
    participation_spectrum,
    verify_chord_disjoint,
)
from .core import (
    ENUMERATION_CAP,
    ENUMERATION_HARD_CAP,
    Instance,
    constant_instance,
    random_instance,
)
from .errors import CapExceededError
from .orthants import (
    equicorrelated_spec,
    identity_spec,
    orthant_moment_bound,
    orthant_prob_mc,
    reduced_orthant_bound,
    truncated_moments_mc,
)
from .polytopes import (
    build_two_opt_polytope,
    estimate_volume_rejection,
    estimate_volume_telescoping,
)
from .reduction import BaseGraph, reduction_report


def _manifest(args: argparse.Namespace) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "out", "arcs_csv", "spectrum_csv") and v is not None
    }
    return {
        "command": args.command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "workers": getattr(args, "workers", 1),
        "version": __version__,
    }


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(args: argparse.Namespace, header: list[str], rows: list[list]) -> str:
    lines = ["# manifest: " + json.dumps(_manifest(args), sort_keys=True), ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _read_input(args: argparse.Namespace, key: str) -> str:
    """Text of the input file named by ``args.<key>``, read once.

    The path in ``args`` becomes the sha256 of the bytes read, which the
    manifest records; the bytes decode as ``Path.read_text`` decodes them.
    """
    data = Path(getattr(args, key)).read_bytes()
    setattr(args, key, "sha256:" + hashlib.sha256(data).hexdigest())
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _load_instance(args: argparse.Namespace) -> Instance:
    if args.instance is not None:
        if args.n is not None or args.equal_weights:
            raise ValueError("--instance takes neither --n nor --equal-weights")
        data = json.loads(_read_input(args, "instance"))
        if isinstance(data, dict) and "instance" in data:
            data = data["instance"]  # a `gen` artifact nests it next to the manifest
        return Instance.from_json_dict(data)
    if args.n is None:
        raise ValueError("need --n or --instance")
    if args.equal_weights:
        return constant_instance(args.n, value=1)
    return random_instance(args.n, args.seed)


def _census_cap(args: argparse.Namespace) -> int:
    return ENUMERATION_HARD_CAP if args.i_know_this_is_huge else ENUMERATION_CAP


def _samples(args: argparse.Namespace, default: int) -> int:
    return default if args.samples is None else args.samples


# Each command maps its arguments to (payload, failure): the artifact's fields
# next to the manifest (None when it writes no JSON artifact), and the reason a
# verification failed (None when every verification passed).


def cmd_gen(args):
    return {"instance": random_instance(args.n, args.seed).to_json_dict()}, None


def cmd_census(args):
    inst = _load_instance(args)
    count = count_two_optimal_exact(inst, cap=_census_cap(args))
    print(count)
    return ({"n": inst.n, "count": count} if args.out else None), None


def cmd_tgraph(args):
    graph = build_transition_graph(_load_instance(args))
    stats = transition_stats(graph, walks=args.walks, seed=args.seed)
    if args.arcs_csv:
        _write(_csv(args, ["from", "to"], graph.arcs.tolist()), args.arcs_csv)
    return stats.to_json_dict(), None


def cmd_reduce(args):
    graph = BaseGraph.from_edge_list_text(_read_input(args, "graph"))
    report = reduction_report(graph, cap=_census_cap(args))
    agrees = report["corrected_matches_bruteforce"]
    return report, None if agrees else "corrected-model recovery disagrees with brute force"


def cmd_construct_s(args):
    s = build_chord_disjoint_set(args.n)
    spectrum = participation_spectrum(s)
    disjoint = verify_chord_disjoint(s)
    formula_ok = all(
        participation_formula(args.n, p + 1) == s.k_by_edge[p] for p in range(args.n)
    )
    if args.spectrum_csv:
        rows = [[p + 1, k] for p, k in enumerate(s.k_by_edge)]
        _write(_csv(args, ["edge_position", "participation_count"], rows), args.spectrum_csv)
    payload = {
        **s.to_json_dict(),
        "move_count": len(s.moves),
        "spectrum": list(spectrum.values),
        "product_positive": spectrum.product_positive,
        "log_product_bound": log_product_bound(s),
        "chord_disjoint": disjoint,
        "formula_matches": formula_ok,
    }
    return payload, None if disjoint and formula_ok else "construction verification failed"


def cmd_estimate_vol(args):
    if args.method == "rejection" and args.samples_per_phase is not None:
        raise ValueError("--samples-per-phase is read only by --method telescoping")
    if args.method == "telescoping" and args.samples is not None:
        raise ValueError("--samples is read only by --method rejection")
    p = build_two_opt_polytope(args.n)
    if args.method == "rejection":
        est = estimate_volume_rejection(p, _samples(args, 1_000_000), args.seed, workers=args.workers)
    else:
        if args.samples_per_phase is None:
            args.samples_per_phase = 2000  # the manifest records the default budget
        est = estimate_volume_telescoping(p, args.samples_per_phase, args.seed)
    failure = "a telescoping phase accepted no samples" if est.degenerate else None
    return {"n": args.n, **asdict(est)}, failure


def cmd_estimate_g(args):
    est = estimate_interaction_factor(
        build_chord_disjoint_set(args.n), _samples(args, 1_000_000), args.seed, workers=args.workers
    )
    log_estimate = math.log(est.estimate) if est.estimate > 0 else None
    return {"n": args.n, **asdict(est), "log_estimate": log_estimate}, None


def cmd_bounds(args):
    report = counting_bounds(args.n, samples=_samples(args, 200_000), seed=args.seed, workers=args.workers)
    return asdict(report), None


def cmd_slope(args):
    return interaction_slope(args.ns, _samples(args, 1_000_000), args.seed, workers=args.workers), None


def cmd_orthant(args):
    spec = equicorrelated_spec(args.d) if args.equicorrelated else identity_spec(args.d)
    mc = orthant_prob_mc(spec, _samples(args, 200_000), args.seed, workers=args.workers)
    moments = truncated_moments_mc(spec, args.moment_samples, args.seed)
    bound = orthant_moment_bound(spec, moments.diagonal())
    payload = {
        "d": args.d,
        "mc": asdict(mc),
        "moment_sampler": moments.sampler,
        "log_moment_bound": bound,
        "log_reduced_bound": reduced_orthant_bound(args.d) if args.equicorrelated else None,
    }
    bound_holds = mc.estimate <= math.exp(bound) + 3.0 * mc.stderr
    return payload, None if bound_holds else "moment bound fell below MC estimate"


FIGURE_COLUMNS = ["n", "estimate", "stderr", "log_bound_a", "log_bound_b", "log_ref_sqrt_factorial"]


def cmd_figure(args):
    rows = figure_sweep(
        range(args.n_min, args.n_max + 1), _samples(args, 1_000_000), args.seed,
        workers=args.workers,
    )
    _write(_csv(args, FIGURE_COLUMNS, [[row[k] for k in FIGURE_COLUMNS] for row in rows]), args.out)
    return None, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``twooptlab`` parser, built once per process; parsing never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1,
                        help="Monte Carlo substreams the sample budget is split over; results"
                             " depend only on --seed and --workers, and the shares run on up to"
                             " one thread per usable CPU; orthant's truncated moments read one"
                             " stream whatever --workers is")
    common.add_argument("--out", type=str, default=None)
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--samples", type=int, default=None,
                         help="sample budget; per-command default when omitted")
    huge = argparse.ArgumentParser(add_help=False)
    huge.add_argument("--i-know-this-is-huge", action="store_true",
                      help=f"raise the census cap to the hard ceiling of {ENUMERATION_HARD_CAP}")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=int)
    instance.add_argument("--equal-weights", action="store_true")
    instance.add_argument("--instance", type=str, default=None)

    parser = argparse.ArgumentParser(prog="twooptlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="random instance -> JSON")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("census", parents=[common, huge, instance], help="exact 2-optimal tour count")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("tgraph", parents=[common, instance], help="transition-graph statistics")
    p.add_argument("--walks", type=int, default=1000)
    p.add_argument("--arcs-csv", type=str, default=None)
    p.set_defaults(func=cmd_tgraph)

    p = sub.add_parser("reduce", parents=[common, huge], help="edge list -> path-cover report")
    p.add_argument("--graph", type=str, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct-s", parents=[common], help="chord-disjoint move set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum-csv", type=str, default=None)
    p.set_defaults(func=cmd_construct_s)

    p = sub.add_parser("estimate-vol", parents=[common, sampled], help="2-opt polytope volume")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["rejection", "telescoping"], default="rejection")
    p.add_argument("--samples-per-phase", type=int, default=None,
                   help="telescoping budget per phase; 2000 when omitted")
    p.set_defaults(func=cmd_estimate_vol)

    p = sub.add_parser("estimate-g", parents=[common, sampled], help="interaction factor estimate")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_estimate_g)

    p = sub.add_parser("bounds", parents=[common, sampled], help="counting bound table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("slope", parents=[common, sampled], help="interaction-factor decay rate")
    p.add_argument("--ns", type=int, nargs="+", default=(17, 33, 65))
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("orthant", parents=[common, sampled], help="orthant probability suite")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--equicorrelated", action="store_true")
    p.add_argument("--moment-samples", type=int, default=20_000)
    p.set_defaults(func=cmd_orthant)

    p = sub.add_parser("figure", parents=[common, sampled], help="volume decay sweep CSV")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=12)
    p.set_defaults(func=cmd_figure)

    return parser


def _diagnose(status: str, reason: str) -> int:
    _write(_json({"status": status, "reason": reason}), None)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.workers < 1:  # every subcommand records it in the manifest
            raise ValueError("--workers must be >= 1")
        payload, failure = args.func(args)
        if payload is not None:
            _write(_json({"manifest": _manifest(args), **payload}), args.out)
    except CapExceededError as exc:
        return _diagnose("refused", str(exc))
    except (ValueError, OSError) as exc:
        return _diagnose("error", str(exc))
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return 0 if failure is None else _diagnose("failed", failure)


if __name__ == "__main__":
    sys.exit(main())
