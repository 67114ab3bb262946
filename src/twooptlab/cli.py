"""Command-line front end: every experiment is reproducible from its manifest.

Each artifact embeds a manifest (command, parameters, seed, worker count,
version); re-running the same manifest reproduces the artifact byte for
byte.  Wall time is reported on stderr so it never perturbs artifact bytes.
Exit code 0 means every requested verification passed; failures exit 1 with
a machine-readable diagnostic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
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


def _manifest(command: str, args: argparse.Namespace) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "command") and v is not None
    }
    return {
        "command": command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "workers": getattr(args, "workers", 1),
        "version": __version__,
    }


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(manifest: dict, header: list[str], rows: list[list], out: str | None) -> None:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_instance(args: argparse.Namespace) -> Instance:
    if getattr(args, "instance", None):
        data = json.loads(Path(args.instance).read_text())
        if isinstance(data, dict) and "instance" in data:
            data = data["instance"]  # a `gen` artifact nests it next to the manifest
        return Instance.from_json_dict(data)
    if args.n is None:
        raise ValueError("need --n or --instance")
    if getattr(args, "equal_weights", False):
        return constant_instance(args.n, value=1)
    return random_instance(args.n, args.seed)


def _census_cap(args: argparse.Namespace) -> int:
    return ENUMERATION_HARD_CAP if args.i_know_this_is_huge else ENUMERATION_CAP


def _samples(args: argparse.Namespace, default: int) -> int:
    return default if args.samples is None else args.samples


def cmd_gen(args) -> int:
    inst = random_instance(args.n, args.seed)
    _emit_json({"manifest": _manifest("gen", args), "instance": inst.to_json_dict()}, args.out)
    return 0


def cmd_census(args) -> int:
    inst = _load_instance(args)
    count = count_two_optimal_exact(inst, cap=_census_cap(args))
    print(count)
    if args.out:
        _emit_json(
            {"manifest": _manifest("census", args), "n": inst.n, "count": count}, args.out
        )
    return 0


def cmd_tgraph(args) -> int:
    inst = _load_instance(args)
    graph = build_transition_graph(inst)
    stats = transition_stats(graph, walks=args.walks, seed=args.seed)
    payload = {"manifest": _manifest("tgraph", args), **stats.to_json_dict()}
    _emit_json(payload, args.out)
    if args.arcs_csv:
        _emit_csv(
            _manifest("tgraph", args),
            ["from", "to"],
            [[u, v] for u, v in graph.arcs],
            args.arcs_csv,
        )
    return 0


def cmd_reduce(args) -> int:
    graph = BaseGraph.from_edge_list_text(Path(args.graph).read_text())
    report = reduction_report(graph, cap=_census_cap(args))
    payload = {"manifest": _manifest("reduce", args), **report}
    _emit_json(payload, args.out)
    if args.verify and not report["corrected_matches_bruteforce"]:
        _emit_json(
            {
                "status": "failed",
                "reason": "corrected-model recovery disagrees with brute force",
            },
            None,
        )
        return 1
    return 0


def cmd_construct_s(args) -> int:
    s = build_chord_disjoint_set(args.n)
    spectrum = participation_spectrum(s)
    disjoint = verify_chord_disjoint(s)
    formula_ok = all(
        participation_formula(args.n, p + 1) == s.k_by_edge[p] for p in range(args.n)
    )
    payload = {
        "manifest": _manifest("construct-s", args),
        **s.to_json_dict(),
        "move_count": len(s.moves),
        "spectrum": list(spectrum.values),
        "product_positive": spectrum.product_positive,
        "log_product_bound": log_product_bound(s),
        "chord_disjoint": disjoint,
        "formula_matches": formula_ok,
    }
    _emit_json(payload, args.out)
    if args.spectrum_csv:
        _emit_csv(
            _manifest("construct-s", args),
            ["edge_position", "participation_count"],
            [[p + 1, k] for p, k in enumerate(s.k_by_edge)],
            args.spectrum_csv,
        )
    if not (disjoint and formula_ok):
        _emit_json({"status": "failed", "reason": "construction verification failed"}, None)
        return 1
    return 0


def cmd_estimate_vol(args) -> int:
    p = build_two_opt_polytope(args.n)
    if args.method == "rejection":
        est = estimate_volume_rejection(p, _samples(args, 1_000_000), args.seed, workers=args.workers)
    else:
        est = estimate_volume_telescoping(p, args.samples_per_phase, args.seed)
    payload = {"manifest": _manifest("estimate-vol", args), "n": args.n, **est.to_json_dict()}
    _emit_json(payload, args.out)
    return 1 if est.degenerate else 0


def cmd_estimate_g(args) -> int:
    s = build_chord_disjoint_set(args.n)
    est = estimate_interaction_factor(s, _samples(args, 1_000_000), args.seed, workers=args.workers)
    payload = {
        "manifest": _manifest("estimate-g", args),
        "n": args.n,
        **est.to_json_dict(),
        "log_estimate": math.log(est.estimate) if est.estimate > 0 else None,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_bounds(args) -> int:
    report = counting_bounds(args.n, samples=_samples(args, 200_000), seed=args.seed, workers=args.workers)
    payload = {"manifest": _manifest("bounds", args), **report.to_json_dict()}
    _emit_json(payload, args.out)
    return 0


def cmd_slope(args) -> int:
    result = interaction_slope(args.ns, _samples(args, 1_000_000), args.seed, workers=args.workers)
    _emit_json({"manifest": _manifest("slope", args), **result}, args.out)
    return 0


def cmd_orthant(args) -> int:
    spec = equicorrelated_spec(args.d) if args.equicorrelated else identity_spec(args.d)
    mc = orthant_prob_mc(spec, _samples(args, 200_000), args.seed, workers=args.workers)
    moments = truncated_moments_mc(spec, args.moment_samples, args.seed, workers=args.workers)
    bound = orthant_moment_bound(spec, moments.diagonal())
    payload = {
        "manifest": _manifest("orthant", args),
        "d": args.d,
        "mc": mc.to_json_dict(),
        "moment_sampler": moments.sampler,
        "log_moment_bound": bound,
        "log_reduced_bound": reduced_orthant_bound(args.d) if args.equicorrelated else None,
    }
    _emit_json(payload, args.out)
    bound_holds = mc.estimate <= math.exp(bound) + 3.0 * mc.stderr
    if not bound_holds:
        _emit_json({"status": "failed", "reason": "moment bound fell below MC estimate"}, None)
        return 1
    return 0


def cmd_figure(args) -> int:
    rows = figure_sweep(
        range(args.n_min, args.n_max + 1), _samples(args, 1_000_000), args.seed,
        workers=args.workers,
    )
    _emit_csv(
        _manifest("figure", args),
        ["n", "estimate", "stderr", "log_bound_a", "log_bound_b", "log_ref_sqrt_factorial"],
        [
            [
                row["n"],
                row["estimate"],
                row["stderr"],
                row["log_bound_a"],
                row["log_bound_b"],
                row["log_ref_sqrt_factorial"],
            ]
            for row in rows
        ],
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out", type=str, default=None)
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--samples", type=int, default=None,
                         help="sample budget; per-command default when omitted")
    huge = argparse.ArgumentParser(add_help=False)
    huge.add_argument("--i-know-this-is-huge", action="store_true",
                      help=f"raise the census cap to the hard ceiling of {ENUMERATION_HARD_CAP}")

    parser = argparse.ArgumentParser(prog="twooptlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="random instance -> JSON")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("census", parents=[common, huge], help="exact 2-optimal tour count")
    p.add_argument("--n", type=int)
    p.add_argument("--equal-weights", action="store_true")
    p.add_argument("--instance", type=str, default=None)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("tgraph", parents=[common], help="transition-graph statistics")
    p.add_argument("--n", type=int)
    p.add_argument("--equal-weights", action="store_true")
    p.add_argument("--instance", type=str, default=None)
    p.add_argument("--walks", type=int, default=1000)
    p.add_argument("--arcs-csv", type=str, default=None)
    p.set_defaults(func=cmd_tgraph)

    p = sub.add_parser("reduce", parents=[common, huge], help="edge list -> path-cover report")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--no-verify", dest="verify", action="store_false",
                   help="emit the report without failing on model disagreement")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct-s", parents=[common], help="chord-disjoint move set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum-csv", type=str, default=None)
    p.set_defaults(func=cmd_construct_s)

    p = sub.add_parser("estimate-vol", parents=[common, sampled], help="2-opt polytope volume")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["rejection", "telescoping"], default="rejection")
    p.add_argument("--samples-per-phase", type=int, default=2000)
    p.set_defaults(func=cmd_estimate_vol)

    p = sub.add_parser("estimate-g", parents=[common, sampled], help="interaction factor estimate")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_estimate_g)

    p = sub.add_parser("bounds", parents=[common, sampled], help="counting bound table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("slope", parents=[common, sampled], help="interaction-factor decay rate")
    p.add_argument("--ns", type=int, nargs="+", default=[17, 33, 65])
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except CapExceededError as exc:
        _emit_json({"status": "refused", "reason": str(exc)}, None)
        return 1
    except (ValueError, OSError) as exc:
        _emit_json({"status": "error", "reason": str(exc)}, None)
        return 1
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
