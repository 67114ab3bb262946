"""Spans around calls into twooptlab's public functions, from outside the program.

``Tracer.install`` replaces each traced function in the module that defines
it and in every twooptlab module that imported it by name, and
``Tracer.uninstall`` puts the originals back.  Untraced rounds run with no
wrappers at all.  Spans (name, start, end, parent) stay in memory until the
run writes them to a sidecar file.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

def _bound(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _gibbs_settings(orthants) -> tuple[int, int]:
    """Default burn-in and thinning of the Gibbs chain, read from its signature."""
    params = inspect.signature(orthants._gibbs_orthant_draws).parameters
    return params["burn_in"].default, params["thin"].default


def replace_everywhere(module_name: str, name: str, replacement) -> list:
    """Set ``name`` to ``replacement`` wherever a twooptlab module binds the original.

    Returns (module, name, original) triples for ``restore``.
    """
    original = getattr(sys.modules[module_name], name)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "twooptlab" and getattr(mod, name, None) is original:
            setattr(mod, name, replacement)
            patched.append((mod, name, original))
    return patched


def restore(patched: list) -> None:
    for mod, name, original in reversed(patched):
        setattr(mod, name, original)


class Tracer:
    """Span recorder plus per-round counters for the traced functions."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self._patched: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round_start = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx: int) -> float:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        end = time.perf_counter()
        self.spans[idx] = (name, start, end, parent)
        return end - start

    def _wrap(self, module_name: str, func, on_return):
        name = f"{module_name.split('.')[-1]}.{func.__name__}"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = self._exit(idx)
            if on_return is not None:
                on_return(_bound(func, args, kwargs), result, seconds)
            return result

        return wrapper

    def _wrap_generator(self, func, time_key: str, count_key: str):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            clock = time.perf_counter
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    counters[time_key] += clock() - start
                    return
                counters[time_key] += clock() - start
                counters[count_key] += 1
                yield item

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import twooptlab.cli  # noqa: F401  (loads every module that imports by name)
        from twooptlab import orthants

        c = self.counters
        burn_in, thin = _gibbs_settings(orthants)

        def add(key):
            def on_return(_args, _result, seconds):
                c[key] += seconds
            return on_return

        def count_call(args, _result, seconds):
            n = args["inst"].n
            c["census.count_s"] += seconds
            c["census.tours_covered"] += math.factorial(n - 1) // 2

        def tgraph_build(_args, graph, seconds):
            c["census.tgraph_build_s"] += seconds
            c["census.tgraph_arcs"] += len(graph.arcs)

        def telescoping(args, result, seconds):
            p = args["p"]
            steps = (len(p.rows) - 1) * (args["burn_in"] + args["samples_per_phase"] * args["thin"])
            c["polytopes.telescoping_s"] += seconds
            c["polytopes.hit_and_run_steps"] += steps
            c["polytopes.telescoping_calls"] += 1
            if result.estimate > 0:
                c["polytopes.telescoping_rel_stderr_sum"] += result.stderr / result.estimate

        def rejection(args, result, seconds):
            c["polytopes.rejection_s"] += seconds
            c["polytopes.rejection_samples"] += args["samples"]
            c["polytopes.rejection_hits"] += round(result.estimate * args["samples"])

        def moments(args, result, seconds):
            spec = args["spec"]
            default = "rejection" if spec.d <= orthants.REJECTION_DIM_CAP else "gibbs"
            requested = args["sampler"] or default
            c["orthants.moments_s"] += seconds
            c["orthants.sampler_switches"] += int(result.sampler != requested)
            if result.sampler == "gibbs":
                chains = min(args["workers"], args["accepted_samples"])
                sweeps = chains * burn_in + args["accepted_samples"] * thin
                c["orthants.gibbs_sweeps"] += sweeps
                c["orthants.gibbs_updates"] += sweeps * spec.d
                c["orthants.gibbs_s"] += seconds
            if result.acceptance_rate is not None:
                c["orthants.moments_accept_sum"] += result.acceptance_rate
                c["orthants.moments_accept_calls"] += 1

        def orthant_mc(args, _result, seconds):
            c["orthants.mc_s"] += seconds
            c["orthants.mc_samples"] += args["samples"]

        def chords_verify(args, _result, seconds):
            m = len(args["s"].moves)
            c["chords.verify_s"] += seconds
            c["chords.verify_pairs"] += m * (m - 1) // 2

        def interaction(args, _result, seconds):
            c["bounds.interaction_s"] += seconds
            c["bounds.interaction_samples"] += args["samples"]

        def cli_main(args, _result, seconds):
            c["cli.main_s"] += seconds
            c["cli.invocations"] += 1

        targets = [
            ("twooptlab.census", "count_two_optimal_exact", count_call),
            ("twooptlab.census", "build_transition_graph", tgraph_build),
            ("twooptlab.census", "transition_stats", add("census.tgraph_stats_s")),
            ("twooptlab.reduction", "census_vector", add("reduction.census_vector_s")),
            ("twooptlab.reduction", "count_path_covers_bruteforce", add("reduction.bruteforce_s")),
            ("twooptlab.reduction", "recover_path_cover_counts", add("reduction.recover_s")),
            ("twooptlab.reduction", "recover_corrected_counts", add("reduction.recover_s")),
            ("twooptlab.reduction", "reduction_report", None),
            ("twooptlab.polytopes", "build_two_opt_polytope", add("polytopes.build_s")),
            ("twooptlab.polytopes", "estimate_volume_telescoping", telescoping),
            ("twooptlab.polytopes", "estimate_volume_rejection", rejection),
            ("twooptlab.orthants", "truncated_moments_mc", moments),
            ("twooptlab.orthants", "equicorrelated_spec", add("orthants.spec_s")),
            ("twooptlab.orthants", "identity_spec", add("orthants.spec_s")),
            ("twooptlab.orthants", "orthant_prob_mc", orthant_mc),
            ("twooptlab.chords", "build_chord_disjoint_set", add("chords.build_s")),
            ("twooptlab.chords", "verify_chord_disjoint", chords_verify),
            ("twooptlab.bounds", "estimate_interaction_factor", interaction),
            ("twooptlab.bounds", "figure_sweep", add("bounds.figure_sweep_s")),
            ("twooptlab.bounds", "counting_bounds", add("bounds.counting_bounds_s")),
            ("twooptlab.cli", "main", cli_main),
        ]
        for module_name, name, on_return in targets:
            func = getattr(sys.modules[module_name], name)
            self._patched += replace_everywhere(
                module_name, name, self._wrap(module_name, func, on_return)
            )
        core = sys.modules["twooptlab.core"]
        self._patched += replace_everywhere(
            "twooptlab.core",
            "enumerate_canonical_tours",
            self._wrap_generator(core.enumerate_canonical_tours, "core.enumerate_s", "core.tours_yielded"),
        )

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    # -- per-round summaries ----------------------------------------------

    def begin_round(self) -> None:
        self.counters.clear()
        self.round_start = len(self.spans)

    def cli_self_seconds(self) -> float:
        """cli.main span time not covered by its direct child spans, this round."""
        spans = self.spans[self.round_start:]
        total = 0.0
        for k, (name, start, end, _) in enumerate(spans, self.round_start):
            if name != "cli.main":
                continue
            children = sum(e - s for _, s, e, parent in spans if parent == k)
            total += (end - start) - children
        return total

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("core.tours_yielded", "count", "lower"),
    ("core.enumerate_s", "s", "lower"),
    ("census.count_s", "s", "lower"),
    ("census.count_tours_per_s", "1/s", "higher"),
    ("census.tgraph_build_s", "s", "lower"),
    ("census.tgraph_arcs_per_s", "1/s", "higher"),
    ("census.tgraph_stats_s", "s", "lower"),
    ("reduction.census_vector_s", "s", "lower"),
    ("reduction.bruteforce_s", "s", "lower"),
    ("reduction.recover_s", "s", "lower"),
    ("reduction.census_vector_share", "ratio", "lower"),
    ("reduction.bruteforce_share", "ratio", "lower"),
    ("reduction.recover_share", "ratio", "lower"),
    ("polytopes.telescoping_s", "s", "lower"),
    ("polytopes.hit_and_run_steps", "count", "lower"),
    ("polytopes.hit_and_run_steps_per_s", "1/s", "higher"),
    ("polytopes.telescoping_rel_stderr", "ratio", "lower"),
    ("polytopes.build_s", "s", "lower"),
    ("polytopes.rejection_s", "s", "lower"),
    ("polytopes.rejection_samples_per_s", "1/s", "higher"),
    ("polytopes.rejection_accept_ratio", "ratio", "higher"),
    ("orthants.moments_s", "s", "lower"),
    ("orthants.gibbs_sweeps", "count", "lower"),
    ("orthants.gibbs_updates_per_s", "1/s", "higher"),
    ("orthants.sampler_switches", "count", "lower"),
    ("orthants.spec_s", "s", "lower"),
    ("orthants.mc_s", "s", "lower"),
    ("orthants.mc_samples_per_s", "1/s", "higher"),
    ("orthants.moments_accept_ratio", "ratio", "higher"),
    ("chords.build_s", "s", "lower"),
    ("chords.verify_s", "s", "lower"),
    ("chords.verify_pairs", "count", "lower"),
    ("bounds.interaction_s", "s", "lower"),
    ("bounds.interaction_samples_per_s", "1/s", "higher"),
    ("bounds.figure_sweep_s", "s", "lower"),
    ("bounds.counting_bounds_s", "s", "lower"),
    ("cli.invocations", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.oracle_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def round_layer_metrics(c: dict, wall: float, cli_self: float, artifact_bytes: int) -> dict:
    """Per-layer values of one traced round from its counters.

    Layers that did not run in the round read 0.  The two bench.* metrics
    are run-level and are filled in by the caller.
    """
    c = defaultdict(float, c)
    return {
        "core.tours_yielded": c["core.tours_yielded"],
        "core.enumerate_s": c["core.enumerate_s"],
        "census.count_s": c["census.count_s"],
        "census.count_tours_per_s": _ratio(c["census.tours_covered"], c["census.count_s"]),
        "census.tgraph_build_s": c["census.tgraph_build_s"],
        "census.tgraph_arcs_per_s": _ratio(c["census.tgraph_arcs"], c["census.tgraph_build_s"]),
        "census.tgraph_stats_s": c["census.tgraph_stats_s"],
        "reduction.census_vector_s": c["reduction.census_vector_s"],
        "reduction.bruteforce_s": c["reduction.bruteforce_s"],
        "reduction.recover_s": c["reduction.recover_s"],
        "reduction.census_vector_share": _ratio(c["reduction.census_vector_s"], wall),
        "reduction.bruteforce_share": _ratio(c["reduction.bruteforce_s"], wall),
        "reduction.recover_share": _ratio(c["reduction.recover_s"], wall),
        "polytopes.telescoping_s": c["polytopes.telescoping_s"],
        "polytopes.hit_and_run_steps": c["polytopes.hit_and_run_steps"],
        "polytopes.hit_and_run_steps_per_s": _ratio(c["polytopes.hit_and_run_steps"], c["polytopes.telescoping_s"]),
        "polytopes.telescoping_rel_stderr": _ratio(c["polytopes.telescoping_rel_stderr_sum"],
                                                   c["polytopes.telescoping_calls"]),
        "polytopes.build_s": c["polytopes.build_s"],
        "polytopes.rejection_s": c["polytopes.rejection_s"],
        "polytopes.rejection_samples_per_s": _ratio(c["polytopes.rejection_samples"], c["polytopes.rejection_s"]),
        "polytopes.rejection_accept_ratio": _ratio(c["polytopes.rejection_hits"], c["polytopes.rejection_samples"]),
        "orthants.moments_s": c["orthants.moments_s"],
        "orthants.gibbs_sweeps": c["orthants.gibbs_sweeps"],
        "orthants.gibbs_updates_per_s": _ratio(c["orthants.gibbs_updates"], c["orthants.gibbs_s"]),
        "orthants.sampler_switches": c["orthants.sampler_switches"],
        "orthants.spec_s": c["orthants.spec_s"],
        "orthants.mc_s": c["orthants.mc_s"],
        "orthants.mc_samples_per_s": _ratio(c["orthants.mc_samples"], c["orthants.mc_s"]),
        "orthants.moments_accept_ratio": _ratio(c["orthants.moments_accept_sum"], c["orthants.moments_accept_calls"]),
        "chords.build_s": c["chords.build_s"],
        "chords.verify_s": c["chords.verify_s"],
        "chords.verify_pairs": c["chords.verify_pairs"],
        "bounds.interaction_s": c["bounds.interaction_s"],
        "bounds.interaction_samples_per_s": _ratio(c["bounds.interaction_samples"], c["bounds.interaction_s"]),
        "bounds.figure_sweep_s": c["bounds.figure_sweep_s"],
        "bounds.counting_bounds_s": c["bounds.counting_bounds_s"],
        "cli.invocations": c["cli.invocations"],
        "cli.main_s": c["cli.main_s"],
        "cli.self_s": cli_self,
        "cli.artifact_bytes": artifact_bytes,
    }
