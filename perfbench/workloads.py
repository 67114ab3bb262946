"""The two benchmark workloads: their inputs, their rounds and their checks.

A workload is a list of steps run as one round; the benchmark repeats rounds
in a closed loop (each call starts when the previous one returned), with
fresh inputs per round, until its time is up.  Steps are in-process
``twooptlab.cli.main(argv)`` calls writing ``--out`` artifacts into a work
directory, or direct calls of the public function a subcommand wraps where
the subcommand hides what a check needs.  All inputs (instance JSON, edge
lists, seeds) are made here from the workload seed.

Each workload joins two parts, and each part exists for a reason:

* census, sparse part -- exact censuses of uniform float instances.  Only
  about 0.01% of tours are 2-optimal, so the early-exit move scan does nearly
  all the work: the target of a pruned enumerator.
* census, dense part -- the same census layer on penalty-weighted reduction
  instances (39-100% of tours 2-optimal), a full transition graph, and
  ``reduce``.  Work is bounded by output size; a census change that helps
  the sparse part but costs tied or full-scan cases shows here.
* estimators, chain part -- the per-step pure-Python chains: telescoping
  hit-and-run volume and the Gibbs sampler for truncated moments.
* estimators, batch part -- the vectorised numpy batch loops (rejection
  volume, figure sweep, interaction factor, bound chain, orthant MC) and the
  chord construction's pairwise verification.

The census workload runs no estimator and the estimators workload no census,
so a change to one side predicts no move on the other workload.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
WORKERS = "2"
# Rounds whose inputs are made at set-up; later rounds reuse them cyclically.
MAX_ROUNDS = 48

BASE_GRAPHS = {
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (1, 2), (0, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}

# Sizes per workload: "full" is what the benchmark measures, "smoke" is the
# tiny variant the self-tests run.
SIZES = {
    "full": {
        "sparse_n": [10, 10, 10, 10],
        "dense_census": [("P4", 5), ("C4", 5), ("K3", 6)],
        "tgraph_n": 8,
        "walks": 1000,
        "reduce": ["P3", "K3"],
        "tele_n": 6,
        "tele_samples": 100,
        "gibbs_d": 12,
        "gibbs_samples": 500,
        "vol_ns": [8, 12],
        "vol_samples": 400_000,
        "figure": (5, 12, 100_000),
        "g_n": 65,
        "g_samples": 100_000,
        "bounds_n": 33,
        "bounds_samples": 200_000,
        "orthant_d": 6,
        "orthant_args": [],
        "construct_n": 65,
    },
    "smoke": {
        "sparse_n": [8, 7],
        "dense_census": [("P3", 4), ("K3", 4)],
        "tgraph_n": 7,
        "walks": 100,
        "reduce": ["P3"],
        "tele_n": 6,
        "tele_samples": 100,
        "gibbs_d": 9,
        "gibbs_samples": 200,
        "vol_ns": [6, 8],
        "vol_samples": 20_000,
        "figure": (5, 8, 20_000),
        "g_n": 17,
        "g_samples": 20_000,
        "bounds_n": 9,
        "bounds_samples": 20_000,
        "orthant_d": 3,
        "orthant_args": ["--samples", "20000", "--moment-samples", "2000"],
        "construct_n": 17,
    },
}


def import_program():
    """Import twooptlab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "twooptlab" / "__init__.py").is_file():
        raise SystemExit(f"twooptlab sources not found under {src}")
    sys.path.insert(0, str(src))
    import twooptlab.cli

    if not Path(twooptlab.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported twooptlab from {twooptlab.cli.__file__}, not {src}")
    return twooptlab.cli


def derived_seed(*keys: int) -> int:
    """Non-negative 31-bit seed derived from integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0] >> 1)


# -- input generation -----------------------------------------------------


def float_instance(n: int, rng: np.random.Generator) -> dict:
    weights = rng.random(n * (n - 1) // 2)
    return {"n": n, "mode": "float", "weights": [float(w) for w in weights], "label": "bench"}


def reduction_instance(nv: int, edges, m: int, L: int, extra: int) -> dict:
    """Path-cover reduction instance; the m auxiliary vertices take the top labels.

    Original edges weigh 0, missing pairs M, auxiliary pairs N = 2L and
    crossing pairs L, with M = (nv + m) N + 1 + extra.  Any valid (L, M)
    gives the same 2-optimal tours.
    """
    n = nv + m
    N = 2 * L
    M = (nv + m) * N + 1 + extra
    w = np.full((n, n), L, dtype=np.int64)
    w[nv:, nv:] = N
    w[:nv, :nv] = M
    for u, v in edges:
        w[u, v] = w[v, u] = 0
    iu = np.triu_indices(n, 1)
    return {"n": n, "mode": "exact", "weights": [int(x) for x in w[iu]], "label": "bench"}


def rescaled(inst: dict, rng: np.random.Generator) -> dict:
    """The instance with every weight times a random power of two.

    Scaling by 2^k is exact in floating point, so every improvement keeps
    its sign: rounds do identical work on fresh input bytes.
    """
    factor = 2.0 ** int(rng.integers(-8, 9))
    return dict(inst, weights=[w * factor for w in inst["weights"]])


def lazy_count(inst: dict) -> Callable[[], int]:
    """Numpy census of ``inst``, computed on first use (after the timed section)."""
    return functools.cache(lambda: oracles.count_two_optimal(oracles.weight_matrix(inst)))


def edge_list(edges, rng: np.random.Generator) -> str:
    """Edge list in random line order and orientation: fresh bytes, the same graph."""
    lines = [f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n" for u, v in edges]
    return "".join(lines[i] for i in rng.permutation(len(lines)))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


# -- steps ----------------------------------------------------------------


@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: str = ""
    value: object = None
    artifact: Path | None = None

    def artifact_json(self) -> dict:
        return json.loads(self.artifact.read_text())


@dataclass
class Step:
    """One CLI invocation (``argv``) or one public-function call (``call``)."""

    label: str
    check: Callable[[Outcome], list[tuple[str, bool]]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    artifact: str | None = None
    outcome: Outcome | None = None

    def run(self, cli, workdir: Path) -> Outcome:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if self.argv is not None:
                    code, value = cli.main(self.argv), None
                else:
                    code, value = 0, self.call()
            self.outcome = Outcome(code, out.getvalue(), value=value)
        except Exception:  # a crash in the program is a failed check, not a stopped run
            self.outcome = Outcome(None, out.getvalue(), error=traceback.format_exc())
        if self.artifact:
            self.outcome.artifact = workdir / self.artifact
        return self.outcome

    def results(self) -> list[tuple[str, bool]]:
        o = self.outcome
        if o is None:
            return []
        name = f"{self.label}:ran"
        if o.code != 0 or (o.artifact is not None and not o.artifact.is_file()):
            return [(name, False)]
        try:
            return [(name, True)] + [(f"{self.label}:{k}", bool(ok)) for k, ok in self.check(o)]
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            return [(f"{self.label}:parse {type(exc).__name__}", False)]


def cli_step(label: str, argv: list[str], check) -> Step:
    artifact = f"{label}.out"
    return Step(label=label, check=check, argv=argv + ["--workers", WORKERS, "--out", artifact],
                artifact=artifact)


@dataclass
class Plan:
    """Steps of every round plus the run-level checks made after timing."""

    rounds: list[list[Step]]
    run_checks: Callable[["Plan", list[list[Step]]], list[tuple[str, bool]]] = field(
        default=lambda plan, done: []
    )
    repro: Callable[["Plan", object, Path], list[tuple[str, bool]]] = field(
        default=lambda plan, cli, workdir: []
    )

    def round(self, r: int) -> list[Step]:
        return self.rounds[r % len(self.rounds)]


def rerun_matches(step: Step, cli, workdir: Path) -> bool:
    """Re-run a finished CLI step into a fresh artifact and byte-compare."""
    first = (workdir / step.artifact).read_bytes()
    again = Step(label=step.label + "-again", check=lambda o: [],
                 argv=step.argv[:-1] + [step.artifact + ".again"], artifact=step.artifact + ".again")
    outcome = again.run(cli, workdir)
    return outcome.code == 0 and outcome.artifact.read_bytes() == first


def census_workers_agree(step: Step, cli, workdir: Path) -> bool:
    """Same census with --workers 1 gives the same count."""
    argv = list(step.argv)
    argv[argv.index("--workers") + 1] = "1"
    argv[-1] = step.artifact + ".w1"
    single = Step(label=step.label + "-w1", check=lambda o: [], argv=argv, artifact=argv[-1])
    outcome = single.run(cli, workdir)
    return outcome.code == 0 and outcome.artifact_json()["count"] == step.outcome.artifact_json()["count"]


def census_repro(step_index: int):
    def repro(plan: Plan, cli, workdir: Path):
        step = plan.rounds[0][step_index]
        return [("repro:rerun bytes equal", rerun_matches(step, cli, workdir)),
                ("repro:workers 1 vs 2 count", census_workers_agree(step, cli, workdir))]
    return repro


# -- census, sparse part --------------------------------------------------


def plan_census_sparse(seed: int, sizes: dict, workdir: Path) -> Plan:
    bases = [float_instance(n, np.random.default_rng([seed, k])) for k, n in enumerate(sizes["sparse_n"])]
    counts = [lazy_count(inst) for inst in bases]
    rounds = []
    for r in range(MAX_ROUNDS):
        rng = np.random.default_rng([seed, r])
        steps = []
        for k, base in enumerate(bases):
            name = f"r{r:02d}-census{k}.json"
            write_json(workdir / name, rescaled(base, rng))
            steps.append(cli_step(
                f"r{r:02d}-census{k}", ["census", "--instance", name],
                lambda o, count=counts[k]: [("count equals numpy brute force",
                                             o.artifact_json()["count"] == count())]))
        rounds.append(steps)
    return Plan(rounds=rounds, repro=census_repro(0))


# -- census, dense part ---------------------------------------------------


def plan_census_dense(seed: int, sizes: dict, workdir: Path) -> Plan:
    pinned = oracles.load_reference()["dense_counts"]
    tgraph_base = float_instance(sizes["tgraph_n"], np.random.default_rng([seed]))
    tgraph_count = lazy_count(tgraph_base)
    rounds = []
    for r in range(MAX_ROUNDS):
        rng = np.random.default_rng([seed, r])
        steps = []
        for graph, m in sizes["dense_census"]:
            nv, edges = BASE_GRAPHS[graph]
            # The labelling is fixed because it sets where the move scan
            # exits; the seed varies only the weights L and M, which leave
            # the 2-optimal set and the work unchanged.
            inst = reduction_instance(nv, edges, m, L=int(rng.integers(1, 5)),
                                      extra=int(rng.integers(0, 6)))
            name = f"r{r:02d}-{graph}-m{m}.json"
            write_json(workdir / name, inst)
            expected = pinned[f"{graph}/m={m}"]
            steps.append(cli_step(
                f"r{r:02d}-census-{graph}-m{m}", ["census", "--instance", name],
                lambda o, expected=expected: [("count equals pinned",
                                               o.artifact_json()["count"] == expected)]))

        name = f"r{r:02d}-tgraph.json"
        write_json(workdir / name, rescaled(tgraph_base, rng))
        walks = sizes["walks"]

        def tgraph_check(o, walks=walks):
            art = o.artifact_json()
            lengths = [int(k) for k, v in art["walk_lengths"].items() for _ in range(v)]
            return [("sinks equal numpy census", art["sinks"] == tgraph_count()),
                    ("walk count", len(lengths) == walks),
                    ("walks within longest path", max(lengths) <= art["longest_path"])]

        steps.append(cli_step(
            f"r{r:02d}-tgraph",
            ["tgraph", "--instance", name, "--walks", str(walks), "--seed", str(derived_seed(seed, r, 7))],
            tgraph_check))

        for graph in sizes["reduce"]:
            nv, edges = BASE_GRAPHS[graph]
            name = f"r{r:02d}-{graph}.edges"
            (workdir / name).write_text(edge_list(edges, rng))
            expected = [pinned[f"{graph}/m={m}"] for m in range(nv + 1, 2 * nv + 1)]
            steps.append(cli_step(
                f"r{r:02d}-reduce-{graph}", ["reduce", "--graph", name],
                lambda o, expected=expected: [
                    ("b equals pinned counts", o.artifact_json()["b"] == expected),
                    ("corrected model matches brute force",
                     o.artifact_json()["corrected_matches_bruteforce"] is True)]))
        rounds.append(steps)
    return Plan(rounds=rounds, repro=census_repro(len(sizes["dense_census"]) - 1))


# -- estimators, chain part -----------------------------------------------


def plan_mcmc(seed: int, sizes: dict, workdir: Path) -> Plan:
    from twooptlab import orthants

    ref = oracles.load_reference()
    p_ref = ref["fixed_tour_probability"][str(sizes["tele_n"])]["p"]
    p_se = ref["fixed_tour_probability"][str(sizes["tele_n"])]["se"]
    tele = ref["telescoping"]
    if (tele["n"], tele["samples_per_phase"]) != (sizes["tele_n"], sizes["tele_samples"]):
        raise ValueError("reference.json has no telescoping spread for these sizes")
    # log(estimate) is close to normal with spread sd_log (measured over many
    # seeds of the program's estimator); the estimator is unbiased for p, so
    # E log(estimate) = log(p_ref) - sd^2/2.  The spread is widened by a
    # quarter for its own estimation error and for tail weight.
    sd = 1.25 * tele["sd_log"]
    centre = math.log(p_ref) - tele["sd_log"] ** 2 / 2
    ref_se = p_se / p_ref
    d = sizes["gibbs_d"]
    precision = np.full((d, d), 1.0 / (2 * d))
    np.fill_diagonal(precision, 1.0)

    rounds = []
    for r in range(MAX_ROUNDS):
        tele_argv = ["estimate-vol", "--n", str(sizes["tele_n"]), "--method", "telescoping",
                     "--samples-per-phase", str(sizes["tele_samples"]),
                     "--seed", str(derived_seed(seed, r, 1))]
        gibbs_seed = derived_seed(seed, r, 2)
        samples = sizes["gibbs_samples"]

        def gibbs(gibbs_seed=gibbs_seed, samples=samples):
            spec = orthants.equicorrelated_spec(d)
            return orthants.truncated_moments_mc(spec, samples, gibbs_seed, workers=int(WORKERS))

        def gibbs_check(o, samples=samples):
            m = o.value
            return [("gibbs sampler used", m.sampler == "gibbs"),
                    ("sample count", m.samples == samples),
                    ("Amemiya identity", oracles.amemiya_ok(precision, m.draws))]

        rounds.append([
            cli_step(f"r{r:02d}-telescoping", tele_argv,
                     lambda o: [("within per-call tolerance of reference",
                                 abs(math.log(o.artifact_json()["estimate"]) - centre)
                                 <= oracles.Z_ALPHA * math.hypot(sd, ref_se))]),
            Step(label=f"r{r:02d}-gibbs", call=gibbs, check=gibbs_check),
        ])

    def pooled(plan: Plan, done: list[list[Step]]):
        logs = []
        for steps in done:
            o = steps[0].outcome
            if o is not None and o.code == 0:
                logs.append(math.log(o.artifact_json()["estimate"]))
        if not logs:
            return [("telescoping pooled over rounds", False)]
        err = abs(float(np.mean(logs)) - centre)
        tol = oracles.Z_ALPHA * math.hypot(sd / math.sqrt(len(logs)), ref_se)
        checks = [("telescoping pooled over rounds", err <= tol)]
        if len(logs) >= 2:
            checks.append(("telescoping spread over rounds", oracles.spread_ok(logs, sd)))
        return checks

    def repro(plan: Plan, cli, workdir: Path):
        first = plan.rounds[0][1]
        again = first.call()
        return [("repro:gibbs rerun bytes equal",
                 again.matrix.tobytes() == first.outcome.value.matrix.tobytes())]

    return Plan(rounds=rounds, run_checks=pooled, repro=repro)


# -- estimators, batch part -----------------------------------------------


def plan_sampling(seed: int, sizes: dict, workdir: Path) -> Plan:
    ref = oracles.load_reference()
    probs = ref["fixed_tour_probability"]
    g_ref = ref["interaction_factor"]
    d = sizes["orthant_d"]
    per_tour_c = math.sqrt(math.pi / 2) * math.exp(-1 / (9 * math.pi))

    def fixed_tour_ok(n, estimate, samples):
        p = probs[str(n)]
        return oracles.binomial_ok(round(estimate * samples), samples, p["p"], p["se"])

    rounds = []
    for r in range(MAX_ROUNDS):
        def s(k):
            return ["--seed", str(derived_seed(seed, r, k))]

        steps = []
        for n in sizes["vol_ns"]:
            samples = sizes["vol_samples"]
            steps.append(cli_step(
                f"r{r:02d}-rejection-n{n}",
                ["estimate-vol", "--n", str(n), "--method", "rejection", "--samples", str(samples)] + s(n),
                lambda o, n=n, samples=samples: [
                    ("matches reference probability",
                     fixed_tour_ok(n, o.artifact_json()["estimate"], samples))]))

        n_min, n_max, fig_samples = sizes["figure"]

        def figure_check(o, fig_samples=fig_samples):
            lines = [ln for ln in o.artifact.read_text().splitlines() if not ln.startswith("#")]
            rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
            small = [row["estimate"] for row in rows if row["n"] <= 9]
            out = [("row count", len(rows) == n_max - n_min + 1),
                   ("strictly decreasing for n <= 9", all(a > b for a, b in zip(small, small[1:])))]
            for row in rows:
                n = int(row["n"])
                out.append((f"n={n} matches reference probability",
                            fixed_tour_ok(n, row["estimate"], fig_samples)))
                out.append((f"n={n} per-tour bound",
                            math.isclose(row["log_bound_a"],
                                         n * math.log(per_tour_c) - 0.5 * math.lgamma(n - 1),
                                         rel_tol=1e-9, abs_tol=1e-9)))
            return out

        steps.append(cli_step(
            f"r{r:02d}-figure",
            ["figure", "--n-min", str(n_min), "--n-max", str(n_max), "--samples", str(fig_samples)] + s(20),
            figure_check))

        def g_ok(n, interaction):
            ref_n = g_ref[str(n)]
            return oracles.normal_ok(interaction["estimate"], interaction["stderr"], ref_n["g"], ref_n["se"])

        g_n = sizes["g_n"]
        steps.append(cli_step(
            f"r{r:02d}-estimate-g",
            ["estimate-g", "--n", str(g_n), "--samples", str(sizes["g_samples"])] + s(21),
            lambda o, g_n=g_n: [("matches reference", g_ok(g_n, o.artifact_json()))]))

        b_n = sizes["bounds_n"]
        steps.append(cli_step(
            f"r{r:02d}-bounds",
            ["bounds", "--n", str(b_n), "--samples", str(sizes["bounds_samples"])] + s(22),
            lambda o, b_n=b_n: [
                ("verdicts true", all(o.artifact_json()["verdicts"].values())),
                ("interaction matches reference", g_ok(b_n, o.artifact_json()["interaction"])),
                ("per-tour bound closed form",
                 math.isclose(o.artifact_json()["log_per_tour_bound"],
                              b_n * math.log(per_tour_c) - 0.5 * math.lgamma(b_n - 1), rel_tol=1e-9))]))

        def orthant_check(o):
            genz = oracles.equicorrelated_orthant(d)
            art = o.artifact_json()
            mc = art["mc"]
            return [("mc matches Genz QMC",
                     oracles.binomial_ok(round(mc["estimate"] * mc["samples"]), mc["samples"], genz, 1e-7)),
                    ("rejection moments used", art["moment_sampler"] == "rejection"),
                    ("reduced bound above Genz", genz <= math.exp(art["log_reduced_bound"])),
                    ("moment bound above Genz", genz <= math.exp(art["log_moment_bound"]))]

        steps.append(cli_step(f"r{r:02d}-orthant",
                              ["orthant", "--d", str(d), "--equicorrelated"] + sizes["orthant_args"] + s(23),
                              orthant_check))

        c_n = sizes["construct_n"]
        steps.append(cli_step(
            f"r{r:02d}-construct-s", ["construct-s", "--n", str(c_n)] + s(24),
            lambda o, c_n=c_n: [
                ("verified by the program",
                 o.artifact_json()["chord_disjoint"] and o.artifact_json()["formula_matches"]),
                ("chords disjoint and counts by independent check",
                 oracles.chord_construction_ok(c_n, o.artifact_json()["moves"], o.artifact_json()["k"]))]))
        rounds.append(steps)

    def repro(plan: Plan, cli, workdir: Path):
        return [("repro:rerun bytes equal", rerun_matches(plan.rounds[0][0], cli, workdir))]

    return Plan(rounds=rounds, repro=repro)


def joined(*plans: Plan) -> Plan:
    """One plan whose round r runs round r of every part, in order."""
    def run_checks(plan: Plan, done: list[list[Step]]):
        return [c for part in plans for c in part.run_checks(part, [part.round(r) for r in range(len(done))])]

    def repro(plan: Plan, cli, workdir: Path):
        return [c for part in plans for c in part.repro(part, cli, workdir)]

    rounds = [[step for part in plans for step in part.rounds[r]] for r in range(MAX_ROUNDS)]
    return Plan(rounds=rounds, run_checks=run_checks, repro=repro)


def plan_census(seed: int, sizes: dict, workdir: Path) -> Plan:
    return joined(plan_census_sparse(seed, sizes, workdir), plan_census_dense(seed, sizes, workdir))


def plan_estimators(seed: int, sizes: dict, workdir: Path) -> Plan:
    return joined(plan_mcmc(seed, sizes, workdir), plan_sampling(seed, sizes, workdir))


PLANS = {
    "census": plan_census,
    "estimators": plan_estimators,
}
