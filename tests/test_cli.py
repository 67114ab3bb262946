import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from twooptlab import bounds, cli, interaction_slope, random_instance
from twooptlab.cli import build_parser, main

# Child processes import the package from src, as pytest does, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_census_equal_weights_prints_12(capsys):
    code, out = run_cli(["census", "--n", "5", "--equal-weights"], capsys)
    assert code == 0
    assert out.strip() == "12"


def test_census_cap_refusal_is_machine_readable(capsys):
    code, out = run_cli(["census", "--n", "11", "--seed", "0"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "refused"
    assert "cap" in payload["reason"]


def test_census_and_tgraph_without_instance_emit_error(capsys):
    for command in ("census", "tgraph"):
        code, out = run_cli([command, "--seed", "0"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert "--n" in payload["reason"]


def test_empty_instance_path_is_refused_before_any_work(capsys, monkeypatch):
    # An empty --instance is a path like any other, not a missing one.
    def no_work(*args, **kwargs):
        raise AssertionError("work started on an empty --instance")

    monkeypatch.setattr(cli, "count_two_optimal_exact", no_work)
    monkeypatch.setattr(cli, "build_transition_graph", no_work)
    for command in ("census", "tgraph"):
        code, out = run_cli([command, "--instance", ""], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("extra", [["--n", "5"], ["--equal-weights"], ["--n", "6", "--equal-weights"]])
def test_instance_file_refuses_the_generated_instance_flags(extra, tmp_path, capsys, monkeypatch):
    # The file fixes the instance, so a --n or --equal-weights next to it would
    # only be written into the manifest of an artifact it did not shape.
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a conflicting --instance")

    path = tmp_path / "g6.json"
    path.write_text(json.dumps(random_instance(6, seed=1).to_json_dict()))
    monkeypatch.setattr(cli, "count_two_optimal_exact", no_work)
    monkeypatch.setattr(cli, "build_transition_graph", no_work)
    for command in ("census", "tgraph"):
        out_path = tmp_path / f"{command}.json"
        argv = [command, *extra, "--instance", str(path), "--out", str(out_path)]
        code, out = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error",
            "reason": "--instance takes neither --n nor --equal-weights",
        }
        assert not out_path.exists()


def test_gen_artifact_is_reproducible(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(["gen", "--n", "6", "--seed", "3", "--out", str(first)], capsys)[0] == 0
    assert run_cli(["gen", "--n", "6", "--seed", "3", "--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["manifest"]["command"] == "gen"
    assert payload["manifest"]["version"]
    assert len(payload["instance"]["weights"]) == 15


def test_census_roundtrips_generated_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["gen", "--n", "6", "--seed", "5", "--out", str(inst_path)], capsys)
    # census accepts the bare instance payload
    inner = json.loads(inst_path.read_text())["instance"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(inner))
    code, out = run_cli(["census", "--instance", str(bare)], capsys)
    assert code == 0
    assert 1 <= int(out.strip()) <= 60
    # and the gen artifact itself, instance nested next to the manifest
    assert run_cli(["census", "--instance", str(inst_path)], capsys) == (0, out)


def test_malformed_instance_files_emit_error(tmp_path, capsys):
    bad = {
        "missing_mode.json": {"n": 5, "weights": [1] * 10},
        "missing_weights.json": {"n": 5, "mode": "exact"},
        "not_an_object.json": [1, 2, 3],
        "weights_not_a_list.json": {"n": 5, "mode": "float", "weights": 3},
        "weight_overflows_float.json": {"n": 4, "mode": "float", "weights": [10**400] * 6},
        "nested_missing_key.json": {"manifest": {}, "instance": {"mode": "float"}},
        "fractional_n.json": {"n": 5.9, "mode": "exact", "weights": [1] * 10},
        "string_numbers.json": {"n": "5", "mode": "exact", "weights": ["3"] + [1] * 9},
        "boolean_weight.json": {"n": 5, "mode": "exact", "weights": [True] + [1] * 9},
        "string_float_weight.json": {"n": 4, "mode": "float", "weights": ["0.5"] + [0.5] * 5},
        "weights_string.json": {"n": 5, "mode": "exact", "weights": "1111111111"},
    }
    for name, payload in bad.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        for command in ("census", "tgraph"):
            code, out = run_cli([command, "--instance", str(path)], capsys)
            assert code == 1, name
            assert json.loads(out)["status"] == "error", name


def test_tgraph_report_shape(tmp_path, capsys):
    out_path = tmp_path / "stats.json"
    arcs_path = tmp_path / "arcs.csv"
    code, _ = run_cli(
        [
            "tgraph",
            "--n",
            "5",
            "--seed",
            "2",
            "--walks",
            "100",
            "--out",
            str(out_path),
            "--arcs-csv",
            str(arcs_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert {"sinks", "longest_path", "walk_lengths"} <= set(payload)
    assert sum(payload["walk_lengths"].values()) == 100
    lines = arcs_path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "from,to"


@pytest.mark.parametrize(
    "argv, side_flag",
    [
        (["tgraph", "--n", "6", "--seed", "1", "--walks", "50"], "--arcs-csv"),
        (["construct-s", "--n", "9"], "--spectrum-csv"),
    ],
    ids=["tgraph", "construct-s"],
)
def test_artifacts_do_not_depend_on_the_output_directory(argv, side_flag, tmp_path, capsys):
    written = []
    for where in (tmp_path / "a", tmp_path / "somewhere" / "else"):
        where.mkdir(parents=True)
        out, side = where / "artifact.json", where / "side.csv"
        assert run_cli(argv + ["--out", str(out), side_flag, str(side)], capsys)[0] == 0
        written.append((out.read_bytes(), side.read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("reduce", "--graph", "0 1\n1 2\n"),
        ("census", "--instance", json.dumps({"n": 5, "mode": "exact", "weights": [1] * 10})),
    ],
    ids=["reduce", "census"],
)
def test_manifests_name_inputs_by_content(command, flag, text, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    written = []
    for where in (Path("a"), Path("b") / "c"):
        where.mkdir(parents=True)
        (where / "input.txt").write_text(text)
        out = where / "artifact.json"
        assert run_cli([command, flag, str(where / "input.txt"), "--out", str(out)], capsys)[0] == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    params = json.loads(written[0])["manifest"]["params"]
    assert params[flag[2:]] == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("census", "--instance", json.dumps(random_instance(7, seed=3).to_json_dict())),
        ("tgraph", "--instance", json.dumps(random_instance(6, seed=3).to_json_dict())),
        ("reduce", "--graph", "0 1\n1 2\n"),
    ],
    ids=["census", "tgraph", "reduce"],
)
def test_each_input_file_is_read_once(command, flag, text, tmp_path, capsys, monkeypatch):
    # The manifest names the bytes the run parsed, not a second read of the path.
    source = tmp_path / "input.txt"
    source.write_bytes(text.encode())
    reads = []
    for method in ("read_bytes", "read_text"):
        original = getattr(Path, method)

        def counted(self, *args, original=original, **kwargs):
            if self.resolve() == source.resolve():
                reads.append(method)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counted)
    out = tmp_path / "artifact.json"
    assert run_cli([command, flag, str(source), "--out", str(out)], capsys)[0] == 0
    assert len(reads) == 1
    params = json.loads(out.read_text())["manifest"]["params"]
    assert params[flag[2:]] == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, artifact_sha256, rows_sha256",
    [
        (
            ["--n", "8", "--seed", "0"],
            "631cf2bff381f663d2fad856960a93ee24a62b3eb89e960060dcbf7ec0833e45",
            "a13f25d63bbb85dd89c3788cb014fa2981a20ccd3cca568bf758e9e1a02dd598",
        ),
        (
            ["--n", "8", "--seed", "1"],
            "339fed7c0c736734d81374db4676a3d42d25138f1b4e0711031ab05d7583068a",
            "f42867669ba5bbe7d30205962d4a1fdff7d88ddaa83a08ec891730366b9d2005",
        ),
        (
            ["--n", "8", "--seed", "2"],
            "43dfb24e7c81cfbd5deb49a3df924b4f1d3c6a32a9e874fcc970cd94d525473d",
            "53a18d6141309d126bf330b072376b044b74076e2ceaa9823f7338d387af4d1e",
        ),
        (
            ["--n", "7", "--equal-weights"],
            "8dac536540a13a1e7c89da4b851ec96e643d1654b13a58987182b3b6b3fc626e",
            "576697c4afba1c8b3279ef5ed172ae77c79c87b26f2e3729f313bfd2e190b235",
        ),
    ],
    ids=["n8-seed0", "n8-seed1", "n8-seed2", "n7-equal-weights"],
)
def test_tgraph_bytes_are_pinned(argv, artifact_sha256, rows_sha256, tmp_path, capsys, monkeypatch):
    # The JSON artifact whole, and the arcs CSV below its manifest line.
    monkeypatch.chdir(tmp_path)
    argv = ["tgraph", *argv, "--walks", "1000"]
    assert run_cli(argv + ["--out", "stats.json"], capsys)[0] == 0
    assert run_cli(argv + ["--arcs-csv", "arcs.csv"], capsys)[0] == 0
    rows = Path("arcs.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(Path("stats.json").read_bytes()).hexdigest() == artifact_sha256
    assert hashlib.sha256(rows).hexdigest() == rows_sha256


@pytest.mark.parametrize(
    "edges, extra, code, artifact_sha256",
    [
        ("0 1\n1 2\n", [], 0, "db9cb2bebf85eddbb55315fc5ff3d33aaf1ca6f4aecc692f606572bb40e4b468"),
        ("0 1\n1 2\n0 2\n", [], 0, "b172ff3ff2492c0de263aacdc2a48f3b5b9846353b2bcbe2918bb9d811e4786a"),
        # nv = 4 needs the huge flag, and the corrected model is rank-deficient there.
        ("0 1\n1 2\n2 3\n", ["--i-know-this-is-huge"], 1,
         "200fc53903063e5e569489c3d9c22f45e7f1ffaadb0612485c5bc3caee646034"),
        ("0 1\n1 2\n2 3\n0 3\n", ["--i-know-this-is-huge"], 1,
         "b4e5c5db28a9afa1896bfd5ff4e02dec635450e928cc940090b3adb709c0defa"),
    ],
    ids=["P3", "K3", "P4", "C4"],
)
def test_reduce_bytes_are_pinned(edges, extra, code, artifact_sha256, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("g.edges").write_text(edges)
    assert run_cli(["reduce", "--graph", "g.edges", *extra, "--out", "report.json"], capsys)[0] == code
    assert hashlib.sha256(Path("report.json").read_bytes()).hexdigest() == artifact_sha256


def test_reduce_p3_reports_both_models(tmp_path, capsys):
    edges = tmp_path / "p3.edges"
    edges.write_text("0 1\n1 2\n")
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["reduce", "--graph", str(edges), "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["brute_force_a"] == [1, 2, 1]
    models = {m["model"]: m for m in payload["models"]}
    assert models["corrected"]["a"] == [1, 2, 1]
    assert not models["paper"]["integral"]
    assert payload["corrected_matches_bruteforce"]


@pytest.mark.parametrize(
    "line, reason",
    [
        ("1 2 3", "edge list line 3: need two integer vertex labels, got '1 2 3'"),
        ("0 x", "edge list line 3: need two integer vertex labels, got '0 x'"),
        ("0 -1", "edge list line 3: negative vertex label, got '0 -1'"),
    ],
    ids=["three-labels", "non-integer", "negative"],
)
def test_reduce_names_the_bad_edge_list_line(line, reason, tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text(f"# comments and blank lines count\n\n{line}\n0 1\n")
    code, out = run_cli(["reduce", "--graph", str(edges)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["reason"] == reason


def test_construct_s_n9(tmp_path, capsys):
    out_path = tmp_path / "set.json"
    csv_path = tmp_path / "spectrum.csv"
    code, _ = run_cli(
        ["construct-s", "--n", "9", "--out", str(out_path), "--spectrum-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["move_count"] == 12
    assert payload["chord_disjoint"] is True
    assert payload["formula_matches"] is True
    assert payload["spectrum"] == [0, 0, 1, 2, 3, 3, 4, 5, 6]
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "edge_position,participation_count"
    assert len(lines) == 2 + 9


def test_construct_s_rejects_bad_n(capsys):
    code, out = run_cli(["construct-s", "--n", "8"], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "error"


def test_estimate_vol_and_g_smoke(tmp_path, capsys):
    code, out = run_cli(
        ["estimate-vol", "--n", "5", "--samples", "20000", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["estimate"] < 1.0

    code, out = run_cli(
        ["estimate-g", "--n", "9", "--samples", "20000", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["estimate"] <= 1.0
    assert payload["log_estimate"] < 0.0


def test_bounds_command(capsys):
    code, out = run_cli(["bounds", "--n", "9", "--samples", "20000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["chain_at_most_product_factor"]


def test_slope_command_is_reproducible_and_matches_library(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        argv = ["slope", "--ns", "9", "17", "--samples", "20000", "--seed", "7", "--out", str(path)]
        assert run_cli(argv, capsys)[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert payload.pop("manifest")["command"] == "slope"
    assert payload == interaction_slope([9, 17], samples=20_000, seed=7)


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # The parser is cached, so a call that changed one of its defaults would
    # change every later call; each artifact must equal a fresh process's.
    assert build_parser() is build_parser()
    argvs = {
        "slope.json": ["slope", "--samples", "2000", "--seed", "3"],
        "census.json": ["census", "--n", "7", "--seed", "3"],
        # Beyond d = 8 the moments come from Gibbs chains, whose scipy import
        # runs for the first time in the fresh process.
        "orthant.json": ["orthant", "--d", "9", "--samples", "2000", "--moment-samples", "100"],
    }
    for name, argv in argvs.items():
        assert run_cli(argv + ["--out", str(tmp_path / f"in-{name}")], capsys)[0] == 0
        proc = subprocess.run(
            [sys.executable, "-m", "twooptlab.cli", *argv, "--out", str(tmp_path / name)],
            capture_output=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert (tmp_path / f"in-{name}").read_bytes() == (tmp_path / name).read_bytes()
    assert json.loads((tmp_path / "slope.json").read_text())["ns"] == [17, 33, 65]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["tgraph", "--n", "6", "--walks", "-3"], "walks"),
        (["figure", "--n-min", "10", "--n-max", "5"], "empty range"),
        (["orthant", "--d", "0"], "d=0"),
        (["orthant", "--d", "-1"], "d=-1"),
        (["slope", "--ns", "17", "--samples", "1000"], "two distinct sizes"),
        (["estimate-vol", "--n", "5", "--method", "telescoping", "--samples", "10",
          "--samples-per-phase", "100"], "--samples is read"),
        (["estimate-vol", "--n", "5", "--method", "rejection", "--samples", "1000",
          "--samples-per-phase", "100"], "--samples-per-phase is read"),
    ],
    ids=["negative-walks", "empty-figure-range", "zero-dimension", "negative-dimension",
         "single-slope-size", "telescoping-samples", "rejection-samples-per-phase"],
)
def test_bad_inputs_emit_error(argv, reason, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert reason in payload["reason"]


ZERO_WORKER_ARGVS = {
    "gen": ["gen", "--n", "6"],
    "census": ["census", "--n", "6"],
    "tgraph": ["tgraph", "--n", "6", "--walks", "10"],
    "reduce": ["reduce", "--graph", "p3.edges"],
    "construct-s": ["construct-s", "--n", "9"],
    "estimate-vol": ["estimate-vol", "--n", "5", "--method", "telescoping", "--samples-per-phase", "100"],
    "estimate-g": ["estimate-g", "--n", "17", "--samples", "1000"],
    "bounds": ["bounds", "--n", "9", "--samples", "1000"],
    "slope": ["slope", "--ns", "17", "33", "--samples", "1000"],
    "orthant": ["orthant", "--d", "3", "--samples", "1000", "--moment-samples", "100"],
    "figure": ["figure", "--n-min", "5", "--n-max", "6", "--samples", "1000"],
}


def test_zero_worker_cases_cover_every_subcommand():
    commands = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1).split(",")
    assert sorted(ZERO_WORKER_ARGVS) == sorted(commands)


@pytest.mark.parametrize("argv", ZERO_WORKER_ARGVS.values(), ids=ZERO_WORKER_ARGVS.keys())
def test_zero_workers_is_refused_before_any_work(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3.edges").write_text("0 1\n1 2\n")
    code, out = run_cli([*argv, "--workers", "0", "--out", "out"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "workers must be >= 1" in payload["reason"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["bounds", "--n", "9"], ["slope", "--ns", "9", "17"]])
def test_interaction_underflow_emits_named_error(argv, monkeypatch, capsys):
    # `bounds --n 4097` underflows the interaction estimate to 0.0, which
    # has no log.
    monkeypatch.setattr(
        bounds, "estimate_interaction_factor",
        lambda s, samples, seed, workers=1: bounds.MCEstimate(0.0, 0.0, samples),
    )
    code, out = run_cli(argv + ["--samples", "20"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "n=9 underflowed to 0.0" in payload["reason"]


@pytest.mark.parametrize(
    "argv, name, fake, reason",
    [
        (["reduce", "--graph", "{edges}"], "reduction_report",
         lambda report: {**report, "corrected_matches_bruteforce": False},
         "corrected-model recovery disagrees with brute force"),
        (["construct-s", "--n", "9"], "verify_chord_disjoint", lambda _: False,
         "construction verification failed"),
        (["orthant", "--d", "3", "--samples", "20000", "--moment-samples", "2000"],
         "orthant_moment_bound", lambda _: -1e9, "moment bound fell below MC estimate"),
    ],
    ids=["reduce", "construct-s", "orthant"],
)
def test_failed_verification_writes_artifact_then_diagnostic(
    argv, name, fake, reason, tmp_path, capsys, monkeypatch
):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: fake(real(*a, **k)))
    edges = tmp_path / "p3.edges"
    edges.write_text("0 1\n1 2\n")
    out_path = tmp_path / "artifact.json"
    argv = [a.replace("{edges}", str(edges)) for a in argv] + ["--out", str(out_path)]
    code, out = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(out_path.read_text())["manifest"]["command"] == argv[0]
    assert json.loads(out) == {"status": "failed", "reason": reason}


def test_degenerate_telescoping_writes_artifact_then_diagnostic(tmp_path, capsys, monkeypatch):
    real = cli.estimate_volume_telescoping
    monkeypatch.setattr(cli, "estimate_volume_telescoping",
                        lambda *a, **k: replace(real(*a, **k), degenerate=True))
    out_path = tmp_path / "artifact.json"
    argv = ["estimate-vol", "--n", "5", "--method", "telescoping", "--samples-per-phase", "100"]
    code, out = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 1
    assert json.loads(out_path.read_text())["degenerate"] is True
    assert json.loads(out) == {"status": "failed", "reason": "a telescoping phase accepted no samples"}


@pytest.mark.parametrize(
    "argv",
    [
        ["tgraph", "--n", "6", "--i-know-this-is-huge"],
        ["census", "--n", "6", "--samples", "10"],
        ["construct-s", "--n", "9", "--samples", "10"],
    ],
    ids=["tgraph-huge", "census-samples", "construct-s-samples"],
)
def test_flags_are_refused_where_no_subcommand_reads_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_huge_flag_is_accepted_by_census_and_reduce(tmp_path, capsys):
    code, out = run_cli(["census", "--n", "11", "--seed", "1", "--i-know-this-is-huge"], capsys)
    assert code == 0 and int(out) >= 1
    edges = tmp_path / "p3.edges"
    edges.write_text("0 1\n1 2\n")
    code, out = run_cli(["reduce", "--graph", str(edges), "--i-know-this-is-huge"], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["params"]["i_know_this_is_huge"] is True


def test_reduce_p4_under_the_huge_flag_is_fast(tmp_path, capsys):
    # The twin-class quotient counts the n = 12 census of the m = 8 instance
    # in milliseconds; the corrected model stays rank-deficient at nv = 4.
    edges = tmp_path / "p4.edges"
    edges.write_text("0 1\n1 2\n2 3\n")
    out_path = tmp_path / "report.json"
    start = time.perf_counter()
    code, out = run_cli(["reduce", "--graph", str(edges), "--i-know-this-is-huge",
                         "--out", str(out_path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out_path.read_text())["b"] == [7800, 79920, 882000, 10483200]
    assert json.loads(out) == {
        "status": "failed", "reason": "corrected-model recovery disagrees with brute force"}


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line for line in readme.read_text().splitlines() if line.startswith("twooptlab ")]
    assert commands
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_limits_match_the_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)\.([A-Z_]+)` \| ([^|]*) \|", readme.read_text(), re.MULTILINE)
    assert len(rows) >= 6
    for module, name, value in rows:
        stated = int(re.search(r"\d[\d,]*", value).group().replace(",", ""))
        assert stated == getattr(importlib.import_module(f"twooptlab.{module}"), name), name


def test_orthant_command(capsys):
    code, out = run_cli(
        [
            "orthant",
            "--d",
            "3",
            "--equicorrelated",
            "--samples",
            "50000",
            "--moment-samples",
            "4000",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log_moment_bound"] > math.log(payload["mc"]["estimate"])
    assert payload["log_reduced_bound"] is not None


def test_figure_csv_format(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        [
            "figure",
            "--n-min",
            "5",
            "--n-max",
            "6",
            "--samples",
            "20000",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "n,estimate,stderr,log_bound_a,log_bound_b,log_ref_sqrt_factorial"
    assert len(lines) == 4


def test_figure_output_is_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run_cli(
            ["figure", "--n-min", "5", "--n-max", "5", "--samples", "10000", "--out", str(path)],
            capsys,
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unknown_command_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, "-m", "twooptlab.cli", "no-such-command"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode != 0
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twooptlab.cli", "census", "--n", "4", "--equal-weights"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
    assert "wall_time_s=" in proc.stderr


POOLED_ARGVS = {
    "estimate-g": ["estimate-g", "--n", "65", "--samples", "20000"],
    "bounds": ["bounds", "--n", "33", "--samples", "20000"],
    "rejection": ["estimate-vol", "--n", "9", "--method", "rejection", "--samples", "30000"],
    "figure": ["figure", "--n-min", "5", "--n-max", "9", "--samples", "20000"],
    "orthant": ["orthant", "--d", "6", "--samples", "20000", "--moment-samples", "2000"],
    "slope": ["slope", "--ns", "17", "33", "--samples", "20000"],
}


@pytest.mark.parametrize("argv", POOLED_ARGVS.values(), ids=POOLED_ARGVS.keys())
def test_pooled_artifacts_equal_serial_artifacts(argv, tmp_path, capsys, on_one_cpu, stream_threads):
    def artifact_sha256(name):
        path = tmp_path / name
        assert run_cli([*argv, "--seed", "5", "--workers", "2", "--out", str(path)], capsys)[0] == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()

    pooled = artifact_sha256("pooled")
    assert len(stream_threads) == min(2, len(os.sched_getaffinity(0)))
    assert pooled == on_one_cpu(lambda: artifact_sha256("serial"))


def test_importing_the_cli_leaves_the_pool_and_blas_control_unmade():
    # Both are made on the first pooled call, so a run without Monte Carlo
    # pays neither.
    script = (
        "import twooptlab.cli\n"
        "from twooptlab import rng\n"
        "print(rng._openblas_threads.cache_info().currsize, rng._executor.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_only_a_gibbs_draw_imports_scipy(tmp_path):
    # scipy.special serves only the Gibbs chains of `orthant` beyond d = 8, so
    # importing the CLI and running every other command leaves scipy unloaded.
    (tmp_path / "p3.edges").write_text("0 1\n1 2\n")
    argvs = [
        ["gen", "--n", "6"],  # written to 0.out
        ["census", "--n", "7", "--seed", "3"],
        ["census", "--instance", "0.out"],
        ["tgraph", "--n", "6", "--walks", "100"],
        ["reduce", "--graph", "p3.edges"],
        ["construct-s", "--n", "9"],
        ["estimate-vol", "--n", "6", "--method", "rejection", "--samples", "2000"],
        ["estimate-vol", "--n", "5", "--method", "telescoping", "--samples-per-phase", "100"],
        ["estimate-g", "--n", "17", "--samples", "2000"],
        ["bounds", "--n", "17", "--samples", "2000"],
        ["slope", "--ns", "9", "17", "--samples", "2000"],
        ["figure", "--n-min", "5", "--n-max", "6", "--samples", "2000"],
        ["orthant", "--d", "6", "--samples", "2000", "--moment-samples", "200"],
    ]
    script = (
        "import sys\n"
        "import twooptlab.cli\n"
        "print('scipy' in sys.modules)\n"
        f"codes = [twooptlab.cli.main(argv + ['--out', f'{{k}}.out']) for k, argv in enumerate({argvs!r})]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == f"{[0] * len(argvs)} False"
