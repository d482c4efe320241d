"""CLI commands, file formats, exit codes, determinism."""

import errno
import functools
import io
import json
import math
import os
import pickle
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from flowcurv import (derivative_stack, fixed_points, geometry, get_model, integrate, ioutil,
                      load_model, manifold, manifold_sample, models, spectral,
                      tls_hyperplane, verify, zero_set_grid)
from flowcurv import cli
from flowcurv.cli import main
from flowcurv.expr import ExprError
from flowcurv.integrate import IntegrationError
from flowcurv.manifold import grid_states
from flowcurv.models import _BUILTIN_BUILDERS
from flowcurv.ioutil import write_table
from flowcurv.verify import verify_model

from conftest import CHUA3_POWERS, CHUA3_TWO_PWL, ROTATION, TWO_PWL, strict_json


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_models(capsys):
    code, out, _ = run(["list-models"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "chua3-pwl", "chua4-cubic", "chua4-pwl", "chua5-cubic", "chua5-pwl",
        "gear5", "magnetoconvection5"]


def test_integrate_csv_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["integrate", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
            "--t-end", "5.0"]
    code, stdout, _ = run(args + ["--out", str(out1)], capsys)
    assert run(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,region"
    # each region crossing the run reports is one row on |x1| = 1
    on = sum(abs(abs(float(line.split(",")[1])) - 1.0) <= 1e-9 for line in lines[1:])
    assert on > 0 and (code, stdout) == (0, f"{len(lines) - 1} samples, {on} region "
                                             f"crossings -> {out1}\n")
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[-1] == "mid"
    # shortest round-trip decimals
    assert float(first[1]) == 0.1


def test_phi_scan_grid(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(["phi-scan", "--model", "chua3-pwl",
                      "--grid", "x1=1.2:2.0:5,x2=-1:1:5", "--slice", "x3=0",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,phi,lie,cofactor_residual"
    assert len(lines) == 26
    row = lines[1].split(",")
    assert float(row[5]) <= 1e-8  # in-region Darboux residual


def test_phi_scan_trajectory(tmp_path, capsys):
    out = tmp_path / "traj_scan.csv"
    code, _, _ = run(["phi-scan", "--model", "chua4-cubic", "--x0", "0.1,0.1,0.1,0.1",
                      "--t-end", "1.0", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[0] == "x1,x2,x3,x4,phi,lie,cofactor_residual"


def test_phi_scan_requires_one_source(tmp_path, capsys):
    code, _, err = run(["phi-scan", "--model", "chua3-pwl",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize("flag", ["--t-end", "--rel-tol", "--abs-tol"])
def test_phi_scan_grid_rejects_trajectory_options(flag, tmp_path, capsys):
    # a grid scan integrates nothing: a tolerance given with --grid is an error
    out = tmp_path / "scan.csv"
    code, _, err = run(["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-2:2:3,x2=-1:1:3",
                        "--slice", "x3=0", flag, "1e-3", "--out", str(out)], capsys)
    assert code == 1
    assert f"config error: {flag} applies to a trajectory scan" in err
    assert "Traceback" not in err and not out.exists()


def test_phi_scan_trajectory_tolerances(tmp_path, capsys):
    # trajectory mode keeps 1e-9 / 1e-12 by default and honours given values
    def scan(*extra):
        out = tmp_path / f"scan{len(extra)}.csv"
        assert run(["phi-scan", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                    "--t-end", "2", "--out", str(out), *extra], capsys)[0] == 0
        return out.read_text().splitlines()

    model = get_model("chua3-pwl")
    assert len(scan()) == 1 + len(integrate(model, [0.1] * 3, 2.0, rel_tol=1e-9,
                                            abs_tol=1e-12))
    assert len(scan("--rel-tol", "1e-4", "--abs-tol", "1e-6")) == 1 + len(
        integrate(model, [0.1] * 3, 2.0, rel_tol=1e-4, abs_tol=1e-6))


def test_manifold_command(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, msg, _ = run(["manifold", "--model", "chua3-pwl",
                        "--grid", "x1=1.2:3.0:10,x2=-1:1:8,x3=-4:0:16",
                        "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,phi,region"
    plane = np.array([2.8759, -3.9421, 1.0])
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) > 20
    for row in rows:
        if row[4] != "pos":
            continue
        p = np.array([float(v) for v in row[:3]])
        assert abs(plane @ p - 2.8139) <= 5e-3


def test_manifold_json_format(tmp_path, capsys):
    out = tmp_path / "cloud.json"
    code, _, _ = run(["manifold", "--model", "chua3-pwl",
                      "--grid", "x1=1.2:2.0:4,x2=-1:1:4,x3=-4:0:6",
                      "--out", str(out), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["x1", "x2", "x3", "phi", "region"]
    assert all(len(r) == 5 for r in payload["rows"])


def test_manifold_slice_fp_token(tmp_path, capsys):
    out = tmp_path / "c4.csv"
    code, _, _ = run(["manifold", "--model", "chua4-pwl",
                      "--grid", "x1=1.05:2:6,x2=-1:1:6", "--slice", "x3=fp,x4=0",
                      "--out", str(out)], capsys)
    assert code == 0


def test_hyperplane_stdout_and_csv(tmp_path, capsys):
    out = tmp_path / "planes.csv"
    code, text, _ = run(["hyperplane", "--model", "chua3-pwl",
                         "--out", str(out)], capsys)
    assert code == 0
    eqs = [line for line in text.splitlines() if "Pi(X)" in line]
    assert len(eqs) == 2
    assert re.search(r"2\.8759\d*\*x1", eqs[0])
    lines = out.read_text().splitlines()
    assert lines[0] == "c1,c2,c3,offset"
    assert len(lines) == 3


@pytest.mark.parametrize("name", ["chua3-pwl", "chua4-pwl", "chua5-pwl"])
def test_hyperplane_builtin_and_json_copy_agree(tmp_path, name, capsys):
    # a built-in and its JSON config copy are one circuit: the same fixed
    # points, down to the sign of zero, and the same planes
    config = tmp_path / "copy.json"
    config.write_text(json.dumps(dict(_BUILTIN_BUILDERS[name]({}), name=name + "-json")))
    outputs = []
    for model, stem in ((name, "builtin"), (str(config), "copy")):
        out = tmp_path / f"{stem}.csv"
        code, stdout, stderr = run(["hyperplane", "--model", model, "--out", str(out)], capsys)
        assert (code, stderr) == (0, "")
        outputs.append((stdout.replace(str(out), "PLANES"), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_curvature_command(tmp_path, capsys):
    out = tmp_path / "kappa.csv"
    code, _, _ = run(["curvature", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                      "--t-end", "5.0", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,kappa1,kappa2"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(values) > 1 and np.all(np.isfinite(values))
    assert np.all(values[:, 1] >= 0)  # kappa_1 is a norm ratio


def test_curvature_matches_per_point_stacks(tmp_path, capsys):
    out = tmp_path / "kappa.csv"
    traj_out = tmp_path / "traj.csv"
    args = ["--model", "chua3-pwl", "--x0", "0.1,0.1,0.1", "--t-end", "3.0"]
    assert run(["curvature", *args, "--out", str(out)], capsys)[0] == 0
    assert run(["integrate", *args, "--out", str(traj_out)], capsys)[0] == 0
    model = get_model("chua3-pwl")
    rows = [line.split(",") for line in traj_out.read_text().splitlines()[1:]]
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        x = np.array([float(v) for v in row[1:4]])
        kappas = geometry.curvatures(derivative_stack(model, x, model.dim)).kappas
        assert line.split(",") == [row[0]] + [repr(float(k)) for k in kappas]


def test_curvature_writes_nan_rows_for_degenerate_stacks(tmp_path, capsys):
    # the motion stays in the plane x3 = 0, so d_3 lies in span(d_1, d_2)
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(CONFIGS["planar"]))
    out = tmp_path / "kappa.csv"
    assert run(["curvature", "--model", str(path), "--x0", "1,0,0", "--t-end", "1",
                "--out", str(out)], capsys)[0] == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) > 1 and all(row[1:] == ["nan", "nan"] for row in rows)


def test_curvature_reports_non_finite_rows(tmp_path, capsys):
    # every stack at a fixed point is degenerate, so every row is NaN and
    # counted on stdout; a run without such a row keeps the plain line
    out = tmp_path / "kappa.csv"
    code, stdout, stderr = run(["curvature", "--model", "chua3-pwl", "--x0", "0,0,0",
                                "--t-end", "1", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (0, f"11 samples -> {out} (11 non-finite rows)\n", "")
    code, stdout, stderr = run(["curvature", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                                "--t-end", "1", "--out", str(out)], capsys)
    rows = len(out.read_text().splitlines()) - 1
    assert (code, stdout, stderr) == (0, f"{rows} samples -> {out}\n", "")


def test_json_tables_write_non_finite_values_as_null(tmp_path, capsys):
    # degenerate stacks at a fixed point give NaN kappas
    kappa = tmp_path / "kappa.json"
    assert run(["curvature", "--model", "chua3-pwl", "--x0", "0,0,0", "--t-end", "1",
                "--format", "json", "--out", str(kappa)], capsys) == (
        0, f"11 samples -> {kappa} (11 non-finite rows)\n", "")
    rows = strict_json(kappa.read_text())["rows"]
    assert len(rows) == 11 and all(row[1:] == [None, None] for row in rows)
    # a stack that overflows gives NaN phi; the finite rows keep their numbers
    scan, csv_scan = tmp_path / "scan.json", tmp_path / "scan.csv"
    args = ["phi-scan", "--model", "gear5", "--grid", "x1=-1e200:1e200:3,x2=-1:1:2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fmt_name, path in (("json", scan), ("csv", csv_scan)):
            assert run(args + ["--format", fmt_name, "--out", str(path)], capsys) == (
                0, f"6 samples -> {path} (4 non-finite rows)\n", "")
    rows = strict_json(scan.read_text())["rows"]
    csv_rows = [line.split(",") for line in csv_scan.read_text().splitlines()[1:]]
    assert len(rows) == len(csv_rows) == 6
    for row, csv_row in zip(rows, csv_rows):
        assert [repr(v) if v is not None else "nan" for v in row] == csv_row
    assert sum(row[5] is None for row in rows) == 4
    write_table(scan, ["a", "b"], np.array([[np.inf, 1.0], [-np.inf, np.nan]]), "json")
    assert strict_json(scan.read_text())["rows"] == [[None, 1.0], [None, None]]


def test_phi_scan_reports_non_finite_rows_without_warnings(tmp_path, capsys):
    # an overflowing stack (1e200), or a finite stack whose determinants
    # overflow (1e40: inf - inf in the residual), is counted on stdout with no
    # numpy warning; a finite scan's line carries no count
    out = tmp_path / "scan.csv"
    for bound in ("1e200", "1e40"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(["phi-scan", "--model", "gear5", "--grid",
                                        f"x1=-{bound}:{bound}:3,x2=-1:1:2", "--out", str(out)],
                                       capsys)
        assert (code, stdout, stderr) == (0, f"6 samples -> {out} (4 non-finite rows)\n", "")
    code, stdout, stderr = run(["phi-scan", "--model", "gear5", "--grid",
                                "x1=-1:1:3,x2=-1:1:2", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (0, f"6 samples -> {out}\n", "")


def test_write_table_bytes(tmp_path):
    header = ["t", "x1", "region"]
    values, labels = np.array([[0.0, 0.1], [1.5, -2e-17]]), ["mid", "pos"]
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    write_table(csv_path, header, values, labels=labels)
    assert csv_path.read_bytes() == b"t,x1,region\n0.0,0.1,mid\n1.5,-2e-17,pos\n"
    write_table(csv_path, header, np.empty((0, 2)), labels=[])
    assert csv_path.read_bytes() == b"t,x1,region\n"
    write_table(json_path, header, values, "json", labels=labels)
    assert json_path.read_bytes() == (
        b'{\n "columns": [\n  "t",\n  "x1",\n  "region"\n ],\n "rows": [\n'
        b'  [\n   0.0,\n   0.1,\n   "mid"\n  ],\n  [\n   1.5,\n   -2e-17,\n   "pos"\n  ]\n'
        b' ]\n}\n')


def test_verify_gear_exit_code(capsys):
    code, out, _ = run(["verify", "--model", "gear5"], capsys)
    assert code == 0
    assert "first integral" in out
    assert "cofactor of product factor" in out
    assert "FAIL" not in out


def test_verify_contrast_draws_from_a_fixed_seed(capsys):
    # the singular-approximation contrast ignores --seed: with seed 94's draws
    # magnetoconvection5's ratio falls to 8.48, below the gate of 10
    outs = [run(["verify", "--model", "magnetoconvection5", "--seed", seed], capsys)
            for seed in ("0", "94")]
    contrast = [[line for line in out.splitlines() if "singular-approximation" in line]
                for _, out, _ in outs]
    assert [code for code, _, _ in outs] == [0, 0]
    assert len(contrast[0]) == 1 and contrast[0] == contrast[1]
    # the other checks do draw from --seed
    assert outs[0][1] != outs[1][1]


def test_verify_solves_fixed_points_once(monkeypatch):
    calls = []
    solve = models.fixed_points
    monkeypatch.setattr(models, "fixed_points",
                        lambda model, **kw: calls.append(model.name) or solve(model, **kw))
    assert all(r.passed for r in verify_model(get_model("chua3-pwl")))
    assert calls == ["chua3-pwl"]


@pytest.mark.parametrize("args", [["--model", "nonexistent", "--all"],
                                  ["--model", "chua3-pwl", "--all"], []],
                         ids=["unknown-model", "known-model", "neither"])
def test_verify_needs_exactly_one_of_model_or_all(args, capsys):
    # --all used to run every built-in and drop --model without a word
    code, out, err = run(["verify", *args], capsys)
    assert code == 1 and out == ""
    assert "config error: verify needs exactly one of --model NAME or --all" in err


def test_verify_rejects_config_with_builtin_name(tmp_path, capsys):
    # verify picks gear5's checks by name; on this 3-D circuit they died on x4
    config = tmp_path / "g.json"
    config.write_text(json.dumps(dict(_BUILTIN_BUILDERS["chua3-pwl"]({}), name="gear5")))
    code, out, err = run(["verify", "--model", str(config)], capsys)
    assert code == 1 and out == ""
    assert "config error: config name 'gear5' is a built-in model's" in err
    assert "Traceback" not in err


def test_config_error_exit_1(capsys):
    code, _, err = run(["integrate", "--model", "nope", "--x0", "0,0,0",
                        "--t-end", "1", "--out", "/tmp/x.csv"], capsys)
    assert code == 1
    assert "config error" in err

    code, _, err = run(["integrate", "--model", "chua3-pwl", "--x0", "0,0",
                        "--t-end", "1", "--out", "/tmp/x.csv"], capsys)
    assert code == 1


def test_numerical_failure_exit_2_no_partial_output(tmp_path, capsys):
    out = tmp_path / "blowup.csv"
    code, _, err = run(["integrate", "--model", "gear5", "--x0", "1,0,1,0,0",
                        "--t-end", "5.0", "--out", str(out)], capsys)
    assert code == 2
    assert "numerical failure" in err
    assert not out.exists()  # partial outputs are not left behind


def test_phi_scan_repeat_run_is_byte_identical(tmp_path, capsys):
    args = ["phi-scan", "--model", "chua4-cubic",
            "--grid", "x1=-2:2:7,x2=-1:1:7", "--slice", "x3=0,x4=0"]
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run(args + ["--out", str(out1)], capsys)[0] == 0
    assert run(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_model_config_file_path(tmp_path, capsys):
    config = {"name": "toy", "dim": 2, "params": {"k": 2.0},
              "rhs": ["-k*x1", "k*x1 - x2"]}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "toy.csv"
    code, _, _ = run(["integrate", "--model", str(path), "--x0", "1,0",
                      "--t-end", "1.0", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,x1,x2,region"


# malformed configs, each with what its config error must name
BAD_CONFIGS = {
    "rhs-string": (dict(ROTATION, rhs="12"), "rhs"),
    "rhs-number": (dict(ROTATION, rhs=[5, "x1"]), "rhs"),
    "params-list": (dict(ROTATION, params=[1]), "params"),
    "guesses-number": (dict(ROTATION, fixed_point_guesses=5), "fixed_point_guesses"),
    "guesses-null": (dict(ROTATION, fixed_point_guesses=[[None, 0]]), "fixed_point_guesses"),
    "param-x1": (dict(ROTATION, params={"x1": 3.0}), "parameter 'x1'"),
    "param-pwl": (dict(ROTATION, params={"pwl": 3.0}, rhs=["-x2", "pwl(x1; 1, 2)"]),
                  "parameter 'pwl'"),
    "name-list": (dict(ROTATION, name=["c"]), "name"),
    "list": ([1, 2], "JSON object"),
    "string": ("chua", "JSON object"),
}


@pytest.mark.parametrize("config, field", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_malformed_config_is_config_error(config, field, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    scan = ["--grid", "x1=-1:1:3,x2=-1:1:3", "--out", str(tmp_path / "scan.csv")]
    for command, *args in (["phi-scan", *scan], ["verify"]):
        code, stdout, err = run([command, "--model", str(path), *args], capsys)
        assert (code, stdout) == (1, "") and "Traceback" not in err
        assert "config error" in err and field in err
    assert list(tmp_path.iterdir()) == [path]


def _chain_config(kind, depth):
    """A 2-D config whose first rhs is `depth` levels deep: -x2 plus a sum of
    0.001*x1 terms, or plus 0.5 times a product of x1 factors (whose
    Jacobian trees are about twice as deep as the rhs)."""
    if kind == "sum":
        first = " + ".join(["0.001*x1"] * (depth - 2)) + " - x2"
    else:
        first = "-x2 + 0.5*" + "*".join(["x1"] * (depth - 2))
    return {"name": f"{kind}-chain", "dim": 2, "params": {}, "rhs": [first, "x1 - 0.1*x2"],
            "fixed_point_guesses": [[0.0, 0.0]]}


@pytest.mark.parametrize("kind", ["sum", "product"])
def test_config_at_the_depth_cap_runs_every_command(kind, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_chain_config(kind, models.MAX_TREE_DEPTH)))
    assert models._tree_depth(load_model(str(path)).rhs_exprs) == models.MAX_TREE_DEPTH
    grid = ["--grid", "x1=-0.9:0.9:5,x2=-0.9:0.9:5"]
    trajectory = ["--x0", "0.3,0.2", "--t-end", "1"]
    for command, *args in (["integrate", *trajectory], ["curvature", *trajectory],
                           ["phi-scan", *grid], ["phi-scan", *trajectory],
                           ["manifold", *grid]):
        code, _, err = run([command, "--model", str(path), *args,
                            "--out", str(tmp_path / "out.csv")], capsys)
        assert (code, err) == (0, ""), command
    # no real hyperplane exists; verify's checks run through
    code, _, err = run(["hyperplane", "--model", str(path)], capsys)
    assert code == 2 and "no real eigenvalue" in err
    assert run(["verify", "--model", str(path)], capsys)[0] in (0, 1)


def test_config_over_the_depth_cap_is_config_error(tmp_path, capsys):
    # deep enough to exhaust the recursion limit in every recursive walker
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_chain_config("sum", 600)))
    for command, *args in (["phi-scan", "--grid", "x1=-1:1:3,x2=-1:1:3"],
                           ["integrate", "--x0", "0.3,0.2", "--t-end", "1"]):
        code, stdout, err = run([command, "--model", str(path), *args,
                                 "--out", str(tmp_path / "out.csv")], capsys)
        assert (code, stdout) == (1, "")
        assert err == ("flowcurv: config error: an rhs tree is 600 levels deep, "
                       f"over the cap of {models.MAX_TREE_DEPTH}\n")
    assert list(tmp_path.iterdir()) == [path]
    cap = models.MAX_TREE_DEPTH
    with pytest.raises(models.ModelError, match=f"{cap + 1} levels deep, over the cap of {cap}"):
        load_model(_chain_config("product", cap + 1))


def test_negative_seed_is_config_error(capsys):
    # numpy's generators take no negative seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "chua3-pwl", "--seed", "-1"])
    assert exc.value.code == 1
    assert "config error: argument --seed: must be an integer >= 0" in capsys.readouterr().err


BAD_NUMBERS = {
    "grid-one-node": ["manifold", "--model", "chua3-pwl", "--grid", "x1=-2:2:1,x2=-1:1:5"],
    "grid-nan-bound": ["manifold", "--model", "chua3-pwl", "--grid", "x1=nan:2:5,x2=-1:1:5"],
    "grid-zero-nodes": ["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-2:2:0,x2=-1:1:5"],
    "slice-inf": ["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-2:2:3,x2=-1:1:3",
                  "--slice", "x3=inf"],
    "x0-nan": ["integrate", "--model", "chua3-pwl", "--x0", "nan,0,0", "--t-end", "1"],
    "t-end-negative": ["integrate", "--model", "chua3-pwl", "--x0", "0.1,0,0", "--t-end", "-1"],
    "rel-tol-zero": ["integrate", "--model", "chua3-pwl", "--x0", "0.1,0,0", "--t-end", "1",
                     "--rel-tol", "0"],
    "abs-tol-nan": ["curvature", "--model", "chua3-pwl", "--x0", "0.1,0,0", "--t-end", "1",
                    "--abs-tol", "nan"],
    **{f"tol-rel-{value}": ["manifold", "--model", "chua3-pwl", "--grid",
                            "x1=-3:3:12,x2=-1:1:12", "--slice", "x3=0", "--tol-rel", value]
       for value in ("nan", "inf", "-1")},
    # an option the chosen phi-scan mode would ignore
    "phi-scan-x0-slice": ["phi-scan", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                          "--t-end", "1", "--slice", "x3=5"],
    "phi-scan-grid-t-end": ["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-2:2:3,x2=-1:1:3",
                            "--t-end", "5"],
}


@pytest.mark.parametrize("args", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numeric_arguments_are_config_errors(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    try:
        code = main(args + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects a bad --t-end or tolerance itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()


DUPLICATE_COORDINATES = {
    "grid-axis-sliced": ["--grid", "x1=-1:1:3,x2=-1:1:3", "--slice", "x1=5"],
    "grid-axis-twice": ["--grid", "x1=-1:1:3,x1=-3:3:5,x2=-1:1:3"],
    "slice-twice": ["--grid", "x1=-1:1:3,x2=-1:1:3", "--slice", "x3=0,x3=7"],
}


@pytest.mark.parametrize("command", ["phi-scan", "manifold"])
@pytest.mark.parametrize("args", DUPLICATE_COORDINATES.values(),
                         ids=DUPLICATE_COORDINATES.keys())
def test_coordinate_given_twice_is_config_error(command, args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, stdout, err = run([command, "--model", "chua3-pwl", *args, "--out", str(out)], capsys)
    assert code == 1 and "config error" in err and not stdout
    assert not out.exists()


def test_zero_tol_rel_is_accepted(tmp_path, capsys):
    out = tmp_path / "zs.csv"
    code, stdout, _ = run(["manifold", "--model", "chua3-pwl", "--grid", "x1=-3:3:12,x2=-1:1:12",
                           "--slice", "x3=0", "--tol-rel", "0", "--out", str(out)], capsys)
    assert code == 0 and "manifold points" in stdout and out.exists()


def test_config_beyond_the_derivative_cap_is_config_error(tmp_path, capsys):
    # phi needs n + 1 time derivatives and the stacks stop at MAX_ORDER = 12
    def decay(dim):
        return {"name": "decay", "dim": dim, "params": {}, "rhs": [f"-x{i + 1}" for i in range(dim)]}

    assert load_model(decay(11)).dim == 11
    path = tmp_path / "decay12.json"
    path.write_text(json.dumps(decay(12)))
    grid = ["--grid", "x1=-1:1:3,x2=-1:1:3", "--out", str(tmp_path / "out.csv")]
    for command, *args in (["phi-scan", *grid], ["manifold", *grid], ["verify"]):
        code, stdout, err = run([command, "--model", str(path), *args], capsys)
        assert (code, stdout) == (1, "") and "Traceback" not in err
        assert "config error: dim 12 exceeds the cap of 11" in err
    assert list(tmp_path.iterdir()) == [path]


def test_model_error_after_loading_is_config_error(tmp_path, capsys):
    # the config loads, but its one fixed-point guess has a singular Jacobian
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "c", "dim": 2, "params": {}, "rhs": ["x1^2 - 1", "x2"],
                                "fixed_point_guesses": [[0, 0]]}))
    for command in ("verify", "hyperplane"):
        assert run([command, "--model", str(path)], capsys) == (
            1, "", "flowcurv: config error: singular Jacobian in fixed-point Newton iteration\n")


def test_constant_rhs_component_commands(tmp_path, capsys):
    # a constant rhs component used to break every derivative stack
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({"name": "drift", "dim": 2, "params": {}, "rhs": ["1", "x1"]}))
    scan, kappa = tmp_path / "scan.csv", tmp_path / "kappa.csv"
    assert run(["phi-scan", "--model", str(path), "--grid", "x1=-1:1:3,x2=-1:1:3",
                "--out", str(scan)], capsys)[0] == 0
    rows = [line.split(",") for line in scan.read_text().splitlines()[1:]]
    assert len(rows) == 9 and all(float(row[2]) == 1.0 for row in rows)  # phi = 1
    assert run(["curvature", "--model", str(path), "--x0", "0,0", "--t-end", "1",
                "--out", str(kappa)], capsys)[0] == 0


def _scan_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _assert_scan_matches_library(model, header, table):
    n = model.dim
    assert header[n:] == ["phi", "lie", "cofactor_residual"]
    states = table[:, :n].T
    batch = manifold_sample(model, states)
    for j, name in enumerate(("phi", "lie", "cofactor_residual")):
        np.testing.assert_array_equal(table[:, n + j], getattr(batch, name))
    for k in range(table.shape[0]):
        s = manifold_sample(model, states[:, k])
        assert list(table[k, n:]) == [s.phi, s.lie, s.cofactor_residual]


def test_phi_scan_columns_are_manifold_sample(tmp_path, capsys):
    # csv floats are shortest round-trip decimals, so parsing them back is exact
    out = tmp_path / "grid.csv"
    assert run(["phi-scan", "--model", "chua5-pwl", "--grid", "x1=-4:4:15,x2=-1:1:12",
                "--slice", "x3=0.1,x4=0,x5=-0.2", "--out", str(out)], capsys)[0] == 0
    _assert_scan_matches_library(get_model("chua5-pwl"), *_scan_table(out))

    out = tmp_path / "traj.csv"
    assert run(["phi-scan", "--model", "chua4-cubic", "--x0", "0.1,0.1,0.1,0.1",
                "--t-end", "5.0", "--out", str(out)], capsys)[0] == 0
    _assert_scan_matches_library(get_model("chua4-cubic"), *_scan_table(out))


def test_phi_scan_memory_does_not_grow_with_the_grid(tmp_path):
    # each share builds the states and the sample of one chunk of at most
    # 2,048 columns, and the next chunk only once the writer has taken this
    # one, so it never holds an array of its whole share and its memory is
    # one chunk's at any grid size (CI's RSS step scans 1000 x 1000 nodes).
    # Each process logs what it builds and writes, in order, to one file.
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(target, name, width):
        def wrapper(*args, **kwargs):
            result = target(*args, **kwargs)
            os.write(log, f"{os.getpid()} {name} {width(args, result)}\n".encode())
            return result
        return wrapper

    try:
        with pytest.MonkeyPatch.context() as mp:
            for module, name, width in ((manifold, "grid_states", lambda a, r: r[0].shape[1]),
                                        (manifold, "manifold_sample", lambda a, r: a[1].shape[1]),
                                        (ioutil, "csv_rows", lambda a, r: len(a[0]))):
                mp.setattr(module, name, logged(getattr(module, name), name, width))
            # 16,900 nodes: nine chunks, four in this process's share, five in a worker's
            outcome, _, _, forks = _forked_run(
                ["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-4:4:130,x2=-1:1:130",
                 "--out", str(tmp_path / "scan.csv")], tmp_path, cpus=2)
    finally:
        os.close(log)
    assert (outcome, forks) == (0, 1)

    def steps(widths):
        return [f"{name} {w}" for w in widths
                for name in ("grid_states", "manifold_sample", "csv_rows")]

    logs = [line.split(" ", 1) for line in (tmp_path / "log").read_text().splitlines()]
    assert [step for pid, step in logs if pid == str(os.getpid())] == steps([2048] * 4)
    assert [step for pid, step in logs if pid != str(os.getpid())] == steps([2048] * 4 + [516])


def test_phi_scan_share_reuses_one_stack_buffer(tmp_path):
    # each share allocates its coefficient array once: every chunk's stack,
    # the last and partial one included, fills the memory of the share's
    # first, in this process and in a forked worker.  Each process logs
    # every stack's width and whether it shares that memory.
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    stack, first = manifold.derivative_stack, {}

    def recorded(*args, **kwargs):
        result = stack(*args, **kwargs)
        derivs = result.derivs
        shared = np.shares_memory(derivs, first.setdefault(os.getpid(), derivs))
        os.write(log, f"{os.getpid()} {derivs.shape[-1]} {shared}\n".encode())
        return result

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manifold, "derivative_stack", recorded)
            # 16,900 nodes: four chunks in this process's share, five in a worker's
            outcome, _, _, forks = _forked_run(
                ["phi-scan", "--model", "chua3-pwl", "--grid", "x1=-4:4:130,x2=-1:1:130",
                 "--out", str(tmp_path / "scan.csv")], tmp_path, cpus=2)
    finally:
        os.close(log)
    assert (outcome, forks) == (0, 1)
    logs = [line.split(" ", 1) for line in (tmp_path / "log").read_text().splitlines()]
    assert [step for pid, step in logs if pid == str(os.getpid())] == ["2048 True"] * 4
    assert [step for pid, step in logs if pid != str(os.getpid())] == (["2048 True"] * 4
                                                                       + ["516 True"])


# -- phi-scan's forked shares ---------------------------------------------------

def _forked_run(argv, directory, cpus):
    """(outcome, stdout, stderr, forks) of one CLI run in `directory` with `cpus` usable
    CPUs; the outcome is the exit code, or the repr of an uncaught RuntimeError."""
    forks, fork = [], os.fork
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        mp.chdir(directory)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        try:
            outcome = main(argv)
        except RuntimeError as err:
            outcome = repr(err)
    # no temp or part file in `directory`, and no child process, is left behind
    assert [p.name for p in directory.iterdir() if p.name.startswith(".flowcurv-")] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome, stdout.getvalue(), stderr.getvalue(), len(forks)


def _scan_run(args, out, cpus):
    """(outcome, stdout, stderr, file bytes or None, forks) of one phi-scan (`_forked_run`)."""
    outcome, stdout, stderr, forks = _forked_run(["phi-scan"] + args + ["--out", str(out)],
                                                 out.parent, cpus)
    return outcome, stdout, stderr, out.read_bytes() if out.exists() else None, forks


# phi-scans over 16,899 grid nodes and 20,858 trajectory samples: counts
# that are not a multiple of the 2,048-column chunk, long enough for two shares
SHARED_SCANS = {
    "grid": (["--model", "chua5-pwl", "--grid", "x1=-4:4:131,x2=-1:1:129",
              "--slice", "x3=0.1,x4=0,x5=0"],
             lambda model: grid_states(5, {0: (-4.0, 4.0, 131), 1: (-1.0, 1.0, 129)},
                                       {2: 0.1})[0]),
    "trajectory": (["--model", "chua5-pwl", "--x0", "0.1,0.1,0.1,0.1,0.1", "--t-end", "12"],
                   lambda model: integrate(model, [0.1] * 5, 12.0).states.T),
}


@pytest.fixture(scope="module")
def shared_scans(tmp_path_factory):
    """Per SHARED_SCANS case, made once: its row count, the row writer's bytes
    for one batched sample, its runs at one and two shares (`_scan_run`), the output."""
    results = {}
    model = get_model("chua5-pwl")
    for key, (args, states) in SHARED_SCANS.items():
        directory = tmp_path_factory.mktemp(key)
        out, expected = directory / "cli.csv", directory / "oracle.csv"
        header, rows = _scan_rows(model, states(model))
        _row_writer(expected, header, rows, "csv")
        results[key] = (len(rows), expected.read_bytes(),
                        {cpus: _scan_run(args, out, cpus) for cpus in (1, 2)}, out)
    return results


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", SHARED_SCANS)
def test_phi_scan_shares_match_row_writer(case, cpus, shared_scans):
    # in one share and in two, the file is the rows of one batched sample and
    # the run prints the same line, with nothing on stderr
    rows, expected, runs, out = shared_scans[case]
    assert rows % 2048 != 0
    assert runs[cpus] == (0, f"{rows} samples -> {out}\n", "", expected, cpus - 1)


def test_phi_scan_chunks_match_one_batch(shared_scans):
    # the one-share grid scan spans nine chunks, the last one partial, and its
    # file is the row writer's over one batched manifold_sample
    rows, expected, runs, _ = shared_scans["grid"]
    assert (rows // 2048, rows % 2048) == (8, 515)
    assert runs[1][3] == expected


FORKED_SCANS = {
    # 22,650 nodes in three shares, each holding non-finite rows (x1 != 0 overflows)
    "gear5-non-finite": (["--model", "gear5", "--grid", "x1=-1e40:1e40:151,x2=-1:1:150"], 3),
    "json": (["--model", "chua5-pwl", "--grid", "x1=-4:4:130,x2=-1:1:130", "--format", "json"],
             1),
}


# the SHARED_SCANS cases of test_forked_phi_scan_matches_one_share, by its ids
FORKED_SHARED = {"chua5-grid": "grid", "trajectory": "trajectory"}


@pytest.mark.parametrize("case", [*FORKED_SHARED, *FORKED_SCANS])
def test_forked_phi_scan_matches_one_share(case, tmp_path, request):
    # the SHARED_SCANS cases reuse the module's runs at one and two shares
    if case in FORKED_SHARED:
        _, _, runs, _ = request.getfixturevalue("shared_scans")[FORKED_SHARED[case]]
        one, forked, shares = runs[1], runs[2], 2
    else:
        args, shares = FORKED_SCANS[case]
        out = tmp_path / "scan.out"
        one = _scan_run(args, out, cpus=1)
        forked = _scan_run(args, out, cpus=3)
    assert one[0] == 0 and one[4] == 0
    assert forked[4] == shares - 1
    assert forked[:4] == one[:4]
    if case == "gear5-non-finite":
        assert one[1].endswith(" (22500 non-finite rows)\n")


def _failing(target, error, where):
    """A stand-in for `target` that raises `error` in the test's process
    ("parent"), in every other process ("worker") or everywhere ("any")."""
    pid = os.getpid()

    def fail(*args, **kwargs):
        if where == "any" or (os.getpid() == pid) == (where == "parent"):
            raise error
        return target(*args, **kwargs)
    return fail


# (where the stand-in goes, the error it raises, the one-share run's outcome)
SCAN_FAILURES = {
    "numerical": (manifold, "manifold_sample", FloatingPointError("overflow"), 2),
    "write": (ioutil, "csv_rows", OSError(errno.ENOSPC, "No space left on device"), 1),
    "crash": (manifold, "manifold_sample", RuntimeError("a defect"),
              repr(RuntimeError("a defect"))),
}


@pytest.mark.parametrize("where", ["worker", "parent"])
@pytest.mark.parametrize("failure", SCAN_FAILURES.values(), ids=SCAN_FAILURES.keys())
def test_failed_phi_scan_share_fails_like_one_share(failure, where, tmp_path, monkeypatch):
    # a failure in any share gives the one-share run's exit code and message,
    # no output and no file or process left behind
    module, name, error, outcome = failure
    args, _ = SHARED_SCANS["grid"]
    out = tmp_path / "scan.csv"
    target = getattr(module, name)
    monkeypatch.setattr(module, name, _failing(target, error, "any"))
    one = _scan_run(args, out, cpus=1)
    monkeypatch.setattr(module, name, _failing(target, error, where))
    forked = _scan_run(args, out, cpus=3)
    assert (one[0], one[1], one[3]) == (outcome, "", None)
    assert forked[:4] == one[:4] and forked[4] == 1


def test_phi_scan_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    pid = os.getpid()
    sample = manifold.manifold_sample
    monkeypatch.setattr(manifold, "manifold_sample",
                        lambda *a, **k: sample(*a, **k) if os.getpid() == pid else os._exit(3))
    args, _ = SHARED_SCANS["grid"]
    outcome, stdout, _, data, forks = _scan_run(args, tmp_path / "scan.csv", cpus=3)
    assert forks == 1 and (stdout, data) == ("", None)
    assert "ended without a result" in outcome


# -- verify --all's forked shares --------------------------------------------------

@pytest.fixture(scope="module")
def one_share_verify(tmp_path_factory):
    """`verify --all --seed SEED --format FORMAT` in one share (`_forked_run`),
    run once per seed and format for the module."""
    directory = tmp_path_factory.mktemp("verify")
    return functools.cache(lambda seed, fmt_name: _forked_run(
        ["verify", "--all", "--seed", seed, "--format", fmt_name], directory, cpus=1))


# (seed, format); at seed 1913053642 a Darboux check fails (exit 2)
VERIFY_RUNS = [("0", "json"), ("0", "text"), ("1913053642", "json"), ("1913053642", "text"),
               ("1", "text")]


@pytest.mark.parametrize("seed, fmt_name", VERIFY_RUNS, ids=[f"{s}-{f}" for s, f in VERIFY_RUNS])
def test_forked_verify_all_matches_one_share(seed, fmt_name, tmp_path, one_share_verify):
    # seven models in three shares; a run where every check passes leaves
    # stderr empty, and its JSON is strict
    one = one_share_verify(seed, fmt_name)
    forked = _forked_run(["verify", "--all", "--seed", seed, "--format", fmt_name], tmp_path, 3)
    passed = seed != "1913053642"
    assert one[0] == (0 if passed else 2) and one[3] == 0
    assert forked[:3] == one[:3] and forked[3] == 2
    if passed:
        assert one[2] == ""
    if fmt_name == "json":
        passes = {rec["passed"] for rec in strict_json(one[1])}
        assert passes == ({True} if passed else {True, False})


def _verify_failing(errors, where):
    """A stand-in for verify_model that raises errors[model name] where `_failing` says."""
    target = verify.verify_model
    failing = {name: _failing(target, error, where) for name, error in errors.items()}
    return lambda model, **kw: failing.get(model.name, target)(model, **kw)


# (the error raised at a model, the one-share run's outcome)
VERIFY_FAILURES = {
    "numerical": (spectral.SpectralError("no usable eigenstructure"), 2),
    "crash": (RuntimeError("a defect"), repr(RuntimeError("a defect"))),
}


@pytest.mark.parametrize("fmt_name", ["text", "json"])
# with three shares chua5-pwl is in a worker's share and chua5-cubic in the parent's
@pytest.mark.parametrize("where, name", [("worker", "chua5-pwl"), ("parent", "chua5-cubic")])
@pytest.mark.parametrize("failure", VERIFY_FAILURES.values(), ids=VERIFY_FAILURES.keys())
def test_failed_verify_share_fails_like_one_share(failure, where, name, fmt_name, tmp_path,
                                                  monkeypatch, one_share_verify):
    # a one-share run prints the models before the failed one (text), then
    # stops with its exit code and message; every share count does the same
    error, outcome = failure
    text = one_share_verify("0", "text")[1]
    before = text[:text.index(f"== {name}\n")] if fmt_name == "text" else ""
    monkeypatch.setattr(verify, "verify_model", _verify_failing({name: error}, where))
    forked = _forked_run(["verify", "--all", "--format", fmt_name], tmp_path, cpus=3)
    assert forked == (outcome, before, "flowcurv: numerical failure: no usable eigenstructure\n"
                      if outcome == 2 else "", 2)


def test_verify_raises_the_first_failure_in_registry_order(tmp_path, monkeypatch,
                                                           one_share_verify):
    # chua4-cubic (a worker's share) fails before magnetoconvection5 (the
    # parent's); one share prints the models before it
    text = one_share_verify("0", "text")[1]
    errors = {"chua4-cubic": spectral.SpectralError("first"),
              "magnetoconvection5": RuntimeError("later")}
    monkeypatch.setattr(verify, "verify_model", _verify_failing(errors, "any"))
    one = _forked_run(["verify", "--all"], tmp_path, cpus=1)
    forked = _forked_run(["verify", "--all"], tmp_path, cpus=3)
    assert one == (2, text[:text.index("== chua4-cubic\n")],
                   "flowcurv: numerical failure: first\n", 0)
    assert forked[:3] == one[:3] and forked[3] == 2


def test_verify_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    pid = os.getpid()
    target = verify.verify_model
    monkeypatch.setattr(verify, "verify_model",
                        lambda *a, **kw: target(*a, **kw) if os.getpid() == pid else os._exit(3))
    outcome, stdout, _, forks = _forked_run(["verify", "--all"], tmp_path, cpus=3)
    assert forks == 2 and stdout == ""
    assert "ended without a result" in outcome


def test_verify_one_model_never_forks(tmp_path):
    outcome, stdout, _, forks = _forked_run(["verify", "--model", "gear5"], tmp_path, cpus=3)
    assert (outcome, forks) == (0, 0) and stdout.startswith("== gear5\n")


def test_unwritable_out_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "t.csv"
    code, _, err = run(["integrate", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                        "--t-end", "1", "--out", str(missing)], capsys)
    assert code == 1 and "config error" in err and str(missing) in err
    code, text, err = run(["hyperplane", "--model", "chua3-pwl", "--out", str(missing)], capsys)
    assert code == 1 and "config error" in err and "Pi(X)" in text
    # the rename onto a directory fails after the temp file exists
    code, _, err = run(["curvature", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1",
                        "--t-end", "1", "--out", str(tmp_path)], capsys)
    assert code == 1 and "config error" in err
    assert [p.name for p in tmp_path.iterdir()] == []


def test_hyperplane_solves_fixed_points_once(monkeypatch, capsys):
    calls = []
    solve = models.fixed_points
    monkeypatch.setattr(models, "fixed_points",
                        lambda model, **kw: calls.append(model.name) or solve(model, **kw))
    for name in ("chua4-cubic", "chua3-pwl"):  # no outer-branch point, outer-branch points
        assert run(["hyperplane", "--model", name], capsys)[0] == 0
    assert calls == ["chua4-cubic", "chua3-pwl"]


# -- byte oracle: the row-by-row writer the column writer replaced -------------

def _row_writer(path, header, rows, fmt_name):
    def fmt(value):
        if isinstance(value, str):
            return value
        return "" if value is None else repr(float(value))

    if fmt_name == "csv":
        text = "".join([",".join(header) + "\n"] +
                       [",".join(fmt(v) for v in row) + "\n" for row in rows])
    else:
        # strict JSON: a NaN or infinite number is null
        payload = {"columns": list(header),
                   "rows": [[v if isinstance(v, str) else
                             float(v) if math.isfinite(v) else None for v in row]
                            for row in rows]}
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    path.write_text(text, encoding="utf-8")


def _label(region):
    if region is None:
        return ""
    return region if isinstance(region, str) else "/".join(region)


def _integrate_rows(model, x0, t_end):
    traj = integrate(model, x0, t_end, rel_tol=1e-9, abs_tol=1e-12)
    header = ["t"] + [f"x{i + 1}" for i in range(model.dim)] + ["region"]
    return header, [[t] + list(x) + [_label(model.classify(x))]
                    for t, x in zip(traj.times, traj.states)]


def _scan_rows(model, states):
    s = manifold_sample(model, states)
    header = [f"x{i + 1}" for i in range(model.dim)] + ["phi", "lie", "cofactor_residual"]
    return header, [list(states[:, k]) + [s.phi[k], s.lie[k], s.cofactor_residual[k]]
                    for k in range(states.shape[1])]


def _manifold_rows(model, axes, slices):
    zs = zero_set_grid(model, axes, slices, tol_rel=1e-9)
    header = [f"x{i + 1}" for i in range(model.dim)] + ["phi", "region"]
    return header, [list(zs.points[k]) + [zs.phi_values[k],
                                          _label(zs.regions[k]) if zs.regions else ""]
                    for k in range(len(zs))]


def _curvature_rows(model, x0, t_end):
    traj = integrate(model, x0, t_end, rel_tol=1e-9, abs_tol=1e-12)
    kappas = geometry.curvatures(derivative_stack(model, traj.states.T, model.dim)).kappas
    header = ["t"] + [f"kappa{i + 1}" for i in range(model.dim - 1)]
    return header, [[t] + list(k) for t, k in zip(traj.times, kappas)]


def _hyperplane_rows(model):
    fps = fixed_points(model)
    fps = [fp for fp in fps if fp.region in ("pos", "neg")] or fps
    header = [f"c{i + 1}" for i in range(model.dim)] + ["offset"]
    return header, [tls_hyperplane(model, fp).csv_row() for fp in fps]


CONFIGS = {
    "two": TWO_PWL,
    "circuit-two": CHUA3_TWO_PWL,
    "powers": CHUA3_POWERS,
    "planar": {"name": "planar", "dim": 3, "params": {}, "rhs": ["-x2", "x1", "0"]},
    # a constant pwl argument: every state gets the one label "pos"
    "const": {"name": "const-pwl", "dim": 2, "params": {}, "rhs": ["pwl(2; 1, 2) - x1", "-x2"]},
}
SCAN_GRID = {0: (-4.0, 4.0, 70), 1: (-1.0, 1.0, 65)}  # 4,550 nodes: two write blocks

# (CLI arguments, rows builder); "@key" names a CONFIGS model file
ORACLE_CASES = {
    "integrate-two-pwl": (
        ["integrate", "--model", "@two", "--x0", "1.5,0.5,0.3", "--t-end", "1.4"],
        lambda load: _integrate_rows(load("@two"), [1.5, 0.5, 0.3], 1.4)),
    # 2,445 rows, over two write blocks, labelled "pos/mid" and the like
    "integrate-two-pwl-blocks": (
        ["integrate", "--model", "@circuit-two", "--x0", "0.1,0.1,0.1", "--t-end", "30"],
        lambda load: _integrate_rows(load("@circuit-two"), [0.1] * 3, 30.0)),
    "integrate-smooth": (
        ["integrate", "--model", "chua4-cubic", "--x0", "0.1,0.1,0.1,0.1", "--t-end", "3"],
        lambda load: _integrate_rows(load("chua4-cubic"), [0.1] * 4, 3.0)),
    "integrate-pwl": (
        ["integrate", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1", "--t-end", "20"],
        lambda load: _integrate_rows(load("chua3-pwl"), [0.1] * 3, 20.0)),
    "integrate-powers": (
        ["integrate", "--model", "@powers", "--x0", "0.1,0.1,0.1", "--t-end", "20"],
        lambda load: _integrate_rows(load("@powers"), [0.1] * 3, 20.0)),
    "integrate-constant-pwl": (
        ["integrate", "--model", "@const", "--x0", "1,1", "--t-end", "2"],
        lambda load: _integrate_rows(load("@const"), [1.0, 1.0], 2.0)),
    "phi-scan-grid": (
        ["phi-scan", "--model", "chua5-pwl", "--grid", "x1=-4:4:70,x2=-1:1:65",
         "--slice", "x3=0,x4=0,x5=0"],
        lambda load: _scan_rows(load("chua5-pwl"), grid_states(5, SCAN_GRID, {})[0])),
    "phi-scan-powers": (
        ["phi-scan", "--model", "@powers", "--grid", "x1=-3:3:60,x2=-1:1:40", "--slice", "x3=0"],
        lambda load: _scan_rows(load("@powers"), grid_states(
            3, {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 40)}, {})[0])),
    # coordinates where the formatter's notation or digit count changes
    "phi-scan-boundaries": (
        ["phi-scan", "--model", "chua3-pwl", "--grid",
         "x1=-1e-05:1e-05:5,x2=9999999999999998:1e16:3", "--slice", "x3=0.0001"],
        lambda load: _scan_rows(load("chua3-pwl"), grid_states(
            3, {0: (-1e-05, 1e-05, 5), 1: (9999999999999998.0, 1e16, 3)}, {2: 0.0001})[0])),
    "phi-scan-trajectory": (
        ["phi-scan", "--model", "chua4-cubic", "--x0", "0.1,0.1,0.1,0.1", "--t-end", "2"],
        lambda load: _scan_rows(load("chua4-cubic"), integrate(
            load("chua4-cubic"), [0.1] * 4, 2.0, rel_tol=1e-9, abs_tol=1e-12).states.T)),
    "manifold-two-pwl": (
        ["manifold", "--model", "@two", "--grid", "x1=-3:3:20,x2=-2:2:20", "--slice", "x3=0.5"],
        lambda load: _manifold_rows(load("@two"), {0: (-3.0, 3.0, 20), 1: (-2.0, 2.0, 20)},
                                    {2: 0.5})),
    "manifold-smooth": (
        ["manifold", "--model", "chua4-cubic", "--grid", "x1=-3:3:8,x2=-1:1:8,x3=-3:3:8"],
        lambda load: _manifold_rows(load("chua4-cubic"), {0: (-3.0, 3.0, 8), 1: (-1.0, 1.0, 8),
                                                          2: (-3.0, 3.0, 8)}, {})),
    "manifold-empty": (
        ["manifold", "--model", "chua3-pwl", "--grid", "x1=0.1:0.2:3,x2=0.1:0.2:3"],
        lambda load: _manifold_rows(load("chua3-pwl"), {0: (0.1, 0.2, 3), 1: (0.1, 0.2, 3)}, {})),
    "curvature-pwl": (
        ["curvature", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1", "--t-end", "5"],
        lambda load: _curvature_rows(load("chua3-pwl"), [0.1] * 3, 5.0)),
    "curvature-nan": (
        ["curvature", "--model", "@planar", "--x0", "1,0,0", "--t-end", "1"],
        lambda load: _curvature_rows(load("@planar"), [1.0, 0.0, 0.0], 1.0)),
    "hyperplane": (
        ["hyperplane", "--model", "chua5-pwl"],
        lambda load: _hyperplane_rows(load("chua5-pwl"))),
}


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_table_commands_match_row_writer(case, fmt_name, tmp_path, capsys):
    args, build = case
    for key, config in CONFIGS.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(config))

    def path(name):
        return str(tmp_path / f"{name[1:]}.json") if name.startswith("@") else name

    out, expected = tmp_path / f"cli.{fmt_name}", tmp_path / f"oracle.{fmt_name}"
    assert run([path(a) for a in args] + ["--format", fmt_name, "--out", str(out)],
               capsys)[0] == 0
    header, rows = build(lambda name: load_model(path(name)))
    _row_writer(expected, header, rows, fmt_name)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_matches_row_writer(fmt_name, tmp_path):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, np.inf, -np.inf,
               np.nan, 0.1, 1 / 3, 2.5e-17, 123456789012345.67,
               # where the formatter's notation, digit count or rounding interval changes
               1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0,
               1.2345678901234567e16, 2.0**53, 2.0**-1022, 1e22, 1e23, 5e-324 * 3]
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-300, 300, (9000, 3))
    values.flat[rng.integers(0, values.size, 600)] = rng.choice(special, 600)
    values[:len(special), 0] = special
    # labelled rows over several 2,048-row blocks, led by short-decimal times
    values = np.column_stack([np.arange(len(values)) / 100, values])
    labels = [("neg", "mid", "pos", "mid/pos", "")[k % 5] for k in range(len(values))]
    header = ["t", "a", "b", "c", "region"]
    for table, row_labels in ((values, labels), (values[:1], labels[:1]), (values[:0], [])):
        out, expected = tmp_path / f"new.{fmt_name}", tmp_path / f"old.{fmt_name}"
        write_table(out, header, table, fmt_name, labels=row_labels)
        _row_writer(expected, header, [list(row) + [lab] for row, lab in
                                       zip(table, row_labels)], fmt_name)
        assert out.read_bytes() == expected.read_bytes()
    write_table(out, header[:4], values, fmt_name)
    _row_writer(expected, header[:4], values, fmt_name)
    assert out.read_bytes() == expected.read_bytes()
    with pytest.raises(ValueError, match="8999 labels for 9000 rows"):
        write_table(out, header, values, fmt_name, labels=labels[1:])


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_of_row_blocks_matches_one_array(fmt_name, tmp_path):
    # a table given as uneven row blocks, made as the writer reads them, is
    # written as the same table in one array
    rng = np.random.default_rng(9)
    values = rng.standard_normal((9000, 3))
    values[::7, 1] = np.nan
    labels = [("neg", "mid", "pos")[k % 3] for k in range(len(values))]
    cuts = [0, 0, 1, 2048, 2049, 6145, 9000]
    made = []

    def blocks():
        for lo, hi in zip(cuts, cuts[1:]):
            made.append(hi)
            yield values[lo:hi]

    header = ["a", "b", "c", "region"]
    table = ioutil.RowBlocks(len(values), 3, blocks())
    assert len(table) == 9000 and made == []
    out, expected = tmp_path / f"blocks.{fmt_name}", tmp_path / f"array.{fmt_name}"
    write_table(out, header, table, fmt_name, labels=labels)
    write_table(expected, header, values, fmt_name, labels=labels)
    assert made == cuts[1:] and out.read_bytes() == expected.read_bytes()
    # blocks that do not make the table's shape leave no file
    for rows, block in ((9001, values), (9000, values[:, :2]), (9000, values[0])):
        with pytest.raises(ValueError, match="rows in the blocks|a block of shape"):
            write_table(tmp_path / "bad.out", header[:3], ioutil.RowBlocks(rows, 3, [block]),
                        fmt_name)
    assert sorted(p.name for p in tmp_path.iterdir()) == [expected.name, out.name]


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_repeated_values_match_row_writer(fmt_name, tmp_path):
    # columns with few distinct values per 2,048-row block, where each distinct
    # bit pattern is formatted once and its text reused
    n = 2 * 2048 + 300
    rng = np.random.default_rng(7)
    grid = np.linspace(-4.0, 4.0, 30)
    odd = [np.nan, -np.nan, _nan(0x7FF8000000000123), _nan(0xFFF0000000000001), np.inf,
           -np.inf, 5e-324, -5e-324, 2.2250738585072e-310, -0.0, 0.0]
    mixed = rng.standard_normal(n)   # all distinct in the first block, 3 values after
    mixed[2048:] = rng.choice([1.5, -0.0, 0.1], n - 2048)
    table = np.column_stack([
        np.full(n, 2.5),                                  # constant
        np.repeat(grid, 300)[:n],                         # x1-like: runs of 300 rows
        np.tile(np.linspace(-1.0, 1.0, 300), 29)[:n],     # x2-like: one cycle per 300 rows
        np.where(np.arange(n) % 3 == 0, -0.0, 0.0),       # both zeros in every block
        np.array(odd)[rng.integers(0, len(odd), n)],      # NaN payloads, signs, inf, subnormals
        mixed,
        rng.standard_normal(n),                           # all distinct
    ])
    assert table[2047, 1] == table[2048, 1] and table[2047, 2] != table[2048, 2]
    assert len(np.unique(table[:2048, 5])) == 2048 > len(np.unique(table[2048:, 5]))
    header = [f"c{k}" for k in range(table.shape[1])] + ["region"]
    labels = ["pos" if k % 7 else "neg/mid" for k in range(n)]
    out, expected = tmp_path / f"new.{fmt_name}", tmp_path / f"old.{fmt_name}"
    write_table(out, header, table, fmt_name, labels=labels)
    _row_writer(expected, header, [list(row) + [lab] for row, lab in zip(table, labels)],
                fmt_name)
    assert out.read_bytes() == expected.read_bytes()
    if fmt_name == "csv":
        signed = {line.split(",")[3] for line in out.read_text().splitlines()[1:]}
        assert signed == {"-0.0", "0.0"}


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("header, values, labels, message", [
    (["a", "b"], [[1.0, 2.0, 3.0]], None, "2 header names for 3 columns"),
    (["a", "b", "c"], [[1.0, 2.0, 3.0]], ["pos"], "3 header names for 4 columns"),
    (["a", "b", "c", "d", "region"], [[1.0, 2.0, 3.0]], ["pos"], "5 header names for 4 columns"),
    (["a", "b"], [1.0, 2.0], None, r"\(rows, columns\) table, got shape \(2,\)"),
    (["a"], 1.0, None, r"got shape \(\)"),
], ids=["short-header", "label-column-unnamed", "long-header", "1-d", "scalar"])
def test_write_table_rejects_inconsistent_tables(header, values, labels, message, fmt_name,
                                                 tmp_path):
    with pytest.raises(ValueError, match=message):
        write_table(tmp_path / "t.out", header, values, fmt_name, labels=labels)
    assert list(tmp_path.iterdir()) == []  # checked before the temp file is made


@pytest.mark.parametrize("field", ["a,b", 'say "pos"', "pos\r", "pos\nneg", "pos\0"])
def test_write_table_rejects_csv_fields_that_would_shift_columns(field, tmp_path):
    # a NUL would not shift a column, but the CSV writer pads with it and so
    # would drop it silently
    values = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="contains a comma, quote, line break or NUL"):
        write_table(tmp_path / "t.csv", ["x", "region"], values, labels=["pos", field])
    with pytest.raises(ValueError, match="contains a comma, quote, line break or NUL"):
        write_table(tmp_path / "t.csv", ["x", field], values, labels=["pos", "neg"])
    assert list(tmp_path.iterdir()) == []
    # JSON quotes its strings, so the same label is written faithfully
    write_table(tmp_path / "t.json", ["x", "region"], values, "json", labels=["pos", field])
    assert json.loads((tmp_path / "t.json").read_text())["rows"] == [[1.0, "pos"], [2.0, field]]


def test_write_table_takes_no_parts_for_json(tmp_path):
    # a JSON table is one document: rows appended after it are not JSON
    part = tmp_path / "part.csv"
    part.write_text("3.0,4.0\n")
    with pytest.raises(ValueError, match="takes no parts"):
        write_table(tmp_path / "t.json", ["a", "b"], np.array([[1.0, 2.0]]), "json",
                    parts=[part])
    assert list(tmp_path.iterdir()) == [part]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_takes_a_numpy_label_array(fmt_name, tmp_path):
    values, labels = np.array([[0.5, -1.0], [2.0, 0.0]]), ["mid", "pos/neg"]
    header = ["a", "b", "region"]
    write_table(tmp_path / "list.out", header, values, fmt_name, labels=labels)
    write_table(tmp_path / "array.out", header, values, fmt_name, labels=np.array(labels))
    assert (tmp_path / "array.out").read_bytes() == (tmp_path / "list.out").read_bytes()


@pytest.mark.parametrize("error", [
    cli.ConfigError("bad --x0"), models.ModelError("unknown model 'x'"),
    ExprError("unexpected token ')'", 3, "x1 +)"), spectral.SpectralError("non-finite Jacobian"),
    IntegrationError("step size underflow"), geometry.DegenerateStackError(1, 1e-20, 1.0)],
    ids=lambda e: type(e).__name__)
def test_cli_errors_survive_a_pickle_round_trip(error):
    # a forked worker pickles the exception it met, and the parent raises it again
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
