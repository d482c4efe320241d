"""CLI commands, file formats, exit codes, determinism."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from flowcurv import (derivative_stack, fixed_points, geometry, get_model, integrate,
                      load_model, manifold_sample, models, tls_hyperplane, zero_set_grid)
from flowcurv.cli import main
from flowcurv.manifold import grid_states
from flowcurv.models import _BUILTIN_BUILDERS
from flowcurv.ioutil import write_table
from flowcurv.verify import verify_model


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
    assert run(args + ["--out", str(out1)], capsys)[0] == 0
    assert run(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,region"
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
                      "--t-end", "2.0", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,kappa1,kappa2"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
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
    path.write_text(json.dumps({"name": "planar", "dim": 3, "params": {},
                                "rhs": ["-x2", "x1", "0"]}))
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


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_json_tables_write_non_finite_values_as_null(tmp_path, capsys):
    # degenerate stacks at a fixed point give NaN kappas
    kappa = tmp_path / "kappa.json"
    assert run(["curvature", "--model", "chua3-pwl", "--x0", "0,0,0", "--t-end", "1",
                "--format", "json", "--out", str(kappa)], capsys)[0] == 0
    rows = _strict_json(kappa)["rows"]
    assert len(rows) == 11 and all(row[1:] == [None, None] for row in rows)
    # a stack that overflows gives NaN phi; the finite rows keep their numbers
    scan, csv_scan = tmp_path / "scan.json", tmp_path / "scan.csv"
    args = ["phi-scan", "--model", "gear5", "--grid", "x1=-1e200:1e200:3,x2=-1:1:2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(args + ["--format", "json", "--out", str(scan)], capsys)[0] == 0
        assert run(args + ["--out", str(csv_scan)], capsys)[0] == 0
    rows = _strict_json(scan)["rows"]
    csv_rows = [line.split(",") for line in csv_scan.read_text().splitlines()[1:]]
    assert len(rows) == len(csv_rows) == 6
    for row, csv_row in zip(rows, csv_rows):
        assert [repr(v) if v is not None else "nan" for v in row] == csv_row
    assert sum(row[5] is None for row in rows) == 4
    write_table(scan, ["a", "b"], np.array([[np.inf, 1.0], [-np.inf, np.nan]]), "json")
    assert _strict_json(scan)["rows"] == [[None, 1.0], [None, None]]


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


def test_zero_tol_rel_is_accepted(tmp_path, capsys):
    out = tmp_path / "zs.csv"
    code, stdout, _ = run(["manifold", "--model", "chua3-pwl", "--grid", "x1=-3:3:12,x2=-1:1:12",
                           "--slice", "x3=0", "--tol-rel", "0", "--out", str(out)], capsys)
    assert code == 0 and "manifold points" in stdout and out.exists()


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


def _assert_scan_matches_library(model, header, table, per_point=True):
    n = model.dim
    assert header[n:] == ["phi", "lie", "cofactor_residual"]
    states = table[:, :n].T
    batch = manifold_sample(model, states)
    for j, name in enumerate(("phi", "lie", "cofactor_residual")):
        np.testing.assert_array_equal(table[:, n + j], getattr(batch, name))
    if per_point:
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


def test_phi_scan_chunks_match_one_batch(tmp_path, capsys):
    # 2,050 nodes span two 2,048-column chunks
    args = ["phi-scan", "--model", "chua5-pwl", "--grid", "x1=-4:4:41,x2=-1:1:50",
            "--slice", "x3=0,x4=0,x5=0"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run(args + ["--out", str(out1)], capsys)[0] == 0
    assert run(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, table = _scan_table(out1)
    assert table.shape[0] == 2050
    _assert_scan_matches_library(get_model("chua5-pwl"), header, table, per_point=False)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phi_scan_memory_is_one_table_and_one_chunk(tmp_path, capsys):
    # the scan holds one (n + 3, npts) float table and the stack of one
    # 2,048-point chunk; a second copy of the states or of the result columns
    # (5.8 MB together at 90,000 nodes) breaks the bound. The peak is reached
    # in the chunk loop (about 10.3 MB: the 5.8 MB table and one 4.0 MB chunk
    # sample); the grid build and table copy reach about 6.0 MB and the CSV
    # writer about 8.0 MB. The run takes about 2.5 s under tracemalloc.
    model = get_model("chua5-pwl")
    n, npts = model.dim, 300 * 300
    chunk = grid_states(n, {0: (-4.0, 4.0, 300), 1: (-1.0, 1.0, 300)}, {})[0][:, :2048]
    chunk_peak = _traced_peak(manifold_sample, model, chunk)
    scan_peak = _traced_peak(main, ["phi-scan", "--model", "chua5-pwl",
                                    "--grid", "x1=-4:4:300,x2=-1:1:300",
                                    "--slice", "x3=0,x4=0,x5=0",
                                    "--out", str(tmp_path / "scan.csv")])
    assert capsys.readouterr().out.startswith(f"{npts} samples")
    table_bytes = npts * (n + 3) * 8
    assert scan_peak < table_bytes + 1.25 * chunk_peak, (scan_peak, table_bytes, chunk_peak)


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
    "two": {"name": "two-pwl", "dim": 3, "params": {"a": -8.0 / 7.0, "b": -5.0 / 7.0},
            "rhs": ["x2 - pwl(x1; a, b)", "x1*x3 - pwl(x2 + x3; b, a)^2",
                    "-x1 + 0.5*x2*x2 - 2*x3"]},
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
    "integrate-smooth": (
        ["integrate", "--model", "chua4-cubic", "--x0", "0.1,0.1,0.1,0.1", "--t-end", "3"],
        lambda load: _integrate_rows(load("chua4-cubic"), [0.1] * 4, 3.0)),
    "integrate-pwl": (
        ["integrate", "--model", "chua3-pwl", "--x0", "0.1,0.1,0.1", "--t-end", "20"],
        lambda load: _integrate_rows(load("chua3-pwl"), [0.1] * 3, 20.0)),
    "integrate-constant-pwl": (
        ["integrate", "--model", "@const", "--x0", "1,1", "--t-end", "2"],
        lambda load: _integrate_rows(load("@const"), [1.0, 1.0], 2.0)),
    "phi-scan-grid": (
        ["phi-scan", "--model", "chua5-pwl", "--grid", "x1=-4:4:70,x2=-1:1:65",
         "--slice", "x3=0,x4=0,x5=0"],
        lambda load: _scan_rows(load("chua5-pwl"), grid_states(5, SCAN_GRID, {})[0])),
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
               np.nan, 0.1, 1 / 3, 2.5e-17, 123456789012345.67]
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-300, 300, (9000, 3))
    values.flat[rng.integers(0, values.size, 600)] = rng.choice(special, 600)
    values[:len(special), 0] = special
    labels = [("neg", "mid", "pos", "mid/pos", "")[k % 5] for k in range(len(values))]
    header = ["a", "b", "c", "region"]
    for table, row_labels in ((values, labels), (values[:1], labels[:1]), (values[:0], [])):
        out, expected = tmp_path / f"new.{fmt_name}", tmp_path / f"old.{fmt_name}"
        write_table(out, header, table, fmt_name, labels=row_labels)
        _row_writer(expected, header, [list(row) + [lab] for row, lab in
                                       zip(table, row_labels)], fmt_name)
        assert out.read_bytes() == expected.read_bytes()
    write_table(out, header[:3], values, fmt_name)
    _row_writer(expected, header[:3], values, fmt_name)
    assert out.read_bytes() == expected.read_bytes()
    with pytest.raises(ValueError, match="8999 labels for 9000 rows"):
        write_table(out, header, values, fmt_name, labels=labels[1:])


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_repeated_values_match_row_writer(fmt_name, tmp_path):
    # columns with few distinct values per 4,096-row block, where each distinct
    # bit pattern is formatted once and its text reused
    n = 2 * 4096 + 300
    rng = np.random.default_rng(7)
    grid = np.linspace(-4.0, 4.0, 30)
    odd = [np.nan, -np.nan, _nan(0x7FF8000000000123), _nan(0xFFF0000000000001), np.inf,
           -np.inf, 5e-324, -5e-324, 2.2250738585072e-310, -0.0, 0.0]
    mixed = rng.standard_normal(n)   # all distinct in the first block, 3 values after
    mixed[4096:] = rng.choice([1.5, -0.0, 0.1], n - 4096)
    table = np.column_stack([
        np.full(n, 2.5),                                  # constant
        np.repeat(grid, 300)[:n],                         # x1-like: runs of 300 rows
        np.tile(np.linspace(-1.0, 1.0, 300), 29)[:n],     # x2-like: one cycle per 300 rows
        np.where(np.arange(n) % 3 == 0, -0.0, 0.0),       # both zeros in every block
        np.array(odd)[rng.integers(0, len(odd), n)],      # NaN payloads, signs, inf, subnormals
        mixed,
        rng.standard_normal(n),                           # all distinct
    ])
    assert table[4095, 1] == table[4096, 1] and table[4095, 2] != table[4096, 2]
    assert len(np.unique(table[:4096, 5])) == 4096 > len(np.unique(table[4096:, 5]))
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


@pytest.mark.parametrize("field", ["a,b", 'say "pos"', "pos\r", "pos\nneg"])
def test_write_table_rejects_csv_fields_that_would_shift_columns(field, tmp_path):
    values = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="contains a comma, quote or line break"):
        write_table(tmp_path / "t.csv", ["x", "region"], values, labels=["pos", field])
    with pytest.raises(ValueError, match="contains a comma, quote or line break"):
        write_table(tmp_path / "t.csv", ["x", field], values, labels=["pos", "neg"])
    assert list(tmp_path.iterdir()) == []
    # JSON quotes its strings, so the same label is written faithfully
    write_table(tmp_path / "t.json", ["x", "region"], values, "json", labels=["pos", field])
    assert json.loads((tmp_path / "t.json").read_text())["rows"] == [[1.0, "pos"], [2.0, field]]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_write_table_takes_a_numpy_label_array(fmt_name, tmp_path):
    values, labels = np.array([[0.5, -1.0], [2.0, 0.0]]), ["mid", "pos/neg"]
    header = ["a", "b", "region"]
    write_table(tmp_path / "list.out", header, values, fmt_name, labels=labels)
    write_table(tmp_path / "array.out", header, values, fmt_name, labels=np.array(labels))
    assert (tmp_path / "array.out").read_bytes() == (tmp_path / "list.out").read_bytes()
