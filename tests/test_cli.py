"""End-to-end CLI behavior: subcommands, artifacts, manifests, exit codes."""

import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import _alarm
from test_import_boundary import SRC

from quadint.cli import _load_config_file, build_parser, main, parse_rational, parse_vec3


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument parsing ---------------------------------------------------


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -1 ") == -1


def test_parse_vec3():
    assert parse_vec3("0.5,0.2,-0.3", "--q0") == (0.5, 0.2, -0.3)
    assert parse_vec3("1/4, -1/4,3", "--q0") == (0.25, -0.25, 3.0)
    with pytest.raises(ValueError, match="^--p0: expected 3 comma-separated components"):
        parse_vec3("1,2", "--p0")


@pytest.mark.parametrize("text", ["0.1,-0.2,3e-5", "-0,0,-0.0", "1e-400,-1e-400,5e-324",
                                  "0.30000000000000004,1e300,-7"])
def test_parse_vec3_reads_a_decimal_as_float_does(text):
    # the same doubles, signed zeros included, so records stay bit-identical
    expect = [float(v).hex() for v in text.split(",")]
    assert [v.hex() for v in parse_vec3(text, "--q0")] == expect


# -- verify -------------------------------------------------------------


def test_verify_json_passes(capsys):
    code, out, _ = run(["verify", "--format", "json", "--only", "ode_reduction"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "context_fingerprint", "total_ms", "checks"}
    assert doc["checks"][0]["name"] == "ode_reduction"
    assert doc["checks"][0]["status"] == "pass"
    assert "residual_summary" in doc["checks"][0]
    assert "elapsed_ms" in doc["checks"][0]


def test_verify_only_filter(capsys):
    code, out, _ = run(
        ["verify", "--format", "json", "--only", "involution"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 3
    assert all(c["name"].startswith("involution") for c in doc["checks"])


def test_verify_only_matching_no_group_exits_one(capsys):
    code, out, err = run(["verify", "--only", "nosuchgroup"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: only = 'nosuchgroup' matches no check group; "
                          "the groups are involution, m_system, ")


def test_verify_alt_ly_fails(capsys):
    code, out, _ = run(
        ["verify", "--only", "involution", "--alt-ly"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_writes_report_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, _, _ = run(
        ["verify", "--only", "ode_reduction", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert out_file.exists()
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == [str(out_file)]
    assert "context_fingerprint" in manifest
    assert manifest["python"] == platform.python_version()
    assert manifest["platform"] == platform.platform()
    assert manifest["numpy"] == importlib.metadata.version("numpy")


def test_verify_manifest_records_the_context_that_ran(tmp_path, capsys):
    out_file = tmp_path / "alt.json"
    code, _, _ = run(
        ["verify", "--alt-ly", "--format", "json", "--out", str(out_file)], capsys
    )
    assert code == 1
    report = json.loads(out_file.read_text())
    manifest = json.loads((tmp_path / "alt.json.manifest.json").read_text())
    assert report["context_fingerprint"] == "99d78996009f8c99"
    assert manifest["context_fingerprint"] == "99d78996009f8c99"


# -- simulate -----------------------------------------------------------


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(
        [
            "simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
            "--t-end", "3", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "classification: completed" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,x,y,z,px,py,pz,H,X1,X2,u,d_sing"
    assert len(lines) >= 4
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["q0"] == "0.5,0.2,-0.3"
    assert manifest["parameters"]["t_end"] == 3.0
    assert manifest["sim_config"]["t_end"] == 3.0


def test_bare_simulate_runs_simconfig_defaults(tmp_path, capsys):
    # the CLI adds no run defaults of its own: what SimConfig does not get
    # from the command line is SimConfig's
    from quadint.dynamics import SimConfig

    out_file = tmp_path / "traj.csv"
    code, _, _ = run(["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4",
                      "--out", str(out_file)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["sim_config"] == dataclasses.asdict(SimConfig(a=0.25, b=1.0, w0=-1.0))
    assert set(manifest["parameters"]) == {"command", "config", "q0", "p0", "out", "strict"}


def test_simulate_free_motion_when_w0_zero(tmp_path, capsys):
    # w0 = 0 turns off the potential; motion must be a straight line
    out_file = tmp_path / "free.csv"
    code, _, _ = run(
        [
            "simulate", "--w0", "0", "--q0", "0,0,0", "--p0", "0.1,0.2,0.3",
            "--t-end", "5", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in out_file.read_text().splitlines()[1:]
    ]
    for row in rows:
        t = row[0]
        assert row[1] == pytest.approx(0.1 * t, abs=1e-10)
        assert row[2] == pytest.approx(0.2 * t, abs=1e-10)
        assert row[3] == pytest.approx(0.3 * t, abs=1e-10)


def test_simulate_prints_step_counts(capsys, tmp_path):
    code, out, _ = run(
        [
            "simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
            "--integrator", "leapfrog", "--fixed-step", "0.01",
            "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 0
    assert "steps: 100  rejected: 0  floor-accepted: 0" in out


def test_simulate_prints_force_evals(capsys, tmp_path):
    code, out, _ = run(
        [
            "simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
            "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 0
    counts = re.search(r"steps: (\d+)  rejected: (\d+)  floor-accepted: \d+  "
                       r"force-evals: (\d+)", out)
    steps, rejected, evals = (int(v) for v in counts.groups())
    # 12 per DOP853 attempt, and the 1 at q0 that also checks u there
    assert steps > 0 and evals == 12 * (steps + rejected) + 1


def test_simulate_rejects_singular_ic(capsys, tmp_path):
    code, _, err = run(
        [
            "simulate",
            f"--q0={-1.0 / 3**0.5},{3 * 3**0.5 / 4},1.0",
            "--p0", "0,0,0",
            "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_simulate_strict_flags_incomplete(capsys, tmp_path):
    # escaping run under --strict exits 1
    code, out, _ = run(
        [
            "simulate", "--w0", "1", "--q0", "0.5,0.2,-0.3", "--p0", "1,1,1",
            "--t-end", "500", "--r-max", "5", "--strict",
            "--out", str(tmp_path / "esc.csv"),
        ],
        capsys,
    )
    assert code == 1
    assert "escape" in out


def test_simulate_bad_integrator_exit_one(capsys, tmp_path):
    # the name is checked once, by SimConfig, not by an argparse choice
    code, _, err = run(
        [
            "simulate", "--integrator", "rk4", "--q0", "0.5,0.2,-0.3",
            "--p0", "0.1,0.1,0.1", "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 1
    assert "error: unknown integrator 'rk4'; expected one of adaptive, leapfrog" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_bad_domain_exit_one(capsys, tmp_path):
    code, _, err = run(
        [
            "simulate", "--a", "3/2", "--q0", "0,0,0", "--p0", "0,0,0",
            "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1", "--t-end", "1"],
    ["scan", "--n", "1", "--t-end", "1"],
    ["plot"],
], ids=["simulate", "scan", "plot"])
def test_domain_error_prints_the_parameter_as_given(capsys, tmp_path, argv):
    for a_val in ("1.0", "1.3"):
        code, _, err = run([*argv, "--a", a_val, "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err == f"error: a = {a_val} outside (0, 1)\n"


@pytest.mark.parametrize("option", [["--b", "1e300"], ["--w0", "1e308"]],
                         ids=["b", "w0"])
def test_simulate_rejects_a_coefficient_outside_the_double_range(capsys, tmp_path, option):
    code, _, err = run(
        [
            "simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1",
            "--out", str(tmp_path / "x.csv"), *option,
        ],
        capsys,
    )
    assert code == 1
    assert re.fullmatch(r"error: the specialised coefficient of \S+, about 1e\d+, "
                        r"is not a finite double\n", err)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1", "--w0"],
    ["plot", "--b"],
], ids=["simulate-w0", "plot-b"])
def test_exact_entry_beyond_the_double_range_exits_one(capsys, tmp_path, argv):
    # float() of such a Fraction used to raise OverflowError, an internal error
    out_file = tmp_path / "out"
    code, _, err = run([*argv, "-1" + "0" * 400, "--out", str(out_file)], capsys)
    assert code == 1
    assert err == f"error: -1{'0' * 400} is beyond the double range\n"
    assert not out_file.exists()


@pytest.mark.parametrize("option", [["--q0", "-0.1,0,0.5"], ["--b", "-1e-3"], ["--w0", "-1e300"]],
                         ids=["q0", "b", "w0"])
def test_negative_value_in_exponent_or_vector_form_is_a_value(capsys, tmp_path, option):
    # argparse alone reads these values as option names and exits 2
    out_file = tmp_path / "x.csv"
    argv = ["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1",
            "--out", str(out_file), *option]
    try:
        code, _, _ = run(argv, capsys)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1)
    if option[0] == "--q0":
        assert float(out_file.read_text().splitlines()[1].split(",")[1]) == -0.1


@pytest.mark.parametrize("q0, x0", [("1/4,0,0.5", 0.25), ("-1/4,0,0.5", -0.25)],
                         ids=["quarter", "minus-quarter"])
def test_vector_option_takes_an_exact_entry(capsys, tmp_path, q0, x0):
    out_file = tmp_path / "x.csv"
    code, _, err = run(["simulate", "--q0", q0, "--p0", "0,0,0.4", "--t-end", "1",
                        "--out", str(out_file)], capsys)
    assert code == 0, err
    assert float(out_file.read_text().splitlines()[1].split(",")[1]) == x0


@pytest.mark.parametrize("q0, message", [
    ("1e400,0,0", "--q0: 1e400 is beyond the double range"),
    ("inf,0,0", "--q0: Invalid literal for Fraction: 'inf'"),
    ("0,nan,0", "--q0: Invalid literal for Fraction: 'nan'"),
], ids=["beyond-range", "inf", "nan"])
def test_vector_component_that_is_not_a_double_exits_one(capsys, tmp_path, q0, message):
    out_file = tmp_path / "x.csv"
    code, _, err = run(["simulate", "--q0", q0, "--p0", "0,0,0.4", "--t-end", "1",
                        "--out", str(out_file)], capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out_file.exists()


def test_only_numeric_values_of_value_options_are_joined():
    from quadint.cli import _join_negative_values

    argv = ["simulate", "--a", "-1/4", "--out", "-o.csv", "--strict", "--t-end", "-inf",
            "--w", "-1e-3", "--", "--b", "-1e3"]
    assert _join_negative_values(build_parser(), argv) == [
        "simulate", "--a=-1/4", "--out", "-o.csv", "--strict", "--t-end=-inf",
        "--w=-1e-3", "--", "--b", "-1e3"]


def test_simulate_over_the_leapfrog_step_budget_exits_one(capsys, tmp_path, monkeypatch):
    import quadint.dynamics as dynamics

    def no_compile(*args):
        raise AssertionError("simulate compiled")

    # the run is rejected before any compile, let alone any step
    monkeypatch.setattr(dynamics, "compile_system", no_compile)
    out_file = tmp_path / "o.csv"
    code, _, err = run(
        ["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1",
         "--integrator", "leapfrog", "--fixed-step", "1e-300", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert "MAX_STEPS" in err
    assert "internal error" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("option, match", [
    # an adaptive step is never longer than H_MAX = 1
    (["--t-end", "1e300", "--sample-interval", "1e299"],
     "(t_end - t0) / H_MAX = 1e+300 adaptive steps exceeds MAX_STEPS = 100000000"),
    # no stored double meets a relative accuracy below 2**-53
    (["--rel-tol", "1e-30", "--abs-tol", "1e-30", "--t-end", "10"],
     "rel_tol must be at least 2**-53"),
], ids=["adaptive-step-budget", "rel-tol-floor"])
def test_simulate_that_cannot_end_exits_one_within_a_second(capsys, tmp_path, option, match):
    out_file = tmp_path / "o.csv"
    with _alarm(1):
        code, _, err = run(["simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
                            *option, "--out", str(out_file)], capsys)
    assert code == 1
    assert err.startswith("error: ") and match in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1"],
    ["plot"],
    ["scan", "--n", "1", "--t-end", "1"],
], ids=["verify", "simulate", "plot", "scan"])
@pytest.mark.parametrize("out", ["missing/out", "."], ids=["no-directory", "directory"])
def test_unwritable_out_exits_one_before_any_work(capsys, tmp_path, monkeypatch, argv, out):
    import quadint.cli as cli

    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", no_work)
    path = tmp_path / out
    code, _, err = run([*argv, "--out", str(path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert "internal error" not in err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4", "--t-end", "1"],
    ["plot"],
    ["scan", "--n", "1", "--t-end", "1"],
], ids=["verify", "simulate", "plot", "scan"])
@pytest.mark.parametrize("form", [["--out="], ["--out", ""]], ids=["joined", "separate"])
def test_empty_out_exits_one_before_any_work(capsys, tmp_path, monkeypatch, argv, form):
    """An empty --out used to run the command and then fail to write (exit
    2), or, for verify, to exit 0 and write nothing."""
    import quadint.cli as cli

    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", no_work)
    monkeypatch.chdir(tmp_path)
    code, _, err = run([*argv, *form], capsys)
    assert code == 1
    assert err == "error: cannot write --out : the path is empty\n"
    assert sorted(tmp_path.iterdir()) == []


# -- plot ---------------------------------------------------------------


@pytest.mark.parametrize("name, reason", [
    ("missing.csv", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_plot_of_an_unreadable_file_exits_one(tmp_path, capsys, name, reason):
    """Such a path used to exit 2 with FileNotFoundError or IsADirectoryError."""
    path = tmp_path / name
    code, _, err = run(["plot", str(path), "--out", str(tmp_path / "o.svg")], capsys)
    assert code == 1
    assert err == f"error: cannot read trajectory file {path}: {reason}\n"
    assert not (tmp_path / "o.svg").exists()


def _make_traj(tmp_path, capsys, name="t.csv"):
    out_file = tmp_path / name
    code, _, _ = run(
        [
            "simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
            "--t-end", "3", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    return out_file


@pytest.mark.parametrize("view", ["xy", "xz", "yz", "3d"])
def test_plot_views_emit_svg(tmp_path, capsys, view):
    traj = _make_traj(tmp_path, capsys)
    out_svg = tmp_path / f"plot_{view}.svg"
    code, out, _ = run(
        ["plot", str(traj), "--view", view, "--out", str(out_svg)], capsys
    )
    assert code == 0
    svg = out_svg.read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg  # singular lines present, dashed
    assert "polyline" in svg


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2,3\n")
    code, _, err = run(
        ["plot", str(bad), "--out", str(tmp_path / "o.svg")], capsys
    )
    assert code == 1
    assert "error" in err


_ROW = ",".join(["0.5"] * 12)


@pytest.mark.parametrize("row", [
    "0,1",                                  # used to raise IndexError
    "0.5,inf," + ",".join(["0.5"] * 10),    # x = inf used to raise OverflowError
    _ROW + ",0.5",                          # used to be accepted
], ids=["2-fields", "inf-x", "13-fields"])
def test_plot_rejects_malformed_row(tmp_path, capsys, row):
    from quadint.dynamics import TRAJECTORY_HEADER

    bad = tmp_path / "bad.csv"
    bad.write_text(f"{TRAJECTORY_HEADER}\n{_ROW}\n{row}\n")
    code, _, err = run(["plot", str(bad), "--out", str(tmp_path / "o.svg")], capsys)
    assert code == 1
    assert err.startswith("error: line 3 of ")
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("option", [
    ["--width", "0"], ["--height", "100"], ["--width", "-640"],
    # such a width used to overflow the float pixel coordinates
    ["--height", "1000001"], ["--width", "1" + "0" * 400],
], ids=["width-0", "height-100", "width-negative", "height-over-max", "width-1e400"])
def test_plot_size_outside_its_range_exits_one(tmp_path, capsys, option):
    out_svg = tmp_path / "o.svg"
    code, _, err = run(["plot", *option, "--out", str(out_svg)], capsys)
    assert code == 1
    assert err == (f"error: {option[0][2:]} must be above the two 50-px margins, 100 px, "
                   f"and at most 1000000 px, got {option[1]}\n")
    assert not out_svg.exists()


def _one_row_traj(tmp_path, x):
    from quadint.dynamics import TRAJECTORY_HEADER

    path = tmp_path / "big.csv"
    path.write_text(f"{TRAJECTORY_HEADER}\n0.5,{x}," + ",".join(["0.5"] * 10) + "\n")
    return path


@pytest.mark.parametrize("x", ["1.7e308", "-1.7e308"])
def test_plot_rejects_rows_whose_padded_bounds_overflow(tmp_path, capsys, x):
    traj = _one_row_traj(tmp_path, x)
    code, _, err = run(["plot", str(traj), "--out", str(tmp_path / "o.svg")], capsys)
    assert code == 1
    assert err.startswith("error: the x axis range ")
    assert "not finite" in err
    assert not (tmp_path / "o.svg").exists()


def test_plot_renders_a_row_at_1e300(tmp_path, capsys):
    traj = _one_row_traj(tmp_path, "1e300")
    code, _, _ = run(["plot", str(traj), "--out", str(tmp_path / "o.svg")], capsys)
    assert code == 0
    assert (tmp_path / "o.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("view", ["xy", "xz", "yz", "3d"])
@pytest.mark.parametrize("x", ["5e307", "-5e307"])
def test_plot_coordinates_are_finite_for_a_row_at_5e307(tmp_path, capsys, x, view):
    # the singular lines' samples used to overflow to nan at this range
    traj = _one_row_traj(tmp_path, x)
    out_svg = tmp_path / "o.svg"
    code, _, _ = run(["plot", str(traj), "--view", view, "--out", str(out_svg)], capsys)
    assert code == 0
    points = re.findall(r'points="([^"]*)"', out_svg.read_text())
    assert len(points) == 3                  # two singular lines and the trajectory
    coords = [float(v) for pts in points for pair in pts.split() for v in pair.split(",")]
    assert all(math.isfinite(v) for v in coords)


# -- scan ---------------------------------------------------------------


def test_scan_writes_table(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(
        [
            "scan", "--n", "3", "--seed", "1", "--t-end", "2",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "idx,x0,y0,z0,px0,py0,pz0,E,min_u,min_dsing,class"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] in ("completed", "singularity-approach", "escape",
                              "step-failure")


def test_scan_csv_from_two_workers_equals_serial_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tables = []
    for jobs in ("1", "2"):
        out_file = tmp_path / f"scan{jobs}.csv"
        with _alarm(30):
            code, _, _ = run(["scan", "--n", "20", "--jobs", jobs, "--out", str(out_file)],
                             capsys)
        assert code == 0
        tables.append(out_file.read_text())
    assert tables[0] == tables[1] and tables[0].count("\n") == 21


def test_scan_manifest_records_the_config_that_ran(tmp_path, capsys):
    """The scan runs the regularized integrator, sampling t = 0 and t_end
    only, and its manifest records that config."""
    from quadint.dynamics import SimConfig

    out_file = tmp_path / "scan.csv"
    code, _, _ = run(["scan", "--n", "1", "--t-end", "2", "--rel-tol", "1e-8",
                      "--u-floor", "1e-6", "--out", str(out_file)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["parameters"]["rel_tol"] == 1e-8
    assert manifest["parameters"]["u_floor"] == 1e-6
    assert manifest["sim_config"] == dataclasses.asdict(
        SimConfig(t_end=2.0, rel_tol=1e-8, u_floor=1e-6, integrator="regularized",
                  sample_interval=2.0))


def test_scan_rejects_repulsive(capsys, tmp_path):
    code, _, err = run(
        ["scan", "--w0", "1", "--n", "1", "--out", str(tmp_path / "s.csv")],
        capsys,
    )
    assert code == 1
    assert err == "error: singularity scan requires w0 < 0\n"


@pytest.mark.parametrize("option, message", [
    (["--n", "-3"], "error: n must be non-negative, got -3"),
    (["--jobs", "0"], "error: jobs must be at least 1, got 0"),
    # ranges: numpy's uniform would raise OverflowError or its own error
    (["--q-range", "nan"], "error: q_range must lie in [0, 8.988e+307], got nan"),
    (["--q-range", "inf"], "error: q_range must lie in [0, 8.988e+307], got inf"),
    (["--q-range", "1e308"], "error: q_range must lie in [0, 8.988e+307], got 1e+308"),
    (["--p-range", "-0.4"], "error: p_range must lie in [0, 8.988e+307], got -0.4"),
    (["--n", "1000001"], "error: n = 1000001 exceeds MAX_SCAN_ICS = 1000000"),
])
def test_scan_rejects_bad_counts(capsys, tmp_path, monkeypatch, option, message):
    if option[0] == "--n":
        # a count is rejected before the draw starts
        monkeypatch.setattr("numpy.random.default_rng", lambda seed: pytest.fail("drew ICs"))
    out_file = tmp_path / "s.csv"
    code, _, err = run(["scan", *option, "--t-end", "1", "--out", str(out_file)], capsys)
    assert code == 1
    assert err.strip() == message
    assert not out_file.exists()


# -- config file --------------------------------------------------------


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("t-end = 2\nw0 = 0\n")
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(
        [
            "--config", str(cfg), "simulate",
            "--q0", "0,0,0", "--p0", "0.1,0,0", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    # t-end=2 with 1.0 sampling: t = 0, 1, 2
    assert len(rows) == 4
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["sim_config"]["t_end"] == 2.0
    assert manifest["sim_config"]["w0"] == 0.0


def test_config_unknown_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("t-ned = 3\n")
    out_file = tmp_path / "x.csv"
    code, _, err = run(["--config", str(cfg), "simulate", "--q0", "0,0,0.5",
                        "--p0", "0,0,0.4", "--out", str(out_file)], capsys)
    assert code == 1
    assert err == "error: unknown config key 't-ned'\n"
    assert not out_file.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_config_bad_value_exit_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("t-end = abc\n")
    code, _, err = run(
        ["--config", str(cfg), "simulate", "--q0", "0,0,0.5", "--p0", "0,0,0.4",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: config t-end = 'abc': ")
    assert "Traceback" not in err


def test_config_missing_file_exit_one(tmp_path, capsys):
    code, _, err = run(
        ["--config", str(tmp_path / "missing.cfg"), "verify", "--only", "involution"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: cannot read config file ")


@pytest.mark.parametrize("spelling", [["--t-end", "5"], ["--t-end=5"]])
def test_command_line_overrides_config(tmp_path, capsys, spelling):
    # either spelling of an option beats the config file's value; a key
    # may be spelled with - or _
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("t_end = 2\nw0 = 0\n")
    out_file = tmp_path / "traj.csv"
    code, _, _ = run(
        ["--config", str(cfg), "simulate", "--q0", "0,0,0", "--p0", "0.1,0,0",
         *spelling, "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    # header and t = 0, 1, ..., 5
    assert len(out_file.read_text().splitlines()) == 7


def test_config_flag_and_jobs(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("jobs = 2\nstrict = yes\nhelp = maybe\n")
    parser = build_parser(_load_config_file(cfg))
    args = parser.parse_args(["scan", "--out", "s.csv"])
    assert args.jobs == 2
    args = parser.parse_args(["simulate", "--q0", "0,0,0", "--p0", "0,0,0", "--out", "x.csv"])
    assert args.strict is True
    cfg.write_text("strict = maybe\n")
    code, _, err = run(["--config", str(cfg), "verify", "--only", "involution"], capsys)
    assert code == 1 and err.startswith("error: config strict = 'maybe': ")


@pytest.mark.parametrize("line, argv, allowed", [
    ("format = xml", ["verify", "--only", "involution"], "text, json"),
    ("view = xw", ["plot", "t.csv", "--out", "t.svg"], "xy, xz, yz, 3d"),
], ids=["format", "view"])
def test_config_value_outside_its_choices_exits_one(tmp_path, capsys, line, argv, allowed):
    # the same check as on the command line: a config value outside an
    # option's choices is rejected before any work, and the allowed
    # values are named
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    key, _, value = line.partition(" = ")
    code, out, err = run(["--config", str(cfg), *argv], capsys)
    assert code == 1 and out == ""
    assert err == f"error: config {key} = {value!r}: expected one of {allowed}\n"


def test_closed_stdout_exits_one_without_an_internal_error():
    # the reader of stdout's pipe is closed before the run: the report's
    # write fails, which is not an internal error, and the exit is quiet
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadint.cli", "verify", "--only", "involution"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    # nothing on stderr: no "internal error", and no "Exception ignored"
    # from the flush at exit
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr


def test_zero_denominator_exit_one(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--a", "1/0", "--q0", "0,0,0.5", "--p0", "0,0,0.4",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: zero denominator in '1/0'")


def test_jobs_environment_variable_is_ignored(monkeypatch, capsys):
    # no environment variable sets a default: --jobs and a config "jobs"
    # line do
    monkeypatch.setenv("QUADINT_JOBS", "x")
    code, _, _ = run(["verify", "--only", "involution"], capsys)
    assert code == 0


# -- every numeric option at its extremes ------------------------------

# the values a float or an exact option is drawn from: signed zeros, the
# least subnormal, 1e+-300, nan, infinities and integers beyond the double range
_EXTREME_TEXTS = ["0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300",
                  "nan", "inf", "-inf", "1" + "0" * 400, "-1" + "0" * 400]
_EXTREME_INTS = [0, -1, 2**63, -2**63, 10**400, -10**400]


def _ints(max_value=None):
    values = [v for v in _EXTREME_INTS if max_value is None or v <= max_value]
    return st.one_of(st.sampled_from(values), st.integers(max_value=max_value)).map(str)


_TEXTS = st.sampled_from(_EXTREME_TEXTS)
_SIM_OPTIONS = {name: _TEXTS for name in (
    "--a", "--b", "--w0", "--t-end", "--rel-tol", "--abs-tol", "--fixed-step",
    "--u-floor", "--r-max", "--sample-interval")}
# --n and --jobs stay small: this process is one of the min(jobs, n, CPUs)
# workers, which share the ICs by stride, and it forks the others at once
_SCAN_OPTIONS = {**{name: _TEXTS for name in (
    "--a", "--b", "--w0", "--q-range", "--p-range", "--t-end", "--rel-tol", "--u-floor")},
    "--n": _ints(4), "--seed": _ints(), "--jobs": _ints(2)}
_PLOT_OPTIONS = {"--a": _TEXTS, "--b": _TEXTS, "--width": _ints(), "--height": _ints()}
_BASES = {
    "simulate-adaptive": (["simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
                           "--t-end", "1"], _SIM_OPTIONS),
    "simulate-leapfrog": (["simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
                           "--t-end", "1", "--integrator", "leapfrog"], _SIM_OPTIONS),
    "scan": (["scan", "--n", "2", "--t-end", "1"], _SCAN_OPTIONS),
    "plot": (["plot"], _PLOT_OPTIONS),
}


@st.composite
def _one_extreme_option(draw, options):
    name = draw(st.sampled_from(sorted(options)))
    return name, draw(options[name])


@pytest.mark.parametrize("base", sorted(_BASES))
def test_any_one_numeric_option_exits_zero_or_one_quickly(base, tmp_path, capsys):
    argv, options = _BASES[base]
    if base == "plot":
        argv = [*argv, str(_one_row_traj(tmp_path, "0.5"))]
    out = tmp_path / "out"

    @settings(max_examples=100, deadline=None)
    @given(_one_extreme_option(options))
    def check(option):
        # the last of two values of one option wins
        with _alarm(5):
            code, _, err = run([*argv, *option, "--out", str(out)], capsys)
        assert code in (0, 1), err
        assert "internal error" not in err

    check()
