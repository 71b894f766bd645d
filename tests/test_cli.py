"""End-to-end CLI behavior: subcommands, artifacts, manifests, exit codes."""

import dataclasses
import importlib.metadata
import json
import math
import platform
import re

import pytest

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
    assert parse_vec3("0.5,0.2,-0.3") == (0.5, 0.2, -0.3)
    with pytest.raises(ValueError):
        parse_vec3("1,2")


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


# -- plot ---------------------------------------------------------------


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


def test_scan_manifest_records_the_config_that_ran(tmp_path, capsys):
    from quadint.dynamics import SimConfig

    out_file = tmp_path / "scan.csv"
    code, _, _ = run(["scan", "--n", "1", "--t-end", "1", "--rel-tol", "1e-8",
                      "--u-floor", "1e-6", "--out", str(out_file)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["parameters"]["rel_tol"] == 1e-8
    assert manifest["parameters"]["u_floor"] == 1e-6
    assert manifest["sim_config"] == dataclasses.asdict(
        SimConfig(t_end=1.0, rel_tol=1e-8, u_floor=1e-6))


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
])
def test_scan_rejects_bad_counts(capsys, tmp_path, option, message):
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
