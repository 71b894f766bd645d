"""End-to-end CLI behavior: subcommands, artifacts, manifests, exit codes."""

import json

import pytest

from quadint.cli import main, parse_rational, parse_vec3


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
    assert set(doc) == {"version", "context_fingerprint", "checks"}
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


def test_simulate_bad_domain_exit_one(capsys, tmp_path):
    code, _, err = run(
        [
            "simulate", "--a", "3/2", "--q0", "0,0,0", "--p0", "0,0,0",
            "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 1


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


def test_scan_rejects_repulsive(capsys, tmp_path):
    code, _, err = run(
        ["scan", "--w0", "1", "--n", "1", "--out", str(tmp_path / "s.csv")],
        capsys,
    )
    assert code == 1


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
