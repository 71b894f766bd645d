"""tools/work_precision.py: the work counts it writes are deterministic."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "work_precision.py"
# 2 ICs, the first of each scan seed, at t = 2
ARGS = ["--n", "1", "--orbits", "--t-end", "2", "--rel-tols", "1e-10",
        "--integrators", "adaptive", "regularized"]


def _load():
    spec = importlib.util.spec_from_file_location("work_precision", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_wall(runs):
    return {integ: {key: {name: {f: v for f, v in r.items() if f != "wall_s"}
                          for name, r in records.items()}
                    for key, records in by_key.items()}
            for integ, by_key in runs.items()}


def test_two_runs_write_equal_work_counts(tmp_path):
    tool = _load()
    outputs = []
    for k in range(2):
        out = tmp_path / f"wp{k}.json"
        assert tool.main([str(out), *ARGS]) == 0
        outputs.append(json.loads(out.read_text()))
    first, again = outputs
    runs = first["runs"]["adaptive"]["rel_tol=1e-10"]
    assert list(runs) == ["scan0-ic0", "scan1-ic0"]
    for record in runs.values():
        assert record["class"] == "completed" and record["t_final"] == 2.0
        assert record["force_evals"] == 12 * (record["steps"] + record["rejected"]) + 1
    regularized = first["runs"]["regularized"]["rel_tol=1e-10"]
    assert [r["class"] for r in regularized.values()] == ["completed"] * 2
    assert _without_wall(first["runs"]) == _without_wall(again["runs"])
    totals = first["totals"]["adaptive"]["rel_tol=1e-10"]["scan"]
    assert totals["runs"] == 2 and totals["classes"] == {"completed": 2}
    assert totals["force_evals"] == sum(r["force_evals"] for r in runs.values())
    drifts = sorted(r["drift_H"] for r in runs.values())
    assert totals["drift_H_worst"] == drifts[1]
    assert totals["drift_H_median"] == (drifts[0] + drifts[1]) / 2
