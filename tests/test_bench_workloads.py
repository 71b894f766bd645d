"""The benchmark's scan draw is the library's: ``bench/workloads.py`` keeps
its own copy of ``quadint scan``'s initial-condition draw, and it must not
drift from ``dynamics.scan_initial_conditions``."""

import importlib.util
from pathlib import Path

import pytest

from quadint.dynamics import scan_initial_conditions

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.mark.parametrize("seed", [0, 1])
def test_bench_scan_ics_equal_the_library_draw(seed):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.scan_ics(seed)
    assert bench == scan_initial_conditions(seed, workloads.SCAN_N)
    assert all(type(v) is float for q, p in bench for v in (*q, *p))
