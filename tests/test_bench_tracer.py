"""The benchmark tracer's targets exist in the package, so that
``bench/run.py --trace 1`` keeps working after a refactor."""

import importlib
import importlib.util
from pathlib import Path

from test_import_boundary import run_fresh

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, _, path, attr, _ in tracer.TARGETS:
        modname, _, clsname = path.partition(":")
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{path}.{attr}")
    assert not missing, f"tracer targets not found: {missing}"


def test_tracer_installs_after_the_workloads_imports():
    """In a fresh interpreter that imports only what bench/workloads.py
    imports of the package, the tracer finds every target, wraps it, and
    restores every attribute it patched when it is removed.  The test
    above imports each target's module itself, so it cannot see a module
    that ``import quadint`` leaves out of sys.modules."""
    out = run_fresh(f"""
        import importlib.util
        import quadint
        import quadint.algebra
        import quadint.dynamics
        spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER_PATH)!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        t = tracer.Tracer()
        with t.installed():
            patches = list(t._patches)
            wrapped = all(vars(tracer._resolve(path))[attr].__name__ == "wrapper"
                          for _, _, path, attr, _ in tracer.TARGETS)
        print(len(patches) >= len(tracer.TARGETS), wrapped,
              all(vars(owner)[attr] is orig for owner, attr, orig in patches))
    """)
    assert out.split() == ["True", "True", "True"]
