"""The benchmark tracer's targets exist in the package, so that
``bench/run.py --trace 1`` keeps working after a refactor."""

import importlib
import importlib.util
from pathlib import Path

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
