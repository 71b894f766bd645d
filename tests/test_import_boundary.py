"""The exact path loads neither numpy nor ``quadint.dynamics``; the
dynamics names of ``quadint`` are served lazily.  Each check runs in a
fresh interpreter, since this test process has imported both.  The packed
polynomial format stays inside ``quadint.algebra``."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DYNAMICS_NAMES = (
    "PhaseState", "SimConfig", "compile_force", "compile_system",
    "distance_to_singular_lines", "scan_singularity", "simulate", "step_leapfrog",
)


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("body", [
    "import quadint; quadint.run_report(quadint.build_context())",
    "import quadint.cli; quadint.cli.main(['verify', '--only', 'involution'])",
], ids=["run_report", "cli_verify"])
def test_exact_path_loads_no_numpy(body):
    out = run_fresh(f"""
        import sys
        {body}
        print(sorted(m for m in ("numpy", "quadint.dynamics") if m in sys.modules))
    """)
    assert out.splitlines()[-1] == "[]"


def test_lazy_names_are_the_dynamics_objects():
    out = run_fresh(f"""
        import quadint
        import quadint.dynamics
        names = {DYNAMICS_NAMES!r}
        print(all(getattr(quadint, n) is getattr(quadint.dynamics, n) for n in names))
        print(all(n in dir(quadint) for n in names))
    """)
    assert out.split() == ["True", "True"]


def test_lazy_name_imports_dynamics_on_first_use():
    out = run_fresh("""
        import sys
        import quadint
        before = "quadint.dynamics" in sys.modules
        from quadint import simulate
        print(before, "quadint.dynamics" in sys.modules, "numpy" in sys.modules)
    """)
    assert out.split() == ["False", "True", "True"]


def test_unknown_name_raises_attribute_error():
    out = run_fresh("""
        import quadint
        try:
            quadint.no_such_name
        except AttributeError as exc:
            print("AttributeError", exc)
    """)
    assert out.strip() == "AttributeError module 'quadint' has no attribute 'no_such_name'"


PACKED_ATTRIBUTES = {"numerators", "denominator"}
PACKED_FUNCTIONS = {"pack", "unpack"}


def test_packed_format_stays_in_algebra():
    """No module but algebra.py reads a polynomial's numerators or
    denominator, or imports the key functions pack and unpack."""
    modules = sorted(p for p in (SRC / "quadint").glob("*.py") if p.name != "algebra.py")
    assert "verifier.py" in {p.name for p in modules}
    leaks = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in PACKED_ATTRIBUTES:
                leaks.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                leaks += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in PACKED_FUNCTIONS]
    assert leaks == []


def _unread_imports(tree: ast.Module, allowed=frozenset()) -> list[str]:
    """Names a module imports and never reads; ``annotations`` (a compiler
    flag) and the names in ``allowed`` are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations" and name not in allowed:
                    imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


TESTS = Path(__file__).resolve().parent
# the acceptance tests are fixed, imports included
UNREAD_ALLOWED = {"test_acceptance.py": frozenset({"COORDS", "X", "Y", "Z"})}


@pytest.mark.parametrize("path", [
    *sorted(p for p in (SRC / "quadint").glob("*.py") if p.name != "__init__.py"),
    *sorted(TESTS.glob("*.py")),
], ids=lambda p: f"tests/{p.name}" if p.parent == TESTS else p.name)
def test_every_imported_name_is_read(path):
    """The package's __init__.py imports to re-export; every other module,
    and every test module, reads each name it imports."""
    allowed = UNREAD_ALLOWED.get(path.name, frozenset()) if path.parent == TESTS else frozenset()
    assert _unread_imports(ast.parse(path.read_text(), str(path)), allowed) == []
