"""The exact path loads neither numpy nor ``quadint.dynamics``; setting
up the exact objects runs no verifier code; the verifier and dynamics
names of ``quadint`` are served lazily; and the dynamics half loads numpy
only for a scan's draw of initial conditions.  Each check runs in a fresh
interpreter, since this test process has imported both.  The packed
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
VERIFIER_NAMES = ("CheckResult", "VerificationReport", "__version__", "poisson_bracket",
                  "run_report")

# Collects in ``runs`` the code objects of verifier.py that run, from the
# audit event that exec of a code object raises: a module body runs that
# way whether it is compiled from source or loaded from a bytecode cache.
COUNT_VERIFIER_RUNS = textwrap.dedent("""
    import os, sys
    runs = []

    def hook(event, args):
        if event == "exec" and getattr(args[0], "co_filename", "").endswith(
                os.sep + "verifier.py"):
            runs.append(args[0].co_name)

    sys.addaudithook(hook)
""")


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


def test_setup_loads_no_hashlib_until_a_report():
    """Building the context loads no hashlib (and so no OpenSSL); the
    report's fingerprint imports it and is unchanged."""
    out = run_fresh("""
        import sys
        import quadint
        quadint.build_context()
        print("hashlib" in sys.modules)
        print(quadint.run_report(quadint.build_context()).fingerprint)
    """)
    assert out.split() == ["False", "70ab71ae33ae0607"]


def _served_names_are(module: str, names) -> list[str]:
    """Whether each of ``names`` read from quadint is ``module``'s own
    object, and whether each is in dir(quadint), printed by a fresh
    interpreter."""
    return run_fresh(f"""
        import quadint
        import {module}
        names = {names!r}
        print(all(getattr(quadint, n) is getattr({module}, n) for n in names))
        print(all(n in dir(quadint) for n in names))
    """).split()


def test_lazy_names_are_the_dynamics_objects():
    assert _served_names_are("quadint.dynamics", DYNAMICS_NAMES) == ["True", "True"]


def test_served_verifier_names_are_the_verifier_objects():
    assert _served_names_are("quadint.verifier", VERIFIER_NAMES) == ["True", "True"]


def test_setup_runs_no_verifier_code():
    """``import quadint; quadint.build_context()`` runs no code of
    verifier.py, and leaves quadint.verifier registered in sys.modules,
    where the benchmark's tracer looks it up."""
    out = run_fresh(COUNT_VERIFIER_RUNS + textwrap.dedent("""
        import quadint
        quadint.build_context()
        print(len(runs), "quadint.verifier" in sys.modules)
    """))
    assert out.split() == ["0", "True"]


def test_one_report_runs_the_verifier_module_once():
    out = run_fresh(COUNT_VERIFIER_RUNS + textwrap.dedent("""
        import quadint
        report = quadint.run_report(quadint.build_context())
        print(runs, len(report.results), quadint.verifier.run_report is quadint.run_report)
    """))
    assert out.split() == ["['<module>']", "21", "True"]


def test_from_import_of_a_verifier_name():
    out = run_fresh("""
        from quadint import run_report
        from quadint.catalog import build_context
        print(run_report.__module__, run_report(build_context(), only="involution").results[0].passed)
    """)
    assert out.split() == ["quadint.verifier", "True"]


def test_lazy_name_imports_dynamics_on_first_use():
    out = run_fresh("""
        import sys
        import quadint
        before = "quadint.dynamics" in sys.modules
        from quadint import simulate
        print(before, "quadint.dynamics" in sys.modules, "numpy" in sys.modules)
    """)
    assert out.split() == ["False", "True", "False"]


def test_dynamics_loads_numpy_only_for_a_scan_draw(tmp_path):
    """Importing quadint.dynamics, ``quadint simulate`` and ``quadint plot``
    load no numpy; drawing a scan's initial conditions does."""
    csv, svg = str(tmp_path / "t.csv"), str(tmp_path / "t.svg")
    argv = {
        "simulate": ["simulate", "--q0", "0.5,0.2,-0.3", "--p0", "0.1,0.1,0.1",
                     "--t-end", "2", "--out", csv],
        "plot": ["plot", csv, "--out", svg],
    }
    bodies = ["import quadint.dynamics",
              *(f"import quadint.cli; assert quadint.cli.main({v!r}) == 0" for v in argv.values()),
              "import quadint.dynamics; quadint.dynamics.scan_initial_conditions(0, 1)"]
    loaded = []
    for body in bodies:
        out = run_fresh(f"""
            import sys
            {body}
            print("numpy" in sys.modules)
        """)
        loaded.append(out.splitlines()[-1])
    assert loaded == ["False", "False", "False", "True"]


def _module_level_imports(tree: ast.Module) -> list[str]:
    """The modules that ``tree`` imports outside any function."""
    names, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_numpy_at_module_level():
    modules = sorted((SRC / "quadint").glob("*.py"))
    assert "dynamics.py" in {p.name for p in modules}
    found = [f"{path.name}: {name}" for path in modules
             for name in _module_level_imports(ast.parse(path.read_text(), path.name))
             if name.split(".")[0] == "numpy"]
    assert found == []


def test_unknown_name_raises_attribute_error():
    out = run_fresh("""
        import quadint
        try:
            quadint.no_such_name
        except AttributeError as exc:
            print("AttributeError", exc)
    """)
    assert out.strip() == "AttributeError module 'quadint' has no attribute 'no_such_name'"


PACKED_ATTRIBUTES = {"_numerators", "_denominator"}
PACKED_FUNCTIONS = {"pack", "unpack"}


def _packed_leaks(source: str, name: str) -> list[str]:
    """Where ``source`` reads a polynomial's private numerators or
    denominator, or imports pack or unpack."""
    leaks = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Attribute) and node.attr in PACKED_ATTRIBUTES:
            leaks.append(f"{name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            leaks += [f"{name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name in PACKED_FUNCTIONS]
    return leaks


def test_packed_format_stays_in_algebra():
    """No module but algebra.py reads a polynomial's numerators or
    denominator, or imports the key functions pack and unpack."""
    modules = sorted(p for p in (SRC / "quadint").glob("*.py") if p.name != "algebra.py")
    assert "verifier.py" in {p.name for p in modules}
    assert [leak for path in modules for leak in _packed_leaks(path.read_text(), path.name)] == []


def test_packed_check_flags_the_private_slots_only():
    """The check flags a polynomial's private slots and the key functions,
    and passes a Fraction's public numerator and denominator."""
    source = textwrap.dedent("""
        from quadint.algebra import pack
        n, d = c.numerator, c.denominator
        m = p._numerators
        e = p._denominator
    """)
    assert _packed_leaks(source, "m.py") == [
        "m.py:2 imports pack", "m.py:4 ._numerators", "m.py:5 ._denominator"]


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
