"""Exact-arithmetic verification kernel and numerical dynamics harness
for a quadratically integrable, non-separable natural Hamiltonian system
in 3D Euclidean space.

The exact half (``algebra``, ``radical``, ``catalog``, ``verifier``) runs
on ``Fraction`` arithmetic and never imports numpy, so ``import quadint``,
``build_context()`` and ``run_report()`` load no numpy.  ``import
quadint`` runs ``algebra``, ``radical`` and ``catalog``: all that
``build_context()`` needs.

The verifier runs on first use.  ``quadint.verifier`` is registered in
``sys.modules`` at import through ``importlib.util.LazyLoader`` and bound
as this package's ``verifier``, and its module body runs on the first
attribute read: of ``quadint.verifier.<name>``, or of one of its names
served here (``run_report``, ``poisson_bracket``, ``CheckResult``,
``VerificationReport``, ``__version__``).  It stays in ``sys.modules`` so
that code which looks a module up there by name, as the benchmark's
tracer does, finds it after ``import quadint`` alone.

The dynamics names below are served by plain PEP 562: the first use of
one imports ``quadint.dynamics``, which runs on Python floats and loads
numpy only for a scan's seeded draw of initial conditions.  It is not in
``sys.modules`` until then, so the exact path can be seen not to run it."""

import importlib.util
import sys

from .algebra import (
    Polynomial,
    generators,
    nullspace_exact,
)
from .catalog import (
    KillingTensor,
    ParamDomain,
    SystemContext,
    build_context,
    extract_killing_tensor,
    singular_lines,
)
from .radical import ContextMismatch, RadicalElement, RingContext, SingularPoint


def _register_lazily(name):
    """The submodule ``name``, in sys.modules, whose body runs on the
    first read of one of its attributes."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


verifier = _register_lazily(f"{__name__}.verifier")

# each name served on first use, and the submodule that defines it
_SERVED = {
    **dict.fromkeys((
        "CheckResult",
        "VerificationReport",
        "__version__",
        "poisson_bracket",
        "run_report",
    ), ".verifier"),
    **dict.fromkeys((
        "PhaseState",
        "SimConfig",
        "compile_force",
        "compile_system",
        "distance_to_singular_lines",
        "scan_singularity",
        "simulate",
        "step_leapfrog",
    ), ".dynamics"),
}


def __getattr__(name):
    module = _SERVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SERVED))
