"""Exact-arithmetic verification kernel and numerical dynamics harness
for a quadratically integrable, non-separable natural Hamiltonian system
in 3D Euclidean space.

The exact half (``algebra``, ``radical``, ``catalog``, ``verifier``) runs
on ``Fraction`` arithmetic and never imports numpy, so ``import quadint``,
``build_context()`` and ``run_report()`` load no numpy.  The dynamics
names below are served lazily (PEP 562): the first use of one imports
``quadint.dynamics``, which runs on Python floats and loads numpy only
for a scan's seeded draw of initial conditions."""

import importlib

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
from .verifier import (
    CheckResult,
    VerificationReport,
    __version__,
    poisson_bracket,
    run_report,
)

_DYNAMICS_NAMES = frozenset({
    "PhaseState",
    "SimConfig",
    "compile_force",
    "compile_system",
    "distance_to_singular_lines",
    "scan_singularity",
    "simulate",
    "step_leapfrog",
})


def __getattr__(name):
    if name in _DYNAMICS_NAMES:
        return getattr(importlib.import_module(".dynamics", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _DYNAMICS_NAMES)
