"""Exact-arithmetic verification kernel and numerical dynamics harness
for a quadratically integrable, non-separable natural Hamiltonian system
in 3D Euclidean space."""

from .algebra import (
    GaussPoly,
    Polynomial,
    gauss_poly_expand,
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
from .dynamics import (
    PhaseState,
    SimConfig,
    compile_force,
    compile_system,
    distance_to_singular_lines,
    scan_singularity,
    simulate,
    step_leapfrog,
)
from .radical import ContextMismatch, RadicalElement, RingContext, SingularPoint
from .verifier import (
    CheckResult,
    VerificationReport,
    __version__,
    poisson_bracket,
    run_report,
)
