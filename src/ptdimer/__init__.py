"""Photon propagation through linearly active two-waveguide couplers.

Closed-form transfer matrices for coupled waveguides with linear gain and
loss, the photon statistics they imply (spontaneous generation from vacuum,
single-photon and two-photon transport, second-order correlations), and an
independent brute-force integrator used to verify it all.
"""

from .configurations import (
    DimerRealization,
    Kind,
    UnreachableGammaError,
    effective_params,
    preset_realization,
    raw_indices,
    realization_for_gamma,
)
from .core import (
    EffectiveParams,
    complex_sinc,
    dispersion,
    hamiltonian,
    propagator,
)
from .moments import (
    DriftAndPump,
    drift_and_pump,
    integrate_moments_path,
    moment_ode_rhs,
)
from .observables import (
    DecayedFieldError,
    GrowthGuardError,
    NoSpontaneousFieldError,
    ObservableCurve,
    PhotonNumbers,
    VacuumMoments,
    asymptotic_shares,
    noon_photon_numbers,
    noon_two_point,
    q_noon,
    q_vacuum,
    sample_curve,
    single_photon_numbers,
    vacuum_moments,
)
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "DimerRealization",
    "Kind",
    "UnreachableGammaError",
    "effective_params",
    "preset_realization",
    "raw_indices",
    "realization_for_gamma",
    "EffectiveParams",
    "complex_sinc",
    "dispersion",
    "hamiltonian",
    "propagator",
    "DriftAndPump",
    "drift_and_pump",
    "integrate_moments_path",
    "moment_ode_rhs",
    "DecayedFieldError",
    "GrowthGuardError",
    "NoSpontaneousFieldError",
    "ObservableCurve",
    "PhotonNumbers",
    "VacuumMoments",
    "asymptotic_shares",
    "noon_photon_numbers",
    "noon_two_point",
    "q_noon",
    "q_vacuum",
    "sample_curve",
    "single_photon_numbers",
    "vacuum_moments",
    "VerificationReport",
    "run_verification",
    "__version__",
]
