"""Cross-checks between the closed-form observables and the brute-force route.

Two fully independent implementations of the same physics live in this
package: the moment integrals in closed form, as one block-matrix exponential
built from the coupling matrix H and the pump weights (C. F. Van Loan, IEEE
TAC 23(3), 1978; `core` / `observables`), and direct fixed-step integration
of the second-moment equation of motion from its drift and pump (`moments`).
This module drives both over a grid of device kinds, inversion strengths and
distances, and reports the worst disagreement.  It also exercises the
structural identities the transfer matrix must satisfy on its own
(determinant, composition, the degenerate limit, agreement with the generic
matrix exponential).

Growing and decaying solutions are compared after dividing out the common
envelope exp(2 beta zeta), so the reported absolute deviations stay
meaningful for amplifying devices instead of being swamped by the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .configurations import Kind, effective_params, realization_for_gamma
from .core import hamiltonian, propagator
from .moments import drift_and_pump, integrate_moments_path
from .observables import (
    noon_photon_numbers,
    q_noon,
    single_photon_numbers,
    vacuum_moments,
)

GRID_GAMMA_MAGNITUDES = (0.5, 1.0, 1.2)
GRID_ZETAS = (0.5, 1.0, 2.0, 5.0)

PROPAGATOR_STRUCTURE_TOL = 1e-10
UNITARITY_TOL = 1e-12
DEGENERATE_CONTINUITY_TOL = 1e-4
POSITIVITY_TOL = 1e-9

_RNG_SEED = 20240917
_STRUCTURE_SAMPLES = 60


@dataclass(frozen=True)
class Check:
    """One named comparison with its observed deviation and its limit."""

    name: str
    deviation: float
    limit: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.limit


@dataclass
class VerificationReport:
    """Outcome of a full cross-check run."""

    tolerance: float
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def worst(self) -> Check:
        return max(self.checks, key=lambda c: c.deviation / c.limit)

    def describe(self) -> str:
        lines = [f"{len(self.checks)} checks, route tolerance {self.tolerance:g}"]
        for check in self.failures:
            lines.append(
                f"FAIL {check.name}: deviation {check.deviation:.3e} > {check.limit:g}"
            )
        worst = self.worst()
        lines.append(
            f"worst: {worst.name} ({worst.deviation:.3e} of allowed {worst.limit:g})"
        )
        lines.append("OK" if self.ok else f"{len(self.failures)} checks failed")
        return "\n".join(lines)


def _signed_gammas(kind: Kind, magnitudes: tuple[float, ...]) -> list[float]:
    if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS):
        signs = (-1.0, 1.0)
    else:
        signs = (-1.0,)
    return [sign * mag for mag in magnitudes for sign in signs]


def _grid_realizations(magnitudes: tuple[float, ...]):
    for kind in Kind:
        for gamma in _signed_gammas(kind, magnitudes):
            yield realization_for_gamma(kind, gamma)


def _structure_checks(report: VerificationReport) -> None:
    rng = np.random.default_rng(_RNG_SEED)
    worst_det = worst_semi = worst_expm = worst_unitary = 0.0
    for index in range(_STRUCTURE_SAMPLES):
        n = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if index % 4 == 0:
            n = complex(0.0, n.imag)  # pure inversion, the most used axis
        if index % 5 == 0:
            n = complex(n.real, 0.0)  # lossless devices must stay unitary
        za, zb = rng.uniform(0.05, 2.5, size=2)
        ua = propagator(n, za)
        ub = propagator(n, zb)
        uab = propagator(n, za + zb)
        scale = max(1.0, float(np.max(np.abs(ua))), float(np.max(np.abs(ub))))
        det = ua[0, 0] * ua[1, 1] - ua[0, 1] * ua[1, 0]
        worst_det = max(worst_det, abs(det - 1.0) / scale**2)
        worst_semi = max(worst_semi, float(np.max(np.abs(ub @ ua - uab))) / scale**2)
        reference = expm(1j * za * hamiltonian(n))
        worst_expm = max(worst_expm, float(np.max(np.abs(ua - reference))) / scale)
        if n.imag == 0.0:
            gram = ua.conj().T @ ua
            worst_unitary = max(worst_unitary, float(np.max(np.abs(gram - np.eye(2)))))
    report.checks.append(
        Check("propagator determinant (scaled)", worst_det, PROPAGATOR_STRUCTURE_TOL)
    )
    report.checks.append(
        Check("propagator composition (scaled)", worst_semi, PROPAGATOR_STRUCTURE_TOL)
    )
    report.checks.append(
        Check(
            "propagator vs matrix exponential (scaled)",
            worst_expm,
            PROPAGATOR_STRUCTURE_TOL,
        )
    )
    report.checks.append(
        Check("propagator unitarity at real detuning", worst_unitary, UNITARITY_TOL)
    )

    # At the degeneracy the closed form collapses to a polynomial in zeta,
    # and it must approach that polynomial continuously from both regimes.
    worst_exact = 0.0
    for sign in (-1.0, 1.0):
        for zeta in (0.7, 5.0):
            u = propagator(complex(0.0, sign), zeta)
            limit = np.eye(2) + 1j * zeta * hamiltonian(complex(0.0, sign))
            worst_exact = max(worst_exact, float(np.max(np.abs(u - limit))))
    report.checks.append(
        Check("degenerate propagator is polynomial", worst_exact, UNITARITY_TOL)
    )

    worst_cont = 0.0
    for sign in (-1.0, 1.0):
        for delta in (-1e-6, 1e-6):
            u = propagator(complex(0.0, sign * (1.0 + delta)), 5.0)
            limit = np.eye(2) + 5.0j * hamiltonian(complex(0.0, sign))
            worst_cont = max(worst_cont, float(np.max(np.abs(u - limit))))
    report.checks.append(
        Check(
            "continuity through the degenerate point",
            worst_cont,
            DEGENERATE_CONTINUITY_TOL,
        )
    )


def _initial_states() -> list[tuple[str, int | None, np.ndarray]]:
    return [
        ("vacuum", None, np.zeros((2, 2), dtype=complex)),
        ("photon in guide 1", 1, np.diag([1.0, 0.0]).astype(complex)),
        ("photon in guide 2", 2, np.diag([0.0, 1.0]).astype(complex)),
    ]


def _compensated_deviation(
    predicted: np.ndarray, oracle: np.ndarray, beta: float, zeta: float
) -> float:
    frame = math.exp(-2.0 * beta * zeta)
    return float(np.max(np.abs(predicted - oracle))) * frame


def _oracle_checks(
    report: VerificationReport,
    tolerance: float,
    oracle_step: float,
    magnitudes: tuple[float, ...],
    zetas: tuple[float, ...],
) -> None:
    marks = tuple(sorted(zetas))
    for realization in _grid_realizations(magnitudes):
        params = effective_params(realization)
        kind = realization.kind
        dp = drift_and_pump(realization)
        label = f"{kind.value} gamma={params.gamma:+.2f}"
        for state_name, port, initial in _initial_states():
            snapshots = integrate_moments_path(initial, dp, marks, step=oracle_step)
            worst = 0.0
            for zeta, oracle in zip(marks, snapshots):
                vm = vacuum_moments(params, kind, zeta, max_magnitude=None)
                if port is None:
                    n1, n2, n12 = vm.n1, vm.n2, vm.n12
                else:
                    numbers = single_photon_numbers(
                        params, kind, zeta, port, max_magnitude=None
                    )
                    u = propagator(params.n, zeta)
                    env = math.exp(2.0 * params.beta * zeta)
                    n1, n2 = numbers.n1, numbers.n2
                    n12 = vm.n12 + env * u[0, port - 1].conjugate() * u[1, port - 1]
                predicted = np.array([[n1, n12], [n12.conjugate(), n2]])
                worst = max(
                    worst,
                    _compensated_deviation(predicted, oracle, params.beta, zeta),
                )
            report.checks.append(
                Check(f"moment oracle [{label}] {state_name}", worst, tolerance)
            )


def _two_photon_oracle_checks(
    report: VerificationReport,
    tolerance: float,
    oracle_step: float,
    magnitudes: tuple[float, ...],
    zetas: tuple[float, ...],
) -> None:
    """Check the two-photon mean numbers against the moment oracle.

    The mean-number part of the two-photon input evolves exactly like the
    moment matrix diag(1, 1): linearity of the moment equation makes the
    oracle reusable for it.
    """
    marks = tuple(sorted(zetas))
    initial = np.eye(2, dtype=complex)
    for kind in (Kind.GAIN_LOSS, Kind.GAIN_GAIN):
        for gamma in _signed_gammas(kind, magnitudes[:1]):
            realization = realization_for_gamma(kind, gamma)
            params = effective_params(realization)
            dp = drift_and_pump(realization)
            snapshots = integrate_moments_path(initial, dp, marks, step=oracle_step)
            worst = 0.0
            for zeta, oracle in zip(marks, snapshots):
                numbers = noon_photon_numbers(params, kind, zeta, max_magnitude=None)
                predicted = np.array(
                    [[numbers.n1, oracle[0, 1]], [oracle[1, 0], numbers.n2]]
                )
                worst = max(
                    worst,
                    _compensated_deviation(predicted, oracle, params.beta, zeta),
                )
            report.checks.append(
                Check(
                    f"two-photon mean numbers [{kind.value} gamma={gamma:+.2f}]",
                    worst,
                    tolerance,
                )
            )


def _correlation_checks(
    report: VerificationReport,
    tolerance: float,
    magnitudes: tuple[float, ...],
) -> None:
    worst_bound = 0.0
    for kind in (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE):
        for gamma in _signed_gammas(kind, magnitudes):
            realization = realization_for_gamma(kind, gamma)
            params = effective_params(realization)
            for zeta in (0.3, 1.7, 4.1):
                vm = vacuum_moments(params, kind, zeta, max_magnitude=None)
                q = abs(vm.n12) ** 2 / (vm.n1 * vm.n2)
                worst_bound = max(worst_bound, -q, q - 1.0)
    report.checks.append(
        Check("vacuum correlation bounded in [0, 1]", worst_bound, POSITIVITY_TOL)
    )

    worst_anchor = 0.0
    for kind in Kind:
        gamma = 0.7 if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else -0.7
        params = effective_params(realization_for_gamma(kind, gamma))
        worst_anchor = max(worst_anchor, abs(q_noon(params, kind, 0.0) + 1.0))
    report.checks.append(
        Check("two-photon correlation anchored at -1", worst_anchor, tolerance)
    )


def run_verification(
    tolerance: float = 1e-7,
    *,
    oracle_step: float = 4e-4,
    gamma_magnitudes: tuple[float, ...] = GRID_GAMMA_MAGNITUDES,
    zetas: tuple[float, ...] = GRID_ZETAS,
) -> VerificationReport:
    """Run every cross-check and return the collected report.

    ``tolerance`` limits the absolute disagreement between the closed-form
    route and the fixed-step moment integration, measured after dividing out
    the envelope exp(2 beta zeta).  Structural identities of the transfer
    matrix use their own limits.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    report = VerificationReport(tolerance=tolerance)
    _structure_checks(report)
    _oracle_checks(report, tolerance, oracle_step, gamma_magnitudes, zetas)
    _two_photon_oracle_checks(report, tolerance, oracle_step, gamma_magnitudes, zetas)
    _correlation_checks(report, tolerance, gamma_magnitudes)
    return report
