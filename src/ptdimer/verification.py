"""Cross-checks between the closed-form observables and the brute-force route.

Two fully independent implementations of the same physics live in this
package: the moment integrals in closed form, as one block-matrix exponential
built from the coupling matrix H and the pump weights (C. F. Van Loan, IEEE
TAC 23(3), 1978; `core` / `observables`), and direct fixed-step integration
of the second-moment equation of motion from its drift and pump (`moments`).
This module drives both over a grid of device kinds, inversion strengths and
distances, and reports the worst disagreement.  Each device gets one moment
bundle, the same one the CSV columns come from, and four launch states are
read from it: vacuum, one photon in guide 1, one photon in guide 2, and the
two-photon N00N input.  For each, the full moment matrix <a_i^dag a_j>,
cross moment included, is compared with the oracle, which integrates every
launch state of a device in one call.  The correlation checks read the
production q00 and q2002 columns.  The module also exercises the structural
identities the transfer matrix must satisfy on its own (determinant,
composition, the degenerate limit, agreement with ``core.expm``, the Taylor
scaling-and-squaring exponential, on exp(i zeta H), one zeta per sample).

Growing and decaying solutions are compared after dividing out the common
envelope exp(2 beta zeta), so the reported absolute deviations stay
meaningful for amplifying devices instead of being swamped by the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import Kind, effective_params, realization_for_gamma
from .core import expm, hamiltonian, propagator
from .moments import drift_and_pump, integrate_moments_path
from .observables import launch_moments, moment_bundle, sample_curve, with_envelope

GRID_GAMMA_MAGNITUDES = (0.5, 1.0, 1.2)
GRID_ZETAS = (0.5, 1.0, 2.0, 5.0)
ORACLE_STEP = 4e-4

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


def _structure_checks(report: VerificationReport) -> None:
    rng = np.random.default_rng(_RNG_SEED)
    samples = []
    for index in range(_STRUCTURE_SAMPLES):
        n = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if index % 4 == 0:
            n = complex(0.0, n.imag)  # pure inversion, the most used axis
        if index % 5 == 0:
            n = complex(n.real, 0.0)  # lossless devices must stay unitary
        za, zb = rng.uniform(0.05, 2.5, size=2)
        samples.append((n, za, zb))
    generators = np.array([1j * hamiltonian(n) for n, _, _ in samples])
    references = expm(generators, np.array([za for _, za, _ in samples]))
    worst_det = worst_semi = worst_expm = worst_unitary = 0.0
    for (n, za, zb), reference in zip(samples, references):
        ua = propagator(n, za)
        ub = propagator(n, zb)
        uab = propagator(n, za + zb)
        scale = max(1.0, float(np.max(np.abs(ua))), float(np.max(np.abs(ub))))
        det = ua[0, 0] * ua[1, 1] - ua[0, 1] * ua[1, 0]
        worst_det = max(worst_det, abs(det - 1.0) / scale**2)
        worst_semi = max(worst_semi, float(np.max(np.abs(ub @ ua - uab))) / scale**2)
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


# Launch states of the oracle checks: check name and the input ports (from 0)
# that carry one photon each.  The two-photon input (|20> + |02>)/sqrt(2)
# starts from the moment matrix diag(1, 1), so by linearity of the moment
# equation the oracle started there gives its moment matrix too.
_LAUNCH_STATES = (
    ("moment oracle [{device}] vacuum", ()),
    ("moment oracle [{device}] photon in guide 1", (0,)),
    ("moment oracle [{device}] photon in guide 2", (1,)),
)
_TWO_PHOTON_STATE = ("two-photon mean numbers [{device}]", (0, 1))
_TWO_PHOTON_KINDS = (Kind.GAIN_LOSS, Kind.GAIN_GAIN)


def _oracle_checks(report: VerificationReport, tolerance: float) -> None:
    """Compare the full moment matrix of each launch state with the moment oracle.

    Every reachable device gets one moment bundle on the distance marks; the
    two-photon state is checked on the gain-loss and gain-gain devices of the
    first magnitude.
    """
    for kind in Kind:
        for number, magnitude in enumerate(GRID_GAMMA_MAGNITUDES):
            states = _LAUNCH_STATES
            if number == 0 and kind in _TWO_PHOTON_KINDS:
                states += (_TWO_PHOTON_STATE,)
            for gamma in _signed_gammas(kind, (magnitude,)):
                realization = realization_for_gamma(kind, gamma)
                params = effective_params(realization)
                dp = drift_and_pump(realization)
                bundle = moment_bundle(params, kind, np.array(GRID_ZETAS))
                frame = np.exp(-2.0 * params.beta * bundle.zetas)
                device = f"{kind.value} gamma={params.gamma:+.2f}"
                initial = np.array([np.diag([p.count(0), p.count(1)]) for _, p in states])
                oracle = integrate_moments_path(initial, dp, GRID_ZETAS, step=ORACLE_STEP)
                for (name, ports), path in zip(states, np.stack(oracle, axis=1)):
                    gaps = np.abs(with_envelope(bundle, launch_moments(bundle, ports)) - path)
                    worst = float(np.max(gaps.max(axis=(1, 2)) * frame))
                    report.checks.append(Check(name.format(device=device), worst, tolerance))


def _production_column(
    kind: Kind, gamma: float, observable: str, zetas: tuple[float, ...]
) -> np.ndarray:
    """The CSV column ``observable`` of one device, unguarded."""
    params = effective_params(realization_for_gamma(kind, gamma))
    curve = sample_curve(params, kind, observable, np.array(zetas), max_magnitude=None)
    return curve.column(observable)


def _correlation_checks(report: VerificationReport, tolerance: float) -> None:
    # NaN (a gap) propagates through np.max and fails the check
    bounds = [0.0]
    for kind in (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE):
        for gamma in _signed_gammas(kind, GRID_GAMMA_MAGNITUDES):
            q = _production_column(kind, gamma, "q00", (0.3, 1.7, 4.1))
            bounds.extend(np.maximum(-q, q - 1.0))
    report.checks.append(
        Check("vacuum correlation bounded in [0, 1]", float(np.max(bounds)), POSITIVITY_TOL)
    )

    anchors = [0.0]
    for kind in Kind:
        gamma = 0.7 if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else -0.7
        anchors.extend(np.abs(_production_column(kind, gamma, "q2002", (0.0,)) + 1.0))
    report.checks.append(
        Check("two-photon correlation anchored at -1", float(np.max(anchors)), tolerance)
    )


def run_verification(tolerance: float = 1e-7) -> VerificationReport:
    """Run every cross-check and return the collected report.

    ``tolerance`` limits the absolute disagreement between the closed-form
    route and the moment integration at fixed step ORACLE_STEP, measured after
    dividing out the envelope exp(2 beta zeta), over GRID_GAMMA_MAGNITUDES and
    GRID_ZETAS.  Structural identities of the transfer matrix use their own
    limits.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    report = VerificationReport(tolerance=tolerance)
    _structure_checks(report)
    _oracle_checks(report, tolerance)
    _correlation_checks(report, tolerance)
    return report
