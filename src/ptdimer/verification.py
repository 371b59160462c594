"""Cross-checks between the closed-form observables and the brute-force route.

Two fully independent implementations of the same physics live in this
package: the moment integrals in closed form, as one block-matrix exponential
built from the coupling matrix H and the pump weights (C. F. Van Loan, IEEE
TAC 23(3), 1978; `core` / `observables`), and direct fixed-step integration
of the second-moment equation of motion from its drift and pump (`moments`).
This module drives both over a grid of device kinds, inversion strengths and
distances, and reports the worst disagreement.  ``run_verification`` builds
one device table, the grid devices (the ``sweep`` presets at -|gamma| and
+|gamma|, each once), and evaluates the production route once: one
``_evaluate`` of the ``all`` columns, as ``sample_curve`` writes them, on one
stack of every grid device on GRID_ZETAS.  Each section reads whole rows of
that stack and its columns.  A point of a stack is evaluated independently of
the others, and every device here is imaginary-n, so the stack has one dtype
and each point equals the same point in a stack of its own, bit for bit.  The
oracle checks read every launch of ``observables.LAUNCHES`` on every grid
device; both routes start from diag(LAUNCHES[key]) and return it exactly at
zeta 0.  For each, the full moment matrix <a_i^dag a_j>, cross moment
included, is compared with the oracle, which integrates every launch of every
grid device in one call on their stacked drift and pump; every deviation is
one array expression over the stack.
The correlation checks read the production q00 and q2002 columns of the same
evaluation.  The module also exercises the structural identities the transfer
matrix must satisfy on its own (determinant, composition, the degenerate
limit, agreement with ``core.expm``, the Taylor scaling-and-squaring
exponential, on exp(i zeta H), one zeta per sample), as array expressions
over the samples of one broadcast ``propagator`` call per section: a NaN in one
sample fails its check.

Growing and decaying solutions are compared after dividing out the common
envelope exp(2 beta zeta), so the reported absolute deviations stay
meaningful for amplifying devices instead of being swamped by the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import (
    DimerRealization,
    Kind,
    effective_params,
    preset_realization,
    raw_indices,
)
from .core import EffectiveParams, expm, hamiltonian, propagator
from .moments import drift_and_pump, integrate_moments_path
from .observables import LAUNCHES, MomentBundle, _evaluate, launch_moments, with_envelope

GRID_GAMMA_MAGNITUDES = (0.5, 1.0, 1.2)
GRID_ZETAS = (0.0, 0.5, 1.0, 2.0, 5.0)
ORACLE_STEP = 4e-4

ROUTE_TOL = 1e-7
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
    """Outcome of a full cross-check run: ok when at least one check ran and every check passed."""

    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def worst(self) -> Check:
        """The check farthest past its limit; a non-finite deviation is the farthest."""
        if not self.checks:
            raise ValueError("no checks ran")
        return max(
            self.checks, key=lambda c: (not math.isfinite(c.deviation), c.deviation / c.limit)
        )

    def describe(self) -> str:
        lines = [f"{len(self.checks)} checks, route tolerance {ROUTE_TOL:g}"]
        if not self.checks:
            return "\n".join(lines + ["no checks ran"])
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


def _structure_checks(report: VerificationReport) -> None:
    low, high = np.array([-2.0, -2.0, 0.05, 0.05]), np.array([2.0, 2.0, 2.5, 2.5])
    re, im, za, zb = np.random.default_rng(_RNG_SEED).uniform(low, high, (_STRUCTURE_SAMPLES, 4)).T
    index = np.arange(_STRUCTURE_SAMPLES)
    re[index % 4 == 0] = 0.0  # pure inversion, the most used axis
    im[index % 5 == 0] = 0.0  # lossless devices must stay unitary
    ns = re + 1j * im
    ua, ub, uab = propagator(ns, np.array([za, zb, za + zb]))
    reference = expm(1j * hamiltonian(ns), za)
    # every deviation is a NaN-propagating np.max: a NaN from one sample fails its check
    scale = np.maximum(np.maximum(np.abs(ua).max(axis=(1, 2)), np.abs(ub).max(axis=(1, 2))), 1.0)
    det = ua[:, 0, 0] * ua[:, 1, 1] - ua[:, 0, 1] * ua[:, 1, 0]
    worst_det = float(np.max(np.abs(det - 1.0) / scale**2))
    worst_semi = float(np.max(np.abs(ub @ ua - uab).max(axis=(1, 2)) / scale**2))
    worst_expm = float(np.max(np.abs(ua - reference).max(axis=(1, 2)) / scale))
    lossless = ua[ns.imag == 0.0]
    worst_unitary = float(np.max(np.abs(lossless.conj().swapaxes(1, 2) @ lossless - np.eye(2))))

    # At the degeneracy the closed form collapses to a polynomial in zeta, and it must
    # approach that polynomial continuously from both regimes: gamma = -1 and +1 on
    # it at zeta 0.7 and 5, then at zeta 5 offset by delta = -1e-6 and +1e-6.
    signs = np.array([-1.0, -1.0, 1.0, 1.0] * 2)
    zetas = np.array([0.7, 5.0, 0.7, 5.0] + [5.0] * 4)
    deltas = np.array([0.0] * 4 + [-1e-6, 1e-6] * 2)
    limit = np.eye(2) + 1j * zetas[:, None, None] * hamiltonian(1j * signs)
    off = np.abs(propagator(1j * (signs * (1.0 + deltas)), zetas) - limit).max(axis=(1, 2))
    exact, near = float(np.max(off[:4])), float(np.max(off[4:]))
    report.checks += [
        Check("propagator determinant (scaled)", worst_det, PROPAGATOR_STRUCTURE_TOL),
        Check("propagator composition (scaled)", worst_semi, PROPAGATOR_STRUCTURE_TOL),
        Check("propagator vs matrix exponential (scaled)", worst_expm, PROPAGATOR_STRUCTURE_TOL),
        Check("propagator unitarity at real detuning", worst_unitary, UNITARITY_TOL),
        Check("degenerate propagator is polynomial", exact, UNITARITY_TOL),
        Check("continuity through the degenerate point", near, DEGENERATE_CONTINUITY_TOL),
    ]


_ORACLE_CHECK_NAMES = (  # the oracle check of each launch, in ``LAUNCHES`` order
    "moment oracle [{device}] vacuum",
    "moment oracle [{device}] photon in guide 1",
    "moment oracle [{device}] photon in guide 2",
    "two-photon mean numbers [{device}]",
)


def _oracle_checks(
    report: VerificationReport,
    devices: list[DimerRealization],
    params: list[EffectiveParams],
    bundles: MomentBundle,
) -> None:
    """Compare the full moment matrix of every launch with the moment oracle.

    ``devices`` are the rows of the stack ``bundles``, with their ``params``.
    Their oracle paths for every launch, from diag(LAUNCHES[key]), come from one
    ``integrate_moments_path`` call on their stacked drift and pump, on the
    stack's marks, and the worst deviation of each device and launch is one
    array expression over (device, mark, launch).
    """
    initial = np.array([np.diag(photons) for photons in LAUNCHES.values()])
    paths = integrate_moments_path(initial, drift_and_pump(devices), GRID_ZETAS, step=ORACLE_STEP)
    launched = np.stack([launch_moments(bundles, launch) for launch in LAUNCHES], 2)
    gaps = np.abs(with_envelope(bundles, launched) - np.stack(paths, 1))
    beta = np.array([p.beta for p in params])
    frame = np.exp(-2.0 * beta[:, None] * bundles.zetas)
    worst = np.max(gaps.max(axis=(3, 4)) * frame[..., None], axis=1)  # (device, launch)
    for realization, p, deviations in zip(devices, params, worst):
        device = f"{realization.kind.value} gamma={p.gamma:+.2f}"
        for name, deviation in zip(_ORACLE_CHECK_NAMES, deviations, strict=True):
            report.checks.append(Check(name.format(device=device), float(deviation), ROUTE_TOL))


def _correlation_checks(
    report: VerificationReport,
    devices: list[DimerRealization],
    columns: dict[str, np.ndarray],
) -> None:
    """The production q00 and q2002 ``columns``, as ``sample_curve`` writes them, on the stack.

    q00 is read on the pumped ``devices`` past zeta 0, q2002 on every device at zeta 0.
    """
    # q00 is bounded wherever a guide has gain; NaN (a gap) propagates through
    # np.max and fails the check.  At zeta 0 there is no spontaneous field yet,
    # so q00 there is a gap by definition and is not read.
    pumped = [row for row, r in enumerate(devices) if any(n.imag < 0.0 for n in raw_indices(r))]
    q = columns["q00"][pumped, 1:]
    bound = float(np.max(np.maximum(-q, q - 1.0), initial=0.0))
    report.checks.append(Check("vacuum correlation bounded in [0, 1]", bound, POSITIVITY_TOL))

    q = columns["q2002"][:, 0]
    anchor = float(np.max(np.abs(q + 1.0), initial=0.0))
    report.checks.append(Check("two-photon correlation anchored at -1", anchor, ROUTE_TOL))


def run_verification() -> VerificationReport:
    """Run every cross-check and return the collected report.

    ROUTE_TOL limits the absolute disagreement between the closed-form
    route and the moment integration at fixed step ORACLE_STEP, measured after
    dividing out the envelope exp(2 beta zeta), over GRID_GAMMA_MAGNITUDES and
    GRID_ZETAS.  Structural identities of the transfer matrix use their own
    limits.
    """
    report = VerificationReport()
    _structure_checks(report)
    # the device table: the presets at -m, then +m, each once (a kind that cannot reach
    # +m reads it as -m)
    signed = [s * m for m in GRID_GAMMA_MAGNITUDES for s in (-1.0, 1.0)]
    devices = list(dict.fromkeys(preset_realization(kind, g) for kind in Kind for g in signed))
    params = [effective_params(r) for r in devices]
    bundles, _, columns, _ = _evaluate(params, "all", GRID_ZETAS, None)
    _oracle_checks(report, devices, params, bundles)
    _correlation_checks(report, devices, columns)
    return report
