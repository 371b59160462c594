"""Brute-force route: direct integration of the second-moment equations.

The correlation matrix N with entries N[i, j] = <a_i^dag a_j> of two coupled
guides with complex indices obeys a closed linear equation in propagation
distance zeta (units of the coupling length),

    dN/dzeta = i (N M - M^dag N) + D,

with drift M = [[n1/g, 1], [1, n2/g]] and a diagonal pump D feeding
2 * max(0, -Im(n_j)) / g into guide j: under normal ordering only amplifying
media inject photons, lossy ones only absorb.

This module deliberately knows nothing about the closed-form transfer matrix
or the observables built on it; a plain fixed-step fourth-order Runge-Kutta
scheme does all the work.  The test suite and the `verify`
command compare the two routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configurations import DimerRealization, raw_indices

DEFAULT_STEP = 1e-3

# Tolerances used when validating moment matrices in tests and checks.
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class DriftAndPump:
    """Drift matrix M and pump matrix D of the moment equation."""

    m: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.m, dtype=complex)
        d = np.ascontiguousarray(self.d, dtype=float)
        if m.shape != (2, 2) or d.shape != (2, 2):
            raise ValueError("drift and pump must both be 2x2")
        if not (np.all(np.isfinite(m.view(float))) and np.all(np.isfinite(d))):
            raise ValueError("drift and pump must be finite")
        if d[0, 1] != 0.0 or d[1, 0] != 0.0 or d[0, 0] < 0.0 or d[1, 1] < 0.0:
            raise ValueError("pump must be diagonal with non-negative rates")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)


def drift_and_pump(realization: DimerRealization) -> DriftAndPump:
    """Moment-equation coefficients of a physical device, in zeta units."""
    n1, n2 = raw_indices(realization)
    g = realization.g
    m = np.array([[n1 / g, 1.0], [1.0, n2 / g]], dtype=complex)
    d = np.diag([2.0 * max(0.0, -n1.imag) / g, 2.0 * max(0.0, -n2.imag) / g])
    return DriftAndPump(m=m, d=d)


def moment_ode_rhs(state: np.ndarray, dp: DriftAndPump) -> np.ndarray:
    """Right-hand side i (N M - M^dag N) + D of the moment equation."""
    n = np.asarray(state, dtype=complex)
    return 1j * (n @ dp.m - dp.m.conj().T @ n) + dp.d


def _flattened_rhs(dp: DriftAndPump) -> tuple[np.ndarray, np.ndarray]:
    """The RHS as a 4x4 linear map plus constant on vec(N).

    Built by probing moment_ode_rhs with basis matrices so the integrator
    cannot drift out of sync with the public right-hand side.
    """
    const = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp).ravel()
    a = np.empty((4, 4), dtype=complex)
    for k in range(4):
        basis = np.zeros((2, 2), dtype=complex)
        basis.flat[k] = 1.0
        a[:, k] = moment_ode_rhs(basis, dp).ravel() - const
    return a, const


def _validate_initial(initial: np.ndarray) -> np.ndarray:
    n0 = np.ascontiguousarray(initial, dtype=complex)
    if n0.shape != (2, 2):
        raise ValueError("initial moment matrix must be 2x2")
    if not np.all(np.isfinite(n0.view(float))):
        raise ValueError("initial moment matrix must be finite")
    return n0


def _split_steps(zeta: float, step: float) -> tuple[int, float]:
    """Number of full steps and the (possibly zero) final partial step."""
    count = int(math.floor(zeta / step + 1e-9))
    rem = zeta - count * step
    if rem < step * 1e-9:
        rem = 0.0
    return count, rem


def _rk4(v: np.ndarray, a: np.ndarray, const: np.ndarray, h: float, count: int) -> np.ndarray:
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(count):
        k1 = a @ v + const
        k2 = a @ (v + half * k1) + const
        k3 = a @ (v + half * k2) + const
        k4 = a @ (v + h * k3) + const
        v = v + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return v


def integrate_moments(
    initial: np.ndarray, dp: DriftAndPump, zeta: float, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Moment matrix at distance zeta from a given initial matrix.

    Classical fixed-step RK4 from 0 to zeta; the last step is shortened when
    zeta is not a multiple of the step.  Raises OverflowError if the state
    leaves the representable range (runaway amplification).
    """
    return integrate_moments_path(initial, dp, (zeta,), step)[0]


def integrate_moments_path(
    initial: np.ndarray,
    dp: DriftAndPump,
    zetas: tuple[float, ...] | list[float],
    step: float = DEFAULT_STEP,
) -> list[np.ndarray]:
    """Moment matrices at several increasing distances in one sweep.

    Equivalent to calling integrate_moments per distance (bit for bit when
    every distance is a multiple of the step, since the step sequence is then
    identical), but without re-integrating the shared prefix.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    marks = [float(z) for z in zetas]
    if not marks or any(not math.isfinite(z) or z < 0.0 for z in marks):
        raise ValueError("distances must be finite and non-negative")
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError("distances must be strictly increasing")

    a, const = _flattened_rhs(dp)
    v = _validate_initial(initial).ravel()
    out: list[np.ndarray] = []
    done = 0.0
    for mark in marks:
        count, rem = _split_steps(mark - done, step)
        v = _rk4(v, a, const, step, count)
        if rem > 0.0:
            v = _rk4(v, a, const, rem, 1)
        done = mark
        if not np.all(np.isfinite(v.view(float))):
            raise OverflowError(
                f"moment integration left the representable range near zeta={mark}"
            )
        out.append(v.reshape(2, 2).copy())
    return out
