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

The coefficients do not depend on zeta, so one RK4 step of length h is a
fixed affine map of vec(N).  On the augmented state w = (vec N, 1) it is the
5x5 matrix P(h) = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, obtained by
applying the four RK4 stages to the basis vectors, and n steps are the
matrix power P(h)^n, formed by repeated squaring (Higham, Functions of
Matrices, SIAM 2008, ch. 4).  That is the same RK4 solution, with the same
truncation error, in O(log n) matrix products instead of n steps.
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


def _generator(dp: DriftAndPump) -> np.ndarray:
    """The RHS as a 5x5 linear map G on the augmented state (vec N, 1).

    Built by probing moment_ode_rhs with basis matrices so the integrator
    cannot drift out of sync with the public right-hand side.
    """
    gen = np.zeros((5, 5), dtype=complex)
    const = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp).ravel()
    gen[:4, 4] = const
    for k in range(4):
        basis = np.zeros((2, 2), dtype=complex)
        basis.flat[k] = 1.0
        gen[:4, k] = moment_ode_rhs(basis, dp).ravel() - const
    return gen


def _rk4_step_map(gen: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dw/dzeta = G w, applied to the basis vectors."""
    w = np.eye(5, dtype=complex)
    k1 = gen @ w
    k2 = gen @ (w + 0.5 * h * k1)
    k3 = gen @ (w + 0.5 * h * k2)
    k4 = gen @ (w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _validate_initial(initial: np.ndarray) -> np.ndarray:
    n0 = np.ascontiguousarray(initial, dtype=complex)
    if n0.shape[-2:] != (2, 2) or n0.ndim not in (2, 3):
        raise ValueError("initial moment matrix must be 2x2, or a stack of them")
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
    """Moment matrices at several increasing distances.

    ``initial`` is one 2x2 matrix or a stack (k, 2, 2) of them; each returned
    state has the same shape, so one call serves every launch state of a
    device (a stacked matrix agrees with its own single call to round-off).
    Each mark is integrated from zero on its own (the full steps as one
    matrix power, then at most one shortened step), so every returned state
    equals integrate_moments(initial, dp, mark, step) bit for bit, for any
    marks.  Raises OverflowError if a state leaves the representable range.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    marks = [float(z) for z in zetas]
    if not marks or any(not math.isfinite(z) or z < 0.0 for z in marks):
        raise ValueError("distances must be finite and non-negative")
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError("distances must be strictly increasing")

    gen = _generator(dp)
    full_step = _rk4_step_map(gen, step)
    n0 = _validate_initial(initial)
    states = n0.reshape(-1, 4)
    # one column (vec N, 1) per initial matrix
    w0 = np.vstack((states.T, np.ones(len(states))))
    out: list[np.ndarray] = []
    for mark in marks:
        count, rem = _split_steps(mark, step)
        # runaway growth surfaces as the OverflowError below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.linalg.matrix_power(full_step, count) @ w0
            if rem > 0.0:
                w = _rk4_step_map(gen, rem) @ w
        if not np.all(np.isfinite(w.view(float))):
            raise OverflowError(
                f"moment integration left the representable range near zeta={mark}"
            )
        out.append(w[:4].T.reshape(n0.shape))
    return out
