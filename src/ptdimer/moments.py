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
matrix power P(h)^n by repeated squaring (Higham, Functions of Matrices, SIAM
2008, ch. 4).  That is the same RK4 solution, with the same truncation error,
in O(log n) matrix products instead of n steps.  The squarings P, P^2, P^4, ...
are formed once per call, and each distance mark multiplies those of its
count's set bits in the order of ``np.linalg.matrix_power``, so a mark's power
is matrix_power's, bit for bit.  A stack of devices (drift and pump of shape
(k, 2, 2)) is carried through the same products at once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .configurations import DimerRealization, raw_indices


@dataclass(frozen=True)
class DriftAndPump:
    """Drift matrix M and pump matrix D of the moment equation.

    One device is a pair of 2x2 matrices; a stack of k devices is a pair of
    (k, 2, 2) arrays, integrated together by ``integrate_moments_path``.
    """

    m: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.m, dtype=complex)
        d = np.ascontiguousarray(self.d, dtype=float)
        if m.shape != d.shape or m.shape[-2:] != (2, 2) or m.ndim not in (2, 3) or not m.size:
            raise ValueError("drift and pump must both be 2x2, or non-empty stacks of one shape")
        if not (np.all(np.isfinite(m.view(float))) and np.all(np.isfinite(d))):
            raise ValueError("drift and pump must be finite")
        rates = np.diagonal(d, axis1=-2, axis2=-1)
        if np.any(d[..., 0, 1] != 0.0) or np.any(d[..., 1, 0] != 0.0) or np.any(rates < 0.0):
            raise ValueError("pump must be diagonal with non-negative rates")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)


def drift_and_pump(realizations: DimerRealization | Sequence[DimerRealization]) -> DriftAndPump:
    """Moment-equation coefficients of a physical device, in zeta units.

    A sequence of devices gives one stack of k, validated once; one device keeps its 2x2 pair.
    """
    one = isinstance(realizations, DimerRealization)
    devices = [realizations] if one else realizations
    indices = np.array([raw_indices(r) for r in devices], dtype=complex).reshape(-1, 2)
    g = np.array([r.g for r in devices])[:, None]
    m = np.ones((len(devices), 2, 2), dtype=complex)
    m.real[:, [0, 1], [0, 1]] = indices.real / g  # n_j / g, as Python divides by a float
    m.imag[:, [0, 1], [0, 1]] = indices.imag / g
    d = np.zeros(m.shape)
    d[:, [0, 1], [0, 1]] = 2.0 * np.maximum(0.0, -indices.imag) / g
    return DriftAndPump(m=m[0], d=d[0]) if one else DriftAndPump(m=m, d=d)


def moment_ode_rhs(state: np.ndarray, dp: DriftAndPump) -> np.ndarray:
    """Right-hand side i (N M - M^dag N) + D of the moment equation, per device of a stack."""
    n = np.asarray(state, dtype=complex)
    return 1j * (n @ dp.m - np.swapaxes(dp.m.conj(), -1, -2) @ n) + dp.d


def _generator(dp: DriftAndPump) -> np.ndarray:
    """The RHS as a 5x5 linear map G on the augmented state (vec N, 1), one per device.

    Built by probing moment_ode_rhs once, on the zero matrix and the four basis
    matrices stacked, so the integrator cannot drift out of sync with the public
    right-hand side.
    """
    stack = dp.m.shape[:-2]
    probes = np.zeros((5, 4), dtype=complex)
    probes[1:] = np.eye(4)
    rhs = moment_ode_rhs(probes.reshape((5,) + (1,) * len(stack) + (2, 2)), dp)
    rhs = rhs.reshape((5,) + stack + (4,))
    gen = np.zeros(stack + (5, 5), dtype=complex)
    gen[..., :4, 4] = rhs[0]
    gen[..., :4, :4] = np.moveaxis(rhs[1:] - rhs[0], 0, -1)
    return gen


def _rk4_step_map(gen: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dw/dzeta = G w, applied to the basis vectors."""
    w = np.eye(gen.shape[-1], dtype=complex)
    k1 = gen @ w
    k2 = gen @ (w + 0.5 * h * k1)
    k3 = gen @ (w + 0.5 * h * k2)
    k4 = gen @ (w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _matrix_powers(p: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """p to each of ``counts``, each as ``np.linalg.matrix_power`` forms it, bit for bit.

    The squarings p, p^2, p^4, ... are formed once for all counts.  Each count
    multiplies the squarings of its set bits from the lowest up, as matrix_power
    does, except a count of 3, which matrix_power forms as (p p) p.
    """
    squarings = [p]
    for _ in range(max(counts).bit_length() - 1):
        squarings.append(squarings[-1] @ squarings[-1])
    identity = np.broadcast_to(np.eye(p.shape[-1], dtype=p.dtype), p.shape)
    powers = []
    for count in counts:
        factors = [square for bit, square in enumerate(squarings) if count >> bit & 1]
        if count == 3:
            factors.reverse()
        powers.append(functools.reduce(np.matmul, factors) if factors else identity)
    return powers


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


def integrate_moments_path(
    initial: np.ndarray,
    dp: DriftAndPump,
    zetas: tuple[float, ...] | list[float],
    step: float,
) -> list[np.ndarray]:
    """Moment matrices at several increasing distances, by classical fixed-step RK4.

    ``initial`` is one 2x2 matrix or a stack (j, 2, 2) of them, and ``dp`` one
    device or a stack of k; each returned state has shape (k,) + initial.shape
    for a stack of devices and initial.shape for one, so one call serves every
    launch state of every device (a stacked state agrees with its own single
    call to round-off).  Each mark is integrated from zero on its own: the
    full steps as the step map P to their count, bit for bit as
    ``np.linalg.matrix_power`` forms it (from squarings shared by the marks),
    then the last step shortened when the mark is not a multiple of ``step``.
    So every returned state equals the call with that mark alone, bit for
    bit, and a mark of 0 returns ``initial`` exactly.  Raises OverflowError if
    a state leaves the representable range (runaway amplification).
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    marks = [float(z) for z in zetas]
    if not marks or any(not math.isfinite(z) or z < 0.0 for z in marks):
        raise ValueError("distances must be finite and non-negative")
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError("distances must be strictly increasing")

    gen = _generator(dp)
    size = gen.shape[-1]  # of the augmented state (vec N, 1)
    n0 = _validate_initial(initial)
    states = n0.reshape(-1, size - 1)
    # one column (vec N, 1) per initial matrix
    w0 = np.vstack((states.T, np.ones(len(states))))
    splits = [_split_steps(mark, step) for mark in marks]
    out: list[np.ndarray] = []
    # runaway growth surfaces as the OverflowError below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        step_map = _rk4_step_map(gen, step)
        powers = _matrix_powers(step_map, [count for count, _ in splits])
        for mark, (count, rem), power in zip(marks, splits, powers):
            w = power @ w0
            if rem > 0.0:
                w = _rk4_step_map(gen, rem) @ w
            if not np.all(np.isfinite(w.view(float))):
                raise OverflowError(
                    f"moment integration left the representable range near zeta={mark}"
                )
            out.append(np.swapaxes(w[..., :-1, :], -1, -2).reshape(gen.shape[:-2] + n0.shape))
    return out
