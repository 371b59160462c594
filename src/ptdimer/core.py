"""Closed-form propagation for two coupled guides with complex index detuning.

Two evanescently coupled single-mode waveguides, written in units of the
coupling length, are driven by the traceless matrix

    H = [[n, 1], [1, -n]]

where ``n`` is the (generally complex) difference of the effective refractive
indices over twice the coupling.  Because H squares to (1 + n^2) times the
identity, the transfer matrix exp(i H zeta) collapses to

    U(zeta) = cos(Omega zeta) I + i H zeta sinc(Omega zeta),

with Omega = sqrt(1 + n^2).  The sinc form is valid in every regime,
including the degenerate point 1 + n^2 = 0 where both eigenvectors of H
coalesce and any diagonalization-based formula breaks down.

For purely imaginary detuning n = i gamma the three regimes are the familiar
ones: oscillatory transfer for |gamma| < 1, linear-in-zeta growth exactly at
|gamma| = 1, and hyperbolic amplification for |gamma| > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Below this threshold |Omega*zeta| the cardinal sine is evaluated by its
# Taylor series.  This keeps the degenerate branch exact (sinc(0) = 1 without
# a 0/0) and avoids cancellation for tiny arguments.
SINC_SERIES_THRESHOLD = 1e-4

# Degree of the truncated Taylor series, and the largest scaled norm at which its
# backward error stays below unit round-off (A. H. Al-Mohy and N. J. Higham,
# SIAM J. Sci. Comput. 33(2), 2011, Table 3.1).
_TAYLOR_DEGREE = 30
_TAYLOR_THETA = 3.539666349
# Ceiling of the scaled distance x = t ||a|| 2**-s whatever the powers: x^30 / 30!
# stays finite up to about 2.3e11, so a nearly nilpotent a of large norm is squared too.
_TAYLOR_MAX_X = 1e11
# The divisors 1 .. 30 of the series' coefficients; 1/p for the norm estimates d_p, p = 2 .. 7
_TAYLOR_ORDERS = np.arange(1.0, _TAYLOR_DEGREE + 1)
_ROOT_ORDERS = 1.0 / np.arange(2, 8)


def _require_finite(value: complex, name: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _finite_indices(n) -> np.ndarray:
    """n as a complex array, every element finite."""
    n = np.asarray(n, dtype=complex)
    if not np.isfinite(n).all():
        raise ValueError(f"n must be finite, got {n.tolist()!r}")
    return n


@np.errstate(all="ignore")  # the branch not taken may divide by zero or overflow
def complex_sinc(x):
    """sin(x)/x for complex x, by a 4-term series near x = 0: a scalar, or elementwise."""
    x = np.asarray(x, dtype=complex)
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    return np.where(np.abs(x) < SINC_SERIES_THRESHOLD, series, np.sin(x) / x)[()]


def dispersion(n: complex) -> complex:
    """Principal branch of Omega = sqrt(1 + n^2).

    The branch is pinned so the result has a non-negative real part and, when
    the real part vanishes, a non-negative imaginary part.  For n = i gamma
    with |gamma| > 1 this gives Omega = i |Omega|, so the growth rate of the
    transfer matrix is Im(Omega) >= 0.
    """
    n = complex(n)
    _require_finite(n, "n")
    w = cmath.sqrt(1.0 + n * n)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def hamiltonian(n) -> np.ndarray:
    """Traceless coupling matrix [[n, 1], [1, -n]] in coupling-length units.

    An array n of shape (...) gives (..., 2, 2), a scalar one 2x2.
    """
    n = _finite_indices(n)
    h = np.ones(n.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = n, -n
    return h


def _norm1(a: np.ndarray) -> np.ndarray:
    """Exact 1-norm (largest absolute column sum) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


@np.errstate(all="ignore")  # non-finite input ends in a non-finite s, or a non-finite square
def expm(a: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t_i a) for one (n, n) matrix on a grid t, or for a stack (..., n, n) broadcast against t.

    Truncated Taylor series of degree 30 with scaling and squaring (A. H. Al-Mohy
    and N. J. Higham, SIAM J. Sci. Comput. 33(2), 2011).  The powers of a, divided
    by the power of two at or above ||a||_1 (exactly, and so they cannot
    overflow), are formed once per matrix.  As ||(t a)^p||_1 = |t|^p ||a^p||_1,
    the squaring count s of each point follows from scalars: the smallest
    alpha_p = max(d_p, d_{p+1}), d_p = ||a^p||_1^(1/p), over p >= 2 with
    p (p - 1) <= 31, times |t| and 2**-s, must not pass theta_30.  Each point's
    polynomial is its own product of 31 coefficients with the powers, squared s
    times, so a point comes out the same, bit for bit, whatever grid or stack it
    is part of; t = 0 and a zero matrix give the identity exactly.  The points
    are sorted once by s (stable), so round j squares the suffix of points with
    s > j in one product, and the results are scattered back once at the end.
    The stack's leading axes broadcast against t's: a stack (k, 1, n, n) on a
    grid of m distances gives (k, m, n, n), every matrix on every distance.
    A complex stack goes through its real form [[Re a, -Im a], [Im a, Re a]],
    whose exponential is the real form of exp(t a): numpy's stacked complex
    matmul costs several times the real one on small matrices.
    Raises OverflowError where no finite squaring count exists (non-finite
    entries or t, or a 1-norm past the float range); a square that leaves the
    float range comes out non-finite, without a warning.
    """
    a = np.asarray(a)
    size = a.shape[-1]
    if np.iscomplexobj(a):
        e = expm(np.block([[a.real, -a.imag], [a.imag, a.real]]), t)
        return e[..., :size, :size] + 1j * e[..., size:, :size]
    t = np.asarray(t, dtype=float)
    # a power of two at or above the 1-norm, so that a / norm is exact
    norm = np.ldexp(1.0, np.frexp(_norm1(a))[1])
    b = a / norm[..., None, None]
    powers = np.empty(a.shape[:-2] + (_TAYLOR_DEGREE + 1, size, size), dtype=b.dtype)
    powers[..., 0, :, :] = np.eye(size)
    powers[..., 1, :, :] = b
    k = 2
    while k <= _TAYLOR_DEGREE:  # b^0 .. b^(top-k) times b^k give b^k .. b^top, top < 2k
        top = min(2 * k - 1, _TAYLOR_DEGREE)
        step = powers[..., k - 1 : k, :, :] @ b[..., None, :, :]
        np.matmul(powers[..., : top - k + 1, :, :], step, out=powers[..., k : top + 1, :, :])
        k *= 2
    d = _norm1(powers[..., 2:8, :, :]) ** _ROOT_ORDERS
    alpha = np.maximum(d[..., :-1], d[..., 1:]).min(axis=-1)
    rate = norm * np.maximum(alpha / _TAYLOR_THETA, 1.0 / _TAYLOR_MAX_X)
    s = np.maximum(np.ceil(np.log2(np.abs(t) * rate)), 0.0)
    if not np.all(np.isfinite(s)):
        raise OverflowError("matrix exponential needs finite matrices of moderate norm")

    x = t * norm * np.exp2(-s)
    coeffs = np.ones(x.shape + (_TAYLOR_DEGREE + 1,))
    coeffs[..., 1:] = np.cumprod(x[..., None] / _TAYLOR_ORDERS, axis=-1)
    stacked = powers.reshape(a.shape[:-2] + (_TAYLOR_DEGREE + 1, size * size))
    r = (coeffs[..., None, :] @ stacked).reshape((-1, size, size))
    # sorted by squaring count, the points still to square in a round are a suffix
    order = np.argsort(s.reshape(-1), kind="stable")
    counts, r = s.reshape(-1)[order], r[order]
    for done in range(int(counts.max(initial=0.0))):
        start = np.searchsorted(counts, done, side="right")
        r[start:] = r[start:] @ r[start:]
    out = np.empty_like(r)
    out[order] = r
    return out.reshape(x.shape + (size, size))


@np.errstate(all="ignore")  # an entry past the float range is the OverflowError below
def propagator(n, zeta) -> np.ndarray:
    """Transfer matrix U(zeta) = cos(Omega zeta) I + i H zeta sinc(Omega zeta).

    n and zeta broadcast against each other: arrays of shape (...) give (..., 2, 2),
    scalars one 2x2, and each element equals the same point evaluated alone, bit for
    bit.  cos and sinc are even in Omega, so either square root serves.
    Requires every zeta finite and >= 0 and every n finite (ValueError); raises
    OverflowError where an entry leaves the float range.  det U = 1 for every n
    because H is traceless, and U is unitary exactly when n is real.
    """
    n, zeta = _finite_indices(n), np.asarray(zeta, dtype=float)
    if not (np.isfinite(zeta) & (zeta >= 0.0)).all():
        raise ValueError(f"zeta must be finite and non-negative, got {zeta.tolist()!r}")
    x = np.sqrt(1.0 + n * n) * zeta
    c = np.cos(x)
    s = 1j * zeta * complex_sinc(x)
    sn = s * n
    u = np.empty(sn.shape + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1] = c + sn, s, s, c - sn
    if not np.isfinite(u).all():
        raise OverflowError("transfer matrix leaves the floating-point range")
    return u


@dataclass(frozen=True)
class EffectiveParams:
    """Dimensionless parameters of one dimer instance, fixed by (n, n0).

    n      effective index detuning, (n1 - n2) / (2 g)
    n0     effective bias index, (n1 + n2) / (2 g); a common phase plus the
           global gain/loss envelope

    Everything else is derived, never stored: gamma = Im(n), the gain-loss
    asymmetry; beta = -Im(n0), the global envelope rate (photon numbers carry
    exp(2 beta zeta)); omega = dispersion(n).  All three must be finite.
    """

    n: complex
    n0: complex

    def __post_init__(self) -> None:
        for name in ("n", "n0"):
            value = complex(getattr(self, name))
            _require_finite(value, name)
            object.__setattr__(self, name, value)
        _require_finite(self.omega, "omega")  # 1 + n^2 overflows for |n| past 1e154

    @property
    def gamma(self) -> float:
        return self.n.imag

    @property
    def beta(self) -> float:
        return -self.n0.imag

    @property
    def omega(self) -> complex:
        return dispersion(self.n)
