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
import enum
import math
from dataclasses import dataclass

import numpy as np

# Below this threshold |Omega*zeta| the cardinal sine is evaluated by its
# Taylor series.  This keeps the degenerate branch exact (sinc(0) = 1 without
# a 0/0) and avoids cancellation for tiny arguments.
SINC_SERIES_THRESHOLD = 1e-4

# Re(n) within this of zero counts as purely imaginary detuning when
# classifying regimes, and |gamma| within this of one as degenerate.
REGIME_TOL = 1e-12

# Residual allowed in the omega**2 = 1 + n**2 consistency check.
_OMEGA_CONSISTENCY_TOL = 1e-12

# Degree of the truncated Taylor series, and the largest scaled norm at which its
# backward error stays below unit round-off (A. H. Al-Mohy and N. J. Higham,
# SIAM J. Sci. Comput. 33(2), 2011, Table 3.1).
_TAYLOR_DEGREE = 30
_TAYLOR_THETA = 3.539666349
# Ceiling of the scaled distance x = t ||a|| 2**-s whatever the powers: x^30 / 30!
# stays finite up to about 2.3e11, so a nearly nilpotent a of large norm is squared too.
_TAYLOR_MAX_X = 1e11


class Regime(enum.Enum):
    """Spectral regime of the coupling matrix for imaginary detuning."""

    PT_SYMMETRIC = "pt-symmetric"
    KATO = "kato"
    BROKEN = "broken"
    GENERIC = "generic"


def _require_finite(value: complex, name: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def complex_sinc(x: complex) -> complex:
    """sin(x)/x for complex x, switching to a 4-term series near x = 0."""
    if abs(x) < SINC_SERIES_THRESHOLD:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    return cmath.sin(x) / x


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


def hamiltonian(n: complex) -> np.ndarray:
    """Traceless coupling matrix [[n, 1], [1, -n]] in coupling-length units."""
    n = complex(n)
    _require_finite(n, "n")
    return np.array([[n, 1.0], [1.0, -n]], dtype=complex)


def _norm1(a: np.ndarray) -> np.ndarray:
    """Exact 1-norm (largest absolute column sum) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def expm(a: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t_i a) for one (n, n) matrix on a grid t, or for a stack (k, n, n) with one t_i each.

    Truncated Taylor series of degree 30 with scaling and squaring (A. H. Al-Mohy
    and N. J. Higham, SIAM J. Sci. Comput. 33(2), 2011).  The powers of a, divided
    by the power of two at or above ||a||_1 (exactly, and so they cannot
    overflow), are formed once per matrix.  As ||(t a)^p||_1 = |t|^p ||a^p||_1,
    the squaring count s of each point follows from scalars: the smallest
    alpha_p = max(d_p, d_{p+1}), d_p = ||a^p||_1^(1/p), over p >= 2 with
    p (p - 1) <= 31, times |t| and 2**-s, must not pass theta_30.  Each point's polynomial is its
    own product of 31 coefficients with the powers, squared s times, so a point
    comes out the same, bit for bit, whatever grid or stack it is part of; t = 0
    and a zero matrix give the identity exactly.  Raises OverflowError where no
    finite squaring count exists (non-finite entries or t, or a 1-norm past the
    float range).
    """
    a = np.asarray(a)
    t = np.asarray(t, dtype=float)
    size = a.shape[-1]
    # a power of two at or above the 1-norm, so that a / norm is exact
    norm = np.ldexp(1.0, np.frexp(_norm1(a))[1])
    with np.errstate(all="ignore"):  # non-finite input ends in a non-finite s
        b = a / norm[..., None, None]
        powers = np.stack([np.broadcast_to(np.eye(size, dtype=a.dtype), a.shape), b], axis=-3)
        while powers.shape[-3] <= _TAYLOR_DEGREE:  # b^0 .. b^(k-1) times b^k give b^k .. b^(2k-1)
            step = powers[..., -1:, :, :] @ b[..., None, :, :]
            powers = np.concatenate([powers, powers @ step], axis=-3)
        powers = powers[..., : _TAYLOR_DEGREE + 1, :, :]
        d = _norm1(powers[..., 2:8, :, :]) ** (1.0 / np.arange(2, 8))
        alpha = np.maximum(d[..., :-1], d[..., 1:]).min(axis=-1)
        rate = norm * np.maximum(alpha / _TAYLOR_THETA, 1.0 / _TAYLOR_MAX_X)
        s = np.maximum(np.ceil(np.log2(np.abs(t) * rate)), 0.0)
    if not np.all(np.isfinite(s)):
        raise OverflowError("matrix exponential needs finite matrices of moderate norm")

    x = t * norm * np.exp2(-s)
    coeffs = np.ones(x.shape + (_TAYLOR_DEGREE + 1,))
    coeffs[..., 1:] = np.cumprod(x[..., None] / np.arange(1.0, _TAYLOR_DEGREE + 1), axis=-1)
    stacked = powers.reshape(a.shape[:-2] + (_TAYLOR_DEGREE + 1, size * size))
    r = (coeffs[..., None, :] @ stacked).reshape((-1, size, size))
    s = s.reshape(-1)
    for done in range(int(s.max(initial=0.0))):
        short = s > done
        r[short] = r[short] @ r[short]
    return r.reshape(x.shape + (size, size))


def propagator(n: complex, zeta: float) -> np.ndarray:
    """Transfer matrix U(zeta) = cos(Omega zeta) I + i H zeta sinc(Omega zeta).

    Requires zeta >= 0.  det U = 1 for every n because H is traceless, and
    U is unitary exactly when n is real.
    """
    n = complex(n)
    _require_finite(n, "n")
    if not math.isfinite(zeta) or zeta < 0.0:
        raise ValueError(f"zeta must be finite and non-negative, got {zeta!r}")
    x = dispersion(n) * zeta
    c = cmath.cos(x)
    s = 1j * zeta * complex_sinc(x)
    return np.array([[c + s * n, s], [s, c - s * n]], dtype=complex)


@dataclass(frozen=True)
class EffectiveParams:
    """Dimensionless parameters of one dimer instance.

    n      effective index detuning, (n1 - n2) / (2 g)
    n0     effective bias index, (n1 + n2) / (2 g); a common phase plus the
           global gain/loss envelope
    gamma  gain-loss asymmetry, Im(n) for purely imaginary detuning
    beta   global envelope rate, -Im(n0); photon numbers carry exp(2 beta zeta)
    omega  dispersion(n)
    """

    n: complex
    n0: complex
    gamma: float
    beta: float
    omega: complex

    def __post_init__(self) -> None:
        _require_finite(self.n, "n")
        _require_finite(self.n0, "n0")
        _require_finite(self.omega, "omega")
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("gamma and beta must be finite")
        resid = self.omega * self.omega - (1.0 + self.n * self.n)
        if abs(resid.real) > _OMEGA_CONSISTENCY_TOL or abs(resid.imag) > _OMEGA_CONSISTENCY_TOL:
            raise ValueError(
                f"omega inconsistent with detuning: omega^2 - (1 + n^2) = {resid!r}"
            )

    @classmethod
    def from_detuning(cls, n: complex, n0: complex) -> "EffectiveParams":
        n = complex(n)
        n0 = complex(n0)
        return cls(n=n, n0=n0, gamma=n.imag, beta=-n0.imag, omega=dispersion(n))


def classify_regime(params: EffectiveParams) -> Regime:
    """Regime tag for the instance; GENERIC when Re(n) is not negligible."""
    n = params.n
    if abs(n.real) > REGIME_TOL:
        return Regime.GENERIC
    gamma = n.imag
    if abs(abs(gamma) - 1.0) <= REGIME_TOL:
        return Regime.KATO
    if abs(gamma) < 1.0:
        return Regime.PT_SYMMETRIC
    return Regime.BROKEN
