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

# Coefficients b_0 .. b_13 of the degree-13 Pade approximant to exp
# (N. J. Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
# Scaled norms up to this keep the degree-13 backward error below unit
# round-off, and 1 / |c_27| of its leading error term (Al-Mohy and Higham 2009).
_PADE13_THETA = 4.25
_PADE13_ERROR_COEFF = 113250775606021113483283660800000000.0


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


def _extra_squarings(a: np.ndarray) -> np.ndarray:
    """Al-Mohy and Higham's correction ell(A) to the squaring count, per matrix.

    It bounds the degree-13 backward error of an already scaled A through
    || |A|^27 ||_1 and adds the squarings that bring it to unit round-off.
    """
    p = np.abs(a)
    p2 = p @ p
    p8 = (p2 @ p2) @ (p2 @ p2)
    norm27 = _norm1((p8 @ p8) @ p8 @ p2 @ p)  # 27 = 16 + 8 + 2 + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = norm27 / (_norm1(a) * _PADE13_ERROR_COEFF)
        ell = np.ceil(np.log2(alpha / 2.0**-53) / 26.0)
    return np.where(norm27 > 0.0, np.maximum(ell, 0.0), 0.0)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a stack (k, n, n), or of one (n, n) matrix.

    Scaling and squaring with the degree-13 Pade approximant, Algorithm 3.1 of
    A. H. Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009,
    with exact 1-norms.  Each matrix is scaled by its own 2**-s and squared s
    times, so a matrix comes out the same, bit for bit, whatever stack it is
    part of; a zero matrix gives the identity exactly.  Raises OverflowError
    where no finite squaring count exists (non-finite entries, or |A|^27 past
    the float range).
    """
    a = np.asarray(a)
    stack = a.reshape((-1,) + a.shape[-2:])
    a2 = stack @ stack
    a4 = a2 @ a2
    a6 = a4 @ a2
    # eta_5 = min(max(d6, d8), max(d8, d10)) with d_p = ||A^p||_1^(1/p)
    d6 = _norm1(a6) ** (1.0 / 6.0)
    d8 = _norm1(a4 @ a4) ** (1.0 / 8.0)
    d10 = _norm1(a4 @ a6) ** (1.0 / 10.0)
    eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(eta / _PADE13_THETA)), 0.0)
    s = s + _extra_squarings(stack * np.exp2(-s)[:, None, None])
    if not np.all(np.isfinite(s)):
        raise OverflowError("matrix exponential needs finite matrices of moderate norm")

    scale = np.exp2(-s)[:, None, None]
    x, x2, x4, x6 = stack * scale, a2 * scale**2, a4 * scale**4, a6 * scale**6
    b = _PADE13
    eye = np.eye(a.shape[-1])
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye
    )
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for done in range(int(s.max(initial=0.0))):
        short = s > done
        r[short] = r[short] @ r[short]
    r[~stack.any(axis=(1, 2))] = eye
    return r.reshape(a.shape)


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
