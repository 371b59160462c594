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
