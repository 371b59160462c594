"""The five realizable gain/loss arrangements of a two-guide coupler.

An arrangement is the sign of each guide's imaginary index (gain -1, passive
0, loss +1) applied to positive magnitudes: one magnitude ni where the signs
differ, ni1 and ni2 where they agree.  The raw complex refractive indices map
onto the effective parameters that drive propagation:

    kind          guide 1           guide 2           gamma              beta
    ------------  ----------------  ----------------  -----------------  ------------------
    gain-loss     nr - i ni         nr + i ni         -ni/g              0
    gain-gain     nr - i ni1        nr - i ni2        (ni2 - ni1)/(2g)   (ni1 + ni2)/(2g)
    gain-passive  nr - i ni         nr                -ni/(2g)           ni/(2g)
    passive-loss  nr                nr + i ni         -ni/(2g)           -ni/(2g)
    loss-loss     nr + i ni1        nr + i ni2        (ni1 - ni2)/(2g)   -(ni1 + ni2)/(2g)

Here gamma = Im((n1 - n2)/(2g)) is the gain-loss asymmetry and
beta = -Im((n1 + n2)/(2g)) the global envelope rate, so beta is positive
whenever the pair has net gain.  Note the sign bookkeeping: negative gamma
means the amplified guide is guide 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import EffectiveParams


class Kind(enum.Enum):
    GAIN_LOSS = "gain-loss"
    GAIN_GAIN = "gain-gain"
    GAIN_PASSIVE = "gain-passive"
    PASSIVE_LOSS = "passive-loss"
    LOSS_LOSS = "loss-loss"


# Sign of each guide's imaginary index.  Unequal signs take one magnitude `ni` and
# reach only negative gamma; equal signs take `ni1, ni2` and reach both.
_SIGNS = {
    Kind.GAIN_LOSS: (-1.0, 1.0),
    Kind.GAIN_GAIN: (-1.0, -1.0),
    Kind.GAIN_PASSIVE: (-1.0, 0.0),
    Kind.PASSIVE_LOSS: (0.0, 1.0),
    Kind.LOSS_LOSS: (1.0, 1.0),
}


class UnreachableGammaError(ValueError):
    """Requested asymmetry sign cannot be realized by the given kind."""


def _positive(value: float | None, name: str) -> float:
    if value is None:
        raise ValueError(f"{name} is required for this kind")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class DimerRealization:
    """Raw description of one physical device.

    Magnitudes are all strictly positive and kept as floats; which of ni /
    ni1 / ni2 apply depends on the kind (see the module table).  Fields that
    the kind does not use are ignored.
    """

    kind: Kind
    nr: float
    g: float
    ni: float | None = None
    ni1: float | None = None
    ni2: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise ValueError(f"kind must be a Kind, got {self.kind!r}")
        s1, s2 = _SIGNS[self.kind]
        for name in ("nr", "g") + (("ni",) if s1 != s2 else ("ni1", "ni2")):
            object.__setattr__(self, name, _positive(getattr(self, name), name))


def raw_indices(realization: DimerRealization) -> tuple[complex, complex]:
    """Complex refractive indices (n1, n2) of the two guides."""
    r = realization
    s1, s2 = _SIGNS[r.kind]
    m1, m2 = (r.ni, r.ni) if s1 != s2 else (r.ni1, r.ni2)
    return complex(r.nr, s1 * m1), complex(r.nr, s2 * m2)


def effective_params(realization: DimerRealization) -> EffectiveParams:
    """Effective detuning and bias (n, n0) of the device, from which all else follows."""
    n1, n2 = raw_indices(realization)
    two_g = 2.0 * realization.g
    return EffectiveParams((n1 - n2) / two_g, (n1 + n2) / two_g)


def realization_for_gamma(
    kind: Kind, gamma_target: float, nr: float = 1.5, g: float = 1.0
) -> DimerRealization:
    """Invert the asymmetry: build a device whose effective gamma is the target.

    Where the guides' signs differ the inversion is unique and only negative
    targets are reachable.  Where they agree one magnitude is free; the tie is
    broken by putting the smaller magnitude at g*|gamma| and the larger at
    3*g*|gamma|, assigning them to the guides so that the requested sign comes
    out.  Raises UnreachableGammaError for an impossible sign.
    """
    gamma_target = float(gamma_target)
    if not math.isfinite(gamma_target) or gamma_target == 0.0:
        raise ValueError(f"gamma target must be nonzero and finite, got {gamma_target!r}")
    nr = _positive(nr, "nr")
    g = _positive(g, "g")
    if not isinstance(kind, Kind):
        raise ValueError(f"unknown kind {kind!r}")
    s1, s2 = _SIGNS[kind]
    mag = abs(gamma_target)

    # gamma = (s1 m1 - s2 m2) / (2 g)
    if s1 != s2:
        if gamma_target > 0.0:
            raise UnreachableGammaError(
                f"{kind.value} only realizes negative gamma, got {gamma_target!r}"
            )
        return DimerRealization(kind=kind, nr=nr, g=g, ni=2.0 / (s2 - s1) * g * mag)
    low, high = g * mag, 3.0 * g * mag
    ni1, ni2 = (high, low) if s1 * gamma_target > 0.0 else (low, high)
    return DimerRealization(kind=kind, nr=nr, g=g, ni1=ni1, ni2=ni2)


def preset_realization(
    kind: Kind, gamma: float, nr: float = 1.5, g: float = 1.0
) -> DimerRealization:
    """Realization for CLI-style presets: a positive gamma that the kind cannot
    reach is read as the negative gamma it does reach."""
    try:
        return realization_for_gamma(kind, gamma, nr, g)
    except UnreachableGammaError:  # only a positive gamma is ever out of reach
        return realization_for_gamma(kind, -gamma, nr, g)
