"""Vacuum, single-photon and two-photon observables of active dimers.

Everything here is built from the envelope-weighted transfer matrix
V(t) = e^{beta t} U(t) and the spontaneous moments it generates from vacuum,

    N(zeta) = Int_0^zeta V*(t) W V(t)^T dt,        W = diag(w1, w2),

so that n1 = N11, n2 = N22 and the cross moment n12 = N12 = <a1^dag a2>.
The per-kind pump weights w_k are fed by the amplifying guides only:

    gain-loss      (-2 gamma, 0)                  (beta = 0, gamma < 0)
    gain-gain      (2 (beta - gamma), 2 (beta + gamma))
    gain-passive   (-4 gamma, 0)                  (beta = -gamma)
    passive-loss   (0, 0)
    loss-loss      (0, 0)

Single-photon and two-photon inputs add stimulated terms V* P V^T at the end
point, P = diag(photons launched into each guide).  As H^2 = Omega^2 I,
V = e^{beta t} (c I + i s H), where x = (c, s) solves x' = B x, x(0) = (1, 0),
with the companion matrix B = [[0, -Omega^2], [1, 0]].  So every second moment
is one sandwich, linear in y = vec(conj(x) x^T) = (c* c, c* s, s* c, s* s):

    V* X V^T = e^{2 beta t} (c* c X + c* s i X H - s* c i H* X + s* s H* X H),

with X = W and the integral of its weights for N, with X = P and its weights at
the end point for the stimulated terms.  One block exponential gives both
e^{2 beta zeta} y and Y = Int_0^zeta e^{2 beta t} y dt (C. F. Van Loan, IEEE TAC
23(3), 1978): with L = conj(B) (x) I + I (x) B + 2 beta I,

    expm(zeta [[L, e1], [0, 0]]) = [[e^{zeta L}, Y], [0, 1]],   e^{zeta L} e1 = e^{2 beta zeta} y.

Unlike H, which is defective at the degeneracy 1 + n^2 = 0, B stays well
conditioned there, so the moments keep their accuracy next to it; for n = i gamma
B is real, and so is the block, exponentiated in real arithmetic.  The whole
grid is one call expm(G, zetas) of ``core.expm``, a truncated Taylor series
with scaling and squaring (Al-Mohy and Higham 2011) that forms the powers of G
once and scales and squares each point by its own count: a grid point equals
the same point evaluated alone, bit for bit, and decayed products keep their
accuracy.  The route uses H and the pump weights only, never the moment
equation of ``moments``.

The moments grow like e^{c zeta}, c = 2 (beta + |Im Omega|), so the block is
exponentiated shifted, expm(zeta (G - c I)) = e^{-c zeta} expm(zeta G) (Higham,
Functions of Matrices, SIAM 2008, ch. 10), and the ratios (shares, q00, q2002)
are formed envelope-free, defined at any distance.  Raw photon numbers (times
e^{c zeta}) raise GrowthGuardError past ``max_magnitude`` (default 1e12, where a
real device has saturated; None lifts it, a non-positive value is a ValueError).
Past the float range a raw value is a gap on a curve, OverflowError at a point.
Distances reach up to MAX_ZETA = 1e8, where the phase Omega zeta still carries
about 8 digits (shares within 1.2e-9 of 60-digit arithmetic on passive-loss
-0.5, 3.3e-7 at 1e10); a longer distance is a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import Kind
from .core import EffectiveParams, expm, hamiltonian

GROWTH_GUARD_MAX = 1e12

# Longest distance evaluated; past it the phase Omega zeta has too few digits left.
MAX_ZETA = 1e8

# Ratio denominators below this count as zero (no spontaneous field, or zeta = 0).
_RATIO_FLOOR = 2.0**-1000

# Round-off allowed below zero in a photon number before it is rejected.
_NEGATIVE_SLACK = 1e-12

# Slack of the Cauchy-Schwarz check |n12|^2 <= n1 n2 (relative: for large raw moments).
_CS_ABS_SLACK = 1e-9
_CS_REL_SLACK = 1e-12


class GrowthGuardError(RuntimeError):
    """Predicted magnitude beyond the configured guard; raw numbers rejected."""


class NoSpontaneousFieldError(ValueError):
    """Vacuum correlation requested where no spontaneous field exists."""


class DecayedFieldError(ValueError):
    """Statistics undefined because the mean field has fully decayed."""


def _invalid_numbers(values):
    """Where photon numbers are not finite or lie below zero beyond round-off."""
    return ~(np.isfinite(values) & (values >= -_NEGATIVE_SLACK))


def _breaks_cauchy_schwarz(n1, n2, n12):
    """Where |n12|^2 (1 - rel) > n1 n2 + abs (n1, n2 >= 0), compared without squares."""
    bound = np.hypot(np.sqrt(n1) * np.sqrt(n2), math.sqrt(_CS_ABS_SLACK))
    return np.abs(n12) * math.sqrt(1.0 - _CS_REL_SLACK) > bound


@dataclass(frozen=True)
class PhotonNumbers:
    """Mean photon numbers in the two guides."""

    n1: float
    n2: float

    def __post_init__(self) -> None:
        for name in ("n1", "n2"):
            value = float(getattr(self, name))
            if _invalid_numbers(value):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
            object.__setattr__(self, name, max(value, 0.0))


@dataclass(frozen=True)
class VacuumMoments:
    """Spontaneous second moments (n1, n2, n12) generated from vacuum."""

    n1: float
    n2: float
    n12: complex

    def __post_init__(self) -> None:
        numbers = PhotonNumbers(self.n1, self.n2)
        n12 = complex(self.n12)
        if not (math.isfinite(n12.real) and math.isfinite(n12.imag)):
            raise ValueError(f"n12 must be finite, got {n12!r}")
        if _breaks_cauchy_schwarz(numbers.n1, numbers.n2, n12):
            raise ValueError(
                "moments violate the Cauchy-Schwarz bound |n12|^2 <= n1 n2: "
                f"n1={numbers.n1!r}, n2={numbers.n2!r}, |n12|={abs(n12)!r}"
            )
        object.__setattr__(self, "n1", numbers.n1)
        object.__setattr__(self, "n2", numbers.n2)
        object.__setattr__(self, "n12", n12)


def vacuum_pump_weights(params: EffectiveParams, kind: Kind) -> tuple[float, float]:
    """Pump weights (w1, w2) of the spontaneous integrals for one kind.

    Each weight is the photon injection rate of the corresponding guide,
    and must come out non-negative; a negative weight means the parameters
    do not belong to the declared kind.
    """
    gamma, beta = params.gamma, params.beta
    if kind is Kind.GAIN_LOSS:
        weights = (-2.0 * gamma, 0.0)
    elif kind is Kind.GAIN_GAIN:
        weights = (2.0 * (beta - gamma), 2.0 * (beta + gamma))
    elif kind is Kind.GAIN_PASSIVE:
        weights = (-4.0 * gamma, 0.0)
    elif kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        weights = (0.0, 0.0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if weights[0] < 0.0 or weights[1] < 0.0:
        raise ValueError(
            f"negative pump rate {weights!r}: parameters inconsistent with {kind.value}"
        )
    return weights


def _growth_rate(params: EffectiveParams) -> float:
    """Rate c = 2 (beta + |Im Omega|) at which the moments grow (decay if c < 0)."""
    return 2.0 * (params.beta + abs(params.omega.imag))


def _growth_exponent(params: EffectiveParams, zeta):
    """Log of the predicted peak magnitude e^{max(c, 0) zeta}."""
    return max(0.0, _growth_rate(params)) * zeta


def _growth_note(exponent: float, max_magnitude: float) -> str:
    return (
        f"predicted magnitude e^{exponent:.1f} exceeds the guard {max_magnitude:g}; "
        "raw photon numbers are saturation-dominated here"
    )


@dataclass(frozen=True)
class MomentBundle:
    """Per point: vacuum n1, n2, n12 and the products y = e^{2 beta t} (c* c, c* s, s* c, s* s).

    Every field but ``h`` (the coupling matrix) is over e^{log_envelope}.
    """

    zetas: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n12: np.ndarray
    products: np.ndarray
    h: np.ndarray
    log_envelope: np.ndarray


def _sandwich(weights: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V* X V^T per point, as the sum over the bilinears (c* c, c* s, s* c, s* s) in ``weights``."""
    hc = h.conj()
    terms = (x, 1j * x @ h, -1j * hc @ x, hc @ x @ h)
    return sum(weights[:, k, None, None] * term for k, term in enumerate(terms))


def moment_bundle(params: EffectiveParams, kind: Kind, zetas: np.ndarray) -> MomentBundle:
    """All moments on a distance grid from one stacked block exponential, envelope divided out.

    Raises FloatingPointError where they break a bound they must satisfy.
    """
    zetas = np.asarray(zetas, dtype=float)
    w = np.diag(vacuum_pump_weights(params, kind))
    h = hamiltonian(params.n)
    eye = np.eye(2)
    omega2 = 1.0 + params.n * params.n  # real for imaginary n: then so is the block
    companion = np.array([[0.0, -(omega2.real if omega2.imag == 0.0 else omega2)], [1.0, 0.0]])
    rate = _growth_rate(params)
    # G - c I, but lossy kinds (c < 0, W = 0) keep the corner, so their unused
    # integral column stays finite; L - c I = conj(B) (x) I + I (x) B - 2 |Im Omega| I
    generator = np.zeros((5, 5), dtype=companion.dtype)
    generator[:4, :4] = np.kron(companion.conj(), eye) + np.kron(eye, companion)
    generator[:4, :4] -= 2.0 * abs(params.omega.imag) * np.eye(4)
    generator[0, 4] = 1.0
    generator[4, 4] = -max(rate, 0.0)
    blocks = expm(generator, zetas)
    moments = _sandwich(blocks[:, :4, 4], w, h)
    n12 = moments[:, 0, 1]
    n1, n2 = _checked_numbers(zetas, moments[:, 0, 0].real, moments[:, 1, 1].real, n12)
    return MomentBundle(zetas, n1, n2, n12, blocks[:, :4, 0], h, rate * zetas)


def with_envelope(bundle: MomentBundle, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Raw ``values`` (grid axis first, products of ``order`` moments each); inf past the range."""
    log_envelope = order * bundle.log_envelope.reshape((-1,) + (1,) * (np.ndim(values) - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return values * np.exp(log_envelope)


def _checked_numbers(zetas, n1, n2, n12=0.0):
    """Photon numbers, round-off negatives set to 0; FloatingPointError if a bound breaks."""
    bad = _invalid_numbers(n1) | _invalid_numbers(n2)
    n1, n2 = np.maximum(n1, 0.0), np.maximum(n2, 0.0)
    bad |= _breaks_cauchy_schwarz(n1, n2, n12)
    if bad.any():
        zeta = float(zetas[np.argmax(bad)])
        raise FloatingPointError(
            f"moments at zeta={zeta!r} break non-negativity or the Cauchy-Schwarz bound"
        )
    return n1, n2


def launch_moments(bundle: MomentBundle, ports: tuple[int, ...]) -> np.ndarray:
    """Moment matrices <a_i^dag a_j> per grid point, one photon launched into each of ``ports``.

    In the bundle's frame: the vacuum matrix [[n1, n12], [conj n12, n2]] plus the
    stimulated V* P V^T, P = diag(photons launched per guide), whose entry
    (i, j) sums conj(V_ip) V_jp over the ports p (from 0).
    """
    n12 = bundle.n12
    moments = np.moveaxis(np.array([[bundle.n1, n12], [n12.conj(), bundle.n2]]), -1, 0)
    launched = np.diag([ports.count(0), ports.count(1)])
    return moments + _sandwich(bundle.products, launched, bundle.h)


def _photon_numbers(bundle: MomentBundle, ports: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers for one photon launched into each of ``ports`` (from 0), plus vacuum."""
    moments = launch_moments(bundle, ports)
    return _checked_numbers(bundle.zetas, moments[:, 0, 0].real, moments[:, 1, 1].real)


def _noon_two_point(bundle: MomentBundle) -> np.ndarray:
    """Coincidence moment <a1^dag a2^dag a2 a1> for the N00N input, in the bundle's frame squared.

    Interference of the two stimulated paths, |V11 V21 + V12 V22|^2, plus the
    spontaneous background and the mixed stimulated-spontaneous terms, which
    pair the vacuum moments with S = V* V^T.  The paths meet in
    V V^T = e^{2 beta t} ((c^2 - Omega^2 s^2) I + 2 i c s H), so with H_12 = 1
    the pair term is 4 e^{4 beta t} |c* s|^2, from y's second entry: unlike the
    product of the first and last, it keeps its relative accuracy where c or s
    passes through zero.
    """
    y = bundle.products
    n1, n2, n12 = bundle.n1, bundle.n2, bundle.n12
    s = _sandwich(y, np.eye(2), bundle.h)
    pair = 4.0 * np.abs(y[:, 1]) ** 2
    spontaneous = n1 * n2 + np.abs(n12) ** 2
    mixed = n1 * s[:, 1, 1].real + n2 * s[:, 0, 0].real + 2.0 * (n12 * s[:, 1, 0]).real
    return pair + spontaneous + mixed


@np.errstate(all="ignore")
def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Ratio of frame values; NaN where the denominator is zero (below the floor)."""
    return np.where(denominator >= _RATIO_FLOOR, numerator / denominator, math.nan)


def _log_guard(max_magnitude: float | None) -> float:
    """Log of the growth guard, inf when lifted; ValueError unless None or positive."""
    if max_magnitude is None:
        return math.inf
    if not float(max_magnitude) > 0.0:
        raise ValueError(f"max_magnitude must be positive or None, got {max_magnitude!r}")
    return math.log(max_magnitude)


def _at_point(
    params: EffectiveParams, kind: Kind, zeta: float, max_magnitude: float | None
) -> MomentBundle:
    """The bundle of a one-point grid, after the growth guard."""
    zeta = float(zeta)
    if not 0.0 <= zeta <= MAX_ZETA:
        raise ValueError(f"zeta must lie in [0, MAX_ZETA = {MAX_ZETA:g}], got {zeta!r}")
    exponent = _growth_exponent(params, zeta)
    if exponent > _log_guard(max_magnitude):
        raise GrowthGuardError(_growth_note(exponent, max_magnitude))
    return moment_bundle(params, kind, np.array([zeta]))


def _raw_point(bundle: MomentBundle, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Raw ``values`` of a one-point bundle; OverflowError past the floating-point range."""
    raw = with_envelope(bundle, values, order)[0]
    if not np.isfinite(raw).all():
        raise OverflowError(f"raw moments leave the float range at zeta={bundle.zetas[0]:g}")
    return raw


def vacuum_moments(
    params: EffectiveParams,
    kind: Kind,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> VacuumMoments:
    """Spontaneous second moments generated from vacuum at distance zeta."""
    bundle = _at_point(params, kind, zeta, max_magnitude)
    moments = _raw_point(bundle, launch_moments(bundle, ()))
    return VacuumMoments(moments[0, 0].real, moments[1, 1].real, moments[0, 1])


def q_vacuum(params: EffectiveParams, kind: Kind, zeta: float) -> float:
    """Normalized vacuum cross-correlation q = |n12|^2 / (n1 n2).

    Non-negative by construction (the spontaneous fields of the two guides
    can only be bunched) and bounded by one through Cauchy-Schwarz.  Undefined
    for passive kinds and at zeta = 0, where there is no spontaneous field.
    A ratio of moments, so it stays well defined far beyond the growth guard;
    evaluation is unguarded.
    """
    q = _curve_point(params, kind, "q00", zeta)
    if math.isnan(q):
        raise NoSpontaneousFieldError(
            f"q undefined for kind={kind.value} at zeta={zeta!r}: no spontaneous field"
        )
    return q


def single_photon_numbers(
    params: EffectiveParams,
    kind: Kind,
    zeta: float,
    port: int = 1,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> PhotonNumbers:
    """Mean photon numbers for one photon injected into the given guide.

    Stimulated transfer e^{2 beta zeta} |U_j,port|^2 plus the spontaneous
    background; passive kinds keep the stimulated term only.
    """
    if port not in (1, 2):
        raise ValueError(f"input port must be 1 or 2, got {port!r}")
    bundle = _at_point(params, kind, zeta, max_magnitude)
    return PhotonNumbers(*_raw_point(bundle, np.column_stack(_photon_numbers(bundle, (port - 1,)))))


def noon_photon_numbers(
    params: EffectiveParams,
    kind: Kind,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> PhotonNumbers:
    """Mean photon numbers for the two-photon input (|20> + |02>)/sqrt(2)."""
    bundle = _at_point(params, kind, zeta, max_magnitude)
    return PhotonNumbers(*_raw_point(bundle, np.column_stack(_photon_numbers(bundle, (0, 1)))))


def noon_two_point(
    params: EffectiveParams,
    kind: Kind,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> float:
    """Two-guide coincidence moment <a1^dag a2^dag a2 a1> for the N00N input.

    Interference of the two stimulated paths plus spontaneous background and
    the mixed stimulated-spontaneous terms.
    """
    bundle = _at_point(params, kind, zeta, max_magnitude)
    return float(_raw_point(bundle, _noon_two_point(bundle), order=2))


def q_noon(params: EffectiveParams, kind: Kind, zeta: float) -> float:
    """Normalized N00N correlation q = n1212 / (n1 n2) - 1.

    Exactly -1 at zeta = 0 (perfect anti-correlation of the input), at most
    zero for passive kinds, and crossing into bunching once the spontaneous
    background dominates in amplifying kinds.  A ratio of moments; unguarded.
    """
    q = _curve_point(params, kind, "q2002", zeta)
    if math.isnan(q):
        raise DecayedFieldError(
            f"N00N statistics undefined at zeta={zeta!r}: mean field fully decayed"
        )
    return q


def renormalize(numbers: PhotonNumbers) -> tuple[float, float]:
    """Relative photon shares (n1, n2) / (n1 + n2), summing to one exactly."""
    total = numbers.n1 + numbers.n2
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError(f"renormalization undefined for total photon number {total!r}")
    share1 = min(max(numbers.n1 / total, 0.0), 1.0)
    return share1, 1.0 - share1


def asymptotic_shares(gamma: float) -> tuple[float, float]:
    """Limiting renormalized shares (smaller, larger) beyond the degeneracy.

    Evaluated with a = |gamma| >= 1:

        share1 = 1 / (2 a (a + sqrt(a^2 - 1)))       share2 = 1 - share1

    The returned order is (smaller, larger); the larger share belongs to the
    guide favoured by the dominant eigenvector, which is guide 1 when
    gamma < 0 and guide 2 when gamma > 0.  Undefined for |gamma| < 1, where
    the shares keep oscillating instead of settling.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    a = abs(gamma)
    if a < 1.0:
        raise ValueError(f"no asymptotic shares in the oscillatory regime |gamma|={a!r} < 1")
    share2 = (a + math.sqrt(a * a - 1.0)) / (2.0 * a)
    return 1.0 - share2, share2


# --------------------------------------------------------------------------
# Curve sampling

CURVE_COLUMNS: dict[str, tuple[str, ...]] = {
    "spont": ("n1", "n2", "share1", "share2"),
    "q00": ("n1", "n2", "n12_re", "n12_im", "q00"),
    "single": ("n1", "n2", "share1", "share2"),
    "noon_n": ("n1", "n2", "share1", "share2"),
    "q2002": ("n1", "n2", "q2002"),
    "all": ("n1", "n2", "share1", "share2", "n12_re", "n12_im", "q00", "q2002"),
}

# Input ports (from 0) behind the n1 / n2 / share columns of each observable:
# none for the vacuum, guide 1 for one photon, both guides for N00N.
_INPUT_PORTS = dict(spont=(), q00=(), all=(), single=(0,), noon_n=(0, 1), q2002=(0, 1))

# Observables whose value at zeta = 0 is a 0/0 (spontaneous shares, q00).
ZERO_UNDEFINED = ("spont", "q00", "all")

# Why a column is NaN at a point: raw ones within the guard, then the ratios.
_RANGE_NOTE = "raw photon numbers leave the floating-point range at zeta={zeta!r}"
_GAP_REASONS = {
    "share1": "renormalization undefined at zeta={zeta!r}: no photons",
    "q00": "q00 undefined at zeta={zeta!r}: no spontaneous field",
    "q2002": "N00N statistics undefined at zeta={zeta!r}: mean field fully decayed",
}


@dataclass
class ObservableCurve:
    """A sampled observable: one read-only array per column, gaps where undefined.

    ``data[name][i]`` is the value of column ``name`` at ``zetas[i]``; entries
    are NaN where that point could not be evaluated, with the reason recorded
    in ``gaps`` as (index, message).
    """

    observable: str
    zetas: np.ndarray
    data: dict[str, np.ndarray]
    gaps: list[tuple[int, str]] = field(default_factory=list)

    @property
    def columns(self) -> tuple[str, ...]:
        return CURVE_COLUMNS[self.observable]

    def column(self, name: str) -> np.ndarray:
        return self.data[name]


def _curve_columns(
    bundle: MomentBundle, observable: str, raw_ok: np.ndarray
) -> dict[str, np.ndarray]:
    """Every CSV column of ``observable``; raw columns are NaN where not ``raw_ok`` or finite."""
    names = CURVE_COLUMNS[observable]
    ports = _INPUT_PORTS[observable]
    n1, n2 = _photon_numbers(bundle, ports)
    frame = {"n1": n1, "n2": n2, "n12_re": bundle.n12.real, "n12_im": bundle.n12.imag}
    raw = {name: with_envelope(bundle, values) for name, values in frame.items()}
    raw_ok = raw_ok & np.isfinite(list(raw.values())).all(axis=0)
    columns = {name: np.where(raw_ok, values, math.nan) for name, values in raw.items()}
    columns["share1"] = np.clip(_ratio(n1, n1 + n2), 0.0, 1.0)
    columns["share2"] = 1.0 - columns["share1"]
    columns["q00"] = _ratio(np.abs(bundle.n12) ** 2, bundle.n1 * bundle.n2)
    if "q2002" in names:  # the only column that needs the N00N numbers
        noon1, noon2 = (n1, n2) if ports == (0, 1) else _photon_numbers(bundle, (0, 1))
        columns["q2002"] = _ratio(_noon_two_point(bundle), noon1 * noon2) - 1.0
    return {name: columns[name] for name in names}


def _curve_point(params: EffectiveParams, kind: Kind, observable: str, zeta: float) -> float:
    """The last column of ``observable`` at one distance, unguarded."""
    curve = sample_curve(params, kind, observable, np.array([float(zeta)]), max_magnitude=None)
    return float(curve.column(CURVE_COLUMNS[observable][-1])[0])


def sample_curve(
    params: EffectiveParams,
    kind: Kind,
    observable: str,
    zetas: np.ndarray,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> ObservableCurve:
    """Sample one observable over a strictly increasing distance grid.

    Every grid point is evaluated independently of the others (a point's
    values equal those of the same point sampled alone, bit for bit), and
    undefined or guarded values turn into NaN entries flagged in ``gaps``
    instead of aborting the sweep: raw columns past the growth guard or the
    floating-point range, and ratios with a zero denominator.  The grid is
    kept as a read-only copy and must lie in [0, MAX_ZETA].  Raises
    FloatingPointError where the moments break a bound they must satisfy.
    """
    if observable not in CURVE_COLUMNS:
        raise ValueError(
            f"unknown observable {observable!r}; choose from {sorted(CURVE_COLUMNS)}"
        )
    grid = np.array(zetas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("zeta grid must be a non-empty 1-D array")
    if not np.all((grid >= 0.0) & (grid <= MAX_ZETA)):
        raise ValueError(f"zeta grid must lie in [0, MAX_ZETA = {MAX_ZETA:g}]")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("zeta grid must be strictly increasing")

    exponents = _growth_exponent(params, grid)
    raw_ok = exponents <= _log_guard(max_magnitude)
    columns = _curve_columns(moment_bundle(params, kind, grid), observable, raw_ok)

    gaps = [(int(i), _growth_note(exponents[i], max_magnitude)) for i in np.flatnonzero(~raw_ok)]
    for i in np.flatnonzero(raw_ok & np.isnan(columns["n1"])):
        gaps.append((int(i), _RANGE_NOTE.format(zeta=float(grid[i]))))
    for name, reason in _GAP_REASONS.items():
        if name in columns:
            for i in np.flatnonzero(np.isnan(columns[name])):
                gaps.append((int(i), reason.format(zeta=float(grid[i]))))
    gaps.sort(key=lambda gap: gap[0])
    for values in (grid, *columns.values()):
        values.flags.writeable = False
    return ObservableCurve(observable=observable, zetas=grid, data=columns, gaps=gaps)
