"""Vacuum, single-photon and two-photon observables of active dimers.

Everything here is built from the envelope-weighted transfer matrix
V(t) = e^{beta t} U(t) and the spontaneous moments it generates from vacuum,

    N(zeta) = Int_0^zeta V*(t) W V(t)^T dt,        W = diag(w1, w2),

so that n1 = N11, n2 = N22 and the cross moment n12 = N12 = <a1^dag a2>.
The device is (n, n0) alone.  The pump weight w_k is the gain rate of guide k,
as only amplifying guides inject photons; with Im(n1/g) = gamma - beta and
Im(n2/g) = -gamma - beta,

    w1 = 2 max(0, beta - gamma),        w2 = 2 max(0, beta + gamma),

so a passive or lossy guide has weight zero, whichever layout reaches (n, n0).

Each input, a row of ``LAUNCHES`` named by its key, adds stimulated terms V* P V^T
at the end point, P = diag(photons launched into each guide).  As H^2 = Omega^2 I,
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
accuracy.  ``moment_bundles`` stacks many devices: their generators, real and
complex apart, go into one such call each, the rest runs once on the stack, and
a device's row of the stack equals its own bundle.
The route uses H and the pump weights only, never the moment equation of
``moments``.

The moments grow like e^{c zeta}, c = 2 (beta + |Im Omega|), so the block is
exponentiated shifted, expm(zeta (G - c I)) = e^{-c zeta} expm(zeta G) (Higham,
Functions of Matrices, SIAM 2008, ch. 10), and the ratios (shares, q00, q2002)
are formed envelope-free, defined at any distance.  A pumped device with c < 0
settles to a steady state, so its block is not shifted (c = 0 there).  Raw
photon numbers (times e^{c zeta}) are a gap past ``max_magnitude`` (default
1e12, where a real device has saturated; None lifts it, a non-positive value is
a ValueError) or past the float range.  Distances reach up to MAX_ZETA = 1e8,
where the phase Omega zeta still carries about 8 digits (shares within 1.2e-9
of 60-digit arithmetic on passive-loss -0.5, 3.3e-7 at 1e10); a longer distance
is a ValueError.

One evaluation, ``_evaluate``, turns a stack into the CSV columns and one gap mask
per reason, each with the stack's device axis.  ``sample_curve`` reads its one
device's row; a single-distance function reads the one-point grid [zeta], the
curve's values bit for bit, and raises the first of the curve's gap reasons, in
``_GAPS`` order, that reaches the columns it returns; ``verify`` reads the ``all``
columns of its whole device table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EffectiveParams, expm, hamiltonian

GROWTH_GUARD_MAX = 1e12

# Longest distance evaluated; past it the phase Omega zeta has too few digits left.
MAX_ZETA = 1e8

# Photons each input launches into guides 1 and 2: the diagonal of its <a_i^dag a_j>.
LAUNCHES = {"vacuum": (0, 0), "guide 1": (1, 0), "guide 2": (0, 1), "noon": (1, 1)}

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
    """Mean photon numbers in the two guides: the one-point curve's values; checks nothing."""

    n1: float
    n2: float


@dataclass(frozen=True)
class VacuumMoments:
    """Spontaneous second moments (n1, n2, n12): the one-point curve's values; checks nothing."""

    n1: float
    n2: float
    n12: complex


def vacuum_pump_weights(params: EffectiveParams) -> tuple[float, float]:
    """Pump weights (w1, w2) of the spontaneous integrals: the gain rate of each guide."""
    beta, gamma = params.beta, params.gamma
    return 2.0 * max(0.0, beta - gamma), 2.0 * max(0.0, beta + gamma)


# Why a point is a gap, in the order of a point's reasons: the error raised, and its message.
_GAPS: dict[str, tuple[type, str]] = {
    "bound": (
        FloatingPointError,
        "moments at zeta={zeta!r} break non-negativity or the Cauchy-Schwarz bound",
    ),
    "guard": (
        GrowthGuardError,
        "predicted magnitude e^{exponent:.1f} exceeds the guard {guard:g}; "
        "raw photon numbers are saturation-dominated here",
    ),
    "range": (OverflowError, "raw photon numbers leave the floating-point range at zeta={zeta!r}"),
    "share1": (ValueError, "renormalization undefined at zeta={zeta!r}: no photons"),
    "q00": (NoSpontaneousFieldError, "q00 undefined at zeta={zeta!r}: no spontaneous field"),
    "q2002": (
        DecayedFieldError, "N00N statistics undefined at zeta={zeta!r}: mean field fully decayed"
    ),
}

# The reasons that reach raw photon numbers.
_RAW_GAPS = ("bound", "guard", "range")


def _gap(reason: str, zeta, exponent: float = math.nan, guard: float | None = None) -> Exception:
    """The error of a gap for ``reason`` at one point, with its message."""
    error, template = _GAPS[reason]
    return error(template.format(zeta=zeta, exponent=exponent, guard=guard))


@dataclass(frozen=True)
class MomentBundle:
    """Per point: vacuum n1, n2, n12 and the products y = e^{2 beta t} (c* c, c* s, s* c, s* s).

    Every field but ``h`` (the coupling matrix) is over e^{log_envelope}; the
    growth guard reads the predicted peak magnitude as e^{max(log_envelope, 0)}.
    A bundle is a stack of k devices on m points, one device too: every field but
    ``zetas`` has a leading device axis, so n1, n2, n12 and log_envelope are (k, m),
    products (k, m, 4) in the stack's common dtype, and h (k, 2, 2).
    """

    zetas: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n12: np.ndarray
    products: np.ndarray
    h: np.ndarray
    log_envelope: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # non-finite products give NaN, a bound gap
def _sandwich(weights: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V* X V^T per point, as the sum over the bilinears (c* c, c* s, s* c, s* s) in ``weights``.

    ``weights`` is (..., m, 4); ``x`` and ``h`` carry its leading axes without the grid's.
    """
    x, h = x[..., None, :, :], h[..., None, :, :]
    hc = h.conj()
    terms = (x, 1j * x @ h, -1j * hc @ x, hc @ x @ h)
    return sum(weights[..., k, None, None] * term for k, term in enumerate(terms))


def _van_loan_generators(devices):
    """The shifted block generators G - c I of a stack of devices, their pumps W, H and shifts c.

    The generators take the stack's common dtype: real where every 1 + n^2 is real.
    """
    beta = np.array([params.beta for params in devices])
    weights = np.array([vacuum_pump_weights(params) for params in devices])
    w = np.zeros((len(devices), 2, 2))
    w[:, [0, 1], [0, 1]] = weights
    n = np.array([params.n for params in devices])
    h = hamiltonian(n)
    omega2 = 1.0 + n * n
    b = -(omega2.real if not omega2.imag.any() else omega2)  # B = [[0, b], [1, 0]]
    # G - c I for the growth rate c = 2 beta - d of the moments: L - c I is conj(B) (x) I
    # + I (x) B + d I with d = -2 |Im Omega|, and the corner e = -c, but where c < 0 the
    # corner stays 0: unpumped (W = 0), the unused integral column stays finite; pumped,
    # the moments settle to a steady state, so nothing is shifted (d = 2 beta, c = 0)
    d = -2.0 * np.abs(np.sqrt(omega2).imag)
    d = np.where((2.0 * beta < d) & weights.any(axis=1), 2.0 * beta, d)
    rate = 2.0 * beta - d
    generators = np.zeros((len(devices), 5, 5), dtype=b.dtype)
    generators[:, [0, 1, 2, 3], [0, 1, 2, 3]] = d[:, None]
    generators[:, [0, 2], [1, 3]] = b[:, None]
    generators[:, [0, 1], [2, 3]] = b.conj()[:, None]
    generators[:, [1, 2, 3, 3, 0], [0, 0, 1, 2, 4]] = 1.0
    generators[:, 4, 4] = -np.maximum(rate, 0.0)
    return generators, w, h, rate


def moment_bundles(devices, zetas: np.ndarray) -> MomentBundle:
    """The moment bundles of a non-empty stack of devices on one distance grid.

    The generators of imaginary-n devices are real and the others complex; each kind
    is one stacked ``expm`` call, and the sandwich and the bound checks run once on
    the whole stack, so row i of the stack equals the bundle of a stack of device i
    alone: bit for bit where the stack has one dtype, in value where it mixes both
    (a real device's products are complex there).  n1 and n2 are NaN where the
    vacuum moments break a bound.  Raises ValueError for an empty stack, and for a
    grid that is not non-empty, 1-D, in [0, MAX_ZETA] and strictly increasing.
    """
    zetas = _grid(zetas)
    if not len(devices):
        raise ValueError("moment_bundles needs at least one device")
    generators, w, h, rate = _van_loan_generators(devices)
    real = ~generators.imag.any(axis=(1, 2))
    blocks = np.empty((len(devices), zetas.size, 5, 5), generators.dtype)
    for chosen, part in ((real, generators.real), (~real, generators)):
        if chosen.any():
            blocks[chosen] = expm(part[chosen][:, None], zetas)
    moments = _sandwich(blocks[..., :4, 4], w, h)
    n12 = moments[..., 0, 1]
    n1, n2 = _checked_numbers(moments[..., 0, 0].real, moments[..., 1, 1].real, n12)
    log_envelope = rate[:, None] * zetas
    return MomentBundle(zetas, n1, n2, n12, blocks[..., :4, 0], h, log_envelope)


def with_envelope(bundle: MomentBundle, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Raw ``values`` (bundle axes first, products of ``order`` moments); inf past the range."""
    log_envelope = order * bundle.log_envelope
    extra = (1,) * (np.ndim(values) - log_envelope.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        return values * np.exp(log_envelope.reshape(log_envelope.shape + extra))


def _checked_numbers(n1, n2, n12=0.0):
    """Photon numbers, round-off negatives set to 0; NaN where a bound breaks."""
    bad = _invalid_numbers(n1) | _invalid_numbers(n2)
    n1, n2 = np.maximum(n1, 0.0), np.maximum(n2, 0.0)
    bad |= _breaks_cauchy_schwarz(n1, n2, n12)
    if bad.any():
        n1, n2 = np.where(bad, math.nan, n1), np.where(bad, math.nan, n2)
    return n1, n2


def launch_moments(bundle: MomentBundle, launch: str) -> np.ndarray:
    """Moment matrices <a_i^dag a_j> per grid point for the ``LAUNCHES`` key ``launch``.

    In the bundle's frame: the vacuum matrix [[n1, n12], [conj n12, n2]] plus the
    stimulated V* P V^T, P = diag(LAUNCHES[launch]) (photons per guide), whose entry
    (i, j) sums P_pp conj(V_ip) V_jp over the guides p.  A stack gives (k, m, 2, 2).
    """
    n12 = bundle.n12
    entries = np.array([[bundle.n1, n12], [n12.conj(), bundle.n2]])  # (2, 2) + the bundle's axes
    moments = entries.transpose(tuple(range(2, entries.ndim)) + (0, 1))
    if not any(LAUNCHES[launch]):  # the vacuum launch: its stimulated sandwich is all zero
        return moments
    return moments + _sandwich(bundle.products, np.diag(LAUNCHES[launch]), bundle.h)


def _photon_numbers(bundle: MomentBundle, launch: str) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers of the ``LAUNCHES`` key ``launch``, plus vacuum."""
    moments = launch_moments(bundle, launch)
    return _checked_numbers(moments[..., 0, 0].real, moments[..., 1, 1].real)


@np.errstate(over="ignore", invalid="ignore")  # past the float range: inf or NaN, a gap
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
    s = _sandwich(y, np.diag(LAUNCHES["noon"]), bundle.h)
    pair = 4.0 * np.abs(y[..., 1]) ** 2
    spontaneous = n1 * n2 + np.abs(n12) ** 2
    mixed = n1 * s[..., 1, 1].real + n2 * s[..., 0, 0].real + 2.0 * (n12 * s[..., 1, 0]).real
    return pair + spontaneous + mixed


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Ratio of frame values; NaN where the denominator is below the floor (call under errstate)."""
    return np.where(denominator >= _RATIO_FLOOR, numerator / denominator, math.nan)


def _grid(zetas) -> np.ndarray:
    """A read-only copy of a distance grid: non-empty, 1-D, in [0, MAX_ZETA], strictly increasing."""
    grid = np.array(zetas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("zeta grid must be a non-empty 1-D array")
    if not np.all((grid >= 0.0) & (grid <= MAX_ZETA)):
        raise ValueError(f"zeta must lie in [0, MAX_ZETA = {MAX_ZETA:g}]")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("zeta grid must be strictly increasing")
    grid.flags.writeable = False
    return grid


def vacuum_moments(
    params: EffectiveParams,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> VacuumMoments:
    """Spontaneous second moments generated from vacuum at distance zeta."""
    _, point = _point_columns(params, "q00", zeta, _RAW_GAPS, max_magnitude)
    return VacuumMoments(point["n1"], point["n2"], complex(point["n12_re"], point["n12_im"]))


def q_vacuum(params: EffectiveParams, zeta: float) -> float:
    """Normalized vacuum cross-correlation q = |n12|^2 / (n1 n2).

    Non-negative by construction (the spontaneous fields of the two guides
    can only be bunched) and bounded by one through Cauchy-Schwarz.  Undefined
    where neither guide has gain and at zeta = 0: there is no spontaneous field.
    A ratio of moments, so it stays well defined far beyond the growth guard;
    evaluation is unguarded.
    """
    return _point_columns(params, "q00", zeta, ("bound", "q00"))[1]["q00"]


def single_photon_numbers(
    params: EffectiveParams,
    zeta: float,
    *,
    port: int = 1,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> PhotonNumbers:
    """Mean photon numbers for one photon injected into guide ``port`` (1 or 2).

    Stimulated transfer e^{2 beta zeta} |U_j,port|^2 plus the spontaneous
    background; a device without gain keeps the stimulated term only.
    """
    try:
        launch = {1: "guide 1", 2: "guide 2"}[port]
    except (KeyError, TypeError):  # TypeError: an unhashable port
        raise ValueError(f"input port must be 1 or 2, got {port!r}") from None
    _, point = _point_columns(params, "single", zeta, _RAW_GAPS, max_magnitude, launch)
    return PhotonNumbers(point["n1"], point["n2"])


def noon_photon_numbers(
    params: EffectiveParams,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> PhotonNumbers:
    """Mean photon numbers for the two-photon input (|20> + |02>)/sqrt(2)."""
    _, point = _point_columns(params, "noon_n", zeta, _RAW_GAPS, max_magnitude)
    return PhotonNumbers(point["n1"], point["n2"])


def noon_two_point(
    params: EffectiveParams,
    zeta: float,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> float:
    """Two-guide coincidence moment <a1^dag a2^dag a2 a1> for the N00N input.

    Interference of the two stimulated paths plus spontaneous background and
    the mixed stimulated-spontaneous terms.
    """
    bundle, _ = _point_columns(params, "noon_n", zeta, ("bound", "guard"), max_magnitude)
    value = float(with_envelope(bundle, _noon_two_point(bundle), order=2)[0, 0])
    if not math.isfinite(value):
        raise _gap("range", float(bundle.zetas[0]))
    return value


def q_noon(params: EffectiveParams, zeta: float) -> float:
    """Normalized N00N correlation q = n1212 / (n1 n2) - 1.

    Exactly -1 at zeta = 0 (perfect anti-correlation of the input), at most
    zero without gain, and crossing into bunching once the spontaneous
    background dominates on amplifying devices.  A ratio of moments; unguarded.
    """
    return _point_columns(params, "q2002", zeta, ("bound", "q2002"))[1]["q2002"]


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

# The launch behind the n1 / n2 / share columns of each observable.
_CURVE_LAUNCHES = dict(
    spont="vacuum", q00="vacuum", all="vacuum", single="guide 1", noon_n="noon", q2002="noon"
)

# Observables whose value at zeta = 0 is a 0/0: the vacuum launches (spontaneous shares, q00).
ZERO_UNDEFINED = tuple(name for name, launch in _CURVE_LAUNCHES.items() if launch == "vacuum")


@dataclass
class ObservableCurve:
    """A sampled observable: one read-only array per column, gaps where undefined.

    ``data[name][i]`` is column ``name`` at ``zetas[i]`` (columns in CSV order), NaN
    where that point could not be evaluated; ``gaps`` holds one (start, stop, reason)
    per maximal run of points with one reason, sorted by start, with stop exclusive.
    """

    observable: str
    zetas: np.ndarray
    data: dict[str, np.ndarray]
    gaps: list[tuple[int, int, str]] = field(default_factory=list)


@np.errstate(all="ignore")  # zero denominators, the float range and bound breaks give NaN gaps
def _evaluate(devices, observable, zetas, max_magnitude, launch=None):
    """The bundle stack of ``devices``, each point's log peak magnitude, the CSV columns of
    ``observable`` and the points each ``_GAPS`` reason marks, in table order, each with a
    leading device axis: the one gap decision of grids, points and ``verify``.

    Every column is NaN where a bound breaks, raw columns also past the guard or the
    float range.  ``launch`` overrides the observable's launch.
    """
    if max_magnitude is not None and not float(max_magnitude) > 0.0:
        raise ValueError(f"max_magnitude must be positive or None, got {max_magnitude!r}")
    log_guard = math.inf if max_magnitude is None else math.log(max_magnitude)
    bundle = moment_bundles(devices, zetas)
    exponents = np.maximum(bundle.log_envelope, 0.0)
    raw_ok = exponents <= log_guard
    names = CURVE_COLUMNS[observable]
    launch = _CURVE_LAUNCHES[observable] if launch is None else launch
    n1, n2 = _photon_numbers(bundle, launch)
    columns = {}
    if "q2002" in names:  # the only column that needs the N00N numbers: their bound gaps the point
        noon1, noon2 = (n1, n2) if launch == "noon" else _photon_numbers(bundle, "noon")
        columns["q2002"] = _ratio(_noon_two_point(bundle), noon1 * noon2) - 1.0
        n1 = np.where(np.isnan(noon1), math.nan, n1)
    frame = {"n1": n1, "n2": n2, "n12_re": bundle.n12.real, "n12_im": bundle.n12.imag}
    envelope = np.exp(bundle.log_envelope)
    raw = {name: values * envelope for name, values in frame.items()}
    in_range = np.isfinite(list(raw.values())).all(axis=0)
    columns.update(
        (name, np.where(raw_ok & in_range, values, math.nan)) for name, values in raw.items()
    )
    if "share1" in names:
        columns["share1"] = _ratio(n1, n1 + n2)
        columns["share2"] = 1.0 - columns["share1"]
    if "q00" in names:
        columns["q00"] = _ratio(np.abs(bundle.n12) ** 2, n1 * n2)
    bound = np.isnan(n1)
    masks = {"bound": bound, "guard": ~raw_ok, "range": ~bound & raw_ok & ~in_range}
    masks.update((name, ~bound & np.isnan(columns[name])) for name in _GAPS if name in columns)
    return bundle, exponents, {name: columns[name] for name in names}, masks


def _point_columns(params, observable, zeta, reasons, max_magnitude=None, launch=None):
    """The bundle and the columns of the one-point curve [zeta] of ``observable``.

    Raises the point's first gap, in table order, among ``reasons``: those that
    reach the columns the caller reads.
    """
    bundle, exponents, columns, masks = _evaluate(
        (params,), observable, [zeta], max_magnitude, launch
    )
    for reason, mask in masks.items():
        if reason in reasons and mask[0, 0]:
            raise _gap(reason, float(bundle.zetas[0]), exponents[0, 0], max_magnitude)
    return bundle, {name: float(values[0, 0]) for name, values in columns.items()}


def sample_curve(
    params: EffectiveParams,
    observable: str,
    zetas: np.ndarray,
    *,
    max_magnitude: float | None = GROWTH_GUARD_MAX,
) -> ObservableCurve:
    """Sample one observable over a strictly increasing distance grid.

    Every grid point is evaluated independently of the others (a point's
    values equal those of the same point sampled alone, bit for bit), and
    undefined or guarded values turn into NaN entries instead of aborting the
    sweep: every column where the moments break a bound, raw columns past the
    growth guard or the floating-point range, and ratios with a zero
    denominator.  ``gaps`` holds the runs of the points each reason marks; a
    one-point function raises the first of the marks on its columns, so a run's
    reason is its error at the run's first point.  The grid is kept as a
    read-only copy and must lie in [0, MAX_ZETA].
    """
    if observable not in CURVE_COLUMNS:
        raise ValueError(
            f"unknown observable {observable!r}; choose from {sorted(CURVE_COLUMNS)}"
        )
    bundle, exponents, columns, masks = _evaluate((params,), observable, zetas, max_magnitude)
    zetas, gaps = bundle.zetas.tolist(), []  # floats repr as the one-point functions print
    for reason, mask in masks.items():
        edges = np.flatnonzero(np.diff(mask[0], prepend=False, append=False)).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            gap = _gap(reason, zetas[start], exponents[0, start], max_magnitude)
            gaps.append((start, stop, str(gap)))
    gaps.sort(key=lambda gap: gap[0])  # stable: a point's reasons stay in table order
    data = {name: values[0] for name, values in columns.items()}
    for values in data.values():
        values.flags.writeable = False
    return ObservableCurve(observable=observable, zetas=bundle.zetas, data=data, gaps=gaps)
