"""Tests for photon-statistics observables against frozen oracle values.

The frozen numbers below were produced by the independent moment integrator
(`ptdimer.moments`) at step 1e-4, where its truncation error sits far below
the tolerances used here.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ptdimer import cli, observables
from ptdimer.configurations import (
    DimerRealization,
    Kind,
    UnreachableGammaError,
    effective_params,
    preset_realization,
    realization_for_gamma,
)
from ptdimer.core import EffectiveParams, expm, propagator
from ptdimer.moments import DriftAndPump, drift_and_pump, integrate_moments_path
from ptdimer.observables import (
    CURVE_COLUMNS,
    GROWTH_GUARD_MAX,
    MAX_ZETA,
    DecayedFieldError,
    GrowthGuardError,
    NoSpontaneousFieldError,
    PhotonNumbers,
    VacuumMoments,
    asymptotic_shares,
    launch_moments,
    moment_bundles,
    noon_photon_numbers,
    noon_two_point,
    q_noon,
    q_vacuum,
    sample_curve,
    single_photon_numbers,
    vacuum_moments,
    vacuum_pump_weights,
    with_envelope,
)

ORACLE_RTOL = 1e-9

# moment-integrator references, step 1e-4 (see module docstring)
GAIN_LOSS_VACUUM_Z1 = (1.24347221258574, 0.28675993387832516, 0.53023214646406158)
GAIN_GAIN_VACUUM_Z08 = (8.1108494666971556, 2.4893362864156923, 2.6941209043226086)
GAIN_PASSIVE_ONE_Z13 = (9.630803061377712, 7.0021971928384588)
PASSIVE_LOSS_ONE_Z2 = (0.022672639439088094, 0.17579540785313538)

ASYMPTOTIC_SHARES_12 = (0.22361460080371676, 0.7763853991962832)


def params_for(kind, gamma):
    realization = realization_for_gamma(kind, gamma)
    return effective_params(realization)


# ---------------------------------------------------------------------------
# pump weights


def test_pump_weights_per_kind():
    assert vacuum_pump_weights(params_for(Kind.GAIN_LOSS, -0.5)) == (
        1.0,
        0.0,
    )
    w = vacuum_pump_weights(params_for(Kind.GAIN_GAIN, -0.5))
    assert np.allclose(w, (3.0, 1.0), rtol=1e-15)  # beta = 1.0 for this preset
    w = vacuum_pump_weights(params_for(Kind.GAIN_PASSIVE, -0.5))
    assert np.allclose(w, (2.0, 0.0), rtol=1e-15)
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        assert vacuum_pump_weights(params_for(kind, -0.5)) == (0.0, 0.0)


@pytest.mark.parametrize("magnitude", [0.2, 0.5, 1.0, 1.2, 4.0, 120.0])
def test_pump_weights_match_the_oracle_pump(magnitude):
    # written in beta and gamma, the weights equal the oracle's pump, 2 max(0, -Im n_k) / g
    for kind in Kind:
        for gamma in (-magnitude, magnitude):
            try:
                realization = realization_for_gamma(kind, gamma)
            except UnreachableGammaError:
                continue
            weights = vacuum_pump_weights(effective_params(realization))
            pump = np.diag(drift_and_pump(realization).d)
            np.testing.assert_allclose(weights, pump, rtol=1e-14, atol=0.0)


def test_observables_take_no_kind():
    # the device is (n, n0) alone; a call that still passes a kind fails loudly
    p = params_for(Kind.GAIN_LOSS, -0.5)
    grid = np.array([0.5, 1.0])
    calls = [
        lambda: vacuum_pump_weights(p, Kind.GAIN_LOSS),
        lambda: moment_bundles((p,), Kind.GAIN_LOSS, grid),
        lambda: sample_curve(p, Kind.GAIN_LOSS, "all", grid),
        lambda: single_photon_numbers(p, Kind.GAIN_LOSS, 1.0),
    ]
    for point in (vacuum_moments, q_vacuum, noon_photon_numbers, noon_two_point, q_noon):
        calls.append(lambda point=point: point(p, Kind.GAIN_LOSS, 1.0))
    for call in calls:
        with pytest.raises(TypeError):
            call()


# ---------------------------------------------------------------------------
# spontaneous generation vs the frozen oracle


def test_gain_loss_vacuum_matches_oracle():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    vm = vacuum_moments(p, 1.0)
    n1, n2, n12_im = GAIN_LOSS_VACUUM_Z1
    assert np.isclose(vm.n1, n1, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n2, n2, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n12.imag, n12_im, rtol=ORACLE_RTOL)
    assert abs(vm.n12.real) < 1e-15


def test_gain_gain_vacuum_matches_oracle():
    p = params_for(Kind.GAIN_GAIN, -0.5)
    vm = vacuum_moments(p, 0.8)
    n1, n2, n12_im = GAIN_GAIN_VACUUM_Z08
    assert np.isclose(vm.n1, n1, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n2, n2, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n12.imag, n12_im, rtol=ORACLE_RTOL)


def test_gain_passive_single_photon_matches_oracle():
    p = params_for(Kind.GAIN_PASSIVE, -0.5)
    numbers = single_photon_numbers(p, 1.3, port=1)
    assert np.isclose(numbers.n1, GAIN_PASSIVE_ONE_Z13[0], rtol=ORACLE_RTOL)
    assert np.isclose(numbers.n2, GAIN_PASSIVE_ONE_Z13[1], rtol=ORACLE_RTOL)


def test_passive_loss_single_photon_matches_oracle():
    p = params_for(Kind.PASSIVE_LOSS, -0.5)
    numbers = single_photon_numbers(p, 2.0, port=1)
    assert np.isclose(numbers.n1, PASSIVE_LOSS_ONE_Z2[0], rtol=ORACLE_RTOL)
    assert np.isclose(numbers.n2, PASSIVE_LOSS_ONE_Z2[1], rtol=ORACLE_RTOL)


def test_passive_kinds_generate_nothing():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        vm = vacuum_moments(params_for(kind, -0.8), 4.0)
        assert vm == VacuumMoments(0.0, 0.0, 0.0j)


def test_vacuum_moments_zero_distance():
    vm = vacuum_moments(params_for(Kind.GAIN_LOSS, -0.5), 0.0)
    assert (vm.n1, vm.n2, vm.n12) == (0.0, 0.0, 0.0j)


def test_gain_passive_equals_gain_gain_weight_limit():
    # a gain-passive device is the ni2 -> 0 limit of gain-gain: the moments
    # follow from (n, n0) alone, whichever layout reaches them
    gain_passive = realization_for_gamma(Kind.GAIN_PASSIVE, -0.5)
    gain_gain = DimerRealization(Kind.GAIN_GAIN, nr=1.5, g=1.0, ni1=gain_passive.ni, ni2=1e-13)
    vm_gp = vacuum_moments(effective_params(gain_passive), 2.0)
    vm_gg = vacuum_moments(effective_params(gain_gain), 2.0)
    assert np.isclose(vm_gp.n1, vm_gg.n1, rtol=1e-12)
    assert np.isclose(vm_gp.n2, vm_gg.n2, rtol=1e-12)
    assert np.isclose(abs(vm_gp.n12 - vm_gg.n12), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# single photon and two-photon inputs


def test_single_photon_launch_values():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert single_photon_numbers(p, 0.0, port=1) == PhotonNumbers(1.0, 0.0)
    assert single_photon_numbers(p, 0.0, port=2) == PhotonNumbers(0.0, 1.0)
    with pytest.raises(ValueError):
        single_photon_numbers(p, 1.0, port=3)


def test_noon_launch_values():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert noon_photon_numbers(p, 0.0) == PhotonNumbers(1.0, 1.0)
    assert noon_two_point(p, 0.0) == 0.0
    assert q_noon(p, 0.0) == -1.0


def test_noon_numbers_are_sum_of_port_injections_plus_vacuum():
    p = params_for(Kind.GAIN_GAIN, 0.5)
    zeta = 1.1
    noon = noon_photon_numbers(p, zeta)
    one = single_photon_numbers(p, zeta, port=1)
    two = single_photon_numbers(p, zeta, port=2)
    vm = vacuum_moments(p, zeta)
    assert np.isclose(noon.n1, one.n1 + two.n1 - vm.n1, rtol=1e-12)
    assert np.isclose(noon.n2, one.n2 + two.n2 - vm.n2, rtol=1e-12)


def test_lossless_noon_two_point_interference():
    # for a lossless coupler the two stimulated paths interfere exactly:
    # n1212 = |U11 U21 + U12 U22|^2 = 4 sin^2 cos^2
    p = EffectiveParams(0.0j, 1.5 + 0.0j)
    for zeta in (0.3, 0.7, 2.0):
        value = noon_two_point(p, zeta)
        expected = 4.0 * (math.sin(zeta) * math.cos(zeta)) ** 2
        assert np.isclose(value, expected, rtol=1e-12, atol=1e-14)


@given(
    st.sampled_from(list(Kind)),
    st.floats(0.0, 4.0, exclude_min=True),
    st.booleans(),
    st.floats(0.0, 20.0),
)
@example(Kind.LOSS_LOSS, 0.5035250583094261, False, 20.0)  # c = cos(Omega zeta) near 9e-4
@settings(max_examples=200, deadline=None)
def test_noon_two_point_matches_propagator_formula(kind, magnitude, positive, zeta):
    # the same coincidence moment built from V = e^{beta zeta} U and its products:
    # |(V V^T)_12|^2 + n1 n2 + |n12|^2 + n1 S22 + n2 S11 + 2 Re(n12 S21), S = conj(V) V^T
    two_signed = kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS)
    p = params_for(kind, magnitude if positive and two_signed else -magnitude)
    assume(4.0 * (p.beta + abs(p.omega.imag)) * zeta <= 700.0)  # e^{2 c zeta} within range
    v = math.exp(p.beta * zeta) * propagator(p.n, zeta)
    s = v.conj() @ v.T
    vm = vacuum_moments(p, zeta, max_magnitude=None)
    terms = (
        abs((v @ v.T)[0, 1]) ** 2,
        vm.n1 * vm.n2,
        abs(vm.n12) ** 2,
        vm.n1 * s[1, 1].real,
        vm.n2 * s[0, 0].real,
        2.0 * (vm.n12 * s[1, 0]).real,
    )
    value = noon_two_point(p, zeta, max_magnitude=None)
    # subnormal values carry no relative accuracy: allow the smallest normal float
    assert abs(value - sum(terms)) <= 1e-10 * max(map(abs, terms)) + np.finfo(float).tiny


@pytest.mark.xfail(
    strict=True,
    reason="phase floor, ROADMAP item 'Bound the scaled distance |Omega| zeta': next to a zero "
    "of c the pair term is off by about eps |Omega| zeta / |c| relative, 2.2e-10 here",
)
def test_noon_two_point_next_to_a_zero_of_c():
    # a lossless device at zeta = 11 pi / 2 + 5.5e-6, where c = cos(zeta) is 5.5e-6:
    # n1212 = 4 sin^2 cos^2 = sin^2(2 zeta), and math.sin is within 2e-16 of exact
    p = params_for(Kind.GAIN_LOSS, -5e-324)
    zeta = 17.27876510145569
    value = noon_two_point(p, zeta, max_magnitude=None)
    assert np.isclose(value, math.sin(2.0 * zeta) ** 2, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# correlations


def test_q_vacuum_in_unit_interval():
    for kind, gamma in [
        (Kind.GAIN_LOSS, -0.5),
        (Kind.GAIN_GAIN, 1.2),
        (Kind.GAIN_PASSIVE, -1.0),
    ]:
        p = params_for(kind, gamma)
        for zeta in (0.2, 1.0, 3.0, 8.0):
            q = q_vacuum(p, zeta)
            assert -1e-12 <= q <= 1.0 + 1e-9


def test_q_vacuum_undefined_for_passive_or_zero():
    with pytest.raises(NoSpontaneousFieldError):
        q_vacuum(params_for(Kind.PASSIVE_LOSS, -0.5), 1.0)
    with pytest.raises(NoSpontaneousFieldError):
        q_vacuum(params_for(Kind.GAIN_LOSS, -0.5), 0.0)


def test_q_noon_crosses_into_bunching_for_gain_loss():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert q_noon(p, 0.05) < 0.0
    assert q_noon(p, 3.0) > 0.0


def test_q_noon_stays_defined_or_gapped_deep_in_decay():
    # from zeta ~ 200 on the raw loss-loss moments sink into the subnormal
    # range; the ratio, formed with the envelope divided out, stays defined
    p = params_for(Kind.LOSS_LOSS, -0.9)
    curve = sample_curve(p, "q2002", np.linspace(0.05, 1000.0, 300))
    q = curve.data["q2002"]
    assert np.all(q >= -1.0)
    # 60-digit mpmath from U = cos(Omega zeta) I + i sin(Omega zeta) H / Omega
    assert np.isclose(q[-1], -0.78061757778508866, rtol=1e-10, atol=0.0)


def test_q_noon_stays_nonpositive_for_passive_kinds():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        p = params_for(kind, -0.5)
        for zeta in np.linspace(0.0, 8.0, 30):
            assert q_noon(p, float(zeta)) <= 1e-12


# ---------------------------------------------------------------------------
# renormalized shares


def test_asymptotic_shares_frozen_values():
    shares = asymptotic_shares(1.2)
    assert np.allclose(shares, ASYMPTOTIC_SHARES_12, rtol=1e-15, atol=0.0)
    assert asymptotic_shares(-1.2) == shares  # sign-blind magnitude
    assert asymptotic_shares(1.0) == (0.5, 0.5)
    with pytest.raises(ValueError):
        asymptotic_shares(0.99)
    with pytest.raises(ValueError, match="gamma must be finite"):
        asymptotic_shares(math.nan)


@given(st.floats(1.0, 25.0))
@settings(max_examples=100)
def test_asymptotic_shares_ordered_and_normalized(a):
    small, large = asymptotic_shares(a)
    assert 0.0 <= small <= 0.5 <= large <= 1.0
    assert np.isclose(small + large, 1.0, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# growth guard


def test_growth_guard_blocks_raw_numbers():
    p = params_for(Kind.GAIN_GAIN, 1.2)
    with pytest.raises(GrowthGuardError):
        single_photon_numbers(p, 20.0)
    with pytest.raises(GrowthGuardError):
        vacuum_moments(p, 20.0)
    # ratios remain available far beyond the guard
    q = q_vacuum(p, 20.0)
    assert 0.0 <= q <= 1.0 + 1e-9
    # and the guard can be lifted explicitly
    numbers = single_photon_numbers(p, 20.0, max_magnitude=None)
    assert numbers.n1 > GROWTH_GUARD_MAX


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_growth_guard_rejects_invalid_max_magnitude(bad):
    # the single-point functions and sample_curve share one check
    p = params_for(Kind.GAIN_LOSS, -0.5)
    with pytest.raises(ValueError, match=f"max_magnitude .* got {bad!r}"):
        vacuum_moments(p, 1.0, max_magnitude=bad)
    with pytest.raises(ValueError, match=f"max_magnitude .* got {bad!r}"):
        sample_curve(p, "spont", np.array([0.5, 1.0]), max_magnitude=bad)
    # an infinite guard is a lifted guard
    assert vacuum_moments(p, 1.0, max_magnitude=math.inf).n1 > 0.0


def test_growth_guard_inactive_for_bounded_devices():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    numbers = single_photon_numbers(p, 50.0)
    assert math.isfinite(numbers.n1)


# ---------------------------------------------------------------------------
# curve sampling


def test_sample_curve_columns_and_determinism():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    grid = np.linspace(0.1, 5.0, 40)
    a = sample_curve(p, "all", grid)
    b = sample_curve(p, "all", grid)
    assert tuple(a.data) == CURVE_COLUMNS["all"]
    assert a.gaps == [] and b.gaps == []
    for col in a.data:
        assert np.array_equal(a.data[col], b.data[col])


def test_sample_curve_flags_guarded_points():
    p = params_for(Kind.GAIN_GAIN, 1.2)
    grid = np.array([0.5, 20.0])
    curve = sample_curve(p, "single", grid)
    assert math.isfinite(curve.data["n1"][0])
    assert math.isnan(curve.data["n1"][1])  # beyond the growth guard
    assert math.isfinite(curve.data["share1"][1])  # ratio still defined
    assert any(start <= 1 < stop for start, stop, _ in curve.gaps)


def test_sample_curve_passive_spont_is_all_gaps():
    p = params_for(Kind.LOSS_LOSS, -0.5)
    curve = sample_curve(p, "spont", np.array([1.0, 2.0]))
    assert all(math.isnan(v) for v in curve.data["share1"])
    assert [(start, stop) for start, stop, _ in curve.gaps] == [(0, 2)]  # both points, one run


_GAP_PREFIXES = {
    "predicted magnitude": "guard",
    "moments at": "bound",
    "raw photon numbers leave": "range",
    "renormalization undefined": "share1",
    "q00 undefined": "q00",
    "N00N statistics undefined": "q2002",
}


def _reason(note):
    return next(reason for prefix, reason in _GAP_PREFIXES.items() if note.startswith(prefix))


def _gap_runs(curve):
    """Per reason, the points its runs cover; asserts the runs are sorted and never touch."""
    covered = {reason: np.zeros(curve.zetas.size, bool) for reason in _GAP_PREFIXES.values()}
    starts = [start for start, _, _ in curve.gaps]
    assert starts == sorted(starts)
    for start, stop, note in curve.gaps:
        reason = _reason(note)
        assert 0 <= start < stop <= curve.zetas.size
        # one reason's runs are maximal: they neither overlap nor touch
        assert not covered[reason][max(start - 1, 0) : stop + 1].any(), (reason, start)
        covered[reason][start:stop] = True
    return covered


def test_gaps_are_maximal_runs_of_one_reason(monkeypatch):
    grid = np.linspace(0.05, 300.0, 400)
    points = {"guard": vacuum_moments, "range": vacuum_moments, "q00": q_vacuum, "q2002": q_noon}
    points["bound"] = q_noon  # its N00N numbers carry the vacuum's
    far = effective_params(preset_realization(Kind.GAIN_PASSIVE, -7e11))
    cases = [
        (params_for(Kind.LOSS_LOSS, 0.5), GROWTH_GUARD_MAX, grid),  # no spontaneous field
        (params_for(Kind.GAIN_GAIN, 3.0), GROWTH_GUARD_MAX, grid),  # past the guard from zeta 1.6
        (params_for(Kind.GAIN_GAIN, 3.0), None, grid),  # past the float range from zeta 40
        # |Omega| zeta near 1e12 leaves the phase few digits: single points break a bound
        (far, GROWTH_GUARD_MAX, np.linspace(0.05, 10.0, 50)),
    ]
    seen = set()
    for p, guard, zetas in cases:
        curve = sample_curve(p, "all", zetas, max_magnitude=guard)
        peaks = np.maximum(moment_bundles((p,), zetas)[0].log_envelope, 0.0)
        raw_ok = peaks <= (math.inf if guard is None else math.log(guard))
        covered = _gap_runs(curve)
        bound = covered["bound"]
        # a bound gap is a gap in every column and no range or ratio gap besides
        assert all(np.isnan(values[bound]).all() for values in curve.data.values())
        assert np.array_equal(covered["guard"], ~raw_ok)
        assert np.array_equal(covered["range"], raw_ok & ~bound & np.isnan(curve.data["n1"]))
        for name in ("share1", "q00", "q2002"):
            assert np.array_equal(covered[name], ~bound & np.isnan(curve.data[name])), name
        # a run's reason is what the one-point function raises at its first point
        for start, _, note in curve.gaps:
            reason = _reason(note)
            seen.add(reason)
            if reason in points:
                kwargs = {"max_magnitude": guard} if points[reason] is vacuum_moments else {}
                with pytest.raises(Exception) as raised:
                    points[reason](p, float(zetas[start]), **kwargs)
                assert str(raised.value) == note
    assert seen == {"guard", "bound", "range", "share1", "q00", "q2002"}

    # holes in one column: each stretch of NaN cells is its own run
    holes = np.arange(grid.size) % 7 < 3
    curve_columns = observables._curve_columns

    def holed(*args):
        columns, bounded = curve_columns(*args)
        columns["q2002"] = np.where(holes, math.nan, columns["q2002"])
        return columns, bounded

    monkeypatch.setattr(observables, "_curve_columns", holed)
    curve = sample_curve(params_for(Kind.GAIN_LOSS, -0.5), "all", grid)
    assert np.array_equal(_gap_runs(curve)["q2002"], holes)
    assert sum(note.startswith("N00N") for *_, note in curve.gaps) == math.ceil(grid.size / 7)


_BOUND_MESSAGE = "moments at zeta={!r} break non-negativity or the Cauchy-Schwarz bound"


def test_point_functions_raise_the_bound_error(monkeypatch):
    # launched photons past a bound, the vacuum within: the functions that launch them raise
    far = effective_params(preset_realization(Kind.GAIN_PASSIVE, -7e11))
    zetas = np.linspace(0.05, 10.0, 50)
    bound = _gap_runs(sample_curve(far, "all", zetas))["bound"]
    zeta = float(zetas[np.argmax(bound)])
    message = f"^{re.escape(_BOUND_MESSAGE.format(zeta))}$"
    for point, kwargs in [
        (single_photon_numbers, {"port": 2, "max_magnitude": None}),
        (noon_photon_numbers, {"max_magnitude": None}),
        (q_noon, {}),
    ]:
        with pytest.raises(FloatingPointError, match=message):
            point(far, zeta, **kwargs)
    with pytest.raises(OverflowError):  # the vacuum keeps its bounds there
        vacuum_moments(far, zeta, max_magnitude=None)

    # negated sandwiches break a bound in the vacuum: every one-point function raises,
    # with the zeta printed as a float
    sandwich = observables._sandwich
    monkeypatch.setattr(observables, "_sandwich", lambda *args: -sandwich(*args))
    p = params_for(Kind.GAIN_LOSS, -0.5)
    message = f"^{re.escape(_BOUND_MESSAGE.format(1.0))}$"
    points = (vacuum_moments, q_vacuum, single_photon_numbers, noon_photon_numbers)
    for point in (*points, noon_two_point, q_noon):
        with pytest.raises(FloatingPointError, match=message):
            point(p, 1)
    # past the guard too: the bound error comes first, as the bound run does in a curve
    with pytest.raises(FloatingPointError, match=message):
        vacuum_moments(p, 1.0, max_magnitude=1e-3)
    curve = sample_curve(p, "spont", [1.0], max_magnitude=1e-3)
    assert [_reason(note) for *_, note in curve.gaps] == ["bound", "guard"]


@pytest.mark.parametrize("observable", ["spont", "q00", "q2002"])
@pytest.mark.parametrize("kind", list(Kind))
def test_sample_curve_point_equals_point_alone(kind, observable):
    # the promise of sample_curve: a grid point does not depend on the rest
    # of the grid, down to the last bit
    gamma = 1.2 if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else -1.2
    p = params_for(kind, gamma)
    grid = np.linspace(0.05, 10.0, 37)
    curve = sample_curve(p, observable, grid, max_magnitude=None)
    for index in (0, 11, 36):
        alone = sample_curve(p, observable, grid[index : index + 1], max_magnitude=None)
        for name in curve.data:
            on_grid = np.float64(curve.data[name][index])
            assert on_grid.tobytes() == np.float64(alone.data[name][0]).tobytes()


def _point_or_error(point, *args, **kwargs):
    try:
        return point(*args, **kwargs)
    except (
        GrowthGuardError, FloatingPointError, OverflowError, NoSpontaneousFieldError,
        DecayedFieldError,
    ) as exc:
        return exc


def _one_point_devices():
    for kind in Kind:
        for magnitude in (0.5, 1.0, 1.2, 3.0):
            signs = (1.0, -1.0) if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else (-1.0,)
            for sign in signs:
                yield params_for(kind, sign * magnitude)
    yield EffectiveParams(0.5j, 0.1j)  # c = 2 beta < 0 with guide 2 pumped: a steady state


def test_point_functions_read_the_one_point_curve(monkeypatch):
    # a point function is the one-point grid of sample_curve: same values, bit for
    # bit, and where the curve has a gap among the function's reasons, the first
    # of them as its error
    p = EffectiveParams(0.5j, 0.1j)
    assert vacuum_pump_weights(p)[1] > 0.0 and p.beta < 0.0
    # a curve of one photon launched into guide 2, for single_photon_numbers(port=2)
    monkeypatch.setitem(observables._INPUT_PORTS, "single2", (1,))
    monkeypatch.setitem(observables.CURVE_COLUMNS, "single2", CURVE_COLUMNS["single"])
    raw_reasons = ("bound", "guard", "range")
    numbers = ("n1", "n2"), lambda v: (v.n1, v.n2)
    raw = [
        (vacuum_moments, {}, "q00", ("n1", "n2", "n12_re", "n12_im"),
         lambda v: (v.n1, v.n2, v.n12.real, v.n12.imag)),
        (single_photon_numbers, {"port": 1}, "single", *numbers),
        (single_photon_numbers, {"port": 2}, "single2", *numbers),
        (noon_photon_numbers, {}, "noon_n", *numbers),
    ]
    cases = [
        (point, {**kwargs, "max_magnitude": guard}, observable, names, values, raw_reasons, guard)
        for point, kwargs, observable, names, values in raw
        for guard in (GROWTH_GUARD_MAX, None)
    ]
    cases += [  # no curve column: checked for its bound and guard gaps only
        (noon_two_point, {"max_magnitude": guard}, "q2002", (), None, ("bound", "guard"), guard)
        for guard in (GROWTH_GUARD_MAX, None)
    ]
    cases += [  # the ratios are unguarded
        (q_vacuum, {}, "q00", ("q00",), lambda v: (v,), ("bound", "q00"), None),
        (q_noon, {}, "q2002", ("q2002",), lambda v: (v,), ("bound", "q2002"), None),
    ]
    points = [
        (p, zeta)
        for p in _one_point_devices()
        for zeta in (0.0, 0.3, 5.0, 40.0, 300.0)  # 300: raw numbers past the float range
    ]
    # |Omega| zeta near 1e12: launched photons break a bound at single points, past the guard
    far = effective_params(preset_realization(Kind.GAIN_PASSIVE, -7e11))
    zetas = np.linspace(0.05, 10.0, 50)
    bound = _gap_runs(sample_curve(far, "noon_n", zetas))["bound"]
    assert bound.sum() == 3
    points += [(far, float(zeta)) for zeta in zetas[bound]]
    # raw |n12|^2 / (n1 n2) just above one, within the frame's slack: the curve writes
    # values and no gap, so unguarded vacuum_moments returns them too
    faint = effective_params(
        realization_for_gamma(
            Kind.GAIN_GAIN, -27846.392183237334, 0.0425313949684474, 10894.552264846612
        )
    )
    points += [(faint, zeta) for zeta in (0.00048564242555085524, 0.0006070530319385691)]
    for p, zeta in points:
        for function, kwargs, observable, names, values, reasons, guard in cases:
            point = _point_or_error(function, p, zeta, **kwargs)
            curve = sample_curve(p, observable, [zeta], max_magnitude=guard)
            notes = [note for *_, note in curve.gaps if _reason(note) in reasons]
            where = (p, zeta, function.__name__, kwargs, guard)
            if notes:
                assert isinstance(point, Exception), where
                assert str(point) == notes[0], where
                continue
            if function is noon_two_point:
                assert not isinstance(point, Exception) or _reason(str(point)) == "range", where
                continue
            assert not isinstance(point, Exception), where
            column = [float(curve.data[name][0]) for name in names]
            for got, want in zip(values(point), column):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), where


@pytest.mark.parametrize(
    "observable, launches",
    [("q2002", [(0, 1)]), ("noon_n", [(0, 1)]), ("all", [(), (0, 1)]), ("single", [(0,)])],
)
def test_curve_forms_each_launch_once(monkeypatch, observable, launches):
    seen = []
    counted = observables._photon_numbers
    monkeypatch.setattr(
        observables,
        "_photon_numbers",
        lambda bundle, ports: seen.append(ports) or counted(bundle, ports),
    )
    p = params_for(Kind.GAIN_LOSS, -0.5)
    sample_curve(p, observable, np.linspace(0.1, 2.0, 5))
    assert sorted(seen) == launches


def test_sample_curve_rejects_bad_grid():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    with pytest.raises(ValueError):
        sample_curve(p, "spont", np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        sample_curve(p, "nope", np.array([1.0, 2.0]))
    for grid in ([], [[0.5]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            sample_curve(p, "spont", grid)


_GRID_ERRORS = {
    "below zero": ([-1.0], "zeta must lie in [0, MAX_ZETA = 1e+08]"),
    "decreasing": ([2.0, 1.0], "zeta grid must be strictly increasing"),
    "past MAX_ZETA": ([3e8], "zeta must lie in [0, MAX_ZETA = 1e+08]"),
    "empty": ([], "zeta grid must be a non-empty 1-D array"),
    "2-D": ([[1.0]], "zeta grid must be a non-empty 1-D array"),
    "nan": ([math.nan], "zeta must lie in [0, MAX_ZETA = 1e+08]"),
}


@pytest.mark.parametrize("grid, message", _GRID_ERRORS.values(), ids=_GRID_ERRORS.keys())
def test_moment_bundle_validates_its_grid(grid, message):
    # the bundle owns the grid contract, so direct callers meet it too
    p = params_for(Kind.GAIN_LOSS, -0.5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        moment_bundles((p,), grid)
    # a bad guard is reported before a bad grid
    with pytest.raises(ValueError, match="^max_magnitude must be positive"):
        sample_curve(p, "spont", grid, max_magnitude=0.0)


# ---------------------------------------------------------------------------
# cross-kind identities


def test_loss_loss_shares_match_passive_loss():
    # same gamma means identical renormalized dynamics; only the envelope
    # differs between the two passive kinds.  The magnitudes (1.0, 3.4) give
    # gamma = -1.2 without rounding, matching the passive-loss preset exactly.
    from ptdimer.configurations import DimerRealization

    p_pl = params_for(Kind.PASSIVE_LOSS, -1.2)
    r_ll = DimerRealization(kind=Kind.LOSS_LOSS, nr=1.5, g=1.0, ni1=1.0, ni2=3.4)
    p_ll = effective_params(r_ll)
    assert p_pl.n == p_ll.n
    assert p_pl.beta != p_ll.beta
    zetas = (0.5, 2.0, 6.0)
    s_pl = sample_curve(p_pl, "single", zetas).data["share1"]
    s_ll = sample_curve(p_ll, "single", zetas).data["share1"]
    assert np.allclose(s_pl, s_ll, rtol=0.0, atol=1e-12)
    for zeta in zetas:
        assert np.isclose(
            q_noon(p_pl, zeta),
            q_noon(p_ll, zeta),
            rtol=1e-10,
            atol=1e-12,
        )


def test_equal_loss_pair_decays_with_plain_envelope():
    # equal losses make gamma = 0: photon numbers are the lossless coupler
    # pattern times exp(2 beta zeta)
    from ptdimer.configurations import DimerRealization

    r = DimerRealization(kind=Kind.LOSS_LOSS, nr=1.5, g=1.0, ni1=0.3, ni2=0.3)
    p = effective_params(r)
    assert p.gamma == 0.0 and p.beta == -0.3
    for zeta in (0.5, 1.5, 4.0):
        numbers = single_photon_numbers(p, zeta, port=1)
        env = math.exp(2.0 * p.beta * zeta)
        assert np.isclose(numbers.n1, env * math.cos(zeta) ** 2, rtol=1e-12, atol=1e-15)
        assert np.isclose(numbers.n2, env * math.sin(zeta) ** 2, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# vacuum moment bookkeeping


def test_checked_numbers_is_the_bound_decision():
    # the one bound decision, in the moments' frame: a break gives a NaN pair
    for n1, n2, n12 in [
        (1.0, math.nan, 0.0j),
        (-1.0, 1.0, 0.0j),
        (1.0, 1.0, 2.0 + 0.0j),  # violates the correlation bound
        (1e200, 1e200, 2e200 + 0.0j),  # compared without squares: both would overflow
    ]:
        assert np.isnan(observables._checked_numbers(n1, n2, n12)).all(), (n1, n2, n12)
    # tiny negative rounding clamps to 0
    assert observables._checked_numbers(-1e-13, 1.0, 0.0j) == (0.0, 1.0)
    # the records hold values and check nothing
    assert VacuumMoments(-1.0, 1.0, 0.0j).n1 == -1.0


@pytest.mark.parametrize("zeta", [10.0, 300.0, 1000.0])
def test_degenerate_gain_loss_moments_are_exact_polynomials(zeta):
    # at gamma = -1, beta = 0: V = I + i H t with H nilpotent, so with w1 = 2
    # the moments are polynomials in zeta; the generator must stay exact here
    # although H is defective
    p = params_for(Kind.GAIN_LOSS, -1.0)
    vm = vacuum_moments(p, zeta, max_magnitude=None)
    exact = (
        2.0 * ((1.0 + zeta) ** 3 - 1.0) / 3.0,
        2.0 * zeta**3 / 3.0,
        2j * (zeta**2 / 2.0 + zeta**3 / 3.0),
    )
    for value, want in zip((vm.n1, vm.n2, vm.n12), exact):
        assert abs(value - want) <= 1e-14 * abs(want)


def test_decayed_field_transfer_matches_propagator():
    # far out on a lossy device the stimulated moments conj(V_ip) V_jp decay to
    # about 1e-44; they must keep their relative accuracy, not turn into round-off
    p = params_for(Kind.PASSIVE_LOSS, -0.2)
    grid = np.linspace(0.0, 250.0, 26)
    bundle = moment_bundles((p,), grid)[0]
    for port in (0, 1):  # no pump: the launch moments are the stimulated ones alone
        launched = with_envelope(bundle, launch_moments(bundle, (port,)))
        for zeta, moments in zip(grid, launched):
            u = propagator(p.n, zeta)[:, port]
            want = math.exp(2.0 * p.beta * zeta) * np.outer(u.conj(), u)
            assert np.allclose(moments, want, rtol=1e-8, atol=0.0), (port, zeta)
    curve = sample_curve(p, "single", grid)
    assert curve.gaps == []


# ---------------------------------------------------------------------------
# the batched matrix exponential


def _generator(monkeypatch, kind, gamma, grid):
    """The block generator moment_bundles exponentiates, and the grid it goes with."""
    seen = []
    monkeypatch.setattr(observables, "expm", lambda a, t: seen.append((a[0, 0], t)) or expm(a, t))
    moment_bundles((params_for(kind, gamma),), grid)
    return seen[0]


@pytest.mark.parametrize("magnitude", [0.2, 0.5, 0.98, 1.0, 1.02, 2.0, 4.0])
@pytest.mark.parametrize("kind", [Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE])
def test_expm_matches_scipy_on_moment_generators(monkeypatch, kind, magnitude):
    # every column, relative to its largest entry, zeta <= 300 within range
    p = params_for(kind, -magnitude)
    grid = np.linspace(0.0, 300.0, 31)
    grid = grid[2.0 * (p.beta + abs(p.omega.imag)) * grid < 650.0]
    generator, zetas = _generator(monkeypatch, kind, -magnitude, grid)
    ours = expm(generator, zetas)
    for block, reference in zip(ours, (scipy_expm(zeta * generator) for zeta in zetas)):
        columns = np.abs(reference).max(axis=0)
        assert np.all(np.abs(block - reference) <= 1e-9 * columns)


def test_expm_of_one_matrix_and_of_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert expm(a).shape == (4, 4)
    assert np.allclose(expm(a), scipy_expm(a), rtol=1e-12, atol=1e-12 * np.abs(expm(a)).max())
    assert np.array_equal(expm(a, 0.0), np.eye(4))
    assert np.array_equal(expm(a, np.array([0.0, 1.0]))[0], np.eye(4))
    assert np.array_equal(expm(np.zeros((5, 5), dtype=complex)), np.eye(5))
    zero_on_grid = expm(np.zeros((3, 3)), np.array([0.0, 1.0, 1e8]))
    assert np.array_equal(zero_on_grid, np.array([np.eye(3)] * 3))
    stack = np.array([np.zeros((3, 3)), np.ones((3, 3)), np.zeros((3, 3))])
    assert np.array_equal(expm(stack)[[0, 2]], np.array([np.eye(3), np.eye(3)]))
    for bad in (math.nan, math.inf):
        with pytest.raises(OverflowError):
            expm(np.full((2, 2), bad))
        with pytest.raises(OverflowError):
            expm(a, np.array([1.0, bad]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_grid_point_equals_point_alone(dtype):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=(5, 5))
    grid = np.linspace(0.0, 300.0, 301)
    on_grid = expm(a, grid)
    assert on_grid.shape == (301, 5, 5) and on_grid.dtype == a.dtype
    for zeta, block in zip(grid, on_grid):
        assert np.array_equal(block, expm(a, zeta))
    for zeta in (0.3, 2.0):
        reference = scipy_expm(zeta * a)
        assert np.abs(expm(a, zeta) - reference).max() <= 1e-13 * np.abs(reference).max()


def test_expm_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(60, 2, 2)) + 1j * rng.normal(size=(60, 2, 2))
    stack[7] = 0.0
    ts = rng.uniform(0.05, 2.5, size=60)
    ts[3] = 0.0
    together = expm(stack, ts)
    for a, t, block in zip(stack, ts, together):
        assert np.array_equal(block, expm(a, t))
    # a (k, 1, n, n) stack broadcast against an m-point grid: every matrix on every point
    grid = np.array([0.0, 0.05, 1.3, 2.5, 40.0])
    on_grid = expm(stack[:, None], grid)
    assert on_grid.shape == (60, 5, 2, 2)
    for a, blocks in zip(stack, on_grid):
        assert np.array_equal(blocks, expm(a, grid))


def test_expm_interleaved_squaring_counts_equal_per_point_calls():
    # generators of 1-norm 2, 38 and 2.2 (the last complex, so the stack is complex) on an
    # unsorted grid with 0: squaring counts 0 .. 11, interleaved across the flattened stack
    devices = [effective_params(realization_for_gamma(Kind.GAIN_GAIN, g)) for g in (0.2, 4.0)]
    devices.append(EffectiveParams(complex(0.3, -0.25), complex(1.6, -0.65)))
    stack = np.array([observables._van_loan_generator(params)[0] for params in devices])
    grid = np.array([37.0, 0.0, 300.0, 0.4, 5.5, 120.0, 1.0, 0.05, 64.0, 12.0, 250.0, 2.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = expm(stack[:, None], grid)
        for a, blocks in zip(stack, together):
            for t, block in zip(grid, blocks):
                assert np.array_equal(block, expm(a, t))
    assert np.array_equal(together[:, 1], np.broadcast_to(np.eye(5), (3, 5, 5)))


def test_expm_of_norm_1e12_stays_finite():
    # (nearly) nilpotent: vanishing powers must not let x^30 / 30! overflow
    nilpotent = np.array([[0.0, 1e12], [0.0, 0.0]])
    assert np.array_equal(expm(nilpotent), np.eye(2) + nilpotent)
    # upper triangular: exp has e^{lambda} on the diagonal, 1e12 (e^0 - e^{-1e-3}) / 1e-3 above
    a = np.array([[0.0, 1e12], [0.0, -1e-3]])
    want = np.array([[1.0, -1e15 * math.expm1(-1e-3)], [0.0, math.exp(-1e-3)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(expm(a), want, rtol=1e-12, atol=0.0)
        # the powers of this one itself pass the float range from the 26th on
        assert np.array_equal(expm(a - 1e12 * np.eye(2)), np.zeros((2, 2)))


def test_expm_past_the_float_range_raises_overflow_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            expm(np.full((2, 2), 1e308))  # its 1-norm, 2e308, is already inf


# Imaginary parts (Im n1, Im n2) of devices with detuned guides
_OFF_AXIS_PATTERNS = {
    "gain-gain": (-0.4, -0.9),
    "gain-loss": (-0.6, 0.6),
    "loss-gain": (0.5, -0.5),
    "pumped-net-loss": (-0.3, 0.7),  # c < 0 with a pump: moments settle
    "loss-loss": (0.3, 0.8),
}


@pytest.mark.parametrize("imag", _OFF_AXIS_PATTERNS.values(), ids=_OFF_AXIS_PATTERNS.keys())
def test_detuned_guides_match_the_moment_oracle(imag):
    # Re n != 0 takes moment_bundles' complex-generator branch, which no preset reaches
    launches = ((), (0,), (1,), (0, 1))
    initial = np.array([np.diag([p.count(0), p.count(1)]) for p in launches])
    marks = (1.0, 5.0, 20.0)
    for nr2 in (1.3, 1.9, 1.7, 1.2, 1.1):
        n1, n2, g = complex(1.5, imag[0]), complex(nr2, imag[1]), 1.0
        dp = DriftAndPump(
            m=np.array([[n1 / g, 1.0], [1.0, n2 / g]]),
            d=np.diag([2.0 * max(0.0, -n1.imag) / g, 2.0 * max(0.0, -n2.imag) / g]),
        )
        device = EffectiveParams((n1 - n2) / (2 * g), (n1 + n2) / (2 * g))
        bundle = moment_bundles((device,), marks)[0]
        assert bundle.products.dtype == np.complex128
        oracle = np.stack(integrate_moments_path(initial, dp, marks, step=4e-4), axis=1)
        for ports, path in zip(launches, oracle):
            ours = with_envelope(bundle, launch_moments(bundle, ports))
            for mine, reference in zip(ours, path):
                scale = np.abs(reference).max()
                assert np.abs(mine - reference).max() <= 1e-7 * scale, (nr2, ports)


@pytest.mark.parametrize("kind", [Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE])
def test_expm_matches_mpmath_on_moment_generators(monkeypatch, kind):
    # the columns the moments come from, relative to their largest entry, to 40 digits
    mpmath = pytest.importorskip("mpmath")
    grid = np.array([1.0, 10.0, 100.0, 1000.0])
    for magnitude in (0.2, 0.99, 1.0, 1.01, 4.0):
        generator, zetas = _generator(monkeypatch, kind, -magnitude, grid)
        exact = mpmath.matrix(generator.tolist())
        for zeta, block in zip(zetas, expm(generator, zetas)):
            with mpmath.workdps(40):
                reference = np.array(mpmath.expm(exact * zeta).tolist(), dtype=complex)
            for column in (0, 4):
                error = np.abs(block[:, column] - reference[:, column]).max()
                scale = np.abs(reference[:, column]).max()
                assert error <= 5e-12 * scale, (magnitude, zeta, column)


def _bundle_and_stack(p, grid):
    """One device's bundle on a grid, and the block generator it hands to expm."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "expm", lambda a, t: seen.append(a[0, 0]) or expm(a, t))
        bundle = moment_bundles((p,), grid)[0]
    return bundle, seen[0]


@given(
    st.sampled_from(list(Kind)),
    st.floats(0.2, 4.0) | st.sampled_from([0.99, 1.0, 1.01]),
    st.booleans(),
    st.floats(0.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_real_generator_matches_complex_twin(kind, magnitude, positive, zeta):
    # n = 1e-300 + i gamma has the same physics but a complex Omega^2, so it
    # takes the complex path through expm
    two_signed = kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS)
    p = params_for(kind, magnitude if positive and two_signed else -magnitude)
    assume(2.0 * (p.beta + abs(p.omega.imag)) * zeta < 650.0)
    twin = EffectiveParams(complex(1e-300, p.gamma), p.n0)
    real, real_stack = _bundle_and_stack(p, np.array([zeta]))
    cplx, cplx_stack = _bundle_and_stack(twin, np.array([zeta]))
    assert real_stack.dtype == np.float64 and cplx_stack.dtype == np.complex128
    pairs = [(real.products, cplx.products)]
    pairs += [(launch_moments(real, ports), launch_moments(cplx, ports)) for ports in ((), (0,), (1,))]
    for ours, reference in pairs:
        assert np.abs(ours - reference).max() <= 1e-12 * np.abs(reference).max()


def test_moment_bundles_equal_one_device_bundles_bitwise():
    # one imaginary-n device of every kind (a real stack) and a detuned one (a complex
    # stack) in between: each row is its device's own bundle, field by field and in
    # order; the products take the stack's common dtype, so a real device's are equal
    # in value there
    devices = [params_for(kind, -0.5) for kind in Kind]
    devices.insert(2, EffectiveParams(0.3 - 0.5j, 0.2j))
    grid = np.array([0.0, 0.5, 1.7, 20.0])
    bundles = moment_bundles(devices, grid)
    assert len(bundles) == len(devices)
    for params, bundle in zip(devices, bundles):
        (alone,) = moment_bundles((params,), grid)
        for field in dataclasses.fields(alone):
            mine, reference = getattr(bundle, field.name), getattr(alone, field.name)
            assert np.array_equal(mine, reference), field.name
            assert field.name == "products" or mine.dtype == reference.dtype, field.name
    assert bundles.products.dtype == np.complex128


def test_moment_bundles_reject_an_empty_stack_and_index_only_stacks():
    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="at least one device"):
        moment_bundles((), grid)
    (alone,) = moment_bundles((params_for(Kind.GAIN_LOSS, -0.5),), grid)
    with pytest.raises(TypeError, match="only a stack"):
        alone[0]


def test_stacked_columns_equal_stacks_of_one_bitwise():
    # launch_moments and _curve_columns broadcast over the device axis: each row of a
    # stack's result is that device's stack-of-one result, byte for byte, gaps included
    devices = [params_for(kind, -1.2) for kind in Kind] + [params_for(Kind.GAIN_GAIN, 3.0)]
    grid = np.array([0.0, 0.5, 3.0, 40.0, 300.0])  # 0/0 ratios, the guard, the float range
    stack = moment_bundles(devices, grid)
    raw_ok = stack.log_envelope <= math.log(GROWTH_GUARD_MAX)
    launches = ((), (0,), (1,), (0, 1))
    stacked = [launch_moments(stack, ports) for ports in launches]
    curves = {name: observables._curve_columns(stack, name, raw_ok) for name in CURVE_COLUMNS}
    for i, params in enumerate(devices):
        (alone,) = moment_bundles((params,), grid)
        for ports, moments in zip(launches, stacked):
            assert moments[i].tobytes() == launch_moments(alone, ports).tobytes(), (i, ports)
        for name, (columns, bounded) in curves.items():
            own, own_bounded = observables._curve_columns(alone, name, raw_ok[i])
            assert bounded[i].tobytes() == own_bounded.tobytes(), (i, name)
            for column, values in own.items():
                assert columns[column][i].tobytes() == values.tobytes(), (i, name, column)


def test_presets_exponentiate_real_stacks(tmp_path, monkeypatch):
    dtypes = []
    monkeypatch.setattr(observables, "expm", lambda a, t: dtypes.append(a.dtype) or expm(a, t))
    for figure in cli.FIGURES:
        assert cli.main(["figure", figure, "--out", str(tmp_path), "--steps", "3"]) == 0
    sweep = ["sweep", "--nr", "1.7", "--g", "0.3", "--out", str(tmp_path / "s.csv")]
    for kind in Kind:
        assert cli.main(sweep + ["--kind", kind.value, "--gamma", "1.2", "--steps", "3"]) == 0
    assert len(dtypes) == 42 + len(Kind)
    assert set(dtypes) == {np.dtype(np.float64)}


@given(
    st.sampled_from(list(Kind)),
    st.floats(0.0, 4.0, exclude_min=True),
    st.booleans(),
    st.floats(0.0, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_ratios_keep_their_bounds_at_any_distance(kind, magnitude, positive, zeta):
    two_signed = kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS)
    p = params_for(kind, magnitude if positive and two_signed else -magnitude)
    grid = np.array([zeta, 1e3]) if zeta < 1e3 else np.array([1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        every = sample_curve(p, "all", grid)
        single = sample_curve(p, "single", grid)
    q00 = every.data["q00"]
    q00 = q00[~np.isnan(q00)]  # no spontaneous field at all, or at zeta = 0
    assert np.all((q00 >= -1e-12) & (q00 <= 1.0 + 1e-12))
    assert np.all(every.data["q2002"] >= -1.0)
    gain = kind in (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE)
    assert not np.isnan(single.data["share1"]).any()  # the launched photon is always there
    for curve in (every, single) if gain else (single,):
        share1, share2 = curve.data["share1"], curve.data["share2"]
        defined = ~np.isnan(share1)  # the spontaneous shares are 0/0 at zeta = 0
        assert np.all(share1[defined] + share2[defined] == 1.0)
        if gain and magnitude >= 1.1:
            # the larger share belongs to guide 1 when gamma < 0
            small, large = asymptotic_shares(p.gamma)
            far = (large, small) if p.gamma < 0.0 else (small, large)
            assert np.allclose((share1[-1], share2[-1]), far, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("kind", list(Kind))
def test_far_grids_evaluate_up_to_max_zeta(kind):
    # the phase Omega zeta keeps about 8 digits at MAX_ZETA: no point may raise
    # or warn, whatever the kind, observable or inversion
    grid = np.geomspace(1.0, MAX_ZETA, 33)
    magnitudes = (0.05, 0.2, 0.5, 0.9, 0.99, 1.0, 1.01, 1.2, 2.0, 4.0)
    signs = (-1.0, 1.0) if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else (-1.0,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (sign * magnitude for magnitude in magnitudes for sign in signs):
            p = params_for(kind, gamma)
            for observable in CURVE_COLUMNS:
                curve = sample_curve(p, observable, grid)
                if observable in ("single", "noon_n"):  # launched photons are always there
                    assert not np.isnan(curve.data["share1"]).any()


def test_distances_past_max_zeta_are_rejected():
    p = params_for(Kind.PASSIVE_LOSS, -0.5)
    for far in (np.nextafter(MAX_ZETA, math.inf), 1e20, 1e50, math.inf):
        with pytest.raises(ValueError, match="MAX_ZETA"):
            sample_curve(p, "single", np.array([1.0, far]))
        for point in (vacuum_moments, single_photon_numbers, noon_photon_numbers, noon_two_point):
            with pytest.raises(ValueError, match="MAX_ZETA"):
                point(p, far)
        for ratio in (q_vacuum, q_noon):
            with pytest.raises(ValueError, match="MAX_ZETA"):
                ratio(params_for(Kind.GAIN_LOSS, -0.5), far)
    assert math.isfinite(noon_two_point(p, MAX_ZETA))


def test_noon_two_point_past_the_range_leaks_no_warning():
    # the frame coincidence moment itself overflows here: a range gap, raised without a
    # RuntimeWarning (which pytest turns into an error)
    realization = preset_realization(
        Kind.GAIN_PASSIVE, 644953992.748116, nr=1.8132626249841064e-07, g=57.106047247971134
    )
    p = effective_params(realization)
    with pytest.raises(OverflowError, match="floating-point range at zeta=48430562.32489085$"):
        noon_two_point(p, 48430562.32489085, max_magnitude=None)


def test_curve_keeps_a_read_only_copy_of_the_grid():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    grid = np.linspace(0.1, 1.0, 4)
    curve = sample_curve(p, "spont", grid)
    grid[0] = 99.0
    assert curve.zetas is not grid and curve.zetas[0] == 0.1
    with pytest.raises(ValueError):
        curve.zetas[0] = 1.0


def test_raw_values_past_the_float_range():
    # gain-gain gamma 3 grows like e^{17.7 zeta}: raw numbers pass 1e308 near zeta 40
    p = params_for(Kind.GAIN_GAIN, 3.0)
    for raw in (vacuum_moments, single_photon_numbers, noon_photon_numbers, noon_two_point):
        with pytest.raises(OverflowError, match="floating-point range at zeta=300.0$"):
            raw(p, 300.0, max_magnitude=None)
    with pytest.raises(OverflowError):  # a two-point moment carries the envelope twice
        noon_two_point(p, 30.0, max_magnitude=None)
    assert math.isfinite(noon_photon_numbers(p, 30.0, max_magnitude=None).n1)
    grid = np.array([1.0, 300.0])
    curve = sample_curve(p, "all", grid, max_magnitude=None)
    assert curve.gaps == [(1, 2, "raw photon numbers leave the floating-point range at zeta=300.0")]
    for name in curve.data:
        assert math.isfinite(curve.data[name][0])
        assert math.isnan(curve.data[name][1]) == (name in ("n1", "n2", "n12_re", "n12_im"))


def test_curve_columns_are_read_only():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    curve = sample_curve(p, "all", np.linspace(0.1, 2.0, 5))
    for name in curve.data:
        with pytest.raises(ValueError):
            curve.data[name][0] = 1.0


@given(st.floats(-1.15, 1.15).filter(lambda g: abs(g) > 0.05), st.floats(0.1, 6.0))
@settings(max_examples=60, deadline=None)
def test_vacuum_moments_satisfy_correlation_bound(gamma, zeta):
    kind = Kind.GAIN_GAIN
    p = params_for(kind, gamma)
    vm = vacuum_moments(p, zeta, max_magnitude=None)
    assert abs(vm.n12) ** 2 <= vm.n1 * vm.n2 * (1.0 + 1e-9) + 1e-9
