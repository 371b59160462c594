"""Tests for photon-statistics observables against frozen oracle values.

The frozen numbers below were produced by the independent moment integrator
(`ptdimer.moments`) at step 1e-4, where its truncation error sits far below
the tolerances used here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ptdimer import cli, observables
from ptdimer.configurations import Kind, effective_params, realization_for_gamma
from ptdimer.core import EffectiveParams, expm, propagator
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
    moment_bundle,
    noon_photon_numbers,
    noon_two_point,
    q_noon,
    q_vacuum,
    renormalize,
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
    assert vacuum_pump_weights(params_for(Kind.GAIN_LOSS, -0.5), Kind.GAIN_LOSS) == (
        1.0,
        0.0,
    )
    w = vacuum_pump_weights(params_for(Kind.GAIN_GAIN, -0.5), Kind.GAIN_GAIN)
    assert np.allclose(w, (3.0, 1.0), rtol=1e-15)  # beta = 1.0 for this preset
    w = vacuum_pump_weights(params_for(Kind.GAIN_PASSIVE, -0.5), Kind.GAIN_PASSIVE)
    assert np.allclose(w, (2.0, 0.0), rtol=1e-15)
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        assert vacuum_pump_weights(params_for(kind, -0.5), kind) == (0.0, 0.0)


def test_pump_weights_reject_mismatched_kind():
    # gain-loss parameters presented as gain-gain imply a negative pump
    with pytest.raises(ValueError):
        vacuum_pump_weights(params_for(Kind.GAIN_GAIN, 0.5), Kind.GAIN_LOSS)


# ---------------------------------------------------------------------------
# spontaneous generation vs the frozen oracle


def test_gain_loss_vacuum_matches_oracle():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    vm = vacuum_moments(p, Kind.GAIN_LOSS, 1.0)
    n1, n2, n12_im = GAIN_LOSS_VACUUM_Z1
    assert np.isclose(vm.n1, n1, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n2, n2, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n12.imag, n12_im, rtol=ORACLE_RTOL)
    assert abs(vm.n12.real) < 1e-15


def test_gain_gain_vacuum_matches_oracle():
    p = params_for(Kind.GAIN_GAIN, -0.5)
    vm = vacuum_moments(p, Kind.GAIN_GAIN, 0.8)
    n1, n2, n12_im = GAIN_GAIN_VACUUM_Z08
    assert np.isclose(vm.n1, n1, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n2, n2, rtol=ORACLE_RTOL)
    assert np.isclose(vm.n12.imag, n12_im, rtol=ORACLE_RTOL)


def test_gain_passive_single_photon_matches_oracle():
    p = params_for(Kind.GAIN_PASSIVE, -0.5)
    numbers = single_photon_numbers(p, Kind.GAIN_PASSIVE, 1.3, 1)
    assert np.isclose(numbers.n1, GAIN_PASSIVE_ONE_Z13[0], rtol=ORACLE_RTOL)
    assert np.isclose(numbers.n2, GAIN_PASSIVE_ONE_Z13[1], rtol=ORACLE_RTOL)


def test_passive_loss_single_photon_matches_oracle():
    p = params_for(Kind.PASSIVE_LOSS, -0.5)
    numbers = single_photon_numbers(p, Kind.PASSIVE_LOSS, 2.0, 1)
    assert np.isclose(numbers.n1, PASSIVE_LOSS_ONE_Z2[0], rtol=ORACLE_RTOL)
    assert np.isclose(numbers.n2, PASSIVE_LOSS_ONE_Z2[1], rtol=ORACLE_RTOL)


def test_passive_kinds_generate_nothing():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        vm = vacuum_moments(params_for(kind, -0.8), kind, 4.0)
        assert vm == VacuumMoments(0.0, 0.0, 0.0j)


def test_vacuum_moments_zero_distance():
    vm = vacuum_moments(params_for(Kind.GAIN_LOSS, -0.5), Kind.GAIN_LOSS, 0.0)
    assert (vm.n1, vm.n2, vm.n12) == (0.0, 0.0, 0.0j)


def test_gain_passive_equals_gain_gain_weight_limit():
    # a gain-passive device is the ni2 -> 0 limit of gain-gain; the pump
    # weights (2 beta - 2 gamma, 0) then coincide with (-4 gamma, 0)
    p = params_for(Kind.GAIN_PASSIVE, -0.5)
    vm_gp = vacuum_moments(p, Kind.GAIN_PASSIVE, 2.0)
    vm_gg = vacuum_moments(p, Kind.GAIN_GAIN, 2.0)
    assert np.isclose(vm_gp.n1, vm_gg.n1, rtol=1e-12)
    assert np.isclose(vm_gp.n2, vm_gg.n2, rtol=1e-12)
    assert np.isclose(abs(vm_gp.n12 - vm_gg.n12), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# single photon and two-photon inputs


def test_single_photon_launch_values():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert single_photon_numbers(p, Kind.GAIN_LOSS, 0.0, 1) == PhotonNumbers(1.0, 0.0)
    assert single_photon_numbers(p, Kind.GAIN_LOSS, 0.0, 2) == PhotonNumbers(0.0, 1.0)
    with pytest.raises(ValueError):
        single_photon_numbers(p, Kind.GAIN_LOSS, 1.0, 3)


def test_noon_launch_values():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert noon_photon_numbers(p, Kind.GAIN_LOSS, 0.0) == PhotonNumbers(1.0, 1.0)
    assert noon_two_point(p, Kind.GAIN_LOSS, 0.0) == 0.0
    assert q_noon(p, Kind.GAIN_LOSS, 0.0) == -1.0


def test_noon_numbers_are_sum_of_port_injections_plus_vacuum():
    p = params_for(Kind.GAIN_GAIN, 0.5)
    zeta = 1.1
    noon = noon_photon_numbers(p, Kind.GAIN_GAIN, zeta)
    one = single_photon_numbers(p, Kind.GAIN_GAIN, zeta, 1)
    two = single_photon_numbers(p, Kind.GAIN_GAIN, zeta, 2)
    vm = vacuum_moments(p, Kind.GAIN_GAIN, zeta)
    assert np.isclose(noon.n1, one.n1 + two.n1 - vm.n1, rtol=1e-12)
    assert np.isclose(noon.n2, one.n2 + two.n2 - vm.n2, rtol=1e-12)


def test_lossless_noon_two_point_interference():
    # for a lossless coupler the two stimulated paths interfere exactly:
    # n1212 = |U11 U21 + U12 U22|^2 = 4 sin^2 cos^2
    p = EffectiveParams.from_detuning(0.0j, 1.5 + 0.0j)
    for zeta in (0.3, 0.7, 2.0):
        value = noon_two_point(p, Kind.GAIN_LOSS, zeta)
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
    vm = vacuum_moments(p, kind, zeta, max_magnitude=None)
    terms = (
        abs((v @ v.T)[0, 1]) ** 2,
        vm.n1 * vm.n2,
        abs(vm.n12) ** 2,
        vm.n1 * s[1, 1].real,
        vm.n2 * s[0, 0].real,
        2.0 * (vm.n12 * s[1, 0]).real,
    )
    value = noon_two_point(p, kind, zeta, max_magnitude=None)
    # subnormal values carry no relative accuracy: allow the smallest normal float
    assert abs(value - sum(terms)) <= 1e-10 * max(map(abs, terms)) + np.finfo(float).tiny


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
            q = q_vacuum(p, kind, zeta)
            assert -1e-12 <= q <= 1.0 + 1e-9


def test_q_vacuum_undefined_for_passive_or_zero():
    with pytest.raises(NoSpontaneousFieldError):
        q_vacuum(params_for(Kind.PASSIVE_LOSS, -0.5), Kind.PASSIVE_LOSS, 1.0)
    with pytest.raises(NoSpontaneousFieldError):
        q_vacuum(params_for(Kind.GAIN_LOSS, -0.5), Kind.GAIN_LOSS, 0.0)


def test_q_noon_crosses_into_bunching_for_gain_loss():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    assert q_noon(p, Kind.GAIN_LOSS, 0.05) < 0.0
    assert q_noon(p, Kind.GAIN_LOSS, 3.0) > 0.0


def test_q_noon_stays_defined_or_gapped_deep_in_decay():
    # from zeta ~ 200 on the raw loss-loss moments sink into the subnormal
    # range; the ratio, formed with the envelope divided out, stays defined
    p = params_for(Kind.LOSS_LOSS, -0.9)
    curve = sample_curve(p, Kind.LOSS_LOSS, "q2002", np.linspace(0.05, 1000.0, 300))
    q = curve.column("q2002")
    assert np.all(q >= -1.0)
    # 60-digit mpmath from U = cos(Omega zeta) I + i sin(Omega zeta) H / Omega
    assert np.isclose(q[-1], -0.78061757778508866, rtol=1e-10, atol=0.0)


def test_q_noon_stays_nonpositive_for_passive_kinds():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        p = params_for(kind, -0.5)
        for zeta in np.linspace(0.0, 8.0, 30):
            assert q_noon(p, kind, float(zeta)) <= 1e-12


# ---------------------------------------------------------------------------
# renormalized shares


def test_renormalize_sums_to_one():
    s1, s2 = renormalize(PhotonNumbers(3.0, 1.0))
    assert s1 + s2 == 1.0
    assert np.isclose(s1, 0.75, rtol=1e-15)
    with pytest.raises(ValueError):
        renormalize(PhotonNumbers(0.0, 0.0))


def test_asymptotic_shares_frozen_values():
    shares = asymptotic_shares(1.2)
    assert np.allclose(shares, ASYMPTOTIC_SHARES_12, rtol=1e-15, atol=0.0)
    assert asymptotic_shares(-1.2) == shares  # sign-blind magnitude
    assert asymptotic_shares(1.0) == (0.5, 0.5)
    with pytest.raises(ValueError):
        asymptotic_shares(0.99)


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
        single_photon_numbers(p, Kind.GAIN_GAIN, 20.0)
    with pytest.raises(GrowthGuardError):
        vacuum_moments(p, Kind.GAIN_GAIN, 20.0)
    # ratios remain available far beyond the guard
    q = q_vacuum(p, Kind.GAIN_GAIN, 20.0)
    assert 0.0 <= q <= 1.0 + 1e-9
    # and the guard can be lifted explicitly
    numbers = single_photon_numbers(p, Kind.GAIN_GAIN, 20.0, max_magnitude=None)
    assert numbers.n1 > GROWTH_GUARD_MAX


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_growth_guard_rejects_invalid_max_magnitude(bad):
    # the single-point functions and sample_curve share one check
    p = params_for(Kind.GAIN_LOSS, -0.5)
    with pytest.raises(ValueError, match=f"max_magnitude .* got {bad!r}"):
        vacuum_moments(p, Kind.GAIN_LOSS, 1.0, max_magnitude=bad)
    with pytest.raises(ValueError, match=f"max_magnitude .* got {bad!r}"):
        sample_curve(p, Kind.GAIN_LOSS, "spont", np.array([0.5, 1.0]), max_magnitude=bad)
    # an infinite guard is a lifted guard
    assert vacuum_moments(p, Kind.GAIN_LOSS, 1.0, max_magnitude=math.inf).n1 > 0.0


def test_growth_guard_inactive_for_bounded_devices():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    numbers = single_photon_numbers(p, Kind.GAIN_LOSS, 50.0)
    assert math.isfinite(numbers.n1)


# ---------------------------------------------------------------------------
# curve sampling


def test_sample_curve_columns_and_determinism():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    grid = np.linspace(0.1, 5.0, 40)
    a = sample_curve(p, Kind.GAIN_LOSS, "all", grid)
    b = sample_curve(p, Kind.GAIN_LOSS, "all", grid)
    assert a.columns == CURVE_COLUMNS["all"]
    assert a.gaps == [] and b.gaps == []
    for col in a.columns:
        assert np.array_equal(a.column(col), b.column(col))


def test_sample_curve_flags_guarded_points():
    p = params_for(Kind.GAIN_GAIN, 1.2)
    grid = np.array([0.5, 20.0])
    curve = sample_curve(p, Kind.GAIN_GAIN, "single", grid)
    assert math.isfinite(curve.column("n1")[0])
    assert math.isnan(curve.column("n1")[1])  # beyond the growth guard
    assert math.isfinite(curve.column("share1")[1])  # ratio still defined
    assert any(index == 1 for index, _ in curve.gaps)


def test_sample_curve_passive_spont_is_all_gaps():
    p = params_for(Kind.LOSS_LOSS, -0.5)
    curve = sample_curve(p, Kind.LOSS_LOSS, "spont", np.array([1.0, 2.0]))
    assert all(math.isnan(v) for v in curve.column("share1"))
    assert len(curve.gaps) == 2


@pytest.mark.parametrize("observable", ["spont", "q00", "q2002"])
@pytest.mark.parametrize("kind", list(Kind))
def test_sample_curve_point_equals_point_alone(kind, observable):
    # the promise of sample_curve: a grid point does not depend on the rest
    # of the grid, down to the last bit
    gamma = 1.2 if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else -1.2
    p = params_for(kind, gamma)
    grid = np.linspace(0.05, 10.0, 37)
    curve = sample_curve(p, kind, observable, grid, max_magnitude=None)
    for index in (0, 11, 36):
        alone = sample_curve(p, kind, observable, grid[index : index + 1], max_magnitude=None)
        for name in curve.columns:
            on_grid = np.float64(curve.column(name)[index])
            assert on_grid.tobytes() == np.float64(alone.column(name)[0]).tobytes()


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
    sample_curve(p, Kind.GAIN_LOSS, observable, np.linspace(0.1, 2.0, 5))
    assert sorted(seen) == launches


def test_sample_curve_rejects_bad_grid():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    with pytest.raises(ValueError):
        sample_curve(p, Kind.GAIN_LOSS, "spont", np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        sample_curve(p, Kind.GAIN_LOSS, "nope", np.array([1.0, 2.0]))


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
    for zeta in (0.5, 2.0, 6.0):
        s_pl = renormalize(single_photon_numbers(p_pl, Kind.PASSIVE_LOSS, zeta, 1))
        s_ll = renormalize(single_photon_numbers(p_ll, Kind.LOSS_LOSS, zeta, 1))
        assert np.allclose(s_pl, s_ll, rtol=0.0, atol=1e-12)
        assert np.isclose(
            q_noon(p_pl, Kind.PASSIVE_LOSS, zeta),
            q_noon(p_ll, Kind.LOSS_LOSS, zeta),
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
        numbers = single_photon_numbers(p, Kind.LOSS_LOSS, zeta, 1)
        env = math.exp(2.0 * p.beta * zeta)
        assert np.isclose(numbers.n1, env * math.cos(zeta) ** 2, rtol=1e-12, atol=1e-15)
        assert np.isclose(numbers.n2, env * math.sin(zeta) ** 2, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# vacuum moment bookkeeping


def test_vacuum_moments_validation():
    with pytest.raises(ValueError):
        VacuumMoments(1.0, math.nan, 0.0j)
    with pytest.raises(ValueError):
        VacuumMoments(-1.0, 1.0, 0.0j)
    with pytest.raises(ValueError):
        VacuumMoments(1.0, 1.0, 2.0 + 0.0j)  # violates the correlation bound
    with pytest.raises(ValueError):
        VacuumMoments(1e200, 1e200, 2e200)  # |n12|^2 and n1 n2 both overflow
    vm = VacuumMoments(-1e-13, 1.0, 0.0j)  # tiny negative rounding clamps to 0
    assert vm.n1 == 0.0


@pytest.mark.parametrize("zeta", [10.0, 300.0, 1000.0])
def test_degenerate_gain_loss_moments_are_exact_polynomials(zeta):
    # at gamma = -1, beta = 0: V = I + i H t with H nilpotent, so with w1 = 2
    # the moments are polynomials in zeta; the generator must stay exact here
    # although H is defective
    p = params_for(Kind.GAIN_LOSS, -1.0)
    vm = vacuum_moments(p, Kind.GAIN_LOSS, zeta, max_magnitude=None)
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
    bundle = moment_bundle(p, Kind.PASSIVE_LOSS, grid)
    for port in (0, 1):  # no pump: the launch moments are the stimulated ones alone
        launched = with_envelope(bundle, launch_moments(bundle, (port,)))
        for zeta, moments in zip(grid, launched):
            u = propagator(p.n, zeta)[:, port]
            want = math.exp(2.0 * p.beta * zeta) * np.outer(u.conj(), u)
            assert np.allclose(moments, want, rtol=1e-8, atol=0.0), (port, zeta)
    curve = sample_curve(p, Kind.PASSIVE_LOSS, "single", grid)
    assert curve.gaps == []


# ---------------------------------------------------------------------------
# the batched matrix exponential


def _generator(monkeypatch, kind, gamma, grid):
    """The block generator moment_bundle exponentiates, and the grid it goes with."""
    seen = []
    monkeypatch.setattr(observables, "expm", lambda a, t: seen.append((a, t)) or expm(a, t))
    moment_bundle(params_for(kind, gamma), kind, grid)
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


def _bundle_and_stack(p, kind, grid):
    """moment_bundle on a grid, and the block generator it hands to expm."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "expm", lambda a, t: seen.append(a) or expm(a, t))
        bundle = moment_bundle(p, kind, grid)
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
    twin = EffectiveParams.from_detuning(complex(1e-300, p.gamma), p.n0)
    real, real_stack = _bundle_and_stack(p, kind, np.array([zeta]))
    cplx, cplx_stack = _bundle_and_stack(twin, kind, np.array([zeta]))
    assert real_stack.dtype == np.float64 and cplx_stack.dtype == np.complex128
    pairs = [(real.products, cplx.products)]
    pairs += [(launch_moments(real, ports), launch_moments(cplx, ports)) for ports in ((), (0,), (1,))]
    for ours, reference in pairs:
        assert np.abs(ours - reference).max() <= 1e-12 * np.abs(reference).max()


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
        every = sample_curve(p, kind, "all", grid)
        single = sample_curve(p, kind, "single", grid)
    q00 = every.column("q00")
    q00 = q00[~np.isnan(q00)]  # no spontaneous field at all, or at zeta = 0
    assert np.all((q00 >= -1e-12) & (q00 <= 1.0 + 1e-12))
    assert np.all(every.column("q2002") >= -1.0)
    gain = kind in (Kind.GAIN_LOSS, Kind.GAIN_GAIN, Kind.GAIN_PASSIVE)
    assert not np.isnan(single.column("share1")).any()  # the launched photon is always there
    for curve in (every, single) if gain else (single,):
        share1, share2 = curve.column("share1"), curve.column("share2")
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
                curve = sample_curve(p, kind, observable, grid)
                if observable in ("single", "noon_n"):  # launched photons are always there
                    assert not np.isnan(curve.column("share1")).any()


def test_distances_past_max_zeta_are_rejected():
    p = params_for(Kind.PASSIVE_LOSS, -0.5)
    for far in (np.nextafter(MAX_ZETA, math.inf), 1e20, 1e50, math.inf):
        with pytest.raises(ValueError, match="MAX_ZETA"):
            sample_curve(p, Kind.PASSIVE_LOSS, "single", np.array([1.0, far]))
        for point in (vacuum_moments, single_photon_numbers, noon_photon_numbers, noon_two_point):
            with pytest.raises(ValueError, match="MAX_ZETA"):
                point(p, Kind.PASSIVE_LOSS, far)
        for ratio in (q_vacuum, q_noon):
            with pytest.raises(ValueError, match="MAX_ZETA"):
                ratio(params_for(Kind.GAIN_LOSS, -0.5), Kind.GAIN_LOSS, far)
    assert math.isfinite(noon_two_point(p, Kind.PASSIVE_LOSS, MAX_ZETA))


def test_curve_keeps_a_read_only_copy_of_the_grid():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    grid = np.linspace(0.1, 1.0, 4)
    curve = sample_curve(p, Kind.GAIN_LOSS, "spont", grid)
    grid[0] = 99.0
    assert curve.zetas is not grid and curve.zetas[0] == 0.1
    with pytest.raises(ValueError):
        curve.zetas[0] = 1.0


def test_raw_values_past_the_float_range():
    # gain-gain gamma 3 grows like e^{17.7 zeta}: raw numbers pass 1e308 near zeta 40
    p = params_for(Kind.GAIN_GAIN, 3.0)
    for raw in (vacuum_moments, single_photon_numbers, noon_photon_numbers, noon_two_point):
        with pytest.raises(OverflowError, match="zeta=300$"):
            raw(p, Kind.GAIN_GAIN, 300.0, max_magnitude=None)
    with pytest.raises(OverflowError):  # a two-point moment carries the envelope twice
        noon_two_point(p, Kind.GAIN_GAIN, 30.0, max_magnitude=None)
    assert math.isfinite(noon_photon_numbers(p, Kind.GAIN_GAIN, 30.0, max_magnitude=None).n1)
    grid = np.array([1.0, 300.0])
    curve = sample_curve(p, Kind.GAIN_GAIN, "all", grid, max_magnitude=None)
    assert curve.gaps == [(1, "raw photon numbers leave the floating-point range at zeta=300.0")]
    for name in curve.columns:
        assert math.isfinite(curve.column(name)[0])
        assert math.isnan(curve.column(name)[1]) == (name in ("n1", "n2", "n12_re", "n12_im"))


def test_curve_columns_are_read_only():
    p = params_for(Kind.GAIN_LOSS, -0.5)
    curve = sample_curve(p, Kind.GAIN_LOSS, "all", np.linspace(0.1, 2.0, 5))
    for name in curve.columns:
        with pytest.raises(ValueError):
            curve.column(name)[0] = 1.0


@given(st.floats(-1.15, 1.15).filter(lambda g: abs(g) > 0.05), st.floats(0.1, 6.0))
@settings(max_examples=60, deadline=None)
def test_vacuum_moments_satisfy_correlation_bound(gamma, zeta):
    kind = Kind.GAIN_GAIN
    p = params_for(kind, gamma)
    vm = vacuum_moments(p, kind, zeta, max_magnitude=None)
    assert abs(vm.n12) ** 2 <= vm.n1 * vm.n2 * (1.0 + 1e-9) + 1e-9
