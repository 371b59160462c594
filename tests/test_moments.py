"""Tests for the brute-force moment integrator (the verification route)."""

import math

import numpy as np
import pytest

from ptdimer.configurations import DimerRealization, Kind, realization_for_gamma
from ptdimer.moments import (
    HERMITICITY_TOL,
    PSD_TOL,
    DriftAndPump,
    drift_and_pump,
    integrate_moments,
    integrate_moments_path,
    moment_ode_rhs,
)

LOSSLESS_TOL = 1e-8


def lossless_coupler():
    # a gain-loss device with vanishing inversion is not constructible
    # (magnitudes are strictly positive), so build the drift directly
    m = np.array([[1.5, 1.0], [1.0, 1.5]], dtype=complex)
    return DriftAndPump(m=m, d=np.zeros((2, 2)))


def test_rhs_zero_state_zero_pump():
    dp = lossless_coupler()
    rhs = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp)
    assert np.array_equal(rhs, np.zeros((2, 2)))


def test_rhs_vacuum_seeding_equals_pump():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -0.5))
    rhs = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp)
    assert np.allclose(rhs, dp.d, rtol=0.0, atol=0.0)


def test_rhs_conserves_trace_for_hermitian_drift():
    dp = lossless_coupler()
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = a @ a.conj().T  # Hermitian PSD
    rhs = moment_ode_rhs(state, dp)
    assert abs(np.trace(rhs)) < 1e-14


def test_rhs_preserves_hermiticity():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 0.8))
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = a @ a.conj().T
    rhs = moment_ode_rhs(state, dp)
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14


def test_lossless_coupler_oscillates():
    # photon in guide 1 of a lossless coupler: n1 = cos^2, n2 = sin^2
    dp = lossless_coupler()
    initial = np.diag([1.0, 0.0]).astype(complex)
    for zeta in (0.3, 1.0, 2.5):
        state = integrate_moments(initial, dp, zeta, step=1e-3)
        assert np.isclose(state[0, 0].real, math.cos(zeta) ** 2, atol=LOSSLESS_TOL)
        assert np.isclose(state[1, 1].real, math.sin(zeta) ** 2, atol=LOSSLESS_TOL)
        assert np.isclose(np.trace(state).real, 1.0, atol=LOSSLESS_TOL)


def test_passive_vacuum_stays_dark():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        dp = drift_and_pump(realization_for_gamma(kind, -0.5))
        state = integrate_moments(np.zeros((2, 2), dtype=complex), dp, 3.0)
        assert np.array_equal(state, np.zeros((2, 2)))


def test_trajectory_stays_hermitian_and_psd():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, -1.2))
    marks = tuple(np.linspace(0.25, 4.0, 16))
    snapshots = integrate_moments_path(
        np.diag([1.0, 0.0]).astype(complex), dp, marks, step=1e-3
    )
    for state in snapshots:
        scale = max(1.0, float(np.max(np.abs(state))))
        assert np.max(np.abs(state - state.conj().T)) <= HERMITICITY_TOL * scale
        assert min(state[0, 0].real, state[1, 1].real) >= -PSD_TOL * scale
        det = np.linalg.det(state).real
        assert det >= -PSD_TOL * scale**2


def test_fourth_order_convergence():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -0.9))
    initial = np.diag([1.0, 0.0]).astype(complex)
    fine = integrate_moments(initial, dp, 2.0, step=1e-4)
    errors = []
    for step in (4e-2, 2e-2):
        state = integrate_moments(initial, dp, 2.0, step=step)
        errors.append(float(np.max(np.abs(state - fine))))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 22.0  # halving the step should buy ~2^4


def test_partial_final_step_matches_continuation():
    # a mark that is not a multiple of the step exercises the remainder step
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_PASSIVE, -0.7))
    initial = np.zeros((2, 2), dtype=complex)
    direct = integrate_moments(initial, dp, 1.23456, step=1e-3)
    fine = integrate_moments(initial, dp, 1.23456, step=1e-5)
    assert np.allclose(direct, fine, rtol=1e-9, atol=1e-12)


def test_path_matches_single_shot_bitwise():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 0.5))
    initial = np.diag([0.0, 1.0]).astype(complex)
    marks = (0.5, 1.0, 2.0)
    path = integrate_moments_path(initial, dp, marks, step=1e-3)
    for zeta, state in zip(marks, path):
        single = integrate_moments(initial, dp, zeta, step=1e-3)
        assert np.array_equal(state, single)


def test_path_matches_single_shot_bitwise_off_the_step_grid():
    # every mark needs a remainder step; each is still integrated from zero
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -1.2))
    initial = np.diag([1.0, 0.0]).astype(complex)
    marks = (0.3337, 1.23456, 2.0)
    path = integrate_moments_path(initial, dp, marks, step=4e-4)
    for zeta, state in zip(marks, path):
        single = integrate_moments(initial, dp, zeta, step=4e-4)
        assert np.array_equal(state, single)


def test_stacked_initial_states_match_per_launch_calls():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, -1.2))
    launches = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    marks = (0.5, 1.23456, 5.0)
    path = integrate_moments_path(launches, dp, marks, step=4e-4)
    for zeta, states in zip(marks, path):
        assert states.shape == (3, 2, 2)
        for initial, state in zip(launches, states):
            single = integrate_moments(initial, dp, zeta, step=4e-4)
            assert np.allclose(state, single, rtol=1e-14, atol=0.0)


def _rk4_loop(initial, dp, zeta, step):
    """Reference: the classical four-stage RK4 loop on moment_ode_rhs."""
    n = np.array(initial, dtype=complex)
    count = int(math.floor(zeta / step + 1e-9))
    rem = zeta - count * step
    for h in [step] * count + ([rem] if rem > step * 1e-9 else []):
        k1 = moment_ode_rhs(n, dp)
        k2 = moment_ode_rhs(n + 0.5 * h * k1, dp)
        k3 = moment_ode_rhs(n + 0.5 * h * k2, dp)
        k4 = moment_ode_rhs(n + h * k3, dp)
        n = n + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return n


@pytest.mark.parametrize(
    "kind, gamma",
    [(Kind.GAIN_LOSS, -1.2), (Kind.LOSS_LOSS, 1.2), (Kind.GAIN_GAIN, 0.5)],
)
@pytest.mark.parametrize("zeta", [0.5, 0.50017])
def test_matrix_power_matches_rk4_loop(kind, gamma, zeta):
    # 1,250 steps of 4e-4; the second mark adds a remainder step
    dp = drift_and_pump(realization_for_gamma(kind, gamma))
    for initial in (np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        power = integrate_moments(initial, dp, zeta, step=4e-4)
        loop = _rk4_loop(initial, dp, zeta, step=4e-4)
        assert np.allclose(power, loop, rtol=1e-12, atol=0.0)


def test_path_requires_increasing_marks():
    dp = lossless_coupler()
    with pytest.raises(ValueError):
        integrate_moments_path(np.zeros((2, 2), complex), dp, (1.0, 0.5))


def test_bad_step_rejected():
    dp = lossless_coupler()
    with pytest.raises(ValueError):
        integrate_moments(np.zeros((2, 2), complex), dp, 1.0, step=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runaway_amplification_overflows():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 1.2))
    with pytest.raises(OverflowError):
        integrate_moments(np.eye(2, dtype=complex), dp, 200.0, step=0.5)


def test_drift_and_pump_structure():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_PASSIVE, -0.5))
    assert dp.m[0, 1] == 1.0 and dp.m[1, 0] == 1.0
    assert np.isclose(dp.m[0, 0], 1.5 - 1.0j, rtol=1e-15)
    assert np.isclose(dp.m[1, 1], 1.5 + 0.0j, rtol=1e-15)
    # only the amplified guide pumps
    assert np.isclose(dp.d[0, 0], 2.0, rtol=1e-15)
    assert dp.d[1, 1] == 0.0


def test_drift_and_pump_rejects_negative_pump():
    with pytest.raises(ValueError):
        DriftAndPump(
            m=np.array([[1.5, 1.0], [1.0, 1.5]], dtype=complex),
            d=np.diag([-0.1, 0.0]),
        )
