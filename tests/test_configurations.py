"""Tests for the five physical arrangements and their parameter mapping."""

import math

import numpy as np
import pytest

from ptdimer.configurations import (
    DimerRealization,
    Kind,
    UnreachableGammaError,
    effective_params,
    preset_realization,
    raw_indices,
    realization_for_gamma,
)

GAMMA_RTOL = 1e-14


def test_gain_loss_indices_and_params():
    r = DimerRealization(kind=Kind.GAIN_LOSS, nr=1.5, g=1.0, ni=0.5)
    n1, n2 = raw_indices(r)
    assert n1 == 1.5 - 0.5j
    assert n2 == 1.5 + 0.5j
    p = effective_params(r)
    assert p.n == -0.5j
    assert p.gamma == -0.5
    assert p.beta == 0.0
    assert p.n0 == 1.5 + 0.0j


def test_gain_gain_indices_and_params():
    r = DimerRealization(kind=Kind.GAIN_GAIN, nr=1.5, g=1.0, ni1=1.5, ni2=0.5)
    n1, n2 = raw_indices(r)
    assert n1 == 1.5 - 1.5j
    assert n2 == 1.5 - 0.5j
    p = effective_params(r)
    # stronger pump in guide 1 pushes gamma negative, net gain pushes beta up
    assert p.gamma == -0.5
    assert p.beta == 1.0


def test_gain_passive_indices_and_params():
    r = DimerRealization(kind=Kind.GAIN_PASSIVE, nr=1.5, g=1.0, ni=1.0)
    n1, n2 = raw_indices(r)
    assert n1 == 1.5 - 1.0j
    assert n2 == 1.5 + 0.0j
    p = effective_params(r)
    assert p.gamma == -0.5
    assert p.beta == 0.5
    assert p.n0 == 1.5 - 0.5j


def test_passive_loss_indices_and_params():
    r = DimerRealization(kind=Kind.PASSIVE_LOSS, nr=1.5, g=1.0, ni=1.0)
    p = effective_params(r)
    assert p.gamma == -0.5
    assert p.beta == -0.5


def test_loss_loss_indices_and_params():
    r = DimerRealization(kind=Kind.LOSS_LOSS, nr=1.5, g=1.0, ni1=0.4, ni2=1.2)
    p = effective_params(r)
    assert np.isclose(p.gamma, -0.4, rtol=GAMMA_RTOL)
    assert np.isclose(p.beta, -0.8, rtol=GAMMA_RTOL)


def test_beta_is_exactly_minus_imag_n0():
    for kind in Kind:
        r = preset_realization(kind, 0.7)
        p = effective_params(r)
        assert p.beta == -p.n0.imag


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("magnitude", [0.5, 1.0, 1.2])
def test_realization_for_gamma_round_trip(kind, magnitude):
    signs = (-1.0, 1.0) if kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS) else (-1.0,)
    for sign in signs:
        gamma = sign * magnitude
        r = realization_for_gamma(kind, gamma, nr=2.0, g=0.5)
        p = effective_params(r)
        assert np.isclose(p.gamma, gamma, rtol=GAMMA_RTOL, atol=0.0)
        assert p.n.real == 0.0  # matched real parts leave a purely imaginary n


@pytest.mark.parametrize("kind", [Kind.GAIN_LOSS, Kind.GAIN_PASSIVE, Kind.PASSIVE_LOSS])
def test_positive_gamma_unreachable_for_single_sign_kinds(kind):
    with pytest.raises(UnreachableGammaError):
        realization_for_gamma(kind, 0.5)


def test_gamma_zero_is_rejected():
    with pytest.raises(ValueError):
        realization_for_gamma(Kind.GAIN_LOSS, 0.0)


def test_two_magnitude_kinds_reach_both_signs():
    for kind in (Kind.GAIN_GAIN, Kind.LOSS_LOSS):
        for gamma in (-0.8, 0.8):
            p = effective_params(realization_for_gamma(kind, gamma))
            assert np.isclose(p.gamma, gamma, rtol=GAMMA_RTOL, atol=0.0)


@pytest.mark.parametrize("nr, g", [(1.5, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("magnitude", [0.3, 1.0, 1.7, 120.0])
def test_every_kind_maps_to_its_sign_pair(nr, g, magnitude):
    # the magnitudes realization_for_gamma picks and the module table's
    # indices, bit for bit, for every kind and every sign it reaches
    low, high, double = g * magnitude, 3.0 * g * magnitude, 2.0 * g * magnitude
    cases = [
        (Kind.GAIN_LOSS, -1.0, dict(ni=low), (-low, low)),
        (Kind.GAIN_GAIN, -1.0, dict(ni1=high, ni2=low), (-high, -low)),
        (Kind.GAIN_GAIN, 1.0, dict(ni1=low, ni2=high), (-low, -high)),
        (Kind.GAIN_PASSIVE, -1.0, dict(ni=double), (-double, 0.0)),
        (Kind.PASSIVE_LOSS, -1.0, dict(ni=double), (0.0, double)),
        (Kind.LOSS_LOSS, -1.0, dict(ni1=low, ni2=high), (low, high)),
        (Kind.LOSS_LOSS, 1.0, dict(ni1=high, ni2=low), (high, low)),
    ]
    assert {case[0] for case in cases} == set(Kind)
    for kind, sign, magnitudes, (im1, im2) in cases:
        r = realization_for_gamma(kind, sign * magnitude, nr=nr, g=g)
        assert r == DimerRealization(kind=kind, nr=nr, g=g, **magnitudes)
        assert raw_indices(r) == (complex(nr, im1), complex(nr, im2))


def test_preset_realization_normalizes_sign():
    # a positive target that the kind cannot reach is read as a magnitude
    r = preset_realization(Kind.GAIN_LOSS, 0.5)
    assert effective_params(r).gamma == -0.5
    # but an explicit negative target for gain-gain is honored as-is
    r = preset_realization(Kind.GAIN_GAIN, -0.5)
    assert effective_params(r).gamma == -0.5
    # a kind that reaches the positive target keeps it, one that does not negates it
    r = preset_realization(Kind.LOSS_LOSS, 0.5)
    assert effective_params(r).gamma == 0.5
    r = preset_realization(Kind.PASSIVE_LOSS, 0.5)
    assert effective_params(r).gamma == -0.5


def test_realization_validates_magnitudes():
    with pytest.raises(ValueError):
        DimerRealization(kind=Kind.GAIN_LOSS, nr=1.5, g=1.0)  # ni missing
    with pytest.raises(ValueError):
        DimerRealization(kind=Kind.GAIN_LOSS, nr=1.5, g=1.0, ni=-0.5)
    with pytest.raises(ValueError):
        DimerRealization(kind=Kind.GAIN_GAIN, nr=1.5, g=1.0, ni1=0.5)  # ni2 missing
    with pytest.raises(ValueError):
        DimerRealization(kind=Kind.GAIN_LOSS, nr=0.0, g=1.0, ni=0.5)
    with pytest.raises(ValueError):
        DimerRealization(kind=Kind.GAIN_LOSS, nr=1.5, g=math.inf, ni=0.5)
    with pytest.raises(ValueError):
        DimerRealization(kind="gain-loss", nr=1.5, g=1.0, ni=0.5)


def test_realization_keeps_the_floats_it_validates():
    # numbers that validate as floats are stored as those floats, so the
    # device maps to the same parameters as the all-float one
    loose = DimerRealization(kind=Kind.GAIN_LOSS, nr="1.5", g=1, ni="0.5")
    exact = DimerRealization(kind=Kind.GAIN_LOSS, nr=1.5, g=1.0, ni=0.5)
    assert loose == exact
    assert all(type(getattr(loose, name)) is float for name in ("nr", "g", "ni"))
    assert repr(effective_params(loose)) == repr(effective_params(exact))
    pair = DimerRealization(kind=Kind.GAIN_GAIN, nr=2, g="0.5", ni1=1, ni2="3")
    assert pair == DimerRealization(kind=Kind.GAIN_GAIN, nr=2.0, g=0.5, ni1=1.0, ni2=3.0)


def test_unknown_kind_is_reported_after_the_gamma():
    with pytest.raises(ValueError, match="^unknown kind 'gain-loss'$"):
        realization_for_gamma("gain-loss", -0.5)
    with pytest.raises(ValueError, match="gamma target must be nonzero"):
        realization_for_gamma("gain-loss", 0.0)
