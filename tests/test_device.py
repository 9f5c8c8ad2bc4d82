import math

import pytest
from hypothesis import given, strategies as st

from ionarch.device import (TWO_PI, DeviceParams, LinkModel, LinkType,
                            link_success_probability, mean_connection_time)
from ionarch.errors import ValidationError, ZeroSuccessProbability


def make_link(kind, p_excite=0.05, f=0.01, eta=0.2, **kw):
    params = DeviceParams(p_excite=p_excite, solid_angle_fraction=f,
                          detector_efficiency=eta, **kw)
    return LinkModel(kind, params)


def test_defaults_match_standard_timescales():
    p = DeviceParams()
    assert p.t_single_gate == pytest.approx(1e-6)
    assert p.t_two_gate == pytest.approx(10e-6)
    assert p.t_toffoli == pytest.approx(10e-6)
    assert p.t_measure == pytest.approx(30e-6)
    assert p.t_remote_entangle == pytest.approx(3000e-6)
    assert p.rep_rate == pytest.approx(0.1 * p.gamma / TWO_PI)


def test_type1_success_probability():
    link = make_link(LinkType.TYPE_I)
    assert link_success_probability(link) == pytest.approx(1.0e-4)


def test_type2_success_probability():
    link = make_link(LinkType.TYPE_II, p_excite=1.0)
    assert link_success_probability(link) == pytest.approx(2.0e-6)


@pytest.mark.parametrize("name", [
    "t_single_gate", "t_two_gate", "t_toffoli", "t_measure",
    "t_remote_entangle", "gamma", "repetition_rate", "p_excite",
    "solid_angle_fraction", "detector_efficiency", "reinit_time"])
def test_device_params_reject_nan(name):
    with pytest.raises(ValidationError):
        DeviceParams(**{name: math.nan})


@pytest.mark.parametrize("name", [
    "t_single_gate", "t_two_gate", "t_toffoli", "t_measure",
    "t_remote_entangle", "reinit_time", "gamma", "repetition_rate"])
def test_durations_and_rates_must_be_finite(name):
    with pytest.raises(ValidationError, match="must be positive and finite"):
        DeviceParams(**{name: math.inf})


def test_zero_factor_gives_zero_probability():
    link = make_link(LinkType.TYPE_I, eta=0.0)
    assert link_success_probability(link) == 0.0
    with pytest.raises(ZeroSuccessProbability):
        mean_connection_time(link)


def test_mean_connection_time_benchmarks():
    # gamma/2pi = 20 MHz, R = 0.1 gamma/2pi = 2 MHz
    assert mean_connection_time(make_link(LinkType.TYPE_I)) == pytest.approx(
        5e-3, rel=1e-6)
    assert mean_connection_time(make_link(LinkType.TYPE_II, p_excite=1.0)) \
        == pytest.approx(0.25, rel=1e-6)


def test_mean_connection_time_unit_case():
    link = make_link(LinkType.TYPE_I, p_excite=0.1, f=1.0, eta=1.0,
                     repetition_rate=10.0)
    assert mean_connection_time(link) == pytest.approx(1.0)


def test_identity_time_rate_probability():
    link = make_link(LinkType.TYPE_I, p_excite=0.03, f=0.2, eta=0.37)
    product = (mean_connection_time(link) * link.params.rep_rate
               * link_success_probability(link))
    assert product == pytest.approx(1.0, rel=1e-12)


def test_link_kind_must_be_a_link_type():
    # the string "type1" once priced a one-photon link with the two-photon
    # formula, 5e-09 in place of 1e-04
    for kind in ("type1", "type2", None, 1):
        with pytest.raises(ValidationError, match="must be a LinkType"):
            LinkModel(kind, DeviceParams())
    assert link_success_probability(
        LinkModel(LinkType("type1"), DeviceParams())) == pytest.approx(1e-4)


def test_link_params_must_be_device_params():
    # a missing parameter set once raised AttributeError for a one-photon
    # link and built a two-photon link that failed only when priced
    for kind in LinkType:
        for params in (None, {"p_excite": 0.05}):
            with pytest.raises(ValidationError, match="must be a DeviceParams"):
                LinkModel(kind, params)


def test_type1_weak_excitation_guard():
    with pytest.raises(ValidationError):
        make_link(LinkType.TYPE_I, p_excite=0.5)
    make_link(LinkType.TYPE_II, p_excite=0.5)  # two-photon links unrestricted


@given(st.floats(0.001, 0.25), st.floats(0.001, 1.0), st.floats(0.001, 1.0),
       st.floats(1.01, 10.0))
def test_success_probability_monotone(p_e, f, eta, scale):
    base = link_success_probability(make_link(LinkType.TYPE_I, p_e, f, eta))
    for bumped in (make_link(LinkType.TYPE_I, min(p_e * scale, 0.25), f, eta),
                   make_link(LinkType.TYPE_I, p_e, min(f * scale, 1.0), eta),
                   make_link(LinkType.TYPE_I, p_e, f, min(eta * scale, 1.0))):
        assert link_success_probability(bumped) >= base


@given(st.floats(0.001, 0.25), st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_type2_never_exceeds_type1(p_e, f, eta):
    # x^2 / 2 <= x whenever the collection product x <= 2
    t1 = link_success_probability(make_link(LinkType.TYPE_I, p_e, f, eta))
    t2 = link_success_probability(make_link(LinkType.TYPE_II, p_e, f, eta))
    assert t2 <= t1
