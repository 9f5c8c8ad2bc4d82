import math

import pytest
from hypothesis import given, strategies as st

from ionarch.device import (TWO_PI, DeviceParams, EluPhysics, LinkModel,
                            LinkType, effective_connection_time,
                            elu_gate_rate, link_success_probability,
                            mean_connection_time, type1_error_terms)
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
    "t_remote_entangle", "gamma", "repetition_rate", "dark_rate", "p_excite",
    "solid_angle_fraction", "detector_efficiency", "reinit_time"])
def test_device_params_reject_nan(name):
    with pytest.raises(ValidationError):
        DeviceParams(**{name: math.nan})


def test_repetition_rate_must_be_finite():
    with pytest.raises(ValidationError):
        DeviceParams(repetition_rate=math.inf)


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


def test_effective_connection_time():
    assert effective_connection_time(3000e-6, 2, 10) == pytest.approx(150e-6)
    assert effective_connection_time(0.123, 1, 1) == 0.123
    assert effective_connection_time(5e-3, 5, 10) == pytest.approx(100e-6)
    with pytest.raises(ValidationError):
        effective_connection_time(1.0, 0, 1)


def test_effective_time_linear_in_inverse_multiplexity():
    tau = 7.7e-3
    for m_p, m_t in [(1, 3), (2, 5), (4, 4)]:
        assert effective_connection_time(tau, m_p, m_t) * m_p * m_t \
            == pytest.approx(tau)


def test_type1_error_terms():
    assert type1_error_terms(DeviceParams(p_excite=0.05))[0] == pytest.approx(2.5e-3)
    assert type1_error_terms(DeviceParams(dark_rate=0.0))[1] == 0.0
    params = DeviceParams(p_excite=0.1, gamma=1e6, dark_rate=1.0)
    p_double, p_dark = type1_error_terms(params)
    assert p_double == pytest.approx(1e-2)
    assert p_dark == pytest.approx(1e-6)


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


def make_physics(n_qubits, rabi=TWO_PI * 1e5):
    # Yb-171-scale numbers: 369 nm transition, 2 MHz trap
    return EluPhysics(wavenumber=TWO_PI / 369e-9, ion_mass=171 * 1.6605e-27,
                      mode_frequency=TWO_PI * 2e6, rabi_frequency=rabi,
                      n_qubits=n_qubits)


def test_gate_rate_quarter_qubits_doubles_rate():
    r1 = elu_gate_rate(make_physics(4))
    r4 = elu_gate_rate(make_physics(16))
    assert r1 / r4 == pytest.approx(2.0, rel=1e-12)


def test_gate_rate_sqrt_scaling():
    r1 = elu_gate_rate(make_physics(10))
    r2 = elu_gate_rate(make_physics(20))
    assert r1 / r2 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_gate_rate_zero_rabi():
    assert elu_gate_rate(make_physics(10, rabi=0.0)) == 0.0


def test_gate_rate_is_lamb_dicke_times_rabi():
    phys = make_physics(7)
    assert elu_gate_rate(phys) == pytest.approx(phys.lamb_dicke * phys.rabi_frequency)


def test_lamb_dicke_warning():
    with pytest.warns(UserWarning):
        EluPhysics(wavenumber=1e9, ion_mass=1e-27, mode_frequency=1e3,
                   rabi_frequency=1.0, n_qubits=1)
