"""Value semantics of the immutable records of the cost and error models:
construction, equality, hash, repr and read-only fields."""

from fractions import Fraction

import pytest

from ionarch import arch, cluster, device, estimator, steane

_STEP = steane.Step("seed", 1e-6, 2)

#: Each record class with the keyword arguments of one instance: its first
#: fields, in field order, so that the values also work as positional
#: arguments.
EXAMPLES = {
    arch._Layout: {},
    arch.MusiqcLayout: {},
    arch.QlaLayout: {},
    arch.NnLayout: {},
    device.DeviceParams: {"t_single_gate": 2e-6, "t_two_gate": 2e-5},
    device.LinkModel: {"kind": device.LinkType.TYPE_II,
                       "params": device.DeviceParams()},
    steane.Step: {"label": "seed", "duration": 1e-6, "count": 2},
    steane.CostEntry: {"steps": (_STEP,), "qubits": 11, "parallel_ops": 4},
    steane._GateBasis: {"single": 1e-6, "cnot": 1e-5, "toffoli": 1e-5,
                        "measure": 3e-5, "pair": 0.0, "tag": "physical"},
    steane.LogicalCostTable: {
        "level": 1, "layout": arch.NnLayout(), "entries": {},
        "footprint": 1, "pair_time": 0.0, "phi_plus_prep_time": 1e-3,
        "toffoli_teleport_time": 1e-4, "cnot_teleport_time": 1e-4,
        "swap_step_time": 5e-5},
    cluster.LinearError: {"eps": Fraction(1, 15), "r": Fraction(2)},
    cluster.ErrorBudget: {"eps": 1e-3, "r": 1e-3},
    cluster.Link: {"face": (1, 1, 0), "edge": (1, 0, 0), "position": 2,
                   "bell_step": 1, "cnot_step": 2, "measure_step": 3},
    cluster.ErrorSource: {"kind": "readout",
                          "flip": cluster.LinearError(Fraction(1, 3)),
                          "fault_weights": ()},
    cluster.CreationSchedule: {"bell_pairs": {1: []}, "cnots": {},
                               "measurements": {}},
    estimator.DepthProfile: {"x_steps": 2, "cnot_steps": 4,
                             "toffoli_steps": 20},
}

#: Classes whose examples hold a dict, so their instances are unhashable.
UNHASHABLE = {steane.LogicalCostTable, cluster.CreationSchedule}

CLASSES = pytest.mark.parametrize("cls", list(EXAMPLES),
                                  ids=lambda cls: cls.__name__)


def _example(cls):
    return cls(**EXAMPLES[cls])


@CLASSES
def test_equal_arguments_give_equal_values(cls):
    kwargs = EXAMPLES[cls]
    first, second = cls(**kwargs), cls(*kwargs.values())
    assert first is not second
    assert first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    for name, value in kwargs.items():
        assert getattr(first, name) is value


@CLASSES
def test_values_of_different_classes_are_unequal(cls):
    value = _example(cls)
    for other in EXAMPLES:
        if other is not cls:
            assert value != _example(other) and not value == _example(other)


@CLASSES
def test_fields_refuse_assignment_and_deletion(cls):
    value = _example(cls)
    for name in [*EXAMPLES[cls], "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == _example(cls)


@CLASSES
def test_bad_arguments_raise_type_error(cls):
    kwargs = EXAMPLES[cls]
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=0)
    with pytest.raises(TypeError):
        cls(*[0.5] * 20)
    if kwargs:
        name = next(iter(kwargs))
        with pytest.raises(TypeError):
            cls(*kwargs.values(), **{name: kwargs[name]})
    required = [name for name in kwargs if not hasattr(cls, name)]
    if required:
        with pytest.raises(TypeError, match=repr(required[-1])):
            cls(**{k: v for k, v in kwargs.items() if k != required[-1]})


def test_repr_names_every_field():
    # the strings dataclasses gave these values
    assert repr(device.DeviceParams()) == (
        "DeviceParams(t_single_gate=1e-06, t_two_gate=9.999999999999999e-06, "
        "t_toffoli=9.999999999999999e-06, t_measure=2.9999999999999997e-05, "
        "t_remote_entangle=0.003, gamma=125663706.14359173, "
        "repetition_rate=None, p_excite=0.05, solid_angle_fraction=0.01, "
        "detector_efficiency=0.2, reinit_time=1e-06)")
    assert [repr(cls()) for cls in (arch.MusiqcLayout, arch.QlaLayout,
                                    arch.NnLayout)] == [
        "MusiqcLayout()", "QlaLayout()", "NnLayout()"]
    assert repr(cluster.LinearError(Fraction(1, 15), Fraction(2))) == (
        "LinearError(eps=Fraction(1, 15), r=Fraction(2, 1))")
    assert repr(steane.Step("cat4 seed (physical single)", 1e-06, 18)) == (
        "Step(label='cat4 seed (physical single)', duration=1e-06, count=18)")


def test_cached_properties_keep_working():
    entry = _example(steane.CostEntry)
    assert entry.time == entry.time == 2e-6
    assert cluster.LinearError(1, 2).float_coefficients == (1.0, 2.0)
