"""The contract every value type of the package keeps: construction by
position or keyword with defaults and ``__post_init__``, equality that needs
the exact type, immutability and hashing of the frozen classes, the repr,
and round trips through pickle and deepcopy."""

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from duplexqkd.analysis import ChshBinEstimate, ChshEstimate, DetectionStats, SimulationReport
from duplexqkd.attacks import EveLog
from duplexqkd.cli import RunSpec, parse_args
from duplexqkd.config import AttackKind, CheckKind, ConfigFieldError, ProtocolKind, SimulationConfig
from duplexqkd.fourstate import PauliAnnouncement, ReceiptAck
from duplexqkd.protocol import (
    ControlDisclosure,
    CorrelationAnnouncement,
    MeasuredFirst,
    PairRecord,
    QberDisclosure,
    run_session,
)
from duplexqkd.quantum import Basis, BellStateId, ChshSettings, PauliOp, PlanarObservable


def _record_fields(config: SimulationConfig) -> dict:
    """The fields of the first attacked record of a real session."""
    record = next(r for r in run_session(config) if r.eve_log != EveLog())
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


_RECORD_FIELDS = (
    "protocol", "mode", "bob_state", "alice_basis", "alice_setting", "alice_angle", "bob_setting", "bob_angle",
    "outcome_1", "outcome_2", "correlated", "bob_decoded_basis", "alice_decoded_state", "qber_pass",
    "alice_bell_outcome", "alice_pauli", "alice_target", "bob_decoded", "eve_log",
)

_CONFIG = SimulationConfig(pairs=4, control_probability=0.5, attack=AttackKind.QMM_SWAP, seed=7)

#: (class, field values in declaration order, frozen)
CASES = [
    (PlanarObservable, {"angle": 0.25}, True),
    (ChshSettings, {"alice_angles": (0.0, 1.0), "bob_angles": (2.0, 3.0)}, True),
    (
        SimulationConfig,
        {
            "pairs": 3, "control_probability": 0.5, "check_kind": CheckKind.CHSH, "attack": AttackKind.NONE,
            "seed": 9, "settings": ChshSettings((0.0, 1.0), (2.0, 3.0)), "protocol": ProtocolKind.BASE,
        },
        True,
    ),
    (MeasuredFirst, {"control": True}, True),
    (CorrelationAnnouncement, {"correlated": True}, True),
    (ControlDisclosure, {"setting": 0.5, "outcome": -1, "state_id": BellStateId.PHI_MINUS}, True),
    (QberDisclosure, {"basis": Basis.Z, "correlated": False}, True),
    (PairRecord, _record_fields(_CONFIG), True),
    (
        EveLog,
        {
            "substitute": BellStateId.PSI_PLUS, "bell_outcome": None, "guessed_alice_bit": 0,
            "guessed_bob_bit": None,
        },
        True,
    ),
    (ReceiptAck, {}, True),
    (PauliAnnouncement, {"op": PauliOp.SIGMA2}, True),
    (
        PairRecord,
        _record_fields(SimulationConfig(pairs=8, control_probability=0.5, attack=AttackKind.INTERCEPT_RESEND,
                                        seed=7, protocol=ProtocolKind.MODIFIED)),
        True,
    ),
    (
        ChshBinEstimate,
        {"s_hat": 2.5, "stderr": 0.1, "counts": {(0, 0): 3}, "correlators": {(0, 0): 0.5}},
        True,
    ),
    (ChshEstimate, {"per_state": {BellStateId.PSI_PLUS: ChshBinEstimate(None, None, {}, {})}}, True),
    (DetectionStats, {"checks": 4, "errors": 1}, True),
    (
        SimulationReport,
        {
            "config_echo": {"pairs": 3}, "seed": 9, "pairs": 3, "control_rounds": 1, "message_rounds": 2,
            "alice_decode_ok": 2, "bob_decode_ok": 1,
            "eve_alice_guesses": 0, "eve_alice_correct": 0, "eve_bob_guesses": 0, "eve_bob_correct": 0,
            "qber_checks": 1, "qber_errors": 0, "chsh_counts": {(BellStateId.PSI_PLUS, 0, 1): 1},
            "chsh_products": {(BellStateId.PSI_PLUS, 0, 1): -1},
        },
        False,
    ),
    (RunSpec, {"config": SimulationConfig(pairs=2), "out_format": "csv", "out_path": Path("r.csv")}, True),
]

#: Each class's name; the four-state record's case is told apart.
_IDS = [
    cls.__name__ + ("-four-state" if values.get("protocol") is ProtocolKind.MODIFIED else "")
    for cls, values, _ in CASES
]


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def test_every_value_type_is_covered():
    assert len(CASES) == 17
    assert len(set(_IDS)) == len(_IDS)
    assert [cls for cls, _, frozen in CASES if not frozen] == [SimulationReport]


@pytest.mark.parametrize("cls,values,frozen", CASES, ids=_IDS)
def test_construction_by_position_or_keyword(cls, values, frozen):
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    assert type(by_keyword) is cls
    assert by_keyword == by_position
    assert [getattr(by_keyword, name) for name in values] == list(values.values())
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(by_keyword) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls,values,frozen", CASES, ids=_IDS)
def test_equality_needs_the_exact_type(cls, values, frozen):
    value = cls(**values)
    twin = type(cls.__name__, (cls,), {})(**values)
    assert value == cls(**values)
    assert not value != cls(**values)
    assert value != twin and twin != value
    assert value != tuple(values.values())
    assert value != list(values.values())
    assert value.__eq__(tuple(values.values())) is NotImplemented


def test_equal_values_of_different_types_differ():
    assert MeasuredFirst(True) != CorrelationAnnouncement(True)
    assert ReceiptAck() == ReceiptAck()
    assert hash(ReceiptAck()) == hash(ReceiptAck())


@pytest.mark.parametrize("cls,values,frozen", CASES, ids=_IDS)
def test_frozen_classes_refuse_assignment_and_hash_by_value(cls, values, frozen):
    value = cls(**values)
    if not frozen:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
        for name, field_value in values.items():
            setattr(value, name, field_value)
        return
    for name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in values] == list(values.values())
    if _hashable(values.values()):
        assert hash(value) == hash(cls(*values.values()))
        assert len({value, cls(**values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_report_takes_instance_attributes():
    # Tools wrap a report's bound methods on the instance.
    report = SimulationReport(config_echo={}, seed=0)
    to_dict = report.to_dict
    report.to_dict = lambda: {"wrapped": to_dict()}
    assert report.to_dict()["wrapped"]["pairs"] == 0
    report.pairs = 5
    assert report.pairs == 5


@pytest.mark.parametrize("cls,values,frozen", CASES, ids=_IDS)
def test_bad_arguments_raise_type_error(cls, values, frozen):
    names = list(values)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, not_a_field=None)
    if names:
        with pytest.raises(TypeError):
            cls(*values.values(), **{names[0]: values[names[0]]})
        with pytest.raises(TypeError):
            cls(**{name: values[name] for name in names[1:]}, **{names[0]: values[names[0]], names[0] + "_": 1})


@pytest.mark.parametrize(
    "cls,required",
    [(PairRecord, 18), (SimulationConfig, 1), (ControlDisclosure, 2),
     (SimulationReport, 2), (EveLog, 0), (ReceiptAck, 0), (RunSpec, 3)],
)
def test_missing_arguments_raise_type_error(cls, required):
    if required:
        with pytest.raises(TypeError):
            cls(*range(required - 1))
    else:
        cls()


def test_defaults_apply_and_mutable_defaults_are_fresh():
    assert ControlDisclosure(0.5, 1).state_id is None
    config = SimulationConfig(pairs=2)
    assert (config.control_probability, config.attack, config.seed) == (0.0, AttackKind.NONE, 0)
    log = EveLog()
    assert (log.substitute, log.bell_outcome, log.guessed_alice_bit, log.guessed_bob_bit) == (None,) * 4
    assert log == EveLog() and hash(log) == hash(EveLog())
    first, second = SimulationReport(config_echo={}, seed=0), SimulationReport({}, 0)
    assert first == second and first.pairs == 0
    for name in ("chsh_counts", "chsh_products"):
        assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
    first.chsh_counts[(BellStateId.PSI_PLUS, 0, 0)] = 1
    assert second.chsh_counts == {} and first != second


def test_post_init_validates_and_normalises():
    with pytest.raises(ConfigFieldError) as error:
        SimulationConfig(pairs=0)
    assert error.value.field_name == "pairs"
    with pytest.raises(ConfigFieldError):
        SimulationConfig(1, 1.0)
    assert SimulationConfig(pairs=1, protocol=ProtocolKind.MODIFIED).check_kind is CheckKind.QBER
    assert SimulationConfig(1).check_kind is CheckKind.CHSH
    assert PlanarObservable(-0.5 * math.pi).angle == pytest.approx(1.5 * math.pi)
    assert PlanarObservable(angle=2 * math.pi).angle == 0.0
    with pytest.raises(ValueError):
        PlanarObservable(math.nan)
    settings = ChshSettings([0, 1], bob_angles=[2, 3])
    assert settings.alice_angles == (0.0, 1.0) and type(settings.bob_angles[0]) is float
    for alice, bob in (((0.0,), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0, 2.0))):
        with pytest.raises(ValueError, match="exactly two angles"):
            ChshSettings(alice, bob)
    # A bool or a non-integer count is refused by name; numbers are stored
    # as the plain types the CLI gives, so the echo is the CLI's.
    for fields, name in [
        ({"pairs": True}, "pairs"),
        ({"pairs": 2.0}, "pairs"),
        ({"pairs": 1, "seed": True}, "seed"),
        ({"pairs": 1, "seed": 1.5}, "seed"),
        ({"pairs": 1, "seed": "3"}, "seed"),
        ({"pairs": 1, "control_probability": False}, "control_probability"),
        ({"pairs": 1, "control_probability": "0.5"}, "control_probability"),
        ({"pairs": 1, "control_probability": 10**400}, "control_probability"),
    ]:
        with pytest.raises(ConfigFieldError) as error:
            SimulationConfig(**fields)
        assert error.value.field_name == name
    config = SimulationConfig(pairs=np.int64(5), control_probability=0, seed=np.uint64(3))
    assert [type(config.pairs), type(config.control_probability), type(config.seed)] == [int, float, int]
    cli = parse_args(["--pairs", "5", "--control-prob", "0", "--seed", "3"]).config
    assert json.dumps(config.to_dict()) == json.dumps(cli.to_dict())


@pytest.mark.parametrize("cls,values,frozen", CASES, ids=_IDS)
def test_pickle_and_deepcopy_round_trip(cls, values, frozen):
    value = cls(**values)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls
        assert copied == value
    deep = copy.deepcopy(value)
    for name, field_value in values.items():
        if isinstance(field_value, (list, dict)) and field_value:
            assert getattr(deep, name) is not field_value
