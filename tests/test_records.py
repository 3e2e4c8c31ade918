"""The value types' record behaviour: construction, immutability, equality,
hashing, repr, copying and signatures.

Each of the eleven types is pinned by one :class:`Case`: its ``__init__``
parameters with their defaults, a full set of arguments and the fields
they give, the fewest arguments it takes, and which changes of a field
make an unequal or an equal record.
"""

import copy
import dataclasses
import inspect
import pickle
from typing import NamedTuple

import numpy as np
import pytest

from swedge import (
    CompoundSymmetry,
    ContrastSpec,
    CorrelationSpec,
    CovarianceModel,
    DesignGrid,
    EffectPower,
    EffectSpec,
    PowerResult,
    RawComponents,
    SweepTable,
    TransitionViolation,
    TreatmentCovariance,
)

REQUIRED = inspect.Parameter.empty
ROW = EffectPower("trt1", 0.4, 0.1, 0.9)


class Case(NamedTuple):
    cls: type
    params: tuple  # (name, default or REQUIRED) of every __init__ parameter, in order
    full: dict  # a value for every parameter, in order
    fields: dict  # the fields ``cls(**full)`` holds, in repr order
    minimal: dict  # the fewest arguments the type takes
    unequal: dict  # a change of ``full`` that makes an unequal record
    equal: dict  # a change of ``full`` that equality ignores
    hashing: str  # "value", "identity" or "unhashable"


CASES = [
    Case(RawComponents,
         (("sigma_alpha_sq", REQUIRED), ("sigma_e_sq", REQUIRED), ("sigma_psi_sq", 0.0),
          ("sigma_nu_sq", 0.0)),
         dict(sigma_alpha_sq=1, sigma_e_sq=2.0, sigma_psi_sq=0.5, sigma_nu_sq=0.0),
         dict(sigma_alpha_sq=1.0, sigma_e_sq=2.0, sigma_psi_sq=0.5, sigma_nu_sq=0.0),
         dict(sigma_alpha_sq=1.0, sigma_e_sq=2.0), dict(sigma_psi_sq=0.25), {}, "value"),
    Case(CompoundSymmetry,
         (("diag", REQUIRED), ("offdiag", REQUIRED)),
         dict(diag=1, offdiag=np.float32(0.5)),
         dict(diag=1.0, offdiag=0.5),
         dict(diag=1.0, offdiag=0.5), dict(offdiag=0.25), {}, "value"),
    Case(CorrelationSpec,
         (("model", REQUIRED), ("n_per_period", REQUIRED), ("rho_w", None), ("rho_a", None),
          ("pi", None), ("raw", None)),
         dict(model=CovarianceModel.COHORT, n_per_period=15, rho_w=0.1, rho_a=None, pi=0.5,
              raw=None),
         dict(model=CovarianceModel.COHORT, n_per_period=15, rho_w=0.1, rho_a=None, pi=0.5,
              raw=None),
         dict(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=15, rho_w=0.1),
         dict(pi=0.25), {}, "value"),
    Case(TransitionViolation,
         (("cluster_index", REQUIRED), ("period_index", REQUIRED), ("before", REQUIRED),
          ("after", REQUIRED)),
         dict(cluster_index=0, period_index=2, before=1, after=0),
         dict(cluster_index=0, period_index=2, before=1, after=0),
         dict(cluster_index=0, period_index=2, before=1, after=0), dict(after=2), {}, "value"),
    Case(DesignGrid,
         (("codes", REQUIRED), ("label", ""), ("reconstructed", False)),
         dict(codes=[[0, 1], [0, 2]], label="d", reconstructed=True),
         dict(cells=b"\0\1\0\2", n_periods=2, label="d", reconstructed=True),
         dict(codes=[[0, 1], [0, 2]]), dict(label="e"), dict(reconstructed=False),
         "unhashable"),
    Case(TreatmentCovariance,
         (("labels", REQUIRED), ("matrix", REQUIRED)),
         dict(labels=("trt1",), matrix=np.array([[2.0]])),
         dict(labels=("trt1",), matrix=np.array([[2.0]])),
         dict(labels=("trt1",), matrix=np.array([[2.0]])), dict(labels=("trt2",)), {},
         "unhashable"),
    Case(ContrastSpec,
         (("label", REQUIRED), ("weights", REQUIRED), ("effect", None)),
         dict(label="d", weights=[1, np.float64(-1)], effect=0.3),
         dict(label="d", weights=(1.0, -1.0), effect=0.3),
         dict(label="d", weights=(1.0, -1.0)), dict(effect=0.2), {}, "value"),
    Case(EffectSpec,
         (("delta1", None), ("delta2", None), ("delta3", None), ("alpha", 0.05),
          ("contrasts", ()), ("additive", False)),
         dict(delta1=0.4, delta2=None, delta3=0.2, alpha=0.01,
              contrasts=(ContrastSpec("d", (1.0, -1.0)),), additive=False),
         dict(delta1=0.4, delta2=None, delta3=0.2, alpha=0.01,
              contrasts=(ContrastSpec("d", (1.0, -1.0)),), additive=False),
         dict(delta1=0.4), dict(alpha=0.05), {}, "value"),
    Case(EffectPower,
         (("label", REQUIRED), ("effect", REQUIRED), ("se", REQUIRED), ("power", REQUIRED)),
         dict(label="trt1", effect=0.4, se=0.1, power=0.9),
         dict(label="trt1", effect=0.4, se=0.1, power=0.9),
         dict(label="trt1", effect=0.4, se=0.1, power=0.9), dict(power=0.8), {}, "value"),
    Case(PowerResult,
         (("rows", REQUIRED), ("design_label", REQUIRED), ("metadata", REQUIRED)),
         dict(rows=(ROW,), design_label="fig1", metadata={"alpha": 0.05}),
         dict(rows=(ROW,), design_label="fig1", metadata={"alpha": 0.05}),
         dict(rows=(ROW,), design_label="fig1", metadata={}), dict(design_label="fig2b"),
         dict(metadata={"alpha": 0.01}), "value"),
    Case(SweepTable,
         (("labels", REQUIRED), ("effects", REQUIRED), ("icc", REQUIRED), ("se", REQUIRED),
          ("power", REQUIRED), ("errors", REQUIRED)),
         dict(labels=("trt1",), effects=(0.4,), icc={"rho_w": np.array([0.1])},
              se=np.array([[0.2]]), power=np.array([[0.5]]), errors={}),
         dict(labels=("trt1",), effects=(0.4,), icc={"rho_w": np.array([0.1])},
              se=np.array([[0.2]]), power=np.array([[0.5]]), errors={}),
         dict(labels=("trt1",), effects=(0.4,), icc={}, se=np.zeros((0, 1)),
              power=np.zeros((0, 1)), errors={}),
         dict(labels=("trt2",)), {}, "identity"),
]


def _expected_repr(case: Case) -> str:
    return f"{case.cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in case.fields.items()) + ")"


@pytest.fixture(params=CASES, ids=lambda case: case.cls.__name__)
def case(request):
    return request.param


def test_eleven_types_are_pinned():
    assert len({case.cls for case in CASES}) == 11


def test_positional_and_keyword_construction_agree(case):
    by_keyword = case.cls(**case.full)
    by_position = case.cls(*case.full.values())
    assert repr(by_keyword) == repr(by_position) == _expected_repr(case)
    for name, value in case.fields.items():
        assert repr(getattr(by_keyword, name)) == repr(value)
        assert type(getattr(by_keyword, name)) is type(value)


def test_omitted_arguments_take_their_defaults(case):
    record = case.cls(**case.minimal)
    defaults = dict(case.params)
    for name, value in case.minimal.items():
        if name in case.fields:
            assert repr(getattr(record, name)) == repr(value)
    for name, default in defaults.items():
        if name not in case.minimal:
            assert getattr(record, name) == default


def test_the_signature_lists_the_parameters_and_defaults(case):
    params = inspect.signature(case.cls).parameters.values()
    assert [(p.name, p.default) for p in params] == list(case.params)
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_missing_or_unexpected_arguments_raise_type_error(case):
    required = [name for name, default in case.params if default is REQUIRED]
    for name in required:
        with pytest.raises(TypeError):
            case.cls(**{k: v for k, v in case.full.items() if k != name})
    if required:
        with pytest.raises(TypeError):
            case.cls()
    with pytest.raises(TypeError):
        case.cls(**case.full, unexpected=1)
    with pytest.raises(TypeError):
        case.cls(*case.full.values(), 1)


def test_records_are_frozen(case):
    record = case.cls(**case.full)
    before = repr(record)
    for name in [*case.fields, "unexpected"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == before


def test_equality_and_hash(case):
    record, again = case.cls(**case.full), case.cls(**case.full)
    other = case.cls(**{**case.full, **case.unequal})
    ignored = case.cls(**{**case.full, **case.equal})
    assert record == record and not record != record
    assert record != other
    assert record.__eq__(object()) is NotImplemented
    assert record != object()
    if case.hashing == "identity":
        assert record != again and record != ignored
        assert hash(record) == object.__hash__(record)
        return
    assert record == again == ignored
    if case.hashing == "unhashable":
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(again) == hash(ignored)
        assert hash(record) == hash(tuple(getattr(record, name) for name in case.fields
                                          if name not in case.equal))


def test_power_result_equality_ignores_only_metadata():
    result = PowerResult((ROW,), "fig1", {"alpha": 0.05})
    assert result == PowerResult((ROW,), "fig1", {"alpha": 0.01, "more": [1]})
    assert result != PowerResult((EffectPower("trt1", 0.4, 0.1, 0.8),), "fig1", {})


def test_covariance_equality_compares_labels_and_every_entry():
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov = TreatmentCovariance(("trt1", "trt2"), matrix)
    assert cov == TreatmentCovariance(("trt1", "trt2"), matrix.copy())
    assert cov != TreatmentCovariance(("trt1", "trt2"), np.array([[2.0, 0.5], [0.5, 1.5]]))
    assert cov != TreatmentCovariance(("trt1", "diff"), matrix)
    with pytest.raises(TypeError, match="unhashable"):
        hash(cov)


def test_design_grid_equality_compares_label_and_cells():
    grid = DesignGrid([[0, 1], [0, 3]], label="d")
    assert grid == DesignGrid([[0, 1], [0, 3]], label="d", reconstructed=True)
    assert grid != DesignGrid([[0, 1], [0, 3]], label="e")
    assert grid != DesignGrid([[0, 1, 3, 0]], label="d")  # the same cells, another shape
    assert grid != DesignGrid([[0, 1], [0, 2]], label="d")


def test_pickle_and_copy_round_trips(case):
    record = case.cls(**case.full)
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is case.cls
        assert repr(again) == repr(record)
        if case.hashing != "identity":
            assert again == record
