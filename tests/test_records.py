"""The library's records: dataclass fields over one frozen base, with the
behaviour of frozen dataclasses and none of their generated methods."""

import dataclasses
import pickle

import pytest

from loggas import build_basis, build_tail_model, gap_probabilities
from loggas.cli import RunConfig
from loggas.equilibrium import EquilibriumData
from loggas.errors import Record
from loggas.kernel_oracle import GapResult, OrthoBasis
from loggas.potential import Potential
from loggas.tails import TailModel

FIELDS = {
    Potential: ["coeffs"],
    EquilibriumData: ["a", "b", "gamma", "ell", "g_coeffs", "residuals", "coeffs"],
    TailModel: ["eq", "N", "cramer"],
    RunConfig: ["potential", "n_list", "t_grid", "s_grid", "k", "output_format",
                "max_oracle_n"],
    OrthoBasis: ["N", "alpha", "beta", "support_window", "v_min", "freud_residual",
                 "panels", "V"],
    GapResult: ["t", "log_survival", "survival", "trace"],
}
BY_IDENTITY = (OrthoBasis,)


@pytest.fixture(scope="module")
def records(gue, gue_eq):
    basis = build_basis(gue, 4)
    return {
        Potential: gue,
        EquilibriumData: gue_eq,
        TailModel: build_tail_model(gue_eq, gue, 10, k=2),
        RunConfig: RunConfig(potential=gue, n_list=[10], t_grid=[2.5], s_grid=None, k=3,
                             output_format="csv", max_oracle_n=200),
        OrthoBasis: basis,
        GapResult: gap_probabilities(basis, gue, [2.5])[0],
    }


def values(record):
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
class TestRecord:
    def test_base_methods_only(self, cls):
        assert issubclass(cls, Record) and dataclasses.is_dataclass(cls)
        assert cls.__init__ is Record.__init__
        for name in ("__init__", "__repr__", "__setattr__", "__delattr__"):
            assert name not in cls.__dict__
        if cls in BY_IDENTITY:
            assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)
        else:
            assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__

    def test_fields_in_order(self, cls, records):
        assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]
        record = records[cls]
        assert list(vars(record)) == FIELDS[cls]
        assert list(dataclasses.asdict(record)) == FIELDS[cls]

    def test_frozen(self, cls, records):
        record = records[cls]
        name = FIELDS[cls][0]
        before = getattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            delattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.not_a_field = 1
        assert getattr(record, name) is before

    def test_repr_is_the_dataclass_repr(self, cls, records):
        record = records[cls]
        reference = dataclasses.make_dataclass(cls.__qualname__, FIELDS[cls], frozen=True)
        assert repr(record) == repr(reference(**values(record)))

    def test_replace_and_equality(self, cls, records):
        record = records[cls]
        copy = dataclasses.replace(record)
        assert copy is not record
        if cls is not Potential:    # whose __post_init__ builds a new tuple
            assert all(getattr(copy, n) is getattr(record, n) for n in FIELDS[cls])
        assert record == record
        if cls in BY_IDENTITY:
            assert copy != record
            assert hash(record) == object.__hash__(record)
        elif cls is RunConfig:      # its lists have no hash
            assert copy == record
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert copy == record and hash(copy) == hash(record)
            assert pickle.loads(pickle.dumps(record)) == record
            changed = {"coeffs": (1.0,)} if cls is Potential else {FIELDS[cls][-1]: "other"}
            assert dataclasses.replace(record, **changed) != record
        assert record != tuple(values(record).values())

    def test_positional_and_keyword_arguments(self, cls, records):
        fields = list(values(records[cls]).values())
        names = FIELDS[cls]
        made = cls(*fields[:1], **dict(zip(names[1:], fields[1:])))
        assert list(vars(made)) == names
        for args, kwargs in [(fields[:-1], {}), (fields + [1], {}),
                             (fields[:-1], {"nope": 1}), (fields, {names[0]: fields[0]})]:
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes each of its "
                                                rf"fields \({', '.join(names)}\) once"):
                cls(*args, **kwargs)


def test_post_init_runs_after_the_fields_are_set():
    # Potential strips trailing zeros, also on replace
    V = Potential([0, 0, 0.5, 0.0])
    assert V.coeffs == (0.0, 0.0, 0.5)
    assert dataclasses.replace(V, coeffs=(1, 0)).coeffs == (1.0,)


def test_keyword_order_does_not_reorder_the_fields():
    result = GapResult(trace=0.1, survival=0.1, log_survival=-2.3, t=3.0)
    assert list(vars(result)) == FIELDS[GapResult]



def test_subclassing_record_alone_declares_a_record():
    # no decorator: the base makes the subclass a dataclass of its
    # annotated fields, with the base's methods
    class Tmp(Record):
        x: int

    assert [f.name for f in dataclasses.fields(Tmp)] == ["x"]
    assert "__init__" not in Tmp.__dict__ and "__eq__" not in Tmp.__dict__
    record = Tmp(1)
    assert repr(record) == "test_subclassing_record_alone_declares_a_record.<locals>.Tmp(x=1)"
    assert dataclasses.asdict(record) == {"x": 1}
    copy = dataclasses.replace(record, x=2)
    assert type(copy) is Tmp and copy.x == 2 and record.x == 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="'x'"):
        record.x = 3
    assert record == Tmp(x=1) and hash(record) == hash(Tmp(x=1))
    assert record != copy
