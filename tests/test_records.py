"""``core.frozen_record`` against plain ``dataclass(frozen=True, slots=True)`` twins.

Each decorated class is compiled a second time from its own source under the
plain decorator, so the twin has the same body, methods and
``__post_init__``; everything observable except the speed of ``__init__``
must agree.
"""

from __future__ import annotations

import __future__
import dataclasses
import inspect
import pickle
import re
import sys
from dataclasses import InitVar, field
from fractions import Fraction
from pathlib import Path

import pytest

import rentsim
from rentsim import (
    AdversaryParams,
    ArrivalView,
    BoundEntry,
    CapacityConfig,
    Decision,
    Job,
    SequenceStats,
    ServerRecord,
    ServerView,
    UniformParams,
)
from rentsim.core import Event, Violation, frozen_record

# every frozen record with positional arguments for all of its fields
RECORDS = {
    Job: (1, 3, 0, 5),
    CapacityConfig: (10,),
    SequenceStats: (5, Fraction(18, 5), Fraction(11, 10), 10, 2, Fraction(2)),
    ServerRecord: (1, 0, 6, 3, (1, 2)),
    Event: (3, "place", 1, 2),
    Violation: ("capacity-exceeded", 2, None, 1, "load 11 > 10"),
    ServerView: (1, 6, "small"),
    ArrivalView: (4, 3, 7, (ServerView(1, 6), ServerView(2, 1, 9))),
    Decision: (2, (1,), 5),
    BoundEntry: ("lb_span", Fraction(5), Fraction(7), True),
    UniformParams: (100, 1000, 1000, 10, 7, 2, 500),
    AdversaryParams: (Fraction(1, 4), 3, 2, 1, "ff", 16),
}
SRC = Path(rentsim.__file__).parent


def plain_twin(cls):
    """``cls`` recompiled from its source under ``dataclass(frozen=True, slots=True)``."""
    source = inspect.getsource(cls).replace(
        "@frozen_record", "@dataclass(frozen=True, slots=True)", 1
    )
    namespace = dict(vars(sys.modules[cls.__module__]), dataclass=dataclasses.dataclass)
    code = compile(source, f"<twin of {cls.__name__}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[cls.__name__]


def field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_every_frozen_slotted_dataclass_is_a_frozen_record():
    declared = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in re.findall(r"@frozen_record\nclass (\w+)", path.read_text())
    }
    assert declared == {(cls.__module__.rsplit(".", 1)[1], cls.__name__) for cls in RECORDS}
    assert not [p.name for p in SRC.glob("*.py") if "slots=True)\nclass" in p.read_text()]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_record_matches_plain_dataclass(cls):
    twin = plain_twin(cls)
    args = RECORDS[cls]
    fields, twin_fields = dataclasses.fields(cls), dataclasses.fields(twin)
    assert [(f.name, f.type, f.default) for f in fields] == [
        (f.name, f.type, f.default) for f in twin_fields
    ]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert cls.__slots__ == twin.__slots__

    obj, twin_obj = cls(*args), twin(*args)
    assert field_values(obj) == field_values(twin_obj) == args
    assert not hasattr(obj, "__dict__")
    assert repr(obj) == repr(twin_obj)
    by_keyword = cls(**{f.name: value for f, value in zip(fields, args)})
    assert by_keyword == obj and hash(by_keyword) == hash(obj) == hash(twin_obj)
    required = tuple(v for f, v in zip(fields, args) if f.default is dataclasses.MISSING)
    assert field_values(cls(*required)) == field_values(twin(*required))
    if len(required) < len(args):
        assert cls(*required) != obj

    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    again = pickle.loads(pickle.dumps(obj))
    assert again == obj and type(again) is cls


@pytest.mark.parametrize("cls, args", [
    (Job, (1, 0, 0, 5)),
    (Job, (1, 3, -1, 4)),
    (Job, (1, 3, 5, 5)),
    (CapacityConfig, (0,)),
    (UniformParams, (0, 1000, 1000, 10, 7)),
    (UniformParams, (10, 1000, 10, 10, 7)),
    (UniformParams, (10, 10, 1000, 10, 7, 1, 11)),
], ids=lambda v: getattr(v, "__name__", None))
def test_frozen_record_post_init_still_rejects(cls, args):
    with pytest.raises(ValueError) as twin_error:
        plain_twin(cls)(*args)
    with pytest.raises(ValueError, match=re.escape(str(twin_error.value))):
        cls(*args)


def test_frozen_record_post_init_may_normalise_a_field():
    params = AdversaryParams("1/4", 3, 2, 1, "ff", 16)
    assert params.eps == Fraction(1, 4) and type(params.eps) is Fraction


@pytest.mark.parametrize("annotation, value", [
    (list, field(default_factory=list)),
    (int, field(default=0, init=False)),
    (InitVar[int], 0),
], ids=["default_factory", "init=False", "InitVar"])
def test_frozen_record_refuses_fields_it_cannot_store(annotation, value):
    body = type("Refused", (), {"__annotations__": {"x": annotation}, "x": value,
                                "__module__": __name__})
    with pytest.raises(TypeError, match="frozen_record"):
        frozen_record(body)
