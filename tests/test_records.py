"""The contract of rentsim's value records.

Every record is immutable and slotted, built the same way by keyword and by
position, hashable and picklable.  The cold records are frozen slotted
dataclasses; ``Event``, built once per event row, is a named tuple.  A
strategy's decision is no record but a plain ``(place_in, close, tag)``
triple (pinned in ``test_engine``).  ``ArrivalView`` is no record: the engine
updates one view in place for every arrival of a run (pinned in
``test_engine``).
"""

from __future__ import annotations

import dataclasses
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

import rentsim
from rentsim import (
    AdversaryParams,
    BoundEntry,
    CapacityConfig,
    Job,
    JobSequence,
    SequenceStats,
    ServerRecord,
    UniformParams,
)
from rentsim.core import Event, Violation

# every record with positional arguments for all of its fields
RECORDS = {
    Job: (1, 3, 0, 5),
    CapacityConfig: (10,),
    SequenceStats: (5, Fraction(18, 5), Fraction(11, 10), 10, 2, Fraction(2)),
    ServerRecord: (1, 0, 6, 3, (1, 2)),
    Event: (3, "place", 1, 2),
    Violation: ("capacity-exceeded", 2, None, 1, "load 11 > 10"),
    BoundEntry: ("lb_span", Fraction(5), Fraction(7), True),
    UniformParams: (100, 1000, 1000, 10, 7, 2, 500),
    AdversaryParams: (Fraction(1, 4), 3, 2, 1, "ff", 16),
}
NAMED_TUPLES = {Event}
SRC = Path(rentsim.__file__).parent


def fields_and_defaults(cls) -> list[tuple[str, object]]:
    """Each field's name and default (``dataclasses.MISSING`` when it has none)."""
    if cls in NAMED_TUPLES:
        return [(name, cls._field_defaults.get(name, dataclasses.MISSING))
                for name in cls._fields]
    return [(f.name, f.default) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_its_contract(cls):
    args = RECORDS[cls]
    fields = fields_and_defaults(cls)
    obj = cls(*args)
    assert tuple(getattr(obj, name) for name, _ in fields) == args
    assert not hasattr(obj, "__dict__")

    by_keyword = cls(**{name: value for (name, _), value in zip(fields, args)})
    assert by_keyword == obj and hash(by_keyword) == hash(obj)
    required = tuple(v for (_, d), v in zip(fields, args) if d is dataclasses.MISSING)
    assert tuple(getattr(cls(*required), name) for name, _ in fields) == (
        required + tuple(d for _, d in fields[len(required):]))
    if len(required) < len(args):
        assert cls(*required) != obj

    frozen = AttributeError if cls in NAMED_TUPLES else FrozenInstanceError
    for name, _ in fields:
        with pytest.raises(frozen):
            setattr(obj, name, None)
        with pytest.raises(frozen):
            delattr(obj, name)
    again = pickle.loads(pickle.dumps(obj))
    assert again == obj and type(again) is cls


# each case's id is the one pytest gives it by position: Job-args0, Job-args1, ...
REJECTED = [
    (Job, (1, 0, 0, 5), "job 1: size must be >= 1, got 0"),
    (Job, (1, 3, -1, 4), "job 1: arrival must be >= 0, got -1"),
    (Job, (1, 3, 5, 5), "job 1: departure 5 must exceed arrival 5"),
    (CapacityConfig, (0,), "capacity must be >= 1, got 0"),
    (UniformParams, (0, 1000, 1000, 10, 7), "n must be >= 1, got 0"),
    (UniformParams, (10, 1000, 10, 10, 7), "t must exceed mu, got t=10 mu=10"),
    (UniformParams, (10, 10, 1000, 10, 7, 1, 11), "bad size range [1, 11] for capacity 10"),
]


@pytest.mark.parametrize("cls, args, message", REJECTED,
                         ids=[f"{cls.__name__}-args{i}" for i, (cls, _, _) in enumerate(REJECTED)])
def test_frozen_record_post_init_still_rejects(cls, args, message):
    with pytest.raises(ValueError) as error:
        cls(*args)
    assert str(error.value) == message


@pytest.mark.parametrize("bad, message", [
    ((2, 0, 0, 5), "job 2: size must be >= 1, got 0"),
    ((2, 3, -1, 4), "job 2: arrival must be >= 0, got -1"),
    ((2, 3, 5, 5), "job 2: departure 5 must exceed arrival 5"),
])
def test_job_columns_raise_the_first_bad_rows_message(bad, message):
    # a good row before the bad one and a row failing every check after it
    rows = [(1, 3, 0, 5), bad, (3, 0, -1, -2)]
    ids, sizes, arrivals, departures = (list(col) for col in zip(*rows))
    with pytest.raises(ValueError) as error:
        JobSequence.from_columns(ids, sizes, arrivals, departures, CapacityConfig(10))
    assert str(error.value) == message


def test_frozen_record_post_init_may_normalise_a_field():
    params = AdversaryParams("1/4", 3, 2, 1, "ff", 16)
    assert params.eps == Fraction(1, 4) and type(params.eps) is Fraction


def test_every_dataclass_is_frozen_and_no_source_is_executed():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    decorators = [d for text in sources.values()
                  for d in re.findall(r"@dataclass(?:\([^)]*\))?", text)]
    assert decorators and all("frozen=True" in d for d in decorators), decorators
    slotted = {
        (stem, name)
        for stem, text in sources.items()
        for name in re.findall(r"@dataclass\(frozen=True, slots=True\)\nclass (\w+)", text)
    }
    assert slotted == {(cls.__module__.rsplit(".", 1)[1], cls.__name__)
                       for cls in RECORDS if cls not in NAMED_TUPLES}
    assert not [stem for stem, text in sources.items() if "exec(" in text]
