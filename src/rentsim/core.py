"""Domain types for the online server-renting simulator.

Jobs are sized, timed demands placed into servers of uniform capacity E.
A rented server accrues cost for the whole interval it is open, so the
objective is total rental time, not server count.

Conventions used throughout the package:

* all times are integer steps and job intervals are half-open
  ``[arrival, departure)``: a job departing at t frees capacity at t;
* sizes are integers in capacity units, ``1 <= size <= E``;
* ratio statistics (utilization, total size, max/min length ratio) are
  exact ``fractions.Fraction`` values, never floats, so that bound
  inequalities can be checked exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import sys
from dataclasses import MISSING, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

__all__ = [
    "frozen_record",
    "Job",
    "CapacityConfig",
    "JobSequence",
    "SequenceStats",
    "ServerRecord",
    "Event",
    "PlacementTrace",
    "Violation",
    "compute_stats",
    "validate_trace",
    "first_overload",
    "merge_intervals",
    "union_measure",
    "fraction_json",
    "read_sequence_csv",
    "write_sequence_csv",
]

CSV_HEADER = ["id", "size", "arrival", "departure"]

# the event kinds: (phase, carries a job id, carries a server id); within a
# time step depart/release (phase 0) happen strictly before arrive/place/close
EVENT_KINDS = {
    "depart": (0, True, True),
    "release": (0, False, True),
    "arrive": (1, True, False),
    "place": (1, True, True),
    "close": (1, False, True),
}


def frozen_record(cls):
    """``dataclass(frozen=True, slots=True)``, its ``__init__`` storing through the slots.

    The ``__init__`` that dataclasses generates for a frozen class stores each
    field with ``object.__setattr__``; this one calls each slot descriptor's
    ``__set__`` instead, which is cheaper and equally bypasses the frozen
    ``__setattr__``.  Signature, defaults and the ``__post_init__`` call are
    those of the dataclass ``__init__``; fields, eq, hash, repr, pickling and
    ``FrozenInstanceError`` on assignment are untouched.  A field this
    ``__init__`` cannot honour (a ``default_factory``, ``init=False`` or an
    ``InitVar``) raises TypeError.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(
                f"frozen_record {cls.__name__}.{f.name}: "
                "default_factory and init=False are not supported"
            )
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if [p.name for p in params] != [f.name for f in fields]:
        raise TypeError(
            f"frozen_record {cls.__name__}: __init__ parameters must be its fields "
            "in order (InitVar is not supported)"
        )
    # generated as dataclasses does: exec'd source, with closure cells for
    # the slot setters and the defaults
    closure: dict[str, object] = {}
    args: list[str] = []
    body: list[str] = []
    for p in params:
        if p.kind is p.KEYWORD_ONLY and "*" not in args:
            args.append("*")
        if p.default is p.empty:
            args.append(p.name)
        else:
            closure[f"_dflt_{p.name}"] = p.default
            args.append(f"{p.name}=_dflt_{p.name}")
        closure[f"_set_{p.name}"] = cls.__dict__[p.name].__set__
        body.append(f"  _set_{p.name}(self, {p.name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    txt = (
        f"def __create_fn__({', '.join(closure)}):\n"
        f" def __init__({', '.join(['self', *args])}):\n"
        + "\n".join(body or ["  pass"])
        + "\n return __init__"
    )
    ns: dict[str, object] = {}
    exec(txt, sys.modules[cls.__module__].__dict__, ns)
    init = ns["__create_fn__"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


@frozen_record
class Job:
    """One demand: occupies ``size`` capacity units during [arrival, departure)."""

    id: int
    size: int
    arrival: int
    departure: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"job {self.id}: size must be >= 1, got {self.size}")
        if self.arrival < 0:
            raise ValueError(f"job {self.id}: arrival must be >= 0, got {self.arrival}")
        if self.departure <= self.arrival:
            raise ValueError(
                f"job {self.id}: departure {self.departure} must exceed arrival {self.arrival}"
            )

    @property
    def length(self) -> int:
        return self.departure - self.arrival


@frozen_record
class CapacityConfig:
    """Uniform server capacity in integer units."""

    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError(f"capacity must be >= 1, got {self.e}")


@dataclass(frozen=True)
class JobSequence:
    """Input sequence, stored sorted by (arrival, input position).

    The stable sort means jobs sharing an arrival step are served in the
    order they were supplied, which is what makes runs reproducible.
    """

    jobs: tuple[Job, ...]
    capacity: CapacityConfig

    def __init__(self, jobs: Iterable[Job], capacity: CapacityConfig):
        ordered = tuple(sorted(jobs, key=lambda j: j.arrival))
        seen: set[int] = set()
        for job in ordered:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
            if job.size > capacity.e:
                raise ValueError(
                    f"job {job.id}: size {job.size} exceeds capacity {capacity.e}"
                )
        object.__setattr__(self, "jobs", ordered)
        object.__setattr__(self, "capacity", capacity)

    @cached_property
    def timeline(self) -> tuple[tuple[int, tuple[Job, ...], tuple[Job, ...]], ...]:
        """``(t, departures, arrivals)`` for every step with an event, in time order.

        Both tuples list jobs in sequence order.  Computed once per sequence,
        so every run over it shares one schedule.
        """
        arrivals_at: dict[int, list[Job]] = {}
        departures_at: dict[int, list[Job]] = {}
        for job in self.jobs:
            arrivals_at.setdefault(job.arrival, []).append(job)
            departures_at.setdefault(job.departure, []).append(job)
        return tuple(
            (t, tuple(departures_at.get(t, ())), tuple(arrivals_at.get(t, ())))
            for t in sorted(arrivals_at.keys() | departures_at.keys())
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)


@frozen_record
class SequenceStats:
    """Derived statistics of a sequence; the lower bounds and bound-formula inputs.

    span          measure of the union of all job intervals
    util          sum of size * length over capacity (exact rational)
    total_size    sum of sizes over capacity (exact rational)
    total_length  sum of job lengths
    delta         minimum job length
    mu            max length / min length (exact rational, >= 1)
    """

    span: int
    util: Fraction
    total_size: Fraction
    total_length: int
    delta: int
    mu: Fraction


def merge_intervals(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximal disjoint segments covering a set of half-open integer intervals.

    Overlapping, nested and touching intervals merge; segments come out sorted.
    """
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def union_measure(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by a set of half-open integer intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def first_overload(jobs: Iterable[Job], e: int) -> tuple[int, int] | None:
    """The first step at which the jobs' total active size exceeds ``e``, and that load.

    A running sum over the steps' size changes, O(k log k) for k jobs.  The
    load rises only at arrivals, so the step found is an arrival step.  None
    when the load stays within ``e``.
    """
    change: dict[int, int] = {}
    for job in jobs:
        change[job.arrival] = change.get(job.arrival, 0) + job.size
        change[job.departure] = change.get(job.departure, 0) - job.size
    load = 0
    for t in sorted(change):
        load += change[t]
        if load > e:
            return t, load
    return None


def fraction_json(value: Fraction | int) -> int | str:
    """An exact rational for JSON: an int when integral, else the string ``p/q``."""
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else str(frac)


def compute_stats(seq: JobSequence) -> SequenceStats:
    """Compute span, utilization and the length statistics of a sequence."""
    if not seq.jobs:
        raise ValueError("empty sequence")
    e = seq.capacity.e
    lengths = [job.length for job in seq.jobs]
    delta = min(lengths)
    return SequenceStats(
        span=union_measure((job.arrival, job.departure) for job in seq.jobs),
        util=Fraction(sum(job.size * job.length for job in seq.jobs), e),
        total_size=Fraction(sum(job.size for job in seq.jobs), e),
        total_length=sum(lengths),
        delta=delta,
        mu=Fraction(max(lengths), delta),
    )


@frozen_record
class ServerRecord:
    """One rented server: open interval, optional close mark, and its jobs.

    ``closed_at`` is set only by strategies that stop placing into a server
    (the Next Fit family); a closed server keeps accruing cost until
    released.  ``jobs`` lists job ids in placement order.
    """

    id: int
    opened_at: int
    released_at: int
    closed_at: int | None
    jobs: tuple[int, ...]

    @property
    def stretch(self) -> int:
        return self.released_at - self.opened_at

    @property
    def closed_period(self) -> int:
        """Length of the close-to-release period (0 when never closed)."""
        if self.closed_at is None:
            return 0
        return self.released_at - self.closed_at


@frozen_record
class Event:
    """One simulation event; kind is arrive, place, close, depart or release."""

    t: int
    kind: str
    job_id: int | None = None
    server_id: int | None = None


@dataclass(frozen=True)
class PlacementTrace:
    """Full assignment history of a run; the unit of validation.

    A trace made by :meth:`unread` holds plain-data ``_columns`` in place of
    ``servers`` and builds the records on first read.  Python calls
    ``__getattr__`` only for a name missing from the instance dict, so a
    constructed trace never reaches it, and equality, ``repr``, ``copy``,
    ``pickle`` and ``dataclasses.replace`` behave as for a constructed trace.
    """

    sequence: JobSequence
    assignments: Mapping[int, int]
    servers: tuple[ServerRecord, ...]
    events: tuple[Event, ...] = ()

    @classmethod
    def unread(cls, columns: tuple, **fields) -> PlacementTrace:
        """A trace holding ``fields``, its ``servers`` left to the first read.

        ``columns`` are the per-server opening, release and close times, ids
        counting up from 1; a server's jobs are the ``assignments`` entries
        naming it, in insertion order, which is placement order.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(fields, _columns=columns)
        return obj

    def __getattr__(self, name: str):
        state = self.__dict__
        if name != "servers" or "_columns" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        opened_at, released_at, closed_at = state["_columns"]
        jobs: list[list[int]] = [[] for _ in opened_at]
        for jid, sid in self.assignments.items():
            jobs[sid - 1].append(jid)
        servers = state["servers"] = tuple(map(
            ServerRecord, range(1, len(jobs) + 1), opened_at, released_at, closed_at,
            map(tuple, jobs)))
        del state["_columns"]
        return servers


@frozen_record
class Violation:
    """One broken invariant, naming what failed, when, and which ids."""

    invariant: str
    time: int | None = None
    job_id: int | None = None
    server_id: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.invariant]
        if self.time is not None:
            parts.append(f"t={self.time}")
        if self.job_id is not None:
            parts.append(f"job={self.job_id}")
        if self.server_id is not None:
            parts.append(f"server={self.server_id}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def validate_trace(trace: PlacementTrace) -> list[Violation]:
    """Check every trace invariant; violations are data, not errors.

    Returns an empty list iff the trace satisfies: unique assignment of
    every job, per-server capacity at all times, release at the last
    departure, stretch >= minimum job length, and a time-monotone event
    log with departures/releases ordered before arrivals within a step.
    A trace with events is also checked against its sequence: each job has
    exactly one arrive and one place row at its arrival step and one depart
    row at its departure step, naming the server it was placed in.  Each
    server of the trace has exactly one release row, at its release step,
    and at most one close row, at its close step; a close or release row
    naming no server of the trace is a violation.
    """
    violations: list[Violation] = []
    seq = trace.sequence
    e = seq.capacity.e
    jobs_by_id = {job.id: job for job in seq.jobs}

    # assignment completeness and agreement with server job lists
    placed: dict[int, int] = {}
    for srv in trace.servers:
        for jid in srv.jobs:
            if jid in placed:
                violations.append(
                    Violation("job-in-multiple-servers", job_id=jid, server_id=srv.id)
                )
            placed[jid] = srv.id
            if jid not in jobs_by_id:
                violations.append(
                    Violation("unknown-job-in-server", job_id=jid, server_id=srv.id)
                )
    for job in seq.jobs:
        assigned = trace.assignments.get(job.id)
        if assigned is None:
            violations.append(Violation("job-not-assigned", job_id=job.id))
        elif placed.get(job.id) != assigned:
            violations.append(
                Violation("assignment-mismatch", job_id=job.id, server_id=assigned)
            )

    delta = min((job.length for job in seq.jobs), default=1)
    for srv in trace.servers:
        members = [jobs_by_id[jid] for jid in srv.jobs if jid in jobs_by_id]
        if not members:
            violations.append(Violation("empty-server", server_id=srv.id))
            continue
        # in arrival order, a job arriving once every earlier job has departed
        # lands in a server that was empty (departures precede arrivals within
        # a step) and so should have been released; a job arriving after the
        # close went into a closed server (receiving a job and being closed in
        # one step is allowed)
        members.sort(key=lambda job: job.arrival)
        latest_departure = members[0].departure
        for job in members[1:]:
            if job.arrival >= latest_departure:
                violations.append(
                    Violation(
                        "server-empty-before-release",
                        time=job.arrival,
                        job_id=job.id,
                        server_id=srv.id,
                        detail=f"empty since {latest_departure}",
                    )
                )
                break
            latest_departure = max(latest_departure, job.departure)
        if srv.closed_at is not None:
            for job in members:
                if job.arrival > srv.closed_at:
                    violations.append(
                        Violation(
                            "placement-after-close",
                            time=job.arrival,
                            job_id=job.id,
                            server_id=srv.id,
                            detail=f"closed at {srv.closed_at}",
                        )
                    )
        if (overload := first_overload(members, e)) is not None:
            violations.append(
                Violation(
                    "capacity-exceeded",
                    time=overload[0],
                    server_id=srv.id,
                    detail=f"load {overload[1]} > {e}",
                )
            )
        last_departure = max(job.departure for job in members)
        if srv.released_at != last_departure:
            violations.append(
                Violation(
                    "release-not-at-last-departure",
                    time=srv.released_at,
                    server_id=srv.id,
                    detail=f"last departure {last_departure}",
                )
            )
        if srv.stretch < delta:
            violations.append(
                Violation(
                    "stretch-below-minimum-length",
                    server_id=srv.id,
                    detail=f"stretch {srv.stretch} < {delta}",
                )
            )

    # the log against the trace, in one pass and only when there is a log:
    # time order; each job arrives and is placed at its arrival step and
    # departs from its own server at its departure step, once each; each
    # close and release row names a server of the trace at its close or
    # release step, once, and every server has its release row
    if not trace.events:
        return violations
    servers_by_id = {srv.id: srv for srv in trace.servers}
    logged: dict[str, set[int]] = {kind: set() for kind in EVENT_KINDS}
    assignments = trace.assignments
    prev: tuple[int, int] | None = None
    for ev in trace.events:
        t, kind = ev.t, ev.kind
        key = (t, EVENT_KINDS[kind][0])
        if prev is not None and key < prev:
            violations.append(Violation("event-log-out-of-order", time=t, detail=kind))
        prev = key
        if kind == "release" or kind == "close":  # these name only a server
            ref = ev.server_id
            srv = servers_by_id.get(ref)
            if srv is None:
                violations.append(
                    Violation("unknown-server-in-log", time=t, server_id=ref, detail=kind))
                continue
            step = srv.released_at if kind == "release" else srv.closed_at
        else:
            ref = ev.job_id
            job = jobs_by_id.get(ref)
            if job is None:
                violations.append(
                    Violation("unknown-job-in-log", time=t, job_id=ref, detail=kind))
                continue
            step = job.departure if kind == "depart" else job.arrival
        seen = logged[kind]
        if ref in seen:
            violations.append(Violation("event-repeated", time=t, job_id=ev.job_id,
                                        server_id=ev.server_id, detail=kind))
        seen.add(ref)
        if t != step:
            violations.append(
                Violation("event-at-wrong-step", time=t, job_id=ev.job_id,
                          server_id=ev.server_id, detail=f"{kind} expected at {step}"))
        if kind == "depart" and ev.server_id != (placed_in := assignments.get(ref)):
            violations.append(
                Violation("depart-from-wrong-server", time=t, job_id=ref,
                          server_id=ev.server_id, detail=f"placed in {placed_in}"))
    for kind in ("arrive", "place", "depart"):
        if len(logged[kind]) != len(jobs_by_id):
            for jid in sorted(jobs_by_id.keys() - logged[kind]):
                violations.append(Violation("event-missing", job_id=jid, detail=kind))
    if len(logged["release"]) != len(servers_by_id):
        for sid in sorted(servers_by_id.keys() - logged["release"]):
            violations.append(Violation("event-missing", server_id=sid, detail="release"))
    return violations


def write_sequence_csv(seq: JobSequence, path) -> None:
    """Write the interchange CSV: a capacity comment line, header, one job per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# capacity={seq.capacity.e}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for job in seq.jobs:
            writer.writerow([job.id, job.size, job.arrival, job.departure])


def read_sequence_csv(path) -> JobSequence:
    """Read the interchange CSV written by :func:`write_sequence_csv`.

    A malformed line raises ValueError naming its line number.
    """
    capacity: int | None = None
    rows: list[Job] = []
    job_line: dict[int, int] = {}  # job id -> line number
    header_seen = False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("capacity="):
                    value = body.split("=", 1)[1]
                    try:
                        capacity = int(value)
                    except ValueError:
                        raise ValueError(
                            f"line {lineno}: capacity {value!r} is not an integer"
                        ) from None
                    try:
                        CapacityConfig(capacity)
                    except ValueError as exc:
                        raise ValueError(f"line {lineno}: {exc}") from None
                continue
            fields = next(csv.reader([line]))
            if not header_seen:
                if fields != CSV_HEADER:
                    raise ValueError(
                        f"line {lineno}: bad header {fields!r}, expected {CSV_HEADER}"
                    )
                header_seen = True
                continue
            if len(fields) != len(CSV_HEADER):
                raise ValueError(
                    f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(fields)}"
                )
            try:
                job = Job(*(int(v) for v in fields))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if job.id in job_line:
                raise ValueError(
                    f"line {lineno}: duplicate job id {job.id} (first on line "
                    f"{job_line[job.id]})"
                )
            job_line[job.id] = lineno
            rows.append(job)
    if not header_seen:
        raise ValueError("missing header line")
    if capacity is None:
        raise ValueError("missing '# capacity=E' line")
    for job in rows:  # the capacity line may follow the rows
        if job.size > capacity:
            raise ValueError(
                f"line {job_line[job.id]}: job {job.id}: size {job.size} "
                f"exceeds capacity {capacity}"
            )
    return JobSequence(rows, CapacityConfig(capacity))
