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
  inequalities can be checked exactly;
* a trace is its assignments and its closes; each server record is derived
  from them on read, never stored, so it cannot disagree with its jobs.

A sequence is four int columns, which its timeline (four more columns, not
one tuple per event), statistics, CSV rows, trace records, validator and
bound checks read; a :class:`Job` is built only from input, to check a row.
A trace's server records are named tuples built only when read, in C by
``tuple.__new__`` over the zipped columns.  ``validate_trace`` does per
server only the work that can find a violation: a one-job server is not
sorted, and the running load sum runs only when the members' sizes add up
past E.  Both readers take their lines from one source, ``text_lines``,
which decodes each line only when it is reached, so a malformed row, or one
larger than a capacity read before it, is named before any later line that
is not UTF-8.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import attrgetter, gt, mul, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Job",
    "CapacityConfig",
    "JobSequence",
    "SequenceStats",
    "ServerRecord",
    "Event",
    "PlacementTrace",
    "Violation",
    "compute_stats",
    "utilization",
    "validate_trace",
    "first_overload",
    "merge_intervals",
    "union_measure",
    "fraction_json",
    "read_sequence_csv",
    "write_sequence_csv",
]

# the event kinds: (phase, carries a job id, carries a server id); within a
# time step depart/release (phase 0) happen strictly before arrive/place/close
EVENT_KINDS = {
    "depart": (0, True, True),
    "release": (0, False, True),
    "arrive": (1, True, False),
    "place": (1, True, True),
    "close": (1, False, True),
}


@dataclass(frozen=True, slots=True)
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


CSV_HEADER = [f.name for f in fields(Job)]


@dataclass(frozen=True, slots=True)
class CapacityConfig:
    """Uniform server capacity in integer units."""

    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError(f"capacity must be >= 1, got {self.e}")


@dataclass(frozen=True)
class JobSequence:
    """Input sequence: four job columns, sorted by (arrival, input position).

    The stable sort serves jobs sharing an arrival step in the order they
    were supplied, so runs reproduce.
    """

    ids: tuple[int, ...]
    sizes: tuple[int, ...]
    arrivals: tuple[int, ...]
    departures: tuple[int, ...]
    capacity: CapacityConfig

    def __init__(self, jobs: Iterable[Job], capacity: CapacityConfig):
        rows = tuple(zip(*map(attrgetter(*CSV_HEADER), jobs))) or ((),) * 4
        vars(self).update(vars(JobSequence.from_columns(*rows, capacity)))

    @classmethod
    def from_columns(cls, ids, sizes, arrivals, departures, capacity) -> JobSequence:
        """The sequence of ``Job(*row)`` for each row of four equal-length columns.

        Checked by column as ``Job`` checks a row, then in arrival order for
        repeated ids and sizes above E; a failed check reruns row by row, so
        the first bad row raises its own message.
        """
        if (min(sizes, default=1) < 1 or min(arrivals, default=0) < 0
                or not all(map(gt, departures, arrivals))):
            list(map(Job, ids, sizes, arrivals, departures))
        order = sorted(range(len(ids)), key=arrivals.__getitem__)
        ids, sizes, arrivals, departures = (tuple(map(column.__getitem__, order))
                                            for column in (ids, sizes, arrivals, departures))
        if len(set(ids)) < len(ids) or max(sizes, default=0) > capacity.e:
            seen: set[int] = set()
            for jid, size in zip(ids, sizes):
                if jid in seen:
                    raise ValueError(f"duplicate job id {jid}")
                seen.add(jid)
                if size > capacity.e:
                    raise ValueError(f"job {jid}: size {size} exceeds capacity {capacity.e}")
        seq = object.__new__(cls)
        vars(seq).update(ids=ids, sizes=sizes, arrivals=arrivals, departures=departures,
                         capacity=capacity)
        return seq

    @cached_property
    def timeline(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...],
                                tuple[bool, ...]]:
        """Columns ``(t, job_id, size, arriving)`` of every departure and arrival, in time order.

        Within a step every departure comes before every arrival, each in
        sequence order: the departures are listed first and one stable index
        sort on ``t`` alone keeps them there.  Each column has 2n entries,
        the jobs' own ints and the two shared bools, so no per-row tuple is
        kept.  Computed once per sequence, so every run over it shares one
        schedule.
        """
        n = len(self.ids)
        times, ids, sizes = self.departures + self.arrivals, self.ids * 2, self.sizes * 2
        order = sorted(range(2 * n), key=times.__getitem__)
        return (tuple(map(times.__getitem__, order)), tuple(map(ids.__getitem__, order)),
                tuple(map(sizes.__getitem__, order)), tuple(map(n.__le__, order)))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, slots=True)
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

    Overlapping, nested and touching intervals merge; segments come out
    sorted.  One pass over the sorted intervals, the open segment held in
    locals until the next interval starts past its end.
    """
    ordered = sorted(intervals)
    if not ordered:
        return []
    merged: list[tuple[int, int]] = []
    seg_start, seg_end = ordered[0]
    for start, end in ordered:
        if start > seg_end:
            merged.append((seg_start, seg_end))
            seg_start, seg_end = start, end
        elif end > seg_end:
            seg_end = end
    merged.append((seg_start, seg_end))
    return merged


def union_measure(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by a set of half-open integer intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def first_overload(rows: Iterable[tuple[int, int, int]], e: int) -> tuple[int, int] | None:
    """The first step at which the total active size exceeds ``e``, and that load.

    Each row is a job's ``(arrival, departure, size)``.  A running sum over
    the steps' size changes, O(k log k) for k rows.  The load rises only at
    arrivals, so the step found is an arrival step.  None when the load
    stays within ``e``.
    """
    change: dict[int, int] = {}
    for arrival, departure, size in rows:
        change[arrival] = change.get(arrival, 0) + size
        change[departure] = change.get(departure, 0) - size
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


def utilization(seq: JobSequence) -> Fraction:
    """Sum of size * length over capacity: the ``util`` lower bound on any cost."""
    lengths = map(sub, seq.departures, seq.arrivals)
    return Fraction(sum(map(mul, seq.sizes, lengths)), seq.capacity.e)


def compute_stats(seq: JobSequence) -> SequenceStats:
    """Compute span, utilization and the length statistics of a sequence."""
    if not seq.ids:
        raise ValueError("empty sequence")
    lengths = list(map(sub, seq.departures, seq.arrivals))
    delta = min(lengths)
    return SequenceStats(
        span=union_measure(zip(seq.arrivals, seq.departures)),
        util=utilization(seq),
        total_size=Fraction(sum(seq.sizes), seq.capacity.e),
        total_length=sum(lengths),
        delta=delta,
        mu=Fraction(max(lengths), delta),
    )


class ServerRecord(NamedTuple):
    """One rented server as its trace derives it: open interval, close mark, jobs.

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


class Event(NamedTuple):
    """One simulation event; kind is arrive, place, close, depart or release."""

    t: int
    kind: str
    job_id: int | None = None
    server_id: int | None = None


@dataclass(frozen=True)
class PlacementTrace:
    """Assignment history of a run; the unit of validation.

    ``assignments`` maps job id to server id in placement order, and
    ``closed_at`` maps server id to the step a strategy closed it; every
    server record follows from these and the jobs' times (:attr:`servers`).
    """

    sequence: JobSequence
    assignments: Mapping[int, int]
    closed_at: Mapping[int, int]
    events: tuple[Event, ...] = ()

    @cached_property
    def servers(self) -> tuple[ServerRecord, ...]:
        """One record per server named in the assignments, in id order.

        A server opens at its first job's arrival and is released at its
        last job's departure; its jobs are listed in placement order.  Jobs
        the sequence does not have are skipped.  Built on first read.
        """
        seq = self.sequence
        arrival_of = dict(zip(seq.ids, seq.arrivals))
        departure_of = dict(zip(seq.ids, seq.departures))
        opened: dict[int, int] = {}
        released: dict[int, int] = {}
        placed: dict[int, list[int]] = {}
        for jid, sid in self.assignments.items():
            if (arrival := arrival_of.get(jid)) is None:
                continue
            departure = departure_of[jid]
            if sid in placed:
                placed[sid].append(jid)
                if arrival < opened[sid]:
                    opened[sid] = arrival
                if departure > released[sid]:
                    released[sid] = departure
            else:
                placed[sid] = [jid]
                opened[sid] = arrival
                released[sid] = departure
        ids = sorted(placed)
        return tuple(map(tuple.__new__, repeat(ServerRecord), zip(
            ids, map(opened.__getitem__, ids), map(released.__getitem__, ids),
            map(self.closed_at.get, ids), map(tuple, map(placed.__getitem__, ids)))))


@dataclass(frozen=True, slots=True)
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

    Server records derive from the assignments, so a job sits in one server
    and a server spans its jobs by construction.  Returns an empty list iff
    every job, and only the sequence's jobs, is assigned; no server sits
    empty before its release, takes a job after its close or exceeds its
    capacity; each close lies in its server's ``[opened_at, released_at)``;
    and the event log is time-monotone, departures/releases before arrivals
    within a step.  A trace with events is also checked against its
    sequence: each job has exactly one arrive and one place row at its
    arrival step and one depart row at its departure step, naming the server
    it was placed in.  Each server of the trace has exactly one release row,
    at its release step, and at most one close row, at its close step; a
    close or release row naming no server of the trace is a violation.
    """
    violations: list[Violation] = []
    seq = trace.sequence
    e = seq.capacity.e
    ids, sizes, arrivals, departures = seq.ids, seq.sizes, seq.arrivals, seq.departures
    servers = trace.servers  # first, so the dicts that derive it are freed before the index
    index = dict(zip(ids, range(len(ids))))  # job id -> position in the columns
    assignments = trace.assignments

    for jid, sid in assignments.items():
        if jid not in index:
            violations.append(Violation("unknown-job-in-server", job_id=jid, server_id=sid))
    for jid in ids:
        if jid not in assignments:
            violations.append(Violation("job-not-assigned", job_id=jid))

    for srv in servers:
        members = list(map(index.__getitem__, srv.jobs))
        if len(members) > 1:
            # in arrival order, a job arriving once every earlier job has
            # departed lands in a server that was empty (departures precede
            # arrivals within a step) and so should have been released
            members.sort(key=arrivals.__getitem__)
            latest_departure = departures[members[0]]
            for i in members[1:]:
                if arrivals[i] >= latest_departure:
                    violations.append(Violation("server-empty-before-release", arrivals[i],
                                                ids[i], srv.id, f"empty since {latest_departure}"))
                    break
                latest_departure = max(latest_departure, departures[i])
        # a job arriving after the close went into a closed server (receiving
        # a job and being closed in one step is allowed)
        if srv.closed_at is not None:
            for i in members:
                if arrivals[i] > srv.closed_at:
                    violations.append(Violation("placement-after-close", arrivals[i], ids[i],
                                                srv.id, f"closed at {srv.closed_at}"))
        # the load can pass E only if the members' sizes add up past it
        if (sum(map(sizes.__getitem__, members)) > e and (overload := first_overload(
                [(arrivals[i], departures[i], sizes[i]) for i in members], e)) is not None):
            violations.append(Violation("capacity-exceeded", time=overload[0], server_id=srv.id,
                                        detail=f"load {overload[1]} > {e}"))

    servers_by_id = {srv.id: srv for srv in servers}
    for sid, t in trace.closed_at.items():
        srv = servers_by_id.get(sid)
        if srv is None or not srv.opened_at <= t < srv.released_at:
            violations.append(Violation("close-outside-rental", time=t, server_id=sid))

    # the log against the trace, in one pass and only when there is a log:
    # time order; each job arrives and is placed at its arrival step and
    # departs from its own server at its departure step, once each; each
    # close and release row names a server of the trace at its close or
    # release step, once, and every server has its release row
    if not trace.events:
        return violations
    logged: dict[str, set[int]] = {kind: set() for kind in EVENT_KINDS}
    prev: tuple[int, int] | None = None
    for t, kind, job_id, server_id in trace.events:
        key = (t, EVENT_KINDS[kind][0])
        if prev is not None and key < prev:
            violations.append(Violation("event-log-out-of-order", time=t, detail=kind))
        prev = key
        if kind == "release" or kind == "close":  # these name only a server
            ref = server_id
            srv = servers_by_id.get(ref)
            if srv is None:
                violations.append(
                    Violation("unknown-server-in-log", time=t, server_id=ref, detail=kind))
                continue
            step = srv.released_at if kind == "release" else srv.closed_at
        else:
            ref = job_id
            i = index.get(ref)
            if i is None:
                violations.append(
                    Violation("unknown-job-in-log", time=t, job_id=ref, detail=kind))
                continue
            step = departures[i] if kind == "depart" else arrivals[i]
        seen = logged[kind]
        if ref in seen:
            violations.append(Violation("event-repeated", time=t, job_id=job_id,
                                        server_id=server_id, detail=kind))
        seen.add(ref)
        if t != step:  # only a close row finds no step: its server was never closed
            where = ("of a server the trace never closed" if step is None
                     else f"expected at {step}")
            violations.append(
                Violation("event-at-wrong-step", time=t, job_id=job_id,
                          server_id=server_id, detail=f"{kind} {where}"))
        if kind == "depart" and server_id != (placed_in := assignments.get(ref)):
            violations.append(
                Violation("depart-from-wrong-server", time=t, job_id=ref,
                          server_id=server_id, detail=f"placed in {placed_in}"))
    for kind in ("arrive", "place", "depart"):
        if len(logged[kind]) != len(index):
            for jid in sorted(index.keys() - logged[kind]):
                violations.append(Violation("event-missing", job_id=jid, detail=kind))
    if len(logged["release"]) != len(servers_by_id):
        for sid in sorted(servers_by_id.keys() - logged["release"]):
            violations.append(Violation("event-missing", server_id=sid, detail="release"))
    return violations


def text_lines(path) -> Iterator[str]:
    """The lines of ``path``, each with its line end, each decoded from UTF-8 when reached.

    Lines are split at LF, CR or CRLF, as ``open(path, newline="")`` splits
    them; a line that is not UTF-8 raises ValueError naming its number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, line in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


def write_sequence_csv(seq: JobSequence, path) -> None:
    """Write the interchange CSV: a capacity comment line, header, one job per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# capacity={seq.capacity.e}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(seq.ids, seq.sizes, seq.arrivals, seq.departures))


def read_sequence_csv(path) -> JobSequence:
    """Read the interchange CSV written by :func:`write_sequence_csv`.

    A malformed line, or one that is not UTF-8, raises ValueError naming its
    line number.  A file has one capacity line, before or after the rows; a
    second one is named with the line of the first.  A row larger than the
    capacity is named when it is read if the capacity line came before it,
    else once every line is read.
    """
    capacity: int | None = None
    capacity_line = 0  # line number of the capacity line, 0 until it is read
    rows: list[Job] = []
    job_line: dict[int, int] = {}  # job id -> line number
    header_seen = False

    def oversized(job: Job) -> ValueError:
        return ValueError(f"line {job_line[job.id]}: job {job.id}: size {job.size} "
                          f"exceeds capacity {capacity}")

    for lineno, line in enumerate(text_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("capacity="):
                if capacity_line:
                    raise ValueError(f"line {lineno}: second capacity line "
                                     f"(first on line {capacity_line})")
                capacity_line = lineno
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
        if capacity is not None and job.size > capacity:
            raise oversized(job)
        rows.append(job)
    if not header_seen:
        raise ValueError("missing header line")
    if capacity is None:
        raise ValueError("missing '# capacity=E' line")
    for job in rows:  # for rows read before the capacity line
        if job.size > capacity:
            raise oversized(job)
    return JobSequence(rows, CapacityConfig(capacity))
