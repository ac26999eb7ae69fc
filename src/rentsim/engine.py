"""Deterministic online simulation loop.

The engine owns all timing: it feeds arrivals to a strategy, applies the
returned placement, and processes departures and releases itself.  A
strategy only ever sees :class:`ArrivalView` values, which carry no
departure or length information, so the online restriction is impossible
to violate by construction.  Departures reach strategies only indirectly,
as level changes of (or the disappearance of) servers in later views.

Views are kept per server change, not built per arrival: the engine holds
one :class:`ServerView` per placeable server and replaces it only when that
server receives a job, loses a job while it stays open, or is closed or
released.  An arrival's view is a copy of that table, and a step's releases
come from the departures that empty a server, so no step scans every live
server.

Per-server state is plain lists indexed by server id (opening time, release
and close times, level, tag), not one object per server.  Sizes are at least
1, so a server is empty exactly when its level is 0; every id a strategy
names is checked against the placeable servers, never by list bounds.  The
step schedule is the sequence's cached
:attr:`~rentsim.core.JobSequence.timeline`, shared by every run over it, and
views and decisions are ``frozen_record`` values built positionally.  The
result's cost, server count, critical count, assignments and events are
computed when the run ends.  The trace's ``ServerRecord``s are built on
first read from the time lists (a server's jobs are the ``assignments``
entries naming it, in insertion order), and ``RunResult.per_server`` is
derived from those records on its first read, so a caller that reads only
the cost never pays for either.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Protocol

from .core import (
    EVENT_KINDS,
    Event,
    JobSequence,
    PlacementTrace,
    ServerRecord,
    frozen_record,
)

__all__ = [
    "ArrivalView",
    "ServerView",
    "Decision",
    "RunResult",
    "InfeasiblePlacementError",
    "PlacementStrategy",
    "simulate",
    "write_event_csv",
    "read_event_csv",
    "trace_from_events",
]

EVENT_HEADER = ["t", "kind", "job_id", "server_id"]


@frozen_record
class ServerView:
    """What a strategy may know about one open server.

    ``tag`` is an opaque value owned by the strategy: it is set via
    :class:`Decision` and echoed back unchanged on every later view.
    Strategies use it for stream labels, size classes, or recency stamps.
    """

    id: int
    level: int
    tag: Hashable = None


@frozen_record
class ArrivalView:
    """The arriving job and the current placeable servers, in opening order.

    Contains no departure or length information by construction.  Closed
    servers (Next Fit family) are excluded: they are never valid targets.
    """

    job_id: int
    size: int
    time: int
    servers: tuple[ServerView, ...]


@frozen_record
class Decision:
    """Strategy output: place into an open server, or open a new one.

    ``place_in`` of ``None`` means open a new server.  ``close`` lists
    servers the strategy abandons (it will never place into them again);
    the engine records the close but keeps renting them until released.
    ``tag`` is stored on the receiving server and echoed in later views.
    """

    place_in: int | None = None
    close: tuple[int, ...] = ()
    tag: Hashable = None


class PlacementStrategy(Protocol):
    """Interface every placement strategy implements."""

    name: str

    def reset(self) -> None: ...

    def place(self, view: ArrivalView) -> Decision: ...


class InfeasiblePlacementError(Exception):
    """A strategy returned a decision the engine cannot apply."""

    def __init__(self, message: str, *, time: int, job_id: int, decision: Decision):
        super().__init__(f"infeasible placement: {message}")
        self.time = time
        self.job_id = job_id
        self.decision = decision


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation run.

    ``critical_count`` is the number of servers closed before release.
    """

    strategy: str
    total_cost: int
    trace: PlacementTrace
    servers_opened: int
    critical_count: int

    @cached_property
    def per_server(self) -> tuple[tuple[int, int, int], ...]:
        """(server id, stretch, closed period) for every server, in id order."""
        return tuple((srv.id, srv.stretch, srv.closed_period) for srv in self.trace.servers)


def simulate(
    strategy: PlacementStrategy, seq: JobSequence, *, record_events: bool = True
) -> RunResult:
    """Run one strategy over one sequence and return cost, trace and per-server data.

    Event times are processed in increasing order; within a time step all
    departures (and the releases they trigger) happen before any arrival.
    A server whose last resident departs is released at that exact step and
    its id is never reused.  The run is deterministic: identical inputs
    produce identical traces.

    Raises :class:`InfeasiblePlacementError` if the strategy targets a
    missing, closed, or over-full server; the engine never repairs a
    decision silently.
    """
    e = seq.capacity.e
    place = strategy.place
    # module names used per job, bound once
    server_view, arrival_view, event = ServerView, ArrivalView, Event
    # per-server state, indexed by server id; ids count up from 1 in opening
    # order, so index 0 is padding.  Sizes are >= 1: a server is empty
    # exactly when its level is 0.
    opened_at: list = [None]
    released_at: list = [None]
    closed_at: list = [None]
    level: list = [0]
    tag: list = [None]
    # placeable servers only; insertion order == opening order, and replacing
    # an entry keeps its place.  Every id check goes through it: plain list
    # indexing would accept 0, a negative id or a closed or released server.
    views: dict[int, ServerView] = {}
    assignments: dict[int, int] = {}
    events: list[Event] = []

    for t, departures, arrivals in seq.timeline:
        if departures:
            emptied: list[int] = []
            for job in departures:
                sid = assignments[job.id]
                lvl = level[sid] = level[sid] - job.size
                if record_events:
                    events.append(event(t, "depart", job.id, sid))
                if not lvl:
                    emptied.append(sid)
                elif closed_at[sid] is None:
                    views[sid] = server_view(sid, lvl, tag[sid])
            if len(emptied) > 1:
                emptied.sort()  # ids ascend in opening order
            for sid in emptied:
                released_at[sid] = t
                views.pop(sid, None)
                if record_events:
                    events.append(event(t, "release", None, sid))

        for job in arrivals:
            if record_events:
                events.append(event(t, "arrive", job.id, None))
            decision = place(arrival_view(job.id, job.size, t, tuple(views.values())))
            for cid in decision.close:
                if cid not in views:
                    raise InfeasiblePlacementError(
                        f"close of unknown or already closed server {cid}",
                        time=t, job_id=job.id, decision=decision)
                closed_at[cid] = t
                del views[cid]
                if record_events:
                    events.append(event(t, "close", None, cid))
            sid = decision.place_in
            if sid is None:
                sid = len(level)
                opened_at.append(t)
                released_at.append(None)
                closed_at.append(None)
                level.append(job.size)
                tag.append(decision.tag)
            else:
                if sid not in views:
                    raise InfeasiblePlacementError(
                        f"target server {sid} is not open for placement",
                        time=t, job_id=job.id, decision=decision)
                if level[sid] + job.size > e:
                    raise InfeasiblePlacementError(
                        f"server {sid} at level {level[sid]} cannot take size {job.size}",
                        time=t, job_id=job.id, decision=decision)
                level[sid] += job.size
                if decision.tag is not None:
                    tag[sid] = decision.tag
            views[sid] = server_view(sid, level[sid], tag[sid])
            assignments[job.id] = sid
            if record_events:
                events.append(event(t, "place", job.id, sid))

    del opened_at[0], released_at[0], closed_at[0]
    assert None not in released_at, "every server is released once its jobs depart"

    return RunResult(
        strategy=strategy.name,
        total_cost=sum(released_at) - sum(opened_at),
        trace=PlacementTrace.unread((opened_at, released_at, closed_at), sequence=seq,
                                    assignments=assignments, events=tuple(events)),
        servers_opened=len(opened_at),
        critical_count=sum(c is not None and r > c for r, c in zip(released_at, closed_at)),
    )


def write_event_csv(events, path) -> None:
    """Emit the event log, one line per event, for debugging and trace diffing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_HEADER)
        writer.writerows((ev.t, ev.kind, ev.job_id, ev.server_id) for ev in events)


def read_event_csv(path) -> tuple[Event, ...]:
    """Read an event log written by :func:`write_event_csv`.

    A row with an unknown kind, a field count other than four, a missing
    id its kind requires (``EVENT_KINDS``), or a non-integer number raises
    ValueError naming its line number.
    """
    events: list[Event] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENT_HEADER:
            raise ValueError(f"bad event header {header!r}, expected {EVENT_HEADER}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(EVENT_HEADER):
                raise ValueError(
                    f"line {reader.line_num}: expected {len(EVENT_HEADER)} fields, "
                    f"got {len(row)}"
                )
            t, kind, job_id, server_id = row
            spec = EVENT_KINDS.get(kind)
            if spec is None:
                raise ValueError(f"line {reader.line_num}: unknown event kind {kind!r}")
            _, needs_job, needs_server = spec
            if needs_job and not job_id or needs_server and not server_id:
                missing = "job" if needs_job and not job_id else "server"
                raise ValueError(
                    f"line {reader.line_num}: {kind} event without a {missing} id"
                )
            try:
                events.append(
                    Event(
                        int(t),
                        kind,
                        int(job_id) if job_id else None,
                        int(server_id) if server_id else None,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return tuple(events)


def trace_from_events(seq: JobSequence, events: tuple[Event, ...]) -> PlacementTrace:
    """Rebuild a trace from a sequence plus its event log (for replay validation)."""
    opened_at: dict[int, int] = {}
    closed_at: dict[int, int] = {}
    released: dict[int, int] = {}
    jobs: dict[int, list[int]] = {}
    assignments: dict[int, int] = {}
    for ev in events:
        if ev.kind == "place":
            if ev.server_id not in opened_at:
                opened_at[ev.server_id] = ev.t
                jobs[ev.server_id] = []
            jobs[ev.server_id].append(ev.job_id)
            assignments[ev.job_id] = ev.server_id
        elif ev.kind == "close":
            closed_at[ev.server_id] = ev.t
        elif ev.kind == "release":
            released[ev.server_id] = ev.t
    records = tuple(
        ServerRecord(
            id=sid,
            opened_at=opened_at[sid],
            released_at=released.get(sid, opened_at[sid]),
            closed_at=closed_at.get(sid),
            jobs=tuple(jobs[sid]),
        )
        for sid in sorted(opened_at)
    )
    return PlacementTrace(
        sequence=seq, assignments=assignments, servers=records, events=events
    )
