"""Deterministic online simulation loop.

The engine owns all timing: it feeds arrivals to a strategy, applies the
returned placement, and processes departures and releases itself.  A
strategy only ever sees :class:`ArrivalView` values, which carry no
departure or length information, so the online restriction is impossible
to violate by construction.  Departures reach strategies only indirectly,
as level changes of (or the disappearance of) servers in later views.

One live view per run: the engine holds one ``(id, level, tag)`` tuple per
placeable server in a dict, replaced only when that server gains or loses a
job or is closed or released, and its one :class:`ArrivalView` shows that
dict's ``values()``; each arrival sets the view's size, so a view is valid
only while ``place`` runs.  A placeable server's tag lives only in its view
entry.

A run is one loop over the sequence's cached
:attr:`~rentsim.core.JobSequence.timeline`, four columns ``(t, job_id,
size, arriving)`` with one entry per departure and arrival and every
departure of a step before its arrivals, shared by every run over it; the
loop zips the columns, and ``zip`` reuses its row tuple, so a row costs no
allocation.  A departure that empties a server releases it at once, so no
step scans every live server; when events are recorded, a step's release
rows follow its depart rows, in id order, and precede its arrive rows.

Per-server state is one plain list of levels indexed by server id, not one
object per server, and a dict of the closed servers' close steps.  Sizes
are at least 1, so a server is empty exactly when its level is 0; every id a
strategy names is checked against the placeable servers, never by list
bounds.  The cost is a running sum: each opening subtracts its step and each
release adds its step.  A decision is a ``(place_in, close, tag)`` triple,
unpacked once, by position, so any three-item sequence serves; events are
named tuples built by ``tuple.__new__`` in C, read by unpacking in
``validate_trace`` and by kind first in :func:`trace_from_events`; a server
in a view is a plain tuple.
The trace is the run's assignments (in placement order), its closes and its
events; the trace derives its ``ServerRecord``s on first read from the
assignments and the jobs' times, so a caller that reads only the cost never
pays for them.

The event log is written as one block of rows, each formatted once, byte
for byte what ``csv.writer`` writes for them.  It is read back in bounded
blocks, each checked against one pattern and converted by column; if any
line fails that pattern or does not decode, the blocks read are dropped and
a ``csv.reader`` loop reads the whole file again from line 1, accepting
what ``csv`` accepts and naming the first bad line.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Protocol

from .core import EVENT_KINDS, Event, JobSequence, PlacementTrace, text_lines

__all__ = [
    "ArrivalView",
    "RunResult",
    "InfeasiblePlacementError",
    "PlacementStrategy",
    "simulate",
    "write_event_csv",
    "read_event_csv",
    "trace_from_events",
]

EVENT_HEADER = list(Event._fields)
_HEADER_LINE = ",".join(EVENT_HEADER) + "\n"
# characters per block of read_event_csv; a block then runs to its line's end.
# A block's cells live until it is converted: a 1000-job log read as one
# block raised a battery unit's peak RSS by 1.7 MB, while 8k-character
# blocks read it about 12% slower than one block and add no peak RSS
EVENT_BLOCK_CHARS = 1 << 13
# rows read_event_csv converts by column: a time, then a kind with exactly
# the ids it carries (EVENT_KINDS), in ASCII digits, each row ending in "\n"
_PLAIN_ROWS = re.compile("(?:[0-9]+,(?:%s)\n)*" % "|".join(
    f"{kind},{'[0-9]+' if has_job else ''},{'[0-9]+' if has_server else ''}"
    for kind, (_, has_job, has_server) in EVENT_KINDS.items()))


class ArrivalView:
    """The arriving job's size and the current placeable servers, in opening order.

    ``servers`` is a read-only, live iterable with a length, of plain
    ``(id, level, tag)`` tuples.  ``tag`` is an opaque value owned by the
    strategy: it is set by a decision's third item and echoed back unchanged
    on every later view.  Strategies use it for stream labels, size classes,
    or recency stamps.  :func:`simulate` updates one view per run in place,
    so a view is valid only while ``place`` runs.

    Carries no job id, time, departure or length by construction.  Closed
    servers (Next Fit family) are excluded: they are never valid targets.
    """

    __slots__ = ("size", "servers")

    def __init__(self, size: int, servers: Iterable):
        self.size = size
        self.servers = servers


class PlacementStrategy(Protocol):
    """Interface every placement strategy implements.

    ``place`` answers each arrival with a ``(place_in, close, tag)`` triple:
    ``place_in`` is the open server to place into, or ``None`` to open a new
    one; ``close`` lists servers the strategy abandons (it will never place
    into them again), which the engine records but keeps renting until
    released; ``tag`` is stored on the receiving server and echoed in later
    views, except that ``None`` leaves an open server's tag as it was.
    """

    name: str

    def place(self, view: ArrivalView) -> tuple: ...


class InfeasiblePlacementError(Exception):
    """A strategy returned a decision the engine cannot apply, kept as a plain triple."""

    def __init__(self, message: str, *, time: int, job_id: int, decision: tuple):
        super().__init__(f"infeasible placement: {message}")
        self.time = time
        self.job_id = job_id
        self.decision = tuple(decision)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation run.

    ``critical_count`` is the number of servers closed, each before release.
    """

    strategy: str
    total_cost: int
    trace: PlacementTrace
    servers_opened: int
    critical_count: int


def _release_rows(t: int, sids: list[int]) -> list[Event]:
    """One step's release rows, in id (= opening) order."""
    return [tuple.__new__(Event, (t, "release", None, sid)) for sid in sorted(sids)]


def simulate(
    strategy: PlacementStrategy, seq: JobSequence, *, record_events: bool = True
) -> RunResult:
    """Run one strategy over one sequence and return its cost and trace.

    Event times are processed in increasing order, in one pass over the
    zipped columns of ``seq.timeline``; within a time step all departures
    (and the releases they trigger) happen before any arrival.
    A server whose last resident departs is released at that exact step and
    its id is never reused.  The run is deterministic: identical inputs
    produce identical traces.

    Raises :class:`InfeasiblePlacementError` if the strategy targets a
    missing, closed, or over-full server; the engine never repairs a
    decision silently.
    """
    e = seq.capacity.e
    place = strategy.place
    # event rows are built by tuple.__new__ in C, not by the named tuple's
    # Python-level __new__
    new = tuple.__new__
    # per-server state, indexed by server id; ids count up from 1 in opening
    # order, so index 0 is padding.  Sizes are >= 1: a server is empty
    # exactly when its level is 0.
    level: list = [0]
    closed: dict[int, int] = {}
    cost = 0
    # placeable servers only, each entry (id, level, tag) the one copy of its
    # tag; insertion order == opening order, and replacing an entry keeps its
    # place.  Every id check goes through it: plain list indexing would accept
    # 0, a negative id or a closed or released server.
    views: dict[int, tuple] = {}
    view = ArrivalView(None, views.values())
    assignments: dict[int, int] = {}
    events: list[Event] = []
    # servers released at step released_t, recorded only with the events: their
    # rows follow the step's depart rows and precede its arrive rows
    released: list[int] = []
    released_t = None

    for t, jid, size, arriving in zip(*seq.timeline):
        if released and (arriving or t != released_t):
            events += _release_rows(released_t, released)
            released.clear()
        if not arriving:
            sid = assignments[jid]
            lvl = level[sid] = level[sid] - size
            if record_events:
                events.append(new(Event, (t, "depart", jid, sid)))
            if not lvl:
                cost += t
                views.pop(sid, None)
                if record_events:
                    released.append(sid)
                    released_t = t
            elif entry := views.get(sid):  # not closed
                views[sid] = (sid, lvl, entry[2])
            continue

        view.size = size
        if record_events:
            events.append(new(Event, (t, "arrive", jid, None)))
        sid, close, tag = decision = place(view)
        if close:  # most decisions close nothing; the test costs less than an empty loop
            for cid in close:
                if cid not in views:
                    raise InfeasiblePlacementError(
                        f"close of unknown or already closed server {cid}",
                        time=t, job_id=jid, decision=decision)
                closed[cid] = t
                del views[cid]
                if record_events:
                    events.append(new(Event, (t, "close", None, cid)))
        if sid is None:
            sid = len(level)
            cost -= t
            level.append(size)
            views[sid] = (sid, size, tag)
        else:
            entry = views.get(sid)
            if entry is None:
                raise InfeasiblePlacementError(
                    f"target server {sid} is not open for placement",
                    time=t, job_id=jid, decision=decision)
            lvl = level[sid] + size
            if lvl > e:
                raise InfeasiblePlacementError(
                    f"server {sid} at level {level[sid]} cannot take size {size}",
                    time=t, job_id=jid, decision=decision)
            level[sid] = lvl
            views[sid] = (sid, lvl, entry[2] if tag is None else tag)
        assignments[jid] = sid
        if record_events:
            events.append(new(Event, (t, "place", jid, sid)))
    events += _release_rows(released_t, released)

    return RunResult(
        strategy=strategy.name,
        total_cost=cost,
        trace=PlacementTrace(seq, assignments, closed, tuple(events)),
        servers_opened=len(level) - 1,
        critical_count=len(closed),
    )


def write_event_csv(events, path) -> None:
    """Emit the event log, one line per event, for debugging and trace diffing.

    Each row is formatted once, an absent id as an empty field, and the rows
    are written as one block: the bytes ``csv.writer`` writes for them, as
    no field of an event holds a comma, a quote or a line break.
    """
    block = "".join([
        f"{t},{kind},{'' if job_id is None else job_id},"
        f"{'' if server_id is None else server_id}\n"
        for t, kind, job_id, server_id in events])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER_LINE)
        fh.write(block)


def read_event_csv(path) -> tuple[Event, ...]:
    """Read an event log written by :func:`write_event_csv`.

    A row with an unknown kind, a field count other than four, a missing
    id its kind requires or an id its kind does not carry (``EVENT_KINDS``),
    or a non-integer number raises ValueError naming its line number; so
    does a byte that is not UTF-8.

    The rows are read in blocks of about ``EVENT_BLOCK_CHARS`` characters,
    each checked by one pattern and converted by column
    (:func:`_block_events`), so a plain log is read in bounded memory.  If
    the header line is not exactly ``t,kind,job_id,server_id`` and a
    newline, or a block holds any other line, or a byte does not decode,
    what was read is dropped and the ``csv.reader`` loop
    (:func:`_csv_events`) reads the file from line 1: it accepts what
    ``csv`` accepts (quoted fields, CRLF line ends, blank lines) and names
    the first bad line.
    """
    events: list[Event] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if fh.readline() == _HEADER_LINE:
                while block := fh.read(EVENT_BLOCK_CHARS):
                    block += fh.readline()  # to the end of the block's last line
                    parsed = _block_events(block if block[-1] == "\n" else block + "\n")
                    if parsed is None:
                        break
                    events += parsed
                else:
                    return tuple(events)
    except UnicodeDecodeError:
        pass
    return tuple(_csv_events(text_lines(path)))


def _block_events(block: str) -> list[Event] | None:
    """The events of a block of plain rows, each ending in a newline, or None.

    None unless every row is a time, a kind and exactly the ids that kind
    carries, as ASCII digits (``_PLAIN_ROWS``); the rows are then converted
    by column, each distinct number once.
    """
    if _PLAIN_ROWS.fullmatch(block) is None:
        return None
    cells = block.replace("\n", ",").split(",")
    cells.pop()  # after the last newline
    ts, kinds, job_ids, server_ids = cells[0::4], cells[1::4], cells[2::4], cells[3::4]
    numbers = set(ts).union(job_ids, server_ids)
    numbers.discard("")
    try:
        value = dict(zip(numbers, map(int, numbers)))
    except ValueError:  # more digits than int reads
        return None
    value[""] = None  # an absent id
    get = value.__getitem__
    return list(map(tuple.__new__, repeat(Event),
                    zip(map(get, ts), kinds, map(get, job_ids), map(get, server_ids))))


def _csv_events(lines: Iterable[str]) -> list[Event]:
    """The ``csv.reader`` loop over a log's ``lines``, header first.

    Raises ValueError naming the first bad line.
    """
    events: list[Event] = []
    new = tuple.__new__
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != EVENT_HEADER:
        raise ValueError(f"bad event header {header!r}, expected {EVENT_HEADER}")
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != len(EVENT_HEADER):
            raise ValueError(
                f"line {lineno}: expected {len(EVENT_HEADER)} fields, got {len(row)}")
        t, kind, job_id, server_id = row
        spec = EVENT_KINDS.get(kind)
        if spec is None:
            raise ValueError(f"line {lineno}: unknown event kind {kind!r}")
        _, needs_job, needs_server = spec
        if needs_job and not job_id or needs_server and not server_id:
            missing = "job" if needs_job and not job_id else "server"
            raise ValueError(f"line {lineno}: {kind} event without a {missing} id")
        if job_id and not needs_job or server_id and not needs_server:
            extra = "job" if job_id and not needs_job else "server"
            raise ValueError(f"line {lineno}: {kind} event with a {extra} id")
        try:
            events.append(new(Event, (int(t), kind, int(job_id) if job_id else None,
                                      int(server_id) if server_id else None)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return events


def trace_from_events(seq: JobSequence, events: tuple[Event, ...]) -> PlacementTrace:
    """Rebuild a trace from a sequence plus its event log (for replay validation).

    The place rows give the assignments and the close rows the closes; the
    trace derives every server record from those.
    """
    assignments: dict[int, int] = {}
    closed_at: dict[int, int] = {}
    for ev in events:
        kind = ev.kind  # arrive and depart rows, most of the log, need no other field
        if kind == "place":
            assignments[ev.job_id] = ev.server_id
        elif kind == "close":
            closed_at[ev.server_id] = ev.t
    return PlacementTrace(seq, assignments, closed_at, events)
