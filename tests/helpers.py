"""Shared test utilities: random sequence strategies and replay oracles.

The replay oracles re-derive placement targets from first principles
(walking the event log and keeping independent occupancy state) so that
engine and strategy behaviour is checked against something other than
itself.  ``reference_simulate`` is the plain engine loop that the
incremental one in ``rentsim.engine`` is compared with, trace for trace, and
``reference_check_mtf_bound`` the per-segment rescan that the one-sweep
``rentsim.bounds.check_mtf_bound`` is compared with, and
``reference_capacity_violations`` the per-arrival load scan that
``rentsim.validate_trace``'s running sum is compared with.
``reference_draw`` is the one-output-at-a-time SplitMix64 loop that the
lane-parallel ``SplitMix64.draw`` is compared with, and
``reference_compute_stats`` the per-job statistics that the column passes of
``rentsim.compute_stats`` are compared with.  ``reference_write_event_csv``
and ``reference_read_event_csv`` are the ``csv``-module writer and per-row
reader that the one-block writer and the column-checked reader in
``rentsim.engine`` are compared with, byte for byte and row for row.
``reference_run_experiment`` is the plain per-cell, per-trial,
per-strategy loop that ``rentsim.run_experiment``'s fold is compared with,
field for field.  ``reference_sequence_jobs`` is the per-row construction
that ``rentsim.JobSequence``'s column checks and column sort are compared
with, message for message and job for job.  ``reference_validate_trace`` is
the record-based validator, over the ``Job`` records ``jobs_of`` builds from
a sequence's columns, that the column-reading ``rentsim.validate_trace`` is
compared with, violation for violation.
"""

from __future__ import annotations

import csv
import statistics
from fractions import Fraction

import hypothesis.strategies as st

from rentsim import (
    ArrivalView,
    CapacityConfig,
    FirstFit,
    InfeasiblePlacementError,
    Job,
    JobSequence,
    PlacementTrace,
    RunResult,
    ServerRecord,
    UniformParams,
    build_strategy,
    gen_uniform,
)
from rentsim.bench import AggregateRow
from rentsim.bounds import BoundEntry
from rentsim.core import (
    EVENT_KINDS,
    Event,
    SequenceStats,
    Violation,
    merge_intervals,
    union_measure,
)
from rentsim.engine import EVENT_HEADER


def jobs_of(seq: JobSequence) -> tuple[Job, ...]:
    """The sequence's rows as ``Job`` records, in sequence order."""
    return tuple(map(Job, seq.ids, seq.sizes, seq.arrivals, seq.departures))


@st.composite
def job_sequences(draw, max_jobs=10, max_e=12, max_time=15, max_length=6, min_jobs=1):
    e = draw(st.integers(1, max_e))
    n = draw(st.integers(min_jobs, max_jobs))
    jobs = []
    for i in range(n):
        size = draw(st.integers(1, e))
        arrival = draw(st.integers(0, max_time))
        length = draw(st.integers(1, max_length))
        jobs.append(Job(i + 1, size, arrival, arrival + length))
    return JobSequence(jobs, CapacityConfig(e))


def reference_sequence_jobs(rows, e: int) -> list[Job]:
    """A sequence's jobs, built row by row: each row a ``Job`` in input order,
    then a stable sort by arrival, then, in that order, the first repeated id
    or size above ``e`` raises ValueError."""
    jobs = sorted((Job(*row) for row in rows), key=lambda job: job.arrival)
    seen = set()
    for job in jobs:
        if job.id in seen:
            raise ValueError(f"duplicate job id {job.id}")
        seen.add(job.id)
        if job.size > e:
            raise ValueError(f"job {job.id}: size {job.size} exceeds capacity {e}")
    return jobs


# seeds of the acceptance battery: BATTERY_SEED + mu * 10_000 + instance index
BATTERY_SEED = 1_000_000


def all_strategy_specs(mu: int) -> list[str]:
    """Every selection string, with the mu-dependent parameters filled in."""
    return ["nf", f"mnf:{mu + 1}", "ff", f"mff:{mu + 7}", "bf", "harmonic:10", "mtf"]


class _ReferenceServer:
    def __init__(self, sid: int, opened_at: int):
        self.id = sid
        self.opened_at = opened_at
        self.closed_at = None
        self.level = 0
        self.resident: set[int] = set()
        self.jobs: list[int] = []
        self.tag = None


def reference_simulate(strategy, seq: JobSequence, *, record_events: bool = True):
    """Differential oracle for ``rentsim.simulate``: the straightforward loop.

    Every arrival builds a fresh view of every placeable server, every step
    scans all live servers for empty ones, and each server keeps the set of
    its resident job ids.  Same contract as ``simulate``; returns the run's
    result and the server records kept by the loop's own bookkeeping, which
    the trace derives from its assignments and closes.
    """
    e = seq.capacity.e
    position = {job.id: idx for idx, job in enumerate(jobs_of(seq))}
    arrivals_at: dict[int, list[Job]] = {}
    departures_at: dict[int, list[Job]] = {}
    for job in jobs_of(seq):
        arrivals_at.setdefault(job.arrival, []).append(job)
        departures_at.setdefault(job.departure, []).append(job)

    live: dict[int, _ReferenceServer] = {}  # insertion order == opening order
    finished: list[_ReferenceServer] = []
    released_at: dict[int, int] = {}
    assignments: dict[int, int] = {}
    events: list[Event] = []
    next_id = 1

    def emit(t, kind, job_id, server_id):
        if record_events:
            events.append(Event(t, kind, job_id, server_id))

    def infeasible(message, t, job, decision):
        return InfeasiblePlacementError(message, time=t, job_id=job.id, decision=decision)

    for t in sorted(set(arrivals_at) | set(departures_at)):
        for job in sorted(departures_at.get(t, ()), key=lambda j: position[j.id]):
            srv = live[assignments[job.id]]
            srv.resident.discard(job.id)
            srv.level -= job.size
            emit(t, "depart", job.id, srv.id)
        for sid in [sid for sid, srv in live.items() if not srv.resident]:
            released_at[sid] = t
            emit(t, "release", None, sid)
            finished.append(live.pop(sid))

        for job in arrivals_at.get(t, ()):
            emit(t, "arrive", job.id, None)
            view = ArrivalView(
                size=job.size,
                servers=tuple(
                    (s.id, s.level, s.tag) for s in live.values() if s.closed_at is None
                ),
            )
            decision = strategy.place(view)
            place_in, close, tag = decision  # by position: any three-item sequence
            for cid in close:
                target = live.get(cid)
                if target is None or target.closed_at is not None:
                    raise infeasible(f"close of unknown or already closed server {cid}",
                                     t, job, decision)
                target.closed_at = t
                emit(t, "close", None, cid)
            if place_in is None:
                srv = _ReferenceServer(next_id, t)
                live[next_id] = srv
                next_id += 1
            else:
                srv = live.get(place_in)
                if srv is None or srv.closed_at is not None:
                    raise infeasible(
                        f"target server {place_in} is not open for placement",
                        t, job, decision)
                if srv.level + job.size > e:
                    raise infeasible(
                        f"server {srv.id} at level {srv.level} cannot take size {job.size}",
                        t, job, decision)
            srv.level += job.size
            srv.resident.add(job.id)
            srv.jobs.append(job.id)
            if tag is not None:
                srv.tag = tag
            assignments[job.id] = srv.id
            emit(t, "place", job.id, srv.id)

    assert not live, "all servers must be released once every job has departed"

    records = tuple(
        ServerRecord(
            id=srv.id,
            opened_at=srv.opened_at,
            released_at=released_at[srv.id],
            closed_at=srv.closed_at,
            jobs=tuple(srv.jobs),
        )
        for srv in sorted(finished, key=lambda s: s.id)
    )
    trace = PlacementTrace(
        sequence=seq, assignments=assignments,
        closed_at={r.id: r.closed_at for r in records if r.closed_at is not None},
        events=tuple(events),
    )
    result = RunResult(
        strategy=strategy.name,
        total_cost=sum(r.stretch for r in records),
        trace=trace,
        servers_opened=len(records),
        critical_count=sum(1 for r in records if r.closed_period > 0),
    )
    return result, records


def with_departures_after(seq: JobSequence, tau: int, departure) -> JobSequence:
    """``seq`` with each departure after step ``tau`` replaced by
    ``departure(job)``, which must also lie after ``tau``."""
    jobs = []
    for job in jobs_of(seq):
        moved = job.departure > tau
        jobs.append(Job(job.id, job.size, job.arrival, departure(job) if moved else job.departure))
        assert not moved or jobs[-1].departure > tau
    return JobSequence(jobs, seq.capacity)


def decided_by(result, tau: int) -> tuple[dict[int, int], dict[int, int]]:
    """What a run had decided by step ``tau``: the server of each job arriving
    at or before ``tau``, and each close at or before ``tau``."""
    arrival = {job.id: job.arrival for job in jobs_of(result.trace.sequence)}
    return ({jid: sid for jid, sid in result.trace.assignments.items() if arrival[jid] <= tau},
            {sid: t for sid, t in result.trace.closed_at.items() if t <= tau})


class PeekingFirstFit:
    """First Fit that gives a job longer than ``limit`` a server of its own.

    A strategy is never shown a departure, so this one cheats: it holds the
    sequence and counts its calls to know which job arrives.  It is the
    stand-in that the online-restriction property must reject.
    """

    name = "peeking-ff"

    def __init__(self, seq: JobSequence, limit: int):
        self.first_fit = FirstFit(seq.capacity.e)
        self.limit = limit
        jobs = {job.id: job for job in jobs_of(seq)}
        _, ids, _, arriving = seq.timeline
        self.arrivals = iter([jobs[jid] for jid, arrives in zip(ids, arriving) if arrives])

    def place(self, view):
        job = next(self.arrivals)
        if job.departure - job.arrival > self.limit:
            return None, (), None
        return self.first_fit.place(view)


def reference_run_experiment(spec) -> list[AggregateRow]:
    """Oracle for ``run_experiment``: each trial's utilization and costs
    computed directly, then exact means and the sample standard deviation."""
    rows = []
    for n in spec.ns:
        for e in spec.es:
            for t in spec.ts:
                for mu in spec.mus:
                    seqs = [gen_uniform(UniformParams(n=n, e=e, t=t, mu=mu,
                                                      seed=spec.seed_base + i))
                            for i in range(spec.trials)]
                    utils = [Fraction(sum(job.size * (job.departure - job.arrival)
                                          for job in jobs_of(seq)), e) for seq in seqs]
                    for name in spec.strategies:
                        costs = [reference_simulate(build_strategy(name, e, mu=mu), seq,
                                                    record_events=False)[0].total_cost
                                 for seq in seqs]
                        ratios = [Fraction(cost) / util for cost, util in zip(costs, utils)]
                        rows.append(AggregateRow(
                            strategy=name, n=n, e=e, t=t, mu=mu, trials=spec.trials,
                            mean_ratio=sum(ratios) / spec.trials,
                            std_ratio=(statistics.stdev([float(r) for r in ratios])
                                       if spec.trials > 1 else 0.0),
                            mean_cost=Fraction(sum(costs)) / spec.trials,
                            mean_util=sum(utils) / spec.trials,
                        ))
    return rows


_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


def randint(rng, lo: int, hi: int) -> int:
    """One uniform integer in [lo, hi] from a ``SplitMix64``: one range drawn."""
    return rng.draw(rng.ranges((lo, hi)))[0]


def next_u64(rng) -> int:
    """The next raw 64-bit output of a ``SplitMix64`` (its full range, never rejected)."""
    return randint(rng, 0, _MASK64)


def reference_draw(state: int, bounds) -> tuple[list[int], int]:
    """Differential oracle for ``SplitMix64.draw``: one rejection-sampled
    value per inclusive ``(lo, hi)``, one generator step at a time.  Returns
    the values and the state after the last step."""
    values = []
    for lo, hi in bounds:
        n = hi - lo + 1
        limit = _TWO64 - _TWO64 % n
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                break
        values.append(lo + z % n)
    return values, state


def reference_compute_stats(seq: JobSequence) -> SequenceStats:
    """Differential oracle for ``compute_stats``: one generator pass per field."""
    e = seq.capacity.e
    lengths = [job.departure - job.arrival for job in jobs_of(seq)]
    delta = min(lengths)
    return SequenceStats(
        span=union_measure((job.arrival, job.departure) for job in jobs_of(seq)),
        util=Fraction(sum(job.size * length for job, length in zip(jobs_of(seq), lengths)), e),
        total_size=Fraction(sum(job.size for job in jobs_of(seq)), e),
        total_length=sum(lengths),
        delta=delta,
        mu=Fraction(max(lengths), delta),
    )


def reference_check_mtf_bound(result, stats) -> BoundEntry:
    """Differential oracle for ``check_mtf_bound``: every segment rescans all
    jobs and all servers.  Same contract and output, for mtf results."""
    seq = result.trace.sequence
    e = seq.capacity.e
    mu1 = stats.mu + 1
    satisfied = True
    total_formula = Fraction(0)
    for start, end in merge_intervals((j.arrival, j.departure) for j in jobs_of(seq)):
        seg_jobs = [j for j in jobs_of(seq) if start <= j.arrival < end]
        seg_util = Fraction(sum(j.size * (j.departure - j.arrival) for j in seg_jobs), e)
        seg_span = end - start
        seg_cost = sum(
            srv.stretch for srv in result.trace.servers if start <= srv.opened_at < end
        )
        seg_bound = 6 * mu1 * seg_util + seg_span + 3 * mu1 * stats.delta
        total_formula += seg_bound
        if seg_cost > seg_bound:
            satisfied = False
    return BoundEntry(
        name="mtf_guarantee",
        formula_value=total_formula,
        cost=Fraction(result.total_cost),
        satisfied=satisfied,
    )


def reference_write_event_csv(events, path) -> None:
    """Differential oracle for ``write_event_csv``: ``csv.writer``, row by row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_HEADER)
        writer.writerows(events)


def reference_read_event_csv(path) -> tuple[Event, ...]:
    """Differential oracle for ``read_event_csv``: one ``csv.reader`` row at a
    time.  The same rows and messages, except that it lets a row carry an id
    its kind does not carry, and names no line for a byte that is not UTF-8."""
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
                events.append(Event(int(t), kind, int(job_id) if job_id else None,
                                    int(server_id) if server_id else None))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return tuple(events)


def reference_capacity_violations(trace) -> list[Violation]:
    """Differential oracle for ``validate_trace``'s capacity check: at each
    arrival step of a server, sum the sizes of its jobs active then.  Same
    ``capacity-exceeded`` violations, in the same order."""
    e = trace.sequence.capacity.e
    jobs_by_id = {job.id: job for job in jobs_of(trace.sequence)}
    violations = []
    for srv in trace.servers:
        members = [jobs_by_id[jid] for jid in srv.jobs if jid in jobs_by_id]
        for t in sorted({job.arrival for job in members}):
            load = sum(job.size for job in members if job.arrival <= t < job.departure)
            if load > e:
                violations.append(Violation("capacity-exceeded", time=t, server_id=srv.id,
                                            detail=f"load {load} > {e}"))
                break
    return violations


def _record_overload(jobs, e: int) -> tuple[int, int] | None:
    """The first step at which the jobs' total active size exceeds ``e``, and that load."""
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


def reference_validate_trace(trace) -> list[Violation]:
    """Differential oracle for ``validate_trace``: the same checks, in the same
    order, over ``Job`` records and ``ServerRecord`` attributes."""
    violations: list[Violation] = []
    seq = trace.sequence
    e = seq.capacity.e
    jobs = jobs_of(seq)
    jobs_by_id = {job.id: job for job in jobs}
    assignments = trace.assignments

    for jid, sid in assignments.items():
        if jid not in jobs_by_id:
            violations.append(Violation("unknown-job-in-server", job_id=jid, server_id=sid))
    for job in jobs:
        if job.id not in assignments:
            violations.append(Violation("job-not-assigned", job_id=job.id))

    for srv in trace.servers:
        members = [jobs_by_id[jid] for jid in srv.jobs]
        if len(members) > 1:
            members.sort(key=lambda job: job.arrival)
            latest_departure = members[0].departure
            for job in members[1:]:
                if job.arrival >= latest_departure:
                    violations.append(Violation("server-empty-before-release", job.arrival,
                                                job.id, srv.id, f"empty since {latest_departure}"))
                    break
                latest_departure = max(latest_departure, job.departure)
        if srv.closed_at is not None:
            for job in members:
                if job.arrival > srv.closed_at:
                    violations.append(Violation("placement-after-close", job.arrival, job.id,
                                                srv.id, f"closed at {srv.closed_at}"))
        overload = _record_overload(members, e)
        if overload is not None:
            violations.append(Violation("capacity-exceeded", time=overload[0], server_id=srv.id,
                                        detail=f"load {overload[1]} > {e}"))

    servers_by_id = {srv.id: srv for srv in trace.servers}
    for sid, t in trace.closed_at.items():
        srv = servers_by_id.get(sid)
        if srv is None or not srv.opened_at <= t < srv.released_at:
            violations.append(Violation("close-outside-rental", time=t, server_id=sid))

    if not trace.events:
        return violations
    logged: dict[str, set[int]] = {kind: set() for kind in EVENT_KINDS}
    prev = None
    for t, kind, job_id, server_id in trace.events:
        key = (t, EVENT_KINDS[kind][0])
        if prev is not None and key < prev:
            violations.append(Violation("event-log-out-of-order", time=t, detail=kind))
        prev = key
        if kind in ("release", "close"):
            ref = server_id
            srv = servers_by_id.get(ref)
            if srv is None:
                violations.append(
                    Violation("unknown-server-in-log", time=t, server_id=ref, detail=kind))
                continue
            step = srv.released_at if kind == "release" else srv.closed_at
        else:
            ref = job_id
            job = jobs_by_id.get(ref)
            if job is None:
                violations.append(
                    Violation("unknown-job-in-log", time=t, job_id=ref, detail=kind))
                continue
            step = job.departure if kind == "depart" else job.arrival
        if ref in logged[kind]:
            violations.append(Violation("event-repeated", time=t, job_id=job_id,
                                        server_id=server_id, detail=kind))
        logged[kind].add(ref)
        if t != step:
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
        for jid in sorted(jobs_by_id.keys() - logged[kind]):
            violations.append(Violation("event-missing", job_id=jid, detail=kind))
    for sid in sorted(servers_by_id.keys() - logged["release"]):
        violations.append(Violation("event-missing", server_id=sid, detail="release"))
    return violations


class ReplayState:
    """Independent occupancy bookkeeping driven by a trace's event log."""

    def __init__(self, seq):
        self.e = seq.capacity.e
        self.jobs = {j.id: j for j in jobs_of(seq)}
        self.level: dict[int, int] = {}
        self.closed: set[int] = set()
        self.order: list[int] = []  # opening order of currently open servers

    def depart(self, ev):
        self.level[ev.server_id] -= self.jobs[ev.job_id].size

    def release(self, ev):
        del self.level[ev.server_id]
        self.closed.discard(ev.server_id)
        self.order.remove(ev.server_id)

    def close(self, ev):
        self.closed.add(ev.server_id)

    def place(self, ev):
        if ev.server_id not in self.level:
            self.level[ev.server_id] = 0
            self.order.append(ev.server_id)
        self.level[ev.server_id] += self.jobs[ev.job_id].size

    def open_candidates(self) -> list[int]:
        """Placeable servers (open, not closed) in opening order."""
        return [sid for sid in self.order if sid not in self.closed]

    def fits(self, sid: int, size: int) -> bool:
        return self.level[sid] + size <= self.e


class FirstFitOracle:
    def predict(self, state: ReplayState, job) -> int | None:
        for sid in state.open_candidates():
            if state.fits(sid, job.size):
                return sid
        return None


class NextFitOracle:
    def predict(self, state: ReplayState, job) -> int | None:
        candidates = state.open_candidates()
        assert len(candidates) <= 1, "next fit must keep a single placeable server"
        if candidates and state.fits(candidates[0], job.size):
            return candidates[0]
        return None


class BestFitOracle:
    def predict(self, state: ReplayState, job) -> int | None:
        best = None
        for sid in state.open_candidates():  # opening order settles level ties
            if state.fits(sid, job.size):
                if best is None or state.level[sid] > state.level[best]:
                    best = sid
        return best


class MoveToFrontOracle:
    """Keeps its own recency list; releases drop entries without reordering."""

    def __init__(self):
        self.order: list[int] = []

    def predict(self, state: ReplayState, job) -> int | None:
        self.order = [sid for sid in self.order if sid in state.level]
        for sid in self.order:
            if state.fits(sid, job.size):
                return sid
        return None

    def placed(self, state: ReplayState, ev) -> None:
        if ev.server_id in self.order:
            self.order.remove(ev.server_id)
        self.order.insert(0, ev.server_id)


def replay_check_placements(result, oracle) -> ReplayState:
    """Walk a run's events and assert every placement matches the oracle.

    The oracle's ``predict(state, job)`` returns the expected server id, or
    None for "open a new server"; ``placed(state, event)``, when present,
    lets it track the id the engine assigned to a new server.
    """
    seq = result.trace.sequence
    state = ReplayState(seq)
    for ev in result.trace.events:
        if ev.kind == "depart":
            state.depart(ev)
        elif ev.kind == "release":
            state.release(ev)
        elif ev.kind == "close":
            state.close(ev)
        elif ev.kind == "place":
            job = state.jobs[ev.job_id]
            expected = oracle.predict(state, job)
            actual = ev.server_id if ev.server_id in state.level else None
            assert actual == expected, (
                f"job {ev.job_id} at t={ev.t}: engine placed in {ev.server_id}, "
                f"oracle expected {expected if expected is not None else 'a new server'}"
            )
            state.place(ev)
            if hasattr(oracle, "placed"):
                oracle.placed(state, ev)
    return state


# collected by the acceptance tests; echoed in the terminal summary by conftest
ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(name: str, ok: bool, detail: str = "") -> str:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_VERDICTS.append(line)
    print(f"[acceptance] {line}", flush=True)
    return line


def pointwise_span(jobs) -> int:
    """Span oracle: count integer steps covered by at least one job."""
    covered = set()
    for job in jobs:
        covered.update(range(job.arrival, job.departure))
    return len(covered)


def exact_ratio(cost, util) -> Fraction:
    return Fraction(cost) / Fraction(util)
