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
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from rentsim import (
    ArrivalView,
    CapacityConfig,
    InfeasiblePlacementError,
    Job,
    JobSequence,
    PlacementTrace,
    RunResult,
    ServerRecord,
    ServerView,
)
from rentsim.bounds import BoundEntry
from rentsim.core import Event, Violation, merge_intervals


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
    its resident job ids.  Same contract and output as ``simulate``.
    """
    e = seq.capacity.e
    position = {job.id: idx for idx, job in enumerate(seq.jobs)}
    arrivals_at: dict[int, list[Job]] = {}
    departures_at: dict[int, list[Job]] = {}
    for job in seq.jobs:
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
                job_id=job.id,
                size=job.size,
                time=t,
                servers=tuple(
                    ServerView(s.id, s.level, s.tag)
                    for s in live.values()
                    if s.closed_at is None
                ),
            )
            decision = strategy.place(view)
            for cid in decision.close:
                target = live.get(cid)
                if target is None or target.closed_at is not None:
                    raise infeasible(f"close of unknown or already closed server {cid}",
                                     t, job, decision)
                target.closed_at = t
                emit(t, "close", None, cid)
            if decision.place_in is None:
                srv = _ReferenceServer(next_id, t)
                live[next_id] = srv
                next_id += 1
            else:
                srv = live.get(decision.place_in)
                if srv is None or srv.closed_at is not None:
                    raise infeasible(
                        f"target server {decision.place_in} is not open for placement",
                        t, job, decision)
                if srv.level + job.size > e:
                    raise infeasible(
                        f"server {srv.id} at level {srv.level} cannot take size {job.size}",
                        t, job, decision)
            srv.level += job.size
            srv.resident.add(job.id)
            srv.jobs.append(job.id)
            if decision.tag is not None:
                srv.tag = decision.tag
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
        sequence=seq, assignments=assignments, servers=records, events=tuple(events)
    )
    return RunResult(
        strategy=strategy.name,
        total_cost=sum(r.stretch for r in records),
        trace=trace,
        servers_opened=len(records),
        critical_count=sum(1 for r in records if r.closed_period > 0),
    )


def reference_check_mtf_bound(result, stats) -> BoundEntry:
    """Differential oracle for ``check_mtf_bound``: every segment rescans all
    jobs and all servers.  Same contract and output, for mtf results."""
    seq = result.trace.sequence
    e = seq.capacity.e
    mu1 = stats.mu + 1
    satisfied = True
    total_formula = Fraction(0)
    for start, end in merge_intervals((j.arrival, j.departure) for j in seq.jobs):
        seg_jobs = [j for j in seq.jobs if start <= j.arrival < end]
        seg_util = Fraction(sum(j.size * j.length for j in seg_jobs), e)
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


def reference_capacity_violations(trace) -> list[Violation]:
    """Differential oracle for ``validate_trace``'s capacity check: at each
    arrival step of a server, sum the sizes of its jobs active then.  Same
    ``capacity-exceeded`` violations, in the same order."""
    e = trace.sequence.capacity.e
    jobs_by_id = {job.id: job for job in trace.sequence.jobs}
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


class ReplayState:
    """Independent occupancy bookkeeping driven by a trace's event log."""

    def __init__(self, seq):
        self.e = seq.capacity.e
        self.jobs = {j.id: j for j in seq.jobs}
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
