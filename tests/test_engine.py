from __future__ import annotations

import copy
import dataclasses
import pickle
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from rentsim import (
    AdversaryParams,
    ArrivalView,
    CapacityConfig,
    ExperimentSpec,
    InfeasiblePlacementError,
    Job,
    JobSequence,
    ServerRecord,
    UniformParams,
    brute_force_opt,
    build_strategy,
    check_mtf_bound,
    compute_stats,
    gen_adversarial,
    gen_uniform,
    read_sequence_csv,
    run_experiment,
    simulate,
    validate_trace,
    write_sequence_csv,
)
from rentsim import core, engine
from rentsim.core import utilization
from rentsim.engine import read_event_csv, trace_from_events, write_event_csv
from rentsim.strategies import BestFit, FirstFit, MoveToFront, NextFit

from helpers import (
    BATTERY_SEED,
    PeekingFirstFit,
    all_strategy_specs,
    decided_by,
    job_sequences,
    jobs_of,
    reference_read_event_csv,
    reference_simulate,
    reference_write_event_csv,
    with_departures_after,
)


class Shown(NamedTuple):
    """What a view showed while ``place`` ran; the engine reuses the view itself."""

    size: int
    servers: tuple


class SpyStrategy:
    """Wraps a strategy; records every view it is shown, the view object and each decision."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.views: list[Shown] = []
        self.objects: list[ArrivalView] = []
        self.decisions: list[tuple] = []

    def place(self, view):
        self.views.append(Shown(view.size, tuple(view.servers)))
        self.objects.append(view)
        decision = self.inner.place(view)
        self.decisions.append(decision)
        return decision


def test_next_fit_trace_on_three_job_instance(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    assert result.total_cost == 7
    assert result.servers_opened == 2
    assert result.critical_count == 1
    first, second = result.trace.servers
    assert (first.opened_at, first.closed_at, first.released_at) == (1, 3, 6)
    assert first.jobs == (1, 2)
    assert (second.opened_at, second.closed_at, second.released_at) == (3, None, 5)
    assert second.jobs == (3,)
    assert [(s.id, s.stretch, s.closed_period) for s in result.trace.servers] == [
        (1, 5, 3), (2, 2, 0)]
    kinds = [(e.t, e.kind) for e in result.trace.events]
    assert (3, "close") in kinds
    assert validate_trace(result.trace) == []


@pytest.mark.parametrize("make", [NextFit, FirstFit, BestFit, MoveToFront])
def test_single_job_costs_its_length(make):
    seq = JobSequence([Job(1, 4, 3, 11)], CapacityConfig(10))
    result = simulate(make(10), seq)
    assert result.servers_opened == 1
    assert result.total_cost == 8


def test_first_fit_and_best_fit_differ_on_third_job():
    seq = JobSequence(
        [Job(1, 5, 0, 10), Job(2, 7, 1, 10), Job(3, 3, 2, 10)], CapacityConfig(10)
    )
    ff = simulate(FirstFit(10), seq)
    bf = simulate(BestFit(10), seq)
    assert ff.trace.assignments[3] == 1  # earliest-opened server, level 5 -> 8
    assert bf.trace.assignments[3] == 2  # fullest server, level 7 -> 10


def test_departures_processed_before_arrivals_within_step():
    # job 2 departs at t=4 exactly when job 3 arrives: the freed capacity
    # must be visible, so First Fit reuses server 1 instead of opening one
    seq = JobSequence(
        [Job(1, 4, 0, 9), Job(2, 6, 0, 4), Job(3, 6, 4, 9)], CapacityConfig(10)
    )
    result = simulate(FirstFit(10), seq)
    assert result.servers_opened == 1
    assert result.total_cost == 9


def test_emptied_server_is_released_and_never_reused():
    seq = JobSequence([Job(1, 5, 0, 2), Job(2, 5, 3, 5)], CapacityConfig(10))
    result = simulate(FirstFit(10), seq)
    assert result.servers_opened == 2
    assert [s.released_at for s in result.trace.servers] == [2, 5]
    assert result.total_cost == 4


def test_simulate_is_deterministic_and_a_reused_strategy_repeats_its_run(
        three_job_instance):
    strategy = MoveToFront(10)
    first = simulate(strategy, three_job_instance)
    second = simulate(strategy, three_job_instance)
    assert first == second


def test_a_reused_strategy_matches_a_fresh_one(three_job_instance):
    fresh = simulate(NextFit(10), three_job_instance)
    strategy = NextFit(10)
    simulate(strategy, three_job_instance)
    assert simulate(strategy, three_job_instance) == fresh


@given(job_sequences(max_jobs=8), job_sequences(max_jobs=8))
def test_interleaved_runs_of_one_strategy_match_independent_runs(seq_a, seq_b):
    cap = max(seq_a.capacity.e, seq_b.capacity.e)
    strategy = BestFit(cap)
    seq_a = JobSequence(jobs_of(seq_a), CapacityConfig(cap))
    seq_b = JobSequence(jobs_of(seq_b), CapacityConfig(cap))
    first = simulate(strategy, seq_a)
    second = simulate(strategy, seq_b)
    assert first == simulate(BestFit(cap), seq_a)
    assert second == simulate(BestFit(cap), seq_b)


def test_views_carry_no_departure_information(three_job_instance):
    spy = SpyStrategy(FirstFit(10))
    simulate(spy, three_job_instance)
    assert ArrivalView.__slots__ == ("size", "servers")
    # each placeable server is exactly (id, level, tag); First Fit sets no tag
    assert [view.servers for view in spy.views] == [(), ((1, 3, None),), ((1, 7, None),)]
    # slots forbid smuggling extra attributes onto a view
    with pytest.raises((AttributeError, TypeError)):
        spy.objects[0].departure = 99


class _Nesting:
    """First Fit that starts a whole First Fit run from inside its first ``place``."""

    name = "nesting"

    def __init__(self, seq):
        self.seq = seq
        self.inner_runs: list[SpyStrategy] = []

    def place(self, view):
        shown = (view.size, tuple(view.servers))
        if not self.inner_runs:
            self.inner_runs.append(SpyStrategy(FirstFit(self.seq.capacity.e)))
            simulate(self.inner_runs[0], self.seq)
        assert (view.size, tuple(view.servers)) == shown
        return FirstFit(self.seq.capacity.e).place(view)


def test_each_run_updates_one_view_of_its_own(three_job_instance):
    servers = ((1, 6, None), (2, 1, 9))
    for view in (ArrivalView(3, servers), ArrivalView(size=3, servers=servers)):
        assert (view.size, view.servers) == (3, servers)
    first, second = SpyStrategy(FirstFit(10)), SpyStrategy(FirstFit(10))
    simulate(first, three_job_instance)
    simulate(second, three_job_instance)
    for spy in (first, second):
        assert len(spy.objects) == 3 and all(obj is spy.objects[0] for obj in spy.objects)
    assert first.objects[0] is not second.objects[0]
    # a run started inside another run's place gets its own view, and the
    # outer view still shows the outer arrival when it returns
    outer = SpyStrategy(_Nesting(three_job_instance))
    result = simulate(outer, three_job_instance)
    inner = outer.inner.inner_runs[0]
    assert inner.objects[0] is not outer.objects[0]
    assert outer.views == inner.views == first.views
    assert result.trace == simulate(FirstFit(10), three_job_instance).trace


def test_view_levels_reflect_departures():
    seq = JobSequence(
        [Job(1, 6, 0, 3), Job(2, 2, 1, 9), Job(3, 5, 4, 9)], CapacityConfig(10)
    )
    spy = SpyStrategy(FirstFit(10))
    simulate(spy, seq)
    last_view = spy.views[-1]  # what the last view showed while place ran
    assert len(spy.views) == 3 and last_view.size == 5  # job 3, arriving at t=4
    assert [level for _, level, _ in last_view.servers] == [2]  # job 1 already gone


def test_simultaneous_releases_come_in_opening_order():
    # at t=5 job 2 (server 2) departs before job 3 (server 1) in input
    # order, yet server 1 was opened first and is released first
    seq = JobSequence(
        [Job(1, 6, 0, 3), Job(2, 6, 1, 5), Job(3, 3, 2, 5)], CapacityConfig(10)
    )
    result = simulate(FirstFit(10), seq)
    assert [(e.kind, e.job_id, e.server_id) for e in result.trace.events if e.t == 5] == [
        ("depart", 2, 2), ("depart", 3, 1), ("release", None, 1), ("release", None, 2),
    ]


def test_views_follow_server_changes_in_opening_order():
    # First Fit: server 1 drops from 9 to 6 at t=4 and keeps its place
    # ahead of server 2 in the next view
    seq = JobSequence(
        [Job(1, 6, 0, 9), Job(2, 6, 1, 9), Job(3, 3, 2, 4), Job(4, 1, 4, 9)],
        CapacityConfig(10),
    )
    spy = SpyStrategy(FirstFit(10))
    simulate(spy, seq)
    assert [s[:2] for s in spy.views[3].servers] == [(1, 6), (2, 6)]
    # Next Fit: server 1 is closed at t=2, then loses job 2 at t=3 while
    # still rented; it never shows up again
    seq = JobSequence(
        [Job(1, 6, 0, 9), Job(2, 2, 1, 3), Job(3, 5, 2, 9), Job(4, 1, 4, 9)],
        CapacityConfig(10),
    )
    spy = SpyStrategy(NextFit(10))
    result = simulate(spy, seq)
    assert result.trace.servers[0].closed_at == 2
    assert [s[:2] for s in spy.views[3].servers] == [(2, 5)]


@given(job_sequences(max_jobs=8))
def test_closed_or_released_servers_never_reappear(seq):
    for spec in ("nf", "mnf:3", "harmonic:3"):
        spy = SpyStrategy(build_strategy(spec, seq.capacity.e))
        result = simulate(spy, seq)
        views = iter(spy.views)
        gone: set[int] = set()
        for ev in result.trace.events:
            if ev.kind in ("close", "release"):
                gone.add(ev.server_id)
            elif ev.kind == "arrive":
                assert not gone & {sid for sid, _, _ in next(views).servers}


def _decided_on_both(make, seq, altered, tau):
    """What runs of ``make(s)`` over ``seq`` and over ``altered`` had decided by ``tau``."""
    return [decided_by(simulate(make(s), s, record_events=False), tau) for s in (seq, altered)]


# The online restriction: two runs whose sequences share every departure at
# or before a step tau place the jobs arriving by tau alike and close the same
# servers by tau, since nothing after tau can have reached the strategy yet.
@given(job_sequences(max_jobs=16, max_time=10), st.integers(0, 16), st.integers(1, 6),
       st.data())
def test_runs_sharing_departures_up_to_a_step_decide_alike_up_to_it(seq, tau, mu, data):
    later = st.integers(tau + 1, tau + 12)
    altered = with_departures_after(seq, tau,
                                    lambda job: max(job.arrival + 1, data.draw(later)))
    for spec in all_strategy_specs(mu):
        first, second = _decided_on_both(lambda s: build_strategy(spec, s.capacity.e),
                                         seq, altered, tau)
        assert first == second, spec


@pytest.mark.parametrize("mu", [2, 10, 100])
def test_runs_sharing_departures_up_to_a_step_decide_alike_on_battery_seeds(mu):
    seq = gen_uniform(UniformParams(n=1000, e=1000, t=1000, mu=mu,
                                    seed=BATTERY_SEED + mu * 10_000))
    tau = 500
    altered = with_departures_after(seq, tau,
                                    lambda job: max(job.arrival, tau) + 1 + job.id % mu)
    later_differ = []
    for spec in all_strategy_specs(mu):
        first, second = (simulate(build_strategy(spec, 1000), s, record_events=False)
                         for s in (seq, altered))
        assert decided_by(first, tau) == decided_by(second, tau), spec
        later_differ.append(first.total_cost != second.total_cost)
    assert all(later_differ)  # the moved departures do change each run


def test_a_departure_peeking_strategy_fails_the_online_property():
    # job 2 lasts 2 steps in seq and 8 in altered, which share every
    # departure up to step 1: First Fit places it alike in both, but the
    # peeking First Fit gives the long job a server of its own
    seq = JobSequence([Job(1, 5, 0, 2), Job(2, 5, 1, 3)], CapacityConfig(10))
    altered = with_departures_after(seq, 1, lambda job: 9)
    assert _decided_on_both(lambda s: FirstFit(10), seq, altered, 1) == [({1: 1, 2: 1}, {})] * 2
    assert _decided_on_both(lambda s: PeekingFirstFit(s, limit=4), seq, altered, 1) == [
        ({1: 1, 2: 1}, {}), ({1: 1, 2: 2}, {})]


def _assert_same_run(spec, e, seq, record_events=True):
    spy, ref_spy = (SpyStrategy(build_strategy(spec, e)) for _ in range(2))
    result = simulate(spy, seq, record_events=record_events)
    expected, expected_servers = reference_simulate(ref_spy, seq,
                                                    record_events=record_events)
    # a tuple equals a named tuple of the same values, so the types are pinned apart
    assert all(type(obj) is ArrivalView for obj in spy.objects), spec
    for view in spy.views:
        assert all(type(s) is tuple and len(s) == 3 for s in view.servers), spec
    assert spy.views == ref_spy.views, spec
    assert spy.decisions == ref_spy.decisions, spec
    assert result.trace.events == expected.trace.events, spec
    assert result.trace.servers == expected_servers, spec
    assert result.trace.assignments == expected.trace.assignments, spec
    assert result.total_cost == expected.total_cost, spec
    assert result.critical_count == expected.critical_count, spec
    assert result == expected, spec


@given(job_sequences(max_jobs=24, max_time=10), st.integers(1, 6), st.booleans())
# releases at t=2 and t=3, two departure-only steps in a row
@example(seq=JobSequence([Job(1, 6, 0, 2), Job(2, 6, 0, 3), Job(3, 6, 5, 6)],
                         CapacityConfig(10)), mu=2, record_events=True)
# the last step empties server 2 (job 2) before server 1 (job 3) and releases both
@example(seq=JobSequence([Job(1, 6, 0, 1), Job(2, 6, 0, 4), Job(3, 4, 0, 4)],
                         CapacityConfig(10)), mu=2, record_events=True)
def test_simulate_matches_reference_loop(seq, mu, record_events):
    for spec in all_strategy_specs(mu):
        _assert_same_run(spec, seq.capacity.e, seq, record_events)


@pytest.mark.parametrize("mu", [2, 10, 100])
@pytest.mark.parametrize("i", [0, 1])
def test_simulate_matches_reference_loop_on_battery_seeds(mu, i):
    seq = gen_uniform(UniformParams(n=1000, e=1000, t=1000, mu=mu,
                                    seed=BATTERY_SEED + mu * 10_000 + i))
    for spec in all_strategy_specs(mu):
        _assert_same_run(spec, 1000, seq)


@given(job_sequences(max_jobs=24, max_time=10), st.integers(1, 6))
def test_strategies_run_back_to_back_share_one_timeline(seq, mu):
    e = seq.capacity.e
    shared = JobSequence(jobs_of(seq), seq.capacity)
    for spec in all_strategy_specs(mu):
        result = simulate(build_strategy(spec, e), shared)
        fresh = JobSequence(jobs_of(seq), seq.capacity)
        assert result == simulate(build_strategy(spec, e), fresh), spec
        assert result == reference_simulate(build_strategy(spec, e), shared)[0], spec
    assert shared.timeline is shared.timeline
    # the cached schedule is no field: equality, hash and repr ignore it
    untouched = JobSequence(jobs_of(seq), seq.capacity)
    assert "timeline" in vars(shared) and "timeline" not in vars(untouched)
    assert shared == untouched and hash(shared) == hash(untouched)
    assert repr(shared) == repr(untouched)


@given(job_sequences(max_jobs=24, max_time=10))
def test_timeline_is_each_steps_departures_then_arrivals(seq):
    flat = []
    jobs = jobs_of(seq)
    for t in sorted({job.arrival for job in jobs} | {job.departure for job in jobs}):
        flat += [(t, job.id, job.size, False) for job in jobs if job.departure == t]
        flat += [(t, job.id, job.size, True) for job in jobs if job.arrival == t]
    assert tuple(zip(*seq.timeline)) == tuple(flat)


def test_timeline_is_four_columns_of_the_jobs_own_objects():
    # ints above 256 are not cached by the interpreter, so ``is`` tells a
    # job's own int from an equal copy
    jobs = [Job(1001, 700, 5000, 9000), Job(1002, 300, 5000, 7000),
            Job(1003, 900, 7000, 8000), Job(1004, 300, 9000, 9500)]
    seq = JobSequence(jobs, CapacityConfig(1000))
    timeline = seq.timeline
    assert type(timeline) is tuple and len(timeline) == 4
    assert all(type(column) is tuple and len(column) == 2 * len(jobs) for column in timeline)
    by_id = {job.id: job for job in jobs}
    for t, jid, size, arriving in zip(*timeline):
        job = by_id[jid]
        assert jid is job.id and size is job.size
        assert t is (job.arrival if arriving else job.departure)
        assert arriving is True or arriving is False
    assert timeline[0] == (5000, 5000, 7000, 7000, 8000, 9000, 9000, 9500)
    assert timeline[1] == (1001, 1002, 1002, 1003, 1003, 1001, 1004, 1004)
    assert timeline[3] == (True, True, False, True, False, False, True, False)


_SMALL_DESK = UniformParams(n=300, e=100, t=100, mu=6, seed=7)


@pytest.mark.parametrize("record_events", [True, False])
def test_records_are_built_on_first_read(monkeypatch, record_events):
    built: list[int] = []
    build_slotted = core._build_slotted

    def counting_build(cls, n, ids, *columns):
        # records are built in C from columns: count the ids of each ServerRecord batch
        ids = list(ids)
        if cls is ServerRecord:
            built.extend(ids)
        return build_slotted(cls, n, ids, *columns)

    monkeypatch.setattr(core, "_build_slotted", counting_build)
    seq = gen_uniform(_SMALL_DESK)
    for spec in all_strategy_specs(_SMALL_DESK.mu):
        result = simulate(build_strategy(spec, seq.capacity.e), seq,
                          record_events=record_events)
        expected, _ = reference_simulate(build_strategy(spec, seq.capacity.e), seq,
                                         record_events=record_events)
        assert (result.total_cost, result.servers_opened, result.critical_count) == (
            expected.total_cost, expected.servers_opened, expected.critical_count), spec
        assert built == [], spec
        servers = result.trace.servers
        assert built == list(range(1, result.servers_opened + 1)), spec
        assert result.trace.servers is servers
        built.clear()


def test_no_job_is_built_after_input(monkeypatch, tmp_path):
    batches: list[type] = []
    rows: list[int] = []
    build_slotted, post_init = core._build_slotted, Job.__post_init__

    def counting_build(cls, n, *columns):
        batches.append(cls)
        return build_slotted(cls, n, *columns)

    def counting_post_init(job):
        rows.append(job.id)
        post_init(job)

    monkeypatch.setattr(core, "_build_slotted", counting_build)
    monkeypatch.setattr(Job, "__post_init__", counting_post_init)
    p = _SMALL_DESK
    specs = all_strategy_specs(p.mu)
    seq = gen_uniform(p)
    gen_adversarial(AdversaryParams(Fraction(1, 4), 3, 2, 3, "ff", 16))
    utilization(seq)
    compute_stats(seq)
    write_sequence_csv(seq, tmp_path / "seq.csv")  # what `rentsim generate uniform` does
    for spec in specs:
        for record_events in (False, True):
            result = simulate(build_strategy(spec, p.e), seq, record_events=record_events)
            assert result.trace.servers and validate_trace(result.trace) == [], spec
    run_experiment(ExperimentSpec(strategies=tuple(specs), ns=(p.n,), es=(p.e,), ts=(p.t,),
                                  mus=(p.mu,), trials=2, seed_base=p.seed))
    write_event_csv(result.trace.events, tmp_path / "events.csv")
    replayed = trace_from_events(seq, read_event_csv(tmp_path / "events.csv"))
    assert validate_trace(replayed) == []
    mtf = simulate(MoveToFront(p.e), seq)
    assert check_mtf_bound(mtf, compute_stats(seq)).satisfied
    tiny = gen_uniform(UniformParams(n=8, e=10, t=8, mu=3, seed=1))
    assert brute_force_opt(tiny) <= simulate(FirstFit(10), tiny).total_cost
    assert Job not in batches and rows == []
    # input is checked row by row, once: reading n rows builds n jobs, and
    # validating a run over them builds none
    n_rows = len(seq)
    seq_read = read_sequence_csv(tmp_path / "seq.csv")
    assert validate_trace(simulate(FirstFit(p.e), seq_read).trace) == []
    assert len(rows) == n_rows and sorted(rows) == sorted(seq.ids) and Job not in batches


@pytest.mark.parametrize("record_events", [True, False])
def test_an_unread_result_copies_pickles_and_replaces_as_a_read_one(record_events):
    seq = gen_uniform(_SMALL_DESK)
    for spec in all_strategy_specs(_SMALL_DESK.mu):
        def run():
            result = simulate(build_strategy(spec, seq.capacity.e), seq,
                              record_events=record_events)
            assert "servers" not in vars(result.trace)
            return result

        read = run()
        assert read.trace.servers
        for clone in (pickle.loads(pickle.dumps(run())), copy.copy(run()),
                      copy.deepcopy(run())):
            assert clone == read, spec
        assert dataclasses.replace(run().trace).servers == read.trace.servers, spec
        assert dataclasses.replace(run()) == read, spec
        assert repr(run()) == repr(read), spec


class _BadTarget:
    name = "bad-target"

    def place(self, view):
        return 999, (), None


class _OverFiller:
    name = "over-filler"

    def place(self, view):
        if view.servers:
            return next(iter(view.servers))[0], (), None
        return None, (), None


class _BadCloser:
    name = "bad-closer"

    def place(self, view):
        return None, (77,), None


def test_infeasible_decisions_raise():
    cap = CapacityConfig(10)
    seq = JobSequence([Job(1, 6, 0, 5), Job(2, 6, 1, 5)], cap)
    with pytest.raises(InfeasiblePlacementError, match="infeasible placement"):
        simulate(_BadTarget(), seq)
    with pytest.raises(InfeasiblePlacementError) as info:
        simulate(_OverFiller(), seq)
    assert info.value.time == 1
    assert info.value.job_id == 2
    with pytest.raises(InfeasiblePlacementError, match="close"):
        simulate(_BadCloser(), seq)


class _Scripted:
    """Returns the given decisions, one per arrival, in order."""

    name = "scripted"

    def __init__(self, *decisions):
        self.decisions = iter(decisions)

    def place(self, view):
        return next(self.decisions)


_OPEN = (None, (), None)


@pytest.mark.parametrize(
    "bad",
    [(0, (), None), (-1, (), None), (1, (), None), (2, (), None), (4, (), None),
     (None, (1,), None), (None, (0,), None), (None, (-1,), None), (None, (2,), None)],
    ids=["place-0", "place-negative", "place-released", "place-closed",
         "place-unopened", "close-released", "close-0", "close-negative",
         "close-closed"],
)
def test_decisions_naming_no_placeable_server_raise(bad):
    # server 1 is released at t=2, server 2 is closed at t=1 (Next Fit
    # style) and still rented, server 3 is open; job 4 arrives at t=3.
    # Ids index the engine's per-server lists, where 0 and negative ids
    # would land on real entries: only the placeable set may accept them.
    seq = JobSequence(
        [Job(1, 6, 0, 2), Job(2, 6, 1, 9), Job(3, 2, 1, 9), Job(4, 2, 3, 9)],
        CapacityConfig(10),
    )
    script = (_OPEN, _OPEN, (None, (2,), None))
    assert simulate(_Scripted(*script, (3, (), None)), seq).trace.assignments[4] == 3
    # the error keeps the decision returned, as a plain tuple
    for returned in (bad, list(bad)):
        with pytest.raises(InfeasiblePlacementError) as info:
            simulate(_Scripted(*script, returned), seq)
        assert (info.value.time, info.value.job_id) == (3, 4)
        assert info.value.decision == bad and type(info.value.decision) is tuple


class Placement(NamedTuple):
    """A strategy's own named form of a decision: the engine reads it by position."""

    place_in: int | None
    close: tuple
    tag: object


class _Reshaped:
    """Returns the wrapped strategy's decisions converted by ``make``."""

    def __init__(self, inner, make):
        self.inner = inner
        self.name = inner.name
        self.make = make

    def place(self, view):
        return self.make(self.inner.place(view))


@given(job_sequences(max_jobs=16, max_time=10), st.integers(1, 6), st.booleans())
def test_a_list_and_a_named_tuple_give_the_triples_run(seq, mu, record_events):
    e = seq.capacity.e
    for spec in all_strategy_specs(mu):
        plain = simulate(build_strategy(spec, e), seq, record_events=record_events)
        for make in (list, Placement._make):
            run = simulate(_Reshaped(build_strategy(spec, e), make), seq,
                           record_events=record_events)
            assert run == plain, (spec, make)
            assert run.trace.servers == plain.trace.servers, (spec, make)


@given(job_sequences())
def test_every_engine_trace_validates_clean(seq):
    for strategy in (NextFit, FirstFit, BestFit, MoveToFront):
        result = simulate(strategy(seq.capacity.e), seq)
        assert validate_trace(result.trace) == []
        assert result.total_cost == sum(s.stretch for s in result.trace.servers)


@given(job_sequences(max_jobs=14))
def test_next_fit_cost_decomposition(seq):
    """Closed periods never exceed the maximum job length, and the open
    periods of a Next Fit run tile within the span."""
    stats = compute_stats(seq)
    result = simulate(NextFit(seq.capacity.e), seq)
    max_length = stats.mu * stats.delta
    open_total = 0
    for record in result.trace.servers:
        assert record.closed_period <= max_length
        open_total += record.stretch - record.closed_period
    assert open_total <= stats.span
    assert result.total_cost == open_total + sum(
        r.closed_period for r in result.trace.servers
    )


@given(job_sequences(max_jobs=12))
def test_next_fit_has_at_most_one_placeable_server(seq):
    spy = SpyStrategy(NextFit(seq.capacity.e))
    simulate(spy, seq)
    assert all(len(view.servers) <= 1 for view in spy.views)


# two size-6 jobs in a row make nf, mnf and harmonic close a server
CLOSING_SEQUENCE = JobSequence(
    [Job(1, 6, 0, 4), Job(2, 6, 1, 5), Job(3, 2, 1, 3), Job(4, 2, 2, 6), Job(5, 5, 3, 7)],
    CapacityConfig(10),
)


@pytest.mark.parametrize("spec", all_strategy_specs(2))
def test_event_log_round_trip(tmp_path, spec):
    # a named tuple equals a plain tuple, so each row's type is pinned exactly
    spy = SpyStrategy(build_strategy(spec, 10))
    result = simulate(spy, CLOSING_SEQUENCE)
    assert all(type(obj) is ArrivalView for obj in spy.objects)
    # the decisions made during the run: the view itself is only valid then
    assert len(spy.decisions) == len(CLOSING_SEQUENCE)
    assert all(type(decision) is tuple and len(decision) == 3 for decision in spy.decisions)
    written = result.trace.events
    if spec.partition(":")[0] in ("nf", "mnf", "harmonic"):
        assert any(ev.kind == "close" for ev in written)
    path, again = tmp_path / "events.csv", tmp_path / "again.csv"
    write_event_csv(written, path)
    events = read_event_csv(path)
    assert all(type(ev) is core.Event for ev in written + events)
    assert events == written
    write_event_csv(events, again)
    assert again.read_bytes() == path.read_bytes()
    rebuilt = trace_from_events(CLOSING_SEQUENCE, events)
    assert rebuilt.assignments == dict(result.trace.assignments)
    assert rebuilt.servers == result.trace.servers
    assert validate_trace(rebuilt) == []


@given(job_sequences(), st.integers(1, 6))
def test_event_csv_matches_the_csv_module_and_round_trips(seq, mu):
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "events.csv", Path(tmp) / "oracle.csv"
        for spec in all_strategy_specs(mu):
            log = simulate(build_strategy(spec, seq.capacity.e), seq).trace.events
            write_event_csv(log, path)
            reference_write_event_csv(log, oracle)
            assert path.read_bytes() == oracle.read_bytes(), spec
            events = read_event_csv(path)
            assert events == log == reference_read_event_csv(path), spec
            assert all(type(row) is core.Event for row in events), spec


def _read_or_message(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


# edits of a log's rows, header excluded; every edit but "plain" puts a line
# the column check refuses into some block, so the csv-module loop reads the
# whole log again from line 1
_LOG_EDITS = {
    "plain": lambda lines: lines,
    "quoted-field": lambda lines: lines[:9] + ['"' + lines[9].replace(",", '","') + '"']
                                  + lines[10:],
    "crlf": lambda lines: [line + "\r" for line in lines],
    "cr-only": lambda lines: ["\r".join(lines)],
    "blank-line": lambda lines: lines[:9] + [""] + lines[9:],
    "blank-lines-at-end": lambda lines: lines + ["", ""],
    "fifth-field": lambda lines: lines[:9] + [lines[9] + ",1"] + lines[10:],
    "late-unknown-kind": lambda lines: lines[:-3] + [lines[-3].replace(",", ",x", 1)]
                                       + lines[-2:],
    "late-bad-number": lambda lines: lines[:-3] + [lines[-3] + "x"] + lines[-2:],
    "empty-time": lambda lines: lines[:9] + ["," + lines[9].split(",", 1)[1]] + lines[10:],
    "spaced-signed-time": lambda lines: lines[:9] + [" +" + lines[9]] + lines[10:],
}


@pytest.mark.parametrize("block_chars", [1, 97, engine.EVENT_BLOCK_CHARS])
@pytest.mark.parametrize("edit", sorted(_LOG_EDITS))
def test_event_csv_reader_matches_the_csv_module_loop(tmp_path, monkeypatch, edit,
                                                      block_chars):
    # a battery-sized log: at the default about eight blocks, at 97
    # characters over 600, and at 1 one block per line
    seq = gen_uniform(UniformParams(n=1000, e=1000, t=1000, mu=10, seed=BATTERY_SEED))
    path = tmp_path / "events.csv"
    write_event_csv(simulate(MoveToFront(1000), seq).trace.events, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    edited = _LOG_EDITS[edit](lines)
    path.write_bytes(("\n".join([header, *edited]) + "\n").encode("utf-8"))
    monkeypatch.setattr(engine, "EVENT_BLOCK_CHARS", block_chars)
    got = _read_or_message(read_event_csv, path)
    assert got == _read_or_message(reference_read_event_csv, path)
    assert (type(got) is str) == (edit in ("fifth-field", "late-unknown-kind",
                                           "late-bad-number", "empty-time"))
