from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rentsim import (
    CapacityConfig,
    Job,
    JobSequence,
    PlacementTrace,
    ServerRecord,
    build_strategy,
    compute_stats,
    read_sequence_csv,
    simulate,
    validate_trace,
    write_sequence_csv,
)
from rentsim.core import Event, merge_intervals, union_measure
from rentsim.engine import trace_from_events
from rentsim.strategies import NextFit

from helpers import (
    all_strategy_specs,
    job_sequences,
    pointwise_span,
    reference_capacity_violations,
)


def test_job_rejects_bad_fields():
    with pytest.raises(ValueError):
        Job(1, 0, 0, 5)
    with pytest.raises(ValueError):
        Job(1, 3, 5, 5)
    with pytest.raises(ValueError):
        Job(1, 3, 5, 4)
    with pytest.raises(ValueError):
        Job(1, 3, -1, 4)


def test_sequence_rejects_duplicates_and_oversize():
    cap = CapacityConfig(5)
    with pytest.raises(ValueError):
        JobSequence([Job(1, 1, 0, 1), Job(1, 1, 0, 1)], cap)
    with pytest.raises(ValueError):
        JobSequence([Job(1, 6, 0, 1)], cap)


def test_sequence_order_is_stable_on_equal_arrivals():
    jobs = [Job(3, 1, 2, 4), Job(1, 1, 0, 4), Job(2, 1, 2, 3)]
    seq = JobSequence(jobs, CapacityConfig(4))
    assert [j.id for j in seq.jobs] == [1, 3, 2]


def test_stats_on_three_job_instance(three_job_instance):
    stats = compute_stats(three_job_instance)
    assert stats.span == 5
    assert stats.util == Fraction(18, 5)  # 3.6
    assert stats.total_size == Fraction(11, 10)
    assert stats.total_length == 10
    assert stats.delta == 2
    assert stats.mu == 2


def test_stats_single_full_size_job():
    seq = JobSequence([Job(1, 10, 0, 7)], CapacityConfig(10))
    stats = compute_stats(seq)
    assert stats.span == 7
    assert stats.util == 7
    assert stats.total_size == 1
    assert stats.mu == 1


def test_stats_disjoint_jobs_use_union_span():
    seq = JobSequence(
        [Job(1, 1, 0, 2), Job(2, 1, 10, 12)], CapacityConfig(10)
    )
    stats = compute_stats(seq)
    assert stats.span == 4 == pointwise_span(seq.jobs)
    assert stats.util == Fraction(4, 10)


def test_stats_empty_sequence_errors():
    with pytest.raises(ValueError, match="empty sequence"):
        compute_stats(JobSequence([], CapacityConfig(1)))


def test_union_measure_handles_nesting_and_touching():
    assert union_measure([(0, 5), (1, 2), (5, 7)]) == 7
    assert union_measure([(3, 4), (0, 1)]) == 2
    assert union_measure([]) == 0
    assert merge_intervals([(5, 7), (0, 5)]) == [(0, 7)]
    assert merge_intervals([(0, 5), (1, 2), (8, 9)]) == [(0, 5), (8, 9)]
    assert merge_intervals([]) == []


@given(job_sequences())
def test_stats_match_pointwise_span_oracle(seq):
    assert compute_stats(seq).span == pointwise_span(seq.jobs)


@given(job_sequences(), st.randoms(use_true_random=False))
def test_stats_are_permutation_invariant(seq, rng):
    shuffled = list(seq.jobs)
    rng.shuffle(shuffled)
    again = compute_stats(JobSequence(shuffled, seq.capacity))
    assert again == compute_stats(seq)


@given(job_sequences(), st.integers(2, 5))
def test_stats_invariant_under_common_scaling(seq, factor):
    stats = compute_stats(seq)
    scaled = JobSequence(
        [Job(j.id, j.size * factor, j.arrival, j.departure) for j in seq.jobs],
        CapacityConfig(seq.capacity.e * factor),
    )
    assert compute_stats(scaled) == stats


@given(job_sequences())
def test_stats_internal_inequalities(seq):
    stats = compute_stats(seq)
    assert stats.span <= stats.total_length
    assert stats.util <= stats.total_length
    assert stats.util >= stats.total_size * stats.delta
    assert stats.mu >= 1


def _trace(seq, servers):
    assignments = {jid: srv.id for srv in servers for jid in srv.jobs}
    return PlacementTrace(
        sequence=seq, assignments=assignments, servers=tuple(servers)
    )


def test_validate_flags_capacity_overflow():
    seq = JobSequence([Job(1, 7, 0, 6), Job(2, 4, 2, 5)], CapacityConfig(10))
    trace = _trace(
        seq, [ServerRecord(1, opened_at=0, released_at=6, closed_at=None, jobs=(1, 2))]
    )
    violations = validate_trace(trace)
    assert [v.invariant for v in violations] == ["capacity-exceeded"]
    assert violations[0].time == 2  # the overlap starts when job 2 arrives
    assert violations[0].server_id == 1


@given(job_sequences(max_jobs=12), st.sampled_from(["nf", "ff", "bf", "mtf"]), st.data())
def test_capacity_sweep_matches_the_per_arrival_scan(seq, spec, data):
    clean = simulate(build_strategy(spec, seq.capacity.e), seq).trace
    # overfull: the jobs spread over k servers at random, whatever their sizes
    k = data.draw(st.integers(1, len(seq)))
    groups: dict[int, list[Job]] = {}
    for job in seq.jobs:
        groups.setdefault(data.draw(st.integers(1, k)), []).append(job)
    overfull = _trace(seq, [
        ServerRecord(sid, min(j.arrival for j in jobs), max(j.departure for j in jobs),
                     None, tuple(j.id for j in jobs))
        for sid, jobs in sorted(groups.items())
    ])
    # tampered: one server of the clean trace gains a job, its own, another
    # server's or one the sequence does not have
    servers = list(clean.servers)
    i = data.draw(st.integers(0, len(servers) - 1))
    extra = data.draw(st.integers(1, len(seq) + 1))
    servers[i] = dataclasses.replace(servers[i], jobs=servers[i].jobs + (extra,))
    tampered = dataclasses.replace(clean, servers=tuple(servers))
    assert reference_capacity_violations(clean) == []
    for trace in (clean, overfull, tampered):
        assert [v for v in validate_trace(trace) if v.invariant == "capacity-exceeded"] \
            == reference_capacity_violations(trace)


def test_validate_flags_early_release():
    seq = JobSequence([Job(1, 2, 0, 6), Job(2, 2, 0, 2)], CapacityConfig(10))
    trace = _trace(
        seq, [ServerRecord(1, opened_at=0, released_at=2, closed_at=None, jobs=(1, 2))]
    )
    assert [v.invariant for v in validate_trace(trace)] == [
        "release-not-at-last-departure"
    ]


@pytest.mark.parametrize("second, flagged", [
    (Job(2, 2, 5, 7), True),  # the server sat empty over [3, 5)
    (Job(2, 2, 3, 7), True),  # job 1 leaves at 3 before job 2 arrives at 3
    (Job(2, 2, 2, 7), False),
])
def test_validate_flags_server_empty_before_release(second, flagged):
    seq = JobSequence([Job(1, 2, 1, 3), second], CapacityConfig(10))
    trace = _trace(
        seq, [ServerRecord(1, opened_at=1, released_at=7, closed_at=None, jobs=(1, 2))]
    )
    violations = validate_trace(trace)
    assert [v.invariant for v in violations] == (
        ["server-empty-before-release"] if flagged else []
    )
    if flagged:
        assert (violations[0].time, violations[0].job_id) == (second.arrival, 2)


@pytest.mark.parametrize("closed_at, flagged", [(2, True), (4, False), (None, False)])
def test_validate_flags_placement_after_close(closed_at, flagged):
    # a job may land in a server in the step that closes it, never later
    seq = JobSequence([Job(1, 2, 0, 9), Job(2, 2, 4, 6)], CapacityConfig(10))
    trace = _trace(
        seq, [ServerRecord(1, opened_at=0, released_at=9, closed_at=closed_at,
                           jobs=(1, 2))]
    )
    violations = validate_trace(trace)
    assert [v.invariant for v in violations] == (
        ["placement-after-close"] if flagged else []
    )
    if flagged:
        assert (violations[0].time, violations[0].job_id) == (4, 2)


def test_validate_flags_double_assignment_and_missing_job():
    seq = JobSequence([Job(1, 2, 0, 3), Job(2, 2, 0, 3)], CapacityConfig(10))
    trace = PlacementTrace(
        sequence=seq,
        assignments={1: 1},
        servers=(
            ServerRecord(1, opened_at=0, released_at=3, closed_at=None, jobs=(1,)),
            ServerRecord(2, opened_at=0, released_at=3, closed_at=None, jobs=(1,)),
        ),
    )
    names = {v.invariant for v in validate_trace(trace)}
    assert "job-in-multiple-servers" in names
    assert "job-not-assigned" in names


def test_validate_checks_the_log_against_the_sequence(three_job_instance):
    # Next Fit on the 3/4/4 instance: job 3 arrives at t=3 into server 2
    result = simulate(NextFit(10), three_job_instance)
    events = result.trace.events
    assert validate_trace(result.trace) == []
    bare = simulate(NextFit(10), three_job_instance, record_events=False)
    assert bare.trace.events == () and validate_trace(bare.trace) == []

    def tampered(*rows):
        trace = dataclasses.replace(result.trace, events=tuple(rows))
        return [str(v) for v in validate_trace(trace)]

    arrive_3 = events.index(Event(3, "arrive", 3))
    assert tampered(*events, Event(9, "arrive", 4)) == [
        "unknown-job-in-log t=9 job=4 arrive"]
    assert tampered(*events[:arrive_3 + 1], *events[arrive_3:]) == [
        "event-repeated t=3 job=3 arrive"]
    assert tampered(*(ev for ev in events if ev.kind != "depart")) == [
        f"event-missing job={jid} depart" for jid in (1, 2, 3)]

    # close and release rows: server 1 closes at t=3 and is released at t=6,
    # server 2 is released at t=5
    close_1 = events.index(Event(3, "close", None, 1))
    release_2 = events.index(Event(5, "release", None, 2))
    assert events[-1] == Event(6, "release", None, 1)
    assert tampered(*events, Event(6, "release", None, 99)) == [
        "unknown-server-in-log t=6 server=99 release"]
    assert tampered(*events[:close_1 + 1], Event(3, "close", None, 99),
                    *events[close_1 + 1:]) == ["unknown-server-in-log t=3 server=99 close"]
    assert tampered(*events, events[-1]) == ["event-repeated t=6 server=1 release"]
    assert tampered(*events[:close_1 + 1], *events[close_1:]) == [
        "event-repeated t=3 server=1 close"]
    without_release_2 = events[:release_2] + events[release_2 + 1:]
    assert tampered(*without_release_2) == ["event-missing server=2 release"]
    assert tampered(*without_release_2, Event(6, "release", None, 2)) == [
        "event-at-wrong-step t=6 server=2 release expected at 5"]


def _tampered_logs(events):
    """Every log that drops, duplicates, shifts by one step, or bumps the job or
    server id of one row, with the tamper named; close rows are left alone,
    since a log without one of them describes another valid history."""
    for i, ev in enumerate(events):
        if ev.kind == "close":
            continue
        before, after = events[:i], events[i + 1:]
        yield "drop", before + after
        yield "duplicate", before + (ev, ev) + after
        for shift in (-1, 1):
            yield f"t{shift:+}", before + (dataclasses.replace(ev, t=ev.t + shift),) + after
        for field in ("job_id", "server_id"):
            if getattr(ev, field) is not None:
                bumped = dataclasses.replace(ev, **{field: getattr(ev, field) + 1})
                yield f"{field}+1", before + (bumped,) + after


@settings(deadline=None)
@given(job_sequences(max_jobs=8, max_time=8), st.integers(1, 6))
def test_every_one_row_tamper_of_a_log_is_a_violation(seq, mu):
    for spec in all_strategy_specs(mu):
        events = simulate(build_strategy(spec, seq.capacity.e), seq).trace.events
        assert validate_trace(trace_from_events(seq, events)) == [], spec
        for tamper, log in _tampered_logs(events):
            assert validate_trace(trace_from_events(seq, log)), (spec, tamper, log)


def test_sequence_csv_round_trip(tmp_path, three_job_instance):
    path = tmp_path / "seq.csv"
    write_sequence_csv(three_job_instance, path)
    again = read_sequence_csv(path)
    assert again == three_job_instance
    # comment line then header, unix newlines, no trailing junk
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# capacity=10\nid,size,arrival,departure\n")
    assert text.endswith("3,4,3,5\n")


def test_sequence_csv_requires_capacity_and_header(tmp_path):
    no_cap = tmp_path / "a.csv"
    no_cap.write_text("id,size,arrival,departure\n1,1,0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="capacity"):
        read_sequence_csv(no_cap)
    bad_header = tmp_path / "b.csv"
    bad_header.write_text("# capacity=5\nid,size,start,end\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_sequence_csv(bad_header)
    header = "# capacity=5\nid,size,arrival,departure\n"
    for body, message in [
        ("# capacity=five\nid,size,arrival,departure\n", "line 1: capacity 'five'"),
        (header + "1,x,0,1\n", "line 3: invalid literal for int()"),
        (header + "1,1,0,1\n\n2,1,0,1,9\n", "line 5: expected 4 fields, got 5"),
        (header + "1,1,0\n", "line 3: expected 4 fields, got 3"),
        (header + "1,1,3,2\n", "line 3: job 1: departure 2 must exceed arrival 3"),
        (header + "1,1,0,1\n2,1,0,1\n1,2,0,1\n",
         "line 5: duplicate job id 1 (first on line 3)"),
        (header + "1,1,0,1\n2,6,0,1\n", "line 4: job 2: size 6 exceeds capacity 5"),
        ("id,size,arrival,departure\n1,6,0,1\n# capacity=5\n",
         "line 2: job 1: size 6 exceeds capacity 5"),
        ("# capacity=0\nid,size,arrival,departure\n", "line 1: capacity must be >= 1, got 0"),
    ]:
        bad = tmp_path / "c.csv"
        bad.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sequence_csv(bad)
