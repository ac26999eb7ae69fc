from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from rentsim import (
    CapacityConfig,
    Job,
    JobSequence,
    PlacementTrace,
    ServerRecord,
    UniformParams,
    build_strategy,
    compute_stats,
    gen_uniform,
    read_sequence_csv,
    simulate,
    validate_trace,
    write_sequence_csv,
)
from rentsim.core import EVENT_KINDS, Event, merge_intervals, union_measure
from rentsim.engine import trace_from_events
from rentsim.strategies import NextFit

from helpers import (
    BATTERY_SEED,
    all_strategy_specs,
    job_sequences,
    jobs_of,
    pointwise_span,
    reference_capacity_violations,
    reference_compute_stats,
    reference_sequence_jobs,
    reference_validate_trace,
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


@pytest.mark.parametrize("jobs, message", [
    ([Job(1, 1, 2, 3), Job(2, 1, 0, 3), Job(2, 6, 1, 3), Job(1, 1, 0, 1)], "duplicate job id 2"),
    ([Job(1, 1, 2, 3), Job(3, 6, 0, 3), Job(2, 7, 0, 3), Job(1, 1, 0, 1)],
     "job 3: size 6 exceeds capacity 5"),
    ([Job(1, 1, 1, 3), Job(2, 6, 1, 3), Job(1, 1, 0, 1)], "duplicate job id 1"),
])
def test_sequence_names_the_first_offender_in_arrival_order(jobs, message):
    with pytest.raises(ValueError) as error:
        JobSequence(jobs, CapacityConfig(5))
    assert str(error.value) == message


@st.composite
def job_rows(draw, max_jobs=8):
    """Raw rows ``(id, size, arrival, departure)`` and a capacity; some rows are
    invalid: size 0 or above E, negative arrival, departure at or before
    arrival, repeated id."""
    e = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, e + 1),
                                   st.integers(-1, 5), st.integers(-1, 4)),
                         max_size=max_jobs))
    return [(jid, size, arrival, arrival + length)
            for jid, size, arrival, length in rows], e


@given(job_rows())
@example(rows_e=([(2, 1, 3, 4), (1, 2, 0, 2), (3, 1, 3, 5), (4, 2, 0, 1)], 2))  # ties
@example(rows_e=([(1, 1, 0, 1), (2, 0, 0, 1), (3, 9, -1, -1)], 2))  # size 0
@example(rows_e=([(1, 1, 0, 1), (2, 1, -1, 1), (3, 0, 0, 0)], 2))  # negative arrival
@example(rows_e=([(1, 1, 0, 1), (2, 1, 3, 3), (3, 0, -1, 0)], 2))  # departure = arrival
@example(rows_e=([(1, 1, 0, 1), (2, 1, 3, 2), (3, 0, 0, 1)], 2))  # departure < arrival
@example(rows_e=([(1, 1, 2, 3), (2, 1, 0, 3), (2, 3, 1, 3), (1, 1, 0, 1)], 2))  # duplicate id
@example(rows_e=([(1, 1, 2, 3), (3, 3, 0, 3), (2, 4, 0, 3), (3, 1, 1, 2)], 2))  # size > E
def test_column_built_and_job_built_sequences_agree(rows_e):
    rows, e = rows_e
    cap = CapacityConfig(e)
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    try:
        expected = tuple(reference_sequence_jobs(rows, e))
    except ValueError as exc:
        for build in (lambda: JobSequence.from_columns(*columns, cap),
                      lambda: JobSequence([Job(*row) for row in rows], cap)):
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == str(exc)
        return
    by_columns = JobSequence.from_columns(*columns, cap)
    by_jobs = JobSequence([Job(*row) for row in rows], cap)
    assert jobs_of(by_columns) == jobs_of(by_jobs) == expected
    assert by_columns.timeline == by_jobs.timeline
    assert by_columns == by_jobs and hash(by_columns) == hash(by_jobs)
    assert repr(by_columns) == repr(by_jobs)


def test_sequence_order_is_stable_on_equal_arrivals():
    jobs = [Job(3, 1, 2, 4), Job(1, 1, 0, 4), Job(2, 1, 2, 3)]
    seq = JobSequence(jobs, CapacityConfig(4))
    assert [j.id for j in jobs_of(seq)] == [1, 3, 2]


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
    assert stats.span == 4 == pointwise_span(jobs_of(seq))
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


@given(job_sequences(max_jobs=30, max_time=40))
def test_merged_segments_are_sorted_apart_and_cover_the_jobs(seq):
    intervals = [(job.arrival, job.departure) for job in jobs_of(seq)]
    segments = merge_intervals(intervals)
    assert all(start < end for start, end in segments)
    # sorted, disjoint and not touching: each ends before the next starts
    assert all(a_end < b_start for (_, a_end), (b_start, _) in zip(segments, segments[1:]))
    assert all(sum(start <= arrival and departure <= end for start, end in segments) == 1
               for arrival, departure in intervals)
    assert union_measure(intervals) == pointwise_span(jobs_of(seq))


@given(job_sequences())
def test_stats_match_pointwise_span_oracle(seq):
    assert compute_stats(seq).span == pointwise_span(jobs_of(seq))


@given(job_sequences(max_jobs=30))
def test_stats_match_the_per_job_oracle(seq):
    stats, expected = compute_stats(seq), reference_compute_stats(seq)
    for field in dataclasses.fields(stats):
        assert getattr(stats, field.name) == getattr(expected, field.name), field.name
    assert stats == expected


@given(job_sequences(), st.randoms(use_true_random=False))
def test_stats_are_permutation_invariant(seq, rng):
    shuffled = list(jobs_of(seq))
    rng.shuffle(shuffled)
    again = compute_stats(JobSequence(shuffled, seq.capacity))
    assert again == compute_stats(seq)


@given(job_sequences(), st.integers(2, 5))
def test_stats_invariant_under_common_scaling(seq, factor):
    stats = compute_stats(seq)
    scaled = JobSequence(
        [Job(j.id, j.size * factor, j.arrival, j.departure) for j in jobs_of(seq)],
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


def test_trace_derives_each_server_from_its_jobs_and_close():
    seq = JobSequence([Job(1, 2, 3, 9), Job(2, 2, 1, 5), Job(3, 2, 4, 6)], CapacityConfig(10))
    trace = PlacementTrace(seq, {3: 2, 1: 1, 2: 1, 7: 3}, {1: 4})
    assert trace.servers == (
        ServerRecord(1, opened_at=1, released_at=9, closed_at=4, jobs=(1, 2)),
        ServerRecord(2, opened_at=4, released_at=6, closed_at=None, jobs=(3,)),
    )  # id order, jobs in placement order; job 7 is no job of the sequence
    assert trace.servers is trace.servers
    assert [str(v) for v in validate_trace(trace)] == ["unknown-job-in-server job=7 server=3"]


@pytest.mark.parametrize("closes, flagged", [
    ({1: 3}, []),  # a close in the step of the last placement
    ({1: 8}, []),
    ({1: 9}, ["close-outside-rental t=9 server=1"]),  # at the release
    ({1: 0}, ["placement-after-close t=1 job=2 server=1 closed at 0",
              "placement-after-close t=3 job=1 server=1 closed at 0",
              "close-outside-rental t=0 server=1"]),  # before the opening
    ({2: 4}, ["close-outside-rental t=4 server=2"]),  # a server never rented
])
def test_validate_flags_close_outside_rental(closes, flagged):
    seq = JobSequence([Job(1, 2, 3, 9), Job(2, 2, 1, 5)], CapacityConfig(10))
    assert [str(v) for v in validate_trace(PlacementTrace(seq, {1: 1, 2: 1}, closes))] \
        == flagged


def test_validate_flags_capacity_overflow():
    seq = JobSequence([Job(1, 7, 0, 6), Job(2, 4, 2, 5)], CapacityConfig(10))
    trace = PlacementTrace(seq, {1: 1, 2: 1}, {})
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
    for job in jobs_of(seq):
        groups.setdefault(data.draw(st.integers(1, k)), []).append(job)
    overfull = PlacementTrace(
        seq, {job.id: sid for sid, jobs in sorted(groups.items()) for job in jobs}, {})
    # tampered: one server of the clean trace gains a job, its own, another
    # server's or one the sequence does not have
    sid = data.draw(st.sampled_from(sorted(set(clean.assignments.values()))))
    extra = data.draw(st.integers(1, len(seq) + 1))
    tampered = dataclasses.replace(clean, assignments={**clean.assignments, extra: sid})
    assert reference_capacity_violations(clean) == []
    for trace in (clean, overfull, tampered):
        assert [v for v in validate_trace(trace) if v.invariant == "capacity-exceeded"] \
            == reference_capacity_violations(trace)


def test_validate_flags_early_release():
    # the log releases the server when job 2 leaves, though job 1 stays until 6
    seq = JobSequence([Job(1, 2, 0, 6), Job(2, 2, 0, 2)], CapacityConfig(10))
    log = (Event(0, "arrive", 1), Event(0, "place", 1, 1), Event(0, "arrive", 2),
           Event(0, "place", 2, 1), Event(2, "depart", 2, 1), Event(2, "release", None, 1),
           Event(6, "depart", 1, 1))
    assert [str(v) for v in validate_trace(trace_from_events(seq, log))] == [
        "event-at-wrong-step t=2 server=1 release expected at 6"
    ]


@pytest.mark.parametrize("second, flagged", [
    (Job(2, 2, 5, 7), True),  # the server sat empty over [3, 5)
    (Job(2, 2, 3, 7), True),  # job 1 leaves at 3 before job 2 arrives at 3
    (Job(2, 2, 2, 7), False),
])
def test_validate_flags_server_empty_before_release(second, flagged):
    seq = JobSequence([Job(1, 2, 1, 3), second], CapacityConfig(10))
    trace = PlacementTrace(seq, {1: 1, 2: 1}, {})
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
    trace = PlacementTrace(seq, {1: 1, 2: 1}, {} if closed_at is None else {1: closed_at})
    violations = validate_trace(trace)
    assert [v.invariant for v in violations] == (
        ["placement-after-close"] if flagged else []
    )
    if flagged:
        assert (violations[0].time, violations[0].job_id) == (4, 2)


def test_validate_flags_double_assignment_and_missing_job():
    # a trace maps each job to one server, so only a log can place a job twice
    seq = JobSequence([Job(1, 2, 0, 3), Job(2, 2, 0, 3)], CapacityConfig(10))
    log = (Event(0, "arrive", 1), Event(0, "place", 1, 1), Event(0, "place", 1, 2),
           Event(3, "depart", 1, 2), Event(3, "release", None, 2))
    names = {v.invariant for v in validate_trace(trace_from_events(seq, log))}
    assert "event-repeated" in names
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
    assert tampered(*events[:close_1 + 1], Event(3, "close", None, 2),
                    *events[close_1 + 1:]) == [
        "event-at-wrong-step t=3 server=2 close of a server the trace never closed"]


def _tampered_logs(events):
    """Every log that drops, duplicates, shifts by one step, or bumps the job or
    server id of one row, or swaps two adjacent rows of different (step,
    phase), with the tamper named; close rows are not dropped, duplicated,
    shifted or bumped, since a log without one of them describes another
    valid history."""
    for i, (ev, nxt) in enumerate(zip(events, events[1:])):
        if (ev.t, EVENT_KINDS[ev.kind][0]) != (nxt.t, EVENT_KINDS[nxt.kind][0]):
            yield "swap", events[:i] + (nxt, ev) + events[i + 2:]
    for i, ev in enumerate(events):
        if ev.kind == "close":
            continue
        before, after = events[:i], events[i + 1:]
        yield "drop", before + after
        yield "duplicate", before + (ev, ev) + after
        for shift in (-1, 1):
            yield f"t{shift:+}", before + (ev._replace(t=ev.t + shift),) + after
        for field in ("job_id", "server_id"):
            if getattr(ev, field) is not None:
                bumped = ev._replace(**{field: getattr(ev, field) + 1})
                yield f"{field}+1", before + (bumped,) + after


@settings(deadline=None)
@given(job_sequences(max_jobs=8, max_time=8), st.integers(1, 6))
def test_every_one_row_tamper_of_a_log_is_a_violation(seq, mu):
    for spec in all_strategy_specs(mu):
        events = simulate(build_strategy(spec, seq.capacity.e), seq).trace.events
        assert validate_trace(trace_from_events(seq, events)) == [], spec
        for tamper, log in _tampered_logs(events):
            assert validate_trace(trace_from_events(seq, log)), (spec, tamper, log)


def _edited_rows(events, rng, count):
    """``events`` with ``count`` edits, each a row deleted, two rows swapped,
    a row moved by one step, a row repeated, or a row's id raised by one;
    ``rng.randrange`` picks them."""
    log = list(events)
    pick = rng.randrange
    for _ in range(count):
        if not log:
            break
        i, edit = pick(len(log)), pick(5)
        ev = log[i]
        if edit == 0:
            del log[i]
        elif edit == 1:
            j = pick(len(log))
            log[i], log[j] = log[j], ev
        elif edit == 2:
            log[i] = ev._replace(t=ev.t + (1 if pick(2) else -1))
        elif edit == 3:
            log.insert(i, ev)
        elif ev.job_id is not None:
            log[i] = ev._replace(job_id=ev.job_id + 1)
        else:
            log[i] = ev._replace(server_id=ev.server_id + 1)
    return tuple(log)


@st.composite
def tampered_traces(draw):
    """A trace over a random sequence (ties on arrival are common) that the
    validator can flag in every way: a random assignment of some jobs, in
    shuffled order, plus jobs the sequence does not have, and closes of
    servers in and out of their rentals or never rented; or the trace a
    strategy's log replays to.  Either way its log is none, the run's own,
    or the run's with rows deleted, swapped, moved by one step, repeated or
    given the next id."""
    seq = draw(job_sequences(max_jobs=10, max_time=6, max_length=4))
    spec = draw(st.sampled_from(all_strategy_specs(draw(st.integers(1, 4)))))
    events = simulate(build_strategy(spec, seq.capacity.e), seq).trace.events
    log = draw(st.sampled_from([(), events, None]))
    if log is None:
        log = _edited_rows(events, draw(st.randoms(use_true_random=False)),
                           draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return trace_from_events(seq, log)
    k = draw(st.integers(1, len(seq)))
    jobs = draw(st.permutations([*seq.ids, len(seq) + 1, len(seq) + 2]))
    assigned = jobs[:draw(st.integers(0, len(jobs)))]
    assignments = {jid: draw(st.integers(1, k)) for jid in assigned}
    closes = draw(st.dictionaries(st.integers(1, k + 1), st.integers(0, 12), max_size=3))
    return PlacementTrace(seq, assignments, closes, log)


@settings(deadline=None, max_examples=300)
@given(tampered_traces())
def test_validator_matches_the_record_based_reference(trace):
    assert [str(v) for v in validate_trace(trace)] == \
        [str(v) for v in reference_validate_trace(trace)]


@pytest.mark.parametrize("mu", [2, 10, 100])
@pytest.mark.parametrize("i", [0, 1])
def test_validator_matches_the_record_based_reference_on_battery_seeds(mu, i):
    seed = BATTERY_SEED + mu * 10_000 + i
    seq = gen_uniform(UniformParams(n=1000, e=1000, t=1000, mu=mu, seed=seed))
    rng = random.Random(seed)
    for spec in all_strategy_specs(mu):
        trace = simulate(build_strategy(spec, seq.capacity.e), seq).trace
        for events in (trace.events, _edited_rows(trace.events, rng, 3)):
            for replayed in (trace_from_events(seq, events),
                             dataclasses.replace(trace, events=events)):
                assert [str(v) for v in validate_trace(replayed)] == \
                    [str(v) for v in reference_validate_trace(replayed)], spec


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
        # a second capacity line, lowering or raising the first one's capacity
        ("# capacity=10\nid,size,arrival,departure\n1,3,1,5\n# capacity=2\n2,1,2,6\n",
         "line 4: second capacity line (first on line 1)"),
        ("# capacity=2\nid,size,arrival,departure\n1,2,1,5\n# capacity=10\n2,1,2,6\n",
         "line 4: second capacity line (first on line 1)"),
    ]:
        bad = tmp_path / "c.csv"
        bad.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sequence_csv(bad)
