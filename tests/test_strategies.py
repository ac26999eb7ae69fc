from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from rentsim import (
    CapacityConfig,
    Job,
    JobSequence,
    build_strategy,
    simulate,
)
from rentsim.strategies import (
    BestFit,
    FirstFit,
    Harmonic,
    ModifiedFirstFit,
    ModifiedNextFit,
    MoveToFront,
    NextFit,
)

from helpers import (
    BestFitOracle,
    FirstFitOracle,
    MoveToFrontOracle,
    NextFitOracle,
    ReplayState,
    all_strategy_specs,
    job_sequences,
    jobs_of,
    replay_check_placements,
)


# ---------------------------------------------------------------- parsing

def test_parse_all_selection_strings():
    assert build_strategy("nf", 10).name == "nf"
    assert build_strategy("ff", 10).name == "ff"
    assert build_strategy("bf", 10).name == "bf"
    assert build_strategy("mtf", 10).name == "mtf"
    assert build_strategy("mnf:2", 10).k == 2
    assert build_strategy("mff:8.5", 10).k == Fraction(17, 2)
    assert build_strategy("harmonic:10", 1000).k == 10
    # a strategy's name selects it again: bench rows and build_report parse it
    names = {build_strategy(spec, 1000).name
             for mu in (1, 2, 10, Fraction(3, 2)) for spec in all_strategy_specs(mu)}
    assert "mff:17/2" in names
    for name in names:
        assert build_strategy(name, 1000).name == name


@pytest.mark.parametrize(
    "text",
    ["what", "nf:3", "mnf", "mff", "mnf:1", "mnf:0", "mff:0", "harmonic:2.5", "harmonic:0"],
)
def test_parse_rejects_bad_selections(text):
    with pytest.raises(ValueError):
        build_strategy(text, 10)


@pytest.mark.parametrize(
    "cls, k, text",
    [(ModifiedNextFit, 1, "mnf:1"), (ModifiedFirstFit, 0, "mff:0"),
     (Harmonic, Fraction(5, 2), "harmonic:2.5")],
    ids=["mnf", "mff", "harmonic"],
)
def test_constructors_reject_what_parsing_rejects(cls, k, text):
    with pytest.raises(ValueError) as parsed:
        build_strategy(text, 10)
    with pytest.raises(ValueError, match=re.escape(str(parsed.value))):
        cls(10, k)


def test_parse_fills_parameter_from_mu():
    assert build_strategy("mnf", 10, mu=2).k == 3
    assert build_strategy("mff", 10, mu=2).k == 9
    assert build_strategy("mnf:5", 10, mu=2).k == 5  # explicit K wins


# ---------------------------------------------------------------- next fit

def test_next_fit_takes_exact_fit():
    seq = JobSequence([Job(1, 10, 0, 3)], CapacityConfig(10))
    result = simulate(NextFit(10), seq)
    assert result.servers_opened == 1


def test_next_fit_closes_on_each_misfit():
    seq = JobSequence(
        [Job(1, 6, 0, 9), Job(2, 6, 1, 9), Job(3, 6, 2, 9)], CapacityConfig(10)
    )
    result = simulate(NextFit(10), seq)
    assert result.servers_opened == 3
    closes = [e for e in result.trace.events if e.kind == "close"]
    assert [(e.t, e.server_id) for e in closes] == [(1, 1), (2, 2)]


# ------------------------------------------------------------ split streams

def test_modified_next_fit_splits_small_and_large():
    seq = JobSequence(
        [Job(1, 4, 0, 9), Job(2, 7, 1, 9), Job(3, 4, 2, 9)], CapacityConfig(10)
    )
    result = simulate(ModifiedNextFit(10, Fraction(2)), seq)
    assert result.trace.assignments == {1: 1, 2: 2, 3: 1}
    assert result.trace.servers[0].jobs == (1, 3)


def test_modified_first_fit_splits_small_and_large():
    seq = JobSequence(
        [Job(1, 4, 0, 9), Job(2, 7, 1, 9), Job(3, 4, 2, 9)], CapacityConfig(10)
    )
    result = simulate(ModifiedFirstFit(10, Fraction(2)), seq)
    assert result.trace.assignments == {1: 1, 2: 2, 3: 1}


def test_threshold_comparison_is_exact_rational():
    # E=10, K=3: threshold 10/3, so 3 is small and 4 is large
    seq = JobSequence([Job(1, 3, 0, 5), Job(2, 4, 0, 5)], CapacityConfig(10))
    result = simulate(ModifiedFirstFit(10, Fraction(3)), seq)
    assert result.servers_opened == 2  # different streams never share


@given(job_sequences(max_e=10))
def test_all_large_modified_next_fit_equals_next_fit(seq):
    # with K=2 and every size at least half the capacity there is no small stream
    e = seq.capacity.e
    bumped = [
        Job(j.id, max(j.size, (e + 1) // 2), j.arrival, j.departure) for j in jobs_of(seq)
    ]
    big = JobSequence(bumped, seq.capacity)
    assert all(2 * j.size >= e for j in jobs_of(big))
    mnf = simulate(ModifiedNextFit(e, Fraction(2)), big)
    nf = simulate(NextFit(e), big)
    assert mnf.trace.assignments == nf.trace.assignments
    assert mnf.total_cost == nf.total_cost


# ---------------------------------------------------------------- first fit

def test_first_fit_opens_when_nothing_fits():
    seq = JobSequence(
        [Job(1, 1, 0, 9), Job(2, 10, 1, 9)], CapacityConfig(10)
    )
    result = simulate(FirstFit(10), seq)
    assert result.trace.assignments == {1: 1, 2: 2}


# ---------------------------------------------------------------- best fit

def test_best_fit_breaks_level_ties_toward_earlier_server():
    seq = JobSequence(
        [Job(1, 5, 0, 9), Job(2, 5, 1, 9), Job(3, 2, 2, 9)], CapacityConfig(7)
    )
    result = simulate(BestFit(7), seq)
    assert result.trace.assignments[3] == 1


def test_best_fit_reorders_after_departure():
    # server 1 leads at level 6 until its job departs; then server 2 (level 5)
    # is the fullest and must receive the next item
    seq = JobSequence(
        [Job(1, 6, 0, 3), Job(2, 5, 1, 9), Job(3, 4, 4, 9)], CapacityConfig(10)
    )
    result = simulate(BestFit(10), seq)
    assert result.trace.assignments[3] == 2


# ---------------------------------------------------------------- harmonic

def test_harmonic_class_boundaries():
    h = Harmonic(1000, 10)
    assert h.size_class(600) == 1
    assert h.size_class(501) == 1
    assert h.size_class(500) == 2
    assert h.size_class(450) == 2
    assert h.size_class(101) == 9
    assert h.size_class(100) == 10
    assert h.size_class(90) == 10
    assert h.size_class(1) == 10


def test_harmonic_fills_class_stream_next_fit_style():
    seq = JobSequence(
        [Job(i, 3, i - 1, 20) for i in range(1, 5)], CapacityConfig(10)
    )
    result = simulate(Harmonic(10, 3), seq)
    assert result.trace.servers[0].jobs == (1, 2, 3)
    assert result.trace.assignments[4] == 2


@given(job_sequences(max_e=10))
def test_harmonic_with_one_class_equals_next_fit(seq):
    h = simulate(Harmonic(seq.capacity.e, 1), seq)
    nf = simulate(NextFit(seq.capacity.e), seq)
    assert h.trace.assignments == nf.trace.assignments
    assert h.total_cost == nf.total_cost


# ------------------------------------------------------------ move to front

def test_move_to_front_prefers_recent_server():
    seq = JobSequence(
        [Job(1, 6, 0, 8), Job(2, 6, 1, 9), Job(3, 3, 2, 5)], CapacityConfig(10)
    )
    mtf = simulate(MoveToFront(10), seq)
    ff = simulate(FirstFit(10), seq)
    assert mtf.trace.assignments[3] == 2
    assert ff.trace.assignments[3] == 1


def test_move_to_front_promotes_back_of_list():
    # only the oldest (back-of-list) server fits the third item; afterwards it
    # must be at the front and receive the fourth item as well
    seq = JobSequence(
        [Job(1, 2, 0, 20), Job(2, 9, 1, 20), Job(3, 8, 2, 20), Job(4, 7, 3, 20)],
        CapacityConfig(10),
    )
    result = simulate(MoveToFront(10), seq)
    assert result.trace.assignments == {1: 1, 2: 2, 3: 1, 4: 3}
    # after job 3 lands in server 1 the list is [1, 2]; job 4 fits nowhere,
    # opens server 3, and a later fit-anywhere item would scan 3 first
    seq2 = JobSequence(
        list(jobs_of(seq)) + [Job(5, 1, 4, 20)], CapacityConfig(10)
    )
    result2 = simulate(MoveToFront(10), seq2)
    assert result2.trace.assignments[5] == 3


# ------------------------------------------------- replay oracles (full runs)

@given(job_sequences(max_jobs=14))
def test_first_fit_matches_replay_oracle(seq):
    replay_check_placements(simulate(FirstFit(seq.capacity.e), seq), FirstFitOracle())


@given(job_sequences(max_jobs=14))
def test_best_fit_matches_replay_oracle(seq):
    replay_check_placements(simulate(BestFit(seq.capacity.e), seq), BestFitOracle())


@given(job_sequences(max_jobs=14))
def test_next_fit_matches_replay_oracle(seq):
    replay_check_placements(simulate(NextFit(seq.capacity.e), seq), NextFitOracle())


@given(job_sequences(max_jobs=14))
def test_move_to_front_matches_replay_oracle(seq):
    result = simulate(MoveToFront(seq.capacity.e), seq)
    replay_check_placements(result, MoveToFrontOracle())


def test_move_to_front_list_ends_in_recency_order():
    seq = JobSequence(
        [Job(1, 6, 0, 8), Job(2, 6, 1, 9), Job(3, 3, 2, 5)], CapacityConfig(10)
    )
    result = simulate(MoveToFront(10), seq)
    oracle = MoveToFrontOracle()
    replay_check_placements(result, oracle)
    # job 3 went to server 2, so the final recency order is [2, 1]
    assert oracle.order == [2, 1]


@pytest.mark.parametrize("make", [FirstFit, BestFit, MoveToFront])
@given(seq=job_sequences(max_jobs=14))
def test_any_fit_never_opens_when_something_fits(make, seq):
    result = simulate(make(seq.capacity.e), seq)
    seen: set[int] = set()
    # replay: at each placement into a brand-new server, no open server fit
    state = ReplayState(seq)
    for ev in result.trace.events:
        if ev.kind == "depart":
            state.depart(ev)
        elif ev.kind == "release":
            state.release(ev)
        elif ev.kind == "place":
            size = state.jobs[ev.job_id].size
            if ev.server_id not in seen:
                seen.add(ev.server_id)
                assert all(
                    not state.fits(sid, size) for sid in state.open_candidates()
                ), f"opened server {ev.server_id} although an open one fit"
            state.place(ev)


# ------------------------------------------------------- stream independence

def _grouping(result, job_ids):
    groups = []
    for srv in result.trace.servers:
        kept = tuple(jid for jid in srv.jobs if jid in job_ids)
        if kept:
            groups.append(kept)
    return groups


@given(job_sequences(max_jobs=14), st.integers(2, 4))
def test_split_stream_traces_match_base_strategy_on_subsequence(seq, k):
    e = seq.capacity.e
    k = Fraction(k)
    small_ids = {j.id for j in jobs_of(seq) if j.size * k < e}
    large_ids = {j.id for j in jobs_of(seq)} - small_ids
    for split, base in (
        (ModifiedNextFit(e, k), NextFit(e)),
        (ModifiedFirstFit(e, k), FirstFit(e)),
    ):
        whole = simulate(split, seq)
        for ids in (small_ids, large_ids):
            if not ids:
                continue
            sub = JobSequence([j for j in jobs_of(seq) if j.id in ids], seq.capacity)
            alone = simulate(base, sub)
            assert _grouping(whole, ids) == _grouping(alone, ids)


@given(job_sequences(max_jobs=12, max_e=8), st.integers(1, 4))
def test_harmonic_classes_run_independent_next_fit(seq, k):
    e = seq.capacity.e
    strategy = Harmonic(e, k)
    whole = simulate(strategy, seq)
    for cls in range(1, k + 1):
        ids = {j.id for j in jobs_of(seq) if strategy.size_class(j.size) == cls}
        if not ids:
            continue
        sub = JobSequence([j for j in jobs_of(seq) if j.id in ids], seq.capacity)
        alone = simulate(NextFit(e), sub)
        assert _grouping(whole, ids) == _grouping(alone, ids)


class _StreamWatch:
    """Wraps a Next Fit family strategy; asserts that no view shows two servers
    of one stream, the invariant that lets ``_next_fit_stream`` stop at the
    first server of its stream."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.views = 0

    def place(self, view):
        tags = [tag for _, _, tag in view.servers]
        assert len(tags) == len(set(tags)), f"{self.name}: two open servers in a stream: {tags}"
        self.views += 1
        return self.inner.place(view)


@given(job_sequences(max_jobs=16, max_time=8), st.integers(2, 6))
def test_next_fit_streams_show_at_most_one_server_each(seq, k):
    for spec in ("nf", f"mnf:{k}", f"harmonic:{k}", "harmonic:1"):
        watch = _StreamWatch(build_strategy(spec, seq.capacity.e))
        simulate(watch, seq)
        assert watch.views == len(seq)


# ------------------------------------------------ unit lengths (criterion 8c)

@st.composite
def _unit_length_sequences(draw):
    e = draw(st.integers(2, 12))
    rows = draw(st.lists(st.tuples(st.integers(1, e), st.integers(0, 3)),
                         min_size=1, max_size=14))
    jobs = [Job(i, size, t, t + 1) for i, (size, t) in enumerate(rows, 1)]
    return JobSequence(jobs, CapacityConfig(e))


def _servers_rented_per_step(seq, spec) -> Counter:
    counts: Counter = Counter()
    for server in simulate(build_strategy(spec, seq.capacity.e), seq).trace.servers:
        counts.update(range(server.opened_at, server.released_at))
    return counts


@given(_unit_length_sequences())
def test_next_fit_rents_the_most_servers_at_every_step_on_unit_lengths(seq):
    # the claim behind criterion 8c: with every job leaving one step after it
    # arrives, each step is a fresh bin packing, and Next Fit needs the most bins
    nf = _servers_rented_per_step(seq, "nf")
    for spec in ("ff", "bf", "mtf"):
        other = _servers_rented_per_step(seq, spec)
        assert all(nf[t] >= other[t] for t in range(4)), spec
