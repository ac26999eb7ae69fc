from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import rentsim.bounds

from rentsim import (
    CapacityConfig,
    Job,
    JobSequence,
    UniformParams,
    brute_force_opt,
    build_report,
    build_strategy,
    check_mnf_bound,
    check_mtf_bound,
    check_nf_bound,
    check_universal_bounds,
    compute_stats,
    lower_bound,
    gen_uniform,
    simulate,
)
from rentsim.strategies import ModifiedNextFit, MoveToFront, NextFit

from helpers import (
    BATTERY_SEED,
    all_strategy_specs,
    job_sequences,
    jobs_of,
    reference_check_mtf_bound,
)


def test_lower_bound_on_three_job_instance(three_job_instance):
    lb_span, lb_util, lb = lower_bound(three_job_instance)
    assert (lb_span, lb_util, lb) == (5, Fraction(18, 5), 5)


def test_lower_bound_single_full_size_job():
    seq = JobSequence([Job(1, 10, 2, 9)], CapacityConfig(10))
    assert lower_bound(seq) == (7, 7, 7)


def test_lower_bound_disjoint_unit_jobs():
    k = 6
    seq = JobSequence(
        [Job(i, 1, 2 * i, 2 * i + 1) for i in range(k)], CapacityConfig(10)
    )
    lb_span, lb_util, lb = lower_bound(seq)
    assert lb_span == k
    assert lb_util == Fraction(k, 10)
    assert lb == k


# ------------------------------------------------------------------- oracle

def test_oracle_on_three_job_instance(three_job_instance):
    # hand enumeration: {1,2}+{3} costs 5+2=7; every other feasible
    # partition costs at least 8
    assert brute_force_opt(three_job_instance) == 7


def test_oracle_single_job_costs_its_length():
    seq = JobSequence([Job(1, 3, 4, 9)], CapacityConfig(10))
    assert brute_force_opt(seq) == 5


def test_oracle_separates_full_size_overlap():
    seq = JobSequence([Job(1, 10, 0, 5), Job(2, 10, 2, 8)], CapacityConfig(10))
    assert brute_force_opt(seq) == 11  # 5 + 6, no sharing possible


def test_oracle_rejects_large_instances(monkeypatch):
    jobs = [Job(i, 1, 0, 1) for i in range(1, 10)]
    seq = JobSequence(jobs, CapacityConfig(10))
    with pytest.raises(ValueError, match="too large"):
        brute_force_opt(seq)
    monkeypatch.setattr(rentsim.bounds, "ORACLE_DEFAULT_LIMIT", 9)
    assert brute_force_opt(seq) == 1  # all nine fit one server


@given(job_sequences(max_jobs=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_oracle_is_permutation_invariant(seq, rng):
    shuffled = list(jobs_of(seq))
    rng.shuffle(shuffled)
    assert brute_force_opt(JobSequence(shuffled, seq.capacity)) == brute_force_opt(seq)


@given(job_sequences(max_jobs=6))
@settings(max_examples=60, deadline=None)
def test_oracle_dominates_lower_bound_and_no_strategy_beats_it(seq):
    opt = brute_force_opt(seq)
    _, _, lb = lower_bound(seq)
    assert opt >= lb
    stats = compute_stats(seq)
    mu_int = int(stats.mu) if stats.mu.denominator == 1 else int(stats.mu) + 1
    for spec in all_strategy_specs(max(1, mu_int)):
        strategy = build_strategy(spec, seq.capacity.e)
        result = simulate(strategy, seq, record_events=False)
        assert result.total_cost >= opt, f"{spec} beat the offline optimum"


# ------------------------------------------------------------- nf guarantee

def test_nf_bound_on_three_job_instance(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    stats = compute_stats(three_job_instance)
    entries = {e.name: e for e in check_nf_bound(result, stats)}
    worst = entries["nf_worst_case"]
    assert worst.formula_value == Fraction(69, 5)  # 5 + 2*(11/10)*4 = 13.8
    assert worst.cost == 7
    assert worst.satisfied
    cap = entries["nf_critical_cap"]
    assert cap.cost == 1 and cap.formula_value == Fraction(11, 5)
    assert cap.satisfied


def test_nf_bound_small_size_branch_needs_precondition(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    stats = compute_stats(three_job_instance)
    # max size 4 <= 10/2, so k=2 applies; k=3 does not (4 > 10/3)
    with_k2 = {e.name for e in check_nf_bound(result, stats, k=2)}
    assert "nf_worst_case_small_k=2" in with_k2
    with_k3 = {e.name for e in check_nf_bound(result, stats, k=3)}
    assert all("small" not in name for name in with_k3)


def test_nf_bound_small_size_branch_exact_values():
    # every size is at most 12/3, so k=3 applies: total size 11/12, cap
    # (11/12) / (1 - 1/3) = 11/8, span 6, longest job 4; one server holds all
    seq = JobSequence([Job(1, 4, 0, 3), Job(2, 3, 1, 4), Job(3, 4, 2, 6)], CapacityConfig(12))
    result = simulate(NextFit(12), seq)
    assert (result.total_cost, result.critical_count) == (6, 0)
    entries = {e.name: e for e in check_nf_bound(result, compute_stats(seq), k=3)}
    worst = entries["nf_worst_case_small_k=3"]
    assert (worst.formula_value, worst.cost) == (Fraction(23, 2), 6)  # 6 + (11/8)*4
    cap = entries["nf_critical_cap_small_k=3"]
    assert (cap.formula_value, cap.cost) == (Fraction(11, 8), 0)
    assert worst.satisfied and cap.satisfied


def test_nf_bound_rejects_foreign_results(three_job_instance):
    result = simulate(MoveToFront(10), three_job_instance)
    stats = compute_stats(three_job_instance)
    with pytest.raises(ValueError, match="nf"):
        check_nf_bound(result, stats)


@given(job_sequences(max_jobs=16))
@settings(max_examples=80, deadline=None)
def test_nf_bound_holds_on_random_instances(seq):
    stats = compute_stats(seq)
    result = simulate(NextFit(seq.capacity.e), seq, record_events=False)
    assert all(e.satisfied for e in check_nf_bound(result, stats, k=2))


@given(job_sequences())
@settings(max_examples=80, deadline=None)
def test_nf_report_checks_the_small_size_bound_at_e_over_the_largest_size(seq):
    result = simulate(NextFit(seq.capacity.e), seq, record_events=False)
    entries = build_report(result).entries
    assert all(e.satisfied for e in entries)
    small = [e.name for e in entries if "_small_k=" in e.name]
    k = Fraction(seq.capacity.e, max(seq.sizes))
    expected = [f"nf_worst_case_small_k={k}", f"nf_critical_cap_small_k={k}"]
    assert small == (expected if 2 * max(seq.sizes) <= seq.capacity.e else [])


# ------------------------------------------------------------ mnf guarantee

def test_mnf_bound_on_single_job():
    seq = JobSequence([Job(1, 4, 0, 5)], CapacityConfig(10))
    result = simulate(ModifiedNextFit(10, Fraction(2)), seq)
    entry = check_mnf_bound(result, compute_stats(seq), Fraction(2))
    assert entry.satisfied


@given(job_sequences(max_jobs=16), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_mnf_bound_holds_on_random_instances(seq, k):
    stats = compute_stats(seq)
    result = simulate(ModifiedNextFit(seq.capacity.e, Fraction(k)), seq,
                      record_events=False)
    entry = check_mnf_bound(result, stats, Fraction(k))
    assert entry.satisfied


def test_mnf_bound_with_known_mu_parameter(three_job_instance):
    # K = mu + 1 makes the growth factor collapse to 1
    stats = compute_stats(three_job_instance)
    k = stats.mu + 1
    result = simulate(ModifiedNextFit(10, k), three_job_instance)
    entry = check_mnf_bound(result, stats, k)
    assert entry.formula_value == k * stats.util + stats.span
    assert entry.satisfied


# ------------------------------------------------------------ mtf guarantee

def test_mtf_bound_on_three_job_instance(three_job_instance):
    result = simulate(MoveToFront(10), three_job_instance)
    stats = compute_stats(three_job_instance)
    entry = check_mtf_bound(result, stats)
    # 6*3*(18/5) + 5 + 3*3*2 = 87.8
    assert entry.formula_value == Fraction(439, 5)
    assert entry.cost == 7
    assert entry.satisfied


def test_mtf_bound_single_job():
    seq = JobSequence([Job(1, 5, 0, 4)], CapacityConfig(10))
    result = simulate(MoveToFront(10), seq)
    assert check_mtf_bound(result, compute_stats(seq)).satisfied


def test_mtf_bound_checks_each_continuous_segment():
    # two bursts separated by an idle gap are bounded segment by segment
    seq = JobSequence(
        [Job(1, 10, 0, 2), Job(2, 10, 5, 7), Job(3, 4, 5, 6)], CapacityConfig(10)
    )
    result = simulate(MoveToFront(10), seq)
    stats = compute_stats(seq)
    entry = check_mtf_bound(result, stats)
    assert entry.satisfied
    # segment bounds: both segments use the sequence-wide mu and delta
    mu1 = stats.mu + 1
    seg1 = 6 * mu1 * Fraction(20, 10) + 2 + 3 * mu1 * stats.delta
    seg2 = 6 * mu1 * Fraction(24, 10) + 2 + 3 * mu1 * stats.delta
    assert entry.formula_value == seg1 + seg2


@given(job_sequences(max_jobs=16, max_time=30), st.lists(st.integers(-40, 60), max_size=16))
@settings(max_examples=80, deadline=None)
# mu = 1: the moved server costs 5 + 2 * 20 = 45, its segment's bound exactly
@example(seq=JobSequence([Job(1, 1, 0, 5)], CapacityConfig(6)), shifts=[2])
# mu = 3/2: the second segment's moved server costs 6 + 3 * 20 = 66, its bound
# exactly, and one more step of shift passes it
@example(seq=JobSequence([Job(1, 1, 0, 4), Job(2, 1, 10, 16)], CapacityConfig(3)),
         shifts=[0, 3])
@example(seq=JobSequence([Job(1, 1, 0, 4), Job(2, 1, 10, 16)], CapacityConfig(3)),
         shifts=[0, 4])
# mu = 1: the moved server costs 20 + 20 * 19 = 400, past its segment's bound
# 6 * 2 * 20 + 20 + 3 * 2 * 20 = 380 by less than one more (mu + 1) * util, 40
@example(seq=JobSequence([Job(1, 6, 0, 20)], CapacityConfig(6)), shifts=[19])
def test_mtf_bound_sweep_matches_reference(seq, shifts):
    stats = compute_stats(seq)
    result = simulate(MoveToFront(seq.capacity.e), seq, record_events=False)
    assert check_mtf_bound(result, stats) == reference_check_mtf_bound(result, stats)
    # moved servers: opened before, between or after the segments, and
    # stretched until some segments break the bound; a trace derives its
    # records from its jobs, so the moved ones ride on a stand-in result
    servers = tuple(
        srv._replace(opened_at=srv.opened_at + shift,
                     released_at=srv.released_at + shift + 20 * abs(shift))
        for srv, shift in zip(result.trace.servers, shifts)
    ) + result.trace.servers[len(shifts):]
    moved = SimpleNamespace(strategy=result.strategy, total_cost=result.total_cost,
                            trace=SimpleNamespace(sequence=seq, servers=servers))
    assert check_mtf_bound(moved, stats) == reference_check_mtf_bound(moved, stats)


@pytest.mark.parametrize("mu", [2, 10, 100])
@pytest.mark.parametrize("i", [0, 1])
def test_mtf_bound_sweep_matches_reference_on_battery_seeds(mu, i):
    seq = gen_uniform(UniformParams(n=1000, e=1000, t=1000, mu=mu,
                                    seed=BATTERY_SEED + mu * 10_000 + i))
    stats = compute_stats(seq)
    result = simulate(MoveToFront(1000), seq, record_events=False)
    assert check_mtf_bound(result, stats) == reference_check_mtf_bound(result, stats)


def test_mtf_bound_rejects_foreign_results(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    with pytest.raises(ValueError, match="mtf"):
        check_mtf_bound(result, compute_stats(three_job_instance))


@given(job_sequences(max_jobs=16))
@settings(max_examples=80, deadline=None)
def test_mtf_bound_holds_on_random_instances(seq):
    stats = compute_stats(seq)
    result = simulate(MoveToFront(seq.capacity.e), seq, record_events=False)
    assert check_mtf_bound(result, stats).satisfied


# --------------------------------------------------------- universal bounds

@given(job_sequences(max_jobs=12))
@settings(max_examples=60, deadline=None)
def test_universal_bounds_hold_for_every_strategy(seq):
    stats = compute_stats(seq)
    for spec in all_strategy_specs(6):
        strategy = build_strategy(spec, seq.capacity.e)
        result = simulate(strategy, seq, record_events=False)
        assert all(e.satisfied for e in check_universal_bounds(result, stats))


def test_universal_bounds_tighten_with_large_sizes():
    # all sizes at least half the capacity: cost is at most twice the utilization
    seq = JobSequence(
        [Job(1, 6, 0, 4), Job(2, 8, 1, 5), Job(3, 5, 2, 3)], CapacityConfig(10)
    )
    stats = compute_stats(seq)
    result = simulate(build_strategy("bf", 10), seq)
    entries = {e.name: e for e in check_universal_bounds(result, stats)}
    entry = entries["ub_sizes_geq_e_over_k_k=2"]
    assert entry.formula_value == 2 * stats.util
    assert entry.satisfied


# ----------------------------------------------------------------- reports

def test_build_report_serializes_checks(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    report = build_report(result, with_oracle=True)
    assert report.lb_span == 5
    assert report.lb == 5
    assert report.opt_exact == 7
    payload = report.to_json()
    assert payload["lb_util"] == "18/5"
    names = [c["name"] for c in payload["checks"]]
    assert "nf_worst_case" in names and "cost_geq_opt" in names
    for check in payload["checks"]:
        assert set(check) == {"name", "formula_value", "cost", "satisfied"}
        assert check["satisfied"] is True
    json.dumps(payload)  # shape must be JSON-clean


def test_build_report_runs_strategy_specific_checks(three_job_instance):
    mtf = simulate(MoveToFront(10), three_job_instance)
    names = [e.name for e in build_report(mtf).entries]
    assert "mtf_guarantee" in names
    mnf = simulate(ModifiedNextFit(10, Fraction(3)), three_job_instance)
    names = [e.name for e in build_report(mnf).entries]
    assert "mnf_guarantee_k=3" in names
