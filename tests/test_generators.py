from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import rentsim

from rentsim import (
    AdversaryParams,
    CapacityConfig,
    Job,
    JobSequence,
    SplitMix64,
    UniformParams,
    adversary_ratio_bound,
    brute_force_opt,
    build_strategy,
    compute_stats,
    gen_adversarial,
    gen_uniform,
    lower_bound,
    simulate,
    write_sequence_csv,
)

from helpers import PeekingFirstFit, all_strategy_specs, next_u64, randint, reference_draw


def test_splitmix64_reference_vector():
    # canonical first outputs for the all-zero seed
    rng = SplitMix64(0)
    assert [next_u64(rng) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_randint_stays_in_range_and_covers_it():
    rng = SplitMix64(99)
    draws = [randint(rng, 3, 7) for _ in range(2000)]
    assert set(draws) == {3, 4, 5, 6, 7}
    with pytest.raises(ValueError):
        randint(rng, 5, 4)


# (0, 3*2**62 - 1) rejects a quarter of all outputs; (0, 2**64 - 1) rejects none
# and reduces none
_BOUNDS = st.sampled_from(
    [(0, 3 * 2**62 - 1), (0, 2**64 - 1), (1, 1000), (1, 9990), (7, 7), (-5, 5)])


@given(st.integers(0, 2**64 - 1), st.lists(_BOUNDS, max_size=5), st.integers(1, 700))
@example(seed=2**64 - 1, pattern=[(0, 3 * 2**62 - 1), (0, 2**64 - 1), (1, 10)], repeats=700)
def test_draw_matches_the_scalar_loop(seed, pattern, repeats):
    # up to 3,500 ranges, more than one batch of outputs and rejections inside a batch
    bounds = pattern * repeats
    rng = SplitMix64(seed)
    expected, state = reference_draw(seed, bounds)
    assert rng.draw(SplitMix64.ranges(*bounds)) == expected
    assert next_u64(rng) == reference_draw(state, [(0, 2**64 - 1)])[0][0]


def test_ranges_rejects_more_than_two_to_the_64_values():
    assert SplitMix64.ranges((0, 2**64 - 1)) == ((0, 2**64, 2**64),)
    assert SplitMix64.ranges((-(2**63), 2**63 - 1)) == ((-(2**63), 2**64, 2**64),)
    for bounds in ((0, 2**64), (1, 10**23)):
        with pytest.raises(ValueError, match=r"more than 2\*\*64 values"):
            SplitMix64.ranges(bounds)
    with pytest.raises(ValueError, match=r"more than 2\*\*64 values"):
        UniformParams(n=1, e=10, t=10**23, mu=2, seed=1)


def test_cli_generate_rejects_a_range_beyond_two_to_the_64(tmp_path):
    # before the check, a limit of 0 made the rejection loop spin for ever
    src = str(Path(rentsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "rentsim.cli", "generate", "uniform", "--n", "1", "--e", "10",
         "--t", str(10**23), "--mu", "2", "--seed", "1", "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr == (f"error: range [1, {10**23 - 2}] has more than 2**64 values\n")
    assert not (tmp_path / "x.csv").exists()


def test_uniform_params_validation():
    with pytest.raises(ValueError):
        UniformParams(n=0, e=10, t=10, mu=2, seed=1)
    with pytest.raises(ValueError):
        UniformParams(n=1, e=10, t=2, mu=2, seed=1)
    with pytest.raises(ValueError):
        UniformParams(n=1, e=10, t=10, mu=2, seed=1, size_min=0)
    with pytest.raises(ValueError):
        UniformParams(n=1, e=10, t=10, mu=2, seed=1, size_max=11)


def test_uniform_sequences_are_seed_deterministic(tmp_path):
    params = UniformParams(n=500, e=100, t=200, mu=10, seed=12345)
    a, b = gen_uniform(params), gen_uniform(params)
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sequence_csv(a, pa)
    write_sequence_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("size_max", [None, 500])
def test_uniform_jobs_equal_jobs_built_row_by_row(size_max):
    seq = gen_uniform(UniformParams(n=2000, e=1000, t=1000, mu=10, seed=5, size_max=size_max))
    draws = SplitMix64(5).draw(SplitMix64.ranges((1, size_max or 1000), (1, 990), (1, 10)) * 2000)
    rows = [Job(i, size, arrival, arrival + length) for i, (size, arrival, length)
            in enumerate(zip(draws[0::3], draws[1::3], draws[2::3]), 1)]
    rows.sort(key=lambda job: job.arrival)
    assert [type(job) for job in seq] == [Job] * len(rows)
    assert list(seq) == rows
    assert [hash(job) for job in seq] == [hash(job) for job in rows]


def test_uniform_sequences_differ_across_seeds():
    base = dict(n=50, e=100, t=200, mu=10)
    digests = {
        hash(gen_uniform(UniformParams(seed=s, **base)).jobs) for s in range(100)
    }
    assert len(digests) == 100


def test_uniform_respects_ranges():
    params = UniformParams(n=2000, e=50, t=100, mu=7, seed=11, size_min=10, size_max=20)
    seq = gen_uniform(params)
    assert all(10 <= j.size <= 20 for j in seq.jobs)
    assert all(1 <= j.arrival <= 100 - 7 for j in seq.jobs)
    assert all(1 <= j.departure - j.arrival <= 7 for j in seq.jobs)


def test_uniform_mu_one_gives_unit_lengths():
    seq = gen_uniform(UniformParams(n=200, e=10, t=50, mu=1, seed=3))
    assert all(j.departure - j.arrival == 1 for j in seq.jobs)


def test_uniform_mean_size_matches_distribution():
    params = UniformParams(n=100_000, e=1000, t=10_000, mu=10, seed=2024)
    seq = gen_uniform(params)
    mean = sum(j.size for j in seq.jobs) / len(seq)
    assert abs(mean - 500.5) <= 5.005  # within 1 percent of (E+1)/2


# -------------------------------------------------------------- adversary

def test_adversary_params_validation():
    good = dict(mu=3, delta=1, phases=1, target="nf", e=10)
    AdversaryParams(eps=Fraction(1, 2), **good)
    with pytest.raises(ValueError, match="1/eps"):
        AdversaryParams(eps=Fraction(2, 3), **good)
    with pytest.raises(ValueError, match="eps"):
        AdversaryParams(eps=Fraction(3, 2), **good)
    with pytest.raises(ValueError, match="integer"):
        AdversaryParams(eps=Fraction(1, 3), **good)  # eps*e = 10/3
    with pytest.raises(ValueError, match="target"):
        AdversaryParams(eps=Fraction(1, 2), mu=3, delta=1, phases=1, target="", e=10)


def test_adversary_single_phase_hand_trace():
    params = AdversaryParams(
        eps=Fraction(1, 2), mu=3, delta=1, phases=1, target="nf", e=10
    )
    seq, offline = gen_adversarial(params)
    assert [(j.size, j.arrival, j.departure) for j in seq.jobs] == [
        (5, 0, 3),
        (5, 0, 1),
        (5, 0, 3),
        (5, 0, 1),
    ]
    assert offline == 4  # 3 for the survivors' server, 1 for the leavers'
    result = simulate(build_strategy("nf", 10), seq)
    assert result.total_cost == 6
    assert Fraction(result.total_cost, 1) / offline == adversary_ratio_bound(
        Fraction(1, 2), 3
    )
    assert brute_force_opt(seq) == offline


def test_adversary_offline_cost_is_the_utilization_bound():
    params = AdversaryParams(
        eps=Fraction(1, 5), mu=4, delta=2, phases=3, target="ff", e=25
    )
    seq, offline = gen_adversarial(params)
    lb_span, lb_util, lb = lower_bound(seq)
    assert offline >= lb
    assert offline == lb_util  # the construction packs with zero slack


def test_adversary_mu_one_everything_leaves_at_delta():
    params = AdversaryParams(
        eps=Fraction(1, 2), mu=1, delta=2, phases=2, target="bf", e=10
    )
    seq, offline = gen_adversarial(params)
    assert all(j.departure - j.arrival == 2 for j in seq.jobs)
    assert adversary_ratio_bound(Fraction(1, 2), 1) == 1
    result = simulate(build_strategy("bf", 10), seq)
    assert Fraction(result.total_cost, 1) / offline == 1


@pytest.mark.parametrize("target", ["nf", "ff", "bf", "mtf", "harmonic:10", "mnf:11", "mff:17"])
def test_adversary_forces_the_ratio_floor(target):
    eps, mu = Fraction(1, 10), 10
    params = AdversaryParams(eps=eps, mu=mu, delta=1, phases=5, target=target, e=10)
    seq, offline = gen_adversarial(params)
    result = simulate(build_strategy(target, 10), seq, record_events=False)
    ratio = Fraction(result.total_cost) / offline
    floor = adversary_ratio_bound(eps, mu)
    assert ratio >= Fraction(9, 10) * floor
    # ...and by twenty phases the ratio sits within five percent of the floor
    params20 = AdversaryParams(eps=eps, mu=mu, delta=1, phases=20, target=target, e=10)
    seq20, offline20 = gen_adversarial(params20)
    result20 = simulate(build_strategy(target, 10), seq20, record_events=False)
    ratio20 = Fraction(result20.total_cost) / offline20
    assert abs(ratio20 - floor) <= Fraction(5, 100) * floor


def _phases_grouped_unlike_the_probe(params, make_strategy) -> list[int]:
    """The phases whose jobs the real run groups into servers otherwise than the probe.

    The adversary picks departures from a probe run that places a phase's
    arrivals with every job departing at mu*delta.  It assumes the run on
    the real sequence groups them alike, which holds only if no strategy
    reads a departure.  ``make_strategy(seq)`` builds the strategy for a run
    on ``seq``.
    """
    seq, _ = gen_adversarial(params)
    real = simulate(make_strategy(seq), seq, record_events=False).trace.assignments
    length = params.mu * params.delta
    mismatched = []
    for phase in range(params.phases):
        start = phase * length
        jobs = [Job(job.id, job.size, start, start + length)
                for job in seq.jobs if job.arrival == start]
        probe_seq = JobSequence(jobs, CapacityConfig(params.e))
        probe = simulate(make_strategy(probe_seq), probe_seq, record_events=False)
        groups = []
        for assignments in (real, probe.trace.assignments):
            servers: dict[int, set[int]] = {}
            for job in jobs:
                servers.setdefault(assignments[job.id], set()).add(job.id)
            groups.append(sorted(map(sorted, servers.values())))
        if groups[0] != groups[1]:
            mismatched.append(phase)
    return mismatched


@pytest.mark.parametrize("phases", [1, 5])
@pytest.mark.parametrize("mu", [2, 10])
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 10)], ids=["1/2", "1/10"])
def test_adversary_phases_are_grouped_as_in_the_probe(eps, mu, phases):
    e = eps.denominator
    for target in all_strategy_specs(mu):
        params = AdversaryParams(eps=eps, mu=mu, delta=1, phases=phases, target=target, e=e)
        assert _phases_grouped_unlike_the_probe(
            params, lambda seq: build_strategy(target, e)) == [], target


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 10)], ids=["1/2", "1/10"])
def test_a_departure_peeking_strategy_breaks_the_adversary_premise(eps):
    # jobs staying longer than one step get a server of their own, so the
    # probe (all jobs stay mu steps) and the real run group every phase apart
    params = AdversaryParams(eps=eps, mu=2, delta=1, phases=3, target="ff", e=eps.denominator)
    assert _phases_grouped_unlike_the_probe(
        params, lambda seq: PeekingFirstFit(seq, limit=1)) == [0, 1, 2]


def test_adversary_phases_are_time_disjoint():
    params = AdversaryParams(
        eps=Fraction(1, 2), mu=3, delta=2, phases=4, target="mtf", e=10
    )
    seq, _ = gen_adversarial(params)
    phase_span = 3 * 2
    for job in seq.jobs:
        phase = job.arrival // phase_span
        assert job.arrival == phase * phase_span
        assert job.departure <= (phase + 1) * phase_span
    assert compute_stats(seq).span == 4 * phase_span
