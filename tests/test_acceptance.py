"""Acceptance gate: each numbered criterion runs at its stated tolerance
and prints one PASS/FAIL line.  All comparisons on costs and bounds are
exact rational arithmetic; ordering checks on benchmark means use the
fixed seed bases below.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and progress notes (the batteries take a few minutes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

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
    check_mnf_bound,
    check_mtf_bound,
    check_nf_bound,
    check_universal_bounds,
    compute_stats,
    gen_adversarial,
    gen_uniform,
    lower_bound,
    simulate,
)
from rentsim.bench import ExperimentSpec, run_experiment
from rentsim.cli import main as cli_main
from rentsim.strategies import ModifiedNextFit, MoveToFront, NextFit

from helpers import BATTERY_SEED, all_strategy_specs, next_u64, randint, record_verdict as _verdict

BATTERY_MUS = (2, 10, 100)
BATTERY_COUNT = 1000
BATTERY_N = 1000
BATTERY_E = 1000
BATTERY_T = 1000
CAPPED_SEED = 2_000_000
DESK_SEED_BASE = 1


# --------------------------------------------------------------------------
# criterion 1: reference instance reproduced exactly, oracle agrees


def test_criterion_01_reference_instance(three_job_instance):
    result = simulate(NextFit(10), three_job_instance)
    first, second = result.trace.servers
    ok = (
        result.servers_opened == 2
        and result.total_cost == 7
        and first.closed_at == 3
        and first.released_at == 6
        and second.released_at == 5
        and (3, "close") in [(e.t, e.kind) for e in result.trace.events]
        and brute_force_opt(three_job_instance) == 7
    )
    _verdict("1", ok, f"cost={result.total_cost} opt={brute_force_opt(three_job_instance)}")
    assert ok


# --------------------------------------------------------------------------
# criterion 2: the adversary forces at least 95 percent of the ratio floor


@pytest.mark.parametrize("target", ["nf", "ff"])
def test_criterion_02_adversary_ratio(target):
    eps, mu = Fraction(1, 10), 10
    params = AdversaryParams(eps=eps, mu=mu, delta=1, phases=20, target=target, e=10)
    seq, offline = gen_adversarial(params)
    result = simulate(build_strategy(target, 10), seq, record_events=False)
    ratio = Fraction(result.total_cost) / offline
    floor = Fraction(95, 100) * adversary_ratio_bound(eps, mu)  # 0.95 * 10/1.9
    ok = ratio >= floor
    _verdict("2", ok, f"target={target} ratio={float(ratio):.4f} floor={float(floor):.4f}")
    assert ok


# --------------------------------------------------------------------------
# criteria 3-6 share one battery pass: per mu, 10^3 seeded instances with
# NF, MNF(mu+1) and MTF runs, plus 10^3 size-capped instances for NF


@dataclass
class BatteryOutcome:
    nf: list[str] = field(default_factory=list)
    nf_capped: list[str] = field(default_factory=list)
    capped_small_entries: int = 0
    mnf: list[str] = field(default_factory=list)
    mtf: list[str] = field(default_factory=list)
    universal: list[str] = field(default_factory=list)
    runs: int = 0


@pytest.fixture(scope="session")
def battery() -> BatteryOutcome:
    out = BatteryOutcome()
    for mu in BATTERY_MUS:
        started = time.time()
        for i in range(BATTERY_COUNT):
            seed = BATTERY_SEED + mu * 10_000 + i
            seq = gen_uniform(
                UniformParams(n=BATTERY_N, e=BATTERY_E, t=BATTERY_T, mu=mu, seed=seed)
            )
            stats = compute_stats(seq)
            tag = f"mu={mu} seed={seed}"

            nf = simulate(NextFit(BATTERY_E), seq, record_events=False)
            for entry in check_nf_bound(nf, stats):
                if not entry.satisfied:
                    out.nf.append(f"{tag} {entry.name}")
            mnf = simulate(ModifiedNextFit(BATTERY_E, Fraction(mu + 1)), seq,
                           record_events=False)
            if not check_mnf_bound(mnf, stats, Fraction(mu + 1)).satisfied:
                out.mnf.append(tag)
            mtf = simulate(MoveToFront(BATTERY_E), seq, record_events=False)
            if not check_mtf_bound(mtf, stats).satisfied:
                out.mtf.append(tag)
            for result in (nf, mnf, mtf):
                out.runs += 1
                for entry in check_universal_bounds(result, stats):
                    if not entry.satisfied:
                        out.universal.append(f"{tag} {result.strategy} {entry.name}")
        print(f"[acceptance] battery mu={mu}: {BATTERY_COUNT} instances x 3 runs "
              f"in {time.time() - started:.0f}s", flush=True)

        started = time.time()
        for i in range(BATTERY_COUNT):
            seed = CAPPED_SEED + mu * 10_000 + i
            seq = gen_uniform(
                UniformParams(n=BATTERY_N, e=BATTERY_E, t=BATTERY_T, mu=mu,
                              seed=seed, size_max=BATTERY_E // 2)
            )
            stats = compute_stats(seq)
            nf = simulate(NextFit(BATTERY_E), seq, record_events=False)
            entries = check_nf_bound(nf, stats, k=2)
            out.capped_small_entries += sum(
                1 for e in entries if e.name.startswith("nf_worst_case_small")
            )
            for entry in entries:
                if not entry.satisfied:
                    out.nf_capped.append(f"mu={mu} seed={seed} {entry.name}")
            out.runs += 1
            for entry in check_universal_bounds(nf, stats):
                if not entry.satisfied:
                    out.universal.append(f"mu={mu} seed={seed} nf {entry.name}")
        print(f"[acceptance] capped battery mu={mu}: {BATTERY_COUNT} NF runs "
              f"in {time.time() - started:.0f}s", flush=True)
    return out


def test_criterion_03_next_fit_bound_battery(battery):
    ok = (
        not battery.nf
        and not battery.nf_capped
        and battery.capped_small_entries == len(BATTERY_MUS) * BATTERY_COUNT
    )
    _verdict(
        "3", ok,
        f"{len(BATTERY_MUS) * BATTERY_COUNT} runs + "
        f"{battery.capped_small_entries} capped checks, "
        f"violations={len(battery.nf) + len(battery.nf_capped)}",
    )
    assert ok, (battery.nf + battery.nf_capped)[:5]


def test_criterion_04_modified_next_fit_bound_battery(battery):
    ok = not battery.mnf
    _verdict("4", ok, f"violations={len(battery.mnf)}")
    assert ok, battery.mnf[:5]


def test_criterion_05_move_to_front_bound_battery(battery):
    ok = not battery.mtf
    _verdict("5", ok, f"violations={len(battery.mtf)}")
    assert ok, battery.mtf[:5]


# --------------------------------------------------------------------------
# criterion 6: universal bounds on every run, plus the large-size refinement


@pytest.fixture(scope="session")
def strategy_sweep():
    """All seven strategies over smaller default and size-floored batteries."""
    universal: list[str] = []
    floored: list[str] = []
    runs = 0
    for mu in (2, 10):
        for i in range(100):
            seed = 3_000_000 + mu * 10_000 + i
            seq = gen_uniform(
                UniformParams(n=BATTERY_N, e=BATTERY_E, t=BATTERY_T, mu=mu, seed=seed)
            )
            stats = compute_stats(seq)
            for spec in all_strategy_specs(mu):
                result = simulate(build_strategy(spec, BATTERY_E), seq,
                                  record_events=False)
                runs += 1
                for entry in check_universal_bounds(result, stats):
                    if not entry.satisfied:
                        universal.append(f"mu={mu} seed={seed} {spec} {entry.name}")
        for i in range(100):
            seed = 4_000_000 + mu * 10_000 + i
            seq = gen_uniform(
                UniformParams(n=BATTERY_N, e=BATTERY_E, t=BATTERY_T, mu=mu,
                              seed=seed, size_min=BATTERY_E // 2)
            )
            stats = compute_stats(seq)
            for spec in all_strategy_specs(mu):
                result = simulate(build_strategy(spec, BATTERY_E), seq,
                                  record_events=False)
                runs += 1
                for entry in check_universal_bounds(result, stats):
                    if not entry.satisfied:
                        universal.append(f"mu={mu} seed={seed} {spec} {entry.name}")
                # every size is at least E/2, so cost is within twice util
                if Fraction(result.total_cost) > 2 * stats.util:
                    floored.append(f"mu={mu} seed={seed} {spec}")
    return universal, floored, runs


def test_criterion_06_universal_bounds(battery, strategy_sweep):
    sweep_universal, floored, sweep_runs = strategy_sweep
    ok = not battery.universal and not sweep_universal and not floored
    _verdict(
        "6", ok,
        f"{battery.runs + sweep_runs} runs checked, violations="
        f"{len(battery.universal) + len(sweep_universal) + len(floored)}",
    )
    assert ok, (battery.universal + sweep_universal + floored)[:5]


# --------------------------------------------------------------------------
# criterion 7: no strategy beats the exact optimum on tiny instances


def test_criterion_07_oracle_dominance():
    rng = SplitMix64(20_260_810)
    violations = []
    for case in range(500):
        n = randint(rng, 1, 6)
        seq = gen_uniform(
            UniformParams(n=n, e=12, t=12, mu=4, seed=next_u64(rng))
        )
        opt = brute_force_opt(seq)
        _, _, lb = lower_bound(seq)
        if opt < lb:
            violations.append(f"case={case} opt {opt} below lower bound {lb}")
        for spec in all_strategy_specs(4):
            result = simulate(build_strategy(spec, 12), seq, record_events=False)
            if result.total_cost < opt:
                violations.append(f"case={case} {spec} beat the oracle")
    ok = not violations
    _verdict("7", ok, f"500 instances x 7 strategies, violations={len(violations)}")
    assert ok, violations[:5]


# --------------------------------------------------------------------------
# criterion 8: average-case orderings on the desk-scale benchmark


def _cell_ratios(strategies, t, mus, trials=30):
    spec = ExperimentSpec(
        strategies=strategies, ns=(10_000,), es=(1000,), ts=(t,), mus=mus,
        trials=trials, seed_base=DESK_SEED_BASE,
    )
    rows = run_experiment(spec)
    return {(r.mu, r.strategy): r.mean_ratio for r in rows}


def test_criterion_08a_move_to_front_leads_midrange():
    ratios = _cell_ratios(("nf", "ff", "mtf"), t=10_000, mus=(2, 10))
    ok = all(
        ratios[(mu, "mtf")] < ratios[(mu, "ff")]
        and ratios[(mu, "mtf")] < ratios[(mu, "nf")]
        for mu in (2, 10)
    )
    detail = ", ".join(
        f"mu={mu}: mtf={float(ratios[(mu, 'mtf')]):.4f} "
        f"ff={float(ratios[(mu, 'ff')]):.4f} nf={float(ratios[(mu, 'nf')]):.4f}"
        for mu in (2, 10)
    )
    _verdict("8a", ok, detail)
    assert ok


def test_criterion_08b_best_fit_leads_long_jobs():
    ratios = _cell_ratios(("bf", "mtf"), t=10_000, mus=(100,))
    ok = ratios[(100, "bf")] <= ratios[(100, "mtf")]
    _verdict(
        "8b", ok,
        f"bf={float(ratios[(100, 'bf')]):.4f} mtf={float(ratios[(100, 'mtf')]):.4f}",
    )
    assert ok


def test_criterion_08c_next_fit_near_front_on_unit_lengths():
    # The claimed near-tie does not hold at this cell, and this check is
    # expected to fail; it is asserted as stated regardless.  Job density,
    # more than the unit time grid, sets the gap: 10^4 jobs over T=10^3 put
    # about ten arrivals in each step, and nf's mean ratio is 1.105x mtf's;
    # over T=10^4 (about one arrival per step) it is 1.010x, inside the 2%
    # slack.  Arrivals on a grid 100 times finer, each job lasting exactly
    # 100 ticks, still give 1.078x at T=10^3 (1.106x on the unit grid,
    # seeds 1-5).
    ratios = _cell_ratios(("nf", "mtf"), t=1000, mus=(1,))
    nf, mtf = ratios[(1, "nf")], ratios[(1, "mtf")]
    ok = nf <= mtf * Fraction(102, 100)
    _verdict("8c", ok, f"nf={float(nf):.4f} mtf={float(mtf):.4f} (+2% slack)")
    assert ok


# --------------------------------------------------------------------------
# criterion 9: the benchmark command is byte-deterministic


def test_criterion_09_bench_determinism(tmp_path, capsys):
    argv = ["bench", "--strategies", "nf,mnf,mtf", "--n", "400", "--e", "100",
            "--t", "500", "--mu", "2", "--trials", "3", "--seed-base", "9"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    ok = first.read_bytes() == second.read_bytes()
    _verdict("9", ok, f"{first.stat().st_size} bytes compared")
    assert ok
