"""Benchmark harness: strategy x parameter-grid matrices over seeded trials.

Within a grid cell every strategy runs on the same generated sequences
(trial i uses seed ``seed_base + i``), so strategy comparisons are paired.
Aggregation is a deterministic fold over trial index order, which makes
the output independent of execution order and parallelism degree.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .bounds import ORACLE_DEFAULT_LIMIT, brute_force_opt
# compute_stats is no longer called here but stays a name of this module: the
# benchmark's traced run (perfbench) wraps it here by name
from .core import compute_stats, utilization
from .engine import simulate
from .generators import UniformParams, gen_uniform
from .strategies import build_strategy

__all__ = ["ExperimentSpec", "AggregateRow", "BenchError", "run_experiment",
           "rows_to_csv", "summary_table"]

AGGREGATE_HEADER = [
    "strategy", "n", "e", "t", "mu", "trials",
    "mean_ratio", "std_ratio", "mean_cost", "mean_util",
]


class BenchError(Exception):
    """A cell of the experiment failed; the message names the cell and trial."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark: strategies crossed with an (n, e, t, mu) grid.

    The performance measure per trial is cost / utilization, the
    utilization being the exact lower bound on any algorithm's cost.
    """

    strategies: tuple[str, ...]
    ns: tuple[int, ...]
    es: tuple[int, ...]
    ts: tuple[int, ...]
    mus: tuple[int, ...]
    trials: int
    seed_base: int
    oracle: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name, grid in (("strategies", self.strategies), ("n", self.ns),
                           ("e", self.es), ("t", self.ts), ("mu", self.mus)):
            if not grid:
                raise ValueError(f"empty grid: {name}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class AggregateRow:
    """Mean performance of one strategy in one grid cell."""

    strategy: str
    n: int
    e: int
    t: int
    mu: int
    trials: int
    mean_ratio: Fraction
    std_ratio: float
    mean_cost: Fraction
    mean_util: Fraction


def _run_trial(args) -> list[tuple[str, int, Fraction]]:
    """One seeded sequence, all strategies on it; returns (name, cost, util) rows."""
    n, e, t, mu, seed, strategy_names, oracle = args
    seq = gen_uniform(UniformParams(n=n, e=e, t=t, mu=mu, seed=seed))
    util = utilization(seq)
    opt = brute_force_opt(seq) if oracle else None
    out = []
    for name in strategy_names:
        # only the cost is kept, so a run's trace is freed before the next run
        cost = simulate(build_strategy(name, e, mu=mu), seq, record_events=False).total_cost
        if Fraction(cost) < util:
            raise BenchError(
                f"cost {cost} below utilization {util} (strategy {name}, seed {seed})"
            )
        if opt is not None and cost < opt:
            raise BenchError(
                f"cost {cost} below exact optimum {opt} (strategy {name}, seed {seed})"
            )
        out.append((name, cost, util))
    return out


def run_experiment(spec: ExperimentSpec) -> list[AggregateRow]:
    """Run the full matrix and aggregate per (cell, strategy).

    Any single-run failure aborts the run with a :class:`BenchError`
    naming the cell.  Rows come out in grid order, strategies in the
    order given, so the output is reproducible byte for byte.  A bad
    strategy selection or cell, or the oracle asked for on a cell with more
    than ``ORACLE_DEFAULT_LIMIT`` jobs, raises ValueError before any trial
    runs.
    With ``workers > 1`` one process pool runs every cell's trials.
    """
    cells = [(n, e, t, mu) for n in spec.ns for e in spec.es
             for t in spec.ts for mu in spec.mus]
    for n, e, t, mu in cells:
        for name in spec.strategies:
            build_strategy(name, e, mu=mu)
        try:
            UniformParams(n=n, e=e, t=t, mu=mu, seed=spec.seed_base)
            if spec.oracle and n > ORACLE_DEFAULT_LIMIT:
                raise ValueError(f"the oracle needs n <= {ORACLE_DEFAULT_LIMIT}, got {n}")
        except ValueError as exc:
            raise ValueError(f"cell n={n} e={e} t={t} mu={mu}: {exc}") from None
    tasks = [(n, e, t, mu, spec.seed_base + i, spec.strategies, spec.oracle)
             for n, e, t, mu in cells for i in range(spec.trials)]
    if spec.workers == 1:
        # The lazy map runs no trial of a later cell once one fails.
        return _aggregate_cells(spec, cells, map(_run_trial, tasks))
    # Imported here so that no other rentsim process loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=spec.workers)
    try:
        return _aggregate_cells(spec, cells, pool.map(_run_trial, tasks))
    finally:
        pool.shutdown(cancel_futures=True)


def _aggregate_cells(spec, cells, per_trial_results) -> list[AggregateRow]:
    """Fold the trial results, in grid and trial order, into rows per cell."""
    rows: list[AggregateRow] = []
    for n, e, t, mu in cells:
        try:
            per_trial = list(islice(per_trial_results, spec.trials))
        except (BenchError, ValueError) as exc:
            raise BenchError(f"cell n={n} e={e} t={t} mu={mu}: {exc}") from exc
        rows.extend(_aggregate_cell(spec, n, e, t, mu, per_trial))
    return rows


def _aggregate_cell(spec, n, e, t, mu, per_trial) -> list[AggregateRow]:
    rows = []
    for idx, name in enumerate(spec.strategies):
        costs = [trial[idx][1] for trial in per_trial]
        utils = [trial[idx][2] for trial in per_trial]
        ratios = [Fraction(c) / u for c, u in zip(costs, utils)]
        rows.append(
            AggregateRow(
                strategy=name,
                n=n, e=e, t=t, mu=mu,
                trials=spec.trials,
                mean_ratio=sum(ratios, Fraction(0)) / spec.trials,
                std_ratio=(
                    statistics.stdev(float(r) for r in ratios)
                    if spec.trials >= 2 else 0.0
                ),
                mean_cost=Fraction(sum(costs), spec.trials),
                mean_util=sum(utils, Fraction(0)) / spec.trials,
            )
        )
    return rows


def rows_to_csv(rows: list[AggregateRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for r in rows:
            writer.writerow([
                r.strategy, r.n, r.e, r.t, r.mu, r.trials,
                f"{float(r.mean_ratio):.6f}",
                f"{r.std_ratio:.6f}",
                f"{float(r.mean_cost):.3f}",
                f"{float(r.mean_util):.3f}",
            ])


def summary_table(rows: list[AggregateRow]) -> str:
    """Aligned text table, one line per row; '*' marks the best of each cell."""
    cells: dict[tuple[int, int, int, int], Fraction] = {}
    for r in rows:
        key = (r.n, r.e, r.t, r.mu)
        if key not in cells or r.mean_ratio < cells[key]:
            cells[key] = r.mean_ratio
    header = f"{'strategy':<14} {'n':>7} {'e':>6} {'t':>7} {'mu':>4} {'mean_ratio':>11} {'std':>9}  best"
    lines = [header, "-" * len(header)]
    for r in rows:
        best = "*" if r.mean_ratio == cells[(r.n, r.e, r.t, r.mu)] else ""
        lines.append(
            f"{r.strategy:<14} {r.n:>7} {r.e:>6} {r.t:>7} {r.mu:>4} "
            f"{float(r.mean_ratio):>11.6f} {r.std_ratio:>9.6f}  {best}"
        )
    return "\n".join(lines)
