"""Benchmark harness: strategy x parameter-grid matrices over seeded trials.

Within a grid cell every strategy runs on the same generated sequences
(trial i uses seed ``seed_base + i``), so strategy comparisons are paired.
A trial yields its sequence's utilization once, then one cost per strategy
in selection order.  One fold takes the trials in grid and trial order and
turns each cell's trials into one row per strategy, so the output does not
depend on execution order or the number of workers.  Each output table
takes its columns from the fields of its record, :class:`AggregateRow`.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import astuple, dataclass, fields
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
    """Mean performance of one strategy in one grid cell.

    Its fields, in order, are the columns of the bench CSV and the keys of
    each ``bench --json`` object.
    """

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


AGGREGATE_HEADER = [f.name for f in fields(AggregateRow)]


def _run_trial(args) -> tuple[Fraction, list[int]]:
    """One seeded sequence, all strategies on it: its utilization, then each strategy's cost."""
    n, e, t, mu, seed, strategy_names, oracle = args
    seq = gen_uniform(UniformParams(n=n, e=e, t=t, mu=mu, seed=seed))
    util = utilization(seq)
    opt = brute_force_opt(seq) if oracle else None
    costs = []
    for name in strategy_names:
        # only the cost is kept, so a run's trace is freed before the next run
        cost = simulate(build_strategy(name, e, mu=mu), seq, record_events=False).total_cost
        if cost < util:
            raise BenchError(
                f"cost {cost} below utilization {util} (strategy {name}, seed {seed})"
            )
        if opt is not None and cost < opt:
            raise BenchError(
                f"cost {cost} below exact optimum {opt} (strategy {name}, seed {seed})"
            )
        costs.append(cost)
    return util, costs


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
    """Fold the (util, costs) trials, in grid and trial order, into rows per cell."""
    rows: list[AggregateRow] = []
    k = spec.trials
    for n, e, t, mu in cells:
        try:
            utils, per_trial_costs = zip(*islice(per_trial_results, k))
        except (BenchError, ValueError) as exc:
            raise BenchError(f"cell n={n} e={e} t={t} mu={mu}: {exc}") from exc
        mean_util = sum(utils, Fraction(0)) / k
        for name, costs in zip(spec.strategies, zip(*per_trial_costs)):
            ratios = [cost / util for cost, util in zip(costs, utils)]
            rows.append(AggregateRow(
                name, n, e, t, mu, k,
                mean_ratio=sum(ratios, Fraction(0)) / k,
                std_ratio=statistics.stdev(map(float, ratios)) if k >= 2 else 0.0,
                mean_cost=Fraction(sum(costs), k),
                mean_util=mean_util,
            ))
    return rows


def rows_to_csv(rows: list[AggregateRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for row in rows:
            *cell, ratio, std, cost, util = astuple(row)
            writer.writerow([*cell, f"{float(ratio):.6f}", f"{std:.6f}",
                             f"{float(cost):.3f}", f"{float(util):.3f}"])


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
