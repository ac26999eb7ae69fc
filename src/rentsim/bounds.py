"""Lower bounds, a brute-force optimum for tiny instances, and bound checkers.

Each checker turns one theoretical guarantee into a machine-checkable
inequality over quantities measurable from a run: span, utilization,
total size, and the min/max job lengths.  All comparisons are exact
rational arithmetic; a failed check is a defect, not a warning.

The checkers deliberately assert the strongest inequality computable
without knowing the offline optimum.  Ratios against OPT are only
asserted where OPT itself is computable (the tiny-instance oracle).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    JobSequence,
    SequenceStats,
    compute_stats,
    first_overload,
    fraction_json,
    frozen_record,
    merge_intervals,
    union_measure,
)
from .engine import RunResult

__all__ = [
    "BoundEntry",
    "BoundReport",
    "lower_bound",
    "brute_force_opt",
    "check_nf_bound",
    "check_mnf_bound",
    "check_mtf_bound",
    "check_universal_bounds",
    "build_report",
    "ORACLE_DEFAULT_LIMIT",
]

ORACLE_DEFAULT_LIMIT = 8


@frozen_record
class BoundEntry:
    """One checked inequality between a formula value and a measured cost."""

    name: str
    formula_value: Fraction
    cost: Fraction
    satisfied: bool

    @classmethod
    def at_most(cls, name: str, formula_value, cost) -> BoundEntry:
        """The upper bound ``cost <= formula_value``."""
        return cls(name, Fraction(formula_value), Fraction(cost), cost <= formula_value)

    @classmethod
    def at_least(cls, name: str, formula_value, cost) -> BoundEntry:
        """The lower bound ``cost >= formula_value``."""
        return cls(name, Fraction(formula_value), Fraction(cost), cost >= formula_value)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "formula_value": fraction_json(self.formula_value),
            "cost": fraction_json(self.cost),
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds plus every per-theorem verdict gathered for one run."""

    lb_span: int
    lb_util: Fraction
    lb: Fraction
    opt_exact: Fraction | None = None
    entries: tuple[BoundEntry, ...] = ()

    @property
    def all_satisfied(self) -> bool:
        return all(entry.satisfied for entry in self.entries)

    def to_json(self) -> dict:
        return {
            "lb_span": self.lb_span,
            "lb_util": fraction_json(self.lb_util),
            "lb": fraction_json(self.lb),
            "opt_exact": None if self.opt_exact is None else fraction_json(self.opt_exact),
            "checks": [entry.to_json() for entry in self.entries],
        }


def lower_bound(seq: JobSequence) -> tuple[int, Fraction, Fraction]:
    """Span and utilization lower bounds; any algorithm's cost is >= both."""
    return _lower_bounds(compute_stats(seq))


def _lower_bounds(stats: SequenceStats) -> tuple[int, Fraction, Fraction]:
    return stats.span, stats.util, max(Fraction(stats.span), stats.util)


def brute_force_opt(seq: JobSequence, limit: int = ORACLE_DEFAULT_LIMIT) -> int:
    """Exact optimal rental cost by exhausting set partitions of the jobs.

    A group of jobs is feasible if its resident size never exceeds the
    capacity; its cost is the measure of the union of its intervals (an
    emptied server is released, and re-renting costs the same as opening
    a fresh server).  The optimum is the cheapest feasible partition.

    Partition counts grow as Bell numbers, hence the instance size limit.
    """
    jobs = list(seq.jobs)
    n = len(jobs)
    if n == 0:
        raise ValueError("empty sequence")
    if n > limit:
        raise ValueError(f"instance too large for oracle: {n} jobs > limit {limit}")
    e = seq.capacity.e

    best: int | None = None
    groups: list[list] = []

    def walk(i: int) -> None:
        nonlocal best
        if i == n:
            cost = sum(
                union_measure((j.arrival, j.departure) for j in group)
                for group in groups
            )
            if best is None or cost < best:
                best = cost
            return
        job = jobs[i]
        for group in groups:
            group.append(job)
            if first_overload(group, e) is None:
                walk(i + 1)
            group.pop()
        groups.append([job])
        walk(i + 1)
        groups.pop()

    walk(0)
    assert best is not None
    return best


def _require(result: RunResult, kind: str, checker: str) -> None:
    if result.strategy.split(":", 1)[0] != kind:
        raise ValueError(
            f"{checker} expects a result produced by {kind!r}, got {result.strategy!r}"
        )


def check_nf_bound(
    result: RunResult, stats: SequenceStats, k: Fraction | int | None = None
) -> list[BoundEntry]:
    """Next Fit guarantee: cost <= span + (critical bin cap) * max job length.

    The general cap on critical bins is twice the total size; when every
    size is at most E/k for some k >= 2 the cap tightens to
    total_size / (1 - 1/k).  The observed critical count is checked
    against the same caps.  The tighter branch is applied only when the
    size precondition actually holds for the sequence.
    """
    _require(result, "nf", "check_nf_bound")
    cost, p = result.total_cost, result.critical_count
    mu_delta = stats.mu * stats.delta  # == max job length
    entries = [
        BoundEntry.at_most(
            "nf_worst_case", stats.span + 2 * stats.total_size * mu_delta, cost
        ),
        BoundEntry.at_most("nf_critical_cap", 2 * stats.total_size, p),
    ]
    if k is not None:
        k = Fraction(k)
        e = result.trace.sequence.capacity.e
        max_size = max(job.size for job in result.trace.sequence.jobs)
        if k >= 2 and Fraction(max_size) * k <= e:
            cap = stats.total_size / (1 - 1 / k)
            entries.append(
                BoundEntry.at_most(
                    f"nf_worst_case_small_k={k}", stats.span + cap * mu_delta, cost
                )
            )
            entries.append(BoundEntry.at_most(f"nf_critical_cap_small_k={k}", cap, p))
    return entries


def check_mnf_bound(
    result: RunResult, stats: SequenceStats, k: Fraction | int
) -> BoundEntry:
    """Modified Next Fit guarantee: cost <= K * util * max{1, mu/(K-1)} + span."""
    _require(result, "mnf", "check_mnf_bound")
    k = Fraction(k)
    factor = max(Fraction(1), stats.mu / (k - 1))
    return BoundEntry.at_most(
        f"mnf_guarantee_k={k}", k * stats.util * factor + stats.span, result.total_cost
    )


def check_mtf_bound(result: RunResult, stats: SequenceStats) -> BoundEntry:
    """Move To Front guarantee, applied per continuous segment and summed.

    Per segment: cost <= 6(mu+1) * util + span + 3(mu+1) * delta, with mu
    and delta taken over the whole sequence (they bound every job length).
    Servers never outlive a segment, so segment costs are well-defined.
    Jobs and servers are assigned to segments by bisecting the segment
    starts once; a server opened outside every segment counts nowhere.
    """
    _require(result, "mtf", "check_mtf_bound")
    seq = result.trace.sequence
    e = seq.capacity.e
    mu1 = stats.mu + 1
    segments = merge_intervals((j.arrival, j.departure) for j in seq.jobs)
    starts = [start for start, _ in segments]
    seg_work = [0] * len(segments)  # sum of size * length per segment
    seg_cost = [0] * len(segments)
    for j in seq.jobs:  # a job's arrival always lies in its own segment
        seg_work[bisect_right(starts, j.arrival) - 1] += j.size * (j.departure - j.arrival)
    for srv in result.trace.servers:
        i = bisect_right(starts, srv.opened_at) - 1
        if i >= 0 and srv.opened_at < segments[i][1]:
            seg_cost[i] += srv.released_at - srv.opened_at
    satisfied = True
    total_formula = Fraction(0)
    for (start, end), work, cost in zip(segments, seg_work, seg_cost):
        seg_bound = 6 * mu1 * Fraction(work, e) + (end - start) + 3 * mu1 * stats.delta
        total_formula += seg_bound
        if cost > seg_bound:
            satisfied = False
    return BoundEntry(
        name="mtf_guarantee",
        formula_value=total_formula,
        cost=Fraction(result.total_cost),
        satisfied=satisfied,
    )


def check_universal_bounds(
    result: RunResult, stats: SequenceStats
) -> list[BoundEntry]:
    """Bounds every strategy must satisfy on every sequence.

    Lower: cost >= span and cost >= util.  Upper: cost <= total length;
    and with k = E / min size (so every size is >= E/k), cost <= k * util.
    """
    cost = result.total_cost
    seq = result.trace.sequence
    k = Fraction(seq.capacity.e, min(job.size for job in seq.jobs))
    return [
        BoundEntry.at_least("lb_span", stats.span, cost),
        BoundEntry.at_least("lb_util", stats.util, cost),
        BoundEntry.at_most("ub_total_length", stats.total_length, cost),
        BoundEntry.at_most(f"ub_sizes_geq_e_over_k_k={k}", k * stats.util, cost),
    ]


def build_report(
    result: RunResult,
    *,
    with_oracle: bool = False,
    oracle_limit: int = ORACLE_DEFAULT_LIMIT,
    nf_k: Fraction | int | None = None,
) -> BoundReport:
    """Gather universal checks plus the checks specific to the run's strategy."""
    seq = result.trace.sequence
    stats = compute_stats(seq)
    entries = list(check_universal_bounds(result, stats))
    kind, _, param = result.strategy.partition(":")
    if kind == "nf":
        entries.extend(check_nf_bound(result, stats, nf_k))
    elif kind == "mnf":
        entries.append(check_mnf_bound(result, stats, Fraction(param)))
    elif kind == "mtf":
        entries.append(check_mtf_bound(result, stats))
    opt_exact: Fraction | None = None
    if with_oracle:
        opt_exact = Fraction(brute_force_opt(seq, limit=oracle_limit))
        entries.append(BoundEntry.at_least("cost_geq_opt", opt_exact, result.total_cost))
    return BoundReport(*_lower_bounds(stats), opt_exact=opt_exact, entries=tuple(entries))
