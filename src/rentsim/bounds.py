"""Lower bounds, a brute-force optimum for tiny instances, and bound checkers.

Each checker turns one theoretical guarantee into a machine-checkable
inequality over quantities measurable from a run: span, utilization,
total size, and the min/max job lengths.  All comparisons are exact
rational arithmetic; a failed check is a defect, not a warning.

The checkers deliberately assert the strongest inequality computable
without knowing the offline optimum.  Ratios against OPT are only
asserted where OPT itself is computable (the tiny-instance oracle).

Exact need not mean ``Fraction`` at every step: the Move To Front check
sums each segment's jobs and servers by prefix sums over the arrival and
opening orders, compares each segment in integers scaled by the common
denominator E * den(mu + 1), and builds one ``Fraction`` for the total.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter, itemgetter, mul, sub

from .core import (
    JobSequence,
    SequenceStats,
    compute_stats,
    first_overload,
    fraction_json,
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
    "nf_small_k_unmet",
    "check_mnf_bound",
    "check_mtf_bound",
    "check_universal_bounds",
    "build_report",
    "ORACLE_DEFAULT_LIMIT",
]

ORACLE_DEFAULT_LIMIT = 8


@dataclass(frozen=True, slots=True)
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
    """Span and utilization lower bounds; any algorithm's cost is >= both.

    Public with no caller in the package: the benchmark (``perfbench``)
    rejects any bench cost below its third value, ``max(span, util)``.
    """
    return _lower_bounds(compute_stats(seq))


def _lower_bounds(stats: SequenceStats) -> tuple[int, Fraction, Fraction]:
    return stats.span, stats.util, max(Fraction(stats.span), stats.util)


def brute_force_opt(seq: JobSequence) -> int:
    """Exact optimal rental cost by exhausting set partitions of the jobs.

    A group of jobs is feasible if its resident size never exceeds the
    capacity; its cost is the measure of the union of its intervals (an
    emptied server is released, and re-renting costs the same as opening
    a fresh server).  The optimum is the cheapest feasible partition.

    Partition counts grow as Bell numbers, hence the instance size limit,
    ``ORACLE_DEFAULT_LIMIT`` jobs.
    """
    jobs = list(zip(seq.arrivals, seq.departures, seq.sizes))  # first_overload's rows
    n = len(jobs)
    if n == 0:
        raise ValueError("empty sequence")
    if n > ORACLE_DEFAULT_LIMIT:
        raise ValueError(f"instance too large for oracle: {n} jobs > limit {ORACLE_DEFAULT_LIMIT}")
    e = seq.capacity.e

    best: int | None = None
    groups: list[list] = []

    def walk(i: int) -> None:
        nonlocal best
        if i == n:
            cost = sum(union_measure(row[:2] for row in group) for group in groups)
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


def nf_small_k_unmet(seq: JobSequence, k: Fraction | int) -> str | None:
    """Why the small-size Next Fit bound for ``k`` does not apply to ``seq``.

    The bound needs k >= 2 and every size at most E/k; None when it applies.
    """
    k = Fraction(k)
    if k < 2:
        return f"k={k} is below 2"
    i = max(range(len(seq)), key=seq.sizes.__getitem__)
    if seq.sizes[i] * k > seq.capacity.e:
        return f"job {seq.ids[i]} has size {seq.sizes[i]} > E/k = {seq.capacity.e / k}"
    return None


def check_nf_bound(
    result: RunResult, stats: SequenceStats, k: Fraction | int | None = None
) -> list[BoundEntry]:
    """Next Fit guarantee: cost <= span + (critical bin cap) * max job length.

    The general cap on critical bins is twice the total size; when every
    size is at most E/k for some k >= 2 the cap tightens to
    total_size / (1 - 1/k).  The observed critical count is checked
    against the same caps.  The tighter branch is applied only when the
    size precondition actually holds for the sequence
    (:func:`nf_small_k_unmet`).
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
    if k is not None and nf_small_k_unmet(result.trace.sequence, k) is None:
        k = Fraction(k)
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


def _segment_sums(keys, values, segments) -> list[int]:
    """Per segment, the sum of the values whose key lies in its ``[start, end)``.

    ``keys`` is sorted and pairs with ``values``; one prefix sum, two
    bisections per segment.
    """
    prefix = list(accumulate(values, initial=0))
    return [prefix[bisect_left(keys, end)] - prefix[bisect_left(keys, start)]
            for start, end in segments]


def check_mtf_bound(result: RunResult, stats: SequenceStats) -> BoundEntry:
    """Move To Front guarantee, applied per continuous segment and summed.

    Per segment: cost <= 6(mu+1) * util + span + 3(mu+1) * delta, with mu
    and delta taken over the whole sequence (they bound every job length).
    Servers never outlive a segment, so segment costs are well-defined.
    A job counts in the segment holding its arrival and a server in the one
    holding its opening; a server opened outside every segment counts
    nowhere.  With mu + 1 = a/d, each comparison is made in integers scaled
    by E * d, and the summed formula becomes one ``Fraction`` at the end.
    """
    _require(result, "mtf", "check_mtf_bound")
    seq = result.trace.sequence
    e = seq.capacity.e
    mu1 = stats.mu + 1
    a, scale = mu1.numerator, e * mu1.denominator
    arrivals = seq.arrivals  # sorted: a sequence is in arrival order
    segments = merge_intervals(zip(arrivals, seq.departures))
    work = list(map(mul, seq.sizes, map(sub, seq.departures, arrivals)))
    seg_work = _segment_sums(arrivals, work, segments)
    servers = result.trace.servers
    opened = list(map(attrgetter("opened_at"), servers))
    by_opening = sorted(zip(opened, map(sub, map(attrgetter("released_at"), servers), opened)))
    seg_cost = _segment_sums(list(map(itemgetter(0), by_opening)),
                             map(itemgetter(1), by_opening), segments)
    # scaled by E * d: 6(mu+1) * work / E -> 6a * work, span -> span * E * d,
    # 3(mu+1) * delta -> 3a * delta * E
    fixed = 3 * a * stats.delta * e
    satisfied = all(cost * scale <= 6 * a * w + (end - start) * scale + fixed
                    for (start, end), w, cost in zip(segments, seg_work, seg_cost))
    formula = 6 * a * sum(work) + stats.span * scale + fixed * len(segments)
    return BoundEntry(
        name="mtf_guarantee",
        formula_value=Fraction(formula, scale),
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
    k = Fraction(seq.capacity.e, min(seq.sizes))
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
        opt_exact = Fraction(brute_force_opt(seq))
        entries.append(BoundEntry.at_least("cost_geq_opt", opt_exact, result.total_cost))
    return BoundReport(*_lower_bounds(stats), opt_exact=opt_exact, entries=tuple(entries))
