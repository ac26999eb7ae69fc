"""Seeded sequence generation: uniform random instances and the adversary.

The random source is SplitMix64, chosen because it is tiny, well known,
and bit-identical on every platform.  Integer ranges are drawn by
rejection sampling, so there is no modulo bias and the draw sequence is
part of the format: for each job, in id order, draw size, then arrival,
then length.

The adversarial generator is adaptive: it must see how the target
strategy packs a phase before deciding which items depart early, so it
co-simulates the target on each phase's arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .core import CapacityConfig, Job, JobSequence
from .engine import simulate
from .strategies import build_strategy

__all__ = [
    "SplitMix64",
    "UniformParams",
    "AdversaryParams",
    "gen_uniform",
    "gen_adversarial",
    "adversary_ratio_bound",
]

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


class SplitMix64:
    """SplitMix64 pseudorandom generator over 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @staticmethod
    def ranges(*bounds: tuple[int, int]) -> tuple[tuple[int, int, int], ...]:
        """``(lo, n, limit)`` per inclusive ``(lo, hi)``, the input of :meth:`draw`.

        ``limit`` is the largest multiple of n up to 2**64: a raw draw below
        it maps to ``lo + draw % n`` without modulo bias.
        """
        out = []
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}]")
            n = hi - lo + 1
            out.append((lo, n, _TWO64 - _TWO64 % n))
        return tuple(out)

    def draw(self, ranges: tuple[tuple[int, int, int], ...]) -> list[int]:
        """One rejection-sampled value per range of :meth:`ranges`, in order."""
        state = self._state
        values = []
        for lo, n, limit in ranges:
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < limit:
                    break
            values.append(lo + z % n)
        self._state = state
        return values

    def next_u64(self) -> int:
        return self.draw(_FULL_RANGE)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection sampled (no modulo bias)."""
        return self.draw(self.ranges((lo, hi)))[0]


# every 64-bit value: no draw is rejected and none is reduced
_FULL_RANGE = SplitMix64.ranges((0, _MASK64))


@dataclass(frozen=True, slots=True)
class UniformParams:
    """Uniform-random instance parameters.

    Sizes are uniform over [size_min, size_max] (default [1, E]), arrivals
    over [1, T-mu], lengths over [1, mu]; all draws independent.  The size
    bounds beyond the default exist for bound checks that need capped or
    floored sizes; the benchmark protocol always uses [1, E].
    """

    n: int
    e: int
    t: int
    mu: int
    seed: int
    size_min: int = 1
    size_max: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.e < 1:
            raise ValueError(f"e must be >= 1, got {self.e}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.t <= self.mu:
            raise ValueError(f"t must exceed mu, got t={self.t} mu={self.mu}")
        hi = self.e if self.size_max is None else self.size_max
        if not 1 <= self.size_min <= hi <= self.e:
            raise ValueError(
                f"bad size range [{self.size_min}, {hi}] for capacity {self.e}"
            )


def gen_uniform(params: UniformParams) -> JobSequence:
    """Deterministic uniform instance for a seed; ids follow draw order."""
    rng = SplitMix64(params.seed)
    size_hi = params.e if params.size_max is None else params.size_max
    ranges = rng.ranges(
        (params.size_min, size_hi), (1, params.t - params.mu), (1, params.mu))
    draws = map(rng.draw, repeat(ranges, params.n))
    jobs = [Job(jid, size, arrival, arrival + length)
            for jid, (size, arrival, length) in enumerate(draws, 1)]
    return JobSequence(jobs, CapacityConfig(params.e))


@dataclass(frozen=True, slots=True)
class AdversaryParams:
    """Adversarial phase-construction parameters.

    eps is the item size as a fraction of capacity; 1/eps and 1/eps^2 must
    be integers and eps*e an integer size.  The target names the strategy
    whose packing the adversary inspects when choosing departures.
    """

    eps: Fraction
    mu: int
    delta: int
    phases: int
    target: str
    e: int

    def __post_init__(self) -> None:
        eps = Fraction(self.eps)
        object.__setattr__(self, "eps", eps)
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        if (1 / eps).denominator != 1 or (1 / eps**2).denominator != 1:
            raise ValueError(f"1/eps and 1/eps^2 must be integers, got eps={eps}")
        if (eps * self.e).denominator != 1:
            raise ValueError(f"eps*e must be an integer, got eps={eps} e={self.e}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if self.phases < 1:
            raise ValueError(f"phases must be >= 1, got {self.phases}")
        if not self.target:
            raise ValueError("target strategy is required (departures are adaptive)")


def adversary_ratio_bound(eps: Fraction, mu: int) -> Fraction:
    """The competitive-ratio floor the construction forces: mu/(1+eps(mu-1))."""
    eps = Fraction(eps)
    return Fraction(mu) / (1 + eps * (mu - 1))


def gen_adversarial(params: AdversaryParams) -> tuple[JobSequence, Fraction]:
    """Build the phase construction and return it with its offline packing cost.

    Each phase starts at a multiple of mu*delta with 1/eps^2 items of size
    eps*E.  The target is co-simulated on the phase arrivals; at phase
    time delta every item departs except the first-placed one in each of
    the target's servers, and those survivors depart at phase time
    mu*delta.  Phases are time-disjoint, so by each phase start the target
    has released everything.

    The offline packing puts the survivors tightly into full servers for
    mu*delta and the early leavers tightly into full servers for delta;
    with the target opening exactly 1/eps servers this costs
    mu*delta + delta/eps - delta per phase.
    """
    eps, mu, delta = params.eps, params.mu, params.delta
    per_phase = int(1 / eps**2)
    size = int(eps * params.e)
    capacity = CapacityConfig(params.e)

    all_jobs: list[Job] = []
    offline_cost = Fraction(0)
    jid = 1
    for phase in range(params.phases):
        start = phase * mu * delta
        probe_jobs = [
            Job(jid + i, size, start, start + mu * delta) for i in range(per_phase)
        ]
        target = build_strategy(params.target, params.e)
        probe = simulate(
            target, JobSequence(probe_jobs, capacity), record_events=False
        )
        survivors: dict[int, int] = {}  # server id -> first job placed there
        for job in probe_jobs:
            survivors.setdefault(probe.trace.assignments[job.id], job.id)
        keep = set(survivors.values())
        for job in probe_jobs:
            departure = start + (mu * delta if job.id in keep else delta)
            all_jobs.append(Job(job.id, size, start, departure))
        opened = len(survivors)
        offline_cost += math.ceil(opened * eps) * mu * delta
        offline_cost += math.ceil((per_phase - opened) * eps) * delta
        jid += per_phase
    return JobSequence(all_jobs, capacity), offline_cost
