"""Seeded sequence generation: uniform random instances and the adversary.

The random source is SplitMix64, chosen because it is tiny, well known,
and bit-identical on every platform.  Integer ranges are drawn by
rejection sampling, so there is no modulo bias and the draw sequence is
part of the format: for each job, in id order, draw size, then arrival,
then length.

SplitMix64's k-th output after state s mixes s + k*gamma alone, so :func:`_mix`
mixes up to 1,024 outputs at once in one int (a 64-bit lane every 128 bits, so
no product reaches the next lane), read out as little-endian bytes on any host.

The adversarial generator is adaptive: it must see how the target
strategy packs a phase before deciding which items depart early, so it
co-simulates the target on the phases' arrivals, in one run.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .core import CapacityConfig, JobSequence
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
_GAMMA = 0x9E3779B97F4A7C15
# _mix's lanes: a 1 in each, 64 one bits in each, k*gamma in lane k (from 1)
_BATCH = 1024
_ONES = int.from_bytes((b"\1" + bytes(15)) * _BATCH, "little")
_LANES = _ONES * _MASK64
_STEPS = int.from_bytes(b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little")
                                 for k in range(1, _BATCH + 1)), "little")


def _mix(state: int, count: int) -> array:
    """The ``count`` (<= 1,024) SplitMix64 outputs after ``state``, in order."""
    keep = (1 << 128 * count) - 1
    lanes = _LANES & keep
    z = (state * (_ONES & keep) + (_STEPS & keep)) & lanes
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    z ^= z >> 31  # the bits this leaves between lanes are never read
    out = array("Q", z.to_bytes(16 * count, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::2]


class SplitMix64:
    """SplitMix64 pseudorandom generator over 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @staticmethod
    def ranges(*bounds: tuple[int, int]) -> tuple[tuple[int, int, int], ...]:
        """``(lo, n, limit)`` per inclusive ``(lo, hi)``, the input of :meth:`draw`.

        ``limit`` is the largest multiple of n up to 2**64 (a larger n raises
        ValueError): a raw draw below it maps to ``lo + draw % n`` unbiased.
        """
        out = []
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}]")
            n = hi - lo + 1
            if n > _TWO64:
                raise ValueError(f"range [{lo}, {hi}] has more than 2**64 values")
            out.append((lo, n, _TWO64 - _TWO64 % n))
        return tuple(out)

    def draw(self, ranges: tuple[tuple[int, int, int], ...]) -> list[int]:
        """One rejection-sampled value per range of :meth:`ranges`, in order."""
        state = self._state
        values = []
        i = 0
        while i < len(ranges):
            # no more outputs than ranges left: the state ends as a scalar loop's
            count = min(len(ranges) - i, _BATCH)
            for z in _mix(state, count):
                lo, n, limit = ranges[i]
                if z < limit:
                    values.append(lo + z % n)
                    i += 1
            state = (state + count * _GAMMA) & _MASK64
        self._state = state
        return values


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
        self._ranges()  # a range of more than 2**64 values raises ValueError

    def _ranges(self) -> tuple[tuple[int, int, int], ...]:
        """One job's size, arrival and length ranges, as :meth:`SplitMix64.draw` takes them."""
        hi = self.e if self.size_max is None else self.size_max
        return SplitMix64.ranges((self.size_min, hi), (1, self.t - self.mu), (1, self.mu))


def gen_uniform(params: UniformParams) -> JobSequence:
    """Deterministic uniform instance for a seed; ids follow draw order."""
    draws = SplitMix64(params.seed).draw(params._ranges() * params.n)
    arrivals = draws[1::3]
    return JobSequence.from_columns(range(1, params.n + 1), draws[0::3], arrivals,
                                    list(map(add, arrivals, draws[2::3])),
                                    CapacityConfig(params.e))


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
    """The competitive-ratio floor the construction forces: mu/(1+eps(mu-1)).

    Public with no caller in the package: it is the floor that the adversary
    tests (acceptance criterion 2) hold each target's measured ratio to.
    """
    eps = Fraction(eps)
    return Fraction(mu) / (1 + eps * (mu - 1))


def gen_adversarial(params: AdversaryParams) -> tuple[JobSequence, Fraction]:
    """Build the phase construction and return it with its offline packing cost.

    Each phase starts at a multiple of mu*delta with 1/eps^2 items of size
    eps*E.  The target is co-simulated on the phase arrivals; at phase
    time delta every item departs except the first-placed one in each of
    the target's servers, and those survivors depart at phase time
    mu*delta.  Phases are time-disjoint, so by each phase start the target
    has released everything, and one run over every phase's arrivals, each
    item departing at its phase's end, packs each phase as a run over that
    phase alone would.

    The offline packing puts the survivors tightly into full servers for
    mu*delta and the early leavers tightly into full servers for delta;
    with the target opening exactly 1/eps servers this costs
    mu*delta + delta/eps - delta per phase.
    """
    eps, mu, delta = params.eps, params.mu, params.delta
    per_phase = int(1 / eps**2)
    size = int(eps * params.e)
    capacity = CapacityConfig(params.e)
    count = per_phase * params.phases
    ids = range(1, count + 1)  # phase by phase
    sizes = [size] * count
    starts = [phase * mu * delta for phase in range(params.phases) for _ in range(per_phase)]
    probe = simulate(build_strategy(params.target, params.e), JobSequence.from_columns(
        ids, sizes, starts, [start + mu * delta for start in starts], capacity),
        record_events=False)
    survivors: dict[int, int] = {}  # server id -> first job placed there
    for jid, sid in probe.trace.assignments.items():
        survivors.setdefault(sid, jid)
    keep = set(survivors.values())
    departures = [start + (mu * delta if jid in keep else delta)
                  for jid, start in zip(ids, starts)]
    opened = [0] * params.phases  # the target's servers, per phase
    for jid in keep:
        opened[(jid - 1) // per_phase] += 1
    offline_cost = sum((math.ceil(k * eps) * mu * delta
                        + math.ceil((per_phase - k) * eps) * delta for k in opened), Fraction(0))
    return JobSequence.from_columns(ids, sizes, starts, departures, capacity), offline_cost
