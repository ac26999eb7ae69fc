"""The seven placement strategies behind one interface: four fit rules.

Next Fit and First Fit each run over ``stream(size)``, the tag of the
servers a job may go to: one stream for nf and ff, small and large items
for mnf and mff, and the size class for Harmonic (Next Fit per class).
Best Fit and Move To Front are the other two rules.

Every strategy is a pure function of the :class:`ArrivalView` it receives,
which holds only the arriving job's size and the placeable servers:
whatever ordering or stream bookkeeping it needs lives in the per-server
tags that the engine stores in each server's view entry and echoes back.
So one strategy object can serve any number of runs, and it is
structurally impossible for it to remember departure times.  A view is
valid only while ``place`` runs (the engine reuses one view per run); its
``servers`` is a read-only, live iterable of ``(id, level, tag)`` tuples
in opening order, unpacked in the scan.  A decision is a plain ``(place_in,
close, tag)`` triple, the one form the engine reads (its meaning is stated
on :class:`~rentsim.engine.PlacementStrategy`).

Size thresholds (Modified Next Fit, Modified First Fit, Harmonic classes)
are exact: with integer sizes and a rational K each reduces to an integer
comparison, so no placement ever hinges on float rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .core import CapacityConfig
from .engine import ArrivalView

__all__ = [
    "NextFit",
    "ModifiedNextFit",
    "FirstFit",
    "ModifiedFirstFit",
    "BestFit",
    "Harmonic",
    "MoveToFront",
    "build_strategy",
]


def build_strategy(text: str, e: int, mu: int | None = None):
    """Build the strategy a selection string names: nf, mnf:K, ff, mff:K, bf, harmonic:K, mtf.

    K is a positive rational like ``11`` or ``8.5``, range-checked by the
    constructor.  For ``mnf`` and ``mff`` a bare kind is allowed when ``mu``
    is given: the benchmark convention fills in K = mu+1 and K = mu+7.
    """
    kind, sep, param = text.strip().partition(":")
    kind = kind.lower()
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown strategy {text!r}")
    if sep:
        try:
            k = Fraction(param)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad parameter in {text!r}: {exc}") from exc
        if spec.admits is None:
            raise ValueError(f"{kind} takes no parameter")
        return spec.cls(e, k)
    if spec.admits is None:
        return spec.cls(e)
    if spec.mu_offset is None:
        raise ValueError(f"{kind} requires a parameter K")
    if mu is None:
        raise ValueError(f"{kind} requires a parameter, e.g. {kind}:3")
    return spec.cls(e, Fraction(mu + spec.mu_offset))


def _checked_k(kind: str, k) -> Fraction:
    """K as an exact rational, or ValueError if ``kind`` does not admit it."""
    spec = _KINDS[kind]
    k = Fraction(k)
    if not spec.admits(k):
        raise ValueError(f"{kind} requires {spec.k_text}, got {k}")
    return k


class _Base:
    def __init__(self, e: int):
        self.e = CapacityConfig(e).e

    def stream(self, size: int):
        """The tag of the servers a job of ``size`` may go to; None, the default, is one stream."""
        return None


class NextFit(_Base):
    """Keep one open server per stream; close it the moment an item does not fit.

    At most one server of a stream is ever open, so the scan stops at the first.
    """

    name = "nf"

    def place(self, view: ArrivalView) -> tuple:
        size = view.size
        stream = self.stream(size)
        for sid, level, tag in view.servers:
            if tag == stream:
                if level + size <= self.e:
                    return (sid, (), None)
                return (None, (sid,), stream)
        return (None, (), stream)


class FirstFit(_Base):
    """Place into the earliest-opened server of the stream with room; never close."""

    name = "ff"

    def place(self, view: ArrivalView) -> tuple:
        stream = self.stream(view.size)
        room = self.e - view.size
        for sid, level, tag in view.servers:
            if level <= room and tag == stream:
                return (sid, (), None)
        return (None, (), stream)


class _TwoStreams(_Base):
    """What MNF and MFF share: the K check, the name and the small (< E/K) and large streams."""

    kind = ""  # the selection kind, which names K's range in ``_KINDS``

    def __init__(self, e: int, k: Fraction):
        super().__init__(e)
        self.k = _checked_k(self.kind, k)
        self.name = f"{self.kind}:{self.k}"
        self._small_below = self.e * self.k.denominator  # size < E/K

    def stream(self, size: int) -> str:
        return "small" if size * self.k.numerator < self._small_below else "large"


class ModifiedNextFit(_TwoStreams, NextFit):
    """Next Fit run separately on small (< E/K) and large (>= E/K) items."""

    kind = "mnf"


class ModifiedFirstFit(_TwoStreams, FirstFit):
    """First Fit run separately on small (< E/K) and large (>= E/K) items."""

    kind = "mff"


class BestFit(_Base):
    """Place into the fullest server with room; ties go to the earlier-opened one."""

    name = "bf"

    def place(self, view: ArrivalView) -> tuple:
        room = self.e - view.size
        best = None
        best_level = -1
        for sid, level, _ in view.servers:  # opening order; strict > keeps the earlier on ties
            if best_level < level <= room:
                best = sid
                best_level = level
        return (best, (), None)


class Harmonic(NextFit):
    """Next Fit per harmonic size class.

    Class i < K holds sizes in (E/(i+1), E/i]; class K holds sizes <= E/K.
    For integer sizes the class of s is min(K, floor(E/s)), its stream.
    """

    def __init__(self, e: int, k: int):
        super().__init__(e)
        self.k = int(_checked_k("harmonic", k))
        self.name = f"harmonic:{self.k}"

    def stream(self, size: int) -> int:
        return min(self.k, self.e // size)


class MoveToFront(_Base):
    """Scan the bin list front to back; the receiving bin moves to the front.

    The list order is the recency of receiving an item, kept as an integer
    tag that grows by one on every placement.  Departures never reorder
    the list; a fully departed server simply stops appearing in views.
    """

    name = "mtf"

    def place(self, view: ArrivalView) -> tuple:
        room = self.e - view.size
        newest = 0  # stamps start at 1
        best = None
        best_tag = 0
        for sid, level, tag in view.servers:  # strict > keeps the earlier server on equal tags
            if tag > newest:
                newest = tag
            if tag > best_tag and level <= room:
                best = sid
                best_tag = tag
        return (best, (), newest + 1)


class _Kind(NamedTuple):
    """How a selection kind is built, and which K it admits (``admits`` None: no K)."""

    cls: type
    admits: Callable[[Fraction], bool] | None = None
    k_text: str = ""
    mu_offset: int | None = None  # K = mu + offset when a bare kind is given with mu


_KINDS = {
    "nf": _Kind(NextFit),
    "mnf": _Kind(ModifiedNextFit, lambda k: k >= 2, "K >= 2", 1),
    "ff": _Kind(FirstFit),
    "mff": _Kind(ModifiedFirstFit, lambda k: k > 0, "K > 0", 7),
    "bf": _Kind(BestFit),
    "harmonic": _Kind(Harmonic, lambda k: k.denominator == 1 and k >= 1, "integer K >= 1"),
    "mtf": _Kind(MoveToFront),
}
