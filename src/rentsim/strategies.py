"""The seven placement strategies behind one interface.

Every strategy is a pure function of the :class:`ArrivalView` it receives:
whatever ordering or stream bookkeeping it needs lives in the per-server
tags that the engine stores and echoes back.  That keeps strategies
trivially resettable and makes it structurally impossible for them to
remember departure times.

Size thresholds (Modified Next Fit, Modified First Fit, Harmonic classes)
are exact: with integer sizes and a rational K each reduces to an integer
comparison, so no placement ever hinges on float rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .core import CapacityConfig
from .engine import ArrivalView, Decision

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

    def reset(self) -> None:
        """No-op: these strategies keep no state outside the engine's tags."""


# the decisions that take no parameter, shared by every call
_OPEN = Decision()
_OPEN_STREAM = {stream: Decision(None, (), stream) for stream in ("small", "large")}


def _next_fit_stream(view: ArrivalView, e: int, opening: Decision) -> Decision:
    """Next Fit over the servers tagged ``opening.tag``: at most one is ever open.

    ``opening`` is the shared decision that opens the stream's next server.
    """
    tag = opening.tag
    current = None
    for srv in view.servers:
        if srv.tag == tag:
            assert current is None, f"next-fit stream {tag!r} has two open servers"
            current = srv
    if current is None:
        return opening
    if current.level + view.size <= e:
        return Decision(current.id)
    return Decision(None, (current.id,), tag)


class NextFit(_Base):
    """Keep a single open server; close it the moment an item does not fit."""

    name = "nf"

    def place(self, view: ArrivalView) -> Decision:
        return _next_fit_stream(view, self.e, _OPEN)


class _TwoStreams(_Base):
    """What MNF and MFF share: the K check, the name and the small (< E/K) test."""

    kind = ""  # the selection kind, which names K's range in ``_KINDS``

    def __init__(self, e: int, k: Fraction):
        super().__init__(e)
        self.k = _checked_k(self.kind, k)
        self.name = f"{self.kind}:{self.k}"
        self._small_below = self.e * self.k.denominator  # size < E/K

    def _opening(self, size: int) -> Decision:
        """The decision opening the next server of ``size``'s stream, tagged with the stream."""
        return _OPEN_STREAM["small" if size * self.k.numerator < self._small_below else "large"]


class ModifiedNextFit(_TwoStreams):
    """Next Fit run separately on small (< E/K) and large (>= E/K) items."""

    kind = "mnf"

    def place(self, view: ArrivalView) -> Decision:
        return _next_fit_stream(view, self.e, self._opening(view.size))


class FirstFit(_Base):
    """Place into the earliest-opened server with room; never close."""

    name = "ff"

    def place(self, view: ArrivalView) -> Decision:
        for srv in view.servers:
            if srv.level + view.size <= self.e:
                return Decision(srv.id)
        return _OPEN


class ModifiedFirstFit(_TwoStreams):
    """First Fit run separately on small (< E/K) and large (>= E/K) items."""

    kind = "mff"

    def place(self, view: ArrivalView) -> Decision:
        opening = self._opening(view.size)
        stream = opening.tag
        for srv in view.servers:
            if srv.tag == stream and srv.level + view.size <= self.e:
                return Decision(srv.id)
        return opening


class BestFit(_Base):
    """Place into the fullest server with room; ties go to the earlier-opened one."""

    name = "bf"

    def place(self, view: ArrivalView) -> Decision:
        room = self.e - view.size
        best = None
        best_level = -1
        for srv in view.servers:  # opening order; strict > keeps the earlier on ties
            if best_level < srv.level <= room:
                best = srv.id
                best_level = srv.level
        return _OPEN if best is None else Decision(best)


class Harmonic(_Base):
    """Next Fit per harmonic size class.

    Class i < K holds sizes in (E/(i+1), E/i]; class K holds sizes <= E/K.
    For integer sizes the class of s is min(K, floor(E/s)).
    """

    def __init__(self, e: int, k: int):
        super().__init__(e)
        self.k = int(_checked_k("harmonic", k))
        self.name = f"harmonic:{self.k}"
        # the decision opening each size class's next server, made on the
        # class's first use (K and E are unbounded, so no table up front)
        self._opening: dict[int, Decision] = {}

    def size_class(self, size: int) -> int:
        return min(self.k, self.e // size)

    def place(self, view: ArrivalView) -> Decision:
        c = self.size_class(view.size)
        opening = self._opening.get(c) or self._opening.setdefault(c, Decision(None, (), c))
        return _next_fit_stream(view, self.e, opening)


class MoveToFront(_Base):
    """Scan the bin list front to back; the receiving bin moves to the front.

    The list order is the recency of receiving an item, kept as an integer
    tag that grows by one on every placement.  Departures never reorder
    the list; a fully departed server simply stops appearing in views.
    """

    name = "mtf"

    def place(self, view: ArrivalView) -> Decision:
        room = self.e - view.size
        newest = 0  # stamps start at 1
        best = None
        best_tag = 0
        for srv in view.servers:  # strict > keeps the earlier server on equal tags
            tag = srv.tag
            if tag > newest:
                newest = tag
            if tag > best_tag and srv.level <= room:
                best = srv.id
                best_tag = tag
        return Decision(best, (), newest + 1)


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
