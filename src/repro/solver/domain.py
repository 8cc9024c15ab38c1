"""Box domains for the bound solver.

A *bucket* of the statistics phase confines an interval's start to one granule and
its end to another.  For the bound solver this becomes a :class:`VariableBox`: an
axis-aligned box over the two endpoints of one query variable.  A
:class:`DomainSet` gathers the boxes of every variable of a bucket combination and
exposes the flat ``EndpointVar -> (low, high)`` mapping that linear terms and
comparators consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..temporal.interval import Interval
from ..temporal.terms import EndpointVar

__all__ = ["VariableBox", "DomainSet"]


@dataclass(frozen=True, slots=True)
class VariableBox:
    """Ranges of the start and end endpoints of one query variable.

    The box is *interval-feasible* when it contains at least one point with
    ``start <= end``, i.e. ``start_low <= end_high``.  Buckets produced from real
    data always satisfy this.
    """

    start_low: float
    start_high: float
    end_low: float
    end_high: float

    def __post_init__(self) -> None:
        if self.start_low > self.start_high or self.end_low > self.end_high:
            raise ValueError("malformed variable box")

    @property
    def is_feasible(self) -> bool:
        """True when the box admits an interval with ``start <= end``."""
        return self.start_low <= self.end_high

    @property
    def start_range(self) -> tuple[float, float]:
        return (self.start_low, self.start_high)

    @property
    def end_range(self) -> tuple[float, float]:
        return (self.end_low, self.end_high)

    def width(self, endpoint: str) -> float:
        """Width of the start or end range."""
        if endpoint == "start":
            return self.start_high - self.start_low
        return self.end_high - self.end_low

    def split(self, endpoint: str) -> tuple["VariableBox", "VariableBox"]:
        """Halve the box along one endpoint axis."""
        if endpoint == "start":
            mid = (self.start_low + self.start_high) / 2.0
            return (
                VariableBox(self.start_low, mid, self.end_low, self.end_high),
                VariableBox(mid, self.start_high, self.end_low, self.end_high),
            )
        mid = (self.end_low + self.end_high) / 2.0
        return (
            VariableBox(self.start_low, self.start_high, self.end_low, mid),
            VariableBox(self.start_low, self.start_high, mid, self.end_high),
        )

    def sample_interval(self, uid: int = -1) -> Interval:
        """A representative interval inside the box, respecting ``start <= end``.

        Used to obtain feasible objective values during branch-and-bound.  The
        midpoints are used when they already form a valid interval; otherwise the
        point is pulled onto the ``start <= end`` boundary.
        """
        start = (self.start_low + self.start_high) / 2.0
        end = (self.end_low + self.end_high) / 2.0
        if end < start:
            # Pull towards a feasible corner; feasibility guarantees overlap exists.
            start = min(start, self.end_high)
            end = max(end, start)
        return Interval(uid, start, end)

    @classmethod
    def from_granules(
        cls, start_granule: tuple[float, float], end_granule: tuple[float, float]
    ) -> "VariableBox":
        """Box for a bucket: start confined to one granule, end to another."""
        return cls(start_granule[0], start_granule[1], end_granule[0], end_granule[1])


@dataclass(frozen=True)
class DomainSet:
    """Boxes for every query variable of a bucket combination."""

    boxes: tuple[tuple[str, VariableBox], ...]

    @classmethod
    def from_mapping(cls, boxes: Mapping[str, VariableBox]) -> "DomainSet":
        return cls(tuple(sorted(boxes.items())))

    def as_mapping(self) -> dict[str, VariableBox]:
        return dict(self.boxes)

    def variables(self) -> list[str]:
        return [var for var, _ in self.boxes]

    def box_of(self, var: str) -> VariableBox:
        for name, box in self.boxes:
            if name == var:
                return box
        raise KeyError(var)

    def endpoint_domains(self) -> dict[EndpointVar, tuple[float, float]]:
        """Flat mapping consumed by linear-term interval arithmetic."""
        domains: dict[EndpointVar, tuple[float, float]] = {}
        for var, box in self.boxes:
            domains[EndpointVar(var, "start")] = box.start_range
            domains[EndpointVar(var, "end")] = box.end_range
        return domains

    def corners(self) -> dict[str, tuple[float, float, float, float]]:
        """``(start_low, start_high, end_low, end_high)`` of every variable's box."""
        return {
            var: (box.start_low, box.start_high, box.end_low, box.end_high)
            for var, box in self.boxes
        }

    def sample_assignment(self) -> dict[str, Interval]:
        """A feasible assignment of one representative interval per variable."""
        return {var: box.sample_interval() for var, box in self.boxes}

    def widest(self) -> tuple[str, str, float]:
        """Variable and endpoint with the widest range (the split target)."""
        best: tuple[str, str, float] | None = None
        for var, box in self.boxes:
            for endpoint in ("start", "end"):
                width = box.width(endpoint)
                if best is None or width > best[2]:
                    best = (var, endpoint, width)
        assert best is not None
        return best

    def split(self, var: str, endpoint: str) -> Iterator["DomainSet"]:
        """Split one variable's box along one endpoint axis; yields the two halves."""
        mapping = self.as_mapping()
        low_box, high_box = mapping[var].split(endpoint)
        for half in (low_box, high_box):
            new_mapping = dict(mapping)
            new_mapping[var] = half
            candidate = DomainSet.from_mapping(new_mapping)
            if half.is_feasible:
                yield candidate
