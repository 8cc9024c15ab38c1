"""Linear endpoint terms.

Every temporal predicate of the paper -- the Allen algebra as well as the extended
predicates ``justBefore``, ``shiftMeets`` and ``sparks`` -- is a conjunction of
equalities and inequalities between *linear functions of interval endpoints*
(e.g. ``end(x)``, ``start(y)``, ``end(x) + avg`` or ``10 * (end(x) - start(x))``).

Representing those linear functions explicitly serves two purposes:

* scoring -- a comparator only needs the scalar value of the term for a concrete
  tuple of intervals;
* bounding -- given box domains for the endpoints (a *bucket* confines the start
  to one granule and the end to another), the exact range of a linear term follows
  from interval arithmetic, which is what the bound solver builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .interval import Interval

__all__ = ["EndpointVar", "Term", "start_of", "end_of", "length_of", "constant"]


@dataclass(frozen=True, slots=True)
class EndpointVar:
    """One endpoint of one query variable, e.g. ``end`` of variable ``x``.

    ``var`` is the query-variable name (a vertex of the RTJ query graph) and
    ``endpoint`` is ``'start'`` or ``'end'``.
    """

    var: str
    endpoint: str

    def __post_init__(self) -> None:
        if self.endpoint not in ("start", "end"):
            raise ValueError(f"endpoint must be 'start' or 'end', got {self.endpoint!r}")

    def value(self, interval: Interval) -> float:
        """Evaluate this endpoint on a concrete interval."""
        return interval.start if self.endpoint == "start" else interval.end


@dataclass(frozen=True)
class Term:
    """A linear combination of endpoint variables plus a constant.

    ``coefficients`` maps :class:`EndpointVar` to its coefficient.  Terms are
    immutable; arithmetic operators build new terms.
    """

    coefficients: tuple[tuple[EndpointVar, float], ...] = field(default_factory=tuple)
    constant: float = 0.0

    # ------------------------------------------------------------ construction
    @staticmethod
    def _from_dict(coeffs: Mapping[EndpointVar, float], constant: float) -> "Term":
        cleaned = tuple(sorted(
            ((ev, c) for ev, c in coeffs.items() if c != 0.0),
            key=lambda item: (item[0].var, item[0].endpoint),
        ))
        return Term(cleaned, constant)

    def _as_dict(self) -> dict[EndpointVar, float]:
        return dict(self.coefficients)

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other: "Term | float | int") -> "Term":
        if isinstance(other, (int, float)):
            return Term(self.coefficients, self.constant + float(other))
        coeffs = self._as_dict()
        for ev, c in other.coefficients:
            coeffs[ev] = coeffs.get(ev, 0.0) + c
        return Term._from_dict(coeffs, self.constant + other.constant)

    def __radd__(self, other: "Term | float | int") -> "Term":
        return self.__add__(other)

    def __sub__(self, other: "Term | float | int") -> "Term":
        if isinstance(other, (int, float)):
            return Term(self.coefficients, self.constant - float(other))
        return self + (other * -1.0)

    def __rsub__(self, other: "Term | float | int") -> "Term":
        return (self * -1.0) + other

    def __mul__(self, factor: float | int) -> "Term":
        factor = float(factor)
        coeffs = {ev: c * factor for ev, c in self.coefficients}
        return Term._from_dict(coeffs, self.constant * factor)

    def __rmul__(self, factor: float | int) -> "Term":
        return self.__mul__(factor)

    # -------------------------------------------------------------- evaluation
    def variables(self) -> set[str]:
        """Query-variable names referenced by this term."""
        return {ev.var for ev, _ in self.coefficients}

    def endpoint_vars(self) -> set[EndpointVar]:
        """Endpoint variables referenced by this term."""
        return {ev for ev, _ in self.coefficients}

    def evaluate(self, assignment: Mapping[str, Interval]) -> float:
        """Value of the term for a concrete assignment of intervals to variables."""
        value = self.constant
        for ev, coeff in self.coefficients:
            value += coeff * ev.value(assignment[ev.var])
        return value

    def bounds(self, domains: Mapping[EndpointVar, tuple[float, float]]) -> tuple[float, float]:
        """Exact range of the term when each endpoint lies in a given box.

        ``domains`` maps each referenced endpoint variable to a ``(low, high)``
        range.  Because the term is linear and the endpoints are treated as
        independent, the minimum / maximum are attained at box corners and interval
        arithmetic is exact.  The ranges may also be numpy arrays of one common
        shape: every step is elementwise, so each element gets the same float
        operations as a scalar call (the array form of TopBuckets bounds all
        bucket pairs of an edge this way).
        """
        lo = hi = self.constant
        for ev, coeff in self.coefficients:
            d_lo, d_hi = domains[ev]
            if coeff >= 0:
                lo += coeff * d_lo
                hi += coeff * d_hi
            else:
                lo += coeff * d_hi
                hi += coeff * d_lo
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c:+g}*{ev.var}.{ev.endpoint}" for ev, c in self.coefficients]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def start_of(var: str) -> Term:
    """Term for the start endpoint of query variable ``var``."""
    return Term(((EndpointVar(var, "start"), 1.0),), 0.0)


def end_of(var: str) -> Term:
    """Term for the end endpoint of query variable ``var``."""
    return Term(((EndpointVar(var, "end"), 1.0),), 0.0)


def length_of(var: str) -> Term:
    """Term for the duration ``end - start`` of query variable ``var``."""
    return end_of(var) - start_of(var)


def constant(value: float) -> Term:
    """Constant term."""
    return Term((), float(value))
