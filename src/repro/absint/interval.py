"""Sound interval arithmetic: the abstract domain of the interpreter.

Two interval types cover everything the analytical model computes:

- :class:`IntervalInt` — inclusive integer bounds, used for layer
  dimensions, tile sizes, chunk/step counts, and buffer byte counts.
  The arithmetic dunders (including the reflected forms) make an
  ``IntervalInt`` a drop-in value for the ``+``/``-``/``*`` closure
  trees that :class:`~repro.dataflow.directives.SizeExpr` compiles to,
  so symbolic tile-size expressions evaluate over interval dimension
  bindings without any change to the parser.
- :class:`IntervalFloat` — the continuous quantities (delays, traffic
  volumes, energies, utilizations).

Soundness contract: every operation ``op#`` on intervals satisfies
``x in X and y in Y  =>  op(x, y) in op#(X, Y)``. For monotone
primitives (``ceil_div``, ``num_chunks``, ``//``, ``min``/``max``,
``sqrt``, the NoC pipe delay) the transfer function evaluates the
*exact same scalar code* at the two monotone corner assignments, so no
precision is lost at the primitive level; composite expressions lose
only the correlation between repeated variables (standard interval
over-approximation). Floating-point corner evaluation is sound because
IEEE-754 round-to-nearest arithmetic is weakly monotone argument-wise.

Three-valued predicate helpers (``Optional[bool]``: ``True`` =
definitely, ``False`` = definitely not, ``None`` = undecided over the
interval) support the branch conditions of the lifted engines; an
undecided branch takes the hull of both arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.util.intmath import ceil_div, num_chunks

#: Three-valued truth: True / False / None (undecided over the range).
TriBool = Optional[bool]


class AbstractDomainError(ValueError):
    """An interval operation was applied outside its sound domain."""


@dataclass(frozen=True)
class IntervalInt:
    """An inclusive integer interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise AbstractDomainError(
                f"IntervalInt bounds must be ints, got [{self.lo!r}, {self.hi!r}]"
            )
        if self.lo > self.hi:
            raise AbstractDomainError(
                f"empty integer interval [{self.lo}, {self.hi}]"
            )

    # ------------------------------------------------------------------
    # Construction / inspection
    # ------------------------------------------------------------------
    @staticmethod
    def point(value: int) -> "IntervalInt":
        return IntervalInt(value, value)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def hull(self, other: "IntervalInt") -> "IntervalInt":
        return IntervalInt(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp_low(self, floor: int) -> "IntervalInt":
        """Clamp both bounds up to at least ``floor`` (sound for values
        that the concrete code clamps identically, e.g. ``max(1, x)``)."""
        return IntervalInt(max(floor, self.lo), max(floor, self.hi))

    def to_float(self) -> "IntervalFloat":
        return IntervalFloat(float(self.lo), float(self.hi))

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"

    # ------------------------------------------------------------------
    # Arithmetic (the SizeExpr closure-tree operators: +, -, *)
    # ------------------------------------------------------------------
    def _coerce(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        if isinstance(other, bool):  # bool is an int; reject it loudly
            raise AbstractDomainError(f"cannot mix bool {other!r} into intervals")
        if isinstance(other, int):
            return IntervalInt.point(other)
        if isinstance(other, IntervalInt):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return IntervalInt(self.lo + rhs.lo, self.hi + rhs.hi)

    def __radd__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        return self.__add__(other)

    def __sub__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return IntervalInt(self.lo - rhs.hi, self.hi - rhs.lo)

    def __rsub__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return lhs.__sub__(self)

    def __mul__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        corners = (
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        )
        return IntervalInt(min(corners), max(corners))

    def __rmul__(self, other: Union[int, "IntervalInt"]) -> "IntervalInt":
        return self.__mul__(other)


@dataclass(frozen=True)
class IntervalFloat:
    """An inclusive floating-point interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise AbstractDomainError(
                f"empty float interval [{self.lo}, {self.hi}]"
            )

    @staticmethod
    def point(value: float) -> "IntervalFloat":
        return IntervalFloat(value, value)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def hull(self, other: "IntervalFloat") -> "IntervalFloat":
        return IntervalFloat(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp_low(self, floor: float) -> "IntervalFloat":
        return IntervalFloat(max(floor, self.lo), max(floor, self.hi))

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.lo:g}"
        return f"[{self.lo:g}, {self.hi:g}]"

    def _coerce(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        if isinstance(other, bool):
            raise AbstractDomainError(f"cannot mix bool {other!r} into intervals")
        if isinstance(other, (int, float)):
            return IntervalFloat.point(float(other))
        if isinstance(other, IntervalInt):
            return other.to_float()
        if isinstance(other, IntervalFloat):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return IntervalFloat(self.lo + rhs.lo, self.hi + rhs.hi)

    def __radd__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        return self.__add__(other)

    def __sub__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return IntervalFloat(self.lo - rhs.hi, self.hi - rhs.lo)

    def __rsub__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return lhs.__sub__(self)

    def __mul__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        corners = (
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        )
        return IntervalFloat(min(corners), max(corners))

    def __rmul__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        return self.__mul__(other)

    def __truediv__(self, other: "Union[int, float, IntervalInt, IntervalFloat]") -> "IntervalFloat":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        if rhs.lo <= 0.0:
            raise AbstractDomainError(
                f"interval division needs a strictly positive divisor, got {rhs}"
            )
        corners = (
            self.lo / rhs.lo,
            self.lo / rhs.hi,
            self.hi / rhs.lo,
            self.hi / rhs.hi,
        )
        return IntervalFloat(min(corners), max(corners))

    def ceil_int(self) -> IntervalInt:
        """``int(math.ceil(x))`` lifted (monotone corner evaluation)."""
        return IntervalInt(int(math.ceil(self.lo)), int(math.ceil(self.hi)))

    def floor_int(self) -> IntervalInt:
        """``int(x)`` for non-negative values lifted (floor, monotone)."""
        if self.lo < 0.0:
            raise AbstractDomainError(f"floor_int needs non-negative values, got {self}")
        return IntervalInt(int(self.lo), int(self.hi))

    def abs(self) -> "IntervalFloat":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return IntervalFloat(-self.hi, -self.lo)
        return IntervalFloat(0.0, max(-self.lo, self.hi))


FLOAT_ZERO = IntervalFloat(0.0, 0.0)
FLOAT_ONE = IntervalFloat(1.0, 1.0)
INT_ONE = IntervalInt(1, 1)


# ----------------------------------------------------------------------
# Monotone transfer functions (exact corner evaluation)
# ----------------------------------------------------------------------
def i_min(a: IntervalInt, b: IntervalInt) -> IntervalInt:
    return IntervalInt(min(a.lo, b.lo), min(a.hi, b.hi))


def i_max(a: IntervalInt, b: IntervalInt) -> IntervalInt:
    return IntervalInt(max(a.lo, b.lo), max(a.hi, b.hi))


def f_min(a: IntervalFloat, b: IntervalFloat) -> IntervalFloat:
    return IntervalFloat(min(a.lo, b.lo), min(a.hi, b.hi))


def f_max(a: IntervalFloat, b: IntervalFloat) -> IntervalFloat:
    return IntervalFloat(max(a.lo, b.lo), max(a.hi, b.hi))


def f_max_many(values: Iterable[IntervalFloat]) -> IntervalFloat:
    result: Optional[IntervalFloat] = None
    for value in values:
        result = value if result is None else f_max(result, value)
    if result is None:
        raise AbstractDomainError("f_max_many needs at least one interval")
    return result


def f_sum(values: Iterable[IntervalFloat]) -> IntervalFloat:
    total = FLOAT_ZERO
    for value in values:
        total = total + value
    return total


def i_sum(values: Iterable[IntervalInt]) -> IntervalInt:
    total = IntervalInt(0, 0)
    for value in values:
        total = total + value
    return total


def i_prod(values: Iterable[IntervalInt]) -> IntervalInt:
    total = INT_ONE
    for value in values:
        total = total * value
    return total


def i_ceil_div(num: IntervalInt, den: IntervalInt) -> IntervalInt:
    """``ceil_div`` lifted: nondecreasing in ``num``, nonincreasing in ``den``.

    Requires a non-negative numerator range and a positive denominator
    range (exactly the scalar function's domain).
    """
    if num.lo < 0 or den.lo < 1:
        raise AbstractDomainError(
            f"ceil_div domain violated: num={num}, den={den}"
        )
    return IntervalInt(ceil_div(num.lo, den.hi), ceil_div(num.hi, den.lo))


def i_floor_div(num: IntervalInt, den: IntervalInt) -> IntervalInt:
    """``//`` lifted for non-negative numerator, positive denominator."""
    if num.lo < 0 or den.lo < 1:
        raise AbstractDomainError(
            f"floor_div domain violated: num={num}, den={den}"
        )
    return IntervalInt(num.lo // den.hi, num.hi // den.lo)


def i_num_chunks(total: IntervalInt, size: IntervalInt, offset: IntervalInt) -> IntervalInt:
    """``num_chunks`` lifted by exact corner evaluation.

    Monotonicity audit of the scalar function
    ``1 if size >= total else ceil_div(total - size, offset) + 1``:
    nondecreasing in ``total`` (a larger extent needs at least as many
    chunks), nonincreasing in ``size`` and in ``offset``. The two sound
    corners are therefore ``(total.lo, size.hi, offset.hi)`` for the
    lower bound and ``(total.hi, size.lo, offset.lo)`` for the upper.
    """
    if total.lo < 1 or size.lo < 1 or offset.lo < 1:
        raise AbstractDomainError(
            f"num_chunks domain violated: total={total}, size={size}, offset={offset}"
        )
    return IntervalInt(
        num_chunks(total.lo, size.hi, offset.hi),
        num_chunks(total.hi, size.lo, offset.lo),
    )


# ----------------------------------------------------------------------
# Three-valued predicates
# ----------------------------------------------------------------------
def tri_gt(value: IntervalInt, threshold: int) -> TriBool:
    """``value > threshold`` over the whole interval, three-valued."""
    if value.lo > threshold:
        return True
    if value.hi <= threshold:
        return False
    return None


def tri_f_gt(value: IntervalFloat, threshold: float) -> TriBool:
    if value.lo > threshold:
        return True
    if value.hi <= threshold:
        return False
    return None


def tri_not(value: TriBool) -> TriBool:
    return None if value is None else (not value)


def tri_any(values: Iterable[TriBool]) -> TriBool:
    """Three-valued ``any``: True dominates, then None, then False."""
    undecided = False
    for value in values:
        if value is True:
            return True
        if value is None:
            undecided = True
    return None if undecided else False


def tri_all(values: Iterable[TriBool]) -> TriBool:
    """Three-valued ``all``: False dominates, then None, then True."""
    undecided = False
    for value in values:
        if value is False:
            return False
        if value is None:
            undecided = True
    return None if undecided else True
