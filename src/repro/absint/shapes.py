"""Symbolic layer shapes: an interval box over the canonical dimensions.

A :class:`ShapeBox` is the abstract counterpart of
:class:`~repro.model.Layer`: the operator, stride, dilation, groups and
densities stay concrete (they select the *structure* of the analysis —
which tensors exist and which axis classes resolve), while every
canonical dimension extent is an :class:`IntervalInt`. The box denotes
the set of **valid** layers inside it — concretizations that
:class:`~repro.model.Layer` itself rejects (an activation plane smaller
than the kernel extent) are excluded by definition, which is why the
derived output extents ``Y'``/``X'`` may soundly be clamped to ``>= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.absint.interval import AbstractDomainError, IntervalInt
from repro.errors import LayerError
from repro.model.layer import Layer
from repro.tensors import dims as D
from repro.tensors.operators import Operator


def _derived_out(y: int, r: int, stride: int, dilation: int) -> int:
    """The scalar ``Y'`` formula, shared with :class:`Layer`."""
    k_ext = (r - 1) * dilation + 1
    return (y - k_ext) // stride + 1


@dataclass(frozen=True)
class ShapeBox:
    """A family of layers: one operator, interval dimension extents."""

    name: str
    operator: Operator
    dims: Mapping[str, IntervalInt]
    stride: Tuple[int, int] = (1, 1)
    dilation: Tuple[int, int] = (1, 1)
    groups: int = 1
    densities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ranges: Dict[str, IntervalInt] = {
            dim: IntervalInt.point(1) for dim in D.CANONICAL_DIMS
        }
        for dim, value in dict(self.dims).items():
            if dim not in ranges:
                raise LayerError(f"{self.name}: unknown dimension {dim!r}")
            if not isinstance(value, IntervalInt):
                raise LayerError(
                    f"{self.name}: dimension {dim} must be an IntervalInt, "
                    f"got {value!r}"
                )
            if value.lo < 1:
                raise LayerError(
                    f"{self.name}: dimension {dim}={value} must be >= 1"
                )
            ranges[dim] = value
        for dim, value in ranges.items():
            if value.hi > 1 and dim not in self.operator.used_dims:
                raise LayerError(
                    f"{self.name}: dimension {dim}={value} is not used by "
                    f"operator {self.operator.name}"
                )
        # The box must contain at least one valid layer: the most
        # permissive corner (largest plane, smallest kernel) must pass
        # the Layer window validation.
        for in_dim, k_dim, axis in ((D.Y, D.R, 0), (D.X, D.S, 1)):
            k_ext = (ranges[k_dim].lo - 1) * self.dilation[axis] + 1
            if ranges[in_dim].hi < k_ext:
                raise LayerError(
                    f"{self.name}: no valid layer in box — {in_dim}={ranges[in_dim]} "
                    f"is always smaller than the minimal kernel extent {k_ext} "
                    f"along {k_dim}"
                )
        object.__setattr__(self, "dims", dict(ranges))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_layer(
        layer: Layer,
        ranges: Optional[Mapping[str, Tuple[int, int]]] = None,
        widen: float = 1.0,
    ) -> "ShapeBox":
        """A box around ``layer``: each dim widened by ``widen`` (a factor
        applied down and up), with explicit per-dim ``ranges`` overriding.
        """
        if widen < 1.0:
            raise AbstractDomainError(f"widen factor must be >= 1, got {widen}")
        dims: Dict[str, IntervalInt] = {}
        for dim, size in layer.dims.items():
            if ranges is not None and dim in ranges:
                lo, hi = ranges[dim]
                dims[dim] = IntervalInt(lo, hi)
            elif size == 1:
                dims[dim] = IntervalInt.point(1)
            else:
                dims[dim] = IntervalInt(
                    max(1, int(size / widen)), max(1, int(size * widen))
                )
        return ShapeBox(
            name=layer.name,
            operator=layer.operator,
            dims=dims,
            stride=layer.stride,
            dilation=layer.dilation,
            groups=layer.groups,
            densities=dict(layer.densities),
        )

    # ------------------------------------------------------------------
    # Abstract counterparts of the Layer size API
    # ------------------------------------------------------------------
    @property
    def out_y(self) -> IntervalInt:
        """``Y'`` lifted: increasing in ``Y``, decreasing in ``R``."""
        y, r = self.dims[D.Y], self.dims[D.R]
        lo = _derived_out(y.lo, r.hi, self.stride[0], self.dilation[0])
        hi = _derived_out(y.hi, r.lo, self.stride[0], self.dilation[0])
        # Concretizations with Y < kernel extent are not valid layers;
        # every valid member has Y' >= 1, so the clamp is sound.
        return IntervalInt(max(1, lo), max(1, hi))

    @property
    def out_x(self) -> IntervalInt:
        x, s = self.dims[D.X], self.dims[D.S]
        lo = _derived_out(x.lo, s.hi, self.stride[1], self.dilation[1])
        hi = _derived_out(x.hi, s.lo, self.stride[1], self.dilation[1])
        return IntervalInt(max(1, lo), max(1, hi))

    def all_dim_sizes(self) -> Dict[str, IntervalInt]:
        """Every directive dim's extent interval, incl. ``Y'``/``X'``."""
        sizes = dict(self.dims)
        sizes[D.YP] = self.out_y
        sizes[D.XP] = self.out_x
        return sizes

    def strides_map(self) -> Dict[str, int]:
        return {D.Y: self.stride[0], D.X: self.stride[1]}

    def density(self, tensor_name: str) -> float:
        return dict(self.densities).get(tensor_name, 1.0)

    # ------------------------------------------------------------------
    # Concretization
    # ------------------------------------------------------------------
    def contains(self, layer: Layer) -> bool:
        """Whether ``layer`` is a member of this shape family."""
        if (
            layer.operator is not self.operator
            or layer.stride != self.stride
            or layer.dilation != self.dilation
            or layer.groups != self.groups
            or dict(layer.densities) != dict(self.densities)
        ):
            return False
        return all(
            self.dims[dim].contains(size) for dim, size in layer.dims.items()
        )

    def representative_layer(self) -> Layer:
        """One valid concrete member (the most permissive corner).

        Used to resolve structure-only questions — which tensors the
        operator has and which axis classes the coordinate
        representation selects — that do not depend on the extents.
        """
        return self.concretize({dim: iv.hi for dim, iv in self.dims.items()} | {
            D.R: self.dims[D.R].lo, D.S: self.dims[D.S].lo
        })

    def concretize(self, sizes: Mapping[str, int]) -> Layer:
        """The member layer with the given extents (validated by Layer)."""
        for dim, size in sizes.items():
            if dim not in self.dims or not self.dims[dim].contains(size):
                raise LayerError(
                    f"{self.name}: {dim}={size} is outside the box "
                    f"({self.dims.get(dim)})"
                )
        return Layer(
            name=self.name,
            operator=self.operator,
            dims=dict(sizes),
            stride=self.stride,
            dilation=self.dilation,
            groups=self.groups,
            densities=dict(self.densities),
        )

    def corner_layers(self) -> Iterator[Layer]:
        """The valid extreme members (lo/hi corners of the varying dims)."""
        varying = [dim for dim, iv in self.dims.items() if not iv.is_point]
        for mask in range(1 << len(varying)):
            sizes = {dim: iv.lo for dim, iv in self.dims.items()}
            for bit, dim in enumerate(varying):
                if mask & (1 << bit):
                    sizes[dim] = self.dims[dim].hi
            try:
                yield self.concretize(sizes)
            except LayerError:
                continue  # corner outside the valid-layer subfamily

    def __str__(self) -> str:
        spans = ", ".join(
            f"{dim}={iv}" for dim, iv in self.dims.items() if iv.hi > 1
        )
        return f"{self.name}[{self.operator.name}]({spans})"
