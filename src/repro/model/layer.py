"""Concrete DNN layers: operator + dimension sizes + stride + sparsity.

A :class:`Layer` pins an :class:`~repro.tensors.operators.Operator` to
concrete dimension extents. Dimensions are stored *input-centric* (``Y``
and ``X`` are input activation extents, already including any padding);
the output extents ``Y'``/``X'`` are derived from the convolution window
relation.

Sparsity follows the paper's Section 4.4: a uniform density in ``[0, 1]``
per tensor scales effective MAC counts and data traffic. Transposed
convolutions are modeled as dense convolutions over the zero-upscaled
input, with the inserted zeros captured as structured input sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import LayerError
from repro.tensors import dims as D
from repro.tensors.operators import (
    CONV2D,
    DWCONV,
    ELEMENTWISE,
    FC,
    POOL,
    PWCONV,
    TRCONV,
    Operator,
)

_DEFAULT_DENSITY = 1.0


@dataclass(frozen=True)
class Layer:
    """One DNN layer bound to concrete sizes.

    Parameters
    ----------
    name:
        Human-readable layer label, unique within a network.
    operator:
        The operator template (CONV2D, DWCONV, FC, ...).
    dims:
        Input-centric extents for the canonical dims the operator uses;
        unused dims default to 1. ``Y``/``X`` must already include
        padding.
    stride, dilation:
        ``(row, col)`` stride/dilation of the sliding window.
    groups:
        Grouped convolution factor; ``dims`` describe a single group and
        every count the analysis produces is multiplied by ``groups``.
    densities:
        Uniform density per tensor name (e.g. ``{"I": 0.25}``); missing
        tensors are dense.
    """

    name: str
    operator: Operator
    dims: Mapping[str, int]
    stride: Tuple[int, int] = (1, 1)
    dilation: Tuple[int, int] = (1, 1)
    groups: int = 1
    densities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        sizes: Dict[str, int] = {dim: 1 for dim in D.CANONICAL_DIMS}
        for dim, size in dict(self.dims).items():
            if dim not in sizes:
                raise LayerError(f"{self.name}: unknown dimension {dim!r}")
            if not isinstance(size, int) or size < 1:
                raise LayerError(f"{self.name}: dimension {dim}={size!r} must be a positive int")
            sizes[dim] = size
        for dim, size in sizes.items():
            if size > 1 and dim not in self.operator.used_dims:
                raise LayerError(
                    f"{self.name}: dimension {dim}={size} is not used by "
                    f"operator {self.operator.name}"
                )
        if self.groups < 1:
            raise LayerError(f"{self.name}: groups must be >= 1")
        for label, pair in (("stride", self.stride), ("dilation", self.dilation)):
            if len(pair) != 2 or any(v < 1 for v in pair):
                raise LayerError(f"{self.name}: {label} must be a pair of positive ints")
        for tensor_name, density in dict(self.densities).items():
            self.operator.tensor(tensor_name)  # raises KeyError if unknown
            if not 0.0 < density <= 1.0:
                raise LayerError(
                    f"{self.name}: density of {tensor_name} must be in (0, 1], got {density}"
                )
        object.__setattr__(self, "dims", MappingProxyType(sizes))
        object.__setattr__(self, "densities", MappingProxyType(dict(self.densities)))
        # Validate the output window exists.
        for in_dim, k_dim, axis in ((D.Y, D.R, 0), (D.X, D.S, 1)):
            k_ext = (sizes[k_dim] - 1) * self.dilation[axis] + 1
            if sizes[in_dim] < k_ext:
                raise LayerError(
                    f"{self.name}: {in_dim}={sizes[in_dim]} is smaller than the "
                    f"kernel extent {k_ext} along {k_dim}"
                )

    def __hash__(self) -> int:
        # Computed on first use and kept: the analyzers' per-layer memos
        # hash a layer on every lookup. Copies (``dataclasses.replace``,
        # unpickling) go through ``__init__`` and hash afresh. dims and
        # densities are mapping proxies; equality stays the dataclass's.
        cached = self.__dict__.get("_hash")
        if cached is None:
            items = (tuple(sorted(self.dims.items())), tuple(sorted(self.densities.items())))
            cached = hash((self.name, self.operator, self.stride, self.dilation, self.groups, items))
            object.__setattr__(self, "_hash", cached)
        return cached  # type: ignore[no-any-return]

    def __reduce__(self):
        # The normalized dims/densities live in MappingProxyType views,
        # which cannot be pickled; rebuild through __init__ (re-running
        # the cheap validation) so layers cross process boundaries — the
        # batch-evaluation backend ships them to worker processes.
        return (
            Layer,
            (
                self.name,
                self.operator,
                dict(self.dims),
                self.stride,
                self.dilation,
                self.groups,
                dict(self.densities),
            ),
        )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def out_y(self) -> int:
        """Output rows ``Y'``."""
        k_ext = (self.dims[D.R] - 1) * self.dilation[0] + 1
        return (self.dims[D.Y] - k_ext) // self.stride[0] + 1

    @property
    def out_x(self) -> int:
        """Output columns ``X'``."""
        k_ext = (self.dims[D.S] - 1) * self.dilation[1] + 1
        return (self.dims[D.X] - k_ext) // self.stride[1] + 1

    def dim_size(self, dim: str) -> int:
        """Extent of any directive dimension, including ``Y'``/``X'``."""
        if dim == D.YP:
            return self.out_y
        if dim == D.XP:
            return self.out_x
        return self.dims[dim]

    def all_dim_sizes(self) -> Dict[str, int]:
        """Every directive dim's extent, canonical plus output aliases."""
        sizes = dict(self.dims)
        sizes[D.YP] = self.out_y
        sizes[D.XP] = self.out_x
        return sizes

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    def density(self, tensor_name: str) -> float:
        return self.densities.get(tensor_name, _DEFAULT_DENSITY)

    def total_ops(self) -> int:
        """Dense compute-domain size (MACs for conv/FC, ops otherwise)."""
        return self.operator.total_ops(self.all_dim_sizes()) * self.groups

    def effective_ops(self) -> float:
        """MACs after uniform-sparsity scaling of the input operands."""
        factor = 1.0
        for template in self.operator.input_tensors:
            factor *= self.density(template.name)
        return self.total_ops() * factor

    def tensor_volume(self, tensor_name: str) -> int:
        """Dense element count of a tensor (per full layer, all groups)."""
        return (
            self.operator.tensor_volume(tensor_name, self.all_dim_sizes())
            * self.groups
        )

    def touched_tensor_volume(self, tensor_name: str) -> int:
        """Elements the computation actually touches (stride-hole aware)."""
        return (
            self.operator.touched_tensor_volume(
                tensor_name, self.all_dim_sizes(), self.stride, self.dilation
            )
            * self.groups
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(
            f"{dim}={size}" for dim, size in self.dims.items() if size > 1
        )
        return f"{self.name}[{self.operator.name}]({dims})"


# ----------------------------------------------------------------------
# Convenience constructors used by the model zoo
# ----------------------------------------------------------------------
def conv2d(
    name: str,
    *,
    n: int = 1,
    k: int,
    c: int,
    y: int,
    x: int,
    r: int,
    s: int,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    densities: Optional[Mapping[str, float]] = None,
) -> Layer:
    """A standard convolution. ``y``/``x`` are *unpadded* input extents."""
    operator = PWCONV if (r == 1 and s == 1) else CONV2D
    return Layer(
        name=name,
        operator=operator,
        dims={
            D.N: n,
            D.K: k // groups,
            D.C: c // groups,
            D.Y: y + 2 * padding,
            D.X: x + 2 * padding,
            D.R: r,
            D.S: s,
        },
        stride=(stride, stride),
        groups=groups,
        densities=dict(densities or {}),
    )


def pwconv(
    name: str, *, n: int = 1, k: int, c: int, y: int, x: int, stride: int = 1
) -> Layer:
    """A pointwise (1x1) convolution."""
    return conv2d(name, n=n, k=k, c=c, y=y, x=x, r=1, s=1, stride=stride)


def dwconv(
    name: str,
    *,
    n: int = 1,
    c: int,
    y: int,
    x: int,
    r: int,
    s: int,
    stride: int = 1,
    padding: int = 0,
) -> Layer:
    """A depthwise convolution (channel multiplier 1)."""
    return Layer(
        name=name,
        operator=DWCONV,
        dims={
            D.N: n,
            D.C: c,
            D.Y: y + 2 * padding,
            D.X: x + 2 * padding,
            D.R: r,
            D.S: s,
        },
        stride=(stride, stride),
    )


def trconv(
    name: str,
    *,
    n: int = 1,
    k: int,
    c: int,
    y: int,
    x: int,
    r: int,
    s: int,
    upscale: int,
    padding: int = 0,
) -> Layer:
    """A transposed convolution producing an upscaled output.

    Modeled as a dense stride-1 convolution over the zero-upscaled input
    (extent ``(y - 1) * upscale + 1`` plus ``r - 1 - padding`` of framing
    on each side); inserted zeros become structured input sparsity.
    """
    if upscale < 1:
        raise LayerError(f"{name}: upscale must be >= 1")
    pad_y = r - 1 - padding
    pad_x = s - 1 - padding
    if pad_y < 0 or pad_x < 0:
        raise LayerError(f"{name}: padding {padding} exceeds kernel-1")
    y_up = (y - 1) * upscale + 1 + 2 * pad_y
    x_up = (x - 1) * upscale + 1 + 2 * pad_x
    density = (y * x) / float(y_up * x_up)
    return Layer(
        name=name,
        operator=TRCONV,
        dims={D.N: n, D.K: k, D.C: c, D.Y: y_up, D.X: x_up, D.R: r, D.S: s},
        stride=(1, 1),
        densities={"I": density},
    )


def fc(name: str, *, n: int = 1, k: int, c: int) -> Layer:
    """A fully-connected layer (GEMM)."""
    return Layer(name=name, operator=FC, dims={D.N: n, D.K: k, D.C: c})


def pool(
    name: str, *, n: int = 1, c: int, y: int, x: int, window: int, stride: int = 0
) -> Layer:
    """A pooling layer; ``stride`` defaults to the window size."""
    stride = stride or window
    return Layer(
        name=name,
        operator=POOL,
        dims={D.N: n, D.C: c, D.Y: y, D.X: x, D.R: window, D.S: window},
        stride=(stride, stride),
    )


def elementwise(name: str, *, n: int = 1, c: int, y: int, x: int) -> Layer:
    """An elementwise residual addition over an N x C x Y x X activation."""
    return Layer(
        name=name, operator=ELEMENTWISE, dims={D.N: n, D.C: c, D.Y: y, D.X: x}
    )
