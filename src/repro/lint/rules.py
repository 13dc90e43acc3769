"""The lint rule registry: every ``DF0xx`` check over a directive list.

Each rule is a generator over a :class:`RuleContext` registered with the
:func:`rule` decorator. Rules declare what context they need (``layer``,
``accelerator``) and two orthogonal properties:

- ``construction`` rules run inside ``Dataflow.__post_init__`` and make
  construction raise (they need no layer or hardware);
- ``binding_equivalent`` rules are *sound* with respect to the cluster
  analysis engine: an error from one of them implies
  :func:`~repro.engines.binding.bind_dataflow` would raise for the same
  mapping, which lets the DSE explorer and the auto-tuner reject
  candidates statically without ever changing which designs survive.

The full catalog, with bad/fixed example pairs, lives in
``docs/mapping-lints.md``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    cast,
)

from repro.dataflow.directives import (
    ClusterDirective,
    Directive,
    MapDirective,
    SizeLike,
    evaluate_size,
)
from repro.errors import DataflowError
from repro.lint.diagnostics import Diagnostic, FixIt, Severity, SourceSpan
from repro.tensors import dims as D
from repro.util.intmath import num_chunks, prod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.capacity.bounds import CapacityBounds
    from repro.capacity.roofline import RooflineCertificate
    from repro.dataflow.dataflow import Dataflow
    from repro.engines.binding import BoundDataflow
    from repro.engines.tensor_analysis import TensorAnalysis
    from repro.equiv.canonical import CanonicalForm, Key
    from repro.equiv.dominance import Objectives
    from repro.hardware.accelerator import Accelerator
    from repro.model.layer import Layer
    from repro.verify.result import VerifyResult

#: Dimensions along which a window may legitimately slide (halo reuse).
_SLIDING_DIMS = frozenset({D.Y, D.X})

#: Enumeration budget for coverage verification during linting (cell
#: updates). Deliberately below the verifier's default so `lint` stays
#: interactive; undecided mappings surface as DF103.
_LINT_VERIFY_BUDGET = 200_000


@dataclass(frozen=True)
class LevelView:
    """One cluster level of a (possibly invalid) raw directive list."""

    index: int
    maps: Tuple[Tuple[int, MapDirective], ...]  # (directive index, directive)
    cluster: "Optional[Tuple[int, ClusterDirective]]"  # the closing Cluster


def split_levels(directives: Tuple[Directive, ...]) -> Tuple[LevelView, ...]:
    """Group directives into cluster levels, tolerating malformed lists."""
    levels: List[LevelView] = []
    maps: List[Tuple[int, MapDirective]] = []
    for index, directive in enumerate(directives):
        if isinstance(directive, ClusterDirective):
            levels.append(
                LevelView(index=len(levels), maps=tuple(maps), cluster=(index, directive))
            )
            maps = []
        elif isinstance(directive, MapDirective):
            maps.append((index, directive))
    levels.append(LevelView(index=len(levels), maps=tuple(maps), cluster=None))
    return tuple(levels)


@dataclass
class RuleContext:
    """Everything a rule may inspect, with lazily computed derived state."""

    name: str
    directives: Tuple[Directive, ...]
    layer: "Optional[Layer]" = None
    accelerator: "Optional[Accelerator]" = None
    dataflow: object = None  # the Dataflow instance, when linting one
    spans: Optional[Tuple[Optional[SourceSpan], ...]] = None
    #: Code of the rule being run; :meth:`diag` emits only this code.
    running: Optional[str] = None

    _facts: Dict[object, object] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def levels(self) -> Tuple[LevelView, ...]:
        return split_levels(self.directives)

    @property
    def map_entries(self) -> List[Tuple[int, MapDirective]]:
        return [
            (i, d) for i, d in enumerate(self.directives) if isinstance(d, MapDirective)
        ]

    @property
    def cluster_entries(self) -> List[Tuple[int, ClusterDirective]]:
        return [
            (i, d)
            for i, d in enumerate(self.directives)
            if isinstance(d, ClusterDirective)
        ]

    @functools.cached_property
    def dim_sizes(self) -> Optional[Dict[str, int]]:
        return self.layer.all_dim_sizes() if self.layer is not None else None

    @functools.cached_property
    def strides(self) -> Dict[str, int]:
        if self.layer is None:
            return {}
        return {D.Y: self.layer.stride[0], D.X: self.layer.stride[1]}

    def eval_size(self, value: SizeLike) -> Optional[int]:
        """Concrete value of a size/offset, or ``None`` when unknown.

        Mirrors the cluster analysis engine: symbolic expressions are
        evaluated against the layer's extents with ``St`` bound to the
        layer stride. Without a layer, only plain ints are known.
        """
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return value
        if self.layer is None:
            return None
        try:
            return evaluate_size(value, self.dim_sizes, self.strides)
        except (DataflowError, ValueError):
            return None

    def eval_cluster_size(self, value: SizeLike) -> Optional[int]:
        """Concrete cluster size, evaluated exactly as binding does.

        Binding evaluates ``Cluster`` sizes without the stride mapping
        (``St`` resolves to 1), unlike map sizes/offsets.
        """
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return value
        if self.layer is None:
            return None
        try:
            return evaluate_size(value, self.dim_sizes)
        except (DataflowError, ValueError):
            return None

    def expression_error(self, value: SizeLike) -> Optional[str]:
        """Why a size expression cannot be evaluated, or ``None`` if it can."""
        if isinstance(value, int) and not isinstance(value, bool):
            return None
        sizes = self.dim_sizes or {dim: 1 for dim in D.ALL_DIRECTIVE_DIMS}
        try:
            evaluate_size(value, sizes, self.strides or None)
        except (DataflowError, ValueError) as error:
            return str(error)
        return None

    @functools.cached_property
    def flow(self) -> "Optional[Dataflow]":
        """The mapping under lint as a ``Dataflow`` (the one linted, else
        built once from the directives), or ``None`` when it cannot be
        constructed."""
        if self.dataflow is not None:
            return self.dataflow  # type: ignore[return-value]
        try:
            from repro.dataflow.dataflow import Dataflow

            return Dataflow(name=self.name, directives=tuple(self.directives))
        except Exception:
            return None

    @functools.cached_property
    def bound(self) -> "Optional[BoundDataflow]":
        """The mapping bound to layer + accelerator, or ``None``."""
        if self.layer is None or self.accelerator is None or self.flow is None:
            return None
        try:
            from repro.engines.binding import bind_dataflow

            return bind_dataflow(self.flow, self.layer, self.accelerator)
        except Exception:
            return None

    @functools.cached_property
    def tensors(self) -> "Optional[TensorAnalysis]":
        if self.layer is None:
            return None
        mapped = {d.dim for _, d in self.map_entries}
        row_rep = "output" if D.YP in mapped else "input"
        col_rep = "output" if D.XP in mapped else "input"
        try:
            from repro.engines.tensor_analysis import analyze_tensors

            return analyze_tensors(self.layer, row_rep, col_rep)
        except Exception:
            return None

    @functools.cached_property
    def coverage(self) -> "Optional[VerifyResult]":
        """Iteration-space coverage verdict for this mapping, or ``None``.

        Accelerator-independent (the verifier binds against a synthetic
        accelerator that exactly fits the cluster hierarchy); requires a
        layer. Uses a reduced enumeration budget so linting stays fast —
        mappings the budget cannot decide surface as DF103.
        """
        if self.layer is None or self.flow is None:
            return None
        try:
            from repro.verify import verify_dataflow

            return verify_dataflow(self.flow, self.layer, budget=_LINT_VERIFY_BUDGET)
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Diagnostic construction
    # ------------------------------------------------------------------
    def diag(
        self,
        code: str,
        message: str,
        index: Optional[int] = None,
        fixit: Optional[FixIt] = None,
        provenance: str = "heuristic",
    ) -> Diagnostic:
        """A diagnostic of the running rule, at its registered severity.

        A rule may emit only its own code, and never at another
        severity: that is what makes :attr:`Rule.can_error` exact, and
        the lint gate's errors-only pass equal to the full lint's
        verdict.
        """
        if code != self.running:
            raise ValueError(
                f"lint rule {self.running} emitted {code}: a rule emits only "
                f"its own code"
            )
        directive = None
        span = None
        if index is not None and 0 <= index < len(self.directives):
            directive = str(self.directives[index])
            if self.spans is not None and index < len(self.spans):
                span = self.spans[index]
        return Diagnostic(
            code=code,
            severity=RULES[code].default_severity,
            message=message,
            directive=directive,
            directive_index=index,
            span=span,
            fixit=fixit,
            provenance=provenance,
        )


@dataclass(frozen=True)
class Rule:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    requires: frozenset
    construction: bool
    binding_equivalent: bool
    check: Callable[[RuleContext], Iterator[Diagnostic]]

    @property
    def can_error(self) -> bool:
        """Whether the rule can emit an ERROR.

        Exact, not a guess: :meth:`RuleContext.diag` emits only the
        running rule's code at its registered severity.
        """
        return self.default_severity is Severity.ERROR


RULES: Dict[str, Rule] = {}


_RuleCheck = Callable[[RuleContext], Iterator[Diagnostic]]


def rule(
    code: str,
    title: str,
    severity: Severity,
    requires: Tuple[str, ...] = (),
    construction: bool = False,
    binding_equivalent: bool = False,
) -> Callable[[_RuleCheck], _RuleCheck]:
    def register(fn: _RuleCheck) -> _RuleCheck:
        if code in RULES:  # pragma: no cover - registry misuse guard
            raise ValueError(f"duplicate lint rule code {code}")
        RULES[code] = Rule(
            code=code,
            title=title,
            default_severity=severity,
            requires=frozenset(requires),
            construction=construction,
            binding_equivalent=binding_equivalent,
            check=fn,
        )
        return fn

    return register


_Fact = TypeVar("_Fact")


def shared_fact(compute: Callable[[RuleContext], _Fact]) -> Callable[[RuleContext], _Fact]:
    """Compute a derived fact once per :class:`RuleContext`.

    Every rule that reads the fact shares the first computation, the
    caught-failure result (``None``/``[]``) included, the way
    :attr:`RuleContext.bound`, ``tensors`` and ``coverage`` are shared.
    """

    @functools.wraps(compute)
    def memoized(ctx: RuleContext) -> _Fact:
        if compute not in ctx._facts:
            ctx._facts[compute] = compute(ctx)
        return cast(_Fact, ctx._facts[compute])

    return memoized


def required_pes(dataflow: "Dataflow", layer: "Layer") -> int:
    """PEs the cluster hierarchy needs, exactly as binding computes it.

    Raises :class:`~repro.errors.DataflowError` (as binding would) when a
    cluster size cannot be evaluated or is non-positive.
    """
    from repro.errors import BindingError

    full_sizes = layer.all_dim_sizes()
    sizes = []
    for directive in dataflow.directives:
        if isinstance(directive, ClusterDirective):
            size = evaluate_size(directive.size, full_sizes)
            if size < 1:
                raise BindingError(
                    f"{dataflow.name} on {layer.name}: cluster size {size} < 1"
                )
            sizes.append(size)
    return prod(sizes)


# ======================================================================
# Construction-time structural rules (DF001-DF004)
# ======================================================================
@rule(
    "DF001",
    "dataflow has no directives",
    Severity.ERROR,
    construction=True,
)
def _check_empty(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A dataflow with no directives describes no schedule at all.

    Construction-time: ``Dataflow(...)`` raises, so no downstream engine
    ever sees an empty mapping.
    """
    if not ctx.directives:
        yield ctx.diag("DF001", f"{ctx.name}: a dataflow needs at least one directive")


@rule(
    "DF002",
    "unparsable or unknown directive",
    Severity.ERROR,
    construction=True,
)
def _check_directive_kinds(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Every directive must be a map or a Cluster.

    Construction-time: anything else (a typo'd kind, a raw string, a
    foreign object) is rejected before it can corrupt level splitting.
    """
    for index, directive in enumerate(ctx.directives):
        if not isinstance(directive, (MapDirective, ClusterDirective)):
            yield ctx.diag(
                "DF002", f"{ctx.name}: unexpected directive {directive!r}", index=index
            )


@rule(
    "DF003",
    "Cluster directive not followed by maps",
    Severity.ERROR,
    construction=True,
)
def _check_trailing_cluster(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A ``Cluster`` opens a sub-level, so it cannot be the last directive.

    Construction-time: a trailing Cluster would create a level with no
    maps — sub-units with nothing to execute.
    """
    if ctx.directives and isinstance(ctx.directives[-1], ClusterDirective):
        yield ctx.diag(
            "DF003",
            f"{ctx.name}: a Cluster directive must be followed by maps",
            index=len(ctx.directives) - 1,
            fixit=FixIt("add map directives after the Cluster, or remove it"),
        )


@rule(
    "DF004",
    "mixed input/output coordinate systems on one axis",
    Severity.ERROR,
    construction=True,
)
def _check_coordinate_mixing(ctx: RuleContext) -> Iterator[Diagnostic]:
    """One axis must use either input (Y/X) or output (Y'/X') coordinates.

    Construction-time: mixing both on the same axis makes the tensor
    access relations ambiguous — there is no single row/column
    representation the analysis engines could bind.
    """
    for in_dim, out_dim in ((D.Y, D.YP), (D.X, D.XP)):
        first_style: Optional[str] = None
        for index, directive in ctx.map_entries:
            if directive.dim not in (in_dim, out_dim):
                continue
            if first_style is None:
                first_style = directive.dim
            elif directive.dim != first_style:
                yield ctx.diag(
                    "DF004",
                    f"{ctx.name}: directives mix {in_dim} and {out_dim}; "
                    f"pick one coordinate system per axis",
                    index=index,
                    fixit=FixIt(
                        f"rewrite every {directive.dim} directive in terms of "
                        f"{first_style} (or vice versa)"
                    ),
                )
                break


# ======================================================================
# Structural rules checked at lint time (DF005-DF006)
# ======================================================================
@rule(
    "DF005",
    "dimension mapped more than once in a cluster level",
    Severity.ERROR,
    binding_equivalent=True,
)
def _check_duplicate_dims(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A dimension may appear at most once per cluster level.

    Binding-equivalent: the cluster analysis engine raises on duplicate
    dimensions within a level, so an error here implies the mapping
    cannot bind at all.
    """
    for level in ctx.levels:
        seen: Dict[str, int] = {}
        for index, directive in level.maps:
            if directive.dim in seen:
                yield ctx.diag(
                    "DF005",
                    f"{ctx.name}: dimension {directive.dim} mapped twice in "
                    f"cluster level {level.index}",
                    index=index,
                    fixit=FixIt(f"remove or merge one of the {directive.dim} maps"),
                )
            else:
                seen[directive.dim] = index


@rule(
    "DF006",
    "layer dimension never mapped",
    Severity.INFO,
    requires=("layer",),
)
def _check_dimension_coverage(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Informational: a used layer dimension is never mapped.

    Unmapped dimensions are handled as one full-size chunk per step —
    legal, but often an oversight that forfeits tiling freedom along
    that dimension.
    """
    mapped = {D.base_dim(d.dim) for _, d in ctx.map_entries}
    for dim in D.CANONICAL_DIMS:
        extent = ctx.layer.dims.get(dim, 1)
        if extent <= 1 or dim not in ctx.layer.operator.used_dims:
            continue
        if dim not in mapped:
            yield ctx.diag(
                "DF006",
                f"{ctx.name}: dimension {dim} (extent {extent}) is never mapped; "
                f"it is handled as a single full-size chunk per step",
            )


# ======================================================================
# Cluster shape vs. the PE array (DF007-DF009)
# ======================================================================
@rule(
    "DF007",
    "cluster hierarchy needs more PEs than exist",
    Severity.ERROR,
    requires=("accelerator",),
    binding_equivalent=True,
)
def _check_cluster_fits(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The product of cluster sizes must not exceed the PE count.

    Binding-equivalent: binding raises when the hierarchy needs more
    sub-units than the accelerator provides.
    """
    sizes = [ctx.eval_cluster_size(c.size) for _, c in ctx.cluster_entries]
    if not sizes or any(s is None for s in sizes) or any(s < 1 for s in sizes):
        return  # symbolic without a layer, or reported by DF011/DF012
    needed = prod(sizes)
    if needed > ctx.accelerator.num_pes:
        index = ctx.cluster_entries[-1][0]
        yield ctx.diag(
            "DF007",
            f"{ctx.name}: cluster hierarchy needs {needed} PEs but only "
            f"{ctx.accelerator.num_pes} exist",
            index=index,
            fixit=FixIt(
                f"shrink the Cluster sizes so their product is <= "
                f"{ctx.accelerator.num_pes}, or provision more PEs"
            ),
        )


@rule(
    "DF008",
    "PE array not divisible by the cluster hierarchy",
    Severity.WARNING,
    requires=("accelerator",),
)
def _check_cluster_divisibility(ctx: RuleContext) -> Iterator[Diagnostic]:
    """PEs that do not divide into whole clusters sit permanently idle.

    Heuristic cost warning: the mapping still binds and runs, but the
    remainder PEs never receive work.
    """
    sizes = [ctx.eval_cluster_size(c.size) for _, c in ctx.cluster_entries]
    if not sizes or any(s is None or s < 1 for s in sizes):
        return
    needed = prod(sizes)
    num_pes = ctx.accelerator.num_pes
    if needed > num_pes or num_pes % needed == 0:
        return
    idle = num_pes - (num_pes // needed) * needed
    index = ctx.cluster_entries[-1][0]
    yield ctx.diag(
        "DF008",
        f"{ctx.name}: {num_pes} PEs do not divide into {needed}-PE clusters; "
        f"{idle} PEs ({100.0 * idle / num_pes:.0f}%) are permanently idle",
        index=index,
        fixit=FixIt(
            f"use {(num_pes // needed) * needed} PEs, or a cluster size "
            f"dividing {num_pes}"
        ),
    )


def _suggest_spatial_size(extent: int, size: int, width: int) -> Optional[int]:
    """A non-overlapping spatial size whose chunk count fills every fold."""
    candidates = []
    for candidate in range(size - 1, 0, -1):
        if num_chunks(extent, candidate, candidate) % width == 0:
            candidates.append(candidate)
            break
    for candidate in range(size + 1, extent + 1):
        if num_chunks(extent, candidate, candidate) % width == 0:
            candidates.append(candidate)
            break
    if not candidates:
        return None
    return min(candidates, key=lambda c: (abs(c - size), c))


@rule(
    "DF009",
    "spatial mapping under-utilizes the PEs",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_spatial_utilization(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Spatial chunk counts that do not fill every fold waste PEs.

    Heuristic: computed from the bound schedule's average active
    sub-units; the fix-it proposes a nearby size whose chunk count
    fills each fold exactly.
    """
    bound = ctx.bound
    if bound is None:
        return
    for level, view in zip(bound.levels, ctx.levels):
        if level.width <= 1 or level.spatial_chunks <= 1:
            continue
        utilization = level.avg_active / level.width
        if utilization >= 0.999:
            continue
        spatial_bound = [d for d in level.directives if d.spatial and d.chunks > 1]
        spatial_view = [(i, d) for i, d in view.maps if d.spatial]
        index = spatial_view[0][0] if spatial_view else None
        fixit = None
        if len(spatial_bound) == 1 and spatial_bound[0].offset == spatial_bound[0].size:
            bd = spatial_bound[0]
            extent = level.local_sizes.get(bd.dim, 0)
            if extent > 1:
                suggestion = _suggest_spatial_size(extent, bd.size, level.width)
                if suggestion is not None and suggestion != bd.size:
                    kind = "SpatialMap"
                    fixit = FixIt(
                        f"shrink SpatialMap size {bd.size} -> {suggestion} so the "
                        f"{num_chunks(extent, suggestion, suggestion)} chunks fill "
                        f"every {level.width}-wide fold",
                        replacement=f"{kind}({suggestion},{suggestion}) {bd.dim}",
                    )
        yield ctx.diag(
            "DF009",
            f"{ctx.name}: level {level.index} spreads {level.spatial_chunks} "
            f"spatial chunks over {level.width} sub-units in {level.folds} fold(s); "
            f"average PE utilization is {100.0 * utilization:.0f}%",
            index=index,
            fixit=fixit,
        )


# ======================================================================
# Per-directive size/offset checks (DF010-DF012, DF017)
# ======================================================================
@rule(
    "DF010",
    "overlapping chunks on a non-sliding dimension",
    Severity.WARNING,
)
def _check_halo_misuse(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Overlapping chunks (offset < size) only pay off on sliding dims.

    On Y/X the halo is convolutional reuse; on any other dimension it
    re-fetches the same indices for nothing. Coverage-refutable: the
    verifier refutes the canonical triggers with counterexamples (see
    ``repro.verify.audit``), though benign clamped inner-level variants
    exist — hence a warning, not an error.
    """
    for index, directive in ctx.map_entries:
        if directive.dim in _SLIDING_DIMS:
            continue  # halo on Y/X is convolutional reuse, the point of it
        size = ctx.eval_size(directive.size)
        offset = ctx.eval_size(directive.offset)
        if size is None or offset is None or size <= 0 or offset <= 0:
            continue
        if offset < size:
            yield ctx.diag(
                "DF010",
                f"{ctx.name}: {directive.kind}({size},{offset}) {directive.dim} "
                f"overlaps chunks (offset < size) on non-sliding dimension "
                f"{directive.dim}, re-fetching the same indices without "
                f"convolutional reuse",
                index=index,
                fixit=FixIt(
                    f"make the offset equal to the size",
                    replacement=f"{directive.kind}({directive.size},{directive.size}) "
                    f"{directive.dim}",
                ),
            )


@rule(
    "DF011",
    "non-positive mapping or cluster size",
    Severity.ERROR,
    binding_equivalent=True,
)
def _check_positive_sizes(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Sizes and offsets must evaluate to >= 1.

    Binding-equivalent: the engine rejects non-positive chunk sizes and
    offsets for the same mapping.
    """
    for index, directive in ctx.map_entries:
        size = ctx.eval_size(directive.size)
        offset = ctx.eval_size(directive.offset)
        if size is not None and size < 1:
            yield ctx.diag(
                "DF011",
                f"{ctx.name}: {directive.kind} size on {directive.dim} "
                f"evaluates to {size}; sizes must be >= 1",
                index=index,
            )
        if offset is not None and offset < 1:
            yield ctx.diag(
                "DF011",
                f"{ctx.name}: {directive.kind} offset on {directive.dim} "
                f"evaluates to {offset}; offsets must be >= 1",
                index=index,
            )
    for index, directive in ctx.cluster_entries:
        size = ctx.eval_cluster_size(directive.size)
        if size is not None and size < 1:
            yield ctx.diag(
                "DF011",
                f"{ctx.name}: cluster size {size} < 1",
                index=index,
            )


@rule(
    "DF012",
    "unresolvable size expression",
    Severity.ERROR,
    binding_equivalent=True,
)
def _check_size_expressions(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Symbolic sizes (``Sz``, ``St`` expressions) must be resolvable.

    Binding-equivalent: an expression that cannot be evaluated against
    the layer's extents makes binding raise.
    """
    for index, directive in enumerate(ctx.directives):
        if isinstance(directive, MapDirective):
            values = (("size", directive.size), ("offset", directive.offset))
        elif isinstance(directive, ClusterDirective):
            values = (("size", directive.size),)
        else:
            continue
        for role, value in values:
            reason = ctx.expression_error(value)
            if reason is not None:
                yield ctx.diag(
                    "DF012",
                    f"{ctx.name}: cannot evaluate the {role} of directive "
                    f"{index} ({directive}): {reason}",
                    index=index,
                )


@rule(
    "DF017",
    "offset larger than size skips indices",
    Severity.WARNING,
)
def _check_coverage_gaps(ctx: RuleContext) -> Iterator[Diagnostic]:
    """An offset larger than the size skips indices on non-sliding dims.

    Part of the computation is then never mapped. Coverage-refutable:
    the verifier refutes the canonical triggers with concrete missed
    coordinates (see ``repro.verify.audit``).
    """
    for index, directive in ctx.map_entries:
        if directive.dim in _SLIDING_DIMS:
            continue  # strided windows legitimately skip input pixels
        size = ctx.eval_size(directive.size)
        offset = ctx.eval_size(directive.offset)
        if size is None or offset is None or size < 1 or offset < 1:
            continue
        extent = (
            ctx.layer.dim_size(directive.dim) if ctx.layer is not None else None
        )
        if offset > size and (extent is None or extent > size):
            yield ctx.diag(
                "DF017",
                f"{ctx.name}: {directive.kind}({size},{offset}) {directive.dim} "
                f"skips {offset - size} of every {offset} indices of "
                f"{directive.dim}; part of the computation is never mapped",
                index=index,
                fixit=FixIt(
                    "make the offset equal to the size to cover every index",
                    replacement=f"{directive.kind}({directive.size},{directive.size}) "
                    f"{directive.dim}",
                ),
            )


# ======================================================================
# Hardware reuse support, the paper's Table 5 (DF015-DF016, DF018)
# ======================================================================
@rule(
    "DF015",
    "spatial reduction required but unsupported",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_spatial_reduction_support(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Spatial reduction without a reduction tree costs buffer round-trips.

    The paper's Table 5 cost warning: when every output axis shift is
    zero across a level's sub-units, partial sums must be combined; a
    machine without spatial-reduction hardware serializes them through
    the upper buffer. The concurrency *hazard* version of this (an
    actual write-write race) is DF300.
    """
    if ctx.accelerator.spatial_reduction:
        return
    bound, tensors = ctx.bound, ctx.tensors
    if bound is None or tensors is None:
        return
    output = tensors.output
    for level, view in zip(bound.levels, ctx.levels):
        if level.width <= 1 or level.spatial_chunks <= 1:
            continue
        if all(abs(axis.shift(level.spatial_offsets)) == 0 for axis in output.axes):
            spatial_view = [(i, d) for i, d in view.maps if d.spatial]
            yield ctx.diag(
                "DF015",
                f"{ctx.name}: level {level.index} reduces partial sums across "
                f"{level.width} sub-units, but the accelerator has no "
                f"spatial-reduction hardware; every partial sum round-trips "
                f"through the upper buffer (Table 5)",
                index=spatial_view[0][0] if spatial_view else None,
            )


@rule(
    "DF016",
    "spatial multicast required but unsupported",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_multicast_support(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Broadcast-identical tensors on a unicast NoC duplicate every fetch.

    The paper's Table 5 cost warning, based on zero axis shifts across
    sub-units. DF301 is the certified-classifier version carrying the
    exact duplication factor.
    """
    if ctx.accelerator.noc.multicast:
        return
    bound, tensors = ctx.bound, ctx.tensors
    if bound is None or tensors is None:
        return
    for level, view in zip(bound.levels, ctx.levels):
        if level.width <= 1 or level.spatial_chunks <= 1:
            continue
        broadcast = [
            t.name
            for t in tensors.tensors
            if not t.is_output
            and all(abs(axis.shift(level.spatial_offsets)) == 0 for axis in t.axes)
        ]
        if broadcast:
            spatial_view = [(i, d) for i, d in view.maps if d.spatial]
            yield ctx.diag(
                "DF016",
                f"{ctx.name}: tensor(s) {', '.join(broadcast)} are identical "
                f"across the {level.width} sub-units of level {level.index}, but "
                f"the NoC has no multicast; each fetch is duplicated per "
                f"receiver (Table 5)",
                index=spatial_view[0][0] if spatial_view else None,
            )


@rule(
    "DF018",
    "level distributes nothing across its sub-units",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_idle_levels(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A level whose joint spatial distribution has one chunk wastes PEs.

    All sub-units but one execute nothing; the per-directive variant
    (one degenerate SpatialMap among productive ones) is DF302.
    """
    bound = ctx.bound
    if bound is None:
        return
    for level, view in zip(bound.levels, ctx.levels):
        if level.width <= 1 or level.spatial_chunks > 1:
            continue
        index = view.maps[0][0] if view.maps else None
        yield ctx.diag(
            "DF018",
            f"{ctx.name}: level {level.index} maps only a single spatial chunk "
            f"across its {level.width} sub-units; {level.width - 1} of them do "
            f"no useful work",
            index=index,
            fixit=FixIt("add a SpatialMap over a dimension with extent > 1"),
        )


# ======================================================================
# Iteration-space coverage, backed by the verifier (DF101-DF103)
#
# Unlike the DF0xx pattern rules, these come from repro.verify: DF101 is
# a *theorem* about the schedule (hence provenance "proven" and a
# concrete counterexample coordinate in the message), DF102 the positive
# certificate, DF103 the honest "ran out of budget" signal.
# ======================================================================
@rule(
    "DF101",
    "mapping does not cover the compute space exactly once",
    Severity.ERROR,
    requires=("layer",),
)
def _check_coverage_refuted(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The verifier found a MAC executed zero or multiple times.

    Provenance "proven": the diagnostic carries a concrete
    counterexample coordinate from ``repro.verify``.
    """
    result = ctx.coverage
    if result is None:
        return
    from repro.verify.result import Verdict

    if result.verdict is not Verdict.REFUTED or result.counterexample is None:
        return
    yield ctx.diag(
        "DF101",
        f"{ctx.name}: coverage refuted on {result.layer_name}: "
        f"{result.counterexample.describe()}",
        provenance="proven",
        fixit=FixIt(
            "align sizes/offsets so chunks tile each dimension exactly "
            "(offset == size, or offset == stride * outputs-per-chunk on "
            "sliding dims)"
        ),
    )


@rule(
    "DF102",
    "mapping proven to cover the compute space exactly once",
    Severity.INFO,
    requires=("layer",),
)
def _check_coverage_proven(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Positive certificate: every MAC executes exactly once.

    Provenance "proven": emitted directly from a ``repro.verify``
    PROVEN verdict (decomposition or enumeration).
    """
    result = ctx.coverage
    if result is None:
        return
    from repro.verify.result import Verdict

    if result.verdict is not Verdict.PROVEN:
        return
    yield ctx.diag(
        "DF102",
        f"{ctx.name}: every one of the {result.total_macs} MACs on "
        f"{result.layer_name} is executed exactly once ({result.method})",
        provenance="proven",
    )


@rule(
    "DF103",
    "coverage verification undecided within budget",
    Severity.INFO,
    requires=("layer",),
)
def _check_coverage_undecided(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The lint-time verification budget ran out before a verdict.

    The honest "don't know" signal: neither DF101 nor DF102 applies;
    run ``repro verify`` with a larger budget for a decision.
    """
    result = ctx.coverage
    if result is None:
        return
    from repro.verify.result import Verdict

    if result.verdict is not Verdict.UNDECIDED:
        return
    yield ctx.diag(
        "DF103",
        f"{ctx.name}: coverage on {result.layer_name} undecided: "
        f"{result.message or 'enumeration budget exhausted'}",
    )


# ======================================================================
# Spatial communication & concurrency, backed by repro.comm (DF300-DF303)
#
# These rules read the *certified* communication classification (the
# Table 2 closed form, differentially validated against brute-force PE
# access-set enumeration) instead of re-deriving shift patterns, and
# carry its provenance. DF015/DF016 remain as the Table-5 *cost*
# warnings; DF300/DF301 are the hazard/blow-up statements with exact
# fan-in / duplication numbers.
# ======================================================================
@shared_fact
def _comm_levels(ctx: RuleContext) -> "List[Tuple[object, LevelView, object]]":
    """(bound level, level view, LevelComm) triples, or ``[]`` if unbound."""
    bound, tensors = ctx.bound, ctx.tensors
    if bound is None or tensors is None:
        return []
    try:
        from repro.comm.classify import classify_level

        return [
            (level, view, classify_level(level, tensors))
            for level, view in zip(bound.levels, ctx.levels)
        ]
    except Exception:
        return []


def _first_spatial_index(view: LevelView) -> Optional[int]:
    spatial = [(i, d) for i, d in view.maps if d.spatial]
    return spatial[0][0] if spatial else None


@rule(
    "DF300",
    "write-write race: spatial reduction on hardware without a reduction tree",
    Severity.ERROR,
    requires=("layer", "accelerator"),
)
def _check_write_race(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Concurrent sub-units write the same output elements with nothing
    to combine them.

    The communication classifier certifies a level as ``REDUCTION``
    when its spatial offsets leave every (or some, for partial
    overlaps) output axis shared across concurrently active sub-units:
    a reduction-carried dimension is spatially mapped. On hardware
    whose ``reduction_support`` capability is off, those concurrent
    partial-sum writes race (or silently serialize) — a correctness
    hazard, not a cost trade-off, hence an error where DF015 only
    warns. Fix by mapping the reduction dimension temporally or by
    choosing reduction-capable hardware.
    """
    if ctx.accelerator.reduction_support:
        return
    from repro.comm.classify import STATIC_PROVENANCE

    for level, view, comm in _comm_levels(ctx):
        if not getattr(comm, "requires_reduction", False):
            continue
        output = comm.output_comm
        exact = "all" if output.exact_overlap else "some"
        yield ctx.diag(
            "DF300",
            f"{ctx.name}: level {comm.index} spatially maps a reduction-carried "
            f"dimension — {output.fan_in} concurrent sub-units write {exact} "
            f"elements of {output.tensor} ({output.degree_formula}), but the "
            f"hardware has no reduction tree: a write-write race",
            index=_first_spatial_index(view),
            provenance=STATIC_PROVENANCE,
            fixit=FixIt(
                "map the reduction-carried dimension with TemporalMap (or pick "
                "hardware with reduction_support)"
            ),
        )


@rule(
    "DF301",
    "multicast required on unicast-only hardware",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_multicast_duplication(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Each multicast-classified tensor is fetched once per receiver.

    When the classifier certifies a tensor as ``MULTICAST`` (identical
    across every concurrently active sub-unit) but the hardware's
    ``multicast_support`` capability is off, the NoC delivers one copy
    per receiver: the statically computed duplication factor is exactly
    the multicast fan-out. A cost blow-up, not a hazard — hence a
    warning, with the factor in the message.
    """
    if ctx.accelerator.multicast_support:
        return
    from repro.comm.classify import STATIC_PROVENANCE, CommPattern

    for level, view, comm in _comm_levels(ctx):
        factors = [
            (t.tensor, t.fan_out)
            for t in getattr(comm, "tensors", ())
            if t.pattern is CommPattern.MULTICAST
        ]
        if not factors:
            continue
        detail = ", ".join(f"{name} x{factor}" for name, factor in factors)
        yield ctx.diag(
            "DF301",
            f"{ctx.name}: level {comm.index} multicasts {detail} but the NoC is "
            f"unicast-only; every delivery is duplicated per receiver",
            index=_first_spatial_index(view),
            provenance=STATIC_PROVENANCE,
        )


@rule(
    "DF302",
    "degenerate SpatialMap: fan-out 1, no spatial reuse",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_degenerate_spatial_map(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A SpatialMap whose dimension yields a single chunk distributes
    nothing.

    The directive spends the level's spatial slot on a dimension with
    one chunk (extent <= size): fan-out 1, zero inter-PE reuse, while a
    TemporalMap of the same size is semantically identical and keeps
    the intent honest. The whole-level version (nothing distributed at
    all) is DF018; this rule fires per directive when *another* mapped
    dimension still carries the distribution.
    """
    bound = ctx.bound
    if bound is None:
        return
    from repro.comm.classify import STATIC_PROVENANCE

    for level, view in zip(bound.levels, ctx.levels):
        if level.width <= 1 or level.spatial_chunks <= 1:
            continue  # whole-level degeneracy is DF018's business
        degenerate_dims = {
            d.dim for d in level.directives if d.spatial and d.chunks <= 1
        }
        for index, directive in view.maps:
            if not directive.spatial or directive.dim not in degenerate_dims:
                continue
            size = ctx.eval_size(directive.size)
            offset = ctx.eval_size(directive.offset)
            replacement = None
            if size is not None and offset is not None:
                replacement = f"TemporalMap({size},{offset}) {directive.dim}"
            yield ctx.diag(
                "DF302",
                f"{ctx.name}: SpatialMap on {directive.dim} at level "
                f"{level.index} produces a single chunk (fan-out 1): nothing "
                f"is distributed along it",
                index=index,
                provenance=STATIC_PROVENANCE,
                fixit=FixIt(
                    f"map {directive.dim} temporally; the spatial slot adds "
                    f"nothing here",
                    replacement=replacement,
                ),
            )


@rule(
    "DF303",
    "forwarding chain longer than the PE row",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_forwarding_chain(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A store-and-forward chain should fit one physical PE row.

    ``FORWARDING``-classified tensors (partial overlaps, offset <
    size) ride neighbor-to-neighbor links; a chain spanning more
    sub-units than the PE array's row length (``isqrt(num_pes)`` for
    the square arrays the cost model assumes) must hop across rows,
    where nearest-neighbor forwarding no longer exists.
    """
    import math as _math

    from repro.comm.classify import STATIC_PROVENANCE, CommPattern

    row = max(1, _math.isqrt(ctx.accelerator.num_pes))
    for level, view, comm in _comm_levels(ctx):
        chains = [
            t
            for t in getattr(comm, "tensors", ())
            if t.pattern is CommPattern.FORWARDING and t.chain_length > row
        ]
        for tensor in chains:
            yield ctx.diag(
                "DF303",
                f"{ctx.name}: level {comm.index} forwards {tensor.tensor} along "
                f"a {tensor.chain_length}-unit chain, longer than the "
                f"{row}-PE row of a {ctx.accelerator.num_pes}-PE array",
                index=_first_spatial_index(view),
                provenance=STATIC_PROVENANCE,
                fixit=FixIt(
                    f"shrink the spatial extent so the chain fits {row} "
                    f"sub-units, or tile it with a Cluster"
                ),
            )


# ======================================================================
# Mapping equivalence & dominance, backed by repro.equiv (DF400-DF403)
#
# These rules read the canonical-form analyzer: exact findings (inert
# directives, commuting spatial slots) carry the equivalence provenance
# and exact fix-its; DF402 compares symmetry orbits against the library
# catalog; DF403 reports dominance by a library mapping on the cost
# model's own runtime, energy and EDP for this layer and accelerator.
# None are construction or binding-equivalent rules — they never run on
# the engines' hot paths.
# ======================================================================
@shared_fact
def _canonical_form(ctx: RuleContext) -> "Optional[Tuple[Dataflow, CanonicalForm]]":
    """The mapping under lint and its canonical form on the layer, or
    ``None``; DF400-DF403 share one canonicalization per lint."""
    flow = ctx.flow
    if flow is None or ctx.layer is None:
        return None
    from repro.equiv.canonical import canonicalize

    return flow, canonicalize(flow, ctx.layer)


@rule(
    "DF400",
    "redundant directive: single-chunk TemporalMap is inert",
    Severity.WARNING,
    requires=("layer",),
)
def _check_redundant_directive(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A TemporalMap whose clamped size covers its whole local extent
    iterates once: the reuse engine's odometer filters on ``steps > 1``,
    so the directive is inert and the binding engine would infer an
    identical one if it were absent. Removing it is exact (theorem 2 of
    :mod:`repro.equiv.canonical`, re-proven bit-for-bit by
    ``verify --check equiv``). The last directive naming ``Y'``/``X'`` is
    exempt — its presence selects the output-coordinate representation.
    """
    own = _canonical_form(ctx)
    if own is None or own[1].fallback:
        return
    from repro.equiv.canonical import EQUIV_PROVENANCE

    form = own[1]
    for index in form.elided:
        directive = ctx.directives[index]
        dim = getattr(directive, "dim", "?")
        yield ctx.diag(
            "DF400",
            f"{ctx.name}: TemporalMap on {dim} produces a single chunk "
            f"covering its whole local extent — one step, no iteration: "
            f"removing it leaves the schedule bit-identical",
            index=index,
            provenance=EQUIV_PROVENANCE,
            fixit=FixIt(
                f"remove this directive; binding infers an identical "
                f"whole-extent iterator for {dim}"
            ),
        )


@rule(
    "DF401",
    "spatial directives not in canonical slot order",
    Severity.INFO,
    requires=("layer",),
)
def _check_noncanonical_order(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A level's spatial directives distribute jointly — the odometer
    collapses them into one fold entry with their offsets in a dict — so
    permuting which spatial directive occupies which slot is
    unobservable (theorem 3 of :mod:`repro.equiv.canonical`). Writing
    them in canonical (dimension-sorted) order makes textually different
    spellings of the same schedule identical, which is what the exec
    cache and ``--equiv-prune`` key on.
    """
    own = _canonical_form(ctx)
    if own is None or own[1].fallback:
        return
    from repro.equiv.canonical import EQUIV_PROVENANCE

    for index, (kind, dim, size, offset) in own[1].slot_changes:
        replacement = f"{'SpatialMap' if kind == 'S' else 'TemporalMap'}({size},{offset}) {dim}"
        yield ctx.diag(
            "DF401",
            f"{ctx.name}: spatial slot out of canonical order — slots of one "
            f"level commute, and in dimension-sorted order this slot holds "
            f"{replacement}",
            index=index,
            provenance=EQUIV_PROVENANCE,
            fixit=FixIt(
                "sort the level's SpatialMaps by dimension name",
                replacement=replacement,
            ),
        )


@rule(
    "DF402",
    "mapping is a symmetric twin of a library dataflow",
    Severity.INFO,
    requires=("layer",),
)
def _check_symmetric_twin(ctx: RuleContext) -> Iterator[Diagnostic]:
    """On a transpose-symmetric layer (square extents, symmetric
    operator coupling), a mapping whose canonical form is the row/column
    transposition of a library dataflow is a mirror-image schedule with
    the identical cost structure. Advisory: the orbit comparison is
    unconditional (no integer-activity certificate), so twins may differ
    in final float ulps — they are equivalent schedules regardless.
    """
    own = _canonical_form(ctx)
    if own is None or own[1].fallback or ctx.layer is None:
        return
    from repro.equiv.canonical import EQUIV_PROVENANCE
    from repro.equiv.symmetry import layer_symmetries, orbit_key

    symmetries = layer_symmetries(ctx.layer)
    if not symmetries:
        return
    own_key = own[1].key
    own_orbit = orbit_key(own_key, symmetries)
    for name, lib_flow in _stock_library(include_playground=True):
        lib_key = _library_key(name, ctx.layer)
        if lib_key == own_key:
            continue  # identical schedule, not a twin
        if orbit_key(lib_key, symmetries) == own_orbit:
            yield ctx.diag(
                "DF402",
                f"{ctx.name}: on {ctx.layer.name} this mapping is the "
                f"row/column transpose of library dataflow {lib_flow.name!r} — a "
                f"mirror-image schedule with identical cost structure",
                provenance=EQUIV_PROVENANCE,
            )
            return


@functools.lru_cache(maxsize=2)
def _stock_library(include_playground: bool) -> "Tuple[Tuple[str, Dataflow], ...]":
    """The stock mappings as (catalog name, mapping) pairs in
    mapping-name order, built once: DF402 compares against the whole
    catalog, DF403 against the one without the Figure 5 playground."""
    from repro.dataflow.library import stock_dataflows

    catalog = stock_dataflows(include_playground=include_playground)
    return tuple(sorted(catalog.items(), key=lambda item: item[1].name))


@functools.lru_cache(maxsize=8192)
def _library_key(name: str, layer: "Layer") -> "Key":
    """The canonical key of stock mapping ``name`` on ``layer``.

    Every DF402 and DF403 check compares against the same library, so
    each (mapping, layer) is canonicalized once; one zoo x library pass
    is ~4,400 small tuples.
    """
    from repro.equiv.canonical import canonicalize

    flow = dict(_stock_library(include_playground=True))[name]
    return canonicalize(flow, layer).key


@functools.lru_cache(maxsize=8192)
def _library_objectives(
    name: str, layer: "Layer", accelerator: "Accelerator"
) -> "Optional[Objectives]":
    """The cost model's objectives of library mapping ``name`` on
    ``layer`` and ``accelerator``, or ``None`` when it cannot be analyzed.

    Every DF403 check compares against the same library, so each
    (mapping, layer, accelerator) is analyzed once; an entry is three
    floats.
    """
    from repro.engines.analysis import analyze_layer
    from repro.equiv.dominance import objectives

    flow = dict(_stock_library(include_playground=False))[name]
    try:
        return objectives(analyze_layer(layer, flow, accelerator))
    except (DataflowError, ValueError):
        return None


def _stock_name(flow: "Dataflow") -> Optional[str]:
    """The catalog name of the DF403 library mapping ``flow`` is (same
    name and directives), or ``None``."""
    for name, lib_flow in _stock_library(include_playground=False):
        if lib_flow.name == flow.name and lib_flow.directives == flow.directives:
            return name
    return None


@rule(
    "DF403",
    "mapping statically dominated by a library dataflow",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_statically_dominated(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A library mapping has a runtime, energy, and EDP no higher than
    this mapping's (strictly lower on at least one), as the cost model
    computes them for this layer and accelerator: swapping in the
    library mapping loses nothing. The compared numbers are the ones
    ``maestro-repro analyze`` reports for each mapping. Mappings in the
    same equivalence orbit are skipped (a schedule cannot dominate
    itself).
    """
    own_form = _canonical_form(ctx)
    if own_form is None or ctx.layer is None or ctx.accelerator is None:
        return
    from repro.engines.analysis import analyze_layer
    from repro.equiv.dominance import DOMINANCE_PROVENANCE, certify_dominance, objectives
    from repro.equiv.symmetry import layer_symmetries, orbit_key

    flow = own_form[0]
    symmetries = layer_symmetries(ctx.layer)
    own_orbit = orbit_key(own_form[1].key, symmetries)
    # One analysis of this mapping serves every comparison; each library
    # mapping's objectives come from the memo, and so do this mapping's
    # when it is a stock library mapping.
    stock = _stock_name(flow)
    if stock is not None:
        own = _library_objectives(stock, ctx.layer, ctx.accelerator)
        if own is None:
            return
    else:
        try:
            own = objectives(analyze_layer(ctx.layer, flow, ctx.accelerator))
        except (DataflowError, ValueError):
            return
    for name, lib_flow in _stock_library(include_playground=False):
        if orbit_key(_library_key(name, ctx.layer), symmetries) == own_orbit:
            continue
        lib = _library_objectives(name, ctx.layer, ctx.accelerator)
        if lib is None:
            continue
        certificate = certify_dominance(
            lib_flow.name, lib, flow.name, own, ctx.accelerator
        )
        if certificate is None:
            continue
        yield ctx.diag(
            "DF403",
            f"{ctx.name}: statically dominated on {ctx.layer.name} — "
            f"library dataflow {lib_flow.name!r} is provably no worse: "
            f"{certificate.describe()}",
            provenance=DOMINANCE_PROVENANCE,
        )
        return


# ======================================================================
# Buffer-capacity & roofline feasibility, backed by repro.capacity
# (DF500-DF504)
#
# These rules read the static occupancy analyzer: the bounds are the
# engine's own Figure-8 sizing functions on the same bound mapping, so
# every overflow verdict is certified, not estimated. The
# capacity rules only fire when the accelerator declares the relevant
# capacity (an unsized buffer is provisioned from the requirement);
# DF504 reads the roofline certificate and always applies. None are
# construction or binding-equivalent rules.
# ======================================================================
@shared_fact
def _capacity_certificates(
    ctx: RuleContext,
) -> "Optional[Tuple[CapacityBounds, RooflineCertificate]]":
    """The (bounds, roofline) pair for this mapping, or ``None``.

    Reuses the context's binding when it has one; otherwise the roofline
    binds the mapping itself, and an unbindable mapping has none.
    """
    flow = ctx.flow
    if flow is None or ctx.layer is None or ctx.accelerator is None:
        return None
    from repro.capacity import classify_roofline

    try:
        roofline = classify_roofline(flow, ctx.layer, ctx.accelerator, bound=ctx.bound)
    except DataflowError:
        return None
    return roofline.bounds, roofline


def _innermost_map_index(ctx: RuleContext) -> Optional[int]:
    """Anchor index: the first map directive of the innermost level."""
    levels = ctx.levels
    if not levels or not levels[-1].maps:
        return None
    return levels[-1].maps[0][0]


@rule(
    "DF500",
    "L1 working set overflows the declared per-PE buffer",
    Severity.ERROR,
    requires=("layer", "accelerator"),
)
def _check_l1_overflow(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Even a single buffer slot of the innermost tile set — every
    tensor's clamped innermost chunk — exceeds the declared ``l1_size``.
    The bound is the engine's own Figure-8 working set, so no schedule
    of this mapping fits: the tiles must shrink or the buffer must grow.
    """
    certificates = _capacity_certificates(ctx)
    if certificates is None:
        return
    bounds, _ = certificates
    if bounds.l1.steady_fits:
        return
    from repro.capacity import CAPACITY_PROVENANCE

    capacity = bounds.l1.capacity_bytes
    steady = bounds.l1.steady_bytes
    yield ctx.diag(
        "DF500",
        f"{ctx.name}: innermost tile set needs {steady:,} B per PE but "
        f"l1_size is {capacity:,} B — over capacity even single-buffered",
        index=_innermost_map_index(ctx),
        provenance=CAPACITY_PROVENANCE,
        fixit=FixIt(
            f"shrink the innermost map sizes by at least "
            f"{steady / max(capacity, 1):.1f}x (largest tiles first), or "
            f"provision l1_size >= {bounds.l1.peak_bytes:,} B "
            f"({steady:,} B single-buffered)"
        ),
    )


@rule(
    "DF501",
    "L2 working set overflows the declared shared buffer",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_l2_overflow(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The array-wide unique top-level chunk, double buffered, exceeds
    the declared ``l2_size``. The engine does not reject such a design —
    it streams the overflow from DRAM instead (the ``l2_fits`` spill
    path), paying DRAM energy per re-fetch — so this is a performance
    warning, not an infeasibility.
    """
    certificates = _capacity_certificates(ctx)
    if certificates is None:
        return
    bounds, _ = certificates
    if bounds.l2.fits:
        return
    from repro.capacity import CAPACITY_PROVENANCE

    yield ctx.diag(
        "DF501",
        f"{ctx.name}: array working set needs {bounds.l2.peak_bytes:,} B "
        f"but l2_size is {bounds.l2.capacity_bytes:,} B — the overflow "
        f"streams from DRAM on every sweep",
        provenance=CAPACITY_PROVENANCE,
        fixit=FixIt(
            f"shrink the top-level temporal tiles, or provision "
            f"l2_size >= {bounds.l2.peak_bytes:,} B"
        ),
    )


@rule(
    "DF502",
    "double buffering infeasible at the declared L1 capacity",
    Severity.ERROR,
    requires=("layer", "accelerator"),
)
def _check_double_buffering_infeasible(ctx: RuleContext) -> Iterator[Diagnostic]:
    """One tile set fits the declared ``l1_size``, but the two live
    slots double buffering keeps (Figure 8's ``2 * max`` rule) do not.
    The engine's performance model *assumes* the overlap; on this
    capacity the real machine would serialize fetch and compute instead.
    """
    certificates = _capacity_certificates(ctx)
    if certificates is None:
        return
    bounds, _ = certificates
    if not bounds.double_buffered:
        return
    if not bounds.l1.steady_fits or bounds.l1.fits:
        return  # DF500 territory / fits outright
    from repro.capacity import CAPACITY_PROVENANCE

    yield ctx.diag(
        "DF502",
        f"{ctx.name}: double buffering needs {bounds.l1.peak_bytes:,} B "
        f"per PE (2 x {bounds.l1.steady_bytes:,} B) but l1_size is "
        f"{bounds.l1.capacity_bytes:,} B — communication cannot overlap "
        f"compute at this capacity",
        index=_innermost_map_index(ctx),
        provenance=CAPACITY_PROVENANCE,
        fixit=FixIt(
            f"provision l1_size >= {bounds.l1.peak_bytes:,} B, shrink the "
            f"innermost tiles, or model the machine single-buffered "
            f"(double_buffered=False)"
        ),
    )


@rule(
    "DF503",
    "declared buffer under 25% utilized at peak",
    Severity.WARNING,
    requires=("layer", "accelerator"),
)
def _check_buffer_underutilized(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The peak occupancy bound uses less than a quarter of a declared
    capacity: the SRAM is area and leakage the mapping cannot exploit.
    Fires per buffer; unsized buffers (provisioned from the requirement)
    are exempt by construction.
    """
    certificates = _capacity_certificates(ctx)
    if certificates is None:
        return
    bounds, _ = certificates
    from repro.capacity import CAPACITY_PROVENANCE
    from repro.capacity.bounds import UTILIZATION_FLOOR

    for level in (bounds.l1, bounds.l2):
        utilization = level.utilization
        if utilization is None or not level.fits:
            continue
        if utilization < UTILIZATION_FLOOR:
            yield ctx.diag(
                "DF503",
                f"{ctx.name}: {level.label} peaks at {level.peak_bytes:,} B "
                f"of {level.capacity_bytes:,} B declared "
                f"({utilization:.0%} utilized) — grow the tiles or shrink "
                f"the buffer",
                provenance=CAPACITY_PROVENANCE,
            )


@rule(
    "DF504",
    "certified NoC-bandwidth-bound at the declared bandwidth",
    Severity.INFO,
    requires=("layer", "accelerator"),
)
def _check_bandwidth_bound(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The roofline certificate's communication floor exceeds its
    compute floor: even with perfect overlap the NoC cannot feed the
    array, so the mapping is provably bandwidth-bound at this bandwidth.
    The message carries the closed-form break-even bandwidth at which
    the verdict flips.
    """
    certificates = _capacity_certificates(ctx)
    if certificates is None:
        return
    _, roofline = certificates
    if not roofline.bandwidth_bound:
        return
    from repro.capacity import CAPACITY_PROVENANCE

    yield ctx.diag(
        "DF504",
        f"{ctx.name}: certified bandwidth-bound on {ctx.layer.name} — "
        f"ingress floor {roofline.comm_floor_cycles:,.0f} cyc exceeds "
        f"compute floor {roofline.compute_floor_cycles:,.0f} cyc at "
        f"bw={roofline.noc_bandwidth}; break-even NoC bandwidth is "
        f"{roofline.crossover_bandwidth} elem/cycle",
        provenance=CAPACITY_PROVENANCE,
    )
