"""Content-addressed memoization of cost-model outcomes.

The cache key is a SHA-256 over a *canonical* description of the
evaluation point:

- the layer (operator structure, dimension extents, stride, dilation,
  groups, densities);
- the dataflow's *canonical form* under the equivalence analyzer
  (:mod:`repro.equiv`): symbolic sizes evaluated against the layer,
  inert single-chunk temporal maps elided, spatial slots sorted, and —
  when the layer is transpose-symmetric and the integer-activity
  certificate holds at the accelerator's PE count — the least
  representative of the symmetry orbit. Every spelling the analyzer
  proves bit-identical shares one cache entry; anything it cannot
  certify falls back to keying on the raw evaluated directive list,
  exactly as before. The mapping *name* is part of the key only in the
  fallback tier and for points whose cluster hierarchy provably exceeds
  the PE count (binding rejections embed the name in their message);
  for shared entries the backend restores the requesting mapping's name
  on every hit;
- the full hardware configuration and energy model;
- a model-version salt hashed from the source of the cost-model modules,
  so any change to the engines invalidates every stale entry
  automatically.

:func:`cache_keys` keys a whole batch in one pass, building each key
from JSON fragments shared between points: a grid varies only the
hardware, so each (layer, dataflow) pair is canonicalized once, and the
pairs of one equivalence class share one class key and one dataflow
fragment. The text hashed is byte-identical to :func:`cache_key`'s
one-point formula.

Storage is two-tier: an in-memory LRU (always on) and an optional
on-disk JSON store, one file per key under
``$REPRO_CACHE_DIR`` (or ``~/.cache/repro`` when enabled explicitly),
sharded as ``<dir>/<salt>/<key[:2]>/<key>.json`` so wiping one salt
directory drops exactly one model version's entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import ClusterDirective, evaluate_size
from repro.errors import DataflowError
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import EnergyModel
from repro.model.layer import Layer
from repro.engines.analysis import EvalOutcome
from repro.exec.serialize import outcome_from_json, outcome_to_json
from repro.tensors import dims as D

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.equiv.canonical import Key
    from repro.equiv.symmetry import DimSymmetry

#: Environment variable naming the on-disk cache directory. When set, the
#: default cache persists outcomes across processes (and sessions).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_DISK_DIR = Path.home() / ".cache" / "repro"

logger = logging.getLogger(__name__)

_salt_cache: Optional[str] = None


def _salt_source_files() -> List[Path]:
    """Source files whose content defines the cost model's semantics."""
    import repro.dataflow
    import repro.engines
    import repro.equiv
    import repro.hardware
    import repro.model.layer
    import repro.tensors

    files: List[Path] = [Path(repro.model.layer.__file__)]
    for package in (
        repro.engines,
        repro.tensors,
        repro.dataflow,
        repro.hardware,
        repro.equiv,
    ):
        files.extend(sorted(Path(package.__file__).parent.glob("*.py")))
    return files


def model_version_salt() -> str:
    """A short hash of the cost-model source: the cache-version salt.

    Any edit to the engines (or the modules they build on) changes the
    salt, so entries computed by older model code can never be returned
    for a new one. Computed once per process.
    """
    global _salt_cache
    if _salt_cache is None:
        digest = hashlib.sha256()
        for path in _salt_source_files():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _salt_cache = digest.hexdigest()[:12]
    return _salt_cache


def _canonical_size(size: Any, dim_sizes: Dict[str, int], strides: Dict[str, int]) -> Any:
    try:
        return evaluate_size(size, dim_sizes, strides)
    except DataflowError:
        # Unresolvable spelling: key on the raw text (the point will be
        # rejected by binding anyway, and rejections are cached too).
        return f"raw:{size}"


def canonical_directives(dataflow: Dataflow, layer: Layer) -> List[List[Any]]:
    """The directive list with all sizes evaluated against ``layer``.

    Spellings that the binding engine resolves identically (symbolic
    ``Sz``/``St`` expressions vs. their concrete values) canonicalize to
    the same list; structurally different mappings never collide.
    """
    dim_sizes = layer.all_dim_sizes()
    strides = {D.Y: layer.stride[0], D.X: layer.stride[1]}
    canonical: List[List[Any]] = []
    for directive in dataflow.directives:
        if isinstance(directive, ClusterDirective):
            canonical.append(["C", _canonical_size(directive.size, dim_sizes, strides)])
        else:
            canonical.append(
                [
                    "S" if directive.spatial else "T",
                    directive.dim,
                    _canonical_size(directive.size, dim_sizes, strides),
                    _canonical_size(directive.offset, dim_sizes, strides),
                ]
            )
    return canonical


def _layer_payload(layer: Layer) -> Dict[str, Any]:
    operator = layer.operator
    return {
        "name": layer.name,
        "operator": {
            "name": operator.name,
            "tensors": [
                [t.name, t.role.value, list(t.axis_templates)] for t in operator.tensors
            ],
            "reduction_dims": sorted(operator.reduction_dims),
            "compute_templates": list(operator.compute_templates),
            "used_dims": sorted(operator.used_dims),
        },
        "dims": {dim: size for dim, size in sorted(layer.dims.items())},
        "stride": list(layer.stride),
        "dilation": list(layer.dilation),
        "groups": layer.groups,
        "densities": {name: d for name, d in sorted(layer.densities.items())},
    }


def _accelerator_payload(accelerator: Accelerator) -> Dict[str, Any]:
    return {
        "num_pes": accelerator.num_pes,
        "l1_size": accelerator.l1_size,
        "l2_size": accelerator.l2_size,
        "noc": {
            "bandwidth": accelerator.noc.bandwidth,
            "avg_latency": accelerator.noc.avg_latency,
            "multicast": accelerator.noc.multicast,
        },
        "spatial_reduction": accelerator.spatial_reduction,
        "double_buffered": accelerator.double_buffered,
        "vector_width": accelerator.vector_width,
        "element_bytes": accelerator.element_bytes,
        "clock_ghz": accelerator.clock_ghz,
        "dram_bandwidth": accelerator.dram_bandwidth,
    }


def _energy_payload(model: EnergyModel) -> Dict[str, Any]:
    return {
        "mac": model.mac,
        "sram_base": model.sram_base,
        "sram_sqrt": model.sram_sqrt,
        "sram_write_factor": model.sram_write_factor,
        "noc_hop": model.noc_hop,
        "dram": model.dram,
    }


class _KeyClass:
    """One equivalence class at one PE count, on one layer.

    ``key`` is the class key (:meth:`_DataflowKeying.class_key`);
    ``fragment`` the dataflow fragment its name-free members share,
    rendered on first use.
    """

    __slots__ = ("key", "fragment")

    def __init__(self, key: "Key") -> None:
        self.key = key
        self.fragment: Optional[_Fragment] = None


class _Fragment:
    """A rendered dataflow fragment and the cache keys already hashed from it.

    ``keys`` maps ``(id(accelerator), id(energy_model))`` to the key of
    that hardware; the keyer's fragment tables hold both objects, so no
    id can be recycled while it lives.
    """

    __slots__ = ("text", "keys")

    def __init__(self, text: str) -> None:
        self.text = text
        self.keys: Dict[Tuple[int, int], str] = {}


class _DataflowKeying:
    """One (layer, dataflow) pair's key inputs that do not depend on the PE count.

    Canonicalizes once on construction; :meth:`class_key` and
    :meth:`payload` then apply the only two PE-count-dependent rules.
    This is the single home of the dataflow keying rules, shared by the
    one-point and batch paths and by the equivalence quotient of
    :mod:`repro.screens`. ``symmetries`` is ``layer_symmetries(layer)``
    and ``classes`` the layer's memo of :class:`_KeyClass` by
    (canonical key, PE count), both shared by every pair of the layer a
    keyer sees: pairs with equal canonical keys share one class, so the
    orbit key and the integer-activity certificate are computed once
    per class and PE count.
    """

    def __init__(
        self,
        dataflow: Dataflow,
        layer: Layer,
        symmetries: Tuple["DimSymmetry", ...],
        classes: Dict[Tuple["Key", int], _KeyClass],
    ) -> None:
        from repro.equiv.canonical import canonicalize

        self.name = dataflow.name
        self.form = canonicalize(dataflow, layer)
        #: The raw-spelling payload of a fallback form (``None`` otherwise).
        self.fallback: Optional[Dict[str, Any]] = None
        if self.form.fallback:
            self.fallback = {
                "name": dataflow.name,
                "directives": canonical_directives(dataflow, layer),
            }
        self.symmetries = () if self.form.fallback else symmetries
        self._classes = classes
        self._orbit_key: Optional["Key"] = None

    def key_class(self, num_pes: int) -> _KeyClass:
        """The pair's class at ``num_pes`` PEs (a non-fallback form only)."""
        key = self.form.key
        memo = (key, num_pes)
        key_class = self._classes.get(memo)
        if key_class is None:
            from repro.equiv.symmetry import integral_active, orbit_key

            if self.symmetries and integral_active(self.form, num_pes):
                if self._orbit_key is None:
                    self._orbit_key = orbit_key(key, self.symmetries)
                key = self._orbit_key
            key_class = self._classes[memo] = _KeyClass(key)
        return key_class

    def class_key(self, num_pes: int) -> "Key":
        """The equivalence class at ``num_pes`` PEs: the canonical key, or
        its orbit-least key where the integer-activity certificate proves
        transposed twins bit-identical at that PE count."""
        if self.fallback is not None:
            return self.form.key
        return self.key_class(num_pes).key

    def payload(self, num_pes: int) -> Dict[str, Any]:
        """The dataflow portion of the cache key at ``num_pes`` PEs.

        The ``"key"`` entry is the structural key *tuple*; JSON renders
        it exactly as its :func:`~repro.equiv.canonical.key_to_json` list.
        """
        if self.fallback is not None:
            return self.fallback
        payload: Dict[str, Any] = {"key": self.class_key(num_pes)}
        if self.form.cluster_pes > num_pes:
            payload["name"] = self.name  # binding rejects; message names the mapping
        return payload

    def fragment(self, num_pes: int) -> _Fragment:
        """The rendered payload at ``num_pes`` PEs, shared by the class
        when it carries no mapping name."""
        if self.fallback is not None or self.form.cluster_pes > num_pes:
            return _Fragment(_dumps(self.payload(num_pes)))  # names the mapping
        key_class = self.key_class(num_pes)
        if key_class.fragment is None:
            key_class.fragment = _Fragment(_dumps({"key": key_class.key}))
        return key_class.fragment


def dataflow_cache_payload(
    dataflow: Dataflow, layer: Layer, num_pes: int
) -> Dict[str, Any]:
    """The dataflow portion of the cache key: the equivalence quotient.

    Non-fallback canonical forms key on the structural canonical key —
    the orbit-least key when the transposition is certified bit-exact at
    ``num_pes`` — with the mapping name dropped, so every spelling the
    analyzer proves equivalent addresses one shared entry. Two
    exceptions keep names in the key: fallback forms (nothing proven —
    raw spelling plus name, the pre-equivalence behavior), and points
    whose cluster hierarchy needs more than ``num_pes`` PEs, where the
    outcome is a ``BindingError`` whose message embeds the name. Other
    model rejections arising after a successful bind may still share an
    entry across equivalent spellings; their ``error_message`` then
    carries the first-evaluated twin's name (``error_type``, which sweep
    consumers branch on, is spelling-independent).
    """
    from repro.equiv.canonical import key_to_json

    payload = BatchKeyer().keying(layer, dataflow).payload(num_pes)
    if "key" in payload:
        payload["key"] = key_to_json(payload["key"])
    return payload


def canonical_point_payload(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> Dict[str, Any]:
    """The full canonical description one cache key is hashed from."""
    return {
        "salt": model_version_salt(),
        "layer": _layer_payload(layer),
        "dataflow": dataflow_cache_payload(dataflow, layer, accelerator.num_pes),
        "accelerator": _accelerator_payload(accelerator),
        "energy": _energy_payload(energy_model),
    }


#: The one JSON spelling keys are hashed from: sorted keys, no spaces.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


#: One point of a keyed batch: ``(layer, dataflow, accelerator, energy_model)``.
KeyedPoint = Tuple[Layer, Dataflow, Accelerator, EnergyModel]

_T = TypeVar("_T")


def _fragment(
    table: Dict[int, Tuple[_T, str]], obj: _T, render: Callable[[_T], Dict[str, Any]]
) -> str:
    """``_dumps(render(obj))``, memoized in ``table`` by the identity of ``obj``."""
    entry = table.get(id(obj))
    if entry is None:
        entry = table[id(obj)] = (obj, _dumps(render(obj)))
    return entry[1]


class BatchKeyer:
    """Cache keys for one batch, built from memoized JSON fragments.

    The key text is the sorted-key join of five fragments — accelerator,
    dataflow, energy, layer, salt — which is byte-identical to
    ``_dumps(canonical_point_payload(...))`` because the JSON encoder
    renders a nested object the same whether or not it is embedded.
    Each distinct layer, energy model and accelerator is serialized
    once, each layer's symmetry group is computed once, and each
    distinct (layer, dataflow) pair is canonicalized once.
    Pairs of one layer with equal canonical keys share a class record
    per PE count (:class:`_KeyClass`). It computes the orbit key and the
    integer-activity certificate once, renders the dataflow fragment
    once, and hashes the key once per (accelerator, energy model), so
    the tiles of one tuner template that fall into one class pay a few
    lookups each. A pair whose payload carries the mapping name renders
    its own fragment. Only a pair's first point at a PE count consults
    the class's hashed keys. A hardware grid's later points reuse the
    pair's fragment and hash their own hardware, with no extra work per
    point. :meth:`keying` hands out the pair's canonical form, so a
    caller that keys a batch first (the tuner) quotients it without
    canonicalizing again.

    The memo tables are keyed by object identity and hold a reference to
    every object they key, so no id can be recycled while the keyer is
    alive. A keyer lives for one batch only.
    """

    def __init__(self) -> None:
        self._salt = _dumps(model_version_salt())
        self._layers: Dict[int, Tuple[Layer, str]] = {}
        self._accelerators: Dict[int, Tuple[Accelerator, str]] = {}
        self._energy: Dict[int, Tuple[EnergyModel, str]] = {}
        #: Layer id -> (layer, its symmetries, its class memo).
        self._layer_classes: Dict[
            int,
            Tuple[Layer, Tuple["DimSymmetry", ...], Dict[Tuple["Key", int], _KeyClass]],
        ] = {}
        self._dataflows: Dict[
            Tuple[int, int], Tuple[Layer, Dataflow, _DataflowKeying, Dict[int, _Fragment]]
        ] = {}
        #: Class key -> its :meth:`class_id`.
        self._class_ids: Dict["Key", int] = {}
        #: (layer id, dataflow id, PE count) -> :meth:`class_id`.
        self._class_of: Dict[Tuple[int, int, int], int] = {}

    def _entry(
        self, layer: Layer, dataflow: Dataflow
    ) -> Tuple[Layer, Dataflow, _DataflowKeying, Dict[int, _Fragment]]:
        entry = self._dataflows.get((id(layer), id(dataflow)))
        if entry is None:
            shared = self._layer_classes.get(id(layer))
            if shared is None:
                from repro.equiv.symmetry import layer_symmetries

                shared = self._layer_classes[id(layer)] = (layer, layer_symmetries(layer), {})
            entry = (layer, dataflow, _DataflowKeying(dataflow, layer, shared[1], shared[2]), {})
            self._dataflows[(id(layer), id(dataflow))] = entry
        return entry

    def keying(self, layer: Layer, dataflow: Dataflow) -> _DataflowKeying:
        """The (layer, dataflow) pair's canonical form and keying rules."""
        return self._entry(layer, dataflow)[2]

    def class_id(self, layer: Layer, dataflow: Dataflow, num_pes: int) -> int:
        """A small int naming the pair's equivalence class at ``num_pes`` PEs.

        Equal ids mean equal :meth:`_DataflowKeying.class_key`; each
        pair's class, with its integer-activity certificate, is computed
        and its key hashed once per PE count.
        """
        memo = (id(layer), id(dataflow), num_pes)
        class_id = self._class_of.get(memo)
        if class_id is None:
            class_key = self.keying(layer, dataflow).class_key(num_pes)
            class_id = self._class_ids.setdefault(class_key, len(self._class_ids))
            self._class_of[memo] = class_id
        return class_id

    def key(
        self,
        layer: Layer,
        dataflow: Dataflow,
        accelerator: Accelerator,
        energy_model: EnergyModel,
    ) -> str:
        """The cache key of one point (equal to :func:`cache_key`'s)."""
        _, _, keying, by_pes = self._entry(layer, dataflow)
        fragment = by_pes.get(accelerator.num_pes)
        if fragment is not None:
            # Another point of this pair at this PE count (a hardware
            # grid): only the hardware differs, so hash it.
            return self._hash(layer, fragment.text, accelerator, energy_model)
        # The pair's first point at this PE count. Its class fragment may
        # already be keyed on this hardware by another member (the tiles
        # of one tuner template).
        fragment = by_pes[accelerator.num_pes] = keying.fragment(accelerator.num_pes)
        hardware = (id(accelerator), id(energy_model))
        key = fragment.keys.get(hardware)
        if key is None:
            key = fragment.keys[hardware] = self._hash(
                layer, fragment.text, accelerator, energy_model
            )
        return key

    def _hash(
        self, layer: Layer, dataflow: str, accelerator: Accelerator, energy_model: EnergyModel
    ) -> str:
        """SHA-256 of the key text with ``dataflow`` as its dataflow fragment."""
        text = (
            f'{{"accelerator":{_fragment(self._accelerators, accelerator, _accelerator_payload)}'
            f',"dataflow":{dataflow}'
            f',"energy":{_fragment(self._energy, energy_model, _energy_payload)}'
            f',"layer":{_fragment(self._layers, layer, _layer_payload)}'
            f',"salt":{self._salt}}}'
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def keys(self, points: Iterable[KeyedPoint]) -> List[str]:
        """The cache keys of ``points``, in input order."""
        with obs.span("exec.cache.key"):
            return [self.key(*point) for point in points]


def cache_keys(points: Iterable[KeyedPoint]) -> List[str]:
    """The cache keys of a whole batch, in input order.

    Equal, point for point, to :func:`cache_key`; the work shared
    between points (serialization, canonicalization) is done once per
    batch instead of once per point.
    """
    return BatchKeyer().keys(points)


def cache_key(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> str:
    """Stable content hash of one (layer, dataflow, hardware) point.

    The one-point case of :func:`cache_keys`: the SHA-256 of
    ``_dumps(canonical_point_payload(...))``.
    """
    return BatchKeyer().key(layer, dataflow, accelerator, energy_model)


class AnalysisCache:
    """Two-tier (memory LRU + optional disk) outcome cache.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity; oldest entries are evicted first.
    disk_dir:
        On-disk store root. ``None`` disables the disk tier; the string
        ``"auto"`` uses ``$REPRO_CACHE_DIR`` when set and
        ``~/.cache/repro`` otherwise.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        disk_dir: Union[str, Path, None] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        if disk_dir == "auto":
            disk_dir = os.environ.get(CACHE_DIR_ENV) or _DEFAULT_DISK_DIR
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._memory: Dict[str, EvalOutcome] = {}
        # The memory tier is shared across threads when the cache is
        # promoted to a cross-request tier (repro.serve): one lock keeps
        # the LRU reinsert/evict sequences atomic. Disk I/O stays outside
        # the lock — os.replace already makes entries whole-or-absent.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt_entries = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / model_version_salt() / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[EvalOutcome]:
        """The memoized outcome for ``key``, or ``None`` on a miss.

        A corrupt or truncated disk entry (interrupted writer, disk
        fault, stale handwritten file) is never fatal and never a silent
        permanent miss: it is logged, counted (``corrupt_entries`` and
        the ``cache.corrupt_entries`` metric), deleted, and the point is
        recomputed — the next ``put`` rewrites a good entry.
        """
        with self._lock:
            outcome = self._memory.pop(key, None)
            if outcome is not None:
                self._memory[key] = outcome  # re-insert: most recently used
                self.hits += 1
        if outcome is not None:
            obs.inc("cache.memory_hits")
            return outcome.as_cached()
        if self.disk_dir is not None:
            path = self._disk_path(key)
            try:
                text: Optional[str] = path.read_text()
            except OSError:
                text = None
            outcome = None
            if text is not None:
                try:
                    outcome = outcome_from_json(text)
                except (ValueError, KeyError, TypeError) as error:
                    self.corrupt_entries += 1
                    obs.inc("cache.corrupt_entries")
                    logger.warning(
                        "dropping corrupt cache entry %s (%s: %s); recomputing",
                        path,
                        type(error).__name__,
                        error,
                    )
                    try:
                        path.unlink()
                    except OSError:
                        pass
            if outcome is not None:
                self._remember(key, outcome)
                self.hits += 1
                self.disk_hits += 1
                obs.inc("cache.disk_hits")
                return outcome.as_cached()
        self.misses += 1
        obs.inc("cache.misses")
        return None

    def put(self, key: str, outcome: EvalOutcome) -> None:
        """Memoize ``outcome`` (successes and model rejections alike).

        A vector lane is stored as it is, unbuilt; only the disk tier's
        serialization builds its report.
        """
        outcome = outcome.uncached()
        self._remember(key, outcome)
        if self.disk_dir is not None:
            self._write_disk(key, outcome)

    def _remember(self, key: str, outcome: EvalOutcome) -> None:
        evicted = 0
        with self._lock:
            self._memory.pop(key, None)
            self._memory[key] = outcome
            while len(self._memory) > self.max_entries:
                oldest = next(iter(self._memory))
                del self._memory[oldest]
                self.evictions += 1
                evicted += 1
        if evicted:
            obs.inc("cache.evictions", evicted)

    def _write_disk(self, key: str, outcome: EvalOutcome) -> None:
        path = self._disk_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(outcome_to_json(outcome))
                os.replace(tmp, path)  # atomic: concurrent readers see old or new
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # the disk tier is best-effort; memory stays authoritative

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._memory.clear()


_default_cache: Optional[AnalysisCache] = None


def default_cache() -> AnalysisCache:
    """The process-wide shared cache (disk tier iff ``$REPRO_CACHE_DIR``)."""
    global _default_cache
    if _default_cache is None:
        disk = os.environ.get(CACHE_DIR_ENV)
        _default_cache = AnalysisCache(disk_dir=disk if disk else None)
    return _default_cache


def resolve_cache(
    cache: Union[bool, AnalysisCache, None],
) -> Optional[AnalysisCache]:
    """Normalize the ``cache`` argument every sweep entry point accepts.

    ``True`` means the shared :func:`default_cache`, ``False``/``None``
    disables memoization, and an :class:`AnalysisCache` instance is used
    as-is.
    """
    if cache is True:
        return default_cache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, AnalysisCache):
        return cache
    raise TypeError(f"cache must be a bool or AnalysisCache, got {cache!r}")
