"""Golden digests of the canonical walk, the binder and the batch keyer.

The tuner's candidates are templates (directive shapes) times tile
vectors, and the canonical walk, the binder and the keyer share work
between the candidates of one template: one plan per directive shape,
one evaluated fact per (layer, directive, local extent), one class key
and one key fragment per equivalence class. None of that sharing may
change an output, so these digests pin, bit for bit:

- every canonical form (name, levels, elided, slot changes, fallback)
  of the tuner grid and the stock library on the six tune-mapping
  layers;
- every binding of the same pairs at 256 PEs (or its error);
- the 16,128 cache keys of the tuner grid on those layers at 16 and
  256 PEs, with the model-version salt pinned.

``benchmarks/bench_floors.py`` extends the first two to the whole zoo
(its ``weekly`` id).
"""

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple

import pytest

import repro.exec.cache
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.library import stock_dataflows
from repro.engines.binding import bind_dataflow
from repro.equiv.canonical import canonicalize
from repro.errors import ReproError
from repro.exec import cache_keys
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.model.layer import Layer
from repro.model.zoo import build
from tests.test_tuner_keying import TUNE_MAPPING_LAYERS, tuner_grid

#: Digests of the tuner grid + stock library on the six tune-mapping layers.
FORMS_DIGEST = "2143add9b905dd97a0d86d92889a52b4e4a138d7a64acc020e976568713e44af"
BINDINGS_DIGEST = "66a3c0deea2f0e3c4fe6d9cd5f99349a6c0af3510d5613eccfefd5b54b9a978d"
#: Digest of the tuner grid's cache keys on those layers at 16 and 256 PEs.
KEYS_DIGEST = "0dcf8e99102c06225430dc871716492253d88cf11f6a5fc64c3070291ccbc05b"


def digest(lines: Iterable[str]) -> str:
    """SHA-256 of ``lines``, one per line."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def form_line(layer: Layer, flow: Dataflow) -> str:
    """One canonical form, every field the walk computes."""
    form = canonicalize(flow, layer)
    levels = [(lv.cluster_size, lv.maps, lv.spatial_chunk_counts) for lv in form.levels]
    return repr(
        (layer.name, flow.name, form.name, levels, form.elided, form.slot_changes, form.fallback)
    )


def binding_line(layer: Layer, flow: Dataflow, accelerator: Accelerator) -> str:
    """One binding, every level field in the binder's own order, or its error."""
    try:
        bound = bind_dataflow(flow, layer, accelerator)
    except (ReproError, ValueError, KeyError, TypeError) as error:
        return repr((layer.name, flow.name, type(error).__name__, str(error)))
    levels = [
        (
            level.index,
            level.width,
            [(d.dim, d.spatial, d.size, d.offset, d.chunks, d.steps, d.edge_size) for d in level.directives],
            list(level.local_sizes.items()),
            list(level.spatial_offsets.items()),
            level.spatial_chunks,
            level.folds,
            repr(level.avg_active),
        )
        for level in bound.levels
    ]
    return repr((layer.name, flow.name, bound.row_rep, bound.col_rep, bound.used_pes, levels))


def corpus_pairs(layers: Sequence[Layer]) -> Iterator[Tuple[Layer, Dataflow]]:
    """Every layer x (tuner grid + stock library), grid first."""
    flows: List[Dataflow] = tuner_grid() + list(stock_dataflows().values())
    for layer in layers:
        for flow in flows:
            yield layer, flow


def forms_and_bindings_digests(layers: Sequence[Layer]) -> Tuple[str, str]:
    """The forms digest and the 256-PE bindings digest of ``layers``' corpus."""
    accelerator = Accelerator(num_pes=256)
    pairs = list(corpus_pairs(layers))
    forms = digest(form_line(layer, flow) for layer, flow in pairs)
    bindings = digest(binding_line(layer, flow, accelerator) for layer, flow in pairs)
    return forms, bindings


def _tune_mapping_layers() -> List[Layer]:
    return [build(model).layer(name) for model, name in TUNE_MAPPING_LAYERS]


def test_forms_and_bindings_match_golden():
    assert forms_and_bindings_digests(_tune_mapping_layers()) == (FORMS_DIGEST, BINDINGS_DIGEST)


@pytest.fixture
def pinned_salt(monkeypatch):
    monkeypatch.setattr(repro.exec.cache, "_salt_cache", "pinned-salt")


def test_cache_keys_match_golden(pinned_salt):
    grid = tuner_grid()
    points = [
        (layer, flow, accelerator, DEFAULT_ENERGY_MODEL)
        for layer in _tune_mapping_layers()
        for accelerator in (Accelerator(num_pes=16), Accelerator(num_pes=256))
        for flow in grid
    ]
    keys = cache_keys(points)
    assert len(keys) == 16_128
    assert digest(keys) == KEYS_DIGEST
