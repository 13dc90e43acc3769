"""The tuner keys each candidate once and screens once per cache-key class.

Pins what that ordering relies on and what it promises:

- twins that share a cache key share every screen fact: the extended
  ``verify --check equiv`` compares the lint, verify, comm and capacity
  facts of each mapping with those of its canonical and certified
  transposed twins, here over the tuner grid on the perfbench
  tune-mapping layers;
- the lint fact read off each mapping's canonical form equals the
  one the rules compute (``screen.lint.form``, same check);
- one ``tune_layer`` call canonicalizes each built candidate exactly
  once and computes the capacity fact once per distinct cache key, and
  a warm one runs no construction lint and no ``static_errors``;
- the result does not depend on the executor or the cache, with every
  screen on.
"""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.errors import BindingError, DataflowError
from repro.exec import AnalysisCache, cache_keys
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.model.zoo import build
from repro.tuner import enumerate_candidates, tune_layer
from repro.verify import differential

#: The layers of perfbench's tune-mapping workload.
TUNE_MAPPING_LAYERS = (
    ("resnet50", "CONV2_1b"),
    ("unet", "DOWN3_1"),
    ("resnet50", "CONV3_1a"),
    ("mobilenet_v2", "BN3_1_expand"),
    ("mobilenet_v2", "BN2_1_dw"),
    ("mobilenet_v2", "BN5_1_dw"),
)
#: The tune-mapping workload's buffer caps.
CAPS = {"max_l1_bytes": 512, "max_l2_bytes": 200_000}


def tuner_grid():
    """Every candidate of the default tuner grid that builds."""
    flows = []
    for spec in enumerate_candidates():
        try:
            flows.append(spec.build())
        except (BindingError, DataflowError):
            continue
    return flows


def assert_twins_share_screen_facts(pairs, num_pes):
    """Run the equiv check on every (layer, mapping) pair at ``num_pes`` PEs.

    Returns how many twins were compared; fails on any mismatch, in the
    twin's cost-model outcome or in one of its screen facts.
    """
    twins = 0
    for layer, flow in pairs:
        counts, mismatches = differential._equiv(flow, layer, num_pes=num_pes)
        assert not mismatches, [m.describe() for m in mismatches]
        twins += counts["canonical_changed"] + counts["transposed_checked"]
    return twins


@pytest.fixture(scope="module")
def grid():
    return tuner_grid()


@pytest.mark.parametrize(
    "offset,slot",
    list(enumerate(TUNE_MAPPING_LAYERS)),
    ids=["/".join(slot) for slot in TUNE_MAPPING_LAYERS],
)
def test_tune_mapping_twins_share_screen_facts(grid, offset, slot):
    """Each layer checks every sixth candidate, so the six layers cover
    the whole grid once (the weekly floor runs the whole zoo x grid)."""
    layer = build(slot[0]).layer(slot[1])
    pairs = [(layer, flow) for flow in grid[offset :: len(TUNE_MAPPING_LAYERS)]]
    assert assert_twins_share_screen_facts(pairs, 256) > 0


def test_equiv_check_reports_a_screen_fact_mismatch(monkeypatch, grid):
    """A capacity fact that depended on the spelling would be a mismatch
    against both twins, and nothing else would."""
    import repro.capacity

    def by_spelling(dataflow, layer, accelerator, tensors=None):
        peak = repr(dataflow.directives)
        return SimpleNamespace(peak_bytes=lambda accelerator: (peak, peak))

    layer = build("resnet50").layer("CONV3_1a")
    flow = grid[0]
    assert differential._equiv(flow, layer) == (
        {"canonical_changed": 1, "transposed_checked": 1},
        [],
    )
    monkeypatch.setattr(repro.capacity, "VariantCapacity", by_spelling)
    mismatches = differential._equiv(flow, layer)[1]
    assert {m.quantity for m in mismatches} == {"screen.capacity"}
    assert {m.subject for m in mismatches} == {"canonical", "transposed"}


def test_equiv_check_reports_a_lint_form_mismatch(monkeypatch, grid):
    """A lint fact read off the canonical form that ignored one cluster
    level would disagree with the rules on the mapping and both twins."""
    from repro.equiv.canonical import CanonicalForm
    from repro.util.intmath import prod

    layer = build("resnet50").layer("CONV3_1a")
    flow = next(flow for flow in grid if "x8" in flow.name)
    assert differential._equiv(flow, layer)[1] == []

    def outer_levels_only(form):
        sizes = [level.cluster_size for level in form.levels if level.cluster_size is not None]
        return prod(sizes[1:])

    monkeypatch.setattr(CanonicalForm, "cluster_pes", property(outer_levels_only))
    mismatches = differential._equiv(flow, layer)[1]
    assert {m.quantity for m in mismatches} == {"screen.lint.form"}
    assert {m.subject for m in mismatches} == {"original", "canonical", "transposed"}
    assert {(m.claimed, m.oracle) for m in mismatches} == {(1, 8)}


def test_warm_tune_runs_no_construction_lint_and_no_static_errors(monkeypatch):
    """Once a template's shape is known, building its tiles runs no
    construction lint, and the lint screen reads every candidate's fact
    off its (never fallback) canonical form."""
    import repro.lint.engine

    layer = build("resnet50").layer("CONV3_1a")
    accelerator = Accelerator(num_pes=256)
    cold = tune_layer(layer, accelerator, cache=AnalysisCache(), **CAPS)
    calls = []
    for name in ("construction_diagnostics", "static_errors"):
        original = getattr(repro.lint.engine, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(repro.lint.engine, name, counting)
    warm = tune_layer(layer, accelerator, cache=AnalysisCache(), **CAPS)
    assert calls == []
    assert warm.top == cold.top and warm.statically_rejected == cold.statically_rejected


def test_one_tune_keys_each_candidate_once(monkeypatch, grid):
    """Keying, the screens, the quotient and the batch share one keying
    pass: each built candidate is canonicalized once, and the capacity
    fact is computed once per distinct cache key."""
    import repro.capacity
    import repro.equiv.canonical

    layer = build("resnet50").layer("CONV3_1a")
    accelerator = Accelerator(num_pes=256)
    keys = cache_keys((layer, flow, accelerator, DEFAULT_ENERGY_MODEL) for flow in grid)
    assert len(set(keys)) < len(keys)

    canonicalized, capacity = [], []
    canonicalize = repro.equiv.canonical.canonicalize
    bounds = repro.capacity.VariantCapacity

    def counting_canonicalize(dataflow, layer):
        canonicalized.append(dataflow.name)
        return canonicalize(dataflow, layer)

    def counting_bounds(dataflow, layer, accelerator, tensors=None):
        capacity.append(dataflow.name)
        return bounds(dataflow, layer, accelerator, tensors)

    monkeypatch.setattr(repro.equiv.canonical, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(repro.capacity, "VariantCapacity", counting_bounds)
    for cache in (AnalysisCache(), False):
        canonicalized.clear()
        capacity.clear()
        result = tune_layer(
            layer,
            accelerator,
            static_lint=False,
            capacity_prune=True,
            symbolic_prune=True,
            equiv_prune=True,
            cache=cache,
            **CAPS,
        )
        assert sorted(canonicalized) == sorted(flow.name for flow in grid)
        assert len(capacity) == len(set(keys))
        assert result.capacity_rejected > 0 and result.equiv_replayed > 0


def test_result_is_independent_of_executor_and_cache(monkeypatch):
    """With every screen on, every field but the wall time is identical
    across executors and cache settings (``cache=True`` gets a fresh
    shared cache each run, so no run sees another's entries)."""
    import repro.exec.cache

    layer = build("mobilenet_v2").layer("BN2_1_dw")
    accelerator = Accelerator(num_pes=16, spatial_reduction=False)
    specs = list(enumerate_candidates())[::4]
    screens = dict(
        static_lint=True,
        verify_coverage=True,
        comm_prune=True,
        capacity_prune=True,
        symbolic_prune=True,
        equiv_prune=True,
    )
    results = []
    for executor in ("serial", "process", "auto"):
        for cache in (True, False, AnalysisCache()):
            monkeypatch.setattr(repro.exec.cache, "_default_cache", AnalysisCache())
            result = tune_layer(
                layer,
                accelerator,
                candidates=specs,
                executor=executor,
                jobs=2,
                cache=cache,
                **screens,
                **CAPS,
            )
            results.append(
                {
                    f.name: getattr(result, f.name)
                    for f in fields(result)
                    if f.name != "elapsed_seconds"
                }
            )
    assert all(result == results[0] for result in results[1:])
    first = results[0]
    for field in (
        "statically_rejected",
        "coverage_rejected",
        "comm_rejected",
        "capacity_rejected",
        "equiv_replayed",
    ):
        assert first[field] > 0, field
