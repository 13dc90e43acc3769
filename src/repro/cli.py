"""Command-line interface: ``maestro-repro`` / ``python -m repro``.

Subcommands:

- ``analyze`` — run the cost model for a zoo model (or one layer) under
  a named dataflow and print the per-layer report table; with
  ``--symbolic`` (plus ``--range DIM=LO:HI``/``--widen``) it instead
  abstract-interprets the mapping over symbolic shape intervals and
  prints per-mapping validity envelopes — interval bounds on every
  cost quantity plus the ``DF2xx`` range-certificate lints —
  optionally cross-checked against concrete runs (``--crosscheck``);
  with ``--comm`` it prints the static communication classification
  (multicast/unicast/forwarding/reduction per level and tensor) from
  :mod:`repro.comm` instead;
- ``lint`` — statically check a dataflow (DSL file or library entry),
  optionally against a layer and hardware config, and print a
  rustc-style diagnostic report (or ``--format json``); exits 1 when
  the mapping has errors; ``--comm`` appends the communication detail
  view, and ``lint --explain DFxxx`` documents any registered rule;
- ``verify`` — prove (or refute with a concrete MAC counterexample)
  that a mapping covers a layer's compute space exactly once;
  ``--library`` checks every stock mapping, ``--audit`` classifies
  which lint rules the verifier certifies as sound, and ``--check
  {comm,capacity,equiv}`` instead replays one analyzer's closed forms
  against independent oracles (:mod:`repro.verify.differential`);
  exits 1 when any mapping is not proven (or any oracle disagrees);
- ``validate`` — compare the analytical model against the reference
  simulator on a layer;
- ``dse`` — run a small hardware design-space exploration for a layer
  (``--comm-prune`` with ``--no-spatial-reduction`` skips mappings the
  communication classifier proves write-racy on that hardware);
- ``tune`` — search the auto-tuner's template space for a layer
  (``--symbolic-prune`` screens buffer-cap violations with the exact
  requirements of :mod:`repro.capacity`, as ``--capacity-prune`` does,
  ``--comm-prune`` screens DF300 write-races on reduction-free
  hardware);
- ``profile`` — trace one layer's analysis (and optionally simulation)
  through the observability subsystem and print/write the span tree,
  per-phase timing table, and metrics;
- ``dataflows`` / ``models`` — list what is available.

``dse`` and ``tune`` sweep through the batch-evaluation backend
(:mod:`repro.exec`): ``--jobs N`` fans cost-model evaluations out over
worker processes, ``--executor`` pins the executor (``vector`` runs
whole hardware grids through the NumPy engine in ``repro.vector``; see
``docs/vectorized-engine.md``), and ``--cache``/``--no-cache`` toggle
the memoization cache (see ``docs/evaluation-backend.md``). Results are
bit-identical either way.

``validate``, ``dse``, and ``tune`` also accept ``--trace-out FILE``
(Perfetto/Chrome trace JSON, load in https://ui.perfetto.dev) and
``--metrics-out FILE`` (Prometheus text) — either flag switches the
observability subsystem on for the run (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.adaptive import adaptive_analysis
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.library import stock_dataflows, table3_dataflows
from repro.dataflow.parser import parse_dataflow
from repro.engines.analysis import analyze_layer
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.zoo import MODELS, build
from repro.screens import OPTIONS, enabled_rejects
from repro.util.text_table import format_table


def _load_dataflow(name_or_path: str) -> Dataflow:
    catalog = table3_dataflows()
    if name_or_path in catalog:
        return catalog[name_or_path]
    try:
        with open(name_or_path) as handle:
            return parse_dataflow(handle.read(), name=name_or_path)
    except FileNotFoundError:
        raise SystemExit(
            f"unknown dataflow {name_or_path!r}: not in {sorted(catalog)} "
            f"and not a readable file"
        )


def _accelerator(args: argparse.Namespace) -> Accelerator:
    return Accelerator(
        num_pes=args.pes,
        spatial_reduction=not getattr(args, "no_spatial_reduction", False),
        noc=NoC(
            bandwidth=args.bandwidth,
            avg_latency=args.latency,
            multicast=not getattr(args, "no_multicast", False),
        ),
    )


def _obs_setup(args: argparse.Namespace) -> None:
    """Switch tracing on when ``--trace-out``/``--metrics-out`` ask for it."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from repro import obs

        obs.configure(enabled=True, reset=True)


def _obs_finish(args: argparse.Namespace) -> None:
    """Write the trace/metrics files a command was asked for."""
    if getattr(args, "trace_out", None):
        from repro.obs.profile import write_trace

        path = write_trace(args.trace_out)
        print(f"trace written to {path} — load it in https://ui.perfetto.dev")
    if getattr(args, "metrics_out", None):
        from repro.obs.profile import write_metrics

        path = write_metrics(args.metrics_out)
        print(f"metrics written to {path} (Prometheus text format)")


def _parse_ranges(specs: "Optional[List[str]]") -> "dict":
    """Parse repeatable ``--range DIM=LO:HI`` flags into a dict."""
    from repro.tensors import dims as D

    ranges: dict = {}
    for spec in specs or []:
        try:
            dim, _, span = spec.partition("=")
            lo_text, _, hi_text = span.partition(":")
            lo, hi = int(lo_text), int(hi_text or lo_text)
        except ValueError:
            raise SystemExit(f"bad --range {spec!r}: expected DIM=LO:HI")
        if dim not in D.CANONICAL_DIMS:
            raise SystemExit(
                f"bad --range {spec!r}: unknown dimension {dim!r} "
                f"(choose from {sorted(D.CANONICAL_DIMS)})"
            )
        if lo < 1 or hi < lo:
            raise SystemExit(f"bad --range {spec!r}: need 1 <= LO <= HI")
        ranges[dim] = (lo, hi)
    return ranges


def _cmd_analyze_symbolic(args: argparse.Namespace) -> int:
    """``analyze --symbolic``: per-mapping shape-validity envelopes."""
    import json

    from repro.absint.engine import HardwareBox
    from repro.absint.report import ENVELOPE_HEADERS, envelope_row, symbolic_envelope
    from repro.absint.shapes import ShapeBox

    network = build(args.model)
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)
    layers = [network.layer(args.layer)] if args.layer else list(network.layers)
    ranges = _parse_ranges(args.range)
    hw = HardwareBox.from_accelerator(accelerator)
    envelopes = []
    for layer in layers:
        box = ShapeBox.from_layer(
            layer,
            ranges={d: r for d, r in ranges.items() if d in layer.dims} or None,
            widen=args.widen,
        )
        envelopes.append(
            symbolic_envelope(box, dataflow, hw, crosscheck=args.crosscheck)
        )
    if args.format == "json":
        print(json.dumps(envelopes, indent=2, sort_keys=True))
    else:
        print(
            format_table(
                ENVELOPE_HEADERS,
                [envelope_row(envelope) for envelope in envelopes],
                title=(
                    f"{network.name} under {dataflow.name}: symbolic envelopes "
                    f"over {accelerator.num_pes} PEs"
                ),
            )
        )
        for envelope in envelopes:
            for diagnostic in envelope.get("diagnostics") or []:
                assert isinstance(diagnostic, dict)
                print(
                    f"  {diagnostic['severity']}[{diagnostic['code']}] "
                    f"({diagnostic['provenance']}): {diagnostic['message']}"
                )
    failed = any(
        envelope.get("crosscheck") and not envelope["crosscheck"]["ok"]  # type: ignore[index]
        for envelope in envelopes
    )
    return 1 if failed else 0


def _cmd_analyze_comm(args: argparse.Namespace) -> int:
    """``analyze --comm``: static communication classification tables."""
    import json

    from repro.comm import classify_dataflow, render_comm_summary, render_comm_table

    network = build(args.model)
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)
    layers = [network.layer(args.layer)] if args.layer else list(network.layers)
    analyses = [classify_dataflow(dataflow, layer, accelerator) for layer in layers]
    if args.format == "json":
        print(json.dumps([a.to_dict() for a in analyses], indent=2, sort_keys=True))
        return 0
    for analysis in analyses:
        print(render_comm_table(analysis))
        print(render_comm_summary(analysis))
        print()
    return 0


def _cmd_analyze_capacity(args: argparse.Namespace) -> int:
    """``analyze --capacity``: certified occupancy bounds + roofline verdict."""
    import json

    from repro.capacity import classify_roofline, render_capacity_table

    network = build(args.model)
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)
    layers = [network.layer(args.layer)] if args.layer else list(network.layers)
    certificates = [
        classify_roofline(dataflow, layer, accelerator) for layer in layers
    ]
    if args.format == "json":
        print(
            json.dumps(
                [c.to_dict() for c in certificates], indent=2, sort_keys=True
            )
        )
        return 0
    for certificate in certificates:
        print(render_capacity_table(certificate.bounds, certificate))
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if sum((args.symbolic, args.comm, args.capacity)) > 1:
        raise SystemExit("--comm, --capacity, and --symbolic are mutually exclusive")
    if args.symbolic:
        return _cmd_analyze_symbolic(args)
    if args.range or args.crosscheck or args.widen != 1.0:
        raise SystemExit("--range/--widen/--crosscheck require --symbolic")
    if args.comm:
        return _cmd_analyze_comm(args)
    if args.capacity:
        return _cmd_analyze_capacity(args)
    network = build(args.model)
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)
    layers = [network.layer(args.layer)] if args.layer else list(network.layers)
    if args.detail:
        from repro.report import layer_report

        for layer in layers:
            print(layer_report(analyze_layer(layer, dataflow, accelerator)))
            print()
        return 0
    rows = []
    for layer in layers:
        try:
            report = analyze_layer(layer, dataflow, accelerator)
        except Exception as error:  # surfaced per-layer, sweep continues
            rows.append([layer.name, "-", "-", "-", "-", f"error: {error}"])
            continue
        rows.append(
            [
                layer.name,
                f"{report.runtime:.3e}",
                f"{report.utilization:.2f}",
                f"{report.energy_total:.3e}",
                f"{report.noc_bw_req_gbps:.1f}",
                f"{report.reuse_factors.get('I', float('nan')):.1f}",
            ]
        )
    print(
        format_table(
            ["layer", "cycles", "util", "energy (xMAC)", "BW req (GB/s)", "act reuse"],
            rows,
            title=f"{network.name} under {dataflow.name} on {accelerator.num_pes} PEs",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        explain_rule,
        lint_dataflow,
        lint_text,
        nearest_rule,
        rule_families,
    )

    if args.explain:
        try:
            print(explain_rule(args.explain))
        except KeyError:
            families = ", ".join(sorted(rule_families()))
            suggestion = nearest_rule(args.explain)
            hint = f"did you mean {suggestion}? " if suggestion else ""
            raise SystemExit(
                f"error: unknown lint rule {args.explain!r} ({hint}"
                f"valid rule families: {families}; "
                f"run `repro lint --explain DF000` for an example)"
            )
        return 0
    if not args.dataflow:
        raise SystemExit("lint: pass a dataflow name/path (or use --explain DFxxx)")
    if args.layer and not args.model:
        raise SystemExit("--layer requires --model")
    if args.comm and not args.model:
        raise SystemExit("--comm requires --model (a layer to bind against)")
    if args.capacity and not args.model:
        raise SystemExit("--capacity requires --model (a layer to bind against)")
    layer = None
    if args.model:
        network = build(args.model)
        layer = network.layer(args.layer) if args.layer else network.layers[0]
    accelerator = Accelerator(
        num_pes=args.pes,
        l1_size=args.l1,
        l2_size=args.l2,
        spatial_reduction=not args.no_spatial_reduction,
        noc=NoC(
            bandwidth=args.bandwidth,
            avg_latency=args.latency,
            multicast=not args.no_multicast,
        ),
    )
    catalog = table3_dataflows()
    dataflow = None
    if args.dataflow in catalog:
        dataflow = catalog[args.dataflow]
        report = lint_dataflow(dataflow, layer, accelerator)
    else:
        try:
            with open(args.dataflow) as handle:
                text = handle.read()
        except OSError:
            raise SystemExit(
                f"unknown dataflow {args.dataflow!r}: not in {sorted(catalog)} "
                f"and not a readable file"
            )
        except UnicodeDecodeError as exc:
            raise SystemExit(f"{args.dataflow}: not a text file ({exc})")
        report = lint_text(
            text,
            name=args.dataflow,
            source=args.dataflow,
            layer=layer,
            accelerator=accelerator,
        )
        if args.comm or args.capacity:
            try:
                dataflow = parse_dataflow(text, name=args.dataflow)
            except Exception:
                dataflow = None  # syntax errors: report covers it below
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    if args.comm and args.format == "text":
        from repro.comm import classify_dataflow, render_comm_summary, render_comm_table

        if dataflow is None:
            print("comm: mapping does not parse; no communication analysis")
        else:
            assert layer is not None
            try:
                analysis = classify_dataflow(dataflow, layer, accelerator)
            except Exception as error:
                print(f"comm: mapping does not bind ({error}); no analysis")
            else:
                print()
                print(render_comm_table(analysis))
                print(render_comm_summary(analysis))
    if args.capacity and args.format == "text":
        from repro.capacity import classify_roofline, render_capacity_table

        if dataflow is None:
            print("capacity: mapping does not parse; no capacity analysis")
        else:
            assert layer is not None
            try:
                certificate = classify_roofline(dataflow, layer, accelerator)
            except Exception as error:
                print(f"capacity: mapping does not bind ({error}); no analysis")
            else:
                print()
                print(render_capacity_table(certificate.bounds, certificate))
    return 1 if report.has_errors else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.model.layer import conv2d
    from repro.verify import DEFAULT_BUDGET, audit_rules, verify_dataflow

    budget = args.budget if args.budget is not None else DEFAULT_BUDGET

    if args.audit:
        audits = audit_rules()
        if args.format == "json":
            print(json.dumps([a.to_dict() for a in audits.values()], indent=2))
            return 0
        for audit in audits.values():
            mark = "certified" if audit.certified else "heuristic"
            print(f"{audit.code}  {audit.category:20s} [{mark}] {audit.title}")
            for line in audit.evidence:
                print(f"    - {line}")
        return 0

    catalog = stock_dataflows()
    flows: "dict" = {}
    if args.library:
        flows.update(catalog)
    for target in args.targets:
        if target in catalog:
            flows[target] = catalog[target]
        else:
            try:
                with open(target) as handle:
                    flows[target] = parse_dataflow(handle.read(), name=target)
            except OSError:
                raise SystemExit(
                    f"unknown dataflow {target!r}: not in {sorted(catalog)} "
                    "and not a readable file"
                )
    if not flows:
        raise SystemExit("nothing to verify: pass dataflow targets or --library")

    if args.layer and not args.model:
        raise SystemExit("--layer requires --model")
    if args.model:
        network = build(args.model)
        layers = (
            [network.layer(args.layer)] if args.layer else list(network.layers)
        )
    else:
        # Synthetic workloads that exercise channels, sliding rows and
        # columns, edge tiles, and — since the YR-P offset-propagation
        # fix — a strided layer, without being slow to enumerate.
        layers = [
            conv2d("verify-default", k=8, c=8, y=18, x=18, r=3, s=3),
            conv2d("verify-strided", k=8, c=8, y=19, x=19, r=3, s=3, stride=2),
        ]

    if args.check:
        from repro.verify.differential import run

        reports = run(
            args.check, [(layer, flow) for flow in flows.values() for layer in layers]
        )
        all_ok = all(report.ok for report in reports)
        if args.format == "json":
            payload = {
                "reports": [report.to_dict() for report in reports],
                "all_ok": all_ok,
            }
            print(json.dumps(payload, indent=2))
        else:
            totals: Dict[str, int] = {}
            for report in reports:
                print(report.render())
                for name, value in report.counts.items():
                    totals[name] = totals.get(name, 0) + value
            agree = sum(report.ok for report in reports)
            summary = ", ".join(f"{value} {name}" for name, value in totals.items())
            print(
                f"{agree}/{len(reports)} mapping-layer pairs agree with the "
                f"{args.check} oracles ({summary})"
            )
        return 0 if all_ok else 1

    results = []
    for name, flow in flows.items():
        for layer in layers:
            results.append(verify_dataflow(flow, layer, budget=budget))
    all_proven = all(result.proven for result in results)
    if args.format == "json":
        payload = {
            "results": [result.to_dict() for result in results],
            "all_proven": all_proven,
        }
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            print(result.render())
        proven = sum(result.proven for result in results)
        print(f"{proven}/{len(results)} mapping-layer pairs proven covered exactly once")
    return 0 if all_proven else 1


def _cmd_adaptive(args: argparse.Namespace) -> int:
    network = build(args.model)
    accelerator = _accelerator(args)
    result = adaptive_analysis(
        network, table3_dataflows(), accelerator, metric=args.metric
    )
    rows = [
        [choice.layer_name, choice.dataflow_name, f"{choice.report.runtime:.3e}"]
        for choice in result.choices
    ]
    print(format_table(["layer", "best dataflow", "cycles"], rows))
    print(f"total runtime: {result.runtime:.3e} cycles")
    print(f"total energy : {result.energy_total:.3e} x MAC")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.simulator import simulate_layer

    _obs_setup(args)
    network = build(args.model)
    layer = network.layer(args.layer)
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)
    report = analyze_layer(layer, dataflow, accelerator)
    sim = simulate_layer(layer, dataflow, accelerator)
    error = (report.runtime - sim.runtime) / sim.runtime * 100.0
    print(f"analytical : {report.runtime:.4e} cycles")
    print(f"simulated  : {sim.runtime:.4e} cycles ({sim.steps_total} steps)")
    print(f"error      : {error:+.2f}%")
    _obs_finish(args)
    return 0


def _pruners(args: argparse.Namespace, scope: str) -> Dict[str, bool]:
    """The pruning keywords the ``scope`` (``"dse"`` or ``"tuner"``) flags set."""
    return {
        option.keyword: getattr(args, option.keyword)
        for option in OPTIONS
        if option.flag and option.field(scope)
    }


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import explore
    from repro.dse.space import (
        DesignSpace,
        default_bandwidths,
        default_pe_counts,
        kc_partitioned_variants,
        yr_partitioned_variants,
    )

    _obs_setup(args)
    network = build(args.model)
    layer = network.layer(args.layer)
    variants = (
        kc_partitioned_variants()
        if args.dataflow.upper().startswith("KC")
        else yr_partitioned_variants()
    )
    space = DesignSpace(
        pe_counts=default_pe_counts(max_pes=args.max_pes, step=args.pe_step),
        noc_bandwidths=default_bandwidths(),
        dataflow_variants=variants,
    )
    result = explore(
        layer,
        space,
        area_budget=args.area,
        power_budget=args.power,
        executor=args.executor,
        jobs=args.jobs,
        cache=args.cache,
        spatial_reduction=not args.no_spatial_reduction,
        noc_multicast=not args.no_multicast,
        **_pruners(args, "dse"),
    )
    stats = result.statistics
    print(
        f"explored {stats.explored} designs ({stats.valid} valid, "
        f"{stats.pruned} pruned, {stats.static_rejects} lint-rejected, "
        f"{stats.coverage_rejects} coverage-refuted, "
        f"{stats.comm_rejects} comm-race pruned, "
        f"{stats.capacity_rejects} capacity pruned, "
        f"{stats.equiv_replays} equivalence-replayed, "
        f"{stats.cost_model_calls} cost-model calls, "
        f"{stats.cache_hits} cache hits, executor={stats.executor}) in "
        f"{stats.elapsed_seconds:.2f}s ({stats.effective_rate:.0f} designs/s)"
    )
    from repro.obs.profile import digest_line

    print(
        digest_line(
            evaluated=stats.evaluated,
            cost_model_calls=stats.cost_model_calls,
            cache_hits=stats.cache_hits,
            pruned=enabled_rejects("dse", stats, _pruners(args, "dse")),
            wall_seconds=stats.elapsed_seconds,
        )
    )
    for label, point in (
        ("throughput-optimal", result.throughput_optimal),
        ("energy-optimal", result.energy_optimal),
        ("edp-optimal", result.edp_optimal),
    ):
        if point is None:
            print(f"{label}: none within budget")
            continue
        print(
            f"{label}: {point.tile_label} PEs={point.num_pes} BW={point.noc_bandwidth} "
            f"L1={point.l1_size}B L2={point.l2_size}B thpt={point.throughput:.1f} "
            f"energy={point.energy:.3e} area={point.area:.2f}mm2 power={point.power:.0f}mW"
        )
    _obs_finish(args)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuner import tune_layer

    _obs_setup(args)
    network = build(args.model)
    layer = network.layer(args.layer)
    accelerator = _accelerator(args)
    result = tune_layer(
        layer,
        accelerator,
        objective=args.objective,
        strategy=args.strategy,
        budget=args.budget,
        top_k=args.top_k,
        max_l1_bytes=args.max_l1,
        max_l2_bytes=args.max_l2,
        executor=args.executor,
        jobs=args.jobs,
        cache=args.cache,
        **_pruners(args, "tuner"),
    )
    rows = [
        [
            candidate.spec.name,
            f"{candidate.report.runtime:.3e}",
            f"{candidate.report.energy_total:.3e}",
            f"{candidate.score:.3e}",
        ]
        for candidate in result.top
    ]
    print(
        format_table(
            ["candidate", "cycles", "energy (xMAC)", f"{result.objective} score"],
            rows,
            title=f"{layer.name}: top {len(result.top)} of {result.evaluated} evaluated",
        )
    )
    print(
        f"rejected {result.rejected} candidates "
        f"({result.statically_rejected} by the static analyzer, "
        f"{result.coverage_rejected} coverage-refuted, "
        f"{result.comm_rejected} comm-race screened, "
        f"{result.capacity_rejected} capacity screened, "
        f"{result.symbolic_rejected} symbolically over buffer caps); "
        f"{result.equiv_replayed} equivalence-replayed; "
        f"{result.cache_hits} cost-model answers served from cache"
    )
    from repro.obs.profile import digest_line

    print(
        digest_line(
            evaluated=result.evaluated,
            cost_model_calls=result.cost_model_calls,
            cache_hits=result.cache_hits,
            pruned=enabled_rejects("tuner", result, _pruners(args, "tuner")),
            wall_seconds=result.elapsed_seconds,
        )
    )
    _obs_finish(args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.exporters import metrics_table, span_summary_table, span_tree
    from repro.obs.trace import spans as trace_spans

    network = build(args.model)
    layer = network.layer(args.layer) if args.layer else network.layers[0]
    accelerator = _accelerator(args)
    dataflow = _load_dataflow(args.dataflow)

    obs.configure(enabled=True, reset=True)
    for _ in range(args.repeat):
        analyze_layer(layer, dataflow, accelerator)
    if args.simulate:
        from repro.simulator import simulate_layer

        simulate_layer(layer, dataflow, accelerator)

    recorded = trace_spans()
    print(
        span_summary_table(
            recorded,
            title=f"{layer.name} under {dataflow.name} (x{args.repeat})",
        )
    )
    print()
    print(span_tree(recorded, max_depth=args.depth))
    print()
    print(metrics_table(obs.metrics_snapshot()))
    _obs_finish(args)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    for name in sorted(MODELS):
        network = build(name)
        print(f"{name:14s} {len(network.layers):4d} layers  {network.total_ops():.3e} ops")
    return 0


def _cmd_dataflows(args: argparse.Namespace) -> int:
    for name, dataflow in table3_dataflows().items():
        print(dataflow.describe())
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.app import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        job_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        default_shards=args.shards,
        cache=args.cache,
        allow_shutdown=args.allow_remote_shutdown,
    )
    try:
        asyncio.run(serve_main(config))
    except KeyboardInterrupt:
        pass
    return 0


class _DifferentialChecks:
    """``verify --check`` choices: the :mod:`repro.verify.differential`
    registry, imported on first use so building the parser stays cheap."""

    def __iter__(self):
        from repro.verify.differential import CHECKS

        return iter(sorted(CHECKS))

    def __contains__(self, name: object) -> bool:
        return name in set(self)


def build_parser() -> argparse.ArgumentParser:
    """The ``maestro-repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="maestro-repro",
        description="MAESTRO reproduction: DNN dataflow cost analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hw(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pes", type=int, default=256, help="number of PEs")
        p.add_argument("--bandwidth", type=int, default=32, help="NoC elems/cycle")
        p.add_argument("--latency", type=int, default=2, help="NoC average latency")

    def add_pruners(p: argparse.ArgumentParser, scope: str) -> None:
        for option in OPTIONS:
            if option.flag and option.field(scope):
                p.add_argument(
                    option.flag, dest=option.keyword, action="store_true", help=option.help
                )

    def add_comm_caps(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--no-spatial-reduction",
            action="store_true",
            help="model hardware without an adder tree / psum accumulation "
            "path (spatially-mapped reductions become DF300 write-races)",
        )
        p.add_argument(
            "--no-multicast",
            action="store_true",
            help="model a unicast-only NoC without fan-out wiring "
            "(multicast tensors trigger DF301 duplication warnings)",
        )

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes for the batch backend (default: all cores)",
        )
        p.add_argument(
            "--executor",
            choices=["auto", "serial", "process", "vector"],
            default="auto",
            help="evaluation executor (default: auto-select by workload "
            "shape; grid-style sweeps use the vectorized whole-grid engine)",
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="memoize cost-model results (--no-cache disables; "
            "set REPRO_CACHE_DIR to persist the cache on disk)",
        )

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="enable tracing and write a Perfetto/Chrome trace JSON "
            "(load in https://ui.perfetto.dev)",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="enable tracing and write metrics in Prometheus text format",
        )

    p_analyze = sub.add_parser("analyze", help="run the cost model")
    p_analyze.add_argument("--model", required=True, choices=sorted(MODELS))
    p_analyze.add_argument("--dataflow", default="KC-P")
    p_analyze.add_argument("--layer", help="single layer name (default: all)")
    p_analyze.add_argument(
        "--detail", action="store_true", help="full per-layer report"
    )
    p_analyze.add_argument(
        "--symbolic",
        action="store_true",
        help="abstract-interpret over symbolic shape ranges and print "
        "per-mapping validity envelopes (interval bounds + DF2xx verdicts)",
    )
    p_analyze.add_argument(
        "--range",
        action="append",
        metavar="DIM=LO:HI",
        help="symbolic interval for a layer dimension (repeatable, e.g. "
        "--range K=64:2048); requires --symbolic",
    )
    p_analyze.add_argument(
        "--widen",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="widen every non-unit dimension by FACTOR down and up "
        "(default 1.0 = point box); requires --symbolic",
    )
    p_analyze.add_argument(
        "--crosscheck",
        action="store_true",
        help="differentially check the intervals against concrete "
        "cost-model runs at the box corners; requires --symbolic",
    )
    p_analyze.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="symbolic envelope / comm output format (with --symbolic/--comm)",
    )
    p_analyze.add_argument(
        "--comm",
        action="store_true",
        help="print the static communication classification (multicast/"
        "unicast/forwarding/reduction per level and tensor) instead of "
        "the cost table",
    )
    p_analyze.add_argument(
        "--capacity",
        action="store_true",
        help="print the certified buffer occupancy bounds and roofline "
        "feasibility verdict instead of the cost table",
    )
    add_hw(p_analyze)
    add_comm_caps(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lint = sub.add_parser("lint", help="statically check a dataflow")
    p_lint.add_argument(
        "dataflow",
        nargs="?",
        help="library dataflow name or DSL file path (optional with --explain)",
    )
    p_lint.add_argument(
        "--explain",
        metavar="CODE",
        help="print the full documentation of one lint rule (e.g. DF300) "
        "and exit",
    )
    p_lint.add_argument(
        "--comm",
        action="store_true",
        help="append the communication detail view (per-level/tensor "
        "pattern table); requires --model and --format text",
    )
    p_lint.add_argument(
        "--capacity",
        action="store_true",
        help="append the capacity detail view (per-buffer occupancy "
        "bounds + roofline verdict); requires --model and --format text",
    )
    p_lint.add_argument(
        "--model", choices=sorted(MODELS), help="zoo model to lint against"
    )
    p_lint.add_argument(
        "--layer", help="layer name (default: first layer of --model)"
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_lint.add_argument("--l1", type=int, help="L1 scratchpad bytes per PE")
    p_lint.add_argument("--l2", type=int, help="shared L2 buffer bytes")
    add_hw(p_lint)
    add_comm_caps(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_verify = sub.add_parser(
        "verify",
        help="prove exactly-once MAC coverage of a mapping, or (--check) "
        "differentially verify an analyzer against its oracles",
    )
    p_verify.add_argument(
        "targets",
        nargs="*",
        help="library dataflow names or DSL file paths",
    )
    p_verify.add_argument(
        "--library",
        action="store_true",
        help="verify every stock mapping the library ships",
    )
    p_verify.add_argument(
        "--audit",
        action="store_true",
        help="classify which lint rules the verifier certifies as sound",
    )
    p_verify.add_argument(
        "--check",
        choices=_DifferentialChecks(),
        metavar="CHECK",
        help="instead of coverage, replay one analyzer's closed forms "
        "against independent oracles (comm: classifier vs reuse engine and "
        "brute-force PE access sets; capacity: buffer bounds vs engine "
        "sizing and an occupancy walk; equiv: canonical and transposed "
        "twins vs bit-exact replays and the original's screen facts; gate: "
        "the serve lint gate's errors-only verdict vs the full lint); exits "
        "1 on any mismatch",
    )
    p_verify.add_argument(
        "--model", choices=sorted(MODELS), help="zoo model to verify against"
    )
    p_verify.add_argument(
        "--layer", help="layer name (default: every layer of --model)"
    )
    p_verify.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cell-update budget for exact enumeration (default: 2e6)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_adaptive = sub.add_parser("adaptive", help="best dataflow per layer")
    p_adaptive.add_argument("--model", required=True, choices=sorted(MODELS))
    p_adaptive.add_argument("--metric", default="runtime", choices=["runtime", "energy", "edp"])
    add_hw(p_adaptive)
    p_adaptive.set_defaults(func=_cmd_adaptive)

    p_validate = sub.add_parser("validate", help="model vs reference simulator")
    p_validate.add_argument("--model", required=True, choices=sorted(MODELS))
    p_validate.add_argument("--layer", required=True)
    p_validate.add_argument("--dataflow", default="KC-P")
    add_hw(p_validate)
    add_obs(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_dse = sub.add_parser("dse", help="hardware design-space exploration")
    p_dse.add_argument("--model", required=True, choices=sorted(MODELS))
    p_dse.add_argument("--layer", required=True)
    p_dse.add_argument("--dataflow", default="KC-P", choices=["KC-P", "YR-P"])
    p_dse.add_argument("--area", type=float, default=16.0, help="mm^2 budget")
    p_dse.add_argument("--power", type=float, default=450.0, help="mW budget")
    p_dse.add_argument("--max-pes", type=int, default=512)
    p_dse.add_argument("--pe-step", type=int, default=8)
    add_comm_caps(p_dse)
    add_pruners(p_dse, "dse")
    add_backend(p_dse)
    add_obs(p_dse)
    p_dse.set_defaults(func=_cmd_dse)

    p_tune = sub.add_parser("tune", help="auto-tune a dataflow for a layer")
    p_tune.add_argument("--model", required=True, choices=sorted(MODELS))
    p_tune.add_argument("--layer", required=True)
    p_tune.add_argument(
        "--objective", default="runtime", choices=["runtime", "energy", "edp"]
    )
    p_tune.add_argument(
        "--strategy", default="exhaustive", choices=["exhaustive", "random"]
    )
    p_tune.add_argument(
        "--budget", type=int, default=200, help="candidates for --strategy random"
    )
    p_tune.add_argument("--top-k", type=int, default=5, help="candidates to print")
    p_tune.add_argument(
        "--max-l1", type=int, default=None, help="reject candidates over this L1 bytes"
    )
    p_tune.add_argument(
        "--max-l2", type=int, default=None, help="reject candidates over this L2 bytes"
    )
    add_hw(p_tune)
    add_comm_caps(p_tune)
    add_pruners(p_tune, "tuner")
    add_backend(p_tune)
    add_obs(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_profile = sub.add_parser(
        "profile", help="trace one layer's analysis through repro.obs"
    )
    p_profile.add_argument("--model", required=True, choices=sorted(MODELS))
    p_profile.add_argument(
        "--layer", help="layer name (default: first layer of --model)"
    )
    p_profile.add_argument("--dataflow", default="KC-P")
    p_profile.add_argument(
        "--simulate",
        action="store_true",
        help="also trace one reference-simulator run",
    )
    p_profile.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="analyze the layer N times (averages out timer noise)",
    )
    p_profile.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="D",
        help="limit the printed span tree to depth D",
    )
    add_hw(p_profile)
    add_obs(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_models = sub.add_parser("models", help="list zoo models")
    p_models.set_defaults(func=_cmd_models)

    p_dataflows = sub.add_parser("dataflows", help="list library dataflows")
    p_dataflows.set_defaults(func=_cmd_dataflows)

    p_serve = sub.add_parser(
        "serve", help="run the async analysis server (DSE-as-a-service)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        metavar="N",
        help="jobs allowed to run at once",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        metavar="N",
        help="jobs allowed to wait for a slot before 503",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECS",
        help="per-job wall-clock timeout",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=15.0,
        metavar="SECS",
        help="grace period for in-flight jobs on shutdown",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="default shard count for DSE jobs that do not pin one",
    )
    p_serve.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable the shared cross-request outcome cache",
    )
    p_serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="enable POST /admin/shutdown (CI smoke lanes)",
    )
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
