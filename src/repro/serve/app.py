"""The asyncio analysis server: DSE-as-a-service.

One process, one event loop, stdlib only. The event loop owns admission
control, validation, single-flight deduplication, and streaming; the
actual analytical work (cost model, sweeps, tuning) runs on a bounded
thread pool via :func:`asyncio.to_thread`, where each job's batch
backend (:mod:`repro.exec`) still auto-selects the vectorized
whole-grid engine or fans out worker processes exactly as the CLI does.

Endpoints (see ``docs/serving.md`` for schemas and curl examples):

- ``GET  /healthz`` — liveness + drain state;
- ``GET  /metrics`` — Prometheus text exposition of the whole
  :mod:`repro.obs` registry (request latencies, queue depth, cache
  counters, sweep counters);
- ``GET  /v1/jobs`` — the in-memory job table;
- ``POST /v1/analyze | /v1/lint | /v1/verify | /v1/tune`` — one JSON
  document in, one JSON document out;
- ``POST /v1/dse`` — a design-space sweep in PE-contiguous shards run in
  order on the job's thread; with ``"stream": true`` the response is
  NDJSON carrying an *anytime* Pareto front after every shard, ending
  in the final front (bit identical to the in-process explorer);
- ``POST /admin/shutdown`` — graceful drain (only when enabled).

Every ``/v1/*`` job takes one path: the request is admitted, validated
and keyed once, then joins the in-flight job record of its key or
creates it and starts its execution task, and subscribes to the
record's events until the terminal one. Sharing model: all jobs
evaluate through one process-wide :class:`~repro.exec.AnalysisCache`
(the content-addressed outcome cache promoted to a cross-request tier
— keys already carry the canonical mapping form and the model-version
salt, so results are safely shareable across tenants), and identical
in-flight jobs are single-flighted. A job whose last subscriber leaves
before its terminal event is cancelled (a dse sweep stops before its
next shard).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.exec import AnalysisCache, resolve_cache
from repro.serve import protocol
from repro.serve.http import (
    DEFAULT_MAX_BODY,
    HttpError,
    NDJSONStream,
    Request,
    read_request,
    send_error,
    send_json,
    send_text,
)
from repro.serve.shards import ShardUpdate, SweepCancelled, sharded_explore

#: Latency histogram buckets: 1ms .. 30s (request-scale, not engine-scale).
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


@dataclass
class ServeConfig:
    """Deployment knobs for one :class:`AnalysisServer`."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Jobs allowed to run concurrently (thread-pool slots).
    max_concurrency: int = 4
    #: Jobs allowed to wait for a slot before admission returns 503.
    queue_limit: int = 32
    #: Per-job wall-clock timeout (seconds); jobs over it return 504.
    job_timeout: float = 300.0
    #: Seconds to wait for in-flight jobs on graceful shutdown.
    drain_timeout: float = 15.0
    #: Request-body cap in bytes.
    max_body: int = DEFAULT_MAX_BODY
    #: Default shard count for DSE jobs that do not pin one: PE blocks
    #: run in order, each one anytime ``front`` event and cancel point.
    default_shards: int = 4
    #: The shared outcome cache: ``True`` = process default tier.
    cache: Union[bool, AnalysisCache, None] = True
    #: Allow ``POST /admin/shutdown`` (used by the CI smoke lane).
    allow_shutdown: bool = False


_TERMINAL = ("result", "error")


@dataclass
class JobRecord:
    """One submitted job: state, event history, and subscribers."""

    id: str
    kind: str
    key: str
    state: str = "queued"  # queued | running | done | failed | cancelled
    created: float = field(default_factory=time.time)
    wall_seconds: float = 0.0
    followers: int = 0
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Dict[str, Any]]"] = field(default_factory=list)
    cancel: threading.Event = field(default_factory=threading.Event)
    task: "Optional[asyncio.Task[None]]" = None

    @property
    def finished(self) -> bool:
        return bool(self.events) and self.events[-1]["event"] in _TERMINAL

    def publish(self, event: Dict[str, Any]) -> None:
        """Append to history and fan out to live subscribers (loop thread)."""
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def fail(self, state: str, status: int, error: str, **extra: Any) -> None:
        """Publish the terminal ``error`` event."""
        self.state = state
        self.error = error
        self.publish({"event": "error", "status": status, "error": error, **extra})

    def subscribe(self) -> "asyncio.Queue[Dict[str, Any]]":
        """A queue pre-loaded with history; future events follow."""
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        self.subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[Dict[str, Any]]") -> None:
        """Drop a subscriber; the last one to leave cancels an unfinished job."""
        self.subscribers.remove(queue)
        if not self.subscribers and not self.finished:
            self.cancel.set()

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "key": self.key[:16],
            "state": self.state,
            "created": self.created,
            "wall_seconds": round(self.wall_seconds, 6),
            "followers": self.followers,
            "error": self.error,
            "events": len(self.events),
        }


class AnalysisServer:
    """The DSE-as-a-service HTTP server (one per process)."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.cache: Optional[AnalysisCache] = resolve_cache(self.config.cache)
        self.port: Optional[int] = None  # actual port once bound
        self.started = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots = asyncio.Semaphore(max(1, self.config.max_concurrency))
        self._queued = 0
        self._active_jobs = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._connections: set = set()
        self._inflight: Dict[str, JobRecord] = {}
        self._jobs: "Dict[str, JobRecord]" = {}
        self._job_ids = itertools.count(1)
        self._tracing_before: Optional[bool] = None  # restored by shutdown
        self._routes: Dict[
            Tuple[str, str], Callable[[Request], Awaitable[Dict[str, Any]]]
        ] = {
            ("GET", "/healthz"): self._h_healthz,
            ("GET", "/v1/jobs"): self._h_jobs,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (port 0 picks an ephemeral port)."""
        self._tracing_before = obs.is_enabled()
        obs.configure(enabled=True)
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=max(MAX_HEADER_LIMIT, self.config.max_body + 1024),
        )
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight jobs, then release the loop.

        With ``drain`` the server waits up to ``drain_timeout`` seconds
        for running jobs; whatever remains is cancelled (shard sweeps
        observe their cancel event between shards). Tracing, which
        :meth:`start` turns on for ``/metrics``, goes back to the state
        it was in before the server started; recorded spans are kept.
        """
        if self._draining:
            return
        self._draining = True
        obs.inc("serve.shutdowns")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + (self.config.drain_timeout if drain else 0.0)
        while self._active_jobs and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for record in self._inflight.values():
            record.cancel.set()
        # Give cancelled jobs a moment to unwind before dropping the loop.
        deadline = time.monotonic() + 1.0
        while self._active_jobs and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for connection in list(self._connections):
            connection.cancel()
        if self._tracing_before is not None:
            obs.configure(enabled=self._tracing_before)
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        start = time.perf_counter()
        route_name = "unmatched"
        status = 500
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_body), timeout=30.0
                )
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading request")
            if request is None:
                return
            route_name, status = await self._dispatch(request, reader, writer)
        except HttpError as error:
            status = error.status
            try:
                await send_error(writer, error)
            except (ConnectionError, OSError):
                pass
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            status = 0  # client went away mid-response
        except Exception as error:  # never let one request kill the server
            status = 500
            try:
                await send_error(writer, HttpError(500, f"internal error: {error}"))
            except (ConnectionError, OSError):
                pass
        finally:
            if task is not None:
                self._connections.discard(task)
            elapsed = time.perf_counter() - start
            obs.inc(f"serve.requests.{route_name}")
            obs.inc(f"serve.responses.{status}")
            obs.observe(
                f"serve.latency.{route_name}", elapsed, buckets=LATENCY_BUCKETS
            )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Tuple[str, int]:
        """Route one request; returns (route-name, status) for metrics."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/metrics" and method == "GET":
            await send_text(
                writer, 200, self._metrics_text(), "text/plain; version=0.0.4"
            )
            return "metrics", 200
        if path == "/admin/shutdown" and method == "POST":
            if not self.config.allow_shutdown:
                raise HttpError(404, "shutdown endpoint is disabled")
            assert self._loop is not None
            self._loop.create_task(self.shutdown())
            await send_json(writer, 202, {"status": "draining"})
            return "shutdown", 202
        kind = path[len("/v1/") :] if path.startswith("/v1/") else ""
        if method == "POST" and kind in protocol.JOB_KINDS:
            return kind, await self._h_job(kind, request, reader, writer)

        handler = self._routes.get((method, path))
        if handler is None:
            known = {p for _, p in self._routes} | {"/metrics"}
            known |= {f"/v1/{name}" for name in protocol.JOB_KINDS}
            if path in known:
                raise HttpError(405, f"{method} not allowed on {path}")
            raise HttpError(404, f"no route for {path}")
        if self._draining and path not in ("/healthz",):
            raise HttpError(503, "server is draining")
        payload = await handler(request)
        await send_json(writer, 200, payload)
        return path.rsplit("/", 1)[-1], 200

    # ------------------------------------------------------------------
    # Jobs: admit, validate, single-flight, execute, subscribe
    # ------------------------------------------------------------------
    async def _h_job(
        self,
        kind: str,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> int:
        """Answer one ``POST /v1/{kind}``; returns the status for metrics.

        Identical in-flight work is joined, not re-run: every request
        subscribes to the job record of its key, and the record's first
        request starts the job. A request ends with the terminal event,
        as a JSON body (raised as an :class:`HttpError` when the job
        failed) or, for a dse job with ``"stream": true``, as the last
        line of an NDJSON stream of every event.

        A stream watches ``reader`` for the client's EOF. One that
        arrives after a ``front`` event was written is a hang-up: the
        request ends at once (as a ``ConnectionResetError``), so the
        last subscriber's leaving cancels the sweep before its next
        shard. An earlier EOF is a client that half-closed after its
        request, and it still gets the whole stream; a client that hangs
        up before the first ``front`` is noticed when a write to it fails.
        """
        if self._draining:
            raise HttpError(503, "server is draining")
        if self._queued >= self.config.queue_limit:
            obs.inc("serve.rejected_busy")
            raise HttpError(
                503,
                f"queue full ({self.config.queue_limit} jobs waiting); retry later",
            )
        norm = protocol.validate(kind, request.json())
        key = protocol.job_key(kind, norm)
        record = self._inflight.get(key)
        if record is None:
            record = self._start_job(kind, key, norm)
        else:
            record.followers += 1
            obs.inc("serve.singleflight_hits")
        stream = NDJSONStream(writer) if norm.get("stream") else None
        hangup = asyncio.ensure_future(_until_eof(reader)) if stream is not None else None
        front_sent = False
        queue = record.subscribe()
        try:
            while True:
                if hangup is None:
                    event = await queue.get()
                else:
                    getter = asyncio.ensure_future(queue.get())
                    await asyncio.wait((getter, hangup), return_when=asyncio.FIRST_COMPLETED)
                    if not getter.done():
                        getter.cancel()
                        if front_sent:
                            raise ConnectionResetError("client closed the stream")
                        hangup = None  # a half-close: the client still reads
                        continue
                    event = getter.result()
                if stream is not None:
                    await stream.emit(event)
                    front_sent = front_sent or event["event"] == "front"
                if event["event"] in _TERMINAL:
                    break
        finally:
            record.unsubscribe(queue)
            if hangup is not None:
                hangup.cancel()
        failed = event["event"] == "error"
        if stream is not None:
            return int(event["status"]) if failed else 200
        if failed:
            raise HttpError(
                int(event["status"]), str(event["error"]), details=event.get("details")
            )
        await send_json(writer, 200, event)
        return 200

    def _start_job(self, kind: str, key: str, norm: Dict[str, Any]) -> JobRecord:
        """Create the job record of ``key`` and start its execution task."""
        record = JobRecord(id=f"job-{next(self._job_ids)}", kind=kind, key=key)
        record.publish(
            {"event": "accepted", "job_id": record.id, "kind": kind, "key": key[:16]}
        )
        self._jobs[record.id] = record
        if len(self._jobs) > 256:  # bounded job table: drop the oldest
            self._jobs.pop(next(iter(self._jobs)))
        self._inflight[key] = record
        self._queued += 1
        obs.set_gauge("serve.queue_depth", self._queued)
        record.task = asyncio.create_task(self._execute(record, norm))
        return record

    async def _execute(self, record: JobRecord, norm: Dict[str, Any]) -> None:
        """Run one job's ``_work_{kind}`` on a worker thread once a slot is
        free, and publish its terminal event."""
        work = getattr(self, f"_work_{record.kind}")
        started = time.perf_counter()
        dequeued = False
        try:
            async with self._slots:
                self._queued -= 1
                dequeued = True
                obs.set_gauge("serve.queue_depth", self._queued)
                self._active_jobs += 1
                obs.set_gauge("serve.jobs_active", self._active_jobs)
                record.state = "running"
                try:
                    result = await asyncio.wait_for(
                        asyncio.to_thread(work, record, norm),
                        timeout=self.config.job_timeout,
                    )
                except asyncio.TimeoutError:
                    record.cancel.set()
                    record.fail(
                        "cancelled",
                        504,
                        f"timed out after {self.config.job_timeout:.0f}s",
                    )
                except SweepCancelled as error:
                    record.fail("cancelled", 503, str(error))
                except HttpError as error:
                    record.fail(
                        "failed", error.status, error.message, details=error.details
                    )
                except Exception as error:
                    record.fail("failed", 500, f"{type(error).__name__}: {error}")
                else:
                    record.state = "done"
                    record.publish({"event": "result", **result})
        finally:
            record.wall_seconds = time.perf_counter() - started
            if not dequeued:
                # Cancelled while still waiting for a slot.
                self._queued -= 1
                obs.set_gauge("serve.queue_depth", self._queued)
            if record.state != "queued":
                self._active_jobs -= 1
            obs.set_gauge("serve.jobs_active", self._active_jobs)
            self._inflight.pop(record.key, None)
            if not record.finished:
                # Aborted without a terminal event (the task was cancelled
                # at loop shutdown): publish one so subscribers are released.
                record.cancel.set()
                record.fail("cancelled", 500, "job aborted")
            obs.observe(
                f"serve.job_seconds.{record.kind}",
                record.wall_seconds,
                buckets=LATENCY_BUCKETS,
            )

    def _work_analyze(self, record: JobRecord, norm: Dict[str, Any]) -> Dict[str, Any]:
        from repro.exec import BatchEvaluator, EvalPoint
        from repro.exec.serialize import analysis_to_dict

        flow = self._flow_of(norm)
        accelerator = protocol.build_accelerator(norm["accelerator"])
        layers = protocol.resolve_layers(norm["model"], norm["layer"])
        evaluator = BatchEvaluator(executor="auto", cache=self.cache)
        batch = evaluator.evaluate(
            EvalPoint(layer=layer, dataflow=flow, accelerator=accelerator)
            for layer in layers
        )
        reports = []
        for layer, outcome in zip(layers, batch):
            if outcome.ok:
                reports.append(
                    {
                        "layer": layer.name,
                        "ok": True,
                        "cached": outcome.cached,
                        "report": analysis_to_dict(outcome.report),
                    }
                )
            else:
                reports.append(
                    {
                        "layer": layer.name,
                        "ok": False,
                        "cached": outcome.cached,
                        "error_type": outcome.error_type,
                        "error": outcome.error_message,
                    }
                )
        stats = batch.stats
        return {
            "job_id": record.id,
            "model": norm["model"],
            "dataflow": flow.name,
            "layers": reports,
            "stats": {
                "submitted": stats.submitted,
                "cache_hits": stats.cache_hits,
                "evaluated": stats.evaluated,
                "singleflight_hits": stats.singleflight_hits,
                "executor": stats.executor,
            },
        }

    def _work_lint(self, record: JobRecord, norm: Dict[str, Any]) -> Dict[str, Any]:
        from repro.lint import lint_dataflow

        flow = self._flow_of(norm)
        layer = None
        if norm["model"] is not None:
            layer = protocol.resolve_layers(norm["model"], norm["layer"])[0]
        accelerator = protocol.build_accelerator(norm["accelerator"])
        report = lint_dataflow(flow, layer, accelerator)
        return {
            "job_id": record.id,
            "dataflow": flow.name,
            "ok": not report.has_errors,
            "report": report.to_dict(),
        }

    def _work_verify(self, record: JobRecord, norm: Dict[str, Any]) -> Dict[str, Any]:
        from repro.model.layer import conv2d
        from repro.verify import DEFAULT_BUDGET, verify_dataflow

        flow = self._flow_of(norm)
        if norm["model"] is not None:
            layers = protocol.resolve_layers(norm["model"], norm["layer"])
        else:
            layers = [conv2d("verify-default", k=8, c=8, y=18, x=18, r=3, s=3)]
        budget = norm["budget"] if norm["budget"] is not None else DEFAULT_BUDGET
        results = [verify_dataflow(flow, layer, budget=budget) for layer in layers]
        return {
            "job_id": record.id,
            "dataflow": flow.name,
            "all_proven": all(result.proven for result in results),
            "results": [result.to_dict() for result in results],
        }

    def _work_tune(self, record: JobRecord, norm: Dict[str, Any]) -> Dict[str, Any]:
        from repro.tuner import tune_layer

        layer = protocol.resolve_layers(norm["model"], norm["layer"])[0]
        accelerator = protocol.build_accelerator(norm["accelerator"])
        result = tune_layer(
            layer,
            accelerator,
            objective=norm["objective"],
            strategy=norm["strategy"],
            budget=norm["budget"],
            top_k=norm["top_k"],
            max_l1_bytes=norm["max_l1"],
            max_l2_bytes=norm["max_l2"],
            executor=norm["executor"],
            jobs=norm["jobs"],
            cache=self.cache,
        )
        return {
            "job_id": record.id,
            "layer": result.layer_name,
            "objective": result.objective,
            "evaluated": result.evaluated,
            "rejected": result.rejected,
            "cache_hits": result.cache_hits,
            "top": [
                {
                    "name": candidate.spec.name,
                    "runtime": candidate.report.runtime,
                    "energy": candidate.report.energy_total,
                    "score": candidate.score,
                }
                for candidate in result.top
            ],
        }

    # ------------------------------------------------------------------
    # DSE: a sharded sweep whose anytime fronts stream as events
    # ------------------------------------------------------------------
    def _work_dse(self, record: JobRecord, norm: Dict[str, Any]) -> Dict[str, Any]:
        layer, space, kwargs = protocol.dse_inputs(norm)
        shards = norm["shards"] or min(
            self.config.default_shards, max(1, len(space.pe_counts))
        )
        loop = self._loop
        assert loop is not None

        def on_update(update: ShardUpdate) -> None:
            event = {
                "event": "front",
                "shards_done": update.shards_done,
                "shards_total": update.shards_total,
                "points_explored": update.points_explored,
                "points_valid": update.points_valid,
                "front": [protocol.design_point_dict(p) for p in update.front],
            }
            loop.call_soon_threadsafe(record.publish, event)

        result = sharded_explore(
            layer,
            space,
            shards=shards,
            cache=self.cache,
            on_update=on_update,
            cancel=record.cancel,
            **kwargs,
        )
        front = result.pareto()
        optima = {
            "throughput": result.throughput_optimal,
            "energy": result.energy_optimal,
            "edp": result.edp_optimal,
        }
        return {
            "job_id": record.id,
            "model": norm["model"],
            "layer": norm["layer"],
            "dataflow": norm["dataflow"],
            "shards": shards,
            "front": [protocol.design_point_dict(p) for p in front],
            "optima": {
                name: (protocol.design_point_dict(p) if p is not None else None)
                for name, p in optima.items()
            },
            "statistics": protocol.statistics_dict(result.statistics),
        }

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    async def _h_healthz(self, request: Request) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "jobs_active": self._active_jobs,
            "jobs_queued": self._queued,
            "cache_entries": len(self.cache) if self.cache is not None else 0,
        }

    async def _h_jobs(self, request: Request) -> Dict[str, Any]:
        return {"jobs": [record.summary() for record in self._jobs.values()]}

    def _metrics_text(self) -> str:
        from repro.obs.exporters import to_prometheus

        if self.cache is not None:
            obs.set_gauge("serve.cache.entries", len(self.cache))
            obs.set_gauge("serve.cache.hits", self.cache.hits)
            obs.set_gauge("serve.cache.misses", self.cache.misses)
            obs.set_gauge("serve.cache.disk_hits", self.cache.disk_hits)
        obs.set_gauge("serve.uptime_seconds", time.time() - self.started)
        return to_prometheus(obs.metrics_snapshot())

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _flow_of(norm: Dict[str, Any]) -> Any:
        doc = {
            key: norm[key]
            for key in ("dataflow", "dataflow_text")
            if norm.get(key) is not None
        }
        flow, _ = protocol.resolve_dataflow(doc)
        return flow


#: Stream-reader limit floor; must exceed the largest request head.
MAX_HEADER_LIMIT = 256 * 1024


async def _until_eof(reader: asyncio.StreamReader) -> None:
    """Return once the client sends EOF or its connection fails."""
    try:
        while await reader.read(65536):
            pass  # the request was read; anything after it is ignored
    except (ConnectionError, OSError):
        pass


async def serve_main(config: ServeConfig) -> None:
    """Run a server until SIGINT/SIGTERM (the CLI entry point)."""
    import signal

    server = AnalysisServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.shutdown())
            )
        except NotImplementedError:  # non-POSIX event loops
            pass
    print(f"repro serve: listening on http://{config.host}:{server.port}")
    await server.serve_forever()
    print("repro serve: drained, bye")


class ThreadedServer:
    """Run an :class:`AnalysisServer` on a background thread.

    The harness tests and the load benchmark use this to stand a real
    server up inside one process::

        with ThreadedServer(ServeConfig(port=0)) as server:
            client = ServeClient(port=server.port)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig(port=0)
        self.server: Optional[AnalysisServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def _main(self) -> None:
        async def run() -> None:
            self.server = AnalysisServer(self.config)
            try:
                await self.server.start()
            finally:
                self._ready.set()
            await self.server.serve_forever()

        try:
            asyncio.run(run())
        except BaseException as error:  # surfaced by __enter__/stop
            self._error = error
            self._ready.set()

    def __enter__(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        if self.server is None or self.server.port is None:
            raise RuntimeError("server failed to bind within 30s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        server = self.server
        if (
            server is not None
            and server._loop is not None
            and not server._loop.is_closed()
        ):
            coroutine = server.shutdown()
            try:
                asyncio.run_coroutine_threadsafe(
                    coroutine, server._loop
                ).result(timeout=timeout)
            except Exception:
                # The loop may have exited between the check and the
                # submission (e.g. an /admin/shutdown raced us); close
                # the orphaned coroutine instead of leaking a warning.
                coroutine.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
