"""End-to-end tests for the analysis server over real sockets."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.dse.explorer import explore
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ThreadedServer,
    protocol,
)

#: A DSE job small enough for test latency, shaped like Fig. 13.
DSE_JOB = dict(
    model="vgg16",
    layer="CONV1",
    dataflow="KC-P",
    max_pes=64,
    pe_step=16,
    max_bandwidth=16,
)

#: Distinct (model, layer, dataflow) queries for the warm-analyze floor.
ANALYZE_QUERIES = (
    ("vgg16", "CONV1", "KC-P"),
    ("vgg16", "CONV2", "KC-P"),
    ("vgg16", "CONV3", "YR-P"),
    ("vgg16", "CONV4", "C-P"),
    ("vgg16", "CONV5", "X-P"),
    ("vgg16", "CONV1", "YX-P"),
)


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(
        ServeConfig(port=0, max_concurrency=2, allow_shutdown=True)
    ) as threaded:
        yield threaded


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(port=server.port, timeout=300.0)


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs_active"] >= 0
        assert health["uptime_seconds"] >= 0

    def test_metrics_prometheus_text(self, client):
        client.healthz()  # guarantee at least one counted request
        text = client.metrics()
        assert "serve_requests" in text
        assert "serve_uptime_seconds" in text
        # Valid exposition format: every non-comment line is name value.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert len(line.split()) == 2, line

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._json("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_jobs_table(self, client):
        client.lint(dataflow="KC-P")
        jobs = client.jobs()["jobs"]
        assert any(job["kind"] == "lint" for job in jobs)


class TestValidation:
    def test_unknown_model_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.analyze(model="nope", layer="x", dataflow="KC-P")
        assert excinfo.value.status == 400

    def test_unknown_layer_400(self, client):
        from repro.model.zoo import build

        names = [layer.name for layer in build("vgg16").layers]
        with pytest.raises(ServeError) as excinfo:
            client.analyze(model="vgg16", layer="CONV99", dataflow="KC-P")
        assert excinfo.value.status == 400
        assert excinfo.value.message == (
            f"bad field 'layer': unknown layer of 'vgg16' (choose from {names})"
        )

    def test_a_layer_lookup_bug_propagates(self, monkeypatch):
        """Only the ``KeyError`` of an unknown name is a 400; any other
        exception out of the lookup is a server bug."""
        from repro.model.network import Network

        def broken(_self, _name):
            raise RuntimeError("lookup bug")

        monkeypatch.setattr(Network, "layer", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            protocol.resolve_layers("vgg16", "CONV1")

    def test_unknown_field_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.analyze(
                model="vgg16", layer="CONV1", dataflow="KC-P", bogus=1
            )
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.message

    def test_malformed_body_400(self, server):
        import socket

        raw = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot-json!"
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            sock.sendall(raw)
            reply = sock.makefile("rb").read()
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_unparseable_dataflow_422(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.lint(dataflow_text="TemporalMap(")
        assert excinfo.value.status == 422

    def test_lint_gate_rejects_with_diagnostics(self, client):
        # A mapping that binds nothing is refuted before any work runs.
        with pytest.raises(ServeError) as excinfo:
            client.analyze(
                model="vgg16",
                layer="CONV1",
                dataflow_text="TemporalMap(1,1) R;",
            )
        assert excinfo.value.status in (400, 422)


class TestAnalyze:
    def test_round_trip_matches_direct(self, client, vgg16):
        from repro.dataflow.library import table3_dataflows
        from repro.engines.analysis import analyze_layer
        from repro.exec.serialize import analysis_to_dict
        from repro.hardware.accelerator import Accelerator, NoC

        result = client.analyze(model="vgg16", layer="CONV1", dataflow="KC-P")
        entry = result["layers"][0]
        assert entry["ok"]
        direct = analyze_layer(
            vgg16.layer("CONV1"),
            table3_dataflows()["KC-P"],
            Accelerator(num_pes=256, noc=NoC(bandwidth=32, avg_latency=2)),
        )
        assert entry["report"] == analysis_to_dict(direct)

    def test_repeat_is_cache_hit(self, client):
        job = dict(model="vgg16", layer="CONV2", dataflow="KC-P")
        client.analyze(**job)
        repeat = client.analyze(**job)
        assert repeat["layers"][0]["cached"]
        assert repeat["stats"]["evaluated"] == 0

    def test_verify_endpoint(self, client):
        result = client.verify(dataflow="KC-P")
        assert result["all_proven"] is True

    def test_lint_endpoint(self, client):
        result = client.lint(dataflow="KC-P")
        assert result["ok"] is True
        assert "report" in result


class TestDSE:
    def test_stream_parity_with_in_process_explorer(self, client):
        events = list(client.dse_stream(**DSE_JOB, shards=3))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        assert kinds.count("front") == 3
        final = events[-1]

        norm = protocol.validate("dse", dict(DSE_JOB))
        layer, space, kwargs = protocol.dse_inputs(norm)
        direct = explore(layer, space, **kwargs)
        assert final["front"] == [
            protocol.design_point_dict(p) for p in direct.pareto()
        ]
        assert final["statistics"]["explored"] == space.size
        for name in ("throughput", "energy", "edp"):
            optimum = final["optima"][name]
            direct_point = getattr(direct, f"{name}_optimal")
            assert optimum == protocol.design_point_dict(direct_point)

    def test_anytime_fronts_converge(self, client):
        events = list(client.dse_stream(**DSE_JOB, shards=2))
        fronts = [e for e in events if e["event"] == "front"]
        assert fronts[-1]["shards_done"] == fronts[-1]["shards_total"] == 2
        final = events[-1]
        assert fronts[-1]["front"] == final["front"]

    def test_unary_json_mode(self, client):
        result = client.dse(**DSE_JOB)
        assert result["front"]
        assert result["statistics"]["explored"] > 0

    @pytest.mark.parametrize("stream", [True, False], ids=["stream", "unary"])
    def test_request_is_validated_once(self, client, monkeypatch, stream):
        calls = []
        validate = protocol.validate

        def counted(kind, doc):
            calls.append(kind)
            return validate(kind, doc)

        monkeypatch.setattr(protocol, "validate", counted)
        job = dict(DSE_JOB, layer="CONV4", shards=2)
        if stream:
            events = list(client.dse_stream(**job))
            assert events[-1]["event"] == "result"
        else:
            assert client.dse(**job)["front"]
        assert calls == ["dse"]

    def test_single_flight_concurrent_submissions(self, client):
        job = dict(DSE_JOB, layer="CONV3", shards=2)
        results = [None, None]

        def submit(slot):
            results[slot] = client.dse(**job)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0]["job_id"] == results[1]["job_id"]
        assert results[0]["front"] == results[1]["front"]


class TestCacheFloors:
    """Repeated identical queries must come off the shared cache."""

    def test_warm_analyze_repeats_hit_cache_within_p99(self, client):
        for model, layer, flow in ANALYZE_QUERIES:
            client.analyze(model=model, layer=layer, dataflow=flow)
        latencies = []
        hits = 0
        for index in range(60):
            model, layer, flow = ANALYZE_QUERIES[index % len(ANALYZE_QUERIES)]
            start = time.perf_counter()
            result = client.analyze(model=model, layer=layer, dataflow=flow)
            latencies.append(time.perf_counter() - start)
            hits += all(entry["cached"] for entry in result["layers"])
        assert hits / 60 >= 0.9
        # A loose p99 bound: it catches event-loop stalls or a sweep per
        # request, not millisecond noise.
        assert sorted(latencies)[59] * 1e3 <= 1000.0

    def test_repeated_dse_job_hits_cache(self, client):
        job = dict(DSE_JOB, max_bandwidth=32, shards=4)
        client.dse(**job)
        stats = client.dse(**job)["statistics"]
        assert stats["cache_hits"] / stats["cost_model_calls"] >= 0.9


class TestLifecycle:
    def test_queue_limit_503(self):
        # queue_limit bounds jobs *waiting* for a slot; zero means no
        # job may ever wait, so every submission is rejected busy while
        # introspection endpoints keep answering.
        config = ServeConfig(port=0, max_concurrency=1, queue_limit=0)
        with ThreadedServer(config) as threaded:
            tight = ServeClient(port=threaded.port, timeout=60.0)
            with pytest.raises(ServeError) as excinfo:
                tight.analyze(model="vgg16", layer="CONV1", dataflow="KC-P")
            assert excinfo.value.status == 503
            assert "queue full" in excinfo.value.message
            assert tight.healthz()["status"] == "ok"

    def test_shutdown_drains(self):
        config = ServeConfig(port=0, allow_shutdown=True)
        with ThreadedServer(config) as threaded:
            brief = ServeClient(port=threaded.port, timeout=60.0)
            assert brief.healthz()["status"] == "ok"
            assert brief.shutdown()["status"] == "draining"

    def test_tracing_is_left_as_found(self):
        found = obs.is_enabled()
        try:
            for before in (False, True):
                obs.configure(enabled=before)
                with ThreadedServer(ServeConfig(port=0)):
                    assert obs.is_enabled()
                assert obs.is_enabled() is before
        finally:
            obs.configure(enabled=found)

    def test_shutdown_disabled_404(self, client):
        config = ServeConfig(port=0, allow_shutdown=False)
        with ThreadedServer(config) as threaded:
            locked = ServeClient(port=threaded.port, timeout=60.0)
            with pytest.raises(ServeError) as excinfo:
                locked.shutdown()
            assert excinfo.value.status == 404


class TestStreamHangup:
    """A streaming client that closes its socket cancels the sweep at the
    next shard; one that only half-closes after its request still gets
    the whole stream."""

    JOB = dict(DSE_JOB, layer="CONV5", max_pes=128, shards=4)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts shard sweeps; each takes at least 0.3 s, so a client's
        close lands while the second shard runs."""
        import repro.serve.shards

        calls = []
        sweep = repro.serve.shards.explore

        def slow(*args, **kwargs):
            calls.append(1)
            result = sweep(*args, **kwargs)
            time.sleep(0.3)
            return result

        monkeypatch.setattr(repro.serve.shards, "explore", slow)
        return calls

    @staticmethod
    def _open_stream(port, half_close):
        body = json.dumps(dict(TestStreamHangup.JOB, stream=True)).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        sock.sendall(
            b"POST /v1/dse HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        stream = sock.makefile("rb")
        assert stream.readline().startswith(b"HTTP/1.1 200")
        while stream.readline() not in (b"\r\n", b""):
            pass  # response head
        return sock, stream

    @staticmethod
    def _finished_job(client):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            (job,) = [j for j in client.jobs()["jobs"] if j["kind"] == "dse"]
            if job["state"] not in ("queued", "running"):
                return job
            time.sleep(0.05)
        raise AssertionError("the dse job never finished")

    def test_close_after_the_first_front_cancels_before_the_next_shard(self, calls):
        with ThreadedServer(ServeConfig(port=0, cache=False)) as threaded:
            client = ServeClient(port=threaded.port, timeout=60.0)
            sock, stream = self._open_stream(threaded.port, half_close=False)
            while json.loads(stream.readline())["event"] != "front":
                pass
            stream.close()
            sock.close()
            job = self._finished_job(client)
        # The second shard starts before the first front is written; the
        # close cancels the sweep before the third (4 calls without the
        # hang-up watch).
        assert len(calls) == 2
        assert job["state"] == "cancelled"

    def test_half_closed_client_gets_the_whole_stream(self, calls):
        with ThreadedServer(ServeConfig(port=0, cache=False)) as threaded:
            sock, stream = self._open_stream(threaded.port, half_close=True)
            events = [json.loads(line) for line in stream]
            stream.close()
            sock.close()
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted"] + ["front"] * 4 + ["result"]
        assert len(calls) == 4


class TestJobRecord:
    def test_last_subscriber_leaving_cancels_an_unfinished_job(self):
        from repro.serve.app import JobRecord

        async def scenario():
            record = JobRecord(id="job-1", kind="dse", key="k")
            first, second = record.subscribe(), record.subscribe()
            record.unsubscribe(first)
            assert not record.cancel.is_set()
            record.unsubscribe(second)
            assert record.cancel.is_set()

            done = JobRecord(id="job-2", kind="dse", key="k")
            queue = done.subscribe()
            done.publish({"event": "result"})
            done.unsubscribe(queue)
            assert not done.cancel.is_set()

        asyncio.run(scenario())


class TestProtocolUnits:
    def test_job_key_is_canonical(self):
        first = protocol.validate("dse", dict(DSE_JOB))
        second = protocol.validate(
            "dse", dict(DSE_JOB, stream=False, area=16.0)
        )
        assert protocol.job_key("dse", first) == protocol.job_key(
            "dse", second
        )

    def test_job_key_differs_across_kinds(self):
        norm = protocol.validate("dse", dict(DSE_JOB))
        assert protocol.job_key("dse", norm) != protocol.job_key("tune", norm)

    def test_normalized_docs_are_json(self):
        norm = protocol.validate("dse", dict(DSE_JOB))
        json.dumps(norm)  # must not raise
