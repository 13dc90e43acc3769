"""The ``serve-mixed`` workload: a ``repro serve`` subprocess under mixed load.

One client process, two threads, at most one connection each:

- an open-loop, seeded Poisson stream of single-layer ``analyze``
  requests, sent on a precomputed schedule and timed from each
  request's due time (a stall delays every request behind it, and that
  wait is counted); about half repeat an earlier (layer, dataflow, PEs)
  tuple and read the server's cache, the rest are first seen and write
  it;
- a paced closed loop of sharded, streamed ``dse`` jobs, like a user
  who reads each front before asking for the next: the pool of jobs
  once in seeded order, then a few seeded repeats, each job sent at its
  due time or when the previous one has ended, whichever is later.

Right before and right after each dse job, while no analyze request is
in flight, the client samples the host's speed (``common.calibrate``):
neither stream gives the server work while a sample runs. Every job and
request is scaled by the samples on either side of it.

The server under load is started exactly as a user would start it. The
set-up probes boot it through ``serve_boot.py``, which times numpy's
import first, and the traced run through ``serve_traced.py``, which
installs the ledger's wrappers first.
"""

from __future__ import annotations

import math
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from common import (
    HERE,
    NUMPY_IMPORT,
    ROOT,
    Op,
    calibrate,
    child_env,
    digest,
    host_factor,
    numpy_import_seconds,
    peak_rss_mb,
)
from inproc import dse_counts
from repro.serve.client import ServeClient, ServeError

#: Analyze requests per second. On an idle server the seed answers one
#: in about 22 ms (reference machine), so the stream alone keeps the
#: event loop about a tenth busy.
ANALYZE_RATE = 5.0
#: Enough requests that ten lie beyond the reported p95.
MIN_ANALYZE = 200
#: Share of analyze requests that repeat an earlier tuple.
REPEAT_SHARE = 0.5
#: Dse jobs a schedule repeats after its pass over the pool.
DSE_REPEATS = 2
#: The hardware grid of every dse job (Fig-13 axes, half the PE range).
DSE_GRID = {"max_pes": 256, "pe_step": 16, "max_bandwidth": 128}
#: Seconds before a request counts as timed out.
REQUEST_TIMEOUT = 60.0
SERVE_ARGS = ["--port", "0", "--max-concurrency", "2", "--shards", "2"]
#: ``repro serve`` as a user starts it.
PLAIN = ["-m", "repro.cli", "serve", *SERVE_ARGS]
#: The same server, with numpy's import timed first (set-up probes).
BOOT_PROBE = [str(HERE / "serve_boot.py"), *SERVE_ARGS]


def traced_server(dump: Path) -> List[str]:
    """The same server with the ledger's wrappers; spans go to ``dump`` at exit."""
    return [str(HERE / "serve_traced.py"), str(dump)]


def analyze_doc(key: str) -> Dict[str, Any]:
    """``model/layer|dataflow|pes`` as an analyze request body."""
    layer, flow, pes = key.split("|")
    model, name = layer.split("/")
    return {"model": model, "layer": name, "dataflow": flow, "accelerator": {"pes": int(pes)}}


def dse_doc(key: str) -> Dict[str, Any]:
    """``model/layer|family`` as a dse request body."""
    layer, family = key.split("|")
    model, name = layer.split("/")
    return {"model": model, "layer": name, "dataflow": family, **DSE_GRID}


@dataclass(frozen=True)
class Schedule:
    """One run's inputs: analyze arrivals and dse jobs, each with its due time."""

    arrivals: Tuple[Tuple[float, str], ...]
    dse_jobs: Tuple[Tuple[float, str], ...]

    def first_half(self) -> "Schedule":
        """The first half of the arrivals and the dse jobs due before it ends."""
        arrivals = self.arrivals[: len(self.arrivals) // 2]
        end = arrivals[-1][0]
        return Schedule(arrivals, tuple(job for job in self.dse_jobs if job[0] <= end))


def make_schedule(
    seed: int, seconds: float, analyze_keys: List[str], dse_keys: List[str]
) -> Schedule:
    """Seeded arrivals (Poisson at :data:`ANALYZE_RATE`) and paced dse jobs.

    The arrivals are a Poisson process conditioned on its count: that
    many uniform draws over ``count / ANALYZE_RATE`` seconds, sorted. So
    every seed's schedule lasts as long, and the dse jobs paced over it
    keep the server sweeping for the same share of it.
    """
    rng = random.Random(seed)
    count = max(MIN_ANALYZE, math.ceil(ANALYZE_RATE * seconds))
    length = count / ANALYZE_RATE
    unseen = rng.sample(sorted(analyze_keys), len(analyze_keys))
    seen: List[str] = []
    arrivals = []
    for due in sorted(rng.uniform(0.0, length) for _ in range(count)):
        if seen and rng.random() < REPEAT_SHARE:
            key = rng.choice(seen)
        else:
            key = unseen.pop()
            seen.append(key)
        arrivals.append((due, key))
    # The pool once in seeded order, then a few repeats that read the
    # cache; due times spread the jobs evenly over the analyze stream.
    pool = sorted(dse_keys)
    jobs = rng.sample(pool, len(pool)) + rng.sample(pool, DSE_REPEATS)
    period = length / len(jobs)
    return Schedule(
        arrivals=tuple(arrivals),
        dse_jobs=tuple((index * period, key) for index, key in enumerate(jobs)),
    )


class Server:
    """A server subprocess on an ephemeral port; boot time is measured."""

    def __init__(self, args: List[str] = PLAIN) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            lines = self._read_until_listening()
            self.port = int(lines[-1].strip().rsplit(":", 1)[1])
            client = ServeClient(port=self.port, timeout=5.0)
            while True:
                try:
                    client.healthz()
                    break
                except (OSError, ServeError):
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - start
        #: What a :data:`BOOT_PROBE` server reported for ``import numpy``.
        self.numpy_import_seconds = (
            numpy_import_seconds(lines) if any(NUMPY_IMPORT in line for line in lines) else 0.0
        )

    def _read_until_listening(self) -> List[str]:
        assert self.process.stdout is not None
        lines = []
        for line in self.process.stdout:
            lines.append(line)
            if "listening on http://" in line:
                return lines
        raise RuntimeError("server exited before listening")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class LoadResult:
    """What the client saw during one pass of the schedule."""

    window_ns: Tuple[int, int] = (0, 0)
    #: One op per analyze request, timed from its due time.
    analyze: List[Op] = field(default_factory=list)
    #: One op per dse job, timed from its send to its final front.
    dse: List[Op] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: Wall-clock intervals (``time.time_ns``) with a request outstanding.
    in_flight_ns: List[Tuple[int, int]] = field(default_factory=list)
    #: Sweep and screen tallies of the completed dse jobs.
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.analyze) + len(self.dse)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.analyze + self.dse)


def drive(port: int, schedule: Schedule, expected: Dict[str, Any]) -> LoadResult:
    """Run the schedule against a server; check every response."""
    result = LoadResult()
    client = ServeClient(port=port, timeout=REQUEST_TIMEOUT)
    # Set only if the analyze stream fails: the dse stream then stops too.
    stopped = threading.Event()
    # Held while an analyze request is in flight and while a host sample
    # runs, so a sample never overlaps either stream's work.
    quiet = threading.Lock()
    samples: List[float] = []
    # Every op with the index of the last sample taken before it.
    placed: List[Tuple[Op, int]] = []

    def sample() -> None:
        with quiet:
            samples.append(calibrate())

    def dse_loop() -> None:
        for due, key in schedule.dse_jobs:
            if stopped.wait(max(0.0, start + due - time.perf_counter())):
                break
            sample()
            op = Op(f"dse {key}", 0.0, 0, False)
            placed.append((op, len(samples) - 1))
            began, sent_ns = time.perf_counter(), time.time_ns()
            try:
                final: Dict[str, Any] = {}
                for event in client.dse_stream(**dse_doc(key)):
                    final = event
                op.seconds = time.perf_counter() - began
                got = {"front": digest(final["front"]), "optima": digest(final["optima"])}
                stats = SimpleNamespace(**final["statistics"])
                op.points = stats.explored
                op.ok = got == expected["dse"][key]
                if not op.ok:
                    op.error = f"digest {got} != {expected['dse'][key]}"
                for name, value in dse_counts(stats, {}).items():
                    result.counts[name] = result.counts.get(name, 0) + value
            except (ServeError, OSError, ValueError, KeyError) as error:
                op.seconds = time.perf_counter() - began
                op.error = str(error)
            result.in_flight_ns.append((sent_ns, time.time_ns()))
            result.dse.append(op)
            sample()

    sample()
    start = time.perf_counter()
    start_ns = time.time_ns()
    dse_thread = threading.Thread(target=dse_loop, name="perfbench-dse")
    dse_thread.start()
    try:
        for due, key in schedule.arrivals:
            due_at = start + due
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            result.lateness.append(time.perf_counter() - due_at)
            with quiet:
                sent_ns = time.time_ns()
                op = request(client, key, expected, due_at)
                result.in_flight_ns.append((sent_ns, time.time_ns()))
                placed.append((op, len(samples) - 1))
            result.analyze.append(op)
    except BaseException:
        stopped.set()
        raise
    finally:
        dse_thread.join()
    result.window_ns = (start_ns, time.time_ns())
    sample()
    for op, index in placed:
        op.factor = host_factor(samples[index], samples[index + 1])
    result.errors = [f"{op.key}: {op.error}" for op in result.analyze + result.dse if op.error]
    return result


def request(client: ServeClient, key: str, expected: Dict[str, Any], due_at: float) -> Op:
    """One analyze request, timed from its due time."""
    op = Op(f"analyze {key}", 0.0, 0, False)
    try:
        body = client.analyze(**analyze_doc(key))
        got = digest(body["layers"][0]["report"])
        op.ok = body["layers"][0]["ok"] and got == expected["analyze"][key]
        if not op.ok:
            op.error = f"digest {got} != {expected['analyze'][key]}"
    except (ServeError, OSError, ValueError, KeyError) as error:
        op.error = str(error)
    op.seconds = time.perf_counter() - due_at
    return op
