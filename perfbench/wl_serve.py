"""serve-mixed: the job server over HTTP under a closed loop.

One ``python -m repro.server --port 0 --workers 2`` subprocess serves two
text datasets (flickr_like(n=400), ~4.7k edges) to 2 closed-loop clients, each
on its own keep-alive connection.  The mix: ~80% ``/sparsify`` over a
Zipf-skewed key set (see ``inputs.serve_keys``), ~10% ``/estimate`` RL,
~10% ``/update`` re-weighing 20 edges of dataset 0; dataset 1 holds the
hot keys and is never updated.
The artifact cache holds 8 entries and spills the rest to disk, so the
spill tier is exercised.  One operation is one request.

Checks: every response is 2xx; every body served for a (request, dataset
digest) key is byte-identical to the first one; no request sent after an
``/update`` returned is answered from the superseded digest.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from common import Result, e2e_metrics, median, percentile, timed_setups

CLIENTS = 2
WORKERS = 2
CACHE_SIZE = 8
TIMEOUT = 60.0
#: Requests pre-generated per client; far more than a run sends.
STREAM = 20_000
#: Share of the run spent filling the cache before latencies count:
#: a long-running server's users do not pay its cold start.
WARMUP = 0.25


class Server:
    """One server subprocess; :meth:`close` stops it and waits for it."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", str(WORKERS), "--cache-size", str(CACHE_SIZE),
             "--cache-spill-dir", str(workdir / "spill")],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.port = int(line.rsplit(":", 1)[1])
        except (ValueError, IndexError):
            self.close()
            raise RuntimeError(f"server did not report a port: {line!r}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background may
        # inherit SIGINT as ignored, and nothing here needs the server's
        # graceful shutdown.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _post(conn, path: str, body: dict):
    """One request; returns (status, cache header, body bytes)."""
    conn.request("POST", path, body=json.dumps(body),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.getheader("X-Repro-Cache"), \
        response.read()


class Traffic:
    """Shared client state: bodies by key and each dataset's digests."""

    def __init__(self, paths, digests) -> None:
        self.paths = paths
        self.lock = threading.Lock()
        self.update_lock = threading.Lock()
        self.history = {ds: [d] for ds, d in enumerate(digests)}
        self.bodies: dict = {}
        self.records: list = []   # (kind, hit, seconds, ok, client, start)
        self.errors: list = []
        self.measure_from = 0.0
        self.phase_seconds = 0.0

    def request(self, conn, client: int, req: dict) -> None:
        ds = req["dataset"]
        path = f"/{req['kind']}"
        body = {"dataset": self.paths[ds], **req["body"]}
        update = req["kind"] == "update"
        if update:
            self.update_lock.acquire()
        try:
            with self.lock:
                known = len(self.history[ds])
            start = time.perf_counter()
            try:
                status, cache, raw = _post(conn, path, body)
                ok = 200 <= status < 300
            except (OSError, http.client.HTTPException) as error:
                status, cache, raw, ok = 0, None, b"", False
                conn.close()  # reconnects on the next request
                with self.lock:
                    self.errors.append(f"{path}: {type(error).__name__}")
            seconds = time.perf_counter() - start
            if ok:
                self._check(ds, req, known, raw, update)
            elif status:
                with self.lock:
                    self.errors.append(f"{path} answered {status}")
        finally:
            if update:
                self.update_lock.release()
        with self.lock:
            self.records.append((req["kind"], cache == "hit", seconds, ok,
                                 client, start))

    def _check(self, ds, req, known, raw, update) -> None:
        document = json.loads(raw)
        with self.lock:
            history = self.history[ds]
            if update:
                if document["old_digest"] != history[-1]:
                    self.errors.append("update applied to an unexpected "
                                       "dataset version")
                history.append(document["digest"])
                return
            digest = document["digest"]
            if digest not in history[known - 1:]:
                self.errors.append(f"/{req['kind']} served digest {digest} "
                                   "superseded before the request was sent")
            key = (req["kind"], ds, json.dumps(req["body"], sort_keys=True),
                   digest)
            first = self.bodies.setdefault(key, raw)
            if first != raw:
                self.errors.append(f"/{req['kind']} body differs from the "
                                   "first one served for its key")


def _client(server, traffic, client, stream, deadline) -> None:
    conn = server.connect()
    try:
        for req in stream:
            if time.perf_counter() >= deadline:
                return
            traffic.request(conn, client, req)
    finally:
        conn.close()


def _drive(server, traffic, streams, seconds: float) -> float:
    """Run the closed loop for ``seconds``; returns the measured seconds.

    Requests started in the first ``WARMUP`` share of the run are checked
    like every other but left out of the latency and throughput figures.
    """
    start = time.perf_counter()
    traffic.measure_from = start + WARMUP * seconds
    deadline = start + seconds
    threads = [
        threading.Thread(target=_client,
                         args=(server, traffic, c, streams[c], deadline))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    end = time.perf_counter()
    traffic.phase_seconds = end - start
    return end - traffic.measure_from


def _write_datasets(workdir: Path):
    from repro.datasets.io import write_edge_list

    workdir.mkdir(parents=True, exist_ok=True)
    graphs = inputs.serve_graphs()
    paths = []
    for index, graph in enumerate(graphs):
        path = workdir / f"dataset{index}.txt"
        write_edge_list(graph, path)
        paths.append(str(path))
    edges = [(u, v) for u, v, _ in graphs[0].edges()]
    return paths, edges


def _boot(root: Path, workdir: Path, paths):
    """Start a server and register both datasets; (server, digests)."""
    server = Server(root, workdir)
    try:
        digests = []
        conn = server.connect()
        try:
            for path in paths:
                status, _, raw = _post(conn, "/estimate", {
                    "dataset": path, "query": "reliability", "samples": 1,
                    "pairs": 1, "seed": 0})
                if status != 200:
                    raise RuntimeError(f"dataset registration: {status}")
                digests.append(json.loads(raw)["digest"])
        finally:
            conn.close()
    except BaseException:
        server.close()
        raise
    return server, digests


def _latencies(traffic, kind=None, hit=None):
    """Latencies of the successful requests started after the warm-up."""
    return [s for k, h, s, ok, _, start in traffic.records
            if ok and start >= traffic.measure_from
            and (kind is None or k == kind) and (hit is None or h == hit)]


def run(seed: int, seconds: float, trace: bool) -> Result:
    root = Path(__file__).resolve().parent.parent
    workdir = root / ".perfbench_work" / f"serve-{os.getpid()}"
    result = Result()
    servers = []
    try:
        paths, edges = _write_datasets(workdir)
        streams = [inputs.serve_requests(seed, c, STREAM, edges)
                   for c in range(CLIENTS)]

        def boot():
            booted = _boot(root, workdir, paths)
            servers.append(booted[0])
            return booted

        # Wall time: the work happens in the server process, and a
        # request's median is its fixed ~40 ms delayed-ACK stall.
        setup_s, (server, digests) = timed_setups(
            boot, clock=time.perf_counter,
            release=lambda booted: booted[0].close())

        # A traced run replays the same streams against a second, fresh
        # server for the traced half of its budget.
        phases = 2 if trace else 1
        outcomes = []
        for phase in range(phases):
            if phase:
                server.close()  # one server at a time
                server, digests = boot()
            traffic = Traffic(paths, digests)
            wall = _drive(server, traffic, streams, seconds / phases)
            outcomes.append((server, traffic, wall))
            for error in traffic.errors:
                result.check(False, error)
            result.attempted += len(traffic.records)
            result.failed += sum(not r[3] for r in traffic.records)

        _, traffic, wall = outcomes[0]
        latencies = _latencies(traffic)
        result.summary = {
            "requests": len(latencies),
            "req_p50_s": median(latencies),
            "req_p95_s": percentile(latencies, 95),
            "req_per_s": len(latencies) / wall,
        }
        if not trace:
            result.metrics = e2e_metrics(setup_s, latencies, wall,
                                         peak_rss_mb=server.peak_rss_mb())
        else:
            # Bodies for a key must agree across the two phases too.
            first, second = outcomes[0][1].bodies, outcomes[1][1].bodies
            result.check(all(first[k] == second[k]
                             for k in set(first) & set(second)),
                         "traced bodies differ from the untraced run's")
            result.layers = _layers(*outcomes[1], untraced_wall=wall,
                                    untraced_count=len(latencies))
    finally:
        for srv in servers:
            srv.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _layers(server, traffic, wall, untraced_wall, untraced_count) -> dict:
    """Client-side split by request kind plus the server's own counters."""
    metrics = server.get("/metrics")
    queue = server.get("/status")["queue"]
    cache = metrics["cache"]

    def p50(kind, hit=None):
        values = _latencies(traffic, kind, hit)
        return median(values) if values else 0.0

    server_p50 = metrics["endpoints"].get("sparsify", {}) \
        .get("latency_s", {}).get("p50", 0.0)
    measured = [r for r in traffic.records if r[5] >= traffic.measure_from]
    return {
        "serve.sparsify_hit.p50_s": (p50("sparsify", True), "s"),
        "serve.sparsify_miss.p50_s": (p50("sparsify", False), "s"),
        "serve.estimate.p50_s": (p50("estimate"), "s"),
        "serve.update.p50_s": (p50("update"), "s"),
        "cache.hit_ratio": (cache["hit_rate"], "ratio"),
        "cache.invalidations": (cache["invalidations"], "count"),
        "cache.spill_hits": (cache.get("spill", {}).get("hits", 0), "count"),
        "queue.submitted": (queue["submitted"], "count"),
        "queue.rejected": (queue["rejected"], "count"),
        "api.overhead_p50_s": (p50("sparsify") - server_p50, "s"),
        "trace.coverage": (sum(r[2] for r in traffic.records)
                           / (CLIENTS * traffic.phase_seconds), "ratio"),
        "trace.overhead": ((wall / max(1, len(measured)))
                           / (untraced_wall / max(1, untraced_count)),
                           "ratio"),
    }
