"""``check_service``: closed-loop ``/v1/check`` against a 2-shard cluster.

``repro cluster serve --shards 2`` runs as a subprocess (a router plus
two shard processes); one client thread sends one request at a time over
one persistent connection and waits for each reply.  The request stream
is a pure function of the seed, drawn from a fixed pool of linear reads
and updates over the 8 disjoint roots of ``catalogue_10k``, in three
classes:

* 64% read/read pairs, answered trivially;
* 20% first-seen pairs, which the owning shard decides;
* 16% repeats of a pair already sent, answered from the shard's
  ``VerdictCache``.

In both of the last two classes 8 in 9 pairs are read/update and 1 in 9
update/update.  Every request carries ``budget=0``.

The shares are those of a client checking pairs of ``catalogue_10k``'s
catalogue, where 4 in 5 names are reads: each side of a pair is a read
with probability 4/5, so 16/25 of the pairs are read/read and the rest
split read/update to update/update as 8 to 1.  Of the non-trivial 36%,
the decided share is held at 20% (the rest are repeats), well away from
5%, where ``op_ms_p95`` would straddle two classes.

One op is one request.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

from repro.cluster.config import ClusterConfig
from repro.cluster.hashring import HashRing
from repro.cluster.router import ClusterRouter
from repro.conflicts.batch import CanonicalOp, VerdictCache
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.errors import ReproError
from repro.obs.metrics import Histogram, histogram_delta
from repro.service.client import ServiceClient
from repro.service.protocol import op_from_spec

from harness import MIN_OPS, ROOT, SRC, TimedLoop, child_pids, median, peak_rss_mb_pid
from layers import LayerTotals, timed_detect
from wl_catalogue import LEAVES, ROOTS, SECTIONS

SHARDS = 2
#: The request knob every request carries: no exhaustive witness search.
BUDGET = 0
CONFIG = DetectorConfig(exhaustive_cap=BUDGET)
#: ``unknown_ratio`` is taken over this fixed prefix of the stream.
UNKNOWN_PREFIX = 4000
#: Requests per pass of the traced run.
TRACED_REQUESTS = 2000

READS = (
    [f"{r}/{s}/{leaf}" for r in ROOTS for s in SECTIONS for leaf in LEAVES]
    + [f"{r}//{leaf}" for r in ROOTS for leaf in LEAVES]
    + [f"{r}/{s}//{leaf}" for r in ROOTS for s in SECTIONS for leaf in LEAVES]
)
UPDATES = [
    {"op": "insert", "xpath": f"{r}/{s}", "xml": f"<{leaf}/>"}
    for r in ROOTS for s in SECTIONS for leaf in LEAVES
] + [
    {"op": "delete", "xpath": f"{r}/{s}/{leaf}"}
    for r in ROOTS for s in SECTIONS for leaf in LEAVES
]


def _read(rng: random.Random) -> dict:
    return {"op": "read", "xpath": rng.choice(READS)}


#: One block of the stream: 16 read/read pairs, 5 first-seen pairs and 4
#: repeats in 25 requests (see the module docstring for the derivation).
BLOCK = ["trivial"] * 16 + ["new"] * 5 + ["repeat"] * 4
#: Every ninth first-seen pair and every ninth repeat is update/update,
#: the rest read/update, so the 8 : 1 split is exact in both classes.
UPDATE_UPDATE_EVERY = 9


def stream(seed: int):
    """Yield ``(first_spec, second_spec)`` requests forever.

    Every block of :data:`BLOCK` requests holds its classes in seeded
    order.  A repeat whose kind has not been sent yet is sent first-seen.
    """
    rng = random.Random(f"check_service:{seed}")
    seen: dict[str, list[tuple[dict, dict]]] = {"ru": [], "uu": []}
    seen_keys: set[str] = set()
    drawn = {"new": 0, "repeat": 0}
    block = list(BLOCK)
    while True:
        rng.shuffle(block)
        for cls in block:
            if cls == "trivial":
                yield (_read(rng), _read(rng))
                continue
            nth = drawn[cls]
            drawn[cls] += 1
            kind = "uu" if nth % UPDATE_UPDATE_EVERY == UPDATE_UPDATE_EVERY - 1 else "ru"
            if cls == "repeat" and seen[kind]:
                yield rng.choice(seen[kind])
                continue
            while True:
                if kind == "uu":
                    pair = (rng.choice(UPDATES), rng.choice(UPDATES))
                else:
                    pair = (_read(rng), rng.choice(UPDATES))
                key = json.dumps(pair, sort_keys=True)
                if key not in seen_keys:
                    break
            seen_keys.add(key)
            seen[kind].append(pair)
            yield pair


_RING = HashRing(range(SHARDS), replicas=ClusterConfig().hash_replicas)


def owner(first: dict, second: dict) -> int:
    """The shard the router sends this pair to."""
    key = ClusterRouter.routing_key("/v1/check", {"first": first, "second": second})
    return _RING.route(key)


def method_class(method: str) -> str:
    if method == "read-read-trivial":
        return "read_read_trivial"
    if method == "verdict-cache":
        return "verdict_cache"
    return "decided"


class Cluster:
    """One ``repro cluster serve`` subprocess tree, ready to serve."""

    def __init__(self, trace: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_FOR_SHARDS", None)
        if trace:
            env["REPRO_TRACE"] = "1"
        else:
            env.pop("REPRO_TRACE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "serve",
             "--shards", str(SHARDS), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self.shard_pids: list[int] = []
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"cluster did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self.client = ServiceClient(port=self.port)
            deadline = time.monotonic() + 60.0
            while True:
                health = self.client.healthz()
                if health.get("status") == "ok":
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"cluster not healthy: {health}")
                time.sleep(0.05)
            self.shard_ports = {
                int(sid): view["port"] for sid, view in health["shards"].items()
            }
            self.shard_pids = child_pids(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb_pid(pid) for pid in [self.proc.pid] + self.shard_pids)

    def stop(self) -> None:
        """SIGTERM the router (it drains and stops its shards), then make
        sure every process of the tree has ended."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in self.shard_pids):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def send(client: ServiceClient, first: dict, second: dict) -> tuple[float, dict | None]:
    """One request; ``(seconds, response)``, response ``None`` if refused
    or failed."""
    start = time.perf_counter()
    try:
        response = client.check(first, second, budget=BUDGET)
    except ReproError:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, response


class InProcessShards:
    """The shard's ``/v1/check`` decision path, in this process: one
    verdict cache per shard, one fresh detector per decision, with the
    canonicalize and decide layers timed into ``totals``."""

    def __init__(self) -> None:
        self.caches = [VerdictCache() for _ in range(SHARDS)]
        self.fingerprint = CONFIG.fingerprint()
        self.totals = LayerTotals()
        self.distinct: set = set()

    def check(self, shard: int, first_spec: dict, second_spec: dict) -> tuple[float, str, str]:
        """``(seconds, method class, verdict)`` of one request."""
        start = time.perf_counter()
        first, second = op_from_spec(first_spec), op_from_spec(second_spec)
        t0 = time.perf_counter()
        canon_a = CanonicalOp.from_operation(first)
        canon_b = CanonicalOp.from_operation(second)
        self.totals.add_ms("canonicalize", (time.perf_counter() - t0) * 1000.0)
        self.totals.add_count("canonicalize.calls", 2)
        self.distinct.update((canon_a.key, canon_b.key))
        if canon_a.is_read and canon_b.is_read:
            return time.perf_counter() - start, "read_read_trivial", "no-conflict"
        cache = self.caches[shard]
        key = VerdictCache.pair_key(self.fingerprint, canon_a, canon_b)
        hit = cache.get(key)
        if hit is not None:
            return time.perf_counter() - start, "verdict_cache", hit.value
        report = timed_detect(ConflictDetector(config=CONFIG), first, second, self.totals)
        if report.reason is None:
            cache.put(key, report.verdict)
        return time.perf_counter() - start, "decided", report.verdict.value


def _pass(client_for, requests) -> tuple[list[float], list[str], list, float]:
    """Send every request through ``client_for(first, second)``: per-request
    seconds, method classes and verdicts, and the pass's wall seconds."""
    latencies, methods, verdicts = [], [], []
    start = time.perf_counter()
    for first, second in requests:
        elapsed, response = send(client_for(first, second), first, second)
        latencies.append(elapsed)
        methods.append(method_class(response["method"]) if response else "failed")
        verdicts.append(response["verdict"] if response else None)
    return latencies, methods, verdicts, time.perf_counter() - start


def _shard_snapshots(cluster: Cluster) -> list[dict]:
    out = []
    for port in cluster.shard_ports.values():
        with ServiceClient(port=port) as client:
            out.append(client.metrics())
    return out


def _merged_p50(before: list[dict], after: list[dict], name: str) -> float:
    merged = Histogram()
    for b, a in zip(before, after):
        delta = histogram_delta(a["histograms"].get(name, {}), b["histograms"].get(name))
        if delta:
            merged.absorb(delta)
    return merged.quantile(0.5) or 0.0


def _counter_delta(before: list[dict], after: list[dict], name: str) -> int:
    return sum(a["counters"].get(name, 0) - b["counters"].get(name, 0) for b, a in zip(before, after))


class Workload:
    name = "check_service"
    min_ops = max(MIN_OPS, UNKNOWN_PREFIX)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = Cluster()
        self.stream = stream(seed)
        self.answers: dict[str, tuple[dict, dict, str]] = {}
        self.inconsistent = 0
        self.rss_mb = 0.0
        _, response = send(self.cluster.client, *next(stream(seed + 1_000_003)))  # warm-up op
        if response is None:
            raise RuntimeError("warm-up request failed")

    def run(self, loop: TimedLoop) -> dict:
        unknown = 0
        classes: dict[str, int] = {}
        client = self.cluster.client
        while loop.running():
            with loop.paused():
                first, second = next(self.stream)
            elapsed, response = send(client, first, second)
            ok = response is not None and not response.get("degraded")
            loop.record(elapsed, ok)
            if response is None:
                continue
            with loop.paused():
                verdict = response["verdict"]
                if loop.attempted <= UNKNOWN_PREFIX and verdict == "unknown":
                    unknown += 1
                cls = method_class(response["method"])
                classes[cls] = classes.get(cls, 0) + 1
                key = json.dumps([first, second], sort_keys=True)
                known = self.answers.setdefault(key, (first, second, verdict))
                if known[2] != verdict:
                    self.inconsistent += 1
        self.rss_mb = self.cluster.peak_rss_mb()
        return {"unknown_ratio": unknown / UNKNOWN_PREFIX, "classes": classes}

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def check(self) -> dict:
        """Every verdict equals an in-process ``ConflictDetector`` verdict."""
        detector = ConflictDetector(config=CONFIG)
        wrong = []
        for first, second, verdict in self.answers.values():
            expected = detector.detect(op_from_spec(first), op_from_spec(second)).verdict.value
            if expected != verdict:
                wrong.append([first, second, verdict, expected])
        problems = wrong[:3]
        if self.inconsistent:
            problems.append(f"{self.inconsistent} repeats changed verdict")
        return {"ok": not problems, "problems": problems, "pairs_checked": len(self.answers)}

    def trace(self) -> tuple[dict, list[str]]:
        gen = stream(self.seed)
        requests = [next(gen) for _ in range(TRACED_REQUESTS)]
        self.cluster.stop()
        problems: list[str] = []

        # Pass A: through the router, untraced, with the program's own
        # shard and router metrics read before and after.
        cluster = Cluster()
        try:
            shards_before = _shard_snapshots(cluster)
            router_before = cluster.client.metrics()
            routed, methods, verdicts, wall_a = _pass(lambda f, s: cluster.client, requests)
            shards_after = _shard_snapshots(cluster)
            router_after = cluster.client.metrics()
        finally:
            cluster.stop()

        # Pass C, next to A in time: a fresh cluster with the program's span tracing on.
        cluster = Cluster(trace=True)
        try:
            _, _, _, wall_c = _pass(lambda f, s: cluster.client, requests)
        finally:
            cluster.stop()

        # Pass B: a fresh cluster, each request sent straight to its shard.
        cluster = Cluster()
        try:
            clients = {sid: ServiceClient(port=port) for sid, port in cluster.shard_ports.items()}
            direct, direct_methods, direct_verdicts, _ = _pass(
                lambda f, s: clients[owner(f, s)], requests
            )
            for client in clients.values():
                client.close()
        finally:
            cluster.stop()

        # In-process replay of the shard's decision path, shards' caches cold.
        shards = InProcessShards()
        inproc, inproc_methods, inproc_verdicts = [], [], []
        for first, second in requests:
            elapsed, cls, verdict = shards.check(owner(first, second), first, second)
            inproc.append(elapsed)
            inproc_methods.append(cls)
            inproc_verdicts.append(verdict)

        if not (methods == direct_methods == inproc_methods):
            problems.append("method classes differ between router, direct and in-process passes")
        if not (verdicts == direct_verdicts == inproc_verdicts):
            problems.append("verdicts differ between router, direct and in-process passes")
        if "failed" in methods:
            problems.append(f"{methods.count('failed')} traced requests failed")

        route_key = "cluster.request_ms{route=/v1/check}"
        router_delta = histogram_delta(
            router_after["histograms"].get(route_key, {}), router_before["histograms"].get(route_key)
        ) or {"sum": 0.0, "count": 0}
        hits = _counter_delta(shards_before, shards_after, "service.verdict_cache_hits")
        misses = _counter_delta(shards_before, shards_after, "service.verdict_cache_misses")
        n = len(requests)
        client_ms = sum(routed) * 1000.0
        layers = {
            "ops": n,
            "service.queue_wait_ms_p50": _merged_p50(shards_before, shards_after, "service.queue_wait_ms"),
            "service.exec_ms_p50": _merged_p50(shards_before, shards_after, "service.exec_ms"),
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "router.hop_ms_p50": median([(a - b) * 1000.0 for a, b in zip(routed, direct)]),
            "shard.hop_ms_p50": median([(b - c) * 1000.0 for b, c in zip(direct, inproc)]),
            "op.ms": client_ms / n,
            "unattributed.ms": (client_ms - router_delta["sum"]) / n,
            "attributed_ratio": router_delta["sum"] / client_ms,
            "trace_overhead_ratio": wall_c / wall_a,
        }
        for cls in ("read_read_trivial", "verdict_cache", "decided"):
            layers[f"service.method.{cls}"] = methods.count(cls)
        shards.totals.ops = n
        shards.totals.add_count("canonicalize.distinct", len(shards.distinct))
        for key, value in shards.totals.per_layer().items():
            if key.startswith(("canonicalize.", "decide.")):
                layers[key] = value
        return layers, problems

    def close(self) -> None:
        self.cluster.stop()
