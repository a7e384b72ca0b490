"""Shared measurement helpers: percentiles, host context, memory, results.

Nothing here imports :mod:`repro`; the workload modules do, so that
``setup_s`` covers the package import.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Wall time of one ``_reference_once()`` on the reference host state
#: (this benchmark's 2-CPU host when its cores are uncontended).  Timed
#: metrics are reported scaled to it; see NOTES.md.
REFERENCE_MS = 2.0

#: Every run holds at least this many timed ops, so ``op_ms_p95`` has
#: ten or more samples beyond it wherever an op is cheap enough.
MIN_OPS = 200


def percentile(values: list[float], q: float) -> float:
    """Percentile (``q`` in [0, 1]) of a non-empty list, interpolated
    linearly between order statistics (Hyndman-Fan type 7, numpy's
    default).  On a run of a few dozen ops it blends the top order
    statistics instead of returning the single slowest op."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's children list)."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                out.extend(int(tok) for tok in f.read().split())
        except OSError:
            continue
    return sorted(set(out))


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def _src_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (names and bytes), for checkouts
    that carry no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_context(reference_start_ms: float, reference_end_ms: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "reference_ms_start": reference_start_ms,
        "reference_ms_end": reference_end_ms,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(record: dict, result: dict) -> None:
    """Print the detail record, then the one-line result (always last)."""
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


class _RefNode:
    __slots__ = ("label", "kids")

    def __init__(self, label: str, kids: list) -> None:
        self.label = label
        self.kids = kids


def _reference_once() -> float:
    """One run of the reference snippet, in ms, with the collector off."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        nodes = [_RefNode(f"n{i % 97}", []) for i in range(1200)]
        for i in range(1, len(nodes)):
            nodes[(i - 1) // 3].kids.append(nodes[i])
        seen: dict[tuple, int] = {}
        stack = [(nodes[0], ())]
        while stack:
            node, path = stack.pop()
            key = path[-2:] + (node.label,)
            seen[key] = seen.get(key, 0) + 1
            stack.extend((kid, key) for kid in node.kids)
        ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
        "".join(k[-1] for k, _ in ordered[:200])
        return (time.perf_counter() - start) * 1000.0
    finally:
        if gc_was_enabled:
            gc.enable()


def reference_ms() -> float:
    """Current host speed: median of three runs of a fixed snippet.

    The snippet is stdlib-only object churn (build, walk and index a
    1,200-node tree), the same kind of work the engine does, so it slows
    down with the engine when the host does.
    """
    return statistics.median(_reference_once() for _ in range(3))


def normalize(ms: float, ref_ms: float) -> float:
    """Scale a wall time taken while the reference read ``ref_ms`` to a
    host on which it reads :data:`REFERENCE_MS`."""
    return ms * REFERENCE_MS / ref_ms


class TimedLoop:
    """Closed-loop op timer: runs until ``seconds`` elapsed and at least
    ``min_ops`` ops were attempted.

    ``record(latency_s, ok)`` is called once per op; failed ops count
    toward ``attempted`` and ``failed`` but contribute no latency sample.
    Work inside ``with loop.paused():`` (a correctness gate between ops)
    is left out of the timed wall time.  Between ops, at most every
    ``REFERENCE_EVERY_S``, the loop samples :func:`reference_ms` (paused);
    each op's latency is normalized by the mean of the samples before and
    after it, and each stretch of wall time by the samples bracketing it.
    """

    REFERENCE_EVERY_S = 0.2

    def __init__(self, seconds: float, min_ops: int = MIN_OPS) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self._start = 0.0
        self._paused_s = 0.0
        self._refs: list[float] = []
        self._ref_at: list[float] = []  # active seconds at each sample
        self._slots: list[int] = []  # samples taken before each op
        self._last_ref = 0.0

    def __enter__(self) -> "TimedLoop":
        self._start = time.perf_counter()
        self._sample()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = self._elapsed()
        self._sample()

    def _elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused_s

    def _sample(self) -> None:
        with self.paused():
            self._refs.append(reference_ms())
        self._ref_at.append(self._elapsed())
        self._last_ref = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - start

    def tick(self) -> None:
        """Take a host-speed sample if one is due; call between ops."""
        if time.perf_counter() - self._last_ref >= self.REFERENCE_EVERY_S:
            self._sample()

    def running(self) -> bool:
        self.tick()
        return self.attempted < self.min_ops or self._elapsed() < self.seconds

    def record(self, latency_s: float, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.latencies_ms.append(latency_s * 1000.0)
            self._slots.append(len(self._refs))
        else:
            self.failed += 1

    def _bracket(self, slot: int) -> float:
        return (self._refs[slot - 1] + self._refs[slot]) / 2.0

    def summary(self) -> dict:
        raw = self.latencies_ms
        lat = [normalize(ms, self._bracket(k)) for ms, k in zip(raw, self._slots)]
        wall = sum(
            normalize(self._ref_at[j + 1] - self._ref_at[j], self._bracket(j + 1))
            for j in range(len(self._refs) - 1)
        )
        done = self.attempted - self.failed
        p95 = percentile(lat, 0.95) if lat else None
        return {
            "op_ms_p50": median(lat) if lat else None,
            "op_ms_p95": p95,
            "ops_per_s": done / wall if wall else None,
            "samples": len(lat),
            "samples_beyond_p95": sum(ms > p95 for ms in lat) if lat else 0,
            "latency_ms_deciles": [percentile(lat, q / 10) for q in range(11)]
            if lat
            else [],
            "raw": {
                "op_ms_p50": median(raw) if raw else None,
                "op_ms_p95": percentile(raw, 0.95) if raw else None,
                "ops_per_s": done / self.wall_s if self.wall_s else None,
                "timed_wall_s": self.wall_s,
            },
            "reference_ms": {
                "samples": len(self._refs),
                "min": min(self._refs),
                "median": median(self._refs),
                "max": max(self._refs),
            },
        }
