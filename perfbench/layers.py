"""Per-layer attribution of one ``repro.analyze()`` op.

The traced run re-runs each layer's public function on the inputs the op
used, timed from here: ``CanonicalOp.from_operation`` (canonicalize),
``profile_pattern`` and ``PatternIndex.discharge`` (index), and
``ConflictDetector.detect`` on every unique pair the op decided
(decide).  Precompile and containment come from the program's own
instruments (the ``batch.precompile`` span and the
``batch.stage_ms{stage=containment}`` histogram).  Whatever the op wall
time holds beyond these is reported as ``unattributed.ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import AnalysisConfig, analyze, obs
from repro.conflicts.batch import CanonicalOp
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.index import PatternIndex, profile_pattern
from repro.obs.metrics import MetricsRegistry, global_metrics
from repro.obs.sinks import RingBufferSink
from repro.operations.ops import Read

#: Counts that must repeat exactly across two traced passes on one seed.
EXACT_COUNTS = (
    "canonicalize.calls",
    "canonicalize.distinct",
    "index.pairs_examined",
    "index.pairs_discharged",
    "containment.pairs_discharged",
    "decide.pairs",
    "decide.linear.pairs",
    "decide.general.pairs",
    "decide.update_update.pairs",
)


def decide_path(first, second) -> str:
    """Which decision procedure ``ConflictDetector.detect`` dispatches to."""
    if isinstance(first, Read) and isinstance(second, Read):
        return "trivial"
    if not isinstance(first, Read) and not isinstance(second, Read):
        return "update_update"
    read = first if isinstance(first, Read) else second
    return "linear" if read.pattern.is_linear else "general"


def timed_detect(detector: ConflictDetector, first, second, totals: "LayerTotals"):
    """``detector.detect(first, second)``, timed into the decide layer."""
    path = decide_path(first, second)
    start = time.perf_counter()
    report = detector.detect(first, second)
    elapsed = (time.perf_counter() - start) * 1000.0
    totals.add_ms("decide", elapsed)
    totals.add_ms(f"decide.{path}", elapsed)
    totals.add_ms(f"decide.{report.verdict.value.replace('-', '_')}", elapsed)
    totals.add_count("decide.pairs", 1)
    totals.add_count(f"decide.{path}.pairs", 1)
    return report


def _compile_counts() -> tuple[int, int]:
    counters = global_metrics().snapshot()["counters"]
    hits = sum(v for k, v in counters.items() if k.startswith("compile.") and k.endswith(".hits"))
    misses = sum(
        v for k, v in counters.items() if k.startswith("compile.") and k.endswith(".misses")
    )
    return hits, misses


@dataclass
class LayerTotals:
    """Per-layer times (ms) and counts summed over the ops replayed."""

    ops: int = 0
    op_ms: float = 0.0
    traced_op_ms: float = 0.0
    warm_op_ms: float = 0.0
    ms: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    def add_ms(self, key: str, value: float) -> None:
        self.ms[key] = self.ms.get(key, 0.0) + value

    def add_count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def exact_counts(self) -> dict[str, int]:
        return {key: self.counts.get(key, 0) for key in EXACT_COUNTS}

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics: ``*.ms`` are means per op."""
        n = max(1, self.ops)
        c = self.counts
        out: dict[str, float] = {"ops": self.ops}
        for key in (
            "canonicalize", "precompile", "index", "containment", "decide",
            "decide.linear", "decide.general", "decide.update_update",
            "decide.conflict", "decide.no_conflict", "decide.unknown",
        ):
            out[f"{key}.ms"] = self.ms.get(key, 0.0) / n
        for key in EXACT_COUNTS:
            out[key] = c.get(key, 0)
        out["canonicalize.useful_ratio"] = (
            c.get("canonicalize.distinct", 0) / c["canonicalize.calls"]
            if c.get("canonicalize.calls") else 0.0
        )
        out["index.discharge_ratio"] = (
            c.get("index.pairs_discharged", 0) / c["index.pairs_examined"]
            if c.get("index.pairs_examined") else 0.0
        )
        lookups = c.get("compile.hits", 0) + c.get("compile.misses", 0)
        out["compile.hit_ratio"] = c.get("compile.hits", 0) / lookups if lookups else 0.0
        attributed = sum(
            self.ms.get(key, 0.0)
            for key in ("canonicalize", "precompile", "index", "containment", "decide")
        )
        out["op.ms"] = self.op_ms / n
        out["unattributed.ms"] = (self.op_ms - attributed) / n
        out["attributed_ratio"] = attributed / self.op_ms if self.op_ms else 0.0
        out["trace_overhead_ratio"] = (
            self.traced_op_ms / self.warm_op_ms if self.warm_op_ms else 0.0
        )
        return out


def _timed_analyze(catalogue: dict, config: DetectorConfig, registry=None):
    analysis = AnalysisConfig(detector=config, registry=registry)
    start = time.perf_counter()
    matrix = analyze(catalogue, config=analysis)
    return matrix, (time.perf_counter() - start) * 1000.0


def trace_op(
    catalogue: dict, config: DetectorConfig, totals: LayerTotals, overhead_pairs: int = 1
) -> None:
    """Attribute one ``analyze(catalogue)`` op to its layers into ``totals``.

    Runs the op untraced (its wall time is the attribution base), then
    with the program's span tracing on (the overhead numerator, and the
    ``batch.precompile`` span), then untraced again (the overhead
    denominator) -- ``overhead_pairs`` alternations of the two -- then
    replays each layer.
    """
    registry = MetricsRegistry()
    hits0, misses0 = _compile_counts()
    matrix, op_ms = _timed_analyze(catalogue, config, registry)
    hits1, misses1 = _compile_counts()
    # The overhead pairs run with equally warm compile caches.
    for _ in range(overhead_pairs):
        with obs.tracing(RingBufferSink(capacity=1 << 16)) as ring:
            traced_matrix, traced_ms = _timed_analyze(catalogue, config)
        _, warm_ms = _timed_analyze(catalogue, config)
        totals.traced_op_ms += traced_ms
        totals.warm_op_ms += warm_ms
    totals.ops += 1
    totals.op_ms += op_ms
    totals.add_count("compile.hits", hits1 - hits0)
    totals.add_count("compile.misses", misses1 - misses0)
    totals.add_ms(
        "precompile",
        sum(s["dur_ms"] for s in ring.spans() if s["name"] == "batch.precompile"),
    )
    containment = registry.histogram("batch.stage_ms", stage="containment")
    totals.add_ms("containment", containment["sum"] if containment else 0.0)
    counts = matrix.discharge_counts()
    if traced_matrix.discharge_counts() != counts or traced_matrix.counts() != matrix.counts():
        totals.mismatches.append("traced and untraced analyze() disagree")
    totals.add_count("containment.pairs_discharged", counts["containment"])

    # canonicalize: from_operation's self time (its profile_pattern call
    # is the index layer's and is subtracted below).
    canon: dict[str, CanonicalOp] = {}
    start = time.perf_counter()
    for name, op in catalogue.items():
        canon[name] = CanonicalOp.from_operation(op)
    canonicalize_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    for op in catalogue.values():
        profile_pattern(type(op).__name__, op.pattern)
    profile_ms = (time.perf_counter() - start) * 1000.0
    totals.add_ms("canonicalize", canonicalize_ms - profile_ms)
    totals.add_count("canonicalize.calls", len(canon))
    groups: dict[tuple, list[str]] = {}
    for name, c in canon.items():
        groups.setdefault(c.key, []).append(name)
    totals.add_count("canonicalize.distinct", len(groups))

    # index: discharge over every canonical group pair that is not
    # read/read (the pairs are enumerated untimed; only the rule runs
    # inside the timer).
    index = PatternIndex(kind=config.kind, exhaustive_cap=config.exhaustive_cap)
    members = list(groups.values())
    candidates: list[tuple[CanonicalOp, CanonicalOp, int, tuple[str, str]]] = []
    for i, first in enumerate(members):
        ca = canon[first[0]]
        for j in range(i, len(members)):
            second = members[j]
            cb = canon[second[0]]
            if ca.is_read and cb.is_read:
                continue
            if i == j:
                multiplicity = len(first) * (len(first) - 1) // 2
                if multiplicity:
                    candidates.append((ca, cb, multiplicity, (first[0], first[1])))
            else:
                candidates.append((ca, cb, len(first) * len(second), (first[0], second[0])))
    start = time.perf_counter()
    outcomes = [index.discharge(ca.profile, cb.profile) for ca, cb, _, _ in candidates]
    totals.add_ms("index", profile_ms + (time.perf_counter() - start) * 1000.0)
    examined = sum(c[2] for c in candidates)
    discharged = sum(c[2] for c, why in zip(candidates, outcomes) if why is not None)
    undischarged = [c[3] for c, why in zip(candidates, outcomes) if why is None]
    totals.add_count("index.pairs_examined", examined)
    totals.add_count("index.pairs_discharged", discharged)
    if discharged != counts["index"]:
        totals.mismatches.append(
            f"index replay discharged {discharged}, analyze() {counts['index']}"
        )

    # decide: every unique pair the op sent to a decision procedure.
    detector = ConflictDetector(config=config)
    decided = [rep for rep in undischarged if matrix.discharge_reason(*rep) == "decided"]
    for a, b in decided:
        report = timed_detect(detector, catalogue[a], catalogue[b], totals)
        if report.verdict is not matrix.verdict(a, b):
            totals.mismatches.append(f"decide replay verdict differs on {a}/{b}")
    program_decided = registry.counter("batch.pairs_decided")
    if len(decided) != program_decided:
        totals.mismatches.append(
            f"decide replay saw {len(decided)} pairs, analyze() {program_decided}"
        )
