"""``decide_dense``: ``repro.analyze()`` over many small random catalogues.

Catalogue ``i`` of a seed is a pure function of ``(seed, i)``: 8 to 12
operations, each a fresh random shape from
:mod:`repro.workloads.generators` grafted under one shared root ``a``,
over the 4-label alphabet ``a b c d``.  The mix is linear reads,
branching reads, branching inserts and branching deletes, decided under
``DetectorConfig(exhaustive_cap=1)``.  One op is one catalogue; ops never
repeat a catalogue, so every op pays its own decisions.
"""

from __future__ import annotations

import itertools
import random
import time

from repro import AnalysisConfig, analyze
from repro.conflicts.complex import is_commutativity_witness
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import Verdict, is_witness
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.pattern import Axis, TreePattern
from repro.workloads import generators
from repro.xml.enumerate import enumerate_trees
from repro.xml.random_trees import random_tree

from harness import MIN_OPS, TimedLoop
from layers import LayerTotals, decide_path, trace_op

CONFIG = DetectorConfig(exhaustive_cap=1)
ALPHABET = ("a", "b", "c", "d")
#: NO_CONFLICT pairs confirmed by brute force per run, and the tree
#: size bound of that search (over the alphabet plus one fresh label).
BRUTE_FORCE_PAIRS = 6
BRUTE_FORCE_SIZE = 4
#: Catalogues attributed per traced pass.
TRACED_CATALOGUES = 48


def _rooted(pattern: TreePattern) -> TreePattern:
    rooted = TreePattern("a")
    mapping = rooted.graft(rooted.root, pattern, Axis.CHILD)
    rooted.set_output(mapping[pattern.output])
    return rooted


def _shape(rng: random.Random, kind: str):
    if kind == "linear_read":
        size = rng.randint(1, 3)
        return Read(_rooted(generators.random_linear_pattern(size, ALPHABET, seed=rng)))
    if kind == "branching_read":
        size = rng.randint(2, 4)
        return Read(_rooted(generators.random_branching_pattern(size, ALPHABET, seed=rng)))
    size = rng.randint(1, 3)
    pattern = _rooted(generators.random_branching_pattern(size, ALPHABET, seed=rng))
    if kind == "insert":
        return Insert(pattern, random_tree(rng.randint(1, 3), ALPHABET, seed=rng))
    return Delete(pattern)


def catalogue(seed: int, index: int) -> dict:
    """Catalogue ``index`` of ``seed``: 8 to 12 operations, about 30%
    linear reads, 25% branching reads, 25% inserts and 20% deletes."""
    rng = random.Random(f"decide_dense:{seed}:{index}")
    size = rng.randint(8, 12)
    counts = [round(size * share) for share in (0.30, 0.25, 0.25)]
    kinds = (
        ["linear_read"] * counts[0] + ["branching_read"] * counts[1]
        + ["insert"] * counts[2] + ["delete"] * (size - sum(counts))
    )
    rng.shuffle(kinds)
    return {f"o{k:02d}": _shape(rng, kind) for k, kind in enumerate(kinds)}


class Workload:
    name = "decide_dense"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = AnalysisConfig(detector=CONFIG)
        analyze(catalogue(seed, -1), config=self.config)  # warm-up op
        self.prefix: list[tuple[dict, object]] = []

    def run(self, loop: TimedLoop) -> dict:
        index = 0
        unknown = pairs = 0
        while loop.running():
            with loop.paused():
                ops = catalogue(self.seed, index)
            start = time.perf_counter()
            try:
                matrix = analyze(ops, config=self.config)
                ok = matrix.degraded_count() == 0
            except Exception:  # a failed op is counted, not fatal
                matrix, ok = None, False
            loop.record(time.perf_counter() - start, ok)
            with loop.paused():
                if index < MIN_OPS and matrix is not None:
                    counts = matrix.counts()
                    unknown += counts["unknown"]
                    pairs += sum(counts.values())
                    self.prefix.append((ops, matrix))
            index += 1
        return {"unknown_ratio": unknown / pairs}

    def check(self) -> dict:
        """Every CONFLICT of the first ``MIN_OPS`` catalogues comes with a
        witness the Lemma 1 check accepts; a seeded sample of decided
        NO_CONFLICT pairs has no witness among all small trees."""
        problems = []
        detector = ConflictDetector(config=CONFIG)
        witnessed = 0
        candidates = []
        for ops, matrix in self.prefix:
            for a, b in itertools.combinations(ops, 2):
                verdict = matrix.verdict(a, b)
                first, second = ops[a], ops[b]
                path = decide_path(first, second)
                if verdict is Verdict.NO_CONFLICT and path in ("linear", "general"):
                    if matrix.discharge_reason(a, b) == "decided":
                        candidates.append((first, second))
                if verdict is not Verdict.CONFLICT:
                    continue
                report = detector.detect(first, second)
                if report.verdict is not Verdict.CONFLICT or report.witness is None:
                    problems.append(f"{a}/{b}: replay gave {report.verdict.value}")
                    continue
                if path == "update_update":
                    ok = is_commutativity_witness(report.witness, first, second)
                else:
                    read, update = (first, second) if isinstance(first, Read) else (second, first)
                    ok = is_witness(report.witness, read, update, CONFIG.kind)
                witnessed += 1
                if not ok:
                    problems.append(f"{a}/{b}: witness rejected")
        sample = random.Random(f"brute:{self.seed}").sample(
            candidates, min(BRUTE_FORCE_PAIRS, len(candidates))
        )
        trees = list(enumerate_trees(BRUTE_FORCE_SIZE, ALPHABET + ("z",)))
        for first, second in sample:
            read, update = (first, second) if isinstance(first, Read) else (second, first)
            if any(is_witness(tree, read, update, CONFIG.kind) for tree in trees):
                problems.append(f"brute force found a witness for a NO_CONFLICT pair {read!r}/{update!r}")
        return {
            "ok": not problems,
            "problems": problems[:5],
            "conflicts_witnessed": witnessed,
            "no_conflict_brute_forced": len(sample),
            "brute_force_trees": len(trees),
        }

    def trace(self) -> tuple[dict, list[str]]:
        passes = []
        for _ in range(2):
            totals = LayerTotals()
            for index in range(TRACED_CATALOGUES):
                trace_op(catalogue(self.seed, index), CONFIG, totals)
            passes.append(totals)
        problems = passes[0].mismatches + passes[1].mismatches
        if passes[0].exact_counts() != passes[1].exact_counts():
            problems.append("exact counts differ between two traced passes")
        return passes[0].per_layer(), problems

    def close(self) -> None:
        pass
