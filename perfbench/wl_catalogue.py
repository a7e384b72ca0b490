"""``catalogue_10k``: ``repro.analyze()`` over one 10,000-name catalogue.

The names cycle over 248 shapes on 8 disjoint roots, 4 in 5 of them
reads (the ``bench_index`` shape).  The seed shuffles which name holds
which shape, so every seed analyzes the same multiset of operations and
the verdict and discharge tallies are seed-independent: they are pinned
by ``expected.json``.  One op is one ``analyze()`` of the catalogue.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from repro import AnalysisConfig, analyze
from repro.conflicts.detector import DetectorConfig
from repro.operations.ops import Delete, Insert, Read

from harness import ROOT, TimedLoop
from layers import LayerTotals, trace_op

NAMES = 10_000
#: Linear reads stay exact regardless; update-update pairs answer fast.
CONFIG = DetectorConfig(exhaustive_cap=1)
#: Names in the index-on / index-off differential slice.
SLICE = 120

ROOTS = ("bib", "inv", "cat", "log", "arc", "idx", "reg", "lab")
SECTIONS = ("book", "item", "entry", "row")
LEAVES = ("title", "price", "quantity", "note", "isbn", "stale", "extra")

EXPECTED = ROOT / "perfbench" / "expected.json"


def build_catalogue(seed: int, total: int = NAMES) -> dict:
    reads, updates = [], []
    for root in ROOTS:
        reads.extend(Read(f"{root}/{s}/{leaf}") for s in SECTIONS for leaf in LEAVES)
        reads.append(Read(f"{root}//price"))
        updates.append(Delete(f"{root}/{SECTIONS[0]}/stale"))
        updates.append(Insert(f"{root}/{SECTIONS[1]}", "<note>x</note>"))
    ops = [
        reads[i % len(reads)] if i % 5 < 4 else updates[i % len(updates)]
        for i in range(total)
    ]
    random.Random(seed).shuffle(ops)
    return {f"op{i:05d}": op for i, op in enumerate(ops)}


def tallies(matrix) -> dict:
    return {"counts": matrix.counts(), "discharge": matrix.discharge_counts()}


class Workload:
    name = "catalogue_10k"
    #: An op takes about a second, so a run holds tens of ops, not 200.
    min_ops = 5
    #: Its set-up (about a second) swings most with the host; take more probes.
    setup_probes = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.catalogue = build_catalogue(seed)
        self.config = AnalysisConfig(detector=CONFIG)
        self.matrix = analyze(self.catalogue, config=self.config)  # warm-up op

    def run(self, loop: TimedLoop) -> dict:
        matrix = self.matrix
        while loop.running():
            start = time.perf_counter()
            try:
                matrix = analyze(self.catalogue, config=self.config)
                ok = matrix.degraded_count() == 0
            except Exception:  # a failed op is counted, not fatal
                ok = False
            loop.record(time.perf_counter() - start, ok)
        self.matrix = matrix
        counts = matrix.counts()
        return {"unknown_ratio": counts["unknown"] / sum(counts.values())}

    def check(self) -> dict:
        problems = []
        observed = tallies(self.matrix)
        expected = json.loads(EXPECTED.read_text())[self.name]
        if observed != expected:
            problems.append(f"tallies {observed} != expected {expected}")
        names = list(self.catalogue)[:SLICE]
        part = {name: self.catalogue[name] for name in names}
        on = analyze(part, config=self.config)
        off = analyze(
            part, config=AnalysisConfig(detector=CONFIG, index=False, containment=False)
        )
        for a, b in itertools.combinations(names, 2):
            if on.verdict(a, b) is not off.verdict(a, b):
                problems.append(f"index-off disagrees on {a}/{b}")
                break
        return {"ok": not problems, "problems": problems, "tallies": observed}

    def trace(self) -> tuple[dict, list[str]]:
        passes = []
        for _ in range(2):
            totals = LayerTotals()
            trace_op(self.catalogue, CONFIG, totals, overhead_pairs=3)
            passes.append(totals)
        problems = passes[0].mismatches + passes[1].mismatches
        if passes[0].exact_counts() != passes[1].exact_counts():
            problems.append("exact counts differ between two traced passes")
        return passes[0].per_layer(), problems

    def close(self) -> None:
        pass
