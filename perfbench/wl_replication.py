"""``replication_sync``: seeded multi-writer replication scenarios.

Scenario ``i`` of a seed is
``random_replication_scenario(replicas=8, edits=48, conflict_rate=0.9,
bursts=4)`` under last-writer-wins, with its own seed drawn from
``(seed, i)``, run on the in-process backend.  Each burst of edits is
followed by a full gossip round; one op is one ``sync()`` of that round.
After the last burst the session is quiesced and checked outside the
timed wall time.

``conflict_rate`` is the probability an edit targets the shared hot
section.  At 0.9 classify and resolve both do work: the realized
certified-conflict rate (``pairs_conflicting / pairs_classified``) is
recorded per run.
"""

from __future__ import annotations

import contextlib
import random
import time

from repro import obs
from repro.obs.sinks import RingBufferSink
from repro.operations.ops import Delete, Insert
from repro.replication import ReplicationSession
from repro.replication.backends import DecisionBackend, InProcessBackend
from repro.replication.resolvers import resolver_by_name
from repro.workloads.replication import random_replication_scenario
from repro.xml import parse
from repro.xml.isomorphism import canonical_form

from harness import TimedLoop

REPLICAS = 8
EDITS = 48
CONFLICT_RATE = 0.9
RESOLVER = "last-writer-wins"
#: ``unknown_ratio`` is taken over the classify verdicts of this many
#: leading scenarios.
UNKNOWN_PREFIX = 8
#: Scenarios attributed per traced pass.
TRACED_SCENARIOS = 6

EXACT_COUNTS = (
    "ops", "sync.classify.pairs", "sync.replay.rebuilds",
    "sync.replay.ops_applied", "sync.resolutions",
)


def scenario(seed: int, index: int):
    inner = random.Random(f"replication_sync:{seed}:{index}").randrange(2**31)
    return random_replication_scenario(
        replicas=REPLICAS, edits=EDITS, conflict_rate=CONFLICT_RATE,
        seed=inner, resolver=RESOLVER, bursts=4,
    )


class ApplyCounter:
    """Counts the ``apply_in_place`` calls of inserts and deletes while
    active: the tree edits the program really makes, whatever its replay
    strategy."""

    def __init__(self) -> None:
        self.calls = 0
        self._saved: list = []

    def __enter__(self) -> "ApplyCounter":
        for cls in (Insert, Delete):
            original = cls.apply_in_place

            def counted(op, tree, _original=original):
                self.calls += 1
                return _original(op, tree)

            self._saved.append((cls, original))
            cls.apply_in_place = counted
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, original in self._saved:
            cls.apply_in_place = original
        self._saved.clear()


class TimedBackend(DecisionBackend):
    """Times the in-process backend's public ``classify``, and counts the
    tree edits it makes (witness checks) so they are not taken for replay."""

    source = InProcessBackend.source

    def __init__(self, applies: ApplyCounter) -> None:
        self.inner = InProcessBackend()
        self.applies = applies
        self.ms = 0.0
        self.pairs = 0
        self.edits = 0

    def classify(self, pairs):
        edits = self.applies.calls
        start = time.perf_counter()
        out = self.inner.classify(pairs)
        self.ms += (time.perf_counter() - start) * 1000.0
        self.edits += self.applies.calls - edits
        self.pairs += len(pairs)
        return out


class TimedResolver:
    """Times the built-in resolver, keeping its name for decisions."""

    def __init__(self, name: str, applies: ApplyCounter) -> None:
        self.inner = resolver_by_name(name)
        self.__name__ = name
        self.applies = applies
        self.ms = 0.0
        self.edits = 0

    def __call__(self, conflict):
        edits = self.applies.calls
        start = time.perf_counter()
        try:
            return self.inner(conflict)
        finally:
            self.ms += (time.perf_counter() - start) * 1000.0
            self.edits += self.applies.calls - edits


def play(spec, on_sync, backend=None, resolver=RESOLVER,
         pause=contextlib.nullcontext) -> ReplicationSession:
    """Run the scenario's edit and gossip steps; ``on_sync(session, a, b)``
    performs (and may time) each sync.  Session construction and edits
    run inside ``pause()``, so a timed loop leaves them out."""
    with pause():
        session = ReplicationSession(
            spec.replicas, spec.doc, resolver=resolver, backend=backend,
            unknown_policy=spec.unknown_policy,
        )
    for step in spec.steps:
        kind = step["step"]
        if kind == "edit":
            with pause():
                session.edit(step["replica"], step["op"])
        elif kind == "sync":
            for a in range(spec.replicas):
                for b in range(a + 1, spec.replicas):
                    on_sync(session, a, b)
        elif kind != "assert_converged":
            raise ValueError(f"unexpected scenario step {kind!r}")
    return session


def settle(session: ReplicationSession) -> list[str]:
    """Quiesce, then the convergence gate."""
    session.quiesce()
    problems = []
    if not session.converged():
        problems.append("replicas diverged after quiesce()")
    if session.lost_updates():
        problems.append(f"lost updates: {session.lost_updates()[:3]}")
    return problems


def _counter(session: ReplicationSession, prefix: str) -> int:
    counters = session.registry.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{"))


class Workload:
    name = "replication_sync"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []
        self.scenarios = 0
        self.classified = self.unproven = self.conflicting = 0
        # Warm-up op: the first burst of a scenario outside the seed's
        # sequence, then one sync.
        spec = scenario(seed, -1)
        warm = ReplicationSession(spec.replicas, spec.doc, resolver=RESOLVER)
        for step in spec.steps:
            if step["step"] != "edit":
                break
            warm.edit(step["replica"], step["op"])
        warm.sync(0, 1)

    def run(self, loop: TimedLoop) -> dict:
        def timed_sync(session, a, b):
            loop.tick()
            start = time.perf_counter()
            try:
                report = session.sync(a, b)
                ok = report.skipped is None
            except Exception:  # a failed op is counted, not fatal
                ok = False
            loop.record(time.perf_counter() - start, ok)

        index = 0
        prefix_unproven = prefix_classified = 0
        while index < UNKNOWN_PREFIX or loop.running():
            with loop.paused():
                spec = scenario(self.seed, index)
            session = play(spec, timed_sync, pause=loop.paused)
            with loop.paused():
                self.problems += settle(session)
                classified = _counter(session, "replication.pairs_classified")
                unproven = _counter(session, "replication.pairs_unproven")
                self.classified += classified
                self.unproven += unproven
                self.conflicting += _counter(session, "replication.pairs_conflicting")
                if index < UNKNOWN_PREFIX:
                    prefix_classified += classified
                    prefix_unproven += unproven
            index += 1
        self.scenarios = index
        return {
            "unknown_ratio": prefix_unproven / prefix_classified,
            "scenarios": index,
            "conflict_ratio_realized": self.conflicting / self.classified,
            "unknown_ratio_all": self.unproven / self.classified,
        }

    def check(self) -> dict:
        return {"ok": not self.problems, "problems": self.problems[:5],
                "scenarios_checked": self.scenarios}

    def _play_untraced(self, index: int) -> float:
        """Milliseconds inside ``sync()`` for one plain play of a scenario."""
        elapsed = [0.0]

        def plain_sync(session, a, b):
            start = time.perf_counter()
            session.sync(a, b)
            elapsed[0] += (time.perf_counter() - start) * 1000.0

        play(scenario(self.seed, index), plain_sync)
        return elapsed[0]

    def _play_traced(self, index: int, spans: bool) -> dict:
        """One play of a scenario with the backend's ``classify`` and the
        resolver timed, and the program's span tracing on if ``spans``;
        returns its per-layer sums and exact counts.

        Replay is what ``sync()`` spends beyond classify and resolve, in
        time and in tree edits.  After each sync both replicas' trees are
        checked against a replay of their live logs from the base
        document, outside every timed figure and count.
        """
        spec = scenario(self.seed, index)
        base = parse(spec.doc)
        out = {"ops": 0, "sync_ms": 0.0, "sync_edits": 0, "problems": []}
        with ApplyCounter() as applies:
            backend = TimedBackend(applies)
            resolver = TimedResolver(RESOLVER, applies)

            def traced_sync(session, a, b):
                edits = applies.calls
                report = session.sync(a, b)
                out["sync_edits"] += applies.calls - edits
                out["sync_ms"] += report.duration_ms
                out["ops"] += 1
                for rid in (a, b):
                    tree = base.copy()
                    for logged in session.replicas[rid].live_ops():
                        logged.op.apply_in_place(tree)
                    if canonical_form(tree) != canonical_form(session.replicas[rid].tree):
                        out["problems"].append(f"replica {rid} differs from a replay of its log")

            with obs.tracing(RingBufferSink()) if spans else contextlib.nullcontext():
                session = play(spec, traced_sync, backend=backend, resolver=resolver)
        out.update({
            "classify_ms": backend.ms,
            "resolve_ms": resolver.ms,
            "replay_ms": out["sync_ms"] - backend.ms - resolver.ms,
            "sync.classify.pairs": backend.pairs,
            "sync.replay.rebuilds": _counter(session, "replication.rebuilds"),
            "sync.replay.ops_applied": out["sync_edits"] - backend.edits - resolver.edits,
            "sync.resolutions": _counter(session, "replication.resolutions"),
            "conflicting": _counter(session, "replication.pairs_conflicting"),
            "classified": _counter(session, "replication.pairs_classified"),
        })
        out["problems"] += settle(session)
        return out

    def trace(self) -> tuple[dict, list[str]]:
        """Per scenario: one plain play (the base), one play with the
        layer timers only (the attribution), and one with the program's
        span tracing on as well (the overhead); the exact counts of the
        last two must agree."""
        untraced_ms = 0.0
        passes: list[dict] = [{"problems": []}, {"problems": []}]
        for index in range(TRACED_SCENARIOS):
            untraced_ms += self._play_untraced(index)
            for spans, totals in zip((False, True), passes):
                for key, value in self._play_traced(index, spans).items():
                    totals[key] = totals.get(key, 0) + value
        timers, spanned = passes
        problems = timers["problems"] + spanned["problems"]
        if {k: timers[k] for k in EXACT_COUNTS} != {k: spanned[k] for k in EXACT_COUNTS}:
            problems.append("exact counts differ between two traced passes")
        n = timers["ops"]
        attributed = timers["classify_ms"] + timers["resolve_ms"] + timers["replay_ms"]
        layers = {
            "ops": n,
            "sync.classify.ms": timers["classify_ms"] / n,
            "sync.classify.pairs": timers["sync.classify.pairs"],
            "sync.resolve.ms": timers["resolve_ms"] / n,
            "sync.replay.ms": timers["replay_ms"] / n,
            "sync.replay.rebuilds": timers["sync.replay.rebuilds"],
            "sync.replay.ops_applied": timers["sync.replay.ops_applied"],
            "sync.resolutions": timers["sync.resolutions"],
            "sync.conflict_ratio_realized": timers["conflicting"] / timers["classified"],
            "op.ms": untraced_ms / n,
            "unattributed.ms": (untraced_ms - attributed) / n,
            "attributed_ratio": attributed / untraced_ms,
            "trace_overhead_ratio": spanned["sync_ms"] / timers["sync_ms"],
        }
        return layers, problems

    def close(self) -> None:
        pass
