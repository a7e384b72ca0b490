"""The repository benchmark: one command, four workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload catalogue_10k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop of ops for
``--seconds`` (and at least 200 ops), then the workload's correctness
gate, then ``setup_s`` as the median of several fresh processes that each
import ``repro``, build the inputs, boot what the workload needs and run
one warm-up op.  ``--trace 1`` runs the separate traced pass that
attributes op time to layers and re-checks that its exact counts repeat.
Times are scaled to a reference host speed measured as the run goes
(``harness.reference_ms``); the raw values stay in the record.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the detail record with
the host context.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

PROCESS_START = time.time()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = {
    "catalogue_10k": "wl_catalogue",
    "decide_dense": "wl_dense",
    "check_service": "wl_service",
    "replication_sync": "wl_replication",
}

#: Metric names and units, in order, from the benchmark definition.
with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    _SPEC = json.load(_spec)
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
#: Every traced run prints all of these; a layer the workload does not
#: exercise did no work in it and reads 0.
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

#: Fresh processes per run whose set-up is timed; a workload may ask for
#: more with a ``setup_probes`` attribute.
SETUP_PROBES = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up, print READY <epoch seconds>, tear down",
    )
    return parser.parse_args(argv)


def probe_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Process start to first timed op in a fresh process: ``(raw seconds,
    normalized seconds)``, normalized by the reference read just before
    the spawn and by the probe just after it was ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    before = harness.reference_ms()
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    raw = float(fields["READY"]) - started
    return raw, harness.normalize(raw, (before + float(fields["REFERENCE"])) / 2.0)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    reference_start = harness.reference_ms() if not args.setup_probe else 0.0
    module = importlib.import_module(WORKLOADS[args.workload])
    setup_start = time.time()
    workload = module.Workload(args.seed)
    if args.setup_probe:
        print(f"READY {time.time()!r}", flush=True)
        print(f"REFERENCE {harness.reference_ms()!r}", flush=True)
        workload.close()
        return 0
    in_process_setup_s = time.time() - setup_start
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_in_process": in_process_setup_s,
        "process_start_to_ready_s": time.time() - PROCESS_START,
    }
    try:
        if args.trace:
            result = traced(workload, record)
        else:
            result = timed(workload, args, record)
    finally:
        workload.close()
    if not args.trace:
        count = getattr(workload, "setup_probes", SETUP_PROBES)
        probes = [probe_setup_s(args.workload, args.seed) for _ in range(count)]
        record["setup_s_samples"] = [normalized for _, normalized in probes]
        record["setup_s_raw_samples"] = [raw for raw, _ in probes]
        result["metrics"]["setup_s"] = harness.metric(
            statistics.median(record["setup_s_samples"]), dict(END_TO_END)["setup_s"]
        )
        result["metrics"] = {
            name: result["metrics"][name] for name, _ in END_TO_END
        }
    record["host"] = harness.host_context(reference_start, harness.reference_ms())
    harness.emit(record, result)
    return 0


def timed(workload, args: argparse.Namespace, record: dict) -> dict:
    min_ops = getattr(workload, "min_ops", harness.MIN_OPS)
    with harness.TimedLoop(args.seconds, min_ops) as loop:
        extra = workload.run(loop)
    summary = loop.summary()
    rss = workload.peak_rss_mb() if hasattr(workload, "peak_rss_mb") else harness.peak_rss_mb_self()
    gate = workload.check()
    record.update(summary=summary, gate=gate, run=extra)
    units = dict(END_TO_END)
    metrics = {
        name: harness.metric(summary[name], units[name])
        for name in ("op_ms_p50", "op_ms_p95", "ops_per_s")
    }
    metrics["unknown_ratio"] = harness.metric(extra["unknown_ratio"], units["unknown_ratio"])
    metrics["peak_rss_mb"] = harness.metric(rss, units["peak_rss_mb"])
    return {
        "correct": bool(gate["ok"]),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def traced(workload, record: dict) -> dict:
    before = harness.reference_ms()
    layers, problems = workload.trace()
    reference = (before + harness.reference_ms()) / 2.0
    ops = int(layers.pop("ops"))
    record.update(layers=layers, problems=problems, ops_traced=ops, reference_ms=reference)
    metrics = {}
    for name, unit in PER_LAYER:
        value = layers.get(name, 0)
        if unit == "ms":
            value = harness.normalize(value, reference)
        metrics[name] = harness.metric(value, unit)
    return {
        "correct": not problems,
        "attempted": max(1, ops),
        "failed": 0,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
