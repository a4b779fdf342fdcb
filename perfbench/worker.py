"""Runs one workload in a process of its own and prints its report as one
JSON line.  Started by run.py with BLAS/OpenMP threads pinned to 1 and
PYTHONPATH pointing at src/; not meant to be run by hand.

Closed loop: one operation at a time.  Every operation runs under the
deadline from expectations.json, enforced with SIGALRM; an operation
that raises, passes the deadline or fails its check counts as failed and
the run continues.  Operations are generated one at a time, so the
benchmark's own inputs never pile up in the memory being measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy

import alphaleak
import checks as ck
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
EXPECTATIONS = json.loads((HERE / "expectations.json").read_text())
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that no
    `except Exception` in the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    anchors: dict[str, float] = field(default_factory=dict)  # worst accuracy anchor per kind

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def execute(op: wl.Op, deadline: float, tracer: tr.Tracer | None = None) -> tuple[float, str | None, float | None]:
    """Run one operation under the deadline, then check its output.
    Returns (latency, error or None, accuracy anchor or None)."""
    out = error = None
    root = -1
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(f"op.{op.kind}") as root:
                    out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = "deadline"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None and op.spans_file is not None:
        _merge_child_trace(tracer, op.spans_file, root)
    if error is not None:
        return latency, error, None
    try:
        return latency, None, float(op.check(out))
    except ck.CheckFailed as exc:
        return latency, f"check: {exc}", None
    except Exception as exc:  # a check that crashes still fails only this operation
        return latency, f"check raised {type(exc).__name__}: {exc}", None


def run_pass(ops: Iterable[wl.Op], deadline: float, tracer: tr.Tracer | None = None) -> PassResult:
    result = PassResult()
    for op in ops:
        latency, error, anchor = execute(op, deadline, tracer)
        result.latencies.append(latency)
        result.kinds.append(op.kind)
        if error is not None:
            result.failures.append({"name": op.name, "kind": op.kind, "error": error, "latency_s": latency})
        elif anchor is not None:
            result.anchors[op.kind] = max(result.anchors.get(op.kind, 0.0), anchor)
    return result


def _merge_child_trace(tracer: tr.Tracer, path: Path, root: int) -> None:
    """Attach the spans a traced CLI process wrote under the operation's span."""
    if not path.exists():
        return
    child = json.loads(path.read_text())
    path.unlink()
    base = len(tracer.spans)
    for name, start, end, parent, status in child["spans"]:
        tracer.spans.append([name, start, end, root if parent < 0 else parent + base, status])
    tracer.child_counters.append(child["counters"])


def classify(failure: dict) -> str | None:
    """Id of the known defect a failure matches, or None."""
    for defect in EXPECTATIONS["known_defects"]:
        if failure["kind"] in defect["kinds"] and defect["match"] in failure["error"]:
            return defect["id"]
    return None


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} operations, got {n}")
    return ordered[n - TAIL_BEYOND - 1], (n - TAIL_BEYOND) / n


def summarize(passes: list[PassResult]) -> dict:
    """End-to-end metrics.  `wall_s` is the median pass; the latency
    percentiles pool every pass, whose count depends only on --seconds."""
    latencies = [t for p in passes for t in p.latencies]
    tail, level = tail_latency(latencies)
    failed = sum(len(p.failures) for p in passes)
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "error_rate": failed / len(latencies),
        "attempted": len(latencies),
        "failed": failed,
        "samples": {
            "passes": len(passes),
            "ops_per_pass": len(passes[0].latencies),
            "latency_samples": len(latencies),
            "tail_percentile": 100 * level,
        },
    }


def cli_layer_metrics(result: PassResult) -> dict:
    pairs = list(zip(result.kinds, result.latencies))
    out = {
        "cli.invocations": sum(kind.startswith("cli:") for kind, _ in pairs),
        "cli.exit_mismatch": sum(f["error"].startswith("check: exit ") for f in result.failures),
    }
    for sub in ("measures", "capacity", "strategy", "put_hard", "put_types", "put_hamming", "put_avg_binary"):
        lat = [t for kind, t in pairs if kind == f"cli:{sub}"]
        out[f"cli.{sub}_s"] = statistics.median(lat) if lat else 0.0
    return out


def traced_pass(args, deadline: float) -> tuple[PassResult, dict, dict]:
    """One pass with every layer wrapped; returns the pass, the per-layer
    metrics and the trace (spans and per-span table)."""
    ops = wl.build(
        args.workload, args.seed, alphaleak, args.out_dir / "inputs",
        cli_launcher=[str(HERE / "cli_traced.py")], spans_dir=args.out_dir / "spans",
    )
    tracer = tr.Tracer()
    tracer.install()
    try:
        result = run_pass(ops, deadline, tracer)
    finally:
        tracer.uninstall()
    table = tr.layer_table(tracer.spans)
    metrics = tr.group_metrics(table)
    metrics["lp.covering_game.deadline_missed"] = sum(
        s[4] == DeadlineExceeded.__name__ for s in tracer.spans if s[0] == "lp.covering_game"
    )
    counters = tracer.counters()
    for child in tracer.child_counters:
        for key, value in child.items():
            counters[key] = max(counters[key], value) if key.endswith("_max") else counters[key] + value
    metrics.update(counters)
    metrics["trace.spans"] = len(tracer.spans)
    return result, metrics, {"spans": tracer.spans, "table": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = float(EXPECTATIONS["deadline_s"])
    count = 1 if args.trace else max(1, int(args.seconds // wl.PASS_SECONDS[args.workload]))
    passes = [
        run_pass(wl.build(args.workload, args.seed, alphaleak, args.out_dir / "inputs"), deadline)
        for _ in range(count)
    ]
    report = summarize(passes)
    if args.trace:
        traced, per_layer, trace = traced_pass(args, deadline)
        per_layer.update(cli_layer_metrics(passes[0]))
        per_layer["trace.wall_s"] = traced.wall_s
        per_layer["trace.overhead_s"] = traced.wall_s - report["wall_s"]
        report["attempted"] += len(traced.latencies)
        report["failed"] += len(traced.failures)
        report["per_layer"] = per_layer
        report["trace"] = trace
        passes.append(traced)

    failures = [f for p in passes for f in p.failures]
    seen: dict[str, int] = {}
    unknown = []
    for f in failures:
        defect = classify(f)
        if defect is None:
            unknown.append(f)
        else:
            seen[defect] = seen.get(defect, 0) + 1
    anchors: dict[str, float] = {}
    for p in passes:
        for kind, value in p.anchors.items():
            anchors[kind] = max(anchors.get(kind, 0.0), value)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    report.update(
        {
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # Linux reports KiB
            "correct": not unknown,
            "defects_seen": seen,
            "unknown_failures": unknown,
            "failures": failures,
            "anchor_max": anchors,
            "env": {
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "alphaleak": alphaleak.__version__,
                "deadline_s": deadline,
            },
        }
    )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
