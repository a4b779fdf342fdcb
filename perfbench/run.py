"""alphaleak benchmark.

    python3 perfbench/run.py --workload {iterative,covering,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Prints every metric by name and
unit, the environment, and as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The full
report (and, when traced, the span dump) goes to perfbench/out/.

The workload runs in a worker process (worker.py) with BLAS/OpenMP
threads pinned to 1; set-up time is measured on separate fresh
interpreters that only `import alphaleak`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_IMPORTS = (2, 1)  # before and after the workload; one import varies by +-8%
IMPORT_PROBES = 3
RUN_LIMIT_S = 170  # the whole run, set-up included, ends before 180 s


def _env() -> dict:
    return dict(os.environ, **PINNED, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def measure_setup(env: dict, count: int) -> list[float]:
    """Wall time of fresh interpreters that import alphaleak."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import alphaleak"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def measure_imports(env: dict) -> dict:
    """`-X importtime` of `import alphaleak`: its cumulative time, and the
    self time of every scipy module it pulls in (medians of a few probes)."""
    own, scipy_self = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import alphaleak"],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        total_scipy = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "alphaleak" and len(m.group(3)) == 1:  # top level of the import tree
                own.append(cum_us / 1e6)
            if name == "scipy" or name.startswith("scipy."):
                total_scipy += self_us
        scipy_self.append(total_scipy / 1e6)
    return {"import.alphaleak_s": statistics.median(own), "import.scipy_s": statistics.median(scipy_self)}


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(args, env: dict, time_left: float) -> dict:
    """Run the workload in its own process group, so that a timeout also
    stops any CLI process it started."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", str(OUT / f"{args.workload}-{args.seed}"),
    ]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=time_left)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload did not finish within {time_left:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "error_rate": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.alphaleak_s": "s",
    "import.scipy_s": "s",
    "leakage.capacity.calls": "count",
    "leakage.capacity.busy_s": "s",
    "leakage.capacity.iterations": "count",
    "leakage.capacity.uncertified": "count",
    "leakage.capacity.gap_max": "nats",
    "leakage.max_f.calls": "count",
    "leakage.max_f.busy_s": "s",
    "leakage.max_f.failed": "count",
    "leakage.closed_form.busy_s": "s",
    "measures.calls": "count",
    "measures.busy_s": "s",
    "prob.calls": "count",
    "prob.busy_s": "s",
    "put.q_star.calls": "count",
    "put.q_star.busy_s": "s",
    "put.q_star.failed": "count",
    "put.balls.busy_s": "s",
    "put.mechanism.busy_s": "s",
    "put.aware.calls": "count",
    "put.aware.busy_s": "s",
    "put.aware.failed": "count",
    "put.aware.fw_gap_max": "nats",
    "lp.covering_game.calls": "count",
    "lp.covering_game.busy_s": "s",
    "lp.covering_game.deadline_missed": "count",
    "lp.gap_max": "1",
    "lp.negative_mass": "count",
    "datasets.build_spec.calls": "count",
    "datasets.build_spec.busy_s": "s",
    "datasets.closed_form.busy_s": "s",
    "datasets.crosscheck.busy_s": "s",
    "cli.invocations": "count",
    "cli.exit_mismatch": "count",
    "cli.measures_s": "s",
    "cli.capacity_s": "s",
    "cli.strategy_s": "s",
    "cli.put_hard_s": "s",
    "cli.put_types_s": "s",
    "cli.put_hamming_s": "s",
    "cli.put_avg_binary_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("iterative", "covering", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "alphaleak" / "__init__.py").is_file():
        print(f"error: no alphaleak sources under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    # Fill the bytecode cache once, uncounted: installed packages ship it too.
    subprocess.run([sys.executable, "-c", "import alphaleak"], env=env, check=True, timeout=60)
    setup = measure_setup(env, SETUP_IMPORTS[0])
    imports = measure_imports(env) if args.trace else {}
    report = run_worker(args, env, RUN_LIMIT_S - 15 - (time.perf_counter() - started))
    setup += measure_setup(env, SETUP_IMPORTS[1])

    environment = {
        **report.pop("env"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": PINNED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "load": "closed loop, one operation at a time, one process",
    }
    if args.trace:
        measured = {**report["per_layer"], **imports}
        metrics = {name: measured[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            **{k: report[k] for k in ("wall_s", "op_p50_s", "op_tail_s", "error_rate", "peak_rss_mb")},
        }
        units = END_TO_END_UNITS
    samples = report["samples"]
    full = {
        "environment": environment,
        "metrics": metrics,
        "setup_samples_s": setup,
        **{k: v for k, v in report.items() if k not in ("per_layer", "trace")},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(report["trace"]))

    print(f"workload {args.workload}: {samples['passes']} pass(es) x {samples['ops_per_pass']} operations, "
          f"seed {args.seed}, deadline {environment['deadline_s']:g} s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  setup_s: median of {len(setup)} fresh imports; op_p50_s and op_tail_s (p{samples['tail_percentile']:.2f}) "
          f"over {samples['latency_samples']} latencies; attempted {report['attempted']}, failed {report['failed']}")
    print(f"  known defects seen: {json.dumps(report['defects_seen'])}")
    if report["unknown_failures"]:
        print(f"  UNEXPECTED failures: {json.dumps(report['unknown_failures'][:5])}")
    if args.trace:
        print_trace_table(report["trace"]["table"], report["per_layer"])
    print("env " + json.dumps(environment))
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_trace_table(table: dict, per_layer: dict) -> None:
    print(f"  {'span':44s} {'calls':>8s} {'failed':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} {row['calls']:8d} {row['failed']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print(f"  tracing overhead: {per_layer['trace.overhead_s']:.4f} s "
          f"(traced wall {per_layer['trace.wall_s']:.4f} s)")


if __name__ == "__main__":
    sys.exit(main())
