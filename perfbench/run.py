"""qdlab benchmark: one workload, one seed, one run.

Run from the root of a qdlab source checkout:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 6 --trace 0

The run starts worker processes one after another (worker.py), each of
which imports qdlab and drives its CLI in-process, and combines what they
measured. The BLAS thread count is fixed at BLAS_THREADS for every worker.

--trace 0 uses WORKERS workers and prints the end-to-end metrics. --trace 1
uses one worker that alternates untraced and traced passes, and prints the
per-layer metrics (layers.py). The last line of standard output is one JSON
object with the keys "correct", "attempted", "failed" and "metrics"; the
lines before it give the environment, the sample counts and the raw
(unscaled) times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150
# Worker processes per untraced run. A process keeps part of its speed for
# its lifetime, so the end-to-end metrics are medians across processes.
WORKERS = 3
# Timed passes per command in a run, at least, over all its workers.
MIN_SAMPLES = 2
# No qdisc experiment in the workload: qdisc_value takes this fixed value so
# that every end-to-end metric exists on every workload.
NO_QDISC_VALUE = 1.0


def _stats(values: list[float], what: str) -> str:
    return f"median of {len(values)} {what}; min {min(values):.6g}, max {max(values):.6g}"


def run_worker(root: Path, args, workers: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / workers), "--trace", str(args.trace),
           "--min-passes", str(-(-MIN_SAMPLES // workers)), "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    # each command's median over every timed pass of every worker, summed over the pass
    passes = [p for r in results for p in r["scaled"]]
    raw_passes = [p for r in results for p in r["raw"]]
    wall = sum(statistics.median(call) for call in zip(*passes))
    raw_wall = sum(statistics.median(call) for call in zip(*raw_passes))
    setup = [r["setup_scaled"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    qdisc = [v for r in results for v in r["qdisc_values"]]
    speed = "at reference speed" if results[0]["reference_speed"] else "not scaled to reference speed"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "qdisc_value": (statistics.fmean(qdisc) if qdisc else NO_QDISC_VALUE, "1"),
    }
    notes = {
        "setup_s": (f"{_stats(setup, 'worker starts')}, {speed}; raw "
                    f"{_stats([r['setup_raw'] for r in results], 'starts')}"),
        "wall_s": (f"per-command medians of {len(passes)} timed passes in {len(results)} workers, each after "
                   f"1 warm-up pass, {speed}; raw {raw_wall!r} s"),
        "peak_rss_mb": _stats(rss, "workers"),
        "qdisc_value": (f"mean of {len(qdisc)} qdisc estimates" if qdisc
                        else "no qdisc experiment in this workload; fixed value"),
    }
    return metrics, [f"{name} = {value!r} {unit}  ({notes[name]})" for name, (value, unit) in metrics.items()]


def per_layer(result: dict) -> tuple[dict, list[str]]:
    per_pass = result["layers"]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (median(m[name][0] for m in per_pass), unit)
    overhead = statistics.median(result["traced"]) / statistics.median(result["untraced"]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    speed = "at reference speed" if result["reference_speed"] else "raw"
    lines.append(f"per-layer values are medians of {len(per_pass)} traced passes; "
                 f"{_stats(result['untraced'], 'untraced passes')}; {_stats(result['traced'], 'traced passes')} "
                 f"({speed})")
    lines.append("span accounting: layer self-time sum / traced pass time = "
                 + ", ".join(f"{s / t:.4f}" for s, t in zip(result["self_sum"], result["traced_raw"])))
    lines.append(f"spans written to {result['spans']}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qdlab benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of timed passes in the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qdlab" / "cli.py").is_file():
        print(f"perfbench: {root} holds no qdlab source tree (src/qdlab); run from a checkout's root",
              file=sys.stderr)
        return 2
    for var in _BLAS_VARS:  # inherited by the workers, read when numpy loads
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workers = 1 if args.trace else WORKERS
    results = []
    for _ in range(workers):
        result = run_worker(root, args, workers)
        if result is None:
            return 1
        results.append(result)

    metrics, lines = per_layer(results[0]) if args.trace else end_to_end(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("env " + json.dumps({"workload": args.workload, "seed": args.seed, "workers": workers,
                               **results[0]["env"]}))
    for line in lines:
        print(line)
    print(f"ops = {attempted}, ops_failed = {failed}, ops_failed_frac = {failed / attempted!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
