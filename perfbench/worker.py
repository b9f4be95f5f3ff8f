"""One benchmark worker process, started by run.py from the checkout root.

It imports qdlab, drives the CLI in-process through `qdlab.cli.main(argv)`
(default `--threads 1`), and prints one JSON line with what it measured. A
pass runs every command line of the workload, each writing its report to a
file; the reports are checked after the pass, outside the timed region.
After a warm-up pass, passes repeat until `--seconds` of timed passes have
run, and at least `--min-passes` of them. With --trace 1, untraced and
traced passes alternate and the traced passes' spans go to .perfbench/.

Times are reported raw and at reference speed. The machine's speed drifts
by tens of percent over seconds, so a fixed computation (SpeedProbe) runs
before and after every timed call, for at least PROBE_SHARE of the call's
time, and the call's time is scaled by REFERENCE_S over the mean of the
median probe times before and after it. A workload whose speed the probe
does not follow is timed raw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

OUT_DIR = ".perfbench"
# Nominal SpeedProbe time: times are reported as if the probe took this long.
REFERENCE_S = 0.015
# Probing around a call takes at least this share of the call's time.
PROBE_SHARE = 0.03


class SpeedProbe:
    """A fixed computation, independent of qdlab, whose time follows the
    machine's current speed: a Python dict loop, small complex QRs and a
    matrix product into a preallocated array, in about equal parts."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.left = rng.standard_normal((256, 64))
        self.right = rng.standard_normal((64, 256))
        self.product = np.empty((256, 256))
        self()  # the first call is slow

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(30000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(150):
            q, r = np.linalg.qr(self.small)
            d = np.diagonal(r)
            np.cumsum(np.clip((q * (d / np.abs(d))).real, 0.0, None))
        for _ in range(20):
            np.matmul(self.left, self.right, out=self.product)
            np.abs(self.product, out=self.product).max(axis=1)
        return time.perf_counter() - start


class Runner:
    """Runs and checks passes of one workload, tallying the experiments."""

    def __init__(self, cli, experiments, outdir: Path, probe: SpeedProbe | None):
        self.cli = cli
        self.experiments = experiments
        self.outdir = outdir
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.qdisc_values: list[float] = []
        self.last = [0.0] * len(experiments)  # raw call times of the previous pass

    def speed(self, budget: float) -> float:
        """Median probe time, probing for `budget` seconds (at least once);
        REFERENCE_S, so times stay raw, without a probe."""
        if self.probe is None:
            return REFERENCE_S
        times = [self.probe()]
        while sum(times) < budget:
            times.append(self.probe())
        return statistics.median(times)

    def run_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """Run every experiment once; returns each one's seconds in
        cli.main, raw and at reference speed."""
        raw, scaled, outcomes = [], [], []
        before = self.speed(PROBE_SHARE * self.last[0])
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            for i, exp in enumerate(self.experiments):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    code = self.cli.main([*exp.argv, "--out", str(self.outdir / f"{i}.csv")])
                    seconds = time.perf_counter() - start
                after = self.speed(PROBE_SHARE * seconds)
                raw.append(seconds)
                scaled.append(seconds * REFERENCE_S / (0.5 * (before + after)))
                before = after
                outcomes.append((code, err.getvalue()))
        self.last = raw
        for i, (exp, (code, err)) in enumerate(zip(self.experiments, outcomes)):
            self._check(i, exp, code, err)
        return raw, scaled

    def _check(self, i: int, exp, code: int, err: str) -> None:
        from workloads import read_report

        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {err.strip()}"]
        else:
            try:
                report = read_report(self.outdir / f"{i}.csv")
                problems = exp.check(report)
                if exp.qdisc_values is not None:
                    self.qdisc_values.extend(exp.qdisc_values(report))
            except Exception:  # a malformed report fails the op; the run goes on
                problems = [traceback.format_exc(limit=2)]
        if problems:
            self.failed += 1
            print(f"check failed: qdlab {' '.join(exp.argv)}", file=sys.stderr)
            for p in problems[:5]:
                print(f"  {p}", file=sys.stderr)


def env_stamp(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "qdlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def untraced(runner: Runner, seconds: float, min_passes: int) -> dict:
    runner.run_pass()  # warm-up
    raw: list[list[float]] = []
    scaled: list[list[float]] = []
    while len(raw) < min_passes or sum(map(sum, raw)) < seconds:
        r, s = runner.run_pass()
        raw.append(r)
        scaled.append(s)
    return {"raw": raw, "scaled": scaled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(runner: Runner, seconds: float, min_passes: int, spans_path: Path) -> dict:
    import layers

    runner.run_pass()  # warm-up
    out = {"untraced": [], "traced": [], "traced_raw": [], "self_sum": [], "layers": []}
    tracers = []
    while len(tracers) < min_passes or sum(out["untraced"]) + sum(out["traced"]) < seconds:
        out["untraced"].append(sum(runner.run_pass()[1]))
        tracer = layers.new_tracer()
        raw, scaled = runner.run_pass(tracer)
        out["traced_raw"].append(sum(raw))
        out["traced"].append(sum(scaled))
        out["self_sum"].append(sum(tracer.layer_self_times().values()))
        out["layers"].append(layers.layer_metrics(tracer))
        tracers.append(tracer)
    with spans_path.open("w") as f:
        for trace_id, tracer in enumerate(tracers):
            for sid, parent, layer, name, start, end in tracer.spans:
                f.write(json.dumps({"trace": trace_id, "span": sid, "parent": parent, "layer": layer,
                                    "function": name, "start": start, "end": end}) + "\n")
    out["spans"] = str(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One qdlab benchmark worker (started by run.py).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=1, help="timed (or traced) passes at least")
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() when started")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import qdlab.cli

    # time.monotonic() is one system-wide clock on Linux, so this spans processes
    setup_raw = time.monotonic() - args.spawned
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe() if workload.reference_speed else None
    experiments = workload.experiments(args.seed)
    outdir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(qdlab.cli, experiments, outdir, probe)
    setup_scaled = setup_raw * REFERENCE_S / runner.speed(0.0)
    try:
        if args.trace:
            spans = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = traced(runner, args.seconds, args.min_passes, spans)
        else:
            result = untraced(runner, args.seconds, args.min_passes)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result.update(reference_speed=probe is not None, setup_raw=setup_raw, setup_scaled=setup_scaled,
                  attempted=runner.attempted, failed=runner.failed, qdisc_values=runner.qdisc_values,
                  env=env_stamp(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
