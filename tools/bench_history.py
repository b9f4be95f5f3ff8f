"""Print the parent and change medians of every end-to-end metric in the
committed benchmark records, one line per file, workload and metric.

    python tools/bench_history.py [BENCH_FILE ...]

With no argument it reads every BENCH_*.json at the root of this checkout,
in the order of the number in the name. Each record holds a list `runs` of
perfbench results, one per run:

    {"workload": W, "side": "parent" | "change",
     "result": {"metrics": {NAME: {"value": V, "unit": U}}}}

A run with no result (its worker failed) is left out of the medians, and the
count of such runs is printed. Other lists in a record (superseded or control
runs) are not read.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def record_number(path: Path) -> int:
    match = re.search(r"(\d+)", path.stem)
    return int(match.group(1)) if match else -1


def medians(runs: list[dict]) -> tuple[dict, int]:
    """{(workload, metric): (unit, {side: median})} over the runs that hold a
    result, and the count of those that hold none."""
    values: dict[tuple[str, str], dict[str, list[float]]] = {}
    units: dict[tuple[str, str], str] = {}
    failed = 0
    for run in runs:
        if not run.get("result"):
            failed += 1
            continue
        for metric, entry in run["result"]["metrics"].items():
            key = (run["workload"], metric)
            units[key] = entry["unit"]
            values.setdefault(key, {}).setdefault(run["side"], []).append(entry["value"])
    return {key: (units[key], {side: statistics.median(v) for side, v in sides.items()})
            for key, sides in values.items()}, failed


def history_lines(paths: list[Path]) -> list[str]:
    lines = [f"{'file':<14} {'workload':<13} {'metric':<12} {'parent':>10} {'change':>10} {'change %':>9}  unit"]
    for path in paths:
        table, failed = medians(json.loads(path.read_text())["runs"])
        for (workload, metric), (unit, med) in sorted(table.items(), key=lambda item: item[0][0]):
            parent, change = (med.get(side) for side in SIDES)
            rel = f"{change / parent - 1:+9.1%}" if parent and change is not None else f"{'-':>9}"
            cells = (f"{v:>10.4g}" if v is not None else f"{'-':>10}" for v in (parent, change))
            lines.append(f"{path.name:<14} {workload:<13} {metric:<12} {' '.join(cells)} {rel}  {unit}")
        if failed:
            lines.append(f"{path.name:<14} {failed} run(s) without a result left out")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-workload medians across the committed BENCH_*.json files.")
    parser.add_argument("files", type=Path, nargs="*", help="benchmark records (default: BENCH_*.json at the root)")
    opts = parser.parse_args(argv)
    paths = opts.files or sorted(HERE.glob("BENCH_*.json"), key=record_number)
    if not paths:
        parser.error(f"no BENCH_*.json in {HERE}")
    print("\n".join(history_lines(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
