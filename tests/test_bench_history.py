import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_history():
    spec = importlib.util.spec_from_file_location("bench_history", ROOT / "tools" / "bench_history.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, side, wall, rss=40.0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "seed": 1, "side": side, "exit": 0,
            "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}


def _write(path: Path, runs: list[dict]) -> Path:
    path.write_text(json.dumps({"what": "synthetic", "runs": runs, "superseded_runs": [_run("b", "parent", 99.0)]}))
    return path


def test_medians_per_file_workload_and_side(bench_history, tmp_path, capsys):
    first = _write(tmp_path / "BENCH_3.json", [
        _run("b", "parent", 1.0), _run("b", "parent", 3.0), _run("b", "parent", 2.0),
        _run("b", "change", 0.5), _run("b", "change", 1.5, rss=42.0),
        _run("a", "parent", 4.0), _run("a", "change", 5.0),
    ])
    second = _write(tmp_path / "BENCH_12.json", [
        _run("b", "parent", 2.0), _run("b", "change", 1.0),
        {"workload": "b", "seed": 2, "side": "change", "exit": 1, "result": None},
    ])
    assert bench_history.main([str(first), str(second)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["file", "workload", "metric", "parent", "change", "change", "%", "unit"]
    rows = [line.split() for line in lines[1:]]
    assert rows == [
        ["BENCH_3.json", "a", "wall_s", "4", "5", "+25.0%", "s"],
        ["BENCH_3.json", "a", "peak_rss_mb", "40", "40", "+0.0%", "MB"],
        ["BENCH_3.json", "b", "wall_s", "2", "1", "-50.0%", "s"],
        ["BENCH_3.json", "b", "peak_rss_mb", "40", "41", "+2.5%", "MB"],
        ["BENCH_12.json", "b", "wall_s", "2", "1", "-50.0%", "s"],
        ["BENCH_12.json", "b", "peak_rss_mb", "40", "40", "+0.0%", "MB"],
        ["BENCH_12.json", "1", "run(s)", "without", "a", "result", "left", "out"],
    ]


def test_committed_records_in_number_order(bench_history, capsys):
    assert bench_history.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    numbers = [bench_history.record_number(Path(row[0])) for row in rows]
    assert numbers == sorted(numbers) and {7, 28} <= set(numbers)
    # the medians BENCH_28.json's own summary gives
    assert ["BENCH_28.json", "dpp-large", "wall_s", "0.3885", "0.3945", "+1.5%", "s"] in rows
