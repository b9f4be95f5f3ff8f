import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def report_diff(monkeypatch):
    """tools/report_diff.py as a module, with a short command list."""
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", ("disc --ap 5", "disc --ap 0"))
    return module


def _copy_checkout(tmp_path: Path) -> Path:
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return other


def test_same_checkout_has_no_difference(report_diff, tmp_path, capsys):
    assert report_diff.main([str(_copy_checkout(tmp_path))]) == 0
    assert capsys.readouterr().out == "0 of 4 reports differ\n"


def test_blas_thread_counts_have_no_difference(report_diff, capsys):
    assert report_diff.main(["--blas-threads", "1", "2"]) == 0
    assert capsys.readouterr().out == "0 of 4 reports differ\n"


def test_changed_report_and_exit_code_are_printed(report_diff, tmp_path, capsys):
    other = _copy_checkout(tmp_path)
    cli = other / "src" / "qdlab" / "cli.py"
    text = cli.read_text()
    text = text.replace("FORMAT_VERSION = 1", "FORMAT_VERSION = 0")
    text = text.replace('if cfg.get("ap") is not None:', 'if cfg.get("ap"):')
    cli.write_text(text)
    assert report_diff.main([str(other)]) == 1
    out = capsys.readouterr().out
    assert "=== qdlab disc --ap 5 --format csv: exit 0 here, 0 in" in out
    assert "-# qdlab-report format=0 subcommand=disc" in out
    assert "+# qdlab-report format=1 subcommand=disc" in out
    assert "=== qdlab disc --ap 0 --format json: exit 2 here, 1 in" in out
    assert out.endswith("4 of 4 reports differ\n")


def test_refuses_a_directory_without_the_package(report_diff, tmp_path):
    with pytest.raises(SystemExit) as exc:
        report_diff.main([str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [[], [str(ROOT), "--blas-threads", "1", "2"], ["--blas-threads", "0", "2"]],
    ids=["neither-mode", "both-modes", "zero-threads"],
)
def test_refuses_other_than_one_mode_or_a_thread_count_below_one(report_diff, argv):
    with pytest.raises(SystemExit) as exc:
        report_diff.main(argv)
    assert exc.value.code == 2
