import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab import arithmetic_progressions, disc_exact, matrix_to_json
from qdlab.cli import EXIT_GATE, EXIT_USAGE, EXIT_VALIDATION, main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestConfigHandling:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["haar", "--config", str(cfg), "--seed", "1"]) == EXIT_USAGE

    def test_missing_seed_is_usage_error(self):
        assert main(["haar", "--trials", "100"]) == EXIT_USAGE
        assert main(["qdisc", "--random-n", "3", "--random-m", "2"]) == EXIT_USAGE

    def test_disc_deterministic_path_needs_no_seed(self, tmp_path):
        code, text = run(tmp_path, "d.csv", "disc", "--ap", "4")
        assert code == 0
        assert "disc" in text

    def test_disc_heuristic_needs_seed(self):
        assert main(["disc", "--ap", "4", "--heuristic"]) == EXIT_USAGE

    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [3], "trials": 2000, "seed": 9}))
        code1, text1 = run(tmp_path, "a.csv", "haar", "--config", str(cfg))
        code2, text2 = run(tmp_path, "b.csv", "haar", "--n-grid", "3", "--trials", "2000", "--seed", "9")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_trials_zero_rejected(self):
        assert main(["haar", "--trials", "0", "--seed", "1"]) == EXIT_USAGE


class TestDisc:
    def test_matches_library(self, tmp_path):
        code, text = run(tmp_path, "d.csv", "disc", "--ap", "8")
        assert code == 0
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["disc"] == disc_exact(arithmetic_progressions(8))[0]
        assert len(summary["witness"]) == 8

    def test_input_file(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"n": 3, "sets": [[1], [2, 3]]}))
        code, text = run(tmp_path, "d.csv", "disc", "--input", str(path))
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["disc"] == 1

    def test_cap_exceeded_without_heuristic(self, tmp_path):
        code, _ = run(tmp_path, "d.csv", "disc", "--random-n", "30", "--random-m", "3",
                      "--seed", "1", "--cap", "24")
        assert code == EXIT_VALIDATION

    def test_heuristic_at_least_exact(self, tmp_path):
        code, text = run(tmp_path, "d.csv", "disc", "--ap", "7", "--heuristic",
                         "--trials", "16", "--seed", "3")
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["disc"] >= disc_exact(arithmetic_progressions(7))[0]

    def test_missing_input_file(self, tmp_path):
        code, _ = run(tmp_path, "d.csv", "disc", "--input", str(tmp_path / "nope.json"))
        assert code == EXIT_VALIDATION


class TestQdisc:
    def test_singleton_sets_give_one(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"n": 3, "sets": [[1], [2]]}))
        code, text = run(tmp_path, "q.json", "qdisc", "--input", str(path),
                         "--seed", "2", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["summary"]["qdisc_estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_identity_projection_file(self, tmp_path):
        path = tmp_path / "proj.json"
        path.write_text(json.dumps({"n": 4, "projections": [matrix_to_json(np.eye(4))]}))
        code, text = run(tmp_path, "q.json", "qdisc", "--input", str(path),
                         "--seed", "2", "--format", "json")
        doc = json.loads(text)
        assert doc["summary"]["qdisc_estimate"] == pytest.approx(0.0, abs=1e-9)
        # witness is serialized as [re, im] pairs of a Hermitian matrix
        w = np.asarray(doc["summary"]["witness"])
        assert w.shape == (4, 4, 2)

    def test_invalid_projection_rejected(self, tmp_path):
        path = tmp_path / "proj.json"
        path.write_text(json.dumps({"n": 2, "projections": [matrix_to_json(2 * np.eye(2))]}))
        code, _ = run(tmp_path, "q.csv", "qdisc", "--input", str(path), "--seed", "1")
        assert code == EXIT_VALIDATION


class TestDpp:
    def test_sample_projection_kernel_constant_size(self, tmp_path):
        code, text = run(tmp_path, "s.csv", "dpp", "sample", "--kind", "projection",
                         "--n", "6", "--trials", "40", "--seed", "5")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[3:-1]]
        assert all(r[1] == "3" for r in rows)

    def test_sample_zero_kernel_all_empty(self, tmp_path):
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps(matrix_to_json(np.zeros((3, 3)))))
        code, text = run(tmp_path, "s.csv", "dpp", "sample", "--kernel", str(kpath),
                         "--trials", "20", "--seed", "5")
        rows = [line.split(",") for line in text.splitlines()[3:-1]]
        assert all(r[1] == "0" for r in rows)

    def test_check_uniform_kernel_passes(self, tmp_path):
        code, text = run(tmp_path, "c.csv", "dpp", "check", "--kind", "uniform",
                         "--n", "4", "--trials", "20000", "--seed", "6")
        assert code == 0
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["all_pass"] is True

    def test_check_gate_failure_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "c.csv", "dpp", "check", "--kind", "uniform", "--n", "4",
                      "--trials", "500", "--tv-gate", "0.0001", "--seed", "6")
        assert code == EXIT_GATE

    def test_check_dimension_cap(self, tmp_path):
        code, _ = run(tmp_path, "c.csv", "dpp", "check", "--kind", "uniform", "--n", "15",
                      "--trials", "100", "--seed", "1")
        assert code == EXIT_VALIDATION

    def test_invalid_kernel_file(self, tmp_path):
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps(matrix_to_json(np.diag([3.0, 0.0]))))
        code, _ = run(tmp_path, "s.csv", "dpp", "sample", "--kernel", str(kpath),
                      "--trials", "5", "--seed", "1")
        assert code == EXIT_VALIDATION


class TestCompare:
    def test_schema_and_sandwich(self, tmp_path):
        code, text = run(tmp_path, "cmp.csv", "compare", "--ap-min", "6", "--ap-max", "6",
                         "--random-count", "1", "--random-n", "6", "--random-m", "4",
                         "--restarts", "1", "--sweeps", "1", "--seed", "8")
        assert code == 0
        header = text.splitlines()[2]
        assert header == ("system_id,n,m,disc,qdisc_est,min_feasible_c_log,"
                          "min_feasible_c_sqrt_log,sandwich_ok")
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["all_sandwich_ok"] is True


class TestUboundLbound:
    def test_ubound_fraction_and_ci(self, tmp_path):
        code, text = run(tmp_path, "u.csv", "ubound", "--n", "6", "--m-grid", "4", "--trials",
                         "200", "--probe-trials", "1500", "--seed", "4")
        assert code == 0
        row = text.splitlines()[3].split(",")
        fraction, ci_low, ci_high = float(row[5]), float(row[6]), float(row[7])
        assert 0.0 <= ci_low <= fraction <= ci_high <= 1.0

    def test_ubound_explicit_c(self, tmp_path):
        code, text = run(tmp_path, "u.csv", "ubound", "--n", "4", "--m-grid", "2", "--trials",
                         "100", "--c", "1.0", "--seed", "4")
        summary = json.loads(text.strip().splitlines()[-1].split("# summary: ")[1])
        assert summary["c_source"] == "given"
        assert summary["c"] == 1.0

    def test_lbound_rows(self, tmp_path):
        code, text = run(tmp_path, "l.csv", "lbound", "--n-grid", "6", "--m-cap", "30",
                         "--seed", "4")
        assert code == 0
        lines = text.splitlines()
        assert lines[2] == "n,m,m_requested,regime_ok,estimate,ratio,zeta_scaled"
        assert len(lines) == 3 + 3 + 1  # header lines + three grid rows + summary


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["disc", "--random-n", "8", "--random-m", "5", "--heuristic", "--trials", "8", "--seed", "5"],
            ["qdisc", "--random-n", "3", "--random-m", "2", "--restarts", "1", "--sweeps", "1", "--seed", "5"],
            ["dpp", "sample", "--kind", "random", "--n", "4", "--trials", "50", "--seed", "5"],
            ["haar", "--n-grid", "2", "--trials", "1500", "--seed", "5"],
        ],
    )
    def test_byte_identical_replay(self, tmp_path, argv):
        _, a = run(tmp_path, "a.csv", *argv, "--threads", "1")
        _, b = run(tmp_path, "b.csv", *argv, "--threads", "1")
        assert a == b

    def test_json_format_replay(self, tmp_path):
        argv = ["dpp", "check", "--kind", "random", "--n", "3", "--trials", "2000",
                "--seed", "7", "--format", "json"]
        _, a = run(tmp_path, "a.json", *argv)
        _, b = run(tmp_path, "b.json", *argv)
        assert a == b
        json.loads(a)  # parses


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["qdisc", "--seed", "1", "--input"], {"n": 2, "projections": [[1, 0, 0, 1]]}),
            (["qdisc", "--seed", "1", "--input"], {"n": "x", "projections": []}),
            (["qdisc", "--seed", "1", "--input"], [1, 2]),
            (["disc", "--input"], {"n": "x", "sets": [[1]]}),
            (["disc", "--input"], {"n": 2, "sets": 5}),
            (["disc", "--input"], {"n": 2, "sets": [5]}),
            (["dpp", "sample", "--seed", "1", "--kernel"], [[1, 2], [3, 4]]),
            (["qdisc", "--seed", "1", "--input"], {"n": 1000000000000, "sets": [[1]]}),
            (["disc", "--heuristic", "--seed", "1", "--input"], {"n": 1000000000000, "sets": [[1]]}),
        ],
    )
    def test_exit_code_and_message(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, _ = run(tmp_path, "r.csv", *argv, str(path))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "validation failure" in err
        assert "Traceback" not in err


# Ints are small or far out of range: a valid mid-size n (say 3000) is a legal
# input whose qdisc run takes hours, which says nothing about the input boundary.
_json_ints = st.integers(-3, 12) | st.sampled_from([-(10**12), 2**31, 2**63, 10**12, 10**400])
_json_scalars = (
    st.none() | st.booleans() | _json_ints | st.floats(-1e3, 1e3) | st.text(max_size=3)
    | st.sampled_from([float("inf"), float("nan"), 1e308])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "sets", "projections", "x"]), inner, max_size=3),
    max_leaves=16,
)
# Near-valid shapes (set and projection documents, matrices of [re, im]
# pairs) sit next to arbitrary ones, so inputs reach the checks past parsing.
_index_lists = st.lists(st.lists(_json_ints, max_size=3), max_size=3)
_pair_matrices = st.lists(st.lists(st.lists(_json_scalars, max_size=3), max_size=3), max_size=3)
_json_docs = st.one_of(
    _json_values,
    _pair_matrices,
    st.fixed_dictionaries({"n": _json_ints | _json_values, "sets": _index_lists | _json_values}),
    st.fixed_dictionaries(
        {"n": _json_ints | _json_values, "projections": st.lists(_pair_matrices, max_size=2) | _json_values}
    ),
    st.dictionaries(st.sampled_from(["n", "sets", "projections", "x"]), _json_values, max_size=3),
)


class TestFuzzedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["disc", "--input"],
            ["disc", "--heuristic", "--seed", "1", "--trials", "2", "--input"],
            ["qdisc", "--seed", "1", "--restarts", "1", "--sweeps", "1", "--input"],
            ["dpp", "sample", "--seed", "1", "--trials", "3", "--kernel"],
        ],
    )
    @given(doc=_json_docs)
    @settings(max_examples=150, deadline=None)
    def test_exits_zero_or_two_without_traceback(self, argv, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            # an exception escaping main() would be a traceback and fails the example
            with contextlib.redirect_stderr(err):
                code = main([*argv, str(path), "--out", str(Path(tmp) / "r.csv")])
        assert code in (0, EXIT_VALIDATION), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestThreadsInvariance:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dpp", "sample", "--kind", "random", "--n", "5", "--trials", "60", "--seed", "3"],
            ["haar", "--n-grid", "2", "3", "--trials", "500", "--seed", "3"],
            ["compare", "--ap-min", "5", "--ap-max", "6", "--random-count", "1", "--random-n", "5",
             "--random-m", "4", "--restarts", "1", "--sweeps", "1", "--seed", "3"],
            ["ubound", "--n", "6", "--m-grid", "4", "8", "--trials", "50", "--c", "1.0", "--seed", "3"],
        ],
    )
    def test_rows_and_summary_do_not_depend_on_threads(self, tmp_path, argv):
        _, one = run(tmp_path, "t1.csv", *argv, "--threads", "1")
        _, two = run(tmp_path, "t2.csv", *argv, "--threads", "2")
        body = [line for line in one.splitlines() if not line.startswith("# config: ")]
        assert len(body) > 3
        assert body == [line for line in two.splitlines() if not line.startswith("# config: ")]
