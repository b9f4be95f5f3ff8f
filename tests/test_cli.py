import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab import DEFAULT_EXHAUSTIVE_CAP, __version__, arithmetic_progressions, disc_exact, matrix_to_json, qdisc
from qdlab.cli import (
    _COMMANDS,
    _SCHEMAS,
    EXIT_GATE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    FORMAT_VERSION,
    MAX_TRIALS,
    _binomial_ci,
    _resolve_kernel,
    build_config,
    build_parser,
    main,
    render_report,
)
from qdlab.dpp import sample_many, sample_masks, validate_kernel
from qdlab.setsys import MAX_DENSE_ENTRIES, MAX_GROUND_SIZE, MAX_SET_COUNT, check_dense_size


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

    def test_threads_flag_is_gone(self):
        assert main(["haar", "--n-grid", "2", "--trials", "100", "--seed", "1", "--threads", "1"]) == EXIT_USAGE

    def test_trials_zero_rejected(self):
        assert main(["haar", "--trials", "0", "--seed", "1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["dpp", "sample", "--seed", "1"], '{"trials": "x"}'),
            (["dpp", "sample", "--seed", "1"], '{"n": 1e400}'),
            (["dpp", "sample", "--seed", "1"], '{"trials": 2.5}'),
            (["dpp", "sample", "--seed", "1"], '{"n": true}'),
            (["dpp", "sample", "--seed", "1"], '{"kind": "bogus"}'),
            (["dpp", "sample", "--seed", "1"], '{"z_gate": "0.1"}'),
            (["haar", "--seed", "1"], '{"n_grid": 3}'),
            (["haar", "--seed", "1"], '{"n_grid": []}'),
            (["haar", "--seed", "1"], '{"n_grid": [2, 3.0]}'),
            (["disc", "--ap", "4"], '{"heuristic": 1}'),
            (["dpp", "sample"], '{"seed": -1}'),
            (["dpp", "sample"], '{"seed": 1.0}'),
        ],
    )
    def test_config_values_checked_against_options(self, tmp_path, capsys, argv, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _ = run(tmp_path, "r.csv", *argv, "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "validation failure: config key" in err or "seed must be" in err
        assert "Traceback" not in err

    def test_config_ints_accepted_for_float_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_gate": 4, "n_grid": [2], "trials": 200, "seed": 3}))
        code1, text1 = run(tmp_path, "a.csv", "haar", "--config", str(cfg))
        code2, text2 = run(tmp_path, "b.csv", "haar", "--n-grid", "2", "--trials", "200", "--seed", "3")
        assert code1 == code2 == 0
        assert text1.splitlines()[2:] == text2.splitlines()[2:]

    def test_negative_seed_or_dimension_rejected(self):
        assert main(["dpp", "sample", "--seed", "-1", "--trials", "2"]) == EXIT_VALIDATION
        for kind in ("uniform", "random"):
            assert main(["dpp", "sample", "--seed", "1", "--kind", kind, "--n", "-3"]) == EXIT_VALIDATION


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

    def test_cap_defaults_to_the_library_constant(self):
        for name in ("disc", "compare"):
            option = _SCHEMAS[name]["cap"]
            assert option.default == DEFAULT_EXHAUSTIVE_CAP
            assert f"(default {DEFAULT_EXHAUSTIVE_CAP})" in option.help

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

    def test_random_system_at_n_and_m_64(self, tmp_path):
        # the largest size README states for qdisc (about 1.5 s for one sweep)
        code, text = run(tmp_path, "q.json", "qdisc", "--random-n", "64", "--random-m", "64", "--restarts", "1",
                         "--sweeps", "1", "--refine-top", "4", "--seed", "1", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert len(doc["rows"]) == 64 and all(row["rank"] == 32 for row in doc["rows"])
        assert doc["summary"]["qdisc_estimate"] == max(row["objective"] for row in doc["rows"])

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
                      "--trials", "500", "--z-gate", "1e-9", "--seed", "6")
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


class TestDppStreams:
    """Both `dpp` actions read their draws from one stream, that of the
    second child of the seed root. Another layout changes every report of
    both actions, so a switch must fail here."""

    @staticmethod
    def _masks(kind, n, trials, seed):
        kernel_child, draw_child = np.random.SeedSequence(seed).spawn(2)
        kernel = _resolve_kernel({"kernel": None, "kind": kind, "n": n}, kernel_child)
        return sample_masks(kernel, trials, draw_child)

    @pytest.mark.parametrize("kind", ["uniform", "random", "projection"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_sample_reads_one_stream(self, tmp_path, kind, seed):
        code, text = run(tmp_path, "s.json", "dpp", "sample", "--kind", kind, "--n", "5", "--trials", "60",
                         "--seed", str(seed), "--format", "json")
        assert code == 0
        masks = self._masks(kind, 5, 60, seed)
        points = [[int(p) for p in row["points"].split()] for row in json.loads(text)["rows"]]
        assert points == [(np.flatnonzero(m) + 1).tolist() for m in masks]

    @pytest.mark.parametrize("kind", ["uniform", "random", "projection"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_check_reads_one_stream(self, tmp_path, kind, seed):
        trials = 400
        code, text = run(tmp_path, "c.json", "dpp", "check", "--kind", kind, "--n", "4", "--trials", str(trials),
                         "--z-gate", "1e300", "--seed", str(seed), "--format", "json")
        assert code == 0
        masks = self._masks(kind, 4, trials, seed)
        # invert each inclusion z back to its count of draws holding the point
        counts = [
            round(trials * (r["reference"] + r["value"] * math.sqrt(r["reference"] * (1 - r["reference"]) / trials)))
            for r in json.loads(text)["rows"] if r["check"] == "inclusion_z"
        ]
        assert counts == masks.sum(axis=0).tolist()


class TestDppSampleRows:
    """`dpp sample` writes its rows and mean size straight from the
    (trials, N) mask of `sample_masks` on the draw child: row t lists the
    points of mask row t as labels 1..N, and its size is their count."""

    KERNELS = {
        "random-n1": ["--kind", "random", "--n", "1"],  # some draws are empty, some not
        "zero-kernel": [],  # every draw is empty; the kernel file is written by the test
        "uniform-n5": ["--kind", "uniform", "--n", "5"],
        "projection-n64": ["--kind", "projection", "--n", "64"],
    }

    @classmethod
    def _argv(cls, tmp_path, name, trials, seed):
        if name == "zero-kernel":
            path = tmp_path / "zero.json"
            path.write_text(json.dumps(matrix_to_json(np.zeros((3, 3)))))
            return ["dpp", "sample", "--kernel", str(path), "--trials", str(trials), "--seed", str(seed)]
        return ["dpp", "sample", *cls.KERNELS[name], "--trials", str(trials), "--seed", str(seed)]

    @staticmethod
    def _kernel_and_masks(argv):
        cfg = build_config("dpp", build_parser().parse_args(argv))
        kernel_child, draw_child, _ = np.random.SeedSequence(cfg["seed"]).spawn(3)
        kernel = _resolve_kernel(cfg, kernel_child)
        return cfg, kernel, sample_masks(kernel, cfg["trials"], draw_child), draw_child

    @staticmethod
    def _read(text, fmt):
        """The rows as (trial, size, points) and the summary of a report."""
        if fmt == "json":
            doc = json.loads(text)
            return [(r["trial"], r["size"], r["points"]) for r in doc["rows"]], doc["summary"]
        lines = text.splitlines()
        rows = [(int(t), int(size), points) for t, size, points in csv.reader(lines[3:-1])]
        return rows, json.loads(lines[-1].removeprefix("# summary: "))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_rows_are_the_masks(self, tmp_path, name, fmt):
        trials = 40
        argv = self._argv(tmp_path, name, trials, 3301)
        code, text = run(tmp_path, f"s.{fmt}", *argv, "--format", fmt)
        assert code == 0
        rows, summary = self._read(text, fmt)
        _, _, masks, _ = self._kernel_and_masks(argv)
        sizes = masks.sum(axis=1)
        assert rows == [
            (t, int(sizes[t]), " ".join(str(i + 1) for i in np.flatnonzero(m))) for t, m in enumerate(masks)
        ]
        assert type(summary["mean_size"]) is float
        assert summary["mean_size"] == int(sizes.sum()) / trials
        if name == "random-n1":
            assert 0 < sizes.sum() < trials
        if name == "zero-kernel":
            assert summary["mean_size"] == 0.0 and all(points == "" for _, _, points in rows)

    def test_csv_report_is_the_per_draw_report(self, tmp_path):
        """The report equals the text of the per-draw path: one
        `ProcessSample` per draw from `sample_many`, rows from its points
        and the mean size from a second pass over the draws."""
        argv = self._argv(tmp_path, "random-n1", 200, 3302)
        code, text = run(tmp_path, "s.csv", *argv)
        assert code == 0
        cfg, kernel, _, draw_child = self._kernel_and_masks(argv)
        draws = sample_many(kernel, cfg["trials"], draw_child)
        rows = [{"trial": t, "size": len(s.points), "points": " ".join(map(str, s.points))}
                for t, s in enumerate(draws)]
        summary = {"trials": cfg["trials"], "mean_size": sum(len(s.points) for s in draws) / cfg["trials"],
                   "kernel_trace": kernel.matrix.trace(), "kernel_dim": kernel.dim, "kernel": matrix_to_json(kernel)}
        config = {k: v for k, v in cfg.items() if k != "out"}
        assert text == render_report("dpp", config, rows, summary, "csv")


def _shifted_draws(shift):
    """A stand-in for `sample_masks` that draws from the kernel with the
    eigenvalue nearest 1/2 moved by `shift`: a sampler with a planted fault."""
    def draw(kernel, trials, seed):
        lam = kernel.eigenvalues.copy()
        lam[np.abs(lam - 0.5).argmin()] += shift
        vecs = kernel.eigenvectors
        return sample_masks(validate_kernel((vecs * lam) @ vecs.conj().T), trials, seed)
    return draw


class TestDppCheckGates:
    """Each TV row of `dpp check` is gated at the largest TV of 999
    multinomial replicates of its exact law, so an exact sampler fails it
    with probability at most 1/1000."""

    @staticmethod
    def _check(tmp_path, *argv):
        code, text = run(tmp_path, "c.json", "dpp", "check", *argv, "--format", "json")
        return code, json.loads(text)

    def test_defaults_pass_on_twenty_seeds(self, tmp_path):
        for seed in range(1, 21):
            code, doc = self._check(tmp_path, "--seed", str(seed))
            assert code == 0, (seed, doc["rows"][:2])
            assert doc["summary"]["tv_alarm_rate"] == 0.001
            assert all(0.0 < r["gate"] < 0.05 for r in doc["rows"][:2])

    def test_shifted_eigenvalue_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr("qdlab.cli.sample_masks", _shifted_draws(0.05))
        caught = 0
        for seed in range(1, 21):
            code, doc = self._check(tmp_path, "--seed", str(seed))
            caught += code == EXIT_GATE and not all(r["passed"] for r in doc["rows"][:2])
        assert caught >= 19

    def test_projection_size_tv_passes_its_zero_gate(self, tmp_path):
        # every draw of a projection kernel has its rank as size, and so has
        # every replicate of the size law
        code, doc = self._check(tmp_path, "--kind", "projection", "--n", "5", "--trials", "3000", "--seed", "2")
        assert code == 0
        size = doc["rows"][1]
        assert size["check"] == "size_tv" and size["value"] == size["gate"] == 0.0 and size["passed"]

    def test_tv_gate_option_is_gone(self, tmp_path):
        assert main(["dpp", "check", "--tv-gate", "1", "--seed", "1"]) == EXIT_USAGE
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tv_gate": 0.02}))
        assert main(["dpp", "check", "--seed", "1", "--config", str(cfg)]) == EXIT_USAGE


class TestHaar:
    def test_no_fixed_gate_repeats_a_rank_gate(self, tmp_path):
        code, text = run(tmp_path, "h.json", "haar", "--trials", "200", "--z-gate", "1e300", "--seed", "1",
                         "--format", "json")
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 55
        for n in range(2, 9):
            ranks = {row["param"] for row in rows if row["n"] == n and row["gate"] == "mean_trace_sq"}
            fixed = {row["param"] for row in rows if row["n"] == n and row["gate"] == "mean_trace_sq_fixed"}
            assert ranks == {n // 2} and fixed == ({n // 2 + 1} if n >= 3 else set())


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


class TestReportEnvelope:
    @pytest.mark.parametrize(
        "argv, header",
        [
            (["disc", "--ap", "4"], "set_index,size,signed_sum"),
            (["qdisc", "--random-n", "3", "--random-m", "2", "--restarts", "1", "--sweeps", "1", "--seed", "5"],
             "projection_index,rank,trace_term,commutator_term,objective"),
            (["ubound", "--n", "4", "--m-grid", "2", "--trials", "20", "--c", "1.0", "--seed", "4"],
             "n,m,c,trials,successes,fraction,ci_low,ci_high,max_delta,delta_over_scale"),
            (["lbound", "--n-grid", "4", "--m-cap", "8", "--seed", "4"],
             "n,m,m_requested,regime_ok,estimate,ratio,zeta_scaled"),
            (["dpp", "sample", "--kind", "random", "--n", "3", "--trials", "5", "--seed", "5"], "trial,size,points"),
            (["dpp", "check", "--kind", "uniform", "--n", "3", "--trials", "200", "--z-gate", "1e300", "--seed", "5"],
             "check,index,value,reference,gate,passed"),
            (["compare", "--ap-min", "4", "--ap-max", "4", "--random-count", "0", "--restarts", "1",
              "--sweeps", "1", "--seed", "1"],
             "system_id,n,m,disc,qdisc_est,min_feasible_c_log,min_feasible_c_sqrt_log,sandwich_ok"),
            (["haar", "--n-grid", "2", "--trials", "100", "--z-gate", "1e300", "--seed", "1"],
             "n,gate,param,exact,estimate,se,z,passed"),
        ],
    )
    def test_csv_header(self, tmp_path, argv, header):
        code, text = run(tmp_path, "r.csv", *argv)
        assert code == 0
        assert text.splitlines()[2] == header

    def test_haar_gate_failure_writes_the_full_report(self, tmp_path):
        argv = ["haar", "--n-grid", "2", "3", "--trials", "200", "--seed", "1", "--format", "json"]
        code, text = run(tmp_path, "fail.json", *argv, "--z-gate", "1e-9")
        assert code == EXIT_GATE
        doc = json.loads(text)
        assert doc["summary"]["all_pass"] is False
        _, loose = run(tmp_path, "pass.json", *argv, "--z-gate", "1e300")
        rows = json.loads(loose)["rows"]
        assert [r["estimate"] for r in doc["rows"]] == [r["estimate"] for r in rows]

    def test_compare_empty_corpus(self, tmp_path, capsys):
        code, text = run(tmp_path, "c.csv", "compare", "--ap-min", "7", "--ap-max", "6",
                         "--random-count", "0", "--seed", "1")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and text == ""
        assert "empty corpus" in err and "Traceback" not in err


def _reference_render(subcommand, config, rows, summary, fmt):
    """The report writer render_report replaced: a plain-Python copy of
    every row, then csv.DictWriter or json.dumps."""
    def py(v):
        return v.tolist() if isinstance(v, (np.generic, np.ndarray)) else v

    def canon(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    columns = list(rows[0])
    config = {k: py(v) for k, v in config.items()}
    rows = [{k: py(v) for k, v in row.items()} for row in rows]
    summary = {k: py(v) for k, v in summary.items()}
    if fmt == "json":
        doc = {"format": FORMAT_VERSION, "subcommand": subcommand, "version": __version__, "config": config,
               "columns": columns, "rows": rows, "summary": summary}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(f"# qdlab-report format={FORMAT_VERSION} subcommand={subcommand} version={__version__}\n")
    buf.write(f"# config: {canon(config)}\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    buf.write(f"# summary: {canon(summary)}\n")
    return buf.getvalue()


_CONFIG = {"seed": 3, "n_grid": [2, 3], "z_gate": 4.0, "kernel": None, "format": "csv"}
_NUMPY_ROWS = [
    {"x": np.float64(0.1), "k": np.int64(-3), "ok": np.bool_(True), "empty": None, "nan": np.float64("nan"),
     "text": 'a, "quoted" b', "arr": np.arange(3)},
    {"x": 1e-300, "k": 7, "ok": False, "empty": "", "nan": float("nan"), "text": "two\nlines",
     "arr": np.array([[1.5, -0.0]])},
    {"x": np.float64(-2.0 / 3.0), "k": np.int64(2**62), "ok": np.bool_(False), "empty": None, "nan": np.float64("inf"),
     "text": "", "arr": [np.float64(0.25)]},
]
_NUMPY_SUMMARY = {"mean": np.float64(2.0 / 3.0), "count": np.int64(5), "ok": np.bool_(False), "grid": np.eye(2),
                  "none": None, "nan": float("nan"), "label": 'x,"y"', "pairs": [[0.5, 0.0], [1.0, -1e-17]]}
_SCALARS = st.one_of(
    st.floats().map(np.float64), st.floats(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(),
    st.booleans().map(np.bool_), st.booleans(), st.none(), st.text(),
)


class TestRenderReport:
    """render_report writes the same bytes as the writer it replaced."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numpy_values(self, fmt):
        # CSV cells are scalars: the array column is a JSON-only case
        rows = _NUMPY_ROWS if fmt == "json" else [{k: v for k, v in r.items() if k != "arr"} for r in _NUMPY_ROWS]
        got = render_report("demo", _CONFIG, rows, _NUMPY_SUMMARY, fmt)
        assert got == _reference_render("demo", _CONFIG, rows, _NUMPY_SUMMARY, fmt)

    @pytest.mark.parametrize(
        "argv",
        [
            ["disc", "--ap", "6"],
            ["qdisc", "--random-n", "4", "--random-m", "3", "--restarts", "1", "--sweeps", "1", "--seed", "5"],
            ["ubound", "--n", "4", "--m-grid", "2", "--trials", "20", "--c", "1.0", "--seed", "4"],
            ["lbound", "--n-grid", "4", "--m-cap", "8", "--seed", "4"],
            ["dpp", "sample", "--kind", "projection", "--n", "4", "--trials", "5", "--seed", "5"],
            ["dpp", "check", "--kind", "random", "--n", "3", "--trials", "300", "--seed", "5"],
            ["compare", "--ap-min", "4", "--ap-max", "5", "--random-count", "1", "--restarts", "1", "--seed", "1"],
            ["haar", "--n-grid", "2", "--trials", "100", "--seed", "1"],
            ["dpp", "sample", "--kind", "projection", "--n", "128", "--trials", "2", "--seed", "5"],
            # a real kernel: its zero imaginary parts are +0.0 on both sides of the diagonal
            ["dpp", "sample", "--kind", "uniform", "--n", "6", "--trials", "5", "--seed", "5"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_command_rows(self, argv, fmt):
        args = build_parser().parse_args(argv)
        cfg = build_config(args.subcommand, args)
        rows, summary = _COMMANDS[args.subcommand][0](cfg, np.random.SeedSequence(cfg["seed"] or 0))
        config = {k: v for k, v in cfg.items() if k != "out"}
        got = render_report(args.subcommand, config, rows, summary, fmt)
        assert got == _reference_render(args.subcommand, config, rows, summary, fmt)

    @given(values=st.lists(st.tuples(_SCALARS, _SCALARS), min_size=1, max_size=4), top=_SCALARS)
    @settings(max_examples=200, deadline=None)
    def test_any_scalars(self, values, top):
        rows = [{"a": a, "b": b} for a, b in values]
        for fmt in ("csv", "json"):
            assert render_report("demo", _CONFIG, rows, {"top": top}, fmt) == \
                _reference_render("demo", _CONFIG, rows, {"top": top}, fmt)


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

    def test_lbound_default_grid(self, tmp_path):
        # the largest size README states for lbound: N up to 32, M up to m_cap = 2048
        code, text = run(tmp_path, "l.json", "lbound", "--seed", "1", "--format", "json")
        assert code == 0
        rows = json.loads(text)["rows"]
        assert [r["m"] for r in rows] == [8, 64, 16, 16, 256, 256, 32, 1024, 2048]
        assert [r["n"] for r in rows] == [8] * 3 + [16] * 3 + [32] * 3


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
        _, a = run(tmp_path, "a.csv", *argv)
        _, b = run(tmp_path, "b.csv", *argv)
        assert a == b

    def test_json_format_replay(self, tmp_path):
        argv = ["dpp", "check", "--kind", "random", "--n", "3", "--trials", "2000",
                "--seed", "7", "--format", "json"]
        _, a = run(tmp_path, "a.json", *argv)
        _, b = run(tmp_path, "b.json", *argv)
        assert a == b
        json.loads(a)  # parses

    def test_projection_draws_do_not_depend_on_blas_threads(self):
        # the projection table V V* is a BLAS product, so a thread count could
        # reach the draws through it; only the embedded kernel may move
        argv = ["dpp", "sample", "--kind", "projection", "--n", "128", "--trials", "50", "--seed", "2107"]
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
            env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            out = subprocess.run([sys.executable, "-m", "qdlab.cli", *argv], capture_output=True, text=True,
                                 env=env, check=True)
            reports.append(out.stdout.splitlines())
        one, two = reports
        summary = [i for i, line in enumerate(one) if line.startswith("# summary:")]
        assert len(one) == len(two) == 54 and summary == [53]
        assert one[:53] == two[:53]
        assert all(int(line.split(",")[1]) == 64 for line in one[3:53])


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
            (["disc", "--input"], {"n": 3.9, "sets": [[1, 2.7], [True, 3]]}),
            (["disc", "--input"], {"n": 3, "sets": [[1, 2.7]]}),
            (["disc", "--input"], {"n": 3, "sets": [[True, 3]]}),
            (["qdisc", "--seed", "1", "--input"], {"n": 1.0, "projections": [[[[1, 0]]]]}),
            (["dpp", "sample", "--seed", "1", "--kernel"], [[[0.5, 1e308]]]),
            (["dpp", "sample", "--seed", "1", "--trials", "3", "--kernel"],
             [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]),
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


    @pytest.mark.parametrize(
        "argv, code",
        [
            (["ubound", "--n", "4", "--m-grid", "4", "--c", "1", "--trials", "0"], EXIT_VALIDATION),
            (["ubound", "--n", "4", "--m-grid", "4", "--c", "1", "--trials", "-3"], EXIT_VALIDATION),
            (["compare", "--random-count", "-1"], EXIT_VALIDATION),
            (["compare", "--ap-min", "6", "--ap-max", "6", "--random-count", "0", "--sweeps", "-1"], EXIT_VALIDATION),
            (["qdisc", "--random-n", "4", "--random-m", "3", "--plane-cap", "-2"], EXIT_VALIDATION),
            (["qdisc", "--random-n", "4", "--random-m", "3", "--sweeps", "-1"], EXIT_VALIDATION),
            (["qdisc", "--random-n", "4", "--random-m", "3", "--refine-top", "-1"], EXIT_VALIDATION),
            (["lbound", "--n-grid", "4", "--m-cap", "8", "--plane-cap", "-2"], EXIT_VALIDATION),
            (["lbound", "--n-grid", "4", "--m-cap", "8", "--sweeps", "-1"], EXIT_VALIDATION),
            (["disc", "--ap", "0"], EXIT_VALIDATION),
            (["qdisc", "--random-n", "4", "--random-m", "3", "--plane-cap", "0"], EXIT_VALIDATION),
            (["qdisc", "--random-n", "4", "--random-m", "3", "--refine-top", "0"], EXIT_VALIDATION),
            (["dpp", "sample", "--trials", "0"], EXIT_VALIDATION),
            (["dpp", "check", "--n", "4", "--trials", "-2"], EXIT_VALIDATION),
            (["haar", "--n-grid", "2", "--trials", "1"], EXIT_VALIDATION),
            (["haar", "--n-grid", "2", "3", "--trials", "0"], EXIT_VALIDATION),
        ],
    )
    def test_out_of_range_count(self, tmp_path, capsys, argv, code):
        assert run(tmp_path, "r.csv", *argv, "--seed", "1") == (code, "")
        err = capsys.readouterr().err
        assert err.startswith("validation failure: need")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ubound", "--n", "4", "--m-grid", "4", "--trials", "5", "--c", "nan"],
            ["ubound", "--n", "4", "--m-grid", "4", "--trials", "5", "--c", "inf"],
            ["lbound", "--n-grid", "4", "--alpha", "nan"],
            ["lbound", "--n-grid", "4", "--alpha", "inf"],
            ["haar", "--n-grid", "2", "--trials", "100", "--z-gate", "nan"],
            ["dpp", "check", "--n", "3", "--trials", "100", "--z-gate=-inf"],
        ],
    )
    def test_non_finite_float_refused(self, tmp_path, capsys, argv):
        assert run(tmp_path, "r.csv", *argv, "--seed", "1") == (EXIT_VALIDATION, "")
        err = capsys.readouterr().err
        assert err.startswith("validation failure: ") and "is not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["ubound", "--n", "4", "--m-grid", "4", "--trials", "5"], {"c": float("nan")}),
            (["lbound", "--n-grid", "4"], {"alpha": float("inf")}),
        ],
    )
    def test_non_finite_float_in_config_refused(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # json writes NaN and Infinity, which json.loads reads back
        assert run(tmp_path, "r.csv", *argv, "--config", str(cfg), "--seed", "1") == (EXIT_VALIDATION, "")
        assert "is not a finite number" in capsys.readouterr().err

    def test_huge_kernel_refused_without_warning(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps([[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "r.csv", "dpp", "sample", "--seed", "1", "--trials", "3", "--kernel", str(path))
        assert code == EXIT_VALIDATION
        assert "too large to symmetrize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dpp", "sample", "--seed", "1", "--trials", "3", "--n", "100000000000"],
            ["haar", "--seed", "1", "--trials", "3", "--n-grid", "100000000"],
            ["qdisc", "--seed", "1", "--random-n", "100000000000", "--random-m", "1"],
            ["ubound", "--seed", "1", "--n", "100000000000", "--m-grid", "4", "--trials", "2", "--c", "1"],
            ["lbound", "--seed", "1", "--n-grid", "100000000000"],
            ["disc", "--seed", "1", "--heuristic", "--random-n", "100000000000", "--random-m", "1"],
            ["disc", "--ap", "100000000000"],
            ["compare", "--seed", "1", "--ap-min", "6", "--ap-max", "6", "--random-count", "1",
             "--random-n", "100000000000", "--random-m", "1"],
            ["compare", "--seed", "1", "--ap-min", "6", "--ap-max", "100000000000", "--random-count", "0"],
        ],
    )
    def test_dimension_out_of_range(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, "r.csv", *argv)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"exceeds the largest supported size {MAX_GROUND_SIZE}" in err
        assert "Traceback" not in err

    def test_dimension_out_of_range_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [2, MAX_GROUND_SIZE + 1]}))
        assert main(["haar", "--seed", "1", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "n_grid = 4097 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["disc", "--seed", "1", "--heuristic", "--random-n", "4", "--random-m", "100000000000"],
            ["qdisc", "--seed", "1", "--random-n", "4", "--random-m", "100000000000"],
            ["ubound", "--seed", "1", "--n", "4", "--m-grid", "4", "100000000000", "--trials", "2", "--c", "1"],
            ["lbound", "--seed", "1", "--n-grid", "4", "--m-cap", "100000000000"],
            ["compare", "--seed", "1", "--ap-min", "6", "--ap-max", "6", "--random-count", "1",
             "--random-n", "4", "--random-m", "100000000000"],
        ],
    )
    def test_set_count_out_of_range(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, "r.csv", *argv)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"exceeds the largest supported size {MAX_SET_COUNT}" in err
        assert "Traceback" not in err

    def test_set_count_out_of_range_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for command, data in ((["lbound"], {"m_cap": MAX_SET_COUNT + 1}), (["ubound"], {"m_grid": [4, 10**12]})):
            cfg.write_text(json.dumps(data))
            assert main([*command, "--seed", "1", "--config", str(cfg)]) == EXIT_VALIDATION
            assert "exceeds the largest supported size" in capsys.readouterr().err

    def test_set_count_defaults_within_cap(self):
        for options in _SCHEMAS.values():
            for key in set(options) & {"random_m", "m_grid", "m_cap"}:
                default = options[key].default
                assert max(default if isinstance(default, list) else [default or 0]) <= MAX_SET_COUNT

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["qdisc", "--random-n", "2048", "--random-m", "100", "--restarts", "1", "--sweeps", "1"], None),
            (["qdisc", "--input"], {"n": 4096, "sets": [[1]] * 100}),
            (["lbound", "--n-grid", "8", "300"], None),
            (["ubound", "--n", "3000", "--m-grid", "4"], None),
        ],
    )
    def test_dense_size_out_of_range(self, tmp_path, capsys, argv, doc):
        if doc is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(doc))
            argv = [*argv, str(path)]
        code, _ = run(tmp_path, "r.csv", *argv, "--seed", "1")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"above the largest supported {MAX_DENSE_ENTRIES}" in err
        assert "Traceback" not in err

    def test_dense_size_defaults_within_cap(self):
        lbound, ubound = _SCHEMAS["lbound"], _SCHEMAS["ubound"]
        check_dense_size(max(lbound["n_grid"].default), lbound["m_cap"].default)
        check_dense_size(ubound["n"].default, max(ubound["m_grid"].default))

    @pytest.mark.parametrize("extra", [[], ["--m-cap", "1"]])
    def test_lbound_grid_beyond_float_range(self, tmp_path, capsys, extra):
        code, _ = run(tmp_path, "r.csv", "lbound", "--n-grid", "2050", *extra, "--seed", "1")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "lbound needs n < 2048" in err
        assert "Traceback" not in err


class TestTrialCap:
    @pytest.fixture
    def no_commands(self, monkeypatch):
        """Replace every command, so a missing cap fails the test instead of
        allocating for a billion trials."""
        def unreachable(cfg, root):
            raise AssertionError("the command ran past the trial cap")

        for name in _COMMANDS:
            monkeypatch.setitem(_COMMANDS, name, (unreachable, ""))

    @pytest.mark.parametrize(
        "argv",
        [
            ["dpp", "sample", "--n", "8", "--trials", "1000000000"],
            ["dpp", "check", "--n", "4", "--trials", str(MAX_TRIALS + 1)],
            ["haar", "--n-grid", "2", "--trials", "1000000000"],
            ["ubound", "--n", "4", "--m-grid", "4", "--trials", str(MAX_TRIALS + 1), "--c", "1"],
            ["ubound", "--n", "4", "--m-grid", "4", "--trials", "2", "--probe-trials", str(MAX_TRIALS + 1)],
            ["disc", "--ap", "4", "--heuristic", "--trials", str(MAX_TRIALS + 1)],
            ["qdisc", "--random-n", "4", "--random-m", "3", "--restarts", str(MAX_TRIALS + 1)],
            ["lbound", "--n-grid", "8", "--restarts", str(MAX_TRIALS + 1)],
            ["compare", "--restarts", str(MAX_TRIALS + 1)],
            ["compare", "--random-count", str(MAX_TRIALS + 1)],
        ],
    )
    def test_refused_before_the_command_runs(self, tmp_path, capsys, no_commands, argv):
        code, _ = run(tmp_path, "r.csv", *argv, "--seed", "1")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"exceeds the largest supported size {MAX_TRIALS}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["qdisc", "--random-n", "24", "--random-m", "4", "--restarts", str(MAX_TRIALS)],
            ["lbound", "--n-grid", "8", "--m-cap", "8", "--restarts", str(MAX_TRIALS)],
            ["compare", "--ap-min", "6", "--ap-max", "6", "--random-count", "0", "--restarts", str(MAX_TRIALS)],
        ],
        ids=["qdisc", "lbound", "compare"],
    )
    def test_start_count_refused_before_the_search(self, tmp_path, capsys, monkeypatch, argv):
        """Restarts within the trial cap can still give (N + 1) x restarts
        above qdisc_estimate's start cap, which is refused before one seed
        child per start is spawned."""
        def unreachable(seed):
            raise AssertionError("qdisc_estimate spawned seed children past the start cap")

        monkeypatch.setattr(qdisc, "seed_sequence", unreachable)
        code, _ = run(tmp_path, "r.csv", *argv, "--seed", "1")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"starts exceeds the largest supported {qdisc.MAX_STARTS}" in err
        assert "Traceback" not in err

    def test_refused_in_config(self, tmp_path, capsys, no_commands):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probe_trials": MAX_TRIALS + 1}))
        assert main(["ubound", "--seed", "1", "--config", str(cfg)]) == EXIT_VALIDATION
        assert f"probe_trials = {MAX_TRIALS + 1} exceeds" in capsys.readouterr().err

    def test_cap_is_accepted_and_above_every_default(self):
        args = build_parser().parse_args(["ubound", "--trials", str(MAX_TRIALS), "--probe-trials", str(MAX_TRIALS),
                                          "--seed", "1"])
        cfg = build_config("ubound", args)
        assert cfg["trials"] == cfg["probe_trials"] == MAX_TRIALS
        counts = ("trials", "probe_trials", "restarts", "random_count")
        defaults = [opts[key].default for opts in _SCHEMAS.values() for key in counts if key in opts]
        assert max(defaults) < MAX_TRIALS


class TestCachedParser:
    def test_built_once(self, tmp_path):
        parser = build_parser()
        misses = build_parser.cache_info().misses
        for seed in ("1", "2", "3"):
            assert run(tmp_path, "h.csv", "haar", "--n-grid", "2", "--trials", "100", "--seed", seed)[0] == 0
        assert build_parser() is parser
        assert build_parser.cache_info().misses == misses

    def test_no_value_carries_over_to_the_next_call(self, tmp_path):
        argv = ["haar", "--n-grid", "2", "--trials", "100", "--seed", "1", "--format", "json"]
        assert run(tmp_path, "a.json", *argv, "--z-gate", "1e300")[0] == 0
        code, text = run(tmp_path, "b.json", *argv)
        assert code == 0 and json.loads(text)["config"]["z_gate"] == 4.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 200}))
        assert run(tmp_path, "c.json", *argv)[0] == 0
        code, text = run(tmp_path, "d.json", "haar", "--n-grid", "2", "--seed", "1", "--format", "json",
                         "--config", str(cfg))
        assert code == 0 and json.loads(text)["config"]["trials"] == 200

    @pytest.mark.parametrize(
        "bad",
        [
            ["dpp", "sample", "--kind", "bogus", "--seed", "1"],  # refused by argparse
            ["dpp", "sample", "--n", "4"],  # refused by build_config: no seed
        ],
    )
    def test_report_after_a_usage_error_matches_a_fresh_process(self, tmp_path, capsys, bad):
        argv = ["dpp", "sample", "--kind", "random", "--n", "4", "--trials", "30", "--seed", "3"]
        assert main(bad) == EXIT_USAGE
        code, text = run(tmp_path, "a.csv", *argv)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        fresh = subprocess.run([sys.executable, "-m", "qdlab.cli", *argv, "--out", str(tmp_path / "b.csv")],
                               capture_output=True, text=True, env=env)
        assert code == fresh.returncode == 0
        assert text == (tmp_path / "b.csv").read_text()


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test-only dependency
        code = "import sys, qdlab.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_ubound_runs_without_scipy(self):
        argv = ["ubound", "--n", "4", "--m-grid", "4", "--trials", "50", "--probe-trials", "1000", "--seed", "1"]
        code = f"import sys; sys.modules['scipy'] = None; from qdlab.cli import main; sys.exit(main({argv!r}))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        row = out.stdout.splitlines()[3].split(",")
        assert 0.0 <= float(row[6]) <= float(row[5]) <= float(row[7]) <= 1.0


class TestBinomialCi:
    def test_matches_scipy_beta_ppf(self):
        from scipy import stats

        for n in (1, 2, 3, 7, 10, 100, 1000, 10000, 100000):
            for s in sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1))):
                lo, hi = _binomial_ci(s, n)
                ref_lo = stats.beta.ppf(0.025, s, n - s + 1) if s > 0 else 0.0
                ref_hi = stats.beta.ppf(0.975, s + 1, n - s) if s < n else 1.0
                assert lo == pytest.approx(ref_lo, rel=1e-10, abs=0.0), (s, n)
                assert hi == pytest.approx(ref_hi, rel=1e-10, abs=0.0), (s, n)


# Ints are small or far out of range: a valid mid-size n (say 3000) is a legal
# input whose qdisc run takes hours, which says nothing about the input boundary.
_json_ints = st.integers(-3, 12) | st.sampled_from([-(10**12), 2**31, 2**63, 10**12, 10**400])
# What an integer field may hold instead: bools, floats with and without a fraction.
_json_near_ints = _json_ints | st.booleans() | st.sampled_from([1.0, 2.7, 3.9, -0.5])
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
_index_lists = st.lists(st.lists(_json_near_ints, max_size=3), max_size=3)
_pair_matrices = st.lists(st.lists(st.lists(_json_scalars, max_size=3), max_size=3), max_size=3)
_json_docs = st.one_of(
    _json_values,
    _pair_matrices,
    st.fixed_dictionaries({"n": _json_near_ints | _json_values, "sets": _index_lists | _json_values}),
    st.fixed_dictionaries(
        {"n": _json_near_ints | _json_values, "projections": st.lists(_pair_matrices, max_size=2) | _json_values}
    ),
    st.dictionaries(st.sampled_from(["n", "sets", "projections", "x"]), _json_values, max_size=3),
)


# Config values: ints stay small, since a huge n or trials is a legal value
# whose run takes hours or more memory than the machine has, which says
# nothing about the type checks.
_config_scalars = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from([1.0, 2.5, -0.5, float("inf"), float("nan")])
    | st.text(max_size=3) | st.sampled_from(["csv", "json", "random", "uniform", "projection"])
)
_config_values = (
    _config_scalars | st.lists(_config_scalars, max_size=3)
    | st.dictionaries(st.text(max_size=2), _config_scalars, max_size=2)
)


def _config_docs(keys):
    return st.fixed_dictionaries({"seed": _config_values}, optional={k: _config_values for k in keys}) | _config_values


class TestProjectionSystemInputEdges:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": -1, "projections": []},
            {"n": 0, "projections": []},
            {"n": 2, "projections": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]},
            {"n": 3, "projections": [matrix_to_json(np.eye(3)), [[[1, 0]]]]},
        ],
    )
    def test_exit_two_without_traceback(self, tmp_path, capsys, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, _ = run(tmp_path, "r.csv", "qdisc", "--seed", "1", "--input", str(path))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "validation failure" in err
        assert "Traceback" not in err


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

    # Flags override file values, so --out keeps reports in the temporary
    # directory and haar's --z-gate keeps tiny runs from failing their gates;
    # both file values are still type-checked.
    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["dpp", "sample"], ["kernel", "kind", "n", "trials", "z_gate", "format", "out"]),
            (["haar", "--z-gate", "1e300"], ["n_grid", "trials", "z_gate", "format"]),
            (["disc"], ["input", "ap", "random_n", "random_m", "heuristic", "trials", "cap", "format"]),
        ],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_config_exits_zero_one_or_two_without_traceback(self, argv, keys, data):
        doc = data.draw(_config_docs(keys))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "r.csv")])
        assert code in (0, EXIT_USAGE, EXIT_VALIDATION), err.getvalue()
        assert "Traceback" not in err.getvalue()
