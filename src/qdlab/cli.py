"""qdlab batch experiment driver.

Seeded subcommands reproduce each desk-scale experiment and emit
machine-readable CSV or JSON reports. Reports are byte-identical across
re-runs with the same config (wall time is printed to the console, never
written into the report). Exit codes: 0 success, 1 usage error, 2
validation failure, 3 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .combdisc import DEFAULT_EXHAUSTIVE_CAP, disc_exact, disc_heuristic
from .concentration import comparison_check, lower_bound_constants
from .dpp import exact_distribution, sample_masks, size_pmf, validate_kernel
from .errors import GroundSetTooLarge, QdlabError, ValidationError
from .matcore import batches, matrix_from_json, matrix_pairs, pairs_json_text
from .qdisc import QdiscEstimate, delta_event_count, delta_thresholds, objective, qdisc_estimate
from .randmat import (
    concentration_probe,
    moment_gates,
    random_kernel,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
    z_score,
)
from .setsys import (
    MAX_GROUND_SIZE,
    MAX_SET_COUNT,
    ProjectionSystem,
    SetSystem,
    arithmetic_progressions,
    check_dense_size,
    evaluate_coloring,
    random_set_system,
    to_projection_system,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GATE = 3


class UsageError(Exception):
    """Bad command line or config file."""


def _py(v):
    """Plain Python for a numpy scalar or array, through tolist()."""
    return v.tolist() if isinstance(v, (np.generic, np.ndarray)) else v


def render_report(subcommand: str, config: dict, rows: list[dict], summary: dict, fmt: str) -> str:
    """The report text. JSON converts numpy values through `_py` (a numpy
    float64 is a float and prints as one). CSV takes its columns from the
    first row's keys; its cells are scalars, which csv prints through str
    (the same text for a numpy scalar as for its Python value), with None as
    an empty field. The CSV summary is written key by key in sorted order: a
    finite float64 (N, N, 2) array through `pairs_json_text`, the rest through `canon`."""
    if fmt == "json":
        doc = {"format": FORMAT_VERSION, "subcommand": subcommand, "version": __version__, "config": config,
               "columns": list(rows[0]), "rows": rows, "summary": summary}
        return json.dumps(doc, sort_keys=True, indent=2, default=_py) + "\n"
    canon = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), default=_py)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)
    parts = [f"# qdlab-report format={FORMAT_VERSION} subcommand={subcommand} version={__version__}\n",
             f"# config: {canon(config)}\n", buf.getvalue(), "# summary: {"]
    for i, (key, value) in enumerate(sorted(summary.items())):
        pairs = (isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 3
                 and value.shape[1:] == (len(value), 2) and np.isfinite(value).all())
        parts += ["," if i else "", canon(key), ":", pairs_json_text(value) if pairs else canon(value)]
    return "".join([*parts, "}\n"])


def _binomial_cdf_root(k: int, n: int, target: float) -> float:
    """The p with P(Bin(n, p) <= k) = target, for 0 <= k < n, by bisection
    to the last bit; the CDF falls strictly in p and is summed in log space.
    log C(n, j) is the running sum of log((n - i) / (i + 1)) over i < j,
    whose error grows far slower with n than a difference of lgammas."""
    j = np.arange(k + 1)
    log_coef = np.concatenate(([0.0], np.cumsum(np.log((n - j[:-1]) / (j[:-1] + 1)))))
    lo, hi = 0.0, 1.0
    while lo < (p := 0.5 * (lo + hi)) < hi:
        log_pmf = log_coef + j * math.log(p) + (n - j) * math.log1p(-p)
        top = log_pmf.max()
        cdf = math.exp(top) * np.exp(log_pmf - top).sum()
        lo, hi = (p, hi) if cdf > target else (lo, p)
    return p


def _binomial_ci(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson interval: P(X >= s) = a at the low end and
    P(X <= s) = a at the high end, with a = (1 - level) / 2."""
    a = (1.0 - level) / 2.0
    lo = _binomial_cdf_root(successes - 1, trials, 1.0 - a) if successes > 0 else 0.0
    hi = _binomial_cdf_root(successes, trials, a) if successes < trials else 1.0
    return lo, hi


# --------------------------------------------------------------------------
# config handling

@dataclass(frozen=True)
class Option:
    """One config key and its command-line flag `--key-name`. The argparse
    type comes from the default (a list default takes one or more values,
    False makes a switch) unless `type` is given; `str` when neither is."""

    default: object = None
    help: str | None = None
    type: type | None = None
    choices: tuple | None = None
    positional: bool = False


_COMMON = {
    "seed": Option(None, "master seed (mandatory for stochastic subcommands)", int),
    "out": Option(None, "report output path (default: stdout)"),
    "format": Option("csv", "report format (default csv)", choices=("csv", "json")),
}

_CAP = Option(DEFAULT_EXHAUSTIVE_CAP, f"exhaustive enumeration cap (default {DEFAULT_EXHAUSTIVE_CAP})")

_SCHEMAS: dict[str, dict[str, Option]] = {
    "disc": {
        "input": Option(None, "set-system JSON file {'n':..,'sets':[[..]]}"),
        "ap": Option(None, "use the arithmetic-progression system on [N]", int),
        "random_n": Option(None, "random system ground size", int),
        "random_m": Option(None, "random system set count", int),
        "heuristic": Option(False, "restart search instead of exhaustive"),
        "trials": Option(64, "heuristic restarts"),
        "cap": _CAP,
    },
    "qdisc": {
        "input": Option(None, "set-system or projection-system JSON file"),
        "random_n": Option(None, type=int),
        "random_m": Option(None, type=int),
        "restarts": Option(4),
        "sweeps": Option(2),
        "plane_cap": Option(None, type=int),
        "refine_top": Option(None, type=int),
    },
    "ubound": {
        "n": Option(32),
        "m_grid": Option([4, 64, 1024]),
        "trials": Option(1000),
        "c": Option(None, "concentration constant; omit to fit via the probe", float),
        "probe_trials": Option(20000),
    },
    "lbound": {
        "n_grid": Option([8, 16, 32]),
        "m_cap": Option(2048),
        "restarts": Option(1),
        "sweeps": Option(1),
        "plane_cap": Option(48),
        "refine_top": Option(4),
        "alpha": Option(1.0),
    },
    "dpp": {
        "action": Option(None, choices=("sample", "check"), positional=True),
        "kernel": Option(None, "kernel JSON file ([re,im] pair matrix)"),
        "kind": Option("random", "built-in kernel", choices=("uniform", "random", "projection")),
        "n": Option(6, "dimension for built-in kernels"),
        "trials": Option(20000),
        "z_gate": Option(4.0),
    },
    "compare": {
        "ap_min": Option(6),
        "ap_max": Option(12),
        "random_count": Option(4),
        "random_n": Option(10),
        "random_m": Option(12),
        "restarts": Option(2),
        "sweeps": Option(1),
        "cap": _CAP,
    },
    "haar": {
        "n_grid": Option([2, 3, 4, 5, 6, 7, 8]),
        "trials": Option(100000),
        "z_gate": Option(4.0),
    },
}

# Multinomial replicates of an exact law behind each TV gate of `dpp check`.
TV_REPLICATES = 999

# Largest trial count of any option, above every default (haar's 100000) and
# every tested value: a command's per-trial arrays hold at most 2^20 rows.
MAX_TRIALS = 1 << 20

# Options that set a ground-set size N, a set count M or a count of trials,
# restarts or random systems, and their largest supported value; checked
# before any command allocates (or spawns a seed child per count).
_SIZES = (
    (("n", "n_grid", "random_n", "ap", "ap_min", "ap_max"), MAX_GROUND_SIZE),
    (("random_m", "m_grid", "m_cap"), MAX_SET_COUNT),
    (("trials", "probe_trials", "restarts", "random_count"), MAX_TRIALS),
)

# disc is stochastic only with a random generator or the heuristic search.
_ALWAYS_STOCHASTIC = {"qdisc", "ubound", "lbound", "dpp", "compare", "haar"}


def _value_type(opt: Option) -> type:
    """The type of one value of an option: bool for a switch, else `type`,
    else the type of the default (of its first element for a list), else str."""
    if opt.default is False:
        return bool
    sample = opt.default[0] if isinstance(opt.default, list) else opt.default
    return opt.type or (str if sample is None else type(sample))


def _is_value(opt: Option, v) -> bool:
    """Whether a parsed JSON value is one its flag could give: exact ints
    (never bools) for int options, ints or floats that fit a float for float
    options, and a choice where choices are set."""
    want = _value_type(opt)
    if want is float:
        ok = type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)
    else:
        ok = type(v) is want
    return ok and (opt.choices is None or v in opt.choices)


def _check_config_value(key: str, opt: Option, value) -> None:
    """Refuse a config-file value that the option's flag could not give."""
    if value is None and opt.default is None:
        return
    listed = isinstance(opt.default, list)
    values = value if listed and isinstance(value, list) else [value]
    if listed != isinstance(value, list) or not values or not all(_is_value(opt, v) for v in values):
        shape = "a non-empty list of " if listed else ""
        choices = "" if opt.choices is None else f" in {list(opt.choices)}"
        raise ValidationError(
            f"config key {key!r}: {json.dumps(value)} is not {shape}{_value_type(opt).__name__}{choices}"
        )


def build_config(subcommand: str, args: argparse.Namespace) -> dict:
    options = {**_SCHEMAS[subcommand], **_COMMON}
    cfg = {key: opt.default for key, opt in options.items()}
    if getattr(args, "config", None):
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        unknown = set(data) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            _check_config_value(key, options[key], value)
        cfg.update(data)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, opt in options.items():
        if _value_type(opt) is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ValidationError(f"{key} = {cfg[key]} is not a finite number")
    if cfg["seed"] is not None and cfg["seed"] < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {cfg['seed']}")
    for keys, limit in _SIZES:
        for key in keys:
            value = cfg.get(key)
            for v in value if isinstance(value, list) else [value]:
                if v is not None and v > limit:
                    raise ValidationError(f"{key} = {v} exceeds the largest supported size {limit}")
    stochastic = subcommand in _ALWAYS_STOCHASTIC or (
        subcommand == "disc" and (cfg["heuristic"] or cfg["random_n"] is not None)
    )
    if stochastic and cfg["seed"] is None:
        raise UsageError(f"subcommand '{subcommand}' is stochastic: --seed is mandatory")
    return cfg


# --------------------------------------------------------------------------
# subcommands: each takes the config and the root of its seed tree and
# returns the report rows (dicts whose keys are the columns, in order) and
# the summary

def _read_input_object(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValidationError(f"input JSON must be an object, got {type(data).__name__}")
    return data


def _load_set_system(cfg: dict, root: np.random.SeedSequence) -> SetSystem:
    if cfg.get("input"):
        return SetSystem.from_json(_read_input_object(cfg["input"]))
    if cfg.get("ap") is not None:
        return arithmetic_progressions(int(cfg["ap"]))
    if cfg.get("random_n") is not None:
        if cfg.get("random_m") is None:
            raise UsageError("--random-n needs --random-m")
        return random_set_system(int(cfg["random_n"]), int(cfg["random_m"]), root.spawn(1)[0])
    raise UsageError("no input: give --input FILE, --ap N, or --random-n/--random-m")


def cmd_disc(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    system = _load_set_system(cfg, root)
    if not cfg["heuristic"] and system.ground_size > cfg["cap"]:
        raise GroundSetTooLarge(
            f"ground set {system.ground_size} exceeds cap {cfg['cap']}; pass --heuristic"
        )
    if cfg["heuristic"]:
        value, witness = disc_heuristic(system, int(cfg["trials"]), root.spawn(2)[1])
        method = "heuristic"
    else:
        value, witness = disc_exact(system, cap=int(cfg["cap"]))
        method = "exact"
    sums = evaluate_coloring(system, witness)
    rows = [
        {"set_index": i, "size": len(s), "signed_sum": sums[i]}
        for i, s in enumerate(system.sets)
    ]
    summary = {
        "disc": value,
        "method": method,
        "witness": "".join("+" if s > 0 else "-" for s in witness.signs),
        "n": system.ground_size,
        "m": system.num_sets,
        "system": system.to_json(),
    }
    return rows, summary


def _load_projection_system(cfg: dict, root: np.random.SeedSequence) -> ProjectionSystem:
    if cfg.get("input"):
        data = _read_input_object(cfg["input"])
        if "sets" in data:
            return to_projection_system(SetSystem.from_json(data))
        if "projections" in data:
            return ProjectionSystem.from_json(data)
        raise QdlabError("input JSON must contain 'sets' or 'projections'")
    if cfg.get("random_n") is not None:
        if cfg.get("random_m") is None:
            raise UsageError("--random-n needs --random-m")
        return random_projection_system(int(cfg["random_n"]), int(cfg["random_m"]), root.spawn(1)[0])
    raise UsageError("no input: give --input FILE or --random-n/--random-m")


def _qdisc_search(system: ProjectionSystem, cfg: dict, seed: np.random.SeedSequence) -> QdiscEstimate:
    return qdisc_estimate(
        system,
        restarts=int(cfg["restarts"]),
        sweeps=int(cfg["sweeps"]),
        seed=seed,
        plane_cap=cfg["plane_cap"],
        refine_top=cfg["refine_top"],
    )


def cmd_qdisc(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    system = _load_projection_system(cfg, root)
    est = _qdisc_search(system, cfg, root.spawn(2)[1])
    rows = []
    for i, proj in enumerate(system.projections):
        val = objective(est.witness, proj)
        rows.append({
            "projection_index": i,
            "rank": proj.rank,
            "trace_term": val.trace_term,
            "commutator_term": val.commutator_term,
            "objective": val.value,
        })
    summary = {
        "qdisc_estimate": est.value,
        "plus_count": est.plus_count,
        "restarts_used": est.restarts_used,
        "converged": est.converged,
        "witness": matrix_pairs(est.witness),
    }
    return rows, summary


def cmd_ubound(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    n = int(cfg["n"])
    m_grid = [int(m) for m in cfg["m_grid"]]
    trials = int(cfg["trials"])
    if trials < 1:
        raise ValidationError("need trials >= 1")
    for m in m_grid:
        check_dense_size(n, m)
    probe_child, *m_children = root.spawn(1 + 2 * len(m_grid))
    if cfg["c"] is None:
        probe = concentration_probe(n, int(cfg["probe_trials"]), seed=probe_child)
        c_used, c_source = probe.c_hat, "fit"
    else:
        c_used, c_source = float(cfg["c"]), "given"
    rows = []
    for pos, m in enumerate(m_grid):
        system = random_projection_system(n, m, m_children[2 * pos])
        colorings = (random_quantum_coloring(n, child).array for child in m_children[2 * pos + 1].spawn(trials))
        successes = delta_event_count(system, colorings, c_used)
        deltas = delta_thresholds(system, c_used)
        lo, hi = _binomial_ci(successes, trials)
        rows.append({
            "n": n, "m": m, "c": c_used, "trials": trials,
            "successes": successes, "fraction": successes / trials,
            "ci_low": lo, "ci_high": hi,
            "max_delta": float(deltas.max()),
            "delta_over_scale": float(deltas.max() / math.sqrt(n + math.log(m))),
        })
    summary = {
        "c": c_used,
        "c_source": c_source,
        "min_fraction": min(r["fraction"] for r in rows),
        "all_at_least_half": all(r["fraction"] >= 0.5 for r in rows),
    }
    return rows, summary


def cmd_lbound(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    constants = lower_bound_constants(float(cfg["alpha"]))
    n_grid = [int(n) for n in cfg["n_grid"]]
    m_cap = int(cfg["m_cap"])
    instances = []
    for n in n_grid:
        if n >= 2048:
            raise ValidationError(f"lbound needs n < 2048, got {n}: the 2^(n/2) sets overflow a float")
        for m_requested in (n, n * n, int(round(2 ** (n / 2)))):
            m = min(m_requested, m_cap)
            check_dense_size(n, m)
            instances.append((n, m, m_requested))
    children = root.spawn(2 * len(instances))
    rows = []
    for pos, (n, m, m_requested) in enumerate(instances):
        system = random_projection_system(n, m, children[2 * pos])
        est = _qdisc_search(system, cfg, children[2 * pos + 1])
        scale = math.sqrt(n + math.log(m))
        regime_ok = n <= m <= 2 ** n
        if not regime_ok:
            print(f"warning: (n={n}, m={m}) outside the admissible regime", file=sys.stderr)
        rows.append({
            "n": n, "m": m, "m_requested": m_requested, "regime_ok": regime_ok,
            "estimate": est.value, "ratio": est.value / scale,
            "zeta_scaled": constants.zeta * scale,
        })
    ratios = [r["ratio"] for r in rows]
    summary = {
        "alpha": float(cfg["alpha"]),
        "epsilon": constants.epsilon,
        "zeta": constants.zeta,
        "condition_margin": constants.margin,
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    }
    return rows, summary


def _resolve_kernel(cfg: dict, child: np.random.SeedSequence):
    if cfg.get("kernel"):
        data = json.loads(Path(cfg["kernel"]).read_text())
        return validate_kernel(matrix_from_json(data))
    kind = cfg["kind"]
    n = int(cfg["n"])
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if kind == "uniform":
        return validate_kernel(0.5 * np.eye(n))
    if kind == "random":
        return random_kernel(n, child)
    return validate_kernel(random_projection(n, child).matrix)  # kind == "projection"


def _tv_row(check: str, counts: np.ndarray, law: np.ndarray, rng: np.random.Generator) -> dict:
    """The TV distance of the empirical law `counts / trials` from `law`,
    gated at the largest TV of TV_REPLICATES multinomial(trials, law)
    replicates (a Monte Carlo test; Barnard 1963, Hope 1968). Exact draws
    and the replicates are exchangeable, so an exact sampler passes with
    probability at least 1 - 1 / (TV_REPLICATES + 1). The replicates draw
    from the law clipped at 0 and renormalised, in the `batches` of
    BATCH_ENTRIES counts."""
    trials = int(counts.sum())
    p = np.clip(law, 0.0, None)
    p /= p.sum()

    def tv(c):
        return float(0.5 * np.abs(c / trials - law).sum(axis=-1).max())

    value = tv(counts)
    gate = max(tv(rng.multinomial(trials, p, size=rows.stop - rows.start))
               for rows in batches(TV_REPLICATES, law.size))
    return {"check": check, "index": "", "value": value, "reference": 0.0, "gate": gate, "passed": value <= gate}


def cmd_dpp(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    # both actions draw from one stream of the draw child; check's TV gates from the third child
    kernel_child, draw_child, gate_child = root.spawn(3)
    kernel = _resolve_kernel(cfg, kernel_child)
    trials = int(cfg["trials"])
    if cfg["action"] == "sample":
        # one nonzero of the mask, in row-major order: row t's points are the labels of slice t
        masks = sample_masks(kernel, trials, draw_child)
        labels = [str(i) for i in range(1, masks.shape[1] + 1)]
        points = [labels[i] for i in np.nonzero(masks)[1].tolist()]
        ends = np.cumsum(np.count_nonzero(masks, axis=1)).tolist()
        rows = [
            {"trial": t, "size": end - start, "points": " ".join(points[start:end])}
            for t, (start, end) in enumerate(zip([0, *ends], ends))
        ]
        summary = {
            "trials": trials,
            "mean_size": len(points) / trials,
            "kernel_trace": kernel.matrix.trace(),
            "kernel_dim": kernel.dim,
            "kernel": matrix_pairs(kernel),
        }
        return rows, summary

    # action == "check": compare empirical statistics against exact laws
    n = kernel.dim
    exact = exact_distribution(kernel)  # raises GroundSetTooLarge past the cap
    members = sample_masks(kernel, trials, draw_child)
    rng = np.random.default_rng(gate_child)
    rows = [
        _tv_row("subset_tv", np.bincount(members @ (1 << np.arange(n)), minlength=1 << n), exact, rng),
        _tv_row("size_tv", np.bincount(members.sum(axis=1), minlength=n + 1), size_pmf(kernel), rng),
    ]
    z_gate = float(cfg["z_gate"])
    diag = kernel.array.diagonal().real
    for i in range(n):
        p = float(diag[i])
        z = z_score(np.count_nonzero(members[:, i]) / trials, p, math.sqrt(max(p * (1 - p), 0.0) / trials))
        rows.append({"check": "inclusion_z", "index": i + 1, "value": z, "reference": p,
                     "gate": z_gate, "passed": abs(z) <= z_gate})
    return rows, {"trials": trials, "all_pass": all(r["passed"] for r in rows), "subset_tv": rows[0]["value"],
                  "size_tv": rows[1]["value"], "tv_alarm_rate": 1 / (TV_REPLICATES + 1)}


def cmd_compare(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    if cfg["random_count"] < 0:
        raise ValidationError(f"need random_count >= 0, got {cfg['random_count']}")
    systems: list[tuple[str, SetSystem]] = []
    for n in range(int(cfg["ap_min"]), int(cfg["ap_max"]) + 1):
        systems.append((f"ap-{n}", arithmetic_progressions(n)))
    rand_children = root.spawn(int(cfg["random_count"]) * 2)
    for i in range(int(cfg["random_count"])):
        systems.append(
            (f"random-{i}", random_set_system(int(cfg["random_n"]), int(cfg["random_m"]), rand_children[2 * i]))
        )
    if not systems:
        raise ValidationError("empty corpus: --ap-min exceeds --ap-max and --random-count is 0")
    est_children = root.spawn(len(systems) + 100)[100:]
    rows = []
    for (name, system), child in zip(systems, est_children):
        rep = comparison_check(
            system,
            restarts=int(cfg["restarts"]),
            sweeps=int(cfg["sweeps"]),
            seed=child,
            cap=int(cfg["cap"]),
        )
        rows.append({
            "system_id": name, "n": rep.ground_size, "m": rep.num_sets,
            "disc": rep.disc, "qdisc_est": rep.qdisc_est,
            "min_feasible_c_log": rep.min_feasible_c_log,
            "min_feasible_c_sqrt_log": rep.min_feasible_c_sqrt_log,
            "sandwich_ok": rep.sandwich_ok,
        })
    summary = {
        "instances": len(rows),
        "all_sandwich_ok": all(r["sandwich_ok"] for r in rows),
    }
    return rows, summary


def cmd_haar(cfg: dict, root: np.random.SeedSequence) -> tuple[list[dict], dict]:
    trials = int(cfg["trials"])
    n_grid = [int(n) for n in cfg["n_grid"]]
    z_gate = float(cfg["z_gate"])
    gates = [g for n, child in zip(n_grid, root.spawn(len(n_grid))) for g in moment_gates(n, trials, child)]
    rows = [
        {"n": g.n, "gate": g.name, "param": g.param, "exact": g.exact,
         "estimate": g.estimate, "se": g.se, "z": g.z, "passed": g.passes(z_gate)}
        for g in gates
    ]
    max_z = max(abs(g.z) for g in gates)
    return rows, {"trials": trials, "max_abs_z": max_z, "all_pass": all(r["passed"] for r in rows)}


_COMMANDS = {
    "disc": (cmd_disc, "combinatorial discrepancy of a set system"),
    "qdisc": (cmd_qdisc, "quantum discrepancy estimate of a projection system"),
    "ubound": (cmd_ubound, "Delta_P satisfaction experiment for random colorings"),
    "lbound": (cmd_lbound, "qdisc scaling on random projection systems"),
    "dpp": (cmd_dpp, "sample a determinantal process or check it against exact laws"),
    "compare": (cmd_compare, "disc vs qdisc sandwich table over a corpus"),
    "haar": (cmd_haar, "Monte Carlo vs exact Haar moment gates"),
}


# --------------------------------------------------------------------------
# argument parsing

def _add_option(parser: argparse.ArgumentParser, key: str, opt: Option) -> None:
    kwargs = {"help": opt.help} if opt.choices is None else {"help": opt.help, "choices": opt.choices}
    if opt.positional:
        parser.add_argument(key, **kwargs)
        return
    if opt.default is False:
        kwargs.update(action="store_true", default=None)
    else:
        kwargs["type"] = _value_type(opt)
        if isinstance(opt.default, list):
            kwargs["nargs"] = "+"
    parser.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, with a flag for every config key of
    _SCHEMAS and _COMMON. Flags default to None so that an omitted flag
    never overrides a config-file value, and parsing keeps no state, so the
    parser is built once per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="qdlab",
        description="Combinatorial/quantum discrepancy and DPP experiments with seeded, reproducible reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, opt in _SCHEMAS[name].items():
            _add_option(p, key, opt)
        p.add_argument("--config", help="JSON config file mirroring the subcommand fields")
        for key, opt in _COMMON.items():
            _add_option(p, key, opt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args.subcommand, args)
        start = time.perf_counter()
        rows, summary = _COMMANDS[args.subcommand][0](cfg, np.random.SeedSequence(cfg["seed"] or 0))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QdlabError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    wall_time = time.perf_counter() - start
    config = {k: v for k, v in cfg.items() if k != "out"}
    text = render_report(args.subcommand, config, rows, summary, cfg["format"] or "csv")
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        print(f"report written to {cfg['out']} ({wall_time:.2f}s)", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(f"wall time {wall_time:.2f}s", file=sys.stderr)
    # a command with acceptance gates reports them in summary["all_pass"]
    return EXIT_GATE if summary.get("all_pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
