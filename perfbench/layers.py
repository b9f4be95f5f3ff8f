"""Per-layer metrics of qdlab, derived from one traced pass.

Layers are qdlab's modules. Work is counted from the arguments and return
values of the wrapped cross-module calls, never from how many times a
function ran, so the counts survive a change that batches calls.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np

from tracer import Tracer

PACKAGE = "qdlab"
LAYERS = ("cli", "dpp", "randmat", "qdisc", "combdisc", "concentration", "setsys", "matcore")
# render_report is called from inside cli, so it is timed but is not a span.
INNER = ("cli.render_report",)
_SAMPLERS = ("sample", "_sample_with", "sample_many")
# Haar unitaries drawn per call, from the call's bound arguments.
_UNITARIES = {
    "haar_unitary": lambda a: 1,
    "random_quantum_coloring": lambda a: 1,
    "random_projection": lambda a: 1,
    "random_kernel": lambda a: 1,
    "random_projection_system": lambda a: a["m"],
    "moment_gates": lambda a: a["trials"],
    "concentration_probe": lambda a: a["trials"] + 1,
}
CAPTURE = (
    tuple(f"dpp.{f}" for f in _SAMPLERS)
    + tuple(f"randmat.{f}" for f in _UNITARIES)
    + ("qdisc.qdisc_estimate", "combdisc.disc_exact")
)


def new_tracer() -> Tracer:
    return Tracer(PACKAGE, LAYERS, inner=INNER, capture=CAPTURE)


def _bound(layer: str, func: str, call) -> dict:
    """Arguments of a captured call by parameter name, defaults applied."""
    original = getattr(sys.modules[f"{PACKAGE}.{layer}"], func)
    args, kwargs, _ = call
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _is_diagonal(system) -> bool:
    stacked = np.stack([p.array for p in system.projections])
    idx = np.arange(system.dim)
    off = stacked.copy()
    off[:, idx, idx] = 0.0
    return not off.any()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Metrics of one traced pass, as name -> (value, unit). Call after the
    tracer is uninstalled. A ratio whose base is 0 is reported as 0."""
    by_func = tracer.self_times()
    layer_self = tracer.layer_self_times()
    layer_calls = tracer.layer_calls()
    cap = tracer.captured
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out[f"{layer}.calls"] = (layer_calls[layer], "count")

    draws = sizes = 0
    for func in _SAMPLERS:
        for _, _, result in cap[f"dpp.{func}"]:
            samples = result if func == "sample_many" else [result]
            draws += len(samples)
            sizes += sum(len(s.points) for s in samples)
    sample_s = sum(by_func[("dpp", f)] for f in _SAMPLERS)
    out["dpp.sample.draws"] = (draws, "count")
    out["dpp.sample.us_per_draw"] = (_ratio(sample_s * 1e6, draws), "us")
    out["dpp.sample.mean_size"] = (_ratio(sizes, draws), "points")
    out["dpp.validate_kernel.s"] = (by_func[("dpp", "validate_kernel")], "s")

    unitaries = sum(
        count(_bound("randmat", func, call))
        for func, count in _UNITARIES.items()
        for call in cap[f"randmat.{func}"]
    )
    out["randmat.unitaries"] = (unitaries, "count")
    out["randmat.us_per_unitary"] = (_ratio(layer_self["randmat"] * 1e6, unitaries), "us")

    estimates = cap["qdisc.qdisc_estimate"]
    candidates = 0
    for call in estimates:
        a = _bound("qdisc", "qdisc_estimate", call)
        # one candidate per (k, restart), plus the combinatorial witness of a diagonal system
        candidates += (a["system"].dim + 1) * a["restarts"] + _is_diagonal(a["system"])
    converged = sum(bool(result.converged) for _, _, result in estimates)
    estimate_s = by_func[("qdisc", "qdisc_estimate")]
    out["qdisc.qdisc_estimate.s"] = (estimate_s, "s")
    out["qdisc.candidates"] = (candidates, "count")
    out["qdisc.ms_per_candidate"] = (_ratio(estimate_s * 1e3, candidates), "ms")
    out["qdisc.converged_frac"] = (_ratio(converged, len(estimates)), "1")
    out["qdisc.objective.calls"] = (sum(1 for s in tracer.spans if s[2:4] == ("qdisc", "objective")), "count")

    discs = [_bound("combdisc", "disc_exact", call)["system"] for call in cap["combdisc.disc_exact"]]
    distinct = {(s.ground_size, s.sets) for s in discs}
    colorings = sum(1 << (s.ground_size - 1) for s in discs)
    disc_s = by_func[("combdisc", "disc_exact")]
    out["combdisc.disc_exact.s"] = (disc_s, "s")
    out["combdisc.disc_exact.calls"] = (len(discs), "count")
    out["combdisc.disc_exact.distinct_frac"] = (_ratio(len(distinct), len(discs)), "1")
    out["combdisc.disc_exact.colorings"] = (colorings, "count")
    out["combdisc.disc_exact.ns_per_coloring"] = (_ratio(disc_s * 1e9, colorings), "ns")

    out["cli.render_report.s"] = (tracer.timers["cli.render_report"], "s")
    return out
