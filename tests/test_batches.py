"""The batch planner `matcore.batches`, and that no batch size shows in a
result: every module that cuts a loop into batches is run with planners of
step 1 and step 3 and must give what the default planner gives."""

import importlib

import numpy as np
import pytest

from qdlab import random_kernel, random_projection_system, random_set_system, sample_masks
from qdlab.cli import main
from qdlab.combdisc import random_coloring_satisfaction
from qdlab.matcore import BATCH_ENTRIES, batches
from qdlab.qdisc import _objective_values
from qdlab.randmat import concentration_probe, haar_batch, moment_gates
from qdlab.setsys import ProjectionSystem

PLANNER_MODULES = ("matcore", "qdisc", "randmat", "dpp", "combdisc", "cli")


class TestPlanner:
    @pytest.mark.parametrize(("count", "entries", "budget", "step"),
                             [(10, 4, 12, 3), (9, 4, 12, 3), (2, 4, 12, 3), (5, 100, 12, 1), (7, 1, 100, 100)])
    def test_slices_cover_the_range_in_order(self, count, entries, budget, step):
        got = list(batches(count, entries, budget))
        assert [(s.start, s.stop) for s in got] == [(lo, min(lo + step, count)) for lo in range(0, count, step)]

    def test_default_budget(self):
        assert [s.stop - s.start for s in batches(2 * BATCH_ENTRIES // 64 + 5, 64)] == [256, 256, 5]

    def test_empty_count(self):
        assert list(batches(0, 8)) == []


def _fixed_step(step, name, used):
    def planner(count, entries, budget=BATCH_ENTRIES):
        used.add(name)
        return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))
    return planner


def _stack_of_ranks(n, m, seed):
    """m projections U diag(mask) U* of mixed ranks at dimension n."""
    rng = np.random.default_rng(seed)
    u = haar_batch(rng, m, n)
    keep = rng.random((m, n)) < 0.5
    return (u * keep[:, None, :]) @ u.conj().swapaxes(-1, -2)


def _outputs(tmp_path, tag):
    """Every batched result the test compares, as plain arrays and bytes."""
    system = ProjectionSystem(_stack_of_ranks(6, 3 * BATCH_ENTRIES // 36 + 2, 1))
    big = random_projection_system(32, 100, 2)
    chi = np.diag(np.where(np.arange(32) < 16, 1.0, -1.0)).astype(complex)
    gates = moment_gates(3, BATCH_ENTRIES // 9 + 5, 3, all_ranks=True)
    probe = concentration_probe(4, 1100, seed=4)
    sets = random_set_system(2000, 20, 5)  # about 86% of colorings pass, in 3 default batches
    out = {
        "stack": system.stacked(),
        "ranks": system.ranks(),
        "objective": _objective_values(chi, big.stacked(), big.ranks().astype(float)),
        "gates": np.array([[g.exact, g.estimate, g.se, g.z] for g in gates]),
        "probe": np.concatenate([probe.deviations, probe.tail_trace, probe.tail_commutator]),
        "fits": np.array([[*vars(probe.fit_trace).values()], [*vars(probe.fit_commutator).values()]], dtype=float),
        "coloring": random_coloring_satisfaction(sets, 1100, 6).successes,
    }
    for n in (3, 8):
        for i in range(3):
            out[f"masks {n} {i}"] = sample_masks(random_kernel(n, (41, n, i)), 40, (42, i))
    # the uniform kernel I/2 has exact eigenvectors, so no BLAS rounding of a
    # stack can move its draws
    for name, argv in (("check", ["dpp", "check", "--kind", "uniform", "--n", "5", "--trials", "1500",
                                  "--seed", "3"]),
                       ("haar", ["haar", "--n-grid", "3", "5", "--trials", "2000", "--seed", "9"])):
        path = tmp_path / f"{tag}-{name}.json"
        assert main([*argv, "--format", "json", "--out", str(path)]) == 0
        out[name] = path.read_bytes()
    return out


@pytest.mark.parametrize("step", [1, 3])
def test_batch_size_never_shows(tmp_path, monkeypatch, step):
    want = _outputs(tmp_path, "default")
    used = set()
    for name in PLANNER_MODULES:
        monkeypatch.setattr(importlib.import_module(f"qdlab.{name}"), "batches", _fixed_step(step, name, used))
    got = _outputs(tmp_path, f"step{step}")
    assert used == set(PLANNER_MODULES)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key
