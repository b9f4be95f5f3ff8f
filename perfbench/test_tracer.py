"""Self-check of the span accounting in tracer.py and layers.py.

Run from the root of the checkout:  python3 -m pytest perfbench/test_tracer.py
"""

import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

_B_SRC = """
import time

def slow_b():
    time.sleep(0.03)
"""

_A_SRC = """
import time
from fakepkg import b
from fakepkg.b import slow_b

def inner():
    time.sleep(0.02)

def outer():
    inner()      # stays inside module a: no span
    slow_b()     # into b through a name imported directly
    b.slow_b()   # into b through the module attribute
    time.sleep(0.02)
"""


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    for name, src in (("b", _B_SRC), ("a", _A_SRC)):
        mod = types.ModuleType(f"fakepkg.{name}")
        sys.modules[mod.__name__] = mod
        setattr(pkg, name, mod)
        exec(src, mod.__dict__)
    return pkg.a, pkg.b


def test_intra_module_call_is_not_a_span_and_self_times_add_up():
    a, b = _fake_package()
    original = b.slow_b
    tracer = Tracer("fakepkg", ("a", "b"), inner=("a.inner",))
    with tracer:
        start = time.perf_counter()
        a.outer()
        total = time.perf_counter() - start
    assert [(s[2], s[3]) for s in tracer.spans] == [("a", "outer"), ("b", "slow_b"), ("b", "slow_b")]
    assert tracer.layer_calls() == {"a": 1, "b": 2}
    self_s = tracer.layer_self_times()
    # a's own sleeps are 0.04 s; counting inner() again would make it 0.06 s
    assert 0.04 <= self_s["a"] < 0.05
    assert 0.06 <= self_s["b"] < 0.07
    assert 0.02 <= tracer.timers["a.inner"] < 0.03
    assert abs(sum(self_s.values()) - total) <= 0.05 * total
    assert b.slow_b is original and a.slow_b is original


def test_traced_cli_pass_accounting(tmp_path):
    import qdlab.cli
    import qdlab.combdisc
    import qdlab.qdisc

    argv = ["compare", "--ap-min", "6", "--ap-max", "7", "--random-count", "0", "--restarts", "1",
            "--sweeps", "1", "--seed", "1", "--out", str(tmp_path / "report.csv")]
    tracer = layers.new_tracer()
    with tracer:
        start = time.perf_counter()
        code = qdlab.cli.main(argv)
        total = time.perf_counter() - start
    assert code == 0
    assert tracer.spans[0][1:4] == (-1, "cli", "main")
    # qdisc_estimate's helpers and _CandidateState stay inside qdisc
    assert {s[3] for s in tracer.spans if s[2] == "qdisc"} == {"qdisc_estimate"}
    self_s = tracer.layer_self_times()
    assert abs(sum(self_s.values()) - total) <= 0.05 * total
    m = layers.layer_metrics(tracer)
    # compare calls disc_exact directly and again through qdisc's witness seed
    assert m["combdisc.disc_exact.calls"][0] == 4
    assert m["combdisc.disc_exact.distinct_frac"][0] == 0.5
    assert m["combdisc.disc_exact.colorings"][0] == 2 * (2**5 + 2**6)
    assert m["qdisc.candidates"][0] == (7 + 1) + (8 + 1)
    assert qdlab.qdisc.disc_exact is qdlab.combdisc.disc_exact
    assert not hasattr(qdlab.combdisc.disc_exact, "__wrapped__")
