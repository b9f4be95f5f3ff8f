"""Compare the reports of a fixed list of qdlab commands between this
checkout and another one, or between two BLAS thread counts.

    python tools/report_diff.py OTHER_CHECKOUT
    python tools/report_diff.py --blas-threads A B

Each command runs in a fresh `python -m qdlab.cli` process with
`PYTHONPATH=<checkout>/src`, once with `--format csv` and once with
`--format json`. With --blas-threads, both runs use this checkout, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to A for one
and to B for the other, in the environment of those child processes only.
Every command whose exit code or report differs is printed with the start
of a diff of its two reports (this checkout's lines, or those at B threads,
marked `+`). An exit that printed a Python traceback counts as its own exit
code. Exits 1 if any report or exit code differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
AP10 = Path(__file__).resolve().parent / "ap10.json"  # the AP(10) set system

# One command of each benchmark workload shape, three `dpp check` configs,
# the other subcommands at small sizes, and refused inputs.
COMMANDS = (
    # compare-ap and qdisc-search
    "compare --ap-min 6 --ap-max 12 --random-count 0 --restarts 1 --sweeps 1 --seed 2101",
    "compare --ap-min 20 --ap-max 20 --random-count 0 --restarts 1 --sweeps 1 --seed 2102",
    "qdisc --random-n 24 --random-m 96 --restarts 1 --sweeps 2 --seed 2103",
    # longer searches on set systems, where exactly tied angles are broken
    # by the last bits of the scores
    "compare --ap-min 13 --ap-max 19 --random-count 0 --restarts 1 --sweeps 6 --seed 1",
    # restarts, where the slice floors skip whole plus counts: a beam search
    # on random projections, and random set systems with Haar starts
    "qdisc --random-n 16 --random-m 64 --restarts 4 --sweeps 2 --refine-top 8 --plane-cap 40 --seed 2801",
    "compare --ap-min 6 --ap-max 9 --random-count 3 --restarts 2 --sweeps 2 --seed 2802",
    # a beam on a set system, where the disc_exact witness start competes
    # with the Haar and identity starts for the refine_top places
    f"qdisc --input {shlex.quote(str(AP10))} --restarts 3 --sweeps 2 --refine-top 6 --seed 3201",
    # 100 projections at N = 32: validating the stack takes 7 batches, and
    # the final objective check 2
    "qdisc --random-n 32 --random-m 100 --restarts 1 --sweeps 0 --seed 2901",
    # set systems above the default exhaustive cap of 24
    "compare --ap-min 25 --ap-max 26 --random-count 0 --restarts 1 --sweeps 0 --cap 26 --seed 1",
    # mc-small and dpp-large
    "dpp sample --kind random --n 8 --trials 625 --seed 2104",
    "haar --n-grid 2 3 4 5 6 7 8 --trials 625 --seed 2105",
    "dpp sample --kind projection --n 128 --trials 50 --seed 2106",
    # enough projection draws that a sampler change which moves a few shows
    "dpp sample --kind projection --n 64 --trials 2000 --seed 2107",
    # a one-point random kernel: empty and non-empty draws, in CSV and JSON rows
    "dpp sample --kind random --n 1 --trials 40 --seed 3301",
    # a real kernel, whose imaginary parts are +0.0 on both sides of the
    # diagonal: a summary writer that reuses the upper pair's text with the
    # imaginary sign flipped would print -0.0 below it
    "dpp sample --kind uniform --n 6 --trials 20 --seed 3401",
    # dpp check: the README example, the acceptance config and a projection
    # kernel (whose size law is a point mass); all three exit 0
    "dpp check --seed 1",
    "dpp check --kind random --n 4 --trials 4000 --seed 5",
    "dpp check --kind projection --n 5 --trials 3000 --seed 2",
    "ubound --n 8 --m-grid 4 64 --trials 100 --probe-trials 2000 --seed 1",
    "lbound --n-grid 8 16 --seed 1",
    "disc --ap 12",
    "disc --ap 12 --heuristic --seed 1",
    # refused inputs, all validation failures (exit 2): out-of-range counts
    # and non-finite numbers
    "ubound --n 4 --m-grid 4 --trials 0 --c 1 --seed 1",
    "qdisc --random-n 4 --random-m 3 --plane-cap -2 --seed 1",
    "qdisc --random-n 4 --random-m 3 --plane-cap 0 --seed 1",
    "qdisc --random-n 4 --random-m 3 --refine-top 0 --seed 1",
    "disc --ap 0",
    "ubound --n 4 --m-grid 4 --trials 5 --c nan --seed 1",
    "lbound --n-grid 4 --alpha inf --seed 1",
)
FORMATS = ("csv", "json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Diff lines printed per differing report, and characters per line (a
# dpp-large summary line holds the whole 128 x 128 kernel).
MAX_LINES = 20
MAX_WIDTH = 160


def run(checkout: Path, argv: list[str], threads: int | None = None) -> tuple[str, str]:
    """Exit code and stdout of one qdlab command run from `checkout`'s src,
    at `threads` BLAS threads if given."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    if threads is not None:
        env.update(dict.fromkeys(BLAS_VARS, str(threads)))
    proc = subprocess.run([sys.executable, "-m", "qdlab.cli", *argv], env=env, capture_output=True, text=True)
    traceback = " (traceback)" if "Traceback" in proc.stderr else ""
    return f"{proc.returncode}{traceback}", proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare qdlab reports between two checkouts or thread counts.")
    parser.add_argument("other", type=Path, nargs="?", help="the other checkout: a directory holding src/qdlab")
    parser.add_argument("--blas-threads", type=int, nargs=2, metavar=("A", "B"),
                        help="instead, run this checkout at A and at B BLAS threads")
    opts = parser.parse_args(argv)
    if (opts.other is None) == (opts.blas_threads is None):
        parser.error("give either OTHER_CHECKOUT or --blas-threads A B")
    if opts.blas_threads:
        a, b = opts.blas_threads
        if min(a, b) < 1:
            parser.error(f"need thread counts >= 1, got {a} and {b}")
        new, base = partial(run, HERE, threads=b), partial(run, HERE, threads=a)
        new_label, base_label = f"at threads={b}", f"at threads={a}"
    else:
        other = opts.other.resolve()
        if not (other / "src" / "qdlab").is_dir():
            parser.error(f"{other} holds no src/qdlab")
        new, base = partial(run, HERE), partial(run, other)
        new_label, base_label = "here", f"in {other}"
    differ = 0
    for command in COMMANDS:
        for fmt in FORMATS:
            args = [*shlex.split(command), "--format", fmt]
            (code, text), (other_code, other_text) = new(args), base(args)
            if (code, text) == (other_code, other_text):
                continue
            differ += 1
            print(f"=== qdlab {command} --format {fmt}: exit {code} {new_label}, {other_code} {base_label}")
            diff = difflib.unified_diff(other_text.splitlines(), text.splitlines(), lineterm="", n=0)
            for line in list(diff)[2 : 2 + MAX_LINES]:
                print(line if len(line) <= MAX_WIDTH else line[:MAX_WIDTH] + "...")
    print(f"{differ} of {len(COMMANDS) * len(FORMATS)} reports differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
