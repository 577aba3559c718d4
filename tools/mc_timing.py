"""Time an ``indexvar`` subcommand in fresh processes, alternating between source trees.

    python tools/mc_timing.py --tree parent=../parent/src --tree change=src \\
        --rounds 10 --blas 1 -- montecarlo --model mai --n 20 --q 2 --p 2 --T 2000 --reps 200

The first argument after ``--`` names the subcommand (``simulate``, ``fit``,
``select``, ``decompose``, ``forecast`` or ``montecarlo``) and the rest are
its arguments, less ``--out``. Each ``--tree`` is ``LABEL=SRC_DIR``,
optionally followed by arguments for that tree alone (``"loose=src --tol
1e-4"``). Every round runs each tree once, in an order that rotates from
round to round, as a fresh ``python -m indexvar.cli SUBCOMMAND`` process with
``PYTHONPATH`` at ``SRC_DIR`` and the arguments after the subcommand.
``--blas 1`` sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
to 1; ``--blas default`` removes them, so OpenBLAS picks its own thread count.

Wall time is taken around the whole process, interpreter start and imports
included. Peak RSS is the ``ru_maxrss`` that ``wait4`` reports: the largest
single process of the run, so for a process pool it is one process's, not
the pool's sum. Beside it is the ``ru_minflt`` that ``wait4`` reports, the
run's minor page faults: each is a page the kernel mapped in fresh, as when
the allocator takes memory that it had given back. Every run is printed, then each
tree's median and IQR (quartiles by the inclusive method) of wall time and
peak RSS, and its median of minor faults, the number of rounds in which
every file the run wrote but ``manifest.txt`` (which names its output
directory) equals the first tree's byte for byte, and the machine:
cores, the thread count and core (kernel) the OpenBLAS that numpy loaded
reports under the chosen environment, and the numpy and Python versions.
Each round, a report that differs from the first tree's is named with its
largest relative move: the largest change of a number at the same place in
the text, over the largest magnitude among the file's numbers, or "layout
differs" when the text around its numbers differs.
"""

import argparse
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

# run in a child under the timed runs' environment, so it sees their BLAS setting
MACHINE = """
import ctypes, glob, os, platform, numpy as np
threads = core = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
        fn = getattr(lib, symbol.format("get_num_threads"), None)
        if fn is not None and threads is None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
        fn = getattr(lib, symbol.format("get_corename"), None)
        if fn is not None and core is None:
            fn.restype, fn.argtypes = ctypes.c_char_p, []
            core = fn().decode()
print(f"cores={os.cpu_count()} blas_threads={threads} blas_core={core} numpy={np.__version__} "
      f"python={platform.python_version()}")
"""


def _env(blas: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if blas == "1":
        env.update({k: "1" for k in BLAS_ENV})
    return env


def _run(src: str, args: list, env: dict, out: Path) -> tuple:
    """One fresh indexvar process: (wall seconds, peak RSS in MB, minor faults, exit status)."""
    cmd = [sys.executable, "-m", "indexvar.cli", *args, "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=dict(env, PYTHONPATH=str(Path(src).resolve())),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, usage.ru_minflt, proc.returncode


def _reports(out: Path) -> dict:
    """Every file a run wrote but its manifest, by name: its bytes."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.txt"}


def _move(a: bytes | None, b: bytes | None) -> str:
    """How far report b moved from report a: the largest |x - y| over the
    numbers at the same places, relative to the largest finite magnitude
    among the numbers of both (inf where only one is nan or infinite)."""
    if a is None or b is None:
        return "missing from one tree"
    if NUMBER.split(a) != NUMBER.split(b):
        return "layout differs"
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    moved = [abs(x - y) if math.isfinite(x - y) else math.inf
             for x, y in pairs if x != y and not (math.isnan(x) and math.isnan(y))]
    scale = max((abs(v) for pair in pairs for v in pair if math.isfinite(v)), default=0.0)
    largest = max(moved, default=0.0)
    return f"largest relative move {largest / scale if scale else largest:.3g}"


def _summary(values: tuple) -> str:
    if len(values) == 1:                       # quantiles needs two points
        values *= 2
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {med:.3f} IQR {q3 - q1:.3f} [{q1:.3f}-{q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="LABEL=SRC_DIR [extra subcommand arguments], repeatable")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--blas", choices=("1", "default"), default="1")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="-- then the subcommand and its arguments")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if not args or args[0].startswith("-"):
        parser.error("name the subcommand first after --, as in -- montecarlo --model mai")
    trees = []
    for spec in opts.tree:
        label, _, rest = spec.partition("=")
        src, *extra = shlex.split(rest)
        trees.append((label, src, extra))
    env = _env(opts.blas)
    machine = subprocess.run([sys.executable, "-c", MACHINE], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
    print(f"machine: {machine} (--blas {opts.blas})")
    print(" ".join(args))
    runs = {label: [] for label, _, _ in trees}
    same = {label: 0 for label, _, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(opts.rounds):
            order = trees[rnd % len(trees):] + trees[:rnd % len(trees)]
            for label, src, extra in order:
                out = Path(tmp, f"{rnd}-{label}")
                wall, rss, minflt, code = _run(src, args + extra, env, out)
                print(f"round {rnd} {label}: wall {wall:.3f} s, peak RSS {rss:.1f} MB, "
                      f"minor faults {minflt}, exit {code}", flush=True)
                if code != 0:
                    return 1
                runs[label].append((wall, rss, minflt))
            first = _reports(Path(tmp, f"{rnd}-{trees[0][0]}"))
            for label in runs:
                got = _reports(Path(tmp, f"{rnd}-{label}"))
                same[label] += got == first
                for name in sorted(first.keys() | got.keys()):
                    if first.get(name) != got.get(name):
                        print(f"round {rnd} {label}: {name} differs from {trees[0][0]}'s, "
                              f"{_move(first.get(name), got.get(name))}")
    for label, _, extra in trees:
        walls, rsss, minflts = zip(*runs[label])
        print(f"{label} {' '.join(extra)}: wall s {_summary(walls)}; peak RSS MB {_summary(rsss)}; "
              f"minor faults median {statistics.median(minflts):.0f}; "
              f"reports equal to {trees[0][0]}'s in {same[label]}/{opts.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
