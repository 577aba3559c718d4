"""The indexvar benchmark: one workload per call, in fresh single processes.

    python3 perfbench/run.py --workload select-grid --seed 1 --seconds 20 --trace 0

Workloads, metrics, units and bounds are defined in BENCHMARK.json at the
root of the repository. ``--seconds`` fixes the amount of work: a workload
runs ceil(seconds / nominal unit cost) units, with the nominal costs below
measured once at the parent of the benchmark on a 2-core x86-64 box at one
BLAS thread, so for a given ``--seconds`` every commit does the same work and
``wall_s`` compares across commits. The inputs come from ``--seed`` alone.

``--trace 0`` reports the end-to-end metrics. It runs the workload once in a
worker process and sets the workload up in further worker processes, and
reports set-up time as the median over all of them. The machine is shared and
its speed drifts by up to half over minutes, so ``wall_s`` and ``setup_s``
are given at a reference speed: each measured time is divided by the
slowdown that a fixed probe kernel, timed between units and after set-up,
saw at that moment (worker.py). The times as measured are printed beside
them. ``--trace 1`` reports the
per-layer metrics: it runs half the units untraced and the same half traced,
each in its own worker process, and reports the difference of their wall
times as the tracing overhead. The traced worker dumps its spans to
``.perfbench_out/``. ``--smoke`` runs one unit per worker, for a quick check
that every metric is emitted.

Every worker runs with ``workers=1`` and one BLAS thread, fixed through the
environment before numpy loads. Machine facts are printed with every result.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 1 when an
output check fails and 2 when the benchmark cannot run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import nearest_rank

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NOMINAL_UNIT_S = {"select-grid": 1.05, "pipeline-rolling": 0.7, "mc-wide": 0.25}
SETUP_RUNS = 5           # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0       # the whole run, all workers included


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a worker crashed)."""


def worker(args, units, deadline, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--units", str(units)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting {' '.join(cmd[1:])}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd[1:])}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd[1:])}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """Highest of p99/p90/p75 with at least ten samples above it, or None."""
    for q in (0.99, 0.90, 0.75):
        if len(samples) - math.ceil(q * len(samples)) >= 10:
            return f"p{round(100 * q)}", nearest_rank(samples, q)
    return None


def end_to_end(args, units, deadline):
    # set-ups before and after the timed run, so that they see the machine at
    # different times
    extra = 1 if args.smoke else SETUP_RUNS - 1
    setups = [worker(args, units, deadline, setup_only=True) for _ in range(extra // 2)]
    run = worker(args, units, deadline)
    setups += [run] + [worker(args, units, deadline, setup_only=True)
                       for _ in range(extra - extra // 2)]
    values = {
        "wall_s": run["wall_ref_s"],
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [
        f"as measured: wall_s = {run['wall_s']!r} s at slowdown {run['slowdown']!r}, "
        f"setup_s = {statistics.median(s['setup_s'] for s in setups)!r} s",
        f"unit_s.p50 = {statistics.median(run['unit_s'])!r} s over {len(run['unit_s'])} units",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    tail = tail_percentile(run["unit_s"])
    if tail:
        notes.append(f"unit_s.{tail[0]} = {tail[1]!r} s")
    return [run], values, notes


def per_layer(args, units, deadline):
    plain = worker(args, units, deadline)
    traced = worker(args, units, deadline, trace=True)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_ref_s"] - plain["wall_ref_s"]
    values["trace.spans"] = traced["spans"]
    notes = [
        f"wall_s untraced = {plain['wall_ref_s']!r} s, traced = {traced['wall_ref_s']!r} s "
        f"(as measured: {plain['wall_s']!r} s, {traced['wall_s']!r} s)",
        f"spans dumped to {traced['trace_file']}",
    ]
    notes += [f"trace target not found, layer under-counted: {t}"
              for t in traced["missing_targets"]]
    return [plain, traced], values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_UNIT_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one unit per worker")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "indexvar" / "__init__.py").is_file():
            raise BenchError(f"no indexvar sources under {ROOT / 'src'}")
        units = max(1, math.ceil(args.seconds / NOMINAL_UNIT_S[args.workload]))
        if args.smoke:
            units = 1
        elif args.trace:
            units = math.ceil(units / 2)
        runs, values, notes = (per_layer if args.trace else end_to_end)(args, units, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    run = runs[-1]
    attempted, failed = run["attempted"], run["failed"]
    values.update(run["quality"])
    values["quality.failed_frac"] = failed / attempted
    errors = [e for r in runs for e in r["errors"]]

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values and not name.startswith("quality."):
            print(f"benchmark error: no value for metric {name}", file=sys.stderr)
            return 2
        # a quality metric belongs to one workload and reads 0 on the others
        metrics[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}

    machine = run["machine"]
    print(f"machine: nproc={machine['nproc']} blas_threads={machine['blas_threads']} "
          f"(fixed by {machine['blas_threads_fixed_by']}) numpy={machine['numpy']} "
          f"python={machine['python']} workers=1")
    print(f"workload: {args.workload} seed={args.seed} units={units} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for key in sorted(k for k in values if k.startswith("quality.") and k not in metrics):
        print(f"  {key} = {values[key]!r}")
    for note in notes:
        print(f"  {note}")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
