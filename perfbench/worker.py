"""One benchmark process: set up one workload, run its units, check them.

Started by run.py with the BLAS thread variables already set, so that the
thread count is fixed before numpy loads. Prints one JSON object on its last
stdout line. Usage:

    python3 perfbench/worker.py --workload select-grid --seed 1 --units 4 [--trace] [--setup-only]
"""

import time

T_START = time.perf_counter()   # set-up time counts from here: imports plus inputs

import argparse                  # noqa: E402
import ctypes                    # noqa: E402
import glob                      # noqa: E402
import json                      # noqa: E402
import math                      # noqa: E402
import os                        # noqa: E402
import platform                  # noqa: E402
import resource                  # noqa: E402
import shutil                    # noqa: E402
import statistics                # noqa: E402
import sys                       # noqa: E402
import tempfile                  # noqa: E402
import traceback                 # noqa: E402
from pathlib import Path         # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np               # noqa: E402

import workloads                 # noqa: E402
from run import BLAS_ENV         # noqa: E402
from spans import Tracer         # noqa: E402


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


# The speed probe: a fixed kernel that calls no indexvar code. Like the
# workloads, it is mostly interpreter work and numpy calls on small matrices.
# Timed between units, it measures how fast the shared machine runs at that
# moment; REF_PROBE_S is its time at the reference speed.
REF_PROBE_S = 1.0e-3
PROBES_PER_GAP = 5      # one probe jitters by about a fifth; several steady the mean
_PROBE_S = np.random.default_rng(0).standard_normal((6, 6))
_PROBE_S = _PROBE_S @ _PROBE_S.T + 6.0 * np.eye(6)


def speed_probe() -> float:
    t0 = time.perf_counter()
    for _ in range(15):
        np.linalg.eigh(_PROBE_S)
        np.linalg.slogdet(_PROBE_S)
        np.linalg.cholesky(_PROBE_S)
        np.kron(_PROBE_S, _PROBE_S[:2, :2])
        np.einsum("ij,jk->ik", _PROBE_S, _PROBE_S)
    counts = {}
    for i in range(1500):
        counts[i % 7] = counts.get(i % 7, 0) + i
    return time.perf_counter() - t0


def slowdown(probes) -> float:
    """Mean probe time over its reference: 1.0 at the reference machine speed."""
    return statistics.fmean(probes) / REF_PROBE_S


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_threads_fixed_by": " ".join(f"{k}={os.environ.get(k, '')}" for k in BLAS_ENV),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    machine = machine_facts()
    if machine["blas_threads"] not in (None, 1):
        print(f"BLAS runs {machine['blas_threads']} threads, expected 1", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.instrument(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.units, workdir, tracer)
        setup_s = time.perf_counter() - T_START
        setup_slowdown = slowdown([speed_probe() for _ in range(2 * PROBES_PER_GAP)])
        setup = {"setup_s": setup_s, "setup_ref_s": setup_s / setup_slowdown}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        report = run(workload, args.units, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(
        setup,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine,
    )
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["missing_targets"] = tracer.missing
        report["spans"] = len(tracer.spans)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed, "machine": machine})
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(report))
    return 0


def run(workload, n_units: int, tracer) -> dict:
    """The timed phase, then the output checks (untimed).

    Speed probes run before each unit and after the last one, outside the
    unit timings; wall_ref_s is the summed unit time divided by the slowdown
    the probes saw, an estimate of the wall time at the reference speed.
    """
    outputs, unit_s, errors = [], [], []
    probes = []
    failed = 0
    for i in range(n_units):
        probes += [speed_probe() for _ in range(PROBES_PER_GAP)]
        if tracer is not None:
            tracer.unit = i
        u0 = time.perf_counter()
        try:
            out = workload.run_unit(i)
        except Exception:
            failed += 1
            errors.append(f"unit {i} raised:\n{traceback.format_exc()}")
            continue
        finally:
            unit_s.append(time.perf_counter() - u0)
        failed += workload.unit_failed(out)
        outputs.append(out)
    probes += [speed_probe() for _ in range(PROBES_PER_GAP)]
    wall_s = math.fsum(unit_s)

    if tracer is not None:
        tracer.unit = "check"
    quality = {}
    if outputs:
        errors.extend(workload.check(outputs))
        quality = workload.quality(outputs)
    return {
        "wall_s": wall_s,
        "wall_ref_s": wall_s / slowdown(probes),
        "slowdown": slowdown(probes),
        "unit_s": unit_s,
        "attempted": n_units,
        "failed": failed,
        "errors": errors,
        "quality": quality,
    }


if __name__ == "__main__":
    sys.exit(main())
