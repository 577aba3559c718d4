"""Run the Tier-1 tests once under each OpenBLAS kernel, each in a fresh process.

    python tools/blas_kernels.py

The OpenBLAS in numpy's wheel is built with DYNAMIC_ARCH, so the
``OPENBLAS_CORETYPE`` environment variable picks its kernel per process. For
each of SkylakeX, Haswell, Zen, SandyBridge and Nehalem one child runs the
Tier-1 command (``python -m pytest -q --continue-on-collection-errors``)
from the repository root, with ``PYTHONPATH`` at ``src``,
``OPENBLAS_CORETYPE`` set and one BLAS thread (``--blas 1`` of
``tools/mc_timing.py``). Only the children's environments change, nothing
of the machine.

Prints, per kernel, the core name OpenBLAS reports under it (the
``blas_core`` of ``tools/mc_timing.py``'s machine line), the passed and
failed counts and every failing test id; then the machine. A kernel whose
core an earlier kernel already ran is not run again, and its line names the
kernel it shares that core with (Zen runs the Haswell kernels); an
unreported core is always run. Exits 1 when
pytest fails under any kernel.
"""

import re
import subprocess
import sys
from pathlib import Path

from mc_timing import MACHINE, _env

KERNELS = ("SkylakeX", "Haswell", "Zen", "SandyBridge", "Nehalem")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE")
ROOT = Path(__file__).resolve().parent.parent


def _machine(env: dict) -> str:
    """The machine line (mc_timing.MACHINE) under env."""
    return subprocess.run([sys.executable, "-c", MACHINE], env=env, capture_output=True,
                          text=True).stdout.strip()


def _core(env: dict) -> str:
    """The core name OpenBLAS reports under env."""
    core = re.search(r"blas_core=(\S+)", _machine(env))
    return core.group(1) if core and core.group(1) != "None" else "?"


def _run(env: dict) -> tuple:
    """One kernel's run: ({outcome: count}, failing ids, pytest's exit status)."""
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    summary = next((line for line in reversed(lines) if re.search(r" in [\d.]+s", line)), "")
    counts = {kind: int(k) for k, kind in re.findall(r"(\d+) (\w+)", summary)}
    failing = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
               if line.startswith(("FAILED ", "ERROR "))]
    return counts, failing, proc.returncode


def main() -> int:
    bad, ran = False, {}                               # ran: core name -> the kernel that ran it
    for kernel in KERNELS:
        env = dict(_env("1"), OPENBLAS_CORETYPE=kernel, PYTHONPATH=str(ROOT / "src"))
        core = _core(env)
        if core in ran and core != "?":
            print(f"{kernel} (core {core}): not run, the same core as {ran[core]}", flush=True)
            continue
        ran[core] = kernel
        counts, failing, status = _run(env)
        failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
        print(f"{kernel} (core {core}): {counts.get('passed', 0)} passed, {failed} failed"
              + ("" if counts else f", no pytest summary (exit {status})"), flush=True)
        for test in failing:
            print(f"  {test}", flush=True)
        bad |= status != 0
    print(_machine(_env("1")))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
