"""Host-cost benchmark of the simulator: one workload per process.

    python3 perfbench/run.py --workload serve-busy --seed 1 --seconds 10

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer ones, from a separate traced round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tables-full", "serve-sparse", "serve-busy")


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, and no ``REPRO_*`` setting from the caller:
    every run measures the program's defaults on one core's worth of
    numpy."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package_root = ROOT / "src" / "repro"
    if not (package_root / "__init__.py").is_file():
        print(f"error: no program sources at {package_root}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.layers import END_TO_END, PER_LAYER

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.workload == "tables-full":
            from perfbench import tables

            result = tables.run(args.seed, args.seconds, bool(args.trace),
                                workdir, package_root)
        else:
            from perfbench import serving

            result = serving.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), package_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    outcomes = result.pop("outcomes", None)
    if outcomes:
        print(json.dumps({"outcomes": outcomes}), file=sys.stderr)
    measured = result.pop("metrics")
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        measured["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    # A layer metric that does not apply to this workload reads 0.
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
