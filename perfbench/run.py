"""formsim benchmark: one workload, one seed, tracing on or off.

Usage, from the root of a formsim checkout:

    python3 perfbench/run.py --workload square-verify --seed 1 --seconds 36 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics.  --workload all runs every
workload both ways and names every metric <workload>.<metric>.  --smoke
shrinks every workload to a few seconds.  The full report, provenance
and spans go to .perfbench_out/.  The program is always the checkout's
own src/formsim; without it the benchmark exits with status 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("square-verify", "swarm-design", "swarm-settle")
# BLAS threads per process.  One thread keeps a dense SVD from stalling
# when anything else runs on another CPU: with two threads a competing
# process made swarm-design rounds four times slower on a 2-CPU machine.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return parser.parse_args(argv)


def pin_environment() -> dict:
    """Pin BLAS threads and point every process at the checkout's source."""
    src = ROOT / "src"
    if not (src / "formsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no formsim source at {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import formsim

    if Path(formsim.__file__).resolve().parent != src / "formsim":
        raise SystemExit(f"perfbench: imported formsim from {formsim.__file__}, not {src}")
    return dict(os.environ)


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool, env: dict) -> dict:
    import bench
    from workloads import WORKLOADS

    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, work, ROOT, smoke)
        if trace:
            result, tracer = bench.traced_run(wl, seconds, env)
            units = bench.PER_LAYER
        else:
            result, tracer = bench.untraced_run(wl, seconds, env), None
            units = bench.END_TO_END
        report = {"provenance": bench.provenance(ROOT, BLAS_THREADS, wl), **result}
        if tracer is not None:
            report["trace"] = tracer.dump()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))

    for metric, value in result["metrics"].items():
        print(f"{name:14s} {metric:42s} {value:14.6g} {units[metric]}")
    print(f"{name:14s} samples {result['details']['samples']}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"provenance {json.dumps(report['provenance'])}")
    for problem in result["details"]["problems"]:
        print(f"{name:14s} problem: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_environment()
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.smoke, env)
        print(json.dumps(result))
        return 0

    runs = {(name, trace): run_one(name, args.seed, args.seconds, trace, args.smoke, env)
            for name in WORKLOAD_NAMES for trace in (0, 1)}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{name}.{metric}": value for (name, _), r in runs.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
