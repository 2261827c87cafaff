"""Measurement loops: CLI rounds with tracing off, in-process rounds with it on.

Tracing off, one client process runs one round of formsim commands after
another, each in a fresh child process, and times them from the
outside.  Tracing on, the same commands run in-process through
`formsim.cli.main`, alternating traced and untraced rounds so the
difference gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import outcheck
from tracing import Tracer, self_times
from workloads import Outcome, Workload

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

CHECK_NAMES = (
    "reference_rigidity", "motion_spaces", "velocity_map_identity", "gradient_consistency",
    "shape_invariance", "exponential_convergence", "motion_tracking",
)

PER_LAYER = {
    "cli.import_s": "s",
    "scenario.load_s": "s",
    "rigidity.report_s": "s",
    "rigidity.reference_shape_s": "s",
    "motion.velocity_map_s": "s",
    "motion.spaces_s": "s",
    "motion.calibrate_s": "s",
    "motion.calibrate_attempted": "count",
    "motion.calibrate_failed": "count",
    "motion.calibrate_failed.Unreachable": "count",
    "motion.calibrate_failed.DegenerateShape": "count",
    "control.control_law_us": "us",
    "simulate.integrate_s": "s",
    "simulate.rhs_evals": "count",
    "simulate.us_per_rhs": "us",
    "simulate.samples": "count",
    "simulate.steady_state_s": "s",
    "scenario.csv_write_s": "s",
    "scenario.csv_mb": "MB",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "checks.failed": "count",
    "trace.overhead_s": "s",
}

# Fresh processes timed for setup_s, after one untimed warm-up.
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
# A child running longer than this is killed and counted as broken.
CHILD_TIMEOUT_S = 150.0

SETUP_CODE = "import sys, formsim\nfor p in sys.argv[1:]: formsim.load_scenario(p)\n"
IMPORT_CODE = ("import time\nt = time.perf_counter()\nimport formsim.cli\n"
               "print(time.perf_counter() - t)\n")


class Child:
    """One finished child process: outcome, wall time and peak RSS."""

    def __init__(self, argv, env, cwd: Path, tag: str):
        out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.outcome = Outcome(proc.returncode, out_path.read_text(), err_path.read_text())


def another_fits(measured: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of the average length ends within the run."""
    return measured + measured / rounds <= seconds


def run_python(args: list[str], env, cwd, tag) -> Child:
    child = Child([sys.executable, *args], env, cwd, tag)
    if child.outcome.returncode != 0:
        raise RuntimeError(f"{tag} failed: {child.outcome.stderr[-2000:]}")
    return child


def untraced_run(wl: Workload, seconds: float, env) -> dict:
    """Rounds of CLI child processes until time is up, set-up processes between them.

    The host's speed drifts over tens of seconds, so a statistic of a few
    rounds taken together is at the mercy of when they ran.  Spreading the
    set-up processes over the run, and reporting the mean round over all
    of it, makes both metrics sample the same stretch of host time.
    """
    paths = [str(f.path) for f in wl.formations]

    def time_setup() -> float:
        return run_python(["-c", SETUP_CODE, *paths], env, wl.work, "setup").wall

    run_python(["-c", SETUP_CODE, *paths], env, wl.work, "setup-warm")
    commands = wl.commands()
    rounds, records, setup = [], [], []
    peak_rss = 0.0
    while not rounds or another_fits(sum(rounds), len(rounds), seconds):
        round_wall = 0.0
        for k, cmd in enumerate(commands):
            child = Child([sys.executable, "-m", "formsim.cli", *cmd.argv], env, wl.work,
                          f"cmd{k}")
            round_wall += child.wall
            peak_rss = max(peak_rss, child.rss_mb)
            records.append({**classify(cmd, child.outcome),
                            "wall_s": child.wall, "rss_mb": child.rss_mb})
        rounds.append(round_wall)
        # Keep the set-up processes level with the share of the run done.
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * sum(rounds) / seconds):
            setup.append(time_setup())
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup())

    metrics = {
        "wall_s": sum(rounds) / len(rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
        "ok_ratio": sum(r["outcome"] == "ok" for r in records) / len(records),
    }
    return {
        "metrics": metrics,
        **tally(records),
        "details": {
            "rounds_s": rounds,
            "median_round_s": statistics.median(rounds),
            "setup_s": setup,
            "samples": len(rounds),
            "refused": refusals(records),
            "problems": [p for r in records for p in r["problems"]],
            "commands": records[:len(commands)],
        },
    }


def tally(records: list[dict]) -> dict:
    return {"attempted": len(records),
            "failed": sum(r["outcome"] == "broken" for r in records)}


def refusals(records: list[dict]) -> dict[str, int]:
    """Refused commands counted as '<command>:<exception type>'."""
    return dict(Counter(f"{r['command']}:{r['error']}" for r in records
                        if r["outcome"] == "refused"))


def classify(cmd, out: Outcome) -> dict:
    """ok: exit 0 and output checks pass.  refused: a typed numerical
    failure where the command may refuse (design on generated shapes).
    broken: anything else."""
    record = {"command": cmd.argv[0], "returncode": out.returncode, "error": None,
              "problems": []}
    if out.returncode == 0:
        record["problems"] = cmd.check(out)
        record["outcome"] = "broken" if record["problems"] else "ok"
        return record
    error = outcheck.typed_error(out.returncode, out.stderr)
    if cmd.may_refuse and error is not None:
        record.update(outcome="refused", error=error)
    else:
        record.update(outcome="broken",
                      problems=[f"{cmd.argv[0]}: exit {out.returncode}: {out.stderr[-500:]}"])
    return record


def run_in_process(argv: list[str]) -> Outcome:
    """`formsim <argv>` through formsim.cli.main in this process.

    An exception that escapes main is reported as exit 1 with its
    traceback, which classify counts as broken.
    """
    import formsim.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = formsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue())


def traced_run(wl: Workload, seconds: float, env) -> tuple[dict, Tracer]:
    """Alternate traced and untraced in-process rounds until time is up."""
    import_s = statistics.median(
        float(run_python(["-c", IMPORT_CODE], env, wl.work, "import").outcome.stdout)
        for _ in range(IMPORT_REPEATS)
    )
    control_us = control_law_us(wl)

    commands = wl.commands()
    tracer = Tracer()
    traced, plain, records = [], [], []
    while not (traced and plain) or another_fits(sum(traced) + sum(plain),
                                                 len(traced) + len(plain), seconds):
        # Rounds go traced, plain, plain, traced, traced, ... so neither side
        # always runs first.
        on = (len(traced) + len(plain)) % 4 in (0, 3)
        if on:
            tracer.run = len(traced)
            tracer.install()
        began = time.perf_counter()
        try:
            outcomes = [run_in_process(cmd.argv) for cmd in commands]
        finally:
            (traced if on else plain).append(time.perf_counter() - began)
            if on:
                tracer.uninstall()
        records += [classify(cmd, out) for cmd, out in zip(commands, outcomes)]

    per_round = [layer_metrics(tracer, run) for run in range(len(traced))]
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["cli.import_s"] = import_s
    metrics["control.control_law_us"] = control_us
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: metrics[name] for name in PER_LAYER}
    return {
        "metrics": metrics,
        **tally(records),
        "details": {"traced_s": traced, "untraced_s": plain, "samples": len(traced),
                    "refused": refusals(records),
                    "problems": [p for r in records for p in r["problems"]],
                    "self_s": self_time_table(tracer)},
    }, tracer


def layer_metrics(tracer: Tracer, run: int) -> dict:
    own = self_times(tracer.spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    spans = tracer.run_spans(run)
    for i, s in spans:
        total[s.name] += s.end - s.start
        self_s[s.name] += own[i]
    count = tracer.counters[run]
    # A motion_spaces call that raises ends the calibration it was made for,
    # so it counts as one attempted and failed calibration.
    attempts = [s for _, s in spans if s.name.startswith("motion.calibrate.")
                or (s.name == "motion.spaces" and s.error)]
    failed = Counter(s.error for s in attempts if s.error)
    integrate_s, rhs = total["simulate.integrate"], count["simulate.rhs_evals"]
    return {
        "scenario.load_s": total["scenario.load"],
        "rigidity.report_s": total["rigidity.report"],
        "rigidity.reference_shape_s": total["rigidity.reference_shape"],
        "motion.velocity_map_s": total["motion.velocity_map"],
        # Self time: the velocity map computed on first use is its own metric.
        "motion.spaces_s": self_s["motion.spaces"],
        "motion.calibrate_s": sum(v for k, v in total.items()
                                  if k.startswith("motion.calibrate.")),
        "motion.calibrate_attempted": float(len(attempts)),
        "motion.calibrate_failed": float(sum(failed.values())),
        "motion.calibrate_failed.Unreachable": float(failed["Unreachable"]),
        "motion.calibrate_failed.DegenerateShape": float(failed["DegenerateShape"]),
        "simulate.integrate_s": integrate_s,
        "simulate.rhs_evals": rhs,
        "simulate.us_per_rhs": 1e6 * integrate_s / rhs if rhs else 0.0,
        "simulate.samples": count["simulate.samples"],
        "simulate.steady_state_s": total["simulate.steady_state"],
        "scenario.csv_write_s": total["scenario.csv_write"],
        "scenario.csv_mb": count["scenario.csv_bytes"] / 1e6,
        **{f"checks.{name}_s": total[f"checks.{name}"] for name in CHECK_NAMES},
        "checks.failed": count["checks.failed"],
    }


def self_time_table(tracer: Tracer) -> dict:
    """Median over traced rounds of each span name's summed self time."""
    own = self_times(tracer.spans)
    per_run: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(tracer.spans):
        per_run[s.name][s.run] += own[i]
    return {name: statistics.median(runs.values()) for name, runs in sorted(per_run.items())}


def control_law_us(wl: Workload) -> float:
    """Median time of one control_law call at the first reference shape."""
    import formsim

    scenario = formsim.load_scenario(wl.formations[0].path)
    ref = scenario.reference_shape()
    zero = formsim.MotionParameters.zero(ref.graph.edge_count)

    def batch(calls: int) -> float:
        began = time.perf_counter()
        for _ in range(calls):
            formsim.control_law(ref.framework, ref.distances, zero, scenario.gain)
        return (time.perf_counter() - began) / calls

    calls = max(1, int(0.02 / batch(1)))
    return 1e6 * statistics.median(batch(calls) for _ in range(7))


def provenance(root: Path, blas_threads: int, wl: Workload) -> dict:
    import numpy
    import scipy

    import formsim

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "formsim_version": formsim.__version__,
        "formsim_commit": git_commit(root),
        "formsim_source_sha256": source_digest(root / "src" / "formsim"),
        "workload": wl.name,
        "seed": wl.seed,
        "smoke": wl.smoke,
        "formations": [f.provenance() for f in wl.formations],
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(package: Path) -> str:
    """SHA-256 over the package's Python and JSON files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()
