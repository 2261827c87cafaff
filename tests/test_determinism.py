"""Every command writes the same bytes run after run, and with one BLAS
thread as with the default.

Each run is a fresh `python -m formsim.cli` process, because the BLAS
thread count is fixed when a process starts.  Each run works in its own
directory with the same relative output prefix, so stdout can be
compared too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from formsim import bundled_scenario_path

from test_cli import FLAT, TETRA_SWING, ci_tetrahedron_doc

SRC = Path(__file__).resolve().parents[1] / "src"
# Short runs: the pairs compare bytes, not verdicts.
DURATION = ["--duration", "4"]


def run(tmp_path: Path, label: str, argv, one_thread: bool = False) -> dict:
    """Run formsim once in a directory of its own; return its exit code, stdout and
    every file it wrote, by name."""
    cwd = tmp_path / label
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-m", "formsim.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, check=False, timeout=300)
    # verify exits 2 when a check fails; the pairs compare its lines anyway.
    assert done.returncode in (0, 2) and b"Traceback" not in done.stderr, \
        (label, done.stderr.decode())
    return {"exit": done.returncode, "stdout": done.stdout,
            **{p.name: p.read_bytes() for p in cwd.iterdir()}}


def test_runs_repeat_and_ignore_the_blas_thread_count(tmp_path):
    flat = json.loads(bundled_scenario_path("square").read_text())
    flat["targets"]["schedule"] = FLAT
    scenarios = {"square": bundled_scenario_path("square"),
                 "flat": tmp_path / "flat.json", "tetra": tmp_path / "tetra.json"}
    scenarios["flat"].write_text(json.dumps(flat))
    scenarios["tetra"].write_text(json.dumps(ci_tetrahedron_doc(TETRA_SWING)))
    commands = {
        "analyze": lambda path: ["analyze", str(path)],
        "design": lambda path: ["design", str(path)],
        "simulate": lambda path: ["simulate", str(path), *DURATION, "-o", "run"],
        "verify": lambda path: ["verify", str(path), *DURATION],
    }
    # (command, scenario): whether it runs twice, whether it runs on one thread.
    cases = {
        ("verify", "square"): (True, False),
        ("verify", "flat"): (True, False),
        ("verify", "tetra"): (True, False),
        ("simulate", "square"): (True, True),
        ("simulate", "tetra"): (True, True),
        ("design", "square"): (True, True),
        ("design", "tetra"): (False, True),
        ("analyze", "square"): (False, True),
        ("analyze", "tetra"): (False, True),
    }
    differ = []
    for (command, shape), (again, one_thread) in cases.items():
        argv = commands[command](scenarios[shape])
        label = f"{command}-{shape}"
        first = run(tmp_path, label, argv)
        others = []
        if again:
            others.append(("second run", run(tmp_path, f"{label}-again", argv)))
        if one_thread:
            others.append(("one BLAS thread", run(tmp_path, f"{label}-one", argv, True)))
        for what, other in others:
            differ += [f"{label}, {what}: {name}" for name in sorted(first.keys() | other.keys())
                       if first.get(name) != other.get(name)]
    assert not differ, differ
