"""Mutated scenario files and flags end in an exit code, never a traceback.

Each example mutates the bundled square scenario (drops a key, or sets a
value to a wrong type, zero, a negative number, +-1e300, an empty list,
an integrator name other than "rk4" or a record stride longer than the run)
and runs `design` and a short `simulate` on it.  The step count stays at
or below 1000: simulate allocates the whole trajectory up front.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from formsim import bundled_scenario_path
from formsim.cli import main

# A NumPy overflow warning on stderr reads like a crash, so it fails the run.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SQUARE = json.loads(bundled_scenario_path("square").read_text())

# "euler" names an integrator formsim does not have; 10**6 is a valid
# integer but a record stride longer than any run.
BAD_VALUES = [None, True, "x", {}, [], 0, 0.0, -1, -0.5, 1e300, -1e300, "euler", 10**6]

# Every valid step is 0.01 or 0.05 and every valid horizon at most 10, so
# a run takes at most 1000 steps.  Valid values are listed more than once
# so that most examples get past the flags.
DT_FLAGS = ["0.01", "0.05"] * 3 + ["0", "-1", "nan", "inf"]
DURATION_FLAGS = ["0.02", "0.3", "1.0", "10"] * 2 + ["0", "-2", "inf"]
SEED_FLAGS = [None, 0, 3, -1, 2**40]

# Messages of the exit-1 errors: a schema error names its JSON path or the
# command-line override, and the only other refusal is the rigidity one.
VALIDATION_MARKS = ("$", "command-line override", "reference shape is not minimally rigid")


def key_paths(node, prefix=()):
    """Path of every dict key and list index in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


PATHS = list(key_paths(SQUARE))


def holds(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(SQUARE)
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(PATHS))
        node = doc
        for step in parents:
            node = node[step] if holds(node, step) else None
        # An earlier mutation may have removed or replaced this part.
        if not holds(node, key):
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(st.sampled_from(BAD_VALUES))
    return doc


def run_cli(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert any(mark in err for mark in VALIDATION_MARKS), err


@given(doc=mutated_scenarios(), dt=st.sampled_from(DT_FLAGS),
       duration=st.sampled_from(DURATION_FLAGS), seed=st.sampled_from(SEED_FLAGS))
# capsys is read after every command, so sharing it across examples is safe.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_square_exits_cleanly(capsys, doc, dt, duration, seed):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "mutated.json"
        path.write_text(json.dumps(doc))
        flags = [] if seed is None else ["--seed", str(seed)]
        run_cli(["design", str(path), *flags], capsys)
        run_cli(["simulate", str(path), "--dt", dt, "--duration", duration, *flags,
                 "-o", str(Path(work) / "run")], capsys)
