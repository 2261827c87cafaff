"""Scenario documents and result persistence.

A scenario is one JSON document describing a complete experiment:

    {
      "name": "square",
      "dimension": 2,
      "edges": [[1, 2], [2, 3], [3, 1], [4, 3], [4, 1]],
      "reference_positions": [[0, 0], [15, 0], [15, 15], [0, 15]],
      "initial_positions": null,
      "gain": 5.0,
      "targets": {
        "v_body": [0.0, 0.0],
        "omega": 1.0,
        "schedule": {"kind": "periodic", "amplitude": 0.25, "frequency": 1.5}
      },
      "sim": {
        "dt": 0.001, "duration": 20.0, "integrator": "rk4",
        "record_stride": 10, "perturbation": {"seed": 7, "magnitude": 0.5}
      }
    }

Distances and positions are in an abstract length unit; angles are in
radians and rates are per unit time.  "omega" is a number for planar
scenarios and a 3-vector for spatial ones.  Schedule kinds are "none",
"linear" (field "rate"), and "periodic" (fields "amplitude" and
"frequency"; the scale factor swings by twice the amplitude).
Scenario.initial_framework says where a run starts.

Parsing validates the document eagerly: schema problems raise
SchemaError with the offending JSON path, non-minimally-rigid reference
shapes raise RigidityError, and schedules that drive any distance to
zero by the end of the last integrator step raise PositivityError.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .control import ControllerConfig, ScalingSchedule
from .errors import PositivityError, SchemaError
from .motion import (
    MotionParameters,
    ReferenceShape,
    rotation_params,
    scaling_params,
    translation_params,
)
from .rigidity import Framework, SensingGraph, control_kernel
from .simulate import Perturbation, SimConfig, Trajectory, apply_perturbation

_AXES = "xyz"


@dataclass(eq=False)
class Scenario:
    """Validated experiment description; reference is its validated
    reference shape, which holds the sensing graph and the rigidity report."""

    name: str
    reference: ReferenceShape
    initial_positions: np.ndarray | None
    perturbation: Perturbation | None
    gain: float
    v_body: np.ndarray
    omega: float | np.ndarray
    schedule: ScalingSchedule
    sim: SimConfig

    @property
    def dimension(self) -> int:
        return self.reference.dim

    def reference_shape(self) -> ReferenceShape:
        """reference, through a method that perfbench's tracer times by name."""
        return self.reference

    def initial_framework(self) -> Framework:
        """Where a run starts: the initial positions, or the reference shape
        when there are none, with every agent moved by the perturbation
        when there is one."""
        start = self.reference.framework if self.initial_positions is None \
            else Framework.from_points(self.reference.graph, self.initial_positions)
        if self.perturbation is None:
            return start
        return apply_perturbation(start, self.perturbation.seed, self.perturbation.magnitude)

    def controller_config(self, parts: dict | None = None) -> ControllerConfig:
        """This scenario's controller with the offset parts of a design, as
        parse_design reads them, or else all three calibrated for its targets."""
        if parts is None:
            ref = self.reference
            parts = {"translation": translation_params(ref, self.v_body),
                     "rotation": rotation_params(ref, self.omega),
                     "scaling_unit_rate": scaling_params(ref, 1.0)}
        return ControllerConfig(self.gain, parts["translation"], parts["rotation"],
                                parts["scaling_unit_rate"], self.schedule)


def _number(value, path) -> float:
    """A finite JSON number as a float, else SchemaError naming path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: must be finite, got {value}")
    return number


def _numbers(raw, count, path) -> np.ndarray:
    """A JSON list of count finite numbers."""
    if not isinstance(raw, list) or len(raw) != count:
        raise SchemaError(f"{path}: expected a list of {count} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(raw)])


def _expect(mapping, key, kind, path):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in mapping:
        raise SchemaError(f"{path}.{key}: missing")
    value = mapping[key]
    if kind is float:
        return _number(value, f"{path}.{key}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _point_array(raw, count, dim, path) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != count:
        raise SchemaError(f"{path}: expected {count} points")
    return np.array([_numbers(row, dim, f"{path}[{i}]") for i, row in enumerate(raw)])


def _parse_schedule(raw, path) -> ScalingSchedule:
    kind = _expect(raw, "kind", str, path)
    if kind == "none":
        return ScalingSchedule.none()
    if kind == "linear":
        return ScalingSchedule.linear(_expect(raw, "rate", float, path))
    if kind == "periodic":
        amplitude = _expect(raw, "amplitude", float, path)
        frequency = _expect(raw, "frequency", float, path)
        if frequency <= 0.0:
            raise SchemaError(f"{path}.frequency: must be positive")
        return ScalingSchedule.periodic(amplitude, frequency)
    raise SchemaError(f"{path}.kind: unknown schedule kind {kind!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate one scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")

    dim = _expect(doc, "dimension", int, "$")
    if dim not in (2, 3):
        raise SchemaError("$.dimension: must be 2 or 3")

    raw_edges = _expect(doc, "edges", list, "$")
    edges = []
    for k, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"$.edges[{k}]: expected a [tail, head] pair")
        tail, head = pair
        if isinstance(tail, bool) or isinstance(head, bool) \
                or not isinstance(tail, int) or not isinstance(head, int):
            raise SchemaError(f"$.edges[{k}]: vertex ids must be integers")
        edges.append((tail, head))

    raw_ref = _expect(doc, "reference_positions", list, "$")
    n = len(raw_ref)
    reference = _point_array(raw_ref, n, dim, "$.reference_positions")
    try:
        graph = SensingGraph(n, tuple(edges))
    except ValueError as exc:
        raise SchemaError(f"$.edges: {exc}") from None
    # Finite points can still be so far apart that a squared length overflows.
    with np.errstate(over="ignore"):
        lengths = control_kernel(graph, dim).lengths(reference.reshape(1, -1))[0]
    if not np.isfinite(lengths).all():
        k = int(np.flatnonzero(~np.isfinite(lengths))[0]) + 1
        raise SchemaError(f"$.reference_positions: the length of edge {k} overflows")

    initial = None
    if doc.get("initial_positions") is not None:
        initial = _point_array(doc["initial_positions"], n, dim, "$.initial_positions")

    gain = _expect(doc, "gain", float, "$")
    if gain <= 0.0:
        raise SchemaError("$.gain: must be positive")

    targets = _expect(doc, "targets", dict, "$")
    v_body = _numbers(_expect(targets, "v_body", list, "$.targets"), dim, "$.targets.v_body")

    if dim == 2:
        omega: float | np.ndarray = _expect(targets, "omega", float, "$.targets")
    else:
        raw_omega = _expect(targets, "omega", object, "$.targets")
        if not isinstance(raw_omega, list) or len(raw_omega) != 3:
            raise SchemaError("$.targets.omega: expected a 3-vector for spatial scenarios")
        omega = _numbers(raw_omega, 3, "$.targets.omega")

    schedule = _parse_schedule(_expect(targets, "schedule", dict, "$.targets"), "$.targets.schedule")

    raw_sim = _expect(doc, "sim", dict, "$")
    perturbation = None
    if raw_sim.get("perturbation") is not None:
        raw_pert = raw_sim["perturbation"]
        magnitude = _expect(raw_pert, "magnitude", float, "$.sim.perturbation")
        if magnitude < 0.0:
            raise SchemaError("$.sim.perturbation.magnitude: must not be negative")
        seed = _expect(raw_pert, "seed", int, "$.sim.perturbation")
        try:
            perturbation = Perturbation(seed, magnitude)
        except ValueError as exc:
            raise SchemaError(f"$.sim.perturbation.seed: {exc}") from None
    if raw_sim.get("integrator", "rk4") != "rk4":  # the key may still name RK4
        raise SchemaError(f"$.sim.integrator: only 'rk4' is supported, got {raw_sim['integrator']!r}")
    try:
        sim = SimConfig(
            dt=_expect(raw_sim, "dt", float, "$.sim"),
            duration=_expect(raw_sim, "duration", float, "$.sim"),
            record_stride=_expect(raw_sim, "record_stride", int, "$.sim")
            if "record_stride" in raw_sim else 1,
        )
    except ValueError as exc:
        raise SchemaError(f"$.sim: {exc}") from None

    # Eager physical validation: rigidity then schedule positivity.
    scenario = Scenario(
        name=str(doc.get("name", "scenario")),
        reference=ReferenceShape(Framework.from_points(graph, reference)),
        initial_positions=initial,
        perturbation=perturbation,
        gain=gain,
        v_body=v_body,
        omega=omega,
        schedule=schedule,
        sim=sim,
    )
    if schedule.min_scale_factor(sim.horizon) <= 0.0:
        raise PositivityError(
            "$.targets.schedule: scale factor reaches zero by the end of the last step"
        )
    return scenario


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(resources.files("formsim.scenarios") / f"{name}.json")


def trajectory_csv_header(dim: int, vertex_count: int) -> list[str]:
    columns = ["t"]
    for i in range(1, vertex_count + 1):
        for axis in range(dim):
            columns.append(f"p_{i}{_AXES[axis]}")
    columns.extend(("scale", "V"))
    return columns


# A file of fewer values than two blocks of this size is written by the
# caller alone: a block formats in about 0.13 s at 1 us per value, and
# forking, reaping and appending a worker costs a few ms.
MIN_BLOCK_VALUES = 1 << 17
MAX_BLOCKS = 8


def write_trajectory_csv(traj: Trajectory, dim: int, fh) -> None:
    """Write a trajectory as CSV: t, positions, scale factor, potential.

    The distance errors and scheduled distances are not written: they
    are recomputed exactly from a row's positions and scale factor.
    Floats are rendered with shortest round-trip formatting, so repeated
    runs of the same scenario produce byte-identical files.  A large run
    is cut into contiguous row blocks, one per usable CPU: the caller
    writes the first block into the text stream fh while forked workers
    write the others into unnamed temporary files, which the caller then
    reads back and writes into fh in order.  The temporary files sit in
    the directory of the file fh names, or in the default temporary
    directory when fh names no existing file.  Every block formats its
    rows as the serial loop does, so the bytes are the same for any
    block count.  A worker that fails raises OSError; when the caller's
    own block raises, it kills and reaps every worker first.
    """
    vertex_count = traj.positions.shape[1] // dim
    header = trajectory_csv_header(dim, vertex_count)
    fh.write(",".join(header) + "\n")
    starts = _block_starts(traj.sample_count, len(header))
    name = getattr(fh, "name", None)
    directory = os.path.dirname(os.path.abspath(name)) \
        if isinstance(name, str) and os.path.isfile(name) else None
    pids, outs = [], []
    try:
        for lo, hi in zip(starts[1:-1], starts[2:]):
            outs.append(tempfile.TemporaryFile("w+", encoding="ascii", dir=directory))
            pids.append(_fork_rows(traj, lo, hi, outs[-1]))
        _write_rows(traj, starts[0], starts[1], fh)
        for lo, out in zip(starts[1:-1], outs):
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            code = os.waitstatus_to_exitcode(status)
            if code:
                cause = f"exited with status {code}" if code > 0 \
                    else f"was killed by signal {-code}"
                raise OSError(f"CSV writer for the rows from {lo} {cause}")
            out.seek(0)
            shutil.copyfileobj(out, fh, 1 << 16)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in outs:
            out.close()


def _write_rows(traj: Trajectory, lo: int, hi: int, fh) -> None:
    """Write rows lo to hi - 1 of the CSV body; the errors behind V are
    formed one chunk of rows at a time."""
    for rows in traj.chunks(lo, hi):
        errors = traj.errors(rows)
        potential = 0.5 * (errors * errors).sum(axis=1)
        for t, positions, scale, row_potential in zip(
                traj.times[rows].tolist(), traj.positions[rows], traj.scale[rows].tolist(),
                potential.tolist()):
            fh.write(",".join(map(repr, [t, *positions.tolist(), scale, row_potential])))
            fh.write("\n")


def _block_starts(samples: int, width: int) -> list[int]:
    """First row of each block, then samples: one block unless the file
    holds at least two blocks' worth of values and more than one CPU is
    usable."""
    blocks = min(samples * width // MIN_BLOCK_VALUES, samples, MAX_BLOCKS)
    if blocks > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        blocks = min(blocks, len(os.sched_getaffinity(0)))
    else:
        blocks = 1
    return [samples * b // blocks for b in range(blocks + 1)]


def _fork_rows(traj: Trajectory, lo: int, hi: int, out) -> int:
    """Fork a worker that writes rows lo to hi - 1 into out; return its pid.

    The worker reads the trajectory copy-on-write and never returns: it
    leaves through os._exit, with status 0 once its rows are flushed.
    It prints nothing, so a failure reaches the user only through the
    caller's OSError.  It runs only Python, tolist, take,
    elementwise ufuncs and add.reduce, none of which takes a lock another
    thread of the caller may have held at the fork; no BLAS call runs
    in it.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_rows(traj, lo, hi, out)
        out.flush()
        status = 0
    finally:
        os._exit(status)


def design_to_document(dim: int, parts: dict, residuals: dict) -> dict:
    """Assemble the design-command output document.

    space_dimensions counts the independent translations, rotations and
    scalings of a rigid shape in R^dim.
    """
    return {
        "dimension": dim,
        "space_dimensions": {"translation": dim, "rotation": 1 if dim == 2 else 3,
                             "scaling": 1},
        "parameters": {
            name: {"tail": pv.tail.tolist(), "head": pv.head.tolist()}
            for name, pv in parts.items()
        },
        "residuals": residuals,
    }


def parse_design(text: str, edge_count: int) -> dict:
    """Read a design document back into MotionParameters parts."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    raw = _expect(doc, "parameters", dict, "$")
    parts = {}
    for name in ("translation", "rotation", "scaling_unit_rate"):
        entry = _expect(raw, name, dict, "$.parameters")
        tail = _expect(entry, "tail", list, f"$.parameters.{name}")
        head = _expect(entry, "head", list, f"$.parameters.{name}")
        if len(tail) != edge_count or len(head) != edge_count:
            raise SchemaError(f"$.parameters.{name}: expected {edge_count} offsets per side")
        parts[name] = MotionParameters(_numbers(tail, edge_count, f"$.parameters.{name}.tail"),
                                       _numbers(head, edge_count, f"$.parameters.{name}.head"))
    return parts
