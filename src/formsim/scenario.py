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
"frequency"; the scale factor swings by twice the amplitude).  When
"initial_positions" is null the run starts from the reference positions
plus the configured perturbation.

Parsing validates the document eagerly: schema problems raise
SchemaError with the offending JSON path, non-minimally-rigid reference
shapes raise RigidityError, and schedules that drive any distance to
zero by the end of the last integrator step raise PositivityError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
from .rigidity import Framework, SensingGraph, edge_lengths
from .simulate import Perturbation, SimConfig, Trajectory

_AXES = "xyz"


@dataclass(eq=False)
class Scenario:
    """Validated experiment description."""

    name: str
    dimension: int
    edges: tuple[tuple[int, int], ...]
    reference_positions: np.ndarray
    initial_positions: np.ndarray | None
    gain: float
    v_body: np.ndarray
    omega: float | np.ndarray
    schedule: ScalingSchedule
    sim: SimConfig
    _reference: ReferenceShape | None = field(default=None, init=False, repr=False)

    def graph(self) -> SensingGraph:
        return SensingGraph(len(self.reference_positions), self.edges)

    def reference_shape(self) -> ReferenceShape:
        """The validated reference shape, built once per scenario.

        Its rigidity report is cached on it, so every command and check
        shares it.
        """
        if self._reference is None:
            self._reference = ReferenceShape(
                Framework.from_points(self.graph(), self.reference_positions))
        return self._reference

    def initial_framework(self) -> Framework:
        points = self.initial_positions
        if points is None:
            points = self.reference_positions
        return Framework.from_points(self.graph(), points)

    def controller_config(self, ref: ReferenceShape | None = None) -> ControllerConfig:
        """Calibrate all offset parts for this scenario's targets."""
        ref = ref or self.reference_shape()
        return ControllerConfig(
            gain=self.gain,
            translation_part=translation_params(ref, self.v_body),
            rotation_part=rotation_params(ref, self.omega),
            scaling_part=scaling_params(ref, 1.0),
            schedule=self.schedule,
        )


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
        lengths = edge_lengths(Framework.from_points(graph, reference))
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
    try:
        sim = SimConfig(
            dt=_expect(raw_sim, "dt", float, "$.sim"),
            duration=_expect(raw_sim, "duration", float, "$.sim"),
            integrator=raw_sim.get("integrator", "rk4"),
            record_stride=_expect(raw_sim, "record_stride", int, "$.sim")
            if "record_stride" in raw_sim else 1,
            perturbation=perturbation,
        )
    except ValueError as exc:
        raise SchemaError(f"$.sim: {exc}") from None

    scenario = Scenario(
        name=str(doc.get("name", "scenario")),
        dimension=dim,
        edges=tuple(edges),
        reference_positions=reference,
        initial_positions=initial,
        gain=gain,
        v_body=v_body,
        omega=omega,
        schedule=schedule,
        sim=sim,
    )

    # Eager physical validation: rigidity then schedule positivity.
    scenario.reference_shape()
    if schedule.min_scale_factor(sim.horizon) <= 0.0:
        raise PositivityError(
            "$.targets.schedule: scale factor reaches zero by the end of the last step"
        )
    return scenario


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON document form."""
    schedule: dict = {"kind": scenario.schedule.kind}
    if scenario.schedule.kind == "linear":
        schedule["rate"] = scenario.schedule.rate
    elif scenario.schedule.kind == "periodic":
        schedule["amplitude"] = scenario.schedule.amplitude
        schedule["frequency"] = scenario.schedule.frequency
    doc = {
        "name": scenario.name,
        "dimension": scenario.dimension,
        "edges": [list(edge) for edge in scenario.edges],
        "reference_positions": scenario.reference_positions.tolist(),
        "initial_positions": None if scenario.initial_positions is None
        else scenario.initial_positions.tolist(),
        "gain": scenario.gain,
        "targets": {
            "v_body": scenario.v_body.tolist(),
            "omega": scenario.omega if isinstance(scenario.omega, float)
            else np.asarray(scenario.omega).tolist(),
            "schedule": schedule,
        },
        "sim": {
            "dt": scenario.sim.dt,
            "duration": scenario.sim.duration,
            "integrator": scenario.sim.integrator,
            "record_stride": scenario.sim.record_stride,
            "perturbation": None if scenario.sim.perturbation is None else {
                "seed": scenario.sim.perturbation.seed,
                "magnitude": scenario.sim.perturbation.magnitude,
            },
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(resources.files("formsim.scenarios") / f"{name}.json")


def trajectory_csv_header(dim: int, vertex_count: int, edge_count: int) -> list[str]:
    columns = ["t"]
    for i in range(1, vertex_count + 1):
        for axis in range(dim):
            columns.append(f"p_{i}{_AXES[axis]}")
    columns.extend(f"e_{k}" for k in range(1, edge_count + 1))
    columns.append("V")
    columns.extend(f"d_{k}" for k in range(1, edge_count + 1))
    return columns


def write_trajectory_csv(traj: Trajectory, dim: int, fh) -> None:
    """Write a trajectory as CSV: t, positions, errors, potential, distances.

    Floats are rendered with shortest round-trip formatting, so repeated
    runs of the same scenario produce byte-identical files.  A row's
    distances are its scale factor times the reference distances; their
    text is formatted only when the scale factor differs, byte for byte,
    from the previous row's, so a flat schedule formats it once.
    """
    vertex_count = traj.positions.shape[1] // dim
    edge_count = traj.errors.shape[1]
    fh.write(",".join(trajectory_csv_header(dim, vertex_count, edge_count)) + "\n")
    last_scale, row_end = None, ""
    for t, positions, errors, potential, scale in zip(
            traj.times.tolist(), traj.positions, traj.errors, traj.potential.tolist(),
            traj.scale):
        key = scale.tobytes()
        if key != last_scale:
            last_scale = key
            distances = scale * traj.reference_distances
            row_end = "," + ",".join(map(repr, distances.tolist())) + "\n"
        fh.write(",".join(map(repr, [t, *positions.tolist(), *errors.tolist(), potential])))
        fh.write(row_end)


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
