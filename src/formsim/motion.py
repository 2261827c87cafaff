"""Design of per-edge motion parameters for rigid formations.

Each edge carries a pair of distance offsets, one applied by the tail
agent and one by the head agent.  At the desired shape the offsets act
through the unit edge vectors, so the map from offset pairs to agent
velocities is linear once the shape is fixed.  Every offset moves only
the agent that applies it, so the map decouples by agent: the
minimum-norm offsets realizing any velocity field take one dim x dim
solve per agent, with the Gram matrix of that agent's own bearings.
This module calibrates offsets for a common velocity, a spin about the
centroid and a uniform growth about the centroid that way.

The offsets are computed once per reference shape; they are what the
per-agent control law consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateShape, RigidityError, Unreachable
from .rigidity import (
    Framework,
    RigidityReport,
    SensingGraph,
    control_kernel,
    edge_lengths,
    rigid_rank_target,
    rigidity_rank,
    rigidity_report,
    unit_edge_vectors,
)

# An agent's bearings span R^dim when the smallest eigenvalue of their
# Gram matrix exceeds this fraction of the largest one.
RANK_TOL = 1e-12
# Largest acceptable residual when fitting a motion target.
CALIBRATION_TOL = 1e-9
# motion_spaces refines a generator column whose miss exceeds this
# fraction of its norm; a well-shaped framework misses by rounding only.
REFINE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MotionParameters:
    """Per-edge distance offsets: tail-side and head-side, one pair per edge."""

    tail: np.ndarray
    head: np.ndarray

    def __post_init__(self):
        tail = np.asarray(self.tail, dtype=float).reshape(-1).copy()
        head = np.asarray(self.head, dtype=float).reshape(-1).copy()
        if tail.size != head.size:
            raise ValueError(f"tail/head size mismatch: {tail.size} vs {head.size}")
        tail.setflags(write=False)
        head.setflags(write=False)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "head", head)

    @classmethod
    def zero(cls, edge_count: int) -> "MotionParameters":
        return cls(np.zeros(edge_count), np.zeros(edge_count))

    @classmethod
    def from_stacked(cls, stacked) -> "MotionParameters":
        stacked = np.asarray(stacked, dtype=float).reshape(-1)
        half = stacked.size // 2
        return cls(stacked[:half], stacked[half:])

    def stacked(self) -> np.ndarray:
        """Tail offsets followed by head offsets, length 2 * edge_count."""
        return np.concatenate([self.tail, self.head])

    def __add__(self, other: "MotionParameters") -> "MotionParameters":
        return MotionParameters(self.tail + other.tail, self.head + other.head)

    def scaled(self, factor: float) -> "MotionParameters":
        return MotionParameters(factor * self.tail, factor * self.head)


def induced_velocities(pv: MotionParameters, graph: SensingGraph, bearing_vec: np.ndarray) -> np.ndarray:
    """Stacked agent velocities produced by the offsets at the given bearings.

    Agent i receives the sum of offset-weighted unit vectors over its
    incident edges, tail offset when i is the tail and head offset when
    it is the head.
    """
    units = np.asarray(bearing_vec, dtype=float).reshape(graph.edge_count, -1)
    kernel = control_kernel(graph, units.shape[1])
    return kernel.scatter(units.T[None], pv.stacked()[None])[0]


def induced_velocity_matrix(bearing_vec: np.ndarray, graph: SensingGraph) -> np.ndarray:
    """Matrix form of induced_velocities at fixed bearings.

    Column k (tail offset of edge k) holds u_k in the tail agent's block
    and column edge_count + k (its head offset) holds u_k in the head
    agent's block, so  matrix @ stacked_offsets == induced_velocities(offsets).
    Shape (vertex_count * dim, 2 * edge_count).
    """
    ecount = graph.edge_count
    units = np.asarray(bearing_vec, dtype=float).reshape(ecount, -1)
    dim = units.shape[1]
    kernel = control_kernel(graph, dim)
    rows = np.concatenate([kernel.tails, kernel.heads])[:, None] * dim + np.arange(dim)
    out = np.zeros((graph.vertex_count * dim, 2 * ecount))
    out[rows, np.arange(2 * ecount)[:, None]] = np.concatenate([units, units])
    return out


@dataclass(eq=False)
class ReferenceShape:
    """A minimally rigid framework fixing the desired shape and distances.

    The framework's own coordinates define the body pose used for all
    calibration targets.  Desired distances are the framework's edge
    lengths.  Raises RigidityError unless the rank of the rigidity matrix
    and the edge count both equal 2n-3 (plane) or 3n-6 (space).
    """

    framework: Framework
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        rank = rigidity_rank(self.framework)
        edge_count = self.framework.graph.edge_count
        target = rigid_rank_target(self.framework.graph.vertex_count, self.framework.dim)
        if not rank == edge_count == target:
            raise RigidityError(
                f"reference shape is not minimally rigid "
                f"(rank {rank}, {edge_count} edges, target {target})"
            )
        dist = edge_lengths(self.framework)
        dist.setflags(write=False)
        self.distances = dist

    @property
    def graph(self) -> SensingGraph:
        return self.framework.graph

    @property
    def dim(self) -> int:
        return self.framework.dim

    @cached_property
    def report(self) -> RigidityReport:
        """Full rigidity report, bearing rigidity included, built on first use."""
        return rigidity_report(self.framework)

    @cached_property
    def velocity_map(self) -> np.ndarray:
        """Offset-to-velocity matrix at the reference bearings."""
        return induced_velocity_matrix(unit_edge_vectors(self.framework).reshape(-1), self.graph)

    def centered_points(self) -> np.ndarray:
        pts = self.framework.points
        return pts - pts.mean(axis=0)


def _min_norm_offsets(ref: ReferenceShape, fields: np.ndarray) -> np.ndarray:
    """Minimum-norm stacked offsets (2E, m) realizing each column of fields.

    fields holds one stacked velocity field per column, (n * dim, m).
    The offset at an edge end moves only the agent at that end, along
    the edge's unit vector u_k, so velocity_map @ velocity_map.T is block
    diagonal with the d x d block M_i = sum of u_k u_k^T over agent i's
    edge ends.  The offset at an end of agent i is u_k . M_i^-1 f_i.
    Raises DegenerateShape naming the first agent whose bearings do not
    span R^dim.
    """
    graph, dim = ref.graph, ref.dim
    kernel = control_kernel(graph, dim)
    ends = np.concatenate([kernel.tails, kernel.heads])
    units = unit_edge_vectors(ref.framework)
    units = np.concatenate([units, units])
    gram = np.zeros((graph.vertex_count, dim, dim))
    np.add.at(gram, ends, units[:, :, None] * units[:, None, :])
    try:
        eig = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateShape(f"bearing Gram decomposition failed: {exc}") from None
    flat = np.flatnonzero(eig[:, 0] <= RANK_TOL * eig[:, -1])
    if flat.size:
        raise DegenerateShape(
            f"the bearings at agent {flat[0] + 1} do not span R^{dim}, so its "
            f"offsets cannot move it in every direction"
        )
    solved = np.linalg.solve(gram, fields.reshape(graph.vertex_count, dim, -1))
    return np.einsum("kd,kdm->km", units, solved[ends])


def motion_spaces(ref: ReferenceShape) -> dict:
    """Worst defining-constraint violation of each rigid-motion generator.

    Solves the minimum-norm offsets of the unit generator fields: dim
    translations, 1 (plane) or 3 (space) rotations about the centroid,
    and one uniform scaling about the centroid.  Scaled to unit norm,
    translation offsets must induce zero edge-vector rates, rotation
    offsets zero distance rates, and scaling offsets zero bearing rates;
    all three should sit at rounding level.

    A diagnostic: calibration does not use it.  A generator column whose
    relative miss exceeds REFINE_TOL gets calibration's corrective solve.
    Raises DegenerateShape like the calibrations do.
    """
    dim, n = ref.dim, ref.graph.vertex_count
    centered = ref.centered_points()
    axes = np.eye(dim)
    spins = [1.0] if dim == 2 else list(axes)
    fields = np.column_stack(
        [np.tile(axis, n) for axis in axes]
        + [rotation_field(centered, omega) for omega in spins]
        + [centered.reshape(-1)]
    )
    gates = REFINE_TOL * np.maximum(1.0, np.linalg.norm(fields, axis=0))
    offsets, _ = _refined_offsets(ref, fields, gates)
    kernel, units = _kernel_units(ref)
    # Edge-vector rates v_tail - v_head, (m, dim, E), one row per column.
    rates = kernel.gather(kernel.scatter(units, (offsets / np.linalg.norm(offsets, axis=0)).T))
    translation, rotation, scaling = np.split(rates, [dim, dim + len(spins)])
    along = (units * scaling).sum(axis=1, keepdims=True)
    return {
        "translation": float(np.abs(translation).max()),
        "rotation": float(np.abs((units * rotation).sum(axis=1)).max()),
        "scaling": float(np.abs(scaling - units * along).max()),
    }


def _kernel_units(ref: ReferenceShape):
    """The graph's kernel and the unit edge vectors of the reference shape
    in its layout, (1, dim, E)."""
    kernel = control_kernel(ref.graph, ref.dim)
    p = ref.framework.positions[None]
    return kernel, kernel.gather(p) / kernel.lengths(p)[:, None]


def distance_rates(ref: ReferenceShape, pv: MotionParameters) -> np.ndarray:
    """Rate of change of every edge length when the offsets act at the
    reference bearings, u_k . (v_tail - v_head)."""
    kernel, units = _kernel_units(ref)
    rates = kernel.gather(kernel.scatter(units, pv.stacked()[None]))
    return (units * rates).sum(axis=1)[0]


def _refined_offsets(ref: ReferenceShape, fields: np.ndarray, gates):
    """Minimum-norm offsets (2E, m) for the field columns (n * dim, m), and
    the norm of what each column still misses.

    The Gram blocks square the conditioning of an agent's bearings, so on
    a nearly flat shape the first solve can miss a column's gate.  One
    more solve on what such a column missed then recovers the lost digits;
    columns within their gate are left as the first solve made them.
    """
    kernel, units = _kernel_units(ref)
    offsets = _min_norm_offsets(ref, fields)
    missed = fields - kernel.scatter(units, offsets.T).T
    redo = np.array([np.linalg.norm(column) for column in missed.T]) > gates
    if redo.any():
        offsets[:, redo] += _min_norm_offsets(ref, missed[:, redo])
        missed[:, redo] = fields[:, redo] - kernel.scatter(units, offsets[:, redo].T).T
    return offsets, [float(np.linalg.norm(column)) for column in missed.T]


def _calibrate(ref: ReferenceShape, target: np.ndarray, what: str) -> MotionParameters:
    """Minimum-norm offsets inducing the stacked velocity field target."""
    # A target whose norm overflows makes the gate infinite, and the
    # finiteness tests below refuse what follows from it.
    with np.errstate(over="ignore"):
        gate = CALIBRATION_TOL * max(1.0, float(np.linalg.norm(target)))
        offsets, (residual,) = _refined_offsets(ref, target[:, None], gate)
    # `not residual <= gate` also refuses a NaN residual.
    if not (residual <= gate and np.isfinite(residual) and np.isfinite(offsets).all()):
        raise Unreachable(f"{what} target unreachable, residual {residual:.3e}")
    return MotionParameters.from_stacked(offsets)


def translation_params(ref: ReferenceShape, velocity) -> MotionParameters:
    """Offsets giving every agent the common velocity (body coordinates)."""
    velocity = np.asarray(velocity, dtype=float).reshape(-1)
    if velocity.size != ref.dim:
        raise ValueError(f"velocity must have {ref.dim} components")
    return _calibrate(ref, np.tile(velocity, ref.graph.vertex_count), "translation")


def rotation_field(centered_points: np.ndarray, angular_velocity) -> np.ndarray:
    """Stacked rigid-rotation velocity field about the origin.

    angular_velocity is a scalar in the plane (counterclockwise positive)
    and a 3-vector in space.
    """
    dim = centered_points.shape[1]
    if dim == 2:
        omega = float(np.asarray(angular_velocity).reshape(()))
        field_pts = omega * np.stack(
            [-centered_points[:, 1], centered_points[:, 0]], axis=1
        )
    else:
        omega = np.asarray(angular_velocity, dtype=float).reshape(3)
        field_pts = np.cross(np.tile(omega, (centered_points.shape[0], 1)), centered_points)
    return field_pts.reshape(-1)


def rotation_params(ref: ReferenceShape, angular_velocity) -> MotionParameters:
    """Offsets spinning the shape about its centroid at the given rate."""
    with np.errstate(over="ignore"):  # _calibrate refuses an overflowing target
        target = rotation_field(ref.centered_points(), angular_velocity)
    return _calibrate(ref, target, "rotation")


def scaling_params(ref: ReferenceShape, rate: float) -> MotionParameters:
    """Offsets growing the shape uniformly about its centroid.

    The target moves every agent at rate times its offset from the
    centroid, so each desired distance grows at rate times its value: a
    unit rate grows the scale factor by one per unit time.
    """
    with np.errstate(over="ignore"):  # _calibrate refuses an overflowing target
        target = float(rate) * ref.centered_points().reshape(-1)
    return _calibrate(ref, target, "scaling")
