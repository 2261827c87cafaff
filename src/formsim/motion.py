"""Design of per-edge motion parameters for rigid formations.

Each edge carries a pair of distance offsets, one applied by the tail
agent and one by the head agent.  At the desired shape the offsets act
through the unit edge vectors, so the map from offset pairs to agent
velocities is linear once the shape is fixed.  Every offset moves only
the agent that applies it, so the map decouples by agent: the
minimum-norm offsets realizing any velocity field take one dim x dim
solve per agent, with the Gram matrix of that agent's own bearings.
The offsets are linear in the field, so one such solve per reference
shape, on the rigid-motion generators, gives a basis: the offsets for a
common velocity, a spin about the centroid and a uniform growth about
the centroid are weighted sums of its columns.  They are what the
per-agent control law consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateShape, RigidityError, Unreachable, ZeroEdge
from .rigidity import (
    Framework,
    RigidityReport,
    SensingGraph,
    control_kernel,
    rigid_rank_target,
    rigidity_report,
)

# Edges shorter than this have no usable bearing direction.
ZERO_EDGE_TOL = 1e-12

# An agent's bearings span R^dim when the smallest eigenvalue of their
# Gram matrix exceeds this fraction of the largest one.
RANK_TOL = 1e-12
# Largest acceptable residual of a designed part, relative to its target.
CALIBRATION_TOL = 1e-9
# A motion basis column whose miss exceeds this fraction of its field's
# norm is refined; a well-shaped framework misses by rounding only.
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
    lengths.  Its rigidity report is made once, here, and kept.  Raises
    RigidityError unless the report finds it minimally rigid: the rank of
    the rigidity matrix and the edge count both equal rigid_rank_target,
    2n-3 (plane) or 3n-6 (space, from n = 3 on).  The unit edge vectors,
    bearing Gram blocks and motion basis that calibration shares are
    built and checked on first use.
    """

    framework: Framework
    distances: np.ndarray = field(init=False)
    report: RigidityReport = field(init=False)

    def __post_init__(self):
        self.report = rigidity_report(self.framework)
        if not self.report.is_minimally_rigid:
            raise RigidityError(
                f"reference shape is not minimally rigid (rank {self.report.rank_rigidity}, "
                f"{self.graph.edge_count} edges, "
                f"target {rigid_rank_target(self.graph.vertex_count, self.dim)})"
            )
        dist = control_kernel(self.graph, self.dim).lengths(self.framework.positions[None])[0]
        dist.setflags(write=False)
        self.distances = dist

    @property
    def graph(self) -> SensingGraph:
        return self.framework.graph

    @property
    def dim(self) -> int:
        return self.framework.dim

    @cached_property
    def units(self) -> np.ndarray:
        """Unit edge vectors, tail minus head, in the kernel's layout
        (1, dim, E), read-only.  Raises ZeroEdge naming the shortest edge
        when it is shorter than ZERO_EDGE_TOL."""
        if np.any(self.distances < ZERO_EDGE_TOL):
            bad = int(np.argmin(self.distances)) + 1
            raise ZeroEdge(f"edge {bad} has length {self.distances[bad - 1]:.3e}")
        units = control_kernel(self.graph, self.dim).gather(self.framework.positions[None])
        units /= self.distances
        units.setflags(write=False)
        return units

    @cached_property
    def bearing_gram(self) -> np.ndarray:
        """Per-agent Gram blocks M_i, the sum of u_k u_k^T over agent i's
        edge ends, (n, dim, dim), read-only.  Raises DegenerateShape
        naming the first agent whose bearings do not span R^dim."""
        kernel = control_kernel(self.graph, self.dim)
        units = self.units[0].T
        gram = np.zeros((self.graph.vertex_count, self.dim, self.dim))
        for ends in (kernel.tails, kernel.heads):
            np.add.at(gram, ends, units[:, :, None] * units[:, None, :])
        try:
            eig = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError as exc:
            raise DegenerateShape(f"bearing Gram decomposition failed: {exc}") from None
        flat = np.flatnonzero(eig[:, 0] <= RANK_TOL * eig[:, -1])
        if flat.size:
            raise DegenerateShape(
                f"the bearings at agent {flat[0] + 1} do not span R^{self.dim}, so its "
                f"offsets cannot move it in every direction"
            )
        gram.setflags(write=False)
        return gram

    @cached_property
    def motion_basis(self) -> np.ndarray:
        """Minimum-norm offsets (2E, dim + r + 1) of the unit generators, read-only:
        dim translations, r = 1 (plane) or 3 (space) rotations about the
        centroid, then growth about the centroid.  The Gram blocks square
        the conditioning of an agent's bearings, so a column that misses its
        field by more than REFINE_TOL times max(1, its norm) gets one more
        solve on what it missed.  Raises DegenerateShape as bearing_gram does.
        """
        dim, n = self.dim, self.graph.vertex_count
        centered = self.centered_points()
        axes = np.eye(dim)
        fields = np.column_stack(
            [np.tile(axis, n) for axis in axes]
            + [rotation_field(centered, omega) for omega in ([1.0] if dim == 2 else axes)]
            + [centered.reshape(-1)]
        )
        basis = _min_norm_offsets(self, fields)
        missed = fields - control_kernel(self.graph, dim).scatter(self.units, basis.T).T
        gates = REFINE_TOL * np.maximum(1.0, np.linalg.norm(fields, axis=0))
        redo = np.array([np.linalg.norm(column) for column in missed.T]) > gates
        if redo.any():
            basis[:, redo] += _min_norm_offsets(self, missed[:, redo])
        basis.setflags(write=False)
        return basis

    @cached_property
    def velocity_map(self) -> np.ndarray:
        """Offset-to-velocity matrix at the reference bearings."""
        return induced_velocity_matrix(self.units[0].T, self.graph)

    def centered_points(self) -> np.ndarray:
        pts = self.framework.points
        return pts - pts.mean(axis=0)


def _min_norm_offsets(ref: ReferenceShape, fields: np.ndarray) -> np.ndarray:
    """Minimum-norm stacked offsets (2E, m) realizing each column of fields.

    fields holds one stacked velocity field per column, (n * dim, m).
    The offset at an edge end moves only the agent at that end, along
    the edge's unit vector u_k, so velocity_map @ velocity_map.T is block
    diagonal with the shape's bearing_gram blocks M_i.  The offset at an
    end of agent i is u_k . M_i^-1 f_i.  Raises DegenerateShape as
    bearing_gram does.
    """
    kernel = control_kernel(ref.graph, ref.dim)
    solved = np.linalg.solve(ref.bearing_gram, fields.reshape(ref.graph.vertex_count, ref.dim, -1))
    # Tail ends, then head ends.  einsum's last bits follow the memory
    # order of its operands, so the rows are handed over C-ordered.
    units = np.ascontiguousarray(np.tile(ref.units[0], 2).T)
    return np.einsum("kd,kdm->km", units, solved[np.concatenate([kernel.tails, kernel.heads])])


def motion_spaces(ref: ReferenceShape) -> dict:
    """Worst defining-constraint violation of each rigid-motion generator.

    Reads the columns of ref.motion_basis, the offsets that calibration
    combines.  Scaled to unit norm, translation offsets must induce zero
    edge-vector rates, rotation offsets zero distance rates, and scaling
    offsets zero bearing rates; all three should sit at rounding level.
    Raises DegenerateShape like the calibrations do.
    """
    dim, basis = ref.dim, ref.motion_basis
    kernel, units = control_kernel(ref.graph, dim), ref.units
    # Edge-vector rates v_tail - v_head, (m, dim, E), one row per column.
    rates = kernel.gather(kernel.scatter(units, (basis / np.linalg.norm(basis, axis=0)).T))
    translation, rotation, scaling = np.split(rates, [dim, basis.shape[1] - 1])
    along = (units * scaling).sum(axis=1, keepdims=True)
    return {
        "translation": float(np.abs(translation).max()),
        "rotation": float(np.abs((units * rotation).sum(axis=1)).max()),
        "scaling": float(np.abs(scaling - units * along).max()),
    }


def field_residual(ref: ReferenceShape, pv: MotionParameters, target) -> float:
    """Norm of what the velocity field the offsets induce at the reference
    bearings misses of the stacked field target."""
    induced = control_kernel(ref.graph, ref.dim).scatter(ref.units, pv.stacked()[None])[0]
    return float(np.linalg.norm(target - induced))


def _combine(ref: ReferenceShape, first: int, weights, target, what: str) -> MotionParameters:
    """The motion basis columns from first on, weighted by weights and
    added one at a time, refused with Unreachable unless they induce the
    stacked velocity field target to within CALIBRATION_TOL relative."""
    basis = ref.motion_basis
    offsets = np.zeros(basis.shape[0])
    # An overflowing target or weight leaves the residual or offsets not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for column, weight in enumerate(weights, first):
            offsets += weight * basis[:, column]
        pv = MotionParameters.from_stacked(offsets)
        residual = field_residual(ref, pv, target)
        gate = CALIBRATION_TOL * max(1.0, float(np.linalg.norm(target)))
    # `not residual <= gate` also refuses a NaN residual.
    if not (residual <= gate and np.isfinite(residual) and np.isfinite(offsets).all()):
        raise Unreachable(f"{what} target unreachable, residual {residual:.3e}")
    return pv


def translation_params(ref: ReferenceShape, velocity) -> MotionParameters:
    """Offsets giving every agent the common velocity (body coordinates)."""
    velocity = np.asarray(velocity, dtype=float).reshape(-1)
    if velocity.size != ref.dim:
        raise ValueError(f"velocity must have {ref.dim} components")
    return _combine(ref, 0, velocity, np.tile(velocity, ref.graph.vertex_count), "translation")


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
    with np.errstate(over="ignore"):  # _combine refuses an overflowing target
        target = rotation_field(ref.centered_points(), angular_velocity)
    weights = np.asarray(angular_velocity, dtype=float).reshape(-1)
    return _combine(ref, ref.dim, weights, target, "rotation")


def scaling_params(ref: ReferenceShape, rate: float) -> MotionParameters:
    """Offsets growing the shape uniformly about its centroid.

    The target moves every agent at rate times its offset from the
    centroid, so each desired distance grows at rate times its value: a
    unit rate grows the scale factor by one per unit time.
    """
    with np.errstate(over="ignore"):  # _combine refuses an overflowing target
        target = float(rate) * ref.centered_points().reshape(-1)
    return _combine(ref, ref.motion_basis.shape[1] - 1, [float(rate)], target, "scaling")
