"""Design of per-edge motion parameters for rigid formations.

Each edge carries a pair of distance offsets, one applied by the tail
agent and one by the head agent.  At the desired shape the offsets act
through the unit edge vectors, so the map from offset pairs to agent
velocities is linear once the shape is fixed.  This module builds that
map, splits its input space into directions that produce no motion,
rigid translations, rigid rotations about the centroid, and uniform
scaling, and calibrates offset vectors that realize requested velocity,
spin, and growth-rate targets.

All spaces are computed centrally and once per reference shape; the
resulting offsets are what the per-agent control law consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateShape, RigidityError, Unreachable
from .rigidity import (
    Framework,
    SensingGraph,
    _graph_arrays,
    edge_lengths,
    rigid_rank_target,
    rigidity_report,
    unit_edge_vectors,
)

# Relative singular-value cutoff for kernel extraction; shapes loaded
# from scenario files are exact to double precision.
NULLSPACE_TOL = 1e-9
# Basis vectors whose projection residual falls below this are dependent.
PROJECTION_DROP_TOL = 1e-9
# Largest acceptable residual when fitting a motion target.
CALIBRATION_TOL = 1e-9


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


def parameter_matrix(pv: MotionParameters, graph: SensingGraph) -> np.ndarray:
    """Vertex-by-edge matrix holding each edge's tail offset at its tail
    row and head offset at its head row, zero elsewhere."""
    if pv.tail.size != graph.edge_count:
        raise ValueError(f"expected {graph.edge_count} offsets, got {pv.tail.size}")
    _, tail_sel, head_sel, _, _ = _graph_arrays(graph)
    return tail_sel * pv.tail[None, :] + head_sel * pv.head[None, :]


def induced_velocities(pv: MotionParameters, graph: SensingGraph, bearing_vec: np.ndarray) -> np.ndarray:
    """Stacked agent velocities produced by the offsets at the given bearings.

    Agent i receives the sum of offset-weighted unit vectors over its
    incident edges, tail offset when i is the tail and head offset when
    it is the head.
    """
    ecount = graph.edge_count
    units = np.asarray(bearing_vec, dtype=float).reshape(ecount, -1)
    _, tail_sel, head_sel, _, _ = _graph_arrays(graph)
    vel = tail_sel @ (pv.tail[:, None] * units) + head_sel @ (pv.head[:, None] * units)
    return vel.reshape(-1)


def induced_velocity_matrix(bearing_vec: np.ndarray, graph: SensingGraph) -> np.ndarray:
    """Matrix form of induced_velocities at fixed bearings.

    Built by probing with the 2 * edge_count unit offset vectors, so the
    identity  matrix @ stacked_offsets == induced_velocities(offsets)
    holds by construction.  Shape (vertex_count * dim, 2 * edge_count).
    """
    ecount = graph.edge_count
    bearing_vec = np.asarray(bearing_vec, dtype=float).reshape(-1)
    dim = bearing_vec.size // ecount
    out = np.zeros((graph.vertex_count * dim, 2 * ecount))
    probe = np.zeros(2 * ecount)
    for col in range(2 * ecount):
        probe[col] = 1.0
        out[:, col] = induced_velocities(MotionParameters.from_stacked(probe), graph, bearing_vec)
        probe[col] = 0.0
    return out


def _svd(matrix: np.ndarray, full_matrices: bool = True):
    try:
        return np.linalg.svd(matrix, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise DegenerateShape(f"motion-space decomposition failed: {exc}") from None


def null_space(matrix: np.ndarray, tol: float = NULLSPACE_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the kernel of matrix.

    Singular values below tol times the largest one count as zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, sigma, vh = _svd(matrix)
    if sigma.size and sigma[0] > 0.0:
        rank = int(np.count_nonzero(sigma > tol * sigma[0]))
    else:
        rank = 0
    return vh[rank:].T.copy()


def project_out(away_basis: np.ndarray, candidates: np.ndarray, tol: float = PROJECTION_DROP_TOL) -> np.ndarray:
    """Orthonormal basis of the candidate span with the away span removed.

    away_basis must have orthonormal columns (possibly zero of them);
    candidate columns need not be normalized.  Components whose singular
    value drops below tol after projection are discarded.
    """
    away = np.atleast_2d(np.asarray(away_basis, dtype=float))
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[1] == 0:
        return cands.copy()
    residual = cands.copy()
    if away.shape[1]:
        # Projecting twice restores orthogonality lost to rounding.
        residual -= away @ (away.T @ residual)
        residual -= away @ (away.T @ residual)
    u, sigma, _ = _svd(residual, full_matrices=False)
    return u[:, sigma > tol].copy()


@dataclass(eq=False)
class ReferenceShape:
    """A minimally rigid framework fixing the desired shape and distances.

    The framework's own coordinates define the body pose used for all
    calibration targets.  Desired distances are the framework's edge
    lengths.  Raises RigidityError when the shape is not minimally rigid.
    """

    framework: Framework
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        report = rigidity_report(self.framework)
        if not report.is_minimally_rigid:
            target = rigid_rank_target(self.framework.graph.vertex_count, self.framework.dim)
            raise RigidityError(
                f"reference shape is not minimally rigid "
                f"(rank {report.rank_rigidity}, "
                f"{self.framework.graph.edge_count} edges, target {target})"
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
    def spaces(self) -> "MotionSpaces":
        return motion_spaces(self)

    @cached_property
    def velocity_map(self) -> np.ndarray:
        """Offset-to-velocity matrix at the reference bearings."""
        return induced_velocity_matrix(unit_edge_vectors(self.framework).reshape(-1), self.graph)

    def centered_points(self) -> np.ndarray:
        pts = self.framework.points
        return pts - pts.mean(axis=0)


@dataclass(frozen=True, eq=False)
class MotionSpaces:
    """Orthonormal bases (columns) of the offset subspaces of one shape.

    zero_motion_basis spans offsets that move no agent at all; the other
    three are mutually consistent complements inside the offsets that
    keep every agent velocity a rigid translation, a rigid rotation about
    the centroid, or a uniform scaling of the shape.
    """

    zero_motion_basis: np.ndarray
    translation_basis: np.ndarray
    rotation_basis: np.ndarray
    scaling_basis: np.ndarray


def _incidence_expanded(graph: SensingGraph, dim: int) -> np.ndarray:
    incidence, _, _, _, _ = _graph_arrays(graph)
    return np.kron(incidence, np.eye(dim))


def _bearing_diagonal(units: np.ndarray) -> np.ndarray:
    """Block diagonal of unit edge vectors as columns, (E*dim, E)."""
    ecount, dim = units.shape
    out = np.zeros((ecount * dim, ecount))
    for k in range(ecount):
        out[k * dim:(k + 1) * dim, k] = units[k]
    return out


def _projector_diagonal(units: np.ndarray) -> np.ndarray:
    """Block diagonal of bearing-orthogonal projectors, (E*dim, E*dim)."""
    ecount, dim = units.shape
    out = np.zeros((ecount * dim, ecount * dim))
    eye = np.eye(dim)
    for k in range(ecount):
        out[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = eye - np.outer(units[k], units[k])
    return out


def distance_rate_map(ref: ReferenceShape) -> np.ndarray:
    """Matrix sending stacked offsets to the induced distance rates.

    Row k gives d/dt of edge length k when the offsets act at the
    reference bearings.  Shape (edge_count, 2 * edge_count).
    """
    units = unit_edge_vectors(ref.framework)
    incidence_exp = _incidence_expanded(ref.graph, ref.dim)
    return _bearing_diagonal(units).T @ incidence_exp.T @ ref.velocity_map


def translation_space(ref: ReferenceShape) -> np.ndarray:
    """Offset directions inducing a common velocity for every agent.

    Kernel directions of the velocity map itself are projected away, so
    each basis vector actually moves the formation.  The dimension
    equals the ambient dimension or DegenerateShape is raised.
    """
    vmap = ref.velocity_map
    incidence_exp = _incidence_expanded(ref.graph, ref.dim)
    zero_motion = null_space(vmap)
    basis = project_out(zero_motion, null_space(incidence_exp.T @ vmap))
    if basis.shape[1] != ref.dim:
        raise DegenerateShape(
            f"translation space has dimension {basis.shape[1]}, expected {ref.dim}"
        )
    return basis


def rotation_space(ref: ReferenceShape, translation_basis: np.ndarray) -> np.ndarray:
    """Offset directions spinning the shape about its centroid.

    Starts from all offsets that preserve every edge length and removes
    the zero-motion and translation directions.  Expected dimension is 1
    in the plane and 3 in space.
    """
    vmap = ref.velocity_map
    units = unit_edge_vectors(ref.framework)
    incidence_exp = _incidence_expanded(ref.graph, ref.dim)
    length_preserving = null_space(_bearing_diagonal(units).T @ incidence_exp.T @ vmap)
    away = np.hstack([null_space(vmap), translation_basis])
    basis = project_out(away, length_preserving)
    expected = 1 if ref.dim == 2 else 3
    if basis.shape[1] != expected:
        raise DegenerateShape(
            f"rotation space has dimension {basis.shape[1]}, expected {expected}"
        )
    return basis


def scaling_space(ref: ReferenceShape, translation_basis: np.ndarray) -> np.ndarray:
    """Offset directions growing or shrinking the shape uniformly.

    Starts from all offsets that preserve every bearing and removes the
    zero-motion and translation directions.  Expected dimension is 1 for
    bearing-rigid shapes.
    """
    vmap = ref.velocity_map
    units = unit_edge_vectors(ref.framework)
    incidence_exp = _incidence_expanded(ref.graph, ref.dim)
    bearing_preserving = null_space(_projector_diagonal(units).T @ incidence_exp.T @ vmap)
    away = np.hstack([null_space(vmap), translation_basis])
    basis = project_out(away, bearing_preserving)
    if basis.shape[1] != 1:
        raise DegenerateShape(
            f"scaling space has dimension {basis.shape[1]}, expected 1"
        )
    return basis


def motion_spaces(ref: ReferenceShape) -> MotionSpaces:
    """All four offset subspaces of a reference shape."""
    translation = translation_space(ref)
    return MotionSpaces(
        zero_motion_basis=null_space(ref.velocity_map),
        translation_basis=translation,
        rotation_basis=rotation_space(ref, translation),
        scaling_basis=scaling_space(ref, translation),
    )


def membership_residuals(ref: ReferenceShape, spaces: MotionSpaces) -> dict:
    """Worst defining-constraint violation of each moving subspace.

    Translation offsets must induce zero edge-vector rates, rotation
    offsets zero distance rates, and scaling offsets zero bearing rates.
    All three should sit at rounding level for a valid basis.
    """
    units = unit_edge_vectors(ref.framework)
    edge_rate_map = _incidence_expanded(ref.graph, ref.dim).T @ ref.velocity_map
    return {
        "translation": float(np.abs(edge_rate_map @ spaces.translation_basis).max()),
        "rotation": float(np.abs(_bearing_diagonal(units).T @ edge_rate_map
                                 @ spaces.rotation_basis).max()),
        "scaling": float(np.abs(_projector_diagonal(units).T @ edge_rate_map
                                @ spaces.scaling_basis).max()),
    }


def _fit_in_span(basis: np.ndarray, target_map: np.ndarray,
                 target: np.ndarray, what: str) -> MotionParameters:
    """Least-squares offsets in span(basis) mapping to target under target_map."""
    design = target_map @ basis
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(design @ coef - target))
    if residual > CALIBRATION_TOL * max(1.0, float(np.linalg.norm(target))):
        raise Unreachable(f"{what} target unreachable, residual {residual:.3e}")
    return MotionParameters.from_stacked(basis @ coef)


def translation_params(ref: ReferenceShape, spaces: MotionSpaces, velocity) -> MotionParameters:
    """Offsets giving every agent the common velocity (body coordinates)."""
    velocity = np.asarray(velocity, dtype=float).reshape(-1)
    if velocity.size != ref.dim:
        raise ValueError(f"velocity must have {ref.dim} components")
    target = np.tile(velocity, ref.graph.vertex_count)
    return _fit_in_span(spaces.translation_basis, ref.velocity_map, target, "translation")


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


def rotation_params(ref: ReferenceShape, spaces: MotionSpaces, angular_velocity) -> MotionParameters:
    """Offsets spinning the shape about its centroid at the given rate."""
    target = rotation_field(ref.centered_points(), angular_velocity)
    return _fit_in_span(spaces.rotation_basis, ref.velocity_map, target, "rotation")


def scaling_params(ref: ReferenceShape, spaces: MotionSpaces, rate: float) -> MotionParameters:
    """Offsets growing every desired distance at rate times its value.

    A unit rate means each edge length grows by its own reference length
    per unit time, i.e. the scale factor grows by one per unit time.
    """
    target = float(rate) * ref.distances
    return _fit_in_span(spaces.scaling_basis, distance_rate_map(ref), target, "scaling")
