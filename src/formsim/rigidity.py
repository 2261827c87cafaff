"""Sensing graphs, frameworks, and distance/bearing rigidity tests.

A framework is a connected undirected graph embedded in the plane or in
space, one vertex per agent.  Each edge carries an orientation (tail,
head) fixed by the scenario; the orientation is irrelevant for rigidity
but keeps every derived matrix deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ZeroEdge

# Edges shorter than this have no usable bearing direction.
ZERO_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class SensingGraph:
    """Undirected simple connected graph with an ordered, oriented edge list.

    Vertex ids are 1-based.  Edge k is stored as (tail, head).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        n = self.vertex_count
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        seen = set()
        adjacency = {v: set() for v in range(1, n + 1)}
        for k, (i, j) in enumerate(self.edges):
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {k + 1} ({i},{j}): vertex id outside 1..{n}")
            if i == j:
                raise ValueError(f"edge {k + 1}: self-loop at vertex {i}")
            key = frozenset((i, j))
            if key in seen:
                raise ValueError(f"edge {k + 1} ({i},{j}): duplicate edge")
            seen.add(key)
            adjacency[i].add(j)
            adjacency[j].add(i)
        if not self.edges:
            raise ValueError("graph has no edges")
        reached = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != n:
            missing = sorted(set(range(1, n + 1)) - reached)
            raise ValueError(f"graph is not connected, unreachable vertices {missing}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@lru_cache(maxsize=128)
def _graph_arrays(graph: SensingGraph):
    """Read-only 0-based tail and head index arrays, one entry per edge."""
    ends = (np.array(graph.edges, dtype=np.intp) - 1).T.copy()
    ends.setflags(write=False)
    return ends[0], ends[1]


@dataclass(frozen=True, eq=False)
class Framework:
    """A sensing graph together with stacked agent positions in R^dim.

    Positions are stored as one vector of length vertex_count * dim,
    agent blocks in vertex order.  Edge vectors of coincident agents are
    rejected lazily by the operations that need bearings.
    """

    graph: SensingGraph
    dim: int
    positions: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
        pos = np.asarray(self.positions, dtype=float).reshape(-1).copy()
        expected = self.graph.vertex_count * self.dim
        if pos.size != expected:
            raise ValueError(f"positions must have length {expected}, got {pos.size}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_points(cls, graph: SensingGraph, points) -> "Framework":
        points = np.asarray(points, dtype=float)
        return cls(graph, points.shape[1], points.reshape(-1))

    @property
    def points(self) -> np.ndarray:
        """Positions as a (vertex_count, dim) array."""
        return self.positions.reshape(self.graph.vertex_count, self.dim)

    @cached_property
    def _rigidity_rank(self) -> int:
        # Positions are read-only, so the SVD behind the rank runs once.
        return numerical_rank(rigidity_matrix(self), _default_tol(self))


def edge_vectors(fw: Framework) -> np.ndarray:
    """Tail-minus-head position differences, one row per edge."""
    tails, heads = _graph_arrays(fw.graph)
    pts = fw.points
    return pts[tails] - pts[heads]


def edge_lengths(fw: Framework) -> np.ndarray:
    return np.linalg.norm(edge_vectors(fw), axis=1)


def unit_edge_vectors(fw: Framework) -> np.ndarray:
    """Normalized edge vectors, one row per edge.  Raises ZeroEdge on collapse."""
    vecs = edge_vectors(fw)
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms < ZERO_EDGE_TOL):
        bad = int(np.argmin(norms)) + 1
        raise ZeroEdge(f"edge {bad} has length {norms[bad - 1]:.3e}")
    return vecs / norms[:, None]


def bearings(fw: Framework) -> np.ndarray:
    """Stacked unit vectors along every edge, length dim * edge_count."""
    return unit_edge_vectors(fw).reshape(-1)


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """Jacobian of half the stacked squared edge lengths w.r.t. positions.

    Row k carries the edge vector in the tail block and its negative in
    the head block, shape (edge_count, vertex_count * dim).
    """
    return _place_edge_rows(fw.graph, edge_vectors(fw))


def _place_edge_rows(graph: SensingGraph, vecs: np.ndarray) -> np.ndarray:
    """(edge_count, vertex_count * dim) matrix with row k holding vecs[k]
    in the tail block and -vecs[k] in the head block."""
    tails, heads = _graph_arrays(graph)
    ecount, m = vecs.shape
    rows = np.zeros((ecount, graph.vertex_count, m))
    rows[np.arange(ecount), tails] = vecs
    rows[np.arange(ecount), heads] = -vecs
    return rows.reshape(ecount, -1)


def bearing_rigidity_matrix(fw: Framework) -> np.ndarray:
    """Jacobian of the stacked bearing map w.r.t. positions.

    Block-row k is the orthogonal projector of bearing k divided by the
    edge length, placed with opposite signs at the tail and head blocks.
    Shape (dim * edge_count, vertex_count * dim).
    """
    n, m, ecount = fw.graph.vertex_count, fw.dim, fw.graph.edge_count
    tails, heads = _graph_arrays(fw.graph)
    units = unit_edge_vectors(fw)
    norms = np.linalg.norm(edge_vectors(fw), axis=1)
    blocks = (np.eye(m) - units[:, :, None] * units[:, None, :]) / norms[:, None, None]
    jac = np.zeros((ecount, m, n, m))
    jac[np.arange(ecount), :, tails, :] = blocks
    jac[np.arange(ecount), :, heads, :] = -blocks
    return jac.reshape(ecount * m, n * m)


def numerical_rank(matrix: np.ndarray, rel_tol: float) -> int:
    """Count singular values above rel_tol times the largest one."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


def rigid_rank_target(vertex_count: int, dim: int) -> int:
    """Full rank of the rigidity matrix for a generically rigid framework."""
    if dim == 2:
        return 2 * vertex_count - 3
    return 3 * vertex_count - 6


def _default_tol(fw: Framework) -> float:
    return max(fw.graph.vertex_count, fw.graph.edge_count) * fw.dim * np.finfo(float).eps


def rigidity_rank(fw: Framework) -> int:
    """Numerical rank of the rigidity matrix at rigidity_report's default
    cutoff, computed once per framework."""
    return fw._rigidity_rank


@dataclass(frozen=True)
class RigidityReport:
    rank_rigidity: int
    is_infinitesimally_rigid: bool
    is_minimally_rigid: bool
    bearing_kernel_dim: int
    is_bearing_rigid: bool


def rigidity_report(fw: Framework, tol: float | None = None) -> RigidityReport:
    """Rank-based rigidity classification of a framework.

    The framework is infinitesimally rigid when the rigidity matrix has
    rank 2n-3 (planar) or 3n-6 (spatial), minimally rigid when the edge
    count equals that rank target, and bearing rigid when the bearing
    rigidity matrix kernel holds only translations plus one scaling,
    dimension dim + 1.

    tol overrides the relative singular-value cutoff; the default is
    max(n * dim, edge_count * dim) times the float64 machine epsilon.
    """
    n, m, ecount = fw.graph.vertex_count, fw.dim, fw.graph.edge_count
    if tol is None:
        tol = _default_tol(fw)
        rank_r = rigidity_rank(fw)
    else:
        rank_r = numerical_rank(rigidity_matrix(fw), tol)
    target = rigid_rank_target(n, m)
    kernel_dim = n * m - numerical_rank(bearing_rigidity_matrix(fw), tol)
    return RigidityReport(
        rank_rigidity=rank_r,
        is_infinitesimally_rigid=rank_r == target,
        is_minimally_rigid=rank_r == ecount == target,
        bearing_kernel_dim=kernel_dim,
        is_bearing_rigid=kernel_dim == m + 1,
    )
