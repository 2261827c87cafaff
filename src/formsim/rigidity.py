"""Sensing graphs, their edge kernel, frameworks, and rigidity tests.

A framework is a connected undirected graph embedded in the plane or in
space, one vertex per agent.  Each edge carries an orientation (tail,
head) fixed by the scenario; the orientation is irrelevant for rigidity
but keeps every derived matrix deterministic.  The control kernel holds
a graph's edge indices and does every fast edge gather and end scatter;
the matrix builders here stay as its independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EdgeCollapse, ZeroEdge

# Edges shorter than this have no usable bearing direction.
ZERO_EDGE_TOL = 1e-12
# Agents closer than this along an edge count as collided.
COLLAPSE_TOL = 1e-9


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


class ControlKernel:
    """Edge gather and end scatter on stacked positions (batch, width),
    width = vertex_count * dim; __call__ joins them into the control law.

    tails and heads are the read-only 0-based edge end indices.  Edge
    quantities are held axis-major, (batch, dim, E), so every elementwise
    step runs along contiguous edges.  One bincount over a flat index,
    cached per batch size, does the scatter: each agent coordinate adds
    its tail ends in edge order, then its head ends.  Each row of the
    batch is computed exactly as it would be alone.
    """

    def __init__(self, graph: SensingGraph, dim: int):
        ends = (np.array(graph.edges, dtype=np.intp) - 1).T.copy()
        ends.setflags(write=False)
        self.tails, self.heads, self.dim = ends[0], ends[1], dim
        self.width = graph.vertex_count * dim
        axes = np.arange(dim)[:, None]
        # Flat column of axis a of edge k's tail (head) sits at a * E + k.
        self._tail_cols = (self.tails * dim + axes).reshape(-1)
        self._head_cols = (self.heads * dim + axes).reshape(-1)
        self._slots = np.concatenate([self._tail_cols, self._head_cols])
        self._index: dict[int, np.ndarray] = {}

    def _scatter_index(self, batch: int) -> np.ndarray:
        index = self._index.get(batch)
        if index is None:
            offsets = np.arange(batch)[:, None] * self.width
            index = (offsets + self._slots).reshape(-1)
            self._index[batch] = index
        return index

    def gather(self, p: np.ndarray) -> np.ndarray:
        """Edge vectors, tail minus head, of every row of p: (batch, dim, E)."""
        vecs = p.take(self._tail_cols, axis=1) - p.take(self._head_cols, axis=1)
        return vecs.reshape(p.shape[0], self.dim, -1)

    def lengths(self, p: np.ndarray) -> np.ndarray:
        """Edge lengths of every row of p, (batch, E), with no collapse check."""
        vecs = self.gather(p)
        return np.sqrt(np.add.reduce(vecs * vecs, axis=1))

    def scatter(self, units: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum the weighted unit vectors into the agents, (batch, width).

        weights (batch, 2E) holds every edge's tail-end weight, then its
        head-end one.  units is (batch, dim, E), or (1, dim, E) for all rows.
        """
        batch = weights.shape[0]
        values = weights.reshape(batch, 2, 1, -1) * units[:, None]
        summed = np.bincount(self._scatter_index(batch), weights=values.reshape(-1),
                             minlength=batch * self.width)
        return summed.reshape(batch, self.width)

    def __call__(self, p: np.ndarray, d_t, tail_coef, head_coef, gain: float) -> np.ndarray:
        """The control law's agent velocities for every row of p.

        Edge k contributes its unit vector u_k to both endpoints,
        weighted by tail_coef_k - gain * e_k at the tail and
        head_coef_k + gain * e_k at the head, where e_k is its length
        minus its scheduled distance d_t.  Raises EdgeCollapse naming
        the rows with an edge shorter than COLLAPSE_TOL.
        """
        vecs = self.gather(p)
        lengths = np.sqrt(np.add.reduce(vecs * vecs, axis=1))
        if np.minimum.reduce(lengths, axis=None) < COLLAPSE_TOL:
            rows = np.flatnonzero(lengths.min(axis=1) < COLLAPSE_TOL)
            raise EdgeCollapse(f"edge shorter than {COLLAPSE_TOL:g}", rows)
        pull = gain * (lengths - d_t)
        weights = np.concatenate([tail_coef - pull, head_coef + pull], axis=1)
        return self.scatter(vecs / lengths[:, None], weights)


@lru_cache(maxsize=128)
def control_kernel(graph: SensingGraph, dim: int) -> ControlKernel:
    """The one kernel, and so the one set of edge index arrays, per (graph, dim)."""
    return ControlKernel(graph, dim)


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
        # Positions are read-only, so the rank is decided once: by the
        # certificate when it holds, else by the SVD's count.
        tol, ecount = _default_tol(self), self.graph.edge_count
        if (ecount == rigid_rank_target(self.graph.vertex_count, self.dim)
                and certifies_full_row_rank(self, tol)):
            return ecount
        return numerical_rank(rigidity_matrix(self), tol)


def edge_vectors(fw: Framework) -> np.ndarray:
    """Tail-minus-head position differences, one row per edge."""
    kernel = control_kernel(fw.graph, fw.dim)
    pts = fw.points
    return pts[kernel.tails] - pts[kernel.heads]


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
    ecount, m = vecs.shape
    kernel = control_kernel(graph, m)
    rows = np.zeros((ecount, graph.vertex_count, m))
    rows[np.arange(ecount), kernel.tails] = vecs
    rows[np.arange(ecount), kernel.heads] = -vecs
    return rows.reshape(ecount, -1)


def bearing_rigidity_matrix(fw: Framework) -> np.ndarray:
    """Jacobian of the stacked bearing map w.r.t. positions.

    Block-row k is the orthogonal projector of bearing k divided by the
    edge length, placed with opposite signs at the tail and head blocks.
    Shape (dim * edge_count, vertex_count * dim).
    """
    n, m, ecount = fw.graph.vertex_count, fw.dim, fw.graph.edge_count
    kernel = control_kernel(fw.graph, m)
    units = unit_edge_vectors(fw)
    norms = np.linalg.norm(edge_vectors(fw), axis=1)
    blocks = (np.eye(m) - units[:, :, None] * units[:, None, :]) / norms[:, None, None]
    jac = np.zeros((ecount, m, n, m))
    jac[np.arange(ecount), :, kernel.tails, :] = blocks
    jac[np.arange(ecount), :, kernel.heads, :] = -blocks
    return jac.reshape(ecount * m, n * m)


def numerical_rank(matrix: np.ndarray, rel_tol: float) -> int:
    """Count singular values above rel_tol times the largest one."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


# How far the certificate's bound must clear the SVD's cutoff.  The
# cutoff max(n, E) * dim * eps is itself the size of the rounding in both
# the QR behind the bound and the SVD behind numerical_rank, so a bound
# that clears it a thousandfold is no artefact of either, and the SVD
# counts every singular value as nonzero too.
RANK_CERTIFICATE_MARGIN = 1e3
# Blocks at most this wide are inverted by np.linalg.inv.
_INVERSE_BASE = 64


def certifies_full_row_rank(fw: Framework, rel_tol: float) -> bool:
    """True when the rigidity matrix R provably has full row rank at the
    relative singular-value cutoff rel_tol, decided without an SVD.

    T, the triangular factor of a QR of R.T, has R's singular values, so
    1 / ||T^-1||_F <= sigma_min(R) and ||R||_F >= sigma_max(R).  When the
    first clears RANK_CERTIFICATE_MARGIN * rel_tol times the second,
    numerical_rank(R, rel_tol) is R's row count.  False means undecided,
    including for a singular or overflowing T; it never warns.
    """
    matrix = rigidity_matrix(fw)
    rows = matrix.shape[0]
    if rows > matrix.shape[1]:
        return False
    # Allocated before anything large is freed, so that the C library
    # maps it apart and returns it on release instead of growing the heap.
    work = np.empty(rows // 2 * (rows - rows // 2))
    with np.errstate(all="ignore"):
        # A power-of-two rescale is exact and keeps both norms in range.
        # Each row holds an edge vector and its negative, so the largest
        # entry is the largest magnitude.
        np.ldexp(matrix, -np.frexp(matrix.max())[1], out=matrix)
        frobenius = np.linalg.norm(matrix)
        try:
            # T is the upper triangle of the raw factor's leading rows;
            # Householder vectors fill the rest.
            tri = np.linalg.qr(matrix.T, mode="raw")[0].T[:rows]
            del matrix
            _invert_upper_in_place(tri, work)
        except np.linalg.LinAlgError:
            return False
        # einsum reads the strided view without copying it.
        return bool(1.0 / np.sqrt(np.einsum("ij,ij->", tri, tri))
                    > RANK_CERTIFICATE_MARGIN * rel_tol * frobenius)


def _invert_upper_in_place(tri: np.ndarray, work: np.ndarray) -> None:
    """Overwrite the square tri with the inverse of its upper triangle.

    The inverse of [[A, B], [0, D]] is [[A^-1, -A^-1 B D^-1], [0, D^-1]],
    so each half is inverted in place and B is replaced, which costs
    about size^3 / 3 multiply-adds.  Entries below the diagonal are
    ignored and come out zero.  work holds at least
    (size // 2) * (size - size // 2) floats.  Raises LinAlgError when a
    diagonal block is singular.
    """
    size = tri.shape[0]
    if size <= _INVERSE_BASE:
        tri[...] = np.linalg.inv(np.triu(tri))
        return
    half = size // 2
    upper, corner, lower = tri[:half, :half], tri[:half, half:], tri[half:, half:]
    tri[half:, :half] = 0.0
    _invert_upper_in_place(upper, work)
    _invert_upper_in_place(lower, work)
    product = work[:corner.size].reshape(corner.shape)
    np.matmul(upper, corner, out=product)
    np.matmul(product, lower, out=corner)
    np.negative(corner, out=corner)


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
