"""Sensing graphs, their edge kernel, frameworks, and rigidity tests.

A framework is a connected undirected graph embedded in the plane or in
space, one vertex per agent.  Each edge carries an orientation (tail,
head) fixed by the scenario; the orientation is irrelevant for rigidity
but keeps every derived matrix deterministic.  The control kernel holds
a graph's edge indices and does the edge gathers and end scatters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import EdgeCollapse

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


class _Layout:
    """The control law's flat index and work buffers for one batch size.

    Every buffer and view is made once, so each step of the law is one
    ufunc writing in place.  A layout belongs to the one run, or the one
    call, that made it.
    """

    def __init__(self, index: np.ndarray, dim: int, batch: int):
        self.batch, self.index, self.dim = batch, index, dim
        flat = index.size // (2 * dim)
        self.both = np.empty(index.size)
        self.tail_ends, self.head_ends = self.both.reshape(2, dim, flat)
        self.vecs = np.empty((dim, flat))
        self.squares = np.empty((dim, flat))
        self.lengths = np.empty(flat)
        self.length_rows = self.lengths.reshape(batch, -1)
        # Tail weights, then head weights; the head half holds the pull first.
        self.weights = np.empty((2, 1, flat))
        self.tail_weights, self.head_weights = self.weights.reshape(2, batch, -1)
        self.values = np.empty((2, dim, flat))

    def law(self, p: np.ndarray, d_t, tail_coef, head_coef, gain: float) -> np.ndarray:
        """The control law's agent velocities for every row of p; see
        ControlKernel.__call__."""
        vecs, lengths, head = self.vecs, self.lengths, self.head_weights
        # The index is always in range; "clip" writes out without a buffer.
        p.take(self.index, out=self.both, mode="clip")
        np.subtract(self.tail_ends, self.head_ends, vecs)
        squares = np.multiply(vecs, vecs, self.squares)
        # Axis by axis in order, as add.reduce over the axis adds them.
        np.add(squares[0], squares[1], lengths)
        if self.dim == 3:
            np.add(lengths, squares[2], lengths)
        np.sqrt(lengths, lengths)
        if np.fmin.reduce(lengths) < COLLAPSE_TOL:
            shortest = np.fmin.reduce(self.length_rows, axis=1)
            raise EdgeCollapse(f"edge shorter than {COLLAPSE_TOL:g}",
                               np.flatnonzero(shortest < COLLAPSE_TOL))
        np.subtract(self.length_rows, d_t, head)
        np.multiply(gain, head, head)
        np.subtract(tail_coef, head, self.tail_weights)
        np.add(head_coef, head, head)
        np.divide(vecs, lengths, vecs)
        np.multiply(self.weights, vecs, self.values)
        return _sum_ends(self.index, self.values, self.batch)


def _sum_ends(index: np.ndarray, values: np.ndarray, batch: int) -> np.ndarray:
    # Every agent ends some edge, so the highest slot is batch * width - 1.
    # bincount returns a new array, so no caller holds a work buffer.
    return np.bincount(index, values.reshape(-1)).reshape(batch, -1)


class ControlKernel:
    """Edge gather and end scatter on stacked positions (batch, width),
    width = vertex_count * dim; __call__ joins them into the control law.

    tails and heads are the read-only 0-based edge end indices.  Edge
    ends are read through one column index laid out (end, axis, E):
    every tail coordinate, then every head one.  Offsetting it by each
    row's start gives the flat (end, axis, batch, E) index of a whole
    batch: one take through it gathers the batch and one bincount
    through it scatters into the agents.  Each agent coordinate adds its
    tail ends in edge order, then its head ends, so each row of the
    batch is computed exactly as it would be alone.  The kernel holds
    nothing else: a step loop keeps its own layout(batch), so callers
    on other threads share no buffer.
    """

    def __init__(self, graph: SensingGraph, dim: int):
        ends = (np.array(graph.edges, dtype=np.intp) - 1).T.copy()
        ends.setflags(write=False)
        self.tails, self.heads, self.dim = ends[0], ends[1], dim
        self.width = graph.vertex_count * dim
        self._cols = (ends[:, None, :] * dim + np.arange(dim)[:, None]).reshape(-1)

    def _index(self, batch: int) -> np.ndarray:
        offsets = np.arange(batch)[:, None] * self.width
        return (self._cols.reshape(2, self.dim, 1, -1) + offsets).reshape(-1)

    def layout(self, batch: int) -> _Layout:
        """A fresh index and set of work buffers for the law on batch rows."""
        return _Layout(self._index(batch), self.dim, batch)

    def gather(self, p: np.ndarray) -> np.ndarray:
        """Edge vectors, tail minus head, of every row of p: (batch, dim, E)."""
        tail_cols, head_cols = self._cols.reshape(2, -1)
        vecs = p.take(tail_cols, axis=1) - p.take(head_cols, axis=1)
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
        values = np.empty((2, self.dim, batch, self.tails.size))
        np.multiply(weights.reshape(batch, 2, 1, -1).transpose(1, 2, 0, 3),
                    units.transpose(1, 0, 2), values)
        return _sum_ends(self._index(batch), values, batch)

    def __call__(self, p: np.ndarray, d_t, tail_coef, head_coef, gain: float) -> np.ndarray:
        """The control law's agent velocities for every row of p.

        Edge k contributes its unit vector u_k to both endpoints,
        weighted by tail_coef_k - gain * e_k at the tail and
        head_coef_k + gain * e_k at the head, where e_k is its length
        minus its scheduled distance d_t.  d_t and the coefficients are
        (E,) or (batch, E).  Raises EdgeCollapse naming the rows with an
        edge shorter than COLLAPSE_TOL; a row that is not finite hides
        no other row's collapse.  Each call makes its own layout.
        """
        return self.layout(p.shape[0]).law(p, d_t, tail_coef, head_coef, gain)


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


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """Jacobian of half the stacked squared edge lengths w.r.t. positions.

    Row k carries the edge vector in the tail block and its negative in
    the head block, shape (edge_count, vertex_count * dim).
    """
    kernel = control_kernel(fw.graph, fw.dim)
    vecs, ecount = kernel.gather(fw.positions[None])[0].T, fw.graph.edge_count
    rows = np.zeros((ecount, fw.graph.vertex_count, fw.dim))
    rows[np.arange(ecount), kernel.tails] = vecs
    rows[np.arange(ecount), kernel.heads] = -vecs
    return rows.reshape(ecount, -1)


def numerical_rank(matrix: np.ndarray, rel_tol: float) -> int:
    """Count singular values above rel_tol times the largest one."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


# How far the certificate's bound must clear the SVD's cutoff.  The
# cutoff max(n, E) * dim * eps is itself the size of the rounding in both
# the substitution behind the bound and the SVD behind numerical_rank, so
# a bound that clears it a thousandfold is no artefact of either, and
# the SVD counts every singular value as nonzero too.
RANK_CERTIFICATE_MARGIN = 1e3
# The certificate forms its inverse this many floats (1 MiB) at a time.
_BLOCK_FLOATS = 2 ** 17


def _type_one_order(graph: SensingGraph, dim: int):
    """A Henneberg type-I construction order of the graph, or None.

    Peels vertices with exactly dim edges to those still present until
    dim vertices joined by all their edges remain, the base; on a type-I
    graph any peeling order gets there.  Returns the 0-based vertices,
    the base first and then the rest by depth (one more than the deepest
    of the dim they were peeled from); the positions of those dim for
    each vertex after the base; and the first position of each depth
    from 2 on.
    """
    n = graph.vertex_count
    links = [[] for _ in range(n)]
    for i, j in graph.edges:
        links[i - 1].append(j - 1)
        links[j - 1].append(i - 1)
    degree = [len(near) for near in links]
    ready, earlier = [v for v in range(n) if degree[v] == dim], {}
    while ready and len(earlier) < n - dim:
        v = ready.pop()
        if degree[v] == dim:
            earlier[v] = [u for u in links[v] if u not in earlier]
            for u in earlier[v]:
                degree[u] -= 1
                if degree[u] == dim:
                    ready.append(u)
    depth = {v: 0 for v in range(n) if v not in earlier}
    if len(depth) != dim or sum(degree[v] for v in depth) != dim * (dim - 1):
        return None
    for v in reversed(earlier):
        depth[v] = 1 + max(depth[u] for u in earlier[v])
    order = sorted(depth, key=depth.get)
    position = {v: t for t, v in enumerate(order)}
    feeds = np.array([[position[u] for u in earlier[v]] for v in order[dim:]], dtype=np.intp)
    starts = np.searchsorted([depth[v] for v in order], range(2, depth[order[-1]] + 1))
    return np.array(order), feeds.reshape(-1, dim), starts.tolist()


def certifies_full_row_rank(fw: Framework, rel_tol: float) -> bool:
    """True when the rigidity matrix R provably has full row rank at the
    relative singular-value cutoff rel_tol, decided without forming R.

    In a type-I order (_type_one_order) each vertex after the base adds
    dim edges to earlier ones.  With dim (dim + 1) / 2 base coordinates
    pinned, R's other columns form a square R_p, block lower-triangular
    in that order, with each vertex's dim edge vectors as its diagonal
    block.  R R^T = R_p R_p^T + (pinned part), so 1 / ||R_p^-1||_F <=
    sigma_min(R), and ||R||_F >= sigma_max(R).  When the first clears
    RANK_CERTIFICATE_MARGIN * rel_tol times the second,
    numerical_rank(R, rel_tol) is R's row count.  False means undecided,
    as for a graph with no type-I order or a singular block; it never warns.
    """
    n, dim = fw.points.shape
    construction = _type_one_order(fw.graph, dim)
    if construction is None:
        return False
    order, feeds, starts = construction
    pts = fw.points[order]
    with np.errstate(all="ignore"):
        # Row k of spokes[t] is the edge from position dim + t to feeds[t, k],
        # and row k of base is base edge (i_k, j_k) in the base's columns.
        spokes = pts[dim:, None] - pts[feeds]
        i, j = np.triu_indices(dim, 1)
        base = (np.eye(dim)[i] - np.eye(dim)[j])[:, :, None] * (pts[i] - pts[j])[:, None]
        # A power-of-two rescale is exact and keeps both norms in range.
        shift = -np.frexp(max(np.abs(base).max(), np.abs(spokes).max(initial=0.0)))[1]
        base, spokes = np.ldexp(base.reshape(i.size, -1), shift), np.ldexp(spokes, shift)
        frobenius = np.sqrt(np.vdot(base, base) + 2.0 * np.vdot(spokes, spokes))
        try:
            # Keep the base columns whose square block is best conditioned.
            choices = np.array(list(combinations(range(dim * dim), i.size)))
            sigma = np.linalg.svd(base[:, choices].transpose(1, 0, 2), compute_uv=False)
            kept = choices[np.argmax(sigma[:, -1])]
            base_inverse, spoke_inverses = np.linalg.inv(base[:, kept]), np.linalg.inv(spokes)
        except np.linalg.LinAlgError:
            return False
        squares, start = 0.0, 0
        while start < n:
            # The columns of R_p^-1 for the edges of positions [start, stop),
            # about _BLOCK_FLOATS at a time, by forward substitution over its
            # rows from position start on; row 0 stands for every earlier
            # position, where they are zero.  A position's rows hold its
            # right-hand side until the step for its depth solves them.
            if start:
                stop = min(n, start + max(1, _BLOCK_FLOATS // ((n - start + 1) * dim * dim)))
                block = np.zeros((n - start + 1, dim, (stop - start) * dim))
                np.fill_diagonal(block[1:].reshape(-1, block.shape[2]), 1.0)
            else:
                stop, block = dim, np.zeros((n + 1, dim, i.size))
                block[1:].reshape(-1, i.size)[kept] = base_inverse
            local = np.maximum(feeds - (start - 1), 0)
            cuts = [max(start, dim)] + [t for t in starts if t > start] + [n]
            for lo, hi in zip(cuts, cuts[1:]):
                rhs = block[lo - start + 1:hi - start + 1]
                rhs += np.einsum("tij,tijc->tic", spokes[lo - dim:hi - dim],
                                 block[local[lo - dim:hi - dim]])
                rhs[...] = np.matmul(spoke_inverses[lo - dim:hi - dim], rhs)
            squares += np.vdot(block, block)
            start = stop
        return bool(1.0 / np.sqrt(squares) > RANK_CERTIFICATE_MARGIN * rel_tol * frobenius)


def rigid_rank_target(vertex_count: int, dim: int) -> int:
    """Full rank of the rigidity matrix for a generically rigid framework:
    dim * n - dim * (dim + 1) / 2 from n = dim agents on, and n (n - 1) / 2,
    one per pair, below that."""
    n = vertex_count
    if n < dim:
        return n * (n - 1) // 2
    return dim * n - dim * (dim + 1) // 2


@dataclass(frozen=True)
class RigidityReport:
    rank_rigidity: int
    is_infinitesimally_rigid: bool
    is_minimally_rigid: bool
    bearing_kernel_dim: int | None
    is_bearing_rigid: bool | None


def rigidity_report(fw: Framework) -> RigidityReport:
    """Rank-based rigidity classification of a framework.

    The framework is infinitesimally rigid when the rigidity matrix has
    rank rigid_rank_target: 2n-3 in the plane, 3n-6 in space from n = 3
    on.  It is minimally rigid when the edge count equals that target
    too.  It is bearing rigid when the kernel of the bearing rigidity
    matrix holds only the translations and one scaling, dimension dim + 1.

    The bearing fields follow from the rank, with no bearing matrix
    built.  Infinitesimal distance rigidity implies infinitesimal bearing
    rigidity in any dimension (Zhao and Zelazo, IEEE TAC 61(5), 2016).
    In the plane the converse holds as well: each bearing block is
    u_perp u_perp^T / |z|, so the bearing rigidity matrix is the rigidity
    matrix of the shape turned by 90 degrees with rescaled rows, and the
    two have equal rank.  In space a framework that is not
    infinitesimally rigid gets None for both bearing fields: the rank
    does not decide them there.

    The rank is the numerical rank of the rigidity matrix at the relative
    singular-value cutoff max(n, edge_count) * dim * eps: the edge count
    when certifies_full_row_rank holds, else the SVD's count.
    """
    n, m, ecount = fw.graph.vertex_count, fw.dim, fw.graph.edge_count
    tol = max(n, ecount) * m * np.finfo(float).eps
    certified = certifies_full_row_rank(fw, tol)
    rank_r = ecount if certified else numerical_rank(rigidity_matrix(fw), tol)
    target = rigid_rank_target(n, m)
    if rank_r == target:
        kernel_dim, bearing_rigid = m + 1, True
    elif m == 2:
        kernel_dim, bearing_rigid = n * m - rank_r, False
    else:
        kernel_dim, bearing_rigid = None, None
    return RigidityReport(
        rank_rigidity=rank_r,
        is_infinitesimally_rigid=rank_r == target,
        is_minimally_rigid=rank_r == ecount == target,
        bearing_kernel_dim=kernel_dim,
        is_bearing_rigid=bearing_rigid,
    )
