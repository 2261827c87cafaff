"""Distance schedules and the offset-augmented gradient control law.

The controller steers single-integrator agents down the gradient of the
elastic potential (half the sum of squared distance errors) while the
per-edge offsets push along the current bearings.  Scheduled distances
let the whole shape grow or shrink over time; the scaling offsets are
rescaled by the schedule's rate so the shape tracks the schedule with
zero distance error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EdgeCollapse, PositivityError
from .motion import MotionParameters, ReferenceShape
from .rigidity import (
    Framework,
    _graph_arrays,
    _place_edge_rows,
    edge_vectors,
    unit_edge_vectors,
)

# Agents closer than this along an edge count as collided.
COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class ScalingSchedule:
    """Time profile of the common scale factor applied to all distances.

    The scheduled distance of edge k is (1 + value(t)) * reference_k,
    with value(0) = 0 so every run starts at the reference scale.
    Kinds: "none" holds the scale, "linear" grows it at a constant rate,
    "periodic" swings it sinusoidally with peak swing 2 * amplitude.
    """

    kind: str = "none"
    rate: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "linear", "periodic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "periodic" and self.frequency <= 0.0:
            raise ValueError("periodic schedule needs a positive frequency")

    @classmethod
    def none(cls) -> "ScalingSchedule":
        return cls("none")

    @classmethod
    def linear(cls, rate: float) -> "ScalingSchedule":
        return cls("linear", rate=float(rate))

    @classmethod
    def periodic(cls, amplitude: float, frequency: float) -> "ScalingSchedule":
        return cls("periodic", amplitude=float(amplitude), frequency=float(frequency))

    def value(self, t: float) -> float:
        """Scale offset s(t); the scale factor is 1 + s(t)."""
        if self.kind == "linear":
            return self.rate * t
        if self.kind == "periodic":
            return 2.0 * self.amplitude * math.sin(self.frequency * t)
        return 0.0

    def value_rate(self, t: float) -> float:
        """Time derivative of the scale offset."""
        if self.kind == "linear":
            return self.rate
        if self.kind == "periodic":
            return 2.0 * self.amplitude * self.frequency * math.cos(self.frequency * t)
        return 0.0

    def min_scale_factor(self, duration: float) -> float:
        """Smallest 1 + s(t) over [0, duration]."""
        if self.kind == "linear":
            return min(1.0, 1.0 + self.rate * duration)
        if self.kind == "periodic":
            phase_end = self.frequency * duration
            # Interior extrema of sin at odd multiples of pi/2; every later
            # one repeats the value at pi/2 or 3 pi/2.
            crests = [p for p in (math.pi / 2.0, math.pi / 2.0 + math.pi) if p <= phase_end]
            return 1.0 + min(2.0 * self.amplitude * math.sin(p)
                             for p in [0.0, phase_end, *crests])
        return 1.0


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Gain, calibrated offset parts, and the scale schedule of one run.

    scaling_part must be calibrated for a unit growth rate; at run time
    it is multiplied by the schedule's current rate.
    """

    gain: float
    translation_part: MotionParameters
    rotation_part: MotionParameters
    scaling_part: MotionParameters
    schedule: ScalingSchedule

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")


def scheduled_distances(ref: ReferenceShape, schedule: ScalingSchedule, t: float):
    """Desired distances and their time derivatives at time t."""
    factor = 1.0 + schedule.value(t)
    d_t = factor * ref.distances
    if np.any(d_t <= 0.0):
        raise PositivityError(f"scheduled distance is not positive at t={t:.6g}")
    return d_t, schedule.value_rate(t) * ref.distances


def time_varying_params(cfg: ControllerConfig, t: float) -> MotionParameters:
    """Offsets applied at time t: motion parts plus rate-scaled scaling part."""
    rate = cfg.schedule.value_rate(t)
    return cfg.translation_part + cfg.rotation_part + cfg.scaling_part.scaled(rate)


def distance_errors(fw: Framework, d_t: np.ndarray) -> np.ndarray:
    """Edge length minus scheduled distance, one entry per edge."""
    d_t = np.asarray(d_t, dtype=float).reshape(-1)
    if np.any(d_t <= 0.0):
        raise PositivityError("scheduled distances must be positive")
    return np.linalg.norm(edge_vectors(fw), axis=1) - d_t


def elastic_potential(fw: Framework, d_t: np.ndarray) -> float:
    """Half the sum of squared distance errors."""
    e = distance_errors(fw, d_t)
    return 0.5 * float(e @ e)


class ControlKernel:
    """The control law on stacked positions shaped (batch, vertex_count * dim).

    Edge k contributes its unit vector u_k to both endpoints, weighted by
    tail_coef_k - gain * e_k at the tail and head_coef_k + gain * e_k at
    the head, where e_k is its distance error.  Edge quantities are held
    axis-major, (batch, dim, E), so every elementwise step runs along
    contiguous edges.  One bincount over a flat index, cached per batch
    size, sums the contributions into the agents: each agent coordinate
    adds its tail ends in edge order, then its head ends.  Each agent's
    velocity depends only on its own edges, and each row of the batch is
    computed exactly as it would be alone.
    """

    def __init__(self, graph, dim: int):
        tails, heads = _graph_arrays(graph)
        self.tails, self.heads, self.dim = tails, heads, dim
        self.width = graph.vertex_count * dim
        axes = np.arange(dim)[:, None]
        # Flat column of axis a of edge k's tail (head) sits at a * E + k.
        self._tail_cols = (tails * dim + axes).reshape(-1)
        self._head_cols = (heads * dim + axes).reshape(-1)
        self._slots = np.concatenate([self._tail_cols, self._head_cols])
        self._index: dict[int, np.ndarray] = {}

    def _scatter_index(self, batch: int) -> np.ndarray:
        index = self._index.get(batch)
        if index is None:
            offsets = np.arange(batch)[:, None] * self.width
            index = (offsets + self._slots).reshape(-1)
            self._index[batch] = index
        return index

    def edge_units(self, p: np.ndarray):
        """Unit edge vectors (batch, dim, E) and edge lengths (batch, E).

        Raises EdgeCollapse naming the rows with an edge shorter than
        COLLAPSE_TOL.
        """
        vecs = p.take(self._tail_cols, axis=1) - p.take(self._head_cols, axis=1)
        vecs = vecs.reshape(p.shape[0], self.dim, -1)
        lengths = np.sqrt(np.add.reduce(vecs * vecs, axis=1))
        if np.minimum.reduce(lengths, axis=None) < COLLAPSE_TOL:
            rows = np.flatnonzero(lengths.min(axis=1) < COLLAPSE_TOL)
            raise EdgeCollapse(f"edge shorter than {COLLAPSE_TOL:g}", rows)
        return vecs / lengths[:, None], lengths

    def scatter(self, units: np.ndarray, tail_weight: np.ndarray,
                head_weight: np.ndarray) -> np.ndarray:
        """Sum the weighted unit vectors into the agents, (batch, width)."""
        batch = units.shape[0]
        weights = np.concatenate([tail_weight, head_weight], axis=1)
        values = weights.reshape(batch, 2, 1, -1) * units[:, None]
        summed = np.bincount(self._scatter_index(batch), weights=values.reshape(-1),
                             minlength=batch * self.width)
        return summed.reshape(batch, self.width)

    def __call__(self, p: np.ndarray, d_t, tail_coef, head_coef, gain: float) -> np.ndarray:
        """Agent velocities for every row of p at scheduled distances d_t."""
        units, lengths = self.edge_units(p)
        pull = gain * (lengths - d_t)
        return self.scatter(units, tail_coef - pull, head_coef + pull)


@lru_cache(maxsize=128)
def control_kernel(graph, dim: int) -> ControlKernel:
    return ControlKernel(graph, dim)


def control_law(fw: Framework, d_t: np.ndarray, pv: MotionParameters, gain: float) -> np.ndarray:
    """Stacked agent velocity commands.

    The gradient term pulls each edge toward its scheduled length; the
    offset term adds the bearing-aligned motion contributions.  Each
    agent's block depends only on bearings and errors of its own edges.
    """
    d_t = np.asarray(d_t, dtype=float).reshape(-1)
    if np.any(d_t <= 0.0):
        raise PositivityError("scheduled distances must be positive")
    kernel = control_kernel(fw.graph, fw.dim)
    return kernel(fw.positions[None, :], d_t, pv.tail, pv.head, gain)[0]


def stiffness_matrix(fw: Framework) -> np.ndarray:
    """Gram matrix of the error gradient directions, edge_count square.

    R_n R_n^T, where R_n is the rigidity matrix with unit rows.  Positive
    definite near a minimally rigid shape; its smallest eigenvalue scales
    the exponential convergence rate.
    """
    unit_rows = _place_edge_rows(fw.graph, unit_edge_vectors(fw))
    return unit_rows @ unit_rows.T
