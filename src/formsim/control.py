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

import numpy as np

from .errors import PositivityError
from .motion import MotionParameters, ReferenceShape
from .rigidity import (
    Framework,
    _place_edge_rows,
    control_kernel,
    edge_vectors,
    unit_edge_vectors,
)


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
