"""Fixed-step integration of the formation dynamics and run diagnostics.

Runs are deterministic: identical inputs (including the perturbation
seed) produce bit-identical trajectories on the same platform.  The
body-frame view subtracts the centroid and removes the best-fit
rotation against the reference shape, which makes steady translation,
spin, and scaling rates directly measurable by line fits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .control import ControllerConfig
from .errors import (
    DegenerateAlignment,
    Divergence,
    EdgeCollapse,
    FormsimError,
    InsufficientDecay,
    PositivityError,
    Unreachable,
)
from .motion import ReferenceShape
from .rigidity import Framework, control_kernel

# Error norms below this are treated as already converged.
DECAY_FLOOR = 1e-8


@dataclass(frozen=True)
class Perturbation:
    """Seeded uniform-in-a-ball position noise applied per agent."""

    seed: int
    magnitude: float

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    duration: float
    integrator: str = "rk4"
    record_stride: int = 1
    perturbation: Perturbation | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ValueError(f"duration must be finite and cover at least one step, "
                             f"got {self.duration}")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(f"duration / dt overflows: {self.duration} / {self.dt}")
        if self.integrator not in ("rk4", "euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")

    @property
    def steps(self) -> int:
        """Integrator steps of one run, duration / dt rounded to an integer."""
        return int(round(self.duration / self.dt))

    @property
    def horizon(self) -> float:
        """End of the last step; past duration when the step count rounds up."""
        return self.steps * self.dt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled record of one run.

    positions holds stacked agent coordinates per sample and errors the
    per-edge distance errors; potential is half the squared error norm
    at each sample.  The scheduled distances of sample j are
    scale[j] * reference_distances, with scale the factor 1 + s(t) per
    sample, so a run holds no (samples, E) distances matrix.
    """

    times: np.ndarray
    positions: np.ndarray
    errors: np.ndarray
    potential: np.ndarray
    scale: np.ndarray
    reference_distances: np.ndarray

    @property
    def sample_count(self) -> int:
        return self.times.size

    @property
    def distances(self) -> np.ndarray:
        """Scheduled distances (samples, E), built on each access for tests
        and oracles; the program itself never reads them."""
        return self.scale[:, None] * self.reference_distances

    def error_norms(self) -> np.ndarray:
        norms = np.empty(self.sample_count)
        for rows in _chunks(*self.errors.shape):
            norms[rows] = np.linalg.norm(self.errors[rows], axis=1)
        return norms


def _subsample(traj: Trajectory, idx) -> Trajectory:
    """The samples of traj that idx (an index array or a slice) picks; a
    slice gives views, not copies."""
    return Trajectory(traj.times[idx], traj.positions[idx], traj.errors[idx],
                      traj.potential[idx], traj.scale[idx], traj.reference_distances)


# Elements per post-processing temporary, about 1 MiB of float64 at any n.
_CHUNK_ELEMENTS = 1 << 17


def _chunks(rows: int, width: int):
    """Row slices of a (rows, width) array, each about _CHUNK_ELEMENTS elements."""
    step = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, rows, step):
        yield slice(start, start + step)


@dataclass(frozen=True, eq=False)
class BodyFrameTrajectory:
    """Centroid-anchored, rotation-aligned view of a trajectory.

    rotations[j] maps centered global coordinates at sample j onto the
    reference orientation; positions are already mapped.
    """

    times: np.ndarray
    positions: np.ndarray
    rotations: np.ndarray


@dataclass(frozen=True, eq=False)
class SteadyStateReport:
    """Fitted steady-state motion of a converged run.

    v_body is the centroid velocity seen from the body frame, omega the
    spin rate (scalar in the plane, vector in space), scale_rate the
    slope of the measured scale factor, lambda_fit the exponential decay
    rate of the error norm (None when the run started converged).  Every
    fit's residual lands in the residuals dict.
    """

    v_body: np.ndarray
    omega: float | np.ndarray
    scale_rate: float
    lambda_fit: float | None
    decay_decades: float | None
    residuals: dict


def apply_perturbation(fw: Framework, seed: int, magnitude: float) -> Framework:
    """Displace every agent uniformly inside a ball of the given radius."""
    rng = np.random.default_rng(seed)
    n, m = fw.graph.vertex_count, fw.dim
    directions = rng.standard_normal((n, m))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = magnitude * rng.random(n) ** (1.0 / m)
    return Framework(fw.graph, m, (fw.points + radii[:, None] * directions).reshape(-1))


def perturb_to_error_norm(fw: Framework, distances: np.ndarray, seed: int,
                          target_norm: float) -> Framework:
    """Perturb positions until the distance-error norm matches target_norm.

    The displacement direction is seeded; its length is bisected by
    rescaling, accurate to about 0.1 percent.  Raises Unreachable when 60
    rescalings do not get there.
    """
    distances = np.asarray(distances, dtype=float).reshape(-1)
    candidate = apply_perturbation(fw, seed, 1.0)
    delta = candidate.positions - fw.positions
    kernel = control_kernel(fw.graph, fw.dim)

    def err_at(scale: float) -> float:
        lengths = kernel.lengths((fw.positions + scale * delta)[None])[0]
        return float(np.linalg.norm(lengths - distances))

    scale = 1.0
    for _ in range(60):
        current = err_at(scale)
        if abs(current - target_norm) <= 1e-3 * target_norm:
            return Framework(fw.graph, fw.dim, fw.positions + scale * delta)
        if not current > 0.0:
            break
        scale *= target_norm / current
    raise Unreachable(f"no perturbation along seed {seed}'s direction has "
                      f"error norm {target_norm:.3e} within 0.1%")


def make_rhs(ref: ReferenceShape, cfg: ControllerConfig):
    """Velocity field of the controlled dynamics as a plain function of (t, p).

    p stacks one run per row, shape (batch, vertex_count * dim); the
    batch size is read from p.  Hoists every per-run constant and
    evaluates the same kernel as control_law applied to
    time_varying_params and scheduled_distances, so both paths produce
    identical floating-point values.  The schedule-dependent arrays are
    kept while the scale factor and its rate stay the same, which under a
    flat schedule is the whole run.
    """
    kernel = control_kernel(ref.graph, ref.dim)
    base_tail = cfg.translation_part.tail + cfg.rotation_part.tail
    base_head = cfg.translation_part.head + cfg.rotation_part.head
    scale_tail = cfg.scaling_part.tail
    scale_head = cfg.scaling_part.head
    schedule, gain, distances = cfg.schedule, cfg.gain, ref.distances
    stage_key, stage = None, ()

    # integrate_batch checks that the scale factor stays positive up to
    # the last step before it takes the first one.
    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        nonlocal stage_key, stage
        factor = 1.0 + schedule.value(t)
        rate = schedule.value_rate(t)
        # Packed bits, so that a rate of -0.0 does not reuse the arrays of 0.0.
        key = struct.pack("2d", factor, rate)
        if key != stage_key:
            stage_key, stage = key, (factor * distances, base_tail + rate * scale_tail,
                                     base_head + rate * scale_head)
        return kernel(p, *stage, gain)

    return rhs


def integrate(fw0: Framework, ref: ReferenceShape, cfg: ControllerConfig,
              sim: SimConfig) -> Trajectory:
    """Integrate the controlled single-integrator dynamics.

    Time-varying offsets and scheduled distances are evaluated at every
    integrator stage time.  Halts with EdgeCollapse as soon as any edge
    drops below the collapse tolerance, and with Divergence when the
    state stops being finite (checked at every recorded step and the
    last one) or a recorded sample's edge lengths overflow.
    """
    (out,) = integrate_batch([fw0], ref, cfg, sim)
    if isinstance(out, FormsimError):
        raise out
    return out


def integrate_batch(starts, ref: ReferenceShape, cfg: ControllerConfig,
                    sim: SimConfig) -> list[Trajectory | FormsimError]:
    """Integrate one run per start framework, all in one step loop.

    Every run shares the controller and the simulation settings; the
    perturbation, if any, is applied to each start.  Entry i is
    bit-identical to integrate(starts[i], ...).  A run whose edge
    collapses or whose state stops being finite leaves the batch: its
    entry holds the EdgeCollapse or Divergence instead of a Trajectory,
    and the other runs carry on.  Raises FormsimError when the recorded
    trajectory cannot be allocated.
    """
    if cfg.schedule.min_scale_factor(sim.horizon) <= 0.0:
        raise PositivityError("schedule drives the scale factor to zero within the horizon")
    if sim.perturbation is not None:
        starts = [apply_perturbation(fw, sim.perturbation.seed, sim.perturbation.magnitude)
                  for fw in starts]
    rhs = make_rhs(ref, cfg)

    dt, stride, steps = sim.dt, sim.record_stride, sim.steps
    p = np.array([fw.positions for fw in starts])
    try:
        positions = np.empty((p.shape[0], steps // stride + 1, p.shape[1]))
    except (MemoryError, ValueError) as exc:
        raise FormsimError(f"{steps} steps at record stride {stride} do not fit "
                           f"in memory: {exc}") from None
    positions[:, 0] = p
    live = np.arange(p.shape[0])
    failures: dict[int, FormsimError] = {}

    def drop(rows, error: type, message: str):
        nonlocal p, live
        for row in rows:
            failures[int(live[row])] = error(message)
        keep = np.ones(live.size, dtype=bool)
        keep[list(rows)] = False
        p, live = p[keep], live[keep]

    # Overflow in a diverging run is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            while live.size:
                try:
                    p_next = _step(rhs, sim.integrator, t, dt, p)
                    break
                except EdgeCollapse as exc:
                    drop(exc.rows, EdgeCollapse, f"edge collapsed at t={t:.6g}")
            if not live.size:
                break
            p = p_next
            recorded = (k + 1) % stride == 0
            if recorded:
                positions[live, (k + 1) // stride] = p
            if recorded or k + 1 == steps:
                finite = np.isfinite(p).all(axis=1)
                if not finite.all():
                    drop(np.flatnonzero(~finite), Divergence,
                         f"state is not finite at t={(k + 1) * dt:.6g}")

    times = (np.arange(positions.shape[1]) * stride) * dt
    scale = np.array([1.0 + cfg.schedule.value(t) for t in times])
    out: list[Trajectory | FormsimError] = [failures.get(i) for i in range(len(starts))]
    for row in live:
        # A finite state whose squared edge lengths overflow has diverged too.
        with np.errstate(over="ignore"):
            errors, potential = _edge_errors(positions[row], ref, scale)
        overflow = np.flatnonzero(~np.isfinite(potential))
        if overflow.size:
            out[row] = Divergence(f"edge lengths overflow at t={times[overflow[0]]:.6g}")
        else:
            out[row] = Trajectory(times, positions[row], errors, potential, scale,
                                  ref.distances)
    return out


def _step(rhs, integrator: str, t: float, dt: float, p: np.ndarray) -> np.ndarray:
    if integrator == "rk4":
        k1 = rhs(t, p)
        k2 = rhs(t + dt / 2.0, p + (dt / 2.0) * k1)
        k3 = rhs(t + dt / 2.0, p + (dt / 2.0) * k2)
        k4 = rhs(t + dt, p + dt * k3)
        return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p + dt * rhs(t, p)


def _edge_errors(positions: np.ndarray, ref: ReferenceShape, scale: np.ndarray):
    """Distance errors (samples, E) and potential (samples,) of one run.

    Sample j's scheduled distances are scale[j] * ref.distances.  Both
    outputs are filled one chunk of samples at a time, so the only
    whole-run array allocated is the errors.
    """
    kernel = control_kernel(ref.graph, ref.dim)
    # C order: the potential's row sums then add each row as one pairwise sum.
    errors = np.empty((positions.shape[0], ref.distances.size))
    potential = np.empty(positions.shape[0])
    # The gather's temporaries are dim * E wide.
    for rows in _chunks(positions.shape[0], ref.dim * ref.distances.size):
        chunk = errors[rows]
        np.subtract(kernel.lengths(positions[rows]), scale[rows, None] * ref.distances,
                    out=chunk)
        np.multiply(0.5, (chunk * chunk).sum(axis=1), out=potential[rows])
    return errors, potential


def _align_rotation(current_pts: np.ndarray, reference_pts: np.ndarray) -> np.ndarray:
    """Proper rotation best mapping centered current onto centered reference."""
    m = current_pts.shape[1]
    cov = current_pts.T @ reference_pts
    u, sigma, vt = np.linalg.svd(cov)
    if sigma[-1] <= 1e-12 * max(sigma[0], 1e-300):
        raise DegenerateAlignment("alignment covariance is rank deficient")
    flip = np.eye(m)
    flip[-1, -1] = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ flip @ u.T


def _frame_rotations(positions: np.ndarray, ref: ReferenceShape) -> np.ndarray:
    """Per-sample rotation (samples, dim, dim) mapping the centered agents
    onto the centered reference shape."""
    m = ref.dim
    ref_centered = ref.centered_points()
    rotations = np.empty((positions.shape[0], m, m))
    for j, row in enumerate(positions):
        pts = row.reshape(-1, m)
        rotations[j] = _align_rotation(pts - pts.mean(axis=0), ref_centered)
    return rotations


def body_frame_transform(traj: Trajectory, ref: ReferenceShape) -> BodyFrameTrajectory:
    """Express every sample in the rotating centroid frame of the shape."""
    m = ref.dim
    rotations = _frame_rotations(traj.positions, ref)
    body_positions = np.empty_like(traj.positions)
    for j, (row, rot) in enumerate(zip(traj.positions, rotations)):
        pts = row.reshape(-1, m)
        body_positions[j] = ((pts - pts.mean(axis=0)) @ rot.T).reshape(-1)
    return BodyFrameTrajectory(traj.times.copy(), body_positions, rotations)


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line, returning (slope, intercept, rms residual)."""
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    return float(slope), float(intercept), rms


def _frame_angles(rotations: np.ndarray) -> np.ndarray:
    """Unwrapped planar orientation of the shape per sample."""
    # rotations map current onto reference; the shape orientation is the inverse.
    return np.unwrap(np.arctan2(rotations[:, 0, 1], rotations[:, 0, 0]))


def decay_rate_fit(times: np.ndarray, error_norms: np.ndarray):
    """Exponential decay rate of the error norm.

    Fits log error on the contiguous segment from the first sample at or
    below half the initial norm down to the decay floor.  Returns
    (rate, r_squared, decades); the rate is positive for decay.  Raises
    InsufficientDecay when no such segment exists.
    """
    e0 = error_norms[0]
    eligible = np.nonzero((error_norms <= 0.5 * e0) & (error_norms >= DECAY_FLOOR))[0]
    if eligible.size < 3:
        raise InsufficientDecay("error norm never decays below half its initial value")
    start = int(eligible[0])
    stop = start
    while (stop + 1 < error_norms.size
           and DECAY_FLOOR <= error_norms[stop + 1] <= 0.5 * e0):
        stop += 1
    if stop - start < 2:
        raise InsufficientDecay("decaying segment has too few samples")
    seg_t = times[start:stop + 1]
    seg_log = np.log(error_norms[start:stop + 1])
    slope, intercept, _ = _line_fit(seg_t, seg_log)
    predicted = slope * seg_t + intercept
    ss_res = float(np.sum((seg_log - predicted) ** 2))
    ss_tot = float(np.sum((seg_log - seg_log.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    decades = float((seg_log[0] - seg_log[-1]) / np.log(10.0))
    return -slope, r_squared, decades


def steady_state_report(traj: Trajectory, ref: ReferenceShape, window) -> SteadyStateReport:
    """Fit steady-state motion over a time window of a converged run.

    The window should start after the error norm settles; the decay rate
    is fitted on the whole trajectory regardless of the window.
    """
    t0, t1 = float(window[0]), float(window[1])
    # Times increase, so the window is one slice and sub holds views.
    start = int(np.searchsorted(traj.times, t0, side="left"))
    stop = int(np.searchsorted(traj.times, t1, side="right"))
    if stop - start < 3:
        raise InsufficientDecay("window must contain at least three samples")
    sub = _subsample(traj, slice(start, stop))
    rotations = _frame_rotations(sub.positions, ref)
    m = ref.dim
    residuals: dict = {}

    centroids = sub.positions.reshape(sub.sample_count, -1, m).mean(axis=1)
    increments = np.diff(centroids, axis=0)
    if m == 2:
        # Global-to-body mapping is the rotation by minus the shape angle.
        angles = _frame_angles(rotations)
        mid = 0.5 * (angles[1:] + angles[:-1])
        cos_a, sin_a = np.cos(mid), np.sin(mid)
        rotated = np.stack(
            [cos_a * increments[:, 0] + sin_a * increments[:, 1],
             -sin_a * increments[:, 0] + cos_a * increments[:, 1]], axis=1,
        )
    else:
        # Imported here and below, not at module load, so that planar
        # runs never pay for loading SciPy.
        from scipy.spatial.transform import Rotation

        rotated = np.empty_like(increments)
        for j in range(increments.shape[0]):
            first = Rotation.from_matrix(rotations[j])
            second = Rotation.from_matrix(rotations[j + 1])
            midrot = first * (first.inv() * second) ** 0.5
            rotated[j] = midrot.apply(increments[j])
    displacement = np.vstack([np.zeros(m), np.cumsum(rotated, axis=0)])
    v_body = np.empty(m)
    v_rms = 0.0
    for axis in range(m):
        slope, _, rms = _line_fit(sub.times, displacement[:, axis])
        v_body[axis] = slope
        v_rms = max(v_rms, rms)
    residuals["v_fit_rms"] = v_rms

    if m == 2:
        angles = _frame_angles(rotations)
        omega, _, omega_rms = _line_fit(sub.times, angles)
        omega_out: float | np.ndarray = omega
    else:
        from scipy.spatial.transform import Rotation

        rates = np.empty((sub.sample_count - 1, 3))
        dt_samples = np.diff(sub.times)
        for j in range(rates.shape[0]):
            # Orientation increment of the shape between consecutive samples.
            step = Rotation.from_matrix(rotations[j + 1].T @ rotations[j])
            rates[j] = step.as_rotvec() / dt_samples[j]
        omega_out = rates.mean(axis=0)
        omega_rms = float(np.linalg.norm(rates - omega_out, axis=1).mean())
    residuals["omega_fit_rms"] = float(omega_rms)

    kernel = control_kernel(ref.graph, m)
    measured = np.empty(sub.sample_count)
    for rows in _chunks(sub.sample_count, m * ref.distances.size):
        ratios = kernel.lengths(sub.positions[rows]) / ref.distances
        # Edge-major, so the mean adds one edge at a time in edge order; a
        # pairwise sum along each row would move scale_rate in its last bits.
        measured[rows] = np.ascontiguousarray(ratios.T).mean(axis=0)
    scale_rate, _, scale_rms = _line_fit(sub.times, measured)
    residuals["scale_fit_rms"] = scale_rms

    norms = traj.error_norms()
    if norms[0] < DECAY_FLOOR:
        lambda_fit = None
        decades = None
    else:
        lambda_fit, r_squared, decades = decay_rate_fit(traj.times, norms)
        residuals["decay_r_squared"] = r_squared
    return SteadyStateReport(v_body, omega_out, scale_rate, lambda_fit, decades, residuals)
