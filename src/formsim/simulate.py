"""Fixed-step integration of the formation dynamics and run diagnostics.

Runs are deterministic: identical starts and settings produce
bit-identical trajectories on the same platform.  The
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
from .rigidity import ControlKernel, Framework, control_kernel
from .trajectory import _CHUNK_ELEMENTS, _SUMMARIES, Trajectory

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
    """Step, horizon and record stride of an RK4 run."""

    dt: float
    duration: float
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ValueError(f"duration must be finite and cover at least one step, "
                             f"got {self.duration}")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(f"duration / dt overflows: {self.duration} / {self.dt}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        # A longer stride records only the start and discards every step.
        if self.record_stride > self.steps:
            raise ValueError(f"record_stride {self.record_stride} exceeds the run's {self.steps} steps")

    @property
    def steps(self) -> int:
        """Integrator steps of one run, duration / dt rounded to an integer."""
        return int(round(self.duration / self.dt))

    @property
    def horizon(self) -> float:
        """End of the last step; past duration when the step count rounds up."""
        return self.steps * self.dt


# A run is recorded in at least this many chunks.  On a shape as small as
# the square, a sample's summaries outweigh its positions, and the buffer
# and the temporaries that summarize it then hold an eighth of the run.
_MIN_RUN_CHUNKS = 8


@dataclass(frozen=True, eq=False)
class SteadyStateReport:
    """Fitted steady-state motion of a converged run.

    v_body is the centroid velocity seen from the body frame, omega the
    scale-weighted spin rate (scalar in the plane, vector in space),
    scale_rate the slope of the measured scale factor, lambda_fit the
    exponential decay rate of the error norm (None when the run started
    converged, or when its decay fit failed and note says why).  Every
    fit's residual lands in the residuals dict.
    """

    v_body: np.ndarray
    omega: float | np.ndarray
    scale_rate: float
    lambda_fit: float | None
    decay_decades: float | None
    residuals: dict
    note: str | None = None


def _perturbation_steps(fw: Framework, seed: int, magnitude: float) -> np.ndarray:
    """Seeded displacements (n, dim), uniform inside a ball of the given
    radius."""
    rng = np.random.default_rng(seed)
    n, m = fw.graph.vertex_count, fw.dim
    directions = rng.standard_normal((n, m))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = magnitude * rng.random(n) ** (1.0 / m)
    return radii[:, None] * directions


def apply_perturbation(fw: Framework, seed: int, magnitude: float) -> Framework:
    """Displace every agent uniformly inside a ball of the given radius."""
    steps = _perturbation_steps(fw, seed, magnitude)
    return Framework(fw.graph, fw.dim, (fw.points + steps).reshape(-1))


def perturb_to_error_norm(fw: Framework, distances: np.ndarray, seed: int,
                          target_norm: float) -> Framework:
    """Perturb positions until the distance-error norm matches target_norm.

    The displacement direction is seeded; its length starts at the mean
    distance, so the search works at any scale of the shape, and is
    bisected by rescaling, accurate to about 0.1 percent.  Raises
    Unreachable when 60 rescalings do not get there.
    """
    distances = np.asarray(distances, dtype=float).reshape(-1)
    delta = _perturbation_steps(fw, seed, 1.0).reshape(-1)
    kernel = control_kernel(fw.graph, fw.dim)

    def err_at(scale: float) -> float:
        lengths = kernel.lengths((fw.positions + scale * delta)[None])[0]
        return float(np.linalg.norm(lengths - distances))

    scale = float(distances.mean())
    for _ in range(60):
        current = err_at(scale)
        if abs(current - target_norm) <= 1e-3 * target_norm:
            return Framework(fw.graph, fw.dim, fw.positions + scale * delta)
        if not current > 0.0:
            break
        scale *= target_norm / current
    raise Unreachable(f"no perturbation along seed {seed}'s direction has "
                      f"error norm {target_norm:.3e} within 0.1%")


class _Stage:
    """make_rhs's scheduled distances (batch, E) and tail and head
    coefficients (2, batch, E) at the scale factor and rate packed in key,
    and the control law's layout for the batch.

    The rows they are made from are widened to the batch once, so that a
    new key costs three ufuncs on operands of one shape.
    """

    def __init__(self, kernel: ControlKernel, distances: np.ndarray, base: np.ndarray,
                 scale: np.ndarray, batch: int):
        self.batch, self.key, self.layout = batch, None, kernel.layout(batch)
        self.distance_rows = np.repeat(distances[None], batch, axis=0)
        self.base_rows = np.repeat(base[:, None], batch, axis=1)
        self.scale_rows = np.repeat(scale[:, None], batch, axis=1)
        self.d_t = np.empty_like(self.distance_rows)
        self.coefs = np.empty_like(self.base_rows)
        self.tail_coef, self.head_coef = self.coefs

    def fill(self, key: bytes, factor: float, rate: float) -> None:
        np.multiply(factor, self.distance_rows, self.d_t)
        np.multiply(rate, self.scale_rows, self.coefs)
        np.add(self.base_rows, self.coefs, self.coefs)
        self.key = key


def make_rhs(ref: ReferenceShape, cfg: ControllerConfig):
    """Velocity field of the controlled dynamics as a plain function of (t, p).

    p stacks one run per row, shape (batch, vertex_count * dim); the
    batch size is read from p.  Hoists every per-run constant and
    evaluates the same kernel as control_law applied to cfg's offsets at
    time t and the distances (1 + s(t)) * ref.distances, so both paths
    produce identical floating-point values.  The scheduled
    distances and both coefficient vectors live in (batch, E) buffers,
    rewritten only when the scale factor or its rate changes; under a
    flat schedule they are written once per run.  They and the law's
    layout are built on the first call and again whenever the batch size
    changes, and belong to this rhs alone.
    """
    kernel = control_kernel(ref.graph, ref.dim)
    base = np.stack([cfg.translation_part.tail + cfg.rotation_part.tail,
                     cfg.translation_part.head + cfg.rotation_part.head])
    scale = np.stack([cfg.scaling_part.tail, cfg.scaling_part.head])
    schedule, distances = cfg.schedule, ref.distances
    # A 0-d array multiplies with less overhead than a float, to the same bits.
    gain = np.array(cfg.gain)
    stage = None

    # integrate_batch checks that the scale factor stays positive up to
    # the last step before it takes the first one.
    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        nonlocal stage
        factor = 1.0 + schedule.value(t)
        rate = schedule.value_rate(t)
        if stage is None or stage.batch != p.shape[0]:
            stage = _Stage(kernel, distances, base, scale, p.shape[0])
        # Packed bits, so that a rate of -0.0 does not reuse the arrays of 0.0.
        key = struct.pack("2d", factor, rate)
        if key != stage.key:
            stage.fill(key, factor, rate)
        return stage.layout.law(p, stage.d_t, stage.tail_coef, stage.head_coef, gain)

    return rhs


def integrate(fw0: Framework, ref: ReferenceShape, cfg: ControllerConfig,
              sim: SimConfig, on_chunk=None) -> Trajectory:
    """Integrate the controlled single-integrator dynamics from fw0 as given.

    Time-varying offsets and scheduled distances are evaluated at every
    integrator stage time.  Halts with EdgeCollapse as soon as any edge
    drops below the collapse tolerance, and with Divergence when the
    state stops being finite (checked at every recorded step and the
    last one) or a recorded sample's edge lengths overflow.  on_chunk
    is integrate_batch's.
    """
    (out,) = integrate_batch([fw0], ref, cfg, sim, on_chunk=on_chunk)
    if isinstance(out, FormsimError):
        raise out
    return out


def integrate_batch(starts, ref: ReferenceShape, cfg: ControllerConfig,
                    sim: SimConfig, on_chunk=None) -> list[Trajectory | FormsimError]:
    """Integrate one run per start framework, all in one step loop.

    Every run shares the controller and the simulation settings.  Entry
    i is bit-identical to integrate(starts[i], ...).  A run whose edge
    collapses or whose state stops being finite leaves the batch: its
    entry holds the EdgeCollapse or Divergence instead of a Trajectory,
    and the other runs carry on.

    Recorded samples collect in one buffer of at most about 1 MiB and
    an eighth of a run's samples.  Whenever it fills, and at the end,
    each run still in the batch records its part, and then
    on_chunk(traj, rows, positions), when given, sees it: the run's
    Trajectory, the slice of its samples, and their positions (samples,
    vertex_count * dim), a view that is overwritten once on_chunk
    returns.  Raises FormsimError when the summaries of the runs cannot
    be allocated.
    """
    if cfg.schedule.min_scale_factor(sim.horizon) <= 0.0:
        raise PositivityError("schedule drives the scale factor to zero within the horizon")
    step = _stepper(make_rhs(ref, cfg), sim.dt)

    dt, stride, steps = sim.dt, sim.record_stride, sim.steps
    p = np.array([fw.positions for fw in starts])
    samples = steps // stride + 1
    try:
        times = (np.arange(samples) * stride) * dt
        scale = np.array([1.0 + cfg.schedule.value(t) for t in times])
        runs = [Trajectory.allocate(times, scale, ref) for _ in starts]
        rows = max(1, min(_CHUNK_ELEMENTS // p.size, -(-samples // _MIN_RUN_CHUNKS)))
        buffer = np.empty((p.shape[0], rows, p.shape[1]))
    except (MemoryError, ValueError) as exc:
        raise FormsimError(f"{steps} steps at record stride {stride} do not fit "
                           f"in memory: {exc}") from None
    # Read-only, as Framework.positions is, so that error_norms stays valid.
    for array in (times, scale):
        array.setflags(write=False)
    buffer[:, 0] = p
    first, filled = 0, 1
    live = np.arange(p.shape[0])
    failures: dict[int, FormsimError] = {}
    overflows: dict[int, float] = {}

    def drop(rows, error: type, message: str):
        nonlocal p, live
        for row in rows:
            failures[int(live[row])] = error(message)
        keep = np.ones(live.size, dtype=bool)
        keep[list(rows)] = False
        p, live = p[keep], live[keep]

    def flush():
        nonlocal first, filled
        rows = slice(first, first + filled)
        for row in live:
            traj, positions = runs[row], buffer[row, :filled]
            traj.record(rows, positions)
            # A finite state whose squared edge lengths overflow has diverged
            # too; it ends as such if its state stays finite to the end.
            overflow = np.flatnonzero(~np.isfinite(traj.squared_errors[rows]))
            if overflow.size:
                overflows.setdefault(int(row), float(times[first + overflow[0]]))
            if on_chunk is not None:
                on_chunk(traj, rows, positions)
        first, filled = first + filled, 0

    # Overflow in a diverging run is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            while live.size:
                try:
                    p_next = step(t, p)
                    break
                except EdgeCollapse as exc:
                    drop(exc.rows, EdgeCollapse, f"edge collapsed at t={t:.6g}")
            if not live.size:
                break
            p = p_next
            recorded = (k + 1) % stride == 0
            if recorded:
                if filled == buffer.shape[1]:
                    flush()
                buffer[live, filled] = p
                filled += 1
            if recorded or k + 1 == steps:
                finite = np.isfinite(p).all(axis=1)
                if not finite.all():
                    drop(np.flatnonzero(~finite), Divergence,
                         f"state is not finite at t={(k + 1) * dt:.6g}")
        if live.size:
            flush()

    out: list[Trajectory | FormsimError] = [failures.get(i) for i in range(len(starts))]
    for row in live:
        out[row] = runs[row]
        for name in _SUMMARIES:
            getattr(runs[row], name).setflags(write=False)
        if row in overflows:
            out[row] = Divergence(f"edge lengths overflow at t={overflows[row]:.6g}")
    return out


def _stepper(rhs, dt: float):
    """One classical Runge-Kutta step, step(t, p) -> p at t + dt."""
    # 0-d arrays multiply with less overhead than floats, to the same bits.
    half, whole, sixth, two = map(np.array, (dt / 2.0, dt, dt / 6.0, 2.0))

    def rk4(t: float, p: np.ndarray) -> np.ndarray:
        k1 = rhs(t, p)
        k2 = rhs(t + dt / 2.0, p + half * k1)
        k3 = rhs(t + dt / 2.0, p + half * k2)
        k4 = rhs(t + dt, p + whole * k3)
        return p + sixth * (k1 + two * k2 + two * k3 + k4)

    return rk4


def _nearest_rotations(cov: np.ndarray) -> np.ndarray:
    """The rotation R maximizing trace(R @ cov) for each matrix of a stack
    (samples, dim, dim), which is the rotation nearest cov's transpose.
    Raises DegenerateAlignment when any matrix is rank deficient."""
    u, sigma, vt = np.linalg.svd(cov)
    if np.any(sigma[:, -1] <= 1e-12 * np.maximum(sigma[:, 0], 1e-300)):
        raise DegenerateAlignment("alignment covariance is rank deficient")
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    flip = np.tile(np.eye(cov.shape[-1]), (cov.shape[0], 1, 1))
    flip[:, -1, -1] = np.sign(np.linalg.det(v @ ut))
    return v @ flip @ ut


# Within this many radians of half a turn, a turn has no reliable sense or
# axis: its skew part and mid frame lose about 1e-16 / HALF_TURN_TOL relative.
HALF_TURN_TOL = 1e-2
# Index pairs (a, b) of the skew part (T[b, a] - T[a, b]) / 2 of a rotation T:
# the sine of its angle in the plane, sin(angle) times its axis in space.
_SKEW_PAIRS = {2: ([0], [1]), 3: ([1, 2, 0], [2, 0, 1])}


def _turns(rotations: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Turn of the shape between consecutive samples, in the body frame:
    the logarithm of rotations[j] @ rotations[j + 1].T, an angle (k, 1) in
    the plane and a rotation vector (k, 3) in space.  Raises
    DegenerateAlignment when a turn is within HALF_TURN_TOL of half a turn.
    """
    m = rotations.shape[-1]
    steps = rotations[:-1] @ rotations[1:].transpose(0, 2, 1)
    a, b = _SKEW_PAIRS[m]
    sine = 0.5 * (steps[:, b, a] - steps[:, a, b])
    norm = np.linalg.norm(sine, axis=1)
    # A turn by angle fixes dim - 2 axes: its trace is 2 cos(angle) + dim - 2.
    angle = np.arctan2(norm, 0.5 * (np.trace(steps, axis1=1, axis2=2) - (m - 2)))
    j = int(np.argmax(angle))
    if angle[j] > np.pi - HALF_TURN_TOL:
        raise DegenerateAlignment(f"the shape turned by about half a turn ({angle[j]:.6g} rad) "
                                  f"between the samples at t={times[j]:.6g} and "
                                  f"t={times[j + 1]:.6g}; record samples more often")
    return sine * np.divide(angle, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line, returning (slope, intercept, rms residual)."""
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    return float(slope), float(intercept), rms


def _rate_fit(times: np.ndarray, increments: np.ndarray):
    """Slopes (k,) of line fits over times to the running sums of the
    increments (samples - 1, k), started at zero, and the largest of
    their rms residuals."""
    path = np.vstack([np.zeros(increments.shape[1]), np.cumsum(increments, axis=0)])
    fits = [_line_fit(times, column) for column in path.T]
    return np.array([fit[0] for fit in fits]), max(fit[2] for fit in fits)


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


def _body_motion(traj: Trajectory, window):
    """The samples of traj inside a time window, as views, and the
    body-frame velocity, the scale-weighted spin and their fit residuals
    over them.  The frames are the Kabsch rotations of the samples, the
    rotations nearest their covariances.  Raises InsufficientDecay when
    the window holds fewer than three samples, and DegenerateAlignment
    when a covariance is rank deficient or as _turns does."""
    t0, t1 = float(window[0]), float(window[1])
    # Times increase, so the window is one slice and sub holds views.
    start = int(np.searchsorted(traj.times, t0, side="left"))
    stop = int(np.searchsorted(traj.times, t1, side="right"))
    if stop - start < 3:
        raise InsufficientDecay("window must contain at least three samples")
    sub = traj.window(slice(start, stop))
    rotations = _nearest_rotations(sub.covariances)
    turns = _turns(rotations, sub.times)
    # The mid frame of two samples, their geodesic midpoint, is the rotation
    # nearest their sum.
    mids = _nearest_rotations((rotations[:-1] + rotations[1:]).transpose(0, 2, 1))
    rotated = (mids @ np.diff(sub.centroids, axis=0)[:, :, None])[:, :, 0]
    v_body, v_rms = _rate_fit(sub.times, rotated)
    # At scale factor 1 + s the offsets spin the shape at omega / (1 + s), so
    # each turn is weighted by its mid-sample factor (1 when flat).
    mid_scale = 0.5 * (sub.scale[1:] + sub.scale[:-1])
    omega, omega_rms = _rate_fit(sub.times, turns * mid_scale[:, None])
    omega_out = float(omega[0]) if omega.size == 1 else omega
    return sub, v_body, omega_out, {"v_fit_rms": v_rms, "omega_fit_rms": omega_rms}


def steady_state_report(traj: Trajectory, window) -> SteadyStateReport:
    """Fit steady-state motion over a time window of a converged run.

    The window should start after the error norm settles; the decay rate
    is fitted on the whole trajectory regardless of the window; when that
    fit fails, lambda_fit is None and note says why.
    """
    sub, v_body, omega_out, residuals = _body_motion(traj, window)
    scale_rate, _, scale_rms = _line_fit(sub.times, sub.length_ratios)
    residuals["scale_fit_rms"] = scale_rms

    norms = traj.error_norms
    lambda_fit = decades = note = None
    if norms[0] >= DECAY_FLOOR:
        try:
            lambda_fit, residuals["decay_r_squared"], decades = decay_rate_fit(traj.times, norms)
        except InsufficientDecay as exc:
            note = str(exc)
    return SteadyStateReport(v_body, omega_out, scale_rate, lambda_fit, decades, residuals, note)
