"""Property checks behind the verify command.

Each check returns a result row instead of raising, so one failing
property never hides the others.  Thresholds live here as constants;
they are fixed, not calibrated per run.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .control import (
    ControllerConfig,
    control_law,
    elastic_potential,
    time_varying_params,
)
from .errors import FormsimError
from .motion import (
    MotionParameters,
    induced_velocities,
    induced_velocity_matrix,
    motion_spaces,
    rotation_field,
)
from .rigidity import Framework, control_kernel
from .scenario import Scenario
from .simulate import (
    DECAY_FLOOR,
    Trajectory,
    _frame_rotations,
    _subsample,
    apply_perturbation,
    decay_rate_fit,
    integrate_batch,
    perturb_to_error_norm,
)

MEMBERSHIP_TOL = 1e-10
IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-6
INVARIANCE_TOL = 1e-6
INVARIANCE_HORIZON = 20.0
CONVERGENCE_R2 = 0.99
TRACKING_REL_TOL = 0.01
VELOCITY_REL_TOL = 0.01
CONVERGED_NORM = 1e-6
VELOCITY_MAP_TRIALS = 200
GRADIENT_TRIALS = 100
# Time units after which a scaling run must track its schedule.
TRACKING_TRANSIENT = 3.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str):
    """Turn a check body's (passed, detail) return, or the FormsimError it
    raises, into the check's result row."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            try:
                passed, detail = body(*args, **kwargs)
            except FormsimError as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(name, bool(passed), detail)
        return check
    return decorate


@_check("reference-rigidity")
def check_reference_rigidity(scenario: Scenario):
    report = scenario.reference_shape().report
    return report.is_minimally_rigid and report.is_bearing_rigid, (
        f"rank={report.rank_rigidity} minimally_rigid={report.is_minimally_rigid} "
        f"bearing_kernel={report.bearing_kernel_dim}"
    )


@_check("motion-spaces")
def check_motion_spaces(scenario: Scenario):
    residual = max(motion_spaces(scenario.reference_shape()).values())
    return residual <= MEMBERSHIP_TOL, f"residual={residual:.2e}"


@_check("velocity-map-identity")
def check_velocity_map_identity(scenario: Scenario):
    graph = scenario.graph()
    m, ecount = scenario.dimension, graph.edge_count
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(VELOCITY_MAP_TRIALS):
        units = rng.standard_normal((ecount, m))
        units /= np.linalg.norm(units, axis=1)[:, None]
        stacked = rng.standard_normal(2 * ecount)
        pv = MotionParameters.from_stacked(stacked)
        direct = induced_velocities(pv, graph, units.reshape(-1))
        via_matrix = induced_velocity_matrix(units.reshape(-1), graph) @ stacked
        denom = max(np.linalg.norm(direct), 1e-300)
        worst = max(worst, float(np.linalg.norm(direct - via_matrix) / denom))
    return worst <= IDENTITY_TOL, f"max relative mismatch {worst:.2e}"


@_check("gradient-consistency")
def check_gradient_consistency(scenario: Scenario):
    ref = scenario.reference_shape()
    graph, m = ref.graph, ref.dim
    rng = np.random.default_rng(99)
    zero = MotionParameters.zero(graph.edge_count)
    step = 1e-6
    worst = 0.0
    scale = float(np.abs(ref.framework.positions).max())
    for _ in range(GRADIENT_TRIALS):
        p = ref.framework.positions + rng.uniform(-0.2, 0.2, ref.framework.positions.size) * scale
        fw = Framework(graph, m, p)
        analytic = -control_law(fw, ref.distances, zero, 1.0)
        fd = np.empty_like(analytic)
        h = step * max(1.0, scale)
        for i in range(p.size):
            plus = p.copy()
            plus[i] += h
            minus = p.copy()
            minus[i] -= h
            fd[i] = (
                elastic_potential(Framework(graph, m, plus), ref.distances)
                - elastic_potential(Framework(graph, m, minus), ref.distances)
            ) / (2.0 * h)
        worst = max(worst, float(
            np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-300)
        ))
    return worst <= GRADIENT_TOL, f"max relative gradient error {worst:.2e}"


def _trajectory(run):
    """The run's trajectory, or its failure raised inside the check."""
    if isinstance(run, FormsimError):
        raise run
    return run


@_check("shape-invariance")
def check_shape_invariance(scenario: Scenario, run):
    """run starts on the reference shape and lasts at most 20 time units."""
    traj = _trajectory(run)
    horizon = min(scenario.sim.duration, INVARIANCE_HORIZON)
    worst = max(float(np.abs(traj.errors(rows)).max()) for rows in traj.chunks())
    return worst <= INVARIANCE_TOL, (
        f"max distance error {worst:.2e} over {horizon:g} time units")


@_check("exponential-convergence")
def check_exponential_convergence(scenario: Scenario, run, invariant):
    """run starts from a perturbation of a tenth of the shortest distance.

    invariant is the run that starts on the reference shape.  Ten times
    its peak error norm, and at least DECAY_FLOOR, is the level where the
    integration error takes over, so the fit stops at the first sample of
    run below it.  The floor is DECAY_FLOOR when invariant failed.
    """
    traj = _trajectory(run)
    floor = DECAY_FLOOR
    if isinstance(invariant, Trajectory):
        floor = max(floor, 10.0 * float(invariant.error_norms.max()))
    norms = traj.error_norms
    below = np.flatnonzero(norms[1:] < floor)
    end = below[0] + 1 if below.size else norms.size
    rate, r_squared, decades = decay_rate_fit(traj.times[:end], norms[:end])
    ok = rate > 0.0 and r_squared >= CONVERGENCE_R2 and decades >= 1.0
    return ok, f"rate={rate:.3f} r_squared={r_squared:.4f} decades={decades:.2f}"


def check_motion_tracking(scenario: Scenario, run, cfg: ControllerConfig) -> CheckResult:
    """Distance tracking for scaling runs, velocity match for steady runs.

    run starts from the scenario's initial positions and was integrated
    under cfg.
    """
    if scenario.schedule.kind == "none":
        return _check_steady_velocities(scenario, run, cfg)
    return _check_distance_tracking(scenario, run)


@_check("distance-tracking")
def _check_distance_tracking(scenario: Scenario, run):
    ref = scenario.reference_shape()
    traj = _trajectory(run)
    # Times increase, so the samples past the transient are one slice.
    start = int(np.searchsorted(traj.times, TRACKING_TRANSIENT))
    if start == traj.sample_count:
        return False, "horizon shorter than the transient window"
    worst = max(float((np.abs(traj.errors(rows)) / ref.distances).max())
                for rows in traj.chunks(start))
    return worst <= TRACKING_REL_TOL, (
        f"max |length - scheduled| = {worst * 100:.3f}% of reference")


@_check("steady-velocity")
def _check_steady_velocities(scenario: Scenario, run, cfg: ControllerConfig):
    """The run's controller moves every agent at the designed body-frame
    velocity once the shape has converged."""
    ref = scenario.reference_shape()
    designed = (
        np.tile(scenario.v_body, ref.graph.vertex_count)
        + rotation_field(ref.centered_points(), scenario.omega)
    ).reshape(-1, ref.dim)
    speed_floor = float(np.linalg.norm(designed, axis=1).max())
    if speed_floor < 1e-9:
        return True, "no motion designed, nothing to track"
    traj = _trajectory(run)
    norms = traj.error_norms
    converged = np.nonzero(norms < CONVERGED_NORM)[0]
    if converged.size == 0:
        return False, f"error norm never fell below {CONVERGED_NORM:g}"
    idx = converged[:50]
    rotations = _frame_rotations(traj.positions[idx], ref)
    # The schedule is flat, so distances and offsets stay constant.
    pv = time_varying_params(cfg, 0.0)
    kernel = control_kernel(ref.graph, ref.dim)
    u = kernel(traj.positions[idx], ref.distances, pv.tail, pv.head, cfg.gain)
    measured = u.reshape(idx.size, -1, ref.dim) @ rotations.transpose(0, 2, 1)
    mismatch = np.linalg.norm(measured - designed, axis=2)
    denom = np.maximum(np.linalg.norm(designed, axis=1), 1e-300)
    worst = float((mismatch / denom).max())
    return worst <= VELOCITY_REL_TOL, f"max per-agent velocity mismatch {worst * 100:.3f}%"


def _closed_loop_runs(scenario: Scenario):
    """The controller and the three closed-loop runs verify checks.

    The runs are integrated as one batch.  In order: from the reference
    shape, cut at min(duration, 20); from a perturbation of a tenth of
    the shortest distance; from the scenario's initial positions.  Each
    entry is a Trajectory or the FormsimError that ended that run; the
    controller is None when calibration failed.
    """
    cfg = None
    try:
        ref = scenario.reference_shape()
        cfg = scenario.controller_config(ref)
        sim = scenario.sim
        seed = sim.perturbation.seed if sim.perturbation else 7
        converging = perturb_to_error_norm(ref.framework, ref.distances, seed,
                                           0.1 * float(ref.distances.min()))
        tracking = scenario.initial_framework()
        if sim.perturbation is not None:
            tracking = apply_perturbation(tracking, sim.perturbation.seed,
                                          sim.perturbation.magnitude)
        runs = integrate_batch([ref.framework, converging, tracking], ref, cfg,
                               dataclasses.replace(sim, perturbation=None))
    except FormsimError as exc:
        return cfg, [exc] * 3
    if isinstance(runs[0], Trajectory):
        horizon_steps = min(sim.steps, int(round(INVARIANCE_HORIZON / sim.dt)))
        runs[0] = _subsample(runs[0], slice(0, horizon_steps // sim.record_stride + 1))
    return cfg, runs


def run_verification(scenario: Scenario) -> list[CheckResult]:
    """Run every check that applies to the scenario."""
    results = [
        check_reference_rigidity(scenario),
        check_motion_spaces(scenario),
        check_velocity_map_identity(scenario),
        check_gradient_consistency(scenario),
    ]
    cfg, (invariant, converging, tracking) = _closed_loop_runs(scenario)
    return results + [
        check_shape_invariance(scenario, invariant),
        check_exponential_convergence(scenario, converging, invariant),
        check_motion_tracking(scenario, tracking, cfg),
    ]
