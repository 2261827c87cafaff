"""Property checks behind the verify command.

Each check returns a result row instead of raising, so one failing
property never hides the others.  Thresholds live here as constants;
they are fixed, not calibrated per run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .control import control_law
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
    _body_motion,
    decay_rate_fit,
    integrate_batch,
    perturb_to_error_norm,
)
from .trajectory import Trajectory, _chunks

MEMBERSHIP_TOL = 1e-10
IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-6
INVARIANCE_TOL = 1e-6
INVARIANCE_HORIZON = 20.0
CONVERGENCE_R2 = 0.99
TRACKING_REL_TOL = 0.01
VELOCITY_REL_TOL = 0.01
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
    graph = scenario.reference.graph
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
    kernel = control_kernel(graph, m)
    rng = np.random.default_rng(99)
    zero = MotionParameters.zero(graph.edge_count)
    worst = 0.0
    scale = float(np.abs(ref.framework.positions).max())
    nd, h = ref.framework.positions.size, 1e-6 * max(1.0, scale)
    potentials = np.empty(2 * nd)
    for _ in range(GRADIENT_TRIALS):
        p = ref.framework.positions + rng.uniform(-0.2, 0.2, nd) * scale
        fw = Framework(graph, m, p)
        analytic = -control_law(fw, ref.distances, zero, 1.0)
        # Row i moves coordinate i by +h, row nd + i moves it by -h.
        for rows in _chunks(2 * nd, m * graph.edge_count):
            idx = np.arange(rows.start, rows.stop)
            moved = np.tile(p, (idx.size, 1))
            moved[idx - rows.start, idx % nd] += np.where(idx < nd, h, -h)
            e = kernel.lengths(moved) - ref.distances
            potentials[rows] = [0.5 * float(r @ r) for r in e]
        fd = (potentials[:nd] - potentials[nd:]) / (2.0 * h)
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
    worst = float(traj.peak_errors.max())
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


def check_motion_tracking(scenario: Scenario, run) -> CheckResult:
    """The fitted body-frame motion of run against the designed one, and
    distance tracking as well for scaling runs.

    run starts at the scenario's initial framework.
    """
    if scenario.schedule.kind == "none":
        return _check_steady_velocities(scenario, run)
    return _check_distance_tracking(scenario, run)


def _motion_mismatch(scenario: Scenario, run) -> float | None:
    """Largest relative miss over the agents of the body-frame velocity fitted
    on the second half of run's span against the designed one; None when
    no motion is designed, whether or not the run failed.

    The fit is simulate's steady-state one without its decay fit, which
    fails on a run that starts within the decay floor of the shape.
    """
    ref = scenario.reference_shape()
    centered = ref.centered_points()

    def velocities(v_body, omega):
        return (np.tile(v_body, ref.graph.vertex_count)
                + rotation_field(centered, omega)).reshape(-1, ref.dim)

    designed = velocities(scenario.v_body, scenario.omega)
    speeds = np.linalg.norm(designed, axis=1)
    if speeds.max() < 1e-9:
        return None
    traj = _trajectory(run)
    end = float(traj.times[-1])
    _, v_body, omega, _ = _body_motion(traj, (0.5 * end, end))
    miss = np.linalg.norm(velocities(v_body, omega) - designed, axis=1)
    return float((miss / np.maximum(speeds, 1e-300)).max())


@_check("distance-tracking")
def _check_distance_tracking(scenario: Scenario, run):
    traj = _trajectory(run)
    # Times increase, so the samples past the transient are one slice.
    start = int(np.searchsorted(traj.times, TRACKING_TRANSIENT))
    if start == traj.sample_count:
        return False, "horizon shorter than the transient window"
    worst = float(traj.peak_relative_errors[start:].max())
    ok = worst <= TRACKING_REL_TOL
    detail = f"max |length - scheduled| = {worst * 100:.3f}% of reference"
    miss = _motion_mismatch(scenario, traj)
    if miss is not None:
        ok = ok and miss <= VELOCITY_REL_TOL
        detail += f", max per-agent velocity mismatch {miss * 100:.3f}%"
    return ok, detail


@_check("steady-velocity")
def _check_steady_velocities(scenario: Scenario, run):
    """Every agent moves at the designed body-frame velocity over the
    second half of the run."""
    miss = _motion_mismatch(scenario, run)
    if miss is None:
        return True, "no motion designed, nothing to track"
    return miss <= VELOCITY_REL_TOL, f"max per-agent velocity mismatch {miss * 100:.3f}%"


def _closed_loop_runs(scenario: Scenario):
    """The three closed-loop runs verify checks.

    The runs are integrated as one batch.  In order: from the reference
    shape, cut at min(duration, 20); from a perturbation of a tenth of
    the shortest distance; from the scenario's initial framework.  Each
    entry is a Trajectory or the FormsimError that ended that run.
    """
    try:
        ref = scenario.reference_shape()
        cfg = scenario.controller_config()
        sim = scenario.sim
        seed = scenario.perturbation.seed if scenario.perturbation else 7
        converging = perturb_to_error_norm(ref.framework, ref.distances, seed,
                                           0.1 * float(ref.distances.min()))
        runs = integrate_batch([ref.framework, converging, scenario.initial_framework()],
                               ref, cfg, sim)
    except FormsimError as exc:
        return [exc] * 3
    if isinstance(runs[0], Trajectory):
        horizon_steps = min(sim.steps, int(round(INVARIANCE_HORIZON / sim.dt)))
        runs[0] = runs[0].window(slice(0, horizon_steps // sim.record_stride + 1))
    return runs


def run_verification(scenario: Scenario) -> list[CheckResult]:
    """Run every check that applies to the scenario."""
    results = [
        check_reference_rigidity(scenario),
        check_motion_spaces(scenario),
        check_velocity_map_identity(scenario),
        check_gradient_consistency(scenario),
    ]
    invariant, converging, tracking = _closed_loop_runs(scenario)
    return results + [
        check_shape_invariance(scenario, invariant),
        check_exponential_convergence(scenario, converging, invariant),
        check_motion_tracking(scenario, tracking),
    ]
