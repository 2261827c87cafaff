"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion with the measured values.
"""

import time

import numpy as np
import pytest

from formsim import (
    ControllerConfig,
    Framework,
    MotionParameters,
    ScalingSchedule,
    SimConfig,
    bundled_scenario_path,
    control_law,
    decay_rate_fit,
    induced_velocities,
    induced_velocity_matrix,
    integrate,
    load_scenario,
    motion_spaces,
    perturb_to_error_norm,
    rigidity_report,
    rotation_field,
    rotation_params,
    scaling_params,
    translation_params,
)
from conftest import (
    SCALE_PATTERN,
    SPIN_PATTERN,
    elastic_potential,
    frame_rotations,
    integrate_positions,
    kabsch_rotations,
    null_space,
    run_errors,
    unit_edge_vectors,
)


def _report(num, title, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion-{num:02d} {title}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def full_config(square_ref):
    return ControllerConfig(
        gain=5.0,
        translation_part=translation_params(square_ref, [0.5, 0.3]),
        rotation_part=rotation_params(square_ref, 1.0),
        scaling_part=scaling_params(square_ref, 1.0),
        schedule=ScalingSchedule.periodic(0.25, 1.5),
    )


@pytest.fixture(scope="module")
def bundled_scenario():
    return load_scenario(bundled_scenario_path("square"))


@pytest.fixture(scope="module")
def bundled_trajectory(bundled_scenario):
    ref = bundled_scenario.reference_shape()
    cfg = bundled_scenario.controller_config()
    return (ref, *integrate_positions(bundled_scenario.initial_framework(), ref, cfg,
                                      bundled_scenario.sim))


def test_criterion_01_rigidity_ranks(square_framework, tetra_framework):
    started = time.perf_counter()
    square = rigidity_report(square_framework)
    tetra = rigidity_report(tetra_framework)
    elapsed = time.perf_counter() - started
    passed = (
        square.rank_rigidity == 5 and square.is_minimally_rigid
        and tetra.rank_rigidity == 6 and tetra.is_minimally_rigid
        and elapsed < 1.0
    )
    _report(1, "rigidity ranks", passed,
            f"square rank={square.rank_rigidity}, tetrahedron rank={tetra.rank_rigidity}, "
            f"runtime={elapsed:.3f}s")


def test_criterion_02_bearing_kernel(square_framework):
    report = rigidity_report(square_framework)
    _report(2, "bearing kernel", report.bearing_kernel_dim == 3,
            f"kernel dimension={report.bearing_kernel_dim}, expected 3")


def test_criterion_03_space_dimensions(square_ref):
    # The offsets of the 2 translations, 1 rotation and 1 scaling of the
    # plane each satisfy their motion's defining constraint.
    residuals = motion_spaces(square_ref)
    residual = max(residuals.values())
    _report(3, "motion-space membership", residual <= 1e-10,
            ", ".join(f"{name}={value:.2e}" for name, value in residuals.items()))


def test_criterion_04_reference_offset_vectors(square_ref):
    unit_vec = unit_edge_vectors(square_ref.framework)
    spin_field = induced_velocities(
        MotionParameters.from_stacked(SPIN_PATTERN), square_ref.graph, unit_vec
    ).reshape(4, 2)
    field_norm = np.linalg.norm(spin_field)
    centroid_speed = np.linalg.norm(spin_field.mean(axis=0))
    centered = square_ref.centered_points()
    tangency = max(
        abs(spin_field[i] @ centered[i])
        / (np.linalg.norm(spin_field[i]) * np.linalg.norm(centered[i]))
        for i in range(4)
    )

    calibrated = scaling_params(square_ref, 1.0).stacked()
    zero_basis = null_space(square_ref.velocity_map)
    moving_part = SCALE_PATTERN - zero_basis @ (zero_basis.T @ SCALE_PATTERN)
    cosine_moving = abs(calibrated @ moving_part) / (
        np.linalg.norm(calibrated) * np.linalg.norm(moving_part)
    )
    raw_cosine = abs(calibrated @ SCALE_PATTERN) / (
        np.linalg.norm(calibrated) * np.linalg.norm(SCALE_PATTERN)
    )
    vmap = square_ref.velocity_map
    field_cosine = abs((vmap @ calibrated) @ (vmap @ SCALE_PATTERN)) / (
        np.linalg.norm(vmap @ calibrated) * np.linalg.norm(vmap @ SCALE_PATTERN)
    )
    # The printed scaling pattern carries an inert zero-velocity component
    # of relative weight 1/2, so its raw cosine against any vector in the
    # moving complement is exactly sqrt(3)/2; equality holds after that
    # component is removed, and the induced velocity fields are parallel.
    passed = (
        centroid_speed <= 1e-9 * field_norm
        and tangency <= 1e-9
        and cosine_moving >= 1.0 - 1e-9
        and field_cosine >= 1.0 - 1e-9
        and abs(raw_cosine - np.sqrt(3.0) / 2.0) <= 1e-12
    )
    _report(4, "reference offset vectors", passed,
            f"centroid speed={centroid_speed:.2e}, tangency={tangency:.2e}, "
            f"scaling cosine (moving part)={1 - cosine_moving:.2e} from 1, "
            f"raw cosine={raw_cosine:.12f}")


def test_criterion_05_shape_invariance(square_ref, full_config):
    sim = SimConfig(dt=1e-3, duration=20.0, record_stride=10)
    traj, positions = integrate_positions(square_ref.framework, square_ref, full_config, sim)
    worst = float(np.abs(run_errors(traj, positions)).max())
    _report(5, "shape invariance", worst <= 1e-6,
            f"max distance error {worst:.2e} over 20 time units")


def test_criterion_06_exponential_convergence(square_ref):
    started = time.perf_counter()
    zero = MotionParameters.zero(5)
    start = perturb_to_error_norm(square_ref.framework, square_ref.distances, 7,
                                  0.1 * float(square_ref.distances.min()))
    fits = {}
    for gain in (2.0, 5.0, 10.0):
        cfg = ControllerConfig(gain, zero, zero, zero, ScalingSchedule.none())
        traj = integrate(start, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=20.0, record_stride=10))
        fits[gain] = decay_rate_fit(traj.times, traj.error_norms)
    elapsed = time.perf_counter() - started
    rates = [fits[g][0] for g in (2.0, 5.0, 10.0)]
    r_squared = min(fits[g][1] for g in fits)
    decades = min(fits[g][2] for g in fits)
    passed = (
        r_squared >= 0.99 and decades >= 1.0
        and rates[0] < rates[1] < rates[2]
        and elapsed < 30.0
    )
    _report(6, "exponential convergence", passed,
            f"rates={[round(r, 3) for r in rates]}, min r2={r_squared:.4f}, "
            f"min decades={decades:.2f}, runtime={elapsed:.1f}s")


def test_criterion_07_steady_state_velocity(square_ref):
    v_target = np.array([0.5, 0.3])
    omega_target = 1.0
    cfg = ControllerConfig(
        gain=5.0,
        translation_part=translation_params(square_ref, v_target),
        rotation_part=rotation_params(square_ref, omega_target),
        scaling_part=MotionParameters.zero(5),
        schedule=ScalingSchedule.none(),
    )
    start = perturb_to_error_norm(square_ref.framework, square_ref.distances, 11,
                                  0.1 * float(square_ref.distances.min()))
    traj, positions = integrate_positions(start, square_ref, cfg,
                                          SimConfig(dt=1e-3, duration=10.0, record_stride=10))
    converged = np.nonzero(traj.error_norms < 1e-6)[0]
    assert converged.size > 0, "error norm never fell below 1e-6"
    # Each converged sample's agent velocities, from central differences
    # of the recorded positions, seen from the body frame.
    idx = converged[converged + 1 < traj.sample_count]
    rotations = kabsch_rotations(positions[idx], square_ref)
    designed = (np.tile(v_target, 4)
                + rotation_field(square_ref.centered_points(), omega_target)).reshape(4, 2)
    worst = 0.0
    for j, rot in zip(idx, rotations):
        velocity = ((positions[j + 1] - positions[j - 1])
                    / (traj.times[j + 1] - traj.times[j - 1]))
        measured = velocity.reshape(4, 2) @ rot.T
        for i in range(4):
            rel = np.linalg.norm(measured[i] - designed[i]) / np.linalg.norm(designed[i])
            worst = max(worst, float(rel))
    _report(7, "steady-state velocity", worst <= 0.01,
            f"max per-agent velocity mismatch {worst * 100:.4f}% over "
            f"{idx.size} converged samples")


def test_criterion_08_periodic_scaling_reproduction(bundled_trajectory):
    ref, traj, positions = bundled_trajectory
    transient = 3.0
    mask = traj.times >= transient
    rel_tracking = float((np.abs(run_errors(traj, positions)[mask])
                          / ref.distances[None, :]).max())

    # The rotations map the shape onto the reference; its orientation
    # angle is that of their transpose, unwrapped to follow the spin.
    rotations = frame_rotations(positions, ref)
    angles = np.unwrap(np.arctan2(rotations[:, 0, 1], rotations[:, 0, 0]))
    sample_pts = positions.reshape(traj.sample_count, 4, 2)
    tails = np.array([e[0] - 1 for e in ref.graph.edges])
    heads = np.array([e[1] - 1 for e in ref.graph.edges])
    lengths = np.linalg.norm(sample_pts[:, tails] - sample_pts[:, heads], axis=2)
    scale = (lengths / ref.distances[None, :]).mean(axis=1)

    # Whole number of scaling periods so the periodic modulation averages out.
    period = 2.0 * np.pi / 1.5
    window = (traj.times >= transient) & (traj.times <= transient + 4.0 * period)
    raw_slope = np.polyfit(traj.times[window], angles[window], 1)[0]
    # The spin rate at scale (1+s) is the designed rate divided by (1+s),
    # so the plain angle slope averages to 1/sqrt(1-(2h)^2) times the
    # design target while the scale-weighted rate recovers the target.
    mid_scale = 0.5 * (scale[1:] + scale[:-1])
    weighted = np.concatenate([[0.0], np.cumsum(np.diff(angles) * mid_scale)])
    design_rate = np.polyfit(traj.times[window], weighted[window], 1)[0]
    predicted_raw = 1.0 / np.sqrt(1.0 - 0.5 ** 2)

    passed = (
        rel_tracking <= 0.01
        and abs(design_rate - 1.0) <= 0.02
        and abs(raw_slope - predicted_raw) <= 0.02 * predicted_raw
    )
    _report(8, "periodic scaling reproduction", passed,
            f"tracking={rel_tracking * 100:.4f}% of reference, "
            f"scale-weighted spin rate={design_rate:.4f} (target 1), "
            f"raw angle slope={raw_slope:.4f} (predicted {predicted_raw:.4f})")


def test_criterion_09_gradient_oracle(square_ref):
    rng = np.random.default_rng(99)
    zero = MotionParameters.zero(5)
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        p = square_ref.framework.positions + rng.uniform(-3.0, 3.0, 8)
        fw = Framework(square_ref.graph, 2, p)
        analytic = -control_law(fw, square_ref.distances, zero, 1.0)
        fd = np.empty(8)
        for i in range(8):
            plus = p.copy()
            plus[i] += h
            minus = p.copy()
            minus[i] -= h
            fd[i] = (
                elastic_potential(Framework(square_ref.graph, 2, plus), square_ref.distances)
                - elastic_potential(Framework(square_ref.graph, 2, minus), square_ref.distances)
            ) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd)))
    _report(9, "gradient oracle", worst <= 1e-6,
            f"max relative error {worst:.2e} over 100 random configurations")


def test_criterion_10_velocity_map_identity(square_graph):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        units = rng.standard_normal((5, 2))
        units /= np.linalg.norm(units, axis=1)[:, None]
        stacked = rng.standard_normal(10)
        pv = MotionParameters.from_stacked(stacked)
        direct = induced_velocities(pv, square_graph, units.reshape(-1))
        via = induced_velocity_matrix(units.reshape(-1), square_graph) @ stacked
        worst = max(worst, float(
            np.linalg.norm(direct - via) / max(np.linalg.norm(direct), 1e-300)
        ))
    _report(10, "velocity-map identity", worst <= 1e-12,
            f"max relative mismatch {worst:.2e} over 200 random draws")


def test_criterion_11_integrator_order(bundled_scenario):
    ref = bundled_scenario.reference_shape()
    cfg = bundled_scenario.controller_config()
    start = bundled_scenario.initial_framework()
    horizon = 2.0

    def final_state(dt):
        _, positions = integrate_positions(start, ref, cfg,
                                           SimConfig(dt=dt, duration=horizon,
                                                     record_stride=int(round(horizon / dt))))
        return positions[-1]

    reference = final_state(2e-3)
    err_coarse = np.linalg.norm(final_state(1.6e-2) - reference)
    err_fine = np.linalg.norm(final_state(8e-3) - reference)
    ratio = err_coarse / err_fine
    _report(11, "integrator order", 8.0 <= ratio <= 32.0,
            f"halving error ratio {ratio:.1f}, expected within [8, 32]")
