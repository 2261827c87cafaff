import tracemalloc

import numpy as np
import pytest

from formsim import (
    ControllerConfig,
    DegenerateAlignment,
    Divergence,
    EdgeCollapse,
    Framework,
    InsufficientDecay,
    MotionParameters,
    Perturbation,
    ReferenceShape,
    ScalingSchedule,
    SensingGraph,
    SimConfig,
    Unreachable,
    apply_perturbation,
    control_law,
    body_frame_transform,
    decay_rate_fit,
    distance_errors,
    integrate,
    integrate_batch,
    perturb_to_error_norm,
    rotation_params,
    scaling_params,
    scheduled_distances,
    steady_state_report,
    time_varying_params,
    translation_params,
)
from formsim.simulate import _CHUNK_ELEMENTS, make_rhs
from conftest import SQUARE_POINTS, henneberg_framework


def quiet_config(ref, gain=5.0):
    zero = MotionParameters.zero(ref.graph.edge_count)
    return ControllerConfig(gain, zero, zero, zero, ScalingSchedule.none())


def motion_config(ref, gain=5.0, v=(0.0, 0.0), omega=0.0, schedule=None):
    return ControllerConfig(
        gain=gain,
        translation_part=translation_params(ref, v),
        rotation_part=rotation_params(ref, omega),
        scaling_part=scaling_params(ref, 1.0),
        schedule=schedule or ScalingSchedule.none(),
    )


class TestIntegrate:
    def test_equilibrium_is_exactly_stationary(self, square_ref):
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-2, duration=1.0))
        for row in traj.positions:
            np.testing.assert_array_equal(row, square_ref.framework.positions)
        np.testing.assert_array_equal(traj.errors, np.zeros_like(traj.errors))

    def test_pure_translation_moves_in_a_straight_line(self, square_ref):
        v = np.array([0.8, -0.3])
        cfg = motion_config(square_ref, v=v)
        horizon = 2.0
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=horizon))
        displacement = (traj.positions[-1] - traj.positions[0]).reshape(4, 2)
        np.testing.assert_allclose(
            displacement, np.tile(v * horizon, (4, 1)), atol=1e-8
        )

    def test_record_stride_row_count(self, square_ref):
        sim = SimConfig(dt=1e-2, duration=1.0, record_stride=3)
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref), sim)
        assert traj.sample_count == int(1.0 / (1e-2 * 3)) + 1

    def test_potential_matches_errors(self, square_ref):
        start = apply_perturbation(square_ref.framework, 5, 0.5)
        traj = integrate(start, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-3, duration=0.5))
        np.testing.assert_allclose(
            traj.potential, 0.5 * (traj.errors ** 2).sum(axis=1), rtol=1e-14
        )

    def test_errors_match_per_sample_reference(self, square_ref):
        cfg = motion_config(square_ref, omega=1.0, schedule=ScalingSchedule.periodic(0.25, 1.5))
        start = apply_perturbation(square_ref.framework, 5, 0.5)
        traj = integrate(start, square_ref, cfg, SimConfig(dt=1e-3, duration=0.5, record_stride=7))
        for t, row, errors, dists in zip(traj.times, traj.positions, traj.errors,
                                         traj.distances):
            d_t, _ = scheduled_distances(square_ref, cfg.schedule, t)
            assert np.array_equal(dists, d_t)
            assert np.array_equal(errors, distance_errors(Framework(square_ref.graph, 2, row), d_t))

    def test_deterministic_given_seed(self, square_ref):
        sim = SimConfig(dt=1e-3, duration=0.5, perturbation=Perturbation(11, 0.4))
        one = integrate(square_ref.framework, square_ref, quiet_config(square_ref), sim)
        two = integrate(square_ref.framework, square_ref, quiet_config(square_ref), sim)
        assert np.array_equal(one.positions, two.positions)
        assert np.array_equal(one.errors, two.errors)

    def test_edge_collapse_detected(self):
        graph = SensingGraph(2, ((1, 2),))
        ref_fw = Framework.from_points(graph, [[0.0, 0.0], [1.0, 0.0]])
        from formsim import ReferenceShape

        ref = ReferenceShape(ref_fw)
        collapsed = Framework.from_points(graph, [[0.0, 0.0], [1e-12, 0.0]])
        zero = MotionParameters.zero(1)
        cfg = ControllerConfig(1.0, zero, zero, zero, ScalingSchedule.none())
        with pytest.raises(EdgeCollapse):
            integrate(collapsed, ref, cfg, SimConfig(dt=1e-3, duration=0.1))

    def test_schedule_reaching_zero_scale_rejected(self, square_ref):
        from formsim import PositivityError

        cfg = ControllerConfig(5.0, MotionParameters.zero(5), MotionParameters.zero(5),
                               MotionParameters.zero(5), ScalingSchedule.linear(-0.2))
        with pytest.raises(PositivityError):
            integrate(square_ref.framework, square_ref, cfg,
                      SimConfig(dt=1e-2, duration=10.0))

    def test_positivity_is_checked_up_to_the_last_step(self, square_ref):
        # 1.1 / 0.4 rounds up to 3 steps, so the run ends at 1.2, where
        # the shrinking schedule has already passed zero.
        sim = SimConfig(dt=0.4, duration=1.1)
        assert sim.steps == 3 and sim.horizon == pytest.approx(1.2)
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref), sim)
        assert traj.times[-1] == pytest.approx(1.2)
        zero = MotionParameters.zero(5)
        cfg = ControllerConfig(5.0, zero, zero, zero, ScalingSchedule.linear(-0.9))
        from formsim import PositivityError

        with pytest.raises(PositivityError, match="within the horizon"):
            integrate(square_ref.framework, square_ref, cfg, sim)

    def test_rk4_fourth_order_convergence(self, square_ref):
        cfg = motion_config(square_ref, omega=1.0,
                            schedule=ScalingSchedule.periodic(0.25, 1.5))
        start = apply_perturbation(square_ref.framework, 2, 0.5)
        horizon = 2.0

        def final_state(dt):
            traj = integrate(start, square_ref, cfg,
                             SimConfig(dt=dt, duration=horizon,
                                       record_stride=int(round(horizon / dt))))
            return traj.positions[-1]

        reference = final_state(2e-3)
        err_coarse = np.linalg.norm(final_state(1.6e-2) - reference)
        err_fine = np.linalg.norm(final_state(8e-3) - reference)
        assert 8.0 <= err_coarse / err_fine <= 32.0

    def test_euler_first_order_convergence(self, square_ref):
        cfg = motion_config(square_ref, omega=1.0)
        start = apply_perturbation(square_ref.framework, 2, 0.3)
        horizon = 1.0

        def final_state(dt):
            traj = integrate(start, square_ref, cfg,
                             SimConfig(dt=dt, duration=horizon, integrator="euler",
                                       record_stride=int(round(horizon / dt))))
            return traj.positions[-1]

        reference = final_state(1.25e-4)
        err_coarse = np.linalg.norm(final_state(8e-3) - reference)
        err_fine = np.linalg.norm(final_state(4e-3) - reference)
        assert 1.5 <= err_coarse / err_fine <= 3.0


def assert_same_run(batched, single):
    for field in ("times", "positions", "errors", "potential", "scale",
                  "reference_distances"):
        assert np.array_equal(getattr(batched, field), getattr(single, field)), field


class TestIntegrateBatch:
    def test_rows_match_single_runs_square_periodic(self, square_ref):
        cfg = motion_config(square_ref, v=(0.5, 0.3), omega=1.0,
                            schedule=ScalingSchedule.periodic(0.25, 1.5))
        sim = SimConfig(dt=1e-3, duration=1.0, record_stride=10)
        starts = [square_ref.framework, apply_perturbation(square_ref.framework, 2, 0.5),
                  apply_perturbation(square_ref.framework, 3, 1.0)]
        runs = integrate_batch(starts, square_ref, cfg, sim)
        for start, run in zip(starts, runs):
            assert_same_run(run, integrate(start, square_ref, cfg, sim))

    def test_rows_match_single_runs_tetrahedron(self, tetra_ref):
        cfg = ControllerConfig(
            5.0,
            translation_params(tetra_ref, [0.2, -0.1, 0.15]),
            rotation_params(tetra_ref, [0.3, 0.2, 1.0]),
            MotionParameters.zero(6),
            ScalingSchedule.none(),
        )
        sim = SimConfig(dt=1e-3, duration=0.5, record_stride=5, perturbation=Perturbation(4, 0.1))
        starts = [tetra_ref.framework, apply_perturbation(tetra_ref.framework, 9, 0.2)]
        runs = integrate_batch(starts, tetra_ref, cfg, sim)
        for start, run in zip(starts, runs):
            assert_same_run(run, integrate(start, tetra_ref, cfg, sim))

    def test_collapsing_row_fails_alone(self, square_ref, square_graph):
        cfg = quiet_config(square_ref)
        sim = SimConfig(dt=1e-3, duration=0.5, record_stride=10)
        collapsed_pts = SQUARE_POINTS.copy()
        collapsed_pts[1] = collapsed_pts[0]
        starts = [apply_perturbation(square_ref.framework, 5, 0.5),
                  Framework.from_points(square_graph, collapsed_pts),
                  apply_perturbation(square_ref.framework, 6, 0.5)]
        runs = integrate_batch(starts, square_ref, cfg, sim)
        assert isinstance(runs[1], EdgeCollapse)
        with pytest.raises(EdgeCollapse):
            integrate(starts[1], square_ref, cfg, sim)
        assert_same_run(runs[0], integrate(starts[0], square_ref, cfg, sim))
        assert_same_run(runs[2], integrate(starts[2], square_ref, cfg, sim))

    def test_diverging_row_fails_alone(self, square_ref):
        # RK4 is unstable at this gain and step: any perturbation grows
        # until it overflows, while the reference shape stays a fixed point.
        cfg = quiet_config(square_ref, gain=200.0)
        sim = SimConfig(dt=0.05, duration=20.0)
        perturbed = apply_perturbation(square_ref.framework, 1, 0.1)
        with pytest.raises(Divergence):
            integrate(perturbed, square_ref, cfg, sim)
        still, diverged = integrate_batch([square_ref.framework, perturbed],
                                          square_ref, cfg, sim)
        assert isinstance(diverged, Divergence)
        assert_same_run(still, integrate(square_ref.framework, square_ref, cfg, sim))


class TestPerturbations:
    def test_within_magnitude(self, square_framework):
        moved = apply_perturbation(square_framework, 4, 0.3)
        shifts = np.linalg.norm(moved.points - square_framework.points, axis=1)
        assert shifts.max() <= 0.3
        assert shifts.min() > 0.0

    def test_seed_reproducible(self, square_framework):
        one = apply_perturbation(square_framework, 9, 0.5)
        two = apply_perturbation(square_framework, 9, 0.5)
        assert np.array_equal(one.positions, two.positions)
        other = apply_perturbation(square_framework, 10, 0.5)
        assert not np.array_equal(one.positions, other.positions)

    def test_error_norm_targeting(self, square_ref):
        target = 0.1 * square_ref.distances.min()
        moved = perturb_to_error_norm(square_ref.framework, square_ref.distances, 7, target)
        from formsim import distance_errors

        achieved = np.linalg.norm(distance_errors(moved, square_ref.distances))
        assert achieved == pytest.approx(target, rel=2e-3)

    # A negative norm is never met; a norm far below rounding moves no
    # edge length at all.
    @pytest.mark.parametrize("target", [-1.0, 1e-300])
    def test_unreachable_error_norm_raises(self, square_ref, target):
        with pytest.raises(Unreachable, match="error norm"):
            perturb_to_error_norm(square_ref.framework, square_ref.distances, 7, target)


class TestMakeRhs:
    @pytest.mark.parametrize("schedule", [
        ScalingSchedule.none(), ScalingSchedule.linear(0.05), ScalingSchedule.periodic(0.25, 1.5),
    ], ids=["none", "linear", "periodic"])
    def test_bitwise_equal_to_control_law(self, square_ref, tetra_ref, schedule):
        for ref, v, omega in ((square_ref, (0.3, -0.2), 0.7),
                              (tetra_ref, (0.1, 0.0, 0.2), np.array([0.0, 0.3, 0.5]))):
            cfg = motion_config(ref, v=v, omega=omega, schedule=schedule)
            rhs = make_rhs(ref, cfg)
            starts = [apply_perturbation(ref.framework, seed, 0.2) for seed in (1, 2)]
            p = np.array([fw.positions for fw in starts])
            # A repeated scale factor and rate reuse the schedule arrays of
            # the stage before; under a flat schedule every time does.
            for t in (0.0, 0.35, 0.35, 1.2, 0.35, 1.7, 2.05, 3.0, 3.0, 0.0):
                d_t, _ = scheduled_distances(ref, schedule, t)
                pv = time_varying_params(cfg, t)
                got = rhs(t, p)
                for row, fw in zip(got, starts):
                    assert row.tobytes() == control_law(fw, d_t, pv, cfg.gain).tobytes()


class TestCentroid:
    def test_square_center(self, square_ref):
        center = square_ref.framework.points - square_ref.centered_points()
        np.testing.assert_allclose(center, np.tile([7.5, 7.5], (4, 1)), rtol=1e-15)

    def test_translation_equivariance(self, square_ref):
        shift = np.array([3.0, -4.0])
        moved = ReferenceShape(Framework.from_points(
            square_ref.graph, square_ref.framework.points + shift))
        np.testing.assert_allclose(moved.centered_points(), square_ref.centered_points(),
                                   atol=1e-14)

    def test_stationary_during_pure_spin(self, square_ref):
        cfg = motion_config(square_ref, omega=1.0)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=2.0, record_stride=10))
        centroids = traj.positions.reshape(traj.sample_count, 4, 2).mean(axis=1)
        drift = np.linalg.norm(centroids - centroids[0], axis=1).max()
        assert drift <= 1e-6 * 2.0  # at most 1e-6 length units per unit time


class TestBodyFrame:
    def test_pure_rotation_freezes_body_positions(self, square_ref):
        times = np.linspace(0.0, 2.0, 41)
        omega = 0.9
        center = SQUARE_POINTS.mean(axis=0)
        rows = []
        for t in times:
            angle = omega * t
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            rows.append(((SQUARE_POINTS - center) @ rot.T + center).reshape(-1))
        from formsim import Trajectory

        traj = Trajectory(times, np.array(rows), np.zeros((41, 5)),
                          np.zeros(41), np.ones(41), square_ref.distances)
        body = body_frame_transform(traj, square_ref)
        for row in body.positions:
            np.testing.assert_allclose(
                row, (SQUARE_POINTS - center).reshape(-1), atol=1e-9
            )

    def test_pure_translation_freezes_body_positions(self, square_ref):
        cfg = motion_config(square_ref, v=(1.0, 0.5))
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=1.0, record_stride=20))
        body = body_frame_transform(traj, square_ref)
        for row in body.positions:
            np.testing.assert_allclose(row, body.positions[0], atol=1e-8)

    def test_pure_scaling_scales_body_norms_and_keeps_bearings(self, square_ref):
        sched = ScalingSchedule.linear(0.05)
        cfg = motion_config(square_ref, schedule=sched)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=2.0, record_stride=40))
        body = body_frame_transform(traj, square_ref)
        base = body.positions[0].reshape(4, 2)
        for j, t in enumerate(body.times):
            pts = body.positions[j].reshape(4, 2)
            factor = 1 + sched.value(t)
            np.testing.assert_allclose(pts, factor * base, atol=1e-6)

    def test_collinear_shape_rejected(self, square_ref):
        from formsim import Trajectory

        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]).reshape(-1)
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.tile(collinear, (3, 1)),
                          np.zeros((3, 5)), np.zeros(3), np.ones(3), square_ref.distances)
        with pytest.raises(DegenerateAlignment):
            body_frame_transform(traj, square_ref)


class TestSteadyStateReport:
    def test_equilibrium_reports_zero_motion(self, square_ref):
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-2, duration=2.0))
        report = steady_state_report(traj, square_ref, (0.0, 2.0))
        np.testing.assert_allclose(report.v_body, 0.0, atol=1e-12)
        assert report.omega == pytest.approx(0.0, abs=1e-12)
        assert report.scale_rate == pytest.approx(0.0, abs=1e-12)
        assert report.lambda_fit is None
        assert all(np.isfinite(v) for v in report.residuals.values())

    def test_rotation_round_trip(self, square_ref):
        omega = 1.3
        cfg = motion_config(square_ref, omega=omega)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=4.0, record_stride=10))
        report = steady_state_report(traj, square_ref, (0.0, 4.0))
        assert report.omega == pytest.approx(omega, rel=0.02)

    def test_translation_round_trip_in_body_frame(self, square_ref):
        v = np.array([0.5, -0.25])
        cfg = motion_config(square_ref, v=v, omega=0.7)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=4.0, record_stride=10))
        report = steady_state_report(traj, square_ref, (0.0, 4.0))
        np.testing.assert_allclose(report.v_body, v, atol=5e-3)

    def test_linear_scaling_rate_recovered(self, square_ref):
        rate = 0.04
        cfg = motion_config(square_ref, schedule=ScalingSchedule.linear(rate))
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, square_ref, (0.0, 3.0))
        assert report.scale_rate == pytest.approx(rate, rel=1e-3)

    def test_spin_round_trip_3d(self, tetra_ref):
        omega = np.array([0.0, 0.0, 1.1])
        zero = MotionParameters.zero(6)
        cfg = ControllerConfig(5.0, zero, rotation_params(tetra_ref, omega),
                               zero, ScalingSchedule.none())
        traj = integrate(tetra_ref.framework, tetra_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, tetra_ref, (0.0, 3.0))
        np.testing.assert_allclose(report.omega, omega, atol=0.02)

    def test_translation_with_spin_round_trip_3d(self, tetra_ref):
        v = np.array([0.2, -0.1, 0.15])
        omega = np.array([0.3, 0.2, 1.0])
        cfg = ControllerConfig(
            5.0,
            translation_params(tetra_ref, v),
            rotation_params(tetra_ref, omega),
            MotionParameters.zero(6),
            ScalingSchedule.none(),
        )
        traj = integrate(tetra_ref.framework, tetra_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, tetra_ref, (0.0, 3.0))
        np.testing.assert_allclose(report.v_body, v, atol=5e-3)
        np.testing.assert_allclose(report.omega, omega, atol=0.02)

    def test_insufficient_decay_raised_for_slow_gain(self, square_ref):
        start = perturb_to_error_norm(square_ref.framework, square_ref.distances, 7, 1.5)
        traj = integrate(start, square_ref, quiet_config(square_ref, gain=0.01),
                         SimConfig(dt=1e-2, duration=3.0))
        with pytest.raises(InsufficientDecay):
            steady_state_report(traj, square_ref, (1.0, 3.0))

    def test_decay_fit_recovers_known_rate(self):
        times = np.linspace(0.0, 10.0, 400)
        norms = 2.0 * np.exp(-1.7 * times)
        rate, r_squared, decades = decay_rate_fit(times, norms)
        assert rate == pytest.approx(1.7, rel=1e-6)
        assert r_squared >= 0.999999
        assert decades >= 1.0

    def test_window_outside_trajectory_rejected(self, square_ref):
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-2, duration=1.0))
        with pytest.raises(InsufficientDecay, match="window"):
            steady_state_report(traj, square_ref, (5.0, 6.0))


class TestRunMemory:
    """A run holds its positions and errors; the rest is views and chunks."""

    # A chunk's gather holds about three temporaries of _CHUNK_ELEMENTS
    # float64 values at once.
    CHUNK_BUDGET = 4 * 8 * _CHUNK_ELEMENTS

    @pytest.fixture(scope="class")
    def traced_run(self):
        """A 2D n=128 run of at least 8 chunks, with the traced peaks of
        integrate and of the post-processing above what the run holds."""
        ref = ReferenceShape(henneberg_framework(128, 2, 3))
        rows = _CHUNK_ELEMENTS // (ref.dim * ref.graph.edge_count)
        dt = 5e-3
        sim = SimConfig(dt=dt, duration=8 * rows * dt, perturbation=Perturbation(3, 0.5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(ref.framework, ref, quiet_config(ref, gain=1.0), sim)
            held, integrate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            traj.error_norms()
            steady_state_report(traj, ref, (0.5 * sim.duration, sim.duration))
            post_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.sample_count > 8 * rows
        return traj, integrate_peak - before, post_peak - held

    def test_integrate_holds_positions_errors_and_one_chunk(self, traced_run):
        traj, integrate_peak, _ = traced_run
        assert integrate_peak <= traj.positions.nbytes + traj.errors.nbytes + self.CHUNK_BUDGET

    def test_post_processing_peaks_below_one_positions_array(self, traced_run):
        traj, _, post_peak = traced_run
        assert post_peak <= traj.positions.nbytes

    def test_distances_equal_the_scheduled_matrix(self, square_ref):
        schedule = ScalingSchedule.periodic(0.25, 1.5)
        traj = integrate(square_ref.framework, square_ref,
                         motion_config(square_ref, omega=1.0, schedule=schedule),
                         SimConfig(dt=1e-2, duration=1.0, record_stride=3))
        factors = np.array([1.0 + schedule.value(t) for t in traj.times])
        assert traj.distances.tobytes() == (factors[:, None] * square_ref.distances).tobytes()
