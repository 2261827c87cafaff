import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsim import (
    ControllerConfig,
    DegenerateAlignment,
    Divergence,
    EdgeCollapse,
    Framework,
    InsufficientDecay,
    MotionParameters,
    ReferenceShape,
    ScalingSchedule,
    SensingGraph,
    SimConfig,
    Trajectory,
    Unreachable,
    apply_perturbation,
    bundled_scenario_path,
    control_law,
    decay_rate_fit,
    integrate,
    integrate_batch,
    load_scenario,
    perturb_to_error_norm,
    rotation_params,
    scaling_params,
    steady_state_report,
    translation_params,
)
from formsim.rigidity import control_kernel
from formsim.simulate import (
    _CHUNK_ELEMENTS,
    HALF_TURN_TOL,
    _frame_rotations,
    _line_fit,
    _nearest_rotations,
    _turns,
    make_rhs,
)
from conftest import (
    SQUARE_POINTS,
    distance_errors,
    henneberg_framework,
    kabsch_rotations,
    scheduled_distances,
    time_varying_params,
    trajectory_distances,
)


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
        np.testing.assert_array_equal(traj.errors(), np.zeros((traj.sample_count, 5)))

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

    def test_error_norms_match_errors(self, square_ref):
        start = apply_perturbation(square_ref.framework, 5, 0.5)
        traj = integrate(start, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-3, duration=0.5))
        np.testing.assert_allclose(
            traj.error_norms ** 2, (traj.errors() ** 2).sum(axis=1), rtol=1e-14
        )
        assert np.array_equal(traj.error_norms, np.linalg.norm(traj.errors(), axis=1))

    def test_errors_match_per_sample_reference(self, square_ref):
        cfg = motion_config(square_ref, omega=1.0, schedule=ScalingSchedule.periodic(0.25, 1.5))
        start = apply_perturbation(square_ref.framework, 5, 0.5)
        traj = integrate(start, square_ref, cfg, SimConfig(dt=1e-3, duration=0.5, record_stride=7))
        for t, row, errors, dists in zip(traj.times, traj.positions, traj.errors(),
                                         trajectory_distances(traj)):
            d_t, _ = scheduled_distances(square_ref, cfg.schedule, t)
            assert np.array_equal(dists, d_t)
            assert np.array_equal(errors, distance_errors(Framework(square_ref.graph, 2, row), d_t))

    def test_deterministic_given_seed(self, square_ref):
        sim = SimConfig(dt=1e-3, duration=0.5)
        start = apply_perturbation(square_ref.framework, 11, 0.4)
        one = integrate(start, square_ref, quiet_config(square_ref), sim)
        two = integrate(start, square_ref, quiet_config(square_ref), sim)
        assert np.array_equal(one.positions, two.positions)
        assert np.array_equal(one.errors(), two.errors())

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


def assert_same_run(batched, single):
    for field in ("times", "positions", "scale"):
        assert np.array_equal(getattr(batched, field), getattr(single, field)), field
    assert batched.reference is single.reference
    assert np.array_equal(batched.errors(), single.errors())
    assert np.array_equal(batched.error_norms, single.error_norms)


class TestIntegrateBatch:
    def test_rows_match_single_runs_square_periodic(self, square_ref):
        cfg = motion_config(square_ref, v=(0.5, 0.3), omega=1.0,
                            schedule=ScalingSchedule.periodic(0.25, 1.5))
        sim = SimConfig(dt=1e-3, duration=1.0, record_stride=10)
        starts = [square_ref.framework, apply_perturbation(square_ref.framework, 2, 0.5),
                  apply_perturbation(square_ref.framework, 3, 1.0)]
        runs = integrate_batch(starts, square_ref, cfg, sim)
        for start, run in zip(starts, runs):
            assert np.array_equal(run.positions[0], start.positions)
            assert_same_run(run, integrate(start, square_ref, cfg, sim))

    def test_rows_match_single_runs_tetrahedron(self, tetra_ref):
        cfg = ControllerConfig(
            5.0,
            translation_params(tetra_ref, [0.2, -0.1, 0.15]),
            rotation_params(tetra_ref, [0.3, 0.2, 1.0]),
            MotionParameters.zero(6),
            ScalingSchedule.none(),
        )
        sim = SimConfig(dt=1e-3, duration=0.5, record_stride=5)
        starts = [apply_perturbation(fw, 4, 0.1)
                  for fw in (tetra_ref.framework, apply_perturbation(tetra_ref.framework, 9, 0.2))]
        runs = integrate_batch(starts, tetra_ref, cfg, sim)
        for start, run in zip(starts, runs):
            assert np.array_equal(run.positions[0], start.positions)
            assert_same_run(run, integrate(start, tetra_ref, cfg, sim))

    # Under the periodic schedule the stage arrays change at every stage,
    # and the dropped row makes make_rhs rebuild its per-batch buffers.
    @pytest.mark.parametrize("schedule", [ScalingSchedule.none(),
                                          ScalingSchedule.periodic(0.25, 1.5)],
                             ids=["flat", "periodic"])
    def test_collapsing_row_fails_alone(self, square_ref, square_graph, schedule):
        cfg = dataclasses.replace(quiet_config(square_ref), schedule=schedule)
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

    def test_diverging_row_fails_alone_periodic(self, square_ref, square_graph):
        # The far row's squared lengths overflow, so its state is NaN after
        # the first step.  It leaves the batch at the first recorded step,
        # mid-run, and make_rhs rebuilds its per-batch buffers there.
        cfg = motion_config(square_ref, v=(0.5, 0.3), omega=1.0,
                            schedule=ScalingSchedule.periodic(0.25, 1.5))
        sim = SimConfig(dt=1e-3, duration=0.5, record_stride=10)
        far = Framework.from_points(square_graph, SQUARE_POINTS * 1e300)
        starts = [apply_perturbation(square_ref.framework, 5, 0.5), far,
                  apply_perturbation(square_ref.framework, 6, 0.5)]
        runs = integrate_batch(starts, square_ref, cfg, sim)
        assert isinstance(runs[1], Divergence)
        with pytest.raises(Divergence):
            integrate(far, square_ref, cfg, sim)
        assert_same_run(runs[0], integrate(starts[0], square_ref, cfg, sim))
        assert_same_run(runs[2], integrate(starts[2], square_ref, cfg, sim))

    def test_not_finite_row_hides_no_collapse(self):
        # Two agents 1 apart close in at unit speed each; the gain is too
        # small to move any bit, so the last stage of the step from t=0.25
        # makes them coincide.  The far row is NaN from the first step on
        # and stays in the batch until the recorded last step.
        graph = SensingGraph(2, ((1, 2),))
        ref = ReferenceShape(Framework.from_points(graph, [[0.0, 0.0], [1.0, 0.0]]))
        zero = MotionParameters.zero(1)
        cfg = ControllerConfig(2.0 ** -60, MotionParameters([-1.0], [1.0]), zero, zero,
                               ScalingSchedule.none())
        sim = SimConfig(dt=0.25, duration=1.0, record_stride=4)
        far = Framework.from_points(graph, [[0.0, 0.0], [1e300, 0.0]])
        diverged, collapsed = integrate_batch([far, ref.framework], ref, cfg, sim)
        assert isinstance(diverged, Divergence)
        assert isinstance(collapsed, EdgeCollapse)
        assert "t=0.25" in str(collapsed)


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
        achieved = np.linalg.norm(distance_errors(moved, square_ref.distances))
        assert achieved == pytest.approx(target, rel=2e-3)

    def test_error_norm_targeting_far_from_the_origin(self, square_ref):
        # A displacement of length 1 rounds away next to coordinates of
        # 1e150; the search starts at the mean distance instead.
        far = ReferenceShape(Framework.from_points(square_ref.graph,
                                                   square_ref.framework.points * 1e150))
        target = 0.1 * far.distances.min()
        moved = perturb_to_error_norm(far.framework, far.distances, 7, target)
        achieved = np.linalg.norm(distance_errors(moved, far.distances))
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

    def test_later_calls_leave_earlier_results_alone(self, square_ref):
        cfg = motion_config(square_ref, v=(0.3, -0.2), omega=0.7,
                            schedule=ScalingSchedule.periodic(0.25, 1.5))
        rhs = make_rhs(square_ref, cfg)
        p = np.array([apply_perturbation(square_ref.framework, seed, 0.2).positions
                      for seed in (1, 2, 3)])
        k1 = rhs(0.0, p)
        kept = k1.tobytes()
        # Every call writes through the one layout this rhs made.
        k2 = rhs(0.5, p + 0.1 * k1)
        k3 = rhs(0.5, p + 0.1 * k2)
        assert k1.tobytes() == kept
        assert not np.shares_memory(k2, k3)

    def test_two_rhs_on_one_graph_alternate_as_they_run_alone(self, square_ref):
        cfg = motion_config(square_ref, v=(0.3, -0.2), omega=0.7,
                            schedule=ScalingSchedule.linear(0.05))
        starts = {batch: np.array([apply_perturbation(square_ref.framework, seed, 0.2).positions
                                   for seed in range(1, batch + 1)]) for batch in (1, 3)}
        times = (0.0, 0.35, 0.35, 1.2, 0.0, 2.05)

        def solo(batch):
            rhs = make_rhs(square_ref, cfg)
            return [rhs(t, starts[batch] + 0.01 * t).tobytes() for t in times]

        alone = {batch: solo(batch) for batch in starts}
        rhs = {batch: make_rhs(square_ref, cfg) for batch in starts}
        for k, t in enumerate(times):
            for batch in starts:
                assert rhs[batch](t, starts[batch] + 0.01 * t).tobytes() == alone[batch][k]


class TestRunState:
    """Nothing outside a run holds that run's state."""

    def test_threads_integrating_at_once_match_a_solo_run(self):
        scenario = load_scenario(bundled_scenario_path("square"))
        ref = scenario.reference_shape()
        cfg = scenario.controller_config()
        sim = dataclasses.replace(scenario.sim, duration=2.0)
        start = scenario.initial_framework()
        solo = integrate(start, ref, cfg, sim).positions
        runs = [None, None]

        def run(slot):
            runs[slot] = integrate(start, ref, cfg, sim).positions

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for positions in runs:
            assert positions.tobytes() == solo.tobytes()

    def test_kernel_is_unchanged_by_its_callers(self, square_ref):
        kernel = control_kernel(square_ref.graph, square_ref.dim)

        def state():
            return {name: (value, value.tobytes() if isinstance(value, np.ndarray) else None)
                    for name, value in vars(kernel).items()}

        def unchanged(before):
            after = state()
            return after.keys() == before.keys() and all(
                after[name][0] is value and after[name][1] == data
                for name, (value, data) in before.items())

        before = state()
        cfg = motion_config(square_ref, omega=0.7)
        control_law(square_ref.framework, square_ref.distances,
                    time_varying_params(cfg, 0.0), cfg.gain)
        assert unchanged(before)
        edges = square_ref.graph.edge_count
        kernel.scatter(kernel.gather(square_ref.framework.positions[None]),
                       np.ones((1, 2 * edges)))
        assert unchanged(before)
        starts = [apply_perturbation(square_ref.framework, seed, 0.2) for seed in (1, 2, 3)]
        integrate_batch(starts, square_ref, cfg, SimConfig(dt=1e-2, duration=0.2))
        assert unchanged(before)

    def test_steady_state_report_reuses_the_run_error_norms(self, square_ref, monkeypatch):
        start = perturb_to_error_norm(square_ref.framework, square_ref.distances, 7, 1.5)
        traj = integrate(start, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-2, duration=3.0))
        read = []
        errors = Trajectory.errors

        def counted(self, rows=slice(None)):
            read.append(rows)
            return errors(self, rows)

        monkeypatch.setattr(Trajectory, "errors", counted)
        report = steady_state_report(traj, (1.0, 3.0))
        assert report.lambda_fit > 0.0
        assert read == []


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


def body_points(traj, ref):
    """Centered agents of every sample (samples, n, dim), rotated onto the
    reference orientation."""
    pts = traj.positions.reshape(traj.sample_count, -1, ref.dim)
    rotations = _frame_rotations(traj.positions, ref)
    return (pts - pts.mean(axis=1, keepdims=True)) @ rotations.transpose(0, 2, 1)


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

        traj = Trajectory(times, np.array(rows), np.ones(41), square_ref)
        for pts in body_points(traj, square_ref):
            np.testing.assert_allclose(pts, SQUARE_POINTS - center, atol=1e-9)

    def test_pure_translation_freezes_body_positions(self, square_ref):
        cfg = motion_config(square_ref, v=(1.0, 0.5))
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=1.0, record_stride=20))
        body = body_points(traj, square_ref)
        for pts in body:
            np.testing.assert_allclose(pts, body[0], atol=1e-8)

    def test_pure_scaling_scales_body_norms_and_keeps_bearings(self, square_ref):
        sched = ScalingSchedule.linear(0.05)
        cfg = motion_config(square_ref, schedule=sched)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=2.0, record_stride=40))
        body = body_points(traj, square_ref)
        for pts, t in zip(body, traj.times):
            factor = 1 + sched.value(t)
            np.testing.assert_allclose(pts, factor * body[0], atol=1e-6)

    def test_collinear_shape_rejected(self, square_ref):
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]).reshape(-1)
        with pytest.raises(DegenerateAlignment):
            _frame_rotations(np.tile(collinear, (3, 1)), square_ref)


def tetra_run(tetra_ref):
    """A perturbed tetrahedron that translates, spins and breathes."""
    cfg = ControllerConfig(
        5.0,
        translation_params(tetra_ref, [0.2, -0.1, 0.15]),
        rotation_params(tetra_ref, [0.3, 0.2, 1.0]),
        scaling_params(tetra_ref, 1.0),
        ScalingSchedule.periodic(0.1, 1.0),
    )
    return integrate(apply_perturbation(tetra_ref.framework, 4, 0.05), tetra_ref, cfg,
                     SimConfig(dt=0.002, duration=6.0, record_stride=5))


def rotated_stack(ref, samples, seed):
    """samples copies of the reference shape, each turned about the
    origin, shifted and jittered by seeded draws."""
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(seed)
    if ref.dim == 2:
        angles = rng.uniform(0.0, 2.0 * np.pi, samples)
        turns = np.stack([np.stack([np.cos(angles), -np.sin(angles)], axis=1),
                          np.stack([np.sin(angles), np.cos(angles)], axis=1)], axis=1)
    else:
        turns = Rotation.random(samples, rng=rng).as_matrix()
    pts = ref.framework.points @ turns.transpose(0, 2, 1)
    pts += rng.normal(0.0, 5.0, (samples, 1, ref.dim))
    pts += rng.normal(0.0, 0.1, pts.shape)
    return pts.reshape(samples, -1)


class TestFrameRotations:
    """The stacked alignment gives the per-sample Kabsch rotations bit for bit."""

    def test_planar_run_matches_per_sample_kabsch(self):
        ref = ReferenceShape(henneberg_framework(64, 2, 3))
        cfg = motion_config(ref, v=(0.5, 0.3), omega=0.2,
                            schedule=ScalingSchedule.periodic(0.1, 1.0))
        traj = integrate(apply_perturbation(ref.framework, 1, 0.3), ref, cfg,
                         SimConfig(dt=0.01, duration=3.0))
        np.testing.assert_array_equal(_frame_rotations(traj.positions, ref),
                                      kabsch_rotations(traj.positions, ref))

    def test_tetrahedron_run_matches_per_sample_kabsch(self, tetra_ref):
        traj = tetra_run(tetra_ref)
        np.testing.assert_array_equal(_frame_rotations(traj.positions, tetra_ref),
                                      kabsch_rotations(traj.positions, tetra_ref))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_of_several_chunks_matches_per_sample_kabsch(self, dim):
        ref = ReferenceShape(henneberg_framework(50, dim, 5))
        chunk_rows = _CHUNK_ELEMENTS // (50 * dim)
        positions = rotated_stack(ref, 2 * chunk_rows + 7, 11)
        # Mirror images, whose best orthogonal fit is a reflection.
        positions.reshape(positions.shape[0], -1, dim)[::3, :, 0] *= -1.0
        rotations = _frame_rotations(positions, ref)
        np.testing.assert_array_equal(rotations, kabsch_rotations(positions, ref))
        np.testing.assert_allclose(np.linalg.det(rotations), 1.0, atol=1e-12)

    def test_one_collinear_sample_in_a_stack_is_rejected(self, square_ref):
        positions = rotated_stack(square_ref, 9, 2)
        positions[4] = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        kabsch_rotations(np.delete(positions, 4, axis=0), square_ref)
        with pytest.raises(DegenerateAlignment, match="rank deficient"):
            _frame_rotations(positions, square_ref)

    def test_tetrahedron_steady_state_matches_per_sample_rotations(self, tetra_ref):
        from scipy.spatial.transform import Rotation

        traj = tetra_run(tetra_ref)
        report = steady_state_report(traj, (2.0, 6.0))
        # The body-frame fit with one SciPy rotation per sample: slerp mid
        # frames and rotation-vector turns, then line fits of running sums.
        keep = (traj.times >= 2.0) & (traj.times <= 6.0)
        times, positions, scale = traj.times[keep], traj.positions[keep], traj.scale[keep]
        rotations = kabsch_rotations(positions, tetra_ref)
        centroids = positions.reshape(times.size, -1, 3).mean(axis=1)
        increments = np.diff(centroids, axis=0)
        rotated = np.empty_like(increments)
        turns = np.empty_like(increments)
        for j in range(increments.shape[0]):
            first = Rotation.from_matrix(rotations[j])
            second = Rotation.from_matrix(rotations[j + 1])
            rotated[j] = (first * (first.inv() * second) ** 0.5).apply(increments[j])
            step = Rotation.from_matrix(rotations[j] @ rotations[j + 1].T)
            # Each turn is weighted by its mid-sample scale factor.
            turns[j] = step.as_rotvec() * 0.5 * (scale[j] + scale[j + 1])
        fits = {}
        for name, steps in (("v", rotated), ("omega", turns)):
            path = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
            fits[name] = [_line_fit(times, path[:, axis]) for axis in range(3)]

        np.testing.assert_allclose(report.v_body, [fit[0] for fit in fits["v"]], rtol=1e-12)
        np.testing.assert_allclose(report.omega, [fit[0] for fit in fits["omega"]], rtol=1e-12)
        for name in ("v", "omega"):
            assert report.residuals[f"{name}_fit_rms"] == pytest.approx(
                max(fit[2] for fit in fits[name]), rel=1e-6)


def turning_run(ref, angle, axis=(0.0, 0.0, 1.0), samples=12):
    """The reference shape turned about its centroid by angle more at every
    sample, one sample per half time unit, about axis in space."""
    from scipy.spatial.transform import Rotation

    centered = ref.centered_points()
    turns = Rotation.from_rotvec(np.outer(np.arange(samples) * angle, axis)).as_matrix()
    turns = turns[:, :ref.dim, :ref.dim]
    positions = (centered @ turns.transpose(0, 2, 1)).reshape(samples, -1)
    return Trajectory(0.5 * np.arange(samples), positions, np.ones(samples), ref)


class TestTurns:
    """Turns and mid frames come from the frames alone, with no exponential
    map, and agree with SciPy's logarithm and slerp."""

    # Turns up to just under the half-turn refusal; the computed angle
    # may round up by about 1e-15.
    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
           angle=st.floats(0.0, np.pi - HALF_TURN_TOL - 1e-12))
    def test_turns_and_mid_frames_match_scipy(self, dim, seed, angle):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(seed)
        if dim == 2:
            # Planar frames are turns about z; their top-left blocks.
            first = Rotation.from_rotvec([0.0, 0.0, rng.uniform(-np.pi, np.pi)])
            axis = np.array([0.0, 0.0, rng.choice([-1.0, 1.0])])
        else:
            first = Rotation.random(rng=rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
        second = first * Rotation.from_rotvec(angle * axis)
        frames = np.stack([first.as_matrix(), second.as_matrix()])
        rotations = frames[:, :dim, :dim]

        turn = Rotation.from_matrix(frames[0] @ frames[1].T).as_rotvec()
        np.testing.assert_allclose(_turns(rotations, np.arange(2.0))[0],
                                   turn[2:] if dim == 2 else turn, rtol=0.0, atol=1e-12)
        mid = (first * (first.inv() * second) ** 0.5).as_matrix()[:dim, :dim]
        mids = _nearest_rotations((rotations[:1] + rotations[1:]).transpose(0, 2, 1))
        np.testing.assert_allclose(mids[0], mid, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("angle", [np.pi, np.pi - 0.5 * HALF_TURN_TOL])
    def test_half_turn_between_samples_is_refused(self, tetra_ref, angle):
        traj = turning_run(tetra_ref, angle, axis=(0.6, 0.0, 0.8))
        with pytest.raises(DegenerateAlignment, match="about half a turn"):
            steady_state_report(traj, (0.0, 6.0))

    def test_planar_turns_of_3_rad_fit_as_unwrapped_angles(self, square_ref):
        traj = turning_run(square_ref, 3.0)
        report = steady_state_report(traj, (0.0, 6.0))
        rotations = kabsch_rotations(traj.positions, square_ref)
        angles = np.unwrap(np.arctan2(rotations[:, 0, 1], rotations[:, 0, 0]))
        assert report.omega == pytest.approx(np.polyfit(traj.times, angles, 1)[0], rel=1e-12)
        assert report.omega == pytest.approx(6.0, rel=1e-12)


class TestSteadyStateReport:
    def test_equilibrium_reports_zero_motion(self, square_ref):
        traj = integrate(square_ref.framework, square_ref, quiet_config(square_ref),
                         SimConfig(dt=1e-2, duration=2.0))
        report = steady_state_report(traj, (0.0, 2.0))
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
        report = steady_state_report(traj, (0.0, 4.0))
        assert report.omega == pytest.approx(omega, rel=0.02)

    def test_translation_round_trip_in_body_frame(self, square_ref):
        v = np.array([0.5, -0.25])
        cfg = motion_config(square_ref, v=v, omega=0.7)
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=4.0, record_stride=10))
        report = steady_state_report(traj, (0.0, 4.0))
        np.testing.assert_allclose(report.v_body, v, atol=5e-3)

    def test_linear_scaling_rate_recovered(self, square_ref):
        rate = 0.04
        cfg = motion_config(square_ref, schedule=ScalingSchedule.linear(rate))
        traj = integrate(square_ref.framework, square_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, (0.0, 3.0))
        assert report.scale_rate == pytest.approx(rate, rel=1e-3)

    def test_spin_round_trip_3d(self, tetra_ref):
        omega = np.array([0.0, 0.0, 1.1])
        zero = MotionParameters.zero(6)
        cfg = ControllerConfig(5.0, zero, rotation_params(tetra_ref, omega),
                               zero, ScalingSchedule.none())
        traj = integrate(tetra_ref.framework, tetra_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, (0.0, 3.0))
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
        report = steady_state_report(traj, (0.0, 3.0))
        np.testing.assert_allclose(report.v_body, v, atol=5e-3)
        np.testing.assert_allclose(report.omega, omega, atol=0.02)

    def test_round_trip_3d_away_from_the_reference_orientation(self, tetra_ref):
        # Started on the reference orientation, the spatial and body-frame
        # spins agree; turned away from it, only the body frame gives omega.
        from scipy.spatial.transform import Rotation

        v = np.array([0.2, -0.1, 0.15])
        omega = np.array([0.3, 0.2, 1.0])
        cfg = ControllerConfig(
            5.0,
            translation_params(tetra_ref, v),
            rotation_params(tetra_ref, omega),
            MotionParameters.zero(6),
            ScalingSchedule.none(),
        )
        turn = Rotation.from_rotvec([0.9, -1.4, 0.6]).as_matrix()
        start = Framework.from_points(tetra_ref.graph,
                                      tetra_ref.centered_points() @ turn.T + [2.0, -1.0, 0.5])
        traj = integrate(start, tetra_ref, cfg,
                         SimConfig(dt=1e-3, duration=3.0, record_stride=10))
        report = steady_state_report(traj, (0.0, 3.0))
        np.testing.assert_allclose(report.v_body, v, atol=5e-3)
        np.testing.assert_allclose(report.omega, omega, atol=0.02)
        assert np.linalg.norm(turn @ omega - omega) > 0.5

    def test_insufficient_decay_raised_for_slow_gain(self, square_ref):
        start = perturb_to_error_norm(square_ref.framework, square_ref.distances, 7, 1.5)
        traj = integrate(start, square_ref, quiet_config(square_ref, gain=0.01),
                         SimConfig(dt=1e-2, duration=3.0))
        with pytest.raises(InsufficientDecay) as raised:
            decay_rate_fit(traj.times, traj.error_norms)
        # The motion fit stands; only the decay fit is missing, and why.
        report = steady_state_report(traj, (1.0, 3.0))
        assert report.lambda_fit is None and report.decay_decades is None
        assert report.note == str(raised.value)
        assert np.isfinite(report.scale_rate) and "decay_r_squared" not in report.residuals

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
            steady_state_report(traj, (5.0, 6.0))


class TestRunMemory:
    """A run holds its positions; the rest is views and chunks."""

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
        sim = SimConfig(dt=dt, duration=8 * rows * dt)
        start = apply_perturbation(ref.framework, 3, 0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(start, ref, quiet_config(ref, gain=1.0), sim)
            held, integrate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            steady_state_report(traj, (0.5 * sim.duration, sim.duration))
            post_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.sample_count > 8 * rows
        return traj, integrate_peak - before, post_peak - held

    def test_integrate_holds_positions_and_one_chunk(self, traced_run):
        traj, integrate_peak, _ = traced_run
        assert integrate_peak <= traj.positions.nbytes + self.CHUNK_BUDGET

    def test_post_processing_peaks_below_one_positions_array(self, traced_run):
        traj, _, post_peak = traced_run
        assert post_peak <= traj.positions.nbytes

    def test_distances_equal_the_scheduled_matrix(self, square_ref):
        schedule = ScalingSchedule.periodic(0.25, 1.5)
        traj = integrate(square_ref.framework, square_ref,
                         motion_config(square_ref, omega=1.0, schedule=schedule),
                         SimConfig(dt=1e-2, duration=1.0, record_stride=3))
        factors = np.array([1.0 + schedule.value(t) for t in traj.times])
        expected = factors[:, None] * square_ref.distances
        assert trajectory_distances(traj).tobytes() == expected.tobytes()
