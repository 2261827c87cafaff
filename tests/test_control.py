import numpy as np
import pytest

from formsim import (
    ControllerConfig,
    Framework,
    MotionParameters,
    PositivityError,
    ScalingSchedule,
    control_law,
    rotation_params,
    scaling_params,
    translation_params,
)
from conftest import (
    SQUARE_POINTS,
    distance_errors,
    elastic_potential,
    integrate_positions,
    run_errors,
    scheduled_distances,
    stiffness_matrix,
    time_varying_params,
    unit_edge_vectors,
)


def full_config(ref, gain=5.0, v=(0.0, 0.0), omega=1.0,
                schedule=ScalingSchedule.periodic(0.25, 1.5)):
    return ControllerConfig(
        gain=gain,
        translation_part=translation_params(ref, v),
        rotation_part=rotation_params(ref, omega),
        scaling_part=scaling_params(ref, 1.0),
        schedule=schedule,
    )


def error_rates(fw, d_t, ddot_t, pv, gain):
    """Distance-error rates under control_law: u_k . (v_tail - v_head) - d'_k."""
    vel = control_law(fw, d_t, pv, gain).reshape(-1, fw.dim)
    tails, heads = (np.array(fw.graph.edges) - 1).T
    return (unit_edge_vectors(fw) * (vel[tails] - vel[heads])).sum(axis=1) - ddot_t


class TestScalingSchedule:
    def test_all_kinds_start_at_zero(self):
        for sched in (ScalingSchedule.none(), ScalingSchedule.linear(0.3),
                      ScalingSchedule.periodic(0.25, 1.5)):
            assert sched.value(0.0) == 0.0

    def test_none_is_flat(self):
        sched = ScalingSchedule.none()
        assert sched.value(7.3) == 0.0
        assert sched.value_rate(7.3) == 0.0
        assert sched.min_scale_factor(100.0) == 1.0

    def test_linear_rate(self):
        sched = ScalingSchedule.linear(0.1)
        assert sched.value(3.0) == pytest.approx(0.3)
        assert sched.value_rate(3.0) == 0.1

    def test_periodic_swings_twice_the_amplitude(self):
        h, freq = 0.2, 1.5
        sched = ScalingSchedule.periodic(h, freq)
        t = 0.77
        assert sched.value(t) == pytest.approx(2 * h * np.sin(freq * t))
        assert sched.value_rate(t) == pytest.approx(2 * h * freq * np.cos(freq * t))

    def test_min_scale_factor_periodic(self):
        sched = ScalingSchedule.periodic(0.25, 1.5)
        # Full period reaches the trough.
        assert sched.min_scale_factor(10.0) == pytest.approx(0.5)
        # A horizon ending past pi but before the trough stays higher,
        # bottoming out at the end of the horizon.
        phase_end = 4.0
        assert sched.min_scale_factor(phase_end / 1.5) == pytest.approx(
            1 + 0.5 * np.sin(phase_end), rel=1e-12
        )
        # A horizon that never leaves the rising arc keeps the start value.
        assert sched.min_scale_factor(0.5) == pytest.approx(1.0)

    def test_min_scale_factor_of_a_huge_phase_returns(self):
        # A phase of 3e300 holds too many crests to list one by one.
        for amplitude in (0.25, -0.25):
            assert ScalingSchedule.periodic(amplitude, 1e300).min_scale_factor(3.0) == 0.5

    def test_min_scale_factor_shrinking_linear(self):
        assert ScalingSchedule.linear(-0.05).min_scale_factor(10.0) == pytest.approx(0.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule("quadratic")


class TestScheduledDistances:
    def test_none_holds_reference(self, square_ref):
        d_t, rate = scheduled_distances(square_ref, ScalingSchedule.none(), 12.0)
        np.testing.assert_array_equal(d_t, square_ref.distances)
        np.testing.assert_array_equal(rate, np.zeros(5))

    def test_periodic_profile(self, square_ref):
        h, freq = 0.25, 1.5
        sched = ScalingSchedule.periodic(h, freq)
        t = 1.3
        d_t, rate = scheduled_distances(square_ref, sched, t)
        np.testing.assert_allclose(
            d_t, square_ref.distances * (1 + 2 * h * np.sin(freq * t)), rtol=1e-15
        )
        np.testing.assert_allclose(
            rate, square_ref.distances * 2 * h * freq * np.cos(freq * t), rtol=1e-15
        )

    def test_linear_profile(self, square_ref):
        sched = ScalingSchedule.linear(0.05)
        d_t, rate = scheduled_distances(square_ref, sched, 4.0)
        np.testing.assert_allclose(d_t, 1.2 * square_ref.distances, rtol=1e-15)
        np.testing.assert_allclose(rate, 0.05 * square_ref.distances, rtol=1e-15)

    def test_nonpositive_distance_rejected(self, square_ref):
        sched = ScalingSchedule.linear(-0.2)
        with pytest.raises(PositivityError):
            scheduled_distances(square_ref, sched, 6.0)


class TestTimeVaryingParams:
    def test_flat_schedule_keeps_params_constant(self, square_ref):
        cfg = full_config(square_ref, schedule=ScalingSchedule.none())
        first = time_varying_params(cfg, 0.0).stacked()
        later = time_varying_params(cfg, 9.0).stacked()
        np.testing.assert_array_equal(first, later)

    def test_scaling_part_vanishes_at_cosine_zero(self, square_ref):
        cfg = full_config(square_ref)
        t_quarter = np.pi / (2 * 1.5)  # cos(1.5 t) = 0
        pv = time_varying_params(cfg, t_quarter).stacked()
        motion_only = (cfg.translation_part + cfg.rotation_part).stacked()
        np.testing.assert_allclose(pv, motion_only, atol=1e-12)

    def test_scaling_part_scaled_by_rate(self, square_ref):
        cfg = full_config(square_ref)
        t = 0.4
        rate = cfg.schedule.value_rate(t)
        pv = time_varying_params(cfg, t).stacked()
        expected = (cfg.translation_part + cfg.rotation_part).stacked() \
            + rate * cfg.scaling_part.stacked()
        np.testing.assert_allclose(pv, expected, rtol=1e-15)

    def test_gain_must_be_positive(self, square_ref):
        with pytest.raises(ValueError):
            full_config(square_ref, gain=0.0)


class TestDistanceErrors:
    def test_zero_at_reference(self, square_ref):
        e = distance_errors(square_ref.framework, square_ref.distances)
        np.testing.assert_array_equal(e, np.zeros(5))

    def test_zero_when_scaled_with_matching_schedule(self, square_ref, square_graph):
        s = 0.3
        scaled_fw = Framework.from_points(square_graph, (1 + s) * SQUARE_POINTS)
        e = distance_errors(scaled_fw, (1 + s) * square_ref.distances)
        np.testing.assert_allclose(e, 0.0, atol=1e-12)

    def test_potential_is_half_squared_norm(self, square_graph, square_ref):
        fw = Framework.from_points(square_graph, SQUARE_POINTS * 1.1)
        e = distance_errors(fw, square_ref.distances)
        assert elastic_potential(fw, square_ref.distances) == pytest.approx(0.5 * e @ e)

    def test_nonpositive_target_distances_rejected(self, square_ref):
        bad = square_ref.distances.copy()
        bad[2] = 0.0
        with pytest.raises(PositivityError):
            distance_errors(square_ref.framework, bad)


class TestControlLaw:
    def test_equilibrium_is_fixed_point(self, square_ref):
        u = control_law(square_ref.framework, square_ref.distances,
                        MotionParameters.zero(5), 5.0)
        np.testing.assert_array_equal(u, np.zeros(8))

    def test_translation_offsets_give_common_velocity(self, square_ref):
        target = np.array([0.7, -0.2])
        pv = translation_params(square_ref, target)
        u = control_law(square_ref.framework, square_ref.distances, pv, 5.0)
        np.testing.assert_allclose(u.reshape(4, 2), np.tile(target, (4, 1)), atol=1e-9)

    def test_gradient_term_matches_finite_differences(self, square_ref):
        rng = np.random.default_rng(99)
        graph = square_ref.graph
        zero = MotionParameters.zero(5)
        worst = 0.0
        for _ in range(100):
            p = square_ref.framework.positions + rng.uniform(-3.0, 3.0, 8)
            fw = Framework(graph, 2, p)
            analytic = -control_law(fw, square_ref.distances, zero, 1.0)
            fd = np.empty(8)
            h = 1e-5
            for i in range(8):
                plus = p.copy()
                plus[i] += h
                minus = p.copy()
                minus[i] -= h
                fd[i] = (
                    elastic_potential(Framework(graph, 2, plus), square_ref.distances)
                    - elastic_potential(Framework(graph, 2, minus), square_ref.distances)
                ) / (2 * h)
            worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
        assert worst <= 1e-6

    def test_matches_per_edge_loop(self, square_ref):
        rng = np.random.default_rng(5)
        pv = MotionParameters(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        pts = SQUARE_POINTS + rng.uniform(-2.0, 2.0, SQUARE_POINTS.shape)
        fw = Framework.from_points(square_ref.graph, pts)
        d_t = 1.2 * square_ref.distances
        expected = np.zeros_like(pts)
        for k, (i, j) in enumerate(square_ref.graph.edges):
            vec = pts[i - 1] - pts[j - 1]
            length = np.linalg.norm(vec)
            unit = vec / length
            expected[i - 1] += (pv.tail[k] - 5.0 * (length - d_t[k])) * unit
            expected[j - 1] += (pv.head[k] + 5.0 * (length - d_t[k])) * unit
        u = control_law(fw, d_t, pv, 5.0)
        np.testing.assert_allclose(u, expected.reshape(-1), rtol=1e-13, atol=1e-13)

    def test_agent_block_depends_only_on_incident_edges(self, square_ref):
        rng = np.random.default_rng(3)
        pv = MotionParameters(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        base = control_law(square_ref.framework, square_ref.distances, pv, 5.0)
        # Agent 2 shares no edge with agent 4, so moving agent 4 must
        # leave agent 2's command bit-identical.
        moved_pts = SQUARE_POINTS.copy()
        moved_pts[3] += [2.0, -1.0]
        moved = Framework.from_points(square_ref.graph, moved_pts)
        after = control_law(moved, square_ref.distances, pv, 5.0)
        np.testing.assert_array_equal(base[2:4], after[2:4])


class TestErrorDynamics:
    def test_invariant_at_zero_error_with_calibrated_offsets(self, square_ref):
        cfg = full_config(square_ref)
        t = 0.9
        # Scale the framework to match the schedule, keeping zero error.
        factor = 1 + cfg.schedule.value(t)
        fw = Framework.from_points(square_ref.graph, factor * SQUARE_POINTS)
        d_t, ddot = scheduled_distances(square_ref, cfg.schedule, t)
        e = distance_errors(fw, d_t)
        np.testing.assert_allclose(e, 0.0, atol=1e-12)
        rhs = error_rates(fw, d_t, ddot, time_varying_params(cfg, t), cfg.gain)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-9)

    def test_pure_gradient_form(self, square_ref):
        rng = np.random.default_rng(8)
        p = square_ref.framework.positions + rng.uniform(-1.0, 1.0, 8)
        fw = Framework(square_ref.graph, 2, p)
        e = distance_errors(fw, square_ref.distances)
        gain = 4.0
        rhs = error_rates(fw, square_ref.distances, np.zeros(5), MotionParameters.zero(5), gain)
        expected = -gain * stiffness_matrix(fw) @ e
        np.testing.assert_allclose(rhs, expected, atol=1e-12)

    def test_matches_error_derivative_along_simulation(self, square_ref):
        from formsim import SimConfig

        cfg = full_config(square_ref, schedule=ScalingSchedule.none())
        start = Framework(square_ref.graph, 2,
                          square_ref.framework.positions
                          + np.array([0.2, -0.1, 0.1, 0.15, -0.2, 0.1, 0.05, -0.1]))
        dt = 1e-4
        traj, positions = integrate_positions(start, square_ref, cfg,
                                              SimConfig(dt=dt, duration=0.02))
        errors = run_errors(traj, positions)
        for j in (50, 100, 150):
            fw = Framework(square_ref.graph, 2, positions[j])
            t = traj.times[j]
            d_t, ddot = scheduled_distances(square_ref, cfg.schedule, t)
            rhs = error_rates(fw, d_t, ddot, time_varying_params(cfg, t), cfg.gain)
            fd = (errors[j + 1] - errors[j - 1]) / (2 * dt)
            assert np.abs(rhs - fd).max() <= 1e-5

    def test_stiffness_positive_definite_at_reference(self, square_ref):
        q = stiffness_matrix(square_ref.framework)
        np.testing.assert_allclose(q, q.T, atol=1e-14)
        assert np.linalg.eigvalsh(q).min() > 0.1


class TestEnergyDecay:
    def test_potential_non_increasing_without_offsets(self, square_ref):
        from formsim import SimConfig

        cfg = ControllerConfig(
            gain=3.0,
            translation_part=MotionParameters.zero(5),
            rotation_part=MotionParameters.zero(5),
            scaling_part=MotionParameters.zero(5),
            schedule=ScalingSchedule.none(),
        )
        rng = np.random.default_rng(17)
        start = Framework(square_ref.graph, 2,
                          square_ref.framework.positions + rng.uniform(-1.5, 1.5, 8))
        traj, positions = integrate_positions(start, square_ref, cfg,
                                              SimConfig(dt=1e-3, duration=3.0))
        errors = run_errors(traj, positions)
        diffs = np.diff(0.5 * (errors * errors).sum(axis=1))
        assert diffs.max() <= 1e-12
