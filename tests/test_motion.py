from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formsim import (
    DegenerateShape,
    Framework,
    MotionParameters,
    ReferenceShape,
    RigidityError,
    SensingGraph,
    Unreachable,
    induced_velocities,
    induced_velocity_matrix,
    motion_spaces,
    rotation_field,
    rotation_params,
    scaling_params,
    translation_params,
)
import formsim.motion as motion
from conftest import (
    SCALE_PATTERN,
    SPIN_PATTERN,
    SQUARE_EDGES,
    SQUARE_POINTS,
    TETRA_EDGES,
    TETRA_POINTS,
    bearing_gram,
    distance_rates,
    edge_lengths,
    henneberg_framework,
    min_norm_offsets,
    null_space,
    unit_edge_vectors,
)


def unit_calibrations(ref):
    """Translation, rotation and scaling offsets for unit targets, each
    scaled to unit norm."""
    spin = 1.0 if ref.dim == 2 else [0.0, 0.0, 1.0]
    parts = (translation_params(ref, np.eye(ref.dim)[0]), rotation_params(ref, spin),
             scaling_params(ref, 1.0))
    return [pv.stacked() / np.linalg.norm(pv.stacked()) for pv in parts]


class TestMotionParameters:
    def test_stacked_round_trip(self):
        pv = MotionParameters([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(pv.stacked(), [1.0, 2.0, 3.0, 4.0])
        again = MotionParameters.from_stacked(pv.stacked())
        np.testing.assert_array_equal(again.tail, pv.tail)
        np.testing.assert_array_equal(again.head, pv.head)

    def test_add_and_scale(self):
        a = MotionParameters([1.0], [2.0])
        b = MotionParameters([10.0], [20.0])
        total = a + b.scaled(0.5)
        np.testing.assert_array_equal(total.tail, [6.0])
        np.testing.assert_array_equal(total.head, [12.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MotionParameters([1.0, 2.0], [3.0])


class TestInducedVelocityMatrix:
    def test_identity_on_random_inputs(self, square_graph):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            units = rng.standard_normal((5, 2))
            units /= np.linalg.norm(units, axis=1)[:, None]
            stacked = rng.standard_normal(10)
            pv = MotionParameters.from_stacked(stacked)
            direct = induced_velocities(pv, square_graph, units.reshape(-1))
            via = induced_velocity_matrix(units.reshape(-1), square_graph) @ stacked
            worst = max(worst, np.linalg.norm(direct - via)
                        / max(np.linalg.norm(direct), 1e-300))
        assert worst <= 1e-12

    def test_tail_column_places_bearing_at_tail_block(self, square_framework):
        unit_vec = unit_edge_vectors(square_framework)
        mat = induced_velocity_matrix(unit_vec, square_framework.graph)
        units = unit_vec.reshape(5, 2)
        for k, (i, _) in enumerate(SQUARE_EDGES):
            column = mat[:, k].reshape(4, 2)
            np.testing.assert_array_equal(column[i - 1], units[k])
            others = np.delete(column, i - 1, axis=0)
            assert np.array_equal(others, np.zeros_like(others))

    def test_shape(self, square_framework):
        mat = induced_velocity_matrix(unit_edge_vectors(square_framework), square_framework.graph)
        assert mat.shape == (8, 10)


class TestNullSpace:
    """The SVD kernel oracle that the minimum-norm tests compare against."""

    def test_identity_has_empty_kernel(self):
        assert null_space(np.eye(3)).shape == (3, 0)

    def test_row_vector_kernel(self):
        basis = null_space(np.array([[1.0, 1.0]]))
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(basis[:, 0] - expected),
                   np.linalg.norm(basis[:, 0] + expected)) <= 1e-12

    def test_expanded_incidence_kernel_is_translations(self):
        # Vertex-by-edge incidence: +1 at each edge's tail, -1 at its head.
        tails, heads = (np.array(SQUARE_EDGES) - 1).T
        incidence = np.zeros((4, 5))
        incidence[tails, np.arange(5)] = 1.0
        incidence[heads, np.arange(5)] = -1.0
        expanded = np.kron(incidence, np.eye(2))
        basis = null_space(expanded.T)
        assert basis.shape[1] == 2
        # Every kernel vector repeats one planar displacement on all agents.
        for col in basis.T:
            blocks = col.reshape(4, 2)
            np.testing.assert_allclose(blocks, np.tile(blocks[0], (4, 1)), atol=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_kernel_annihilated(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((3, 6))
        basis = null_space(mat)
        assert basis.shape[1] == 3
        np.testing.assert_allclose(mat @ basis, 0.0, atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)


class TestReferenceShape:
    def test_distances_are_edge_lengths(self, square_ref):
        expected = [15.0, 15.0, 15.0 * np.sqrt(2.0), 15.0, 15.0]
        np.testing.assert_allclose(square_ref.distances, expected, rtol=1e-15)

    def test_rejects_flexible_shape(self):
        graph = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
        with pytest.raises(RigidityError):
            ReferenceShape(Framework.from_points(graph, SQUARE_POINTS))

    def test_rejects_collinear_shape(self, square_graph):
        points = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        with pytest.raises(RigidityError):
            ReferenceShape(Framework.from_points(square_graph, points))


class TestMotionSpaces:
    def test_dimensions_square(self, square_ref):
        # 2E - n * dim = 10 - 8 offset directions move no agent.
        assert null_space(square_ref.velocity_map).shape[1] == 2

    def test_dimensions_tetrahedron(self, tetra_ref):
        assert null_space(tetra_ref.velocity_map).shape[1] == 0

    def test_moving_bases_orthogonal_to_zero_motion(self, square_ref):
        zero = null_space(square_ref.velocity_map)
        for offsets in unit_calibrations(square_ref):
            assert np.abs(zero.T @ offsets).max() <= 1e-10

    def test_rotation_and_scaling_orthogonal_to_translation(self, square_ref):
        translations = [translation_params(square_ref, axis).stacked() for axis in np.eye(2)]
        _, rotation, scaling = unit_calibrations(square_ref)
        for trans in translations:
            assert abs(trans @ rotation) <= 1e-10
            assert abs(trans @ scaling) <= 1e-10

    def test_membership_residuals(self, square_ref):
        residuals = motion_spaces(square_ref)
        assert set(residuals) == {"translation", "rotation", "scaling"}
        assert max(residuals.values()) <= 1e-10

    def test_membership_residuals_tetrahedron(self, tetra_ref):
        assert max(motion_spaces(tetra_ref).values()) <= 1e-10

    def test_translation_moves_all_agents_equally(self, square_ref):
        translation, _, _ = unit_calibrations(square_ref)
        field = (square_ref.velocity_map @ translation).reshape(4, 2)
        np.testing.assert_allclose(field, np.tile(field[0], (4, 1)), atol=1e-9)

    def test_rotation_field_is_tangential_with_still_centroid(self, square_ref):
        _, rotation, _ = unit_calibrations(square_ref)
        field = (square_ref.velocity_map @ rotation).reshape(4, 2)
        np.testing.assert_allclose(field.mean(axis=0), 0.0, atol=1e-9)
        centered = square_ref.centered_points()
        radial = np.abs((field * centered).sum(axis=1))
        assert radial.max() <= 1e-9 * np.abs(field).max() * np.abs(centered).max()

    def test_scaling_field_is_radial_and_bearing_preserving(self, square_ref):
        _, _, scaling = unit_calibrations(square_ref)
        field = (square_ref.velocity_map @ scaling).reshape(4, 2)
        centered = square_ref.centered_points()
        cross = field[:, 0] * centered[:, 1] - field[:, 1] * centered[:, 0]
        assert np.abs(cross).max() <= 1e-9
        units = unit_edge_vectors(square_ref.framework).reshape(5, 2)
        for k, (i, j) in enumerate(SQUARE_EDGES):
            rate = field[i - 1] - field[j - 1]
            assert np.abs(rate - (rate @ units[k]) * units[k]).max() <= 1e-9

    def test_dimensions_invariant_under_rotation(self, square_graph):
        angle = 0.83
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        ref = ReferenceShape(Framework.from_points(square_graph, SQUARE_POINTS @ rot.T))
        assert null_space(ref.velocity_map).shape[1] == 2
        assert max(motion_spaces(ref).values()) <= 1e-10

    def test_spaces_invariant_under_uniform_scaling(self, square_graph, square_ref):
        ref = ReferenceShape(Framework.from_points(square_graph, 2.5 * SQUARE_POINTS))
        for mine, theirs in zip(unit_calibrations(ref), unit_calibrations(square_ref)):
            assert np.abs(mine - theirs).max() <= 1e-9

    def test_corrupted_offsets_fail_the_check(self, monkeypatch):
        # The residuals are scale-free, so the corruption must turn the
        # offsets, not shrink them: shift each column's entries by one.
        from formsim import bundled_scenario_path, load_scenario
        from formsim.checks import check_motion_spaces

        assert check_motion_spaces(load_scenario(bundled_scenario_path("square"))).passed
        solve = motion._min_norm_offsets
        monkeypatch.setattr(motion, "_min_norm_offsets",
                            lambda ref, fields: np.roll(solve(ref, fields), 1, axis=0))
        # A shape keeps its motion basis, so the corrupted solve needs a fresh one.
        result = check_motion_spaces(load_scenario(bundled_scenario_path("square")))
        assert not result.passed, result.detail


class TestCalibration:
    def test_zero_targets_give_zero_offsets(self, square_ref):
        for pv in (
            translation_params(square_ref, [0.0, 0.0]),
            rotation_params(square_ref, 0.0),
            scaling_params(square_ref, 0.0),
        ):
            assert np.abs(pv.stacked()).max() == 0.0

    def test_translation_round_trip(self, square_ref):
        target = np.array([1.2, -0.4])
        pv = translation_params(square_ref, target)
        field = induced_velocities(pv, square_ref.graph, unit_edge_vectors(square_ref.framework))
        np.testing.assert_allclose(field.reshape(4, 2), np.tile(target, (4, 1)), atol=1e-9)

    def test_translation_linearity(self, square_ref):
        one = translation_params(square_ref, [0.3, 0.7])
        two = translation_params(square_ref, [0.6, 1.4])
        np.testing.assert_allclose(two.stacked(), 2.0 * one.stacked(), atol=1e-12)

    def test_rotation_round_trip(self, square_ref):
        pv = rotation_params(square_ref, 0.8)
        field = induced_velocities(pv, square_ref.graph, unit_edge_vectors(square_ref.framework))
        expected = rotation_field(square_ref.centered_points(), 0.8)
        np.testing.assert_allclose(field, expected, atol=1e-9)

    def test_rotation_matches_spin_pattern_direction(self, square_ref):
        pv = rotation_params(square_ref, 1.0).stacked()
        cosine = abs(pv @ SPIN_PATTERN) / (np.linalg.norm(pv) * np.linalg.norm(SPIN_PATTERN))
        assert cosine >= 1.0 - 1e-12

    def test_rotation_round_trip_3d(self, tetra_ref):
        omega = np.array([0.3, -0.5, 1.0])
        pv = rotation_params(tetra_ref, omega)
        field = induced_velocities(pv, tetra_ref.graph, unit_edge_vectors(tetra_ref.framework))
        expected = rotation_field(tetra_ref.centered_points(), omega)
        np.testing.assert_allclose(field, expected, atol=1e-9)

    def test_scaling_round_trip(self, square_ref):
        rate = 0.25
        pv = scaling_params(square_ref, rate)
        rates = distance_rates(square_ref.framework, pv)
        np.testing.assert_allclose(rates, rate * square_ref.distances, atol=1e-9)

    def test_scaling_parallel_to_scale_pattern_modulo_zero_motion(self, square_ref):
        pv = scaling_params(square_ref, 1.0).stacked()
        zero = null_space(square_ref.velocity_map)
        moving_part = SCALE_PATTERN - zero @ (zero.T @ SCALE_PATTERN)
        cosine = abs(pv @ moving_part) / (np.linalg.norm(pv) * np.linalg.norm(moving_part))
        assert cosine >= 1.0 - 1e-9

    def test_unreachable_translation_raises(self, square_framework, monkeypatch):
        # Offsets that realize only half the target fail the residual gate.
        # The patch goes in before the shape's motion basis is solved.
        solve = motion._min_norm_offsets
        monkeypatch.setattr(motion, "_min_norm_offsets",
                            lambda ref, fields: 0.5 * solve(ref, fields))
        with pytest.raises(Unreachable, match="translation"):
            translation_params(ReferenceShape(square_framework), [1.0, 0.0])

    def test_scaling_is_about_the_centroid(self, square_graph):
        # An asymmetric quad: its scaling offsets move every agent
        # radially from the centroid at the growth rate.
        quad = np.array([[0.0, 0.0], [15.0, 0.0], [17.0, 14.0], [0.0, 15.0]])
        ref = ReferenceShape(Framework.from_points(square_graph, quad))
        pv = scaling_params(ref, 0.4)
        field = induced_velocities(pv, ref.graph, unit_edge_vectors(ref.framework))
        np.testing.assert_allclose(field, 0.4 * ref.centered_points().reshape(-1), atol=1e-12)
        np.testing.assert_allclose(distance_rates(ref.framework, pv), 0.4 * ref.distances,
                                   atol=1e-12)


SHARED_GEOMETRY_SHAPES = {
    "square": lambda: Framework.from_points(SensingGraph(4, SQUARE_EDGES), SQUARE_POINTS),
    "tetrahedron": lambda: Framework.from_points(SensingGraph(4, TETRA_EDGES), TETRA_POINTS),
    "henneberg-2d-64": lambda: henneberg_framework(64, 2, 3),
    "henneberg-3d-32": lambda: henneberg_framework(32, 3, 3),
}


class TestSharedGeometry:
    """The reference shape's edge geometry, built once, has the bits of
    the oracles that build it per call from the graph's edge list."""

    @pytest.mark.parametrize("shape", SHARED_GEOMETRY_SHAPES)
    def test_matches_the_per_call_oracle_bit_for_bit(self, shape, monkeypatch):
        fw = SHARED_GEOMETRY_SHAPES[shape]()
        ref = ReferenceShape(fw)
        assert np.array_equal(ref.distances, edge_lengths(fw))
        assert np.array_equal(ref.units[0].T, unit_edge_vectors(fw))
        assert np.array_equal(ref.bearing_gram, bearing_gram(fw))
        assert not (ref.units.flags.writeable or ref.bearing_gram.flags.writeable)

        def parts(ref):
            v = np.array([0.5, -0.2, 0.1])[:ref.dim]
            omega = 0.7 if ref.dim == 2 else np.array([0.3, 0.2, 1.0])
            return [pv.stacked() for pv in (translation_params(ref, v),
                                            rotation_params(ref, omega),
                                            scaling_params(ref, 1.0))]

        calibrated = parts(ref)
        monkeypatch.setattr(motion, "_min_norm_offsets", min_norm_offsets)
        for mine, oracle in zip(calibrated, parts(ReferenceShape(fw))):
            assert np.array_equal(mine, oracle)


def _frameworks(dims=(2, 3)):
    return st.builds(henneberg_framework, st.integers(4, 12), st.sampled_from(dims),
                     st.integers(0, 2**32 - 1))


class TestMotionBasis:
    @given(_frameworks())
    # A nearly flat tetrahedron: its first solve misses on several
    # generator columns, and the corrective solve has to recover them.
    @example(henneberg_framework(4, 3, 304721655))
    @settings(max_examples=40, deadline=None)
    def test_every_part_is_a_combination_of_one_basis(self, fw):
        ref = ReferenceShape(fw)
        dim, n = ref.dim, ref.graph.vertex_count
        v = np.arange(1.0, dim + 1.0)
        omega = 0.7 if dim == 2 else np.array([0.3, -0.5, 1.0])
        spins = np.reshape(omega, -1)
        basis = ref.motion_basis
        assert basis.shape == (2 * ref.graph.edge_count, dim + spins.size + 1)
        assert not basis.flags.writeable
        cases = [
            (translation_params(ref, v), 0, v, np.tile(v, n)),
            (rotation_params(ref, omega), dim, spins,
             rotation_field(ref.centered_points(), omega)),
            (scaling_params(ref, 0.4), dim + spins.size, [0.4],
             0.4 * ref.centered_points().reshape(-1)),
        ]
        for pv, first, weights, target in cases:
            combined = np.zeros(basis.shape[0])
            for column, weight in enumerate(weights, first):
                combined += weight * basis[:, column]
            assert np.array_equal(pv.stacked(), combined)
            mismatch = np.linalg.norm(ref.velocity_map @ pv.stacked() - target)
            assert mismatch <= motion.CALIBRATION_TOL * max(1.0, np.linalg.norm(target))
        # motion_spaces solves nothing: it reads the basis the parts read.
        with mock.patch.object(motion, "_min_norm_offsets",
                               side_effect=AssertionError("solved again")):
            assert max(motion_spaces(ref).values()) <= 1e-9
        assert ref.motion_basis is basis


class TestMinimumNormOffsets:
    @given(_frameworks())
    # A nearly flat tetrahedron: the first per-agent solve misses the
    # calibration gate and the corrective solve has to recover it.
    @example(henneberg_framework(4, 3, 304721655))
    @settings(max_examples=40, deadline=None)
    def test_design_is_exact_and_minimum_norm(self, fw):
        ref = ReferenceShape(fw)
        dim, n = ref.dim, ref.graph.vertex_count
        v = np.arange(1.0, dim + 1.0)
        omega = 0.7 if dim == 2 else np.array([0.3, -0.5, 1.0])
        fields = {
            "translation": (translation_params(ref, v), np.tile(v, n)),
            "rotation": (rotation_params(ref, omega),
                         rotation_field(ref.centered_points(), omega)),
            "scaling": (scaling_params(ref, 1.0), ref.centered_points().reshape(-1)),
        }
        kernel = null_space(ref.velocity_map)
        assert kernel.shape[1] == 2 * ref.graph.edge_count - n * dim
        for name, (pv, target) in fields.items():
            offsets = pv.stacked()
            mismatch = np.linalg.norm(ref.velocity_map @ offsets - target)
            assert mismatch <= 1e-9 * max(1.0, np.linalg.norm(target)), name
            # Minimum norm: nothing in the offsets lies in the kernel.
            assert np.linalg.norm(kernel.T @ offsets) <= 1e-9 * np.linalg.norm(offsets), name
        assert max(motion_spaces(ref).values()) <= 1e-9

    def test_nearly_flat_tetrahedron_passes_motion_spaces_check(self):
        # The first solve misses the membership tolerance on several
        # generator columns; the corrective solve brings them to rounding.
        import json

        from formsim import parse_scenario
        from formsim.checks import check_motion_spaces

        fw = henneberg_framework(4, 3, 304721655)
        scenario = parse_scenario(json.dumps({
            "dimension": 3,
            "edges": [list(edge) for edge in fw.graph.edges],
            "reference_positions": fw.points.tolist(),
            "gain": 1.0,
            "targets": {"v_body": [0.0, 0.0, 0.0], "omega": [0.0, 0.0, 0.0],
                        "schedule": {"kind": "none"}},
            "sim": {"dt": 0.01, "duration": 1.0},
        }))
        result = check_motion_spaces(scenario)
        assert result.passed, result.detail

    def test_triangle_in_space_is_degenerate(self):
        # Minimally rigid, but each agent sees only two bearings in R^3.
        graph = SensingGraph(3, ((1, 2), (2, 3), (3, 1)))
        ref = ReferenceShape(Framework.from_points(graph, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        for calibrate in (lambda: translation_params(ref, [0.0, 0.0, 1.0]),
                          lambda: motion_spaces(ref)):
            with pytest.raises(DegenerateShape, match="agent 1 "):
                calibrate()
