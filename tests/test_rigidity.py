import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsim import (
    Framework,
    SensingGraph,
    ZeroEdge,
    bearing_rigidity_matrix,
    bearings,
    edge_lengths,
    edge_vectors,
    rigidity_matrix,
    rigidity_report,
    unit_edge_vectors,
)
from conftest import SQUARE_EDGES, SQUARE_POINTS, henneberg_framework, random_planar_framework


class TestSensingGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SensingGraph(2, ((1, 1),))

    def test_rejects_duplicate_in_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            SensingGraph(3, ((1, 2), (2, 1), (2, 3)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            SensingGraph(4, ((1, 2), (3, 4)))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            SensingGraph(3, ((1, 5), (1, 2), (2, 3)))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            SensingGraph(1, ())


class TestRelativePositions:
    def test_unit_segment(self):
        graph = SensingGraph(2, ((1, 2),))
        fw = Framework.from_points(graph, [[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(edge_vectors(fw), [[-1.0, 0.0]])

    def test_square_lengths(self, square_framework):
        lengths = edge_lengths(square_framework)
        expected = np.array([15.0, 15.0, 15.0 * np.sqrt(2.0), 15.0, 15.0])
        np.testing.assert_allclose(lengths, expected, rtol=1e-15)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, dx, dy):
        graph = SensingGraph(4, SQUARE_EDGES)
        base = Framework.from_points(graph, SQUARE_POINTS)
        moved = Framework.from_points(graph, SQUARE_POINTS + np.array([dx, dy]))
        np.testing.assert_allclose(
            edge_vectors(moved), edge_vectors(base), atol=1e-12
        )


class TestRigidityMatrix:
    def test_square_rank(self, square_framework):
        sigma = np.linalg.svd(rigidity_matrix(square_framework), compute_uv=False)
        assert np.sum(sigma > 1e-9 * sigma[0]) == 5

    def test_collinear_rank_deficient(self, square_graph):
        fw = Framework.from_points(
            square_graph, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        )
        sigma = np.linalg.svd(rigidity_matrix(fw), compute_uv=False)
        assert np.sum(sigma > 1e-9 * sigma[0]) < 5

    def test_translations_in_kernel(self, square_framework):
        rig = rigidity_matrix(square_framework)
        for shift in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, -3.0])):
            motion = np.tile(shift, 4)
            np.testing.assert_allclose(rig @ motion, 0.0, atol=1e-12)

    def test_matches_squared_length_jacobian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            fw = random_planar_framework(rng)
            analytic = 2.0 * rigidity_matrix(fw)
            h = 1e-6
            fd = np.empty_like(analytic)
            for col in range(fw.positions.size):
                plus = fw.positions.copy()
                plus[col] += h
                minus = fw.positions.copy()
                minus[col] -= h
                f_plus = edge_lengths(Framework(fw.graph, fw.dim, plus)) ** 2
                f_minus = edge_lengths(Framework(fw.graph, fw.dim, minus)) ** 2
                fd[:, col] = (f_plus - f_minus) / (2.0 * h)
            err = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert err <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_edge_loop(self, dim):
        fw = henneberg_framework(9, dim, 5)
        vecs = edge_vectors(fw)
        expected = np.zeros((fw.graph.edge_count, fw.positions.size))
        for k, (i, j) in enumerate(fw.graph.edges):
            expected[k, (i - 1) * dim:i * dim] = vecs[k]
            expected[k, (j - 1) * dim:j * dim] = -vecs[k]
        assert np.array_equal(rigidity_matrix(fw), expected)


class TestBearings:
    def test_three_four_five(self):
        graph = SensingGraph(2, ((1, 2),))
        fw = Framework.from_points(graph, [[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(bearings(fw), [0.6, 0.8], rtol=1e-15)

    def test_scale_invariance(self, square_graph, square_framework):
        scaled = Framework.from_points(square_graph, 3.7 * SQUARE_POINTS)
        np.testing.assert_allclose(
            bearings(scaled), bearings(square_framework), atol=1e-14
        )

    def test_square_diagonal_bearing(self, square_framework):
        diag = bearings(square_framework).reshape(5, 2)[2]
        np.testing.assert_allclose(diag, [1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-15)

    def test_coincident_agents_rejected(self, square_graph):
        fw = Framework.from_points(
            square_graph, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        )
        with pytest.raises(ZeroEdge):
            bearings(fw)


class TestBearingRigidityMatrix:
    def test_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            fw = random_planar_framework(rng)
            analytic = bearing_rigidity_matrix(fw)
            h = 1e-6
            fd = np.empty_like(analytic)
            for col in range(fw.positions.size):
                plus = fw.positions.copy()
                plus[col] += h
                minus = fw.positions.copy()
                minus[col] -= h
                b_plus = bearings(Framework(fw.graph, fw.dim, plus))
                b_minus = bearings(Framework(fw.graph, fw.dim, minus))
                fd[:, col] = (b_plus - b_minus) / (2.0 * h)
            worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic))
        assert worst <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_edge_loop(self, dim):
        fw = henneberg_framework(9, dim, 5)
        units, lengths = unit_edge_vectors(fw), edge_lengths(fw)
        expected = np.zeros((fw.graph.edge_count * dim, fw.positions.size))
        for k, (i, j) in enumerate(fw.graph.edges):
            block = (np.eye(dim) - np.outer(units[k], units[k])) / lengths[k]
            expected[k * dim:(k + 1) * dim, (i - 1) * dim:i * dim] = block
            expected[k * dim:(k + 1) * dim, (j - 1) * dim:j * dim] = -block
        assert np.array_equal(bearing_rigidity_matrix(fw), expected)

    def test_translations_in_kernel(self, square_framework):
        jac = bearing_rigidity_matrix(square_framework)
        motion = np.tile([2.5, -1.0], 4)
        np.testing.assert_allclose(jac @ motion, 0.0, atol=1e-12)

    def test_scaling_direction_in_kernel(self, square_framework):
        jac = bearing_rigidity_matrix(square_framework)
        centered = (square_framework.points - square_framework.points.mean(axis=0)).reshape(-1)
        np.testing.assert_allclose(jac @ centered, 0.0, atol=1e-12)


def edge_projector(x):
    """Bearing rigidity block at the tail of the edge x, times its length:
    the projector onto the hyperplane orthogonal to x."""
    x = np.asarray(x, dtype=float)
    fw = Framework.from_points(SensingGraph(2, ((1, 2),)), [x, np.zeros_like(x)])
    return np.linalg.norm(x) * bearing_rigidity_matrix(fw)[:, :x.size]


class TestOrthogonalProjector:
    def test_axis_vector(self):
        np.testing.assert_allclose(
            edge_projector([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15
        )

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_symmetric_annihilating(self, coords):
        x = np.array(coords)
        if np.linalg.norm(x) < 1e-6:
            return
        proj = edge_projector(x)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj, proj.T, atol=1e-15)
        np.testing.assert_allclose(proj @ x, 0.0, atol=1e-9 * np.linalg.norm(x))

    def test_rank_is_dim_minus_one(self):
        proj = edge_projector([1.0, 2.0, -3.0])
        assert np.linalg.matrix_rank(proj) == 2

    def test_fixes_orthogonal_vectors(self):
        proj = edge_projector([1.0, 1.0])
        y = np.array([1.0, -1.0])
        np.testing.assert_allclose(proj @ y, y, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroEdge):
            edge_projector([0.0, 0.0])


class TestRigidityReport:
    def test_square_with_diagonal(self, square_framework):
        report = rigidity_report(square_framework)
        assert report.rank_rigidity == 5
        assert report.is_infinitesimally_rigid
        assert report.is_minimally_rigid
        assert report.bearing_kernel_dim == 3
        assert report.is_bearing_rigid

    def test_square_without_diagonal_flexes(self):
        graph = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
        fw = Framework.from_points(graph, SQUARE_POINTS)
        report = rigidity_report(fw)
        assert report.rank_rigidity == 4
        assert not report.is_infinitesimally_rigid
        assert not report.is_minimally_rigid

    def test_tetrahedron(self, tetra_framework):
        report = rigidity_report(tetra_framework)
        assert report.rank_rigidity == 6
        assert report.is_minimally_rigid
        assert report.bearing_kernel_dim == 4
        assert report.is_bearing_rigid

    def test_collinear_reported_not_rigid_without_error(self, square_graph):
        fw = Framework.from_points(
            square_graph, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        )
        assert not rigidity_report(fw).is_infinitesimally_rigid

    def test_rank_invariant_under_rotation(self, square_graph):
        rng = np.random.default_rng(5)
        for _ in range(5):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            fw = Framework.from_points(square_graph, SQUARE_POINTS @ rot.T)
            assert rigidity_report(fw).rank_rigidity == 5

    def test_tolerance_override(self, square_framework):
        # An absurdly large cutoff discards every singular value.
        report = rigidity_report(square_framework, tol=10.0)
        assert report.rank_rigidity == 0
        assert not report.is_infinitesimally_rigid

    def test_two_agent_segment(self):
        graph = SensingGraph(2, ((1, 2),))
        fw = Framework.from_points(graph, [[0.0, 0.0], [1.0, 0.0]])
        report = rigidity_report(fw)
        assert report.rank_rigidity == 1  # 2n - 3
        assert report.is_minimally_rigid
        assert report.bearing_kernel_dim == 3
        assert report.is_bearing_rigid
