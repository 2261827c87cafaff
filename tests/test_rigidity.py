import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsim import (
    Framework,
    ReferenceShape,
    RigidityError,
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
import formsim.rigidity
from formsim.rigidity import (
    RANK_CERTIFICATE_MARGIN,
    _invert_upper_in_place,
    certifies_full_row_rank,
    control_kernel,
    numerical_rank,
    rigidity_rank,
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


class TestControlKernel:
    """The kernel's gather and scatter against the edge-by-edge oracles."""

    @pytest.mark.parametrize("n, dim, seed", [(64, 2, 3), (24, 3, 5)])
    def test_lengths_match_edge_vector_norms(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        rng = np.random.default_rng(seed)
        rows = fw.positions + rng.normal(0.0, 1.0, (7, fw.positions.size))
        lengths = control_kernel(fw.graph, dim).lengths(rows)
        for row, got in zip(rows, lengths):
            oracle = np.linalg.norm(edge_vectors(Framework(fw.graph, dim, row)), axis=1)
            assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("n, dim, seed", [(64, 2, 3), (24, 3, 5)])
    def test_shared_units_scatter_matches_add_at(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        kernel = control_kernel(fw.graph, dim)
        units = unit_edge_vectors(fw)
        offsets = np.random.default_rng(seed).standard_normal((4, 2 * fw.graph.edge_count))
        got = kernel.scatter(units.T[None], offsets)
        for row, weights in zip(got, offsets):
            oracle = np.zeros((n, dim))
            np.add.at(oracle, kernel.tails, weights[:units.shape[0], None] * units)
            np.add.at(oracle, kernel.heads, weights[units.shape[0]:, None] * units)
            assert np.array_equal(row, oracle.reshape(-1))


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


def default_cutoff(fw):
    """rigidity_report's default relative singular-value cutoff."""
    return max(fw.graph.vertex_count, fw.graph.edge_count) * fw.dim * np.finfo(float).eps


CERTIFIED_SHAPES = {
    **{f"plane-n{n}-seed{seed}": (n, 2, seed) for n in (8, 64, 256) for seed in (1, 2, 3)},
    **{f"space-n{n}-seed{seed}": (n, 3, seed) for n in (8, 64, 128) for seed in (1, 2, 3)},
    "flat-tetrahedron": (4, 3, 304721655),
}


class TestRankCertificate:
    @pytest.mark.parametrize("size", [1, 5, 64, 65, 200])
    def test_inverts_the_upper_triangle_in_place(self, size):
        rng = np.random.default_rng(size)
        full = rng.standard_normal((size, size)) + 4.0 * np.eye(size)
        expected = np.linalg.inv(np.triu(full))
        tri = np.asfortranarray(full)
        _invert_upper_in_place(tri, np.empty(size * size // 4 + 1))
        np.testing.assert_allclose(tri, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("n, dim, seed", CERTIFIED_SHAPES.values(), ids=CERTIFIED_SHAPES)
    def test_henneberg_shapes_certify_to_the_svd_count(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        assert certifies_full_row_rank(fw, default_cutoff(fw))
        assert numerical_rank(rigidity_matrix(fw), default_cutoff(fw)) == fw.graph.edge_count
        assert rigidity_rank(fw) == fw.graph.edge_count

    def test_small_shapes_certify_to_the_svd_count(self, square_graph, tetra_framework):
        shapes = [tetra_framework]
        for angle in np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 5):
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            shapes.append(Framework.from_points(square_graph, SQUARE_POINTS @ rot.T))
        for fw in shapes:
            assert certifies_full_row_rank(fw, default_cutoff(fw))
            assert numerical_rank(rigidity_matrix(fw), default_cutoff(fw)) == fw.graph.edge_count

    # The nearly collinear square's sigma_min / sigma_max is about 2e-13:
    # the SVD counts it, but it is within the certificate's margin.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edges, points, rank", [
        (((1, 2), (2, 3), (3, 4), (4, 1)), SQUARE_POINTS, 4),
        (SQUARE_EDGES + ((2, 4),), SQUARE_POINTS, 5),
        (SQUARE_EDGES, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], 3),
        (SQUARE_EDGES, [[0.0, 0.0], [1.0, 0.0], [2.0, 1e-12], [0.0, 1.0]], 5),
    ], ids=["flexible", "over-braced", "collinear", "nearly-collinear"])
    def test_uncertified_shapes_take_the_svd_rank(self, edges, points, rank):
        fw = Framework.from_points(SensingGraph(4, edges), points)
        cutoff, ecount = default_cutoff(fw), fw.graph.edge_count
        if ecount == 5:
            assert not certifies_full_row_rank(fw, cutoff)
        assert numerical_rank(rigidity_matrix(fw), cutoff) == rank
        assert rigidity_rank(fw) == rank
        if rank == ecount == 5:
            sigma = np.linalg.svd(rigidity_matrix(fw), compute_uv=False)
            assert cutoff < sigma[-1] / sigma[0] < RANK_CERTIFICATE_MARGIN * cutoff
            ReferenceShape(fw)
        else:
            with pytest.raises(RigidityError) as info:
                ReferenceShape(fw)
            assert str(info.value) == (f"reference shape is not minimally rigid "
                                       f"(rank {rank}, {ecount} edges, target 5)")

    def test_certified_shape_takes_no_svd_of_the_rigidity_matrix(self, monkeypatch):
        fw = henneberg_framework(256, 2, 1)
        shape = (fw.graph.edge_count, fw.positions.size)
        original = formsim.rigidity.numerical_rank

        def refuse(matrix, rel_tol):
            assert matrix.shape != shape, "SVD of the rigidity matrix"
            return original(matrix, rel_tol)

        monkeypatch.setattr(formsim.rigidity, "numerical_rank", refuse)
        ReferenceShape(fw)
        assert rigidity_report(fw).rank_rigidity == fw.graph.edge_count

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decision_is_scale_free(self, square_graph, square_framework):
        assert certifies_full_row_rank(square_framework, default_cutoff(square_framework))
        for k in range(-12, 151):
            fw = Framework.from_points(square_graph, SQUARE_POINTS * 10.0 ** k)
            assert certifies_full_row_rank(fw, default_cutoff(fw)), k
            assert rigidity_rank(fw) == 5
