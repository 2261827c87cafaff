import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsim import (
    EdgeCollapse,
    Framework,
    ReferenceShape,
    RigidityError,
    SensingGraph,
    ZeroEdge,
    bundled_scenario_path,
    rigidity_matrix,
    rigidity_report,
)
import formsim.rigidity
from formsim.cli import main
from formsim.rigidity import (
    RANK_CERTIFICATE_MARGIN,
    certifies_full_row_rank,
    control_kernel,
    numerical_rank,
)
from conftest import (
    SQUARE_EDGES,
    SQUARE_POINTS,
    TETRA_POINTS,
    bearing_rigidity_matrix,
    edge_lengths,
    edge_vectors,
    henneberg_framework,
    random_planar_framework,
    unit_edge_vectors,
)


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

    @pytest.mark.parametrize("per_row", [False, True], ids=["edges", "rows"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    @pytest.mark.parametrize("n, dim, seed", [(64, 2, 3), (24, 3, 5)])
    def test_law_matches_add_at_oracle(self, n, dim, seed, batch, per_row):
        fw = henneberg_framework(n, dim, seed)
        kernel = control_kernel(fw.graph, dim)
        rng = np.random.default_rng(seed)
        rows = fw.positions + rng.normal(0.0, 0.5, (batch, fw.positions.size))
        stage = (batch if per_row else 1, fw.graph.edge_count)
        d_t = edge_lengths(fw) * rng.uniform(0.8, 1.2, stage)
        tail_coef, head_coef = rng.standard_normal((2, *stage))
        if not per_row:
            d_t, tail_coef, head_coef = d_t[0], tail_coef[0], head_coef[0]
        gain = 2.5
        # Twice, so the second call runs on the buffers the first one kept.
        for _ in range(2):
            got = kernel(rows, d_t, tail_coef, head_coef, gain)
        stages = np.broadcast_to(np.reshape([d_t, tail_coef, head_coef], (3, -1, stage[1])),
                                 (3, batch, stage[1]))
        for row, (d_row, tail_row, head_row), velocity in zip(rows, stages.swapaxes(0, 1), got):
            vecs = edge_vectors(Framework(fw.graph, dim, row))
            lengths = np.linalg.norm(vecs, axis=1)
            units = vecs / lengths[:, None]
            errors = lengths - d_row
            oracle = np.zeros((n, dim))
            np.add.at(oracle, kernel.tails, (tail_row - gain * errors)[:, None] * units)
            np.add.at(oracle, kernel.heads, (head_row + gain * errors)[:, None] * units)
            assert velocity.tobytes() == oracle.reshape(-1).tobytes()

    def test_not_finite_row_hides_no_collapse(self):
        graph = SensingGraph(4, SQUARE_EDGES)
        kernel = control_kernel(graph, 2)
        collapsed = SQUARE_POINTS.copy()
        collapsed[1] = collapsed[0]
        rows = np.array([np.full(8, np.nan), collapsed.reshape(-1), SQUARE_POINTS.reshape(-1)])
        stage = np.ones(graph.edge_count)
        with pytest.raises(EdgeCollapse) as caught:
            kernel(rows, stage, stage, stage, 1.0)
        assert caught.value.rows == (1,)


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
    """The reference shape's unit edge vectors, in the kernel's layout."""

    def test_three_four_five(self):
        graph = SensingGraph(2, ((1, 2),))
        ref = ReferenceShape(Framework.from_points(graph, [[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(ref.units, [[[0.6], [0.8]]], rtol=1e-15)

    def test_scale_invariance(self, square_graph, square_ref):
        scaled = ReferenceShape(Framework.from_points(square_graph, 3.7 * SQUARE_POINTS))
        np.testing.assert_allclose(scaled.units, square_ref.units, atol=1e-14)

    def test_square_diagonal_bearing(self, square_ref):
        diag = square_ref.units[0, :, 2]
        np.testing.assert_allclose(diag, [1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-15)

    def test_coincident_agents_rejected(self, tmp_path, capsys):
        # The rank test is relative, so a tiny square still loads; its
        # edges are too short to carry a bearing.
        doc = json.loads(bundled_scenario_path("square").read_text())
        doc["reference_positions"] = [[1e-14 * x for x in p] for p in doc["reference_positions"]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["design", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ZeroEdge: edge 1 has length 1.500e-13" in err
        assert "Traceback" not in err


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
                b_plus = unit_edge_vectors(Framework(fw.graph, fw.dim, plus)).reshape(-1)
                b_minus = unit_edge_vectors(Framework(fw.graph, fw.dim, minus)).reshape(-1)
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

    # One edge is the full rank of two agents in any dimension: 2n - 3 in
    # the plane, and in space n (n - 1) / 2 where 3n - 6 would give 0.
    @pytest.mark.parametrize("dim", [2, 3])
    def test_two_agent_segment(self, dim):
        graph = SensingGraph(2, ((1, 2),))
        fw = Framework.from_points(graph, np.eye(2, dim))
        report = rigidity_report(fw)
        assert report.rank_rigidity == 1
        assert report.is_minimally_rigid
        assert report.bearing_kernel_dim == dim + 1
        assert report.is_bearing_rigid
        assert ReferenceShape(fw).distances.tolist() == [np.sqrt(2.0)]


def default_cutoff(fw):
    """rigidity_report's default relative singular-value cutoff."""
    return max(fw.graph.vertex_count, fw.graph.edge_count) * fw.dim * np.finfo(float).eps


CERTIFIED_SHAPES = {
    **{f"plane-n{n}-seed{seed}": (n, 2, seed) for n in (8, 64, 256) for seed in (1, 2, 3)},
    **{f"space-n{n}-seed{seed}": (n, 3, seed) for n in (8, 64, 128) for seed in (1, 2, 3)},
    "flat-tetrahedron": (4, 3, 304721655),
}


class TestRankCertificate:
    @pytest.mark.parametrize("n, dim, seed", CERTIFIED_SHAPES.values(), ids=CERTIFIED_SHAPES)
    def test_henneberg_shapes_certify_to_the_svd_count(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        assert certifies_full_row_rank(fw, default_cutoff(fw))
        assert numerical_rank(rigidity_matrix(fw), default_cutoff(fw)) == fw.graph.edge_count
        assert rigidity_report(fw).rank_rigidity == fw.graph.edge_count

    @pytest.mark.parametrize("n, dim, seed", CERTIFIED_SHAPES.values(), ids=CERTIFIED_SHAPES)
    def test_bound_lies_below_the_smallest_singular_value(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        matrix = rigidity_matrix(fw)
        sigma_min = np.linalg.svd(matrix, compute_uv=False)[-1]
        # The cutoff that a bound of exactly sigma_min would just clear.
        cutoff = sigma_min / (RANK_CERTIFICATE_MARGIN * np.linalg.norm(matrix))
        assert not certifies_full_row_rank(fw, cutoff * (1.0 + 1e-6))
        assert certifies_full_row_rank(fw, cutoff / 100.0)

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
        assert rigidity_report(fw).rank_rigidity == rank
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

    def test_swarm_settle_shape_certifies_without_the_rigidity_matrix(self, monkeypatch):
        fw = henneberg_framework(512, 2, 5)

        def refuse(fw):
            raise AssertionError("rigidity matrix formed")

        monkeypatch.setattr(formsim.rigidity, "rigidity_matrix", refuse)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert certifies_full_row_rank(fw, default_cutoff(fw))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # The dense 1021 x 1024 matrix alone would be 8 MiB.
        assert peak < 4 * 2 ** 20

    # K3,3 at generic points is minimally rigid, 9 = 2 * 6 - 3 edges, but
    # every vertex has three edges, so none can be peeled.  The four-cycle
    # peels to two vertices without their edge.
    @pytest.mark.parametrize("edges, rank", [
        (tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6)), 9),
        (((1, 2), (2, 3), (3, 4), (4, 1)), 4),
    ], ids=["k33", "four-cycle"])
    def test_graph_with_no_type_one_order_takes_the_svd_rank(self, edges, rank):
        n = max(max(edge) for edge in edges)
        points = np.random.default_rng(1).uniform(-5.0, 5.0, (n, 2))
        fw = Framework.from_points(SensingGraph(n, edges), points)
        assert not certifies_full_row_rank(fw, default_cutoff(fw))
        assert numerical_rank(rigidity_matrix(fw), default_cutoff(fw)) == rank
        assert rigidity_report(fw).rank_rigidity == rank
        if rank == 2 * n - 3:
            assert ReferenceShape(fw).report.rank_rigidity == rank

    @pytest.mark.parametrize("dim", [2, 3])
    def test_relabelled_henneberg_shape_certifies_like_the_original(self, dim):
        fw = henneberg_framework(64, dim, 2)
        rng = np.random.default_rng(dim)
        label = rng.permutation(64)
        edges = [(int(label[i - 1]) + 1, int(label[j - 1]) + 1) for i, j in fw.graph.edges]
        edges = tuple(edges[k] for k in rng.permutation(len(edges)))
        points = np.empty_like(fw.points)
        points[label] = fw.points
        relabelled = Framework.from_points(SensingGraph(64, edges), points)
        for shape in (fw, relabelled):
            assert certifies_full_row_rank(shape, default_cutoff(shape))
            assert rigidity_report(shape).rank_rigidity == shape.graph.edge_count

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decision_is_scale_free(self, square_graph, square_framework):
        assert certifies_full_row_rank(square_framework, default_cutoff(square_framework))
        for k in range(-12, 151):
            fw = Framework.from_points(square_graph, SQUARE_POINTS * 10.0 ** k)
            assert certifies_full_row_rank(fw, default_cutoff(fw)), k
            assert rigidity_report(fw).rank_rigidity == 5


def bearing_kernel_dim(fw):
    """Kernel dimension of the bearing rigidity matrix from its SVD."""
    return fw.positions.size - numerical_rank(bearing_rigidity_matrix(fw), default_cutoff(fw))


def random_connected_framework(rng, n, ecount):
    """Random points in the plane on a random connected graph of ecount
    edges: a random spanning tree plus random extra pairs."""
    order = rng.permutation(n) + 1
    edges = [(int(order[k]), int(order[rng.integers(k)])) for k in range(1, n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if (i, j) not in edges and (j, i) not in edges]
    extra = rng.choice(len(pairs), ecount - (n - 1), replace=False)
    edges += [pairs[k] for k in extra]
    return Framework.from_points(SensingGraph(n, tuple(edges)), rng.uniform(-5.0, 5.0, (n, 2)))


class TestBearingRigidityFromRank:
    """Infinitesimal distance rigidity implies infinitesimal bearing
    rigidity, and in the plane the two matrices have equal rank (Zhao and
    Zelazo, IEEE TAC 61(5), 2016); rigidity_report relies on both."""

    @pytest.mark.parametrize("n, dim, seed", CERTIFIED_SHAPES.values(), ids=CERTIFIED_SHAPES)
    def test_henneberg_shapes_are_bearing_rigid(self, n, dim, seed):
        fw = henneberg_framework(n, dim, seed)
        report = rigidity_report(fw)
        assert bearing_kernel_dim(fw) == dim + 1 == report.bearing_kernel_dim
        assert report.is_bearing_rigid

    def test_bundled_square_and_tetrahedron_are_bearing_rigid(self, tetra_framework):
        from formsim import bundled_scenario_path, load_scenario

        square = load_scenario(bundled_scenario_path("square")).reference_shape().framework
        for fw in (square, tetra_framework):
            report = rigidity_report(fw)
            assert bearing_kernel_dim(fw) == fw.dim + 1 == report.bearing_kernel_dim
            assert report.is_bearing_rigid

    def test_planar_bearing_rank_is_the_rigidity_rank(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(200):
            n = int(rng.integers(3, 13))
            target = 2 * n - 3
            ecount = int(rng.integers(n - 1, min(n * (n - 1) // 2, target + 4) + 1))
            fw = random_connected_framework(rng, n, ecount)
            rank = numerical_rank(rigidity_matrix(fw), default_cutoff(fw))
            report = rigidity_report(fw)
            assert numerical_rank(bearing_rigidity_matrix(fw), default_cutoff(fw)) == rank
            assert report.bearing_kernel_dim == bearing_kernel_dim(fw) == 2 * n - rank
            assert report.is_bearing_rigid == (rank == target)
            kinds.add((int(np.sign(ecount - target)), rank == target))
        # Flexible, minimal and over-braced frameworks all came up, rigid or not.
        assert kinds >= {(-1, False), (0, True), (1, True), (1, False)}

    def test_flexible_spatial_framework_leaves_bearing_fields_open(self):
        graph = SensingGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))
        report = rigidity_report(Framework.from_points(graph, TETRA_POINTS))
        assert report.rank_rigidity == 5
        assert not report.is_infinitesimally_rigid
        assert report.bearing_kernel_dim is None
        assert report.is_bearing_rigid is None
