import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from formsim import (
    DegenerateAlignment,
    DegenerateShape,
    Framework,
    PositivityError,
    ReferenceShape,
    SensingGraph,
    ZeroEdge,
    rigidity_matrix,
)
from formsim.motion import RANK_TOL, ZERO_EDGE_TOL
from formsim.rigidity import control_kernel

SQUARE_EDGES = ((1, 2), (2, 3), (3, 1), (4, 3), (4, 1))
SQUARE_POINTS = np.array([[0.0, 0.0], [15.0, 0.0], [15.0, 15.0], [0.0, 15.0]])

TETRA_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
TETRA_POINTS = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, np.sqrt(3.0) / 2.0, 0.0],
    [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
])

# Offset patterns that spin and scale the unit-diagonal square; both are
# hand-checkable against the induced per-agent velocities.
SPIN_PATTERN = np.array([-1.0, -1.0, 0.0, 1.0, -1.0,
                         -1.0, -1.0, 0.0, 1.0, -1.0])
SCALE_PATTERN = np.array([1.0, 1.0, 0.0, 1.0, 1.0,
                          -1.0, -1.0, 0.0, -1.0, -1.0])


@pytest.fixture(scope="session")
def square_graph():
    return SensingGraph(4, SQUARE_EDGES)


@pytest.fixture(scope="session")
def square_framework(square_graph):
    return Framework.from_points(square_graph, SQUARE_POINTS)


@pytest.fixture(scope="session")
def square_ref(square_framework):
    return ReferenceShape(square_framework)


@pytest.fixture
def csv_blocks(monkeypatch):
    """Make trajectory CSVs on regular files split into a set number of
    row blocks, whatever this machine's CPU count, and record the pid of
    every forked block writer.

    Call the fixture's value with the block count; it returns the list
    the pids land in.
    """
    import formsim.scenario as scenario

    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(scenario, "MIN_BLOCK_VALUES", 1)

    def set_blocks(count):
        monkeypatch.setattr(scenario, "MAX_BLOCKS", count)
        forks.clear()
        return forks

    return set_blocks


def fail_csv_workers(monkeypatch, action):
    """Call action at the start of every CSV block writer but the caller's."""
    import formsim.scenario as scenario

    write_rows = scenario._write_rows

    def rows(traj, lo, hi, fh):
        if lo > 0:
            action()
        write_rows(traj, lo, hi, fh)

    monkeypatch.setattr(scenario, "_write_rows", rows)


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def tetra_graph():
    return SensingGraph(4, TETRA_EDGES)


@pytest.fixture(scope="session")
def tetra_framework(tetra_graph):
    return Framework.from_points(tetra_graph, TETRA_POINTS)


@pytest.fixture(scope="session")
def tetra_ref(tetra_framework):
    return ReferenceShape(tetra_framework)


def edge_vectors(fw):
    """Tail-minus-head position differences, one row per edge, with the
    ends read from the graph's edge list.  The tests' oracle for the
    kernel's gather."""
    tails, heads = (np.array(fw.graph.edges) - 1).T
    return fw.points[tails] - fw.points[heads]


def edge_lengths(fw):
    return np.linalg.norm(edge_vectors(fw), axis=1)


def unit_edge_vectors(fw):
    """Normalized edge vectors, one row per edge.  Raises ZeroEdge on collapse."""
    vecs = edge_vectors(fw)
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms < ZERO_EDGE_TOL):
        bad = int(np.argmin(norms)) + 1
        raise ZeroEdge(f"edge {bad} has length {norms[bad - 1]:.3e}")
    return vecs / norms[:, None]


def distance_rates(fw, pv):
    """Rate of change of every edge length, u_k . (v_tail - v_head), when
    the offsets pv act at fw's bearings: each edge end moves its agent
    along u_k by its offset.  The ends are read from the graph's edge list."""
    tails, heads = (np.array(fw.graph.edges) - 1).T
    units = unit_edge_vectors(fw)
    velocities = np.zeros_like(fw.points)
    np.add.at(velocities, tails, pv.tail[:, None] * units)
    np.add.at(velocities, heads, pv.head[:, None] * units)
    return np.sum(units * (velocities[tails] - velocities[heads]), axis=1)


def bearing_gram(fw):
    """Per-agent Gram blocks of the bearings, (n, dim, dim), summed with
    np.add.at over the tail ends in edge order, then the head ends."""
    ends = (np.array(fw.graph.edges) - 1).T.reshape(-1)
    units = unit_edge_vectors(fw)
    units = np.concatenate([units, units])
    gram = np.zeros((fw.graph.vertex_count, fw.dim, fw.dim))
    np.add.at(gram, ends, units[:, :, None] * units[:, None, :])
    return gram


def min_norm_offsets(ref, fields):
    """Minimum-norm stacked offsets (2E, m) for the field columns
    (n * dim, m), one Gram solve per call, as formsim computed them
    before the reference shape kept its bearings and Gram blocks.  The
    tests' bit-for-bit oracle for motion._min_norm_offsets."""
    fw, dim = ref.framework, ref.dim
    ends = (np.array(fw.graph.edges) - 1).T.reshape(-1)
    units = unit_edge_vectors(fw)
    units = np.concatenate([units, units])
    gram = bearing_gram(fw)
    eig = np.linalg.eigvalsh(gram)
    flat = np.flatnonzero(eig[:, 0] <= RANK_TOL * eig[:, -1])
    if flat.size:
        raise DegenerateShape(f"the bearings at agent {flat[0] + 1} do not span R^{dim}")
    solved = np.linalg.solve(gram, fields.reshape(fw.graph.vertex_count, dim, -1))
    return np.einsum("kd,kdm->km", units, solved[ends])


def null_space(matrix, tol=1e-9):
    """Orthonormal kernel basis (columns) of matrix from its SVD.

    The tests' oracle for offsets that move no agent: singular values
    below tol times the largest one count as zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, sigma, vh = np.linalg.svd(matrix)
    rank = int(np.count_nonzero(sigma > tol * sigma[0])) if sigma.size and sigma[0] > 0 else 0
    return vh[rank:].T


def kabsch_rotations(positions, ref):
    """Per-sample Kabsch rotations (samples, dim, dim) mapping the centered
    agents onto the centered reference shape, one SVD per sample.

    The tests' oracle for the stacked alignment of the simulator.
    """
    m = ref.dim
    ref_centered = ref.centered_points()
    rotations = np.empty((positions.shape[0], m, m))
    for j, row in enumerate(positions):
        pts = row.reshape(-1, m)
        u, sigma, vt = np.linalg.svd((pts - pts.mean(axis=0)).T @ ref_centered)
        if sigma[-1] <= 1e-12 * max(sigma[0], 1e-300):
            raise DegenerateAlignment("alignment covariance is rank deficient")
        flip = np.eye(m)
        flip[-1, -1] = np.sign(np.linalg.det(vt.T @ u.T))
        rotations[j] = vt.T @ flip @ u.T
    return rotations


def _perfbench_henneberg():
    """perfbench's seeded Henneberg generator, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "henneberg.py"
    spec = importlib.util.spec_from_file_location("perfbench_henneberg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.henneberg


_henneberg = _perfbench_henneberg()


def henneberg_framework(n, dim, seed):
    """Seeded Henneberg type-I framework: minimally rigid for generic
    points.  The benchmark's generator builds it, so tests and benchmark
    share their formations."""
    points, edges = _henneberg(n, dim, seed)
    return Framework.from_points(SensingGraph(n, tuple(map(tuple, edges))), points)


def random_planar_framework(rng, vertex_count=4):
    """Non-degenerate random framework over the square's topology."""
    graph = SensingGraph(4, SQUARE_EDGES)
    while True:
        points = rng.uniform(-5.0, 5.0, (vertex_count, 2))
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.linalg.norm(diffs, axis=2) + np.eye(vertex_count)
        if dists.min() > 0.5:
            return Framework.from_points(graph, points)


def bearing_rigidity_matrix(fw):
    """Jacobian of the stacked bearing map w.r.t. positions.

    Block-row k is the orthogonal projector of bearing k divided by the
    edge length, placed with opposite signs at the tail and head blocks.
    Shape (dim * edge_count, vertex_count * dim).  The tests' oracle for
    the bearing fields that rigidity_report takes from the rigidity rank.
    """
    n, m, ecount = fw.graph.vertex_count, fw.dim, fw.graph.edge_count
    kernel = control_kernel(fw.graph, m)
    units = unit_edge_vectors(fw)
    norms = edge_lengths(fw)
    blocks = (np.eye(m) - units[:, :, None] * units[:, None, :]) / norms[:, None, None]
    jac = np.zeros((ecount, m, n, m))
    jac[np.arange(ecount), :, kernel.tails, :] = blocks
    jac[np.arange(ecount), :, kernel.heads, :] = -blocks
    return jac.reshape(ecount * m, n * m)


def stiffness_matrix(fw):
    """Gram matrix of the error gradient directions, edge_count square.

    R_n R_n^T, where R_n is the rigidity matrix with unit rows.  Positive
    definite near a minimally rigid shape; its smallest eigenvalue scales
    the exponential convergence rate.
    """
    unit_rows = rigidity_matrix(fw) / edge_lengths(fw)[:, None]
    return unit_rows @ unit_rows.T


def scheduled_distances(ref, schedule, t):
    """Desired distances and their time derivatives at time t."""
    factor = 1.0 + schedule.value(t)
    d_t = factor * ref.distances
    if np.any(d_t <= 0.0):
        raise PositivityError(f"scheduled distance is not positive at t={t:.6g}")
    return d_t, schedule.value_rate(t) * ref.distances


def distance_errors(fw, d_t):
    """Edge length minus scheduled distance, one entry per edge.  The
    tests' oracle for the errors of a run and of the gradient check."""
    d_t = np.asarray(d_t, dtype=float).reshape(-1)
    if np.any(d_t <= 0.0):
        raise PositivityError("scheduled distances must be positive")
    return np.linalg.norm(edge_vectors(fw), axis=1) - d_t


def elastic_potential(fw, d_t):
    """Half the sum of squared distance errors, one Framework at a time."""
    e = distance_errors(fw, d_t)
    return 0.5 * float(e @ e)


def time_varying_params(cfg, t):
    """Offsets applied at time t: motion parts plus rate-scaled scaling
    part.  The tests' oracle for the offsets make_rhs applies."""
    rate = cfg.schedule.value_rate(t)
    return cfg.translation_part + cfg.rotation_part + cfg.scaling_part.scaled(rate)


def trajectory_distances(traj):
    """Scheduled distances (samples, E) of a recorded run."""
    return traj.scale[:, None] * traj.reference.distances


def error_columns_csv(traj, dim):
    """The trajectory CSV as formsim wrote it while it still had per-edge
    columns: t, positions, the distance errors e_k, V and the scheduled
    distances d_k.  The oracle for recomputing e_k and d_k from a row's
    positions and scale factor."""
    from formsim.scenario import trajectory_csv_header

    ref = traj.reference
    edges = range(1, ref.distances.size + 1)
    header = [*trajectory_csv_header(dim, ref.graph.vertex_count)[:-2],
              *(f"e_{k}" for k in edges), "V", *(f"d_{k}" for k in edges)]
    lines = [",".join(header)]
    for rows in traj.chunks():
        errors = traj.errors(rows)
        potential = 0.5 * (errors * errors).sum(axis=1)
        for t, positions, row_errors, row_potential, scale in zip(
                traj.times[rows].tolist(), traj.positions[rows], errors,
                potential.tolist(), traj.scale[rows]):
            distances = scale * ref.distances
            lines.append(",".join(map(repr, [t, *positions.tolist(), *row_errors.tolist(),
                                             row_potential, *distances.tolist()])))
    return "\n".join(lines) + "\n"


def serialize_scenario(scenario):
    """Render a scenario back to its JSON document form."""
    schedule = {"kind": scenario.schedule.kind}
    if scenario.schedule.kind == "linear":
        schedule["rate"] = scenario.schedule.rate
    elif scenario.schedule.kind == "periodic":
        schedule["amplitude"] = scenario.schedule.amplitude
        schedule["frequency"] = scenario.schedule.frequency
    doc = {
        "name": scenario.name,
        "dimension": scenario.dimension,
        "edges": [list(edge) for edge in scenario.reference.graph.edges],
        "reference_positions": scenario.reference.framework.points.tolist(),
        "initial_positions": None if scenario.initial_positions is None
        else scenario.initial_positions.tolist(),
        "gain": scenario.gain,
        "targets": {
            "v_body": scenario.v_body.tolist(),
            "omega": scenario.omega if isinstance(scenario.omega, float)
            else np.asarray(scenario.omega).tolist(),
            "schedule": schedule,
        },
        "sim": {
            "dt": scenario.sim.dt,
            "duration": scenario.sim.duration,
            "integrator": "rk4",
            "record_stride": scenario.sim.record_stride,
            "perturbation": None if scenario.perturbation is None else {
                "seed": scenario.perturbation.seed,
                "magnitude": scenario.perturbation.magnitude,
            },
        },
    }
    return json.dumps(doc, indent=2) + "\n"
