import functools
import io
import json
import os
import signal
import tempfile
import time

import numpy as np
import pytest

from formsim import (
    Framework,
    PositivityError,
    RigidityError,
    SchemaError,
    apply_perturbation,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    write_trajectory_csv,
)
from formsim.rigidity import control_kernel
from formsim.scenario import CsvRows, parse_design, trajectory_csv_header

from conftest import (
    assert_no_children,
    edge_lengths,
    error_columns_csv,
    PositionCollector,
    fail_csv_workers,
    recorded_run,
    serialize_scenario,
    trajectory_distances,
)


def minimal_doc(**overrides):
    doc = {
        "name": "test",
        "dimension": 2,
        "edges": [[1, 2], [2, 3], [3, 1], [4, 3], [4, 1]],
        "reference_positions": [[0, 0], [15, 0], [15, 15], [0, 15]],
        "initial_positions": None,
        "gain": 5.0,
        "targets": {
            "v_body": [0.0, 0.0],
            "omega": 1.0,
            "schedule": {"kind": "none"},
        },
        "sim": {"dt": 0.001, "duration": 1.0, "record_stride": 10},
    }
    doc.update(overrides)
    return doc


class TestParseScenario:
    def test_bundled_square_parses(self):
        scenario = load_scenario(bundled_scenario_path("square"))
        assert scenario.dimension == 2
        assert scenario.reference.graph.edges == ((1, 2), (2, 3), (3, 1), (4, 3), (4, 1))
        assert scenario.gain == 5.0
        assert scenario.omega == 1.0
        assert scenario.schedule.kind == "periodic"
        assert scenario.schedule.amplitude == 0.25
        assert scenario.schedule.frequency == 1.5
        # Parsing already ran the rigidity check.
        assert scenario.reference_shape().distances.min() == pytest.approx(15.0)
        assert scenario.reference_shape() is scenario.reference_shape()

    def test_invalid_json_reports_position(self):
        with pytest.raises(SchemaError, match="line"):
            parse_scenario("{not json")

    def test_missing_key_reports_path(self):
        doc = minimal_doc()
        del doc["gain"]
        with pytest.raises(SchemaError, match=r"\$\.gain"):
            parse_scenario(json.dumps(doc))

    def test_bad_edge_reports_path(self):
        doc = minimal_doc(edges=[[1, 2], [2, 3], [3, 1], [4, 3], [4, "x"]])
        with pytest.raises(SchemaError, match=r"\$\.edges\[4\]"):
            parse_scenario(json.dumps(doc))

    def test_wrong_position_arity(self):
        doc = minimal_doc(reference_positions=[[0, 0], [15, 0], [15, 15], [0, 15, 3]])
        with pytest.raises(SchemaError, match=r"reference_positions\[3\]"):
            parse_scenario(json.dumps(doc))

    def test_collinear_reference_rejected(self):
        doc = minimal_doc(reference_positions=[[0, 0], [1, 0], [2, 0], [3, 0]])
        with pytest.raises(RigidityError):
            parse_scenario(json.dumps(doc))

    def test_flexible_graph_rejected(self):
        doc = minimal_doc(edges=[[1, 2], [2, 3], [3, 4], [4, 1]])
        with pytest.raises(RigidityError):
            parse_scenario(json.dumps(doc))

    def test_overlarge_periodic_swing_rejected(self):
        doc = minimal_doc()
        doc["targets"]["schedule"] = {"kind": "periodic", "amplitude": 0.5, "frequency": 1.5}
        doc["sim"]["duration"] = 10.0
        with pytest.raises(PositivityError):
            parse_scenario(json.dumps(doc))

    def test_shrinking_linear_schedule_rejected_on_long_horizon(self):
        doc = minimal_doc()
        doc["targets"]["schedule"] = {"kind": "linear", "rate": -0.2}
        doc["sim"]["duration"] = 10.0
        with pytest.raises(PositivityError):
            parse_scenario(json.dumps(doc))

    def test_same_schedule_accepted_on_short_horizon(self):
        doc = minimal_doc()
        doc["targets"]["schedule"] = {"kind": "linear", "rate": -0.2}
        doc["sim"]["duration"] = 1.0
        assert parse_scenario(json.dumps(doc)).schedule.rate == -0.2

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d.update(gain=float("nan")), r"\$\.gain"),
        (lambda d: d["targets"].update(omega=float("nan")), r"\$\.targets\.omega"),
        (lambda d: d["targets"].update(v_body=[0.0, float("inf")]),
         r"\$\.targets\.v_body\[1\]"),
        (lambda d: d["targets"].update(schedule={"kind": "linear", "rate": float("nan")}),
         r"\$\.targets\.schedule\.rate"),
        (lambda d: d["sim"].update(perturbation={"seed": 1, "magnitude": -0.5}),
         r"\$\.sim\.perturbation\.magnitude"),
        (lambda d: d["reference_positions"][2].__setitem__(0, "15"),
         r"\$\.reference_positions\[2\]\[0\]"),
    ])
    def test_bad_number_reports_path(self, edit, path):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(SchemaError, match=path):
            parse_scenario(json.dumps(doc))

    def test_gain_must_be_positive(self):
        with pytest.raises(SchemaError, match=r"\$\.gain"):
            parse_scenario(json.dumps(minimal_doc(gain=-1.0)))

    def test_spatial_scenario_needs_vector_spin(self):
        doc = minimal_doc(
            dimension=3,
            edges=[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
            reference_positions=[
                [0, 0, 0], [1, 0, 0], [0.5, 0.8660254037844386, 0],
                [0.5, 0.28867513459481287, 0.816496580927726],
            ],
        )
        doc["targets"]["v_body"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="3-vector"):
            parse_scenario(json.dumps(doc))
        doc["targets"]["omega"] = [0.0, 0.0, 1.0]
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.dimension == 3


class TestInitialFramework:
    @pytest.mark.parametrize("initial", [None, [[1, 0], [16, 1], [14, 15], [0, 14]]],
                             ids=["reference", "given"])
    def test_perturbation_moves_the_start(self, initial):
        doc = minimal_doc(initial_positions=initial)
        start = parse_scenario(json.dumps(doc)).initial_framework()
        assert np.array_equal(start.points, initial or doc["reference_positions"])
        doc["sim"]["perturbation"] = {"seed": 3, "magnitude": 0.4}
        moved = parse_scenario(json.dumps(doc)).initial_framework()
        assert np.array_equal(moved.positions, apply_perturbation(start, 3, 0.4).positions)
        assert not np.array_equal(moved.positions, start.positions)


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        original = load_scenario(bundled_scenario_path("square"))
        again = parse_scenario(serialize_scenario(original))
        assert again.reference.graph.edges == original.reference.graph.edges
        assert np.array_equal(again.reference.framework.points,
                              original.reference.framework.points)
        assert np.array_equal(again.initial_positions, original.initial_positions)
        assert again.gain == original.gain
        assert np.array_equal(again.v_body, original.v_body)
        assert again.omega == original.omega
        assert again.schedule == original.schedule
        assert again.perturbation == original.perturbation
        assert again.sim == original.sim


def flat_trajectory(square_ref, duration=0.5, stride=5, on_chunk=None):
    from formsim import (
        ControllerConfig,
        MotionParameters,
        ScalingSchedule,
        SimConfig,
        apply_perturbation,
        integrate,
    )

    zero = MotionParameters.zero(5)
    cfg = ControllerConfig(5.0, zero, zero, zero, ScalingSchedule.none())
    sim = SimConfig(dt=1e-2, duration=duration, record_stride=stride)
    return integrate(apply_perturbation(square_ref.framework, 3, 0.4), square_ref, cfg, sim,
                     on_chunk=on_chunk)


def linear_trajectory(square_ref, on_chunk=None):
    """The square scaled at a constant rate: every row's scale differs."""
    from formsim import (
        ControllerConfig,
        MotionParameters,
        ScalingSchedule,
        SimConfig,
        apply_perturbation,
        integrate,
        scaling_params,
    )

    zero = MotionParameters.zero(5)
    cfg = ControllerConfig(5.0, zero, zero, scaling_params(square_ref, 1.0),
                           ScalingSchedule.linear(0.05))
    sim = SimConfig(dt=1e-2, duration=1.0, record_stride=2)
    return integrate(apply_perturbation(square_ref.framework, 3, 0.4), square_ref, cfg, sim,
                     on_chunk=on_chunk)


def periodic_trajectory(on_chunk=None):
    """The bundled square's periodic schedule: every row's scale differs."""
    import dataclasses

    from formsim import integrate

    scenario = load_scenario(bundled_scenario_path("square"))
    assert scenario.schedule.kind == "periodic"
    ref = scenario.reference_shape()
    sim = dataclasses.replace(scenario.sim, dt=1e-2, duration=2.0, record_stride=3)
    return integrate(scenario.initial_framework(), ref, scenario.controller_config(), sim,
                     on_chunk=on_chunk)


def spatial_trajectory(tetra_ref, on_chunk=None):
    from formsim import (
        ControllerConfig,
        ScalingSchedule,
        SimConfig,
        apply_perturbation,
        integrate,
        rotation_params,
        scaling_params,
        translation_params,
    )

    cfg = ControllerConfig(2.0, translation_params(tetra_ref, [0.1, 0.0, 0.2]),
                           rotation_params(tetra_ref, [0.0, 0.3, 0.5]),
                           scaling_params(tetra_ref, 1.0), ScalingSchedule.linear(0.05))
    return integrate(apply_perturbation(tetra_ref.framework, 5, 0.1), tetra_ref, cfg,
                     SimConfig(dt=1e-2, duration=1.0, record_stride=4), on_chunk=on_chunk)


def special_trajectory(on_chunk=None):
    """Scale factors repeat, then change only in the sign of a zero, which
    compares equal as a float but prints differently.  The errors run
    from 1e16 down to -1e-05, whose square is near the bottom of V.
    Recorded one row per chunk, so a chunk starts at row 2, between the
    -0.0 and 0.0 scale factors."""
    from formsim import Framework, ReferenceShape, SensingGraph

    segment = Framework.from_points(SensingGraph(2, ((1, 2),)), [[0.0, 0.0], [1.0, 0.0]])
    return recorded_run(
        times=[0.0, 1e-05, 0.1, 1e16],
        positions=[[-0.0, 5e-324, 1e16, 0.1],
                   [0.0, -5e-324, -1e16, -0.1],
                   [-0.0, 0.0, 1e-05, -0.0],
                   [2.0, 1e-300, 2.0, 1e-300]],
        scale=[-0.0, -0.0, 0.0, 1e-05],
        ref=ReferenceShape(segment),
        on_chunk=on_chunk,
        chunk_rows=1,
    )


def per_value_csv(traj, positions, dim):
    """The oracle writer: every value of every row through repr(float(v)).

    V is half the sum of squares of a row's errors, its edge-vector norms
    minus its scheduled distances.
    """
    graph = traj.reference.graph
    buf = io.StringIO()
    header = trajectory_csv_header(dim, graph.vertex_count)
    buf.write(",".join(header) + "\n")
    distances = trajectory_distances(traj)
    for j in range(traj.sample_count):
        errors = edge_lengths(Framework(graph, dim, positions[j])) - distances[j]
        row = [traj.times[j], *positions[j], traj.scale[j],
               0.5 * np.add.reduce(errors * errors)]
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


# Runs by name, each a function of the chunk consumer, with its dimension.
TRAJECTORIES = {
    "flat": (lambda request: functools.partial(
        flat_trajectory, request.getfixturevalue("square_ref"), duration=1.0, stride=2), 2),
    "periodic": (lambda request: periodic_trajectory, 2),
    "linear": (lambda request: functools.partial(
        linear_trajectory, request.getfixturevalue("square_ref")), 2),
    "tetrahedron": (lambda request: functools.partial(
        spatial_trajectory, request.getfixturevalue("tetra_ref")), 3),
    "special": (lambda request: special_trajectory, 2),
}


def write_csv(run, dim, fh):
    """Stream the rows of run(on_chunk) into a CSV in fh and complete it;
    return the run, its recorded positions and its chunk count."""
    collect = PositionCollector()
    with CsvRows(fh, dim) as rows:
        def consume(traj, chunk, positions):
            collect(traj, chunk, positions)
            rows(traj, chunk, positions)

        traj = run(on_chunk=consume)
        write_trajectory_csv(traj, dim, rows)
    return traj, collect.positions(traj), len(collect.parts[traj])


def csv_text(run, dim):
    """The CSV of run(on_chunk) as text, the run and its positions."""
    buf = io.StringIO()
    traj, positions, _ = write_csv(run, dim, buf)
    return buf.getvalue(), traj, positions


class TestTrajectoryCsv:
    def test_header_layout(self):
        header = trajectory_csv_header(2, 4)
        assert header[:4] == ["t", "p_1x", "p_1y", "p_2x"]
        assert header[8:] == ["p_4y", "scale", "V"]
        assert len(header) == 1 + 4 * 2 + 2
        assert trajectory_csv_header(3, 2) == ["t", "p_1x", "p_1y", "p_1z",
                                               "p_2x", "p_2y", "p_2z", "scale", "V"]

    def test_row_count_and_round_trip(self, square_ref):
        text, traj, positions = csv_text(functools.partial(flat_trajectory, square_ref), 2)
        lines = text.strip().split("\n")
        assert len(lines) == int(0.5 / (1e-2 * 5)) + 1 + 1  # samples + header
        first = lines[1].split(",")
        assert float(first[0]) == traj.times[0]
        assert float(first[1]) == positions[0][0]

    def test_byte_identical_across_runs(self, square_ref):
        run = functools.partial(flat_trajectory, square_ref)
        assert csv_text(run, 2)[0] == csv_text(run, 2)[0]

    def test_flat_schedule_matches_per_value_writer(self, square_ref):
        text, traj, positions = csv_text(
            functools.partial(flat_trajectory, square_ref, duration=1.0, stride=2), 2)
        assert (traj.scale == traj.scale[0]).all()
        assert text == per_value_csv(traj, positions, 2)

    def test_periodic_schedule_matches_per_value_writer(self):
        text, traj, positions = csv_text(periodic_trajectory, 2)
        assert len({scale.tobytes() for scale in traj.scale}) == traj.sample_count
        assert text == per_value_csv(traj, positions, 2)

    def test_spatial_trajectory_matches_per_value_writer(self, tetra_ref):
        text, traj, positions = csv_text(functools.partial(spatial_trajectory, tetra_ref), 3)
        assert len({scale.tobytes() for scale in traj.scale}) == traj.sample_count
        assert text == per_value_csv(traj, positions, 3)

    def test_special_values_match_per_value_writer(self):
        text, traj, positions = csv_text(special_trajectory, 2)
        assert text == per_value_csv(traj, positions, 2)
        assert [line.split(",")[-2] for line in text.split("\n")[1:-1]] == [
            "-0.0", "-0.0", "0.0", "1e-05"]

    def test_another_runs_rows_are_refused(self, square_ref):
        buf = io.StringIO()
        with CsvRows(buf, 2) as rows:
            flat_trajectory(square_ref, on_chunk=rows)
            with pytest.raises(ValueError, match="11 rows in 2 dimensions, not the 51"):
                write_trajectory_csv(flat_trajectory(square_ref, duration=1.0, stride=2), 2,
                                     rows)


class TestRecomputedColumns:
    """The per-edge errors e_k and scheduled distances d_k that the CSV no
    longer holds are recomputed exactly from a row's positions and scale
    factor: d_k = scale * d_k0 and e_k = |z_k| - d_k."""

    @pytest.mark.parametrize("case", TRAJECTORIES)
    def test_recomputed_columns_match_the_error_column_writer(self, case, request):
        build, dim = TRAJECTORIES[case]
        text, traj, positions = csv_text(build(request), dim)
        ref = traj.reference
        rows = [line.split(",") for line in text.split("\n")[1:-1]]
        data = np.array([[float(v) for v in row] for row in rows])
        distances = data[:, -2, None] * ref.distances
        errors = control_kernel(ref.graph, dim).lengths(data[:, 1:-2]) - distances
        recomputed = [",".join([*row[:-2], *map(repr, row_errors), row[-1],
                                *map(repr, row_distances)])
                      for row, row_errors, row_distances
                      in zip(rows, errors.tolist(), distances.tolist())]
        assert recomputed == error_columns_csv(traj, positions, dim).split("\n")[1:-1]


def failing_after(run, chunks):
    """run, whose caller raises RuntimeError when handed its chunk
    number chunks + 1."""
    def failing(on_chunk):
        seen = []

        def consume(*chunk):
            if len(seen) == chunks:
                raise RuntimeError("caller fails")
            seen.append(chunk[1])
            on_chunk(*chunk)

        return run(on_chunk=consume)

    return failing


class TestCsvBlocks:
    """The chunks of a large CSV are formatted by forked workers while the
    run integrates, into any text stream."""

    @pytest.mark.parametrize("case", TRAJECTORIES)
    def test_any_worker_count_writes_the_same_bytes(self, case, request, tmp_path, csv_blocks):
        build, dim = TRAJECTORIES[case]
        for count in (1, 2, 3, 4):
            forks = csv_blocks(count)
            path = tmp_path / f"{count}.csv"
            with path.open("w") as fh:
                traj, positions, chunks = write_csv(build(request), dim, fh)
                expected = per_value_csv(traj, positions, dim).encode()
                assert fh.tell() == len(expected)
            # One worker would only leave the caller idle: the caller
            # formats every row itself.
            assert len(forks) == (chunks if count > 1 else 0)
            assert forks.most_alive == (min(count, chunks) if count > 1 else 0)
            assert path.read_bytes() == expected
        assert (tmp_path / "4.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1.csv", "2.csv", "3.csv", "4.csv"]
        assert_no_children()

    @pytest.mark.parametrize("count, cpus, alive", [(8, 2, 2), (3, 8, 3), (8, 1, 0)])
    def test_at_most_min_of_cpus_and_max_blocks_workers_are_alive(self, square_ref, tmp_path,
                                                                  csv_blocks, count, cpus,
                                                                  alive):
        forks = csv_blocks(count, cpus)
        with (tmp_path / "run.csv").open("w") as fh:
            _, _, chunks = write_csv(functools.partial(flat_trajectory, square_ref,
                                                       duration=1.0, stride=2), 2, fh)
        assert chunks > min(count, cpus)
        assert len(forks) == (chunks if alive else 0)
        assert forks.most_alive == alive
        assert_no_children()

    def test_buffers_appends_and_wide_encodings_take_blocks(self, square_ref, tmp_path,
                                                            csv_blocks, monkeypatch):
        dirs = []
        temporary = tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            dirs.append(kwargs.get("dir"))
            return temporary(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        run = functools.partial(flat_trajectory, square_ref)
        count = 4
        forks = csv_blocks(count)
        buffer = io.StringIO()
        # A name that is no file's path leaves the temporary files where
        # they go by default.
        buffer.name = "<stdout>"
        traj, positions, chunks = write_csv(run, 2, buffer)
        expected = per_value_csv(traj, positions, 2)
        assert buffer.getvalue() == expected
        assert len(forks) == chunks > count and dirs == [None] * chunks
        path = tmp_path / "run.csv"
        path.write_text("kept\n")
        for encoding, mode, text in (("utf-8", "a", "kept\n" + expected),
                                     ("utf-16", "w", expected)):
            forks.clear()
            dirs.clear()
            with path.open(mode, encoding=encoding) as fh:
                write_csv(run, 2, fh)
            assert len(forks) == chunks and dirs == [str(tmp_path)] * chunks
            assert path.read_bytes() == text.encode(encoding)
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
        assert_no_children()

    def test_failing_worker_raises_os_error(self, square_ref, tmp_path, csv_blocks, monkeypatch):
        def fail():
            raise RuntimeError("worker fails")

        fail_csv_workers(monkeypatch, fail)
        forks = csv_blocks(3)
        with (tmp_path / "run.csv").open("w") as fh:
            with pytest.raises(OSError, match="rows from 0 exited with status 1"):
                write_csv(functools.partial(flat_trajectory, square_ref), 2, fh)
        # The fourth chunk waits for the first worker, which failed.
        assert len(forks) == 3
        assert_no_children()

    def test_killed_worker_raises_os_error(self, square_ref, tmp_path, csv_blocks, monkeypatch):
        fail_csv_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        forks = csv_blocks(2)
        with (tmp_path / "run.csv").open("w") as fh:
            with pytest.raises(OSError, match=f"killed by signal {int(signal.SIGKILL)}"):
                write_csv(functools.partial(flat_trajectory, square_ref), 2, fh)
        assert len(forks) == 2
        assert_no_children()

    def test_caller_failure_kills_and_reaps_workers(self, square_ref, tmp_path, csv_blocks,
                                                    monkeypatch):
        # Workers that outlive the check below.
        fail_csv_workers(monkeypatch, lambda: time.sleep(120))
        forks = csv_blocks(3)
        start = time.monotonic()
        with (tmp_path / "run.csv").open("w") as fh:
            with pytest.raises(RuntimeError, match="caller fails"):
                write_csv(failing_after(functools.partial(flat_trajectory, square_ref), 3),
                          2, fh)
        assert time.monotonic() - start < 60
        assert len(forks) == 3
        assert_no_children()


class TestDesignDocument:
    def test_round_trip(self, square_ref):
        from formsim.scenario import design_to_document
        from formsim import MotionParameters

        parts = {
            "translation": MotionParameters([1.0] * 5, [2.0] * 5),
            "rotation": MotionParameters([3.0] * 5, [4.0] * 5),
            "scaling_unit_rate": MotionParameters([5.0] * 5, [6.0] * 5),
        }
        doc = design_to_document(2, parts, {"translation": 0.0})
        loaded = parse_design(json.dumps(doc), 5)
        for name, pv in parts.items():
            np.testing.assert_array_equal(loaded[name].tail, pv.tail)
            np.testing.assert_array_equal(loaded[name].head, pv.head)

    def test_wrong_edge_count_rejected(self):
        from formsim.scenario import design_to_document
        from formsim import MotionParameters

        parts = {name: MotionParameters([1.0] * 4, [1.0] * 4)
                 for name in ("translation", "rotation", "scaling_unit_rate")}
        doc = design_to_document(2, parts, {})
        with pytest.raises(SchemaError, match="5 offsets"):
            parse_design(json.dumps(doc), 5)
