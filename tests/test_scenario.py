import io
import json

import numpy as np
import pytest

from formsim import (
    PositivityError,
    RigidityError,
    SchemaError,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_trajectory_csv,
)
from formsim.scenario import parse_design, trajectory_csv_header


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
        assert scenario.edges == ((1, 2), (2, 3), (3, 1), (4, 3), (4, 1))
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


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        original = load_scenario(bundled_scenario_path("square"))
        again = parse_scenario(serialize_scenario(original))
        assert again.edges == original.edges
        assert np.array_equal(again.reference_positions, original.reference_positions)
        assert np.array_equal(again.initial_positions, original.initial_positions)
        assert again.gain == original.gain
        assert np.array_equal(again.v_body, original.v_body)
        assert again.omega == original.omega
        assert again.schedule == original.schedule
        assert again.sim == original.sim


class TestTrajectoryCsv:
    def make_trajectory(self, square_ref, duration=0.5, stride=5):
        from formsim import (
            ControllerConfig,
            MotionParameters,
            Perturbation,
            ScalingSchedule,
            SimConfig,
            integrate,
        )

        zero = MotionParameters.zero(5)
        cfg = ControllerConfig(5.0, zero, zero, zero, ScalingSchedule.none())
        sim = SimConfig(dt=1e-2, duration=duration, record_stride=stride,
                        perturbation=Perturbation(3, 0.4))
        return integrate(square_ref.framework, square_ref, cfg, sim)

    def test_header_layout(self):
        header = trajectory_csv_header(2, 4, 5)
        assert header[:4] == ["t", "p_1x", "p_1y", "p_2x"]
        assert header[9] == "e_1"
        assert header[14] == "V"
        assert header[15] == "d_1"
        assert len(header) == 1 + 8 + 5 + 1 + 5

    def test_row_count_and_round_trip(self, square_ref):
        traj = self.make_trajectory(square_ref)
        buf = io.StringIO()
        write_trajectory_csv(traj, 2, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == int(0.5 / (1e-2 * 5)) + 1 + 1  # samples + header
        first = lines[1].split(",")
        assert float(first[0]) == traj.times[0]
        assert float(first[1]) == traj.positions[0][0]

    def test_byte_identical_across_runs(self, square_ref):
        one, two = io.StringIO(), io.StringIO()
        write_trajectory_csv(self.make_trajectory(square_ref), 2, one)
        write_trajectory_csv(self.make_trajectory(square_ref), 2, two)
        assert one.getvalue() == two.getvalue()

    @staticmethod
    def per_value_csv(traj, dim):
        """The oracle writer: every value of every row through repr(float(v))."""
        buf = io.StringIO()
        header = trajectory_csv_header(dim, traj.positions.shape[1] // dim, traj.errors.shape[1])
        buf.write(",".join(header) + "\n")
        for j in range(traj.sample_count):
            row = [traj.times[j], *traj.positions[j], *traj.errors[j],
                   traj.potential[j], *traj.distances[j]]
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    def assert_matches_per_value_writer(self, traj, dim):
        buf = io.StringIO()
        write_trajectory_csv(traj, dim, buf)
        assert buf.getvalue() == self.per_value_csv(traj, dim)

    def test_flat_schedule_matches_per_value_writer(self, square_ref):
        traj = self.make_trajectory(square_ref, duration=1.0, stride=2)
        assert (traj.distances == traj.distances[0]).all()
        self.assert_matches_per_value_writer(traj, 2)

    def test_periodic_schedule_matches_per_value_writer(self):
        import dataclasses

        from formsim import integrate

        scenario = load_scenario(bundled_scenario_path("square"))
        assert scenario.schedule.kind == "periodic"
        ref = scenario.reference_shape()
        sim = dataclasses.replace(scenario.sim, dt=1e-2, duration=2.0, record_stride=3)
        traj = integrate(scenario.initial_framework(), ref, scenario.controller_config(ref), sim)
        assert len({row.tobytes() for row in traj.distances}) == traj.sample_count
        self.assert_matches_per_value_writer(traj, 2)

    def test_spatial_trajectory_matches_per_value_writer(self, tetra_ref):
        from formsim import (
            ControllerConfig,
            Perturbation,
            ScalingSchedule,
            SimConfig,
            integrate,
            rotation_params,
            scaling_params,
            translation_params,
        )

        cfg = ControllerConfig(2.0, translation_params(tetra_ref, [0.1, 0.0, 0.2]),
                               rotation_params(tetra_ref, [0.0, 0.3, 0.5]),
                               scaling_params(tetra_ref, 1.0), ScalingSchedule.linear(0.05))
        traj = integrate(tetra_ref.framework, tetra_ref, cfg,
                         SimConfig(dt=1e-2, duration=1.0, record_stride=4,
                                   perturbation=Perturbation(5, 0.1)))
        assert len({row.tobytes() for row in traj.distances}) == traj.sample_count
        self.assert_matches_per_value_writer(traj, 3)

    def test_special_values_match_per_value_writer(self):
        from formsim import Trajectory

        # Scale factors repeat, then change only in the sign of a zero,
        # which compares equal as a float but prints differently.
        traj = Trajectory(
            times=np.array([0.0, 1e-05, 0.1, 1e16]),
            positions=np.array([[-0.0, 5e-324, 1e16, 0.1]] * 4) * [[1.0], [-1.0], [1.0], [2.0]],
            errors=np.array([[1e-05, -0.0], [5e-324, 1e16], [0.0, -1e-05], [3.0, 1e-300]]),
            potential=np.array([-0.0, 1e16, 5e-324, 1e-05]),
            scale=np.array([-0.0, -0.0, 0.0, 1e-05]),
            reference_distances=np.array([1e16, 1.0]),
        )
        self.assert_matches_per_value_writer(traj, 2)
        buf = io.StringIO()
        write_trajectory_csv(traj, 2, buf)
        assert [line.split(",")[-1] for line in buf.getvalue().split("\n")[1:-1]] == [
            "-0.0", "-0.0", "0.0", "1e-05"]


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
