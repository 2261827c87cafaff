import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from formsim import MotionParameters, bundled_scenario_path, load_scenario
from formsim.cli import main
from formsim.rigidity import control_kernel

from conftest import assert_no_children, elastic_potential, fail_csv_workers


def write_scenario(tmp_path, name="quick.json", **overrides):
    doc = {
        "name": "quick",
        "dimension": 2,
        "edges": [[1, 2], [2, 3], [3, 1], [4, 3], [4, 1]],
        "reference_positions": [[0, 0], [15, 0], [15, 15], [0, 15]],
        "initial_positions": None,
        "gain": 5.0,
        "targets": {
            "v_body": [0.3, 0.0],
            "omega": 1.0,
            "schedule": {"kind": "periodic", "amplitude": 0.25, "frequency": 1.5},
        },
        "sim": {"dt": 0.002, "duration": 8.0, "record_stride": 5,
                "perturbation": {"seed": 7, "magnitude": 0.5}},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def square_doc(schedule):
    """The bundled square under the given schedule, at twice its step."""
    doc = json.loads(bundled_scenario_path("square").read_text())
    doc["targets"]["schedule"] = schedule
    doc["sim"]["dt"] = 0.002
    return doc


def ci_tetrahedron_doc(schedule):
    """The tetrahedron of the CI workflow under the given schedule."""
    doc = square_doc(schedule)
    doc.update(name="tetrahedron", dimension=3,
               edges=[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
               reference_positions=[[0, 0, 0], [1, 0, 0], [0.5, 3 ** 0.5 / 2, 0],
                                    [0.5, 3 ** 0.5 / 6, (2 / 3) ** 0.5]],
               initial_positions=None)
    doc["targets"].update(v_body=[0.2, -0.1, 0.15], omega=[0.3, 0.2, 1.0])
    doc["sim"].update(dt=0.002, duration=6.0, record_stride=5,
                      perturbation={"seed": 4, "magnitude": 0.05})
    return doc


def near_shape(doc):
    """doc started 2e-8 off its reference shape: the error norm starts
    near the decay floor and never halves above it, so no decay rate can
    be fitted on the run."""
    doc["initial_positions"] = None
    doc["sim"]["perturbation"] = {"seed": 3, "magnitude": 2e-8}
    doc["name"] += "-near"
    return doc


FLAT = {"kind": "none"}
SQUARE_SWING = {"kind": "periodic", "amplitude": 0.25, "frequency": 1.5}
TETRA_SWING = {"kind": "periodic", "amplitude": 0.1, "frequency": 1.0}
# At amplitude 0.1 the tetrahedron without its scaling part misses its
# distances by 0.999%, inside the 1% bound; at 0.2 it misses by about 2%.
TETRA_WIDE_SWING = {"kind": "periodic", "amplitude": 0.2, "frequency": 1.0}


class TestAnalyze:
    def test_reports_rigidity(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["analyze", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank_rigidity"] == 5
        assert report["is_minimally_rigid"] is True
        assert report["bearing_kernel_dim"] == 3

    # K3,3 has no type-I order, so the SVD decides its rank; in space a
    # two-agent segment has its one edge as full rank, not 3n - 6 = 0; the
    # tetrahedron's bearing kernel holds 3 translations and 1 scaling.
    @pytest.mark.parametrize("shape, key, value", [
        ({"edges": [[i, j] for i in (1, 2, 3) for j in (4, 5, 6)],
          "reference_positions": [[0, 0], [4, 1], [1, 5], [6, 3], [2, 8], [7, 7]]},
         "rank_rigidity", 9),
        ({"dimension": 3, "edges": [[1, 2]], "reference_positions": [[0, 0, 0], [1, 0, 0]],
          "targets": {"v_body": [0, 0, 0], "omega": [0, 0, 0], "schedule": {"kind": "none"}}},
         "rank_rigidity", 1),
        (ci_tetrahedron_doc(TETRA_SWING), "bearing_kernel_dim", 4),
    ], ids=["k33", "space-segment", "tetrahedron"])
    def test_reports_rank_and_bearing_kernel_of_other_shapes(self, tmp_path, capsys, shape,
                                                             key, value):
        doc = json.loads(bundled_scenario_path("square").read_text())
        doc.update(shape, initial_positions=None)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)[key] == value

    def test_output_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["is_bearing_rigid"] is True

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 1

    def test_malformed_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", str(bad)]) == 1

    def test_collinear_scenario_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, reference_positions=[[0, 0], [1, 0], [2, 0], [3, 0]]
        )
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_number_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, gain=float("nan"))
        assert main(["analyze", str(path)]) == 1
        assert "$.gain" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        doc.update(dimension=3, edges=[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
                   reference_positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   gain=5.0)
        doc["targets"].update(v_body=[0, 0, 0], omega=[0, "x", 0])
        path.write_text(json.dumps(doc))
        assert main(["design", str(path)]) == 1
        err = capsys.readouterr().err
        assert "$.targets.omega[1]" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["analyze", "design", "simulate"])
    def test_overflowing_edge_lengths_are_refused(self, tmp_path, capsys, command):
        huge = (np.array([[0, 0], [15, 0], [15, 15], [0, 15]]) * 1e160).tolist()
        path = write_scenario(tmp_path, reference_positions=huge)
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "$.reference_positions: the length of edge 1 overflows" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_apart_shape_still_runs(self, tmp_path, capsys):
        far = (np.array([[0, 0], [15, 0], [15, 15], [0, 15]]) * 1e150).tolist()
        path = write_scenario(tmp_path, reference_positions=far)
        assert main(["analyze", str(path)]) == 0
        assert main(["design", str(path)]) == 0
        assert main(["simulate", str(path), "--duration", "0.1",
                     "-o", str(tmp_path / "run")]) == 0


class TestDesign:
    def test_space_dimensions_and_spin_direction(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "design.json"
        assert main(["design", str(path), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["space_dimensions"] == {"translation": 2, "rotation": 1, "scaling": 1}
        rotation = np.array(doc["parameters"]["rotation"]["tail"]
                            + doc["parameters"]["rotation"]["head"])
        pattern = np.array([-1.0, -1.0, 0.0, 1.0, -1.0] * 2)
        cosine = abs(rotation @ pattern) / (np.linalg.norm(rotation) * np.linalg.norm(pattern))
        assert cosine >= 1.0 - 1e-9
        assert max(doc["residuals"].values()) <= 1e-9

    def test_asymmetric_quad_designs(self, tmp_path, capsys):
        path = write_scenario(tmp_path,
                              reference_positions=[[0, 0], [15, 0], [17, 14], [0, 15]])
        out = tmp_path / "design.json"
        assert main(["design", str(path), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["space_dimensions"] == {"translation": 2, "rotation": 1, "scaling": 1}
        assert max(doc["residuals"].values()) <= 1e-9

    # An overflow warning on stderr would read like a crash.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_target_is_unreachable(self, tmp_path, capsys):
        # 1e308 rad/s overflows the rotation field itself.
        for v_body, omega, what in (([0.0, 0.0], 1e300, "rotation"),
                                    ([0.0, 0.0], 1e308, "rotation"),
                                    ([1e300, -1e300], 0.0, "translation")):
            path = write_scenario(tmp_path, targets={
                "v_body": v_body, "omega": omega, "schedule": {"kind": "none"},
            })
            assert main(["design", str(path)]) == 2
            captured = capsys.readouterr()
            assert f"Unreachable: {what} target unreachable" in captured.err
            assert captured.out == ""

    def test_zero_targets_give_zero_vectors(self, tmp_path, capsys):
        path = write_scenario(tmp_path, targets={
            "v_body": [0.0, 0.0], "omega": 0.0, "schedule": {"kind": "none"},
        })
        assert main(["design", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name in ("translation", "rotation"):
            assert np.abs(doc["parameters"][name]["tail"]).max() == 0.0
            assert np.abs(doc["parameters"][name]["head"]).max() == 0.0


class TestSimulate:
    def test_run_too_short_for_a_steady_state_window(self, tmp_path, capsys):
        from formsim import bundled_scenario_path

        # 0.02 time units at dt 0.001 and stride 10 record 3 samples, so
        # the second half of the run holds only 2.
        prefix = tmp_path / "short"
        assert main(["simulate", str(bundled_scenario_path("square")),
                     "--duration", "0.02", "-o", str(prefix)]) == 0
        report = json.loads(Path(f"{prefix}.json").read_text())
        assert report["samples"] == 3
        assert report["steady_state"] is None
        assert "window" in report["note"]

    def test_failed_decay_fit_keeps_the_fitted_motion(self, tmp_path, capsys):
        # The run starts 2e-8 off the shape, so its error never halves
        # above the decay floor; the motion it flies is still fitted.
        doc = near_shape(json.loads(bundled_scenario_path("square").read_text()))
        doc["targets"]["schedule"] = FLAT
        path, prefix = tmp_path / "near.json", tmp_path / "near-run"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "-o", str(prefix)]) == 0
        report = json.loads(Path(f"{prefix}.json").read_text())
        assert report["final_error_norm"] < 1e-9
        assert report["note"] == "error norm never decays below half its initial value"
        steady = report["steady_state"]
        assert steady["lambda_fit"] is None and steady["decay_decades"] is None
        assert steady["omega"] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(steady["v_body"]).max() <= 1e-9
        assert steady["scale_rate"] == pytest.approx(0.0, abs=1e-9)
        assert sorted(steady["residuals"]) == ["omega_fit_rms", "scale_fit_rms", "v_fit_rms"]

    @pytest.mark.parametrize("shape", ["square", "tetrahedron"])
    def test_report_gives_the_designed_spin_under_scaling(self, tmp_path, capsys, shape):
        if shape == "square":
            path, target = bundled_scenario_path("square"), 1.0
        else:
            path, target = tmp_path / "tetra.json", [0.3, 0.2, 1.0]
            path.write_text(json.dumps(ci_tetrahedron_doc(TETRA_SWING)))
        prefix = tmp_path / "run"
        assert main(["simulate", str(path), "-o", str(prefix)]) == 0
        steady = json.loads(Path(f"{prefix}.json").read_text())["steady_state"]
        np.testing.assert_allclose(steady["omega"], target, rtol=0.0, atol=1e-4)

    def test_writes_csv_and_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path)
        assert main(["simulate", str(path), "--duration", "1.0", "-o", "run"]) == 0
        csv_lines = Path("run.csv").read_text().strip().split("\n")
        assert len(csv_lines) == int(1.0 / (0.002 * 5)) + 2  # header + samples
        assert csv_lines[0] == "t,p_1x,p_1y,p_2x,p_2y,p_3x,p_3y,p_4x,p_4y,scale,V"
        report = json.loads(Path("run.json").read_text())
        assert report["samples"] == len(csv_lines) - 1

    @pytest.mark.parametrize("argv, clash", [
        (["quick.json"], "quick.json"),
        (["quick.json", "-o", "./quick"], "quick.json"),
        (["quick.json", "--params", "design.json", "-o", "design"], "design.json"),
    ], ids=["default-prefix", "scenario-prefix", "params-prefix"])
    def test_refuses_to_overwrite_its_inputs(self, tmp_path, monkeypatch, capsys, argv, clash):
        import formsim.cli

        def refuse(*args):
            raise AssertionError("integrated before refusing")

        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path)
        assert main(["design", "quick.json", "-o", "design.json"]) == 0
        inputs = {name: Path(name).read_bytes() for name in ("quick.json", "design.json")}
        capsys.readouterr()
        monkeypatch.setattr(formsim.cli, "integrate", refuse)
        assert main(["simulate", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert clash in err
        assert {name: Path(name).read_bytes() for name in inputs} == inputs
        assert not Path(f"{Path(clash).stem}.csv").exists()

    @pytest.mark.parametrize("output", ["quick.json", "./quick.json"])
    @pytest.mark.parametrize("command", ["design", "analyze"])
    def test_design_and_analyze_refuse_to_overwrite_the_scenario(self, tmp_path, monkeypatch,
                                                                 capsys, command, output):
        monkeypatch.chdir(tmp_path)
        kept = write_scenario(tmp_path).read_bytes()
        assert main([command, "quick.json", "-o", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"output {output} would overwrite the input quick.json" in captured.err
        assert Path("quick.json").read_bytes() == kept

    def test_deterministic_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path)
        main(["simulate", str(path), "--duration", "1.0", "-o", "a"])
        main(["simulate", str(path), "--duration", "1.0", "-o", "b"])
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

    def test_params_file_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path)
        design_path = tmp_path / "design.json"
        main(["design", str(path), "-o", str(design_path)])
        main(["simulate", str(path), "--duration", "1.0", "-o", "internal"])
        main(["simulate", str(path), "--duration", "1.0",
              "--params", str(design_path), "-o", "external"])
        assert Path("internal.csv").read_bytes() == Path("external.csv").read_bytes()

    def test_error_columns_decay_and_distances_oscillate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, initial_positions=[[2, -1], [13, 3], [17, 14], [-2, 12]],
                              sim={"dt": 0.002, "duration": 6.0, "record_stride": 25,
                                   "perturbation": None})
        assert main(["simulate", str(path), "-o", "osc"]) == 0
        rows = [line.split(",") for line in Path("osc.csv").read_text().strip().split("\n")[1:]]
        data = np.array([[float(v) for v in row] for row in rows])
        # The CSV holds t, positions, scale and V; errors and distances
        # are recomputed from a row's positions and scale factor.
        ref = load_scenario(path).reference_shape()
        distances = data[:, -2, None] * ref.distances
        errors = control_kernel(ref.graph, 2).lengths(data[:, 1:-2]) - distances
        first_error = np.abs(errors[0]).max()
        last_error = np.abs(errors[-1]).max()
        assert last_error < 1e-4 * first_error
        d_first = distances[:, 0]
        assert d_first.max() > 15.0 * 1.4
        assert d_first.min() < 15.0 * 0.6

    def test_failing_csv_block_writer_is_one_error_line(self, tmp_path, capfd, csv_blocks,
                                                        monkeypatch):
        def fail():
            raise RuntimeError("worker fails")

        fail_csv_workers(monkeypatch, fail)
        forks = csv_blocks(2)
        path = write_scenario(tmp_path)
        assert main(["simulate", str(path), "--duration", "1.0",
                     "-o", str(tmp_path / "run")]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: CSV writer for the rows from ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert len(forks) == 1
        assert_no_children()

    def test_equilibrium_rows_constant(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(
            tmp_path,
            targets={"v_body": [0.0, 0.0], "omega": 0.0, "schedule": {"kind": "none"}},
            sim={"dt": 0.01, "duration": 0.5, "record_stride": 10, "perturbation": None},
        )
        assert main(["simulate", str(path), "-o", "still"]) == 0
        lines = Path("still.csv").read_text().strip().split("\n")
        assert len(set(line.split(",", 1)[1] for line in lines[1:])) == 1


class TestVerify:
    def test_bundled_scenario_passes(self, capsys):
        from formsim import bundled_scenario_path

        code = main(["verify", str(bundled_scenario_path("square")), "--dt", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 7

    @pytest.mark.parametrize("shape", ["square", "tetrahedron"])
    def test_gradient_check_matches_one_potential_per_row(self, monkeypatch, shape):
        import formsim.simulate
        from formsim import Framework, control_law, parse_scenario
        from formsim.checks import check_gradient_consistency

        doc = square_doc(FLAT) if shape == "square" else ci_tetrahedron_doc(FLAT)
        scenario = parse_scenario(json.dumps(doc))
        ref = scenario.reference_shape()
        graph, m, nd = ref.graph, ref.dim, ref.framework.positions.size
        rng = np.random.default_rng(99)
        zero = MotionParameters.zero(graph.edge_count)
        scale = float(np.abs(ref.framework.positions).max())
        h = 1e-6 * max(1.0, scale)
        worst = 0.0
        for _ in range(100):
            p = ref.framework.positions + rng.uniform(-0.2, 0.2, nd) * scale
            analytic = -control_law(Framework(graph, m, p), ref.distances, zero, 1.0)
            fd = np.empty(nd)
            for i in range(nd):
                plus, minus = p.copy(), p.copy()
                plus[i] += h
                minus[i] -= h
                fd[i] = (elastic_potential(Framework(graph, m, plus), ref.distances)
                         - elastic_potential(Framework(graph, m, minus), ref.distances)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd)))
        # Chunks of a few rows, so that the check's batch spans several.
        monkeypatch.setattr(formsim.simulate, "_CHUNK_ELEMENTS", 100)
        result = check_gradient_consistency(scenario)
        assert result.detail == f"max relative gradient error {worst:.2e}"

    def test_square_scaled_by_1e150_converges_and_tracks(self, tmp_path, capsys):
        from formsim import bundled_scenario_path

        doc = json.loads(bundled_scenario_path("square").read_text())
        for key in ("reference_positions", "initial_positions"):
            doc[key] = [[x * 1e150 for x in point] for point in doc[key]]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        main(["verify", str(path), "--dt", "0.002"])
        out = capsys.readouterr().out
        assert "Unreachable" not in out
        assert "PASS exponential-convergence" in out
        assert "PASS distance-tracking" in out

    def test_quick_scenario_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_low_gain_fails_convergence_without_crashing(self, tmp_path, capsys):
        path = write_scenario(tmp_path, gain=0.01)
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL exponential-convergence" in out

    def test_steady_velocity_check_rejects_doubled_offsets(self, tmp_path):
        from formsim import ControllerConfig, SimConfig, integrate, load_scenario
        from formsim.checks import check_motion_tracking

        scenario = load_scenario(write_scenario(tmp_path, targets={
            "v_body": [0.3, 0.0], "omega": 1.0, "schedule": {"kind": "none"},
        }))
        ref = scenario.reference_shape()
        cfg = scenario.controller_config()
        doubled = ControllerConfig(cfg.gain, cfg.translation_part.scaled(2.0),
                                   cfg.rotation_part.scaled(2.0), cfg.scaling_part,
                                   cfg.schedule)
        sim = SimConfig(dt=0.002, duration=1.0, record_stride=5)
        for controller, passed in ((cfg, True), (doubled, False)):
            run = integrate(ref.framework, ref, controller, sim)
            result = check_motion_tracking(scenario, run)
            assert result.name == "steady-velocity"
            assert result.passed is passed, result.detail

    def test_trivial_scenario_passes(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            targets={"v_body": [0.0, 0.0], "omega": 0.0, "schedule": {"kind": "none"}},
            sim={"dt": 0.002, "duration": 8.0, "record_stride": 5,
                 "perturbation": {"seed": 7, "magnitude": 0.5}},
        )
        assert main(["verify", str(path)]) == 0
        assert "no motion designed" in capsys.readouterr().out

    def test_convergence_fit_stops_at_the_run_floor(self, tmp_path, capsys):
        # At dt 0.005 the converging run levels off near 1e-7, the error
        # the run started on the shape also reaches.  Fitted down to 1e-8,
        # that plateau would pull r_squared below 0.99.
        path = write_scenario(tmp_path, sim={"dt": 0.005, "duration": 6.0,
                                             "record_stride": 5, "perturbation": None})
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS exponential-convergence: rate=3.456 r_squared=0.9977 decades=5.71" in out

    @pytest.mark.parametrize("invariant_peak, passed", [
        (1.3e-7, True),  # floor 1.3e-6 cuts the plateau off
        (None, False),  # invariant run failed: floor 1e-8 keeps the plateau
        (0.05, False),  # drifting invariant run: floor 0.5 leaves 0.1 decades
    ])
    def test_convergence_floor_comes_from_the_invariant_run(self, invariant_peak, passed):
        from formsim import Divergence, Framework, ReferenceShape, SensingGraph, Trajectory
        from formsim.checks import check_exponential_convergence

        segment = ReferenceShape(Framework.from_points(SensingGraph(2, ((1, 2),)),
                                                       [[0.0, 0.0], [1.0, 0.0]]))

        def run(norms):
            # At scale 0 the scheduled distance is 0, so the error is the
            # length, sqrt(norm ** 2), which rounds back to norm.
            zeros = np.zeros_like(times)
            positions = np.stack([zeros, zeros, norms, zeros], axis=1)
            return Trajectory(times, positions, zeros, segment)

        times = np.linspace(0.0, 6.0, 241)
        plateau = 1.2e-7 * (1.0 + 0.2 * np.sin(37.0 * times))
        converging = run(1.5 * np.exp(-3.4 * times) + plateau)
        assert np.array_equal(converging.error_norms, 1.5 * np.exp(-3.4 * times) + plateau)
        invariant = (Divergence("state is not finite") if invariant_peak is None
                     else run(invariant_peak * np.abs(np.sin(times))))
        result = check_exponential_convergence(None, converging, invariant)
        assert result.passed is passed, result.detail


class TestMotionTracking:
    """check_motion_tracking measures the integrated run: a controller
    whose offsets miss the design fails it, the designed one passes."""

    @staticmethod
    def controller(cfg, mutant):
        zero = MotionParameters.zero(cfg.translation_part.tail.size)
        return {
            "designed": cfg,
            "no-motion": dataclasses.replace(cfg, translation_part=zero, rotation_part=zero),
            "half-rotation": dataclasses.replace(cfg, rotation_part=cfg.rotation_part.scaled(0.5)),
            "no-scaling": dataclasses.replace(cfg, scaling_part=zero),
        }[mutant]

    @pytest.mark.parametrize("doc, mutant", [
        (square_doc(FLAT), "designed"),
        (square_doc(FLAT), "no-motion"),
        (square_doc(FLAT), "half-rotation"),
        (square_doc(SQUARE_SWING), "designed"),
        (square_doc(SQUARE_SWING), "no-motion"),
        (square_doc(SQUARE_SWING), "half-rotation"),
        (square_doc(SQUARE_SWING), "no-scaling"),
        (near_shape(square_doc(FLAT)), "designed"),
        (near_shape(square_doc(SQUARE_SWING)), "designed"),
        (ci_tetrahedron_doc(FLAT), "designed"),
        (ci_tetrahedron_doc(FLAT), "no-motion"),
        (ci_tetrahedron_doc(FLAT), "half-rotation"),
        (ci_tetrahedron_doc(TETRA_SWING), "designed"),
        (ci_tetrahedron_doc(TETRA_SWING), "no-motion"),
        (ci_tetrahedron_doc(TETRA_SWING), "half-rotation"),
        (ci_tetrahedron_doc(TETRA_WIDE_SWING), "designed"),
        (ci_tetrahedron_doc(TETRA_WIDE_SWING), "no-scaling"),
    ], ids=lambda value: value if isinstance(value, str) else
        f"{value['name']}-{value['targets']['schedule']['kind']}"
        f"-{value['targets']['schedule'].get('amplitude', 0)}")
    def test_only_the_designed_controller_passes(self, doc, mutant):
        from formsim import integrate, parse_scenario
        from formsim.checks import check_motion_tracking

        scenario = parse_scenario(json.dumps(doc))
        ref = scenario.reference_shape()
        cfg = self.controller(scenario.controller_config(), mutant)
        run = integrate(scenario.initial_framework(), ref, cfg, scenario.sim)
        result = check_motion_tracking(scenario, run)
        assert result.name == ("steady-velocity" if scenario.schedule.kind == "none"
                               else "distance-tracking")
        assert result.passed is (mutant == "designed"), result.detail


class TestSpatialScenario:
    def write_tetra(self, tmp_path):
        doc = {
            "name": "tetra",
            "dimension": 3,
            "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
            "reference_positions": [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, 0.8660254037844386, 0.0],
                [0.5, 0.28867513459481287, 0.816496580927726],
            ],
            "initial_positions": None,
            "gain": 5.0,
            "targets": {
                "v_body": [0.1, -0.05, 0.08],
                "omega": [0.2, 0.1, 0.9],
                "schedule": {"kind": "none"},
            },
            "sim": {"dt": 0.002, "duration": 6.0, "record_stride": 5,
                    "perturbation": {"seed": 3, "magnitude": 0.05}},
        }
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps(doc))
        return path

    def test_verify_passes_in_three_dimensions(self, tmp_path, capsys):
        path = self.write_tetra(tmp_path)
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("PASS") == 7
        assert "steady-velocity" in out

    @pytest.mark.parametrize("schedule", [FLAT, TETRA_SWING], ids=["flat", "swing"])
    def test_runs_without_scipy(self, tmp_path, schedule):
        # formsim depends on NumPy alone: with every import of SciPy
        # refused, simulate and verify write what they write with it.
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps(ci_tetrahedron_doc(schedule)))
        commands = [["simulate", str(path), "--duration", "4", "-o", "run"],
                    ["verify", str(path), "--duration", "4"]]
        child = ("import json, sys\n"
                 "if sys.argv[1] == 'blocked':\n"
                 "    sys.modules['scipy'] = None\n"
                 "from formsim.cli import main\n"
                 "for argv in json.loads(sys.argv[2]):\n"
                 "    print('exit', main(argv), flush=True)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        outputs = {}
        for mode in ("blocked", "open"):
            cwd = tmp_path / mode
            cwd.mkdir()
            done = subprocess.run([sys.executable, "-c", child, mode, json.dumps(commands)],
                                  cwd=cwd, env=env, capture_output=True, timeout=300)
            outputs[mode] = {"returncode": done.returncode, "stdout": done.stdout,
                             "stderr": done.stderr,
                             **{f.name: f.read_bytes() for f in cwd.iterdir()}}
        blocked, open_ = outputs["blocked"], outputs["open"]
        assert blocked["returncode"] == 0, blocked["stderr"].decode()
        assert sorted(blocked) == sorted(open_) == [
            "returncode", "run.csv", "run.json", "stderr", "stdout"]
        assert [name for name in blocked if blocked[name] != open_[name]] == []
        assert blocked["stdout"].count(b"exit ") == 2

    def test_design_reports_spatial_dimensions(self, tmp_path, capsys):
        path = self.write_tetra(tmp_path)
        assert main(["design", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["space_dimensions"] == {"translation": 3, "rotation": 3, "scaling": 1}


class TestNumericalFailures:
    def test_edge_collapse_exits_with_numerical_code(self, tmp_path, capsys):
        doc = {
            "name": "collapse",
            "dimension": 2,
            "edges": [[1, 2], [2, 3], [3, 1]],
            "reference_positions": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]],
            "initial_positions": [[0.0, 0.0], [1e-11, 0.0], [0.5, 0.866]],
            "gain": 5.0,
            "targets": {"v_body": [0.0, 0.0], "omega": 0.0, "schedule": {"kind": "none"}},
            "sim": {"dt": 0.001, "duration": 0.5, "record_stride": 1, "perturbation": None},
        }
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "-o", str(tmp_path / "collapse-run")])
        assert code == 2
        assert "EdgeCollapse" in capsys.readouterr().err

    def test_degenerate_design_space_exits_with_numerical_code(self, tmp_path, capsys):
        # A two-agent segment, in the plane or in space, and a triangle in
        # space are minimally rigid, but some agent's bearings do not span the space, so its offsets
        # cannot move it in every direction.
        still = {"v_body": [0.0, 0.0], "omega": 0.0, "schedule": {"kind": "none"}}
        shapes = {
            "segment": (2, [[1, 2]], [[0.0, 0.0], [1.0, 0.0]], still),
            "space-segment": (3, [[1, 2]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                              {**still, "v_body": [0.0, 0.0, 0.0], "omega": [0.0, 0.0, 0.0]}),
            "triangle": (3, [[1, 2], [2, 3], [3, 1]],
                         [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         {**still, "v_body": [0.0, 0.0, 0.0], "omega": [0.0, 0.0, 0.0]}),
        }
        for name, (dim, edges, points, targets) in shapes.items():
            path = write_scenario(tmp_path, name=f"{name}.json", dimension=dim, edges=edges,
                                  reference_positions=points, targets=targets)
            assert main(["design", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert "DegenerateShape" in err and "agent 1 " in err, name
            assert "Traceback" not in err

    def test_diverging_run_exits_with_numerical_code(self, tmp_path, capsys):
        # RK4 is unstable at this gain and step, so the state overflows.
        path = write_scenario(tmp_path, gain=200.0,
                              sim={"dt": 0.05, "duration": 20.0, "record_stride": 1,
                                   "perturbation": {"seed": 7, "magnitude": 0.5}})
        code = main(["simulate", str(path), "-o", str(tmp_path / "diverge")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Divergence" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gain, sim, message", [
        # Six steps at record stride 4: the last step is not recorded.
        (1e10, {"dt": 0.05, "duration": 0.3, "record_stride": 4},
         "state is not finite at t=0.3"),
        # One step lands on a finite state whose squared edges overflow.
        (1e45, {"dt": 0.01, "duration": 0.01, "record_stride": 1},
         "edge lengths overflow at t=0.01"),
    ])
    def test_divergence_past_the_last_recorded_check(self, tmp_path, capsys, gain, sim,
                                                      message):
        path = write_scenario(tmp_path, gain=gain,
                              sim={**sim, "perturbation": {"seed": 7, "magnitude": 0.5}})
        assert main(["simulate", str(path), "-o", str(tmp_path / "run")]) == 2
        assert f"Divergence: {message}" in capsys.readouterr().err

    def test_failed_decomposition_exits_with_numerical_code(self, tmp_path, capsys,
                                                            monkeypatch):
        def failing_eigvalsh(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # Rank counts use the SVD, so the shape still loads; the per-agent
        # bearing decomposition of the calibration fails.
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        code = main(["design", str(write_scenario(tmp_path))])
        err = capsys.readouterr().err
        assert code == 2
        assert "DegenerateShape" in err

    def test_collapsing_run_fails_only_its_verify_check(self, tmp_path, capsys):
        # Agents 1 and 2 start on top of each other, which ends only the
        # run that starts from the initial positions.
        path = write_scenario(tmp_path,
                              initial_positions=[[0, 0], [0, 0], [15, 15], [0, 15]],
                              sim={"dt": 0.002, "duration": 8.0, "record_stride": 5,
                                   "perturbation": None})
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert "PASS shape-invariance" in out
        assert "PASS exponential-convergence" in out
        assert "FAIL distance-tracking: EdgeCollapse" in out


class TestOverrides:
    def test_bad_step_or_horizon_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        for flags in (["--dt", "-1"], ["--dt", "nan"], ["--duration", "-2"],
                      ["--duration", "inf"]):
            assert main(["simulate", str(path), *flags]) == 1, flags
            assert "Traceback" not in capsys.readouterr().err

    def test_huge_step_counts_are_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "run")
        # 5e14 steps at record stride 5 ask for a 5.7 PiB trajectory.
        assert main(["simulate", str(path), "--duration", "1e12", "-o", out]) == 2
        assert "do not fit in memory" in capsys.readouterr().err
        flags = ["--dt", "1e-300", "--duration", "1e300"]
        assert main(["simulate", str(path), *flags, "-o", out]) == 1
        assert "command-line override: duration / dt overflows" in capsys.readouterr().err
        path = write_scenario(tmp_path, sim={"dt": 1e-300, "duration": 1e300})
        assert main(["simulate", str(path), "-o", out]) == 1
        assert "$.sim: duration / dt overflows" in capsys.readouterr().err

    def test_record_stride_longer_than_the_run_is_refused(self, tmp_path, capsys):
        # Such a stride records only the start and discards every step.
        out = str(tmp_path / "run")
        path = write_scenario(tmp_path, sim={"dt": 0.002, "duration": 2.0,
                                             "record_stride": 100000, "perturbation": None})
        assert main(["simulate", str(path), "-o", out]) == 1
        assert "$.sim: record_stride 100000 exceeds the run's 1000 steps" \
            in capsys.readouterr().err
        # 4 steps at the scenario's record stride 5.
        for command in (["simulate", "-o", out], ["verify"]):
            path = str(write_scenario(tmp_path))
            assert main([command[0], path, "--duration", "0.008", *command[1:]]) == 1
            assert "command-line override: record_stride 5 exceeds the run's 4 steps" \
                in capsys.readouterr().err

    def test_rk4_is_the_only_integrator(self, tmp_path, capsys):
        sim = {"dt": 0.002, "duration": 1.0, "record_stride": 5, "perturbation": None}
        for integrator in ("rk4", None):
            doc_sim = sim if integrator is None else {**sim, "integrator": integrator}
            assert main(["design", str(write_scenario(tmp_path, sim=doc_sim))]) == 0
        capsys.readouterr()
        path = write_scenario(tmp_path, sim={**sim, "integrator": "euler"})
        assert main(["design", str(path)]) == 1
        assert "$.sim.integrator" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["design", str(path), "--seed", "-1"]) == 1
        assert "command-line override: seed must not be negative" in capsys.readouterr().err
        path = write_scenario(tmp_path, sim={"dt": 0.002, "duration": 1.0,
                                             "perturbation": {"seed": -1, "magnitude": 0.5}})
        assert main(["design", str(path)]) == 1
        assert "$.sim.perturbation.seed" in capsys.readouterr().err

    def test_schedule_is_checked_up_to_the_last_step(self, tmp_path, capsys):
        # 1.1 / 0.4 rounds up to 3 steps: the run would end at 1.2, past
        # the point where the shrinking schedule reaches zero.
        shrinking = {"v_body": [0.0, 0.0], "omega": 0.0,
                     "schedule": {"kind": "linear", "rate": -0.9}}
        path = write_scenario(tmp_path, targets=shrinking,
                              sim={"dt": 0.4, "duration": 1.1, "perturbation": None})
        assert main(["simulate", str(path), "-o", str(tmp_path / "past")]) == 1
        err = capsys.readouterr().err
        assert "scale factor reaches zero" in err and "Traceback" not in err
        path = write_scenario(tmp_path, targets=shrinking,
                              sim={"dt": 0.1, "duration": 1.1, "perturbation": None})
        assert main(["simulate", str(path), "--dt", "0.4", "-o", str(tmp_path / "past")]) == 1
        err = capsys.readouterr().err
        assert "scale factor reaches zero" in err and "Traceback" not in err

    def test_duration_override_validates_schedule(self, tmp_path, capsys):
        path = write_scenario(tmp_path, targets={
            "v_body": [0.0, 0.0], "omega": 0.0,
            "schedule": {"kind": "linear", "rate": -0.2},
        }, sim={"dt": 0.002, "duration": 1.0, "record_stride": 5, "perturbation": None})
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--duration", "10.0"]) == 1

    def test_seed_override_changes_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path)
        main(["simulate", str(path), "--duration", "0.5", "-o", "s7"])
        main(["simulate", str(path), "--duration", "0.5", "--seed", "8", "-o", "s8"])
        assert Path("s7.csv").read_bytes() != Path("s8.csv").read_bytes()

    def test_seed_override_matches_the_seed_in_the_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        seven = write_scenario(tmp_path)
        doc = json.loads(seven.read_text())
        doc["sim"]["perturbation"]["seed"] = 8
        eight = write_scenario(tmp_path, "eight.json", sim=doc["sim"])
        runs = {}
        for prefix, argv in (("override", [str(seven), "--seed", "8"]), ("file", [str(eight)])):
            assert main(["simulate", *argv, "--duration", "2", "-o", prefix]) == 0
            capsys.readouterr()
            main(["verify", *argv, "--duration", "2"])
            runs[prefix] = (Path(f"{prefix}.csv").read_bytes(), Path(f"{prefix}.json").read_bytes(),
                            capsys.readouterr().out)
        assert runs["override"] == runs["file"]


TETRA_SCENARIO = {
    "dimension": 3,
    "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
    "reference_positions": [[0, 0, 0], [1, 0, 0], [0.5, 0.8, 0], [0.5, 0.3, 0.8]],
    "targets": {"v_body": [0.1, 0.0, 0.0], "omega": [0.0, 0.0, 0.5],
                "schedule": {"kind": "none"}},
}


def count_reports(monkeypatch):
    """Count rigidity_report calls made through any formsim module."""
    import formsim.rigidity

    calls = []
    original = formsim.rigidity.rigidity_report

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("formsim") and getattr(module, "rigidity_report", None) is original:
            monkeypatch.setattr(module, "rigidity_report", counted)
    return calls


class TestReferenceRigidity:
    @pytest.mark.parametrize("shape", [{}, TETRA_SCENARIO])
    def test_load_design_simulate_skip_bearing_rigidity(self, tmp_path, capsys,
                                                       monkeypatch, shape):
        # The rank of a certified shape decides every rigidity field, so no
        # command takes an SVD, of the rigidity matrix or of any other.
        import formsim.rigidity
        from formsim import load_scenario

        def refuse(matrix, rel_tol):
            raise AssertionError(f"SVD of a {matrix.shape} matrix")

        monkeypatch.setattr(formsim.rigidity, "numerical_rank", refuse)
        path = write_scenario(tmp_path, **shape)
        load_scenario(path)
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["is_bearing_rigid"] is True
        assert main(["design", str(path)]) == 0
        assert main(["simulate", str(path), "--duration", "0.2",
                     "-o", str(tmp_path / "run")]) == 0
        main(["verify", str(path), "--dt", "0.01", "--duration", "1"])
        assert "PASS reference-rigidity" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", [{}, TETRA_SCENARIO])
    def test_design_skips_the_velocity_map(self, tmp_path, capsys, monkeypatch, shape):
        from formsim import ReferenceShape

        def refuse(ref):
            raise AssertionError("dense velocity map built")

        monkeypatch.setattr(ReferenceShape, "velocity_map", property(refuse))
        assert main(["design", str(write_scenario(tmp_path, **shape))]) == 0
        assert json.loads(capsys.readouterr().out)["residuals"]["scaling_unit_rate"] < 1e-12

    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_bearing_gram_is_decomposed_once(self, tmp_path, capsys, monkeypatch, command):
        # Calibration and the motion-spaces check share the shape's
        # Gram blocks, so one command decomposes them once.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, UPLO="L"):
            calls.append(a.shape)
            return eigvalsh(a, UPLO)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        main([command, str(bundled_scenario_path("square")), "--duration", "1"])
        assert calls == [(4, 2, 2)]

    def test_analyze_and_simulate_params_skip_the_bearings(self, tmp_path, capsys,
                                                           monkeypatch):
        from formsim import ReferenceShape

        path = write_scenario(tmp_path)
        design = tmp_path / "design.json"
        assert main(["design", str(path), "-o", str(design)]) == 0

        def refuse(ref):
            raise AssertionError("bearings built")

        for name in ("units", "bearing_gram"):
            monkeypatch.setattr(ReferenceShape, name, property(refuse))
        assert main(["analyze", str(path)]) == 0
        assert main(["simulate", str(path), "--params", str(design), "--duration", "0.2",
                     "-o", str(tmp_path / "run")]) == 0

    def test_analyze_and_verify_report_once(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, sim={"dt": 0.005, "duration": 6.0,
                                             "record_stride": 5, "perturbation": None})
        calls = count_reports(monkeypatch)
        assert main(["analyze", str(path)]) == 0
        assert len(calls) == 1
        main(["verify", str(path)])
        assert "PASS reference-rigidity" in capsys.readouterr().out
        assert len(calls) == 2

    def test_analyze_and_verify_decide_each_rank_once(self, tmp_path, capsys, monkeypatch):
        import formsim.rigidity

        shapes, certified = [], []
        original_rank = formsim.rigidity.numerical_rank
        original_certificate = formsim.rigidity.certifies_full_row_rank

        def counted_rank(matrix, rel_tol):
            shapes.append(matrix.shape)
            return original_rank(matrix, rel_tol)

        def counted_certificate(fw, rel_tol):
            certified.append(fw)
            return original_certificate(fw, rel_tol)

        monkeypatch.setattr(formsim.rigidity, "numerical_rank", counted_rank)
        monkeypatch.setattr(formsim.rigidity, "certifies_full_row_rank", counted_certificate)
        path = write_scenario(tmp_path, sim={"dt": 0.005, "duration": 6.0,
                                             "record_stride": 5, "perturbation": None})
        # The 5 x 8 rigidity matrix is certified, and the bearing fields
        # follow from its rank, so nothing takes an SVD.
        for command, *rest in (["analyze"], ["design"],
                               ["simulate", "-o", str(tmp_path / "run")], ["verify"]):
            certified.clear()
            main([command, str(path), *rest])
            assert shapes == [], command
            assert len(certified) == 1, command
        assert "PASS reference-rigidity" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "design", "simulate", "verify"])
    def test_each_command_builds_one_graph(self, tmp_path, capsys, monkeypatch, command):
        # parse_scenario builds and checks the sensing graph once; the
        # scenario's reference shape holds it for every later step.
        from formsim import SensingGraph

        built = []
        post_init = SensingGraph.__post_init__

        def counted(graph):
            built.append(graph.edge_count)
            post_init(graph)

        monkeypatch.setattr(SensingGraph, "__post_init__", counted)
        rest = {"simulate": ["-o", str(tmp_path / "run")]}.get(command, [])
        # A 1 s verify fails its convergence checks; only the count matters.
        main([command, str(write_scenario(tmp_path)), "--duration", "1", *rest])
        assert built == [5]

    @pytest.mark.parametrize("command", ["design", "simulate", "verify"])
    def test_each_command_solves_one_motion_basis(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # The three designed parts and the motion-spaces check all read
        # the reference shape's motion basis: one solve of its 4 columns.
        import formsim.motion

        solves = []
        solve = formsim.motion._min_norm_offsets

        def counted(ref, fields):
            solves.append(fields.shape[1])
            return solve(ref, fields)

        monkeypatch.setattr(formsim.motion, "_min_norm_offsets", counted)
        rest = {"simulate": ["-o", str(tmp_path / "run")]}.get(command, [])
        path = str(bundled_scenario_path("square"))
        assert main([command, path, "--duration", "1", *rest]) in (0, 2)
        assert solves == [4]

    @pytest.mark.parametrize("edges, message", [
        ([[1, 2], [2, 3], [3, 4], [4, 1]], "(rank 4, 4 edges, target 5)"),
        ([[1, 2], [2, 3], [3, 1], [4, 3], [4, 1], [2, 4]], "(rank 5, 6 edges, target 5)"),
    ], ids=["flexible", "over-braced"])
    def test_non_minimal_shape_is_refused(self, tmp_path, capsys, edges, message):
        from formsim import RigidityError, load_scenario

        path = write_scenario(tmp_path, edges=edges)
        expected = f"reference shape is not minimally rigid {message}"
        with pytest.raises(RigidityError) as info:
            load_scenario(path)
        assert str(info.value) == expected
        for command in ("analyze", "design", "simulate", "verify"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {expected}\n"
