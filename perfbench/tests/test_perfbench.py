"""Self-tests of the benchmark: generator, shapes, metric names, checks, smoke runs."""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import BENCH, ROOT

import bench
import outcheck
from henneberg import henneberg
from workloads import WORKLOADS, Command, Outcome, SwarmSettle

import formsim

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


# ---- generator ------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_generator_is_deterministic_per_seed(dim):
    points, edges = henneberg(40, dim, seed=5)
    again_points, again_edges = henneberg(40, dim, seed=5)
    other_points, _ = henneberg(40, dim, seed=6)
    assert np.array_equal(points, again_points) and edges == again_edges
    assert not np.array_equal(points, other_points)


@pytest.mark.parametrize("dim", [2, 3])
def test_generator_spacing_and_edge_count(dim):
    n = 60
    points, edges = henneberg(n, dim, seed=2)
    gaps = np.linalg.norm(points[:, None] - points[None], axis=2) + np.eye(n) * 1e9
    assert gaps.min() >= 2.0
    assert points.min() >= 0.0 and points.max() <= 10.0 * n ** (1.0 / dim)
    assert len(edges) == dim * n - dim * (dim + 1) // 2
    assert all(tail < head for tail, head in edges)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["swarm-design", "swarm-settle"])
def test_workload_shapes_are_minimally_rigid(work, name, seed):
    wl = WORKLOADS[name](seed, work, ROOT)
    for f in wl.formations:
        scenario = formsim.load_scenario(f.path)
        report = formsim.rigidity_report(scenario.reference_shape().framework)
        assert report.is_minimally_rigid and report.is_bearing_rigid
        assert f.edges == (2 * f.n - 3 if f.dim == 2 else 3 * f.n - 6)


def test_workload_sizes_match_the_definition(work):
    sizes = {name: [(f.dim, f.n, f.edges, f.steps) for f in WORKLOADS[name](1, work, ROOT).formations]
             for name in WORKLOADS}
    assert sizes == {
        "square-verify": [(2, 4, 5, 60000)],
        "swarm-design": [(2, 256, 509, 0), (3, 128, 378, 0)],
        "swarm-settle": [(2, 512, 1021, 1000)],
    }


# ---- metric names ---------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layers == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*e2e, *layers, *WORKLOADS]:
        assert NAME.fullmatch(name), name


# ---- output checks fire on broken output ----------------------------------

VERIFY_OK = "".join(f"PASS check-{k}: fine\n" for k in range(7)) + "all checks passed\n"


def test_verify_check():
    assert outcheck.check_verify(VERIFY_OK) == []
    failing = VERIFY_OK.replace("PASS check-3", "FAIL check-3").replace(
        "all checks passed", "some checks failed")
    assert len(outcheck.check_verify(failing)) == 3
    assert outcheck.check_verify(VERIFY_OK.split("\n", 1)[1])  # six PASS lines


def test_analyze_check():
    good = {"rank_rigidity": 9, "is_minimally_rigid": True, "is_bearing_rigid": True}
    assert outcheck.check_analyze(json.dumps(good), 6, 2) == []
    assert outcheck.check_analyze(json.dumps({**good, "rank_rigidity": 8}), 6, 2)
    assert outcheck.check_analyze(json.dumps({**good, "is_minimally_rigid": False}), 6, 2)
    assert outcheck.check_analyze("not json", 6, 2)


def test_design_check():
    norms = {"translation": 2.0, "rotation": 5e3, "scaling_unit_rate": 0.5}
    doc = {"space_dimensions": {"translation": 3, "rotation": 3, "scaling": 1},
           "residuals": {"translation": 1e-12, "rotation": 4e-6, "scaling_unit_rate": 1e-10}}
    assert outcheck.check_design(json.dumps(doc), 3, norms) == []
    wrong_dims = {**doc, "space_dimensions": {"translation": 3, "rotation": 1, "scaling": 1}}
    assert outcheck.check_design(json.dumps(wrong_dims), 3, norms)
    big = {**doc, "residuals": {**doc["residuals"], "rotation": 6e-6}}
    assert outcheck.check_design(json.dumps(big), 3, norms)
    missing = {**doc, "residuals": {"translation": 0.0}}
    assert len(outcheck.check_design(json.dumps(missing), 3, norms)) == 2


def write_csv(path, potentials, truncate=False):
    lines = ["t,p_1x,p_1y,e_1,V,d_1"]
    lines += [f"{0.1 * j!r},0.0,1.0,0.5,{v!r},1.0" for j, v in enumerate(potentials)]
    text = "\n".join(lines) + "\n"
    path.write_text(text[:-5] if truncate else text)


def test_csv_scan(work):
    path = work / "run.csv"
    write_csv(path, [3.0, 2.0, 2.0, 1.0])
    sha, problems = outcheck.scan_trajectory_csv(path, 4)
    assert problems == [] and len(sha) == 64

    write_csv(path, [3.0, 2.0, 2.5, 1.0])
    assert "V rises" in outcheck.scan_trajectory_csv(path, 4)[1][0]
    write_csv(path, [3.0, 2.0, 1.0, 0.5], truncate=True)
    assert outcheck.scan_trajectory_csv(path, 4)[1]
    write_csv(path, [3.0, 2.0, 1.0])
    assert "rows" in outcheck.scan_trajectory_csv(path, 4)[1][0]


def test_csv_hash_must_repeat(work):
    wl = SwarmSettle(1, work, ROOT, smoke=True)
    path = work / "run.csv"
    write_csv(path, [1.0] * wl.samples)
    assert wl._check_csv(path) == []
    assert wl._check_csv(path) == []
    write_csv(path, [2.0] * wl.samples)
    assert "SHA-256" in wl._check_csv(path)[0]


def test_settle_report_check():
    steady = {"v_body": [1e-15, -2e-15], "omega": -3e-9}
    doc = {"samples": 11, "steady_state": steady}
    assert outcheck.check_settle_report(json.dumps(doc), 11) == []
    assert outcheck.check_settle_report(json.dumps(doc), 12)
    drift = {**doc, "steady_state": {**steady, "v_body": [0.5, 0.0]}}
    assert outcheck.check_settle_report(json.dumps(drift), 11)
    spin = {**doc, "steady_state": {**steady, "omega": 0.2}}
    assert outcheck.check_settle_report(json.dumps(spin), 11)
    missing = {**doc, "steady_state": None, "note": "no decay"}
    assert outcheck.check_settle_report(json.dumps(missing), 11)


def test_typed_error_and_refusal():
    assert outcheck.typed_error(2, "error: Unreachable: rotation target\n") == "Unreachable"
    assert outcheck.typed_error(1, "error: reference shape is not rigid\n") is None
    assert outcheck.typed_error(2, "Traceback (most recent call last):\nerror: X: y\n") is None

    refused = Outcome(2, "", "error: Unreachable: rotation target\n")
    design = Command(["design"], lambda out: [], may_refuse=True)
    analyze = Command(["analyze"], lambda out: [])
    assert bench.classify(design, refused)["outcome"] == "refused"
    assert bench.classify(analyze, refused)["outcome"] == "broken"
    assert bench.classify(design, Outcome(-9, "", ""))["outcome"] == "broken"
    wrong = Command(["design"], lambda out: ["bad residual"], may_refuse=True)
    assert bench.classify(wrong, Outcome(0, "", ""))["outcome"] == "broken"


def test_in_process_command_reports_exit_codes(work):
    missing = bench.run_in_process(["verify", str(work / "missing.json")])
    assert missing.returncode == 1 and missing.stderr.startswith("error: ")
    assert bench.run_in_process(["no-such-command"]).returncode == 2
    verify = Command(["verify"], lambda out: outcheck.check_verify(out.stdout))
    assert bench.classify(verify, missing)["outcome"] == "broken"


# ---- whole runs -----------------------------------------------------------

def test_smoke_runs_every_workload_both_ways():
    done = run_bench("--workload", "all", "--seed", "4", "--seconds", "0.5", "--smoke")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    for name in WORKLOADS:
        for trace, units in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            report = json.loads((ROOT / ".perfbench_out" /
                                 f"{name}-seed4-trace{trace}.json").read_text())
            assert set(report["metrics"]) == set(units)
            assert report["provenance"]["formations"]
    # design may be refused with a typed error (the known baseline failure);
    # every other outcome must be ok.
    for trace in (0, 1):
        design = json.loads((ROOT / ".perfbench_out" /
                             f"swarm-design-seed4-trace{trace}.json").read_text())
        assert design["failed"] == 0
        assert all(key.startswith("design:") and key != "design:None"
                   for key in design["details"]["refused"])
    layers = design["metrics"]
    assert 0 < layers["motion.calibrate_attempted"]
    assert layers["motion.calibrate_failed"] <= layers["motion.calibrate_attempted"]


def test_last_line_has_exactly_the_result_keys():
    done = run_bench("--workload", "swarm-settle", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_refuses_to_run_without_formsim_source(work):
    shutil.copytree(BENCH, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    done = run_bench("--workload", "square-verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=work, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
