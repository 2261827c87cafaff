"""The three benchmark workloads: inputs, CLI commands and output checks.

Each workload writes its scenario files from the seed, lists the
formsim commands of one round and says how to check each command's
output.  The same commands run as child processes with tracing off and
in-process through `formsim.cli.main` with tracing on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import formsim

import outcheck
from henneberg import henneberg


@dataclass
class Formation:
    """One generated (or bundled) scenario and what the checks need of it."""

    label: str
    path: Path
    n: int
    dim: int
    edges: int
    seed: int | None
    steps: int
    target_norms: dict = field(default_factory=dict)

    def provenance(self) -> dict:
        return {"label": self.label, "seed": self.seed, "n": self.n, "dim": self.dim,
                "E": self.edges, "steps": self.steps}


@dataclass
class Outcome:
    """What one child process left behind."""

    returncode: int
    stdout: str
    stderr: str


@dataclass
class Command:
    argv: list[str]  # formsim CLI arguments
    check: Callable[[Outcome], list[str]]  # called only on exit code 0
    may_refuse: bool = False  # a typed numerical failure is a result, not a crash


def scenario_doc(name, points, edges, gain, v_body, omega, schedule, sim) -> dict:
    return {
        "name": name,
        "dimension": points.shape[1],
        "edges": edges,
        "reference_positions": points.tolist(),
        "initial_positions": None,
        "gain": gain,
        "targets": {"v_body": v_body, "omega": omega, "schedule": schedule},
        "sim": sim,
    }


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n")
    return path


def target_norms(points: np.ndarray, edges, v_body, omega) -> dict:
    """Norms of the three calibration targets, computed without formsim."""
    centered = points - points.mean(axis=0)
    if points.shape[1] == 2:
        spin = float(omega) * np.stack([-centered[:, 1], centered[:, 0]], axis=1)
    else:
        spin = np.cross(np.asarray(omega, dtype=float), centered)
    idx = np.asarray(edges) - 1
    lengths = np.linalg.norm(points[idx[:, 0]] - points[idx[:, 1]], axis=1)
    return {
        "translation": float(np.linalg.norm(v_body)) * len(points) ** 0.5,
        "rotation": float(np.linalg.norm(spin)),
        "scaling_unit_rate": float(np.linalg.norm(lengths)),
    }


def check_reference(points: np.ndarray, edges) -> None:
    """Refuse a generated shape that is not minimally and bearing rigid."""
    graph = formsim.SensingGraph(len(points), tuple(map(tuple, edges)))
    report = formsim.rigidity_report(formsim.Framework.from_points(graph, points))
    if not (report.is_minimally_rigid and report.is_bearing_rigid):
        raise RuntimeError(f"generated reference is not minimally rigid: {report}")


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, root: Path, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.root = root
        self.smoke = smoke
        self.formations: list[Formation] = self.prepare()

    def prepare(self) -> list[Formation]:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError


class SquareVerify(Workload):
    name = "square-verify"

    def prepare(self):
        path = self.root / "src" / "formsim" / "scenarios" / "square.json"
        doc = json.loads(path.read_text())
        if self.smoke:
            doc["sim"].update(dt=0.005, duration=4.0)
            path = write_json(self.work / "square-smoke.json", doc)
        steps = 3 * round(doc["sim"]["duration"] / doc["sim"]["dt"])
        return [Formation("square", path, len(doc["reference_positions"]), doc["dimension"],
                          len(doc["edges"]), None, steps)]

    def commands(self):
        return [Command(["verify", str(self.formations[0].path)],
                        lambda out: outcheck.check_verify(out.stdout))]


class SwarmDesign(Workload):
    name = "swarm-design"

    SIZES = ((2, 256), (3, 128))
    SMOKE_SIZES = ((2, 12), (3, 8))

    def prepare(self):
        out = []
        for dim, n in self.SMOKE_SIZES if self.smoke else self.SIZES:
            points, edges = henneberg(n, dim, self.seed)
            check_reference(points, edges)
            v_body = [0.5] + [0.0] * (dim - 1)
            omega = 0.2 if dim == 2 else [0.0, 0.0, 0.2]
            doc = scenario_doc(
                f"swarm-design-{dim}d", points, edges, 1.0, v_body, omega,
                {"kind": "periodic", "amplitude": 0.1, "frequency": 0.5},
                {"dt": 0.005, "duration": 5.0, "integrator": "rk4", "record_stride": 1,
                 "perturbation": None},
            )
            path = write_json(self.work / f"design-{dim}d.json", doc)
            out.append(Formation(f"{dim}d", path, n, dim, len(edges), self.seed, 0,
                                 target_norms(points, edges, v_body, omega)))
        return out

    def commands(self):
        cmds = []
        for f in self.formations:
            design_path = self.work / f"design-{f.label}.out.json"
            cmds.append(Command(["analyze", str(f.path)],
                                lambda out, f=f: outcheck.check_analyze(out.stdout, f.n, f.dim)))
            cmds.append(Command(
                ["design", str(f.path), "-o", str(design_path)],
                lambda out, f=f, p=design_path: outcheck.check_design(
                    p.read_text(), f.dim, f.target_norms),
                may_refuse=True,
            ))
        return cmds


class SwarmSettle(Workload):
    name = "swarm-settle"

    N = 512
    SMOKE_N = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.csv_sha: str | None = None

    def prepare(self):
        n = self.SMOKE_N if self.smoke else self.N
        points, edges = henneberg(n, 2, self.seed)
        check_reference(points, edges)
        sim = {"dt": 0.005, "duration": 5.0, "integrator": "rk4", "record_stride": 1,
               "perturbation": {"seed": self.seed, "magnitude": 0.5}}
        doc = scenario_doc("swarm-settle", points, edges, 1.0, [0.0, 0.0], 0.0,
                           {"kind": "none"}, sim)
        zero = {"tail": [0.0] * len(edges), "head": [0.0] * len(edges)}
        self.params_path = write_json(self.work / "zero-offsets.json", {"parameters": {
            "translation": zero, "rotation": zero, "scaling_unit_rate": zero}})
        path = write_json(self.work / "settle.json", doc)
        steps = round(sim["duration"] / sim["dt"])
        self.samples = steps + 1
        return [Formation("2d", path, n, 2, len(edges), self.seed, steps)]

    def _check_csv(self, path: Path) -> list[str]:
        sha, problems = outcheck.scan_trajectory_csv(path, self.samples)
        if self.csv_sha is None:
            self.csv_sha = sha
        elif sha != self.csv_sha:
            problems.append(f"csv: SHA-256 {sha} differs from the first run's {self.csv_sha}")
        return problems

    def commands(self):
        prefix = self.work / "run"

        def check(out: Outcome) -> list[str]:
            report = Path(f"{prefix}.json").read_text()
            return (outcheck.check_settle_report(report, self.samples)
                    + self._check_csv(Path(f"{prefix}.csv")))

        return [Command(["simulate", str(self.formations[0].path), "--params",
                         str(self.params_path), "-o", str(prefix)], check)]


WORKLOADS = {w.name: w for w in (SquareVerify, SwarmDesign, SwarmSettle)}
