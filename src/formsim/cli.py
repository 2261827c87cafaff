"""Command-line interface: analyze, design, simulate, verify.

Exit codes: 0 on success, 1 for validation problems (bad scenario file,
failed rigidity or positivity checks), 2 for numerical failures and
failed verification checks.  Set FORMSIM_LOG to DEBUG or INFO for
progress output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    FormsimError,
    InsufficientDecay,
    PositivityError,
    RigidityError,
    SchemaError,
)
from .checks import run_verification
from .motion import field_residual, rotation_field
from .scenario import (
    Scenario,
    design_to_document,
    load_scenario,
    parse_design,
    write_trajectory_csv,
)
from .simulate import Perturbation, integrate, steady_state_report

log = logging.getLogger("formsim")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--dt", type=float, default=None, help="override the time step")
    parser.add_argument("--duration", type=float, default=None, help="override the horizon")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the perturbation seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formsim",
        description="Design and simulate motion and scaling of rigid formations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="rigidity report of the reference shape")
    _add_common(p_analyze)
    p_analyze.add_argument("-o", "--output", default=None, help="also write the report here")

    p_design = sub.add_parser("design", help="calibrate motion and scaling offsets")
    _add_common(p_design)
    p_design.add_argument("-o", "--output", default=None, help="write the design here")

    p_sim = sub.add_parser("simulate", help="integrate the dynamics and export results")
    _add_common(p_sim)
    p_sim.add_argument("--params", default=None, help="design file from the design command")
    p_sim.add_argument("-o", "--output-prefix", default=None,
                       help="prefix for the CSV and report files (default: scenario stem)")

    p_verify = sub.add_parser("verify", help="run the property checks for the scenario")
    _add_common(p_verify)
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.duration is not None:
        overrides["duration"] = args.duration
    try:
        if args.seed is not None:
            if scenario.perturbation is None:
                log.warning("--seed ignored: scenario has no perturbation")
            else:
                scenario.perturbation = Perturbation(args.seed, scenario.perturbation.magnitude)
        if overrides:
            scenario.sim = dataclasses.replace(scenario.sim, **overrides)
    except ValueError as exc:
        raise SchemaError(f"command-line override: {exc}") from None
    # parse_scenario has already refused a schedule that fails on the
    # scenario's own horizon, so only an override can fail here.
    if scenario.schedule.min_scale_factor(scenario.sim.horizon) <= 0.0:
        raise PositivityError("command-line override: scale factor reaches zero by the end "
                              "of the last step")
    return scenario


def _refuse_to_overwrite(outputs, inputs, option: str) -> None:
    """Raise FileExistsError, naming the option that sets the outputs,
    when an output path is an existing input file.  None stands for an
    output or input the command was not given."""
    for out in outputs:
        for src in inputs:
            if out and src and os.path.exists(out) and os.path.samefile(out, src):
                raise FileExistsError(f"output {out} would overwrite the input {src}; "
                                      f"pass another {option}")


def cmd_analyze(args) -> int:
    scenario = _load(args)
    _refuse_to_overwrite([args.output], [args.scenario], "--output")
    report = scenario.reference_shape().report
    doc = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    sys.stdout.write(doc)
    if args.output:
        Path(args.output).write_text(doc)
    return EXIT_OK


def _design_document(scenario: Scenario) -> dict:
    ref = scenario.reference_shape()
    cfg = scenario.controller_config()
    parts = {
        "translation": cfg.translation_part,
        "rotation": cfg.rotation_part,
        "scaling_unit_rate": cfg.scaling_part,
    }
    # The field each part is designed for; scaling's at unit rate.
    centered = ref.centered_points()
    targets = {
        "translation": np.tile(scenario.v_body, ref.graph.vertex_count),
        "rotation": rotation_field(centered, scenario.omega),
        "scaling_unit_rate": centered.reshape(-1),
    }
    residuals = {name: field_residual(ref, parts[name], targets[name]) for name in parts}
    return design_to_document(scenario.dimension, parts, residuals)


def cmd_design(args) -> int:
    scenario = _load(args)
    _refuse_to_overwrite([args.output], [args.scenario], "--output")
    design = _design_document(scenario)
    doc = json.dumps(design, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(doc)
        dims = design["space_dimensions"]
        sys.stdout.write(f"design written to {args.output}, space dimensions {dims}\n")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args)
    prefix = args.output_prefix or Path(args.scenario).stem
    csv_path, report_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    _refuse_to_overwrite([csv_path, report_path], [args.scenario, args.params],
                         "--output-prefix")
    ref = scenario.reference_shape()
    parts = None
    if args.params:
        parts = parse_design(Path(args.params).read_text(), ref.graph.edge_count)
    cfg = scenario.controller_config(parts)
    log.info("integrating %s for %g time units", scenario.name, scenario.sim.duration)
    traj = integrate(scenario.initial_framework(), ref, cfg, scenario.sim)

    with csv_path.open("w") as fh:
        write_trajectory_csv(traj, scenario.dimension, fh)

    report_doc: dict = {
        "scenario": scenario.name,
        "samples": int(traj.sample_count),
        "final_error_norm": float(traj.error_norms[-1]),
    }
    window = (0.5 * scenario.sim.duration, scenario.sim.duration)
    try:
        report = steady_state_report(traj, window)
        report_doc["steady_state"] = {
            "window": list(window),
            "v_body": report.v_body.tolist(),
            "omega": np.asarray(report.omega).tolist(),
            "scale_rate": report.scale_rate,
            "lambda_fit": report.lambda_fit,
            "decay_decades": report.decay_decades,
            "residuals": report.residuals,
        }
        if report.note:
            report_doc["note"] = report.note
    except InsufficientDecay as exc:
        report_doc["steady_state"] = None
        report_doc["note"] = str(exc)
    report_path.write_text(json.dumps(report_doc, indent=2) + "\n")
    sys.stdout.write(f"wrote {csv_path} and {report_path}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = _load(args)
    results = run_verification(scenario)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{status} {res.name}: {res.detail}\n")
        all_passed &= res.passed
    sys.stdout.write(f"{'all checks passed' if all_passed else 'some checks failed'}\n")
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FORMSIM_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "design": cmd_design,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (SchemaError, RigidityError, PositivityError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except FormsimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
