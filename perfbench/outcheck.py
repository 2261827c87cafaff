"""Checks on what the formsim commands print and write.

Every check returns a list of problems; an empty list means the output
is correct.  The checks read only the command's own output and numbers
the benchmark computed from its generated inputs, never formsim itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

# formsim prints "error: <ExceptionType>: <message>" for numerical failures.
_TYPED_ERROR = re.compile(r"error: ([A-Za-z_][A-Za-z0-9_]*): ")

VERIFY_CHECKS = 7
# Calibration residual bound relative to max(1, |target|), as in design.
RESIDUAL_REL_TOL = 1e-9
# A formation driven only by its gradient (zero offsets) must not drift or spin.
DRIFT_TOL = 1e-6


def typed_error(returncode: int, stderr: str) -> str | None:
    """Exception type of a clean numerical failure (exit 2), else None."""
    if returncode != 2 or "Traceback" in stderr:
        return None
    lines = stderr.strip().splitlines()
    match = _TYPED_ERROR.match(lines[-1]) if lines else None
    return match.group(1) if match else None


def check_verify(stdout: str) -> list[str]:
    """All seven property checks pass."""
    lines = stdout.splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    problems = [f"verify: {ln}" for ln in lines if ln.startswith("FAIL ")]
    if len(passed) != VERIFY_CHECKS:
        problems.append(f"verify: {len(passed)} PASS lines, expected {VERIFY_CHECKS}")
    if not lines or lines[-1] != "all checks passed":
        problems.append("verify: missing 'all checks passed'")
    return problems


def check_analyze(stdout: str, n: int, dim: int) -> list[str]:
    """The rigidity report names the shape minimally and bearing rigid."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"analyze: output is not JSON ({exc})"]
    target = 2 * n - 3 if dim == 2 else 3 * n - 6
    problems = []
    if report.get("rank_rigidity") != target:
        problems.append(f"analyze: rank {report.get('rank_rigidity')}, expected {target}")
    for flag in ("is_minimally_rigid", "is_bearing_rigid"):
        if report.get(flag) is not True:
            problems.append(f"analyze: {flag} is {report.get(flag)}")
    return problems


def check_design(text: str, dim: int, target_norms: dict) -> list[str]:
    """Space dimensions (dim, 1 or 3, 1) and residuals within tolerance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"design: output is not JSON ({exc})"]
    problems = []
    dims = doc.get("space_dimensions", {})
    expected = {"translation": dim, "rotation": 1 if dim == 2 else 3, "scaling": 1}
    if dims != expected:
        problems.append(f"design: space dimensions {dims}, expected {expected}")
    residuals = doc.get("residuals", {})
    for name, norm in target_norms.items():
        res = residuals.get(name)
        if not isinstance(res, (int, float)) or not residual_ok(res, norm):
            problems.append(f"design: {name} residual {res} for target norm {norm:.3g}")
    return problems


def residual_ok(residual: float, target_norm: float) -> bool:
    return math.isfinite(residual) and residual <= RESIDUAL_REL_TOL * max(1.0, target_norm)


def scan_trajectory_csv(path, samples: int) -> tuple[str, list[str]]:
    """SHA-256 of the CSV and its problems: row count, shape, rising V."""
    digest = hashlib.sha256()
    problems: list[str] = []
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        columns = header.decode().rstrip("\n").split(",")
        if "V" not in columns:
            return digest.hexdigest(), ["csv: no V column"]
        v_col = columns.index("V")
        rows = 0
        previous = math.inf
        for line in fh:
            digest.update(line)
            fields = line.rstrip(b"\n").split(b",")
            if len(fields) != len(columns) or not line.endswith(b"\n"):
                problems.append(f"csv: row {rows + 1} has {len(fields)} fields, "
                                f"expected {len(columns)}")
                break
            v = float(fields[v_col])
            if not v <= previous:
                problems.append(f"csv: V rises from {previous!r} to {v!r} at row {rows + 1}")
                break
            previous = v
            rows += 1
    if not problems and rows != samples:
        problems.append(f"csv: {rows} rows, expected {samples}")
    return digest.hexdigest(), problems


def check_settle_report(text: str, samples: int) -> list[str]:
    """Sample count and a steady state with no drift and no spin."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report: not JSON ({exc})"]
    problems = []
    if doc.get("samples") != samples:
        problems.append(f"report: {doc.get('samples')} samples, expected {samples}")
    steady = doc.get("steady_state")
    if not steady:
        return problems + [f"report: no steady state ({doc.get('note')})"]
    return problems + check_no_drift(steady["v_body"], steady["omega"])


def check_no_drift(v_body, omega) -> list[str]:
    speed = math.hypot(*v_body)
    spin = math.hypot(*omega) if isinstance(omega, list) else abs(omega)
    problems = []
    if not speed <= DRIFT_TOL:
        problems.append(f"steady state: |v_body| = {speed:.3e}, expected about 0")
    if not spin <= DRIFT_TOL:
        problems.append(f"steady state: |omega| = {spin:.3e}, expected about 0")
    return problems
