"""In-memory spans around formsim's public layer functions.

The tracer wraps functions from the outside: it swaps each traced
function for a wrapper in every formsim module namespace that holds it,
so calls made from inside the package (the CLI calling load_scenario,
checks calling integrate, the reference shape calling rigidity_report)
are recorded too.  Nothing in
the package itself changes; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Public functions traced, as (module, attribute) -> span name.
FUNCTION_SPANS = {
    ("formsim.scenario", "load_scenario"): "scenario.load",
    ("formsim.scenario", "parse_design"): "scenario.parse_design",
    ("formsim.scenario", "write_trajectory_csv"): "scenario.csv_write",
    ("formsim.rigidity", "rigidity_report"): "rigidity.report",
    ("formsim.motion", "motion_spaces"): "motion.spaces",
    ("formsim.motion", "translation_params"): "motion.calibrate.translation",
    ("formsim.motion", "rotation_params"): "motion.calibrate.rotation",
    ("formsim.motion", "scaling_params"): "motion.calibrate.scaling",
    ("formsim.simulate", "integrate"): "simulate.integrate",
    ("formsim.simulate", "steady_state_report"): "simulate.steady_state",
    ("formsim.checks", "check_reference_rigidity"): "checks.reference_rigidity",
    ("formsim.checks", "check_motion_spaces"): "checks.motion_spaces",
    ("formsim.checks", "check_velocity_map_identity"): "checks.velocity_map_identity",
    ("formsim.checks", "check_gradient_consistency"): "checks.gradient_consistency",
    ("formsim.checks", "check_shape_invariance"): "checks.shape_invariance",
    ("formsim.checks", "check_exponential_convergence"): "checks.exponential_convergence",
    ("formsim.checks", "check_motion_tracking"): "checks.motion_tracking",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    run: int  # round the span belongs to; spans of one round share it
    error: str | None = None  # exception type name when the call raised


class Tracer:
    """Span and counter recorder; everything stays in memory until dumped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), float("nan"),
                      self._stack[-1] if self._stack else None, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[self.run][name] += amount

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "formsim" and not mod_name.startswith("formsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function, method and counter."""
        import formsim.cli  # noqa: F401  (so its imported names are wrapped too)
        import formsim.motion as motion
        import formsim.scenario as scenario
        import formsim.simulate as simulate

        if self._undo:
            raise RuntimeError("tracer already installed")

        def count_samples(traj, args):
            self.count("simulate.samples", traj.sample_count)

        def count_csv_bytes(_, args):
            self.count("scenario.csv_bytes", args[2].tell())  # (traj, dim, fh)

        def count_failed_check(result, args):
            self.count("checks.failed", not result.passed)

        for (mod_name, attr), span_name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            after = {"simulate.integrate": count_samples,
                     "scenario.csv_write": count_csv_bytes}.get(span_name)
            if span_name.startswith("checks."):
                after = count_failed_check
            self._replace_everywhere(original, self._wrap(span_name, original, after))

        make_rhs = simulate.make_rhs

        def counting_make_rhs(ref, cfg):
            rhs = make_rhs(ref, cfg)
            counters = self.counters[self.run]

            def counted(t, p):
                counters["simulate.rhs_evals"] += 1
                return rhs(t, p)

            return counted

        self._replace_everywhere(make_rhs, counting_make_rhs)

        self._replace_attr(scenario.Scenario, "reference_shape", self._wrap(
            "rigidity.reference_shape", scenario.Scenario.reference_shape))
        velocity_map = motion.ReferenceShape.__dict__["velocity_map"]
        traced_map = functools.cached_property(self._wrap("motion.velocity_map", velocity_map.func))
        traced_map.__set_name__(motion.ReferenceShape, "velocity_map")
        self._replace_attr(motion.ReferenceShape, "velocity_map", traced_map)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run_spans(self, run: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run == run]

    def dump(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counters": {str(run): dict(c) for run, c in self.counters.items()},
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
