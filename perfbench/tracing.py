"""Spans and counters around the layers of a solve, recorded from outside.

``Tracer.install`` replaces the functions ``radicalroots.pipeline.solve``
calls, under the module names it calls them by, with timing wrappers:
the pipeline's imports, ``resolvent.forward_level`` (called by
``forward_pass``) and ``radical.principal_root`` / ``radical.root_of_unity``
(called by ``evaluate`` and ``reconstruct``).  The last two are too frequent
for spans and are only counted and timed.  ``uninstall`` restores the
originals.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import re
import time
from collections import Counter

from radicalroots import pipeline, radical, resolvent
from radicalroots.errors import LabelingAmbiguous

# (module, attribute, span name) of every spanned call
SPANNED = (
    (pipeline, "closure", "groups.closure"),
    (pipeline, "composition_series", "groups.composition_series"),
    (pipeline, "find_roots", "rootfinder.find_roots"),
    (pipeline, "plan_precision", "resolvent.plan_precision"),
    (pipeline, "label_roots", "oracle.label_roots"),
    (pipeline, "zeta_tables", "resolvent.zeta_tables"),
    (pipeline, "build_theta0", "resolvent.build_theta0"),
    (pipeline, "forward_pass", "resolvent.forward_pass"),
    (resolvent, "forward_level", "resolvent.forward_level"),
    (pipeline, "round_theta_m", "resolvent.round_theta_m"),
    (pipeline, "reconstruct", "radical.reconstruct"),
    (pipeline, "evaluate", "radical.evaluate"),
    (pipeline, "verify", "radical.verify"),
)
# (module, attribute, counter name) of every counted call
COUNTED = (
    (radical, "principal_root", "precision.principal_root"),
    (radical, "root_of_unity", "precision.root_of_unity"),
)


def _find_roots_attrs(span, args, result, tracer):
    span["digits"] = args[1]
    span["coarse"] = tracer.in_trace(span["name"]) == 1


def _label_attrs(span, args, result, tracer):
    span["candidates"] = result.candidates_passed


def _forward_attrs(span, args, result, tracer):
    span["mults"] = result.counter.count


def _level_attrs(span, args, result, tracer):
    span["level"] = args[1]


def _round_attrs(span, args, result, tracer):
    tolerance = args[1] if len(args) > 1 else resolvent.DEFAULT_ROUNDING_TOLERANCE
    span["residual_frac"] = float(max(result.residuals)) / tolerance


def _reconstruct_attrs(span, args, result, tracer):
    log = result.branch_log
    span["branch_choices"] = len(log)
    ratios = [float(c.second_distance / c.best_distance)
              for c in log if c.best_distance > 0]
    if ratios:
        span["branch_ratio_min"] = min(ratios)


ATTRS = {
    "rootfinder.find_roots": _find_roots_attrs,
    "oracle.label_roots": _label_attrs,
    "resolvent.forward_pass": _forward_attrs,
    "resolvent.forward_level": _level_attrs,
    "resolvent.round_theta_m": _round_attrs,
    "radical.reconstruct": _reconstruct_attrs,
}

_PASSED = re.compile(r"^(\d+) inequivalent labelings pass")


class Tracer:
    """Spans of one run; each solve is a trace with its own identifier."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self._stack: list[dict] = []
        self._trace = None
        self._per_trace: Counter = Counter()
        self._saved: list = []

    def begin_trace(self, trace_id) -> None:
        self._trace = trace_id
        self._per_trace = Counter()

    def in_trace(self, name: str) -> int:
        """How many spans of this name the current trace has opened."""
        return self._per_trace[name]

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "trace": self._trace, "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        self._per_trace[name] += 1
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict, error: BaseException | None = None) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            span["error"] = type(error).__name__
            match = isinstance(error, LabelingAmbiguous) and \
                _PASSED.match(str(error))
            if match:
                span["candidates"] = int(match.group(1))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, exc)
            raise
        self.close(span)
        attrs = ATTRS.get(name)
        if attrs is not None:
            attrs(span, args, result, self)
        return result

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1
        return wrapper

    def install(self) -> None:
        """Wrap every listed name; a name the package no longer has is
        skipped, and then shows up as a stage with zero calls."""
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr, name in table:
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
