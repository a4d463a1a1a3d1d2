"""Per-layer tracing from outside the package.

Tracer.install replaces each probed function by a wrapper, in every equicell
module that binds it (so `from .poset import face_matrix` in obstruction is
wrapped as well), and returns a callable that puts the originals back.  A
wrapper records the span's inclusive time, its layer's self time (inclusive
time minus that of the probed spans it encloses) and the counters its result
yields.  Counting runs after the span is closed and is charged to no layer.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _witness_bits(report) -> int:
    if report.witness is None:
        return 0
    return max(abs(v).bit_length() for v in report.witness.values)


@dataclass(frozen=True)
class Probe:
    """A function at a layer boundary and what to record about its calls.

    timer names the metric that sums the inclusive time of the calls; count
    maps (result, tracer) to counter increments.  A probe with calls_key
    records no span and only counts its calls under that name, for functions
    too hot to time.
    """

    module: str
    name: str
    layer: str
    timer: str | None = None
    count: Callable | None = None
    calls_key: str | None = None


PROBES = (
    Probe("cli", "main", "cli"),
    Probe("poset", "enumerate_labels", "labels", "labels.enumerate_s",
          lambda r, tr: {"labels.count": len(r)}),
    Probe("poset", "enumerate_cells", "poset"),
    Probe("poset", "face_matrix", "poset", "poset.face_matrix_s",
          lambda r, tr: {"poset.face_pairs": r.size,
                         "poset.covers": int(r.sum())}),
    Probe("poset", "validate_covers", "poset", "poset.validate_s"),
    Probe("obstruction", "obstruction_report", "obstruction", "obstruction.report_s",
          lambda r, tr: {"obstruction.witness_bits": _witness_bits(r)}),
    Probe("obstruction", "facet_ridge_class_counts", "obstruction",
          "obstruction.incidence_s"),
    Probe("obstruction", "verify_coboundary_on_complex", "obstruction",
          "obstruction.coboundary_s"),
    Probe("equalize", "equalize_perimeters", "equalize", None,
          lambda r, tr: {"equalize.evals": r.evaluations}),
    Probe("weights", "solve_equal_measure_weights", "weights", None,
          lambda r, tr: {"weights.solves": 1}),
    Probe("powerdiagram", "power_diagram", "powerdiagram", "powerdiagram.build_s",
          lambda r, tr: {"powerdiagram.builds": 1,
                         "weights.builds": 1 if tr.inside("weights") else 0}),
    Probe("geometry", "clip_tagged", "geometry", calls_key="geometry.clips"),
    Probe("jsonio", "dumps", "jsonio", "jsonio.dumps_s",
          lambda r, tr: {"jsonio.bytes": len(r.encode())}),
)


class Tracer:
    """Sums of span times and counters over the calls made while installed."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._children: list[float] = []   # enclosed span time, per open span
        self._open: dict[str, int] = defaultdict(int)

    def inside(self, layer: str) -> bool:
        return self._open[layer] > 0

    def install(self) -> Callable[[], None]:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "equicell" or name.startswith("equicell.")]
        replaced = []
        for probe in PROBES:
            home = importlib.import_module("equicell." + probe.module)
            original = getattr(home, probe.name)
            wrapper = self._wrap(probe, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))

        def uninstall():
            for mod, attr, original in replaced:
                setattr(mod, attr, original)
        return uninstall

    def _wrap(self, probe: Probe, fn):
        totals = self.totals
        if probe.calls_key is not None:
            key = probe.calls_key

            def counted(*args, **kwargs):
                totals[key] += 1
                return fn(*args, **kwargs)
            return counted

        children = self._children
        open_layers = self._open
        self_key = probe.layer + ".self_s"

        def spanned(*args, **kwargs):
            children.append(0.0)
            open_layers[probe.layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_layers[probe.layer] -= 1
                totals[self_key] += (t1 - t0) - children.pop()
                if probe.timer is not None:
                    totals[probe.timer] += t1 - t0
                if children:
                    children[-1] += t1 - t0
            if probe.count is not None:
                for key, inc in probe.count(result, self).items():
                    totals[key] += inc
                if children:
                    children[-1] += perf_counter() - t1
            return result
        return spanned


def layer_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer metrics from the tracer totals of `passes` traced passes:
    totals per pass, plus ratios of totals."""
    t = defaultdict(float, totals)

    def ratio(a, b):
        return t[a] / t[b] if t[b] else 0.0

    per_pass = {key: t[key] / passes for key in (
        "labels.enumerate_s", "labels.count", "poset.face_matrix_s",
        "poset.face_pairs", "poset.covers", "poset.self_s", "poset.validate_s",
        "obstruction.incidence_s", "obstruction.coboundary_s",
        "obstruction.report_s", "obstruction.witness_bits", "equalize.self_s",
        "equalize.evals", "weights.solves", "weights.self_s",
        "powerdiagram.builds", "powerdiagram.build_s", "jsonio.dumps_s",
        "jsonio.bytes", "cli.self_s")}
    per_pass["poset.cover_yield"] = ratio("poset.covers", "poset.face_pairs")
    per_pass["weights.builds_per_solve"] = ratio("weights.builds", "weights.solves")
    per_pass["geometry.clips_per_build"] = ratio("geometry.clips", "powerdiagram.builds")
    return per_pass
