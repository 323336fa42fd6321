"""Spans around the library's public functions, installed from outside.

`helly_plane` modules bind each other's functions with `from .x import f`,
so a wrapper set only on the defining module would miss most calls. The
tracer therefore replaces every module-level binding of the original
function object in every loaded `helly_plane` module (and in the
benchmark's own modules), which covers each import site.

A span records its name, start and end (`perf_counter_ns`), its parent span
and the trial it belongs to. Spans live in flat arrays in memory and are
written out once, after the traced pass. Self time is a span's duration
minus the durations of its direct children; since everything runs on one
thread, children never overlap.
"""

from __future__ import annotations

import csv
import itertools
import statistics
import sys
import time
from array import array

# layer name -> (module under helly_plane, attribute); each gets calls and self_s
SPANS = {
    "norms.gauge": ("norms", "gauge"),
    "norms.ball_build": ("norms", "make_polygonal_ball"),
    "geometry.convex_hull": ("geometry", "convex_hull"),
    "geometry.point_position": ("geometry", "point_position"),
    "geometry.point_in_triangle": ("geometry", "point_in_triangle"),
    "geometry.ray_boundary": ("geometry", "ray_boundary"),
    "vectors.vsum": ("vectors", "vsum"),
    **{
        f"generators.{f}": ("generators", f)
        for f in (
            "gen_random_ball", "gen_unit_vectors", "gen_zero_sum_six",
            "gen_collinear_family", "gen_claim1_tuple", "gen_direction",
            "gen_symmetric_body", "gen_asymmetric_body",
            "gen_euclidean_halfplane_instance",
        )
    },
    **{
        f"theorems.{f}": ("theorems", f)
        for f in (
            "verify_theorem1", "halfplane_certificate", "verify_helly",
            "corollary_check", "lemma_conv_check", "lemma_main_witness",
            "claim1_triplets",
        )
    },
    **{
        f"algorithms.{f}": ("algorithms", f)
        for f in ("choose_signs", "make_generic", "ginzburg_reduce")
    },
    **{
        f"symmetry.{f}": ("symmetry", f)
        for f in (
            "is_centrally_symmetric", "find_violation_halfplane",
            "find_violation_surrounding", "verify_halfplane_witness",
            "verify_surrounding_witness",
        )
    },
}

# layer name -> functions counted together, without spans (too cheap to time)
COUNTS = {
    "scalars.cmp": ("scalars", ("eq", "le", "ge", "lt", "gt")),
    "scalars.exact_div": ("scalars", ("exact_div",)),
}

SUITE_SPAN = "suites.run_suite/"  # + suite name
REPORT_SPAN = "suites.report_json"
# suite -> the verifier its retry loop calls once per attempt
ATTEMPT_VERIFIERS = {"thm3": "theorems.verify_helly", "corollary": "theorems.corollary_check"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.trial = array("l")
        self.stack = [-1]
        self.trial_id = -1
        self._next_trial = itertools.count().__next__
        self.counts: dict[str, list[int]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name=None, name_of=None):
        """Wrap fn in a span; name_of(args) names each call when given."""
        fixed = None if name is None else self._id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, trials, stack = self.parent, self.trial, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(fixed if name_of is None else tracer._id(name_of(args)))
            parents.append(stack[-1])
            trials.append(tracer.trial_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _counter(self, fn, cell: list[int]):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _trial_boundary(self, fn):
        """Each call of fn starts a new trial id."""
        tracer = self
        next_id = self._next_trial

        def wrapper(*args, **kwargs):
            tracer.trial_id = next_id()
            return fn(*args, **kwargs)

        return wrapper

    def install(self, bench_modules) -> list[str]:
        """Wrap every layer at every binding site; returns layers not found."""
        import helly_plane
        from helly_plane import suites

        pkg = helly_plane.__name__
        modules = [
            m for n, m in list(sys.modules.items())
            if n == pkg or n.startswith(pkg + ".")
        ] + list(bench_modules)
        missing = []

        def rebind(original, wrapped):
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

        def lookup(module, attr):
            fn = getattr(sys.modules.get(f"{pkg}.{module}"), attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
            return fn

        for layer, (module, attr) in SPANS.items():
            fn = lookup(module, attr)
            if fn is not None:
                rebind(fn, self._span(fn, layer))
        for layer, (module, attrs) in COUNTS.items():
            cell = self.counts.setdefault(layer, [0])
            for attr in attrs:
                fn = lookup(module, attr)
                if fn is not None:
                    rebind(fn, self._counter(fn, cell))
        # trial ids: each suite run, each suite trial and each rotation instance
        trials = getattr(suites, "_TRIALS", None)
        if isinstance(trials, dict):
            for key, fn in list(trials.items()):
                trials[key] = self._trial_boundary(fn)
        for m in bench_modules:
            fn = getattr(m, "rotation_instance", None)
            if fn is not None:
                rebind(fn, self._trial_boundary(fn))
        run_suite = suites.run_suite
        rebind(
            run_suite,
            self._trial_boundary(
                self._span(run_suite, name_of=lambda args: SUITE_SPAN + args[0].suite)
            ),
        )
        report_cls = suites.SuiteReport
        report_cls.to_json_text = self._span(report_cls.to_json_text, REPORT_SPAN)
        return missing

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            out = csv.writer(f)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "trial"])
            names = self.names
            for i in range(len(self.start)):
                out.writerow(
                    [i, names[self.name[i]], self.start[i], self.end[i],
                     self.parent[i], self.trial[i]]
                )

    def metrics(self, trials: dict[str, int], scale: float) -> dict[str, float]:
        """Per-layer calls and self seconds, plus per-trial figures.

        `trials` maps each unit name run in the traced pass to its trials;
        every duration is multiplied by `scale` (to reference speed).
        """
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scale for i in range(n)]
        self_ns = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= dur[i]
        calls = [0] * len(self.names)
        self_sum = [0] * len(self.names)
        for i in range(n):
            calls[self.name[i]] += 1
            self_sum[self.name[i]] += self_ns[i]

        def get(layer):
            i = self._ids.get(layer)
            return (0, 0) if i is None else (calls[i], self_sum[i])

        out: dict[str, float] = {}
        for layer in SPANS:
            c, s = get(layer)
            out[f"{layer}.calls"] = c
            out[f"{layer}.self_s"] = s / 1e9
        gauge_id = self._ids.get("norms.gauge")
        gauge_us = [dur[i] / 1e3 for i in range(n) if self.name[i] == gauge_id]
        out["norms.gauge.us_p50"] = statistics.median(gauge_us) if gauge_us else 0.0
        out["norms.gauge.us_p99"] = (
            statistics.quantiles(gauge_us, n=100)[98] if len(gauge_us) >= 2 else 0.0
        )
        out["norms.gauge.calls_per_trial"] = get("norms.gauge")[0] / sum(trials.values())
        for layer, cell in self.counts.items():
            out[f"{layer}.calls"] = cell[0]
        out["suites.report_json_s"] = get(REPORT_SPAN)[1] / 1e9
        for suite, verifier in ATTEMPT_VERIFIERS.items():
            runs = self._ids.get(SUITE_SPAN + suite)
            calls = self._calls_under(self._ids.get(verifier), runs)
            out[f"suites.{suite}.attempts_per_trial"] = (
                calls / trials[suite] if trials.get(suite) else 0.0
            )
        return out

    def _calls_under(self, name_id, ancestor_id) -> int:
        """Spans named name_id that have an ancestor span named ancestor_id."""
        if name_id is None or ancestor_id is None:
            return 0
        names, parent = self.name, self.parent
        calls = 0
        for i in range(len(names)):
            if names[i] != name_id:
                continue
            p = parent[i]
            while p >= 0 and names[p] != ancestor_id:
                p = parent[p]
            calls += p >= 0
        return calls
