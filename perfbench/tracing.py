"""Span tracer wrapped around ppboot's public functions from outside the package.

ppboot modules bind names at import (``from .twopoint import
distinct_index_sums``), so a function is replaced in every ppboot module
that holds a reference to it, not only where it is defined.  Methods are
replaced on their class, and ``scipy.stats.poisson.cdf`` on the shared
``poisson`` instance that ``ppboot.intensity`` calls through.

A *span* wrapper records ``[name, start, end, parent, outer_start,
outer_end, bookkeeping]``; the outer interval also covers the wrapper's
own bookkeeping, so a parent's self time (its duration less its
children's outer intervals and less ``bookkeeping``) excludes tracing
cost.  A *counter* wrapper records no span: it only adds to counters, so
the work stays in the calling span's self time, and it adds its own cost
to that span's ``bookkeeping``.  Spans are held in memory and written out
by ``write_spans`` at the end of a run.  Tracing assumes one thread.
"""
from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, name: str | None, count):
        """A span wrapper, or a counter-only one when ``name`` is None.

        ``count(tracer, arguments, result)`` gets the call's bound
        arguments by parameter name.
        """
        tracer = self
        sig = inspect.signature(fn) if count is not None else None

        def arguments(args, kwargs) -> dict:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def counter_only(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = perf_counter()
            count(tracer, arguments(args, kwargs), result)
            if tracer._stack:  # keep the bookkeeping out of the caller's self time
                tracer.spans[tracer._stack[-1]][6] += perf_counter() - t0
            return result

        def span(*args, **kwargs):
            outer = perf_counter()
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, outer, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = rec[5] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer, arguments(args, kwargs), result)
                rec[5] = perf_counter()
            return result

        return span if name is not None else counter_only

    def _replace(self, owner, attr: str, new) -> None:
        had_own = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, had_own, old))

    def wrap_function(self, module, attr: str, name: str | None, count=None) -> None:
        """Replace ``module.attr`` in every loaded ppboot module that refers to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ppboot" and vars(mod).get(attr) is original:
                self._replace(mod, attr, wrapper)

    def wrap_method(self, owner, attr: str, name: str | None, count=None) -> None:
        self._replace(owner, attr, self._wrap(getattr(owner, attr), name, count))

    def uninstall(self) -> None:
        for owner, attr, had_own, old in reversed(self._undo):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
        covered = [0.0] * len(self.spans)
        for _, _, _, parent, o0, o1, _ in self.spans:
            if parent >= 0:
                covered[parent] += o1 - o0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _, _, bookkeeping) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - covered[i] - bookkeeping
            if not self._has_ancestor(parent, name):
                agg["total_s"] += t1 - t0
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def time_within(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans that run inside an ``ancestor`` span."""
        return sum(t1 - t0 for n, t0, t1, parent, *_ in self.spans
                   if n == name and self._has_ancestor(parent, ancestor))

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], t0 - base, t1 - base, parent] for n, t0, t1, parent, *_ in self.spans]
        path.write_text(json.dumps({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                                    "spans": rows}, separators=(",", ":")))


# -- counters recorded at layer boundaries ---------------------------------

def _count_pair_matrix(tr, a, mat):
    n = mat.shape[0]
    tr.counters["pair_matrix.entries"] += n * n
    tr.counters["pair_matrix.nonzero"] += int(np.count_nonzero(mat))


def _count_bootstrap(tr, a, _):
    n = a["pattern"].n
    tr.counters["bootstrap.resamples"] += a["n_resamples"]
    tr.counters["bootstrap.quadform_flops"] += 2 * n * n * a["n_resamples"]


def _count_product_density(tr, a, _):
    n = a["pattern"].n
    tr.counters["twopoint.kernel_evals"] += np.atleast_1d(a["r_grid"]).size * n * (n - 1) // 2


def _count_mc_mean(tr, a, _):
    tr.counters["moments.samples"] += a["samples"]
    tr.counters["moments.h_evals"] += a["samples"] * (a["n_points"] - 1)


def _count_integrand(tr, a, _):
    vals = a["vals"]
    tr.counters["moments.integrand_values"] += vals.size
    tr.counters["moments.integrand_nonzero"] += int(np.count_nonzero(vals))


def _record_moment_errors(tr, a, m):
    for key in ("s2", "s3"):
        value = getattr(m, key)
        if value:  # no Monte Carlo hit at all leaves the relative error undefined
            tr.values[f"moments.{key}_rel_err3"] = m.errors[key] / abs(value)


def _count_parallel_tasks(tr, a, _):
    tr.counters["rng.parallel_map.tasks"] += a["n_tasks"]


def _count_coverage_cells(tr, a, _):
    tr.counters["intensity.cells"] += a["reps"] * np.atleast_1d(a["grid"]).size


def _count_band_lookup(tr, a, _):
    if a["self"].method in ("bootstrap_closed_form", "bootstrap_mc"):
        tr.counters["intensity.band_lookups"] += 1


def _count_threshold(tr, a, _):
    tr.counters["intensity.band_thresholds"] += 1


def _count_poisson_cdf(tr, a, _):
    tr.counters["intensity.poisson_cdf.calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every traced ppboot function; undo with ``tracer.uninstall()``."""
    from ppboot import bootstrap, cli, experiments, geometry, intensity, moments, patternio, rng, twopoint

    fn, meth = tracer.wrap_function, tracer.wrap_method
    fn(cli, "main", "cli.main")
    fn(patternio, "ingest_pattern", "patternio.ingest_pattern")
    fn(geometry, "simulate_homogeneous_poisson", "geometry.simulate")
    fn(geometry, "simulate_inhomogeneous_poisson", "geometry.simulate")
    meth(geometry.PointPattern, "__post_init__", "geometry.pattern_init")
    meth(twopoint.PairFunction, "pair_matrix", "twopoint.pair_matrix", _count_pair_matrix)
    fn(twopoint, "two_point_statistic", "twopoint.two_point_statistic")
    fn(twopoint, "distinct_index_sums", "twopoint.distinct_index_sums")
    fn(twopoint, "estimate_product_density", "twopoint.estimate_product_density",
       _count_product_density)
    fn(bootstrap, "bootstrap_statistics", "bootstrap.bootstrap_statistics", _count_bootstrap)
    fn(bootstrap, "bootstrap_variance_limit", "bootstrap.bootstrap_variance_limit")
    meth(rng.RngSeed, "generator", "rng.generator")
    fn(rng, "parallel_map", None, _count_parallel_tasks)
    fn(moments, "s_moments_poisson", "moments.s_moments_poisson", _record_moment_errors)
    fn(moments, "_mc_mean", None, _count_mc_mean)
    fn(moments, "_require_finite", None, _count_integrand)
    fn(intensity, "coverage_experiment", "intensity.coverage_experiment", _count_coverage_cells)
    fn(intensity, "t_star_closed_form", "intensity.t_star_closed_form")
    fn(intensity, "t_star_monte_carlo", "intensity.t_star_monte_carlo")
    fn(intensity, "t_star_monte_carlo_band", "intensity.t_star_monte_carlo_band")
    fn(intensity, "t_alpha_oracle", "intensity.t_alpha_oracle")
    fn(intensity, "confidence_band", "intensity.confidence_band")
    meth(intensity._BandBuilder, "bounds_for_count", None, _count_band_lookup)
    meth(intensity._BandBuilder, "_threshold", None, _count_threshold)
    meth(intensity.stats.poisson, "cdf", None, _count_poisson_cdf)
    fn(experiments, "run_variance_comparison", "experiments.run_variance_comparison")
    fn(experiments, "run_ci_suite", "experiments.run_ci_suite")


SELF_TIMED = (
    "rng.generator", "bootstrap.bootstrap_statistics", "bootstrap.bootstrap_variance_limit",
    "twopoint.pair_matrix", "twopoint.distinct_index_sums", "twopoint.two_point_statistic",
    "twopoint.estimate_product_density", "moments.s_moments_poisson",
    "intensity.coverage_experiment", "intensity.t_star_closed_form",
    "intensity.t_star_monte_carlo", "intensity.t_star_monte_carlo_band",
    "intensity.t_alpha_oracle", "intensity.confidence_band", "geometry.simulate",
    "geometry.pattern_init", "patternio.ingest_pattern", "cli.main",
    "experiments.run_variance_comparison", "experiments.run_ci_suite",
)
CALL_COUNTED = ("rng.generator", "twopoint.pair_matrix", "intensity.t_star_closed_form",
                "geometry.simulate")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as ``{name: (value, unit)}``."""
    agg = tracer.aggregate()
    c = tracer.counters

    def stat(name, key):
        return agg[name][key] if name in agg else 0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (float(stat(name, "self_s")), "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (int(stat(name, "calls")), "count")
    out["rng.parallel_map.tasks"] = (c["rng.parallel_map.tasks"], "count")
    out["rng.generator.share_of_bootstrap_statistics"] = (ratio(
        tracer.time_within("rng.generator", "bootstrap.bootstrap_statistics"),
        stat("bootstrap.bootstrap_statistics", "total_s")), "1")
    out["bootstrap.resamples"] = (c["bootstrap.resamples"], "count")
    out["bootstrap.quadform_flops"] = (c["bootstrap.quadform_flops"], "flop")
    out["twopoint.pair_matrix.bytes"] = (8 * c["pair_matrix.entries"], "B")
    out["twopoint.pair_matrix.nonzero_frac"] = (
        ratio(c["pair_matrix.nonzero"], c["pair_matrix.entries"]), "1")
    out["twopoint.estimate_product_density.kernel_evals"] = (c["twopoint.kernel_evals"], "count")
    out["moments.samples"] = (c["moments.samples"], "count")
    out["moments.h_evals"] = (c["moments.h_evals"], "count")
    out["moments.h_nonzero_frac"] = (
        ratio(c["moments.integrand_nonzero"], c["moments.integrand_values"]), "1")
    out["moments.s3_rel_err3"] = (tracer.values.get("moments.s3_rel_err3", 0.0), "1")
    out["moments.s2_rel_err3"] = (tracer.values.get("moments.s2_rel_err3", 0.0), "1")
    out["moments.share_of_wall"] = (
        ratio(stat("moments.s_moments_poisson", "total_s"), stat("cli.main", "total_s")), "1")
    out["intensity.cells"] = (c["intensity.cells"], "count")
    out["intensity.poisson_cdf.calls"] = (c["intensity.poisson_cdf.calls"], "count")
    lookups = c["intensity.band_lookups"]
    out["intensity.band_cache_hit_ratio"] = (
        1.0 - c["intensity.band_thresholds"] / lookups if lookups else 0.0, "1")
    return out
