"""Spans and counters recorded around the package's functions, from outside.

Nothing in the package changes: :class:`Tracer` replaces functions and
methods with timing wrappers for the duration of one traced request and puts
the originals back afterwards.  Wrappers go where callers resolve the name,
which for a ``from .x import f`` binding is the importing module, not the
defining one: ``fit_vine`` finds ``bicop_fit`` in ``vinerisk.vine`` and
``bvn_cdf`` is looked up separately in ``vinerisk.bicop`` and
``vinerisk.latent``.  Margin and copula methods are patched on their classes.

A span records its layer, its parent span, its request and its start and end
times.  Spans are kept in memory until the run ends.  A span's self time is
its duration minus the time covered by its child spans; because one thread
runs the requests, child spans never overlap, so that is a subtraction.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

import vinerisk
from vinerisk import bicop, classifier, data, diagnostics, latent, margins, scenario, vine

LAYERS = ("data", "margins", "latent", "bvn", "bicop", "vine", "classifier", "scenario", "diagnostics")
ROOT = "request"

#: Counters per layer, reported as means per traced request.
COUNTERS = {
    "margins": ("calls", "kernel_evals", "bytes_computed"),
    "bicop": ("fit_attempts", "loglik_evals", "sample_points"),
    "bvn": ("calls", "points"),
    "latent": ("pairs",),
    "classifier": ("rows_scored",),
    "scenario": ("grid_rows",),
    "diagnostics": ("bootstrap_replicates", "mc_samples"),
    "data": ("rows_parsed", "bytes_written"),
}

#: The end-to-end metric and workload each per-layer metric should move,
#: written down before measuring.
MOVES = {
    "margins": [("req_p50_ms", "explore"), ("rows_per_s", "explore")],
    "bicop": [("req_p50_ms", "train"), ("req_tail_ms", "train")],
    "bicop.sample_points": [("req_p50_ms", "explore")],
    "bvn": [("req_p50_ms", "explore"), ("req_p50_ms", "train")],
    "latent": [("req_p50_ms", "train")],
    "vine": [("req_p50_ms", "explore"), ("req_p50_ms", "train")],
    "vine.edges_fitted": [("req_p50_ms", w) for w in ("train", "explore")],
    "vine.edges_dependent": [("req_p50_ms", w) for w in ("train", "explore")],
    "vine.truncation": [("req_p50_ms", w) for w in ("train", "explore")],
    "classifier": [("req_p50_ms", "explore"), ("req_p50_ms", "train")],
    "scenario": [("req_p50_ms", "explore")],
    "diagnostics": [("req_p50_ms", "explore")],
    "data": [("req_p50_ms", "train")],
    "trace": [],
}


def moves(name: str) -> list:
    """``MOVES`` entry of a per-layer metric: its own, else its layer's."""
    return MOVES.get(name, MOVES[name.split(".", 1)[0]])


#: Bytes per kernel evaluation: one float64 per query point x center cell,
#: the smallest intermediate the dense kernel sum materialises.  Computed
#: from array shapes, not measured.
KERNEL_CELL_BYTES = 8

_UNITS = {
    "self_ms": "ms",
    "overhead_pct": "%",
    "bytes_computed": "bytes",
    "bytes_written": "bytes",
    "fit_selected_ratio": "ratio",
    "shared_value_ratio": "ratio",
    "truncation": "level",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric such as ``margins.self_ms``."""
    return _UNITS.get(name.split(".", 1)[1], "count")


def _arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def model_shape(model) -> dict:
    """Edges, dependent edges and mean truncation level of a fitted classifier."""
    edges = [fe for v in model.vines for fe in v.all_edges()]
    return {
        "edges_fitted": len(edges),
        "edges_dependent": sum(fe.bicop.family != "indep" for fe in edges),
        "truncation": float(np.mean([v.truncation for v in model.vines])),
    }


class Tracer:
    """Records spans and counters of traced requests."""

    def __init__(self):
        # span: [layer, parent index, request number, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.fitted: list[dict] = []
        self.requests = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._targets = self._target_list()

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, self.requests, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def request(self, fn):
        """Run ``fn()`` as one traced request and return its result."""
        self._install()
        self.requests += 1
        idx = self._enter(ROOT)
        try:
            return fn()
        finally:
            self._exit(idx)
            self._uninstall()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if counter is not None:
                counter(tracer, fn, args, kwargs, out)
            return out

        return wrapper

    def _install(self) -> None:
        for owner, name, layer, counter in self._targets:
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, counter))
            else:
                new = self._wrap(raw, layer, counter)
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)

    def _uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    @staticmethod
    def _target_list():
        def kernel(t, fn, args, kwargs, out):
            self_, x = args[0], args[1]
            t.count("margins.kernel_evals", np.size(x) * self_.centers.size)

        def load(t, fn, args, kwargs, out):
            t.count("data.rows_parsed", out.n)

        def to_csv(t, fn, args, kwargs, out):
            t.count("data.bytes_written", os.path.getsize(args[1]))

        def pairs(t, fn, args, kwargs, out):
            t.count("latent.pairs")

        def points(t, fn, args, kwargs, out):
            t.count("bvn.points", np.size(out))

        def fit_attempt(t, fn, args, kwargs, out):
            t.count("bicop.fit_attempts")

        def loglik(t, fn, args, kwargs, out):
            t.count("bicop.loglik_evals")

        def sample(t, fn, args, kwargs, out):
            t.count("bicop.sample_points", len(out))

        def scored(t, fn, args, kwargs, out):
            t.count("classifier.rows_scored", len(np.atleast_2d(args[1])))

        def fitted(t, fn, args, kwargs, out):
            t.fitted.append(model_shape(out))

        def curve(t, fn, args, kwargs, out):
            d = args[0].schema.d
            t.count("scenario.grid_rows", out.values.size)
            t.count("scenario.cells", out.values.size * d)
            t.count("scenario.distinct", np.unique(out.values).size + d - 1)

        def surface(t, fn, args, kwargs, out):
            d = args[0].schema.d
            n = out.values1.size * out.values2.size
            t.count("scenario.grid_rows", n)
            t.count("scenario.cells", n * d)
            t.count(
                "scenario.distinct",
                np.unique(out.values1).size + np.unique(out.values2).size + d - 2,
            )

        def replicates(t, fn, args, kwargs, out):
            t.count("diagnostics.bootstrap_replicates", _arg(fn, "replicates", args, kwargs))

        def mc_samples(t, fn, args, kwargs, out):
            t.count("diagnostics.mc_samples", _arg(fn, "n_samples", args, kwargs))

        return [
            (vinerisk, "load_dataset", "data", load),
            (data.Dataset, "to_csv", "data", to_csv),
            (margins.KernelMargin, "fit", "margins", None),
            (margins.KernelMargin, "pdf", "margins", kernel),
            (margins.KernelMargin, "cdf", "margins", kernel),
            (margins.KernelMargin, "cdf_left", "margins", None),
            (margins.OrdinalMargin, "fit", "margins", None),
            (margins.OrdinalMargin, "pdf", "margins", None),
            (margins.OrdinalMargin, "cdf", "margins", None),
            (margins.OrdinalMargin, "cdf_left", "margins", None),
            (classifier, "latent_correlation_matrix", "latent", None),
            (latent, "pairwise_latent_rho", "latent", pairs),
            (vine, "partial_correlation", "latent", None),
            (bicop, "bvn_cdf", "bvn", points),
            (latent, "bvn_cdf", "bvn", points),
            (vine, "bicop_fit", "bicop", fit_attempt),
            (vine, "bicop_loglik", "bicop", loglik),
            (bicop, "bicop_loglik", "bicop", loglik),
            (vine, "bicop_contributions", "bicop", None),
            (bicop, "bicop_contributions", "bicop", None),
            (vine, "empirical_tau", "bicop", None),
            (bicop, "empirical_tau", "bicop", None),
            (bicop.Bicop, "cdf", "bicop", None),
            (bicop.Bicop, "logpdf", "bicop", None),
            (bicop.Bicop, "hfunc", "bicop", None),
            (bicop.Bicop, "hinv", "bicop", None),
            (bicop.Bicop, "sample", "bicop", sample),
            (classifier, "select_structure", "vine", None),
            (classifier, "fit_vine", "vine", None),
            (classifier, "vine_logdensity", "vine", None),
            (diagnostics, "model_spearman", "vine", None),
            (vine.VineModel, "to_dict", "vine", None),
            (vine.VineModel, "from_dict", "vine", None),
            (vinerisk, "fit_classifier", "classifier", fitted),
            (vinerisk, "posterior", "classifier", scored),
            (scenario, "posterior", "classifier", scored),
            (classifier, "class_logdensity", "classifier", None),
            (classifier, "posteriors_from_logdensity", "classifier", None),
            (vinerisk, "evaluate_probs", "classifier", None),
            (vinerisk, "assign_risk_groups", "classifier", None),
            (classifier.ClassifierModel, "save", "classifier", None),
            (classifier.ClassifierModel, "load", "classifier", None),
            (vinerisk, "risk_curve", "scenario", curve),
            (vinerisk, "risk_surface", "scenario", surface),
            (vinerisk, "bootstrap_bands", "diagnostics", replicates),
            (vinerisk, "model_conditional_spearman", "diagnostics", mc_samples),
            (diagnostics, "conditional_spearman", "diagnostics", None),
        ]

    # -- results -----------------------------------------------------------

    def layer_metrics(self, served) -> dict:
        """Per-layer means per traced request.

        Model-shape counts are means per classifier, over those fitted in
        traced requests or, when none were, of the ``served`` one.
        """
        n = max(self.requests, 1)
        child = np.zeros(len(self.spans))
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, (layer, _, _, start, end) in enumerate(self.spans):
            if layer != ROOT:
                self_time[layer] += end - start - child[i]
                calls[layer] += 1
        c = dict(self.counts)
        c["margins.calls"] = calls["margins"]
        c["bvn.calls"] = calls["bvn"]
        c["margins.bytes_computed"] = KERNEL_CELL_BYTES * c.get("margins.kernel_evals", 0.0)
        out = {f"{layer}.self_ms": 1e3 * self_time[layer] / n for layer in LAYERS}
        for layer, names in COUNTERS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[key] = c.get(key, 0.0) / n
        cells = c.get("scenario.cells", 0.0)
        out["scenario.shared_value_ratio"] = c["scenario.distinct"] / cells if cells else 0.0
        shapes = self.fitted or [model_shape(served)]
        for key in ("edges_fitted", "edges_dependent", "truncation"):
            out[f"vine.{key}"] = float(np.mean([s[key] for s in shapes]))
        dependent = sum(s["edges_dependent"] for s in self.fitted)
        attempts = c.get("bicop.fit_attempts", 0.0)
        out["bicop.fit_selected_ratio"] = dependent / attempts if attempts else 0.0
        return out
