"""Span tracing of capgest's layers from outside the package.

:class:`Tracer` replaces a function on the name its caller looks up with a
wrapper that records one span per call: name, start, end, parent span and
trace id (one trace per prediction, batch pass or training run).  Self time
is a span's duration minus the durations of its child spans; calls are
single-threaded, so children never overlap.

:func:`install_layers` wraps capgest's public functions at every binding the
inference and training paths use; :func:`layer_metrics` turns the spans and
counters into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from array import array
from collections import Counter

import numpy as np

# kernels whose per-spec metrics the benchmark reports (the default config)
KERNEL_SPECS = ("pca:20", "pca:9", "poly:5:4", "poly:8:3", "concat(pca:10,poly:5:4)")
BUNDLE_SECTIONS = (
    "config",
    "base_pca",
    "base_knn",
    "group_classifier",
    "correctors",
    "corrector_kernels",
    "discovered_group_ids",
    "metadata",
)


def metric_key(spec: str) -> str:
    """Kernel spec as a metric name part: ``poly:5:4`` -> ``poly-5-4``."""
    return spec.replace("(", "-").replace(")", "").replace(",", "-").replace(":", "-")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.trace = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def new_trace(self) -> None:
        self.trace_id += 1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.trace.append(self.trace_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording a span named ``name`` (a string, or a function of
        the call's arguments); ``on_result(args, result)`` runs after it."""
        name_of = name if callable(name) else (lambda *args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_of(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_result=None) -> bool:
        """Replace ``owner.attr`` with its traced wrapper; False if absent."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))
        return True

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: name id, duration and self time, in ns."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, dur, dur - child

    def summary(self) -> dict[str, dict]:
        """calls, total ms, self ms and median self µs per span name."""
        name, dur, own = self.self_times()
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float(own[sel].sum()) / 1e6,
                "self_us_p50": float(np.median(own[sel])) / 1e3,
            }
        return out


def _apply_name(kernel, *rest) -> str:
    return f"embed.kernel_apply.{kernel.spec.encode()}"


def _fit_name(spec, *rest) -> str:
    return f"embed.kernel_fit.{spec.encode()}"


def install_layers(tracer: Tracer, bundle=None) -> list[str]:
    """Wrap capgest's layer functions at the names their callers look up.

    ``bundle`` (optional) tells which base labels gate a corrector, for the
    gated-share counter.  Returns the bindings that were not found.
    """
    mod = {
        n: importlib.import_module(f"capgest.{n}")
        for n in ("classify", "corrector", "embed", "pipeline", "cli", "dataio")
    }
    try:
        mod["neighbors"] = importlib.import_module("capgest.neighbors")
    except ImportError:
        mod["neighbors"] = None
    counters = tracer.counters
    gating = None
    if bundle is not None:
        ids = {c.group.group_id for c in bundle.correctors}
        if bundle.group_classifier is not None:
            ids |= set(bundle.group_classifier.group_ids)
        n_labels = len(mod["corrector"].GestureLabel)
        gating = np.zeros(n_labels, dtype=bool)
        gating[[g % n_labels for g in ids]] = True

    def on_query(args, result):
        counters["neighbors.query_topk.queries"] += len(args[1])

    def on_base(args, labels):
        counters["predictions"] += len(labels)
        if gating is not None:
            counters["gated"] += int(gating[np.asarray(labels)].sum())

    def on_score(args, scores):
        corrector = args[0]
        counters[f"routed.{corrector.kernel_name}"] += len(scores)
        counters["scored"] += len(scores)
        counters["fired"] += int((np.asarray(scores) >= corrector.threshold).sum())

    def on_train_corrector(args, result):
        counters["correctors_kept"] += result is not None

    bindings = [
        (mod["neighbors"], "query_topk", "neighbors.query_topk", on_query),
        (mod["corrector"], "knn_predict_batch", "classify.knn_predict_batch", on_base),
        (mod["pipeline"], "knn_predict_batch", "classify.knn_predict_batch", None),
        (mod["corrector"], "pca_transform", "embed.pca_transform", None),
        (mod["pipeline"], "pca_transform", "embed.pca_transform", None),
        (mod["corrector"], "kernel_apply", _apply_name, None),
        (mod["pipeline"], "kernel_apply", _apply_name, None),
        (mod["embed"], "kernel_apply", _apply_name, None),
        (mod["pipeline"], "kernel_fit", _fit_name, None),
        (mod["embed"], "kernel_fit", _fit_name, None),
        (mod["corrector"], "lda_fit", "classify.lda_fit", None),
        (mod["corrector"], "centroid_fit", "classify.centroid_fit", None),
        (mod["corrector"], "lda_score", "classify.lda_score", None),
        (mod["corrector"], "centroid_score", "classify.centroid_score", None),
        (getattr(mod["corrector"], "GroupClassifier", None), "assign", "corrector.GroupClassifier.assign", None),
        (getattr(mod["corrector"], "Corrector", None), "score", "corrector.Corrector.score", on_score),
        (mod["pipeline"], "corrected_predict", "corrector.corrected_predict", None),
        (mod["pipeline"], "corrected_predict_batch", "corrector.corrected_predict_batch", None),
        (mod["pipeline"], "discover_groups", "corrector.discover_groups", None),
        (mod["pipeline"], "train_group_classifier", "corrector.train_group_classifier", None),
        (mod["pipeline"], "train_corrector", "corrector.train_corrector", on_train_corrector),
        (mod["corrector"], "roc_counts", "corrector.roc_counts", None),
        (mod["corrector"], "_roc_counts_unchecked", "corrector._roc_counts_unchecked", None),
        (mod["corrector"], "select_threshold_zero_fp", "corrector.select_threshold_zero_fp", None),
        (mod["cli"], "train_pipeline", "pipeline.train_pipeline", None),
        (mod["pipeline"], "serialize_bundle", "pipeline.serialize_bundle", None),
        (mod["cli"], "save_bundle", "pipeline.save_bundle", None),
        (mod["pipeline"], "load_bundle", "pipeline.load_bundle", None),
        (mod["dataio"], "read_dataset", "dataio.read_dataset", None),
        (mod["cli"], "assemble_sliding", "signals.assemble_sliding", None),
        (mod["cli"], "split_by_user", "signals.split_by_user", None),
        (mod["pipeline"], "feature_matrix", "signals.feature_matrix", None),
    ]
    missing = []
    for owner, attr, name, on_result in bindings:
        if owner is None or not tracer.patch(owner, attr, name, on_result):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


def bundle_section_bytes(bundle) -> dict[str, int]:
    """Pickled size of each section of the bundle's serialized state."""
    from capgest import pipeline

    state_of = getattr(pipeline, "bundle_state", None)
    state = state_of(bundle) if state_of is not None else {}
    return {s: len(pickle.dumps(state[s], protocol=4)) if s in state else 0 for s in BUNDLE_SECTIONS}


def used_kernel_share(bundle, tracer: Tracer) -> float:
    """Share of the configured kernels fitted under ``tracer`` that some
    corrector or the group classifier references."""
    config = bundle.config
    fitted = {
        spec
        for spec in (config.group_kernel, *config.corrector_kernels)
        if f"embed.kernel_fit.{spec}" in tracer.names
    }
    used = {c.kernel_name for c in bundle.correctors}
    if bundle.group_classifier is not None:
        used.add(bundle.group_classifier.kernel.spec.encode())
    return len(used & fitted) / len(fitted) if fitted else 0.0


def layer_metrics(tracer: Tracer, sections: dict[str, int], used_share: float) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, as name -> (value, unit)."""
    stats = tracer.summary()
    counters = tracer.counters
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "self_us_p50": 0.0}

    def stat(span: str, field: str) -> float:
        return stats.get(span, empty)[field]

    out: dict[str, tuple[float, str]] = {}

    def put(span: str, *fields: str, prefix: str | None = None) -> None:
        for f in fields:
            unit = {"calls": "count", "ms": "ms", "self_ms": "ms", "self_us_p50": "us"}[f]
            out[f"{prefix or span}.{f}"] = (stat(span, f), unit)

    put("neighbors.query_topk", "calls")
    out["neighbors.query_topk.queries"] = (counters["neighbors.query_topk.queries"], "count")
    put("neighbors.query_topk", "self_ms", "self_us_p50")
    put("classify.knn_predict_batch", "self_ms", "self_us_p50")
    for fn in ("lda_fit", "centroid_fit", "lda_score", "centroid_score"):
        put(f"classify.{fn}", "calls", "self_ms")
    put("embed.pca_transform", "self_us_p50")
    for spec in KERNEL_SPECS:
        key = metric_key(spec)
        put(f"embed.kernel_apply.{spec}", "calls", "self_ms", "self_us_p50", prefix=f"embed.kernel_apply.{key}")
    for spec in KERNEL_SPECS:
        put(f"embed.kernel_fit.{spec}", "self_ms", prefix=f"embed.kernel_fit.{metric_key(spec)}")
    out["embed.kernel_fit.used_share"] = (used_share, "ratio")
    put("corrector.GroupClassifier.assign", "calls", "self_ms", "self_us_p50")
    put("corrector.Corrector.score", "calls", "self_ms")
    put("corrector.corrected_predict", "self_us_p50")
    put("corrector.corrected_predict_batch", "self_ms")
    predictions = counters["predictions"]
    out["corrector.gated_share"] = (counters["gated"] / predictions if predictions else 0.0, "ratio")
    for spec in KERNEL_SPECS:
        out[f"corrector.routed.{metric_key(spec)}.count"] = (counters[f"routed.{spec}"], "count")
    scored = counters["scored"]
    out["corrector.fire_share"] = (counters["fired"] / scored if scored else 0.0, "ratio")
    for fn in ("discover_groups", "train_group_classifier", "train_corrector", "roc_counts",
               "_roc_counts_unchecked", "select_threshold_zero_fp"):
        put(f"corrector.{fn}", "calls", "self_ms")
    tried = stat("corrector.select_threshold_zero_fp", "calls")
    out["corrector.grid_kept_share"] = (counters["correctors_kept"] / tried if tried else 0.0, "ratio")
    put("pipeline.train_pipeline", "self_ms")
    for fn in ("serialize_bundle", "save_bundle", "load_bundle"):
        put(f"pipeline.{fn}", "ms")
    for section, size in sections.items():
        out[f"pipeline.bundle_state.{section}.bytes"] = (size, "bytes")
    put("dataio.read_dataset", "self_ms")
    for fn in ("assemble_sliding", "split_by_user", "feature_matrix"):
        put(f"signals.{fn}", "self_ms")
    out["trace.spans"] = (len(tracer.start), "count")
    return out
