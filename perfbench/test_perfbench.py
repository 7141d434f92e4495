"""Tests of the benchmark's own code.  Run from the repository root::

    python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from capgest import corrector, embed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_over_nested_kernel_spans():
    x = np.random.default_rng(0).random((60, 100))
    kernel = embed.kernel_fit(embed.parse_kernel_spec("concat(pca:10,poly:5:4)"), x)
    original = corrector.kernel_apply
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        tracer.new_trace()
        corrector.kernel_apply(kernel, x[:3])
    finally:
        tracer.uninstall()
    assert corrector.kernel_apply is original

    names = [tracer.names[i] for i in tracer.name]
    assert names == [
        "embed.kernel_apply.concat(pca:10,poly:5:4)",
        "embed.kernel_apply.pca:10",
        "embed.kernel_apply.poly:5:4",
        "embed.kernel_apply.pca:5",
    ]
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert set(tracer.trace) == {1}
    _, dur, own = tracer.self_times()
    assert own[0] == dur[0] - dur[1] - dur[2]
    assert own[2] == dur[2] - dur[3]
    assert own[1] == dur[1] and own[3] == dur[3]
    assert own.sum() == dur[0]
    assert (own >= 0).all()

    stats = tracer.summary()
    poly = stats["embed.kernel_apply.poly:5:4"]
    assert poly["calls"] == 1
    assert poly["self_ms"] == pytest.approx((dur[2] - dur[3]) / 1e6)


def test_percentiles_report_sample_counts():
    stats = measure.percentiles(np.arange(1, 101))
    assert stats["n"] == 100
    assert stats["p50"] == pytest.approx(50.5)
    assert stats["p95"] == pytest.approx(95.05)
    assert stats["p99"] == pytest.approx(99.01)
    assert (stats["beyond_p50"], stats["beyond_p95"], stats["beyond_p99"]) == (50, 5, 1)
    assert stats["max"] == 100
    single = measure.percentiles([2.5])
    assert single["n"] == 1 and single["p99"] == 2.5 and single["beyond_p99"] == 0
    with pytest.raises(ValueError):
        measure.percentiles([])


class _FixedBundle:
    def __init__(self, labels):
        self.labels = labels

    def predict_batch(self, x):
        return self.labels.copy()


def test_stream_check_flags_a_tampered_label():
    batch = np.array([0, 4, 4, 1, 2, 4])
    stream = run.SensorStream.__new__(run.SensorStream)
    stream.bundle = _FixedBundle(batch)
    stream.x = np.zeros((len(batch), 100))
    stream.y = batch.copy()

    def counter(predict):
        return predict()

    failed, outcome = stream.check([{"labels": batch.copy()}], counter)
    assert failed == 0 and outcome["accuracy"] == 1.0
    tampered = batch.copy()
    tampered[3] = 0
    failed, _ = stream.check([{"labels": batch.copy()}, {"labels": tampered}], counter)
    assert failed == 1


def test_zero_fp_count():
    truth = np.array([0, 1, 2, 3])
    base = np.array([0, 1, 0, 3])
    assert measure.flipped_correct(truth, base, np.array([0, 1, 2, 3])) == 0
    assert measure.flipped_correct(truth, base, np.array([0, 2, 2, 3])) == 1


def test_declared_metrics_match_what_runs_report():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sections = dict.fromkeys(spans.BUNDLE_SECTIONS, 0)
    layers = set(spans.layer_metrics(spans.Tracer(), sections, 0.0)) | {"trace.overhead_pct"}
    assert {m["name"] for m in declared["per_layer"]} == layers
    assert all(NAME.match(m["name"]) for m in declared["per_layer"] + declared["end_to_end"])
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
