"""The capgest benchmark: one workload, one process, one thread.

Run from the repository root::

    python3 perfbench/run.py --workload sensor_stream --seed 1 --seconds 12 --trace 0

Workloads (see README.md): ``sensor_stream`` (single-sample predictions over
every window of the test and hold users' recordings, closed loop, one
caller), ``batch_eval`` (one ``predict_batch`` per pass over the evaluation
windows) and ``train_cli`` (``capgest train`` on the default synthetic
dataset directory).

The inputs and, for inference, the bundle are made by ``prepare.py`` in a
child process, untimed; ``coldstart.py`` children time the set-up.  The
workload seed orders the traffic; the corpus is always ``GenConfig(seed=0)``
with split seed 42.  With ``--trace 0`` the last line of standard output is
the end-to-end result, with ``--trace 1`` the per-layer result of a run that
is half untraced, half traced.  The line before it is a JSON report with the
environment, sample counts, input digests and traffic shares.
``sensor_stream`` latencies and rate are scaled to a reference speed
measured by ``measure.SpeedProbe`` (see README.md).
"""

import os

# BLAS must be pinned before numpy is imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from measure import (  # noqa: E402
    array_digest,
    environment,
    flipped_correct,
    mismatches,
    percentiles,
    shares,
    SpeedProbe,
    source_digest,
    tree_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sensor_stream", "batch_eval", "train_cli")
COLD_STARTS = 7
CHILD_TIMEOUT_S = 170
WARMUP_WINDOWS = 200
PROBE_EVERY = 64  # sensor_stream windows between two probe samples
NO_WAIT = (
    "every run is single-threaded and closed-loop: no layer has a queue, "
    "so no wait time is reported"
)


def child(script: str, *args: str) -> str:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return proc.stdout


def timed_passes(run_pass, seconds: float) -> list:
    """Whole passes: one, then more while the next should end in time."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(run_pass())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return results


def check_inputs(workload: str, digests: dict) -> None:
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload]
    if digests != recorded:
        raise SystemExit(
            f"{workload}: generated inputs do not match perfbench/digests.json\n"
            f"  recorded  {recorded}\n  generated {digests}"
        )


class SensorStream:
    """Single-sample predictions over every stream window, in time order.

    The seed shuffles the order in which recordings are played; windows of
    one recording stay in time order.  A speed probe runs every
    ``PROBE_EVERY`` windows, outside the timed calls; each pass reports the
    factor that scales its times to the reference speed.
    """

    def __init__(self, work: Path, seed: int):
        from capgest import pipeline

        x, y, starts = (np.load(work / f"{n}.npy") for n in ("x", "y", "starts"))
        self.digests = {"windows": array_digest(x, y, starts)}
        check_inputs("sensor_stream", self.digests)
        bounds = np.append(starts, len(y))
        recs = np.random.default_rng(seed).permutation(len(starts))
        order = np.concatenate([np.arange(bounds[r], bounds[r + 1]) for r in recs])
        self.x, self.y = x[order], y[order]
        self.rows = list(self.x)
        self.bundle_path = work / "bundle.capgest"
        self.bundle = pipeline.load_bundle(self.bundle_path)
        self.n_windows = len(self.y)
        for row in self.rows[:WARMUP_WINDOWS]:
            self.bundle.predict(row)

    def run_pass(self, tracer=None) -> dict:
        n = self.n_windows
        probe = SpeedProbe()
        lat = np.empty(n, dtype=np.int64)
        labels = np.empty(n, dtype=np.int64)
        predict = self.bundle.predict
        clock = time.perf_counter_ns
        for i, row in enumerate(self.rows):
            if i % PROBE_EVERY == 0:
                probe.sample()
            if tracer is not None:
                tracer.new_trace()
            t0 = clock()
            label = predict(row)
            lat[i] = clock() - t0
            labels[i] = label
        # the rate counts time inside predict() only, not the probe between calls
        return {"wall_s": lat.sum() / 1e9, "lat_ms": lat / 1e6, "labels": labels,
                "windows": n, "ops": n, "scale": probe.factor(), "probes": len(probe.times)}

    def check(self, passes: list, counter) -> tuple[int, dict]:
        """Single-sample labels must equal ``predict_batch`` on the same windows."""
        batch = counter(lambda: self.bundle.predict_batch(self.x))
        failed = sum(mismatches(p["labels"], batch) for p in passes)
        return failed, {"accuracy": float((passes[0]["labels"] == self.y).mean())}


class BatchEval:
    """One ``predict_batch`` per pass over the balanced evaluation windows.

    The seed permutes the rows; labels must equal those the in-memory bundle
    gave before it was saved and reloaded.
    """

    def __init__(self, work: Path, seed: int):
        from capgest import pipeline

        x, y = np.load(work / "x.npy"), np.load(work / "y.npy")
        self.digests = {"windows": array_digest(x, y)}
        check_inputs("batch_eval", self.digests)
        perm = np.random.default_rng(seed).permutation(len(y))
        self.x, self.y = x[perm], y[perm]
        self.reference = np.load(work / "reference.npy")[perm]
        self.bundle_path = work / "bundle.capgest"
        self.bundle = pipeline.load_bundle(self.bundle_path)
        self.n_windows = len(self.y)
        self.bundle.predict_batch(self.x)

    def run_pass(self, tracer=None) -> dict:
        if tracer is not None:
            tracer.new_trace()
        t0 = time.perf_counter_ns()
        labels = self.bundle.predict_batch(self.x)
        took = time.perf_counter_ns() - t0
        return {"wall_s": took / 1e9, "lat_ms": [took / 1e6], "labels": labels,
                "windows": self.n_windows, "ops": 1}

    def check(self, passes: list, counter) -> tuple[int, dict]:
        """Labels of the reloaded bundle must equal the in-memory bundle's."""
        counter(lambda: self.bundle.predict_batch(self.x))
        wrong = [mismatches(p["labels"], self.reference) for p in passes]
        return sum(w > 0 for w in wrong), {
            "accuracy": float((passes[0]["labels"] == self.y).mean()),
            "reload_label_mismatches": sum(wrong),
        }


class TrainCli:
    """``capgest train`` on the default synthetic dataset directory.

    The seed does not change the inputs: the dataset is the default one.
    """

    def __init__(self, work: Path, seed: int):
        self.data = work / "dataset"
        arrays = {n: np.load(work / f"{n}.npy") for n in ("train_x", "train_y", "x", "y")}
        self.digests = {
            "dataset": tree_digest(self.data),
            "windows": array_digest(*arrays.values()),
        }
        check_inputs("train_cli", self.digests)
        self.train_x, self.train_y = arrays["train_x"], arrays["train_y"]
        self.x, self.y = arrays["x"], arrays["y"]
        self.n_windows = json.loads((work / "prep.json").read_text())["n_windows"]
        self.bundle_path = work / "cli_bundle.capgest"
        self.record = work / "bundle_sha256.json"
        self.source = source_digest(SRC / "capgest")

    def run_pass(self, tracer=None) -> dict:
        from capgest import cli

        if tracer is not None:
            tracer.new_trace()
        argv = ["train", "--data", str(self.data), "--out", str(self.bundle_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            code = cli.main(argv)
            took = time.perf_counter_ns() - t0
        digest = hashlib.sha256(self.bundle_path.read_bytes()).hexdigest() if code == 0 else None
        return {"wall_s": took / 1e9, "lat_ms": [took / 1e6], "exit": code, "sha256": digest,
                "windows": self.n_windows, "ops": 1,
                "bytes": self.bundle_path.stat().st_size if code == 0 else 0}

    def check(self, passes: list, counter) -> tuple[int, dict]:
        """Exit 0, one bundle SHA-256 per source tree, zero-FP on train."""
        from capgest import pipeline

        records = json.loads(self.record.read_text()) if self.record.exists() else {}
        expected = records.get(self.source) or passes[0]["sha256"]
        if expected is not None:
            records[self.source] = expected
            self.record.write_text(json.dumps(records, indent=1))
        bundle = pipeline.load_bundle(self.bundle_path)
        flips = flipped_correct(self.train_y, bundle.predict_base_batch(self.train_x),
                                bundle.predict_batch(self.train_x))
        labels = counter(lambda: bundle.predict_batch(self.x))
        failed = sum(p["exit"] != 0 or p["sha256"] != expected for p in passes)
        if flips:
            failed = len(passes)
        return failed, {
            "accuracy": float((labels == self.y).mean()),
            "bundle_sha256": expected,
            "train_flipped_correct": flips,
        }


def run(args) -> tuple[dict, dict]:
    from capgest.signals import GestureLabel

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    child("prepare.py", "--workload", args.workload, "--work", str(work))
    prep = json.loads((work / "prep.json").read_text(encoding="utf-8"))
    cold_args = [] if args.workload == "train_cli" else ["--bundle", str(work / "bundle.capgest")]
    cold = [float(child("coldstart.py", *cold_args).split()[-1]) for _ in range(COLD_STARTS)]

    load = {"sensor_stream": SensorStream, "batch_eval": BatchEval, "train_cli": TrainCli}
    workload = load[args.workload](work, args.seed)
    untraced = timed_passes(workload.run_pass, args.seconds / 2 if args.trace else args.seconds)
    traced, tracer = [], None
    if args.trace:
        from capgest import pipeline

        bundle = getattr(workload, "bundle", None)
        tracer = spans.Tracer()
        missing = spans.install_layers(tracer, bundle)
        try:
            traced = timed_passes(lambda: workload.run_pass(tracer), args.seconds / 2)
            bundle = pipeline.load_bundle(workload.bundle_path)
        finally:
            tracer.uninstall()

    routing = spans.Tracer()

    def counted(predict):
        """``predict()`` with corrector routing counted, untimed."""
        spans.install_layers(routing)
        try:
            return predict()
        finally:
            routing.uninstall()

    passes = untraced + traced
    failed, outcome = workload.check(passes, counted)
    if args.workload == "train_cli":
        bundle_bytes = passes[-1]["bytes"]
        train_s = statistics.median(p["wall_s"] for p in untraced)
    else:
        bundle_bytes = workload.bundle_path.stat().st_size
        train_s = prep["train_s"]

    def scaled_latencies(run):
        return np.concatenate([np.asarray(p["lat_ms"]) * p.get("scale", 1.0) for p in run])

    latency = percentiles(scaled_latencies(untraced))
    rate = sum(p["windows"] for p in untraced) / sum(p["wall_s"] * p.get("scale", 1.0) for p in untraced)
    windows = len(workload.y)
    routed = {k[len("routed."):]: round(v / windows, 6)
              for k, v in sorted(routing.counters.items()) if k.startswith("routed.")}
    metrics = {
        "setup_s": (statistics.median(cold), "s"),
        "latency_p50_ms": (latency["p50"], "ms"),
        "latency_p95_ms": (latency["p95"], "ms"),
        "latency_p99_ms": (latency["p99"], "ms"),
        "samples_per_s": (rate, "1/s"),
        "train_s": (train_s, "s"),
        "bundle_bytes": (bundle_bytes, "bytes"),
        "accuracy": (outcome["accuracy"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "workload": args.workload,
        "environment": environment(ROOT, args.seed),
        "inputs_sha256": workload.digests,
        "operation": {"sensor_stream": "one predict", "batch_eval": "one predict_batch pass",
                      "train_cli": "one capgest train"}[args.workload],
        "latency_ms": latency,
        "setup_s_runs": cold,
        "truth_share": shares(workload.y, lambda v: GestureLabel(v).text),
        "routed_share": routed,
        "outcome": outcome,
        "wait": NO_WAIT,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
    }
    if "scale" in untraced[0]:
        report["speed_scale"] = [{"factor": p["scale"], "probes": p["probes"]} for p in passes]
        report["unscaled"] = {
            "latency_ms": percentiles(np.concatenate([p["lat_ms"] for p in untraced])),
            "samples_per_s": sum(p["windows"] for p in untraced) / sum(p["wall_s"] for p in untraced),
        }
    if tracer is not None:
        traced_p50 = float(np.median(scaled_latencies(traced)))
        layers = spans.layer_metrics(
            tracer,
            spans.bundle_section_bytes(bundle),
            spans.used_kernel_share(bundle, tracer),
        )
        overhead = 100.0 * (traced_p50 / latency["p50"] - 1.0)
        layers["trace.overhead_pct"] = (overhead, "%")
        report["tracing"] = {
            "untraced_p50_ms": latency["p50"],
            "traced_p50_ms": traced_p50,
            "overhead_pct": overhead,
            "unwrapped": missing,
            "spans": tracer.summary(),
        }
        metrics = layers
    result = {
        "correct": failed == 0,
        "attempted": sum(p["ops"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capgest benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capgest" / "__init__.py").is_file():
        print(f"error: capgest sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
