"""Generate one workload's inputs and, for inference workloads, train its bundle.

Runs in its own process, before anything is timed, so that the workload
process receives only the generated inputs and the bundle file::

    python3 perfbench/prepare.py --workload sensor_stream --work <dir>

Everything is derived from the default synthetic corpus
(``GenConfig(seed=0)``) and the default pipeline configuration (split seed
42); the workload seed only orders the traffic and is applied later, by the
workload process.  Writes ``.npy`` arrays, the bundle and ``prep.json`` into
the work directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from capgest import dataio
from capgest.config import PipelineConfig
from capgest.pipeline import save_bundle, train_pipeline
from capgest.signals import (
    WINDOW_FRAMES,
    assemble_sliding,
    feature_matrix,
    label_array,
    normalize,
    split_by_user,
)
from capgest.synth import GenConfig, gen_dataset

CORPUS = GenConfig(seed=0)


def corpus_samples(recordings, calib):
    """The balanced sliding-window dataset the CLI and the tests train on."""
    return assemble_sliding(
        recordings,
        calib,
        stride_frames=CORPUS.stride_frames,
        none_ratio=CORPUS.none_ratio,
        max_mark_overlap=CORPUS.max_mark_overlap,
        seed=CORPUS.seed,
    )


def corpus_split(samples, config: PipelineConfig):
    return split_by_user(
        samples,
        user_counts=config.user_counts,
        seed=config.split_seed,
        pinned_hold=config.pinned_hold,
    )


def stream_windows(recordings, calib):
    """Every stride-1 window of ``recordings``, in time order.

    Labels come from ``assemble_sliding`` with no NONE subsampling and no
    near-duplicate filtering; it returns gesture windows before NONE windows,
    so each window is matched back to its (recording, end frame) position.
    Returns the (n, 100) matrix, the labels and the first row of each
    recording.
    """
    samples = assemble_sliding(
        recordings, calib, stride_frames=1, none_ratio=1e9, max_mark_overlap=1.0
    )
    position: dict[bytes, list[int]] = {}
    starts = []
    n = 0
    for rec in recordings:
        starts.append(n)
        channels = normalize(rec, calib).channels
        for end in range(WINDOW_FRAMES - 1, rec.n_frames):
            window = np.ascontiguousarray(channels[:, end - WINDOW_FRAMES + 1 : end + 1])
            position.setdefault(window.tobytes(), []).append(n)
            n += 1
    if len(samples) != n:
        raise RuntimeError(f"assemble_sliding kept {len(samples)} of {n} stream windows")
    order = np.empty(n, dtype=np.int64)
    for i, s in enumerate(samples):
        order[position[np.ascontiguousarray(s.matrix).tobytes()].pop(0)] = i
    x = feature_matrix(samples)[order]
    y = label_array(samples)[order]
    return x, y, np.asarray(starts, dtype=np.int64)


def prepare(workload: str, work: Path) -> dict:
    config = PipelineConfig()
    recordings, calib = gen_dataset(CORPUS)
    samples = corpus_samples(recordings, calib)
    split = corpus_split(samples, config)
    evaluation = split.test + split.hold
    info: dict = {"workload": workload, "corpus_seed": CORPUS.seed, "split_seed": config.split_seed}

    if workload == "train_cli":
        data = work / "dataset"
        if data.exists():
            shutil.rmtree(data)
        dataio.write_dataset(data, recordings, calib)
        np.save(work / "train_x.npy", feature_matrix(split.train))
        np.save(work / "train_y.npy", label_array(split.train))
        x, y = feature_matrix(evaluation), label_array(evaluation)
        info["n_windows"] = len(samples)
    else:
        start = time.perf_counter()
        bundle = train_pipeline(config, split)
        info["train_s"] = time.perf_counter() - start
        save_bundle(bundle, work / "bundle.capgest")
        if workload == "sensor_stream":
            users = {u for u, part in split.user_assignment.items() if part in ("test", "hold")}
            x, y, starts = stream_windows([r for r in recordings if r.user_id in users], calib)
            np.save(work / "starts.npy", starts)
        else:
            x, y = feature_matrix(evaluation), label_array(evaluation)
            # labels of the in-memory bundle, for the reload check
            np.save(work / "reference.npy", bundle.predict_batch(x))
        info["n_windows"] = len(y)
    np.save(work / "x.npy", x)
    np.save(work / "y.npy", y)
    (work / "prep.json").write_text(json.dumps(info), encoding="utf-8")
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    prepare(args.workload, args.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
