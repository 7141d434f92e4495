"""Helpers shared by the benchmark: percentiles, digests, checks, environment."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

# time of one probe sample at the reference speed all reported times are scaled to
PROBE_REF_S = 0.5e-3


def percentiles(values, qs=(50, 95, 99)) -> dict:
    """Linear-interpolated percentiles with the sample count behind them.

    ``beyond_p<q>`` counts the samples strictly above each percentile; a
    percentile is trustworthy when at least ten samples lie beyond it.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("percentiles of an empty sample")
    out: dict = {"n": int(v.size)}
    for q, value in zip(qs, np.percentile(v, qs)):
        out[f"p{q}"] = float(value)
        out[f"beyond_p{q}"] = int((v > value).sum())
    out["max"] = float(v.max())
    return out


class SpeedProbe:
    """Times a fixed replica of one cascade prediction, between predictions.

    On a shared host the speed of this process drifts by up to 2x, in phases
    that last from seconds to many minutes, and the single-sample latencies
    of ``sensor_stream`` drift with it.  The probe repeats the numpy calls of
    the seed commit's single-sample path (projection, distances to 6,000
    reference points, partition, vote, two kernel expansions, centroid
    routing, score) on fixed random arrays of the same shapes, so contention
    slows it as it slows that path.  It calls no capgest code, so a change to
    capgest cannot change its time.  A pass's times are scaled by
    ``PROBE_REF_S / median probe time`` of the pass.
    """

    N_REF = 6000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._refs = rng.random((self.N_REF, 3))
        self._ref_sq = np.einsum("ij,ij->i", self._refs, self._refs)
        self._labels = rng.integers(0, 5, self.N_REF)
        self._base = rng.random((100, 3))
        self._kernels = [
            (rng.random(100), rng.random(100) + 0.5, rng.random((100, n)), rng.random(n),
             rng.random((n, n)), rng.random(n))
            for n in (9, 20)
        ]
        self._centroids = rng.random((6, 9))
        self._w = rng.random(20)
        self._queries = rng.random((4, 100))
        self.times: list[float] = []

    @staticmethod
    def _kernel(k, v):
        mean, scale, components, white_mean, rotation, white_scale = k
        return (((v - mean) / scale) @ components - white_mean) @ rotation * white_scale

    def _predict(self, v) -> float:
        z = v @ self._base
        d2 = self._ref_sq[None, :] - 2.0 * (z @ self._refs.T) + np.einsum("ij,ij->i", z, z)[:, None]
        kth = np.partition(d2, 4, axis=1)[:, 4]
        cand = np.nonzero(d2[0] <= kth[0])[0]
        order = cand[np.argsort(d2[0, cand], kind="stable")][:5]
        np.unique(self._labels[order], return_counts=True)
        f = self._kernel(self._kernels[0], v)
        diff = f[:, None, :] - self._centroids[None, :, :]
        np.argmin(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[0])
        return float(self._kernel(self._kernels[1], v)[0] @ self._w)

    def sample(self) -> None:
        t = time.perf_counter()
        for q in self._queries:
            self._predict(q[None, :])
        self.times.append(time.perf_counter() - t)

    def factor(self) -> float:
        """Multiply a time measured while sampling by this to scale it."""
        return PROBE_REF_S / statistics.median(self.times)


def mismatches(observed, expected) -> int:
    """Number of positions where two label arrays differ."""
    observed = np.asarray(observed)
    expected = np.asarray(expected)
    if observed.shape != expected.shape:
        raise ValueError(f"label arrays differ in shape: {observed.shape} vs {expected.shape}")
    return int((observed != expected).sum())


def flipped_correct(truth, base, corrected) -> int:
    """Correct base predictions that the cascade changed (the zero-FP count)."""
    truth, base, corrected = (np.asarray(a) for a in (truth, base, corrected))
    return int(((base == truth) & (corrected != truth)).sum())


def shares(labels, name) -> dict[str, float]:
    """Share of each distinct value in ``labels``, keyed by ``name(value)``."""
    values, counts = np.unique(np.asarray(labels), return_counts=True)
    total = counts.sum()
    return {name(v): round(float(c) / total, 6) for v, c in zip(values.tolist(), counts)}


def array_digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_digest(package: Path) -> str:
    """SHA-256 of the package sources (no bytecode, no built extensions)."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(path.relative_to(package).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    """BLAS library numpy was built against, and its live thread count."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def environment(root: Path, seed: int) -> dict:
    """What a result depends on besides the code: compare only like with like."""
    try:
        from capgest import neighbors

        backend = neighbors.BACKEND
    except ImportError:
        backend = "numpy"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src" / "capgest"),
        "seed": seed,
    }
