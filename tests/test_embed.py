import dataclasses
import math
import re
from collections import Counter
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest import embed, neighbors
from capgest.config import PipelineConfig
from capgest.embed import (
    FittedKernel,
    KernelSpec,
    _monomials,
    _svd_sv,
    dataset_intrinsic_dimension,
    intrinsic_dimension,
    kernel_apply,
    kernel_fit,
    kernel_output_width,
    monomial_count,
    parse_kernel_spec,
    pca_fit,
    pca_transform,
    separability_probability,
    standardize_fit,
    whiten_fit,
)
from capgest.errors import (
    DegenerateInput,
    DimensionMismatch,
    ParamOutOfRange,
    TooFewSamples,
)
from capgest.signals import feature_matrix

from conftest import FIVE_KERNELS
from test_acceptance import WHITEN_GRID

RNG = np.random.default_rng(12345)


class TestPca:
    def test_uncentered_matches_svd_oracle(self):
        X = RNG.uniform(0, 1, (50, 8))
        components = pca_fit(X, 4)
        _, _, vt = np.linalg.svd(X, full_matrices=False)
        # components equal up to sign
        assert np.allclose(np.abs(components), np.abs(vt[:4].T))

    def test_sign_convention(self):
        X = RNG.normal(0, 1, (40, 6))
        components = pca_fit(X, 6)
        for j in range(6):
            col = components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_components_orthonormal(self):
        components = pca_fit(RNG.normal(0, 1, (30, 10)), 5)
        assert np.allclose(components.T @ components, np.eye(5), atol=1e-12)

    def test_transform_projects(self):
        X = RNG.uniform(0, 1, (20, 7))
        components = pca_fit(X, 3)
        assert np.allclose(pca_transform(components, X), X @ components)

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            pca_fit(np.zeros((5, 3)), 4)
        with pytest.raises(DimensionMismatch):
            pca_fit(np.zeros(5), 1)
        with pytest.raises(DegenerateInput):
            pca_fit(np.full((5, 3), np.nan), 1)
        components = pca_fit(RNG.normal(0, 1, (10, 4)), 2)
        with pytest.raises(DimensionMismatch):
            pca_transform(components, np.zeros((3, 5)))


def whiten(model, X):
    mean, R = model
    return (X - mean) @ R


class TestWhiten:
    def test_identity_covariance(self):
        X = RNG.normal(0, 3, (200, 12)) @ RNG.normal(0, 1, (12, 12))
        W = whiten(whiten_fit(X.copy()), X)
        assert np.allclose(np.cov(W, rowvar=False, ddof=1), np.eye(W.shape[1]), atol=1e-10)

    def test_drops_rank_deficient_directions(self):
        base = RNG.normal(0, 1, (100, 3))
        X = np.hstack([base, base @ RNG.normal(0, 1, (3, 4))])  # rank 3 in 7-d
        model = whiten_fit(X.copy())
        assert model[1].shape == (7, 3)
        W = whiten(model, X)
        assert np.all(np.isfinite(W))

    @pytest.mark.parametrize("shape", [(200, 12), (1500, 164), (60, 100)])
    def test_matrix_is_rotation_times_scale(self, shape):
        # the kernel fits multiplied the sign-fixed rotation by the scale;
        # the returned matrix is that product, bit for bit
        X = _rank_deficient(*shape, seed=sum(shape)) + 0.5
        mean, R = whiten_fit(X.copy())
        s, vt = _svd_sv(X - X.mean(axis=0))
        keep = s >= embed._SV_DROP
        want = embed._fix_signs(vt[keep].T) * (math.sqrt(shape[0] - 1) / s[keep])
        assert mean.tobytes() == X.mean(axis=0).tobytes()
        assert R.shape == want.shape and R.tobytes() == want.tobytes()

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            whiten_fit(np.zeros((1, 3)))
        with pytest.raises(DegenerateInput):
            whiten_fit(np.full((10, 3), 0.7))  # no spread at all


def standardize(std: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> np.ndarray:
    """``X`` standardized by a ``standardize_fit`` result (mean, scale)."""
    mean, scale = std
    return (X - mean) / scale


def reference_standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column means and scales from one full-size ``X.std``, kept as the
    oracle for the blocked variance."""
    std = X.std(axis=0)
    return X.mean(axis=0), np.where(std > 1e-12, std, 1.0)


BLOCK = embed._ROW_BLOCK


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        X = RNG.normal(3, 5, (100, 4))
        Z = standardize(standardize_fit(X), X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_kept_finite(self):
        X = np.column_stack([np.full(50, 2.0), RNG.normal(0, 1, 50)])
        Z = standardize(standardize_fit(X), X)
        assert np.allclose(Z[:, 0], 0.0)

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("p", [2, 5, 100, 164])
    def test_byte_equal_to_full_std(self, n, p):
        rng = np.random.default_rng(n * 1000 + p)
        # columns of very different spreads around large offsets, and a
        # constant one, whose scale is 1
        X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(1e-3, 1e4, p) + rng.normal(0.0, 1e6, p)
        X[:, 1] = 7.3
        (mean, scale), (want_mean, want_scale) = standardize_fit(X), reference_standardizer(X)
        assert mean.tobytes() == want_mean.tobytes()
        assert scale.tobytes() == want_scale.tobytes()
        assert scale[1] == 1.0


KERNEL_TEXTS = [
    "pca:9",
    "pca:100",
    "poly:5:4",
    "poly:2:7",
    "knn:10:150",
    "concat(pca:20,poly:5:4)",
    "concat(concat(pca:3,pca:4),knn:5:10)",
]


class TestKernelSpec:
    @pytest.mark.parametrize("text", KERNEL_TEXTS)
    def test_parse_encode_round_trip(self, text):
        assert parse_kernel_spec(text).encode() == text

    @pytest.mark.parametrize(
        "text",
        ["pca:2", "pca:101", "poly:1:3", "poly:5:8", "knn:10:1", "knn:10:301",
         "concat(pca:9)", "wave:3", "pca:x", ""],
    )
    def test_rejects_out_of_range_and_garbage(self, text):
        with pytest.raises(ParamOutOfRange):
            parse_kernel_spec(text)

    def test_default_and_criterion_7_specs_round_trip(self):
        for text in (*PipelineConfig().corrector_kernels, *FIVE_KERNELS, *WHITEN_GRID):
            assert parse_kernel_spec(text).encode() == text

    @pytest.mark.parametrize(
        "kind, name, lo, hi",
        [("pca", "n_pc", 3, 100), ("poly", "n_pc", 2, 20), ("poly", "n_poly", 2, 7),
         ("knn", "n_pc", 2, 100), ("knn", "k_nn", 2, 300)],
    )
    def test_range_messages_equal_the_former_checks(self, kind, name, lo, hi):
        for value in (lo - 1, lo, hi, hi + 1):
            fields = {"kind": kind, "n_pc": 5, "n_poly": 3, "k_nn": 10, "children": (), name: value}
            try:
                reference_post_init(SimpleNamespace(**fields))
                want = None
            except ParamOutOfRange as exc:
                want = str(exc)
            try:
                spec = KernelSpec(**fields)
                got = None
            except ParamOutOfRange as exc:
                got = str(exc)
            assert got == want and (want is None) == (lo <= value <= hi)
            if got is None:
                assert parse_kernel_spec(spec.encode()).encode() == spec.encode()

    def test_other_messages_equal_the_former_checks(self):
        for fields in ({"kind": "wave"}, {"kind": "concat"}, {"kind": "concat", "children": (1,)}):
            fields = {"n_pc": 0, "n_poly": 0, "k_nn": 0, "children": (), **fields}
            with pytest.raises(ParamOutOfRange) as want:
                reference_post_init(SimpleNamespace(**fields))
            with pytest.raises(ParamOutOfRange, match=f"^{re.escape(str(want.value))}$"):
                KernelSpec(**fields)


def reference_post_init(self):
    """The former body of ``KernelSpec.__post_init__``, kept as the oracle."""
    if self.kind == "pca":
        if not 3 <= self.n_pc <= 100:
            raise ParamOutOfRange(f"pca kernel needs 3 <= n_pc <= 100, got {self.n_pc}")
    elif self.kind == "poly":
        if not 2 <= self.n_pc <= 20:
            raise ParamOutOfRange(f"poly kernel needs 2 <= n_pc <= 20, got {self.n_pc}")
        if not 2 <= self.n_poly <= 7:
            raise ParamOutOfRange(
                f"poly kernel needs 2 <= n_poly <= 7, got {self.n_poly}"
            )
    elif self.kind == "knn":
        if not 2 <= self.n_pc <= 100:
            raise ParamOutOfRange(f"knn kernel needs 2 <= n_pc <= 100, got {self.n_pc}")
        if not 2 <= self.k_nn <= 300:
            raise ParamOutOfRange(f"knn kernel needs 2 <= k_nn <= 300, got {self.k_nn}")
    elif self.kind == "concat":
        if len(self.children) != 2:
            raise ParamOutOfRange("concat kernel needs exactly 2 children")
    else:
        raise ParamOutOfRange(f"unknown kernel kind {self.kind!r}")


def small_train(n=300, d=100):
    return np.clip(RNG.normal(0.3, 0.2, (n, d)), 0.0, 1.0)


class TestKernels:
    def test_pca_kernel_dims(self):
        k = kernel_fit(parse_kernel_spec("pca:9"), small_train())
        Z = kernel_apply(k, small_train(50))
        assert Z.shape == (50, 9)
        assert kernel_output_width(k, 100) == 9

    def test_poly_kernel_dims(self):
        k = kernel_fit(parse_kernel_spec("poly:4:3"), small_train())
        assert kernel_output_width(k, 100) <= monomial_count(4, 3)
        assert kernel_apply(k, small_train(10)).shape[1] == kernel_output_width(k, 100)

    def test_monomial_count_matches_expansion(self):
        B = RNG.normal(0, 1, (20, 5))
        assert _monomials(B, 3).shape[1] == monomial_count(5, 3)

    def test_knn_kernel_distances_sorted(self):
        X = small_train()
        k = kernel_fit(parse_kernel_spec("knn:5:20"), X)
        # before standardize/whiten the raw expansion is sorted; check via
        # the stored reference set
        from capgest import neighbors

        B = kernel_apply(k.base, X[:7])[:, :5]
        D, _ = neighbors.query_topk(k.train_base, B, 20)
        assert np.all(np.diff(D, axis=1) >= 0)

    def test_knn_kernel_needs_enough_train(self):
        with pytest.raises(ParamOutOfRange):
            kernel_fit(parse_kernel_spec("knn:5:50"), small_train(40))

    def test_concat_stacks_children(self):
        k = kernel_fit(parse_kernel_spec("concat(pca:6,poly:3:2)"), small_train())
        probe = small_train(5)
        Z = kernel_apply(k, probe)
        left = kernel_apply(k.children[0], probe)
        assert np.allclose(Z[:, : left.shape[1]], left)

    def test_single_row_apply(self):
        k = kernel_fit(parse_kernel_spec("pca:5"), small_train())
        assert kernel_apply(k, small_train(1)[0]).shape == (1, 5)

    @pytest.mark.parametrize("text", ["pca:12", "poly:4:3", "knn:6:25"])
    def test_train_output_whitened(self, text):
        X = small_train()
        Z = kernel_apply(kernel_fit(parse_kernel_spec(text), X), X)
        C = np.cov(Z, rowvar=False, ddof=1)
        assert np.abs(C - np.eye(C.shape[0])).max() < 1e-8


def kernel_arrays(obj, path="") -> dict[str, np.ndarray]:
    """Every array reachable from a fitted kernel, by field path."""
    if isinstance(obj, np.ndarray):
        return {path: obj}
    if isinstance(obj, tuple):
        return {
            k: v for i, c in enumerate(obj) for k, v in kernel_arrays(c, f"{path}[{i}]").items()
        }
    if dataclasses.is_dataclass(obj):
        return {
            k: v
            for f in dataclasses.fields(obj)
            for k, v in kernel_arrays(getattr(obj, f.name), f"{path}.{f.name}").items()
        }
    return {}


class TestSharedFits:
    def test_memo_fits_equal_independent_fits(self):
        X = small_train(400)
        memo: dict = {}
        for name in [*FIVE_KERNELS, "knn:5:20"]:
            spec = parse_kernel_spec(name)
            shared = kernel_arrays(kernel_fit(spec, X, memo))
            alone = kernel_arrays(kernel_fit(spec, X))
            assert shared.keys() == alone.keys() and shared, name
            for path, want in alone.items():
                got = shared[path]
                assert got.dtype == want.dtype and got.shape == want.shape, (name, path)
                assert got.tobytes() == want.tobytes(), (name, path)

    @pytest.mark.parametrize("n_pc", [3, 9, 20, 100])
    def test_pca_stage_equals_fresh_fit(self, n_pc):
        # the former pca kernel body decomposed at the requested rank; the
        # shared basis truncated to it gives the same components
        X = small_train(400)
        Z = standardize(standardize_fit(X), X)
        center = Z.mean(axis=0)
        fresh = pca_fit(Z - center, n_pc)
        memo: dict = {}
        kernel_fit(parse_kernel_spec("pca:50"), X, memo)  # the basis comes from another spec
        _, _, shared_center, full = memo[embed._BASIS]
        assert shared_center.tobytes() == center.tobytes()
        assert full[:, :n_pc].tobytes() == fresh.tobytes()
        got = kernel_arrays(kernel_fit(KernelSpec(kind="pca", n_pc=n_pc), X, memo))
        alone = kernel_arrays(kernel_fit(KernelSpec(kind="pca", n_pc=n_pc), X))
        assert got.keys() == alone.keys() == {".matrix", ".offset"}
        for path, w in alone.items():
            assert got[path].shape == w.shape and got[path].tobytes() == w.tobytes(), path

    def test_one_svd_per_distinct_decomposition(self, monkeypatch):
        # each decomposition is one eigh of a Gram matrix (_svd_sv)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        X = small_train(400)
        memo: dict = {}
        for name in FIVE_KERNELS:
            kernel_fit(parse_kernel_spec(name), X, memo)
        # one basis, then one whitening per pca stage (20, 9, 5, 8, 10) and
        # per poly expansion (5:4, 8:3); fitting each alone takes 15
        assert len(calls) == 8

    def test_memo_holds_kernels_and_basis(self):
        X = small_train(400)
        memo: dict = {}
        for name in [*FIVE_KERNELS, "knn:5:20"]:
            kernel_fit(parse_kernel_spec(name), X, memo)
        # the configured kernels and every kernel nested in them, and no output
        kernels = {key: value for key, value in memo.items() if key != embed._BASIS}
        assert {"pca:5", "pca:8", "pca:10", "knn:5:20"} <= set(kernels)
        for key, kernel in kernels.items():
            assert isinstance(kernel, FittedKernel) and kernel.spec.encode() == key
        mean, scale, center, full = memo[embed._BASIS]
        assert mean.shape == scale.shape == center.shape == (X.shape[1],)
        assert full.shape == (X.shape[1], X.shape[1])

    def test_fits_apply_only_poly_bases(self, monkeypatch):
        calls = Counter()
        apply = embed.kernel_apply

        def counting_apply(kernel, X):
            calls[kernel.spec.encode()] += 1
            return apply(kernel, X)

        monkeypatch.setattr(embed, "kernel_apply", counting_apply)
        memo: dict = {}
        for name in FIVE_KERNELS:
            kernel_fit(parse_kernel_spec(name), small_train(400), memo)
        # each poly fit reads its base pca output on the train matrix, once
        # per base; no fit applies the kernel it fits
        assert calls == {"pca:5": 1, "pca:8": 1}


def staged_fit(spec: KernelSpec, X: np.ndarray) -> dict:
    """The former staged kernel, kept as the oracle: per stage the column
    means and scales, for pca the center and the components of the
    standardized input, decomposed at the requested rank, and the whitening
    mean and matrix, each fitted on the previous stage's output."""
    if spec.kind == "concat":
        return {"spec": spec, "children": [staged_fit(c, X) for c in spec.children]}
    stage: dict = {"spec": spec}
    if spec.kind == "pca":
        stage["std"] = standardize_fit(X)
        Z = standardize(stage["std"], X)
        stage["center"] = Z.mean(axis=0)
        stage["pca"] = pca_fit(Z - stage["center"], spec.n_pc)
        stage["whiten"] = whiten_fit(staged_project(stage, X))
        return stage
    stage["base"] = staged_fit(KernelSpec(kind="pca", n_pc=max(spec.n_pc, 3)), X)
    stage["train_base"] = staged_apply(stage["base"], X)[:, : spec.n_pc]
    F = staged_expansion(stage, X)
    stage["std"] = standardize_fit(F)
    stage["whiten"] = whiten_fit(standardize(stage["std"], F))
    return stage


def staged_expansion(stage: dict, X: np.ndarray) -> np.ndarray:
    spec = stage["spec"]
    B = staged_apply(stage["base"], X)[:, : spec.n_pc]
    if spec.kind == "poly":
        return _monomials(B, spec.n_poly)
    D, _ = neighbors.query_topk(stage["train_base"], B, spec.k_nn)
    # a train row's distance to itself is rounding noise; both sides zero it
    D[D < embed._SAME_POINT] = 0.0
    return D


def staged_project(stage: dict, X: np.ndarray) -> np.ndarray:
    """A pca stage's scores: standardize, center, project."""
    return pca_transform(stage["pca"], standardize(stage["std"], X) - stage["center"])


def staged_apply(stage: dict, X: np.ndarray) -> np.ndarray:
    """The former ``kernel_apply`` body: standardize, project, whiten."""
    spec = stage["spec"]
    if spec.kind == "concat":
        return np.hstack([staged_apply(c, X) for c in stage["children"]])
    if spec.kind == "pca":
        return whiten(stage["whiten"], staged_project(stage, X))
    return whiten(stage["whiten"], standardize(stage["std"], staged_expansion(stage, X)))


# composing the stages into one map moves each output by rounding only:
# 1e-10 is about 4.5e5 float64 epsilons
STAGED_RTOL = 1e-10  # of the largest output magnitude


class TestStagedOracle:
    @pytest.mark.parametrize(
        "text", ["pca:5", "pca:20", "poly:5:4", "poly:8:3", "knn:5:20", "concat(pca:10,poly:5:4)"]
    )
    def test_apply_matches_staged_body(self, text):
        X = small_train(400)
        spec = parse_kernel_spec(text)
        kernel, stage = kernel_fit(spec, X), staged_fit(spec, X)
        for probe in (X, small_train(60), small_train(1)):
            got, want = kernel_apply(kernel, probe), staged_apply(stage, probe)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= STAGED_RTOL * np.abs(want).max(), text


def _rank_deficient(m: int, n: int, seed: int) -> np.ndarray:
    """Centered m x n matrix whose last columns repeat scaled earlier ones,
    like a whitening input of monomials."""
    rng = np.random.default_rng(seed)
    X = np.clip(rng.normal(0.3, 0.2, (m, n)), 0.0, 1.0)
    k = max(1, n // 10)
    X[:, n - k :] = 2.0 * X[:, :k]
    return X - X.mean(axis=0)


def reference_svd_sv(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former ``_svd_sv`` body, kept as the reference: the R of a QR
    factorization for m >= 2n, then ``np.linalg.svd``; bit-equal to
    ``np.linalg.svd(X, full_matrices=False)``."""
    m, n = X.shape
    if m >= 2 * n:
        X = np.linalg.qr(X, mode="r")
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    return s, vt


# a singular vector is checked where the squared singular values of its
# neighbours lie at least this far from its own, relative to s_max**2
SEPARATED = 1e-6


SVD_SHAPES = pytest.mark.parametrize(
    "shape",
    [
        # training: base pca and shared basis, poly:5:4 and poly:8:3 whitening
        (16940, 100), (16940, 125), (16940, 164),
        # criterion 7: the 1,500-row basis and its whitening widths
        *[(1500, n) for n in (5, 9, 10, 20, 30, 50, 100, 125, 164)],
        # near square, both sides of the QR route's cut at m = 2n
        (150, 100), (183, 100), (184, 100), (199, 100), (200, 100), (201, 100),
        (100, 100), (60, 100),
    ],
    ids=lambda shape: f"{shape[0]}x{shape[1]}",
)


class TestSvdWithoutU:
    @SVD_SHAPES
    def test_byte_equal_to_svd(self, shape):
        # the QR route, the reference of test_kept_directions_equal_qr_route,
        # is the decomposition that training used before the Gram route
        X = _rank_deficient(*shape, seed=shape[0] + shape[1])
        s, vt = reference_svd_sv(X)
        _, want_s, want_vt = np.linalg.svd(X, full_matrices=False)
        assert s.shape == want_s.shape and vt.shape == want_vt.shape
        assert s.tobytes() == want_s.tobytes()
        assert vt.tobytes() == want_vt.tobytes()

    @SVD_SHAPES
    def test_matches_svd_oracle(self, shape):
        m, n = shape
        X = _rank_deficient(m, n, seed=m + n)
        s, vt = _svd_sv(X)
        _, want_s, want_vt = np.linalg.svd(X, full_matrices=False)
        assert s.shape == want_s.shape and vt.shape == want_vt.shape
        assert np.abs(s - want_s).max() <= 1e-9 * want_s[0]
        # centering costs one rank, the repeated columns max(1, n // 10)
        rank = min(m - 1, n - max(1, n // 10))
        assert np.all(s[:rank] > 0) and np.all(s[rank:] == 0.0)
        w = want_s**2
        gap = np.full(len(w), np.inf)
        gap[:-1] = np.minimum(gap[:-1], w[:-1] - w[1:])
        gap[1:] = np.minimum(gap[1:], w[:-1] - w[1:])
        separated = (gap >= SEPARATED * w[0]) & (np.arange(len(w)) < rank)
        assert separated.sum() >= 0.9 * rank
        cosines = np.abs(np.einsum("ij,ij->i", vt, want_vt))[separated]
        assert np.all(cosines >= 1 - 1e-9)
        assert np.allclose(vt @ vt.T, np.eye(len(vt)), atol=1e-12)

    def test_whitens_ill_conditioned_full_rank(self):
        rng = np.random.default_rng(3)
        m, n = 2000, 50
        U = np.linalg.qr(rng.normal(size=(m, n)))[0]
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        X = (U * np.logspace(0, -4, n)) @ V.T
        sv = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
        assert 0.9e-4 <= sv[-1] / sv[0] <= 1.1e-4
        model = whiten_fit(X.copy())
        assert model[1].shape == (n, n)
        C = np.cov(whiten(model, X), rowvar=False, ddof=1)
        assert np.abs(C - np.eye(n)).max() <= 1e-6

    def test_kept_directions_equal_qr_route(self, default_split, monkeypatch):
        # the number of whitening directions kept sets each kernel's output
        # width: the default kernels on the default train split, and the
        # criterion-7 grid on its first 1,500 rows, as that criterion fits it
        X = feature_matrix(default_split.train)

        def widths(svd_sv):
            monkeypatch.setattr(embed, "_svd_sv", svd_sv)
            memo: dict = {}
            fits = [kernel_fit(parse_kernel_spec(name), X, memo) for name in FIVE_KERNELS]
            fits += [kernel_fit(parse_kernel_spec(name), X[:1500]) for name in WHITEN_GRID]
            return [kernel_output_width(kernel, X.shape[1]) for kernel in fits]

        assert widths(_svd_sv) == widths(reference_svd_sv)


def reference_monomials(B: np.ndarray, degree: int) -> np.ndarray:
    """The former per-column ``_monomials`` body, kept as the oracle."""
    cols = []
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(B.shape[1]), deg):
            cols.append(np.prod(B[:, combo], axis=1))
    return np.column_stack(cols)


def single_gather_monomials(B: np.ndarray, degree: int) -> np.ndarray:
    """The former one-block ``_monomials`` body, each gather over all rows,
    kept as the oracle for the blocked one."""
    n, p = B.shape
    factor, steps = embed._monomial_plan(p, degree)
    out = np.empty((n, p + len(factor)))
    out[:, :p] = B
    out[:, p:] = B.take(factor, axis=1)
    for cols, parent in steps:
        out[:, cols] *= out.take(parent, axis=1)
    return out


def _poly_specs(spec: KernelSpec) -> list[KernelSpec]:
    if spec.kind == "concat":
        return [p for child in spec.children for p in _poly_specs(child)]
    return [spec] if spec.kind == "poly" else []


CONFIGURED_POLY = sorted(
    {
        (p.n_pc, p.n_poly)
        for name in FIVE_KERNELS
        for p in _poly_specs(parse_kernel_spec(name))
    }
)


class TestMonomials:
    def test_configured_specs_are_covered(self):
        assert {(5, 4), (8, 3)} <= set(CONFIGURED_POLY)

    @pytest.mark.parametrize(
        "n_pc, degree",
        [*CONFIGURED_POLY, (2, 2), (20, 2), (2, 7)],
    )
    @pytest.mark.parametrize("n_rows", [1, 7])
    def test_byte_equal_to_reference(self, n_pc, degree, n_rows):
        # a strided column slice, as kernel_apply passes it
        B = RNG.normal(0.0, 1.5, (n_rows, n_pc + 3))[:, :n_pc]
        got = _monomials(B, degree)
        want = reference_monomials(B, degree)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_pc", [1, 5, 8])
    def test_blocks_byte_equal_to_one_gather(self, n_rows, degree, n_pc):
        B = RNG.normal(0.0, 1.5, (n_rows, n_pc + 3))[:, :n_pc]
        got = _monomials(B, degree)
        want = single_gather_monomials(B, degree)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rows, passes", [(1, 1), (BLOCK, 1), (BLOCK + 1, 2), (3 * BLOCK + 7, 4)])
    def test_one_row_is_one_pass(self, monkeypatch, n_rows, passes):
        # inference expands one row at a time (poly:5:4); it runs one block
        calls = []
        rows = embed._monomial_rows

        def counting(B, *args):
            calls.append(len(B))
            return rows(B, *args)

        monkeypatch.setattr(embed, "_monomial_rows", counting)
        _monomials(RNG.normal(0.0, 1.0, (n_rows, 5)), 4)
        assert len(calls) == passes and sum(calls) == n_rows


class TestIntrinsicDimension:
    def test_separability_probability_decreasing_in_n(self):
        values = [separability_probability(0.8, n) for n in range(1, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=0.2, max_value=0.95), st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_probability_in_unit_interval_tail(self, alpha, n):
        p = separability_probability(alpha, n)
        assert p > 0.0

    def test_sphere_estimate_rough(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (3000, 9))  # points on the 8-sphere after normalization
        est = intrinsic_dimension(X, alpha=0.8)
        assert 8 * 0.7 <= est <= 8 * 1.3

    def test_orthogonal_points_unmeasurable(self):
        assert intrinsic_dimension(np.eye(30)) == math.inf

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            intrinsic_dimension(np.eye(30), alpha=1.5)
        with pytest.raises(TooFewSamples):
            intrinsic_dimension(np.eye(5))

    def test_dataset_estimate_tracks_low_rank_structure(self):
        rng = np.random.default_rng(3)
        latent = rng.normal(0, 1, (4000, 5))
        X = latent @ rng.normal(0, 1, (5, 100)) + 1e-4 * rng.normal(0, 1, (4000, 100))
        est = dataset_intrinsic_dimension(X)
        assert 3.0 <= est <= 7.0
