"""Shared fixtures: one small dataset for unit tests, the default-scale
dataset and bundle for the acceptance suite.  All session scoped; the small
dataset builds in seconds, the default one in about a minute."""

import pytest

from capgest.config import PipelineConfig
from capgest.pipeline import train_pipeline
from capgest.signals import split_by_user
from capgest.synth import GenConfig, build_sliding_dataset

# a corrector grid of five kernels, wide ones among them, for the tests that
# need several kernels to test anything: the default grid is pca:20 alone
FIVE_KERNELS = ("pca:20", "pca:9", "poly:5:4", "poly:8:3", "concat(pca:10,poly:5:4)")

SMALL_GEN = GenConfig(
    n_users=15, gestures_per_user_per_class=20, none_recordings_per_user=6
)

# printed by pytest_terminal_summary so the lines survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record():
    """Log one pass/fail line per acceptance criterion, then assert."""

    def _record(number: int, ok: bool, text: str) -> None:
        ACCEPTANCE_LINES.append(
            f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
        )
        assert ok, f"criterion {number}: {text}"

    return _record


@pytest.fixture
def summary_line():
    """Log one line beside the criteria lines, without asserting."""
    return ACCEPTANCE_LINES.append


@pytest.fixture(scope="session")
def small_samples():
    samples, _ = build_sliding_dataset(SMALL_GEN)
    return samples


@pytest.fixture(scope="session")
def small_split(small_samples):
    return split_by_user(small_samples, seed=PipelineConfig().split_seed)


@pytest.fixture(scope="session")
def small_bundle(small_split):
    return train_pipeline(PipelineConfig(), small_split)


@pytest.fixture(scope="session")
def default_samples():
    samples, _ = build_sliding_dataset(GenConfig())
    return samples


@pytest.fixture(scope="session")
def default_split(default_samples):
    return split_by_user(default_samples, seed=PipelineConfig().split_seed)


@pytest.fixture(scope="session")
def default_bundle(default_split):
    return train_pipeline(PipelineConfig(), default_split)
