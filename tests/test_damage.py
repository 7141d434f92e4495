"""Damage gate: what the cascade fixes and breaks on users it never saw.

The default config is trained on the small corpus over split seeds 0-9.
On the test and hold partitions a label is *fixed* where the corrected
label differs from the base label and is right, and *broken* where it
differs and the base label was right.  Each seed's counts go to the
terminal summary.  The bounds are the totals the cascade read when this
gate was added, so a change that breaks more or fixes less on held-out
users fails here even where criteria 3 and 4 still pass.
"""

from capgest.config import PipelineConfig
from capgest.pipeline import train_pipeline
from capgest.signals import feature_matrix, label_array, split_by_user

SEEDS = range(10)
MAX_BROKE = 384
MIN_FIXED = 1_367


def fixed_and_broke(bundle, samples) -> tuple[int, int]:
    X, y = feature_matrix(samples), label_array(samples)
    base_ok = bundle.predict_base_batch(X) == y
    corrected_ok = bundle.predict_batch(X) == y
    return int((corrected_ok & ~base_ok).sum()), int((base_ok & ~corrected_ok).sum())


def test_damage_on_test_and_hold_small_corpus(summary_line, small_samples):
    config = PipelineConfig()
    fixed = broke = 0
    for seed in SEEDS:
        split = split_by_user(
            small_samples, config.user_counts, seed=seed, pinned_hold=config.pinned_hold
        )
        bundle = train_pipeline(config, split)
        counts = {name: fixed_and_broke(bundle, split.partition(name)) for name in ("test", "hold")}
        fixed += sum(f for f, _ in counts.values())
        broke += sum(b for _, b in counts.values())
        summary_line(
            f"damage, split seed {seed}: "
            + ", ".join(f"{name} fixed {f} broke {b}" for name, (f, b) in counts.items())
        )
    ok = broke <= MAX_BROKE and fixed >= MIN_FIXED
    summary_line(
        f"[{'PASS' if ok else 'FAIL'}] damage gate: small corpus, split seeds 0-9, "
        f"test+hold fixed {fixed} >= {MIN_FIXED}, broke {broke} <= {MAX_BROKE}"
    )
    assert ok, f"fixed {fixed} (>= {MIN_FIXED}), broke {broke} (<= {MAX_BROKE})"
