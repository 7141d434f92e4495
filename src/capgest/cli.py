"""Command line interface.

Subcommands: synth, train, eval, cv, bench, predict, inspect.
Exit codes: 0 success (also when the reader closes stdout early), 1 usage
error, 2 data error (an unreadable or malformed input file, a dataset
directory without ``calibration.csv``, a recording without its marks file,
or an output path that cannot be written), 3 budget violation.  A command
returns nothing or raises a CapgestError; :func:`main` alone turns that
into an exit code and one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .config import PipelineConfig, format_config, load_config
from .corrector import audit_records, feature_rows, format_audit
from .errors import BudgetError, CapgestError, FileFormatError
from .pipeline import (
    bench_latency,
    cross_validate,
    evaluate,
    load_bundle,
    save_bundle,
    train_pipeline,
)
from .signals import (
    N_FEATURES,
    PARTITION_NAMES,
    GestureLabel,
    assemble_sliding,
    feature_matrix,
    split_by_user,
)
from .synth import GenConfig, gen_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """An argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget(text: str) -> float:
    """An argparse type: a finite float > 0 (``p95 >= nan`` never fails)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _load_samples(data_dir: Path):
    return assemble_sliding(*dataio.read_dataset(data_dir))


def _config_from_args(args) -> PipelineConfig:
    return load_config(Path(args.config)) if args.config else PipelineConfig()


def cmd_synth(args) -> None:
    gen = GenConfig(
        n_users=args.users,
        gestures_per_user_per_class=args.per_class,
        seed=args.seed,
    )
    recordings, calib = gen_dataset(gen)
    out = Path(args.out)
    dataio.write_dataset(out, recordings, calib)
    print(f"wrote {len(recordings)} recordings for {gen.n_users} users to {out}")


def cmd_train(args) -> None:
    config = _config_from_args(args)
    samples = _load_samples(Path(args.data))
    split = split_by_user(
        samples,
        user_counts=config.user_counts,
        seed=config.split_seed,
        pinned_hold=config.pinned_hold,
    )
    bundle = train_pipeline(config, split)
    size = save_bundle(bundle, Path(args.out))
    print(
        f"trained bundle: {len(bundle.discovered_group_ids)} error groups, "
        f"{len(bundle.correctors)} correctors, {size} bytes -> {args.out}"
    )


def cmd_eval(args) -> None:
    bundle = load_bundle(Path(args.bundle))
    samples = _load_samples(Path(args.data))
    split = split_by_user(
        samples,
        user_counts=bundle.config.user_counts,
        seed=bundle.config.split_seed,
        pinned_hold=bundle.config.pinned_hold,
    )
    report = evaluate(bundle, split.partition(args.split))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"split: {args.split}")
        print(report.format_text(), end="")


def cmd_cv(args) -> None:
    config = _config_from_args(args)
    samples = _load_samples(Path(args.data))
    summary = cross_validate(config, samples, n_combos=args.combos)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"combos: {summary['n_combos']}  pinned hold: {summary['pinned_hold']}")
        for name, paths in summary["splits"].items():
            for path, stats in paths.items():
                print(
                    f"{name:>10} {path:>9}: mean {stats['mean']:.4f} "
                    f"std {stats['std']:.4f} min {stats['min']:.4f} max {stats['max']:.4f}"
                )


def cmd_bench(args) -> None:
    bundle = load_bundle(Path(args.bundle))
    samples = _load_samples(Path(args.data))
    stats = bench_latency(bundle, feature_matrix(samples))
    for key, value in stats.items():
        print(f"{key}: {value}")
    if stats.get("n_timed", 0) and stats["p95_ms"] >= args.budget_ms:
        raise BudgetError(f"p95 {stats['p95_ms']:.3f} ms >= {args.budget_ms} ms")


def cmd_predict(args) -> None:
    bundle = load_bundle(Path(args.bundle))
    if args.features:
        path = Path(args.features)
        rows, numbers = [], []  # each row's values and its line in the file
        for number, line in enumerate(dataio.read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values = [float(p) for p in line.split(",")]
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {number}: feature values must be numbers"
                ) from None
            if len(values) != N_FEATURES:
                raise FileFormatError(
                    f"{path}: line {number}: expected {N_FEATURES} features, got {len(values)}"
                )
            rows.append(values)
            numbers.append(number)
        # (0, N_FEATURES) when every line is a comment or blank
        features = np.array(rows, dtype=float).reshape(len(rows), N_FEATURES)
        preds = bundle.predict_batch(
            feature_rows(features, N_FEATURES, where=lambda row: f"{path}: line {numbers[row]}")
        )
    else:
        samples = _load_samples(Path(args.recordings))
        preds = bundle.predict_batch(feature_matrix(samples))
    for p in preds:
        print(GestureLabel(int(p)).text)


def cmd_inspect(args) -> None:
    bundle = load_bundle(Path(args.bundle))
    records = audit_records(bundle.correctors)
    if args.json:
        print(json.dumps(records, sort_keys=True))
    else:
        print(format_audit(records), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capgest",
        description="Capacitive-sensor gesture recognition with an adaptive "
        "error-corrector cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--users", type=_count, default=15, help="number of users (default 15)")
    p.add_argument(
        "--per-class", type=_count, default=70,
        help="gesture recordings per user per class (default 70)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(func=cmd_synth)

    def add_common(p, bundle=False):
        p.add_argument("--data", required=True, help="dataset directory")
        if bundle:
            p.add_argument("--bundle", required=True, help="bundle file")

    p = sub.add_parser("train", help="train a model bundle")
    add_common(p)
    p.add_argument("--out", required=True, help="output bundle path")
    p.add_argument("--config", help="key-value config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a bundle on a dataset split")
    add_common(p, bundle=True)
    p.add_argument(
        "--split", choices=PARTITION_NAMES, default="test",
        help="partition to evaluate (default test)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="user-grouped cross-validation")
    add_common(p)
    p.add_argument("--combos", type=_count, default=10, help="number of splits (default 10)")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser(
        "bench", help="single-sample latency benchmark, timing every window once"
    )
    add_common(p, bundle=True)
    p.add_argument(
        "--budget-ms", type=_budget, default=1.0,
        help="p95 latency budget in ms; exceeding it exits 3 (default 1.0)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("predict", help="emit one label per input sample")
    p.add_argument("--bundle", required=True, help="bundle file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--features", help="text file, 100 comma-separated values in [0, 1] per line")
    src.add_argument("--recordings", help="dataset directory of raw recordings")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="dump the corrector audit report")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("show-config", help="print the default config file")
    p.set_defaults(func=lambda args: print(format_config(PipelineConfig()), end=""))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped reading (``capgest predict ... | head``): that
        # is not a failure; stdout goes to devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except BudgetError as exc:
        print(f"budget violation: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CapgestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
