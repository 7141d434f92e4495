"""Compare two saved outputs of ``run.py`` for the same workload::

    python3 perfbench/run.py --workload batch_eval --seed 1 > before.txt
    ...
    python3 perfbench/compare.py before.txt after.txt

Results from different neighbor backends, workloads or kinds of run measure
different things, so comparing them is an error (exit code 2), not a diff.
"""

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f if line.startswith("{")]
    report = next(line["report"] for line in lines if "report" in line)
    return report, lines[-1]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    (ra, a), (rb, b) = load(argv[0]), load(argv[1])
    for what, va, vb in (
        ("neighbor backend", ra["environment"]["backend"], rb["environment"]["backend"]),
        ("workload", ra["workload"], rb["workload"]),
        ("metric set", sorted(a["metrics"]), sorted(b["metrics"])),
    ):
        if va != vb:
            print(f"error: {what} differs: {va} vs {vb}", file=sys.stderr)
            return 2
    print(f"{'metric':44} {'before':>14} {'after':>14} {'after/before':>12}")
    for name, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:12.4f}" if va else f"{'-':>12}"
        print(f"{name:44} {va:14.6g} {vb:14.6g} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
