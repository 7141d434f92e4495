"""One cold start, timed from inside a fresh interpreter.

Times ``import capgest`` (and its CLI module), plus, when a bundle is given,
``load_bundle`` and one untimed-by-the-workload prediction, then prints the
seconds taken::

    python3 perfbench/coldstart.py [--bundle <file>]
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> int:
    import capgest
    import capgest.cli  # noqa: F401

    if len(argv) == 2 and argv[0] == "--bundle":
        import numpy as np

        bundle = capgest.load_bundle(argv[1])
        bundle.predict(np.full(100, 0.5))
    elif argv:
        print("usage: coldstart.py [--bundle <file>]", file=sys.stderr)
        return 1
    print(repr(time.perf_counter() - _start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
