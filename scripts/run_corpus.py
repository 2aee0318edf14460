#!/usr/bin/env python3
"""Run every golden suite in the corpus and report timings.

The checks go to stdout, byte-identical between runs; each suite's wall
time goes to stderr."""

import argparse
import sys
import time

from kahan_aromas.corpus import SYSTEMS, golden_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("names", nargs="*", help="subset of suites (default: all)")
    args = parser.parse_args()
    names = args.names or sorted(SYSTEMS)
    failures = 0
    for name in names:
        t0 = time.time()
        try:  # an unknown name is an input error, exit 2
            checks = golden_suite(name, seed=args.seed)
        except ValueError as exc:
            parser.exit(2, f"input error: {exc}\n")
        dt = time.time() - t0
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {name}: {c.name}")
            failures += not c.passed
        print(f"       ({name}: {dt:.1f}s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
