#!/usr/bin/env python3
"""End-to-end measure discovery for a field given as JSON (or a corpus name).

Example:
    python scripts/discover_measures.py --system lv_divfree --order 4
    python scripts/discover_measures.py --field myfield.json --order 6 --parity even
"""

import argparse
import sys

from kahan_aromas.cli import _load_field, solver_report
from kahan_aromas.solver import solve_darboux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", help="field JSON file")
    parser.add_argument("--system", help="corpus system name")
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--parity", default="both", choices=["even", "odd", "both"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:  # the CLI's reader: a malformed source is an input error, exit 2
        field = _load_field(argparse.Namespace(params=None, **vars(args)))
    except ValueError as exc:
        parser.exit(2, f"input error: {exc}\n")

    sol = solve_darboux(field, args.order, parity=args.parity, seed=args.seed)
    report = solver_report(sol)
    print(f"basis size: {len(report['basis'])}  dropped: {len(report['dropped'])}")
    if not sol.densities:
        print("no aromatic Darboux densities at this order")
        return 1
    for i, s in enumerate(report["solutions"]):
        print(f"g{i+1} ({s['parity']}): {s['series']}")
    if len(sol.densities) >= 2:
        ratios, count = report["first_integrals"], report["independence_count"]
        print(f"first integrals: {len(ratios)} ratios, {count} independent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
