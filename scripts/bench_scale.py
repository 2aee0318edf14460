#!/usr/bin/env python3
"""Layer timings of the Darboux solve on fixed seeded inputs, per source tree.

Example:
    python scripts/bench_scale.py --out BENCH.json parent=../parent change=.

Each TREE is a source checkout, given as PATH or LABEL=PATH; its package is
imported from PATH/src in a fresh interpreter, so every tree runs through
this same script.  Rounds alternate the order of the trees.  Every timing
is the median of N calls, each on a fresh argument built untimed.  Per
input and round: `step_ms`, one exact Kahan step as the solver's checks
draw it (`next(_steps(rng, kmap))[1]`, N = 40); `row_ms`, one exact
discovery row of the even sector at such a step (40); `basis_ms`, one
`build_basis(field, order)` (3); `sector_ms`, one `_solve_sector(field,
basis, 0)` on the even basis, its draws, rows, nullspace and checks and
the Kahan map (3); `draws`, the `_sample_point` calls of one such solve;
`solve_ms`, one `solve_darboux(field, order, "both", seed=0)` (3);
`map_ms`, one `KahanMap` (3); and `defect_ms`, one
`darboux_defect_cleared(P)` on a fresh map, P the first density of the
even solve, or null when it finds none (3).  Per round, `family_ms` is
one `parameter_independent_solve` over three fixed Ishii draws at order 6,
even (3).

The JSON names the Python version, the host's CPU count and, per tree, its
coefficient backend and commit (with "+dirty" when its tracked files differ
from that commit, null when the tree is not its own checkout or worktree),
with every round's medians and their median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock


def dense_field(fields):
    """A quadratic field on R^3 with all 30 coefficients nonzero."""
    rng = random.Random(8)
    nonzero = lambda: rng.choice([-2, -1, 1, 2])
    r = range(1, 4)
    return fields.QuadraticVectorField.from_json({
        "dim": 3,
        "quadratic": [[i, j, k, nonzero()] for i in r for j in r for k in range(j, 4)],
        "linear": [[i, j, nonzero()] for i in r for j in r],
        "constant": [[i, nonzero()] for i in r],
    })


# name -> (field builder taking the package, order)
INPUTS = {
    "dense3_order4": (lambda pkg: dense_field(pkg.fields), 4),
    "nambu_inhomogeneous_order6": (lambda pkg: pkg.corpus.get_system("nambu_inhomogeneous", seed=0), 6),
    "ishii_order6": (lambda pkg: pkg.corpus.get_system("ishii", seed=0), 6),
}


def _median_ms(count: int, run, fresh=lambda: None) -> float:
    """Median milliseconds of `count` calls of run(fresh()); fresh() is not timed."""
    times = []
    for _ in range(count):
        arg = fresh()
        start = time.perf_counter()
        run(arg)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _discovery_draws(pkg, field, order: int) -> int:
    """The `_sample_point` calls of one even-sector solve of the field."""
    solver = pkg.solver
    with mock.patch.object(solver, "_sample_point", wraps=solver._sample_point) as counted:
        solver._solve_sector(field, solver.build_basis(field, order, None, "even"), 0)
    return counted.call_count


def measure_input(pkg, build, order: int) -> dict:
    solver = pkg.solver
    field = build(pkg)
    kmap = field.kahan_map()
    rng = random.Random(0)
    step = lambda: next(solver._steps(rng, kmap))[1]
    step_ms = _median_ms(40, lambda _: step())

    basis = solver.build_basis(field, order, None, "even")
    items = [(el.poly, el.multiset.order, el.multiset.sigma()) for el in basis.elements]
    weighted = solver._weighted_polys(field, items)
    batch = pkg.poly.PolynomialBatch(weighted)
    # each row at a fresh step, as the solver takes its rows
    row_ms = _median_ms(40, lambda s: solver._sample_row(batch, s), step)

    fresh = lambda: build(pkg)
    basis_ms = _median_ms(3, lambda f: solver.build_basis(f, order), fresh)
    even = lambda: (f := build(pkg), solver.build_basis(f, order, None, "even"))
    sector_ms = _median_ms(3, lambda fb: solver._solve_sector(*fb, 0), even)
    draws = _discovery_draws(pkg, build(pkg), order)
    solve_ms = _median_ms(3, lambda f: solver.solve_darboux(f, order, parity="both", seed=0), fresh)
    map_ms = _median_ms(3, pkg.fields.KahanMap, fresh)
    densities = solver.solve_darboux(field, order, parity="even", seed=0).densities
    defect = lambda k: k.darboux_defect_cleared(densities[0])
    defect_ms = _median_ms(3, defect, lambda: pkg.fields.KahanMap(field)) if densities else None
    return {
        "order": order,
        "even_basis": len(weighted),
        "even_terms": sum(len(w.terms) for w in weighted),
        "even_monomials": len({k for w in weighted for k in w.terms}),
        "step_ms": step_ms,
        "row_ms": row_ms,
        "basis_ms": basis_ms,
        "sector_ms": sector_ms,
        "draws": draws,
        "solve_ms": solve_ms,
        "map_ms": map_ms,
        "defect_ms": defect_ms,
    }


def measure_family(pkg) -> float:
    draws = [pkg.corpus.random_ishii_params(random.Random(s))[0] for s in range(3)]
    solve = lambda fields: pkg.solver.parameter_independent_solve(fields, 3, 6, parity="even", seed=0)
    return _median_ms(3, solve, lambda: [pkg.corpus.ishii(**p) for p in draws])


def worker(src: str) -> None:
    """Measure the package under src; print one JSON object."""
    sys.path.insert(0, src)
    import kahan_aromas.corpus
    import kahan_aromas.fields
    import kahan_aromas.poly
    import kahan_aromas.rationals
    import kahan_aromas.solver

    pkg = kahan_aromas
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"kahan_aromas was imported from {pkg.__file__}, not from {src}")
    out = {name: measure_input(pkg, build, order) for name, (build, order) in INPUTS.items()}
    family_ms = measure_family(pkg)
    print(json.dumps({"backend": pkg.rationals.Rat.__name__, "inputs": out, "family_ms": family_ms}))


def commit_of(path: Path) -> str | None:
    """The commit checked out at path, with "+dirty" when its tracked files
    differ from it; None unless path is the top of a checkout or worktree."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != path.resolve():
            return None
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="PATH or LABEL=PATH of a source checkout")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not args.trees or not args.out:
        parser.error("give --out and at least one TREE")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = []
    for spec in args.trees:
        label, _, path = spec.rpartition("=")
        path = Path(path).resolve()
        if not (path / "src" / "kahan_aromas").is_dir():
            parser.error(f"{path} holds no src/kahan_aromas")
        trees.append({"label": label or path.name, "commit": commit_of(path), "src": path / "src", "rounds": []})
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", str(tree["src"])],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            tree["rounds"].append(json.loads(done.stdout))

    report = {
        "script": "scripts/bench_scale.py",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rounds": args.rounds,
        "trees": [],
    }
    for tree in trees:
        runs = [run["inputs"] for run in tree["rounds"]]
        # the sizes are the same in every round; the timings take their median
        median = {
            name: {
                key: statistics.median(run[name][key] for run in runs)
                if key.endswith("_ms") and value is not None
                else value
                for key, value in sizes.items()
            }
            for name, sizes in runs[0].items()
        }
        report["trees"].append(
            {
                "label": tree["label"],
                "commit": tree["commit"],
                "backend": tree["rounds"][0]["backend"],
                "median": median,
                "rounds": runs,
                "family_ms": statistics.median(run["family_ms"] for run in tree["rounds"]),
                "family_ms_rounds": [run["family_ms"] for run in tree["rounds"]],
            }
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
