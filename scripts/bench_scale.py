#!/usr/bin/env python3
"""Layer timings of the Darboux solve on fixed seeded inputs, per source tree.

Example:
    python scripts/bench_scale.py --out BENCH.json parent=../parent change=.

Each TREE is a source checkout, given as PATH or LABEL=PATH; its package is
imported from PATH/src in a fresh interpreter, so every tree runs through
this same script.  Rounds alternate the order of the trees.  Per input and
round it records the median cost of one exact Kahan step as the solver's
checks draw it (`next(_steps(rng, kmap))[1]`, in every tree), of one
exact discovery row of the even sector at such a step, of one
`build_basis(field, order)` (the aromatic functions of every multiset and
the basis selection among them), of one `_solve_sector(field, basis, 0)`
on the even basis (`sector_ms`: the draws, the rows, their nullspace and
every check, the Kahan map included) and of one whole
`solve_darboux(field, order, "both", seed=0)`, each of the last three on
a fresh field, and `draws`, the discovery steps (`_sample_point` calls)
of one such even-sector solve.  It also records `map_ms`, the median cost
of one `KahanMap` of a fresh field, and `defect_ms`, the median cost of one
`darboux_defect_cleared(P)` on a fresh map, P the first density of the
even solve (null when that solve finds none).  Per round it also records
`family_ms`, the median cost of one
`parameter_independent_solve` over three fixed Ishii draws at order 6, even,
on fresh fields.

The JSON names the Python version, the host's CPU count and, per tree, its
coefficient backend and commit (with "+dirty" when its tracked files differ
from that commit), with every round's medians and their median.
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

STEPS = 40  # Kahan steps timed per input and round
ROWS = 40  # discovery rows timed per input and round
BASES = 3  # basis builds timed per input and round
SECTORS = 3  # even-sector solves timed per input and round
SOLVES = 3  # whole solves timed per input and round
MAPS = 3  # Kahan maps timed per input and round
DEFECTS = 3  # cleared defects timed per input and round
FAMILIES = 3  # family solves timed per round


def dense_field(fields):
    """A quadratic field on R^3 with all 30 coefficients nonzero."""
    rng = random.Random(8)
    nonzero = lambda: rng.choice([-2, -1, 1, 2])
    return fields.QuadraticVectorField(
        3,
        {(i, j, k): nonzero() for i in range(3) for j in range(3) for k in range(j, 3)},
        {(i, j): nonzero() for i in range(3) for j in range(3)},
        {i: nonzero() for i in range(3)},
    )


# name -> (field builder taking the package, order)
INPUTS = {
    "dense3_order4": (lambda pkg: dense_field(pkg.fields), 4),
    "nambu_inhomogeneous_order6": (lambda pkg: pkg.corpus.get_system("nambu_inhomogeneous", seed=0), 6),
    "ishii_order6": (lambda pkg: pkg.corpus.get_system("ishii", seed=0), 6),
}


def _timed(fn) -> float:
    """Milliseconds of one call of fn."""
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _discovery_draws(pkg, field, order: int) -> int:
    """The `_sample_point` calls of one even-sector solve of the field."""
    solver = pkg.solver
    sample_point, calls = solver._sample_point, []

    def counted(*args):
        calls.append(None)
        return sample_point(*args)

    solver._sample_point = counted
    try:
        solver._solve_sector(field, solver.build_basis(field, order, None, "even"), 0)
    finally:
        solver._sample_point = sample_point
    return len(calls)


def measure_input(pkg, build, order: int) -> dict:
    solver = pkg.solver
    field = build(pkg)
    kmap = field.kahan_map()
    rng = random.Random(0)
    step = lambda: next(solver._steps(rng, kmap))[1]
    step_ms = statistics.median(_timed(step) for _ in range(STEPS))

    basis = solver.build_basis(field, order, None, "even")
    items = [(el.poly, el.multiset.order, el.multiset.sigma()) for el in basis.elements]
    weighted = solver._weighted_polys(field, items)
    batch = pkg.poly.PolynomialBatch(weighted)
    # fresh steps, as the solver takes its rows
    steps = [step() for _ in range(ROWS)]
    row_ms = statistics.median(_timed(lambda: solver._sample_row(batch, s)) for s in steps)

    basis_ms = statistics.median(
        _timed(lambda f=build(pkg): solver.build_basis(f, order)) for _ in range(BASES)
    )
    sectors = []
    for _ in range(SECTORS):
        fresh = build(pkg)
        even = solver.build_basis(fresh, order, None, "even")
        sectors.append(_timed(lambda: solver._solve_sector(fresh, even, 0)))
    sector_ms = statistics.median(sectors)
    draws = _discovery_draws(pkg, build(pkg), order)
    solve_ms = statistics.median(
        _timed(lambda f=build(pkg): solver.solve_darboux(f, order, parity="both", seed=0))
        for _ in range(SOLVES)
    )
    map_ms = statistics.median(
        _timed(lambda f=build(pkg): pkg.fields.KahanMap(f)) for _ in range(MAPS)
    )
    densities = solver.solve_darboux(field, order, parity="even", seed=0).densities
    defect_ms = None
    if densities:
        defect_ms = statistics.median(
            _timed(lambda k=pkg.fields.KahanMap(field): k.darboux_defect_cleared(densities[0]))
            for _ in range(DEFECTS)
        )
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
    return statistics.median(
        _timed(lambda fields=[pkg.corpus.ishii(**p) for p in draws]: solve(fields))
        for _ in range(FAMILIES)
    )


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
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
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
        backend = tree["rounds"][0]["backend"]
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
                "backend": backend,
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
