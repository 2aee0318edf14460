"""The four workloads: seeded inputs, the operations timed, and their checks.

A workload's `build(seed, workdir)` draws its inputs, writes the files the
command line reads, and returns the operations of one round.  An operation
calls the program through its public entry points and returns what a user
would see; its check decides, by exact arithmetic in `exact`, whether that
output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import exact
import inputs

POINTS = 2  # rational points of the Kahan-step check per density

# inputs per round
NAMBU_HOMOGENEOUS_DRAWS = 6
SEARCH_PAIRS = 2
ISHII_INSTANCES = 3


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def cli(argv: list[str]) -> tuple[int, str]:
    """`kahan_aromas.cli.main` in-process; returns the exit code and stdout."""
    from kahan_aromas import cli as program_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = program_cli.main(argv)
    return code, out.getvalue()


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _h_squared() -> dict:
    h = exact.var(inputs.NV3, inputs.H)
    return exact.mul(h, h)


def _solutions_pass(field: exact.Field, payload: dict, rng) -> bool:
    """Every reported density is marked verified and passes the Kahan step."""
    points = exact.sample_points(rng, field.dim, POINTS)
    return all(
        s["verified"] and exact.passes_pointwise(field, exact.poly_from_json(s["polynomial"]), points)
        for s in payload["solutions"]
    )


# -- nambu6_solve ---------------------------------------------------------------


def nambu6_solve(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    field_data = inputs.nambu_inhomogeneous(rng)
    field = exact.Field(field_data)
    path = _write(workdir / "nambu.json", field_data)
    solver_seed = rng.randrange(10**6)
    argv = ["darboux", "solve", "--field", path, "--order", "6", "--parity", "even", "--seed", str(solver_seed)]
    # the span holds a density with h^0 layer 1 and h^2 layer -(1/12) tr(f'^2)
    target = exact.add(
        exact.const(inputs.NV3, 1),
        exact.scale(exact.mul(_h_squared(), field.trace_jacobian_squared()), Fraction(-1, 12)),
    )

    def check(result) -> bool:
        code, out = result
        payload = json.loads(out)
        if code != 0 or not payload["solutions"]:
            return False
        layers = [
            exact.add(exact.h_layer(p, 0, inputs.H), exact.h_layer(p, 2, inputs.H))
            for p in (exact.poly_from_json(s["polynomial"]) for s in payload["solutions"])
        ]
        return exact.in_span(layers, target) and _solutions_pass(field, payload, random.Random(seed))

    return [Operation("solve nambu_inhomogeneous", lambda: cli(argv), check)]


# -- verify_closed_forms --------------------------------------------------------


def _perturbation() -> dict:
    """h^2 x1^2, which no closed form here absorbs."""
    x1 = exact.var(inputs.NV3, 0)
    return exact.mul(_h_squared(), exact.mul(x1, x1))


def _verify_pair(name: str, field_data: dict, density: dict, workdir: Path, rng) -> list[Operation]:
    """Verify a closed-form density (accepted) and it plus h^2 x1^2 (rejected)."""
    field = exact.Field(field_data)
    field_path = _write(workdir / f"{name}.field.json", field_data)
    points = exact.sample_points(rng, field.dim, POINTS)
    ops = []
    for kind, poly in (("true", density), ("perturbed", exact.add(density, _perturbation()))):
        density_path = _write(workdir / f"{name}.{kind}.json", exact.poly_to_json(poly))
        argv = ["darboux", "verify", "--field", field_path, "--density", density_path, "--seed", str(rng.randrange(10**6))]

        def check(result, poly=poly, kind=kind) -> bool:
            code, out = result
            payload = json.loads(out)
            if kind == "true":
                return code == 0 and payload == {"verified": True} and exact.passes_pointwise(field, poly, points)
            witness = payload.get("witness")
            if code != 1 or payload.get("verified") is not False or witness is None:
                return False
            expected = exact.residual(field, poly, [Fraction(v) for v in witness["x"]], Fraction(witness["h"]))
            return expected != 0 and Fraction(witness["residual"]) == expected

        ops.append(Operation(f"verify {name} {kind}", lambda argv=argv: cli(argv), check))
    return ops


def verify_closed_forms(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for i in range(NAMBU_HOMOGENEOUS_DRAWS):
        field_data = inputs.nambu_homogeneous(rng)
        c2 = exact.Field(field_data).trace_jacobian_squared()
        layer = exact.add(exact.const(inputs.NV3, 1), exact.scale(exact.mul(_h_squared(), c2), Fraction(-1, 24)))
        ops += _verify_pair(f"nambu_homogeneous{i}", field_data, exact.mul(layer, layer), workdir, rng)
    params = inputs.ishii_params(rng)
    ops += _verify_pair("ishii", inputs.ishii(params), inputs.ishii_g2(params), workdir, rng)
    field_data = inputs.lv_divfree()
    c2 = exact.Field(field_data).trace_jacobian_squared()
    density = exact.add(exact.const(inputs.NV3, 1), exact.scale(exact.mul(_h_squared(), c2), Fraction(-1, 8)))
    ops += _verify_pair("lv_divfree", field_data, density, workdir, rng)
    return ops


# -- search_random --------------------------------------------------------------


def search_random(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for i in range(SEARCH_PAIRS):
        original = inputs.random_dense(rng)
        pulled = inputs.pullback(original, inputs.unimodular(rng), [rng.randint(-2, 2) for _ in range(3)])
        solver_seed = str(rng.randrange(10**6))
        argvs = [
            ["darboux", "solve", "--field", _write(workdir / f"random{i}.{tag}.json", data), "--order", "4", "--parity", "both", "--seed", solver_seed]
            for tag, data in (("f", original), ("pullback", pulled))
        ]

        def check(result, fields=(exact.Field(original), exact.Field(pulled))) -> bool:
            payloads = []
            for field, (code, out) in zip(fields, result):
                payload = json.loads(out)
                if code != (0 if payload["solutions"] else 1) or not _solutions_pass(field, payload, random.Random(seed)):
                    return False
                payloads.append(payload)
            # affine equivariance: the same independent aromas and gamma-space
            f, g = payloads
            return (
                f["basis"] == g["basis"]
                and f["dropped"] == g["dropped"]
                and exact.gamma_space([s["gamma"] for s in f["solutions"]])
                == exact.gamma_space([s["gamma"] for s in g["solutions"]])
            )

        ops.append(Operation(f"solve random{i} and its pullback", lambda argvs=argvs: [cli(a) for a in argvs], check))
    return ops


# -- family_ishii6 --------------------------------------------------------------


def family_ishii6(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    params = [inputs.ishii_params(rng) for _ in range(ISHII_INSTANCES)]
    field_data = [inputs.ishii(p) for p in params]
    fields = [exact.Field(d) for d in field_data]
    targets = [inputs.ishii_g2(p) for p in params]
    solver_seed = rng.randrange(10**6)

    def run():
        from kahan_aromas import solver
        from kahan_aromas.fields import QuadraticVectorField

        family = [QuadraticVectorField.from_json(d) for d in field_data]
        return solver.parameter_independent_solve(family, ISHII_INSTANCES, 6, parity="even", seed=solver_seed)

    def check(result) -> bool:
        if not result.verified or not result.representatives:
            return False
        points = exact.sample_points(random.Random(seed), 3, POINTS)
        for i, (field, target) in enumerate(zip(fields, targets)):
            densities = [exact.poly_from_json(per_instance[i].to_json()) for per_instance in result.densities]
            if not all(exact.passes_pointwise(field, p, points) for p in densities):
                return False
            if not exact.in_span(densities, target):
                return False
        return True

    return [Operation("parameter_independent_solve ishii", run, check)]


@dataclass
class Workload:
    build: Callable[[int, Path], list[Operation]]
    round_s: float  # a round's wall time on the reference host; sets the round count


WORKLOADS = {
    "nambu6_solve": Workload(nambu6_solve, 15.0),
    "verify_closed_forms": Workload(verify_closed_forms, 5.0),
    "search_random": Workload(search_random, 8.0),
    "family_ishii6": Workload(family_ishii6, 9.0),
}
