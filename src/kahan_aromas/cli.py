"""Command-line frontend.

JSON on stdout is the machine format (byte-identical for identical seeds);
--format text renders aromatic series the way the densities are usually
written, e.g. "1 - (1/8) h^2 F(C2(;))"; --format latex emits an align*
block of the densities for `darboux solve`, a tabular for `hopf q-table` and
JSON for the other commands.

Exit codes (set in `main` alone): 0 success; 1 verification failure, empty
result where a result was required, or a SolverError; 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import corpus
from .coalgebra import eta, q_row
from .fields import QuadraticVectorField
from .graphs import enumerate_aromas, enumerate_multisets, parse_any, parse_multiset
from .poly import Polynomial
from .rationals import Rat, _cut, format_rat, parse_rat, safe_repr
from .solver import (
    SolverError,
    conjecture_check,
    first_integrals,
    necessary_conditions,
    solve_darboux,
    verify_density,
)

DEFAULT_ORDER_CAP = 6


def _json_int(text: str) -> int:
    """A JSON integer of any length: int() refuses one past the
    interpreter's digit limit, and `parse_rat` reads it in parts."""
    return int(text) if len(text) < 600 else parse_rat(text).numerator


def _unique_keys(pairs) -> dict:
    """A JSON object read from outside; a key given twice is refused, where
    `json` alone would keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {safe_repr(key)}")
        out[key] = value
    return out


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_field(args) -> QuadraticVectorField:
    if args.field and args.system:
        raise ValueError("give exactly one field source (--field or --system)")
    if args.field:
        if args.params is not None:
            raise ValueError("--params needs --system: a field file takes no parameters")
        data = _load_json(args.field)
        if not isinstance(data, dict):
            raise ValueError("malformed field JSON: the top level must be an object")
        try:
            return QuadraticVectorField.from_json(data)
        except ValueError as exc:
            raise ValueError(f"malformed field JSON: {exc}") from exc
    if args.system:
        params = None
        if args.params is not None:
            try:
                params = json.loads(args.params, parse_int=_json_int, object_pairs_hook=_unique_keys)
            except ValueError as exc:
                raise ValueError(f"malformed --params JSON: {exc}") from exc
        return corpus.get_system(args.system, params, seed=args.seed)
    raise ValueError("a field source is required (--field F.json or --system NAME)")


def _check_order(order: int, cap: int):
    if order > cap:
        raise ValueError(f"order {order} exceeds the cap {cap}; pass --order-cap {order} to override")
    if order < 0:
        raise ValueError("order must be nonnegative")


def _jsonable(value):
    """JSON form of a report: dataclass fields in order, tuples as lists,
    rationals as "p/q" strings."""
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Rat):
        return format_rat(value)
    return value


def _emit(args, payload: dict, text_renderer=None, latex_renderer=None) -> None:
    render = {"text": text_renderer, "latex": latex_renderer}.get(args.format)
    print(render(payload) if render else json.dumps(payload, indent=2))


def render_series(gamma) -> str:
    """Human form of a density given by (basis element, gamma coordinate)
    pairs (sigma folded in)."""
    entries = [(el.multiset.order, el.key, Rat(c) / el.multiset.sigma()) for el, c in gamma]
    entries.sort(key=lambda e: e[:2])
    pieces = []
    for order, key, value in entries:
        sign = "-" if value < 0 else "+"
        mag = -value if value < 0 else value
        body = ""
        if order:
            body += f"h^{order} " if order > 1 else "h "
        if key != "1":
            body += f"F({key})"
        if not body:
            term = format_rat(mag)
        elif mag == 1:
            term = body.strip()
        else:
            term = f"({format_rat(mag)}) {body}".strip()
        pieces.append((sign, term))
    if not pieces:
        return "0"
    first_sign, first_term = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in pieces[1:]:
        out += f" {sign} {term}"
    return out


def _polynomial(data, nvars: int, what: str) -> Polynomial:
    """A polynomial over nvars variables from its JSON; a malformed one is
    refused as `malformed <what>: ...`."""
    try:
        return Polynomial.from_json(data, nvars)
    except ValueError as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_aromas_enumerate(args) -> int:
    _check_order(args.order, args.order_cap)
    if args.multisets:
        items = [m.encoding for m in enumerate_multisets(args.order, args.max_indegree)]
        payload = {"order": args.order, "multisets": items}
    else:
        if args.order < 1:
            raise ValueError("aroma enumeration needs order >= 1")
        aromas = enumerate_aromas(args.order)
        if args.max_indegree is not None:
            aromas = [a for a in aromas if a.max_indegree() <= args.max_indegree]
        payload = {"order": args.order, "aromas": [a.encoding for a in aromas]}
    _emit(args, payload, text_renderer=lambda p: "\n".join(p.get("aromas", p.get("multisets"))))
    return 0


def cmd_aromas_sigma(args) -> int:
    try:
        obj = parse_any(args.encoding)
    except ValueError as exc:
        raise ValueError(f"bad encoding: {exc}") from exc
    payload = {"encoding": obj.encoding, "sigma": obj.sigma(), "order": obj.order}
    _emit(args, payload, text_renderer=lambda p: f"sigma({p['encoding']}) = {p['sigma']}")
    return 0


def cmd_field_eval(args) -> int:
    try:
        target = parse_multiset(args.aroma)
    except ValueError as exc:
        raise ValueError(f"bad aroma encoding: {exc}") from exc
    _check_order(target.order, args.order_cap)
    poly = _load_field(args).aroma_function(target)
    payload = {
        "aroma": target.encoding,
        "sigma": target.sigma(),
        "polynomial": poly.to_json(),
        "text": str(poly),
    }
    _emit(args, payload, text_renderer=lambda p: f"F({p['aroma']}) = {p['text']}")
    return 0


def cmd_kahan(args) -> int:
    if args.kahan_cmd == "series":
        _check_order(args.order, args.order_cap)
    kmap = _load_field(args).kahan_map()
    if args.kahan_cmd == "map":
        payload = {
            "numerators": [p.to_json() for p in kmap.numerators],
            "denominator": kmap.den.to_json(),
        }
        _emit(
            args,
            payload,
            text_renderer=lambda p: "\n".join(
                f"Phi_{i+1} = ({num}) / ({kmap.den})" for i, num in enumerate(kmap.numerators)
            ),
        )
    elif args.kahan_cmd == "det":
        dj = kmap.det_jacobian()
        payload = {"num": dj.num.to_json(), "den": dj.den.to_json()}
        _emit(
            args,
            payload,
            text_renderer=lambda p: f"det DPhi = ({dj.num}) / ({dj.den})",
        )
    else:
        coeffs = kmap.series(args.order)
        payload = {
            "order": args.order,
            "coefficients": [[p.to_json() for p in vec] for vec in coeffs],
        }
        _emit(
            args,
            payload,
            text_renderer=lambda p: "\n".join(
                f"h^{k}: (" + ", ".join(map(str, vec)) + ")" for k, vec in enumerate(coeffs)
            ),
        )
    return 0


def cmd_hopf_qtable(args) -> int:
    _check_order(args.order, args.order_cap)
    # a Q row holds no zeros, and its multisets sort in enumeration order
    payload = {
        "order": args.order,
        "rows": [
            {
                "alpha": alpha.encoding,
                "sigma": alpha.sigma(),
                "entries": {beta.encoding: format_rat(v) for beta, v in sorted(q_row(alpha).items())},
            }
            for alpha in enumerate_multisets(args.order)
        ],
    }

    def text(p):
        lines = []
        for row in p["rows"]:
            expr = " + ".join(f"({v}) g[{k}]" for k, v in row["entries"].items()) or "0"
            lines.append(f"<Q(g), {row['alpha']}> = {expr}")
        return "\n".join(lines)

    def latex(p):
        lines = [r"\begin{tabular}{c|c}", r"$\alpha$ & $\langle Q(\gamma),\alpha\rangle$\\ \hline"]
        for row in p["rows"]:
            expr = (
                " + ".join(f"({v})\\gamma[{k}]" for k, v in row["entries"].items()) or "0"
            )
            lines.append(f"  {row['alpha']} & ${expr}$\\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)

    _emit(args, payload, text_renderer=text, latex_renderer=latex)
    return 0


def cmd_hopf_newton(args) -> int:
    _check_order(args.order, args.order_cap)
    if args.dim < 1:
        raise ValueError("--dim must be at least 1")
    rows = []
    for mset in enumerate_multisets(args.order):
        if not mset.is_cycle_product():
            continue
        rows.append(
            {
                "alpha": mset.encoding,
                "sigma": mset.sigma(),
                "u_power": mset.order,
                "eta_over_sigma": format_rat(eta(1, mset) / mset.sigma()),
                "vanishes_beyond_dim": mset.order > args.dim,
            }
        )
    payload = {"order": args.order, "dim": args.dim, "terms": rows}

    def text(p):
        return "\n".join(
            f"h^{r['u_power']} u^{r['u_power']} * ({r['eta_over_sigma']}) F({r['alpha']})"
            + ("   [sums to zero beyond dim]" if r["vanishes_beyond_dim"] else "")
            for r in p["terms"]
        )

    _emit(args, payload, text_renderer=text)
    return 0


def _load_augmenters(path: str, nvars: int):
    """Labelled augmenters, in label order, from a JSON object {label:
    polynomial}, each polynomial a nonzero one over the field's nvars
    variables (x, h, u); `build_basis` checks the labels' text and that no
    polynomial involves h or u."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("augmenter JSON must be an object")
    out = []
    for label, poly_json in sorted(data.items()):
        p = _polynomial(poly_json, nvars, f"augmenter {safe_repr(label)}")
        if p.is_zero():
            raise ValueError(f"augmenter {safe_repr(label)} is the zero polynomial")
        out.append((label, p))
    return out


def solver_report(sol) -> dict:
    elements = {el.key: el for basis in sol.bases.values() for el in basis.elements}
    solutions = []
    for gamma, density, parity in zip(sol.gammas, sol.densities, sol.parities):
        entries = [(elements[k], v) for k, v in sorted(gamma.items())]
        solutions.append(
            {
                "gamma": {el.key: format_rat(v) for el, v in entries if el.label is None},
                "augmenter_coeffs": {el.key: format_rat(v) for el, v in entries if el.label is not None},
                "polynomial": density.to_json(),
                "parity": parity,
                "verified": True,
                "series": render_series(entries),
            }
        )
    integrals = []
    independence = 0
    if len(sol.densities) >= 2:
        try:
            ratios, independence = first_integrals(sol.densities, seed=sol.seed)
            integrals = [
                {"num": r.num.to_json(), "den": r.den.to_json()} for r in ratios
            ]
        except (ValueError, SolverError):
            integrals = []
    conditions = _jsonable(necessary_conditions(sol.field))
    return {
        "field": sol.field.to_json(),
        "order": sol.max_order,
        "parity": sol.parity,
        "seed": sol.seed,
        "method": sol.method,
        "basis": list(elements),
        "dropped": [key for basis in sol.bases.values() for key in basis.dropped],
        "solutions": solutions,
        "first_integrals": integrals,
        "independence_count": independence,
        "conditions": conditions,
    }


def cmd_darboux_solve(args) -> int:
    _check_order(args.order, args.order_cap)
    field = _load_field(args)
    augmenters = _load_augmenters(args.augment, field.nvars) if args.augment else None
    sol = solve_darboux(field, args.order, parity=args.parity, augmenters=augmenters, seed=args.seed)
    payload = solver_report(sol)

    def text(p):
        lines = [f"basis ({len(p['basis'])}): {' '.join(p['basis'])}"]
        if p["dropped"]:
            lines.append(f"dropped: {' '.join(p['dropped'])}")
        if not p["solutions"]:
            lines.append("no densities found at this order")
        for i, s in enumerate(p["solutions"]):
            lines.append(f"g{i+1} ({s['parity']}): {s['series']}")
        lines.append(f"independent integrals: {p['independence_count']}")
        return "\n".join(lines)

    def latex(p):
        lines = [r"\begin{align*}"]
        for i, s in enumerate(p["solutions"]):
            lines.append(f"  g_{{{i+1}}} &= {s['series']} \\\\")
        lines.append(r"\end{align*}")
        return "\n".join(lines)

    _emit(args, payload, text_renderer=text, latex_renderer=latex)
    return 0 if payload["solutions"] else 1


def cmd_darboux_verify(args) -> int:
    field = _load_field(args)
    P = _polynomial(_load_json(args.density), field.nvars, "density JSON")
    result = verify_density(field, P, seed=args.seed)
    payload = {"verified": result.verified}
    if result.witness:
        xs, h, residual = result.witness
        payload["witness"] = {
            "x": [format_rat(v) for v in xs],
            "h": format_rat(h),
            "residual": format_rat(residual),
        }
    _emit(args, payload)
    return 0 if result.verified else 1


def cmd_check_conditions(args) -> int:
    _emit(args, _jsonable(necessary_conditions(_load_field(args))))
    return 0


def cmd_check_conjecture(args) -> int:
    report = conjecture_check(_load_field(args), seed=args.seed)
    _emit(args, _jsonable(report))
    if report.hypothesis_holds and not report.singular and report.density_found is False:
        return 1  # potential counterexample: flagged loudly
    return 0


def cmd_corpus_list(args) -> int:
    payload = {
        "systems": [
            {"name": s.name, "description": s.description, "params": s.schema}
            for s in sorted(corpus.SYSTEMS.values(), key=lambda s: s.name)
        ]
    }
    _emit(
        args,
        payload,
        text_renderer=lambda p: "\n".join(
            f"{s['name']}: {s['description']}" for s in p["systems"]
        ),
    )
    return 0


def cmd_corpus_run(args) -> int:
    checks = corpus.golden_suite(args.name, seed=args.seed)
    payload = {
        "system": args.name,
        "seed": args.seed,
        "checks": _jsonable(checks),
        "passed": all(c.passed for c in checks),
    }
    _emit(
        args,
        payload,
        text_renderer=lambda p: "\n".join(
            f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}" for c in p["checks"]
        )
        + f"\n=> {'all passed' if p['passed'] else 'FAILURES'}",
    )
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------


def _add_field_source(sub):
    sub.add_argument("--field", help="path to a field JSON file")
    sub.add_argument("--system", help="corpus system name")
    sub.add_argument("--params", help="JSON object of system parameters")
    sub.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """A bad argument is an input error like any other: `main` reports it."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="kahan-aromas",
        description="preserved measures and first integrals of Kahan maps in the span of aromatic functions",
    )
    parser.add_argument(
        "--format", choices=["json", "text", "latex"], default="json", help="output format"
    )
    parser.add_argument(
        "--order-cap",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help="hard cap on expansion orders (override to go above 6; costs grow fast)",
    )
    top = parser.add_subparsers(dest="command", required=True)

    aromas = top.add_parser("aromas", help="enumeration and symmetry of aromas")
    asub = aromas.add_subparsers(dest="aromas_cmd", required=True)
    en = asub.add_parser("enumerate")
    en.add_argument("--order", type=int, required=True)
    en.add_argument("--multisets", action="store_true", help="multisets of order <= N")
    en.add_argument("--max-indegree", type=int, default=None)
    en.set_defaults(func=cmd_aromas_enumerate)
    sg = asub.add_parser("sigma")
    sg.add_argument("encoding")
    sg.set_defaults(func=cmd_aromas_sigma)

    fld = top.add_parser("field", help="evaluate aromatic functions of a field")
    fsub = fld.add_subparsers(dest="field_cmd", required=True)
    ev = fsub.add_parser("eval")
    _add_field_source(ev)
    ev.add_argument("--aroma", required=True, help="aroma or multiset encoding")
    ev.set_defaults(func=cmd_field_eval)

    kah = top.add_parser("kahan", help="the Kahan map, its determinant, its series")
    ksub = kah.add_subparsers(dest="kahan_cmd", required=True)
    for name in ("map", "det", "series"):
        sp = ksub.add_parser(name)
        _add_field_source(sp)
        if name == "series":
            sp.add_argument("--order", type=int, default=4)
        sp.set_defaults(func=cmd_kahan)

    hopf = top.add_parser("hopf", help="Q tables and determinant expansions")
    hsub = hopf.add_subparsers(dest="hopf_cmd", required=True)
    qt = hsub.add_parser("q-table")
    qt.add_argument("--order", type=int, default=3)
    qt.set_defaults(func=cmd_hopf_qtable)
    nw = hsub.add_parser("newton")
    nw.add_argument("--order", type=int, required=True)
    nw.add_argument("--dim", type=int, required=True)
    nw.set_defaults(func=cmd_hopf_newton)

    dar = top.add_parser("darboux", help="solve and verify the Darboux equation")
    dsub = dar.add_subparsers(dest="darboux_cmd", required=True)
    so = dsub.add_parser("solve")
    _add_field_source(so)
    so.add_argument("--order", type=int, required=True)
    so.add_argument("--parity", choices=["even", "odd", "both"], default="both")
    so.add_argument("--augment", help="JSON file of labelled augmenter polynomials")
    so.set_defaults(func=cmd_darboux_solve)
    ve = dsub.add_parser("verify")
    _add_field_source(ve)
    ve.add_argument("--density", required=True, help="polynomial JSON file")
    ve.set_defaults(func=cmd_darboux_verify)

    chk = top.add_parser("check", help="necessary conditions and the conjecture")
    csub = chk.add_subparsers(dest="check_cmd", required=True)
    co = csub.add_parser("conditions")
    _add_field_source(co)
    co.set_defaults(func=cmd_check_conditions)
    cj = csub.add_parser("conjecture")
    _add_field_source(cj)
    cj.set_defaults(func=cmd_check_conjecture)

    cor = top.add_parser("corpus", help="built-in example systems")
    corsub = cor.add_subparsers(dest="corpus_cmd", required=True)
    corsub.add_parser("list").set_defaults(func=cmd_corpus_list)
    ru = corsub.add_parser("run")
    ru.add_argument("name")
    ru.add_argument("--seed", type=int, default=0)
    ru.set_defaults(func=cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    """Run one command; a SolverError exits 1 with its message, a ValueError
    (a bad argument too) exits 2 with `input error: <message>`, cut at 200."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SolverError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {_cut(str(exc), 200)}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())
