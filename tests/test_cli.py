"""CLI behavior: schemas, determinism, exit codes, round trips."""

import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import random
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kahan_aromas.cli as cli_mod
import kahan_aromas.corpus as corpus_mod
import kahan_aromas.fields as fields_mod
import kahan_aromas.solver as solver_mod
from kahan_aromas.cli import main, render_series
from kahan_aromas.corpus import SYSTEMS, get_system, ishii_invariants, lv_divfree
from kahan_aromas.graphs import TWO_CYCLE, enumerate_aromas, parse_multiset
from kahan_aromas.poly import Polynomial, pack_exponents
from kahan_aromas.rationals import Rat, format_rat
from kahan_aromas.solver import BasisElement, verify_density


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_aromas_enumerate(capsys):
    code, out, _ = run_cli(capsys, "aromas", "enumerate", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["aromas"] == ["C1([[]])", "C1([][])", "C2(;[])", "C3(;;)"]
    code, out, _ = run_cli(capsys, "aromas", "enumerate", "--order", "3", "--max-indegree", "1")
    assert code == 0
    assert json.loads(out)["aromas"] == ["C3(;;)"]


def test_aromas_enumerate_multisets(capsys):
    code, out, _ = run_cli(
        capsys, "aromas", "enumerate", "--order", "2", "--multisets"
    )
    assert json.loads(out)["multisets"] == [
        "1",
        "C1()",
        "C1()*C1()",
        "C1([])",
        "C2(;)",
    ]
    assert code == 0


def test_aromas_sigma(capsys):
    code, out, _ = run_cli(capsys, "aromas", "sigma", "C3(;;)")
    assert code == 0 and json.loads(out)["sigma"] == 3
    code, _, err = run_cli(capsys, "aromas", "sigma", "C2(")
    assert code == 2 and "input error" in err
    code, out, _ = run_cli(capsys, "aromas", "sigma", "[][]")  # a forest of two leaves
    assert code == 0 and json.loads(out) == {"encoding": "[][]", "sigma": 2, "order": 2}


def test_aromas_sigma_of_a_deep_tree(capsys):
    code, out, err = run_cli(capsys, "aromas", "sigma", _DEEP_TREE)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["sigma"], payload["order"]) == (1, 1500)


def test_field_eval_of_a_wide_aroma_is_zero(capsys):
    # 1500 leaves on one cycle vertex: a partial of order 1501 of a quadratic field
    wide = "C1(" + "[]" * 1500 + ")"
    code, out, err = run_cli(capsys, "--order-cap", "2000", "field", "eval", "--system", "lv", "--aroma", wide)
    assert code == 0 and err == ""
    assert json.loads(out)["polynomial"] == []


def test_field_eval_of_a_deep_aroma_exits_two(capsys):
    # the tall tree's vector passes degree 1023 in x2 long before its root
    deep = f"C1({_DEEP_TREE})"
    code, out, err = run_cli(capsys, "--order-cap", "2000", "field", "eval", "--system", "lv", "--aroma", deep)
    assert code == 2 and out == ""
    assert err == "input error: degree 1024 in x2 exceeds the packable 1023\n"


def test_field_eval_of_a_long_bare_cycle_exits_two(capsys):
    # tr(J^1100): each cycle vertex adds degree 1 in x1, checked before multiplying
    cycle = "C1100(" + ";" * 1099 + ")"
    code, out, err = run_cli(capsys, "--order-cap", "2000", "field", "eval", "--system", "lv", "--aroma", cycle)
    assert code == 2 and out == ""
    assert err == "input error: degree 1100 in x1 exceeds the packable 1023\n"
    # one vertex fed by two leaves and the cycle edge: a zero matrix, so a zero trace
    cycle = "C1100([][]" + ";" * 1099 + ")"
    code, out, err = run_cli(capsys, "--order-cap", "2000", "field", "eval", "--system", "lv", "--aroma", cycle)
    assert code == 0 and err == ""
    assert json.loads(out)["polynomial"] == []


def test_field_eval_and_q_table(capsys, tmp_path):
    field_file = tmp_path / "lv.json"
    field_file.write_text(json.dumps(lv_divfree().to_json()))
    code, out, _ = run_cli(
        capsys, "field", "eval", "--field", str(field_file), "--aroma", "C1()"
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == []  # divergence-free

    code, out, _ = run_cli(capsys, "hopf", "q-table", "--order", "3")
    rows = {r["alpha"]: r["entries"] for r in json.loads(out)["rows"]}
    assert rows["C2(;[])"] == {"1": "1/4", "C2(;)": "1"}
    assert rows["C1()"] == {"1": "-1"}


def test_hopf_newton(capsys):
    code, out, _ = run_cli(capsys, "hopf", "newton", "--order", "3", "--dim", "2")
    assert code == 0
    terms = {t["alpha"]: t for t in json.loads(out)["terms"]}
    assert terms["C2(;)"]["eta_over_sigma"] == "-1/2"
    assert terms["C1()*C1()"]["eta_over_sigma"] == "1/2"
    assert terms["C3(;;)"]["vanishes_beyond_dim"] is True
    code, out, _ = run_cli(capsys, "--format", "text", "hopf", "newton", "--order", "3", "--dim", "2")
    assert code == 0
    assert out == (
        "h^0 u^0 * (1) F(1)\n"
        "h^1 u^1 * (1) F(C1())\n"
        "h^2 u^2 * (1/2) F(C1()*C1())\n"
        "h^2 u^2 * (-1/2) F(C2(;))\n"
        "h^3 u^3 * (1/6) F(C1()*C1()*C1())   [sums to zero beyond dim]\n"
        "h^3 u^3 * (-1/2) F(C1()*C2(;))   [sums to zero beyond dim]\n"
        "h^3 u^3 * (1/3) F(C3(;;))   [sums to zero beyond dim]\n"
    )


def test_darboux_solve_deterministic_and_verifiable(capsys, tmp_path):
    field_file = tmp_path / "lv.json"
    field_file.write_text(json.dumps(lv_divfree().to_json()))
    args = (
        "darboux",
        "solve",
        "--field",
        str(field_file),
        "--order",
        "4",
        "--parity",
        "even",
        "--seed",
        "11",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical seeds
    payload = json.loads(out1)
    assert payload["solutions"]

    # round trip: every reported density re-verifies under darboux verify
    density_file = tmp_path / "density.json"
    density_file.write_text(json.dumps(payload["solutions"][0]["polynomial"]))
    code, out, _ = run_cli(
        capsys, "darboux", "verify", "--field", str(field_file), "--density", str(density_file)
    )
    assert code == 0 and json.loads(out)["verified"] is True


def test_darboux_verify_failure_exit_code(capsys, tmp_path):
    field_file = tmp_path / "lv.json"
    field_file.write_text(json.dumps(lv_divfree().to_json()))
    bad = Polynomial.variable(5, 0)  # x is not a density here
    density_file = tmp_path / "bad.json"
    density_file.write_text(json.dumps(bad.to_json()))
    code, out, _ = run_cli(
        capsys, "darboux", "verify", "--field", str(field_file), "--density", str(density_file)
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False and "witness" in payload
    # x*u is no density either, but every sample point has u = 0, so no
    # step could show it: the density is refused as an input error
    density_file.write_text(json.dumps((bad * Polynomial.variable(5, 4)).to_json()))
    code, out, err = run_cli(
        capsys, "darboux", "verify", "--field", str(field_file), "--density", str(density_file)
    )
    assert code == 2 and out == "" and err == "input error: a density must not involve u\n"


def test_order_cap(capsys):
    code, _, err = run_cli(
        capsys, "darboux", "solve", "--system", "lv_divfree", "--order", "8"
    )
    assert code == 2 and "order" in err
    code, out, _ = run_cli(
        capsys,
        "--order-cap",
        "8",
        "aromas",
        "enumerate",
        "--order",
        "7",
        "--multisets",
        "--max-indegree",
        "2",
    )
    assert code == 0


def test_system_source_and_params(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "conditions",
        "--system",
        "lv",
        "--params",
        '{"alpha": "1", "beta": "1", "gamma": "-1"}',
    )
    assert code == 0
    assert json.loads(out)["div_free"] is False
    code, _, err = run_cli(capsys, "check", "conditions", "--system", "nope")
    assert code == 2


def test_check_conjecture_flags_a_potential_counterexample(capsys, monkeypatch):
    # the hypothesis holds on lv_divfree; with no constrained density found
    # the check exits 1
    monkeypatch.setattr(solver_mod, "_find_constrained_density", lambda sol, target: None)
    code, out, _ = run_cli(capsys, "check", "conjecture", "--system", "lv_divfree")
    assert code == 1
    payload = json.loads(out)
    assert payload["hypothesis_holds"] and payload["density_found"] is False


@pytest.mark.parametrize(
    "command, message",
    [
        ("solve", "no sample point off h = 0 and det(M) = 0 in 0 attempts"),
        ("verify", "no witness point for the nonzero defect in 0 attempts"),
    ],
)
def test_darboux_solver_error_exits_one(capsys, tmp_path, monkeypatch, command, message):
    # with no draws allowed no step comes: the solve has no rows, and the
    # nonzero defect of a wrong density has no witness; the SolverError's
    # message goes to stderr
    monkeypatch.setattr(solver_mod, "SAMPLE_ATTEMPTS", 0)
    path = tmp_path / "density.json"
    path.write_text(json.dumps([[[1, 0, 0, 0, 0], "1"]]))  # x1 is no density of lv_divfree
    extra = ["--order", "2"] if command == "solve" else ["--density", str(path)]
    code, out, err = run_cli(capsys, "darboux", command, "--system", "lv_divfree", *extra)
    assert code == 1 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "conjecture", "--system", "lv_divfree"), "no sample point off h = 0 and det(M) = 0 in 0 attempts"),
        (("corpus", "run", "ishii"), "no nondegenerate Ishii parameters in 0 attempts"),
        (("kahan", "map", "--system", "ishii"), "no nondegenerate Ishii parameters in 0 attempts"),
    ],
    ids=["check-conjecture", "corpus-run", "kahan-map"],
)
def test_every_command_exits_one_on_a_solver_error(capsys, monkeypatch, argv, message):
    # `main` alone maps a SolverError to exit 1; these three once let it
    # escape as a traceback
    monkeypatch.setattr(solver_mod, "SAMPLE_ATTEMPTS", 0)
    monkeypatch.setattr(corpus_mod, "SAMPLE_ATTEMPTS", 0)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == message + "\n"


def test_check_conjecture(capsys):
    code, out, _ = run_cli(capsys, "check", "conjecture", "--system", "lv_divfree")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_holds"] and payload["density_found"]
    # non-divergence-free input is an input error
    code, _, _ = run_cli(capsys, "check", "conjecture", "--system", "lv_special")
    assert code == 2


def test_corpus_list_and_run(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    names = {s["name"] for s in json.loads(out)["systems"]}
    assert {"lv_divfree", "ishii", "nambu_homogeneous"} <= names
    code, out, _ = run_cli(capsys, "corpus", "run", "lv_divfree")
    assert code == 0 and json.loads(out)["passed"] is True


def test_text_and_latex_formats(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "text",
        "darboux",
        "solve",
        "--system",
        "lv_divfree",
        "--order",
        "4",
        "--parity",
        "even",
    )
    assert code == 0
    assert "1 - (1/8) h^2 F(C2(;))" in out
    code, out, _ = run_cli(capsys, "--format", "latex", "hopf", "q-table", "--order", "2")
    assert code == 0 and out.startswith("\\begin{tabular}")
    solve = ["darboux", "solve", "--system", "lv_divfree", "--order", "4", "--parity", "even"]
    code, out, _ = run_cli(capsys, "--format", "latex", *solve)
    assert code == 0
    assert out == "\\begin{align*}\n  g_{1} &= 1 - (1/8) h^2 F(C2(;)) \\\\\n\\end{align*}\n"
    solve = ["darboux", "solve", "--system", "lv_special", "--order", "2", "--parity", "odd"]
    code, out, _ = run_cli(capsys, "--format", "text", *solve)
    assert code == 1
    assert out == "basis (1): C1()\nno densities found at this order\nindependent integrals: 0\n"
    code, out, _ = run_cli(capsys, "--format", "text", "kahan", "map", "--system", "lv_divfree")
    kmap = lv_divfree().kahan_map()
    assert code == 0
    assert out == "".join(f"Phi_{i + 1} = ({num}) / ({kmap.den})\n" for i, num in enumerate(kmap.numerators))


_MIXED_CALLS = [
    ["--format", "text", "aromas", "enumerate", "--order", "3"],
    ["aromas", "sigma", "C3(;;)"],
    ["--format", "latex", "hopf", "q-table", "--order", "2"],
    ["aromas", "sigma", "C2("],
    ["--format", "text", "darboux", "solve", "--system", "lv_divfree", "--order", "2"],
    ["darboux", "solve", "--system", "lv_divfree", "--order", "2", "--parity", "even", "--seed", "3"],
    ["--order-cap", "2", "darboux", "solve", "--system", "lv_divfree", "--order", "4"],
    ["hopf", "newton", "--order", "2", "--dim", "2"],
    ["aromas"],
    ["--format", "text", "corpus", "list"],
]


def _call(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_and_reused(capsys):
    # each call on a parser of its own
    separate = []
    for argv in _MIXED_CALLS:
        cli_mod.build_parser.cache_clear()
        separate.append(_call(capsys, argv))
    cli_mod.build_parser.cache_clear()
    # consecutive calls on one parser, forwards and backwards
    assert [_call(capsys, argv) for argv in _MIXED_CALLS] == separate
    assert [_call(capsys, argv) for argv in reversed(_MIXED_CALLS)] == separate[::-1]
    assert cli_mod.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, fragments",
    [
        (["aromas", "enumerate", "--order", "1" * 100_000], ["--order", " characters)\n"]),
        (["darboux", "solve", "--system", "lv", "--order", "2", "--parity", "x" * 100_000], ["--parity", " characters)\n"]),
        (["aromas"], ["aromas_cmd"]),
        (["kahan", "map", "--system", "lv", "--params", "-1e+16"], ["--params"]),
        (["nope"], ["'nope'", "aromas", "field", "kahan", "hopf", "darboux", "check", "corpus"]),
    ],
    ids=["long-order", "long-parity", "no-subcommand", "option-like-params", "unknown-command"],
)
def test_a_bad_argument_exits_two_through_main(capsys, argv, fragments):
    # a bad argument is an input error like any other: exit 2 and one
    # bounded line, with no usage dump, and main returns rather than exits
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and len(err.encode()) < 1024
    assert all(fragment in err for fragment in fragments)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "darboux" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["kahan", "series", "--system", "lv", "--order", "7"], ["field", "eval", "--system", "lv", "--aroma", "C7(;;;;;;)"]],
    ids=["kahan-series", "field-eval"],
)
def test_the_order_is_checked_before_the_field_is_read(capsys, monkeypatch, argv):
    # refuse the order first: reading a large field and building its Kahan
    # map takes seconds (a second on a field of dimension 150)
    monkeypatch.setattr(cli_mod, "_load_field", lambda args: pytest.fail("the field was read"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "input error: order 7 exceeds the cap 6; pass --order-cap 7 to override\n"


def test_render_series_shapes():
    def el(encoding, label=None):
        return BasisElement(parse_multiset(encoding), Polynomial.zero(5), label)

    assert render_series([(el("1"), Rat(1)), (el("C2(;)"), Rat(-1, 4))]) == "1 - (1/8) h^2 F(C2(;))"
    assert render_series([]) == "0"
    assert render_series([(el("C1()"), Rat(1))]) == "h F(C1())"
    assert render_series([(el("C2(;)", "I0"), Rat(1, 2)), (el("1", "I0"), Rat(-1))]) == "-F(I0*1) + (1/4) h^2 F(I0*C2(;))"


def test_missing_field_source(capsys):
    code, _, err = run_cli(capsys, "kahan", "det")
    assert code == 2 and "field source" in err


def test_solve_with_no_solutions_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "darboux", "solve", "--system", "lv_special", "--order", "0"
    )
    assert code == 1
    assert json.loads(out)["solutions"] == []


def test_darboux_solve_with_augmenter_file(capsys, tmp_path):
    field_file = tmp_path / "lv.json"
    field_file.write_text(json.dumps(lv_divfree().to_json()))
    i0 = (
        Polynomial.variable(5, 0)
        + Polynomial.variable(5, 1)
        + Polynomial.variable(5, 2)
    )
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps({"I0": i0.to_json()}))
    code, out, _ = run_cli(
        capsys,
        "darboux",
        "solve",
        "--field",
        str(field_file),
        "--order",
        "4",
        "--parity",
        "even",
        "--augment",
        str(aug_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert any(s["augmenter_coeffs"] for s in payload["solutions"])
    assert any(key.startswith("I0*") for key in payload["basis"])


_LV = lv_divfree().to_json()
_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# json.dumps refuses an int past the interpreter's digit limit, so a case
# names one by this marker and `_dumps` writes its 5,000 digits in its place
_LONG_INT = "<a JSON integer of 5000 digits>"


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(_LONG_INT), "7" * 5000)


def _kahan_map(system, params):
    return ("kahan", "map", "--system", system, "--params", _dumps(params))


_DEEP_TREE = "[" * 1500 + "]" * 1500


@pytest.mark.parametrize(
    "field, density, augment, message",
    [
        (
            {**_LV, "quadratic": [[1, 1, 2, "1/0"]]},
            None,
            None,
            "zero denominator",
        ),
        (_LV, [[[0, 0, 0, 0, 0], "1/0"]], None, "zero denominator"),
        (_LV, [[[0, 0, 0, 0, 0], float("inf")]], None, "malformed density JSON"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 0], "1/0"]]}, "zero denominator"),
        ([_LV], None, None, "must be an object"),
        (_LV, None, [["a"]], "input error: augmenter JSON must be an object\n"),
        (_LV, None, [1, 2], "input error: augmenter JSON must be an object\n"),
        (_LV, None, [["a", [[[1, 0, 0, 0, 0], "1"]]]], "input error: augmenter JSON must be an object\n"),
        (_LV, None, {"a": [[[1, 0, 0, 1, 0], "1"]]}, "must not involve h or u"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 1], "1"]]}, "must not involve h or u"),
        (_LV, None, {"a": [[[1, 0, 0], "1"]]}, "arity"),
        (_LV, None, {"a": []}, "zero polynomial"),
        (_LV, [[[1, 0, 0, 0, 0], 0.1]], None, "malformed density JSON"),
        (_LV, [[[1, 0, 0, 0, 0], True]], None, "malformed density JSON"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 0], 0.5]]}, "malformed augmenter"),
        (_LV, None, {"Cx": [[[1, 0, 0, 0, 0], "1"]]}, "label 'Cx' must not start with 'C'"),
        (_LV, None, {"I*0": [[[1, 0, 0, 0, 0], "1"]]}, "label 'I*0' must not start with 'C' or contain '*'"),
        (_LV, None, {"C2(;)": [[[1, 0, 0, 0, 0], "1"]]}, "label 'C2(;)' must not start with 'C'"),
        (
            _LV,
            None,
            '{"a": [[[1, 0, 0, 0, 0], "1"]], "a": [[[0, 1, 0, 0, 0], "1"]]}',
            ": duplicate key 'a'\n",
        ),
        (
            ("darboux", "solve", "--system", "ishii", "--params", '{"k": 0}', "--order", "2"),
            None,
            None,
            "input error: system 'ishii' needs parameter 'b2'; schema: {\"b2\"",
        ),
        (
            ("darboux", "solve", "--system", "lv", "--params", '{"alfa": 2}', "--order", "2"),
            None,
            None,
            "input error: system 'lv' takes no parameter 'alfa'; schema: {\"alpha\"",
        ),
        (
            ("darboux", "solve", "--system", "lv", "--params", "[2]", "--order", "2"),
            None,
            None,
            "input error: parameters of system 'lv' must be an object",
        ),
        (
            ("darboux", "solve", "--system", "nope", "--order", "2"),
            None,
            None,
            "input error: unknown system 'nope'; known: [",
        ),
        (("corpus", "run", "nope"), None, None, "input error: no golden suite for 'nope'; known: ["),
        (
            _kahan_map("lv", {"alpha": 0.1}),
            None,
            None,
            "system 'lv': expected an integer or a rational string 'p/q', got 0.1",
        ),
        (
            _kahan_map("lv", {"alpha": True}),
            None,
            None,
            "system 'lv': expected an integer or a rational string 'p/q', got True",
        ),
        (
            ("check", "conditions", "--system", "lv", "--params", '{"alpha": "1e3", "beta": "1", "gamma": "1"}'),
            None,
            None,
            "input error: system 'lv': expected an integer or a rational string 'p/q', got '1e3'; schema: ",
        ),
        (
            _kahan_map("nambu_homogeneous", {"A": [[1]], "B": [[1]]}),
            None,
            None,
            "parameter 'A' must be a 3 x 3 matrix",
        ),
        (
            _kahan_map("nambu_homogeneous", {"A": _EYE3, "B": [[1, 0], [0, 1]]}),
            None,
            None,
            "parameter 'B' must be a 3 x 3 matrix",
        ),
        (
            _kahan_map("nambu_inhomogeneous", {"H": _EYE3, "hvec": [1, 2, 3], "K": [[1]], "kvec": [1, 2, 3]}),
            None,
            None,
            "parameter 'K' must be a 3 x 3 matrix",
        ),
        (
            _kahan_map("nambu_inhomogeneous", {"H": _EYE3, "hvec": [1, 2], "K": _EYE3, "kvec": [1, 2, 3]}),
            None,
            None,
            "parameter 'hvec' must be a vector of length 3",
        ),
        (
            _kahan_map("divfree_homogeneous_r3", {"A": _EYE3, "B": _EYE3, "C": [[1, 0], [0, 1]]}),
            None,
            None,
            "parameter 'C' must be a 3 x 3 matrix",
        ),
        (
            _kahan_map("canonical_hamiltonian", {"J": [[0, 1]], "H": [[[3, 0, 0, 0], "1"]]}),
            None,
            None,
            "parameter 'J' must be a square matrix",
        ),
        (
            _kahan_map("canonical_hamiltonian", {"J": [[0, 1], [-1, 0]], "H": 5}),
            None,
            None,
            "input error: system 'canonical_hamiltonian': polynomial JSON must be a list of"
            ' [exponents, coefficient] pairs with integer exponents, got 5; schema: {"J"',
        ),
        (_LV, 5, None, "malformed density JSON: polynomial JSON must be a list of [exponents"),
        (
            ("field", "eval", "--system", "lv", "--aroma", "C9"),
            None,
            None,
            "bad aroma encoding: aroma encoding needs '(' after the cycle length: 'C9'",
        ),
        (
            ("field", "eval", "--system", "lv", "--aroma", "Cx()"),
            None,
            None,
            "bad aroma encoding: aroma cycle length must be a positive integer: 'Cx()'",
        ),
        (
            {"dim": 2, "quadratic": [[1.5, 1, 2, "1"]]},
            None,
            None,
            "field entry [1.5, 1, 2, '1'] has an index that is not an integer",
        ),
        ({**_LV, "linear": [[True, 1, "1"]]}, None, None, "has an index that is not an integer"),
        ({**_LV, "dim": True}, None, None, "needs a positive integer 'dim'"),
        (
            {"dim": 1, "quadratc": [[1, 1, 1, "1"]]},
            None,
            None,
            "input error: malformed field JSON: unknown key 'quadratc';"
            " a field has only 'dim', 'quadratic', 'linear' and 'constant'\n",
        ),
        (
            ("field", "eval", "--system", "lv", "--aroma", f"C1({_DEEP_TREE})"),
            None,
            None,
            "input error: order 1501 exceeds the cap 6; pass --order-cap 1501 to override",
        ),
        (("hopf", "newton", "--order", "3", "--dim", "0"), None, None, "input error: --dim must be at least 1"),
        (("hopf", "newton", "--order", "3", "--dim", "-2"), None, None, "input error: --dim must be at least 1"),
        (
            ("darboux", "verify", "--system", "lv_divfree", "--density", "."),
            None,
            None,
            "input error: cannot read JSON from .: ",
        ),
        (
            ("darboux", "solve", "--field", "field.json", "--system", "lv", "--order", "2"),
            None,
            None,
            "input error: give exactly one field source (--field or --system)",
        ),
        (
            ("darboux", "solve", "--system", "lv", "--params", "{", "--order", "2"),
            None,
            None,
            "input error: malformed --params JSON: ",
        ),
        (
            ("darboux", "solve", "--system", "lv", "--order", "-1"),
            None,
            None,
            "input error: order must be nonnegative",
        ),
        (("aromas", "enumerate", "--order", "0"), None, None, "input error: aroma enumeration needs order >= 1"),
        (_LV, [], None, "input error: a density must be a nonzero polynomial"),
        (
            _LV,
            _LONG_INT,
            None,
            "input error: malformed density JSON: polynomial JSON must be a list of [exponents,"
            " coefficient] pairs with integer exponents, got an integer of 5000 digits\n",
        ),
        (
            {**_LV, "linear": [[_LONG_INT, 1, "1"]]},
            None,
            None,
            "input error: malformed field JSON: index an integer of 5000 digits out of range for dimension 3\n",
        ),
        (
            _kahan_map("nambu_homogeneous", {"A": [[_LONG_INT]], "B": _EYE3}),
            None,
            None,
            "parameter 'A' must be a 3 x 3 matrix, got a list holding an integer too long to print;",
        ),
        # a refused value is echoed as its first 80 characters and its length
        (
            _LV,
            [[[0, 0, 0, 0, 0], "x" * 200_000]],
            None,
            "input error: malformed density JSON: expected an integer or a rational string 'p/q', got '"
            + "x" * 79
            + "... (200002 characters)\n",
        ),
        (
            _LV,
            [[[0, 0, 0, 0, 0], "1/" + "0" * 199_998]],
            None,
            "input error: malformed density JSON: zero denominator in '1/" + "0" * 77 + "... (200002 characters)\n",
        ),
    ],
    ids=[
        "field-zero-denominator",
        "density-zero-denominator",
        "density-infinite-coefficient",
        "augmenter-zero-denominator",
        "field-not-an-object",
        "augmenter-not-a-pair",
        "augmenter-not-a-list-of-pairs",
        "augmenter-a-list",
        "augmenter-with-h",
        "augmenter-with-u",
        "augmenter-wrong-arity",
        "augmenter-empty",
        "density-float-coefficient",
        "density-bool-coefficient",
        "augmenter-float-coefficient",
        "augmenter-label-starts-with-c",
        "augmenter-label-with-star",
        "augmenter-label-is-a-multiset",
        "augmenter-label-twice",
        "system-missing-parameter",
        "system-unknown-parameter",
        "system-parameters-not-an-object",
        "unknown-system",
        "unknown-suite",
        "system-float-parameter",
        "system-bool-parameter",
        "system-parameter-with-an-exponent",
        "nambu-homogeneous-1x1-matrices",
        "nambu-homogeneous-2x2-second-matrix",
        "nambu-inhomogeneous-1x1-matrix",
        "nambu-inhomogeneous-short-vector",
        "divfree-r3-2x2-matrix",
        "canonical-hamiltonian-non-square-j",
        "canonical-hamiltonian-h-not-a-list",
        "density-not-a-list",
        "aroma-without-parenthesis",
        "aroma-length-not-digits",
        "field-float-index",
        "field-bool-index",
        "field-bool-dim",
        "field-unknown-key",
        "aroma-above-the-order-cap",
        "newton-zero-dim",
        "newton-negative-dim",
        "density-file-unreadable",
        "field-and-system",
        "params-not-json",
        "negative-order",
        "aromas-of-order-zero",
        "density-empty-list",
        "density-a-long-integer",
        "field-index-a-long-integer",
        "system-matrix-holding-a-long-integer",
        "density-a-long-coefficient",
        "density-a-long-zero-denominator",
    ],
)
def test_malformed_input_exits_two(capsys, tmp_path, field, density, augment, message):
    # a tuple in place of a field is the whole command line
    field_file = tmp_path / "field.json"
    field_file.write_text(_dumps(field))
    if isinstance(field, tuple):
        argv = list(field)
    elif density is not None:
        density_file = tmp_path / "density.json"
        density_file.write_text(_dumps(density))
        argv = ["darboux", "verify", "--field", str(field_file), "--density", str(density_file)]
    else:
        argv = ["darboux", "solve", "--field", str(field_file), "--order", "2"]
        if augment is not None:
            aug_file = tmp_path / "aug.json"
            # a string is the file's text, for what json.dumps cannot write
            aug_file.write_text(augment if isinstance(augment, str) else _dumps(augment))
            argv += ["--augment", str(aug_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and message in err and len(err) < 1024


def test_params_with_a_field_file_are_refused(capsys, tmp_path):
    # parameters belong to a corpus system; with a field file they would be
    # ignored, malformed or not
    field_file = tmp_path / "field.json"
    field_file.write_text(_dumps(_LV))
    for params in ("not json", '{"alpha": 2}', ""):
        code, out, err = run_cli(capsys, "check", "conditions", "--field", str(field_file), "--params", params)
        assert (code, out) == (2, "")
        assert err == "input error: --params needs --system: a field file takes no parameters\n"


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (("kahan", "map", "--field"), '{"dim": 1, "quadratic": [[1, 1, 1, "1"]], "quadratic": []}', "quadratic"),
        (
            ("darboux", "solve", "--system", "lv_divfree", "--order", "4", "--parity", "even", "--augment"),
            '{"I0": [[[1, 0, 0, 0, 0], "1"]], "I0": [[[0, 1, 0, 0, 0], "1"]]}',
            "I0",
        ),
        (("kahan", "map", "--system", "lv", "--params"), '{"alpha": "1", "beta": "1", "gamma": "1", "alpha": "2"}', "alpha"),
    ],
    ids=["field", "augmenter", "params"],
)
def test_a_key_given_twice_exits_two(capsys, tmp_path, argv, text, key):
    # json alone keeps the last value: the field once read as the zero
    # field, and the augmenters as the second I0 alone
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, text if argv[-1] == "--params" else str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.endswith(f": duplicate key {key!r}\n")


_LONG = "b" * 100_000


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ("darboux", "solve", "--system", "lv_divfree", "--order", "2", "--augment"),
            json.dumps({"a" * 200_000: []}),
        ),
        (("kahan", "map", "--system", "lv", "--params", json.dumps({_LONG: 1})), None),
        (("kahan", "map", "--system", _LONG), None),
        (("aromas", "sigma", "C" + _LONG), None),
        (("kahan", "map", "--field"), f'{{"{_LONG}": 1, "{_LONG}": 1}}'),
    ],
    ids=["augmenter-label", "params-key", "system-name", "aroma-encoding", "duplicate-key"],
)
def test_a_refused_long_value_is_echoed_cut(capsys, tmp_path, argv, text):
    # each message once held the whole value, 100,000 characters or more
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = (*argv, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and len(err.encode()) < 1024


# JSON values of every kind, the long ones among them cut in an echo
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.fractions(max_denominator=30).map(format_rat)
    | st.text(max_size=4)
    | st.sampled_from(["1/0", "x" * 3000, "1" * 3000, "1" * 3000 + "/7"])
)
_ANY_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8
)
_VALUES = st.integers(-(10**40), 10**40) | st.fractions(max_denominator=30).map(format_rat)
# a term over lv_divfree's variables x1 x2 x3 h u, or one with a part malformed
_TERMS = (
    st.tuples(st.lists(st.integers(0, 2), min_size=3, max_size=3), st.sampled_from([[0, 0], [1, 0], [0, 1]]), _VALUES)
    .map(lambda t: [t[0] + t[1], t[2]])
    | st.tuples(st.lists(st.integers(-1, 2) | st.sampled_from([1023, 1024, 10**40]) | _SCALARS, max_size=6), _SCALARS).map(list)
    | _ANY_JSON
)
_POLY_JSON = st.lists(_TERMS, max_size=4)
_LABELS = st.text(max_size=4) | st.sampled_from(["C2(;)", "a*b", "I0", "a" * 3000])
_MATRICES = st.lists(st.lists(_SCALARS, min_size=3, max_size=3), min_size=3, max_size=3)
_PARAM_NAMES = sorted({name for spec in SYSTEMS.values() for name in inspect.signature(spec.build).parameters})


def _main_with_bounded_stderr(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert len(err.getvalue().encode()) < 1024


@given(_POLY_JSON | _ANY_JSON)
def test_any_density_file_exits_with_a_code_and_a_bounded_message(tmp_path_factory, density):
    path = tmp_path_factory.mktemp("density") / "density.json"
    path.write_text(json.dumps(density))
    _main_with_bounded_stderr(["darboux", "verify", "--system", "lv_divfree", "--density", str(path)])


@given(st.dictionaries(_LABELS, _POLY_JSON | _ANY_JSON, max_size=3) | _ANY_JSON)
def test_any_augmenter_file_exits_with_a_code_and_a_bounded_message(tmp_path_factory, augmenters):
    path = tmp_path_factory.mktemp("augment") / "augment.json"
    path.write_text(json.dumps(augmenters))
    _main_with_bounded_stderr(["darboux", "solve", "--system", "lv_divfree", "--order", "2", "--augment", str(path)])


@given(
    st.sampled_from(sorted(SYSTEMS)),
    st.dictionaries(
        st.sampled_from(_PARAM_NAMES) | st.text(max_size=4) | st.just("k" * 3000),
        _SCALARS | _MATRICES | st.lists(_SCALARS, min_size=3, max_size=3) | _POLY_JSON,
        max_size=6,
    )
    | _ANY_JSON,
)
def test_any_params_exit_with_a_code_and_a_bounded_message(system, params):
    # the "=" form hands the reader any JSON text: argparse takes a separate
    # value that starts with "-", such as -1e+16, for a missing one
    _main_with_bounded_stderr(["kahan", "map", "--system", system, f"--params={json.dumps(params)}"])


def test_empty_params_are_refused(capsys):
    # an empty --params is malformed JSON like any other, not "no parameters"
    code, out, err = run_cli(capsys, "check", "conditions", "--system", "lv", "--params", "")
    assert (code, out) == (2, "")
    assert err.startswith("input error: malformed --params JSON: ")


# SHA-256 of the concatenated stdout of `field eval --system NAME --seed 0
# --aroma A` over every aroma A of order 1..5, unfiltered (the indegree-3
# aromas print zero), taken while each aroma's contraction still ran on
# rational polynomials and the cycle matrices were rebuilt per aroma
FIELD_EVAL_STDOUT_SHA256 = {
    "canonical_hamiltonian": "efa6ca1b86b28a35ee2cf5d0d469c46076025dac9acce88813e9ceb1caf05ffd",
    "divfree_homogeneous_r3": "dec11f1573beb7d8424a23d89803eee631b11b485bca079fcee3d9b5384ed7c8",
    "dressing_chain": "1906552bbb5a26f11ae370e30f672a5cb90a8283a4a8121a0ea55848eb304787",
    "ishii": "7c1451437dbf86bd34b407a2fe7429434c4b08c5e1fc27c4cc3f483ae3b77a17",
    "lv": "e4df0b0270ef2a0e4d6a4e1e7b3b91a0e0e8f3259122faa04d63e7ddc30f131e",
    "lv_divfree": "f5a0def9d32eafd92e545abc201d16b6462f775f338497256efa77e9a1d5fcd4",
    "lv_special": "0b3c7a69d18d0a2fa0e1e7bff41b04ed8e7734a7262ff06e69145fd07cd8c41b",
    "nambu_homogeneous": "aed3e4de3eca1f89e5083c55445daed5e03ae288c5c0759c4ec7b1b77a6c1699",
    "nambu_inhomogeneous": "0355b0f9c8d8a5fd1640c806b988e7e0d70f10966a8fe8a4ac9e4adf2ee1e79a",
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_field_eval_output_bytes_are_pinned(capsys, system):
    out = []
    for k in range(1, 6):
        for aroma in enumerate_aromas(k):
            code, text, err = run_cli(capsys, "field", "eval", "--system", system, "--seed", "0", "--aroma", aroma.encoding)
            assert code == 0 and err == ""
            out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == FIELD_EVAL_STDOUT_SHA256[system]


# SHA-256 of the stdout of `kahan map|det|series --order 5 --system NAME
# --seed 0`, taken from the adjugate numerators and the closed-form series
# (f')^(k-1) f / 2^(k-1), so the bytes do not rest on the map's own code
KAHAN_STDOUT_SHA256 = {
    ("canonical_hamiltonian", "det"): "c525bd279a4c9fb41a18603bd2a820c2c1de3607c415683863e6ab0d96418eb5",
    ("canonical_hamiltonian", "map"): "d11e54f3cfeb7b9194845a8e8da8231256b815d98d531e4092246cae2c2adbf0",
    ("canonical_hamiltonian", "series"): "5eeb32e1ee8f8b1fedfa77ace97e572251fc785f034121402ccb321c6e728f22",
    ("divfree_homogeneous_r3", "det"): "9416e89379afcec8e10a8f21c89f0ab4c4c8676bb4c9bd66ce3a6c37c029ce6c",
    ("divfree_homogeneous_r3", "map"): "1bb617760a41c5f20fda0ce6501e4fb9b0f1d082d9800caffa9e1b3a11c3c47a",
    ("divfree_homogeneous_r3", "series"): "83578702ec385f116c3cf8afd31b1807a475429c5001b45be179daa89d33ed38",
    ("dressing_chain", "det"): "973409a2bb8d6386ebaa55aee667b885fc2500f0b0b10a690e8798422578dcc4",
    ("dressing_chain", "map"): "f158c68641784266a5bf6ed4dc570d5f5d56a660ac305fada010f1c51769abf9",
    ("dressing_chain", "series"): "370a40f302091c6eb1ed75be273a675419486387f2e2f43d53f009d281b833de",
    ("ishii", "det"): "3fb38bf0442b1ec09c43206a62d61030bbe89bbe78797a4e52a7dd978aa49945",
    ("ishii", "map"): "edee62dd1d6ebff267f53005278a0f4b3766fb8dbf39480b546c8c12d6d8c853",
    ("ishii", "series"): "5fea48b057f864c43fd1c24005152b6a1b417c68ae9f2c33d6dfcb498e6815d5",
    ("lv", "det"): "f2de83cd1a249235c6502974dca6b6cce17992491c31bb40557a28c9506bf865",
    ("lv", "map"): "41c9e052a1b838d6c370bff740ed8e4a5a328142d33f602bf16ad66a8e890f67",
    ("lv", "series"): "dee16c914d0e56d0373f1dbe7276edf77b3bd833906e1379d71fe626e785e162",
    ("lv_divfree", "det"): "f09606e1ee5ac0cee8ca1e2c85194fc7884d3b2fd4c614f77e6392bf9c16c3eb",
    ("lv_divfree", "map"): "743790e7f12a5148bbf961043754dfe4bc2a91e470feedf883190a78f7b58075",
    ("lv_divfree", "series"): "8ab52306a2b97f27bc1cf3ad9f9268aefe165d30f94b91c389fdea9338ad1805",
    ("lv_special", "det"): "14d184f39f2da1eb807c9b8f1db84b28e8055d757936953b58238add6584b521",
    ("lv_special", "map"): "d624baf1d4caaff84cf7088e9d11468fe50fe11c40e8b8558e82d674c300ca46",
    ("lv_special", "series"): "3512f5fafded547566bd6421a812f3af017670b78e70e7acf28db75943b94753",
    ("nambu_homogeneous", "det"): "46060b9c99f2d6c26fd571f1550836b37dfb673290d35dee71cf5aa4206d981a",
    ("nambu_homogeneous", "map"): "d56a5b5c11ee85667f568df5036783d0775aa57da59fcbd5cdb7ec2127419cf4",
    ("nambu_homogeneous", "series"): "fc5c09bb3e283f15b501d38fd75c9e4bb1f2b79bba50573a636045ec55d6e269",
    ("nambu_inhomogeneous", "det"): "bfdb105f69d763476f056f2d163a61d4fd2102d79235eeeeaa5ca003781afd64",
    ("nambu_inhomogeneous", "map"): "8ae7becc0edd4d4f0affe347cba5a27454bb98499dd1ed2d18040efd78f738ff",
    ("nambu_inhomogeneous", "series"): "1c5b039dd1d69f921790cee477ca59da5b257ec64bbb519a5972c01c57fbe6c0",
}


def test_kahan_series_builds_no_kahan_map(capsys, monkeypatch):
    # the series is read off the field's tall-tree vectors, not the map
    monkeypatch.setattr(fields_mod.KahanMap, "__init__", lambda self, field: pytest.fail("a Kahan map was built"))
    code, out, err = run_cli(capsys, "kahan", "series", "--system", "nambu_inhomogeneous", "--order", "4")
    assert code == 0 and err == ""
    assert len(json.loads(out)["coefficients"]) == 5
    with pytest.raises(pytest.fail.Exception, match="a Kahan map was built"):
        main(["kahan", "map", "--system", "nambu_inhomogeneous"])


@pytest.mark.parametrize("command", ["map", "det", "series"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_kahan_output_bytes_are_pinned(capsys, system, command):
    argv = ["kahan", command, "--system", system, "--seed", "0"]
    if command == "series":
        argv += ["--order", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == KAHAN_STDOUT_SHA256[(system, command)]


# SHA-256 of the stdout of `--format text kahan map|det|series`, taken while
# the text renderers still re-read the JSON payload they print from
KAHAN_TEXT_STDOUT_SHA256 = {
    ("ishii", "det"): "222b8f1f163f0fd99cb7994468e7a9b0d74c698189be320d21dfd33ee2748714",
    ("ishii", "map"): "76f903c16bce2950861ccc5f65dbbc4162d6f790a46ffb7beceb9f231af2c0ed",
    ("ishii", "series"): "141b619774c9041dc076ae6a088be580058fed820f1d5ee88ec86099c1a2f433",
    ("lv_divfree", "det"): "7d5d10eeb77d77d7f3216bf383a1144d10834aac9deb1538d7fea49e870c383f",
    ("lv_divfree", "map"): "1520dc20bd214d3d12fd3eca377132cd2840afdc51ea64a87dfe95829719dff7",
    ("lv_divfree", "series"): "2e65aa5c28e78ec78cf5aa7fbecae8c109f5093316c4ed0d1a7265bd088a594f",
    ("nambu_inhomogeneous", "det"): "17f318b196ed9bf3952395af9f3fb2bca0367fb0eac479a91e886d9649b0cad5",
    ("nambu_inhomogeneous", "map"): "ef76251d1ee4f64cc903e3ad7f0f65eca2d321c38a0d2379dd37a4e95cde3d44",
    ("nambu_inhomogeneous", "series"): "2f3f065d71939a0dcd48fa1bd0a34994ad4e75d42044e21865273ac44255907c",
}


@pytest.mark.parametrize("command", ["map", "det", "series"])
@pytest.mark.parametrize("system", ["ishii", "lv_divfree", "nambu_inhomogeneous"])
def test_kahan_text_output_bytes_are_pinned(capsys, system, command):
    argv = ["--format", "text", "kahan", command, "--system", system, "--seed", "0"]
    if command == "series":
        argv += ["--order", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == KAHAN_TEXT_STDOUT_SHA256[(system, command)]


# SHA-256 of the stdout of `check conditions` for every corpus system,
# `check conjecture` and `corpus run`, taken from the code before the span
# solve, the cond1 check and the 3 x 3 adjugate had one definition each;
# the `hopf` digests were taken from the coalgebra before its coproducts
# became plain dicts and its cuts a recursion over hanging trees; the
# `corpus run` digests of lv, lv_divfree, lv_special, dressing_chain and
# canonical_hamiltonian before the graph classes shared one identity base;
# the q-table digests of orders 0-3 while the table was read off a dense
# matrix of Q rows
ANALYSIS_STDOUT_SHA256 = {
    "check conditions --system canonical_hamiltonian --seed 0": "5bc892de32d215430359ce009682bb8b741a1462c32032a2e1f59434b934a351",
    "check conditions --system divfree_homogeneous_r3 --seed 0": "e076e674fc7b7d21dd21e087907bc198892e73049672af3595b65b134475c4eb",
    "check conditions --system dressing_chain --seed 0": "5bc892de32d215430359ce009682bb8b741a1462c32032a2e1f59434b934a351",
    "check conditions --system ishii --seed 0": "2224dfe2a8b9f3c6f43cd79539d47b7b78b444c2434ebcd3c8c4cfd12d07edc9",
    "check conditions --system lv --seed 0": "5bc892de32d215430359ce009682bb8b741a1462c32032a2e1f59434b934a351",
    "check conditions --system lv_divfree --seed 0": "5bc892de32d215430359ce009682bb8b741a1462c32032a2e1f59434b934a351",
    "check conditions --system lv_special --seed 0": "66d520b83435dfcac1749d427d8370ac378dc43ff4b19168ee04463d93013c3f",
    "check conditions --system nambu_homogeneous --seed 0": "7b6ece69dcdeb93d0185645b045a3239f7a96c37a78af4451673816b8e1fc996",
    "check conditions --system nambu_inhomogeneous --seed 0": "7b6ece69dcdeb93d0185645b045a3239f7a96c37a78af4451673816b8e1fc996",
    **{
        f"check conjecture --system divfree_homogeneous_r3 --seed {seed}": "1ab84c0eed231927712073f4b124db2eb61161464fac69e73e8b8998634d3494"
        for seed in range(5)
    },
    **{
        f"check conjecture --system lv_divfree --seed {seed}": "f55e9edf67b89833cd5a25b6e7e6aaad69f380b39e0e8c87d482211763d8b2a2"
        for seed in range(5)
    },
    "corpus run canonical_hamiltonian --seed 0": "688d2a9f4aa860b3878896b9a9c430dda81ae7b15bb83d88a8baf0f3545cb61a",
    "corpus run divfree_homogeneous_r3 --seed 0": "25b36c177ad695415946353017c95b43be40188338186d51767a7d48cc293d6a",
    "corpus run dressing_chain --seed 0": "cc7cec1e99d8f6fdad479b1df3229ae098e5da459e31bac34cfd1cc700fe2d18",
    "corpus run lv --seed 0": "b334deb56596c346a96023841ae68d0aa52b6f376500c0352242f07bba6a013a",
    "corpus run lv_divfree --seed 0": "fd050c85af8de5a043eb603ff5caf86b5738fae065e186bee2211fe0812a06c2",
    "corpus run lv_special --seed 0": "1903c6106d3c7c6414ec725d72b98f988c818276058eb5386f67b746de44af8b",
    "corpus run nambu_homogeneous --seed 0": "91a5d96553214b501eadc46b2535a9f5d4aa050fa56224cf2748d6ecfcdf66a5",
    "corpus run nambu_inhomogeneous --seed 0": "fed2d022e88f553f5269a4becf1caca8f9dc2003467a5f012afde6de188d0ba3",
    "hopf q-table --order 0": "9935325968108f6a9d6f1ab8717401f8c1f64bc8568da18a85c7ba8e02a9c72e",
    "--format text hopf q-table --order 0": "275780b24f4618b41daf2d2c631ece1174cb629ec65113e5b813dc4ed0e5a2fe",
    "--format latex hopf q-table --order 0": "ad9fecd2a590116584be7887b94fd7d5cbfce6552531760cd515d48234a985c6",
    "hopf q-table --order 1": "17d4753514a041565d2235bb6def39417fcba526cdbb54a57e852f3c610ea81c",
    "--format text hopf q-table --order 1": "f6b519ee04dc1d2a904ae390580deb21fae4b376c75414384d7eb313a47ec300",
    "--format latex hopf q-table --order 1": "e4126e993b8f5812f4968a52010e08fe96263db6b93fdd8efb84d25cb370f20c",
    "hopf q-table --order 2": "c3dd793ab42fd4b940435ffa4792f80127872105f661820fe4bcb57de408b747",
    "--format text hopf q-table --order 2": "a9a1ec6aa0cf7f36a6500b451e8f6eee6107cefae938d14c42f5276e60dff5e5",
    "--format latex hopf q-table --order 2": "4509265389bde62d943803a8aebe79e8cb9acb4ff374ec1fc12630abe35326ef",
    "hopf q-table --order 3": "f06275c0990c7ffc1836985bc837cf4bddffa1cea72feed37c9d77f12310a338",
    "--format text hopf q-table --order 3": "7bf0eea24300e6c264fc5fd85e518c0f2e58aaac1253225f44b095e8cb63262f",
    "--format latex hopf q-table --order 3": "f98210d3d50b3037113c5b3eb7c364372ee9fb75eaffa1587f71503d3530a81d",
    "hopf q-table --order 6": "f6dbb101af5f964a7c4a095f5bdfc7bb5e7afd97b91e0699624cfcacf07e28f2",
    "--format text hopf q-table --order 5": "2f093bc54280a77a795f0440c4e90da8d595fa0bc4243842d976efba6d9adbe1",
    "--format latex hopf q-table --order 4": "d915b80b447c9b1e41cf3d06a49b7de1cfa530563dccada7ab22e2cb761e08b8",
    "--order-cap 7 hopf q-table --order 7": "8881ff61a932c33552e22a8feaff84101c35f0e8085172cd921215556513fcfa",
    "hopf newton --order 6 --dim 3": "1615bb4f770b4eb1c5082adf00e77b2bf5b2c0efaf5788fc2fa171ee0402689e",
}


@pytest.mark.parametrize("command", sorted(ANALYSIS_STDOUT_SHA256))
def test_analysis_output_bytes_are_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYSIS_STDOUT_SHA256[command]


# (exit code, SHA-256 of stdout) of `darboux solve` and `corpus run ishii`,
# taken before basis selection and the family solve moved onto the one
# elimination kernel of `linalg`; "--augment I0" names a file holding the
# augmenter I0 = x1 + x2 + x3
SOLVE_OUTPUT_SHA256 = {
    "darboux solve --system canonical_hamiltonian --order 4 --parity both --seed 0": (0, "61ad5ee373ac2e90b1b0666aba2db8ebf07defda0d43f563353c4d8d784fcd03"),
    "darboux solve --system divfree_homogeneous_r3 --order 4 --parity both --seed 0": (1, "98a34790934509c1b3fd34a61547d8ce2e3d4668fcf1d9071639dd1978686ee8"),
    "darboux solve --system dressing_chain --order 4 --parity both --seed 0": (0, "528a8a6ca00868a050212d6e900f16285df46ca5af91f363b0b1308c04a5dabc"),
    "darboux solve --system ishii --order 4 --parity both --seed 0": (0, "fc4be3703eb414afe514295b1e836ee9fa883b86b1b94767c81c4ab51506ecdb"),
    "darboux solve --system lv --order 4 --parity both --seed 0": (0, "a6b138e1ff3dea4ebaf6778af8c697fda17ce7255ff68cbd97f6f3158a868399"),
    "darboux solve --system lv_divfree --order 4 --parity both --seed 0": (0, "b533e92df2225c213c33d5441433493a6f116846ba71285da766866a78400289"),
    "darboux solve --system lv_special --order 4 --parity both --seed 0": (0, "8991addaae59740cad7f8562ffd76c2a5433907c7a0995a186acb3c00aa00822"),
    "darboux solve --system nambu_homogeneous --order 4 --parity both --seed 0": (0, "5c86ac945780871d87239b3ad53d3c32a048142059fca8338a2643fd23b08419"),
    "darboux solve --system nambu_inhomogeneous --order 4 --parity both --seed 0": (1, "413fa348cdbf1a62e47fa06fa66a56d6ebd8a6d0af2e0645a5f6e10bddbee0e9"),
    "darboux solve --system lv_divfree --order 4 --parity even --seed 0 --augment I0": (0, "ef47fbfb2790e9b64b8425201b380b3677619dd08ff7302a97ca2337d8501e45"),
    "darboux solve --system nambu_inhomogeneous --order 6 --parity even --seed 0": (0, "83d0ee3d6c1bc1b5a51d7925aa6e5718106770c36ad38a27e968d7ed85b7d623"),
    "corpus run ishii --seed 0": (0, "76b2437662a90d1b572dcc82eb7744baccc4d3e534a3c4b77a72cf6a8f983a66"),
}


@pytest.mark.parametrize("command", sorted(SOLVE_OUTPUT_SHA256))
def test_solve_output_bytes_are_pinned(capsys, tmp_path, command):
    argv = command.split()
    if argv[-1] == "I0":
        i0 = Polynomial.variable(5, 0) + Polynomial.variable(5, 1) + Polynomial.variable(5, 2)
        argv[-1] = str(tmp_path / "aug.json")
        (tmp_path / "aug.json").write_text(json.dumps({"I0": i0.to_json()}))
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SOLVE_OUTPUT_SHA256[command]


def _closed_form_density(system: str) -> Polynomial:
    """The literature density of a corpus system at seed 0."""
    field = get_system(system, seed=0)
    h2 = Polynomial.variable(field.nvars, field.dim) ** 2
    if system == "lv_divfree":
        return 1 - h2 * field.aroma_function(TWO_CYCLE) * Rat(1, 8)
    if system == "nambu_homogeneous":
        return (1 - h2 * field.aroma_function(TWO_CYCLE) * Rat(1, 24)) ** 2
    return ishii_invariants(**SYSTEMS["ishii"].random_params(random.Random(0)))[1]


# (exit code, SHA-256 of stdout) of `darboux verify --system NAME --seed 0`
# on the closed-form density and on it plus h^2 x1^2, which no closed form
# here absorbs: the verdict and the witness bytes, taken before the
# substitution kernel packed x_n into its ints on homogeneous inputs
VERIFY_OUTPUT_SHA256 = {
    ("ishii", "true"): (0, "5bde941e80617baf8bc61be5a479bb561b8467ae5e4a7ef6fe7bd2ef6140e13b"),
    ("ishii", "perturbed"): (1, "7475fe08eec2960259ffcbb8b1f86f8a933a45070155fc86c5220d086db2b8aa"),
    ("lv_divfree", "true"): (0, "5bde941e80617baf8bc61be5a479bb561b8467ae5e4a7ef6fe7bd2ef6140e13b"),
    ("lv_divfree", "perturbed"): (1, "2ee76b428764e0c48fe4b533b28080ab62945138652f195601fddbce66999e69"),
    ("nambu_homogeneous", "true"): (0, "5bde941e80617baf8bc61be5a479bb561b8467ae5e4a7ef6fe7bd2ef6140e13b"),
    ("nambu_homogeneous", "perturbed"): (1, "b9fb573bae73618d85dd0b727bdc5ae29ab215759b75d652610c66b857504524"),
}


@pytest.mark.parametrize("system, kind", sorted(VERIFY_OUTPUT_SHA256))
def test_verify_output_bytes_are_pinned(capsys, tmp_path, system, kind):
    density = _closed_form_density(system)
    if kind == "perturbed":
        density = density + Polynomial.monomial(density.nvars, (2, 0, 0, 2, 0))
    path = tmp_path / "density.json"
    path.write_text(json.dumps(density.to_json()))
    argv = ["darboux", "verify", "--system", system, "--seed", "0", "--density", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_OUTPUT_SHA256[(system, kind)]


def test_darboux_solve_past_the_packable_degree_exits_two(capsys, tmp_path):
    # the augmenter x1^1020 times an aroma function of degree 4 in x1
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps({"A": [[[1020, 0, 0, 0, 0], "1"]]}))
    argv = ["darboux", "solve", "--system", "lv_divfree", "--order", "4", "--parity", "even"]
    code, out, err = run_cli(capsys, *argv, "--augment", str(aug_file))
    assert code == 2 and out == ""
    assert err == "input error: degree 1024 in x1 exceeds the packable 1023\n"


def test_darboux_verify_past_the_packable_degree_exits_two(capsys, tmp_path, monkeypatch):
    # the closed form has a zero residual, so its defect is expanded, and the
    # substitution refuses the degree
    import kahan_aromas.fields as fields_mod

    def refuse(*args, **kwargs):
        raise ValueError("degree 1024 in x1 exceeds the packable 1023")

    monkeypatch.setattr(fields_mod, "rf_substitute", refuse)
    path = tmp_path / "density.json"
    path.write_text(json.dumps(_closed_form_density("lv_divfree").to_json()))
    code, out, err = run_cli(capsys, "darboux", "verify", "--system", "lv_divfree", "--density", str(path))
    assert code == 2 and out == ""
    assert err == "input error: degree 1024 in x1 exceeds the packable 1023\n"


def _long_int(text: str) -> int:
    """int(text) in pieces: int() refuses more digits than the
    interpreter's limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 500):
        value = value * 10 ** len(digits[i : i + 500]) + int(digits[i : i + 500])
    return sign * value


@pytest.mark.parametrize("degree", [900, 1000])
def test_darboux_verify_of_a_high_degree_density_prints_its_witness(capsys, tmp_path, degree):
    # x1^1000 once overflowed the stack of the monomial cache, and the
    # residual of x1^900 has more digits than str() writes for an int
    path = tmp_path / "density.json"
    path.write_text(json.dumps([[[degree, 0, 0, 0, 0], "1"]]))
    code, out, err = run_cli(capsys, "darboux", "verify", "--system", "lv_divfree", "--density", str(path))
    assert code == 1 and err == ""
    witness = json.loads(out)["witness"]
    assert (witness["x"], witness["h"]) == (["4/7", "6", "-4/5"], "11/4")
    P = Polynomial.monomial(5, (degree, 0, 0, 0, 0))
    num, den = witness["residual"].split("/")
    assert len(num) > 4300
    assert Rat(_long_int(num), _long_int(den)) == verify_density(lv_divfree(), P).witness[2]


@pytest.mark.parametrize(
    "coefficient",
    [json.dumps("7" * 5001), "7" * 5001, json.dumps(format_rat(Rat(-(7**6000), 11**5000)))],
    ids=["digits-string", "json-integer", "negative-fraction-string"],
)
def test_darboux_verify_reads_a_coefficient_past_the_int_digit_limit(capsys, tmp_path, coefficient):
    # int() refuses more than 4,300 digits, so such a coefficient once
    # exited 2 (or, as a JSON integer, raised a traceback)
    path = tmp_path / "density.json"
    path.write_text(f"[[[1, 0, 0, 0, 0], {coefficient}]]")
    code, out, err = run_cli(capsys, "darboux", "verify", "--system", "lv_divfree", "--density", str(path))
    assert code == 1 and err == ""
    value = Rat(-(7**6000), 11**5000) if "/" in coefficient else Rat(7 * (10**5001 - 1) // 9)
    P = Polynomial.monomial(5, (1, 0, 0, 0, 0), value)
    assert json.loads(out)["witness"]["residual"] == format_rat(verify_density(lv_divfree(), P).witness[2])


def test_field_json_reads_a_constant_past_the_int_digit_limit(capsys, tmp_path):
    value = Rat(-(7**6000), 11**5000)  # 5,071 digits over 5,207
    path = tmp_path / "field.json"
    path.write_text(json.dumps({**_LV, "constant": [[1, format_rat(value)]]}))
    code, out, err = run_cli(capsys, "kahan", "map", "--field", str(path))
    assert code == 0 and err == ""
    # the h term of the first numerator is h f_1(0)
    numerator = Polynomial.from_json(json.loads(out)["numerators"][0], 5)
    assert numerator.coefficient(pack_exponents([0, 0, 0, 1, 0])) == value


@pytest.mark.parametrize("coefficient", [3, _LONG_INT], ids=["small", "5000-digits"])
def test_field_json_reads_an_integer_coefficient_as_its_string(capsys, tmp_path, coefficient):
    # a field file's coefficient is read like a polynomial file's and a
    # --params value: a JSON integer or a "p/q" string
    outputs = []
    for value in (coefficient, "7" * 5000 if coefficient == _LONG_INT else str(coefficient)):
        path = tmp_path / "field.json"
        path.write_text(_dumps({**_LV, "linear": [[1, 1, value]]}))
        code, out, err = run_cli(capsys, "kahan", "map", "--field", str(path))
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_system_params_read_an_integer_past_the_int_digit_limit(capsys):
    # a JSON integer this long once raised a traceback
    code, out, err = run_cli(capsys, "kahan", "map", "--system", "lv", "--params", '{"alpha": %s}' % ("7" * 5001))
    assert code == 0 and err == ""
    kmap = get_system("lv", {"alpha": format_rat(7 * (10**5001 - 1) // 9)}).kahan_map()
    assert [Polynomial.from_json(p, kmap.nvars) for p in json.loads(out)["numerators"]] == kmap.numerators


def test_darboux_verify_a_density_in_u_exits_two(capsys, tmp_path):
    # every drawn point has u = 0, so no step could refute u; before, the
    # defect was expanded and the search for a witness failed with exit 1
    path = tmp_path / "density.json"
    path.write_text(json.dumps([[[0, 0, 0, 0, 1], "1"]]))
    code, out, err = run_cli(capsys, "darboux", "verify", "--system", "lv_divfree", "--density", str(path))
    assert code == 2 and out == ""
    assert err == "input error: a density must not involve u\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_scale_labels_only_a_tree_that_is_its_own_checkout(tmp_path):
    # a source copy inside a checkout is not that checkout's commit
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_scale", root / "scripts" / "bench_scale.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def git(cwd, *args):
        user = ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
        done = subprocess.run(["git", *user, *args], cwd=cwd, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    git(repo, "add", "tracked.txt")
    git(repo, "commit", "-q", "-m", "one")
    head = git(repo, "rev-parse", "HEAD")
    assert bench.commit_of(repo) == head

    worktree = tmp_path / "worktree"
    git(repo, "worktree", "add", "-q", "--detach", str(worktree))
    git(worktree, "commit", "-q", "--allow-empty", "-m", "two")
    assert bench.commit_of(worktree) == git(worktree, "rev-parse", "HEAD") != head

    copy = repo / "copy"
    shutil.copytree(root / "src" / "kahan_aromas", copy / "src" / "kahan_aromas")
    assert bench.commit_of(copy) is None

    (repo / "tracked.txt").write_text("two\n")
    assert bench.commit_of(repo) == head + "+dirty"


@pytest.mark.parametrize("command", [("kahan", "det"), ("kahan", "map"), ("check", "conditions")])
def test_a_wide_zero_field_costs_what_its_entries_write(capsys, monkeypatch, tmp_path, command):
    # the zero field on R^400 writes no entry, so its partials and products
    # stay within 10 dim calls; a cost set by dim alone (a partial per
    # index tuple, dim^3 of them) fails here at once instead of running on
    import kahan_aromas.fields as fields_mod

    dim = 400

    def bounded(name):
        real, calls = getattr(fields_mod, name), [0]

        def counted(*args):
            calls[0] += 1
            assert calls[0] <= 10 * dim, f"{name} called more than {10 * dim} times"
            return real(*args)

        return counted

    for name in ("_derivative", "_mul_add"):
        monkeypatch.setattr(fields_mod, name, bounded(name))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": dim}))
    code, _, err = run_cli(capsys, *command, "--field", str(path))
    assert (code, err) == (0, "")


def test_a_sparse_wide_field_multiplies_only_its_nonzero_entries(capsys, monkeypatch, tmp_path):
    # the cyclic linear field f_i = x_(i+1) on R^400: each cycle matrix has
    # one entry per row, so its products and traces stay within 10 dim
    # `_mul_add` calls; a walk over all dim^3 entry pairs of a chain fails here
    import kahan_aromas.fields as fields_mod

    dim, real, calls = 400, fields_mod._mul_add, [0]

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 10 * dim, f"_mul_add called more than {10 * dim} times"
        return real(*args)

    monkeypatch.setattr(fields_mod, "_mul_add", counted)
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"dim": dim, "linear": [[i, i % dim + 1, "1"] for i in range(1, dim + 1)]}))
    code, _, err = run_cli(capsys, "check", "conditions", "--field", str(path))
    assert (code, err) == (0, "")
