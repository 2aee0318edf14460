"""CLI behavior: schemas, determinism, exit codes, round trips."""

import json

import pytest

from kahan_aromas.cli import main, render_series
from kahan_aromas.corpus import lv_divfree
from kahan_aromas.poly import Polynomial
from kahan_aromas.rationals import Rat


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_aromas_enumerate(capsys):
    code, out, _ = run_cli(capsys, "aromas", "enumerate", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["aromas"] == ["C1([[]])", "C1([][])", "C2(;[])", "C3(;;)"]


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
    # witness exists: the search gives up with its attempt count
    density_file.write_text(json.dumps((bad * Polynomial.variable(5, 4)).to_json()))
    code, out, err = run_cli(
        capsys, "darboux", "verify", "--field", str(field_file), "--density", str(density_file)
    )
    assert code == 1 and out == "" and "attempts" in err


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
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    import kahan_aromas.cli as cli_mod

    # each call on a parser of its own
    separate = []
    for argv in _MIXED_CALLS:
        cli_mod._parser.cache_clear()
        separate.append(_call(capsys, argv))
    built = []
    real_build = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or real_build())
    cli_mod._parser.cache_clear()
    # consecutive calls on one parser, forwards and backwards
    assert [_call(capsys, argv) for argv in _MIXED_CALLS] == separate
    assert [_call(capsys, argv) for argv in reversed(_MIXED_CALLS)] == separate[::-1]
    assert len(built) == 1


def test_render_series_shapes():
    assert render_series({"1": Rat(1), "C2(;)": Rat(-1, 4)}) == "1 - (1/8) h^2 F(C2(;))"
    assert render_series({}) == "0"
    assert render_series({"C1()": Rat(1)}) == "h F(C1())"


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


@pytest.mark.parametrize(
    "field, density, augment, message",
    [
        (
            {**_LV, "quadratic": [[1, 1, 2, "1/0"]]},
            None,
            None,
            "zero denominator",
        ),
        ({**_LV, "quadratic": [[1, 1, 2, 1]]}, None, None, "rational string"),
        (_LV, [[[0, 0, 0, 0, 0], "1/0"]], None, "zero denominator"),
        (_LV, [[[0, 0, 0, 0, 0], float("inf")]], None, "malformed density JSON"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 0], "1/0"]]}, "zero denominator"),
        ([_LV], None, None, "must be an object"),
        (_LV, None, [["a"]], "[label, polynomial] pairs"),
        (_LV, None, [1, 2], "[label, polynomial] pairs"),
        (_LV, None, {"a": [[[1, 0, 0, 1, 0], "1"]]}, "must not involve h or u"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 1], "1"]]}, "must not involve h or u"),
        (_LV, None, {"a": [[[1, 0, 0], "1"]]}, "arity"),
        (_LV, None, {"a": []}, "zero polynomial"),
        (_LV, [[[1, 0, 0, 0, 0], 0.1]], None, "malformed density JSON"),
        (_LV, [[[1, 0, 0, 0, 0], True]], None, "malformed density JSON"),
        (_LV, None, {"a": [[[1, 0, 0, 0, 0], 0.5]]}, "malformed augmenter"),
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
    ],
    ids=[
        "field-zero-denominator",
        "field-coefficient-not-a-string",
        "density-zero-denominator",
        "density-infinite-coefficient",
        "augmenter-zero-denominator",
        "field-not-an-object",
        "augmenter-not-a-pair",
        "augmenter-not-a-list-of-pairs",
        "augmenter-with-h",
        "augmenter-with-u",
        "augmenter-wrong-arity",
        "augmenter-empty",
        "density-float-coefficient",
        "density-bool-coefficient",
        "augmenter-float-coefficient",
        "system-missing-parameter",
        "system-unknown-parameter",
        "system-parameters-not-an-object",
        "unknown-system",
        "unknown-suite",
    ],
)
def test_malformed_input_exits_two(capsys, tmp_path, field, density, augment, message):
    # a tuple in place of a field is the whole command line
    field_file = tmp_path / "field.json"
    field_file.write_text(json.dumps(field))
    if isinstance(field, tuple):
        argv = list(field)
    elif density is not None:
        density_file = tmp_path / "density.json"
        density_file.write_text(json.dumps(density))
        argv = ["darboux", "verify", "--field", str(field_file), "--density", str(density_file)]
    else:
        argv = ["darboux", "solve", "--field", str(field_file), "--order", "2"]
        if augment is not None:
            aug_file = tmp_path / "aug.json"
            aug_file.write_text(json.dumps(augment))
            argv += ["--augment", str(aug_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and message in err
