"""Script language: lexer, parser, evaluator, catalog, and CLI surface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring.dsl_cli import (
    Evaluator,
    REGISTRY,
    _DESIGNATED,
    _FIXED_CHECKS,
    _ROSTER,
    _catalog_rings,
    evaluate,
    generate_catalog,
    main,
    parse,
    tokenize,
)
from finring.errors import (
    EvaluationError,
    ScriptSyntaxError,
    TypeMismatch,
    UnknownName,
)
from finring.morphisms import enumerate_homs
from finring.reports import (
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    VerificationReport,
    Witness,
    reports_to_json,
    strip_timing,
)
from finring.rings import characteristic, zmod

from test_guard import CHILD_ENV, run_child


def test_tokenizer_tracks_positions_and_comments():
    toks = list(tokenize('ring A = zmod(4); # trailing words\n"x y"'))
    kinds = [t.type for t in toks]
    assert kinds == ["NAME", "NAME", "EQUALS", "NAME", "LPAREN", "NUMBER",
                     "RPAREN", "SEMI", "STRING", "EOF"]
    assert toks[8].line == 2 and toks[8].col == 1
    assert toks[8].value == "x y"


def test_parse_render_round_trip_is_identity():
    text = (
        'ring A = zmod(6);\n'
        'ring B = product(zmod(2), zmod(3));\n'
        'ideal J = gen(A; 2, 4);\n'
        'hom f = map(A -> A; 0, 1, 2, 3, 4, 5);\n'
        'ring C = gf(4);\n'
        'ring T = trunc_poly(zmod(2), 2, 1);\n'
        'check cardinality(dup(A, J));\n'
        'check same_amalgam(f, id(A), J);\n'
        'check trunc_poly_amalgam(sub(B; "(1,0)"), gen(B; "(0,1)"), 1, 2);\n'
        'check noetherian(amalg(f, gen(A; 3)));\n'
        'check noetherian_xjx(sub(T), gen(T; "X1"));\n'
    )
    script = parse(text)
    assert script.render() == text
    assert parse(script.render()) == script


@pytest.mark.parametrize("text, error, message", [
    ("ring A = product(zmod(2) zmod(3));", ScriptSyntaxError,
     "line 1, col 26: found 'zmod' (expected ,)"),
    ("ideal J = gen(zmod(4) 2);", ScriptSyntaxError,
     "line 1, col 23: found '2' (expected ;)"),
    ("hom f = map(zmod(2), zmod(2); 0, 1);", ScriptSyntaxError,
     "line 1, col 20: found ',' (expected ->)"),
    ("ring A = zmod(x);", ScriptSyntaxError,
     "line 1, col 15: found 'x' (expected number)"),
    ("ring A = trunc_poly(zmod(2), x, 1);", ScriptSyntaxError,
     "line 1, col 30: found 'x' (expected variable count)"),
    ("ring A = trunc_poly(zmod(2), 1, x);", ScriptSyntaxError,
     "line 1, col 33: found 'x' (expected degree bound)"),
    ("hom f = map(zmod(2) -> zmod(2); 0, 1,);", ScriptSyntaxError,
     "line 1, col 38: found ')' (expected image index)"),
    ("ideal J = gen(zmod(4); x);", ScriptSyntaxError,
     "line 1, col 24: found 'x' (expected element label | quoted label)"),
    ("check d_plus_m(sub(zmod(4);), gen(zmod(4); 2));", ScriptSyntaxError,
     "line 1, col 28: found ')' (expected element label | quoted label)"),
    ("ring A = zmod(4;", ScriptSyntaxError,
     "line 1, col 16: found ';' (expected ))"),
    ("ideal J = gen(zmod(4); 2", ScriptSyntaxError,
     "line 1, col 25: unexpected end (expected ))"),
    ("ring A = zmod 4;", ScriptSyntaxError,
     "line 1, col 15: found '4' (expected ()"),
    ("ring sub = zmod(2);", ScriptSyntaxError,
     "line 1, col 6: name 'sub' is already taken"),
    ("foo A = zmod(2);", ScriptSyntaxError,
     "line 1, col 1: found 'foo' (expected ring | ideal | hom | check)"),
    ("= zmod(2);", ScriptSyntaxError,
     "line 1, col 1: found '=' (expected ring | ideal | hom | check)"),
    ("ring A = product(zmod(2), gen(zmod(2); 1));", TypeMismatch,
     "line 1: expected a ring expression, got an ideal one"),
    ("check cardinality(amalg(zmod(2), gen(zmod(2); 1)));", TypeMismatch,
     "line 1: expected a hom expression, got a ring one"),
    ("ring A = product(zmod(2), dup(zmod(2), gen(zmod(2); 1)));", TypeMismatch,
     "line 1: expected a ring expression, got an amalgam one"),
    ("check cardinality(dup(zmod(2), zmod(2)));", TypeMismatch,
     "line 1: expected an ideal expression, got a ring one"),
], ids=["comma", "semicolon", "arrow", "number", "variable-count",
        "degree-bound", "image-index", "label", "empty-labels", "rparen",
        "end", "lparen", "reserved-name", "statement", "statement-token",
        "ring-kind", "hom-kind", "amalgam-kind", "ideal-kind"])
def test_malformed_scripts_keep_their_error_text(text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert str(err.value) == message


def test_syntax_errors_carry_location():
    with pytest.raises(ScriptSyntaxError) as err:
        parse("ring A = zmod(4)\nring B = zmod(2);")
    assert "line 2" in str(err.value)
    with pytest.raises(ScriptSyntaxError) as err:
        parse('ideal J = gen(zmod(4); "unterminated);')
    assert "unterminated" in str(err.value)


def test_unknown_names_and_type_errors():
    with pytest.raises(UnknownName):
        parse("check cardinality(dup(Missing, J));")
    with pytest.raises(UnknownName):
        parse("check not_a_check(zmod(2));")
    with pytest.raises(TypeMismatch):
        parse("ring A = gen(zmod(4); 2);")
    with pytest.raises(TypeMismatch):
        parse("check cardinality(zmod(4));")
    with pytest.raises(TypeMismatch):
        parse("check iterated_iso(id(zmod(2)), gen(zmod(2); 1), zmod(2));")
    with pytest.raises(ScriptSyntaxError):
        parse("ring A = zmod(2); ring A = zmod(3);")


def test_definitions_must_precede_use():
    with pytest.raises(UnknownName):
        parse("check cardinality(dup(A, J));\nring A = zmod(4);")


def test_the_first_error_in_the_source_is_reported():
    # the scanner reaches line 5 only after the parser has read line 1
    with pytest.raises(UnknownName) as err:
        parse("ring A = Missing;\n\n\n\nring B = zmod(2) @;")
    assert str(err.value) == "line 1: unknown name 'Missing'"
    valid = "".join(f"ring A{i} = zmod({i + 2});\n" for i in range(50))
    with pytest.raises(ScriptSyntaxError) as err:
        parse(valid + "check cardinality(dup(A0, gen(A0; 1))) @;")
    assert (err.value.line, err.value.col) == (51, 40)
    assert "unexpected character '@'" in str(err.value)


def test_evaluator_caches_by_rendered_form():
    script = parse("ring A = zmod(12);\ncheck cardinality(dup(A, gen(A; 2)));")
    ev = Evaluator(script.definitions)
    expr = script.checks[0].args[0]
    assert ev.value(expr) is ev.value(expr)
    # the named ring and a structurally equal literal share nothing: the
    # cache key is the rendered text, not the value
    a1 = ev.value(script.definitions[0].expr)
    assert a1.order == 12


def test_evaluate_reports_in_order_with_timing():
    script = parse(
        "ring A = zmod(4);\n"
        "ideal J = gen(A; 2);\n"
        "check cardinality(dup(A, J));\n"
        "check reduced_criterion(dup(A, J));\n"
    )
    reports = evaluate(script)
    assert [r.check for r in reports] == ["cardinality", "reduced_criterion"]
    assert all(r.status == PASS for r in reports)
    assert all(r.millis >= 0 for r in reports)
    assert reports[0].instance == "dup(A, J)"


def test_precondition_failures_become_hypothesis_not_met():
    # non-prime ideal handed to cpi_prime
    script = parse("check cpi_prime(zmod(12), gen(zmod(12); 4));")
    rep = evaluate(script)[0]
    assert rep.status == HYPOTHESIS_NOT_MET
    assert "prime" in rep.witness("note")

    # a map that is not a hom
    script = parse("check kernel_identity(map(zmod(4) -> zmod(4); 0, 3, 2, 1), id(zmod(4)));")
    rep = evaluate(script)[0]
    assert rep.status == HYPOTHESIS_NOT_MET


def test_unknown_label_in_generator_list():
    script = parse('check cardinality(dup(zmod(4), gen(zmod(4); "nope")));')
    rep = evaluate(script)[0]
    assert rep.status == HYPOTHESIS_NOT_MET
    assert "nope" in rep.witness("note")


def test_registry_is_complete():
    assert len(REGISTRY) == 23
    for spec in REGISTRY.values():
        assert spec.summary and spec.statement and spec.runner is not None
        assert spec.params


def test_variadic_signature_of_d_plus_m():
    spec = REGISTRY["d_plus_m"]
    assert spec.accepts(["subring", "ideal"])
    assert spec.accepts(["subring", "ideal", "ideal"])
    assert not spec.accepts(["subring"])
    assert not spec.accepts(["subring", "ideal", "ring"])


def test_catalog_determinism_and_seed_sensitivity():
    a = generate_catalog(0, 256)
    b = generate_catalog(0, 256)
    c = generate_catalog(1, 256)
    assert a == b
    assert a != c


# sha256 of generate_catalog(seed, budget), frozen so that a faster ideal
# lattice or hom search cannot change one byte of the catalog
CATALOG_SHA256 = {
    (0, 12): "9acad814f94d0b085788acce073f0cdbe1b022dee219c57b8e82206fb56d506a",
    (0, 16): "eff2d01c4f71fa3e08a4d700d596b4eba3723894d30b776332e41c3eadf6bcbc",
    (0, 32): "3b3d475a6bd457b5d97932812c0d733e27c4128a4bcf07e03f081929b1107fb6",
    (0, 64): "306a193b82ae3a45dd51abfb54aae181f321d97a03f24ca22229b6fb7568b5f6",
    (0, 256): "eeb04642c6496e98bdffc2fce00b2d3bce288c9b4890206cac27fa84e5282a5f",
    (0, 1024): "2c95779ed436b7535cf1d59396f51b9579de4c5eee27442e71455f1594b3b4fc",
    (1, 12): "e59923df2fcef288f5605237d02ac305cfcc0425686f7389d359a09dee4dada7",
    (1, 16): "8c7bb305253f38b22f7d1de22981ac239d5fe403e7a8423196c0463278b960b7",
    (1, 32): "8f1386a39f2d392e1ae52e2ab4d414382fd28afeaf6033d749dd6e504c22342f",
    (1, 64): "516b883d1a7351ea44eb9556a5fb3f5d95f351700c18f51eea5cb143735e3d7f",
    (1, 256): "b462355e64bc91ea0155db531e53842d2f074a4bd2e3291ad53b4898fe67d41b",
    (1, 1024): "39cb54040aaa6f1954cf2a5b7fce203193b3e8d2fa52640b6a779b399da9d354",
    (7, 12): "d45b28f21cc35a8c0684df49fd7bab70e4305059902411f12dcfa2dc3c21806b",
    (7, 16): "479001f7854c2e5f282692c2cde7932f0a702cbfe66c5a61ad27ee3ad053d185",
    (7, 32): "98823f0c9a37216b10eceb147742f4f2723809c2c6b8546c5f7b9c17d4b5cb46",
    (7, 64): "ae1cdc4881b200ac04a2f77c5d8c6479ba6be24e850acc2bbf25d77729346101",
    (7, 256): "82062adbfd1cb8ee040074505935caa33fc4555bc6c34f6c7eaff3ddb7b1532f",
    (7, 1024): "caf7d367b46805401a591cfe1f8753ad2c67305c415131b9ee621aa361b29d1f",
}


@pytest.mark.parametrize("seed, budget", sorted(CATALOG_SHA256))
def test_catalog_text_is_pinned(seed, budget):
    text = generate_catalog(seed, budget)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[seed, budget]


def test_fixed_catalog_table_names_roster_rings_and_is_emitted_whole():
    # a line whose ring is absent is left out, so a misspelt ring name
    # would drop its check without a trace
    roster = {name for name, _ in _ROSTER}
    rows = [row for row in _FIXED_CHECKS.splitlines() if row != "<hom pairs>"]
    placeholder = re.compile(r"\{(\w+)[^}]*\}")
    for row in rows + list(_DESIGNATED):
        assert set(placeholder.findall(row)) <= roster, row
    lines = generate_catalog(0, 256).splitlines()
    for row in rows + [f"check cardinality({d});" for d in _DESIGNATED]:
        parts = placeholder.split(row)  # text, ring, text, ring, ..., text
        pattern = "".join(re.escape(p) if k % 2 == 0 else rf"I_{p}_\d+"
                          for k, p in enumerate(parts))
        assert any(re.fullmatch(pattern, line) for line in lines), row
    # TF4 has order 16
    assert "check d_plus_m(sub(TF4)" not in generate_catalog(0, 12)


def test_catalog_skips_only_hom_searches_that_cannot_succeed():
    # generate_catalog skips the pair (A, B) when char(B) does not divide
    # char(A); every skipped search must find nothing and be exhausted
    sources = [ring for _, _, ring in _catalog_rings(256) if ring.order <= 12] + [zmod(1)]
    skipped = 0
    for A in sources:
        for B in sources:
            if characteristic(A) % characteristic(B):
                search = enumerate_homs(A, B, unital=True)
                assert not search.found and search.exhausted, (A.name, B.name)
                skipped += 1
    assert skipped > len(sources) ** 2 // 2


@pytest.mark.parametrize("budget", [2, 4, 8, 11])
def test_catalog_below_minimum_budget_is_empty_with_warning(budget, capsys):
    text = generate_catalog(0, budget)
    assert "warning" in text
    assert "check" not in text
    assert parse(text).checks == ()
    assert main(["catalog", "--budget", str(budget)]) == 0
    assert capsys.readouterr() == (text, "")


def test_catalog_respects_budget():
    small = generate_catalog(0, 32)
    reports = evaluate(parse(small))
    assert reports
    assert not any(r.status == FAIL for r in reports)


def test_cli_check_json_and_exit_codes(tmp_path, capsys):
    script = tmp_path / "s.fr"
    script.write_text(
        "ring A = zmod(4);\ncheck cardinality(dup(A, gen(A; 2)));\n"
    )
    out = tmp_path / "r.json"
    code = main(["check", str(script), "--json", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["version"] == "1"
    assert payload["reports"][0]["check"] == "cardinality"
    assert {"check", "instance", "status", "witnesses",
            "counterexample", "millis"} <= set(payload["reports"][0])


def test_cli_syntax_error_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.fr"
    bad.write_text("ring A = ;")
    assert main(["check", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.fr")]) == 2


def test_cli_fail_report_is_exit_one(tmp_path, monkeypatch):
    from finring import dsl_cli
    from finring.reports import VerificationReport

    def broken(vals, instance):
        return VerificationReport("cardinality", instance, FAIL)

    spec = dsl_cli.REGISTRY["cardinality"]
    monkeypatch.setitem(
        dsl_cli.REGISTRY, "cardinality",
        type(spec)(spec.name, spec.params, spec.variadic, spec.summary,
                   spec.statement, broken),
    )
    script = tmp_path / "s.fr"
    script.write_text("check cardinality(dup(zmod(2), gen(zmod(2); 1)));\n")
    assert main(["check", str(script)]) == 1


def test_cli_crash_in_a_check_exits_3_with_one_line(monkeypatch, tmp_path, capsys):
    from finring import dsl_cli

    def crash(vals, instance):
        raise RuntimeError("boom")

    spec = dsl_cli.REGISTRY["cardinality"]
    monkeypatch.setitem(
        dsl_cli.REGISTRY, "cardinality",
        type(spec)(spec.name, spec.params, spec.variadic, spec.summary,
                   spec.statement, crash),
    )
    script = tmp_path / "s.fr"
    script.write_text("ring R = zmod(2);\n"
                      "  check cardinality(dup(R, gen(R; 1)));\n")
    assert main(["check", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: cardinality: boom at 2:3\n"
    assert captured.out == ""


def test_cli_guard_flag_limits_construction(tmp_path, capsys):
    script = tmp_path / "s.fr"
    script.write_text(
        "check cardinality(dup(zmod(12), gen(zmod(12); 2)));\n"
    )
    assert main(["check", str(script), "--guard", "8"]) == 0
    assert "HYPOTHESIS_NOT_MET" in capsys.readouterr().out


def test_cli_catalog_and_explain(tmp_path, capsys):
    out = tmp_path / "cat.fr"
    assert main(["catalog", "--seed", "0", "--budget", "64",
                 "--out", str(out)]) == 0
    assert parse(out.read_text()).checks

    assert main(["explain", "cardinality"]) == 0
    text = capsys.readouterr().out
    assert "|A| * |J|" in text
    assert main(["explain", "nope"]) == 2
    assert main(["explain"]) == 0


def test_evaluation_error_carries_check_location():
    script = parse("check cardinality(dup(zmod(4), gen(zmod(4); 2)));")

    from finring import dsl_cli

    spec = dsl_cli.REGISTRY["cardinality"]
    broken = type(spec)(spec.name, spec.params, spec.variadic, spec.summary,
                        spec.statement, lambda vals, inst: 1 / 0)
    original = dsl_cli.REGISTRY["cardinality"]
    dsl_cli.REGISTRY["cardinality"] = broken
    try:
        with pytest.raises(EvaluationError) as err:
            evaluate(script)
        assert "line 1" in str(err.value)
    finally:
        dsl_cli.REGISTRY["cardinality"] = original


def test_strip_timing_normalizes_reports():
    from finring.reports import reports_to_json

    script = parse("check cardinality(dup(zmod(4), gen(zmod(4); 2)));")
    r1 = strip_timing(reports_to_json(evaluate(script)))
    r2 = strip_timing(reports_to_json(evaluate(script)))
    assert r1 == r2


def _json_dumps_form(reports) -> str:
    doc = {"version": "1", "reports": [
        {"check": r.check, "instance": r.instance, "status": r.status,
         "witnesses": [{"name": w.name, "value": w.value} for w in r.witnesses],
         "counterexample": r.counterexample, "millis": round(r.millis, 3)}
        for r in reports]}
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


_AWKWARD = 'q"b\\s\nt\t\u00e9\u00b2\x00'


@pytest.mark.parametrize("make", [
    lambda: [],
    lambda: [VerificationReport("cardinality", "zmod(4)", PASS)],
    lambda: [VerificationReport("c", "i", FAIL, [Witness("n", "v")], "cex"),
             VerificationReport("c", "i", PASS, [Witness("n", "v")] * 3, None)],
    lambda: [VerificationReport(_AWKWARD, _AWKWARD, _AWKWARD,
                                [Witness(_AWKWARD, _AWKWARD)], _AWKWARD)],
    lambda: [VerificationReport("c", "i", PASS, millis=m)
             for m in (0.0, 1e-05, 0.001, 12345.678, 1e16)],
    lambda: evaluate(parse(generate_catalog(0, 16))),
], ids=["empty", "no-witnesses", "counterexample", "escapes", "millis",
        "catalog-16"])
def test_report_writer_bytes_equal_json_dumps(make):
    reports = make()
    assert reports_to_json(reports) == _json_dumps_form(reports)


def test_python_dash_m_runs_the_cli_without_warnings():
    done = run_child(["-m", "finring", "explain", "cardinality"], timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("cardinality(")


@pytest.mark.parametrize("args, code", [
    (["explain"], 0),
    (["explain", "cardinality"], 0),
    (["catalog", "--budget", "16"], 0),
    (["check", "{script}", "--json", "{out}"], 0),
    (["--help"], 0),
    ([], 2),
], ids=["explain", "explain-one", "catalog", "check", "help", "no-command"])
def test_cli_on_a_closed_pipe(tmp_path, args, code):
    # the reader closes its end before the child has written anything
    script, out = tmp_path / "s.fr", tmp_path / "out.json"
    script.write_text("ring A = zmod(4);\ncheck cardinality(dup(A, gen(A; 2)));\n")
    args = [a.format(script=script, out=out) for a in args]
    proc = subprocess.Popen([sys.executable, "-m", "finring", *args], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == code
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == ""
    if args[:1] == ["check"]:
        assert json.loads(out.read_text())


def test_explain_output_matches_golden_text(capsys):
    # `finring explain`, then `finring explain NAME` for each check in order
    assert main(["explain"]) == 0
    for name in REGISTRY:
        assert main(["explain", name]) == 0
    golden = Path(__file__).parent / "golden" / "explain.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("guard", ["0", "-3"])
def test_cli_guard_below_one_is_a_usage_error(tmp_path, capsys, guard):
    script = tmp_path / "s.fr"
    script.write_text("check cardinality(dup(zmod(2), gen(zmod(2); 1)));\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(script), "--guard", guard])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"finring check: error: argument --guard: must be at least 1, got {guard}")


def test_cli_guard_above_the_table_dtype_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "s.fr"
    script.write_text("check cardinality(dup(zmod(2), gen(zmod(2); 1)));\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(script), "--guard", "32768"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "finring check: error: argument --guard: must be at most 32767, got 32768")


def test_digits_that_are_not_decimal_are_syntax_errors(tmp_path, capsys):
    with pytest.raises(ScriptSyntaxError) as err:
        parse("ring A = zmod(\u00b2);")
    assert (err.value.line, err.value.col) == (1, 15)
    assert "unexpected character" in str(err.value)
    script = tmp_path / "s.fr"
    script.write_text("ring A = zmod(4);\nring B = zmod(1\u00b2);\n", encoding="utf-8")
    assert main(["check", str(script)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2, col 16: unexpected character '\u00b2'\n")
    # decimal digits of other scripts still read as numbers
    assert parse("ring A = zmod(\u0664);").definitions[0].expr.render() == "zmod(4)"


def test_violated_invariant_fails_its_check(monkeypatch):
    from finring import constructions

    monkeypatch.setattr(constructions, "ideal_mask_witness", lambda ring, mask: (0, 0))
    script = parse("check nagata_as_amalgam(id(zmod(2)), gen(zmod(2); 1));\n"
                   "check cardinality(dup(zmod(2), gen(zmod(2); 1)));")
    first, second = evaluate(script)
    assert first.status == FAIL
    assert first.counterexample == "embedded module is not an ideal"
    assert second.status == PASS


@pytest.mark.parametrize("check, note", [
    ("cardinality(dup(gf(1000000007), gen(zmod(2); 1)))",
     "order 1000000007 exceeds size guard 4096"),
    ("cardinality(dup(trunc_poly(zmod(2), 3000000, 3000000), gen(zmod(2); 1)))",
     "trunc_poly in 3000000 variables of degree 3000000 exceeds size guard 4096"),
    ("cardinality(dup(trunc_poly(zmod(2), 10000000000000000000000, "
     "10000000000000000000000), gen(zmod(2); 1)))",
     "trunc_poly in 10000000000000000000000 variables of degree "
     "10000000000000000000000 exceeds size guard 4096"),
    ("cardinality(dup(trunc_poly(zmod(2), 100000000, 0), gen(zmod(2); 1)))",
     "trunc_poly in 100000000 variables of degree 0 exceeds size guard 4096"),
    ("iterated_iso(id(zmod(2)), gen(zmod(2); 1), 99999999999999999999)",
     "n = 99999999999999999999 exceeds size guard 4096"),
    ("kernel_identity(map(zmod(2) -> zmod(2); 0, 99999999999999999999), id(zmod(2)))",
     "map: map: map_range at ()"),
], ids=["gf", "trunc_poly", "trunc_poly-beyond-int64", "trunc_poly-degree-0",
        "iterated_iso", "map-image-beyond-int64"])
def test_huge_numbers_are_refused_before_big_integer_work(tmp_path, check, note):
    # a child under a timeout and a 2 GiB address space, so that a hang or a
    # huge allocation fails the test instead of stalling the suite
    script, out = tmp_path / "s.fr", tmp_path / "r.json"
    script.write_text(f"check {check};\n")
    done = run_child(["-m", "finring", "check", str(script), "--json", str(out)],
                     limit=2 << 30, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(out.read_text())["reports"][0]
    assert report["status"] == HYPOTHESIS_NOT_MET
    assert report["witnesses"] == [{"name": "note", "value": note}]


# -- no script crashes the CLI ---------------------------------------------------------


def _nested(depth: int) -> str:
    """A ring expression `depth` levels deep: zmod(2) under trunc_poly(·, 1, 0),
    which keeps the order at 2."""
    text = "zmod(2)"
    for _ in range(depth - 1):
        text = f"trunc_poly({text}, 1, 0)"
    return text


def _chain(length: int, alias: bool = False) -> str:
    """Definitions A0 .. A{length-1}, each one level deeper than the last:
    A0 = zmod(2), then A{k} = trunc_poly(A{k-1}, 1, 0) or, with `alias`,
    A{k} = A{k-1}."""
    step = "A{}" if alias else "trunc_poly(A{}, 1, 0)"
    return "ring A0 = zmod(2);\n" + "".join(
        f"ring A{k} = {step.format(k - 1)};\n" for k in range(1, length))


def _check_bytes(data: bytes) -> tuple[int, str, str]:
    """`finring check` run in process on a file that holds `data`: the exit
    code, standard output and standard error."""
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "s.fr"
        script.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(script)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("data, message", [
    (b"ring A = zmod(4);\n\xff",
     "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    ("ring A = {};\n".format("product(" * 200 + "zmod(2)" + ", zmod(2))" * 200).encode(),
     "line 1, col 810: expression nested more than 100 levels deep"),
    (_chain(400).encode() + b"check dorroh(gen(A399; 1));\n",
     "line 101, col 24: expression nested more than 100 levels deep"),
    (_chain(240).encode() + b"check dorroh(gen(A239; 1));\n",
     "line 101, col 24: expression nested more than 100 levels deep"),
    (_chain(600, alias=True).encode() + b"check dorroh(gen(A599; 1));\n",
     "line 101, col 13: expression nested more than 100 levels deep"),
    (b"ring A = zmod(" + b"9" * 5000 + b");\n",
     "line 1, col 15: number of 5000 digits is too long"),
], ids=["not_utf8", "nested_200", "chain_400", "chain_240", "alias_chain_600",
        "number_of_5000_digits"])
def test_inputs_that_once_crashed_are_usage_errors(data, message):
    assert _check_bytes(data) == (2, "", f"error: {message}\n")


def test_depth_bound_counts_forms_and_names():
    parse(f"ring A = {_nested(100)};")
    with pytest.raises(ScriptSyntaxError) as err:
        parse(f"ring A = {_nested(101)};")
    # the innermost zmod is the form that goes past the bound
    assert (err.value.line, err.value.col) == (1, 10 + len("trunc_poly(") * 100)
    parse(_chain(100))
    parse(_chain(100, alias=True))
    for alias in (False, True):
        with pytest.raises(ScriptSyntaxError) as err:
            parse(_chain(101, alias))
        assert err.value.line == 101
    # a name counts as its definition, so one more form around it goes past
    with pytest.raises(ScriptSyntaxError) as err:
        parse(_chain(100) + "check dorroh(gen(A99; 1));")
    assert (err.value.line, err.value.col) == (101, 18)


@pytest.mark.parametrize("text, name", [
    (f"ring A = {_nested(98)};\n", "A"),
    (_chain(98), "A97"),
], ids=["nesting", "chain"])
def test_expressions_at_the_depth_bound_still_evaluate(text, name):
    # the ring is 98 levels deep and dup(R, gen(R; 1)) two levels above it,
    # so the checked expressions are 100 deep
    checks = (f"check cardinality(dup({name}, gen({name}; 1)));\n"
              f"check cpi_prime({name}, gen({name}; 0));\n")
    code, out, err = _check_bytes((text + checks).encode())
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "2 checks: 2 conclusive, 0 hypothesis_not_met, 0 failed"


_CATALOG_16 = [line + "\n" for line in generate_catalog(0, 16).splitlines()
               if line and not line.startswith("#")]
_DEFS_16 = [line for line in _CATALOG_16 if not line.startswith("check ")]
_CHECKS_16 = [line for line in _CATALOG_16 if line.startswith("check ")]


@st.composite
def _spliced_catalogs(draw) -> bytes:
    """Every definition of the budget-16 catalog and a few of its checks, in
    any order, and then perhaps a span cut out and arbitrary bytes put in."""
    checks = draw(st.lists(st.sampled_from(_CHECKS_16), max_size=4))
    lines = draw(st.permutations(_DEFS_16)) if draw(st.booleans()) else _DEFS_16
    data = "".join(lines + checks).encode()
    if draw(st.booleans()):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 64)))
        data = data[:start] + draw(st.binary(max_size=8)) + data[end:]
    return data


def _assert_exits_cleanly(data: bytes) -> None:
    """No exception escapes, and a run that does not exit 0 or 1 writes one
    `error:` line and nothing else."""
    code, _, err = _check_bytes(data)
    assert code in {0, 1, 2, 3}
    if code in {2, 3}:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


@settings(deadline=None, max_examples=200)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_escape_the_cli(data):
    _assert_exits_cleanly(data)


@settings(deadline=None, max_examples=60)
@given(_spliced_catalogs())
def test_spliced_catalog_statements_never_escape_the_cli(data):
    _assert_exits_cleanly(data)


# -- one verdict rule ------------------------------------------------------------------


def test_verdict_fails_a_report_only_when_its_condition_does_not_hold():
    rep = VerificationReport("cardinality", "x")
    assert rep.verdict(True, "unused") is rep
    assert (rep.status, rep.counterexample) == (PASS, None)
    assert rep.verdict(np.bool_(True), "unused") is rep
    assert (rep.status, rep.counterexample) == (PASS, None)
    assert rep.verdict(False, "order law violated") is rep
    assert (rep.status, rep.counterexample) == (FAIL, "order law violated")
    # the status is still the third positional argument
    kept = VerificationReport("noetherian_xjx", "x", HYPOTHESIS_NOT_MET)
    assert kept.verdict(True, "unused").status == HYPOTHESIS_NOT_MET
