"""Acceptance gate: every top-level guarantee, one printed line each.

All criteria run against the deterministic catalog (seed 0, budget 256)
through the same parse/evaluate pipeline the command line uses. Expected
values on designated instances are frozen from independent computations in
the unit test oracles.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from finring.dsl_cli import evaluate, generate_catalog, parse
from finring.reports import (
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    THEOREM_BACKED,
    reports_to_json,
    strip_timing,
)
from finring.rings import zmod
from finring.subobjects import all_ideals, ideal_from_generators

from test_guard import run_child

SEED, BUDGET = 0, 256
GOLDEN = Path(__file__).parent / "golden" / "catalog_seed0_b256.json"

_catalog_text = generate_catalog(SEED, BUDGET)
_script = parse(_catalog_text)
_t0 = time.perf_counter()
REPORTS = evaluate(_script)
ELAPSED = time.perf_counter() - _t0

BY_CHECK: dict[str, list] = {}
for _r in REPORTS:
    BY_CHECK.setdefault(_r.check, []).append(_r)


def _criterion(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _ideal_catalog_name(ring_label: str, n: int, gens: list[int]) -> str:
    ring = zmod(n)
    target = ideal_from_generators(ring, gens)
    for k, ideal in enumerate(all_ideals(ring, cap=32)):
        if ideal == target:
            return f"I_{ring_label}_{k}"
    raise AssertionError("ideal not in catalog enumeration")


def test_criterion_1_cardinality_law():
    reps = BY_CHECK["cardinality"]
    instances = {r.instance for r in reps}
    ok = (
        len(instances) >= 30
        and all(r.status == PASS for r in reps)
        and all(r.witness("product_law_exact") == "True" for r in reps)
    )
    _criterion(1, ok,
               f"order |A|*|J| exact on {len(instances)} amalgam instances")


def test_criterion_2_pullback_identity():
    reps = BY_CHECK["pull_identity"]
    ok = bool(reps) and all(
        r.status == PASS
        and r.witness("element_sets_equal") == "True"
        and r.witness("tables_equal") == "True"
        for r in reps
    )
    _criterion(2, ok,
               f"element-set and table equality with the fiber product on "
               f"{len(reps)} instances")


def test_criterion_3_canonical_isomorphisms():
    reps = BY_CHECK["canonical_isos"]
    names = (
        "mod_embedded_ideal_iso_base_quotient",
        "mod_zero_cross_J_iso_base",
        "mod_preimage_cross_zero_iso_image_plus_ideal",
        "mod_preimage_cross_J_iso_residues",
    )
    all_valid = bool(reps) and all(
        r.status == PASS
        and all("valid=True" in r.witness(n) for n in names)
        for r in reps
    )
    surjective_hit = any(
        r.witness("hom_surjective") == "True"
        and "valid=True" in r.witness("surjective_variant_iso_target_quotient")
        for r in reps
    )
    _criterion(3, all_valid and surjective_hit,
               f"four quotient presentations validate on {len(reps)} "
               f"instances, surjective variant exercised")


def test_criterion_4_reducedness_criterion():
    reps = BY_CHECK["reduced_criterion"]
    all_ok = bool(reps) and all(
        r.status == PASS and r.witness("equivalence_holds") == "True"
        for r in reps
    )
    dup4 = f"dup(R4, {_ideal_catalog_name('R4', 4, [2])})"
    dup6 = f"dup(R6, {_ideal_catalog_name('R6', 6, [2])})"
    by_instance = {r.instance: r for r in reps}
    ok = (
        all_ok
        and by_instance[dup4].witness("amalgam_reduced") == "False"
        and by_instance[dup6].witness("amalgam_reduced") == "True"
    )
    _criterion(4, ok,
               "reduced iff base reduced and Nilp(B) meets J trivially; "
               "designated duplications disagree as expected")


def test_criterion_5_domain_criterion():
    reps = BY_CHECK["domain_criterion"]
    conclusive = [r for r in reps if r.status == PASS]
    excluded = [r for r in reps if r.status == HYPOTHESIS_NOT_MET]
    ok = (
        bool(conclusive)
        and all(r.witness("equivalence_holds") == "True" for r in conclusive)
        and all(len(r.witness("finite_degeneracy")) > 0 for r in conclusive)
        and len(conclusive) + len(excluded) == len(reps)
        and all("J = 0" in r.witness("note") for r in excluded)
    )
    _criterion(5, ok,
               f"domain equivalence on {len(conclusive)} instances with "
               f"J nonzero; degeneracy documented; {len(excluded)} zero-J "
               f"instances excluded by hypothesis")


def test_criterion_6_retraction_roundtrip_and_negative():
    roundtrips = BY_CHECK["retraction_roundtrip"]
    ok_rt = bool(roundtrips) and all(
        r.status == PASS
        and r.witness("section_found") == "True"
        and r.witness("recovered_ideal_equals_J") == "True"
        for r in roundtrips
    )
    negatives = [
        r for r in BY_CHECK["retraction_criterion"]
        if r.instance == "h_R2_R2_0, h_R4_R2_0"
    ]
    ok_neg = len(negatives) == 1 and (
        negatives[0].status == PASS
        and negatives[0].witness("section_found") == "False"
        and negatives[0].witness("no_presentation_exists") == "True"
    )
    _criterion(6, ok_rt and ok_neg,
               f"sections recovered with J = Ker on {len(roundtrips)} "
               f"instances; designated negative certified section-free")


def test_criterion_7_iteration():
    reps = BY_CHECK["iterated_iso"]
    by_n = {2: [], 3: []}
    for r in reps:
        n = int(r.instance.rsplit(",", 1)[1].strip())
        by_n[n].append(r)
    ok = (
        len(by_n[2]) >= 5
        and len(by_n[3]) >= 5
        and all(
            r.status == PASS
            and r.witness("witness_is_bijective_hom") == "True"
            and r.witness("order_law_holds") == "True"
            for r in reps
        )
    )
    _criterion(7, ok,
               f"n-fold amalgam is a duplication of the (n-1)-fold one on "
               f"{len(by_n[2])} instances at n=2 and {len(by_n[3])} at n=3")


def test_criterion_8_named_constructions():
    checks = {
        "nagata_as_amalgam": ("collapse_map_is_iso", "True"),
        "d_plus_m": ("iso_witness_valid", "True"),
        "cpi_ideal": ("iso_witness_valid", "True"),
        "trunc_poly_amalgam": ("iso_witness_valid", "True"),
    }
    ok = True
    for name, (wit, expected) in checks.items():
        reps = BY_CHECK.get(name, [])
        ok = ok and bool(reps) and all(
            r.status == PASS and r.witness(wit) == expected for r in reps
        )
    dorrohs = BY_CHECK.get("dorroh", [])
    ok = ok and bool(dorrohs) and all(
        r.status == PASS and "valid: True" in r.witness("quotient_by_part_iso_zmod")
        for r in dorrohs
    )
    cpis = BY_CHECK.get("cpi_prime", [])
    designated = [
        r for r in cpis
        if r.instance == f"R12, {_ideal_catalog_name('R12', 12, [2])}"
    ]
    ok = ok and len(designated) == 1 and (
        designated[0].witness("amalgam_order") == "24"
        and designated[0].witness("quotient_order") == "4"
    ) and all(r.status == PASS for r in cpis)
    _criterion(8, ok,
               "idealization, coefficient subring sums, ideal preimage "
               "rings, identity adjunction, and constrained polynomial "
               "subrings all validate their witnesses; designated orders "
               "24 -> 4 confirmed")


def test_criterion_9_noetherian_verdicts():
    reps = BY_CHECK["noetherian_xjx"]
    by_instance = {r.instance: r for r in reps}
    p22_name = None
    for inst in by_instance:
        if inst.startswith("sub(P22)"):
            p22_name = inst
    r4_inst = f"sub(R4), {_ideal_catalog_name('R4', 4, [2])}"
    idem = by_instance.get(p22_name)
    nonidem = by_instance.get(r4_inst)
    ok = (
        idem is not None and nonidem is not None
        and idem.status == THEOREM_BACKED
        and idem.witness("constrained_variable_ring_noetherian") == "yes"
        and idem.witness("ideal_idempotent") == "True"
        and nonidem.status == THEOREM_BACKED
        and nonidem.witness("constrained_variable_ring_noetherian").startswith("no")
        and nonidem.witness("ideal_square_order") == "1"
        and nonidem.witness("ideal_order") == "2"
    )
    _criterion(9, ok,
               "idempotent ideal gives a Noetherian constrained extension, "
               "non-idempotent does not, with computed square evidence")


def test_criterion_10_determinism_and_runtime():
    text2 = generate_catalog(SEED, BUDGET)
    reports2 = evaluate(parse(text2))
    j1 = strip_timing(reports_to_json(REPORTS))
    j2 = strip_timing(reports_to_json(reports2))
    ok = (
        text2 == _catalog_text
        and j1 == j2
        and not any(r.status == FAIL for r in REPORTS)
        and ELAPSED < 60.0
    )
    _criterion(10, ok,
               f"two runs agree byte for byte modulo timing; full catalog "
               f"of {len(REPORTS)} checks evaluated in {ELAPSED:.1f}s")


def test_catalog_matches_golden_json():
    """The stripped JSON of the standard catalog is frozen byte for byte;
    a refactor that changes any verdict, witness or ordering shows here."""
    actual = strip_timing(reports_to_json(REPORTS))
    expected = GOLDEN.read_text()
    if actual == expected:
        return
    got = json.loads(actual)["reports"]
    want = json.loads(expected)["reports"]
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            pytest.fail(f"report {k} ({w['check']}({w['instance']})) differs "
                        f"from the golden file:\n  got  {g}\n  want {w}")
    pytest.fail(f"report count differs: got {len(got)}, want {len(want)}")


def test_catalog_under_python_dash_OO_matches_golden_json():
    """-OO drops every assert and docstring: no invariant rests on an
    assert, and the check registry, read from docstrings, still runs."""
    code = (
        "import sys\n"
        "from finring.dsl_cli import REGISTRY, evaluate, generate_catalog, parse\n"
        "from finring.reports import reports_to_json, strip_timing\n"
        "if sys.flags.optimize != 2 or REGISTRY['cardinality'].statement:\n"
        "    sys.exit('docstrings are present')\n"
        f"script = parse(generate_catalog({SEED}, {BUDGET}))\n"
        "sys.stdout.write(strip_timing(reports_to_json(evaluate(script))))\n"
    )
    done = run_child(["-OO", "-c", code], timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN.read_text()


def test_catalog_never_imports_numpy_ma():
    """numpy's `unique` and `isin` import numpy.ma on first use (15 ms);
    the kernels scatter over the known index range instead, so a whole
    catalog run in a fresh interpreter leaves numpy.ma unloaded."""
    code = (
        "import sys\n"
        "from finring.dsl_cli import evaluate, generate_catalog, parse\n"
        "from finring.reports import reports_to_json\n"
        f"reports_to_json(evaluate(parse(generate_catalog({SEED}, {BUDGET}))))\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    done = run_child(["-c", code], timeout=300)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"
