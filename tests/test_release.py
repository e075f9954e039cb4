"""A run holds each value until its last check and no longer: `evaluate`
drops a key after the last check that touches it, builds every key once,
and leaves no ring in a reference cycle, so the rings a run is done with
are freed by reference counting while it goes on. The run at guard order
that shows it under an address-space limit is a row of tests/test_guard.py.
The benchmark's tracer, which counts those builds, names only functions
that exist."""

from __future__ import annotations

import ast
import collections
import gc
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from finring import dsl_cli
from finring.dsl_cli import evaluate, generate_catalog, parse
from finring.morphisms import RingHom
from finring.reports import FAIL, PASS
from finring.rings import FiniteRng
from test_guard import guard_run, reads

REPO = Path(__file__).resolve().parents[1]


def _perfbench(module: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{module}", REPO / "perfbench" / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def _script(workload: str, seed: int) -> str:
    """The benchmark's script: the seed-0 budget-256 catalog in the seed's
    check order, or the seed's `scale` draw after the budget-16 catalog."""
    workloads = _perfbench("workloads")
    if workload == "scale":
        return workloads.render_scale(seed, generate_catalog(0, 16))
    return workloads.shuffle_checks(generate_catalog(0, 256), seed)


def test_every_traced_name_exists():
    """`perfbench/tracer.py` wraps each name of its `GROUPS` and counts two
    `Evaluator` methods; a change that deletes or renames one fails here,
    and not only in a traced benchmark run."""
    groups = _perfbench("tracer").GROUPS.values()
    missing = [f"finring.{mod}.{name}" for mod, names in groups for name in names
               if not callable(getattr(importlib.import_module(f"finring.{mod}"), name, None))]
    assert missing == []
    assert callable(dsl_cli.Evaluator.value) and callable(dsl_cli.Evaluator._build)


def _assigns_a_failure(node: ast.AST) -> bool:
    """An assignment to `.counterexample`, or of FAIL to `.status`, or a
    VerificationReport built with FAIL or a counterexample."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = getattr(target, "attr", None)
            if attr == "counterexample" or attr == "status" and _names_fail(node.value):
                return True
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VerificationReport":
        return any(map(_names_fail, node.args)) or any(
            kw.arg == "counterexample" or kw.arg == "status" and _names_fail(kw.value)
            for kw in node.keywords)
    return False


def _names_fail(node: ast.AST | None) -> bool:
    return node is not None and any(
        getattr(n, "id", None) == "FAIL" or getattr(n, "attr", None) == "FAIL"
        or getattr(n, "value", None) == FAIL for n in ast.walk(node))


def test_only_the_verdict_rule_fails_a_report():
    """`VerificationReport.verdict` is the one place that records a failed
    check: no other module of the package sets a FAIL status or a
    counterexample by hand."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((REPO / "src" / "finring").glob("*.py"))
             if path.name != "reports.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _assigns_a_failure(node)]
    assert found == []


@pytest.mark.parametrize("workload", ["catalog", "scale"])
def test_evaluation_leaves_no_ring_in_a_reference_cycle(workload):
    script = parse(_script(workload, 0))
    gc.collect()
    gc.disable()
    try:
        evaluate(script)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (FiniteRng, RingHom))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


@pytest.mark.parametrize("workload, seed", [("catalog", 0), ("catalog", 13), ("scale", 0)])
def test_release_builds_every_key_once(monkeypatch, workload, seed):
    # the catalog builds its roster through an Evaluator of its own, so the
    # script is rendered before the count starts
    text = _script(workload, seed)
    builds = collections.Counter()
    build = dsl_cli.Evaluator._build

    def counted(self, expr):
        builds[expr.render()] += 1
        return build(self, expr)

    monkeypatch.setattr(dsl_cli.Evaluator, "_build", counted)
    reports = evaluate(parse(text))
    assert len(builds) > 200
    assert {k: n for k, n in builds.items() if n != 1} == {}
    assert all(r.status != "fail" for r in reports)


def test_a_value_is_dropped_after_its_last_check(monkeypatch):
    script = parse(
        "ring A = zmod(4);\n"
        "ideal J = gen(A; 2);\n"
        "check cardinality(dup(A, J));\n"
        "check cardinality(dup(zmod(6), gen(zmod(6); 3)));\n"
        "check reduced_criterion(dup(A, J));\n"
        "check cardinality(dup(zmod(6), gen(zmod(6); 2)));\n"
    )
    seen, evaluators = [], []

    class Recording(dsl_cli.Evaluator):
        def __init__(self, definitions):
            super().__init__(definitions)
            evaluators.append(self)

    def record(vals, inst):
        seen.append(sorted(evaluators[0].cache))
        return spec.runner(vals, inst)

    spec = dsl_cli.REGISTRY["cardinality"]
    monkeypatch.setattr(dsl_cli, "Evaluator", Recording)
    monkeypatch.setitem(dsl_cli.REGISTRY, "cardinality", replace(spec, runner=record))
    reports = evaluate(script)
    assert [r.status for r in reports] == [PASS] * 4
    a_keys = ["A", "J", "dup(A, J)", "gen(A; 2)", "zmod(4)"]
    assert seen == [
        a_keys,
        sorted(a_keys + ["dup(zmod(6), gen(zmod(6); 3))", "gen(zmod(6); 3)", "zmod(6)"]),
        # A and J are gone after the reduced_criterion check, the first
        # order-12 instance after the second check; zmod(6) is shared
        ["dup(zmod(6), gen(zmod(6); 2))", "gen(zmod(6); 2)", "zmod(6)"],
    ]
    assert evaluators[0].cache == {}


@reads("dup_zmod2048")
def test_alt_pullbacks_at_guard_order_run_in_448_mib(request):
    # The heaviest per-instance check at order 4096. Its least passing
    # address-space limit, in 32 MiB steps on a 2-CPU x86-64 host (Python
    # 3.11, numpy 2.4), is 512 MiB with int32 tables and 320 MiB with int16
    # ones and int32 codes over A x B/J. The guard sweep's row dup_zmod2048
    # runs it first, then nine more checks, under 448 MiB.
    report = guard_run(request, "dup_zmod2048").reports["alt_pullbacks(dup(A, J))"]
    assert report["status"] == PASS
