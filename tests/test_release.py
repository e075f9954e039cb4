"""A run holds each value until its last check and no longer: `evaluate`
drops a key after the last check that touches it, builds every key once,
and leaves no ring in a reference cycle, so the rings a run is done with
are freed by reference counting while it goes on."""

from __future__ import annotations

import collections
import gc
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import finring
from finring import dsl_cli
from finring.dsl_cli import evaluate, generate_catalog, parse
from finring.morphisms import RingHom
from finring.reports import PASS
from finring.rings import FiniteRng

REPO = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _script(workload: str, seed: int) -> str:
    """The benchmark's script: the seed-0 budget-256 catalog in the seed's
    check order, or the seed's `scale` draw after the budget-16 catalog."""
    workloads = _workloads()
    if workload == "scale":
        return workloads.render_scale(seed, generate_catalog(0, 16))
    return workloads.shuffle_checks(generate_catalog(0, 256), seed)


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


GUARD_SCRIPT = """\
ring A = zmod(2048);
ring B = trunc_poly(zmod(2), 1, 10);
ring C = product(zmod(2), zmod(1024));
""" + "".join(
    f"check {check}(dup({ring}, gen({ring}; {label})));\n"
    for ring, label in (("A", "1024"), ("B", '"X^10"'), ("C", '"(1,0)"'))
    for check in ("cardinality", "pull_identity", "canonical_isos"))


def test_three_guard_order_instances_run_in_one_gib(tmp_path):
    # Order-4096 duplications, each checked three times in one process:
    # holding all three at once peaks at about 610 MB RSS with int16 tables
    # (about 1.2 GB with int32 ones), and needs a 704 MiB address space; the
    # run that releases each instance after its last check needs 320 MiB
    # (least passing limits in 32 MiB steps, 2-CPU x86-64 host, Python 3.11,
    # numpy 2.4). The limit is set by the child on itself only.
    done = _check_under_limit(tmp_path, GUARD_SCRIPT, 1 << 30)
    assert done.stdout.count("PASS") == 9, done.stdout


def test_alt_pullbacks_at_guard_order_run_in_448_mib(tmp_path):
    # The heaviest per-instance check at order 4096. Its least passing
    # address-space limit, in 32 MiB steps on a 2-CPU x86-64 host (Python
    # 3.11, numpy 2.4), is 512 MiB with int32 tables and 320 MiB with int16
    # ones and int32 codes over A x B/J; 448 MiB is two steps below the
    # first and four above the second.
    script = "check alt_pullbacks(dup(zmod(2048), gen(zmod(2048); 1024)));\n"
    done = _check_under_limit(tmp_path, script, 448 << 20)
    assert done.stdout.count("PASS") == 1, done.stdout


def _check_under_limit(tmp_path, text: str, limit: int) -> subprocess.CompletedProcess:
    """`finring check` of the script in a fresh child that caps its own
    address space at `limit` bytes; asserts that it exits with 0."""
    path = tmp_path / "guard.fr"
    path.write_text(text, encoding="utf-8")
    code = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "from finring.dsl_cli import main; sys.exit(main(['check', sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(finring.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done
