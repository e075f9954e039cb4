"""The size guard as a promise: every registered check runs at or near the
default guard, order 4096, inside a bounded address space and peak RSS,
and every order just above the guard is refused with a typed note.

Each row of `ROWS` is one fresh interpreter that builds its instances once
(a run drops each value after its last check, so its peak is its largest
live set) and runs every check on them. The sweep runs the rows at most two
at a time, the heaviest first, for a 2-CPU, 8 GB host. Tests in other files
that check one instance of a row read the same child through `guard_run`.
`run_child` and `run_children` are also the one harness of every other test
that starts a child.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import finring
from finring.dsl_cli import REGISTRY
from finring.reports import HYPOTHESIS_NOT_MET, PASS, THEOREM_BACKED

CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(finring.__file__).parents[1]),
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: str
    stderr: str
    peak_rss: int  # bytes, this child's own ru_maxrss


class _Running:
    """One started child. Its address space is capped in the child only
    (`preexec_fn`), and its peak RSS is read from `os.wait4` on its pid:
    RUSAGE_CHILDREN would give the largest child reaped so far."""

    def __init__(self, argv, limit, timeout, cwd):
        self.out, self.err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        cap = None if limit is None else (
            lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        self.proc = subprocess.Popen([sys.executable, *argv], env=CHILD_ENV, cwd=cwd,
                                     stdout=self.out, stderr=self.err, preexec_fn=cap)
        self.timeout = timeout
        self.deadline = time.monotonic() + timeout

    def reap(self) -> Child | None:
        """The finished child, or None while it runs within its timeout;
        past it, the child is killed and its stderr says so."""
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        late = ""
        if pid == 0:
            if time.monotonic() < self.deadline:
                return None
            self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
            late = f"\nkilled after its {self.timeout} s timeout"
        # reaped here, so Popen must not wait for it again
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        text = []
        for fh in (self.out, self.err):
            fh.seek(0)
            text.append(fh.read().decode())
            fh.close()
        return Child(self.proc.returncode, text[0], text[1] + late, usage.ru_maxrss * 1024)

    def kill(self) -> None:
        self.deadline = 0
        self.reap()


AT_ONCE = 2  # children; the host has 2 CPUs and 8 GB


def run_children(jobs) -> list[Child]:
    """Run `python *argv` for each job (argv, limit, timeout, cwd), at most
    AT_ONCE at a time and in order; `limit` caps RLIMIT_AS in bytes."""
    pending, running, done = list(enumerate(jobs)), {}, [None] * len(jobs)
    try:
        while pending or running:
            while pending and len(running) < AT_ONCE:
                i, job = pending.pop(0)
                running[i] = _Running(*job)
            for i in list(running):
                child = running[i].reap()
                if child is not None:
                    done[i] = child
                    del running[i]
            time.sleep(0.01)
    finally:
        for child in running.values():
            child.kill()
    return done


def run_child(argv, limit: int | None = None, timeout: float = 60, cwd=None) -> Child:
    return run_children([(argv, limit, timeout, cwd)])[0]


# -- the sweep ------------------------------------------------------------------------

# Peak RSS bound c·n² + b. Every row's largest ring has order n = 4096, so a
# table is n² cells. b = 48 MiB: a child that only imports finring (with
# numpy) peaks at 31 MiB. c is the least multiple of 8 bytes per cell that
# keeps each row's measured peak below about 85% of its bound, room for how
# glibc reuses freed blocks (one `alt_pullbacks` child moved from 458 to
# 477 MB when only its block size changed). The peaks, from this runner on a
# 2-CPU x86-64 host (Python 3.11, numpy 2.4, int16 tables), were 120 to 321
# MiB: `cpi_prime(gf(4096), (0))` 321 MiB, about 20 bytes per cell, so c = 24;
# the ten checks on the duplication of Z/2048 302 MiB, so c = 24
# (`alt_pullbacks` alone is 233 MiB, about 14 bytes per cell); the ring
# builds 120 MiB, so c = 8; every other row 184 to 255 MiB, so c = 16.
N = 4096
B = 48 << 20
GIB = 1 << 30
TIMEOUT = 60  # seconds; every row finishes in under 5 s on that host


@dataclass(frozen=True)
class Row:
    """One child: a DSL script run by `finring check --json` when `checks`
    is set (each check's statement, exact status and the witnesses it must
    show), or else a Python snippet whose stdout must split into `stdout`."""

    name: str
    c: int
    limit: int = GIB
    defs: str = ""
    checks: tuple = ()
    code: str = ""
    argv: tuple = ()
    stdout: tuple = ()

    def job(self, tmp: Path):
        if not self.checks:
            return ["-c", self.code, *self.argv], self.limit, TIMEOUT, None
        script = tmp / f"{self.name}.fr"
        script.write_text(self.defs + "".join(f"check {c[0]};\n" for c in self.checks),
                          encoding="utf-8")
        return (["-m", "finring", "check", "--json", str(tmp / f"{self.name}.json"),
                 str(script)], self.limit, TIMEOUT, None)


def passes(*statements: str) -> tuple:
    return tuple((s, PASS, {}) for s in statements)


def refused(statement: str, note: str) -> tuple:
    return statement, HYPOTHESIS_NOT_MET, {"note": note}


# Every order-4096 ring family is built and then validated by a full
# `validate_rng`; a build must take under 20 s.
BUILD = (
    "import sys, time\n"
    "from finring.rings import direct_product, galois_field, trunc_poly, validate_rng, zmod\n"
    "for expr in sys.argv[1:]:\n"
    "    t = time.perf_counter(); ring = eval(expr); t = time.perf_counter() - t\n"
    "    print(ring.order, t < 20, validate_rng(ring).ok)\n"
    "    del ring\n"
)

# Order-4096 section searches out of Boolean rings, as Python: the DSL's
# binary `product` cannot name (Z/2)^11 or (Z/2)^12 briefly. In a product,
# the first factor is the most significant digit of an element's index.
# Past its seed budget the generator search adds the least missing element,
# so each search starts from at most 12 generators.
BOOLEAN = (
    "from finring.amalgamation import duplication, retraction_criterion_check, "
    "retraction_roundtrip\n"
    "from finring.morphisms import RingHom, identity_hom\n"
    "from finring.rings import direct_product, zmod\n"
    "from finring.subobjects import ideal_from_generators\n"
    "p = direct_product([zmod(2)] * 11)\n"
    "rep = retraction_roundtrip(duplication(p, ideal_from_generators(p, [1 << 10])))\n"
    "print(rep.status, rep.witness('section_found'))\n"
    "p = direct_product([zmod(2)] * 12)\n"
    "alpha = RingHom(p, zmod(2), [i >> 11 for i in range(p.order)])\n"
    "rep = retraction_criterion_check(alpha, identity_hom(zmod(2)))\n"
    "print(rep.status, rep.witness('section_found'))\n"
)

# The reduction Z/4096 -> Z/8, as the image of each element.
TO_Z8 = ", ".join(str(a % 8) for a in range(4096))

ROWS = [
    # a field localized at its 4095 nonzero elements: A/P, the
    # localization, its residue field and the amalgam, all of order 4096
    Row("cpi_prime_gf4096", c=24, checks=passes("cpi_prime(gf(4096), gen(gf(4096); 0))")),
    Row("build_trunc_poly", c=8, code=BUILD, stdout=("4096", "True", "True") * 2,
        argv=("trunc_poly(zmod(2), 1, 11)", "trunc_poly(zmod(4), 2, 2)")),
    Row("build_products", c=8, code=BUILD, stdout=("4096", "True", "True") * 3,
        argv=("direct_product([zmod(2)] * 12)", "direct_product([zmod(64)] * 2)",
              "zmod(4096)")),
    Row("build_gf4096", c=8, code=BUILD, stdout=("4096", "True", "True"),
        argv=("galois_field(4096)",)),
    # Ten amalgam checks on one order-4096 duplication. alt_pullbacks goes
    # first: alone it needs a 320 MiB address space, after the caches that
    # the other checks leave on the amalgam 384 MiB. In this order the row's
    # least passing limit is 320 MiB (32 MiB steps), under its 448 MiB.
    Row("dup_zmod2048", c=24, limit=448 << 20,
        defs="ring A = zmod(2048);\nideal J = gen(A; 1024);\n",
        checks=(("alt_pullbacks(dup(A, J))", PASS,
                 {"presentation_over_A_x_BJ": "True", "presentation_over_AI_x_BJ": "True",
                  "order": "4096"}),)
        + passes(*(f"{check}(dup(A, J))" for check in (
            "cardinality", "dotted_presentation", "pull_identity", "canonical_isos",
            "reduced_criterion", "domain_criterion", "retraction_roundtrip", "noetherian",
            "reduced_converse_search")), "same_amalgam(id(A), id(A), J)")),
    # Three duplications, each checked three times. A run that drops each
    # after its last check needs a 320 MiB address space. One that holds
    # all three to the end (`dsl_cli._last_uses` made to release nothing,
    # in a copy) peaks at about 610 MB RSS and needs 704 MiB, so 512 MiB
    # tells the two apart.
    Row("three_instances_released_in_512_mib", c=16, limit=512 << 20,
        defs="ring A = zmod(2048);\nring B = trunc_poly(zmod(2), 1, 10);\n"
             "ring C = product(zmod(2), zmod(1024));\n",
        checks=passes(*(f"{check}(dup({ring}, gen({ring}; {label})))"
                        for ring, label in (("A", "1024"), ("B", '"X^10"'), ("C", '"(1,0)"'))
                        for check in ("cardinality", "pull_identity", "canonical_isos")))),
    # 2 * 2^11 = 4096 fits the guard, while the flat product (zmod(2), B,
    # ..., B) with eleven B of order 2048 has 2^122 codes; the fiber
    # product's positions never leave the ring's order
    Row("iterated_iso", c=16,
        defs='ring B = trunc_poly(zmod(2), 1, 10);\nhom f = map(zmod(2) -> B; 0, 1024);\n',
        checks=(('iterated_iso(f, gen(B; "X^10"), 11)', PASS,
                 {"left_order": "4096", "right_order": "4096",
                  "witness_is_bijective_hom": "True"}),)
        + passes("iterated_iso(id(zmod(512)), gen(zmod(512); 256), 3)")),
    # localized at sets of 2048 to 4095 elements
    Row("cpi_products", c=16,
        defs="ring P = product(gf(4), zmod(1024));\nring Q = product(zmod(2), zmod(2048));\n",
        checks=passes('cpi_prime(P, gen(P; "(0,1)"))', 'cpi_ideal(P, gen(P; "(0,1)"))',
                      'cpi_ideal(Q, gen(Q; "(0,1)"))')),
    # one instance just above the guard per ring-building form, then per
    # check that builds a ring larger than its arguments
    Row("refusals", c=16, checks=(
        refused("cardinality(dup(zmod(4097), gen(zmod(2); 1)))",
                "order 4097 exceeds size guard 4096"),
        refused("cardinality(dup(gf(4099), gen(zmod(2); 1)))",
                "order 4099 exceeds size guard 4096"),
        refused("cardinality(dup(product(zmod(64), zmod(65)), gen(zmod(2); 1)))",
                "order 4160 exceeds size guard 4096"),
        refused("cardinality(dup(trunc_poly(zmod(65), 1, 1), gen(zmod(2); 1)))",
                "trunc_poly order 65^2 exceeds size guard 4096"),
        refused("cardinality(dup(zmod(2050), gen(zmod(2050); 1025)))",
                "order 4100 exceeds size guard 4096"),
        refused("cardinality(amalg(id(zmod(2050)), gen(zmod(2050); 1025)))",
                "order 4100 exceeds size guard 4096"),
        refused("iterated_iso(id(zmod(512)), gen(zmod(512); 256), 4)",
                "order 8192 exceeds size guard 4096"),
        refused("dorroh(gen(zmod(65); 1))", "order 4225 exceeds size guard 4096"),
        refused("nagata_as_amalgam(id(zmod(65)), gen(zmod(65); 1))",
                "order 4225 exceeds size guard 4096"),
        # the localization at the odd residues has order 4096, the amalgam
        # 4096 * 2048
        refused("cpi_prime(zmod(4096), gen(zmod(4096); 2))",
                "order 8388608 exceeds size guard 4096"),
    )),
    Row("constructions", c=16, defs='ring T = trunc_poly(zmod(2), 1, 11);\n',
        checks=passes("dorroh(gen(zmod(64); 1))",
                      "nagata_as_amalgam(id(zmod(64)), gen(zmod(64); 1))",
                      "trunc_poly_amalgam(sub(zmod(64)), gen(zmod(64); 1), 1, 1)",
                      'd_plus_m(sub(T), gen(T; "X"))')
        + (('noetherian_xjx(sub(T), gen(T; "X"))', THEOREM_BACKED, {}),)),
    Row("boolean_sections", c=16, code=BOOLEAN, stdout=(PASS, "True") * 2),
    Row("pullbacks_z4096_z8", c=16,
        defs=f"hom p = map(zmod(4096) -> zmod(8); {TO_Z8});\nhom e = id(zmod(8));\n",
        checks=passes("retraction_criterion(p, e)", "kernel_identity(p, e)",
                      "pullback_reduced(p, e)", "pullback_presentation(p, e, p)")),
]


def reads(*names: str):
    """Mark a test outside this file as reading these rows' children, so
    that they run in the one batch of the session's rows."""
    def mark(test):
        test.guard_rows = names
        return test
    return mark


@dataclass(frozen=True)
class Run:
    child: Child
    reports: dict  # "check(instance)" -> its JSON report, for a DSL row


_RUNS: dict[str, Run] = {}


def guard_run(request, name: str) -> Run:
    """Row `name`'s child, after asserting exit 0, empty stderr and its
    peak RSS bound. The first call runs, at most AT_ONCE at a time, the
    child of every row that the session's selected tests read, each once."""
    if name not in _RUNS:
        wanted = {name}
        for item in request.session.items:
            spec = getattr(item, "callspec", None)
            if spec is not None and isinstance(spec.params.get("row"), Row):
                wanted.add(spec.params["row"].name)
            wanted.update(getattr(getattr(item, "function", None), "guard_rows", ()))
        rows = [row for row in ROWS if row.name in wanted and row.name not in _RUNS]
        tmp = request.getfixturevalue("tmp_path_factory").mktemp("guard")
        for row, child in zip(rows, run_children([row.job(tmp) for row in rows])):
            out = tmp / f"{row.name}.json"
            reports = {} if not out.exists() else {
                f"{r['check']}({r['instance']})": r
                for r in json.loads(out.read_text(encoding="utf-8"))["reports"]}
            _RUNS[row.name] = Run(child, reports)
    run, row = _RUNS[name], next(row for row in ROWS if row.name == name)
    assert (run.child.returncode, run.child.stderr) == (0, ""), run.child.stderr
    assert run.child.peak_rss <= row.c * N * N + B, (run.child.peak_rss >> 20, "MiB")
    return run


def witnesses(report: dict) -> dict:
    return {w["name"]: w["value"] for w in report["witnesses"]}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_guard_row(request, row):
    run = guard_run(request, row.name)
    if row.checks:
        assert len(run.reports) == len(row.checks)
        got = [(statement, report["status"],
                {k: v for k, v in witnesses(report).items() if k in want})
               for (statement, report), (_, _, want) in zip(run.reports.items(), row.checks)]
        assert got == list(row.checks)
    else:
        assert tuple(run.child.stdout.split()) == row.stdout, run.child.stdout


def test_the_sweep_runs_every_registered_check():
    run = {c[0].split("(")[0] for row in ROWS for c in row.checks if c[1] != HYPOTHESIS_NOT_MET}
    assert run == set(REGISTRY)
