"""Workload scripts and the verdict fingerprint the golden files hold.

Every workload is a finring script (the text `finring check` reads), made
from the seed alone. `catalog` calls `generate_catalog`; `scale` is
rendered here from a fixed pool of order-256 amalgams, after a small
catalog.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("catalog", "scale")

# The standard run: README's `finring catalog` defaults and the acceptance
# gate's catalog.
CATALOG_SEED = 0
CATALOG_BUDGET = 256
# `scale` starts with the catalog at this budget: about 290 checks on rings
# of order at most 16, some 4% of its time. It reaches every traced layer,
# so each per-layer figure of `scale` is measured rather than 0, and it is
# the control that catalog-generation and per-call changes should not move.
SCALE_PREFIX_BUDGET = 16

# The six per-instance checks the catalog runs on every kept amalgam.
INSTANCE_CHECKS = ("cardinality", "pull_identity", "canonical_isos",
                   "reduced_criterion", "domain_criterion",
                   "retraction_roundtrip")


def _reduction(n: int, m: int) -> str:
    """DSL map Z/n -> Z/m, a -> a mod m."""
    return f"map(zmod({n}) -> zmod({m}); " + ", ".join(
        str(a % m) for a in range(n)) + ")"


def _dup(ring: str, label: str) -> str:
    return f"dup({ring}, gen({ring}; {label}))"


# Order-256 amalgams of a base of order 128 along an ideal of order 2, one
# stratum per kind of base. A draw takes one from each stratum, so every
# draw mixes cyclic, product, field and polynomial bases, and the cost of a
# draw varies little with the seed. A shared base and ideal order keeps the
# per-check profile alike across draws, so the check percentiles do not
# jump with the draw. All of them pass every per-instance check at the seed
# commit, each in 3.1-3.7 s on a 2-CPU x86 host.
SCALE_STRATA = (
    (_dup("zmod(128)", "64"),
     f"amalg({_reduction(128, 4)}, gen(zmod(4); 2))",
     f"amalg({_reduction(128, 8)}, gen(zmod(8); 4))",
     f"amalg({_reduction(128, 16)}, gen(zmod(16); 8))"),
    (_dup("product(zmod(8), zmod(16))", '"(4,0)"'),
     _dup("product(zmod(4), zmod(32))", '"(2,0)"'),
     _dup("product(zmod(2), zmod(64))", '"(1,0)"')),
    (_dup("product(gf(4), zmod(32))", '"(0,16)"'),
     _dup("product(zmod(8), gf(16))", '"(4,0)"')),
    (_dup("trunc_poly(zmod(2), 1, 6)", '"X^6"'),
     _dup("product(zmod(2), trunc_poly(zmod(2), 1, 5))", '"(1,0)"')),
)


def scale_instances(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in SCALE_STRATA]


def render_scale(seed: int, prefix: str) -> str:
    """The script `prefix` (the small catalog) followed by the per-instance
    checks of the seed's draw of order-256 amalgams."""
    lines = prefix.splitlines() + [f"# scale workload, seed {seed}"]
    for expr in scale_instances(seed):
        lines += [f"check {check}({expr});" for check in INSTANCE_CHECKS]
    return "\n".join(lines) + "\n"


def shuffle_checks(text: str, seed: int) -> str:
    """The script with its check statements in a seeded order, after all
    definitions. Verdicts do not depend on the order; which check of an
    instance pays for building it does."""
    lines = text.splitlines()
    checks = [ln for ln in lines if ln.startswith("check ")]
    random.Random(seed).shuffle(checks)
    return "\n".join([ln for ln in lines if not ln.startswith("check ")]
                     + checks) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdicts(report_json: str) -> list[tuple[str, str, str]]:
    """(key, fingerprint, label) for each report of a `reports_to_json`
    document. The fingerprint covers the verdict: check, instance, status,
    witnesses and counterexample. Timing and any other added field are left
    out, so only a changed verdict changes it. The key is the hashed label
    `check(instance)`."""
    out = []
    for rep in json.loads(report_json)["reports"]:
        verdict = {k: rep.get(k) for k in
                   ("check", "instance", "status", "witnesses",
                    "counterexample")}
        label = f"{rep['check']}({rep['instance']})"
        out.append((sha(label), sha(json.dumps(verdict, sort_keys=True)),
                    label))
    return out
