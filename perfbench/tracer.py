"""Spans around the calls into each finring layer, recorded from outside.

`install` rebinds each named public function in every `finring.*` module
namespace that holds it, because `from .rings import validate_rng` copies
the binding into the importing module. Spans (name, start, end, parent) stay
in memory; `layer_metrics` turns them into calls and self time per group.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span group -> (module, function names). Each group is one row of
# per-layer metrics; a function missing from its module is reported.
GROUPS = {
    "rings.validate_rng": ("rings", ("validate_rng",)),
    "rings.construct": ("rings", (
        "zmod", "galois_field", "direct_product", "trunc_poly",
        "from_tables", "pair_subring", "restrict_to_subset")),
    "subobjects.closure": ("subobjects", (
        "ideal_from_generators", "subring_generated",
        "submodule_generated")),
    "subobjects.quotient_ring": ("subobjects", ("quotient_ring",)),
    "subobjects.all_ideals": ("subobjects", ("all_ideals",)),
    "subobjects.validate_module": ("subobjects", ("validate_module",)),
    "morphisms.validate_hom": ("morphisms", ("validate_hom",)),
    "morphisms.complete_hom": ("morphisms", ("complete_hom",)),
    "morphisms.search": ("morphisms", (
        "find_iso", "find_section", "enumerate_homs")),
    "amalgamation.amalgam": ("amalgamation", ("amalgam",)),
    "amalgamation.dotted_sum": ("amalgamation", ("dotted_sum",)),
    "amalgamation.pullback": ("amalgamation", ("pullback",)),
    "amalgamation.checks": ("amalgamation", (
        "split_sequence_check", "dorroh_check", "image_plus_ideal_check",
        "same_amalgam", "iter_iso_check", "pull_identity_check",
        "alt_pullback_checks", "factor_check", "retraction_criterion_check",
        "retraction_roundtrip", "pullback_reduced_check",
        "kernel_identity_check", "canonical_isos", "domain_criterion_check",
        "reduced_criterion_check", "reduced_converse_search")),
    "constructions": ("constructions", (
        "nagata_idealization", "nagata_as_amalgam_check", "d_plus_m",
        "cpi_prime", "cpi_ideal", "trunc_poly_amalgam", "noetherian_report",
        "noetherian_verdict_xjx")),
    "dsl_cli.generate_catalog": ("dsl_cli", ("generate_catalog",)),
    "dsl_cli.parse": ("dsl_cli", ("parse",)),
    "dsl_cli.evaluate": ("dsl_cli", ("evaluate",)),
    "reports.reports_to_json": ("reports", ("reports_to_json",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _wrap(self, group: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, parent)
            if group == "rings.validate_rng":
                n = args[0].order
                counts["validate_rng.cells"] += 3 * n ** 3
                counts["validate_rng.max_order"] = max(
                    counts["validate_rng.max_order"], n)
            elif group == "morphisms.complete_hom" and result is not None:
                counts["complete_hom.completed"] += 1
            return result

        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "finring" or name.startswith("finring.")}
        for group, (mod_name, names) in GROUPS.items():
            home = mods[f"finring.{mod_name}"]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"finring.{mod_name}.{name}")
                    continue
                wrapper = self._wrap(group, original)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
        evaluator = mods["finring.dsl_cli"].Evaluator
        evaluator.value = self._count("evaluator.value", evaluator.value)
        evaluator._build = self._count("evaluator.build", evaluator._build)

    def unreached(self) -> list[str]:
        """Groups with no recorded call. Every workload reaches every group,
        so one of these means a traced function is no longer called by the
        name the tracer wraps."""
        seen = {span[0] for span in self.spans}
        return [group for group in GROUPS if group not in seen]

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus what its children cover.
        Children run inside their parent on one thread, so they never
        overlap each other."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def nesting_errors(self) -> int:
        bad = 0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                bad += not (p_start <= start <= end <= p_end)
        return bad

    def layer_metrics(self, total_s: float) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (group, _, _, _), own in zip(self.spans, self.self_times()):
            calls[group] += 1
            self_s[group] += own
        out: dict[str, float] = {}
        for group in GROUPS:
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        c = self.counts
        out["rings.validate_rng.cells"] = c["validate_rng.cells"]
        out["rings.validate_rng.max_order"] = c["validate_rng.max_order"]
        out["morphisms.complete_hom.success_ratio"] = (
            c["complete_hom.completed"] / calls["morphisms.complete_hom"]
            if calls["morphisms.complete_hom"] else 0.0)
        out["dsl_cli.evaluator.builds"] = c["evaluator.build"]
        out["dsl_cli.evaluator.hit_ratio"] = (
            1.0 - c["evaluator.build"] / c["evaluator.value"]
            if c["evaluator.value"] else 0.0)
        out["trace.coverage"] = sum(self_s.values()) / total_s
        out["trace.overhead_share"] = (
            len(self.spans) * wrapper_cost() / total_s)
        return out

    def dump(self, path) -> None:
        """Write the spans, one `name start end parent` line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent in self.spans:
                fh.write(f"{group} {start:.9f} {end:.9f} {parent}\n")


def wrapper_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one traced call adds over a bare call, measured on a no-op:
    the median over `rounds` of the per-call difference. The traced run's
    overhead share is this times its span count over its total time."""
    probe = Tracer()

    def noop():
        return None

    traced = probe._wrap("calibration", noop)
    clock = time.perf_counter
    diffs = []
    for _ in range(rounds):
        probe.spans.clear()
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        diffs.append((clock() - start - bare) / calls)
    return statistics.median(diffs)
