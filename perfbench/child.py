"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N [--trace 0|1] [--spans FILE]

Runs generate -> parse -> evaluate -> reports_to_json once, compares every
verdict with the golden file, and prints one JSON object. The address-space
ceiling turns an oversized allocation into a MemoryError, counted as a
failed check, instead of an out-of-memory kill.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ADDRESS_SPACE_LIMIT = 3 << 30

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_finring():
    sys.path.insert(0, str(SRC))
    import finring
    if Path(finring.__file__).resolve().parent != SRC / "finring":
        raise ImportError(f"finring imported from {finring.__file__}, "
                          f"not from {SRC}")


def _skips(rings) -> list[dict]:
    """What the seed code cannot run, with the bytes one (rows, n, n)
    temporary of the cubic axiom scan would need. Computed, not allocated."""
    import numpy as np
    itemsize = np.dtype(getattr(rings, "_TABLE_DTYPE", np.int32)).itemsize
    blocks = getattr(rings, "_blocks", None)
    out = []
    for what, n in (("zmod(1024)", 1024), ("zmod(4096)", 4096),
                    ("dup(zmod(512), gen(zmod(512); 256))", 1024)):
        if blocks is None:
            reason = f"order {n}: rings._blocks is gone; re-measure"
        else:
            r0, r1 = next(blocks(n))
            nbytes = (r1 - r0) * n * n * itemsize
            reason = (f"order {n}: rings._blocks gives {r1 - r0}-row blocks, "
                      f"so each ({r1 - r0}, {n}, {n}) temporary of the "
                      f"associativity scan asks for {nbytes} bytes "
                      f"({nbytes / 2**30:.1f} GiB), two at once")
        out.append({"what": what, "reason": reason})
    out.append({"what": "catalog at budget 1024",
                "reason": "38-46 s, 2.2 GB peak RSS and 6-7 s of system time "
                          "per run on a 2-CPU host; a run-to-run spread "
                          "within a tenth is out of reach"})
    return out


@dataclass
class Run:
    script: str
    output: str | None = None
    millis: list = field(default_factory=list)
    attempted: int = 0
    unfinished: int = 0
    error: str | None = None


def run_workload(workload: str, seed: int, text: str | None = None) -> Run:
    """generate -> parse -> evaluate -> reports_to_json for the workload's
    script, or for `text` when given. Functions are looked up through their
    modules at call time, so traced wrappers are used when installed."""
    from finring import dsl_cli, errors, reports
    if text is None and workload == "scale":
        text = workloads.render_scale(seed, dsl_cli.generate_catalog(
            workloads.CATALOG_SEED, workloads.SCALE_PREFIX_BUDGET))
    elif text is None:
        text = workloads.shuffle_checks(dsl_cli.generate_catalog(
            workloads.CATALOG_SEED, workloads.CATALOG_BUDGET), seed)
    run = Run(script=text)
    script = dsl_cli.parse(text)
    run.attempted = len(script.checks)
    try:
        reps = dsl_cli.evaluate(script)
    except (errors.EvaluationError, MemoryError) as exc:
        run.error = f"{type(exc).__name__}: {exc}"
        run.unfinished = len(script.checks)
        return run
    run.millis = [r.millis for r in reps]
    run.output = reports.reports_to_json(reps)
    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    _import_finring()
    from finring import reports, rings

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    run = run_workload(args.workload, args.seed)
    total_s = time.perf_counter() - start

    golden = json.loads((HERE / "golden" / f"{args.workload}.json")
                        .read_text(encoding="utf-8"))
    mismatches = failed = run.unfinished
    examples, seen = [], set()
    if run.output is not None:
        for key, verdict, label in workloads.verdicts(run.output):
            seen.add(key)
            if golden.get(key) != verdict:
                mismatches += 1
                examples.append(label[:160])
        failed += sum(r["status"] == reports.FAIL
                      for r in json.loads(run.output)["reports"])
    if args.workload == "catalog":
        # The golden file is exactly the standard catalog: none may be lost.
        mismatches += len(golden.keys() - seen)

    result = {
        "total_s": total_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "millis": run.millis,
        "attempted": run.attempted,
        "failed": failed,
        "mismatches": mismatches,
        "mismatch_examples": examples[:5],
        "script_sha": workloads.sha(run.script),
        "error": run.error,
        "skips": _skips(rings),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(total_s)
        result["nesting_errors"] = tracer.nesting_errors()
        result["missing"] = tracer.missing
        result["unreached"] = tracer.unreached()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
