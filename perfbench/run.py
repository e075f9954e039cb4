"""finring benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; finring is imported from ./src.
Each repetition runs in a fresh child interpreter (perfbench/child.py), so
no cache carries from one repetition to the next, and repetitions continue
while the next one fits in --seconds. With --trace 0 the end-to-end metrics
of BENCHMARK.json are reported, and every repetition is followed by a few
set-up probes; with --trace 1 every child is traced and the per-layer
metrics are reported. The last line of standard output is one JSON object; the exit code is 1 when a
verdict differs from the golden file or a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes after each repetition, so that their median spans the run
# rather than one moment of the host's load.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0
# Interpreter start to `import finring` done, stamped on the shared
# monotonic clock so the parent can subtract its own start stamp.
PROBE = "import time, finring; print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One process is the whole load; keep numpy's thread pool to one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def run_child(args, env: dict, trace: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(children: list[dict], setup: list[float]) -> dict:
    print(f"# {len(children)} repetitions, {len(setup)} set-up probes")
    return {
        "total_s": statistics.median(c["total_s"] for c in children),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }


def per_layer(traced: list[dict]) -> tuple[dict, bool]:
    """Medians over the traced children, check-time percentiles pooled over
    them, and the tracer's self-check: every wrapped function exists, every
    group is called, spans nest and their self times cover the total."""
    names = traced[0]["layers"].keys()
    out = {k: statistics.median(t["layers"][k] for t in traced) for k in names}
    millis = [m for t in traced for m in t["millis"]]
    out["check_ms_p50"] = percentile(millis, 50)
    out["check_ms_p99"] = percentile(millis, 99)
    print(f"# {len(traced)} traced children, {len(millis)} check timings, "
          f"{traced[0]['spans']} spans in the first")
    ok = True
    for t in traced:
        cov = t["layers"]["trace.coverage"]
        if t["nesting_errors"] or not 0.9 <= cov <= 1.0 + 1e-9:
            print(f"# trace self-check failed: {t['nesting_errors']} spans "
                  f"outside their parent, coverage {cov:.4f}")
            ok = False
        for name in t["missing"]:
            print(f"# trace self-check failed: {name} is not in the source")
            ok = False
        for group in t["unreached"]:
            print(f"# trace self-check failed: {group} was never called")
            ok = False
    return out, ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "finring" / "__init__.py").is_file():
        print(f"error: no finring source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    # Start another repetition only while the whole of it fits in the
    # measuring time, judged by the last one.
    start = time.monotonic()
    last = 0.0
    children, setup = [], []
    while not children or time.monotonic() - start + last <= args.seconds:
        rep_start = time.monotonic()
        spans = None
        if args.trace and not children:
            spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.txt"
            spans.parent.mkdir(exist_ok=True)
        children.append(run_child(args, env, args.trace, spans))
        if not args.trace:
            setup += setup_seconds(env)
        last = time.monotonic() - rep_start

    values, trace_ok = per_layer(children) if args.trace else (
        end_to_end(children, setup), True)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    mismatches = sum(c["mismatches"] for c in children)
    scripts = {c["script_sha"] for c in children}
    for c in children:
        if c["error"]:
            print(f"# error: {c['error']}")
        for key in c["mismatch_examples"]:
            print(f"# verdict differs from golden: {key}")
    if len(scripts) > 1:
        print(f"# one seed rendered {len(scripts)} different scripts")
    print(f"# fail_share {failed / attempted:.6f} ({failed} of {attempted} "
          f"checks FAIL or raised)")
    print(f"# verdict_mismatches {mismatches}")
    for skip in children[0]["skips"]:
        print(f"# skipped {skip['what']}: {skip['reason']}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:42s} {values[m['name']]:16.6f} {m['unit']}")
    correct = mismatches == 0 and len(scripts) == 1 and trace_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
