"""Record the golden verdicts of one workload from the current source tree.

    python3 perfbench/capture_golden.py --workload catalog

Writes perfbench/golden/<workload>.json, which maps the hashed label of
every report any seed of the workload can produce to the fingerprint of its
verdict. Run it only at a commit whose verdicts are trusted; the committed
files were captured before any kernel changed.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from child import HERE, _import_finring, run_workload


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = ap.parse_args()
    _import_finring()
    from finring.reports import FAIL

    from finring.dsl_cli import generate_catalog

    text = None
    if args.workload == "scale":
        pool = [expr for stratum in workloads.SCALE_STRATA for expr in stratum]
        text = generate_catalog(workloads.CATALOG_SEED,
                                workloads.SCALE_PREFIX_BUDGET) + "".join(
            f"check {c}({e});\n"
            for e in pool for c in workloads.INSTANCE_CHECKS)
    run = run_workload(args.workload, 0, text=text)
    if run.error:
        raise SystemExit(run.error)
    for report in json.loads(run.output)["reports"]:
        if report["status"] == FAIL:
            raise SystemExit(f"{report['check']}({report['instance']}) failed")
    golden = {key: verdict
              for key, verdict, _ in workloads.verdicts(run.output)}
    path = HERE / "golden" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{path}: {len(golden)} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
