"""Summarize saved run records into perfbench/baseline.json.

Run from the repository root after a set of runs:

    python3 perfbench/baseline.py

It reads .perfbench-out/results/*.json and writes, per workload, the median
and quartiles of every end-to-end metric over the untraced runs (one run
per seed), the median of every per-layer metric over the traced runs, and
the environment and corpus digests the runs recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench-out" / "results"


def summarize(records: list[dict]) -> dict:
    summary: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        entry: dict[str, object] = {
            "seeds": sorted(r["seed"] for r in untraced),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "failed_operations": sum(len(r["failures"]) for r in records if r["workload"] == workload),
            "attempted_operations": sum(r["attempted"] for r in records if r["workload"] == workload),
        }
        end_to_end = {}
        for name in untraced[0]["metrics"] if untraced else []:
            values = [r["metrics"][name] for r in untraced if name in r["metrics"]]
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0], None, values[0])
            end_to_end[name] = {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
        entry["end_to_end"] = end_to_end
        entry["per_layer"] = {
            name: median(r["metrics"][name] for r in traced) for name in (traced[0]["metrics"] if traced else [])
        }
        entry["corpus"] = {k: v for k, v in (untraced or traced)[0]["corpus"].items() if k not in ("sha256", "pairs")}
        entry["corpus_sha256"] = {str(r["seed"]): r["corpus"]["sha256"] for r in untraced + traced}
        summary[workload] = entry
    environments = {json.dumps(r["environment"], sort_keys=True) for r in records}
    return {"environment": [json.loads(e) for e in sorted(environments)], "workloads": summary}


def main() -> int:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RESULTS.glob("*-trace[01].json"))]
    if not records:
        print(f"no run records under {RESULTS}", file=sys.stderr)
        return 2
    (HERE / "baseline.json").write_text(json.dumps(summarize(records), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
