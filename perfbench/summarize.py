"""Summarise benchmark result files across runs.

    python3 perfbench/summarize.py [--baseline perfbench/baseline.json]

Reads every .perfbench/results/*.json that run.py wrote and prints, per
workload and metric, the number of runs, the median, the quartiles and
their distance as a share of the median (the run-to-run spread that a
metric's bound in BENCHMARK.json must exceed). With --baseline, also
writes those medians and the run records' host facts to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def collect(results: Path) -> dict:
    """{(workload, trace): {metric: ([values], unit)}} plus seeds and records."""
    groups: dict = defaultdict(lambda: {"metrics": defaultdict(list), "units": {}, "seeds": [], "records": []})
    for path in sorted(results.glob("*.json")):
        data = json.loads(path.read_text())
        record = data["record"]
        group = groups[(record["workload"], record["trace"])]
        group["seeds"].append(record["seed"])
        group["records"].append(record)
        for name, metric in data["result"]["metrics"].items():
            group["metrics"][name].append(metric["value"])
            group["units"][name] = metric["unit"]
    return groups


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", default=str(ROOT / ".perfbench" / "results"))
    parser.add_argument("--baseline", default=None, help="write medians to this JSON file")
    args = parser.parse_args()
    groups = collect(Path(args.results))
    baseline = {}
    for (workload, trace), group in sorted(groups.items()):
        print(f"{workload} trace={trace} runs={len(group['seeds'])} seeds={sorted(group['seeds'])}")
        entry = {}
        for name, values in group["metrics"].items():
            med, q1, q3, share = spread(values)
            unit = group["units"][name]
            print(f"  {name:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {share:.4f} {unit}")
            entry[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "unit": unit, "runs": len(values)}
        calib = [r["gauge_s"] for r in group["records"]]
        print(f"  gauge_s median {statistics.median(calib):.4g} min {min(calib):.4g} max {max(calib):.4g}")
        baseline.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": sorted(group["seeds"]),
            "metrics": entry,
            "gauge_s": calib,
        }
    if args.baseline:
        first = next(iter(groups.values()))["records"][0]
        host = {key: first[key] for key in ("nproc", "cpu_model", "python", "numpy", "scipy")}
        Path(args.baseline).write_text(json.dumps({"host": host, "workloads": baseline}, indent=1) + "\n")


if __name__ == "__main__":
    main()
