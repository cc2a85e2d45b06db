"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload eval-stream --seeds 0-9 --seconds 35
    python3 bench/spread.py --workload eval-stream --seeds 0-9 --seconds 35 --record bench/baseline.json

For each end-to-end metric, and each further metric the workload rows
report: the median and quartiles of its per-run values
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median. ``--record`` also makes one traced run on the first
seed and stores both under the workload's key in the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent, timeout=300,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()]
    return {"header": records[0], "row": records[-2], "result": records[-1]}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range LO-HI")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--record", type=Path, help="JSON file to store the baseline in")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    runs = []
    for seed in seeds:
        one = run_once(args.workload, seed, args.seconds, 0)
        runs.append(one)
        brief = {k: round(v["value"], 6) for k, v in one["result"]["metrics"].items()}
        print(f"seed {seed} correct={one['result']['correct']} {brief}", file=sys.stderr, flush=True)
    metrics = runs[0]["result"]["metrics"]
    summary = {
        "seeds": seeds,
        "seconds": args.seconds,
        "correct": all(r["result"]["correct"] for r in runs),
        "end_to_end": {
            name: {"unit": m["unit"], **spread([r["result"]["metrics"][name]["value"] for r in runs])}
            for name, m in metrics.items()
        },
    }
    # metrics the rows report beyond the declared ones (eval-stream throughput and latencies)
    summary["reported"] = {
        name: spread([r["row"]["metrics"][name]["value"] for r in runs])
        for name in runs[0]["row"]["metrics"]
        if name not in metrics
    }
    print(json.dumps(summary, indent=1))
    if args.record:
        traced = run_once(args.workload, seeds[0], args.seconds, 1)
        summary["header"] = runs[0]["header"]
        summary["computed"] = runs[0]["row"]["computed"]
        summary["per_layer"] = {
            "seed": seeds[0],
            **{name: m["value"] for name, m in traced["result"]["metrics"].items()},
        }
        baseline = json.loads(args.record.read_text()) if args.record.exists() else {}
        baseline[args.workload] = summary
        args.record.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
