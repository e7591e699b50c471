"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/series.py --label base --seeds 1-10 --seconds 10 \
        --workloads div-batch cli-div verify-all [--trace 0|1]

Each run is a separate `run.py` process. For every workload and metric the
summary holds the ten (or however many) values, their median, the first and
third quartile (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median. It is printed and written
to `perfbench/out/series-<label>.json`, with every run's record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--workloads", nargs="+", default=["div-batch", "cli-div", "verify-all"])
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    summary = {"label": args.label, "trace": int(args.trace), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
            record = json.loads(lines[-2])["run_record"]
            record["result"] = json.loads(lines[-1])
            runs.append(record)
            print(workload, seed, json.dumps(record["result"]), flush=True)
        names = runs[0]["result"]["metrics"]
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": {
                name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
            },
            "runs": runs,
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:11s} {name:40s} median {stats['median']:.6g} spread {stats['spread']:.4f}")
    (OUT / f"series-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
