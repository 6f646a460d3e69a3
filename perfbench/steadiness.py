#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly, one seed per run, and prints
each end-to-end metric's median, quartiles and spread ((q3 - q1) / median)
against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workloads campaign,campaign_io \
        --seeds 1-10 [--seconds 45] [--save runs.json] [--against old.json]

A spread at or above a third of the bound is flagged `wide`; one above the
bound is flagged `FAIL`. With --against (a file an earlier --save wrote),
each median is also compared with that set's: a move worse than the bound
is flagged `DRIFT`.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib.estimators import summarize  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent)
    if out.returncode != 0:
        raise SystemExit("run failed (%s seed %d):\n%s"
                         % (workload, seed, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # The runner's per-pass samples, for comparing estimators offline.
    report = HERE.parent / ".perfbench_out" / workload / "report.json"
    result["report"] = json.loads(report.read_text())
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    earlier = json.loads(Path(args.against).read_text()) if args.against \
        else {}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds)
            runs[workload].append({"seed": seed, **result})
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))

    def values(results, name):
        return [r["metrics"][name]["value"] for r in results]

    print("\n%-12s %-13s %11s %11s %11s %7s %6s %7s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "drift"))
    for workload, results in runs.items():
        for m in metrics:
            name, bound = m["name"], m["bound"]
            s = summarize(values(results, name))
            flags = []
            if s["spread"] > bound:
                flags.append("FAIL")
            elif s["spread"] >= bound / 3:
                flags.append("wide")
            drift = ""
            if workload in earlier:
                before = summarize(values(earlier[workload], name))["median"]
                move = s["median"] / before - 1
                drift = "%+.3f" % move
                worse = move if m["better"] == "lower" else -move
                if worse > bound:
                    flags.append("DRIFT")
            print("%-12s %-13s %11.6g %11.6g %11.6g %7.4f %6.3f %7s %s" % (
                workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                bound, drift, " ".join(flags)))

if __name__ == "__main__":
    main()
