#!/usr/bin/env python3
"""perfbench entry point: builds the workload runner, runs one workload, checks
its result rows and prints every metric.

    python3 perfbench/run.py --workload campaign --seed 1 \
        --seconds 45 --trace 0

Run from the root of a checkout. The runner (perfbench/src, built with
CMake into .bench_build/perfbench) runs the workload in its own process;
its caches and shard artifacts go to a private tmpfs mounted over
.perfbench_work/<workload> when the host allows a private mount namespace,
else to that directory on the checkout's own filesystem. The filesystem
used is recorded in the provenance line. Reports, rows and traces go to
.perfbench_out/<workload>.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). Exits 0 on a completed run, whatever `correct` says;
exits non-zero without a result when the run cannot be made.
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib.estimators import trimmed_mean  # noqa: E402
from benchlib.rows import check_rows  # noqa: E402
from benchlib.selftime import layer_self_times, self_times  # noqa: E402

WORKLOADS = ("campaign", "campaign_io")
# The seed whose result rows are pinned under perfbench/pinned/.
REFERENCE_SEED = 1
RUNNER_TIMEOUT_S = 170
TMPFS_SIZE = "1g"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def checkout_root():
    root = HERE.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("no library sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in %s)" % root)
    return root


def build_runner(root):
    """Configures (once) and builds the runner; returns its path."""
    build = root / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    log = build / "build.log"
    with open(log, "w") as out:
        if not (build / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                fail("configure failed; see %s" % log)
        cmd = ["cmake", "--build", str(build), "--target", "perfbench_runner",
               "-j", "4"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            fail("build failed; see %s" % log)
    return build / "perfbench_runner"


def private_tmpfs_prefix(mount_dir):
    """Command prefix that runs a program with a private tmpfs mounted at
    `mount_dir` (gone when the program exits), or [] when the host does not
    allow it."""
    if not shutil.which("unshare"):
        return []
    script = 'mount -t tmpfs -o size=%s tmpfs "$0" && exec "$@"' % TMPFS_SIZE
    prefix = ["unshare", "--mount", "--propagation", "private", "sh", "-c",
              script, str(mount_dir)]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def run_runner(cmd):
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload runner exceeded %d s" % RUNNER_TIMEOUT_S)
    if code != 0:
        fail("workload runner exited with %d" % code)


def source_digest(root):
    h = hashlib.sha256()
    for base in ("src", "perfbench/src", "perfbench/specs"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    h.update((root / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


def commit_of(root):
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def declared_metrics(root, key):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def e2e_metrics(report):
    """End-to-end metrics from the runner's samples (see estimators.py)."""
    wall = trimmed_mean(report["wall_s"])
    cpu = trimmed_mean(report["cpu_s"])
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "trials_per_s": report["trials_per_pass"]
        / trimmed_mean(report["trial_wall_s"]),
        "core_util": cpu / (wall * report["threads"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": trimmed_mean(report["setup_s"]),
        "warm_s": trimmed_mean(report["warm_s"]),
        "merge_s": trimmed_mean(report["merge_s"]),
    }


def check_e2e_rows(workload, seed, out_dir):
    rows_dir = out_dir / "rows"
    primary = (rows_dir / "pass.csv").read_text()
    variants = {}
    for route in ("merged", "warm", "single"):
        path = rows_dir / (route + ".csv")
        if path.exists():
            variants[route] = path.read_text()
    pinned = None
    if seed == REFERENCE_SEED:
        pinned_path = HERE / "pinned" / (workload + ".csv.gz")
        if not pinned_path.exists():
            return 1, 1, ["no pinned rows at %s" % pinned_path]
        pinned = gzip.decompress(pinned_path.read_bytes()).decode()
    return check_rows(primary, variants, pinned)


def print_trace_summary(report, trace_file):
    events = json.loads(Path(trace_file).read_text())["traceEvents"]
    print("breakdown: " + json.dumps(report["breakdown"], sort_keys=True))
    by_layer = layer_self_times(events)
    total = sum(by_layer.values()) or 1.0
    print("self time per layer (ms):")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  %-10s %12.3f  %5.1f%%" % (layer, t / 1e3, 100 * t / total))
    print("self time per span (ms):")
    for name, t in sorted(self_times(events).items(), key=lambda kv: -kv[1]):
        print("  %-24s %12.3f" % (name, t / 1e3))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if "ANTS_SIMD_LEVEL" in os.environ:
        fail("refusing to run with ANTS_SIMD_LEVEL set: it would switch the "
             "executor's kernels between runs")
    root = checkout_root()
    runner = build_runner(root)

    work_dir = root / ".perfbench_work" / args.workload
    out_dir = root / ".perfbench_out" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    prefix = private_tmpfs_prefix(work_dir)
    cmd = prefix + [str(runner), "--workload=" + args.workload,
                    "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
                    "--trace=%d" % args.trace,
                    "--spec-dir=" + str(HERE / "specs"),
                    "--work-dir=" + str(work_dir),
                    "--out-dir=" + str(out_dir)]
    t0 = time.monotonic()
    run_runner(cmd)
    shutil.rmtree(work_dir, ignore_errors=True)
    report = json.loads((out_dir / "report.json").read_text())

    provenance = dict(report["provenance"])
    provenance.update({"commit": commit_of(root),
                       "source_sha256": source_digest(root),
                       "private_tmpfs": bool(prefix),
                       "workload": args.workload, "seed": args.seed,
                       "trace": args.trace,
                       "runner_s": round(time.monotonic() - t0, 3)})
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    if args.trace:
        values = report["metrics"]
        attempted = int(report["cells"])
        failed = int(report["replay_mismatched_cells"])
        messages = (["%d cells of the replay differ from run_sweep" % failed]
                    if failed else [])
        print_trace_summary(report, report["trace_file"])
        declared = declared_metrics(root, "per_layer")
    else:
        values = e2e_metrics(report)
        attempted, failed, messages = check_e2e_rows(args.workload, args.seed,
                                                     out_dir)
        values["rows_ok_frac"] = (attempted - failed) / attempted
        if report["pass_row_mismatches"]:
            messages.append("%d measured passes produced other rows than "
                            "the first" % report["pass_row_mismatches"])
        declared = declared_metrics(root, "end_to_end")
    for message in messages:
        print("check: " + message)

    metrics = {}
    for name, unit in declared:
        if name not in values:
            fail("metric %s was not measured" % name)
        metrics[name] = {"value": values[name], "unit": unit}
    correct = failed == 0 and not messages
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
