"""equicell benchmark: run one workload, check every output, print the metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload complex|equalize|weights|all \
      --seed N --seconds S --trace 0|1

A pass sends the workload's whole job set through equicell.cli.main, in one
fresh worker process (worker.py), single-threaded, as a closed loop with one
client.  Passes repeat while another one fits in --seconds; there are at
least two, unless a worker dies.  Each pass process first sets up (import, input generation, one
warm-up job), so set-up is timed once per pass and reported as the median.
With --trace 1 the passes alternate untraced and traced.  With --trace 0 the
last line of stdout is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics.  Lines before it give a stamp (the
versions, the machine and the commit) and a readable table.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIRS = ROOT / ".perfbench_work"
MIN_PASSES = 2
DEADLINE_S = 170.0   # a single-workload run ends well inside 180 s


def run_worker(name: str, seed: int, k: int, traced: bool,
               timeout: float) -> tuple[list[dict], str | None]:
    """Run pass k in a worker process; return its records and, if it did not
    finish normally, why."""
    WORKDIRS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORKDIRS))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--pass", str(k), "--trace", str(int(traced)),
           "--workdir", str(workdir)]
    died = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            died = "worker killed after %.0f s" % timeout
        if died is None and proc.returncode != 0:
            died = "worker exit code %d" % proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIRS.rmdir()
        except OSError:   # another run still uses it
            pass
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records, died


def job_times(records: list[dict]) -> list[float]:
    """Each job's time over the untraced passes: its median."""
    by_job: dict[str, list[float]] = {}
    for r in records:
        if r["kind"] == "job" and not r["traced"]:
            by_job.setdefault(r["name"], []).append(r["s"])
    return [statistics.median(v) for v in by_job.values()]


def summarize(records: list[dict], trace: bool, died: list[str] = ()) -> dict:
    """The result object printed as the last line, from worker records.

    A worker that died counts as one more failed job, the one it was running.
    """
    setups = [r["s"] for r in records if r["kind"] == "setup"]
    jobs = [r for r in records if r["kind"] == "job"]
    passes = [r for r in records if r["kind"] == "pass"]
    ends = [r for r in records if r["kind"] == "end"]
    attempted = len(jobs) + len(died)
    failed = sum(1 for r in jobs if r["fail"] is not None) + len(died)
    correct = not died and not any(r["wrong"] for r in jobs)
    plain = [r["s"] for r in passes if not r["traced"]]
    if not plain:
        raise RuntimeError("no complete pass: %s" % "; ".join(died))
    if trace:
        traced = [r for r in ends if r["traced"]]
        totals: dict[str, float] = {}
        for r in traced:
            for key, v in r["totals"].items():
                totals[key] = totals.get(key, 0.0) + v
        values = layers.layer_metrics(totals, max(len(traced), 1))
        traced_s = [r["s"] for r in passes if r["traced"]]
        values["trace.overhead_frac"] = (statistics.median(traced_s)
                                         / statistics.median(plain) - 1.0) if traced_s else 0.0
        table = workloads.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain),
            "job_s.max": max(job_times(records)),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": max((r["peak_rss_mb"] for r in ends), default=0.0),
        }
        table = workloads.END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, (unit, _) in table.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def stamp(name: str, seed: int, records: list[dict]) -> dict:
    setup = next(r for r in records if r["kind"] == "setup")
    return {
        "workload": name, "seed": seed,
        "python": setup["python"], "numpy": setup["numpy"], "scipy": setup["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": git_commit(),
    }


def print_table(name: str, records: list[dict], result: dict, died: list[str]) -> None:
    jobs = [r for r in records if r["kind"] == "job"]
    passes = sum(1 for r in records if r["kind"] == "pass")
    print("workload %s: %d jobs in %d passes, %d failed (failed_frac %.4f), correct=%s"
          % (name, result["attempted"], passes, result["failed"],
             result["failed"] / result["attempted"], result["correct"]))
    for r in jobs:
        if r["fail"] is not None:
            print("  failed: %s (pass %d): %s" % (r["name"], r["pass"], r["fail"]))
    for why in died:
        print("  worker died: %s" % why)
    for metric, m in result["metrics"].items():
        print("  %-26s %14.6g %s" % (metric, m["value"], m["unit"]))
    print("  %-26s %14.6g s (not gated)" % ("job_s.p50", statistics.median(job_times(records))))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    records: list[dict] = []
    died: list[str] = []
    longest = 0.0
    k = 0
    while k < MIN_PASSES or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        got, why = run_worker(name, seed, k, trace and k % 2 == 1,
                              DEADLINE_S - (t0 - start))
        longest = max(longest, time.monotonic() - t0)
        records += got
        k += 1
        if why is not None:   # later passes would most likely die the same way
            died.append("pass %d: %s" % (k - 1, why))
            break
    result = summarize(records, trace, died)
    print("stamp " + json.dumps(stamp(name, seed, records)))
    print_table(name, records, result, died)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="equicell benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "equicell" / "__init__.py").is_file():
        print("error: no equicell source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except RuntimeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
