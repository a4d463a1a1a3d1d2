"""Smoke test of the benchmark at tiny sizes: metric names, the result schema,
and failures that are counted rather than fatal.

Run from the repository root: python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SITES = [(0.5, 0.5), (1.5, 0.5), (1.0, 1.2), (0.3, 1.0)]


def tiny_workload():
    ok = workloads.Job(name="complex-d2-n3",
                       argv=("complex", "--d", "2", "--n", "3", "--output", "{out}"),
                       check=lambda out: None if out.data else "no output file")
    injected = workloads.Job(name="injected", argv=("complex", "--d", "2", "--n", "3"),
                             check=lambda out: "injected failure")
    incidence = workloads.Job(name="obstruction-n4",
                              argv=("obstruction", "--n", "4", "--verify"),
                              check=lambda out: None if "verify=ok" in out.stdout else "bad")
    weights = workloads.weights_job("weights-n4", workloads.PENTAGON, TINY_SITES)
    hang = workloads.Job(name="hang", call=lambda: time.sleep(60), check=lambda out: None)
    return workloads.Workload("tiny", (ok, injected, incidence, weights, hang), ok,
                              cap_s=1.0)


def run_tiny(workdir, trace):
    """Two passes, as run.py makes them, but in this process."""
    wl = tiny_workload()
    worker.write_inputs(wl.jobs, workdir)
    records = []
    for k in range(2):
        records.append({"kind": "setup", "s": 0.5})
        worker.run_pass(wl, workdir, k, trace and k == 1, records.append)
    return records


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCH[key]} == table


def test_every_complex_job_has_a_recorded_digest():
    assert set(workloads.COMPLEX_CLI) <= set(workloads.load_digests())


def test_failures_are_counted_not_fatal(tmp_path):
    records = run_tiny(tmp_path, trace=False)
    result = run.summarize(records, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    fails = {r["name"]: r["fail"] for r in records if r["kind"] == "job"}
    assert fails["complex-d2-n3"] is None
    assert fails["obstruction-n4"] is None
    assert fails["weights-n4"] is None
    assert fails["injected"] == "injected failure"
    assert fails["hang"].startswith("time cap")
    assert (result["attempted"], result["failed"]) == (10, 4)
    assert result["correct"] is False   # the injected check saw a wrong output
    metrics = result["metrics"]
    assert list(metrics) == list(workloads.END_TO_END)
    assert metrics["ok_frac"]["value"] == 0.6
    assert 1.0 <= metrics["job_s.max"]["value"] < 5.0   # the capped job
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    records = run_tiny(tmp_path, trace=True)
    assert [r["traced"] for r in records if r["kind"] == "pass"] == [False, True]
    result = run.summarize(records, trace=True)
    assert list(result["metrics"]) == list(workloads.PER_LAYER)
    v = {name: m["value"] for name, m in result["metrics"].items()}
    assert v["labels.count"] == 2 * 24          # two complex (2, 3) jobs
    assert 0 < v["poset.covers"] <= v["poset.face_pairs"]
    assert v["obstruction.incidence_s"] > 0     # face_matrix as bound in obstruction
    assert v["poset.face_matrix_s"] > 0
    assert v["weights.solves"] == 1
    assert v["weights.builds_per_solve"] >= 1
    assert v["geometry.clips_per_build"] == 4 * 3   # 4 cells, each clipped by 3 sites
    assert v["jsonio.bytes"] > 0 and v["cli.self_s"] > 0
    from equicell import obstruction, poset
    assert poset.face_matrix.__module__ == "equicell.poset"
    assert obstruction.face_matrix is poset.face_matrix


def test_dead_worker_counts_as_a_failed_job(tmp_path):
    records, died = run.run_worker("no-such-workload", 1, 0, False, 60.0)
    assert records == [] and died == "worker exit code 1"
    result = run.summarize(run_tiny(tmp_path, trace=False), False, [died])
    assert (result["attempted"], result["failed"]) == (11, 5)
    assert result["correct"] is False


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "complex",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert '"metrics"' not in got.stdout
