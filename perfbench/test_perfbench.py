"""Tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python -m pytest perfbench -q

They check that the metric names the benchmark prints are the names
``BENCHMARK.json`` declares, that the traced run's ledger reconciles with
the traced latency, that a smoke-size run of every workload passes its
output checks, and that the benchmark refuses to run without the
program's source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def test_catalogue_describes_the_declared_metrics():
    """``metrics.json`` adds to ``BENCHMARK.json`` only: its entries are
    keyed by the declared metric names, one for each."""
    with open(os.path.join(HERE, "metrics.json")) as fh:
        cat = json.load(fh)
    bench = run.declared()
    for section in ("end_to_end", "per_layer"):
        assert set(cat[section]) == {m["name"] for m in bench[section]}
        assert not any({"unit", "better"} & set(entry)
                       for entry in cat[section].values())
    assert set(cat["workloads"]) == {w["name"] for w in bench["workloads"]}
    assert sorted(cat["workloads"]) == NAMES


def test_workload_constants_are_the_declared_ones():
    from repro.model.zoo import model_names

    assert sorted(workloads.ZOO) == model_names()
    whys = {w["name"]: w["why"] for w in run.declared()["workloads"]}
    for name, limit in workloads.SLO_SECONDS.items():
        assert "SLO %g s" % limit in whys[name]
    assert "Poisson %g req/s" % workloads.CLUSTER_RATE_RPS \
        in whys["serve-cluster-http"]


def test_self_time_counts_overlapping_children_once():
    book = ledger.Ledger()
    root = book.add_root("r", 0.0, 10.0)
    call = book.record("http.request", 0.0, 10.0, root.id, ("r",))
    book.record("pkcache.lookup", 1.0, 4.0, call.id, ("r",))
    book.record("verifier.verify", 3.0, 6.0, call.id, ("r",))
    book.record("registry.get", 9.0, 12.0, call.id, ("r",))
    lines = book.self_times()["r"]
    assert lines["latency"] == 10.0
    # children cover [1, 6] and, clipped to the call, [9, 10]
    assert lines["http.transport_s"] == pytest.approx(4.0)
    assert lines["pkcache.lookup_s"] == pytest.approx(3.0)
    assert lines["verifier.verify_s"] == pytest.approx(3.0)


def test_batch_span_is_shared_by_its_requests():
    book = ledger.Ledger()
    for rid in ("a", "b"):
        root = book.add_root(rid, 0.0, 5.0)
        book.record("service.request", 0.0, 5.0, root.id, (rid,))
    batch = book.record("service.batch", 1.0, 4.0, "service.request",
                        ("a", "b"))
    book.record("prover.prove", 1.5, 3.5, batch.id, ("a", "b"))
    for lines in book.self_times().values():
        assert lines["service.queue_wait_s"] == pytest.approx(2.0)
        assert lines["unattributed_s"] == pytest.approx(3.0)


@pytest.mark.parametrize("name", NAMES)
def test_traced_ledger_reconciles(name, tmp_path):
    """Per request the ledger lines plus the unattributed rest equal the
    traced latency, and the rest stays within the benchmark's bound."""
    run_dir = os.path.relpath(str(tmp_path), ROOT)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        workload = workloads.WORKLOADS[name](5, run_dir)
        window, layers, lines = run.traced(
            workload, 1.0, str(tmp_path / "trace.json"))
    finally:
        os.chdir(cwd)
    assert not window.errors and window.failed == 0
    assert lines
    for rid, line in lines.items():
        claimed = sum(line.get(m, 0.0) for m in ledger.LEDGER_METRICS)
        assert claimed + line["unattributed_s"] == pytest.approx(
            line["latency"], abs=1e-9), rid
        assert line["unattributed_s"] > -1e-6, rid
    latencies = sorted(line["latency"] for line in lines.values())
    median = workloads.percentile(latencies, 50)
    assert layers["unattributed_s"] <= run.UNATTRIBUTED_BOUND * median
    with open(str(tmp_path / "trace.json")) as fh:
        assert json.load(fh)["traceEvents"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_declared_metrics(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = run.declared()["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for name_ in ("resilience.retries", "resilience.degraded",
                      "resilience.recovered", "worker.restarts",
                      "service.shed"):
            assert result["metrics"][name_]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "prove-verify-zoo", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
