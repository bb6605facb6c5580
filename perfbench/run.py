"""The repo benchmark: two workloads through the program's public APIs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload prove-verify-zoo --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time (median of several cold starts in child processes), then one
measured window of ``--seconds``.  ``--trace 1`` is the separate traced
run: an untraced and a traced window of half the length each, the
per-layer ledger from the traced one, and ``trace.overhead_ratio``
between the two.  Every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``BENCHMARK.json`` at the root of the checkout declares
every metric's name and unit; ``metrics.json`` beside this file adds the
layer, source and workloads of each.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

#: Cold starts per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: The traced run fails when the median unattributed remainder exceeds
#: this share of the median traced request latency.
UNATTRIBUTED_BOUND = 0.25

#: ``obs.stats`` counter -> per-layer metric (counts per request).
STAT_METRICS = {
    "ntt_base": "field.ntt_base",
    "ntt_extended": "field.ntt_extended",
    "ntt_plan_hits": "field.ntt_plan_hits",
    "commitments": "commit.commitments",
    "openings": "commit.openings",
    "transcript_absorbs": "commit.transcript_absorbs",
    "lookup_passes": "halo2.lookup_passes",
    "sparsity_skips": "prover.sparsity_skips",
}

#: Per-layer metrics that are the *total* time of a container span (they
#: contain ledger lines, so they are not ledger lines themselves).
TOTAL_METRICS = {
    "prover.prove_s": "prover.prove",
    "service.batch_s": "cluster.batch",
    "verify_service.batch_s": "verify_service.batch",
}


def declared():
    """``BENCHMARK.json``: the metric names and units this run prints."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(window, setups, rss_mb):
    """The end-to-end metrics of one untraced window.

    Each time metric is taken per slice of the window (a prove-verify-zoo
    round, 5 s of open-loop arrivals), and reported for the slices' fast
    quarter: the lower quartile over slices of a latency percentile, the
    upper quartile of a closed loop's per-slice throughput.  The shared
    host this runs on slows everything by up to ~1.5x for stretches of
    tens of seconds to minutes; a percentile of the whole window moves
    with the share of the window such a stretch covers, and the fast
    quarter of its slices does not, while a change to the program moves
    every slice.
    """
    from workloads import percentile

    return {
        "latency_p50_s": fast_quarter(window.slices, 50),
        "latency_p90_s": fast_quarter(window.slices, 90),
        "throughput_rps": percentile(window.rates, 75) if window.rates
        else window.completed / window.seconds if window.seconds else 0.0,
        "slo_attainment": window.slo_met / window.sent if window.sent
        else 0.0,
        "proof_bytes": statistics.mean(window.envelope_bytes)
        if window.envelope_bytes else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def fast_quarter(slices, q):
    """The lower quartile over ``slices`` of each slice's q-th latency
    percentile."""
    from workloads import percentile

    return percentile([percentile(part, q) for part in slices if part], 25)


def measure(workload, seconds):
    """The untraced run: cold starts, then one measured window."""
    from workloads import own_peak_rss_mb, process_peak_rss_mb, run_child

    workload.prepare()
    setups, probe_dir = [], None
    for index in range(SETUP_RUNS):
        probe_dir = os.path.join(workload.run_dir, "probe-%d" % index)
        setups.append(run_child("setup", workload.name, probe_dir,
                                workload.seed))
    workload.start(probe_dir)
    try:
        window = workload.run(seconds)
        rss_mb = own_peak_rss_mb() + sum(
            process_peak_rss_mb(pid) for pid in workload.worker_pids())
        workload.finish(window)
    finally:
        workload.stop()
    return window, end_to_end(window, setups, rss_mb)


def install_tracing(name, ledger, patches):
    import ledger as ledger_mod

    if name == "prove-verify-zoo":
        ledger_mod.wrap_prover_path(ledger, patches)
        ledger_mod.wrap_verify_service(ledger, patches)
    else:
        # serve-cluster-http proves in worker processes: the spans inside
        # a batch come from the service's own stitched trace (see
        # ServeClusterHttp._ingest)
        ledger_mod.wrap_http_service(ledger, patches)


def traced(workload, seconds, trace_path):
    """The traced run: untraced and traced windows, then the ledger."""
    from ledger import LEDGER_METRICS, Ledger, Patches
    from workloads import Window, percentile

    workload.prepare()
    workload.start(None)
    ledger, patches = Ledger(), Patches()
    try:
        plain = workload.run(seconds / 2.0)
        install_tracing(workload.name, ledger, patches)
        try:
            window = workload.run(seconds / 2.0, ledger)
        finally:
            patches.undo()
        workload.finish(window)
    finally:
        workload.stop()
    ledger.write_chrome_trace(trace_path)

    layers = dict(window.layer)
    lines = ledger.self_times()
    for metric in LEDGER_METRICS + ("unattributed_s",):
        layers[metric] = percentile(
            [line.get(metric, 0.0) for line in lines.values()], 50)
    for metric, name in TOTAL_METRICS.items():
        layers[metric] = percentile(list(ledger.totals(name).values()), 50)
    for stat, metric in STAT_METRICS.items():
        layers[metric] = window.counts.get(stat, 0) / max(1, window.completed)
    traced_p50 = percentile(window.latencies, 50)
    plain_p50 = percentile(plain.latencies, 50)
    layers["trace.overhead_ratio"] = traced_p50 / plain_p50 \
        if plain_p50 else 0.0
    if layers["unattributed_s"] > UNATTRIBUTED_BOUND * traced_p50:
        window.error("unattributed %.4f s exceeds %.0f%% of the traced "
                     "median latency %.4f s"
                     % (layers["unattributed_s"], 100 * UNATTRIBUTED_BOUND,
                        traced_p50))
    both = Window(sent=plain.sent + window.sent,
                  failed=plain.failed + window.failed,
                  errors=plain.errors + window.errors)
    return both, layers, lines


def resilience_totals():
    from repro.resilience import events

    counts = events.counts()
    return {name: counts.get(name, 0.0)
            for name in ("retries", "degraded", "recovered")}


def report(name, seed, window, metrics, units):
    """Human-readable summary (stdout), then the one-line JSON result."""
    succeeded = window.sent - window.failed
    print("perfbench %s seed %d: sent %d, succeeded %d, failed %d"
          % (name, seed, window.sent, succeeded, window.failed))
    for metric in sorted(metrics):
        print("  %-34s %14.6g %s" % (metric, metrics[metric], units[metric]))
    for problem in window.errors:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    result = {
        "correct": not window.errors and window.failed == 0,
        "attempted": window.sent,
        "failed": window.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]}
                    for metric in sorted(metrics)},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source at %s; run from the root of "
              "a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    bench = declared()
    run_root = os.path.join(os.getcwd(), ".perfbench")
    run_dir = os.path.join(run_root, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(run_dir)
    workload = WORKLOADS[args.workload](args.seed, os.path.relpath(run_dir))
    before = resilience_totals()
    try:
        if args.trace:
            trace_path = os.path.join(run_root, "trace-%s-seed%d.json"
                                      % (args.workload, args.seed))
            window, metrics, _ = traced(workload, args.seconds, trace_path)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            window, metrics = measure(workload, args.seconds)
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    after = resilience_totals()
    for name in after:
        delta = after[name] - before[name]
        if args.trace:
            metrics["resilience." + name] = delta
        if delta:
            window.error("resilience %s rose by %g during the run"
                         % (name, delta))
    if args.trace:
        for metric in units:
            metrics.setdefault(metric, 0.0)
        metrics = {m: metrics[m] for m in units}
    report(args.workload, args.seed, window, metrics, units)
    return 0


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print("perfbench: %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    sys.exit(code)
