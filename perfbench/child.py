"""One run of one workload in a fresh process; prints one JSON line.

Modes:

* ``setup``     -- import repro and build the workload's inputs, then stop;
* ``plain``     -- set up, then the timed phase with all tracing off;
* ``obs``       -- as ``plain`` with the program's own ``repro.obs``
  tracing on (for the tracing-overhead measurement);
* ``traced``    -- as ``obs`` plus metrics and the benchmark's outside-in
  layer spans (:mod:`layers`), reporting per-layer metrics;
* ``reference`` -- the known answers from the serial per-design path.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; ``setup_s`` runs from there to the first timed call.
``setup`` and ``plain`` runs also time the host-speed kernel
(:mod:`hostspeed`, one copy per pool worker) twice, after set-up and
after the timed phase, and report both times as ``hostspeed_s``.
Run from the checkout root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import resource
import sys
import tempfile
import threading
import time

import layers
import hostspeed
import workloads


def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _reap_workers() -> None:
    """Wait until every pool worker has exited and been reaped.

    The engine shuts its pool down with ``wait=False``; the pool's manager
    thread then stops and joins the workers.  Joining that thread first
    (rather than racing it for the workers' exit status) puts every
    worker's CPU time into ``RUSAGE_CHILDREN``.
    """
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=60)
    for process in multiprocessing.active_children():
        process.join(timeout=60)
    if multiprocessing.active_children() or threading.active_count() > 1:
        raise RuntimeError("sweep pool did not shut down within 60 s")


def _ipc_result_bytes(prepared, outcome) -> int:
    """Pickled size of the evaluations the workers return, chunk by chunk."""
    from repro.core.engine import sweep_chunk_size

    workload = prepared.workload
    total = 0
    for fleet in outcome.values():
        for sweep in fleet.sites:
            evaluations = list(sweep.evaluations)
            size = sweep_chunk_size(len(evaluations), workload.batch_size)
            for start in range(0, len(evaluations), size):
                total += len(pickle.dumps(evaluations[start : start + size]))
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "plain", "obs", "traced", "reference")
    )
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--tmp-dir", default=None, help="where journals are written")
    parser.add_argument("--spans-out", default=None, help="traced mode: span dump path")
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    workload = workloads.WORKLOADS[args.workload]

    if args.mode == "reference":
        answers = workloads.reference_answers(workload, args.seed)
        print(json.dumps({"answers": answers}))
        return 0

    recorder = None
    if args.mode in ("obs", "traced"):
        from repro.obs import enable_metrics, enable_tracing

        enable_tracing()
        if args.mode == "traced":
            enable_metrics()
            recorder = layers.Recorder()
            recorder.install()

    prepared = workloads.prepare(workload, args.seed)
    ready_at = time.monotonic()
    if args.mode == "setup":
        hostspeed_s = [hostspeed.run(workload.workers) for _ in range(2)]
        print(json.dumps({"setup_s": ready_at - spawned_at, "hostspeed_s": hostspeed_s}))
        return 0
    hostspeed_s = [hostspeed.run(workload.workers)] if args.mode == "plain" else []

    with tempfile.TemporaryDirectory(prefix="journal-", dir=args.tmp_dir) as journal_dir:
        cpu_self = _rusage_cpu(resource.RUSAGE_SELF)
        cpu_children = _rusage_cpu(resource.RUSAGE_CHILDREN)
        root = recorder.open("run") if recorder is not None else None
        start = time.perf_counter()
        outcome = workloads.run(prepared, journal_dir)
        sweep_s = time.perf_counter() - start
        if root is not None:
            recorder.close(root)
            # The traced sweep time is the root span, so the layer ledger
            # adds up to it exactly.
            sweep_s = recorder.spans[root][3] - recorder.spans[root][2]
        parent_cpu = _rusage_cpu(resource.RUSAGE_SELF) - cpu_self
        _reap_workers()
        cpu_s = parent_cpu + _rusage_cpu(resource.RUSAGE_CHILDREN) - cpu_children
        journal_bytes = sum(
            os.path.getsize(os.path.join(journal_dir, name))
            for name in os.listdir(journal_dir)
        )

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hostspeed_s:
        hostspeed_s.append(hostspeed.run(workload.workers))
    observed = workloads.observed_answers(prepared, outcome)
    result = {
        "setup_s": ready_at - spawned_at,
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "hostspeed_s": hostspeed_s,
        "designs": prepared.designs,
        "operations": prepared.operations,
        "observed": observed,
    }

    if recorder is not None:
        from repro.obs import get_registry, get_tracer

        counters = get_registry().snapshot().get("counters", {})
        tracer = get_tracer()
        worker_spans = list(tracer.foreign_spans())
        metrics, ledger = layers.layer_metrics(
            recorder, counters, worker_spans, workload.workers
        )
        # Chunks run in-process (serial sweeps) or in workers (pooled ones).
        metrics["engine.chunks"] = sum(
            _count_named(root_span, "evaluate_chunk") for root_span in tracer.roots()
        ) + sum(
            1 for _, records in worker_spans for r in records if r["name"] == "evaluate_chunk"
        )
        metrics["engine.parent_cpu_s"] = parent_cpu if metrics["engine.dispatch_s"] else 0.0
        metrics["engine.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if workload.workers > 1
            else 0.0
        )
        metrics["ipc.result_bytes"] = (
            _ipc_result_bytes(prepared, outcome) if workload.workers > 1 else 0
        )
        metrics["journal.bytes"] = journal_bytes
        result["layers"] = metrics
        result["ledger"] = ledger
        result["missing_patches"] = recorder.missing
        result["counters"] = {
            key: counters.get(key, 0.0)
            for key in (
                "designs_evaluated",
                "supply_cache_hits",
                "supply_cache_misses",
                "battery_rows_seeded",
            )
        }
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(
                    {
                        "workload": workload.name,
                        "seed": args.seed,
                        "spans": [
                            {"name": n, "parent": p, "start": s, "end": e}
                            for n, p, s, e, _ in recorder.spans
                        ],
                    },
                    handle,
                )
    print(json.dumps(result))
    return 0


def _count_named(span, name: str) -> int:
    """How many spans of a repro.obs span subtree are called ``name``."""
    return (span.name == name) + sum(_count_named(child, name) for child in span.children)


if __name__ == "__main__":
    sys.exit(main())
