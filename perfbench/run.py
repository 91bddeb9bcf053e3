"""CDC lake benchmark: one workload run per call.

    python3 perfbench/run.py --workload bulk_load --seed 1 --seconds 20 --trace 0

Run from the repository root. Generates the workload's inputs from the
seed, starts Ray (2 logical CPUs), sets up and warms up, then
runs the workload closed-loop for ``--seconds`` (see ``workloads.py``),
checking every output against the replay oracle or the DuckDB twins.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a traced
run (spans written to ``.pbw/spans/``). The line before it
carries every named figure of the run, the host's CPU count and load.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

RUN_LIMIT_S = 140.0  # no op runs past this; the kernel sweep and teardown fit before 180 s

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "read_p50_ms": "ms", "peak_rss_mb": "MB"}

QUERY_LAYER = [f"query.{q}_s" for q in (
    "q1_pricing_summary", "events_lww_latest", "docs_dedup_exact",
    "docs_dedup_incremental", "docs_minhash_pairs")]
PER_LAYER = {
    "fixtures.gen_s": "s",
    **{f"extract.us_per_doc{t}": "us" for t in ("", ".b128", ".b2048")},
    **{f"normalize.ns_per_row{t}": "ns" for t in ("", ".b128", ".b2048")},
    **{f"hashing.ns_per_row{t}": "ns" for t in ("", ".b128", ".b2048")},
    "ingest.counts_s": "s",
    "ingest.winner_select_s": "s",
    "ingest.pipeline_s": "s",
    "ingest.executions_per_group": "count",
    "ingest.driver_self_s": "s",
    "ingest.unattributed_s": "s",
    "ingest.span_coverage": "ratio",
    "state.commit_s": "s",
    "state.commit_partition_ms": "ms",
    "state.epoch_record_s": "s",
    "state.fsyncs_per_group": "count",
    "state.bytes_written_per_input_byte": "ratio",
    "read.files_per_partition": "count",
    "read.lookup_files_read": "count",
    "read.scan_rows_read_per_row_out": "ratio",
    **{q: "s" for q in QUERY_LAYER},
    "ray.cpu_s": "s",
    "ray.idle_frac": "ratio",
    "ray.schema_hash_warnings": "count",
    "trace.op_p50_s": "s",
}
MIN_SPAN_COVERAGE = 0.95


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def p95(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=20)[-1] if len(xs) > 1 else median(xs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    os.chdir(ROOT)  # Ray's temp dir may be named relative to it (host.start_ray)

    import gene_etl_ray  # noqa: F401  (fails where the engine's sources are missing)
    import ray

    import host
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    pbw = os.path.join(ROOT, ".pbw")
    work = os.path.join(pbw, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run that had this pid
    os.makedirs(work)
    out, err = host.LineCounter(sys.stdout), host.LineCounter(sys.stderr)
    sys.stdout, sys.stderr = out, err
    tree = host.ProcTree()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    ops = host.Ops(t_start + RUN_LIMIT_S)
    # the generators seed numpy's RandomState, which takes 0 <= seed < 2**32
    seed = args.seed % 2**32
    run = workloads.Run(seed, args.seconds, work, ops, tree, tracer)
    try:
        t0 = time.perf_counter()
        host.start_ray(ROOT, work)
        ray_start_s = time.perf_counter() - t0
        tree.start()
        workloads.WORKLOADS[args.workload](run)
        if tracer is not None:
            import kernels

            workloads.query_sweep(run)
            run.layer.update(kernels.sweep(inputs.wal_segments(run.wal), workloads.PARTITIONS))
            run.layer.update(spans.ledger(tracer.spans))
            tracer.dump(os.path.join(pbw, "spans", f"{args.workload}-seed{args.seed}.json"))
    finally:
        tree.stop()
        started = tree.descendants()
        ray.shutdown()
        host.wait_gone(started)
        sys.stdout, sys.stderr = out.inner, err.inner
        shutil.rmtree(work, ignore_errors=True)

    s = run.samples
    named = {
        "setup_s": ray_start_s + run.setup_parts["inputs_s"] + run.setup_parts["warmup_s"],
        "setup.ray_start_s": ray_start_s,
        **{f"setup.{k}": v for k, v in run.setup_parts.items()},
        "op_p50_s": median(s.get("op_s", [])),
        "read_p50_ms": median(s.get("read_ms", [])),
        "peak_rss_mb": tree.peak_rss / 2**20,
        "ingest_events_per_s": median(s.get("events_per_s", [])),
        "commit_latency_p50_s": median(s.get("commit_latency_s", [])),
        "lookup_p50_ms": median(s.get("read_ms", [])),
        "lookup_p95_ms": p95(s.get("read_ms", [])),
        "scan_p50_s": median(s.get("scan_s", [])),
        "op_failure_ratio": ops.failed / max(1, ops.attempted),
        "ops_attempted": ops.attempted,
        "op_samples": s.get("op_s", []),
        "read_samples": len(s.get("read_ms", [])),
        "nproc": host.nproc(),
        "ray_cpus": host.RAY_CPUS,
        "loadavg1": host.loadavg1(),
    }
    correct = ops.attempted > 0 and ops.failed == 0
    if args.trace:
        n_ops = max(1, len(s.get("op_s", [])))
        layer = dict(run.layer)
        layer.update({
            "state.bytes_written_per_input_byte": median(s.get("bytes_ratio", [])),
            "read.files_per_partition": median(s.get("files_per_partition", [])),
            "read.scan_rows_read_per_row_out": median(s.get("rows_read_per_row_out", [])),
            "ray.cpu_s": run.cpu_s / n_ops,
            "ray.idle_frac": 1.0 - run.cpu_s / (run.window_s * host.nproc()),
            # the ingest path logs none; per pass of the query sweep
            "ray.schema_hash_warnings": (out.hits + err.hits) / (workloads.QUERY_PASSES + 1),
            "trace.op_p50_s": named["op_p50_s"],
        })
        if layer["ingest.span_coverage"] < MIN_SPAN_COVERAGE:
            print(f"# span coverage {layer['ingest.span_coverage']:.3f} of run_ingest wall "
                  f"is below {MIN_SPAN_COVERAGE}", file=sys.stderr)
            correct = False
        named.update(layer)
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": named[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {json.dumps(named)}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
