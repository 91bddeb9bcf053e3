"""The two workloads, and the query layer's sweep. Each workload is
closed-loop with one caller (this process): it sets up, warms up, then
repeats its unit of work until the run's measuring time is spent (always
at least once), checking every output against the oracle of the seed.

- ``bulk_load``: the 12-segment WAL into a fresh copy-on-write lake as one
  commit group with full extraction; unit = one load, then the
  final-state lookups and one scan.
- ``cdc_tail``: the same WAL fed one segment at a time into a
  merge-on-read lake with late extraction; unit = one cycle of 12
  commits, each followed by lookups and a scan.

``query_sweep`` times the five queries (the ``ops`` layer) on generated
tables in traced runs only: as a workload of its own, passes of these
sub-second, scheduling-bound queries spread by up to 0.36 of their median
from run to run on a shared 4-vCPU host, above any bound a regression
check could use.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow.parquet as pq

import gene_etl_ray.pipelines.ingest as ingest
import gene_etl_ray.queries as queries
from gene_etl_ray.config import EngineConfig
from gene_etl_ray.state.manifest import current_files

import inputs

PARTITIONS = 16
# single-url lookup_urls calls after each commit; a lookup's cost grows
# with the number of delta files holding its url, so the sample must be
# large enough that every seed draws a like mix of urls
LOOKUPS = 64
SETUP_REPEATS = 3  # input generation + oracle, median reported
INGEST_LIMIT_S = 90.0
READ_LIMIT_S = 30.0
QUERIES = ["q1_pricing_summary", "events_lww_latest", "docs_dedup_exact",
           "docs_dedup_incremental", "docs_minhash_pairs"]


class Run:
    """What a workload reads (``seed``, ``seconds``, ``work`` dir, the
    ``ops`` runner, the process ``tree``, an optional ``tracer``) and
    what it leaves (``samples``, ``layer``, ``setup_parts``, ``wal``)."""

    def __init__(self, seed: int, seconds: float, work: str, ops, tree, tracer) -> None:
        self.seed, self.seconds, self.work = seed, seconds, work
        self.ops, self.tree, self.tracer = ops, tree, tracer
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}
        self.setup_parts: dict[str, float] = {}
        self.wal: str | None = None
        self.window_s = self.cpu_s = 0.0

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def measure(self, unit) -> None:
        """Repeat ``unit()`` until ``seconds`` have passed, at least once,
        with the tracer (if any) installed and the Ray tree's CPU time
        read around the window."""
        if self.tracer is not None:
            self.tracer.install(QUERIES)
        cpu0, t0 = self.tree.cpu_s(), time.perf_counter()
        try:
            while True:
                unit()
                if (time.perf_counter() - t0 >= self.seconds
                        or time.monotonic() >= self.ops.deadline):
                    break
        finally:
            self.window_s = time.perf_counter() - t0
            self.cpu_s = self.tree.cpu_s() - cpu0
            if self.tracer is not None:
                self.tracer.uninstall()


# -- shared WAL set-up and checks -------------------------------------------

def setup_wal(run: Run) -> tuple[str, inputs.WalOracle]:
    """Generate the seed's WAL and its oracle ``SETUP_REPEATS`` times;
    keep the last, report the median wall and the generator's share."""
    walls, gens = [], []
    for i in range(SETUP_REPEATS):
        wal = run.path(f"wal{i}")
        t0 = time.perf_counter()
        inputs.make_wal(wal, run.seed)
        gens.append(time.perf_counter() - t0)
        oracle = inputs.WalOracle(wal)
        walls.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(wal)
    run.setup_parts["inputs_s"] = statistics.median(walls)
    run.layer["fixtures.gen_s"] = statistics.median(gens)
    run.wal = wal
    return wal, oracle


def lookup_urls_for(oracle: inputs.WalOracle, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [str(u) for u in rng.choice(oracle.urls, LOOKUPS, replace=False)]


def final_texts(oracle: inputs.WalOracle) -> dict[str, str | None]:
    return {u: x if isinstance(x, str) else None for u, (_, _, x) in oracle.rows.items()}


def _lookup_matches(t, url: str, want: dict, texts: dict | None) -> bool:
    if url not in want:
        return t.num_rows == 0
    if t.num_rows != 1:
        return False
    ts = int(inputs._ts_us(t.column("warc_ts").to_pandas())[0])
    seq = int(t.column("seq")[0].as_py())
    if (ts, seq) != tuple(want[url][:2]):
        return False
    return texts is None or t.column("text")[0].as_py() == texts[url]


def reads(run: Run, lake: str, urls: list[str], want: dict, texts: dict | None,
          timed: bool) -> None:
    """Single-url lookups then one projected scan, each checked against
    ``want`` (url -> (warc_ts_us, seq, ...)); ``texts`` adds the text
    check of the final state."""
    for u in urls:
        r = run.ops.run("lookup_urls", lambda: ingest.lookup_urls(lake, [u]), READ_LIMIT_S,
                        lambda t: _lookup_matches(t, u, want, texts))
        if r and timed:
            run.add("read_ms", 1e3 * r[1])
    r = run.ops.run(
        "read_lake scan",
        lambda: ingest.read_lake(lake, columns=["url", "warc_ts"]).count(),
        READ_LIMIT_S, lambda n: n == len(want))
    if r and timed:
        run.add("scan_s", r[1])


def converged(lake: str, oracle: inputs.WalOracle) -> bool:
    return inputs.lake_digest(ingest.read_lake(lake).to_pandas()) == oracle.digest


def lake_shape(run: Run, lake: str, wal: str, live_rows: int) -> None:
    """Bytes, files and rows the lake holds for what the WAL fed it."""
    files = current_files(lake)
    paths = [f for fs in files.values() for f in fs]
    wal_bytes = sum(os.path.getsize(f) for f in inputs.wal_segments(wal))
    run.add("bytes_ratio", sum(os.path.getsize(f) for f in paths) / wal_bytes)
    run.add("files_per_partition", len(paths) / max(1, len(files)))
    rows = sum(pq.read_metadata(f).num_rows for f in paths)
    run.add("rows_read_per_row_out", rows / live_rows)


# -- bulk_load ----------------------------------------------------------------

def bulk_load(run: Run) -> None:
    wal, oracle = setup_wal(run)
    urls = lookup_urls_for(oracle, run.seed)
    segments = inputs.wal_segments(wal)
    events = sum(pq.read_metadata(f).num_rows for f in segments)

    def config(lake: str) -> EngineConfig:
        return EngineConfig(lake_dir=lake, num_partitions=PARTITIONS,
                            epochs_per_commit=len(segments), prevalidate=False)

    def load(name: str) -> None:
        lake = run.path(name)
        r = run.ops.run("run_ingest", lambda: ingest.run_ingest(config(lake), wal),
                        INGEST_LIMIT_S, lambda _: converged(lake, oracle))
        reads(run, lake, urls, oracle.rows, final_texts(oracle), timed=True)
        if r:
            run.add("op_s", r[1])
            run.add("commit_latency_s", r[1])
            run.add("events_per_s", events / r[1])
            lake_shape(run, lake, wal, len(oracle.rows))
        shutil.rmtree(lake, ignore_errors=True)

    # warm-up: the first segment alone runs every stage of a load and
    # starts Ray's workers, at a twelfth of a load's extraction work
    t0 = time.perf_counter()
    first, lake = run.path("warm", "wal"), run.path("warm", "lake")
    os.makedirs(first)
    shutil.copy(segments[0], first)
    run.ops.run("run_ingest warm-up", lambda: ingest.run_ingest(config(lake), first),
                INGEST_LIMIT_S)
    reads(run, lake, urls, oracle.prefix_live[0], None, timed=False)
    shutil.rmtree(run.path("warm"), ignore_errors=True)
    run.setup_parts["warmup_s"] = time.perf_counter() - t0
    n = itertools.count()
    run.measure(lambda: load(f"bulk{next(n)}"))


# -- cdc_tail -----------------------------------------------------------------

def cdc_tail(run: Run) -> None:
    wal, oracle = setup_wal(run)
    urls = lookup_urls_for(oracle, run.seed)
    segments = inputs.wal_segments(wal)
    events = sum(pq.read_metadata(f).num_rows for f in segments)
    texts = final_texts(oracle)

    def cycle(name: str, n_segments: int, timed: bool) -> None:
        tail, lake = run.path(name, "wal"), run.path(name, "lake")
        os.makedirs(tail)
        cfg = EngineConfig(lake_dir=lake, num_partitions=PARTITIONS, epochs_per_commit=1,
                           merge_mode="mor", late_extract=True)
        first = None
        last = 0.0
        for e, seg in enumerate(segments[:n_segments]):
            shutil.copy(seg, tail)
            landed = time.perf_counter()
            final = e == len(segments) - 1
            r = run.ops.run(f"run_ingest segment {e}", lambda: ingest.run_ingest(cfg, tail),
                            INGEST_LIMIT_S,
                            (lambda _: converged(lake, oracle)) if final else None)
            first = landed if first is None else first
            if r is None:
                continue
            last = landed + r[1]  # run_ingest's return; the oracle check runs after it
            if timed:
                run.add("op_s", r[1])
                run.add("commit_latency_s", r[1])
            want = oracle.rows if final else oracle.prefix_live[e]
            reads(run, lake, urls, want, texts if final else None, timed)
        if timed and n_segments == len(segments):
            run.add("events_per_s", events / (last - first))
            lake_shape(run, lake, wal, len(oracle.rows))
        shutil.rmtree(run.path(name), ignore_errors=True)

    t0 = time.perf_counter()
    cycle("warm", 1, timed=False)
    run.setup_parts["warmup_s"] = time.perf_counter() - t0
    n = itertools.count()
    run.measure(lambda: cycle(f"tail{next(n)}", len(segments), timed=True))


# -- query layer (traced runs) -------------------------------------------------

QUERY_PASSES = 3


def query_sweep(run: Run) -> None:
    """The five queries on the seed's generated tables, each call checked
    against its DuckDB twin: a warm-up pass, then ``QUERY_PASSES`` timed
    passes; ``layer`` gets each query's median call."""
    tables = run.path("tables")
    inputs.make_query_tables(tables, run.seed)
    twins = inputs.duckdb_twins(tables, QUERIES)

    def call(name: str):
        res = queries.QUERIES[name](tables)
        return res.to_pandas() if hasattr(res, "to_pandas") else res

    walls: dict[str, list[float]] = {name: [] for name in QUERIES}
    if run.tracer is not None:
        run.tracer.install(QUERIES)
    try:
        for p in range(QUERY_PASSES + 1):
            for name in QUERIES:
                r = run.ops.run(name, lambda: call(name), READ_LIMIT_S,
                                lambda df: inputs.same_result(df, twins[name]))
                if r and p:
                    walls[name].append(r[1])
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    for name, xs in walls.items():
        run.layer[f"query.{name}_s"] = statistics.median(xs) if xs else 0.0


WORKLOADS = {"bulk_load": bulk_load, "cdc_tail": cdc_tail}
