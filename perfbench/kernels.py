"""Isolated per-row costs of the three ingest kernels, swept over batch
sizes: ``normalize_batch`` (``pipelines.normalize``), ``group_keys``
(``hashing``) and ``HtmlTextExtractor`` (``extract``), each called
directly on the workload's own WAL rows in this process.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

BATCH_SIZES = (128, 512, 2048)
REFERENCE_BATCH = 512  # the sweep point reported under the bare name
ROWS = 4096  # normalize / hashing rows per sweep point
DOCS = 2048  # extractor documents per sweep point (~0.7 s at 330 us/doc)
REPEATS = 3


def _per_row(fn, table: pa.Table, batch: int) -> float:
    """Median over ``REPEATS`` passes of seconds per row of ``fn`` over
    ``table`` cut into ``batch``-row slices."""
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for off in range(0, table.num_rows, batch):
            fn(table.slice(off, batch))
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) / table.num_rows


def sweep(segments: list[str], partitions: int) -> dict[str, float]:
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.extract import HtmlTextExtractor
    from gene_etl_ray.hashing import group_keys
    from gene_etl_ray.pipelines.normalize import normalize_batch

    raw = pa.concat_tables(
        [pq.read_table(f) for f in segments], promote_options="permissive"
    ).combine_chunks()
    raw = raw.slice(0, min(ROWS, raw.num_rows))
    norm = normalize_batch(raw)
    salt = EngineConfig(lake_dir="").salt_factor
    docs = norm.slice(0, DOCS)
    extractor = HtmlTextExtractor()

    out: dict[str, float] = {}
    for b in BATCH_SIZES:
        tag = "" if b == REFERENCE_BATCH else f".b{b}"
        out[f"normalize.ns_per_row{tag}"] = 1e9 * _per_row(normalize_batch, raw, b)
        out[f"hashing.ns_per_row{tag}"] = 1e9 * _per_row(
            lambda t: group_keys(t.column("url").to_numpy(zero_copy_only=False),
                                 partitions, salt, None),
            norm, b)
        t0 = time.perf_counter()
        for off in range(0, docs.num_rows, b):
            extractor(docs.slice(off, b))
        out[f"extract.us_per_doc{tag}"] = 1e6 * (time.perf_counter() - t0) / docs.num_rows
    return out
