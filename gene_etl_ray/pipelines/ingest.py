"""The CDC ingest pipeline — WAL tail → partitioned Parquet lake.

Ray-Data-native restatement of the reference's seven-phase batch lifecycle
(``etl/__init__.py:40-110``: extract → pre-validate → transform → compute →
post-validate → persist → finalize), per SURVEY §3.4:

  read row groups of the uncommitted epoch files  # ONE task per ~128 MiB
  → pre-validation totals + normalize             #   read unit: read,
  → add pkey/salted gkey + watermark filter       #   counts, prep and
  → to lake rows + raw html side column           #   the exchange's map
  → order the block by gkey; attach its counts    #   side
  → one merge task per bucket: sum the counts,   # the ONLY wide exchange
       salt only hot partitions, [cow: + the partition's stored rows],
       LWW merge + html→text on the winners + write, once per group
  → two-phase manifest commit + checkpoints + lineage (driver, tiny)

The merge exchange (``_merge_exchange``) is built from stateless tasks on
the shared worker pool, on the model of Exoshuffle: no actor and no sort
of the group. Each read task leaves its block in the object store ordered by
gkey; merge task r then takes bucket r's zero-copy runs of every block
and merges them one group at a time. A group under
``READ_UNIT_MIN_BYTES`` decoded with no stored rows to rewrite
(merge-on-read, or an empty copy-on-write lake) skips it: one task
stages and merges the whole group, one Dataset execution in all.
Sinks: copy-on-write (rewrite touched partitions) or merge-on-read
(append LWW-deduped deltas + read-side resolution + ``compact``).
Torn/corrupt WAL segments are quarantined with later epochs held back;
a single-writer lock serializes committers; bounded object-store
backpressure is configurable.

Scale properties (designed for 10^10 events / multi-node):
- the only all-to-all exchange is ingest's merge exchange on ``gkey``;
  everything before it streams with backpressure. Every other pass over
  the lake (reads, compaction, diff, validation, audit, export,
  repartition, view refresh) is one task per partition through one
  reader (``_partition_rows``): the url-hash layout already co-locates
  a url's rows. On one node the merge
  tasks read the blocks in place (zero-copy slices of shared memory);
  across nodes a merge task fetches every block whole (open item,
  ROADMAP item 3);
- html→text extraction is winners-only: the raw html rides through the
  merge exchange and the merge extracts text only for LWW WINNERS (~1/U
  of the events for U updates per url) — no extractor stage before the
  exchange and no separate winner-selection pass, so a commit group runs
  exactly one exchange;
- hot partitions (domain skew) split into ``salt_factor`` url-deterministic
  sub-groups so no single merge task serializes a hot domain;
- a commit group reads its WAL files once: each read task computes its
  unit's per-partition counts and pre-validation totals over the rows it
  already holds and attaches them to its block as schema metadata; every
  merge task sums them (hot set), and so does the driver (lineage
  counts, validation report), from the merge tasks' output blocks;
- merge tasks write their own partition files — bulk data never visits the
  driver; the driver only sees one manifest row per merge group;
- commits are O(touched partitions); resume replays only epochs above each
  partition's high-watermark; point reads prune to hashed partitions
  (``lookup_urls``).
"""

from __future__ import annotations

import functools
import glob
import hashlib
import itertools
import json
import logging
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from gene_etl_ray.config import EngineConfig
from gene_etl_ray.extract import HtmlTextExtractor
from gene_etl_ray.hashing import group_keys, hash_urls, partition_keys, partition_of
from gene_etl_ray.pipelines.normalize import normalize_batch, prevalidate_counts
from gene_etl_ray.schema import (
    DELETED_COLUMN,
    PKEY_COLUMN,
    conform_table,
    evolve_schema,
    lake_schema_for,
)
from gene_etl_ray.state.checkpoint import (
    effective_watermarks,
    event_time_watermark,
    last_global_epoch,
    meta_path,
    read_lake_meta,
    write_checkpoint,
    write_global_epoch,
    write_lake_meta,
)
from gene_etl_ray.state.lineage import append_lineage
from gene_etl_ray.state.manifest import (
    commit_partition,
    current_files,
    manifest_path,
    repart_overlay_path,
)

logger = logging.getLogger(__name__)


def per_process_extractor():
    """Extraction callable whose extractor is built once per worker
    process, for the merge's winners-only extraction
    (``_make_merge_fn``) and the ``reextract`` backfill. The extractor
    state is six compiled regexes, so it needs no actor pool: the merge
    runs on the shared worker pool."""
    from gene_etl_ray.ops.util import per_process

    return per_process(HtmlTextExtractor)


MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("pkey", pa.int32()),
        ("gkey", pa.int64()),
        ("path", pa.string()),
        ("rows", pa.int64()),
        ("live_rows", pa.int64()),
        ("max_seq", pa.int64()),
        # zone map: the file's winning-version warc_ts range (µs since
        # epoch) — recorded in the manifest so time-range reads prune
        # files with ZERO file IO (no footer reads at 10^10 scale)
        ("ts_min_us", pa.int64()),
        ("ts_max_us", pa.int64()),
    ]
)


#: late extraction's side column: the raw html of every event, carried
#: through the merge exchange so only LWW winners are extracted. In a
#: lake that stores html it IS the lake's html column, renamed, so html
#: crosses the exchange once.
HTML_SIDE_COLUMN = "__html"

class AuditFailedError(RuntimeError):
    """A write-audit-publish gate rejected a staged commit group; the
    staged files + `_manifests/staged/` snapshot are left for inspection
    and NOTHING became reader-visible."""

    def __init__(self, report: dict):
        self.report = report
        super().__init__(f"staged commit group failed audit: {report}")


def _staged_dir(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_manifests", "staged")


def _clean_staged(lake_dir: str) -> None:
    """Unpublished staged state is redone, never resumed: the group's
    watermarks/checkpoints only advance at publish, so deleting a staged
    snapshot is always safe (exactly-once is anchored at publish)."""
    import shutil

    shutil.rmtree(_staged_dir(lake_dir), ignore_errors=True)


def _audit_staged(cfg: EngineConfig, by_pkey: dict, commit_epoch: int) -> dict:
    """The AUDIT of write-audit-publish, over the staged (tmp) files —
    DISTRIBUTED and map-only: one task per staged partition reads its
    files' url + tombstone columns and computes each file's stats.
    Checks: (1) url uniqueness per staged file (gkey groups partition
    the url space, so per-file uniqueness ⇒ per-partition uniqueness
    for the staged delta); (2) no null/empty urls; (3) staged stats
    reconcile with actual file rows; (4) optional delete-fraction
    circuit breaker (``audit_max_delete_frac``)."""
    expected_rows = {
        x["path"]: int(x["rows"]) for rs in by_pkey.values() for x in rs
    }
    checks = {
        "epoch": commit_epoch,
        "files": len(expected_rows),
        "unique_urls_per_file": True,
        "no_null_urls": True,
        "stats_reconcile": True,
        "delete_frac_ok": True,
        "rows": 0,
        "deleted_rows": 0,
    }
    if not expected_rows:
        checks["passed"] = True
        return checks
    audited = pa.schema([("url", pa.string()), (DELETED_COLUMN, pa.bool_())])

    def per_file(paths: list[str]) -> pa.Table:
        out = []
        for p in paths:
            t = _partition_rows([p], audited)
            u = t.column("url")
            out.append(
                {
                    "path": p,
                    "rows": t.num_rows,
                    "deleted": pc.sum(t.column(DELETED_COLUMN)).as_py() or 0,
                    "dup": pc.count_distinct(u, mode="all").as_py() != t.num_rows,
                    "null_urls": u.null_count + (pc.sum(pc.equal(u, "")).as_py() or 0),
                }
            )
        return pa.Table.from_pylist(out)

    res = _task_table(
        "Audit",
        [functools.partial(per_file, [x["path"] for x in rs]) for _, rs in sorted(by_pkey.items())],
    ).to_pylist()
    checks["rows"] = sum(r["rows"] for r in res)
    checks["deleted_rows"] = sum(r["deleted"] for r in res)
    checks["unique_urls_per_file"] = not any(r["dup"] for r in res)
    checks["no_null_urls"] = not any(r["null_urls"] for r in res)
    actual = {r["path"]: r["rows"] for r in res}
    checks["stats_reconcile"] = all(
        actual.get(p) == n for p, n in expected_rows.items()
    )
    if cfg.audit_max_delete_frac is not None and checks["rows"]:
        frac = checks["deleted_rows"] / checks["rows"]
        checks["delete_frac_ok"] = frac <= cfg.audit_max_delete_frac
        checks["delete_frac"] = round(frac, 4)
    checks["passed"] = all(
        checks[k]
        for k in (
            "unique_urls_per_file", "no_null_urls", "stats_reconcile",
            "delete_frac_ok",
        )
    )
    return checks


def _stage_snapshot(lake_dir: str, by_pkey: dict, commit_epoch: int, audit: dict) -> None:
    """Persist the staged group's plan (tmp file lists + audit report)
    under ``_manifests/staged/`` — the inspectable artifact of a failed
    audit."""
    from gene_etl_ray.state.manifest import atomic_write_json

    for pkey, rs in by_pkey.items():
        atomic_write_json(
            os.path.join(_staged_dir(lake_dir), f"part={int(pkey):05d}.json"),
            {
                "pkey": int(pkey),
                "epoch": commit_epoch,
                "tmp_files": [x["path"] for x in rs],
                "rows": sum(int(x["rows"]) for x in rs),
            },
        )
    atomic_write_json(
        os.path.join(_staged_dir(lake_dir), "AUDIT.json"), audit
    )


def _file_stats_of(rs: list[dict]) -> dict[str, dict]:
    """Per-file zone maps from merge-task manifest rows, keyed by FINAL
    basename (the commit rename strips the ``.tmp-`` prefix)."""
    out = {}
    for x in rs:
        if x.get("ts_min_us") is None:
            continue
        base = os.path.basename(x["path"]).removeprefix(".tmp-")
        out[base] = {
            "rows": int(x["rows"]),
            "ts_min_us": int(x["ts_min_us"]),
            "ts_max_us": int(x["ts_max_us"]),
        }
    return out


def _dead_letter_path(lake_dir: str, epoch: int) -> str:
    return os.path.join(lake_dir, "_deadletter", f"epoch={epoch:05d}.parquet")


def _write_dead_letters(
    lake_dir: str,
    files_by_epoch: dict[int, str],
    late_cutoff_us: int | None = None,
) -> dict[int, int]:
    """Dead-letter sink: rows the admission rule rejects, written ONE
    deterministic file per WAL segment (`_deadletter/epoch=<e>.parquet`,
    original columns + `reason`) — replayable after the producer fixes
    the defect, idempotent on re-run (same segment ⇒ same rejects ⇒
    overwrite). Distributed one task per segment; segments with zero
    rejects write nothing (and clear any stale file). Returns
    epoch → reject count (nonzero only)."""
    from gene_etl_ray.pipelines.normalize import dead_letter_batch

    os.makedirs(os.path.join(lake_dir, "_deadletter"), exist_ok=True)

    def per_segment(e: int, path: str) -> pa.Table:
        rej = dead_letter_batch(pq.read_table(path), late_cutoff_us)
        final = _dead_letter_path(lake_dir, e)
        if rej.num_rows:
            tmp = final + f".tmp{os.getpid()}"
            pq.write_table(rej, tmp)
            _fsync_file(tmp)
            os.replace(tmp, final)
        else:
            try:
                os.remove(final)  # stale file from an older segment
            except OSError:
                pass
        return pa.table({"epoch": [e], "rejects": [rej.num_rows]})

    res = _task_table(
        "DeadLetters",
        [functools.partial(per_segment, int(e), p) for e, p in sorted(files_by_epoch.items())],
    ).to_pylist()
    return {r["epoch"]: r["rejects"] for r in res if r["rejects"]}


def read_dead_letters(lake_dir: str) -> "ray.data.Dataset":
    """Dataset over the dead-letter sink (empty if none), one read task
    per file."""
    files = sorted(glob.glob(os.path.join(lake_dir, "_deadletter", "epoch=*.parquet")))
    fns = [lambda f=f: pq.read_table(f).replace_schema_metadata(None) for f in files]
    return _task_dataset(
        "DeadLetters", fns or [lambda: pa.table({"reason": pa.array([], pa.string())})]
    )


class CrashInjected(RuntimeError):
    """Raised by the test-only crash hook after N partition commits."""


class _CrashHook:
    """``run_ingest(fail_after_partitions=N)``: lets N partition commits
    of the run through, then raises CrashInjected at the next partition
    commit (before it touches disk) or commit-group record, whichever
    comes first — so exactly N partitions commit. Inert for N=None.
    Partition commits run on a thread pool, hence the lock."""

    def __init__(self, n: int | None):
        self.left = n
        self._lock = threading.Lock()

    def check(self, spend: bool) -> None:
        if self.left is None:
            return
        with self._lock:
            if self.left == 0:
                raise CrashInjected("injected crash after the last allowed partition commit")
            if spend:
                self.left -= 1


def discover_epochs(
    events_dir: str,
    quarantine: list[str] | None = None,
    footers: dict[str, pq.FileMetaData] | None = None,
) -> dict[int, str]:
    """Enumerate WAL segments, validating each parquet footer. A torn or
    corrupt segment (e.g. a writer died mid-upload) is QUARANTINED —
    skipped and reported — rather than crashing the tail loop; epochs
    after a quarantined one are also held back so commits stay contiguous
    (a gap would otherwise advance the watermark past the missing data).
    Numbering gaps are treated the same way (missing ⇒ hold back later
    epochs); WAL cleanup must therefore truncate PREFIXES only — deleting
    a mid-range segment would stall the tail loop by design. The footers
    read on the way land in ``footers`` (path → metadata) when given."""
    files = glob.glob(os.path.join(events_dir, "epoch=*.parquet"))
    out: dict[int, str] = {}
    bad: list[int] = []
    for f in sorted(files):
        e = int(os.path.basename(f)[6:-8])
        try:
            md = pq.read_metadata(f)
            if footers is not None:
                footers[f] = md
            out[e] = f
        except Exception:
            bad.append(e)
            if quarantine is not None:
                quarantine.append(f)
    if bad:
        first_bad = min(bad)
        out = {e: f for e, f in out.items() if e < first_bad}
    # Enforce numbering contiguity too: a MISSING segment (late /
    # out-of-order visibility on an object store) must hold later epochs
    # back exactly like a quarantined one — otherwise the watermark
    # advances past the not-yet-visible data and it is skipped forever.
    if out:
        keep: dict[int, str] = {}
        expected = min(out)
        for e in sorted(out):
            if e != expected:
                break
            keep[e] = out[e]
            expected += 1
        out = keep
    return out


def truncate_wal(
    cfg: EngineConfig, events_dir: str, archive_dir: str | None = None
) -> dict:
    """Prefix-only WAL cleanup: remove (or move to ``archive_dir``) every
    segment whose effects are durably committed for EVERY partition, so an
    endlessly-tailed WAL doesn't grow without bound at 10^10-event scale.

    The safe bound is ``last_global_epoch(lake)``: global epoch records
    are written LAST in the commit sequence and groups commit in
    contiguous order, so every epoch ≤ the bound is fully applied, and
    ``effective_watermarks`` guarantees no resume ever re-reads one (each
    partition's watermark is ≥ the bound). A crashed HALF-committed group
    has no global record yet, so its segments — which the resume needs —
    always survive. Deleting a prefix is exactly what
    :func:`discover_epochs`' contiguity rule permits (it anchors at the
    min PRESENT epoch); mid-range deletion would stall the tail loop by
    design. Safe to run concurrently with an ingest: a live run only ever
    reads epochs above its start-of-run watermark, which is ≥ this bound.

    Idempotent; with ``archive_dir`` the segments stay replayable (the
    cold-storage tier of the log-retention story)."""
    bound = last_global_epoch(cfg.lake_dir)
    removed: list[int] = []
    kept: list[int] = []
    for f in sorted(glob.glob(os.path.join(events_dir, "epoch=*.parquet"))):
        e = int(os.path.basename(f)[6:-8])
        if e <= bound:
            if archive_dir is not None:
                os.makedirs(archive_dir, exist_ok=True)
                os.replace(f, os.path.join(archive_dir, os.path.basename(f)))
            else:
                os.remove(f)
            removed.append(e)
        else:
            kept.append(e)
    return {"truncated_through": bound, "removed": removed, "kept": kept}


def _epoch_record_info(lake_dir: str, commit_epoch: int, config_hash: str) -> dict:
    """Global-epoch record payload: the commit group's total applied
    events across ALL attempts, derived from per-partition lineage
    (deduped per pkey — a crash between commit and checkpoint can
    duplicate a record). Returns a noop marker only when no partition of
    this epoch ever committed."""
    from gene_etl_ray.state.lineage import read_lineage

    last_by_pkey: dict[int, int] = {}
    max_ts: int | None = None
    for rec in read_lineage(lake_dir, commit_epoch):
        if rec.get("kind") == "repartition":
            continue  # layout change, not an event application
        last_by_pkey[rec["pkey"]] = int(rec.get("event_count", 0))
        m = rec.get("max_warc_ts_us")
        if m is not None and (max_ts is None or int(m) > max_ts):
            max_ts = int(m)
    if not last_by_pkey:
        return {"noop": True}
    info = {
        "partitions": sorted(last_by_pkey),
        "events": sum(last_by_pkey.values()),
        "config_hash": config_hash,
    }
    # event-time watermark contribution: max warc_ts this group committed
    # (drives lateness admission for LATER groups; absent on pre-0.4
    # lineage, which simply under-enforces lateness until new commits)
    if max_ts is not None:
        info["max_warc_ts_us"] = max_ts
    return info


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _schema_to_hex(s: pa.Schema) -> str:
    return s.serialize().to_pybytes().hex()


def _schema_from_hex(h: str) -> pa.Schema:
    # remove_metadata: schemas stored by older engine versions may carry
    # pandas metadata, which is unhashable and defeats Ray's schema
    # dedup (see run_ingest's group_schema note)
    return pa.ipc.read_schema(pa.BufferReader(bytes.fromhex(h))).remove_metadata()


def _clean_stale_tmp(lake_dir: str) -> None:
    """Temp files from a crashed run are invisible to readers (never
    manifested); remove them so they don't accumulate: data files and
    their .bloom sidecars. Runs once per ingest run, with or without
    work, so it lists the partition directories without ``glob``'s
    per-name pattern match."""
    for d in os.scandir(lake_dir):
        if not (d.name.startswith("part=") and d.is_dir()):
            continue
        for f in os.scandir(d.path):
            if f.name.startswith(".tmp-") and ".parquet" in f.name:
                try:
                    os.remove(f.path)
                except OSError:
                    pass


def _phase0(lake_dir: str, meta: dict, clean_tmp: bool) -> None:
    """Phase 0 of a commit group, done before its tasks run: the lake
    meta, durable; with ``clean_tmp`` (a run's first group) also a
    crashed run's temp files removed, listed on a commit-pool thread
    while the meta write waits in fsync."""
    cleaning = _commit_pool().submit(_clean_stale_tmp, lake_dir) if clean_tmp else None
    try:
        write_lake_meta(lake_dir, meta)
    finally:
        if cleaning is not None:
            cleaning.result()


#: schema-metadata key of a staged block's partials: JSON of read unit id
#: -> that unit's per-partition counts and pre-validation totals
PARTIALS_KEY = b"gene_etl.partials"

VALIDATION_KEYS = (
    "events", "null_url", "invalid_op", "null_warc_ts", "duplicate_seq", "late_events",
)


def _with_partials(t: pa.Table, partials: dict) -> pa.Table:
    return t.replace_schema_metadata({PARTIALS_KEY: json.dumps(partials)})


def _partition_counts(
    tables: list[pa.Table], hot_threshold: int
) -> tuple[dict[int, int], dict[str, int], set[int]]:
    """Per-partition TO-APPLY event counts, pre-validation totals and hot
    partitions (count > ``hot_threshold``) of a commit group, summed from
    the partials on ``tables``' schema metadata, each read unit once: Ray
    may split a staged block, and every slice keeps the metadata. Every
    merge task runs it over the staged blocks, so all derive the same hot
    set; the driver runs it over the merge tasks' output blocks, which
    carry the sum. Counts mirror the watermark filter (events at/below a
    partition's committed epoch are excluded), so ``events_applied`` and
    lineage event_counts are exact on resume; validation totals cover
    every row read (pre-validation parity, ``validate.py:33-85``)."""
    units: dict[str, dict] = {}
    for t in tables:
        md = t.schema.metadata
        if md and PARTIALS_KEY in md:
            units.update(json.loads(md[PARTIALS_KEY]))
    counts: dict[int, int] = {}
    val = dict.fromkeys(VALIDATION_KEYS, 0)
    for p in units.values():
        for k, c in p["counts"].items():
            counts[int(k)] = counts.get(int(k), 0) + c
        for k in val:
            val[k] += p[k]
    return counts, val, {k for k, c in counts.items() if c > hot_threshold}


#: bytes one read task takes on: decoded WAL row groups (one block) in
#: ingest, stored partition files in ``read_lake``
READ_UNIT_BYTES = 128 << 20

#: decoded WAL bytes per ingest read unit below which a group is not
#: split further, and below which a whole group runs as one task (unless
#: it rewrites stored copy-on-write rows, see ``_run_ingest``): a
#: read-plus-merge task does about 15 ms of work per decoded MB on one
#: vCPU, so at this floor a task's work is at least 10x the ~35 ms Ray
#: Data spends dispatching it
READ_UNIT_MIN_BYTES = 32 << 20


def _pack(items: list, sizes: list[int], min_units: int) -> list[list]:
    """Contiguous runs of ``items`` (one task each) of about equal bytes by
    ``sizes``: ``min_units`` runs, each item in the run its midpoint falls
    in, or more where a run would pass ``READ_UNIT_BYTES`` (unless it is
    one item); never an empty run."""
    cap = min(READ_UNIT_BYTES, sum(sizes) / max(1, min_units))
    units: list[list] = []
    run, acc, done = [], 0, 0
    for item, b in zip(items, sizes):
        if run and (acc + b > READ_UNIT_BYTES or done + acc + b / 2 > (len(units) + 1) * cap):
            units.append(run)
            run, acc, done = [], 0, done + acc
        run.append(item)
        acc += b
    return units + [run]


def _read_units(
    files: list[str], footers: list[pq.FileMetaData], cpus: int
) -> tuple[list[list[tuple[str, int]]], int]:
    """Plan a commit group's read tasks from the footers in hand (no
    ``read_parquet``, which opens and samples the files again on the
    driver): contiguous runs of ``(file, row group)`` of at most
    ``READ_UNIT_BYTES`` decoded, smaller when that yields fewer than
    ``2 * cpus`` tasks, but never under ``READ_UNIT_MIN_BYTES`` and
    never less than one row group. The exchange costs a slice per
    (block, merge group), so blocks are not cut finer. Returns the units
    and the group's decoded bytes."""
    rgs = [(f, i, md) for f, md in zip(files, footers) for i in range(md.num_row_groups)]
    sizes = [md.row_group(i).total_byte_size for _, i, md in rgs]
    decoded = sum(sizes)
    min_units = min(2 * cpus, max(1, decoded // max(1, READ_UNIT_MIN_BYTES)))
    return _pack([(f, i) for f, i, _ in rgs], sizes, min_units), decoded


def _read_row_groups(unit: list[tuple[str, int]], schema: pa.Schema) -> pa.Table:
    """One read task's share of a commit group: its ``(file, row group)``
    run, conformed to the group's unified ``schema`` (a segment written
    before a schema change gets the new columns null-backfilled)."""
    by_file: dict[str, list[int]] = {}
    for f, i in unit:
        by_file.setdefault(f, []).append(i)
    return pa.concat_tables(
        [schema.empty_table()]
        + [
            conform_table(pq.ParquetFile(f).read_row_groups(rgs), schema)
            for f, rgs in by_file.items()
        ]
    )


def _make_key_stage(P: int, S: int, watermarks: np.ndarray):
    """Key stage of ``_stage_events``: append pkey and salted gkey and
    drop events already committed for their partition (resume skip).
    ``watermarks`` is a tiny np array (one int per partition) captured in
    the closure — the broadcast-small-side pattern, reference analog of
    the dim-table lookup (``io.py:92``)."""

    def fn(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_numpy(zero_copy_only=False)
        pk, gk = group_keys(urls, P, S)
        batch = batch.append_column(PKEY_COLUMN, pa.array(pk, pa.int32()))
        batch = batch.append_column("gkey", pa.array(gk, pa.int64()))
        ep = batch.column("epoch").to_numpy(zero_copy_only=False)
        keep = ep > watermarks[pk]
        if keep.all():
            return batch
        return batch.filter(pa.array(keep))

    return fn


def _with_html_side(out: pa.Table, html) -> pa.Table:
    """``out`` (conformed lake rows) plus ``HTML_SIDE_COLUMN``: the lake's
    own html column renamed in place when the lake stores html, else
    ``html`` appended."""
    if "html" in out.column_names:
        return out.rename_columns(
            [HTML_SIDE_COLUMN if c == "html" else c for c in out.column_names]
        )
    return out.append_column(HTML_SIDE_COLUMN, html)


def _events_to_lake(batch: pa.Table, target: pa.Schema) -> pa.Table:
    """op → is_deleted tombstone flag; conform payload to the (possibly
    evolved) lake schema; keep gkey for the merge exchange. The raw html rides
    along as ``HTML_SIDE_COLUMN`` for the merge to extract the winners'
    text from."""
    gkey = batch.column("gkey")
    batch = batch.append_column(DELETED_COLUMN, pc.equal(batch.column("op"), "D"))
    out = _with_html_side(conform_table(batch, target), batch.column("html"))
    return out.append_column("gkey", gkey)


def _stage_events(
    unit_id: int,
    unit: list[tuple[str, int]],
    schema: pa.Schema,
    late_cutoff: int | None,
    key_stage,
    target: pa.Schema,
    P: int,
) -> pa.Table:
    """One event-side read task of the merge exchange, the only reader of
    the unit's WAL rows: read → pre-validation totals → normalize (+ the
    lateness cutoff) → key stage → to-lake → order by gkey, with the
    unit's partials (``_partition_counts``) on the block's schema
    metadata. A unit the filters empty still yields a block with the full
    schema and its partials."""
    raw = _read_row_groups(unit, schema)
    partials = prevalidate_counts(raw)
    nb = normalize_batch(raw)
    kept = normalize_batch(nb, late_cutoff) if late_cutoff is not None else nb
    partials["late_events"] = nb.num_rows - kept.num_rows
    out = _events_to_lake(key_stage(kept), target)
    cnt = np.bincount(out.column(PKEY_COLUMN).to_numpy(), minlength=P)
    partials["counts"] = {int(k): int(cnt[k]) for k in np.flatnonzero(cnt)}
    return _with_partials(_bucket_sort(out), {str(unit_id): partials})


def _make_lake_side_stage(
    cfg: EngineConfig,
    target: pa.Schema,
    html_type: pa.DataType | None = None,
):
    """Existing lake rows entering the merge: conform to ``target`` and
    add the salted gkey. Ingest passes the event side's ``html_type`` to
    get ``HTML_SIDE_COLUMN`` as well (null unless the lake stores html:
    stored rows are already extracted); compaction passes none and its
    merge extracts nothing."""
    P, S = cfg.num_partitions, cfg.salt_factor

    def fn(batch: pa.Table) -> pa.Table:
        out = conform_table(batch, target)
        if html_type is not None:
            out = _with_html_side(out, pa.nulls(batch.num_rows, html_type))
        urls = batch.column("url").to_numpy(zero_copy_only=False)
        _, gk = group_keys(urls, P, S)
        return out.append_column("gkey", pa.array(gk, pa.int64()))

    return fn


def _bloom_sidecar_path(parquet_path: str) -> str:
    return parquet_path + ".bloom"


def _write_bloom_sidecar(parquet_path: str, urls) -> None:
    """Per-file url Bloom filter, written by the merge task next to its
    partition file (and committed by the same rename): lets point
    lookups skip files that cannot contain a url — at 10^10 scale a MOR
    partition is a stack of delta files and most contain none of the
    probed urls. ~16 bits/url (fp ≈ 1%), fsynced like the data file."""
    import base64

    from gene_etl_ray.ops.relational import BloomFilter

    n = len(urls)
    num_bits = max(8192, ((n * 16 + 63) // 64) * 64)
    bf = BloomFilter(num_bits=num_bits, num_hashes=5)
    if n:
        bf.add(urls)
    payload = {
        "num_bits": num_bits,
        "num_hashes": 5,
        "bits": base64.b64encode(bf.bits.tobytes()).decode("ascii"),
    }
    p = _bloom_sidecar_path(parquet_path)
    with open(p, "w") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())


def _load_bloom_sidecar(parquet_path: str):
    """BloomFilter from a sidecar, or None (pre-sidecar lake files)."""
    import base64

    from gene_etl_ray.ops.relational import BloomFilter

    p = _bloom_sidecar_path(parquet_path)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as f:
            payload = json.load(f)
        bf = BloomFilter(
            num_bits=payload["num_bits"], num_hashes=payload["num_hashes"]
        )
        bf.bits = np.frombuffer(
            base64.b64decode(payload["bits"]), dtype=np.uint8
        ).copy()
        return bf
    except (ValueError, KeyError, OSError):
        return None  # corrupt sidecar ⇒ fall back to reading the file


# lake state the process keeps parsed, over every lake it has read
_LAKE_STATE_BYTES = 64 << 20
# a JSON entry is counted at this multiple of its file's bytes: the
# bytes it keeps plus their parse, which measures 2-6x the bytes
_JSON_WEIGHT = 8


class _StateFile(NamedTuple):
    raw: bytes  # the file's bytes the parse was made from
    value: object  # the parsed JSON
    decoded: object  # what the reader derives from it once (a schema)


class _LakeStateCache:
    """What readers parse from a lake's state files, process-wide, least
    recently used first out past ``budget`` bytes. Entries are keyed by
    path, of two kinds:

    - a decoded Bloom sidecar (``get``). A committed sidecar never
      changes, but a crash re-run or a copy-on-write rewrite can rename
      new bytes onto an old path, so the key is the file's identity
      ``(path, inode, mtime, size)``. A miss goes through
      ``_load_bloom_sidecar``: a missing or corrupt sidecar is None
      (read the file) and is not kept.
    - a parsed JSON state file (``json``): the lake meta, the
      repartition overlay, a partition manifest. Each call reads the
      file's bytes afresh (a few µs) and reuses the parse only while they
      equal the bytes it was made from: exact, whatever the file's mtime,
      inode or size say, and whether or not its writer recorded a global
      epoch (compaction, transform and repartition do not).

    Values are shared between callers and threads: read-only. Locked: a
    process may read from several threads at once (a threaded server)."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def _hit(self, key):
        with self._lock:
            v = self._entries.get(key)
            if v is not None:
                self._entries.move_to_end(key)
            return v

    def _put(self, key, value, nbytes: int) -> None:
        with self._lock:
            if key in self._entries:
                self._bytes -= self._sizes[key]
            self._entries[key], self._sizes[key] = value, nbytes
            self._entries.move_to_end(key)
            self._bytes += nbytes
            while self._bytes > self.budget:
                old, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(old)

    def get(self, parquet_path: str):
        """The decoded Bloom sidecar of a lake file, or None (read it)."""
        try:
            st = os.stat(_bloom_sidecar_path(parquet_path))
        except OSError:
            return _load_bloom_sidecar(parquet_path)
        key = (parquet_path, st.st_ino, st.st_mtime_ns, st.st_size)
        bf = self._hit(key)
        if bf is None and (bf := _load_bloom_sidecar(parquet_path)) is not None:
            self._put(key, bf, bf.bits.nbytes)
        return bf

    def json(self, path: str, decode=None) -> _StateFile | None:
        """The JSON state file at ``path`` parsed, with ``decode`` of it,
        or None when there is no such file."""
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return None
        e = self._hit(path)
        if e is None or e.raw != raw:
            value = json.loads(raw)
            e = _StateFile(raw, value, decode(value) if decode else None)
            self._put(path, e, _JSON_WEIGHT * len(raw))
        return e


_LAKE_STATE = _LakeStateCache(_LAKE_STATE_BYTES)
# the names of the cache from when it held only Bloom sidecars
_SidecarCache, _SIDECARS = _LakeStateCache, _LAKE_STATE


def _meta_schema(meta: dict) -> pa.Schema:
    return _schema_from_hex(meta["schema_hex"])


def _read_state(lake_dir: str) -> tuple[dict | None, pa.Schema | None, dict | None]:
    """The lake meta, its schema and the repartition overlay (None
    without one), through ``_LAKE_STATE``. The overlay, while it exists,
    is authoritative for the meta and for every manifest
    (:func:`repartition_lake`), so both come from the one read of it."""
    ov = _LAKE_STATE.json(repart_overlay_path(lake_dir), lambda o: _meta_schema(o["meta"]))
    if ov is not None:
        return ov.value["meta"], ov.decoded, ov.value
    m = _LAKE_STATE.json(meta_path(lake_dir), _meta_schema)
    return (m.value, m.decoded, None) if m else (None, None, None)


def _read_manifests(
    lake_dir: str, overlay: dict | None, pkeys: list[int] | None = None
) -> dict[int, dict]:
    """pkey → current manifest of each partition of ``pkeys`` that has
    one (every partition when None), in pkey order, each manifest read
    once through ``_LAKE_STATE``: the reader-side ``current_files`` and
    ``read_manifest`` in one pass."""
    if overlay is not None:
        ms = {int(k): m for k, m in overlay["manifests"].items()}
        return {k: ms[k] for k in sorted(ms if pkeys is None else set(pkeys) & set(ms))}
    if pkeys is None:
        try:
            names = os.listdir(os.path.join(lake_dir, "_manifests"))
        except FileNotFoundError:
            names = []
        pkeys = [int(n[5:-5]) for n in names if n.startswith("part=") and n.endswith(".json")]
    out = {}
    for k in sorted(pkeys):
        if (e := _LAKE_STATE.json(manifest_path(lake_dir, k))) is not None and e.value:
            out[k] = e.value
    return out


def _resolve_lww(group: pa.Table) -> pa.Table:
    """The one LWW kernel (ingest and compaction merges, reads, lookups,
    views): sort by (url, warc_ts, seq) and keep the last row per url,
    the max-(warc_ts, seq) version. Exact duplicate (url, warc_ts, seq)
    rows (at-least-once delivery) collapse to one."""
    t = group.combine_chunks().sort_by(
        [("url", "ascending"), ("warc_ts", "ascending"), ("seq", "ascending")]
    )
    n = t.num_rows
    if n > 1:
        u = t.column("url").combine_chunks()
        neq = pc.not_equal(u.slice(0, n - 1), u.slice(1, n - 1))
        t = t.filter(pa.chunked_array([neq, pa.array([True])]))
    return t


def _partition_rows(
    files: list[str], schema: pa.Schema, columns: list[str] | None = None, mor: bool = False
) -> pa.Table:
    """The one reader of stored lake rows: ``files`` (a partition's, or
    some of them) read for ``columns`` (every field of ``schema`` when
    None) and conformed to ``schema``'s fields, so a file written before
    a schema add gets the added columns null-backfilled. ``mor``
    LWW-resolves the rows (``_resolve_lww``, which needs url, warc_ts and
    seq among ``columns``): a merge-on-read delta stack folds to one row
    per url. The lake is hash-partitioned by url, so every per-url pass
    runs partition-local: one task per partition, no shuffle."""
    sub = schema if columns is None else pa.schema([schema.field(c) for c in columns])
    tabs = [sub.empty_table()]
    for f in files:
        with pq.ParquetFile(f) as pf:
            have = set(pf.schema_arrow.names)
            tabs.append(conform_table(pf.read([c for c in sub.names if c in have]), sub))
    t = pa.concat_tables(tabs)
    return _resolve_lww(t) if mor else t


def _make_merge_fn(
    lake_dir: str,
    commit_epoch: int,
    tag: str = "",
    drop_tombstones_before_us: int | None = None,
    cluster_rows: int | None = None,
    transform=None,
    keep_html: bool = False,
):
    """Per-group LWW merge + partition-file write (phase 1 of the commit).

    ``_resolve_lww`` keeps the last row per url in (url, warc_ts, seq)
    order — ties on warc_ts resolve by seq, exact duplicate rows
    (at-least-once delivery) collapse to one. Tombstone winners are
    RETAINED in the stored partition so later-arriving older versions
    cannot resurrect a deleted url; live-view reads filter them.
    Exception — bounded tombstone retention: under the lateness contract
    (``EngineConfig.allowed_lateness_us``) a tombstone with
    ``warc_ts < drop_tombstones_before_us`` (the group's admission
    cutoff) is physically DROPPED after LWW resolution: every event that
    could lose LWW to it is inadmissible (admission rejects
    ``warc_ts < cutoff``), and any admissible event is strictly newer and
    beats it regardless — dropping it cannot change any future LWW
    outcome. Without the contract delete markers accumulate forever.
    Reference analog: canonical-order + unique-key insert-or-skip
    (``persist.py:114-117``, ``persist.py:164-177``) generalized from
    first-writer-wins-at-batch-grain to last-writer-wins-at-event-grain.

    Late extraction: when the group carries ``HTML_SIDE_COLUMN``, the
    surviving winners whose ``text`` is null get it extracted from their
    html here. The side column is then dropped before the write, or,
    with ``keep_html``, renamed back to the lake's ``html`` column. LWW
    orders by (url, warc_ts, seq) only, never by text, so extracting
    after the dedup yields exactly the extract-everything result.

    The caller (the ingest merge exchange, or a compaction task per
    partition) passes each group's partition ``pkey`` and the ``gkey``
    that names its file.
    """
    extract = per_process_extractor()

    def merge(group: pa.Table, pkey: int, gkey: int) -> pa.Table:
        if group.num_rows == 0:
            return MANIFEST_ROW_SCHEMA.empty_table()
        t = _resolve_lww(group.drop_columns(["gkey"]))
        if drop_tombstones_before_us is not None and t.num_rows:
            gc = pc.and_(
                pc.fill_null(t.column(DELETED_COLUMN), False),
                pc.less(
                    pc.cast(t.column("warc_ts"), pa.int64()),
                    pa.scalar(drop_tombstones_before_us, pa.int64()),
                ),
            )
            if pc.any(gc).as_py():
                t = t.filter(pc.invert(gc))
        if t.num_rows == 0:
            # a partition of nothing but GC-able tombstones: emit no file;
            # the old manifest stays in force (correct — nothing changed)
            return MANIFEST_ROW_SCHEMA.empty_table()
        if HTML_SIDE_COLUMN in t.column_names:
            filled = extract(
                pa.table({"text": t.column("text"), "html": t.column(HTML_SIDE_COLUMN)})
            )
            i = t.schema.get_field_index("text")
            t = t.set_column(i, t.schema.field(i), filled.column("text"))
            if keep_html:
                t = t.rename_columns(
                    ["html" if c == HTML_SIDE_COLUMN else c for c in t.column_names]
                )
            else:
                t = t.drop_columns([HTML_SIDE_COLUMN])
        if transform is not None:
            # backfill hook (transform_lake): fn sees the fully-resolved
            # winner table — tombstone rows included (their payload is
            # null). The manifest stats the commit will record derive
            # from the RETURNED table, so the rewrite must be an UPDATE,
            # never an insert/delete/re-key: validated loudly.
            t2 = transform(t)
            if t2.schema != t.schema:
                raise ValueError(
                    "transform_lake: fn changed the schema "
                    f"({t.schema.names} -> {t2.schema.names})"
                )
            if t2.num_rows != t.num_rows:
                raise ValueError(
                    "transform_lake: fn changed the row count "
                    f"({t.num_rows} -> {t2.num_rows})"
                )
            for key_col in ("url", "warc_ts", "seq", DELETED_COLUMN):
                a, b2 = t.column(key_col), t2.column(key_col)
                # null-safe equality: null patterns must match AND every
                # non-null pair must be equal. pc.all() skips nulls, so a
                # bare pc.equal would silently PASS a fn that nulled out
                # key values (null == x -> null -> skipped).
                same = pc.and_(
                    pc.equal(pc.is_valid(a), pc.is_valid(b2)),
                    pc.fill_null(pc.equal(a, b2), True),
                )
                if not pc.all(same).as_py():
                    raise ValueError(
                        f"transform_lake: fn changed key column {key_col!r}"
                    )
            t = t2
        part_dir = os.path.join(lake_dir, f"part={pkey:05d}")
        os.makedirs(part_dir, exist_ok=True)
        if cluster_rows is not None and t.num_rows > cluster_rows:
            # time-CLUSTERED layout: winners sorted by warc_ts, sliced
            # into files with tight, near-disjoint zone-map ranges — a
            # later read_lake(ts_min/ts_max) then prunes WITHIN the
            # partition, not just across partitions. Safe because every
            # url appears exactly once post-LWW (the manifest's
            # `compaction` flag certifies the set is fully resolved, so
            # even MOR readers may upper-bound-prune it).
            t = t.sort_by([("warc_ts", "ascending"), ("url", "ascending")])
            subs = [
                t.slice(i, cluster_rows)
                for i in range(0, t.num_rows, cluster_rows)
            ]
        else:
            subs = [t]
        rows_out: list[dict] = []
        for j, s in enumerate(subs):
            suffix = f"-c{j:03d}" if len(subs) > 1 else ""
            path = os.path.join(
                part_dir,
                f".tmp-epoch={commit_epoch:05d}-g{gkey:09d}{tag}{suffix}.parquet",
            )
            # bounded row groups: a single-row-group partition file caps
            # any later reader at one task per file (same lesson as the
            # WAL segment writer) — 16k rows ≈ tens of MB of webtext
            pq.write_table(s, path, row_group_size=16384)
            _fsync_file(path)
            _write_bloom_sidecar(path, s.column("url"))
            ts = pc.cast(s.column("warc_ts"), pa.int64())
            live = s.num_rows - (pc.sum(s.column(DELETED_COLUMN)).as_py() or 0)
            rows_out.append(
                {
                    "pkey": pkey,
                    "gkey": gkey,
                    "path": path,
                    "rows": s.num_rows,
                    "live_rows": live,
                    "max_seq": pc.max(s.column("seq")).as_py(),
                    "ts_min_us": pc.min(ts).as_py(),
                    "ts_max_us": pc.max(ts).as_py(),
                }
            )
        return pa.Table.from_pylist(rows_out, schema=MANIFEST_ROW_SCHEMA)

    return merge


#: exchanged input (Parquet bytes on disk) per merge task above which
#: the merge exchange adds buckets beyond one per CPU
EXCHANGE_BUCKET_BYTES = 64 << 20


def _exchange_width(cpus: int, nbytes: int, num_groups: int) -> int:
    """R, the merge exchange's bucket count: one per CPU, more once a
    bucket would hold over ``EXCHANGE_BUCKET_BYTES`` of the ``nbytes``
    that pass through the exchange, never more than there are merge
    groups."""
    return min(max(cpus, -(-nbytes // EXCHANGE_BUCKET_BYTES)), num_groups)


def _bucket_of(gkey: np.ndarray, S: int, R: int) -> np.ndarray:
    """Exchange bucket of each merge group key ``gkey = pkey * S + salt``:
    ``(pkey + salt) % R``. A bare ``gkey % R`` would send every cold
    group (``gkey = pkey * S``) to the buckets that are multiples of
    ``gcd(S, R)``; this spreads partitions round-robin and a hot
    partition's salted sub-groups over consecutive buckets."""
    return (gkey // S + gkey % S) % R


def _bucket_sort(t: pa.Table) -> pa.Table:
    """Map side of the merge exchange: order a block by gkey with one
    stable argsort and one ``take``, so every (salted) group key of the
    block is one contiguous run and a partition's S sub-runs are
    adjacent; ``_bucket_groups`` slices them zero-copy."""
    return t.take(np.argsort(t.column("gkey").to_numpy(), kind="stable"))


def _bucket_groups(
    blocks: list[pa.Table], r: int, S: int, R: int, hot: set[int] = frozenset()
) -> list[tuple[int, pa.Table]]:
    """Reduce side of the merge exchange: ``(gkey, rows)`` of every merge
    group of bucket ``r``, whole, in gkey order. A ``hot`` partition's
    salted runs stay S groups; a cold partition's S adjacent sub-runs
    form one group keyed ``pkey * S``, one slice per block. Each group is
    the concatenation of its runs in ``blocks`` — zero-copy slices, never
    a ``take`` across the bucket (a bucket can pass the 2 GiB offset
    limit of an Arrow binary array; one merge group is bounded by
    salting). Runs are found by key change, so a block holding several
    sorted runs is still exact. A hot partition's salts without rows
    still form (empty) groups: a copy-on-write merge rewrites each salt's
    share of the partition. The groups carry no schema metadata."""
    hot_keys = np.fromiter(hot, np.int64, len(hot))
    runs: dict[int, list[pa.Table]] = {}
    for t in blocks:
        if t.num_rows == 0:
            continue
        gk = t.column("gkey").to_numpy()
        starts = np.concatenate(([0], np.flatnonzero(np.diff(gk)) + 1))
        pk = gk[starts] // S
        keys = np.where(np.isin(pk, hot_keys), gk[starts], pk * S)
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts, keys = starts[new], keys[new]
        ends = np.concatenate((starts[1:], [len(gk)]))
        for i in np.flatnonzero(_bucket_of(keys, S, R) == r):
            runs.setdefault(int(keys[i]), []).append(t.slice(starts[i], ends[i] - starts[i]))
    salted = (hot_keys[:, None] * S + np.arange(S)).ravel()
    for g in salted[_bucket_of(salted, S, R) == r]:
        runs.setdefault(int(g), [blocks[0].slice(0, 0)])
    return [
        (g, pa.concat_tables(runs[g]).replace_schema_metadata(None)) for g in sorted(runs)
    ]


def _op_secs(*datasets: "ray.data.Dataset") -> dict[str, float]:
    """Ray's per-operator wall time (s) of executed Datasets, branches of
    a union included, from the structured stats summary."""
    out: dict[str, float] = {}
    todo = [ds._get_stats_summary() for ds in datasets]
    while todo:
        summary = todo.pop()
        for op in summary.operators_stats:
            name = op.operator_name[:60]
            out[name] = out.get(name, 0.0) + op.time_total_s
        todo.extend(summary.parents)
    return out


class _TaskSource(ray.data.Datasource):
    """A Dataset whose blocks are made by plain functions, one read task
    each. One Dataset object, where ``range`` + ``map_batches`` build
    two: building one costs the driver a round trip to Ray's stats actor
    for its id."""

    def __init__(self, name: str, fns: list):
        self._name, self._fns = name, fns

    def get_name(self) -> str:
        return self._name

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int) -> list:
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        meta = BlockMetadata(num_rows=None, size_bytes=None, input_files=None, exec_stats=None)
        return [ReadTask(lambda f=f: _blocks(f()), meta) for f in self._fns]


def _blocks(out):
    """A task function's output as blocks: one table, or an iterable of
    them (a copy-on-write lake read yields a block per file)."""
    return [out] if isinstance(out, pa.Table) else out


def _task_dataset(name: str, fns: list) -> "ray.data.Dataset":
    """A Dataset of one read task per function in ``fns``; each returns a
    block or yields blocks."""
    return ray.data.read_datasource(_TaskSource(name, fns), override_num_blocks=len(fns))


def _task_table(name: str, fns: list) -> pa.Table:
    """Run ``fns`` as one ``_task_dataset`` execution and concatenate
    their small output blocks (reports, manifest rows) on the driver.

    The block refs come from one ``materialize``: ``to_arrow_refs``
    fetches the schema after executing, through a second ``limit(1)``
    execution that reruns the tasks and cancels them mid-way, and these
    tasks write files (a rerun truncated a merge task's ``.tmp-`` file
    before its commit renamed it, and left export tmp files behind)."""
    ds = _task_dataset(name, fns).materialize()
    return pa.concat_tables(
        ray.get([ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs])
    )


def _block_refs(ds: "ray.data.MaterializedDataset") -> list:
    """The block refs of a materialized Dataset, in order, read from its
    input bundles, for the commit group's critical path:
    ``iter_internal_ref_bundles`` plans a no-op execution first, which
    asks Ray's control store for free CPUs (~0.3 ms). The bundles sit in
    Ray's private plan layout (Ray 2.49); a test checks them against the
    public iterator."""
    return [ref for bundle in ds._logical_plan.dag.output_data() for ref in bundle.block_refs]


def _stored_rows(
    files: list[str], stage, gkeys: list[int], salted: bool
) -> dict[int, list[pa.Table]]:
    """A partition's current rows for the merge groups ``gkeys`` one
    merge task holds of it (a copy-on-write ingest merge task, or a
    compaction task: one cold group), staged by ``stage``
    (``_make_lake_side_stage``). Each file is read once per task, a row
    group at a time. A cold partition is one group and takes every row;
    a ``salted`` (hot) partition's rows go to their own salt's group, and
    the rows of salts other tasks merge are dropped row group by row
    group, so the task holds its share of the partition, not all of it."""
    out: dict[int, list[pa.Table]] = {g: [] for g in gkeys}
    for f in files:
        pf = pq.ParquetFile(f)
        for i in range(pf.num_row_groups):
            t = stage(pf.read_row_group(i))
            if not salted:
                out[gkeys[0]].append(t)
                continue
            gk = t.column("gkey").to_numpy()
            for g in gkeys:
                keep = gk == g
                if keep.any():
                    out[g].append(t.filter(keep))
    return out


def _merge_exchange(
    stages: list,
    small: bool,
    merge,
    S: int,
    R: int,
    hot_threshold: int,
    lake_files: dict[int, list[str]] | None = None,
    lake_stage=None,
    before=None,
) -> tuple[list[pa.Table], list["ray.data.Dataset"]]:
    """The one wide exchange of a commit group: every row of one merge
    group reaches one ``merge`` call, with no actor and no sort of the
    group. ``stages`` are the group's read units as functions, each
    returning a block ordered by gkey (``_stage_events``).

    1. The staged Dataset runs one read task per stage; it runs as one
       Dataset execution whose blocks stay in the object store.
    2. One merge task per bucket reads every block — zero-copy views of
       shared memory — sums the blocks' partials (``_partition_counts``:
       every task derives the same hot set) and calls ``merge`` once per
       group of bucket r. The blocks are sealed before any merge task
       starts, so its ``ray.get`` never waits (a task blocked in
       ``ray.get`` releases its CPU, and Ray may start another worker
       process on it).

    A ``small`` group (under ``READ_UNIT_MIN_BYTES`` decoded, so one
    read unit, and with no stored rows to rewrite) skips the exchange:
    one task stages its block and merges it as the only bucket, in one
    Dataset execution. Ray Data costs tens of ms per execution and per
    task, more than such a group's work.

    Copy-on-write ingest passes the manifest snapshot ``lake_files``
    (pkey → current files) and ``lake_stage``: a merge task adds the
    stored rows of each partition it merges (``_stored_rows``), so the
    merge rewrites the partition whole. Task r gets the files of the
    partitions whose groups can fall in bucket r, hot or cold. Returns
    the merge tasks' output blocks — manifest rows, with the summed
    partials on their schema metadata — and the executed Datasets, whose
    per-operator stats (``_op_secs``) the caller reads off the critical
    path.

    The Datasets are built on driver threads while ``before`` (the lake
    meta write) and the staged execution run: building a Dataset waits
    on a round trip to Ray's stats actor for its id (about 2 ms a group
    on one vCPU), which they hide. The merge tasks read ``refs`` when
    the merge execution serializes them, after the staged blocks are
    sealed."""
    refs: list = []

    def merge_bucket(blocks: list[pa.Table], r: int, R: int, files: dict[int, list[str]]) -> pa.Table:
        counts, val, hot = _partition_counts(blocks, hot_threshold)
        out = []
        groups = _bucket_groups(blocks, r, S, R, hot)
        # a partition's groups are adjacent in gkey order
        for pkey, pgroups in itertools.groupby(groups, key=lambda kg: kg[0] // S):
            pgroups = list(pgroups)
            stored = _stored_rows(
                files.get(pkey, []), lake_stage, [g for g, _ in pgroups], pkey in hot
            )
            for gkey, g in pgroups:
                out.append(merge(pa.concat_tables([g, *stored[gkey]]), pkey, gkey))
        # one chunk: the driver deserializes each chunk of each column
        rows = pa.concat_tables([MANIFEST_ROW_SCHEMA.empty_table(), *out]).combine_chunks()
        return _with_partials(rows, {"group": {"counts": counts, **val}})

    def stage_and_merge() -> pa.Table:
        return merge_bucket([stage() for stage in stages], 0, 1, lake_files or {})

    def exchange_bucket(r: int, files: dict[int, list[str]]) -> pa.Table:
        return merge_bucket(ray.get(ray.get(refs[0])), r, R, files)

    pool = _commit_pool()
    if small:
        building = [pool.submit(_task_dataset, "StageAndMerge", [stage_and_merge])]
    else:
        building = [
            pool.submit(_task_dataset, "Events", stages),
            pool.submit(
                _task_dataset,
                "MergeBuckets",
                [
                    # (pkey + salt) % R == r for some salt < S (``_bucket_of``)
                    functools.partial(
                        exchange_bucket,
                        r,
                        {p: fs for p, fs in (lake_files or {}).items() if (r - p) % R < S},
                    )
                    for r in range(R)
                ],
            ),
        ]
    if before is not None:
        before()
    executed = [building[0].result().materialize()]
    if not small:
        # one object holds the block refs, so each merge task ships one
        # ref, not all of them
        refs.append(ray.put(_block_refs(executed[0])))
        executed.append(building[1].result().materialize())
    return ray.get(_block_refs(executed[-1])), executed


_CPUS: tuple[float, int] = (float("-inf"), 0)


def _ray_cpus() -> int:
    """The Ray cluster's CPU count, which sizes the read units and the
    merge exchange, re-read at most once a minute: the query is a round
    trip to Ray's control store, ~2 ms of a 0.4 s commit group."""
    global _CPUS
    if time.monotonic() - _CPUS[0] > 60:
        _CPUS = (time.monotonic(), int(ray.cluster_resources().get("CPU", 8)))
    return _CPUS[1]


_COMMIT_POOL: ThreadPoolExecutor | None = None


def _commit_pool() -> ThreadPoolExecutor:
    """The driver's partition-commit threads, kept across commit groups
    (a fresh pool per group paid thread starts and a join each time).
    fsync-bound, not CPU-bound: one thread per partition (the threads
    sleep in fsync) collapses the wave count — 64 partitions measured
    1.7 s at 16 threads vs ~0.6 s at 64."""
    global _COMMIT_POOL
    if _COMMIT_POOL is None:
        _COMMIT_POOL = ThreadPoolExecutor(max_workers=64, thread_name_prefix="commit")
    return _COMMIT_POOL


def run_ingest(
    cfg: EngineConfig,
    events_dir: str,
    fail_after_partitions: int | None = None,
) -> dict:
    """Ingest all not-yet-committed epochs from ``events_dir`` into the
    lake. Returns a metrics report. Safe to re-run after any crash: resume
    replays only epochs above each partition's high-watermark and converges
    to the identical state (tests: SURVEY §5.2 scenarios 1-4).
    ``fail_after_partitions`` (tests) crashes the run once that many
    partitions have committed, inside the production commit pool."""
    from ray.data import DataContext

    from gene_etl_ray.state.lock import acquire, release

    # take the writer lock FIRST: a LakeLockedError must not leak any
    # process-global DataContext mutations
    os.makedirs(cfg.lake_dir, exist_ok=True)
    acquire(cfg.lake_dir)  # single-writer: concurrent committers would race

    ctx = DataContext.get_current()
    prev_limits = ctx.execution_options.resource_limits
    try:
        if cfg.object_store_limit_bytes is not None:
            # bounded object-store backpressure (north_rule): the executor
            # stalls upstream stages once in-flight bytes hit the cap
            from ray.data import ExecutionResources

            ctx.execution_options.resource_limits = ExecutionResources(
                object_store_memory=cfg.object_store_limit_bytes
            )
        return _run_ingest(cfg, events_dir, fail_after_partitions)
    finally:
        release(cfg.lake_dir)
        ctx.execution_options.resource_limits = prev_limits


def _run_ingest(
    cfg: EngineConfig,
    events_dir: str,
    fail_after_partitions: int | None = None,
) -> dict:
    t0 = time.time()
    lake_dir = cfg.lake_dir
    os.makedirs(lake_dir, exist_ok=True)
    # materialize a committed-but-unfinalized repartition first (we hold
    # the writer lock); the overlay stays authoritative until removed
    from gene_etl_ray.state.manifest import finalize_repartition

    finalize_repartition(lake_dir)
    _clean_staged(lake_dir)  # unpublished WAP state is redone, not resumed
    P = cfg.num_partitions
    config_hash = cfg.hash()

    meta = read_lake_meta(lake_dir)
    if meta is not None and meta["num_partitions"] != P:
        raise ValueError(
            f"lake was created with num_partitions={meta['num_partitions']}, "
            f"config says {P}; the partition count of a lake is immutable"
        )
    # retention is STICKY once on: a later run with retain_history=False
    # would GC files that archived snapshots still reference — silent
    # destruction of every snapshot. Enabling mid-life is allowed.
    if meta is not None and meta.get("retain_history") and not cfg.retain_history:
        raise ValueError(
            "lake has snapshot retention enabled (retain_history in lake "
            "meta); running with retain_history=False would delete files "
            "archived snapshots reference — keep it enabled for this lake"
        )

    quarantined: list[str] = []
    footer_of: dict[str, pq.FileMetaData] = {}
    epochs = discover_epochs(events_dir, quarantine=quarantined, footers=footer_of)
    wm = effective_watermarks(lake_dir, P)
    min_wm = min(wm.values()) if wm else -1
    todo = sorted(e for e in epochs if e > min_wm)
    # Backfill bookkeeping a crashed run left unfinished: a commit group
    # whose every partition committed (checkpoints advanced the
    # watermark) but that died before its global record would otherwise
    # never get one — resume skips those epochs entirely. Each lineage
    # file is a commit-group head; write the missing record from it.
    ldir = os.path.join(lake_dir, "_lineage")
    if os.path.isdir(ldir):
        for n in sorted(os.listdir(ldir)):
            if not (n.startswith("epoch=") and n.endswith(".jsonl")):
                continue
            e = int(n[6:-6])
            if e <= min_wm and not os.path.exists(
                os.path.join(lake_dir, "_epochs", f"epoch={e:05d}.json")
            ):
                write_global_epoch(lake_dir, e, _epoch_record_info(lake_dir, e, config_hash))
    report: dict = {
        "events_in": 0,
        "events_applied": 0,
        "commits": [],
        "config_hash": config_hash,
        "validation": {},
        "quarantined_segments": quarantined,
    }
    if not todo:
        # a run with work sweeps in its first group's phase 0 (``_phase0``)
        _clean_stale_tmp(lake_dir)
        report["duration_sec"] = time.time() - t0
        return report

    wm_arr = np.array([wm[k] for k in range(P)], dtype=np.int64)
    # committed event-time watermark (µs of warc_ts) — from global epoch
    # records ONLY, so a resume of a half-committed group recomputes the
    # exact watermark the crashed attempt used (its own partitions'
    # manifests never feed admission decisions)
    ev_time_wm = event_time_watermark(lake_dir) if cfg.allowed_lateness_us is not None else None

    from gene_etl_ray.state.lock import heartbeat

    cpus = _ray_cpus()
    crash = _CrashHook(fail_after_partitions)
    for i in range(0, len(todo), cfg.epochs_per_commit):
        heartbeat(cfg.lake_dir)  # cross-host lease renewal, once per group
        group_epochs = todo[i : i + cfg.epochs_per_commit]
        commit_epoch = max(group_epochs)
        files = [epochs[e] for e in group_epochs]
        # lateness admission cutoff for THIS group: fixed at group start
        # from fully-committed state, identical across crash/resume
        late_cutoff = (
            ev_time_wm - cfg.allowed_lateness_us
            if cfg.allowed_lateness_us is not None and ev_time_wm is not None
            else None
        )

        if cfg.dead_letter:
            # route admission-rule rejects (incl. "late") to the
            # replayable sink BEFORE the merge pipeline silently drops
            # them (normalize_batch and dead_letter_batch partition every
            # batch exactly; the group's cutoff applies to both)
            dl = _write_dead_letters(
                lake_dir, {e: epochs[e] for e in group_epochs}, late_cutoff
            )
            report.setdefault("dead_letter", {}).update(
                {str(e): n for e, n in dl.items()}
            )
            report["dead_letter_rows"] = report.get("dead_letter_rows", 0) + int(
                sum(dl.values())
            )

        footers = [footer_of[f] for f in files]
        report["events_in"] += sum(md.num_rows for md in footers)

        # -- schema evolution (phase 0: durable BEFORE any data commit) --
        # A commit group may span a mid-stream schema change; unify the
        # files' schemas (additive + widening) and read with the unified
        # schema so the scanner null-backfills / casts per fragment.
        group_schema: pa.Schema | None = None
        for md in footers:
            # strip file-level (pandas) schema metadata: an unhashable
            # metadata dict defeats Ray's schema dedup
            s = md.schema.to_arrow_schema().remove_metadata()
            group_schema = s if group_schema is None else evolve_schema(group_schema, s)
        units, decoded = _read_units(files, footers, cpus)
        # cow: each merge task also reads and rewrites the stored rows of
        # the partitions it merges, work that grows with the lake, not the
        # WAL, and that the exchange spreads over R buckets; the exchange
        # won from about 2 MB of stored files (BASELINE.md), so only a
        # group into an empty cow lake runs as one task
        lake_files = current_files(lake_dir) if cfg.merge_mode == "cow" else None
        small = decoded < READ_UNIT_MIN_BYTES and not lake_files
        incoming_lake = lake_schema_for(group_schema, keep_html=cfg.keep_html)
        if meta is None:
            target = incoming_lake
        else:
            target = evolve_schema(_schema_from_hex(meta["schema_hex"]), incoming_lake)
        meta = {
            "num_partitions": P,
            "salt_factor": cfg.salt_factor,
            "schema_hex": _schema_to_hex(target),
            "config_hash": config_hash,
            "merge_mode": cfg.merge_mode,
            "retain_history": cfg.retain_history,
            "gc_grace_seconds": cfg.gc_grace_seconds,
            # partition-layout history (repartition_lake appends): the
            # partition count in force for snapshots as of each epoch
            "layouts": (meta or {}).get("layouts") or [{"epoch": -1, "P": P}],
        }
        # -- the merge exchange --
        # One read task per read unit reads, counts, preps and sorts its
        # rows: the only read of the group's WAL files. No extractor
        # stage: the raw html rides through the exchange as a side column
        # and the merge extracts only the LWW winners (~1/U of the events
        # for U updates per url). cow: each merge task reads the current
        # rows of the partitions it merges, so the merge rewrites them
        # whole; stored rows never pass through the exchange, so the WAL
        # bytes alone size it. mor: no lake read — the LWW-deduped delta
        # is APPENDED and reads resolve across files. A small group
        # stages and merges in its one read task.
        key_stage = _make_key_stage(P, cfg.salt_factor, wm_arr.copy())
        R = 1 if small else _exchange_width(
            cpus, sum(os.path.getsize(f) for f in files), P * cfg.salt_factor
        )
        t_pipe = time.time()
        # one tiny manifest row per merge group, plus per-operator wall
        # times for metrics.json (observability parity with the
        # reference's process log, ``etl/__init__.py:247-304``)
        merged, executed = _merge_exchange(
            [
                functools.partial(
                    _stage_events, u, unit, group_schema, late_cutoff, key_stage, target, P
                )
                for u, unit in enumerate(units)
            ],
            small,
            _make_merge_fn(
                lake_dir,
                commit_epoch,
                drop_tombstones_before_us=late_cutoff,
                keep_html="html" in target.names,
            ),
            cfg.salt_factor,
            R,
            cfg.hot_partition_threshold,
            lake_files=lake_files,
            lake_stage=_make_lake_side_stage(cfg, target, group_schema.field("html").type),
            before=functools.partial(_phase0, lake_dir, meta, clean_tmp=i == 0),
        )
        t_pipe = time.time() - t_pipe
        counts, val, hot = _partition_counts(merged, cfg.hot_partition_threshold)
        for k, v in val.items():
            report["validation"][k] = report["validation"].get(k, 0) + v
        if hot:
            logger.info(
                "salting armed: %d hot partition(s) %s exceed "
                "hot_partition_threshold=%d (max count %d) — each "
                "merged as %d url-deterministic sub-groups",
                len(hot), sorted(hot)[:8], cfg.hot_partition_threshold,
                max(counts.values()), cfg.salt_factor)

        # -- phase 2: commit (driver-side, O(touched partitions)) --
        by_pkey: dict[int, list[dict]] = {}
        for r in pa.concat_tables(merged).to_pylist():
            by_pkey.setdefault(int(r["pkey"]), []).append(r)

        if cfg.write_audit_publish:
            # AUDIT gate between write and publish: distributed checks
            # over the staged tmp files; nothing is reader-visible yet
            # (readers only trust manifests). A failed audit persists
            # the staged snapshot + report for inspection and aborts —
            # the inspection window lasts until the next run, which
            # cleans and redoes the group (publish anchors exactly-once).
            audit = _audit_staged(cfg, by_pkey, commit_epoch)
            _stage_snapshot(lake_dir, by_pkey, commit_epoch, audit)
            report.setdefault("audits", []).append(audit)
            if not audit["passed"]:
                raise AuditFailedError(audit)
            _clean_staged(lake_dir)  # publishing now — snapshot superseded

        lineage_lock = threading.Lock()

        def commit_one(pkey: int) -> int:
            """Commit ONE partition (rename+manifest → checkpoint →
            lineage, in that order — the per-partition crash contract is
            unchanged). Partitions touch disjoint files throughout
            (part=<k>/ dir, _manifests/part=<k>.json, per-pkey
            checkpoint), so commits parallelize across a thread pool;
            only the lineage append shares a per-epoch file and takes an
            in-process lock (cross-process writers are already serialized
            by the lake lock). Returns the partition's applied count."""
            crash.check(spend=True)
            rs = by_pkey[pkey]
            pkey_events = counts.get(pkey, 0)
            stats = {
                "rows": sum(int(x["rows"]) for x in rs),
                "live_rows": sum(int(x["live_rows"]) for x in rs),
                "events": pkey_events,
                # per-file zone maps, keyed by FINAL basename (stable
                # across the commit rename) — time-range file pruning
                "file_stats": _file_stats_of(rs),
            }
            commit_partition(
                lake_dir,
                pkey,
                commit_epoch,
                [x["path"] for x in rs],
                stats,
                append=(cfg.merge_mode == "mor"),
                retain=cfg.retain_history,
                defer_gc=cfg.gc_grace_seconds > 0,
            )
            write_checkpoint(lake_dir, pkey, commit_epoch, max(int(x["max_seq"]) for x in rs))
            ts_maxes = [x["ts_max_us"] for x in rs if x.get("ts_max_us") is not None]
            with lineage_lock:
                append_lineage(
                    lake_dir,
                    {
                        "epoch": commit_epoch,
                        "pkey": pkey,
                        "input_files": files,
                        "event_count": pkey_events,
                        "rows": stats["rows"],
                        "live_rows": stats["live_rows"],
                        # feeds the global record's event-time watermark
                        "max_warc_ts_us": max(ts_maxes) if ts_maxes else None,
                        "config_hash": config_hash,
                    },
                )
            return pkey_events

        t_commit = time.time()
        # fsync-bound serial section → thread pool (the measured
        # driver-side serial component: ~4 fsyncs/partition × 64
        # partitions ≈ 1.7 s/commit group at 32 cpus). Resume correctness
        # never depends on commit order (per-partition watermarks). One
        # lease check up front: the whole parallel phase is far shorter
        # than a per-partition loop.
        heartbeat(cfg.lake_dir)
        futures = [_commit_pool().submit(commit_one, k) for k in sorted(by_pkey)]
        futures_wait(futures)  # every commit settles before an error propagates
        applied = sum(f.result() for f in futures)
        crash.check(spend=False)
        # The global record totals the COMMIT GROUP across attempts: a
        # crashed run may already have committed + lineage'd some
        # partitions (this run watermark-skipped them) — `applied` stays
        # the THIS-RUN number for the run report.
        grp_info = _epoch_record_info(lake_dir, commit_epoch, config_hash)
        # Ray's operator stats, read while the epoch record fsyncs (the
        # commit threads' own Python work is done by now)
        op_secs = _commit_pool().submit(_op_secs, *executed)
        write_global_epoch(lake_dir, commit_epoch, grp_info)
        stage_secs = op_secs.result()
        t_commit = time.time() - t_commit
        wm_arr[:] = np.maximum(wm_arr, commit_epoch)
        if cfg.allowed_lateness_us is not None:
            # the group is now fully committed — advance the event-time
            # watermark for the NEXT group's admission cutoff. Use the
            # RECORD's max (lineage-derived: includes partitions a crashed
            # earlier attempt committed), so a mid-run group sees exactly
            # the watermark a fresh-process resume would read back
            m = grp_info.get("max_warc_ts_us")
            if m is not None:
                ev_time_wm = int(m) if ev_time_wm is None else max(ev_time_wm, int(m))
        report["events_applied"] += applied
        if not by_pkey:
            # every event was already committed (a resume after a crash
            # before this group's global record) or rejected: a noop
            continue
        report["commits"].append(
            {
                "epoch": commit_epoch,
                "partitions": len(by_pkey),
                "hot": sorted(hot),
                "pipeline_sec": round(t_pipe, 3),
                # partition commits through the global epoch record only
                # (schema evolution and audit are not commit time)
                "commit_sec": round(t_commit, 3),
                "stage_secs": stage_secs,
                # the group's shape: one execution of one task when small
                "read_units": len(units),
                "merge_buckets": R,
                "executions": len(executed),
            }
        )

    report["duration_sec"] = time.time() - t0
    if report["duration_sec"] > 0:
        report["events_per_sec"] = report["events_in"] / report["duration_sec"]
    from gene_etl_ray.state.manifest import atomic_write_json

    atomic_write_json(os.path.join(lake_dir, "_meta", "metrics.json"), report)
    return report


def lookup_urls(lake_dir: str, urls: list[str]) -> "pa.Table":
    """Point lookup: the live rows of the given urls, reading ONLY what
    can hold them (at 10^10 scale a handful of files instead of the
    lake). The canonical urls are hashed once: the hash names their
    partitions (``H % P``) and probes each file's Bloom sidecar, so a
    file whose sidecar proves none of the urls present is skipped (a MOR
    partition is a delta-file stack; most deltas miss most urls). The
    Bloom bit positions are computed once per filter shape and tested
    against every file's bits. Lake meta, overlay, manifests and
    sidecars come through ``_LAKE_STATE``, parsed once per version of
    their bytes. Work that a row cannot need is skipped: conforming a
    file already in the lake schema, LWW over fewer than two rows, the
    tombstone filter without a tombstone."""
    from gene_etl_ray.pipelines.normalize import canonicalize_url_one

    meta, target, overlay = _read_state(lake_dir)
    if meta is None:
        return pa.table({"url": pa.array([], pa.string())})
    canon = [c for c in map(canonicalize_url_one, urls) if c is not None]
    h = hash_urls(canon)
    pkeys = sorted(set(partition_of(h, meta["num_partitions"]).tolist()))
    files = [f for m in _read_manifests(lake_dir, overlay, pkeys).values() for f in m["files"]]
    kept, probes = [], {}
    for f in files:
        if (bf := _LAKE_STATE.get(f)) is not None:
            if (probe := probes.get((bf.m, bf.k))) is None:
                probe = probes[bf.m, bf.k] = bf.probe(h)
            if not bf.contains_probe(probe).any():
                continue
        kept.append(f)
    wanted = pa.array(canon, pa.string())
    tabs = []
    for f in kept:
        with pq.ParquetFile(f) as pf:
            t = pf.read(use_threads=False)
        t = t.filter(pc.is_in(t.column("url"), value_set=wanted))
        if t.num_rows:
            same = t.schema.equals(target, check_metadata=True)
            tabs.append(t if same else conform_table(t, target))
    logger.debug("lookup_urls: %d files in %d probed partitions, %d kept by Bloom and read",
                 len(files), len(pkeys), len(kept))
    t = pa.concat_tables(tabs) if tabs else target.empty_table()
    if meta.get("merge_mode") == "mor" and t.num_rows > 1:
        t = _resolve_lww(t)
    deleted = t.column(DELETED_COLUMN)
    if deleted.null_count or any(c.true_count for c in deleted.chunks):
        t = t.filter(pc.invert(deleted))
    return t.drop_columns([DELETED_COLUMN, PKEY_COLUMN])


def _ts_us(x) -> int | None:
    """Timestamp-ish → µs since epoch (pd.Timestamp / str / datetime /
    int µs)."""
    if x is None:
        return None
    if isinstance(x, (int, np.integer)):
        return int(x)
    import pandas as pd

    return int(pd.Timestamp(x).value // 1000)


def _prune_files_by_ts(
    manifests, lo_us: int | None, hi_us: int | None, allow_upper: bool
) -> tuple[list[str], int]:
    """Zone-map file pruning: drop files whose manifest-recorded warc_ts
    range provably misses [lo, hi]. Files without stats are kept (no
    false negatives). ``allow_upper`` gates ts_min > hi pruning — UNSAFE
    under mor LWW, where a winner above ``hi`` must still be read to
    suppress older in-range versions of the same url — EXCEPT for a
    manifest whose current file set came whole from one compaction
    (``stats.compaction``): that set is fully LWW-resolved (each url in
    exactly one file), so an out-of-range file cannot be suppressing
    anything and both bounds prune. The next MOR append replaces the
    stats, the certificate disappears, and the manifest falls back to
    lower-bound-only automatically. Returns (kept_files, pruned_count)."""
    kept: list[str] = []
    pruned = 0
    for m in manifests:
        if not m:
            continue
        fstats = m.get("file_stats") or {}
        au = allow_upper or bool((m.get("stats") or {}).get("compaction"))
        for f in m["files"]:
            s = fstats.get(os.path.basename(f))
            if s is not None:
                if lo_us is not None and s["ts_max_us"] < lo_us:
                    pruned += 1
                    continue
                if au and hi_us is not None and s["ts_min_us"] > hi_us:
                    pruned += 1
                    continue
            kept.append(f)
    return kept, pruned


def _lake_view(
    schema: pa.Schema,
    mor: bool,
    columns: list[str] | None = None,
    live_only: bool = True,
    lo_us: int | None = None,
    hi_us: int | None = None,
):
    """The lake view as a function of a partition's files (or, under
    copy-on-write, of one file): ``_partition_rows`` of only the columns
    the view needs, LWW-resolved under merge-on-read, then the winning
    version's ``warc_ts`` range filter, the tombstone filter
    (``live_only``) and the projection to ``columns`` (default: every
    column, the internal ones only when not ``live_only``)."""
    internal = (DELETED_COLUMN, PKEY_COLUMN)
    out = list(columns or [c for c in schema.names if not (live_only and c in internal)])
    ranged = lo_us is not None or hi_us is not None
    lo = -(1 << 63) if lo_us is None else lo_us
    hi = (1 << 63) - 1 if hi_us is None else hi_us
    need = out + [DELETED_COLUMN] * live_only + ["url", "warc_ts", "seq"] * mor
    need += ["warc_ts"] * ranged
    read_cols = [c for c in dict.fromkeys(need) if schema.get_field_index(c) >= 0]

    def rows(files: list[str]) -> pa.Table:
        t = _partition_rows(files, schema, read_cols, mor)
        if ranged:
            # exactness filter on the WINNING version's warc_ts (post-LWW)
            ts = pc.cast(t.column("warc_ts"), pa.int64())
            t = t.filter(pc.and_(pc.greater_equal(ts, lo), pc.less_equal(ts, hi)))
        if live_only:
            t = t.filter(pc.invert(t.column(DELETED_COLUMN)))
        return t.select(out)

    return rows


def read_lake(
    lake_dir: str,
    live_only: bool = True,
    columns: list[str] | None = None,
    asof_epoch: int | None = None,
    ts_min=None,
    ts_max=None,
) -> "ray.data.Dataset":
    """Dataset over the lake's manifested current files (only committed
    data is ever visible), read partition-local: the lake is
    hash-partitioned by url, so LWW resolution, filters and projection
    all run inside the task that reads a partition, with no exchange.
    Each read task takes a run of whole partitions (``_pack``: at most
    ``READ_UNIT_BYTES`` of files, at least two tasks per CPU). A
    copy-on-write partition yields a block per file; a merge-on-read
    partition's delta stack is LWW-resolved whole. ``live_only`` filters
    tombstones and drops the internal columns — the query-layer view,
    reference analog of the SQL views over the results fact table
    (``models.py:241-284``). ``columns`` projects the read itself, so
    unrequested fat columns (html/text) never leave storage.

    ``asof_epoch`` (time travel): read the lake exactly as of that
    committed epoch — requires the lake to have been written with
    ``retain_history=True`` so each commit's manifest is archived and
    superseded files survive. Resolution is per partition: the archived
    manifest with the greatest epoch ≤ ``asof_epoch`` (a partition first
    touched later simply isn't there yet). Columns follow the CURRENT
    schema; rows are the snapshot's (evolved columns null-backfill).

    ``ts_min`` / ``ts_max`` (time-range read): rows whose WINNING version's
    ``warc_ts`` falls in the inclusive range — the "changed since T" feed
    a downstream CDC consumer polls. Files are pruned with ZERO file IO
    via the manifests' per-file zone maps (mor delta files are
    epoch-aligned, so a recency query touches only recent deltas at
    10^10 scale); exactness comes from a post-LWW row filter. Under mor,
    only the lower bound prunes files (an out-of-range winner must still
    be read to suppress older in-range versions of its url)."""
    meta, schema, overlay = _read_state(lake_dir)
    mor = bool(meta and meta.get("merge_mode") == "mor")
    lo_us, hi_us = _ts_us(ts_min), _ts_us(ts_max)
    current = _read_manifests(lake_dir, overlay)
    if asof_epoch is None:
        manifests = list(current.values())
    else:
        P = (meta or {}).get("num_partitions", 0) or len(current)
        manifests = list(_snapshot_manifests(lake_dir, asof_epoch, P, current).values())
    if lo_us is not None or hi_us is not None:
        parts = [_prune_files_by_ts([m], lo_us, hi_us, allow_upper=not mor)[0] for m in manifests]
    else:
        parts = [m["files"] for m in manifests if m]
    parts = [fs for fs in parts if fs] if meta else []
    if meta is None:
        schema = pa.schema([("url", pa.string()), (DELETED_COLUMN, pa.bool_())])
    view = [c for c in columns if schema.get_field_index(c) >= 0] if columns else None
    if not parts:
        empty = _lake_view(schema, False, view, live_only)([])
        return _task_dataset("Lake", [lambda: empty])
    if columns and len(view) != len(columns):
        raise ValueError(f"read_lake: columns not in the lake schema: {sorted(set(columns) - set(view))}")
    rows = _lake_view(schema, mor, view, live_only, lo_us, hi_us)

    def blocks(unit: list[list[str]]):
        for fs in unit:
            yield from [rows(fs)] if mor else (rows([f]) for f in fs)

    # whole partitions packed into read units, so a lake of small
    # partitions does not pay a task per partition
    units = _pack(parts, [sum(map(os.path.getsize, fs)) for fs in parts], 2 * _ray_cpus())
    return _task_dataset("Lake", [functools.partial(blocks, u) for u in units])


def _snapshot_manifests(
    lake_dir: str, epoch: int, P: int, current: dict[int, dict]
) -> dict[int, dict | None]:
    """Per-partition manifest resolution for a snapshot at ``epoch``:
    the archived manifest with the greatest epoch ≤ ``epoch``; a
    partition untouched since BEFORE retention was enabled falls back to
    its ``current`` manifest (its state cannot have changed after its
    last commit). FAILS LOUD when a partition demonstrably existed at
    ``epoch`` (lineage records a commit ≤ it) but neither source covers
    it — i.e. retention was enabled too late to reconstruct this
    snapshot — instead of silently dropping the partition. One directory
    listing total (archived_epochs_index)."""
    from gene_etl_ray.state.lineage import read_lineage
    from gene_etl_ray.state.manifest import archived_epochs_index, read_manifest_asof

    index = archived_epochs_index(lake_dir)
    first_commit: dict[int, int] = {}
    for r in read_lineage(lake_dir):
        k, e = int(r["pkey"]), int(r["epoch"])
        if k not in first_commit or e < first_commit[k]:
            first_commit[k] = e
    snap: dict[int, dict | None] = {}
    for k in range(P):
        m = read_manifest_asof(lake_dir, k, epoch, index=index)
        if m is None:
            cur = current.get(k)
            if cur is not None:
                if cur["epoch"] <= epoch:
                    m = cur  # untouched since before retention began
                elif first_commit.get(k, 1 << 62) <= epoch:
                    raise ValueError(
                        f"partition {k} existed at epoch {epoch} (first "
                        f"commit {first_commit[k]}) but no archived manifest "
                        f"covers it — retain_history was enabled later; this "
                        "snapshot is unreconstructable"
                    )
        snap[k] = m
    return snap


def diff_snapshots(
    lake_dir: str, from_epoch: int, to_epoch: int,
    payload_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Change feed between two committed snapshots (requires
    ``retain_history``): one row per url whose LIVE state differs —
    ``change`` ∈ {'added','updated','deleted'}, with the winning
    (warc_ts, seq) version on each side.

    Scale shape: both snapshots share the url→pkey partitioning, so the
    comparison is PARTITION-LOCAL — partitions whose archived manifests
    are identical at both epochs are skipped without reading a byte
    (manifest-epoch comparison), and each of the rest is one task that
    reads both sides' files column-pruned (envelope only, never
    text/html), LWW-resolves each side and outer-compares them per url.
    No exchange: the rows of a url are in its partition on both sides.

    ``payload_cols`` additionally carries those columns of each side's
    WINNING row on the feed as ``<col>_from`` / ``<col>_to`` — what a
    downstream delta consumer (see ``state.mview.refresh_view_delta``)
    needs to maintain an aggregate from changes alone. The payload is
    read only for touched partitions and emitted only for changed urls;
    numeric payloads are cast to float64 for a stable block schema, and
    so are the seqs (an added or deleted url has one side null)."""
    meta, schema, overlay = _read_state(lake_dir)
    if meta is None:
        raise ValueError(f"no lake at {lake_dir}")
    if from_epoch > to_epoch:
        raise ValueError("from_epoch must be <= to_epoch")
    P = meta["num_partitions"]
    current = _read_manifests(lake_dir, overlay)
    snap_a = _snapshot_manifests(lake_dir, from_epoch, P, current)
    snap_b = _snapshot_manifests(lake_dir, to_epoch, P, current)
    # Crossing a repartition boundary, a url's pkey differs between the
    # two snapshots' stored files — compare by its url FAMILY instead
    # (pkey % P_at_from_epoch): growth is by integer factors, so children
    # of old partition k all satisfy pkey ≡ k (mod P_old) and families
    # are closed url sets on both sides. Without one, a family is a
    # partition.
    P_fam = _layout_at(meta, from_epoch)
    families: dict[int, tuple[list[str], list[str]]] = {}
    any_manifest = False
    for k in range(P):
        ma, mb = snap_a[k], snap_b[k]
        any_manifest = any_manifest or mb is not None
        if (ma or {}).get("epoch") == (mb or {}).get("epoch"):
            continue  # untouched between the two snapshots: skip entirely
        files_a, files_b = families.setdefault(k % P_fam, ([], []))
        files_a.extend((ma or {}).get("files", []))
        files_b.extend((mb or {}).get("files", []))
    if not any_manifest and current:
        raise ValueError(
            f"no archived manifests ≤ epoch {to_epoch} — was the lake "
            "written with retain_history=True?"
        )
    payload = list(payload_cols or [])
    missing = [c for c in payload if schema.get_field_index(c) < 0]
    if missing:
        raise ValueError(f"payload_cols not in lake schema: {missing}")
    read_cols = ["url", "warc_ts", "seq", DELETED_COLUMN] + payload

    def feed_type(c: str) -> pa.DataType:
        # numbers (seq, numeric payloads) are float64: an unmatched side is NaN
        t = schema.field(c).type
        return pa.float64() if pa.types.is_integer(t) or pa.types.is_floating(t) else t

    out_schema = pa.schema(
        [("url", pa.string()), ("change", pa.string())]
        + [(f"{c}_{s}", feed_type(c)) for s in ("from", "to") for c in ("warc_ts", "seq")]
        + [(f"{c}_{s}", feed_type(c)) for c in payload for s in ("from", "to")]
    )

    def diff_family(files_a: list[str], files_b: list[str]) -> pa.Table:
        def live(files: list[str]):
            t = _partition_rows(files, schema, read_cols, mor=True)
            t = t.filter(pc.invert(t.column(DELETED_COLUMN)))
            return t.drop_columns([DELETED_COLUMN]).to_pandas()

        m = live(files_a).merge(
            live(files_b), on="url", how="outer", suffixes=("_from", "_to"), indicator=True
        )
        change = np.where(
            m["_merge"] == "right_only",
            "added",
            np.where(m["_merge"] == "left_only", "deleted", "updated"),
        )
        m = m.assign(change=change)
        same = (m["_merge"] == "both") & (m["seq_from"] == m["seq_to"])
        return pa.Table.from_pandas(
            m.loc[~same, out_schema.names], schema=out_schema, preserve_index=False
        )

    fns = [functools.partial(diff_family, a, b) for _, (a, b) in sorted(families.items())]
    return _task_dataset("Diff", fns or [out_schema.empty_table])


def _layout_at(meta: dict, epoch: int) -> int:
    """Partition count in force for snapshots as of ``epoch`` (the last
    ``layouts`` entry at/below it; the list is append-only and grow-only,
    see :func:`repartition_lake`)."""
    layouts = meta.get("layouts") or [{"epoch": -1, "P": meta["num_partitions"]}]
    p = layouts[0]["P"]
    for ent in layouts:
        if ent["epoch"] <= epoch:
            p = ent["P"]
    return int(p)


def compact_lake(cfg: EngineConfig, cluster_rows: int | None = None) -> dict:
    """Fold a merge-on-read partition's delta files back into one file per
    partition (manifest REPLACE at the current epoch). One task per
    partition reads its files and runs the same LWW merge and file writer
    as cow ingest (``_make_merge_fn``); no exchange, since a partition's
    rows are already in its files. The commit is ingest's too, so
    compaction inherits the exactly-once protocol: a crash
    mid-compaction leaves the old manifests pointing at the old files.

    ``cluster_rows``: time-CLUSTERED compaction — instead of one file per
    partition, winners are sorted by ``warc_ts`` and written as files of
    at most ``cluster_rows`` rows with tight, near-disjoint zone-map
    ranges, so ``read_lake(ts_min/ts_max)`` and ``export --since`` prune
    files WITHIN partitions. The manifest's ``compaction`` flag certifies
    the file set is fully LWW-resolved, which is what lets MOR readers
    apply upper-bound pruning to it (normally unsafe under a delta
    stack); the next MOR append replaces the stats and the certificate
    disappears with it — readers fall back to lower-bound-only pruning
    automatically."""
    from gene_etl_ray.state.lock import acquire, release

    lake_dir = cfg.lake_dir
    meta = read_lake_meta(lake_dir)
    if meta is None:
        return {"compacted": 0}
    acquire(lake_dir)
    try:
        from gene_etl_ray.state.manifest import finalize_repartition

        if finalize_repartition(lake_dir):
            meta = read_lake_meta(lake_dir)
        return _compact_locked(cfg, meta, cluster_rows=cluster_rows)
    finally:
        release(lake_dir)


def build_expiry_wal(
    cfg: EngineConfig, out_dir: str, older_than_us: int
) -> dict:
    """Row-level retention expiry THROUGH the WAL (GDPR/TTL deletes):
    scan the live view for rows whose winning ``warc_ts`` is older than
    the cutoff and emit ordinary DELETION EVENTS (op="D",
    ``warc_ts = cutoff``) into a WAL directory — mux it into the
    consumer WAL (or ingest it directly) and every guarantee is
    inherited for free: exactly-once application, crash/resume, LWW
    (the tombstone beats everything older than the cutoff; data newer
    than the cutoff legitimately resurrects the url), replay-oracle
    equivalence, snapshot/lineage accounting. No new mutation machinery
    — expiry is just change data.

    Distributed end to end: the live-view scan is column-pruned to
    (url, warc_ts), each block becomes its own WAL segment (bounded
    memory at any corpus size), and segment epoch numbers are stamped
    per file. APPEND-ONLY: numbering continues after any segments
    already in ``out_dir`` (a WAL segment, once muxed, is immutable —
    the mux's (source, epoch) dedup relies on it), and the single-writer
    lock on ``out_dir`` serializes concurrent expiry runs. Returns
    {"segments", "expired"}."""
    import shutil as _shutil

    from gene_etl_ray.state.lock import acquire, release

    ds = read_lake(cfg.lake_dir, columns=["url", "warc_ts"])
    cut = int(older_than_us)

    def to_events(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.less(pc.cast(t.column("warc_ts"), pa.int64()), cut)
        )
        n = t.num_rows
        return pa.table(
            {
                "url": t.column("url"),
                "warc_ts": pa.array([cut] * n, pa.timestamp("us")),
                "html": pa.nulls(n, pa.binary()),
                "text": pa.nulls(n, pa.string()),
                "lang": pa.nulls(n, pa.string()),
                "op": pa.array(["D"] * n, pa.string()),
                # live view holds one row per url, so within-(url, ts)
                # ordering never arises between expiry events
                "seq": pa.array([0] * n, pa.int64()),
                "epoch": pa.array([0] * n, pa.int32()),
            }
        )

    tmp = f"{out_dir}.tmp-expiry-{os.getpid()}"
    _shutil.rmtree(tmp, ignore_errors=True)
    evs = ds.map_batches(to_events, batch_format="pyarrow")
    evs.write_parquet(tmp)
    os.makedirs(out_dir, exist_ok=True)
    acquire(out_dir)
    try:
        # append-only numbering: never rewrite a segment another run (or
        # a mux assignment) may already reference
        existing = [
            int(n[6:-8]) for n in os.listdir(out_dir)
            if n.startswith("epoch=") and n.endswith(".parquet")
        ]
        next_e = 1 + max(existing, default=-1)
        segments = 0
        expired = 0
        if not os.path.isdir(tmp):  # nothing expired: write_parquet of
            return {"segments": 0, "expired": 0, "cutoff_us": cut}  # []
        for f in sorted(
            os.path.join(tmp, n) for n in os.listdir(tmp)
            if n.endswith(".parquet")
        ):
            t = pq.read_table(f)
            if t.num_rows == 0:
                continue
            e = next_e + segments
            idx = t.schema.get_field_index("epoch")
            t = t.set_column(
                idx, t.schema.field(idx),
                pa.array([e] * t.num_rows, pa.int32()),
            )
            dest = os.path.join(out_dir, f"epoch={e:05d}.parquet")
            pq.write_table(t, dest + ".tmp", row_group_size=16384)
            os.replace(dest + ".tmp", dest)
            segments += 1
            expired += t.num_rows
        _shutil.rmtree(tmp, ignore_errors=True)
        return {"segments": segments, "expired": expired, "cutoff_us": cut}
    finally:
        release(out_dir)


def maybe_compact(
    cfg: EngineConfig,
    max_delta_files: int = 4,
    cluster_rows: int | None = None,
) -> dict:
    """Policy-gated compaction — the steady-state MOR maintenance loop:
    fold delta stacks ONLY when some partition's depth exceeds
    ``max_delta_files`` (each extra delta is one more file every read
    must LWW-fold, so depth is the read-amplification knob). Metadata-
    only when it declines: one ``current_files`` listing, no data read.
    Run it after every ingest (or on a timer); it self-arms exactly
    when reads start paying."""
    by_part = current_files(cfg.lake_dir)
    depth = max((len(fs) for fs in by_part.values()), default=0)
    if depth <= max_delta_files:
        return {"triggered": False, "max_depth": depth, "compacted": 0}
    rep = compact_lake(cfg, cluster_rows=cluster_rows)
    rep.update({"triggered": True, "max_depth": depth})
    return rep


def _compact_locked(
    cfg: EngineConfig,
    meta: dict,
    cluster_rows: int | None = None,
    transform=None,
    lineage_kind: str = "compaction",
) -> dict:
    lake_dir = cfg.lake_dir
    target = _schema_from_hex(meta["schema_hex"])
    epoch = last_global_epoch(lake_dir)
    by_part = current_files(lake_dir)
    if cluster_rows is not None or transform is not None:
        # clustering/backfill rewrites even single-file partitions — the
        # point is the file LAYOUT / the VALUES, not the delta-stack fold
        multi = {k: fs for k, fs in by_part.items() if fs}
    else:
        multi = {k: fs for k, fs in by_part.items() if len(fs) > 1}
    if not multi:
        return {"compacted": 0}
    # bounded tombstone retention: compaction is where MOR lakes shed
    # delete markers older than the lateness cutoff (cow sheds them in
    # the merge itself) — admission has already made them unbeatable
    gc_cutoff = None
    if cfg.allowed_lateness_us is not None:
        w = event_time_watermark(lake_dir)
        gc_cutoff = w - cfg.allowed_lateness_us if w is not None else None
    stage = _make_lake_side_stage(cfg, target)
    merge = _make_merge_fn(
        lake_dir,
        epoch,
        tag="-compact" if transform is None else "-transform",
        drop_tombstones_before_us=gc_cutoff,
        cluster_rows=cluster_rows,
        transform=transform,
    )
    S = cfg.salt_factor

    def compact_one(pkey: int, files: list[str]) -> pa.Table:
        # a partition is one cold merge group (gkey = pkey·S), which
        # names its file as the ingest merge would
        (rows,) = _stored_rows(files, stage, [pkey * S], salted=False).values()
        return merge(pa.concat_tables([stage(target.empty_table()), *rows]), pkey, pkey * S)

    merged = _task_table(
        "Compact", [functools.partial(compact_one, k, fs) for k, fs in sorted(multi.items())]
    )
    by_pkey: dict[int, list[dict]] = {}
    for r in merged.to_pylist():
        by_pkey.setdefault(int(r["pkey"]), []).append(r)
    from gene_etl_ray.state.lock import heartbeat

    for pkey, rs in sorted(by_pkey.items()):
        heartbeat(lake_dir)  # lease renewal: a long rewrite must not
        # let its lock age past LEASE_SEC and get stolen mid-commit
        commit_partition(
            lake_dir,
            pkey,
            epoch,
            [x["path"] for x in rs],
            {"rows": sum(int(x["rows"]) for x in rs), "compaction": True,
             "file_stats": _file_stats_of(rs)},
            force=True,
            # compaction rewrites the CURRENT epoch: under retention the
            # archive for this epoch is replaced too (same live rows) and
            # superseded files must survive — older snapshots reference them
            retain=cfg.retain_history,
            defer_gc=cfg.gc_grace_seconds > 0,
        )
        # lineage must follow the rewrite or the manifest-vs-lineage rows
        # reconciliation (consistency_report check 3) reports drift: the
        # compacted manifest's row count is the folded winner count, not
        # the last delta's. kind="compaction" keeps the record out of the
        # per-epoch applied-events accounting (check 4), like repartition.
        ts_maxes = [x["ts_max_us"] for x in rs if x.get("ts_max_us") is not None]
        append_lineage(
            lake_dir,
            {
                "kind": lineage_kind,
                "epoch": epoch,
                "pkey": pkey,
                "event_count": 0,
                "rows": sum(int(x["rows"]) for x in rs),
                "live_rows": sum(int(x["live_rows"]) for x in rs),
                "max_warc_ts_us": max(ts_maxes) if ts_maxes else None,
                "config_hash": cfg.hash(),
            },
        )
    if cfg.retain_history and not cfg.gc_grace_seconds:
        # compaction replaced this epoch's archive in place; a delta file
        # created AT this epoch is now referenced by no archive at all —
        # GC exactly the files no manifest (current or archived) names
        # (under a GC grace they become deferred orphans for `vacuum`)
        from gene_etl_ray.state.manifest import archived_files

        referenced: set[str] = archived_files(lake_dir)
        for fs in current_files(lake_dir).values():
            referenced.update(fs)
        for f in glob.glob(os.path.join(lake_dir, "part=*", "*.parquet")):
            if f not in referenced and not os.path.basename(f).startswith(".tmp-"):
                for p in (f, f + ".bloom"):
                    try:
                        os.remove(p)
                    except OSError:
                        pass
    return {"compacted": len(by_pkey), "epoch": epoch}


def transform_lake(
    cfg: EngineConfig, fn, add_fields: "list[pa.Field] | None" = None
) -> dict:
    """Distributed in-place column BACKFILL — the lakehouse
    ``UPDATE table SET col = f(...)``: re-derive a column across every
    stored row (re-extract text with a new extractor version, recompute
    a quality score, redact a newly-discovered PII pattern) without
    replaying the WAL. ``fn`` is a vectorized ``pa.Table -> pa.Table``
    over each partition's fully-LWW-resolved winner table (tombstone
    rows included — their payload is null) and MUST be an update:
    same schema, same row count, keys (url, warc_ts, seq) and the
    tombstone flag unchanged — violations raise before anything
    commits.

    Inherits compaction's machinery wholesale, so the rewrite is
    exactly-once and crash-safe: per-partition tasks write ``.tmp-``
    files, the two-phase manifest REPLACE at the current epoch flips
    each partition atomically, and a crash mid-way leaves old manifests
    pointing at old files (re-run to finish — fn determinism makes the
    retry converge). One task per partition, no exchange (compaction's
    per-partition merge); lineage records carry ``kind="transform"`` and
    apply no events, so the epoch-accounting consistency checks stay
    exact.

    Refused under ``retain_history``: archived snapshots reference the
    same epochs this rewrite replaces, and a backfill that silently
    mutated time-travel reads would break snapshot immutability —
    export the history first or compact retention away.

    ``add_fields`` turns the UPDATE into an ADDITIVE backfill — derive
    a brand-new column over every stored row ("compute quality_score
    for the whole corpus"): the lake schema evolves FIRST (meta write,
    the same crash-tested meta-before-files order mid-stream schema-add
    uses), so ``fn`` receives the new columns null-filled and simply
    fills them; a crash between the meta write and the rewrite leaves a
    readable lake (new columns null) and a re-run converges. New field
    names must not collide with existing columns.

    Reference analog: the reference backfills derived columns by
    re-running UPDATE statements against the warehouse
    (``etl/persist.py`` upsert family); here it is a partition-parallel
    rewrite with the same exactly-once guarantees as ingest."""
    from gene_etl_ray.state.lock import acquire, release

    if cfg.retain_history:
        raise ValueError(
            "transform_lake under retain_history would mutate archived "
            "snapshots in place; disable retention or export history first"
        )
    lake_dir = cfg.lake_dir
    meta = read_lake_meta(lake_dir)
    if meta is None:
        return {"compacted": 0}
    acquire(lake_dir)
    try:
        from gene_etl_ray.state.manifest import finalize_repartition

        if finalize_repartition(lake_dir):
            meta = read_lake_meta(lake_dir)
        if add_fields:
            cur = _schema_from_hex(meta["schema_hex"])
            fresh = []
            for f in add_fields:
                i = cur.get_field_index(f.name)
                if i < 0:
                    fresh.append(f)
                elif cur.field(i).type != f.type:
                    # same-name-same-type is a RESUME (crash between the
                    # meta write and the rewrite, or a re-run to finish a
                    # torn backfill) and is skipped; a type clash is a
                    # genuine collision
                    raise ValueError(
                        f"transform_lake: add_fields name {f.name!r} "
                        f"already exists with type {cur.field(i).type} "
                        f"(requested {f.type})"
                    )
            if fresh:
                new_schema = pa.schema(list(cur) + fresh)
                meta = dict(meta)
                meta["schema_hex"] = _schema_to_hex(new_schema)
                write_lake_meta(lake_dir, meta)
        return _compact_locked(
            cfg, meta, transform=fn, lineage_kind="transform"
        )
    finally:
        release(lake_dir)


def _transform_reextract(t: pa.Table) -> pa.Table:
    """Named backfill: re-run the frozen html→text extractor over every
    stored row that still carries its html payload (``keep_html``
    lakes) — the canonical backfill after an extractor upgrade. Rows
    without html (payload dropped, or tombstones) keep their text."""
    if t.schema.get_field_index("html") < 0:
        raise ValueError(
            "transform reextract requires a keep_html lake (html stored)"
        )
    html = t.column("html")
    text = t.column("text")
    # null the text of every row with html, so the extractor fills it
    blank = pc.if_else(pc.is_valid(html), pa.scalar(None, text.type), text)
    filled = per_process_extractor()(pa.table({"text": blank, "html": html}))
    i = t.schema.get_field_index("text")
    return t.set_column(i, t.schema.field(i), filled.column("text"))


def _transform_textlen(t: pa.Table) -> pa.Table:
    """Named backfill: derive ``text_len`` (chars of extracted text,
    null-propagating so tombstones stay null) over every stored row."""
    i = t.schema.get_field_index("text_len")
    v = pc.cast(pc.utf8_length(t.column("text")), pa.int64())
    return t.set_column(i, "text_len", v)


#: CLI-invocable backfills: name → (fn, add_fields)
NAMED_TRANSFORMS: dict = {
    "reextract": (_transform_reextract, None),
    "textlen": (_transform_textlen, [("text_len", "int64")]),
}


def _named_transform(op: str):
    try:
        fn, add = NAMED_TRANSFORMS[op]
    except KeyError:
        raise ValueError(
            f"unknown transform op {op!r}; known: {sorted(NAMED_TRANSFORMS)}"
        ) from None
    fields = (
        [pa.field(n, getattr(pa, ty)()) for n, ty in add] if add else None
    )
    return fn, fields


#: one row per child file a repartition split task writes
SPLIT_ROW_SCHEMA = pa.schema(
    [("parent", pa.int32()), ("epoch", pa.int64())]
    + [f for f in MANIFEST_ROW_SCHEMA if f.name != "gkey"]
)


def repartition_lake(cfg: EngineConfig, factor: int) -> dict:
    """Online partition scale-out: grow the lake's partition count by an
    integer ``factor`` (P_new = P_old × factor) — the operation a
    10^10-row lake needs when partitions outgrow merge-task granularity.

    Scale shape — NO shuffle. ``pkey = H(url) % P`` and
    ``H % (P·F) ≡ H % P (mod P)``, so old partition k's urls land exactly
    in children ``{k, k+P, …, k+(F-1)·P}``. The split is PARTITION-LOCAL:
    one task per old partition reads its manifested files (LWW-resolving
    mor delta stacks, so the split doubles as compaction) and writes its
    F child files directly — no rows cross old-partition boundaries and
    bulk data never visits the driver.

    Atomicity — a TOTAL manifest overlay (``_manifests/REPART.json``,
    published by ONE atomic rename) carries every new per-partition
    manifest plus the new lake meta; ``read_manifest`` /
    ``current_files`` / ``read_lake_meta`` consult it first, so readers
    flip layouts in a single step. The next locked writer (or this call,
    immediately) finalizes: materializes per-partition manifests, GCs
    old-layout files, removes the overlay (idempotent — a crash at any
    step re-runs it).

    Watermarks survive WITHOUT surgery: a child's url set is a subset of
    its parent's, so the parent's checkpoint ("epochs ≤ e applied") stays
    true for the child — checkpoints are copied parent → children.
    Tombstones are retained in stored partitions, so any conservative
    replay re-applies idempotently (LWW).

    With ``retain_history``, each new manifest is ALSO archived at the
    parent's manifest epoch (overwriting the parent's archive at that
    epoch): snapshots at/after it resolve the post-split layout, earlier
    snapshots resolve pre-split archives untouched — each url family is
    internally consistent either way. ``diff_snapshots`` groups by the
    url FAMILY (``pkey % P_at_from_epoch``) when the interval crosses a
    layout change, so relocated-but-unchanged urls never show up as
    delete+add pairs.

    Reference analog: none — the reference's table layout is fixed at
    schema-creation (``models.py:122-161``); this is the piece a
    fixed-size lake needs to keep partition granularity bounded as data
    grows 100×.
    """
    from gene_etl_ray.state.lock import acquire, release
    from gene_etl_ray.state.manifest import (
        archived_files,
        atomic_write_json,
        finalize_repartition,
        read_manifest,
    )

    if int(factor) != factor or factor < 2:
        raise ValueError("factor must be an integer >= 2")
    factor = int(factor)
    lake_dir = cfg.lake_dir
    acquire(lake_dir)
    try:
        finalize_repartition(lake_dir)  # any previously committed overlay
        _clean_stale_tmp(lake_dir)
        meta = read_lake_meta(lake_dir)
        if meta is None:
            raise ValueError(f"no lake at {lake_dir}")
        t0 = time.time()
        P_old = int(meta["num_partitions"])
        P_new = P_old * factor
        e0 = last_global_epoch(lake_dir)
        layouts = meta.get("layouts") or [{"epoch": -1, "P": P_old}]
        meta_new = {
            **meta,
            "num_partitions": P_new,
            "layouts": layouts + [{"epoch": e0, "P": P_new}],
        }
        by_part = current_files(lake_dir)
        if not by_part:
            # no data yet: the layout flip is pure metadata
            write_lake_meta(lake_dir, meta_new)
            return {"from_partitions": P_old, "to_partitions": P_new,
                    "files": 0, "rows": 0, "duration_sec": time.time() - t0}
        parents = {k: read_manifest(lake_dir, k) for k in by_part}
        target = _schema_from_hex(meta["schema_hex"])

        def split_parent(k: int, epoch: int, files: list[str]) -> pa.Table:
            """One task per old partition: read → LWW-resolve → split by
            H(url) % P_new into ≤F child tmp files (bounded row groups +
            bloom sidecars, same as merge tasks)."""
            out: list[dict] = []
            t = _partition_rows(files, target, mor=True)  # no-op for cow; folds mor delta stacks
            pk_new = partition_keys(t.column("url"), P_new)
            # row-conservation guard BEFORE anything becomes durable:
            # every resolved row must land in one of this parent's F
            # children (H % (P·F) ≡ k (mod P) for every url stored
            # under k) — a violation means the hash fn or the stored
            # layout is inconsistent, and committing would silently
            # lose rows
            if not ((pk_new % P_old) == k).all():
                stray = int(((pk_new % P_old) != k).sum())
                raise RuntimeError(
                    f"repartition residue violation: {stray} rows of "
                    f"partition {k} hash outside its family — lake "
                    "layout and hash function disagree; aborting "
                    "before the flip"
                )
            pk_idx = t.schema.get_field_index(PKEY_COLUMN)
            t = t.set_column(pk_idx, PKEY_COLUMN, pa.array(pk_new, pa.int32()))
            for j in range(factor):
                m = k + j * P_old
                sub = t.filter(pc.equal(t.column(PKEY_COLUMN), m))
                if sub.num_rows == 0:
                    continue
                part_dir = os.path.join(lake_dir, f"part={m:05d}")
                os.makedirs(part_dir, exist_ok=True)
                path = os.path.join(
                    part_dir, f".tmp-epoch={epoch:05d}-g{m:09d}-repart.parquet"
                )
                pq.write_table(sub, path, row_group_size=16384)
                _fsync_file(path)
                _write_bloom_sidecar(path, sub.column("url"))
                live = sub.num_rows - (pc.sum(sub.column(DELETED_COLUMN)).as_py() or 0)
                ts = pc.cast(sub.column("warc_ts"), pa.int64())
                out.append(
                    {
                        "pkey": m, "parent": k, "epoch": epoch, "path": path,
                        "rows": sub.num_rows, "live_rows": int(live),
                        "max_seq": pc.max(sub.column("seq")).as_py(),
                        "ts_min_us": pc.min(ts).as_py(),
                        "ts_max_us": pc.max(ts).as_py(),
                    }
                )
            return pa.Table.from_pylist(out, schema=SPLIT_ROW_SCHEMA)

        rows = _task_table(
            "Split",
            [
                functools.partial(split_parent, k, int(parents[k]["epoch"]), fs)
                for k, fs in sorted(by_part.items())
            ],
        ).to_pandas()

        # phase 1.5: rename tmp → final (finals without a manifest entry
        # stay invisible; deterministic names make a redo overwrite-safe)
        finals: list[str] = []
        for p in rows["path"]:
            final = os.path.join(
                os.path.dirname(p), os.path.basename(p).removeprefix(".tmp-")
            )
            if os.path.exists(p + ".bloom"):
                os.replace(p + ".bloom", final + ".bloom")
            os.replace(p, final)
            finals.append(final)
        rows = rows.assign(path=finals)

        # children inherit the parent's checkpoint: child urls ⊆ parent
        # urls, so the parent's "epochs ≤ e applied" claim holds for them
        from gene_etl_ray.state.checkpoint import read_checkpoint

        for k in by_part:
            ck = read_checkpoint(lake_dir, k)
            if ck is not None:
                for j in range(1, factor):
                    write_checkpoint(
                        lake_dir, k + j * P_old,
                        ck["last_committed_epoch"], ck.get("max_seq", -1),
                    )

        manifests: dict[str, dict] = {}
        old_files = [f for fs in by_part.values() for f in fs]
        for m_key, grp in rows.groupby("pkey"):
            epoch = int(grp["epoch"].iloc[0])
            man = {
                "pkey": int(m_key),
                "epoch": epoch,
                "files": sorted(grp["path"]),
                "stats": {
                    "rows": int(grp["rows"].sum()),
                    "live_rows": int(grp["live_rows"].sum()),
                    "repartitioned_from": int(grp["parent"].iloc[0]),
                },
                "file_stats": {
                    os.path.basename(r["path"]): {
                        "rows": int(r["rows"]),
                        "ts_min_us": int(r["ts_min_us"]),
                        "ts_max_us": int(r["ts_max_us"]),
                    }
                    for _, r in grp.iterrows()
                },
            }
            manifests[str(int(m_key))] = man
            append_lineage(
                lake_dir,
                {
                    "epoch": epoch, "pkey": int(m_key), "kind": "repartition",
                    "input_files": by_part[int(grp["parent"].iloc[0])],
                    "event_count": 0, "rows": man["stats"]["rows"],
                    "live_rows": man["stats"]["live_rows"],
                },
            )
            if meta.get("retain_history"):
                # snapshots at/after this epoch resolve the post-split
                # layout for this url family; earlier archives untouched
                from gene_etl_ray.state.manifest import history_path

                atomic_write_json(history_path(lake_dir, int(m_key), epoch), man)

        if meta.get("gc_grace_seconds"):
            # GC grace: the old layout's files become deferred orphans
            # for `vacuum` instead of vanishing under in-flight readers
            gc = []
        elif meta.get("retain_history"):
            referenced = archived_files(lake_dir)
            gc = [f for f in old_files if f not in referenced]
        else:
            gc = old_files

        # derived partition-shard caches are layout-bound: drop them
        # BEFORE the flip so a crash can't leave stale shards that pass
        # the epoch-freshness check against relocated partitions
        for p in glob.glob(os.path.join(lake_dir, "_mv", "*", "part=*.parquet")):
            try:
                os.remove(p)
            except OSError:
                pass

        overlay = {
            "from_partitions": P_old, "to_partitions": P_new, "epoch": e0,
            "meta": meta_new, "manifests": manifests, "gc": gc,
        }
        # THE COMMIT POINT: one atomic rename publishes the new layout
        atomic_write_json(repart_overlay_path(lake_dir), overlay)
        finalize_repartition(lake_dir)
        return {
            "from_partitions": P_old, "to_partitions": P_new,
            "files": len(finals), "rows": int(rows["rows"].sum()),
            "epoch": e0, "duration_sec": time.time() - t0,
        }
    finally:
        release(lake_dir)


def vacuum_lake(cfg: EngineConfig, now: float | None = None) -> dict:
    """Remove deferred-GC orphans older than the grace period.

    With ``gc_grace_seconds > 0`` every commit / compaction /
    repartition leaves superseded data files on disk so readers that
    listed a manifest snapshot can finish streaming them (the
    Iceberg/Delta expire+vacuum contract). This op deletes exactly the
    files (and their bloom sidecars / stale tmps) that (a) no current or
    archived manifest references and (b) have been untouched longer than
    the grace. Takes the writer lock so a concurrent commit can't stage
    files while the listing runs; referenced files are NEVER deleted, so
    a vacuum is always safe to re-run. Returns deleted/deferred counts."""
    import time as _time

    from gene_etl_ray.state.lock import acquire, release
    from gene_etl_ray.state.manifest import archived_files

    lake_dir = cfg.lake_dir
    grace = cfg.gc_grace_seconds
    t_now = _time.time() if now is None else now
    acquire(lake_dir)
    try:
        referenced: set[str] = set(archived_files(lake_dir))
        for fs in current_files(lake_dir).values():
            referenced.update(fs)
        deleted = deferred = 0
        # glob hides dotfiles, so crashed-commit '.tmp-*' staging files
        # need their own pattern — no manifest ever references a tmp, so
        # any tmp older than the grace is garbage by construction
        candidates = glob.glob(os.path.join(lake_dir, "part=*", "*.parquet"))
        candidates += glob.glob(os.path.join(lake_dir, "part=*", ".tmp-*.parquet"))
        for f in candidates:
            if f in referenced:
                continue
            try:
                age = t_now - os.path.getmtime(f)
            except OSError:
                continue  # raced with another cleaner
            if age < grace:
                deferred += 1
                continue
            for p in (f, f + ".bloom"):
                try:
                    os.remove(p)
                except OSError:
                    pass
            deleted += 1
        return {"deleted": deleted, "deferred": deferred, "grace_seconds": grace}
    finally:
        release(lake_dir)


def consistency_report(lake_dir: str) -> dict:
    """Cross-set consistency checks over the lake's METADATA sets —
    manifests vs lineage vs epoch records vs checkpoints vs the files on
    disk (reference parity: the named pre/post check suites,
    ``validate.py:289-346`` / ``validate.py:447-476``). Metadata-only:
    no data files are read, so this is O(partitions) regardless of lake
    size. All checks True on any quiescent committed lake."""
    import json as _json

    from gene_etl_ray.state.checkpoint import last_global_epoch
    from gene_etl_ray.state.lineage import read_lineage
    from gene_etl_ray.state.manifest import read_manifest

    checks = {
        "manifest_files_exist": True,
        "no_orphan_files": True,
        "lineage_rows_match_manifests": True,
        "lineage_vs_epoch_events": True,
        "checkpoints_within_global": True,
        "config_hash_consistent": True,
    }
    meta = read_lake_meta(lake_dir) or {}
    files_by_part = current_files(lake_dir)

    # 1/2: the manifested file set and the on-disk final file set agree
    manifested: set[str] = set()
    for fs in files_by_part.values():
        for f in fs:
            manifested.add(f)
            if not os.path.exists(f):
                checks["manifest_files_exist"] = False
    on_disk = {
        f
        for f in glob.glob(os.path.join(lake_dir, "part=*", "*.parquet"))
        if not os.path.basename(f).startswith(".tmp-")
    }
    # under snapshot retention, superseded files are intentionally kept:
    # any file referenced by an ARCHIVED manifest is accounted for too
    from gene_etl_ray.state.manifest import archived_files

    manifested.update(archived_files(lake_dir))
    orphans = on_disk - manifested
    if orphans:
        if meta.get("gc_grace_seconds"):
            # deferred-GC contract: superseded files legitimately outlive
            # their manifests until `vacuum` — report, don't fail
            checks["deferred_gc_files"] = len(orphans)
        else:
            checks["no_orphan_files"] = False

    # 3: each partition's manifest stats match its latest lineage record
    lineage = read_lineage(lake_dir)
    latest_by_pkey: dict[int, dict] = {}
    for rec in lineage:
        cur = latest_by_pkey.get(rec["pkey"])
        if cur is None or rec["epoch"] >= cur["epoch"]:
            latest_by_pkey[rec["pkey"]] = rec
    for pkey in files_by_part:
        m = read_manifest(lake_dir, pkey)
        rec = latest_by_pkey.get(pkey)
        if m and rec and m["epoch"] == rec["epoch"]:
            if m.get("stats", {}).get("rows") != rec.get("rows"):
                checks["lineage_rows_match_manifests"] = False

    # 4: per-epoch lineage event counts reconcile with the global epoch
    # record's applied total (events_in = applied accounting, exposed).
    # Dedupe per (epoch, pkey) keeping the LAST record: a crash between
    # partition commit and checkpoint makes the resumed run re-commit
    # and re-lineage that partition.
    by_epoch_pkey: dict[tuple[int, int], int] = {}
    for rec in lineage:
        if rec.get("kind") in ("repartition", "compaction", "transform"):
            continue  # layout/value-rewrite records: applied no events
        by_epoch_pkey[(rec["epoch"], rec["pkey"])] = int(rec.get("event_count", 0))
    by_epoch: dict[int, int] = {}
    for (ep, _pk), c in by_epoch_pkey.items():
        by_epoch[ep] = by_epoch.get(ep, 0) + c
    edir = os.path.join(lake_dir, "_epochs")
    if os.path.isdir(edir):
        for n in sorted(os.listdir(edir)):
            if not (n.startswith("epoch=") and n.endswith(".json")):
                continue
            with open(os.path.join(edir, n)) as f:
                rec = _json.load(f)
            if rec.get("noop") or "events" not in rec:
                continue
            if by_epoch.get(rec["epoch"], 0) != rec["events"]:
                checks["lineage_vs_epoch_events"] = False

    # 5: no checkpoint claims an epoch beyond the global record (a crash
    # can leave them momentarily ahead; a quiescent lake must not)
    g = last_global_epoch(lake_dir)
    cdir = os.path.join(lake_dir, "_checkpoints")
    if os.path.isdir(cdir):
        for n in os.listdir(cdir):
            if n.startswith("part=") and n.endswith(".json"):
                with open(os.path.join(cdir, n)) as f:
                    c = _json.load(f)
                if c.get("last_committed_epoch", -1) > g:
                    checks["checkpoints_within_global"] = False

    # 6: a single config hash across meta and all lineage records of the
    # CURRENT layout era — a repartition legitimately changes
    # num_partitions (hence the hash), so earlier eras' records are
    # layout history, not drift
    era = (meta.get("layouts") or [{"epoch": -1}])[-1]["epoch"]
    hashes = {r.get("config_hash") for r in lineage if r["epoch"] > era} | (
        {meta.get("config_hash")} if meta else set()
    )
    hashes.discard(None)
    if len(hashes) > 1:
        checks["config_hash_consistent"] = False
    return checks


def validate_lake(lake_dir: str) -> dict:
    """Post-validation over the committed lake (parity:
    ``validate.py:87-137``'s result checks). Invariants per merge mode:
    cow — one stored row per url per PARTITION; mor — one row per url per
    FILE (delta files overlap by design; the resolved live view's
    uniqueness is what read_lake guarantees). Runs DISTRIBUTED, one task
    per partition: a url-only read of its files, count vs count-distinct
    per partition (cow) or file (mor) — no driver-side url sets. Also
    reconciles cow manifest row counts against the actual files (the
    cross-set consistency check, ``validate.py:289-346`` analog)."""
    from gene_etl_ray.state.manifest import read_manifest

    meta = read_lake_meta(lake_dir)
    mor = bool(meta and meta.get("merge_mode") == "mor")
    checks = {
        "one_row_per_url": True,
        "manifest_rows_match": True,
        "rows": 0,
        "mode": "mor" if mor else "cow",
    }
    files_by_part = current_files(lake_dir)
    if not any(files_by_part.values()):
        return checks
    url_only = pa.schema([("url", pa.string())])

    def check_partition(k: int, files: list[str]) -> pa.Table:
        urls = [
            _partition_rows(fs, url_only).column("url")
            for fs in ([[f] for f in files] if mor else [files])
        ]
        return pa.table(
            {
                "pkey": [k],
                "rows": [sum(len(u) for u in urls)],
                "dup": [any(pc.count_distinct(u).as_py() != len(u) for u in urls)],
            }
        )

    res = _task_table(
        "Validate",
        [functools.partial(check_partition, k, fs) for k, fs in sorted(files_by_part.items()) if fs],
    ).to_pylist()
    checks["one_row_per_url"] = not any(r["dup"] for r in res)
    checks["rows"] = sum(r["rows"] for r in res)
    if not mor:
        actual = {r["pkey"]: r["rows"] for r in res}
        for pkey in files_by_part:
            want = (read_manifest(lake_dir, pkey) or {}).get("stats", {}).get("rows")
            if want is not None and actual.get(pkey, 0) != want:
                checks["manifest_rows_match"] = False
    return checks


def export_lake(
    lake_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
    live_only: bool = True,
    resume: bool = True,
    fmt: str = "parquet",
) -> dict:
    """RESUMABLE partitioned export of the live view: one output
    directory per lake partition, the file named by the partition's
    manifest epoch (``part=<k>/data.epoch=<E>.parquet``), each written
    by its own read task (the ``read_lake`` view of the partition) via
    tmp + atomic rename. A re-run (a) SKIPS
    partitions whose current epoch is already exported — a failed
    100-TB export resumes where it died instead of rewriting finished
    shards — and (b) re-exports partitions the lake has since committed
    to, then GCs their superseded outputs. The epoch embedded in the
    FILENAME is the staleness contract: resume never trusts an output
    that doesn't match the partition's current manifest epoch, so a
    half-finished export interleaved with more ingests still converges
    to exactly the current live view. (A compaction rewrite at an
    unchanged epoch is view-preserving by construction, so its output
    staying "stale" is still byte-correct.) Both the epoch and the file
    list come from ONE ``read_manifest`` snapshot per partition, so a
    commit racing the export can never stamp a new epoch onto stale
    files. The export parameters (column subset + live/full view) are
    folded into the filename, so a re-run with different parameters
    re-exports rather than silently mixing views. Reference analog: the
    paginated Parquet archival export (``io.py:289-335``), made
    shard-resumable; the plain streaming export stays available as
    ``read_lake(...).write_parquet`` for one-shot runs.

    ``fmt="jsonl"`` writes line-delimited JSON shards instead (the
    format training-data consumers actually read): same epoch-named
    resume contract, timestamps ISO-encoded; the format is folded into
    the params tag so a format switch re-exports rather than mixing."""
    from gene_etl_ray.state.manifest import read_manifest

    meta = read_lake_meta(lake_dir)
    if meta is None:
        return {"partitions": 0, "exported": 0, "skipped": 0, "rows": 0}
    mor = meta.get("merge_mode") == "mor"
    files_by_part = current_files(lake_dir)
    if fmt not in ("parquet", "jsonl"):
        raise ValueError(f"export_lake: unknown fmt {fmt!r}")
    params_tag = hashlib.sha256(
        json.dumps([sorted(columns) if columns else None, bool(live_only),
                    fmt]).encode()
    ).hexdigest()[:8]
    os.makedirs(out_dir, exist_ok=True)

    rows_of = _lake_view(_schema_from_hex(meta["schema_hex"]), mor, columns, live_only)

    def export_one(k: int, files: list[str], epoch: int) -> pa.Table:
        t = rows_of(files)
        pdir = os.path.join(out_dir, f"part={k:05d}")
        os.makedirs(pdir, exist_ok=True)
        dest = os.path.join(
            pdir, f"data.epoch={epoch:05d}.params={params_tag}.{fmt}"
        )
        tmp = os.path.join(
            pdir, f".tmp-data.epoch={epoch:05d}.{os.getpid()}.{fmt}"
        )
        if fmt == "jsonl":
            if t.num_rows == 0:
                # zero-byte shard (the JSONL convention for empty —
                # a blank line is not a valid record); JSONL carries
                # no schema, unlike the parquet branch's empty file
                open(tmp, "w").close()
            else:
                t.to_pandas().to_json(
                    tmp, orient="records", lines=True,
                    date_format="iso", date_unit="us", default_handler=str,
                )
        else:
            pq.write_table(t, tmp)
        os.replace(tmp, dest)
        # GC superseded epochs + orphan tmps only AFTER the new file is live
        for n in os.listdir(pdir):
            p = os.path.join(pdir, n)
            if p != dest:
                try:
                    os.remove(p)
                except OSError:
                    pass
        return pa.table({"rows": [t.num_rows]})

    exported = skipped = 0
    tasks = []
    for k in sorted(files_by_part):
        # ONE snapshot per partition: epoch AND files from the same read,
        # never the earlier current_files() listing (TOCTOU vs a
        # concurrent commit between the two reads).
        m = read_manifest(lake_dir, k)
        if m is None:
            continue
        epoch = int(m["epoch"])
        dest = os.path.join(
            out_dir,
            f"part={k:05d}",
            f"data.epoch={epoch:05d}.params={params_tag}.{fmt}",
        )
        if resume and os.path.exists(dest):
            skipped += 1
            continue
        tasks.append(functools.partial(export_one, k, list(m["files"]), epoch))
        exported += 1
    rows = pc.sum(_task_table("Export", tasks).column("rows")).as_py() if tasks else 0
    return {
        "partitions": len(files_by_part),
        "exported": exported,
        "skipped": skipped,
        "rows": rows,
    }
