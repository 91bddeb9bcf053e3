"""Incremental materialized-view maintenance (partition-invalidation IVM).

The view ``domain_stats`` = per-domain (url host) statistics over the
lake's LIVE rows: ``n_urls`` and whitespace-token total ``n_tokens``.

One shard per lake partition at
``_mv/<view>/part=<k>.epoch=<e>.parquet``, where ``<e>`` is the MANIFEST
epoch the shard reflects. :func:`refresh_view` recomputes ONLY the
shards whose epoch is behind their partition's manifest — exactly the
increment the CDC commits touched, so a refresh after a commit group is
O(touched partitions) regardless of lake size (the reference recomputes
its summary views from the full results table per run,
``models.py:241-284``; this is the incremental equivalent). The shard
computation runs distributed, one task per stale partition: a
column-pruned read of its files (``_partition_rows``, LWW-resolved under
merge-on-read), aggregated and written as the shard by that task — no
exchange, and bulk rows never visit the driver.

Shard writes are atomic (tmp + ``os.replace``) and idempotent: a crashed
refresh leaves either the old shard or the new one, never a torn file,
and the next refresh redoes whatever is still stale. Compaction rewrites
a partition at its CURRENT epoch without changing live rows, so an
epoch-equal shard stays valid by construction. Concurrent refreshers are
not coordinated (last writer wins on a byte-identical file) — run under
the writer lock if refreshing inside an ingest loop.

Reading the view concatenates the tiny pre-aggregated shards driver-side
and combines per domain: bytes read = O(partitions × domains-per-
partition), independent of row count.
"""

from __future__ import annotations

import functools
import glob
import os
import re
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DOMAIN_VIEW = "domain_stats"
_SHARD_RE = re.compile(r"part=(\d+)\.epoch=(\d+)\.parquet$")
_SHARD_SCHEMA = pa.schema(
    [("domain", pa.string()), ("n_urls", pa.int64()), ("n_tokens", pa.int64())]
)


def _mv_dir(lake_dir: str, view: str) -> str:
    return os.path.join(lake_dir, "_mv", view)


def shard_epochs(lake_dir: str, view: str = DOMAIN_VIEW) -> dict[int, tuple[int, str]]:
    """pkey → (epoch, path) of the newest shard per partition."""
    out: dict[int, tuple[int, str]] = {}
    for p in glob.glob(os.path.join(_mv_dir(lake_dir, view), "part=*.parquet")):
        m = _SHARD_RE.search(os.path.basename(p))
        if not m:
            continue
        k, e = int(m.group(1)), int(m.group(2))
        if k not in out or e > out[k][0]:
            out[k] = (e, p)
    return out


def _domain_stats_shard(group: pa.Table) -> pd.DataFrame:
    """Per-domain live stats for one partition's (LWW-resolved) rows,
    pre-aggregated."""
    live = group.filter(pc.invert(group.column("is_deleted")))
    df = pd.DataFrame(
        {
            "url": live.column("url").to_pandas(),
            "text": live.column("text").to_pandas(),
        }
    )
    df["domain"] = df["url"].str.extract(r"^[a-z][a-z0-9+.-]*://([^/]+)", expand=False)
    df["n_tokens"] = df["text"].fillna("").str.split().str.len().astype("int64")
    agg = df.groupby("domain", as_index=False, dropna=False).agg(
        n_urls=("url", "size"), n_tokens=("n_tokens", "sum")
    )
    agg["n_urls"] = agg["n_urls"].astype("int64")
    agg["n_tokens"] = agg["n_tokens"].astype("int64")
    return agg.sort_values("domain").reset_index(drop=True)


def refresh_view(lake_dir: str, view: str = DOMAIN_VIEW) -> dict:
    """Bring the view's shards up to the lake's manifests. Returns
    ``{"refreshed": [pkeys...], "fresh": n_already_current}``."""
    from gene_etl_ray.pipelines.ingest import (
        _partition_rows,
        _schema_from_hex,
        _task_table,
        read_lake_meta,
    )
    from gene_etl_ray.state.manifest import read_manifest

    assert view == DOMAIN_VIEW, f"unknown view {view!r}"
    meta = read_lake_meta(lake_dir)
    if meta is None:
        return {"refreshed": [], "fresh": 0}
    # enumerate via current_files (overlay-aware): during a repartition's
    # commit window the overlay is the authoritative partition set, not
    # the superseded per-partition JSON files on disk
    from gene_etl_ray.state.manifest import current_files

    pkeys = list(current_files(lake_dir))
    shards = shard_epochs(lake_dir, view)
    manifests = {k: read_manifest(lake_dir, k) for k in pkeys}
    stale = {
        k: m for k, m in manifests.items()
        if m is not None and shards.get(k, (-1, ""))[0] < m["epoch"]
    }
    if not stale:
        return {"refreshed": [], "fresh": len(pkeys)}

    out_dir = _mv_dir(lake_dir, view)
    os.makedirs(out_dir, exist_ok=True)
    _gc_stale_tmps(out_dir)
    schema = _schema_from_hex(meta["schema_hex"])
    mor = meta.get("merge_mode") == "mor"
    need = ["url", "text", "is_deleted"] + (["warc_ts", "seq"] if mor else [])
    read_cols = [c for c in need if schema.get_field_index(c) >= 0]

    def write_shard(k: int, files: list[str], e: int) -> pa.Table:
        agg = _domain_stats_shard(_partition_rows(files, schema, read_cols, mor))
        final = os.path.join(out_dir, f"part={k:05d}.epoch={e:05d}.parquet")
        tmp = final + f".tmp{os.getpid()}"
        pq.write_table(pa.Table.from_pandas(agg, schema=_SHARD_SCHEMA), tmp)
        os.replace(tmp, final)
        return pa.table({"pkey": [k]})

    _task_table(
        "ViewShards",
        [
            functools.partial(write_shard, k, m["files"], m["epoch"])
            for k, m in sorted(stale.items())
        ],
    )
    # GC superseded shards (after the new ones are visible)
    fresh = shard_epochs(lake_dir, view)
    for p in glob.glob(os.path.join(out_dir, "part=*.parquet")):
        m = _SHARD_RE.search(os.path.basename(p))
        if m and fresh.get(int(m.group(1)), (None, None))[1] != p:
            try:
                os.remove(p)
            except OSError:
                pass
    return {"refreshed": sorted(stale), "fresh": len(pkeys) - len(stale)}


def read_view(lake_dir: str, view: str = DOMAIN_VIEW) -> pd.DataFrame:
    """Combined view: concat the per-partition shards (tiny,
    pre-aggregated) and merge per domain. Reflects the lake as of the
    last :func:`refresh_view`."""
    # a concurrent refresher may GC a listed shard between the glob and the
    # read (it publishes the replacement FIRST, so re-globbing always sees
    # a complete set) — retry the listing on FileNotFoundError
    parts: list[pd.DataFrame] = []
    for _attempt in range(3):
        shards = shard_epochs(lake_dir, view)
        if not shards:
            return pd.DataFrame({"domain": pd.Series([], dtype="object"),
                                 "n_urls": pd.Series([], dtype="int64"),
                                 "n_tokens": pd.Series([], dtype="int64")})
        try:
            parts = [pq.read_table(p).to_pandas() for _, p in shards.values()]
            break
        except FileNotFoundError:
            if _attempt == 2:
                raise
    df = pd.concat(parts, ignore_index=True)
    out = df.groupby("domain", as_index=False, dropna=False).agg(
        n_urls=("n_urls", "sum"), n_tokens=("n_tokens", "sum")
    )
    out["n_urls"] = out["n_urls"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("domain").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Change-feed-driven delta maintenance (streaming IVM)
# ---------------------------------------------------------------------------

DELTA_VIEW = "domain_stats_delta"
_STATE_RE = re.compile(r"state\.epoch=(\d+)\.parquet$")


def _delta_state(lake_dir: str) -> tuple[int, pd.DataFrame | None, str | None]:
    """(cursor_epoch, state frame, path) of the newest delta-view state;
    (-2, None, None) when the view was never bootstrapped."""
    d = _mv_dir(lake_dir, DELTA_VIEW)
    # publish-then-GC race (same as read_view's shard retry): a
    # concurrent refresh can delete the state file between our glob and
    # the read — re-list and pick the fresh one
    for _ in range(5):
        best: tuple[int, str] | None = None
        for p in glob.glob(os.path.join(d, "state.epoch=*.parquet")):
            m = _STATE_RE.search(os.path.basename(p))
            if m and (best is None or int(m.group(1)) > best[0]):
                best = (int(m.group(1)), p)
        if best is None:
            return -2, None, None
        try:
            return best[0], pq.read_table(best[1]).to_pandas(), best[1]
        except FileNotFoundError:
            continue
    raise FileNotFoundError(
        f"delta-view state in {d} kept vanishing across retries"
    )


def _gc_stale_tmps(d: str, max_age_sec: float = 3600.0) -> None:
    """Sweep `.tmp<pid>` strays a crashed refresh stranded (nothing else
    ever globs them, so without this they accumulate forever). Age-gated
    so a concurrent writer's in-flight tmp is never touched."""
    now = time.time()
    for p in glob.glob(os.path.join(d, "*.tmp*")):
        try:
            if now - os.path.getmtime(p) > max_age_sec:
                os.remove(p)
        except OSError:
            pass


def _write_delta_state(lake_dir: str, epoch: int, state: pd.DataFrame) -> None:
    d = _mv_dir(lake_dir, DELTA_VIEW)
    os.makedirs(d, exist_ok=True)
    _gc_stale_tmps(d)
    final = os.path.join(d, f"state.epoch={epoch:05d}.parquet")
    tmp = final + f".tmp{os.getpid()}"
    pq.write_table(pa.Table.from_pandas(state, schema=_SHARD_SCHEMA), tmp)
    os.replace(tmp, final)
    for p in glob.glob(os.path.join(d, "state.epoch=*.parquet")):
        if p != final:
            try:
                os.remove(p)
            except OSError:
                pass


def _full_domain_stats(
    lake_dir: str, asof_epoch: int | None = None
) -> pd.DataFrame:
    """Distributed full compute of the view (bootstrap path): per-batch
    domain partials over the live lake, merged driver-side — the same
    aggregate :func:`read_view` yields, computed from the base table.
    ``asof_epoch`` pins the scan to the cursor being stamped: without
    it a commit racing the bootstrap lands rows in the scan that the
    next refresh's change feed then applies AGAIN (permanent
    double-count)."""
    from gene_etl_ray.pipelines.ingest import read_lake

    ds = read_lake(lake_dir, columns=["url", "text"], asof_epoch=asof_epoch)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["domain"] = b["url"].str.extract(
            r"^[a-z][a-z0-9+.-]*://([^/]+)", expand=False
        )
        b["n_tokens"] = b["text"].fillna("").str.split().str.len().astype("int64")
        return b.groupby("domain", as_index=False, dropna=False).agg(
            n_urls=("url", "size"), n_tokens=("n_tokens", "sum")
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if "domain" not in parts.columns:
        return _SHARD_SCHEMA.empty_table().to_pandas()
    out = parts.groupby("domain", as_index=False, dropna=False).agg(
        n_urls=("n_urls", "sum"), n_tokens=("n_tokens", "sum")
    )
    out["n_urls"] = out["n_urls"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("domain").reset_index(drop=True)


def refresh_view_delta(lake_dir: str) -> dict:
    """STREAMING view maintenance: advance ``domain_stats_delta`` to the
    lake's last committed epoch by APPLYING THE CHANGE FEED — never
    rescanning partitions. First refresh bootstraps with one full
    distributed compute; every later refresh pulls
    ``diff_snapshots(cursor, head, payload_cols=['text'])`` (requires
    ``retain_history``) and folds per-domain deltas into the O(domains)
    state: added ⇒ (+1 url, +tokens), deleted ⇒ (−1, −tokens),
    updated ⇒ (0, Δtokens). Work per refresh is O(changed urls), not
    O(touched-partition rows) — the complement of
    :func:`refresh_view`'s partition-invalidation strategy, for the
    regime where commits touch many partitions shallowly. The delta
    math runs distributed (per-batch partials over the feed); only the
    per-domain delta frame reaches the driver. State writes are atomic;
    the cursor lives in the state filename, so a crashed refresh reruns
    the same feed window idempotently (the old state still names the
    old cursor)."""
    from gene_etl_ray.pipelines.ingest import diff_snapshots
    from gene_etl_ray.state.checkpoint import last_global_epoch

    head = last_global_epoch(lake_dir)
    if head < 0:
        return {"refreshed": False, "reason": "no committed epoch"}
    cursor, state, _path = _delta_state(lake_dir)
    if cursor == head:
        return {"refreshed": False, "reason": "fresh", "epoch": head}
    if cursor == -2:
        state = _full_domain_stats(lake_dir, asof_epoch=head)
        _write_delta_state(lake_dir, head, state)
        return {"refreshed": True, "bootstrap": True, "epoch": head,
                "domains": len(state)}

    feed = diff_snapshots(lake_dir, cursor, head, payload_cols=["text"])

    def delta_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["domain"] = b["url"].str.extract(
            r"^[a-z][a-z0-9+.-]*://([^/]+)", expand=False
        )
        tok_to = b["text_to"].fillna("").str.split().str.len().astype("int64")
        tok_from = b["text_from"].fillna("").str.split().str.len().astype("int64")
        added = (b["change"] == "added").to_numpy()
        deleted = (b["change"] == "deleted").to_numpy()
        b["d_urls"] = np.where(added, 1, np.where(deleted, -1, 0)).astype("int64")
        b["d_tokens"] = (
            tok_to.to_numpy() * (~deleted) - tok_from.to_numpy() * (~added)
        ).astype("int64")
        return b.groupby("domain", as_index=False, dropna=False).agg(
            d_urls=("d_urls", "sum"), d_tokens=("d_tokens", "sum")
        )

    parts = feed.map_batches(delta_partial, batch_format="pandas").to_pandas()
    if "domain" in parts.columns and len(parts):
        delta = parts.groupby("domain", as_index=False, dropna=False).agg(
            d_urls=("d_urls", "sum"), d_tokens=("d_tokens", "sum")
        )
        merged = state.merge(delta, on="domain", how="outer")
        for c in ("n_urls", "n_tokens", "d_urls", "d_tokens"):
            merged[c] = merged[c].fillna(0).astype("int64")
        merged["n_urls"] += merged["d_urls"]
        merged["n_tokens"] += merged["d_tokens"]
        state = (
            merged.loc[merged["n_urls"] > 0, ["domain", "n_urls", "n_tokens"]]
            .sort_values("domain")
            .reset_index(drop=True)
        )
        changed = len(delta)
    else:
        changed = 0
    _write_delta_state(lake_dir, head, state)
    return {"refreshed": True, "bootstrap": False, "epoch": head,
            "from_epoch": cursor, "changed_domains": int(changed),
            "domains": len(state)}


def read_view_delta(lake_dir: str) -> pd.DataFrame:
    """The delta-maintained view as of its last refresh."""
    _cursor, state, _path = _delta_state(lake_dir)
    if state is None:
        return _SHARD_SCHEMA.empty_table().to_pandas()
    return state
