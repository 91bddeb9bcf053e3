"""Event-time watermark / allowed-lateness contract + bounded tombstone
retention (``EngineConfig.allowed_lateness_us``).

Semantics (the streaming lateness contract, Kafka-log-compaction /
Flink-watermark style): a commit group admits only events with
``warc_ts >= W - L`` where W is the max warc_ts committed by PRIOR
groups (durable in the global epoch records, so admission decisions are
deterministic across crash/resume). The contract is what makes TOMBSTONE
GC safe at 10^10-event scale: a delete marker older than the cutoff can
be physically dropped, because every event that could lose LWW to it is
inadmissible — and any admissible event is strictly newer, so it beats
the tombstone whether or not the marker still exists. Without the
contract tombstones accumulate forever (the default, covered by the rest
of the suite).
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from gene_etl_ray.config import EngineConfig
from gene_etl_ray.fixtures import generate_events
from gene_etl_ray.oracle import replay_oracle
from gene_etl_ray.pipelines.ingest import (
    CrashInjected,
    compact_lake,
    read_dead_letters,
    read_lake,
    run_ingest,
)
from gene_etl_ray.pipelines.normalize import dead_letter_batch, normalize_batch
from gene_etl_ray.state.checkpoint import event_time_watermark
from gene_etl_ray.state.manifest import current_files

HOUR_US = 3_600_000_000
T0 = 1_700_000_000_000_000  # µs


def _assert_matches(lake_dir: str, gold: pd.DataFrame) -> None:
    live = read_lake(lake_dir).to_pandas().sort_values("url").reset_index(drop=True)
    cols = sorted(set(live.columns) & set(gold.columns))
    assert {"url", "warc_ts", "text", "seq"} <= set(cols)
    pd.testing.assert_frame_equal(
        live[cols], gold[cols].reset_index(drop=True), check_dtype=False
    )


def _stored_rows(lake_dir: str) -> pd.DataFrame:
    files = [f for fs in current_files(lake_dir).values() for f in fs]
    return pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_lateness_lake_matches_watermark_oracle(tmp_path, mode):
    """Golden equality under lateness: engine live view == the replay
    oracle running the SAME per-group watermark simulation, and the
    contract is non-vacuous (rejections happened; result differs from the
    retain-everything replay)."""
    ev = str(tmp_path / "events")
    generate_events(ev, n_urls=60, n_events=250, n_epochs=4, seed=11)
    lake = str(tmp_path / f"lake_{mode}")
    cfg = EngineConfig(
        lake_dir=lake,
        num_partitions=4,
        merge_mode=mode,
        allowed_lateness_us=HOUR_US,
        dead_letter=True,
    )
    rep = run_ingest(cfg, ev)
    assert rep["validation"]["late_events"] > 0
    assert rep.get("dead_letter_rows", 0) == rep["validation"]["late_events"]

    gold = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=1)
    _assert_matches(lake, gold)
    gold_all = replay_oracle(ev)
    assert set(gold["url"]) != set(gold_all["url"]), "lateness rejected nothing"

    # re-run is a no-op (exactly-once unchanged by the contract)
    rep2 = run_ingest(cfg, ev)
    assert rep2["events_applied"] == 0 and rep2["commits"] == []
    _assert_matches(lake, gold)


def test_lateness_epochs_per_commit_grouping(tmp_path):
    """The watermark advances per COMMIT GROUP, not per segment: with
    epochs_per_commit=2 the two segments of a group never reject each
    other's events. Engine and oracle must agree on the grouping."""
    ev = str(tmp_path / "events")
    generate_events(ev, n_urls=60, n_events=250, n_epochs=4, seed=11)
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(
        lake_dir=lake,
        num_partitions=4,
        epochs_per_commit=2,
        allowed_lateness_us=HOUR_US,
    )
    run_ingest(cfg, ev)
    gold = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=2)
    _assert_matches(lake, gold)
    # grouping genuinely matters for this WAL: per-epoch watermarking
    # rejects a different event set
    gold_1 = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=1)
    assert len(gold_1) != len(gold) or not gold_1["seq"].equals(gold["seq"])


def _seg(out_dir: str, e: int, rows: list[tuple]) -> None:
    """Write one WAL segment: rows = (url, op, ts_us, seq, body|None)."""
    os.makedirs(out_dir, exist_ok=True)
    html = [
        None if b is None else f"<html><body><p>{b}</p></body></html>".encode()
        for (_, _, _, _, b) in rows
    ]
    t = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "html": pa.array(html, pa.binary()),
            "text": pa.nulls(len(rows), pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "seq": pa.array([r[3] for r in rows], pa.int64()),
            "epoch": pa.array([e] * len(rows), pa.int32()),
        }
    )
    pq.write_table(t, os.path.join(out_dir, f"epoch={e:05d}.parquet"))


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_tombstone_gc_and_resurrection_guard(tmp_path, mode):
    """The full lifecycle on a controlled WAL (tailing one segment at a
    time): a tombstone is retained while young, physically GC'd once the
    watermark passes it by more than L (cow: at the next partition
    rewrite; mor: at compaction), and the url it protected cannot be
    resurrected afterwards — the only events that could lose to the
    dropped marker are inadmissible ("late" in the dead-letter sink)."""
    ev = str(tmp_path / "events")
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(
        lake_dir=lake,
        num_partitions=1,  # every commit touches the single partition
        merge_mode=mode,
        allowed_lateness_us=HOUR_US,
        dead_letter=True,
    )
    a, b, c = (f"https://site.example.com/{x}" for x in "abc")

    _seg(ev, 0, [(a, "I", T0, 0, "a0"), (b, "I", T0 + 1000, 1, "b0"),
                 (c, "I", T0 + 2000, 2, "c0")])
    _seg(ev, 1, [(a, "D", T0 + 3000, 3, None), (b, "U", T0 + 4000, 4, "b1")])
    run_ingest(cfg, ev)
    stored = _stored_rows(lake)
    assert bool(stored.loc[stored["url"] == a, "is_deleted"].any()), (
        "young tombstone must be retained"
    )

    # advance the watermark far past the tombstone, then touch the
    # partition again: the NEXT group's cutoff (W - L) passes T0+3000
    _seg(ev, 2, [(c, "U", T0 + 10 * HOUR_US, 5, "c1")])
    run_ingest(cfg, ev)
    _seg(ev, 3, [(b, "U", T0 + 10 * HOUR_US + 1000, 6, "b2")])
    run_ingest(cfg, ev)
    if mode == "mor":
        stored = _stored_rows(lake)
        assert bool(stored.loc[stored["url"] == a, "is_deleted"].any()), (
            "mor deltas alone never rewrite old files"
        )
        compact_lake(cfg)
    stored = _stored_rows(lake)
    assert a not in set(stored["url"]), "aged tombstone must be physically dropped"
    W = event_time_watermark(lake)
    ts = stored["warc_ts"].astype("datetime64[us]").astype("int64")
    assert not bool((stored["is_deleted"] & (ts < W - HOUR_US)).any())

    # resurrection attempt: an event OLDER than the dropped tombstone
    # (it would have lost LWW to the marker) must be inadmissible
    _seg(ev, 4, [(a, "U", T0 + 2500, 7, "a-zombie")])
    rep = run_ingest(cfg, ev)
    assert rep["validation"]["late_events"] == 1
    live = read_lake(lake).to_pandas()
    assert a not in set(live["url"]), "deleted url resurrected after tombstone GC"

    dl = read_dead_letters(lake).to_pandas()
    late = dl[dl["reason"] == "late"]
    assert list(late["seq"]) == [7] and list(late["url"]) == [a]

    gold = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=1)
    _assert_matches(lake, gold)
    assert set(gold["url"]) == {b, c}


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_group_with_emptied_first_block_matches_oracle(tmp_path, mode):
    """A commit group whose first read block loses every row to the
    lateness cutoff. Group {2, 3}: segment 2 holds only events older than
    W - L, so its read task hands the merge exchange an empty block
    ahead of segment 3's rows (and, under cow, the lake side's)."""
    ev = str(tmp_path / "events")
    urls = [f"https://h{i}.example.com/p" for i in range(12)]
    _seg(ev, 0, [(u, "I", T0 + i, i, f"a{i}") for i, u in enumerate(urls)])
    _seg(ev, 1, [(u, "U", T0 + 10 * HOUR_US + i, 20 + i, f"b{i}")
                 for i, u in enumerate(urls[:6])])
    _seg(ev, 2, [(u, "U", T0 + 1000 + i, 40 + i, f"late{i}") for i, u in enumerate(urls)])
    _seg(ev, 3, [(u, "D" if i % 3 == 0 else "U", T0 + 11 * HOUR_US + i, 60 + i,
                  None if i % 3 == 0 else f"c{i}") for i, u in enumerate(urls[::2])])
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(
        lake_dir=lake,
        num_partitions=4,
        merge_mode=mode,
        epochs_per_commit=2,
        allowed_lateness_us=HOUR_US,
    )
    rep = run_ingest(cfg, ev)
    assert [c["epoch"] for c in rep["commits"]] == [1, 3]
    assert rep["validation"]["late_events"] == len(urls)
    gold = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=2)
    _assert_matches(lake, gold)
    assert not any(t.startswith("late") for t in read_lake(lake).to_pandas()["text"])


def test_lateness_crash_resume_deterministic(tmp_path):
    """Admission decisions are anchored at the global epoch records: a
    crash after one partition commit must not let the resumed attempt see
    a higher watermark (its own half-committed group) — the resume
    converges to the same lateness oracle as an uncrashed run."""
    ev = str(tmp_path / "events")
    generate_events(ev, n_urls=60, n_events=250, n_epochs=4, seed=11)
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(lake_dir=lake, num_partitions=4, allowed_lateness_us=HOUR_US)
    with pytest.raises(CrashInjected):
        run_ingest(cfg, ev, fail_after_partitions=1)
    run_ingest(cfg, ev)
    gold = replay_oracle(ev, allowed_lateness_us=HOUR_US, epochs_per_commit=1)
    _assert_matches(lake, gold)


def test_normalize_dead_letter_partition_with_cutoff():
    """normalize_batch(cutoff) + dead_letter_batch(cutoff) partition every
    batch exactly; late rows get reason 'late' AFTER the structural rules."""
    t = pa.table(
        {
            "url": pa.array(["https://x/1", None, "https://x/2", "https://x/3"]),
            "warc_ts": pa.array([T0, T0, T0 - 1, None], pa.timestamp("us")),
            "html": pa.array([b"x"] * 4, pa.binary()),
            "text": pa.nulls(4, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "op": pa.array(["U", "U", "U", "U"], pa.string()),
            "seq": pa.array([1, 2, 3, 4], pa.int64()),
            "epoch": pa.array([0] * 4, pa.int32()),
        }
    )
    kept = normalize_batch(t, late_cutoff_us=T0)
    rej = dead_letter_batch(t, late_cutoff_us=T0)
    assert kept.num_rows + rej.num_rows == t.num_rows
    assert sorted(kept.column("seq").to_pylist() + rej.column("seq").to_pylist()) == [1, 2, 3, 4]
    by_seq = dict(zip(rej.column("seq").to_pylist(), rej.column("reason").to_pylist()))
    assert by_seq == {2: "null_url", 3: "late", 4: "null_version"}
    # no cutoff: the late row is admitted
    assert normalize_batch(t).num_rows == 2
