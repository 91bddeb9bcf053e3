"""End-to-end convergence tests — the four mandated scenarios (north_rule,
SURVEY §5.2): full replay, mid-replay crash/resume, out-of-order delivery,
and mid-stream schema-add. Each diffs the materialized lake against the
single-process replay oracle, including per-url extracted text bytes."""

import glob
import itertools
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from gene_etl_ray.config import EngineConfig
from gene_etl_ray.fixtures import generate_events
from gene_etl_ray.oracle import replay_oracle
from gene_etl_ray.pipelines.ingest import (
    CrashInjected,
    read_lake,
    run_ingest,
    validate_lake,
)
from gene_etl_ray.state.lineage import read_lineage
from gene_etl_ray.state.manifest import current_files


def lake_df(lake_dir: str) -> pd.DataFrame:
    df = read_lake(lake_dir).to_pandas()
    if "url" not in df.columns:  # fully-empty live view loses its schema
        return df
    return df.sort_values("url").reset_index(drop=True)


def assert_matches_oracle(lake_dir: str, events_dir: str, ignore: tuple = ()):
    live = lake_df(lake_dir)
    gold = replay_oracle(events_dir)
    cols = sorted((set(live.columns) & set(gold.columns)) - set(ignore))
    assert "text" in cols and "url" in cols and "warc_ts" in cols
    pd.testing.assert_frame_equal(
        live[cols], gold[cols].reset_index(drop=True), check_dtype=False
    )
    # byte-identical text per url (explicit, beyond frame equality)
    assert list(live["text"].fillna("")) == list(gold["text"].fillna(""))


def test_full_replay_matches_oracle(tmp_events, tmp_lake):
    generate_events(tmp_events, n_urls=400, n_events=2000, n_epochs=6)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2)
    rep = run_ingest(cfg, tmp_events)
    assert rep["events_in"] == 2000
    assert_matches_oracle(tmp_lake, tmp_events)
    checks = validate_lake(tmp_lake)
    assert checks["one_row_per_url"] and checks["manifest_rows_match"]
    # lineage exists for every committed epoch
    assert {r["epoch"] for r in read_lineage(tmp_lake)} == {1, 3, 5}
    # cross-set metadata consistency: all named checks hold on a
    # quiescent committed lake, and tampering flips the right check
    from gene_etl_ray.pipelines.ingest import consistency_report
    from gene_etl_ray.state.manifest import current_files

    cons = consistency_report(tmp_lake)
    assert all(cons.values()), cons
    victim = next(iter(current_files(tmp_lake).values()))[0]
    os.remove(victim)
    cons2 = consistency_report(tmp_lake)
    assert not cons2["manifest_files_exist"]
    assert cons2["no_orphan_files"]  # deletion creates no orphans


def test_replay_is_idempotent(tmp_events, tmp_lake):
    """Re-running a fully-ingested log is a no-op (epoch idempotency,
    reference analog persist.py:273-295)."""
    generate_events(tmp_events, n_urls=200, n_events=800, n_epochs=4)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=4)
    run_ingest(cfg, tmp_events)
    before = lake_df(tmp_lake)
    rep2 = run_ingest(cfg, tmp_events)
    assert rep2["events_applied"] == 0 and rep2["commits"] == []
    pd.testing.assert_frame_equal(before, lake_df(tmp_lake))


def test_crash_and_resume_converges(tmp_events, tmp_lake):
    """Kill after epoch-k commit (and mid-commit-group: only some
    partitions committed) → resume → state identical to the oracle."""
    generate_events(tmp_events, n_urls=400, n_events=2000, n_epochs=6)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2)
    with pytest.raises(CrashInjected):
        run_ingest(cfg, tmp_events, fail_after_partitions=3)
    # torn state: some partitions at epoch 1, global record absent
    rep = run_ingest(cfg, tmp_events)  # resume
    assert rep["commits"]
    assert_matches_oracle(tmp_lake, tmp_events)


def test_crash_between_commits_converges(tmp_events, tmp_lake):
    """Crash after a full commit group (global epoch written) → resume
    replays only the remaining epochs."""
    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=6)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2)
    with pytest.raises(CrashInjected):
        run_ingest(cfg, tmp_events, fail_after_partitions=8)
    rep = run_ingest(cfg, tmp_events)
    total_applied = rep["events_applied"]
    assert total_applied < 1500  # earlier epochs were not replayed
    assert_matches_oracle(tmp_lake, tmp_events)
    # The crash at fail_after_partitions=8 died AFTER the first group's
    # partitions committed but BEFORE its global record: the resumed run
    # must recover that epoch's events total from lineage (never an
    # events-less noop), and the cross-set checks must reconcile.
    import json

    from gene_etl_ray.pipelines.ingest import consistency_report

    edir = os.path.join(tmp_lake, "_epochs")
    seen_events = 0
    for n in sorted(os.listdir(edir)):
        rec = json.load(open(os.path.join(edir, n)))
        assert rec.get("noop") or "events" in rec, rec
        seen_events += rec.get("events", 0)
    assert seen_events == 1500  # every event accounted exactly once
    assert all(consistency_report(tmp_lake).values())


def test_out_of_order_delivery_converges(tmp_events, tmp_lake, tmp_path):
    """Scenario 3: the same events delivered in a different epoch order
    produce the identical live state (LWW on (warc_ts, seq), never arrival
    order). Lineage column `epoch` is excluded — it records *when* the
    winner arrived, which legitimately differs."""
    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=5, out_of_order_frac=0.3)
    cfg_a = EngineConfig(lake_dir=tmp_lake, num_partitions=8)
    run_ingest(cfg_a, tmp_events)

    # re-deal the same events into epochs by reversed file order
    shuffled = str(tmp_path / "events_shuffled")
    os.makedirs(shuffled)
    files = sorted(glob.glob(os.path.join(tmp_events, "epoch=*.parquet")))
    tables = [pq.read_table(f) for f in reversed(files)]
    for e, t in enumerate(tables):
        t = t.set_column(t.schema.get_field_index("epoch"), "epoch", pq.read_table(files[e]).column("epoch"))
        pq.write_table(t, os.path.join(shuffled, f"epoch={e:05d}.parquet"))
    lake_b = str(tmp_path / "lake_b")
    run_ingest(EngineConfig(lake_dir=lake_b, num_partitions=8), shuffled)

    a, b = lake_df(tmp_lake), lake_df(lake_b)
    cols = sorted(set(a.columns) - {"epoch"})
    pd.testing.assert_frame_equal(a[cols], b[cols])


def test_mid_stream_schema_add_converges(tmp_events, tmp_lake):
    """Scenario 4: new nullable column appears at epoch k and
    content_length widens int32→int64; history is null-backfilled and the
    final state matches the oracle."""
    generate_events(
        tmp_events, n_urls=300, n_events=1500, n_epochs=6, schema_add_epoch=3
    )
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2)
    run_ingest(cfg, tmp_events)
    live = lake_df(tmp_lake)
    assert "fetch_status" in live.columns
    assert str(live["content_length"].dtype) == "int64"
    assert_matches_oracle(tmp_lake, tmp_events)


def test_incremental_equals_batch(tmp_events, tmp_lake, tmp_path):
    """Ingesting epoch-by-epoch (commit cadence 1) equals one big batch
    ingest — the incremental-view-maintenance property."""
    generate_events(tmp_events, n_urls=250, n_events=1200, n_epochs=4, tie_frac=0.2)
    run_ingest(EngineConfig(lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=1), tmp_events)
    lake_b = str(tmp_path / "lake_b")
    run_ingest(EngineConfig(lake_dir=lake_b, num_partitions=4, epochs_per_commit=4), tmp_events)
    a, b = lake_df(tmp_lake), lake_df(lake_b)
    pd.testing.assert_frame_equal(a, b)


def test_salting_does_not_change_state(tmp_events, tmp_path, monkeypatch):
    """Hot-partition salting is a pure physical-plan choice: forcing every
    partition hot (threshold 0, S=8) yields the identical lake state, in
    the one-task shape of a small group and in the exchange (floor 0)."""
    import gene_etl_ray.pipelines.ingest as ing

    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=3)
    for floor in (ing.READ_UNIT_MIN_BYTES, 0):
        monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", floor)
        lake_a, lake_b = str(tmp_path / f"a{floor}"), str(tmp_path / f"b{floor}")
        run_ingest(EngineConfig(lake_dir=lake_a, num_partitions=4), tmp_events)
        run_ingest(
            EngineConfig(
                lake_dir=lake_b, num_partitions=4, salt_factor=8, hot_partition_threshold=0
            ),
            tmp_events,
        )
        pd.testing.assert_frame_equal(lake_df(lake_a), lake_df(lake_b))


def test_tombstones_block_resurrection(tmp_events, tmp_lake):
    """A delete with the newest (warc_ts, seq) must win over an
    out-of-order older update arriving in a LATER epoch."""
    import pyarrow as pa

    os.makedirs(tmp_events)
    base = 1_600_000_000_000_000

    def write_epoch(e, rows):
        t = pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "warc_ts": pa.array([base + r[1] for r in rows], pa.timestamp("us")),
                "html": pa.array([r[2] for r in rows], pa.binary()),
                "text": pa.nulls(len(rows), pa.string()),
                "lang": pa.array(["en"] * len(rows), pa.string()),
                "op": pa.array([r[3] for r in rows], pa.string()),
                "seq": pa.array([r[4] for r in rows], pa.int64()),
                "epoch": pa.array([e] * len(rows), pa.int32()),
            }
        )
        pq.write_table(t, os.path.join(tmp_events, f"epoch={e:05d}.parquet"))

    u = "https://x.com/a"
    write_epoch(0, [(u, 100, b"<p>v1</p>", "I", 0), (u, 300, None, "D", 1)])
    write_epoch(1, [(u, 200, b"<p>late-old</p>", "U", 2)])  # older ts, later arrival
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=2, epochs_per_commit=1)
    run_ingest(cfg, tmp_events)
    assert len(lake_df(tmp_lake)) == 0  # url stays deleted
    # tombstone is physically retained
    stored = read_lake(tmp_lake, live_only=False).to_pandas()
    assert len(stored) == 1 and bool(stored["is_deleted"][0])


def test_winners_only_extraction_matches_oracle(tmp_events, tmp_lake, tmp_path):
    """Winners-only extraction inside the merge is semantically identical
    to the oracle's extract-everything: same oracle state, including
    ties/out-of-order/deletes and mid-stream schema-add."""
    generate_events(
        tmp_events, n_urls=300, n_events=1500, n_epochs=6,
        tie_frac=0.15, out_of_order_frac=0.2, schema_add_epoch=3,
    )
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2
    )
    run_ingest(cfg, tmp_events)
    assert_matches_oracle(tmp_lake, tmp_events)


def test_without_counts_pass_matches_oracle(
    tmp_events, tmp_lake, tmp_path
):
    """No group runs a counts pass of its own (``prevalidate=False`` is
    accepted and ignored): applied accounting sums the per-partition
    counts the exchange's read tasks compute over the rows they already
    hold — exact, because they count after the same admission rule and
    watermark filter the merge sees. The lake must converge to the
    identical oracle state, ties/out-of-order/deletes/schema-add
    included."""
    from gene_etl_ray.pipelines.normalize import normalize_batch

    generate_events(
        tmp_events, n_urls=300, n_events=1500, n_epochs=6,
        tie_frac=0.15, out_of_order_frac=0.2, schema_add_epoch=3,
    )
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2,
        prevalidate=False,
    )
    rep = run_ingest(cfg, tmp_events)
    admitted = sum(
        normalize_batch(pq.read_table(f)).num_rows
        for f in glob.glob(os.path.join(tmp_events, "epoch=*.parquet"))
    )
    assert rep["events_applied"] == admitted
    assert_matches_oracle(tmp_lake, tmp_events)


@pytest.mark.parametrize("mode", ["mor", "cow"])
def test_group_shape_follows_read_unit_floor(tmp_events, tmp_path, monkeypatch, mode):
    """A commit group reads its WAL files once, in one of two shapes. A
    group under ``READ_UNIT_MIN_BYTES`` decoded runs one Dataset execution
    of one task, which stages and merges it; with the floor at 0 the same
    group runs the exchange, its read tasks in one execution and its
    merge tasks in the other. A cow group into committed partitions runs
    the exchange under the floor too. No counts pass, and under cow no
    lake-side read, also once partitions are committed. metrics.json
    records each group's shape."""
    import json

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    import gene_etl_ray.pipelines.ingest as ing

    generate_events(tmp_events, n_urls=120, n_events=600, n_epochs=2)
    execs, tasks = [], []
    real_execute, real_dataset = StreamingExecutor.execute, ing._task_dataset

    def counted(self, *a, **kw):
        execs.append(1)
        return real_execute(self, *a, **kw)

    def task_dataset(name, fns):
        tasks.append(len(fns))
        return real_dataset(name, fns)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    monkeypatch.setattr(ing, "_task_dataset", task_dataset)
    for floor in (ing.READ_UNIT_MIN_BYTES, 0):
        monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", floor)
        lake = str(tmp_path / f"lake{floor}")
        execs.clear()
        tasks.clear()
        rep = run_ingest(EngineConfig(lake_dir=lake, num_partitions=4, merge_mode=mode), tmp_events)
        assert [c["epoch"] for c in rep["commits"]] == [0, 1]
        with open(os.path.join(lake, "_meta", "metrics.json")) as f:
            shapes = [(c["read_units"], c["merge_buckets"], c["executions"])
                      for c in json.load(f)["commits"]]
        # cow: group 1 rewrites the partitions group 0 committed
        small = [bool(floor), bool(floor) and mode == "mor"]
        assert [e for _, _, e in shapes] == [1 if sm else 2 for sm in small]
        assert len(execs) == sum(e for _, _, e in shapes)
        i = 0
        for sm, (u, b, _) in zip(small, shapes):
            if sm:
                assert (u, b) == (1, 1) and tasks[i] == 1
            else:
                # a group's two Datasets are built on two driver threads at once
                assert sorted(tasks[i : i + 2]) == sorted((u, b))
            i += 1 if sm else 2
        assert i == len(tasks)
        assert current_files(lake)  # group 1 merged into committed partitions
        assert_matches_oracle(lake, tmp_events)


def test_task_table_runs_each_task_once(tmp_path, monkeypatch):
    """The lake passes that write files (compaction, transform, export,
    repartition) run through ``_task_table``: one Dataset execution, each
    task once. A second run of a writer task truncates or strands its
    tmp file."""
    import functools

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from gene_etl_ray.pipelines.ingest import _task_table

    d = str(tmp_path)

    def touch(i):
        import tempfile

        os.close(tempfile.mkstemp(prefix=f"{i}.", dir=d)[0])
        return pa.table({"i": [i]})

    execs = []
    real = StreamingExecutor.execute

    def counted(self, *a, **kw):
        execs.append(1)
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    t = _task_table("Touch", [functools.partial(touch, i) for i in range(6)])
    assert sorted(t.column("i").to_pylist()) == list(range(6))
    assert len(execs) == 1
    assert sorted(int(n.split(".")[0]) for n in os.listdir(d)) == list(range(6))


def test_block_refs_match_public_iterator():
    """``_block_refs`` reads a materialized Dataset's block refs from Ray's
    private plan layout; they are the refs ``iter_internal_ref_bundles``
    yields, in order."""
    import functools

    from gene_etl_ray.pipelines.ingest import _block_refs, _task_dataset

    ds = _task_dataset(
        "Blocks", [functools.partial(lambda i: pa.table({"i": [i]}), i) for i in range(5)]
    ).materialize()
    want = [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]
    assert _block_refs(ds) == want
    assert [t.column("i")[0].as_py() for t in ray.get(want)] == list(range(5))


def test_run_without_work_sweeps_stale_tmp_files(tmp_events, tmp_lake):
    """A crashed run's ``.tmp-`` data files and sidecars are removed by the
    next run, also when that run has no epoch left to commit."""
    generate_events(tmp_events, n_urls=60, n_events=200, n_epochs=1)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=2)
    run_ingest(cfg, tmp_events)
    part = os.path.dirname(current_files(tmp_lake)[0][0])
    stale = [os.path.join(part, ".tmp-epoch=00000-g000000000.parquet" + x) for x in ("", ".bloom")]
    for f in stale:
        open(f, "wb").close()
    assert run_ingest(cfg, tmp_events)["commits"] == []
    assert not any(map(os.path.exists, stale))
    assert_matches_oracle(tmp_lake, tmp_events)


def test_hot_cow_partitions_merge_into_committed_files(tmp_events, tmp_lake, tmp_path):
    """Copy-on-write partitions committed cold (one file with every salt)
    and then merged hot (each salt's merge task keeps only its share of
    the stored rows), then hot again over per-salt files: the lake still
    equals the oracle, and the hot commits rewrote each partition as one
    file per salt."""
    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=3)
    first = str(tmp_path / "first")
    os.makedirs(first)
    shutil.copy(os.path.join(tmp_events, "epoch=00000.parquet"), first)
    run_ingest(EngineConfig(lake_dir=tmp_lake, num_partitions=4), first)
    assert all(len(fs) == 1 for fs in current_files(tmp_lake).values())
    rep = run_ingest(
        EngineConfig(lake_dir=tmp_lake, num_partitions=4, salt_factor=4,
                     hot_partition_threshold=0),
        tmp_events,
    )
    assert [c["epoch"] for c in rep["commits"]] == [1, 2]
    assert all(c["hot"] for c in rep["commits"])
    files = current_files(tmp_lake)
    assert len(files) == 4 and all(1 < len(fs) <= 4 for fs in files.values())
    assert_matches_oracle(tmp_lake, tmp_events)


def test_split_blocks_count_each_read_unit_once(tmp_events, tmp_lake, monkeypatch):
    """Ray may split a large staged block, and every slice keeps the
    block's partials: forcing tiny output blocks, the validation totals
    still equal pre-validation over the whole files (``duplicate_seq`` is
    a per-unit signal) and ``events_applied`` is exact."""
    from ray.data import DataContext

    import gene_etl_ray.pipelines.ingest as ing
    from gene_etl_ray.pipelines.normalize import normalize_batch, prevalidate_counts

    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=3,
                    tie_frac=0.15, out_of_order_frac=0.2)
    blocks = []
    real = ray.data.Dataset.materialize

    def materialize(self):
        out = real(self)
        blocks.append(out.num_blocks())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", materialize)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 16 << 10)
    # staged blocks exist only in the exchange shape
    monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", 0)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=3)
    rep = run_ingest(cfg, tmp_events)
    files = glob.glob(os.path.join(tmp_events, "epoch=*.parquet"))
    row_groups = sum(pq.read_metadata(f).num_row_groups for f in files)
    assert blocks[0] > row_groups  # staged blocks were split
    want = {k: 0 for k in rep["validation"]}
    for f in files:
        for k, v in prevalidate_counts(pq.read_table(f)).items():
            want[k] += v
    got = dict(rep["validation"])
    assert got.pop("late_events") == want.pop("late_events") == 0
    assert got.pop("duplicate_seq") >= 0 and want.pop("duplicate_seq") >= 0
    assert got == want and got["events"] == 1500
    assert rep["events_applied"] == sum(normalize_batch(pq.read_table(f)).num_rows for f in files)
    assert_matches_oracle(tmp_lake, tmp_events)


def test_mor_mode_matches_oracle_and_compacts(tmp_events, tmp_lake, tmp_path):
    """Merge-on-read: delta appends + read-side LWW resolution produce the
    same live state as copy-on-write and the oracle; compaction folds the
    deltas without changing the state."""
    from gene_etl_ray.pipelines.ingest import compact_lake
    from gene_etl_ray.state.manifest import current_files

    generate_events(
        tmp_events, n_urls=300, n_events=1500, n_epochs=6,
        tie_frac=0.15, out_of_order_frac=0.2, schema_add_epoch=3,
    )
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2, merge_mode="mor"
    )
    run_ingest(cfg, tmp_events)
    # 3 commit groups -> up to 3 delta files per partition
    assert max(len(fs) for fs in current_files(tmp_lake).values()) > 1
    assert validate_lake(tmp_lake)["one_row_per_url"]
    assert_matches_oracle(tmp_lake, tmp_events)

    before = lake_df(tmp_lake)
    rep = compact_lake(cfg)
    assert rep["compacted"] > 0
    assert max(len(fs) for fs in current_files(tmp_lake).values()) == 1
    pd.testing.assert_frame_equal(before, lake_df(tmp_lake))
    assert_matches_oracle(tmp_lake, tmp_events)


def test_mor_crash_resume(tmp_events, tmp_lake):
    """Exactly-once holds in merge-on-read mode across a mid-commit crash:
    no delta file is double-appended on resume."""
    generate_events(tmp_events, n_urls=300, n_events=1500, n_epochs=6)
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2, merge_mode="mor"
    )
    with pytest.raises(CrashInjected):
        run_ingest(cfg, tmp_events, fail_after_partitions=3)
    run_ingest(cfg, tmp_events)
    assert validate_lake(tmp_lake)["one_row_per_url"]
    assert_matches_oracle(tmp_lake, tmp_events)


def test_incremental_arrival(tmp_events, tmp_lake, tmp_path):
    """The tailing loop: epochs arrive over time; each run_ingest applies
    only what is new, and the final state equals a one-shot replay."""
    staged = str(tmp_path / "staged")
    generate_events(staged, n_urls=250, n_events=1200, n_epochs=6, out_of_order_frac=0.2)
    os.makedirs(tmp_events)
    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=2)
    all_files = sorted(os.listdir(staged))
    applied = 0
    for i, f in enumerate(all_files):
        shutil.copy(os.path.join(staged, f), os.path.join(tmp_events, f))
        if i % 2 == 1:  # the tail loop wakes up every 2 segments
            rep = run_ingest(cfg, tmp_events)
            applied += rep["events_applied"]
    assert applied == 1200
    assert_matches_oracle(tmp_lake, tmp_events)


def test_keep_html_and_backpressure_cap(tmp_events, tmp_lake):
    """keep_html retains the raw payload column in the lake; a bounded
    object-store cap (backpressure) changes nothing semantically."""
    generate_events(tmp_events, n_urls=150, n_events=600, n_epochs=3)
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=4, keep_html=True,
        object_store_limit_bytes=256 * 1024 * 1024,
    )
    run_ingest(cfg, tmp_events)
    live = read_lake(tmp_lake).to_pandas()
    assert "html" in live.columns
    assert live.loc[live["text"].notna(), "html"].notna().all()
    gold = replay_oracle(tmp_events, keep_html=True)
    live = live.sort_values("url").reset_index(drop=True)
    cols = sorted(set(live.columns) & set(gold.columns))
    pd.testing.assert_frame_equal(live[cols], gold[cols].reset_index(drop=True), check_dtype=False)


def test_lookup_urls_point_query(tmp_events, tmp_lake):
    """Partition-pruned point lookup returns exactly the live rows of the
    requested urls (cow and after deletes)."""
    from gene_etl_ray.pipelines.ingest import lookup_urls

    generate_events(tmp_events, n_urls=200, n_events=900, n_epochs=3)
    run_ingest(EngineConfig(lake_dir=tmp_lake, num_partitions=8), tmp_events)
    live = lake_df(tmp_lake)
    some = list(live["url"].iloc[[0, 5, 17]])
    t = lookup_urls(tmp_lake, some + ["https://definitely-missing.example/"])
    got = t.to_pandas().sort_values("url").reset_index(drop=True)
    assert sorted(got["url"]) == sorted(some)
    exp = live[live["url"].isin(some)].sort_values("url").reset_index(drop=True)
    assert list(got.sort_values("url")["text"]) == list(exp["text"])


def test_mor_winners_only_extraction_matches_oracle(tmp_events, tmp_lake):
    """Winners-only extraction into a merge-on-read lake (delta appends,
    read-side LWW) converges to the oracle state, ties and out-of-order
    events included."""
    generate_events(
        tmp_events, n_urls=250, n_events=1200, n_epochs=4,
        tie_frac=0.15, out_of_order_frac=0.2,
    )
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2,
        merge_mode="mor",
    )
    run_ingest(cfg, tmp_events)
    assert_matches_oracle(tmp_lake, tmp_events)


def test_corrupt_segment_quarantined(tmp_events, tmp_lake):
    """A torn/corrupt WAL segment is quarantined (skipped + reported),
    and epochs after it are held back so the watermark never jumps the
    gap; once the segment is repaired, ingest picks up where it left off
    and converges."""
    generate_events(tmp_events, n_urls=200, n_events=800, n_epochs=4)
    corrupt = os.path.join(tmp_events, "epoch=00002.parquet")
    good_bytes = open(corrupt, "rb").read()
    with open(corrupt, "wb") as f:
        f.write(good_bytes[: len(good_bytes) // 2])  # torn write

    cfg = EngineConfig(lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=1)
    rep = run_ingest(cfg, tmp_events)
    assert rep["quarantined_segments"] == [corrupt]
    # epochs 0-1 committed; 2 (corrupt) and 3 (after the gap) held back
    assert [c["epoch"] for c in rep["commits"]] == [0, 1]

    with open(corrupt, "wb") as f:
        f.write(good_bytes)  # segment repaired/re-uploaded
    rep2 = run_ingest(cfg, tmp_events)
    assert [c["epoch"] for c in rep2["commits"]] == [2, 3]
    assert_matches_oracle(tmp_lake, tmp_events)


def test_mixed_case_urls_converge(tmp_events, tmp_lake):
    """Regression for the normalize fast-path bug: events for the SAME
    logical url arriving with different host casings / fragments must
    merge into one row, identical to the oracle."""
    import pyarrow as pa

    os.makedirs(tmp_events)
    base = 1_600_000_000_000_000
    rows = [
        ("https://Example.COM/page", 100, b"<p>v1</p>", "I", 0),
        ("HTTPS://example.com/page#frag", 200, b"<p>v2</p>", "U", 1),
        ("https://example.com/page", 300, b"<p>v3</p>", "U", 2),
        ("https://OTHER.org/x", 100, b"<p>o1</p>", "I", 3),
    ]
    t = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([base + r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.nulls(len(rows), pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "op": pa.array([r[3] for r in rows], pa.string()),
            "seq": pa.array([r[4] for r in rows], pa.int64()),
            "epoch": pa.array([0] * len(rows), pa.int32()),
        }
    )
    pq.write_table(t, os.path.join(tmp_events, "epoch=00000.parquet"))
    run_ingest(EngineConfig(lake_dir=tmp_lake, num_partitions=4), tmp_events)
    live = lake_df(tmp_lake)
    assert sorted(live["url"]) == ["https://example.com/page", "https://other.org/x"]
    assert live.set_index("url").loc["https://example.com/page", "text"] == "v3"
    assert_matches_oracle(tmp_lake, tmp_events)


def test_read_lake_column_projection(tmp_events, tmp_lake, tmp_path, monkeypatch):
    """read_lake(columns=...) works with the default live view in BOTH
    sink modes (regression: the live filter used to reference internal
    columns after the projection dropped them), null-backfills a column
    added mid-stream in the files written before the add, and resolves a
    merge-on-read lake partition-local, with no shuffle."""
    from gene_etl_ray.pipelines.ingest import _op_secs

    generate_events(tmp_events, n_urls=120, n_events=500, n_epochs=2)
    run_ingest(EngineConfig(lake_dir=tmp_lake, num_partitions=4), tmp_events)
    df = read_lake(tmp_lake, columns=["url", "text"]).to_pandas()
    assert list(df.columns) == ["url", "text"] and len(df) > 0

    lake_b = str(tmp_path / "lake_mor")
    run_ingest(EngineConfig(lake_dir=lake_b, num_partitions=4, merge_mode="mor"), tmp_events)
    df2 = read_lake(lake_b, columns=["url", "text"]).to_pandas()
    assert list(df2.columns) == ["url", "text"]
    pd.testing.assert_frame_equal(
        df.sort_values("url").reset_index(drop=True),
        df2.sort_values("url").reset_index(drop=True),
    )

    # the merge-on-read count runs read tasks only: no sort/shuffle stage
    executed = []
    real_iter = ray.data.Dataset.iter_batches

    def spy(self, *a, **k):
        executed.append(self)
        return real_iter(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy)
    assert read_lake(lake_b, columns=["url", "text"]).count() == len(df2)
    monkeypatch.undo()
    ops = list(_op_secs(*executed))
    assert ops and not [
        op for op in ops if any(s in op for s in ("Sort", "Shuffle", "AllToAll", "Repartition"))
    ], ops

    # mid-stream schema add, one commit per segment: under merge-on-read
    # the deltas written before the add lack the column and must read
    # back null-backfilled, LWW-resolved with the later deltas
    ev_add = str(tmp_path / "events_add")
    generate_events(ev_add, n_urls=120, n_events=500, n_epochs=4, schema_add_epoch=2)
    want = ["url", "warc_ts", "fetch_status"]
    got = {}
    for mode in ("cow", "mor"):
        lake = str(tmp_path / f"lake_add_{mode}")
        run_ingest(
            EngineConfig(lake_dir=lake, num_partitions=4, merge_mode=mode, epochs_per_commit=1),
            ev_add,
        )
        got[mode] = read_lake(lake, columns=want).to_pandas().sort_values("url")
        assert list(got[mode].columns) == want
    pre_add = [
        f for fs in current_files(str(tmp_path / "lake_add_mor")).values() for f in fs
        if "fetch_status" not in pq.read_schema(f).names
    ]
    assert pre_add, "the merge-on-read lake keeps deltas written before the add"
    gold = replay_oracle(ev_add)[want].sort_values("url").reset_index(drop=True)
    for mode in ("cow", "mor"):
        pd.testing.assert_frame_equal(got[mode].reset_index(drop=True), gold, check_dtype=False)
    assert got["mor"]["fetch_status"].isna().any() and got["mor"]["fetch_status"].notna().any()


class TestMaterializedView:
    """Incremental view maintenance: partition-invalidation refresh must
    equal a full recompute from the live lake, touch ONLY the partitions
    the intervening commits touched, and be idempotent."""

    @staticmethod
    def _recompute(lake_dir: str) -> pd.DataFrame:
        df = read_lake(lake_dir).to_pandas()
        if "url" not in df.columns or not len(df):
            return pd.DataFrame(
                {"domain": pd.Series([], dtype="object"),
                 "n_urls": pd.Series([], dtype="int64"),
                 "n_tokens": pd.Series([], dtype="int64")}
            )
        df["domain"] = df["url"].str.extract(
            r"^[a-z][a-z0-9+.-]*://([^/]+)", expand=False
        )
        df["n_tokens"] = df["text"].fillna("").str.split().str.len().astype("int64")
        out = df.groupby("domain", as_index=False).agg(
            n_urls=("url", "size"), n_tokens=("n_tokens", "sum")
        )
        out["n_urls"] = out["n_urls"].astype("int64")
        out["n_tokens"] = out["n_tokens"].astype("int64")
        return out.sort_values("domain").reset_index(drop=True)

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_incremental_refresh_matches_recompute(self, tmp_path, mode):
        from gene_etl_ray.state.mview import read_view, refresh_view

        full = tmp_path / "all_events"
        ev = tmp_path / "events"
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(str(full), n_urls=300, n_events=1500, n_epochs=4, seed=9)
        seg = sorted(glob.glob(os.path.join(str(full), "epoch=*.parquet")))
        assert len(seg) == 4
        os.makedirs(str(ev))
        for f in seg[:2]:
            shutil.copy(f, str(ev))
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=8, epochs_per_commit=2, merge_mode=mode
        )
        run_ingest(cfg, str(ev))
        r1 = refresh_view(lake)
        assert r1["refreshed"], "first refresh must build shards"
        pd.testing.assert_frame_equal(read_view(lake), self._recompute(lake))

        # second batch of epochs: refresh must touch ONLY committed-to parts
        for f in seg[2:]:
            shutil.copy(f, str(ev))
        run_ingest(cfg, str(ev))
        touched = {r["pkey"] for r in read_lineage(lake) if r["epoch"] == 3}
        r2 = refresh_view(lake)
        assert set(r2["refreshed"]) == touched
        assert r2["fresh"] == 8 - len(touched)
        pd.testing.assert_frame_equal(read_view(lake), self._recompute(lake))

        # idempotent: nothing stale after a refresh
        r3 = refresh_view(lake)
        assert r3["refreshed"] == [] and r3["fresh"] == 8


class TestTimeTravel:
    """Snapshot retention + as-of reads: every committed epoch's snapshot
    must equal the single-process replay of exactly that WAL prefix."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_asof_read_matches_prefix_replay(self, tmp_path, mode):
        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=250, n_events=1200, n_epochs=6, seed=21)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=8, epochs_per_commit=2,
            merge_mode=mode, retain_history=True,
        )
        run_ingest(cfg, ev)
        seg = sorted(glob.glob(os.path.join(ev, "epoch=*.parquet")))

        def prefix_oracle(n: int) -> pd.DataFrame:
            pre = tmp_path / f"prefix_{mode}_{n}"
            os.makedirs(str(pre), exist_ok=True)
            for f in seg[:n]:
                shutil.copy(f, str(pre))
            return replay_oracle(str(pre)).sort_values("url").reset_index(drop=True)

        for commit_epoch, n_seg in [(1, 2), (3, 4), (5, 6)]:
            got = (
                read_lake(lake, asof_epoch=commit_epoch)
                .to_pandas().sort_values("url").reset_index(drop=True)
            )
            gold = prefix_oracle(n_seg)
            cols = sorted(set(got.columns) & set(gold.columns))
            pd.testing.assert_frame_equal(
                got[cols], gold[cols].reset_index(drop=True), check_dtype=False
            )

        # an uncommitted intermediate epoch resolves to the last commit <= it
        e2 = read_lake(lake, asof_epoch=2).to_pandas().sort_values("url")
        e1 = read_lake(lake, asof_epoch=1).to_pandas().sort_values("url")
        pd.testing.assert_frame_equal(
            e2.reset_index(drop=True), e1.reset_index(drop=True)
        )

        # retention survives consistency checks (superseded files are
        # accounted for, not orphans)
        from gene_etl_ray.pipelines.ingest import consistency_report

        assert all(consistency_report(lake).values())

        # asof earlier than the first commit: on a FULLY retained lake the
        # history proves the lake was empty, so the snapshot is empty (not
        # an error — lineage shows every partition's first commit is later)
        assert read_lake(lake, asof_epoch=0).count() == 0

    def test_mor_compaction_preserves_snapshots(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import compact_lake

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=200, n_events=900, n_epochs=4, seed=33)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=2,
            merge_mode="mor", retain_history=True,
        )
        run_ingest(cfg, ev)
        before = (
            read_lake(lake, asof_epoch=1)
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        compact_lake(cfg)
        after = (
            read_lake(lake, asof_epoch=1)
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(before, after)
        # current view still matches the full replay after compaction
        assert_matches_oracle(lake, ev)

    def test_retention_enabled_mid_life(self, tmp_path):
        """Retention turned on after the lake already has commits:
        untouched partitions fall back to their current manifest (their
        state provably didn't change), a reconstructable snapshot reads
        clean, an unreconstructable one fails loud, and turning retention
        back OFF is refused (sticky — GC would eat archived snapshots)."""
        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=150, n_events=600, n_epochs=2, seed=7)
        base = dict(lake_dir=lake, num_partitions=8, epochs_per_commit=2)
        run_ingest(EngineConfig(**base, retain_history=False), ev)

        # phase 2: one more WAL segment touching exactly ONE url (so most
        # partitions are untouched by the retained commit)
        t = pq.read_table(os.path.join(ev, "epoch=00001.parquet"))
        df = t.to_pandas()
        row = df[df["op"] != "D"].iloc[[-1]].copy()
        row["seq"] = int(df["seq"].max()) + 1
        row["warc_ts"] = row["warc_ts"] + pd.Timedelta(days=365)
        row["epoch"] = 2
        pq.write_table(
            pa.Table.from_pandas(row, schema=t.schema, preserve_index=False),
            os.path.join(ev, "epoch=00002.parquet"),
        )
        run_ingest(EngineConfig(**base, retain_history=True), ev)

        # asof the retained commit: archived manifest for the touched
        # partition + current-manifest fallback for the untouched ones
        got = (
            read_lake(lake, asof_epoch=2)
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        gold = replay_oracle(ev).sort_values("url").reset_index(drop=True)
        cols = sorted(set(got.columns) & set(gold.columns))
        pd.testing.assert_frame_equal(got[cols], gold[cols], check_dtype=False)

        # asof BEFORE retention began, for a partition that changed after:
        # unreconstructable — must fail loud, not silently drop/mix state
        with pytest.raises(ValueError, match="unreconstructable"):
            read_lake(lake, asof_epoch=1).count()

        # retention is sticky: a later run trying to disable it is refused
        with pytest.raises(ValueError, match="retain_history"):
            run_ingest(EngineConfig(**base, retain_history=False), ev)


class TestSnapshotDiff:
    """diff_snapshots change feed vs an independent expectation computed
    from the single-process replay of the two WAL prefixes."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_diff_matches_prefix_replays(self, tmp_path, mode):
        from gene_etl_ray.pipelines.ingest import diff_snapshots

        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=250, n_events=1400, n_epochs=6, seed=13)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=8, epochs_per_commit=2,
            merge_mode=mode, retain_history=True,
        )
        run_ingest(cfg, ev)
        seg = sorted(glob.glob(os.path.join(ev, "epoch=*.parquet")))

        def prefix_live(n: int) -> pd.DataFrame:
            pre = tmp_path / f"pfx_{mode}_{n}"
            os.makedirs(str(pre), exist_ok=True)
            for f in seg[:n]:
                shutil.copy(f, str(pre))
            return replay_oracle(str(pre)).set_index("url")

        a, b = prefix_live(2), prefix_live(6)  # commit epochs 1 and 5
        exp = {}
        for url in set(a.index) - set(b.index):
            exp[url] = "deleted"
        for url in set(b.index) - set(a.index):
            exp[url] = "added"
        for url in set(a.index) & set(b.index):
            if int(a.loc[url, "seq"]) != int(b.loc[url, "seq"]):
                exp[url] = "updated"
        assert exp, "fixture must actually change things between snapshots"

        got = diff_snapshots(lake, 1, 5).to_pandas()
        got_map = dict(zip(got["url"], got["change"]))
        assert got_map == exp
        # version columns carry each side's winner
        upd = got[got["change"] == "updated"]
        for r in upd.itertuples():
            assert int(r.seq_from) == int(a.loc[r.url, "seq"])
            assert int(r.seq_to) == int(b.loc[r.url, "seq"])

        # identical snapshots diff to nothing (and read no partitions)
        empty = diff_snapshots(lake, 5, 5).to_pandas()
        assert len(empty) == 0


class TestDeltaView:
    """Change-feed-driven view maintenance (streaming IVM): applying
    diff_snapshots deltas to the O(domains) state must equal a full
    recompute from the live lake at every cursor position, in both sink
    modes — and must never rescan the base table after bootstrap."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_delta_apply_matches_recompute(self, tmp_path, mode):
        from gene_etl_ray.state.mview import read_view_delta, refresh_view_delta

        full = tmp_path / "all_events"
        ev = tmp_path / "events"
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(
            str(full), n_urls=250, n_events=1400, n_epochs=6, seed=33,
            delete_frac=0.12,
        )
        seg = sorted(glob.glob(os.path.join(str(full), "epoch=*.parquet")))
        os.makedirs(str(ev))
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=8, epochs_per_commit=2,
            merge_mode=mode, retain_history=True,
        )
        recompute = TestMaterializedView._recompute

        # wave 1: bootstrap (full distributed compute, cursor = head)
        for f in seg[:2]:
            shutil.copy(f, str(ev))
        run_ingest(cfg, str(ev))
        r1 = refresh_view_delta(lake)
        assert r1["refreshed"] and r1["bootstrap"]
        pd.testing.assert_frame_equal(read_view_delta(lake), recompute(lake))

        # waves 2..3: pure delta application from the change feed
        for lo, hi in ((2, 4), (4, 6)):
            for f in seg[lo:hi]:
                shutil.copy(f, str(ev))
            run_ingest(cfg, str(ev))
            r = refresh_view_delta(lake)
            assert r["refreshed"] and not r["bootstrap"]
            assert r["changed_domains"] > 0  # the feed really drove it
            pd.testing.assert_frame_equal(read_view_delta(lake), recompute(lake))

        # idempotent at head
        r4 = refresh_view_delta(lake)
        assert not r4["refreshed"] and r4["reason"] == "fresh"

    def test_payload_cols_on_feed(self, tmp_path):
        """diff_snapshots(payload_cols=...) carries each side's winning
        payload: an updated url shows old and new text, an added url a
        null from-side, a deleted url a null to-side."""
        from gene_etl_ray.pipelines.ingest import diff_snapshots

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=120, n_events=700, n_epochs=4, seed=5,
                        delete_frac=0.15)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=1,
            retain_history=True,
        )
        run_ingest(cfg, ev)
        feed = diff_snapshots(lake, 0, 3, payload_cols=["text"]).to_pandas()
        assert {"text_from", "text_to"} <= set(feed.columns)
        assert len(feed) > 0
        for _, row in feed.iterrows():
            if row["change"] == "added":
                assert pd.isna(row["text_from"]) and isinstance(row["text_to"], str)
            elif row["change"] == "deleted":
                assert isinstance(row["text_from"], str) and pd.isna(row["text_to"])
            else:
                assert isinstance(row["text_from"], str) and isinstance(
                    row["text_to"], str
                )


def count_opens(monkeypatch) -> list[str]:
    """The paths of the lake files ``lookup_urls`` opens from now on."""
    import gene_etl_ray.pipelines.ingest as ing

    opened: list[str] = []
    real = ing.pq.ParquetFile

    def counting(path, *a, **k):
        opened.append(path)
        return real(path, *a, **k)

    monkeypatch.setattr(ing.pq, "ParquetFile", counting)
    return opened


class TestBloomSidecars:
    """Per-file url Bloom sidecars: committed with the same rename
    protocol as the data file, GC'd with it, and used by point lookups
    to skip files that cannot contain a probed url."""

    def test_sidecars_committed_and_lookup_prunes(self, tmp_path, monkeypatch, caplog):
        import logging

        import gene_etl_ray.pipelines.ingest as ing

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=200, n_events=1000, n_epochs=4, seed=13)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=1,
            merge_mode="mor",  # delta-file stacks: the pruning regime
        )
        run_ingest(cfg, ev)
        files = [f for fs in current_files(lake).values() for f in fs]
        assert len(files) > 4  # multiple delta files per partition
        for f in files:
            assert os.path.exists(f + ".bloom"), f
        # no stray temp sidecars
        assert not glob.glob(os.path.join(lake, "part=*", ".tmp-*.bloom"))

        live = lake_df(lake)
        probe = sorted(live["url"])[:3]
        reads = count_opens(monkeypatch)
        caplog.set_level(logging.DEBUG, logger=ing.__name__)
        got = ing.lookup_urls(lake, probe).to_pandas()
        monkeypatch.undo()
        assert sorted(got["url"]) == sorted(probe)
        # pruning must beat "read every file of the probed partitions"
        from gene_etl_ray.hashing import partition_keys

        pkeys = sorted(set(int(k) for k in partition_keys(probe, 4)))
        candidate = [f for fs in current_files(lake, pkeys).values() for f in fs]
        assert 1 <= len(reads) < len(candidate), (len(reads), len(candidate))
        # the lookup reports what it read
        [msg] = [r.getMessage() for r in caplog.records if "lookup_urls" in r.getMessage()]
        assert msg == (f"lookup_urls: {len(candidate)} files in {len(pkeys)} probed "
                       f"partitions, {len(reads)} kept by Bloom and read"), msg

        # equality with the unpruned read: force sidecars to miss (in an
        # empty cache: the lookup above cached the decoded sidecars)
        monkeypatch.setattr(ing, "_LAKE_STATE", ing._LakeStateCache(ing._LAKE_STATE_BYTES))
        monkeypatch.setattr(ing, "_load_bloom_sidecar", lambda f: None)
        reads = count_opens(monkeypatch)
        unpruned = ing.lookup_urls(lake, probe).to_pandas()
        monkeypatch.undo()
        assert sorted(reads) == sorted(candidate)
        pd.testing.assert_frame_equal(
            got.sort_values("url").reset_index(drop=True),
            unpruned.sort_values("url").reset_index(drop=True),
        )

    def test_cow_gc_removes_superseded_sidecars(self, tmp_path):
        full = tmp_path / "all_events"
        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(str(full), n_urls=150, n_events=800, n_epochs=4, seed=19)
        seg = sorted(glob.glob(os.path.join(str(full), "epoch=*.parquet")))
        os.makedirs(ev)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, epochs_per_commit=2)
        for f in seg[:2]:
            shutil.copy(f, ev)
        run_ingest(cfg, ev)
        for f in seg[2:]:
            shutil.copy(f, ev)
        run_ingest(cfg, ev)
        # every on-disk sidecar belongs to a manifested file, and every
        # manifested file has exactly one sidecar
        manifested = {f for fs in current_files(lake).values() for f in fs}
        sidecars = set(glob.glob(os.path.join(lake, "part=*", "*.parquet.bloom")))
        assert sidecars == {f + ".bloom" for f in manifested}


def assert_lookups_match_oracle(lake: str, events_dir: str, urls: list[str]) -> None:
    """Each url's single-url ``lookup_urls``, and one lookup of them all,
    return the replay oracle's live row of that url, or no row."""
    from gene_etl_ray.pipelines.ingest import lookup_urls

    gold = replay_oracle(events_dir).set_index("url")
    cols = ["warc_ts", "seq", "text"]
    for u in urls:
        got = lookup_urls(lake, [u]).to_pandas()
        if u not in gold.index:
            assert len(got) == 0, u
        else:
            assert len(got) == 1, u
            assert list(got[cols].iloc[0]) == list(gold.loc[u, cols]), u
    got = lookup_urls(lake, urls).to_pandas().sort_values("url").set_index("url")
    want = gold.loc[sorted(set(urls) & set(gold.index)), cols]
    pd.testing.assert_frame_equal(got[cols], want, check_dtype=False)


def rewrite_lake_file(path: str, table: pa.Table) -> None:
    """Put ``table`` and its Bloom sidecar at a committed file's path the
    way the commit does: written aside, then renamed over the old bytes."""
    import gene_etl_ray.pipelines.ingest as ing

    tmp = os.path.join(os.path.dirname(path), ".tmp-rewrite.parquet")
    pq.write_table(table, tmp)
    ing._write_bloom_sidecar(tmp, table.column("url"))
    os.replace(tmp, path)
    os.replace(tmp + ".bloom", path + ".bloom")


class TestPointLookups:
    """``lookup_urls`` hashes the probe once and keeps decoded Bloom
    sidecars per file version: none of it may change what a lookup
    returns."""

    def test_lookup_after_each_mor_commit_matches_oracle(self, tmp_path):
        full = str(tmp_path / "all_events")
        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(full, n_urls=80, n_events=400, n_epochs=4, seed=41,
                        delete_frac=0.15)
        urls = sorted(set(replay_oracle(full)["url"])
                      | set(pq.read_table(full, columns=["url"]).column("url").to_pylist()))
        os.makedirs(ev)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, epochs_per_commit=1,
                           merge_mode="mor")
        for f in sorted(glob.glob(os.path.join(full, "epoch=*.parquet"))):
            shutil.copy(f, ev)
            run_ingest(cfg, ev)
            assert_lookups_match_oracle(lake, ev, urls)

    @staticmethod
    def _mor_lake(tmp_path) -> tuple[str, str]:
        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=60, n_events=300, n_epochs=3, seed=43)
        run_ingest(EngineConfig(lake_dir=lake, num_partitions=2, epochs_per_commit=1,
                                merge_mode="mor"), ev)
        return ev, lake

    def test_rewritten_file_at_old_path_is_reread(self, tmp_path):
        """A crash re-run or a copy-on-write rewrite can rename new bytes
        onto a committed path: the cached sidecar of the old bytes must
        not prune the new ones."""
        import gene_etl_ray.pipelines.ingest as ing
        from gene_etl_ray.hashing import partition_keys

        ev, lake = self._mor_lake(tmp_path)
        assert_lookups_match_oracle(lake, ev, list(lake_df(lake)["url"]))  # caches sidecars
        f = current_files(lake, [0])[0][-1]
        old = pq.read_table(f)
        # a url of this partition that the file's old sidecar rules out
        new_url = next(u for u in (f"https://rewrite.example/{i}" for i in range(10_000))
                       if partition_keys([u], 2)[0] == 0
                       and not ing._SIDECARS.get(f).contains([u])[0])
        added = old.slice(0, 1)
        added = added.set_column(0, "url", pa.array([new_url], old.schema.field("url").type))
        added = added.set_column(added.schema.get_field_index(ing.DELETED_COLUMN),
                                 ing.DELETED_COLUMN, pa.array([False]))
        rewrite_lake_file(f, pa.concat_tables([old, added]).sort_by("url"))
        got = ing.lookup_urls(lake, [new_url]).to_pandas()
        assert list(got["url"]) == [new_url]
        assert got["seq"].iloc[0] == added.column("seq")[0].as_py()

    @pytest.mark.parametrize("damage", ["corrupt", "deleted"])
    def test_unreadable_sidecar_reads_the_file(self, tmp_path, monkeypatch, damage):
        """A sidecar that is corrupt or gone, even after its good bytes
        were cached, means "read the file": every file of the probed
        partition is opened and the lookup still answers right."""
        import gene_etl_ray.pipelines.ingest as ing
        from gene_etl_ray.hashing import partition_keys

        ev, lake = self._mor_lake(tmp_path)
        live = list(lake_df(lake)["url"])
        assert_lookups_match_oracle(lake, ev, live)  # caches sidecars
        for f in [f for fs in current_files(lake).values() for f in fs]:
            if damage == "corrupt":
                with open(f + ".bloom", "w") as fh:
                    fh.write('{"num_bits": 8192')
            else:
                os.remove(f + ".bloom")
        for u in live[:5]:
            opened = count_opens(monkeypatch)
            got = ing.lookup_urls(lake, [u]).to_pandas()
            monkeypatch.undo()
            assert list(got["url"]) == [u]
            pkey = int(partition_keys([u], 2)[0])
            assert sorted(opened) == sorted(current_files(lake, [pkey])[pkey])
        assert_lookups_match_oracle(lake, ev, live)

    def test_sidecar_cache_keeps_its_budget_under_threads(self, tmp_path):
        """Threads sharing one sidecar cache (lookups from a threaded
        server) whose budget holds 4 of 12 filters: every get returns the filter
        on disk, and the byte count stays the sum of the entries held,
        within the budget."""
        import random
        import sys
        import threading

        import gene_etl_ray.pipelines.ingest as ing

        paths = [str(tmp_path / f"f{i}.parquet") for i in range(12)]
        for i, p in enumerate(paths):
            ing._write_bloom_sidecar(p, pa.array([f"https://t.example/{i}/{j}" for j in range(50)]))
        want = {p: ing._load_bloom_sidecar(p).bits for p in paths}
        cache = ing._SidecarCache(budget=4 * want[paths[0]].nbytes)
        errors: list = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    p = rng.choice(paths)
                    if not (cache.get(p).bits == want[p]).all():
                        errors.append(p)
            except Exception as e:  # reported by the assert below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        held = sum(bf.bits.nbytes for bf in cache._entries.values())
        assert cache._bytes == held <= cache.budget


def count_state_opens(monkeypatch, lake: str) -> list[str]:
    """The lake state files (meta, overlay, manifests) opened from now on,
    by their path below ``lake``; a failed open of a missing file counts."""
    import builtins

    opened: list[str] = []
    real = builtins.open

    def counting(path, *a, **k):
        if isinstance(path, str) and path.startswith(lake) and path.endswith(".json"):
            opened.append(os.path.relpath(path, lake))
        return real(path, *a, **k)

    monkeypatch.setattr(builtins, "open", counting)
    return opened


class TestLakeStateReads:
    """Readers take the lake meta, the repartition overlay and the
    manifests through one process-wide cache that reuses a parse only
    while the file's bytes are unchanged: a reader racing the writer sees
    each partition as of a commit, and a scan reads each file once."""

    @pytest.mark.parametrize("mode", ["mor", "cow"])
    def test_readers_racing_commits_see_committed_states(self, tmp_path, mode):
        """A reader thread runs single-url lookups and scans while the
        main thread commits 4 groups. Each lookup returns the oracle's
        row at a group boundary it overlapped: the state before or after
        its partition's commit. Copy-on-write keeps superseded files for
        a grace period, as a lake serving readers must."""
        import threading

        import gene_etl_ray.pipelines.ingest as ing

        full = str(tmp_path / "all_events")
        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(full, n_urls=60, n_events=400, n_epochs=4, seed=47,
                        delete_frac=0.15)
        segs = sorted(glob.glob(os.path.join(full, "epoch=*.parquet")))
        cols = ["warc_ts", "seq", "text"]
        golds: list[dict] = [{}]  # url -> live row after each group
        for j in range(1, len(segs) + 1):
            prefix = str(tmp_path / f"prefix{j}")
            os.makedirs(prefix)
            for f in segs[:j]:
                shutil.copy(f, prefix)
            gold = replay_oracle(prefix).set_index("url")
            golds.append({u: list(gold.loc[u, cols]) for u in gold.index})
        urls = sorted(set().union(*golds))
        os.makedirs(ev)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, epochs_per_commit=1,
                           merge_mode=mode, gc_grace_seconds=3600 if mode == "cow" else 0)
        progress = {"started": 0, "done": 0}
        stop = threading.Event()
        seen: list = []
        errors: list = []
        scans = [0]

        def reader() -> None:
            try:
                for i in itertools.count():
                    if stop.is_set():
                        return
                    u = urls[i % len(urls)]
                    lo = progress["done"]
                    got = ing.lookup_urls(lake, [u]).to_pandas()
                    if i % 16 == 0:
                        ing.read_lake(lake).count()
                        scans[0] += 1
                    hi = progress["started"]
                    rows = [list(r) for r in got[cols].itertuples(index=False)] if len(got) else []
                    seen.append((u, lo, hi, rows))
            except Exception as e:  # reported by the assert below
                errors.append(e)

        th = threading.Thread(target=reader, daemon=True)
        th.start()
        try:
            for seg in segs:
                progress["started"] += 1
                shutil.copy(seg, ev)
                run_ingest(cfg, ev)
                progress["done"] += 1
        finally:
            stop.set()
            th.join(timeout=300)
        assert not th.is_alive()
        assert errors == []
        assert scans[0] >= 1 and any(lo < hi for _, lo, hi, _ in seen)
        for u, lo, hi, rows in seen:
            allowed = [[golds[j][u]] if u in golds[j] else [] for j in range(lo, hi + 1)]
            assert rows in allowed, (u, lo, hi, rows)
        assert_lookups_match_oracle(lake, full, urls)

    def test_manifest_rewritten_in_place_is_reread(self, tmp_path):
        """A manifest overwritten in place with bytes of the same length,
        inode and mtime is still re-read: the cache compares bytes."""
        import gene_etl_ray.pipelines.ingest as ing
        from gene_etl_ray.hashing import partition_keys
        from gene_etl_ray.state.manifest import manifest_path

        ev, lake = TestPointLookups._mor_lake(tmp_path)
        lake_df(lake)  # caches every manifest
        newest = current_files(lake, [0])[0][-1]
        t = pq.read_table(newest)
        live = t.filter(pc.invert(t.column(ing.DELETED_COLUMN)))
        u = live.column("url")[0].as_py()
        assert partition_keys([u], 2)[0] == 0
        before = ing.lookup_urls(lake, [u]).to_pandas()
        assert list(before["text"]) != ["rewritten"]

        # the same rows with u's text changed, at a path of the same length
        i = t.column("url").to_pylist().index(u)
        text = t.column("text").to_pylist()
        text[i] = "rewritten"
        d, base = os.path.split(newest)
        alt = os.path.join(d, "x" + base[1:])
        pq.write_table(t.set_column(t.schema.get_field_index("text"), "text",
                                    pa.array(text, t.schema.field("text").type)), alt)
        mpath = manifest_path(lake, 0)
        st = os.stat(mpath)
        with open(mpath, "rb") as f:
            raw = f.read()
        new = raw.replace(base.encode(), os.path.basename(alt).encode())
        assert new != raw and len(new) == len(raw)
        with open(mpath, "r+b") as f:
            f.write(new)
        os.utime(mpath, ns=(st.st_atime_ns, st.st_mtime_ns))
        after = os.stat(mpath)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            st.st_ino, st.st_size, st.st_mtime_ns)

        assert list(ing.lookup_urls(lake, [u]).to_pandas()["text"]) == ["rewritten"]
        assert lake_df(lake).set_index("url").loc[u, "text"] == "rewritten"

    def test_scan_opens_each_state_file_once(self, tmp_path, monkeypatch):
        """``read_lake`` lists and reads the manifests in one pass: each
        state file is opened once per call, and under a repartition
        overlay only the overlay is."""
        import gene_etl_ray.pipelines.ingest as ing
        import gene_etl_ray.state.manifest as mstate

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=120, n_events=500, n_epochs=2, seed=31)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4)
        run_ingest(cfg, ev)
        want = lake_df(lake)
        state = ["_manifests/REPART.json", "_meta/lake.json"] + [
            f"_manifests/part={k:05d}.json" for k in range(4)]
        monkeypatch.setattr(ing, "_LAKE_STATE", ing._LakeStateCache(ing._LAKE_STATE_BYTES))
        for cache in ("cold", "warm"):
            with monkeypatch.context() as mp:
                opened = count_state_opens(mp, lake)
                ds = read_lake(lake)
            assert sorted(opened) == sorted(state), cache
            pd.testing.assert_frame_equal(
                ds.to_pandas().sort_values("url").reset_index(drop=True), want)

        real = mstate.finalize_repartition
        monkeypatch.setattr(mstate, "finalize_repartition", lambda d: False)
        ing.repartition_lake(cfg, 2)
        monkeypatch.setattr(mstate, "finalize_repartition", real)
        with monkeypatch.context() as mp:
            opened = count_state_opens(mp, lake)
            ds = read_lake(lake)
        assert opened == ["_manifests/REPART.json"]
        pd.testing.assert_frame_equal(
            ds.to_pandas().sort_values("url").reset_index(drop=True), want)


class TestWriteAuditPublish:
    """WAP gate: staged output is audited distributed before anything
    becomes reader-visible; a failed audit aborts with the staged
    snapshot on disk and a clean lake; a passing audit publishes state
    identical to a plain ingest."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_audited_ingest_matches_oracle(self, tmp_path, mode):
        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=150, n_events=800, n_epochs=4, seed=3)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=2,
            merge_mode=mode, write_audit_publish=True,
        )
        rep = run_ingest(cfg, ev)
        audits = rep["audits"]
        assert len(audits) == 2 and all(a["passed"] for a in audits)
        assert all(a["rows"] > 0 for a in audits)
        assert_matches_oracle(lake, ev)
        # snapshot superseded after publish
        assert not os.path.exists(os.path.join(lake, "_manifests", "staged"))

    def test_failed_audit_leaves_clean_lake_and_staged_snapshot(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import AuditFailedError

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=120, n_events=600, n_epochs=2,
                        delete_frac=0.2, seed=7)
        cfg = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=2,
            write_audit_publish=True, audit_max_delete_frac=0.0,  # trip on any delete
        )
        with pytest.raises(AuditFailedError) as ei:
            run_ingest(cfg, ev)
        assert not ei.value.report["delete_frac_ok"]
        # nothing visible: no manifests, empty live view
        assert lake_df(lake).empty if os.path.exists(lake) else True
        from gene_etl_ray.state.manifest import current_files

        assert current_files(lake) == {}
        staged = os.path.join(lake, "_manifests", "staged")
        assert os.path.exists(os.path.join(staged, "AUDIT.json"))
        assert glob.glob(os.path.join(staged, "part=*.json"))

        # rerun without the tripwire: cleans staged state, publishes,
        # converges to the oracle
        cfg2 = EngineConfig(
            lake_dir=lake, num_partitions=4, epochs_per_commit=2,
            write_audit_publish=True,
        )
        rep = run_ingest(cfg2, ev)
        assert all(a["passed"] for a in rep["audits"])
        assert_matches_oracle(lake, ev)
        assert not os.path.exists(staged)


class TestRepartition:
    """Online partition scale-out (repartition_lake): shuffle-free
    factor-growth split, atomic overlay publish, watermark inheritance.
    The lake must converge to the replay oracle across the layout change,
    resume cleanly from the overlay crash window, and keep snapshots /
    change feeds correct on retained lakes."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_split_then_ingest_matches_oracle(self, tmp_path, mode):
        from gene_etl_ray.pipelines.ingest import (
            consistency_report,
            lookup_urls,
            repartition_lake,
        )
        from gene_etl_ray.state.checkpoint import read_lake_meta

        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=300, n_events=1500, n_epochs=6, seed=17)
        # stage the WAL: first 3 epochs, repartition, then the rest
        first = str(tmp_path / "first")
        os.makedirs(first)
        seg = sorted(glob.glob(os.path.join(ev, "epoch=*.parquet")))
        for f in seg[:3]:
            shutil.copy(f, first)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, merge_mode=mode,
                           epochs_per_commit=2)
        run_ingest(cfg, first)
        mid = lake_df(lake)

        rep = repartition_lake(cfg, 2)
        assert rep["from_partitions"] == 4 and rep["to_partitions"] == 8
        meta = read_lake_meta(lake)
        assert meta["num_partitions"] == 8
        assert meta["layouts"][-1]["P"] == 8
        # the split changed no logical rows
        pd.testing.assert_frame_equal(mid, lake_df(lake))
        # rows really moved: children beyond the old P hold data
        assert any(k >= 4 for k in current_files(lake))
        # overlay finalized: no REPART.json left
        assert not os.path.exists(os.path.join(lake, "_manifests", "REPART.json"))

        # continue the WAL under the new layout (resume must not re-apply:
        # children inherited their parents' checkpoints)
        cfg8 = EngineConfig(lake_dir=lake, num_partitions=8, merge_mode=mode,
                            epochs_per_commit=2)
        rep2 = run_ingest(cfg8, ev)
        assert rep2["events_in"] > 0
        assert_matches_oracle(lake, ev)
        checks = validate_lake(lake)
        assert checks["one_row_per_url"]
        cons = consistency_report(lake)
        assert all(cons.values()), cons
        # point lookups hash with the new P
        gold = replay_oracle(ev)
        probe = list(gold["url"].head(5))
        got = lookup_urls(lake, probe).to_pandas().sort_values("url")
        assert list(got["url"]) == sorted(probe)

    def test_overlay_crash_window_is_readable_and_finalized_by_next_writer(
        self, tmp_path, monkeypatch
    ):
        """Crash after the overlay commit, before finalize: readers see
        the NEW layout (overlay authoritative); the next locked writer
        finalizes and ingest continues to convergence."""
        import gene_etl_ray.state.manifest as mstate
        from gene_etl_ray.pipelines.ingest import repartition_lake
        from gene_etl_ray.state.checkpoint import read_lake_meta

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=200, n_events=900, n_epochs=4, seed=29)
        first = str(tmp_path / "first")
        os.makedirs(first)
        seg = sorted(glob.glob(os.path.join(ev, "epoch=*.parquet")))
        for f in seg[:2]:
            shutil.copy(f, first)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4)
        run_ingest(cfg, first)
        before = lake_df(lake)

        real = mstate.finalize_repartition
        monkeypatch.setattr(mstate, "finalize_repartition", lambda d: False)
        repartition_lake(cfg, 2)
        monkeypatch.setattr(mstate, "finalize_repartition", real)

        # overlay present: readers already on the new layout
        assert os.path.exists(os.path.join(lake, "_manifests", "REPART.json"))
        assert read_lake_meta(lake)["num_partitions"] == 8
        pd.testing.assert_frame_equal(before, lake_df(lake))

        # next writer finalizes and applies the rest of the WAL
        cfg8 = EngineConfig(lake_dir=lake, num_partitions=8)
        run_ingest(cfg8, ev)
        assert not os.path.exists(os.path.join(lake, "_manifests", "REPART.json"))
        assert_matches_oracle(lake, ev)

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_retained_snapshots_and_diff_across_boundary(self, tmp_path, mode):
        """Time travel to pre-split epochs still equals the WAL-prefix
        replay, and diff_snapshots across the layout change reports
        url-level changes only (relocation is not change)."""
        from gene_etl_ray.pipelines.ingest import diff_snapshots, repartition_lake

        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=220, n_events=1100, n_epochs=6, seed=31)
        seg = sorted(glob.glob(os.path.join(ev, "epoch=*.parquet")))
        first = str(tmp_path / "first")
        os.makedirs(first)
        for f in seg[:4]:
            shutil.copy(f, first)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, merge_mode=mode,
                           epochs_per_commit=2, retain_history=True)
        run_ingest(cfg, first)
        repartition_lake(cfg, 2)
        cfg8 = EngineConfig(lake_dir=lake, num_partitions=8, merge_mode=mode,
                            epochs_per_commit=2, retain_history=True)
        run_ingest(cfg8, ev)
        assert_matches_oracle(lake, ev)

        def prefix_oracle(n):
            pre = tmp_path / f"pre_{mode}_{n}"
            os.makedirs(str(pre), exist_ok=True)
            for f in seg[:n]:
                shutil.copy(f, str(pre))
            return replay_oracle(str(pre)).sort_values("url").reset_index(drop=True)

        for commit_epoch, n_seg in [(1, 2), (3, 4), (5, 6)]:
            got = (
                read_lake(lake, asof_epoch=commit_epoch)
                .to_pandas().sort_values("url").reset_index(drop=True)
            )
            gold = prefix_oracle(n_seg)
            cols = sorted(set(got.columns) & set(gold.columns))
            pd.testing.assert_frame_equal(
                got[cols], gold[cols].reset_index(drop=True), check_dtype=False
            )

        # change feed across the boundary: equals the url-level diff of
        # the two prefix replays (no relocation noise)
        a, b = prefix_oracle(2).set_index("url"), prefix_oracle(6).set_index("url")
        exp_added = set(b.index) - set(a.index)
        exp_deleted = set(a.index) - set(b.index)
        both_urls = set(a.index) & set(b.index)
        exp_updated = {u for u in both_urls if a.loc[u, "seq"] != b.loc[u, "seq"]}
        got = diff_snapshots(lake, 1, 5).to_pandas()
        assert set(got.loc[got["change"] == "added", "url"]) == exp_added
        assert set(got.loc[got["change"] == "deleted", "url"]) == exp_deleted
        assert set(got.loc[got["change"] == "updated", "url"]) == exp_updated

    def test_rejects_bad_factor_and_missing_lake(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import repartition_lake

        cfg = EngineConfig(lake_dir=str(tmp_path / "none"), num_partitions=4)
        with pytest.raises(ValueError, match="factor"):
            repartition_lake(cfg, 1)
        with pytest.raises(ValueError, match="no lake"):
            repartition_lake(cfg, 2)

    def test_view_refresh_correct_after_repartition(self, tmp_path):
        """Partition-shard caches are layout-bound: repartition drops
        them and the next refresh equals a full recompute."""
        from gene_etl_ray.pipelines.ingest import repartition_lake
        from gene_etl_ray.state.mview import read_view, refresh_view

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=150, n_events=700, n_epochs=2, seed=13)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4)
        run_ingest(cfg, ev)
        refresh_view(lake)
        before = read_view(lake).sort_values("domain").reset_index(drop=True)
        repartition_lake(cfg, 2)
        rep = refresh_view(lake)
        assert len(rep["refreshed"]) > 0  # shards were dropped, recomputed
        after = read_view(lake).sort_values("domain").reset_index(drop=True)
        pd.testing.assert_frame_equal(before, after)


class TestZoneMaps:
    """Manifest-level warc_ts zone maps: time-range reads prune files
    with zero file IO and stay exact on the WINNING version (the
    changed-since-T feed a downstream CDC consumer polls)."""

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_ts_range_read_matches_oracle_filter(self, tmp_path, mode):
        from gene_etl_ray.pipelines.ingest import _prune_files_by_ts
        from gene_etl_ray.state.manifest import read_manifest

        ev = str(tmp_path / "events")
        lake = str(tmp_path / f"lake_{mode}")
        generate_events(ev, n_urls=250, n_events=1400, n_epochs=6, seed=41)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, merge_mode=mode,
                           epochs_per_commit=2)
        run_ingest(cfg, ev)
        gold = replay_oracle(ev)
        t_lo = gold["warc_ts"].quantile(0.5)
        t_hi = gold["warc_ts"].quantile(0.9)

        # every manifested file carries a zone map
        manifests = [read_manifest(lake, k) for k in current_files(lake)]
        for m in manifests:
            assert set(m["file_stats"]) == {os.path.basename(f) for f in m["files"]}

        def got(**kw):
            df = read_lake(lake, **kw).to_pandas()
            if "url" not in df.columns:
                return df
            return df.sort_values("url").reset_index(drop=True)

        def want(mask):
            g = gold[mask].sort_values("url").reset_index(drop=True)
            return g

        for kw, mask in [
            ({"ts_min": t_lo}, gold["warc_ts"] >= t_lo),
            ({"ts_max": t_hi}, gold["warc_ts"] <= t_hi),
            ({"ts_min": t_lo, "ts_max": t_hi},
             (gold["warc_ts"] >= t_lo) & (gold["warc_ts"] <= t_hi)),
        ]:
            a, b = got(**kw), want(mask)
            assert len(a) == len(b) > 0, (kw, len(a), len(b))
            cols = sorted(set(a.columns) & set(b.columns))
            pd.testing.assert_frame_equal(
                a[cols], b[cols].reset_index(drop=True), check_dtype=False
            )

        # sanity: kept+pruned partitions the file set (no pruning expected
        # on THIS fixture — its warc_ts is revision-based, so every delta
        # file's range reaches back to the base ts)
        lo_us = int(pd.Timestamp(t_lo).value // 1000)
        kept, pruned = _prune_files_by_ts(manifests, lo_us, None, False)
        total = sum(len(m["files"]) for m in manifests)
        assert len(kept) + pruned == total

    def test_recency_query_prunes_time_advancing_wal(self, tmp_path):
        """The actual 10^10-scale payoff: on a WAL whose warc_ts advances
        with the stream (the normal CDC case), a changed-since-T read over
        a mor delta stack skips the older delta files entirely — and the
        rows still match a full-read filter."""
        from gene_etl_ray.pipelines.ingest import _prune_files_by_ts
        from gene_etl_ray.state.manifest import read_manifest

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=200, n_events=1000, n_epochs=5, seed=47,
                        out_of_order_frac=0.0, tie_frac=0.0)
        # remap warc_ts := base + seq (monotone with the stream) so epoch
        # files carry disjoint time ranges
        base = pd.Timestamp("2021-01-01").value // 1000
        for f in sorted(glob.glob(os.path.join(ev, "epoch=*.parquet"))):
            t = pq.read_table(f)
            seq = t.column("seq").to_numpy()
            ts = pa.array(base + seq * 1_000_000, pa.timestamp("us"))
            pq.write_table(
                t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts", ts), f
            )
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, merge_mode="mor",
                           epochs_per_commit=1)
        run_ingest(cfg, ev)
        # T at the last epoch's start: all earlier delta files must prune
        t_lo = pd.Timestamp(base * 1000 + 800 * 1_000_000_000)
        manifests = [read_manifest(lake, k) for k in current_files(lake)]
        kept, pruned = _prune_files_by_ts(
            manifests, int(t_lo.value // 1000), None, False
        )
        total = sum(len(m["files"]) for m in manifests)
        assert pruned > 0 and len(kept) < total
        # every kept file belongs to the final commit's delta layer
        assert all("epoch=00004" in f for f in kept)
        # and the pruned read is exact vs the full-read filter
        full = read_lake(lake).to_pandas()
        want = full[full["warc_ts"] >= t_lo].sort_values("url").reset_index(drop=True)
        got = read_lake(lake, ts_min=t_lo).to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)
        assert len(got) > 0

    def test_zone_maps_survive_compaction_and_repartition(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import compact_lake, repartition_lake
        from gene_etl_ray.state.manifest import read_manifest

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=180, n_events=900, n_epochs=4, seed=43)
        cfg = EngineConfig(lake_dir=lake, num_partitions=4, merge_mode="mor",
                           epochs_per_commit=2)
        run_ingest(cfg, ev)
        gold = replay_oracle(ev)
        t = gold["warc_ts"].quantile(0.6)
        want = gold[gold["warc_ts"] >= t].sort_values("url").reset_index(drop=True)

        def check():
            a = read_lake(lake, ts_min=t).to_pandas().sort_values("url").reset_index(drop=True)
            cols = sorted(set(a.columns) & set(want.columns))
            pd.testing.assert_frame_equal(
                a[cols], want[cols].reset_index(drop=True), check_dtype=False
            )
            for k in current_files(lake):
                m = read_manifest(lake, k)
                assert set(m["file_stats"]) == {
                    os.path.basename(f) for f in m["files"]
                }

        check()
        compact_lake(cfg)
        check()
        repartition_lake(cfg, 2)
        check()


class TestDeadLetter:
    """Dead-letter sink: admission-rule rejects are written to a
    replayable per-segment file with reasons instead of being silently
    dropped; the lake still converges to the oracle (which applies the
    same admission rule)."""

    def test_malformed_rows_routed_and_lake_converges(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import read_dead_letters

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=150, n_events=700, n_epochs=3, seed=53)
        # inject malformed rows into segment 1: null url, invalid op,
        # null warc_ts, null seq
        f = os.path.join(ev, "epoch=00001.parquet")
        t = pq.read_table(f)
        base = t.slice(0, 4).to_pydict()
        base["url"] = [None, base["url"][1], base["url"][2], base["url"][3]]
        base["op"] = [base["op"][0], "X", base["op"][2], base["op"][3]]
        base["warc_ts"] = [base["warc_ts"][0], base["warc_ts"][1], None, base["warc_ts"][3]]
        base["seq"] = [9001, 9002, 9003, None]
        bad = pa.table(base, schema=t.schema)
        pq.write_table(pa.concat_tables([t, bad]), f)

        cfg = EngineConfig(lake_dir=lake, num_partitions=4, dead_letter=True)
        rep = run_ingest(cfg, ev)
        assert rep["dead_letter_rows"] == 4
        assert rep["dead_letter"] == {"1": 4}
        assert_matches_oracle(lake, ev)

        dl = read_dead_letters(lake).to_pandas()
        assert len(dl) == 4
        assert sorted(dl["reason"]) == [
            "invalid_op", "null_url", "null_version", "null_version"
        ]
        # replayable: original columns survive alongside the reason
        assert {"url", "op", "warc_ts", "seq", "html"} <= set(dl.columns)

        # idempotent: a fresh lake over the same WAL writes the same sink
        lake2 = str(tmp_path / "lake2")
        rep2 = run_ingest(
            EngineConfig(lake_dir=lake2, num_partitions=4, dead_letter=True), ev
        )
        assert rep2["dead_letter_rows"] == 4
        dl2 = read_dead_letters(lake2).to_pandas()
        pd.testing.assert_frame_equal(
            dl.sort_values("reason").reset_index(drop=True),
            dl2.sort_values("reason").reset_index(drop=True),
        )

    def test_clean_wal_writes_no_sink(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import read_dead_letters

        ev = str(tmp_path / "events")
        lake = str(tmp_path / "lake")
        generate_events(ev, n_urls=80, n_events=300, n_epochs=2, seed=59)
        rep = run_ingest(
            EngineConfig(lake_dir=lake, num_partitions=4, dead_letter=True), ev
        )
        assert rep["dead_letter_rows"] == 0 and rep["dead_letter"] == {}
        assert len(read_dead_letters(lake).to_pandas()) == 0
        assert not glob.glob(os.path.join(lake, "_deadletter", "*.parquet"))


def test_repartition_residue_guard_aborts_before_flip(tmp_path):
    """A stored row whose url hashes outside its partition's family
    (layout/hash inconsistency) must abort the repartition BEFORE the
    overlay commit — nothing changes, the old layout stays readable."""
    from gene_etl_ray.hashing import partition_keys
    from gene_etl_ray.pipelines.ingest import repartition_lake

    ev = str(tmp_path / "events")
    lake = str(tmp_path / "lake")
    generate_events(ev, n_urls=120, n_events=500, n_epochs=2, seed=61)
    cfg = EngineConfig(lake_dir=lake, num_partitions=4)
    run_ingest(cfg, ev)
    before = lake_df(lake)

    # tamper: rewrite one manifested file, replacing its first url with
    # one that hashes to a DIFFERENT partition
    victim_pkey, files = next(iter(sorted(current_files(lake).items())))
    t = pq.read_table(files[0])
    foreign = next(
        u for i in range(10000)
        for u in [f"https://tamper.example.com/{i}"]
        if int(partition_keys([u], 4)[0]) != victim_pkey
    )
    urls = t.column("url").to_pylist()
    urls[0] = foreign
    t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(urls, pa.string()))
    pq.write_table(t, files[0])

    with pytest.raises(Exception, match="residue violation"):
        repartition_lake(cfg, 2)
    # nothing flipped: old layout intact and readable
    from gene_etl_ray.state.checkpoint import read_lake_meta

    assert read_lake_meta(lake)["num_partitions"] == 4
    assert not os.path.exists(os.path.join(lake, "_manifests", "REPART.json"))
    after = lake_df(lake)
    assert len(after) == len(before)


def test_clustered_compaction_prunes_within_partitions(tmp_events, tmp_lake):
    """Time-clustered compaction: winners sorted by warc_ts, sliced into
    bounded files with tight zone-map ranges. The manifest's compaction
    certificate lets even a MOR reader prune by BOTH bounds (each url
    lives in exactly one file), time-range reads stay exact, and the next
    MOR append revokes the certificate so upper pruning falls back off."""
    from gene_etl_ray.pipelines.ingest import (
        _prune_files_by_ts,
        compact_lake,
        read_lake,
    )
    from gene_etl_ray.state.manifest import read_manifest

    staged = tmp_events + "-staged"
    generate_events(
        staged, n_urls=400, n_events=2400, n_epochs=8,
        tie_frac=0.1, out_of_order_frac=0.2,
    )
    os.makedirs(tmp_events)
    seg_names = sorted(os.listdir(staged))
    for f in seg_names[:6]:
        shutil.copy(os.path.join(staged, f), os.path.join(tmp_events, f))
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=2,
        merge_mode="mor",
    )
    run_ingest(cfg, tmp_events)
    before = lake_df(tmp_lake)

    rep = compact_lake(cfg, cluster_rows=25)
    assert rep["compacted"] > 0
    # layout: multiple bounded files per partition, state unchanged
    by_part = current_files(tmp_lake)
    assert max(len(fs) for fs in by_part.values()) > 1
    pd.testing.assert_frame_equal(before, lake_df(tmp_lake))
    for k, fs in by_part.items():
        for f in fs:
            assert pq.read_metadata(f).num_rows <= 25

    manifests = [read_manifest(tmp_lake, k) for k in sorted(by_part)]
    for m in manifests:
        assert m["stats"].get("compaction") is True
        # within a partition the clustered ranges are non-overlapping
        spans = sorted(
            (s["ts_min_us"], s["ts_max_us"]) for s in m["file_stats"].values()
        )
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo

    # pick a mid-range window; BOTH bounds must prune under MOR thanks to
    # the compaction certificate (allow_upper=False globally)
    all_ts = sorted(
        t for m in manifests for s in m["file_stats"].values()
        for t in (s["ts_min_us"], s["ts_max_us"])
    )
    lo_us = all_ts[len(all_ts) // 3]
    hi_us = all_ts[2 * len(all_ts) // 3]
    kept, pruned = _prune_files_by_ts(manifests, lo_us, hi_us, allow_upper=False)
    n_files = sum(len(m["files"]) for m in manifests)
    assert pruned > 0 and len(kept) < n_files
    kept_lower_only, _ = _prune_files_by_ts(manifests, lo_us, None, allow_upper=False)
    assert len(kept) < len(kept_lower_only)  # the upper bound did real work

    # exactness: the pruned time-range read equals filter-after-full-read
    got = (
        read_lake(
            tmp_lake,
            ts_min=pd.Timestamp(lo_us, unit="us"),
            ts_max=pd.Timestamp(hi_us, unit="us"),
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    full = lake_df(tmp_lake)
    ts_us = full["warc_ts"].astype("datetime64[ns]").astype("int64") // 1000
    want = (
        full[(ts_us >= lo_us) & (ts_us <= hi_us)]
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )

    # a later MOR append revokes the certificate: stats.compaction gone,
    # upper-bound pruning disabled again for the appended partitions
    for f in seg_names[6:]:
        shutil.copy(os.path.join(staged, f), os.path.join(tmp_events, f))
    run_ingest(cfg, tmp_events)
    manifests2 = [read_manifest(tmp_lake, k) for k in sorted(current_files(tmp_lake))]
    touched = [m for m in manifests2 if not (m.get("stats") or {}).get("compaction")]
    assert touched, "append should have replaced stats on touched partitions"
    assert_matches_oracle(tmp_lake, tmp_events)


class TestGcGraceVacuum:
    """gc_grace_seconds + vacuum_lake: superseded files outlive their
    manifests for in-flight readers; an explicit vacuum removes exactly
    the unreferenced-and-aged set (the Iceberg/Delta expire+vacuum
    contract)."""

    def _ingest_two_waves(self, tmp_path, **cfg_kw):
        from gene_etl_ray.pipelines.ingest import run_ingest

        staged = str(tmp_path / "staged")
        ev = str(tmp_path / "ev")
        generate_events(staged, n_urls=150, n_events=800, n_epochs=4, seed=9)
        os.makedirs(ev)
        names = sorted(os.listdir(staged))
        cfg = EngineConfig(
            lake_dir=str(tmp_path / "lake"), num_partitions=2,
            epochs_per_commit=2, **cfg_kw,
        )
        for f in names[:2]:
            shutil.copy(os.path.join(staged, f), os.path.join(ev, f))
        run_ingest(cfg, ev)
        for f in names[2:]:
            shutil.copy(os.path.join(staged, f), os.path.join(ev, f))
        run_ingest(cfg, ev)
        return cfg, ev

    def test_superseded_files_survive_then_vacuum(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import (
            consistency_report,
            vacuum_lake,
        )
        from gene_etl_ray.state.manifest import current_files

        cfg, ev = self._ingest_two_waves(tmp_path, gc_grace_seconds=3600)
        lake = cfg.lake_dir
        referenced = {f for fs in current_files(lake).values() for f in fs}
        on_disk = set(glob.glob(os.path.join(lake, "part=*", "*.parquet")))
        orphans = {
            f for f in on_disk - referenced
            if not os.path.basename(f).startswith(".tmp-")
        }
        assert orphans, "cow second commit should have superseded files"
        # consistency stays green — orphans are the deferred-GC contract
        rep = consistency_report(lake)
        assert rep["no_orphan_files"] is True
        assert rep["deferred_gc_files"] == len(orphans)
        # young orphans: vacuum is a no-op
        v0 = vacuum_lake(cfg)
        assert v0["deleted"] == 0 and v0["deferred"] == len(orphans)
        assert all(os.path.exists(f) for f in orphans)
        # age them past the grace: vacuum removes exactly the orphan set
        for f in orphans:
            os.utime(f, (1, 1))
        v1 = vacuum_lake(cfg)
        assert v1["deleted"] == len(orphans) and v1["deferred"] == 0
        assert not any(os.path.exists(f) for f in orphans)
        assert all(os.path.exists(f) for f in referenced)
        assert consistency_report(lake)["no_orphan_files"] is True
        assert "deferred_gc_files" not in consistency_report(lake)
        # the live view never flinched
        assert_matches_oracle(lake, ev)

    def test_vacuum_never_touches_archived_snapshots(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import read_lake, vacuum_lake

        cfg, ev = self._ingest_two_waves(
            tmp_path, gc_grace_seconds=3600, retain_history=True
        )
        lake = cfg.lake_dir
        snap1 = read_lake(lake, asof_epoch=1).to_pandas()
        for f in glob.glob(os.path.join(lake, "part=*", "*.parquet")):
            os.utime(f, (1, 1))  # everything "old"
        vacuum_lake(cfg)
        # archived-manifest-referenced files survived: the old snapshot
        # is still byte-identically reconstructable
        snap1_after = read_lake(lake, asof_epoch=1).to_pandas()
        cols = sorted(snap1.columns)
        pd.testing.assert_frame_equal(
            snap1[cols].sort_values(cols).reset_index(drop=True),
            snap1_after[cols].sort_values(cols).reset_index(drop=True),
        )

    def test_mor_compact_with_grace_defers_delta_files(self, tmp_path):
        from gene_etl_ray.pipelines.ingest import compact_lake, vacuum_lake
        from gene_etl_ray.state.manifest import current_files

        cfg, ev = self._ingest_two_waves(
            tmp_path, gc_grace_seconds=3600, merge_mode="mor"
        )
        lake = cfg.lake_dir
        pre_files = {f for fs in current_files(lake).values() for f in fs}
        assert compact_lake(cfg)["compacted"] > 0
        # the folded delta files are deferred, not deleted
        survivors = [f for f in pre_files if os.path.exists(f)]
        assert survivors
        for f in survivors:
            os.utime(f, (1, 1))
        v = vacuum_lake(cfg)
        assert v["deleted"] >= len(survivors)
        assert_matches_oracle(lake, ev)


def test_reader_survives_concurrent_compaction_with_grace(tmp_path):
    """The point of the grace period, end-to-end: a reader that has
    already listed (and partially consumed) the pre-compaction file set
    finishes its scan AFTER a compaction supersedes those files, because
    deferred GC leaves them on disk; the stream's total content equals
    the oracle."""
    from gene_etl_ray.pipelines.ingest import (
        compact_lake,
        read_lake,
        run_ingest,
    )

    ev = str(tmp_path / "ev")
    lake = str(tmp_path / "lake")
    generate_events(ev, n_urls=200, n_events=900, n_epochs=4, seed=21)
    cfg = EngineConfig(
        lake_dir=lake, num_partitions=2, epochs_per_commit=2,
        merge_mode="mor", gc_grace_seconds=3600,
    )
    run_ingest(cfg, ev)

    ds = read_lake(lake)  # lists the PRE-compaction manifests lazily
    it = iter(ds.iter_batches(batch_size=32, batch_format="pandas"))
    got = [next(it)]  # reader is mid-stream when the writer compacts
    assert compact_lake(cfg)["compacted"] > 0
    got.extend(it)  # the superseded delta files must still be readable
    streamed = pd.concat(got, ignore_index=True).sort_values("url")
    want = (
        replay_oracle(ev)
        .sort_values("url")
        .reset_index(drop=True)
    )
    cols = sorted(set(streamed.columns) & set(want.columns))
    pd.testing.assert_frame_equal(
        streamed[cols].reset_index(drop=True), want[cols], check_dtype=False
    )


class TestTransformLake:
    """transform_lake: the distributed in-place column backfill
    (UPDATE lake SET col = f(...)) — exactly-once, validated, refused
    under retention."""

    # NOTE: transform fns are built as LOCAL closures inside each test —
    # cloudpickle ships those by value; a method/module-level fn would be
    # pickled by reference to the (unimportable-on-workers) test module.
    @staticmethod
    def _make_upper_lang():
        def upper_lang(t):
            import pyarrow.compute as pc

            i = t.schema.get_field_index("lang")
            return t.set_column(i, "lang", pc.utf8_upper(t.column("lang")))

        return upper_lang

    def _build(self, tmp_events, tmp_lake, mode):
        generate_events(
            tmp_events, n_urls=250, n_events=1200, n_epochs=4,
            tie_frac=0.1, out_of_order_frac=0.2,
        )
        cfg = EngineConfig(
            lake_dir=tmp_lake, num_partitions=8, epochs_per_commit=2,
            merge_mode=mode,
        )
        run_ingest(cfg, tmp_events)
        return cfg

    @pytest.mark.parametrize("mode", ["cow", "mor"])
    def test_backfill_matches_transformed_oracle(
        self, tmp_events, tmp_lake, mode
    ):
        from gene_etl_ray.pipelines.ingest import (
            consistency_report,
            transform_lake,
        )

        cfg = self._build(tmp_events, tmp_lake, mode)
        before = lake_df(tmp_lake)
        rep = transform_lake(cfg, self._make_upper_lang())
        assert rep["compacted"] > 0
        after = lake_df(tmp_lake)
        want = before.copy()
        want["lang"] = want["lang"].str.upper()
        pd.testing.assert_frame_equal(after, want, check_dtype=False)
        # text bytes untouched; keys untouched; invariants hold
        assert list(after["text"].fillna("")) == list(
            before["text"].fillna("")
        )
        assert validate_lake(tmp_lake)["one_row_per_url"]
        rep2 = consistency_report(tmp_lake)
        assert all(rep2.values()), rep2
        # idempotent fn: a second run converges to the same state
        transform_lake(cfg, self._make_upper_lang())
        pd.testing.assert_frame_equal(lake_df(tmp_lake), want,
                                      check_dtype=False)
        assert all(consistency_report(tmp_lake).values())

    def test_update_contract_violations_raise(self, tmp_events, tmp_lake):
        from gene_etl_ray.pipelines.ingest import transform_lake

        cfg = self._build(tmp_events, tmp_lake, "cow")
        before = lake_df(tmp_lake)
        with pytest.raises(Exception, match="row count"):
            transform_lake(cfg, lambda t: t.slice(0, max(0, t.num_rows - 1)))
        with pytest.raises(Exception, match="key column"):
            import pyarrow.compute as pc

            def rekey(t):
                i = t.schema.get_field_index("url")
                return t.set_column(
                    i, "url", pc.binary_join_element_wise(
                        t.column("url"), "x", "")
                )

            transform_lake(cfg, rekey)
        # a failed transform leaves the lake exactly as it was
        pd.testing.assert_frame_equal(before, lake_df(tmp_lake))
        assert validate_lake(tmp_lake)["one_row_per_url"]

    def test_refused_under_retention(self, tmp_events, tmp_lake):
        from gene_etl_ray.pipelines.ingest import transform_lake

        generate_events(tmp_events, n_urls=50, n_events=200, n_epochs=2)
        cfg = EngineConfig(
            lake_dir=tmp_lake, num_partitions=4, retain_history=True
        )
        run_ingest(cfg, tmp_events)
        with pytest.raises(ValueError, match="retain_history"):
            transform_lake(cfg, self._make_upper_lang())


    def test_additive_backfill_derives_new_column(
        self, tmp_events, tmp_lake
    ):
        """add_fields: derive a brand-new column over every stored row;
        the schema evolves meta-first and later ingests keep working."""
        from gene_etl_ray.pipelines.ingest import (
            consistency_report,
            transform_lake,
        )

        cfg = self._build(tmp_events, tmp_lake, "cow")
        before = lake_df(tmp_lake)

        def fill_len(t):
            import pyarrow as _pa
            import pyarrow.compute as pc

            i = t.schema.get_field_index("text_len")
            v = pc.utf8_length(pc.fill_null(t.column("text"), ""))
            return t.set_column(
                i, "text_len", pc.cast(v, _pa.int64())
            )

        rep = transform_lake(
            cfg, fill_len, add_fields=[pa.field("text_len", pa.int64())]
        )
        assert rep["compacted"] > 0
        after = lake_df(tmp_lake)
        assert "text_len" in after.columns
        want = before["text"].fillna("").str.len().to_numpy()
        assert (after["text_len"].to_numpy() == want).all()
        assert all(consistency_report(tmp_lake).values())
        # same-name-same-type re-run is a RESUME and converges; a type
        # clash is a genuine collision and is refused
        transform_lake(
            cfg, fill_len, add_fields=[pa.field("text_len", pa.int64())]
        )
        assert (lake_df(tmp_lake)["text_len"].to_numpy() == want).all()
        with pytest.raises(ValueError, match="already exists"):
            transform_lake(
                cfg, fill_len,
                add_fields=[pa.field("text_len", pa.float64())],
            )
        # ingest after the evolution keeps its exactly-once semantics: a
        # WAL dir REUSING already-committed epoch numbers is a replay
        # and must apply ZERO events (multi-source continuation goes
        # through the mux from the start — covered by cdc_mux_ingest)
        from gene_etl_ray.fixtures import generate_events as gen2

        more = os.path.join(os.path.dirname(tmp_events), "more_events")
        gen2(more, n_urls=60, n_events=300, n_epochs=2, seed=99)
        rep2 = run_ingest(cfg, more)
        assert rep2["events_applied"] == 0
        assert validate_lake(tmp_lake)["one_row_per_url"]
        assert all(consistency_report(tmp_lake).values())


    def test_crash_mid_transform_rerun_converges(
        self, tmp_events, tmp_lake, monkeypatch
    ):
        """A crash after only some partitions committed leaves a readable
        mixed-state lake (per-partition atomicity — the lakehouse UPDATE
        contract) and a re-run converges to the fully-backfilled state."""
        import gene_etl_ray.pipelines.ingest as ing
        from gene_etl_ray.pipelines.ingest import (
            consistency_report,
            transform_lake,
        )

        cfg = self._build(tmp_events, tmp_lake, "cow")
        before = lake_df(tmp_lake)

        real = ing.commit_partition
        calls = {"n": 0}

        def crashing(*a, **kw):
            calls["n"] += 1
            if calls["n"] > 2:
                raise CrashInjected("injected mid-transform crash")
            return real(*a, **kw)

        monkeypatch.setattr(ing, "commit_partition", crashing)
        with pytest.raises(CrashInjected):
            transform_lake(cfg, self._make_upper_lang())
        monkeypatch.undo()

        # torn but readable: every row present, keys intact, lang is a
        # per-partition mix of old and new
        mid = lake_df(tmp_lake)
        assert list(mid["url"]) == list(before["url"])
        assert (
            mid["lang"].fillna("").str.upper()
            == before["lang"].fillna("").str.upper()
        ).all()
        assert validate_lake(tmp_lake)["one_row_per_url"]

        rep = transform_lake(cfg, self._make_upper_lang())
        assert rep["compacted"] > 0
        after = lake_df(tmp_lake)
        want = before.copy()
        want["lang"] = want["lang"].str.upper()
        pd.testing.assert_frame_equal(after, want, check_dtype=False)
        assert all(consistency_report(tmp_lake).values())


    def test_reextract_on_keep_html_lake_is_identity(
        self, tmp_events, tmp_lake
    ):
        """The frozen extractor is deterministic, so re-extraction over a
        keep_html lake is a byte-identity rewrite — the invariant that
        makes the canonical post-upgrade backfill safe to re-run."""
        from gene_etl_ray.pipelines.ingest import (
            _named_transform,
            transform_lake,
        )

        generate_events(tmp_events, n_urls=150, n_events=700, n_epochs=3)
        cfg = EngineConfig(
            lake_dir=tmp_lake, num_partitions=4, keep_html=True
        )
        run_ingest(cfg, tmp_events)
        before = lake_df(tmp_lake)
        fn, fields = _named_transform("reextract")
        rep = transform_lake(cfg, fn, add_fields=fields)
        assert rep["compacted"] > 0
        after = lake_df(tmp_lake)
        pd.testing.assert_frame_equal(before, after)


def test_maybe_compact_policy_gate(tmp_events, tmp_lake):
    """maybe_compact declines (metadata-only) below the depth threshold
    and folds the stacks above it — the steady-state MOR loop."""
    from gene_etl_ray.pipelines.ingest import maybe_compact

    generate_events(tmp_events, n_urls=200, n_events=900, n_epochs=6)
    cfg = EngineConfig(
        lake_dir=tmp_lake, num_partitions=4, epochs_per_commit=2,
        merge_mode="mor",
    )
    run_ingest(cfg, tmp_events)  # 3 commit groups -> depth up to 3
    depth = max(len(fs) for fs in current_files(tmp_lake).values())
    assert depth > 1
    rep = maybe_compact(cfg, max_delta_files=depth)  # at threshold: no-op
    assert rep == {"triggered": False, "max_depth": depth, "compacted": 0}
    assert max(len(fs) for fs in current_files(tmp_lake).values()) == depth
    before = lake_df(tmp_lake)
    rep = maybe_compact(cfg, max_delta_files=depth - 1)
    assert rep["triggered"] and rep["compacted"] > 0
    assert max(len(fs) for fs in current_files(tmp_lake).values()) == 1
    pd.testing.assert_frame_equal(before, lake_df(tmp_lake))


def test_retention_expiry_through_the_wal(tmp_path):
    """Row-level TTL expiry as ordinary change data: build_expiry_wal
    emits deletion events for rows older than the cutoff; muxed into the
    consumer WAL and ingested, every guarantee (exactly-once, LWW,
    replay-oracle equivalence) is inherited — no new mutation machinery."""
    from gene_etl_ray.pipelines.ingest import build_expiry_wal
    from gene_etl_ray.pipelines.mux import merge_wals

    src = str(tmp_path / "src")
    consumer = str(tmp_path / "consumer")
    expiry = str(tmp_path / "expiry")
    lake = str(tmp_path / "lake")
    generate_events(src, n_urls=250, n_events=1200, n_epochs=4,
                    out_of_order_frac=0.2)
    merge_wals([src], consumer)
    cfg = EngineConfig(lake_dir=lake, num_partitions=8,
                       epochs_per_commit=2)
    run_ingest(cfg, consumer)

    live = lake_df(lake)
    cutoff = int(
        live["warc_ts"].astype("datetime64[us]").astype("int64").median()
    )
    rep = build_expiry_wal(cfg, expiry, cutoff)
    assert rep["expired"] > 0 and rep["segments"] >= 1

    merge_wals([src, expiry], consumer)  # src index stays 0 — stable
    rep2 = run_ingest(cfg, consumer)
    assert rep2["events_applied"] == rep["expired"]

    after = lake_df(lake)
    ts = after["warc_ts"].astype("datetime64[us]").astype("int64")
    assert (ts >= cutoff).all()  # nothing older than the cutoff survives
    # survivors are exactly the young rows, byte-identical
    young = live[
        live["warc_ts"].astype("datetime64[us]").astype("int64") >= cutoff
    ].reset_index(drop=True)
    pd.testing.assert_frame_equal(after.reset_index(drop=True), young)
    # and the lake still equals the full WAL replay (expiry included)
    assert_matches_oracle(lake, consumer)
    # idempotent: re-running the same expiry applies nothing new
    rep3 = build_expiry_wal(cfg, str(tmp_path / "expiry2"), cutoff)
    assert rep3["expired"] == 0


    def test_null_key_transform_refused(self, tmp_events, tmp_lake):
        """Regression (review finding): pc.all skips nulls, so a fn that
        NULLS key values used to slip past the equality check and commit
        a corrupted lake — null-safe comparison must refuse it."""
        from gene_etl_ray.pipelines.ingest import transform_lake

        cfg = self._build(tmp_events, tmp_lake, "cow")
        before = lake_df(tmp_lake)

        def null_one_ts(t):
            import pyarrow as _pa

            col = t.column("warc_ts").to_pylist()
            col[0] = None
            i = t.schema.get_field_index("warc_ts")
            return t.set_column(
                i, "warc_ts", _pa.array(col, t.schema.field(i).type)
            )

        with pytest.raises(ValueError, match="key column"):
            transform_lake(cfg, null_one_ts)
        pd.testing.assert_frame_equal(before, lake_df(tmp_lake))


def test_expiry_wal_is_append_only(tmp_path):
    """Regression (review finding): a second expiry into the same WAL dir
    must APPEND new segments, never renumber/overwrite ones a mux may
    already reference."""
    import glob as _glob

    from gene_etl_ray.pipelines.ingest import build_expiry_wal

    src = str(tmp_path / "src")
    lake = str(tmp_path / "lake")
    out = str(tmp_path / "expiry")
    generate_events(src, n_urls=150, n_events=600, n_epochs=3)
    cfg = EngineConfig(lake_dir=lake, num_partitions=4)
    run_ingest(cfg, src)
    live = lake_df(lake)
    ts = live["warc_ts"].astype("datetime64[us]").astype("int64")
    c1, c2 = int(ts.quantile(0.3)), int(ts.quantile(0.7))
    r1 = build_expiry_wal(cfg, out, c1)
    first = {
        f: open(f, "rb").read()
        for f in _glob.glob(out + "/epoch=*.parquet")
    }
    assert r1["segments"] == len(first) > 0
    r2 = build_expiry_wal(cfg, out, c2)  # lake NOT yet expired: overlaps
    assert r2["expired"] > 0
    # every first-run segment byte-identical; new ones numbered after
    for f, blob in first.items():
        assert open(f, "rb").read() == blob
    all_eps = sorted(
        int(os.path.basename(f)[6:-8])
        for f in _glob.glob(out + "/epoch=*.parquet")
    )
    assert all_eps == list(range(len(all_eps)))
    assert len(all_eps) == r1["segments"] + r2["segments"]
