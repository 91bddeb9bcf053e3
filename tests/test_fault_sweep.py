"""Systematic fault-injection sweep over the commit protocol.

The exactly-once claim (north_rule) is anchored at the driver-side
durable-commit sequence: every ``os.replace`` landing inside the lake
(data-file finalization, Bloom sidecars, every ``atomic_write_json`` —
manifests, history archives, checkpoints, lake meta, epoch records,
metrics) plus every lineage append. The sweep is a CRASH STAIRCASE:
starting from an empty lake, resume attempt r is killed immediately
before its own r-th durable operation, until an attempt finishes
uninjected. That visits a chain of ~T distinct torn on-disk states —
including crashes *during recovery of a previous crash*, which
fresh-lake-per-crash-point enumeration never exercises — and the final
resume must still converge byte-identically to the single-process
replay oracle. After every crash the committed view must stay readable:
manifests may only ever name files that exist.

Worker-side writes need no sweep: a merge task's temp parquet is
invisible until the driver's manifest publish names it, and a retried
task overwrites its own deterministically-named temp file.
"""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from gene_etl_ray.config import EngineConfig
from gene_etl_ray.fixtures import generate_events
from gene_etl_ray.oracle import replay_oracle
from gene_etl_ray.pipelines.ingest import (
    consistency_report,
    read_lake,
    run_ingest,
    validate_lake,
)
from gene_etl_ray.state.manifest import current_files


class InjectedCrash(BaseException):
    """BaseException on purpose: a broad ``except Exception`` anywhere in
    the engine must not be able to swallow the simulated power loss."""


class _Injector:
    """Counts driver-side durable ops targeting ``lake_dir`` and raises
    InjectedCrash immediately BEFORE op number ``crash_at`` becomes
    durable (1-based; 0 disables)."""

    def __init__(self, lake_dir: str, crash_at: int):
        self.prefix = os.path.abspath(lake_dir) + os.sep
        self.crash_at = crash_at
        self.count = 0

    def maybe(self, dst: str) -> None:
        if os.path.abspath(str(dst)).startswith(self.prefix):
            self.count += 1
            if self.count == self.crash_at:
                raise InjectedCrash(f"injected crash before durable op {self.count}: {dst}")


def _patched(inj: _Injector):
    """(enter, exit) thunks installing the fault seams: os.replace (covers
    atomic_write_json + data/sidecar finalization — the driver process
    only; Ray workers are separate processes) and lineage appends (append
    + fsync, no rename)."""
    import gene_etl_ray.pipelines.ingest as ing
    import gene_etl_ray.state.lineage as lin

    real_replace = os.replace
    real_lineage = lin.append_lineage

    def patched_replace(src, dst, *a, **kw):
        inj.maybe(dst)
        return real_replace(src, dst, *a, **kw)

    def patched_lineage(lake_dir, record):
        inj.maybe(os.path.join(lake_dir, "_lineage", "record"))
        return real_lineage(lake_dir, record)

    def enter():
        os.replace = patched_replace
        lin.append_lineage = patched_lineage
        ing.append_lineage = patched_lineage  # ingest binds the name at import

    def exit_():
        os.replace = real_replace
        lin.append_lineage = real_lineage
        ing.append_lineage = real_lineage

    return enter, exit_


def _assert_committed_view_sane(lake_dir: str) -> None:
    """Cheap per-crash invariant, no Ray job: every file a manifest names
    exists and parses — a reader between crash and recovery never sees a
    torn reference."""
    for fs in current_files(lake_dir).values():
        for f in fs:
            assert os.path.exists(f), f"manifest names missing file {f}"
            pq.read_metadata(f)


def _assert_converged(lake_dir: str, gold: pd.DataFrame) -> None:
    live = read_lake(lake_dir).to_pandas().sort_values("url").reset_index(drop=True)
    cols = sorted(set(live.columns) & set(gold.columns))
    assert "text" in cols and "url" in cols and "warc_ts" in cols
    pd.testing.assert_frame_equal(
        live[cols], gold[cols].reset_index(drop=True), check_dtype=False
    )


def _staircase(lake: str, cfg: EngineConfig, ev: str, start: int) -> int:
    """One phased staircase on a fresh lake: attempt r is killed before
    its (start + r - 1)-th durable op. Phase ``start`` = s makes the very
    first torn state identical to a fresh run crashed at op s (fresh-run
    crash-point enumeration), and every later attempt crashes one op
    deeper WHILE RECOVERING the previous crash. Returns the number of
    torn states exercised."""
    crashes = 0
    r = start
    while True:
        inj = _Injector(lake, r)
        enter, exit_ = _patched(inj)
        enter()
        try:
            run_ingest(cfg, ev)
            crashed = False
        except InjectedCrash:
            crashed = True
        finally:
            exit_()
        if not crashed:
            return crashes
        crashes += 1
        _assert_committed_view_sane(lake)
        r += 1
        assert r < 200, "staircase failed to terminate"


def _sweep(tmp_path, cfg_kwargs: dict, starts: tuple, min_crashes: int) -> None:
    ev = str(tmp_path / "events")
    generate_events(ev, n_urls=80, n_events=300, n_epochs=4, seed=7)
    gold = replay_oracle(ev)

    total = 0
    for s in starts:
        lake = str(tmp_path / f"lake_{s}")
        cfg = EngineConfig(lake_dir=lake, num_partitions=2, **cfg_kwargs)
        total += _staircase(lake, cfg, ev, s)
        _assert_converged(lake, gold)

    assert total >= min_crashes, (
        f"sweep expected to exercise >= {min_crashes} distinct torn "
        f"states, got {total}"
    )
    # full invariants + idempotent fixed point on the last recovered lake
    checks = validate_lake(lake)
    assert checks["one_row_per_url"]
    cons = consistency_report(lake)
    assert all(cons.values()), cons
    rep = run_ingest(cfg, ev)
    assert rep["events_applied"] == 0 and rep["commits"] == []


def test_fault_sweep_cow_retained(tmp_path):
    """Copy-on-write with snapshot retention (2 commit groups: data
    renames, sidecar renames, history archives of old AND new manifests,
    checkpoints, meta, epoch records, lineage, metrics): three phased
    staircases — first torn states at clean-run ops 1, 6, 12 and 18, then
    each resume crashed one op deeper until convergence."""
    _sweep(
        tmp_path,
        dict(epochs_per_commit=2, retain_history=True),
        starts=(1, 6, 12, 18),
        min_crashes=14,
    )


def test_fault_sweep_mor(tmp_path):
    """Merge-on-read sweep: delta-append manifests — read-side LWW must
    stay exact across every torn commit state, including crashes while
    recovering a previous crash."""
    _sweep(
        tmp_path,
        dict(epochs_per_commit=2, merge_mode="mor"),
        starts=(1, 7),
        min_crashes=8,
    )


def test_fault_sweep_cow(tmp_path):
    """Copy-on-write without snapshot retention: superseded files are
    GC'd at commit, so every torn state between a manifest publish and
    the GC must still converge."""
    _sweep(
        tmp_path,
        dict(epochs_per_commit=2),
        starts=(1, 7),
        min_crashes=8,
    )
