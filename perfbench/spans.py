"""Span tracing from the benchmark's side of each layer boundary.

``Tracer.install`` wraps public functions of the engine's modules (and
the blocking ``ray.data.Dataset`` executions, ``os.fsync`` and
``pq.read_table``) with span recorders; nothing in ``gene_etl_ray`` is
edited. Spans stay in memory, each with the span that caused it, and are
written out once at the end. ``ledger`` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time

import pyarrow.parquet as pq
import ray.data

import gene_etl_ray.pipelines.ingest as ingest
import gene_etl_ray.queries as queries
import gene_etl_ray.state.lock as lock

DATASET_EXECUTIONS = ("take_all", "count", "to_pandas", "materialize")
EXEC_PREFIX = "ray.data.Dataset."

# (owner, attribute, span name); the state.* entries are the names
# bound in gene_etl_ray.pipelines.ingest, so the wrapper sits exactly
# where the ingest driver calls them. run_ingest imports the lock
# functions at call time, so those are wrapped on their module.
TARGETS = [
    (ingest, "run_ingest", "ingest.run_ingest"),
    (ingest, "lookup_urls", "ingest.lookup_urls"),
    (ingest, "read_lake", "ingest.read_lake"),
    (ingest, "discover_epochs", "ingest.discover_epochs"),
    # the counts / pre-validation pass, kept apart from winner selection
    (ingest, "_partition_counts", "ingest.partition_counts"),
    (ingest, "commit_partition", "state.manifest.commit_partition"),
    (ingest, "current_files", "state.manifest.current_files"),
    (ingest, "write_checkpoint", "state.checkpoint.write_checkpoint"),
    (ingest, "write_global_epoch", "state.checkpoint.write_global_epoch"),
    (ingest, "effective_watermarks", "state.checkpoint.effective_watermarks"),
    (ingest, "append_lineage", "state.lineage.append_lineage"),
    (lock, "acquire", "state.lock.acquire"),
    (lock, "heartbeat", "state.lock.heartbeat"),
    (lock, "release", "state.lock.release"),
    (os, "fsync", "os.fsync"),
    (pq, "read_table", "pq.read_table"),
] + [(ray.data.Dataset, m, EXEC_PREFIX + m) for m in DATASET_EXECUTIONS]


class Tracer:
    """In-memory span recorder. A span is ``[name, t0, t1, parent]``
    with ``parent`` the index of the enclosing span on the same thread;
    spans opened on a helper thread (the engine's commit pool) hang under
    the innermost span open on the main thread, which is the call that
    is waiting for them. Such siblings overlap in time, so the ledger
    works with unions of intervals, never with sums of durations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def install(self, query_names: list[str]) -> None:
        """Put a span recorder around every target; ``uninstall`` puts
        the original callables back."""
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name))
        for q in query_names:
            orig = queries.QUERIES[q]
            self._patches.append((queries.QUERIES, q, orig))
            queries.QUERIES[q] = self.wrap(orig, f"queries.{q}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump([{"name": n, "t0": a, "t1": b, "parent": p}
                       for n, a, b, p in self.spans], f)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def ledger(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Per ``run_ingest`` call (each call of the workloads is one commit
    group): its Dataset executions split into the counts pass (those
    under ``_partition_counts``), the merge pipeline (the last execution
    before the first ``commit_partition``) and winner selection (every
    other execution before the merge pipeline); the driver's
    self time is the call minus the union of its direct children; the
    unattributed time is the call minus the union of every span below
    it. Figures are medians over calls, or over spans for per-call
    timings."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, p) in enumerate(spans):
        if p is not None:
            children.setdefault(p, []).append(i)

    def below(i: int) -> list[int]:
        out, todo = [], list(children.get(i, []))
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children.get(j, []))
        return sorted(out)

    def is_exec(i: int) -> bool:
        return spans[i][0].startswith(EXEC_PREFIX)

    def top_exec(i: int) -> bool:
        """An execution not nested in another one (``to_pandas`` may
        run ``count`` inside itself)."""
        if not is_exec(i):
            return False
        p = spans[i][3]
        while p is not None:
            if is_exec(p):
                return False
            p = spans[p][3]
        return True

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    per: dict[str, list[float]] = {k: [] for k in (
        "counts", "winner", "pipeline", "execs", "self", "unattr", "wall", "commit", "fsyncs")}
    for r, (name, t0, t1, _) in enumerate(spans):
        if name != "ingest.run_ingest" or t1 is None:
            continue
        sub = below(r)
        groups = max(1, sum(spans[j][0] == "state.checkpoint.write_global_epoch" for j in sub))
        execs = [j for j in sub if top_exec(j)]
        commits = [j for j in sub if spans[j][0] == "state.manifest.commit_partition"]
        first_commit = min((spans[j][1] for j in commits), default=t1)
        before = [j for j in execs if spans[j][1] < first_commit]
        counting = {k for j in sub if spans[j][0] == "ingest.partition_counts"
                    for k in below(j)}
        winners = [j for j in before[:-1] if j not in counting]
        per["counts"].append(sum(dur(j) for j in sub if spans[j][0] == "ingest.partition_counts")
                             / groups)
        per["winner"].append(sum(dur(j) for j in winners) / groups)
        per["pipeline"].append(sum(dur(j) for j in before[-1:]) / groups)
        per["execs"].append(len(execs) / groups)
        direct = [(spans[j][1], spans[j][2]) for j in children.get(r, [])]
        per["self"].append((t1 - t0 - covered(direct, t0, t1)) / groups)
        every = [(spans[j][1], spans[j][2]) for j in sub]
        per["unattr"].append((t1 - t0 - covered(every, t0, t1)) / groups)
        per["wall"].append(t1 - t0)
        lineage = [spans[j][2] for j in sub if spans[j][0] == "state.lineage.append_lineage"]
        if commits and lineage:
            per["commit"].append((max(lineage) - first_commit) / groups)
        per["fsyncs"].append(sum(spans[j][0] == "os.fsync" for j in sub) / groups)

    def calls(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and s[2] is not None]

    lookups = calls("ingest.lookup_urls")
    reads = [sum(spans[j][0] == "pq.read_table" for j in below(i)) for i in lookups]
    unattr, wall = sum(per["unattr"]), sum(per["wall"])
    return {
        "ingest.counts_s": _median(per["counts"]),
        "ingest.winner_select_s": _median(per["winner"]),
        "ingest.pipeline_s": _median(per["pipeline"]),
        "ingest.executions_per_group": _median(per["execs"]),
        "ingest.driver_self_s": _median(per["self"]),
        "ingest.unattributed_s": _median(per["unattr"]),
        "ingest.span_coverage": 1.0 - unattr / wall if wall else 0.0,
        "state.commit_s": _median(per["commit"]),
        "state.commit_partition_ms": 1e3 * _median(
            [dur(i) for i in calls("state.manifest.commit_partition")]),
        "state.epoch_record_s": _median(
            [dur(i) for i in calls("state.checkpoint.write_global_epoch")]),
        "state.fsyncs_per_group": _median(per["fsyncs"]),
        "read.lookup_files_read": statistics.mean(reads) if reads else 0.0,
    }
