"""The run's machinery around the workloads: Ray start, the bounded op
tally, and RSS / CPU figures of the Ray process tree read from ``/proc``
(``psutil`` is not a dependency of the engine).
"""

from __future__ import annotations

import logging
import os
import signal
import sys
import tempfile
import threading
import time
import traceback

PAGE = os.sysconf("SC_PAGE_SIZE")
TICK = os.sysconf("SC_CLK_TCK")
SCHEMA_WARNING = "Failed to hash the schemas"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg1() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


RAY_CPUS = 2
RAY_OBJECT_STORE_BYTES = 512 * 2**20  # the largest run holds a few tens of MB
# Ray's session sockets sit at <temp>/session_<date>_<pid>/sockets/plasma_store,
# 64 bytes below its temp dir, and a Unix socket path has at most 107
MAX_RAY_TEMP = 40


def start_ray(root: str, work: str) -> None:
    """Start a local Ray with ``RAY_CPUS`` logical CPUs whatever the
    host has, so runs on different hosts schedule alike (at 1 the hash
    shuffle's 0.125-CPU aggregator starves the 1-CPU read task and
    ``run_ingest`` never finishes). Workers import the engine from
    ``root``. Everything Ray, the engine and ``tempfile`` write goes
    under ``work``: where ``work`` is too deep for Ray's socket paths,
    Ray's temp dir is named through this process's ``/proc/<pid>/cwd``
    link, which every Ray process resolves to the same directory."""
    import ray
    from ray.data import DataContext

    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = tmp
    os.environ["GENE_ETL_SCRATCH"] = tempfile.tempdir = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DEDUP_LOGS"] = "0"  # count every schema-hash warning
    temp_dir = os.path.join(work, "r")
    if len(temp_dir) > MAX_RAY_TEMP:
        temp_dir = os.path.join(f"/proc/{os.getpid()}/cwd", os.path.relpath(temp_dir))
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=RAY_OBJECT_STORE_BYTES,
             _temp_dir=temp_dir)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class LineCounter:
    """Stream proxy counting ``SCHEMA_WARNING`` in what Ray forwards from
    its workers to this process."""

    def __init__(self, inner) -> None:
        self.inner, self.hits = inner, 0

    def write(self, s: str) -> int:
        self.hits += s.count(SCHEMA_WARNING)
        return self.inner.write(s)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class ProcTree:
    """This process and all its descendants (Ray's gcs, raylet and
    workers). A sampler thread keeps the peak of their summed RSS."""

    def __init__(self, period: float = 0.25) -> None:
        self.root = os.getpid()
        self.peak_rss = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, args=(period,), daemon=True)

    def _stats(self) -> dict[int, list[str]]:
        """``/proc/<pid>/stat`` fields (after the command name) of the
        tree's live processes."""
        procs: dict[int, list[str]] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as f:
                    procs[int(d)] = f.read().rpartition(")")[2].split()
            except OSError:
                continue
        kids: dict[int, list[int]] = {}
        for pid, f in procs.items():
            kids.setdefault(int(f[1]), []).append(pid)
        out, todo = {}, [self.root]
        while todo:
            pid = todo.pop()
            if pid in procs and procs[pid][0] != "Z":
                out[pid] = procs[pid]
            todo.extend(kids.get(pid, []))
        return out

    def descendants(self) -> list[int]:
        return [p for p in self._stats() if p != self.root]

    def rss(self) -> int:
        return sum(int(f[21]) for f in self._stats().values()) * PAGE

    def cpu_s(self) -> float:
        """utime + stime of the tree, with the reaped children's."""
        return sum(sum(int(x) for x in f[11:15]) for f in self._stats().values()) / TICK

    def _sample(self, period: float) -> None:
        while not self._stop.wait(period):
            self.peak_rss = max(self.peak_rss, self.rss())

    def start(self) -> None:
        self.peak_rss = self.rss()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def wait_gone(pids: list[int], wait_s: float = 10.0) -> None:
    """Wait until every process in ``pids`` has ended; kill what is left
    after ``wait_s``."""
    def alive() -> list[int]:
        out = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rpartition(")")[2].split()[0] != "Z":
                        out.append(pid)
            except OSError:
                pass
        return out

    end = time.monotonic() + wait_s
    while alive() and time.monotonic() < end:
        time.sleep(0.1)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while alive() and time.monotonic() < end + 5:
        time.sleep(0.1)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class Ops:
    """Closed-loop op runner: one caller, each op bounded by a timeout
    (never past the run's deadline). An op fails when it raises, times
    out or its check disagrees with the oracle; ``attempted`` and
    ``failed`` make ``op_failure_ratio``."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = self.failed = 0
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, what: str, fn, limit: float, check=None):
        """Time ``fn()``, then run ``check(result)`` outside the timing
        but inside the timeout.
        Returns ``(result, seconds)``, or ``None`` when the op failed."""
        self.attempted += 1
        budget = min(limit, self.deadline - time.monotonic())
        if budget <= 0:
            return self._fail(what, "no time left before the run's deadline")
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            try:
                t0 = time.perf_counter()
                out = fn()
                wall = time.perf_counter() - t0
                ok = check is None or check(out)
            finally:  # disarmed before any handler runs
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return self._fail(what, f"timed out after {budget:.0f} s")
        except Exception:
            return self._fail(what, traceback.format_exc())
        if not ok:
            return self._fail(what, "result disagrees with the oracle")
        return out, wall

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"# op failed: {what}: {why}", file=sys.stderr)
        return None
