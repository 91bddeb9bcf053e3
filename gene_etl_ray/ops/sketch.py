"""Mergeable sketches — the pre-aggregate-then-merge pattern for
approximate aggregation at scale (emit one serialized sketch per batch,
merge the tiny sketches in a second stage; sketches are designed to be
mergeable, so no row-level shuffle is ever needed).

HyperLogLog implementation follows the published HLL algorithm
(Flajolet et al. 2007) with the standard bias corrections.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from gene_etl_ray.hashing import hash_objects


class HyperLogLog:
    """Fixed-seed, numpy-vectorized HLL over 64-bit hashes."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)
        if self.m >= 128:
            self.alpha = 0.7213 / (1 + 1.079 / self.m)
        else:
            self.alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(self.m, 0.7)

    def add_hashes(self, h: np.ndarray) -> None:
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of the remaining bits + 1, vectorized via
        # float64 exponent extraction (exact for the top 53 bits, capped)
        nz = rest != 0
        lz = np.full(len(h), 64 - self.p, dtype=np.int64)
        f = rest[nz].astype(np.float64)
        lz_nz = 63 - ((f.view(np.int64) >> 52) - 1023)
        lz[nz] = np.minimum(lz_nz, 64 - self.p)
        rank = (lz + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def add(self, values) -> None:
        self.add_hashes(hash_objects(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        self.registers = np.maximum(self.registers, other.registers)
        return self

    def estimate(self) -> float:
        est = self.alpha * self.m**2 / np.sum(2.0 ** -self.registers.astype(np.float64))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * self.m and zeros:
            est = self.m * np.log(self.m / zeros)  # small-range correction
        return float(est)

    def serialize(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, p: int = 12) -> "HyperLogLog":
        h = cls(p)
        h.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return h


def order_statistics(
    ds: ray.data.Dataset,
    column: str,
    qs: list[float],
    bins: int = 4096,
    gather_limit: int = 200_000,
    max_passes: int = 8,
) -> dict[float, float]:
    """EXACT q-quantiles (``quantile_disc`` semantics, probed against
    DuckDB: the element at 0-indexed rank ``ceil(q*n) - 1`` of the
    sorted non-null column) WITHOUT a global sort — iterative histogram
    refinement, the distributed-selection algorithm.

    Each pass is ONE ``map_batches`` scan that emits fixed-size per-range
    histograms (tiny partials, merged driver-side); the value interval
    known to contain each target rank shrinks ~``bins``× per pass. When
    an interval holds ≤ ``gather_limit`` rows (or collapses to a point —
    heavy duplicates), a final scan gathers just those rows and selects
    exactly. Cost: O(log_bins(spread)) scans, O(bins × targets) driver
    state, ZERO shuffle — at 10^10 rows a global ``sort()`` moves every
    block twice; this moves a few KB of histogram per block.

    Domain: values are compared as float64, so "exact" holds for floats
    and for integers with |v| ≤ 2^53 (exactly representable); int64
    columns beyond that (e.g. snowflake ids) can collapse adjacent
    distinct values. Nulls/NaNs are ignored (``quantile_disc`` semantics).
    """
    qs = sorted(set(qs))

    def stats(batch: pa.Table) -> pa.Table:
        v = batch.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "lo": pa.array([np.nan]), "hi": pa.array([np.nan])})
        return pa.table({"n": pa.array([v.size], pa.int64()),
                         "lo": pa.array([float(v.min())]),
                         "hi": pa.array([float(v.max())])})

    head = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    n = int(head["n"].sum()) if "n" in head.columns else 0  # empty ds: 0 batches
    if n == 0:
        return {q: float("nan") for q in qs}
    glo, ghi = float(head["lo"].min()), float(head["hi"].max())
    if glo == ghi:  # constant column: every order statistic IS that value
        return {q: glo for q in qs}
    # state per target rank: [lo, hi] known to contain it; below = #rows < lo
    tgt = {q: {"k": max(0, int(np.ceil(q * n)) - 1), "lo": glo, "hi": ghi,
               "below": 0, "in_range": n, "done": None} for q in qs}

    for _ in range(max_passes):
        active = {q: t for q, t in tgt.items() if t["done"] is None
                  and t["in_range"] > gather_limit and t["lo"] < t["hi"]}
        if not active:
            break
        # distinct ranges → one shared scan computes every histogram
        ranges = sorted({(t["lo"], t["hi"]) for t in active.values()})
        edges = {r: np.linspace(r[0], r[1], bins + 1) for r in ranges}
        ranges_b = ranges  # captured by value in the task closure

        def hist(batch: pa.Table, _edges=edges, _ranges=ranges_b) -> pa.Table:
            v = batch.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            rid, bid, cnt = [], [], []
            for i, r in enumerate(_ranges):
                h, _ = np.histogram(v, bins=_edges[r])
                nz = np.flatnonzero(h)
                rid.append(np.full(nz.size, i, dtype=np.int64))
                bid.append(nz.astype(np.int64))
                cnt.append(h[nz].astype(np.int64))
            return pa.table({"rid": np.concatenate(rid) if rid else np.array([], np.int64),
                             "bid": np.concatenate(bid) if bid else np.array([], np.int64),
                             "cnt": np.concatenate(cnt) if cnt else np.array([], np.int64)})

        parts = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
        hists = {}
        for i, r in enumerate(ranges):
            h = np.zeros(bins, dtype=np.int64)
            sub = parts[parts["rid"] == i]
            np.add.at(h, sub["bid"].to_numpy(), sub["cnt"].to_numpy())
            hists[r] = h
        for t in active.values():
            r = (t["lo"], t["hi"])
            h, e = hists[r], edges[r]
            cum = t["below"] + np.cumsum(h)
            b = int(np.searchsorted(cum, t["k"] + 1))  # first bin whose cum > k
            t["below"] += int(h[:b].sum())
            t["lo"], t["hi"] = float(e[b]), float(e[b + 1])
            t["in_range"] = int(h[b])
            if t["lo"] >= t["hi"]:  # collapsed interval: every row equal
                t["done"] = t["lo"]

    pending = {q: t for q, t in tgt.items() if t["done"] is None}
    if pending:
        pranges = sorted({(t["lo"], t["hi"]) for t in pending.values()})

        def gather(batch: pa.Table, _ranges=pranges) -> pa.Table:
            v = batch.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            keep = np.zeros(v.shape, dtype=bool)
            for lo, hi in _ranges:
                keep |= (v >= lo) & (v <= hi)
            return pa.table({"v": v[keep]})

        vals = np.sort(
            ds.map_batches(gather, batch_format="pyarrow").to_pandas()["v"].to_numpy()
        )
        for t in pending.values():
            inr = vals[(vals >= t["lo"]) & (vals <= t["hi"])]
            t["done"] = float(inr[t["k"] - t["below"]])
    return {q: tgt[q]["done"] for q in qs}


def approx_distinct(ds: ray.data.Dataset, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column): one HLL per batch, merged
    driver-side — bytes moved = batches × 2^p, independent of row count."""

    def sketch(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        col = batch.column(column).to_pylist()
        if col:
            h.add(col)
        return pa.table({"sketch": pa.array([h.serialize()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    acc = HyperLogLog(p)
    for r in parts:
        acc.merge(HyperLogLog.deserialize(r["sketch"], p))
    return acc.estimate()


class KLLQuantiles:
    """KLL-style mergeable quantile sketch (Karnin, Lang & Liberty 2016,
    uniform-capacity deterministic variant): level-``l`` buffers hold
    items of weight ``2**l``; a buffer past ``k`` items sorts, promotes
    every other item to the next level (alternating parity offset — the
    deterministic derandomization, so results are reproducible), and
    keeps an odd leftover in place, conserving total weight exactly.

    Properties: total weight always equals the item count (unit-tested);
    with ``n ≤ k`` nothing ever compacts and every quantile is EXACT
    (the oracle-gated regime, mirroring SpaceSaving's exact-regime
    gate); in the approx regime the rank error grows O(n·log(n/k)/k)
    (bound pinned by a deterministic unit test). Merging concatenates
    level-wise then re-compresses — a few KB of state per sketch at any
    scale, so grouped quantiles over 10^10 rows move sketches, not rows:
    the one-pass companion to the exact multi-pass
    :func:`order_statistics`."""

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.parity: list[int] = [0]
        self.n = 0

    def add(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self.n += int(v.size)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            buf = self.levels[lvl]
            if buf.size > self.k:
                s = np.sort(buf, kind="mergesort")
                off = self.parity[lvl]
                self.parity[lvl] ^= 1
                m = s.size - (s.size % 2)
                promoted = s[off:m:2]
                self.levels[lvl] = s[m:]  # odd leftover stays, weight kept
                if lvl + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                    self.parity.append(0)
                self.levels[lvl + 1] = np.concatenate(
                    [self.levels[lvl + 1], promoted]
                )
            lvl += 1

    def merge(self, other: "KLLQuantiles") -> "KLLQuantiles":
        assert self.k == other.k
        for lvl, buf in enumerate(other.levels):
            if lvl == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
                self.parity.append(0)
            self.levels[lvl] = np.concatenate([self.levels[lvl], buf])
        self.n += other.n
        self._compress()
        return self

    def total_weight(self) -> int:
        return int(sum(b.size << lvl for lvl, b in enumerate(self.levels)))

    def quantile(self, q: float) -> float:
        """``quantile_disc`` semantics (probed against DuckDB: 0-indexed
        rank ``ceil(q*n) - 1``): the stored value whose cumulative weight
        first reaches 1-based rank ``max(1, ceil(q*n))``."""
        if self.n == 0:
            return float("nan")
        vals = np.concatenate(self.levels)
        w = np.concatenate(
            [np.full(b.size, 1 << lvl, dtype=np.int64)
             for lvl, b in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="mergesort")
        cum = np.cumsum(w[order])
        rank = max(1, int(np.ceil(q * self.n)))
        i = min(int(np.searchsorted(cum, rank, side="left")), len(cum) - 1)
        return float(vals[order][i])

    def serialize(self) -> bytes:
        import pickle

        return pickle.dumps((self.k, self.n, self.parity,
                             [b for b in self.levels]))

    @classmethod
    def deserialize(cls, data: bytes) -> "KLLQuantiles":
        import pickle

        k, n, parity, levels = pickle.loads(data)
        s = cls(k)
        s.n, s.parity, s.levels = n, parity, levels
        return s


def grouped_quantiles(
    ds: ray.data.Dataset,
    key: str,
    column: str,
    qs: list[float],
    k: int = 1 << 12,
) -> pd.DataFrame:
    """Per-group quantiles in ONE streaming pass: each batch emits one
    serialized :class:`KLLQuantiles` per key it contains (the combiner),
    the tiny sketches merge driver-side per key — bytes moved are
    ``batches × groups × O(k)``, never row-count-bound, and there is no
    shuffle at all (contrast: a ``groupby().map_groups`` percentile
    moves every row once). Exact when ``k ≥`` the largest group's row
    count (the oracle-gated regime); approximate with the KLL rank bound
    beyond it."""

    def sketch_batch(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, sub in b.groupby(key, sort=False, observed=True):
            s = KLLQuantiles(k)
            s.add(sub[column].to_numpy())
            rows.append((g, s.serialize()))
        return pd.DataFrame({"g": [r[0] for r in rows],
                             "sk": [r[1] for r in rows]})

    parts = ds.map_batches(sketch_batch, batch_format="pandas").take_all()
    acc: dict = {}
    for r in parts:
        s = KLLQuantiles.deserialize(r["sk"])
        if r["g"] in acc:
            acc[r["g"]].merge(s)
        else:
            acc[r["g"]] = s
    keys = sorted(acc)
    out = {key: keys}
    for q in qs:
        out[f"p{int(round(q * 100))}"] = [acc[g].quantile(q) for g in keys]
    return pd.DataFrame(out)


class SpaceSaving:
    """SpaceSaving heavy-hitters sketch (Metwally et al. 2005): track at
    most ``capacity`` (key, count, error) triples; an unseen key evicts
    the current minimum and inherits its count as overestimation error.
    Guarantees: estimated_count ∈ [true, true + N/capacity], every key
    with true count > N/capacity is retained, and — the property the
    oracle gate uses — when ``capacity ≥ distinct keys`` no eviction
    ever happens and counts are EXACT. Mergeable (Agarwal et al. 2012):
    combine counts keywise (missing key in one side takes that side's
    min-bound 0 here, keeping the one-sided overestimate), re-truncate
    to capacity."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.counts: dict = {}
        self.errors: dict = {}

    def add_counted(self, keys, counts) -> None:
        """Bulk insert of pre-combined (key, count) pairs — the per-batch
        combiner output, not raw rows."""
        for k, c in zip(keys, counts):
            c = int(c)
            if k in self.counts:
                self.counts[k] += c
            elif len(self.counts) < self.capacity:
                self.counts[k] = c
                self.errors[k] = 0
            else:
                mk = min(self.counts, key=lambda q: (self.counts[q], q))
                mv = self.counts.pop(mk)
                self.errors.pop(mk)
                self.counts[k] = mv + c
                self.errors[k] = mv

    def _floor(self) -> int:
        """A key absent from a full sketch may have been seen and
        evicted; its true count is ≤ the sketch's minimum tracked count.
        Below capacity nothing was ever evicted, so absent ⇒ count 0."""
        if len(self.counts) < self.capacity:
            return 0
        return min(self.counts.values())

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Mergeable-summaries rule (Agarwal et al. 2012): estimate of a
        key missing from one side takes that side's eviction floor, so
        the merged count stays a one-sided overestimate; then keep the
        top ``capacity`` keys, with dropped keys' max folding into the
        floor via the per-key error."""
        fs, fo = self._floor(), other._floor()
        keys = set(self.counts) | set(other.counts)
        counts, errors = {}, {}
        for k in keys:
            cs = self.counts.get(k)
            co = other.counts.get(k)
            counts[k] = (cs if cs is not None else fs) + (
                co if co is not None else fo
            )
            errors[k] = (self.errors[k] if cs is not None else fs) + (
                other.errors[k] if co is not None else fo
            )
        if len(counts) > self.capacity:
            keep = sorted(counts, key=lambda q: (-counts[q], q))[: self.capacity]
            counts = {k: counts[k] for k in keep}
            errors = {k: errors[k] for k in keep}
        self.counts, self.errors = counts, errors
        return self

    def topk(self, k: int) -> list[tuple[object, int, int]]:
        """(key, est_count, max_error) for the k largest estimates,
        tie-broken by key for determinism."""
        order = sorted(self.counts, key=lambda q: (-self.counts[q], q))[:k]
        return [(q, self.counts[q], self.errors[q]) for q in order]


def heavy_hitters(
    ds: ray.data.Dataset, column: str, capacity: int, k: int
) -> pd.DataFrame:
    """Distributed heavy hitters: per-batch pandas value_counts is the
    combiner (a hot key's rows collapse before anything moves), one
    SpaceSaving sketch per batch over the combined counts, sketches
    merged driver-side — bytes moved = batches × capacity triples,
    independent of row count AND of distinct-key count. Exact whenever
    ``capacity ≥`` the per-run distinct count (the oracle-gated
    configuration); otherwise a one-sided overestimate with
    error ≤ N/capacity (unit-tested bound)."""

    def sketch(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[column].value_counts()
        s = SpaceSaving(capacity)
        s.add_counted(vc.index.to_numpy(), vc.to_numpy())
        import pickle

        return pd.DataFrame({"sk": [pickle.dumps((s.counts, s.errors))]})

    import pickle

    parts = ds.map_batches(sketch, batch_format="pandas").take_all()
    acc = SpaceSaving(capacity)
    for r in parts:
        o = SpaceSaving(capacity)
        o.counts, o.errors = pickle.loads(r["sk"])
        acc.merge(o)
    rows = acc.topk(k)
    return pd.DataFrame(
        {
            column: [r[0] for r in rows],
            "est_count": pd.array([r[1] for r in rows], dtype="int64"),
            "max_error": pd.array([r[2] for r in rows], dtype="int64"),
        }
    )


class CountMin:
    """Count-Min sketch (Cormode & Muthukrishnan 2005): a depth × width
    counter grid; each key increments one counter per row (double
    hashing, Kirsch-Mitzenmacher h1 + i·h2 — two vectorized 64-bit
    hashes serve every row). Point estimate = min over rows, a ONE-SIDED
    overestimate: estimate ∈ [true, true + εN] with probability 1−δ for
    width = ⌈e/ε⌉, depth = ⌈ln 1/δ⌉. Mergeable by elementwise counter
    addition (same width/depth/seed), so the per-batch-sketch → driver
    merge shape moves depth·width int64s per batch regardless of rows or
    distinct keys. Completes the sketch family next to HLL (distincts),
    SpaceSaving (top-k) and KLL (quantiles): CM answers point-frequency
    queries over keys it never stored."""

    _KEY2 = "cm-sketch-h2-seed"  # 17 chars; pandas uses first 16 bytes

    def __init__(self, width: int = 4096, depth: int = 4):
        self.width = width
        self.depth = depth
        self.table = np.zeros((depth, width), dtype=np.int64)

    def _hashes(self, values) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(values, dtype=object)
        h1 = hash_objects(arr)
        h2 = hash_objects(arr, hash_key=self._KEY2[:16])
        return h1, h2 | np.uint64(1)  # odd h2: full-period double hashing

    def _rows(self, h1: np.ndarray, h2: np.ndarray, i: int) -> np.ndarray:
        return ((h1 + np.uint64(i) * h2) % np.uint64(self.width)).astype(np.int64)

    def add_counted(self, keys, counts) -> None:
        """Bulk insert of pre-combined (key, count) pairs — the
        per-batch value_counts combiner output, not raw rows."""
        h1, h2 = self._hashes(keys)
        c = np.asarray(counts, dtype=np.int64)
        for i in range(self.depth):
            np.add.at(self.table[i], self._rows(h1, h2, i), c)

    def estimate(self, keys) -> np.ndarray:
        h1, h2 = self._hashes(keys)
        est = np.full(len(h1), np.iinfo(np.int64).max, dtype=np.int64)
        for i in range(self.depth):
            np.minimum(est, self.table[i][self._rows(h1, h2, i)], out=est)
        return est

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.width, self.depth) == (other.width, other.depth)
        self.table += other.table
        return self

    def serialize(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, width: int, depth: int) -> "CountMin":
        s = cls(width, depth)
        s.table = np.frombuffer(data, dtype=np.int64).reshape(depth, width).copy()
        return s


def countmin_frequencies(
    ds: ray.data.Dataset,
    column: str,
    query_keys,
    width: int = 4096,
    depth: int = 4,
) -> pd.DataFrame:
    """Point-frequency estimates for ``query_keys`` from a merged
    Count-Min sketch: per-batch pandas value_counts combiner → one CM
    per batch → driver merges depth×width grids (≈``depth·width·8``
    bytes per batch, independent of rows and of distinct keys) →
    vectorized point queries. Deterministic (fixed hash seeds); exact
    when no queried key collides with any other live key in every row —
    guaranteed-tested in the oracle gate's small-domain regime, bounded
    by εN in the approximate regime (unit-tested)."""

    def sketch(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[column].value_counts()
        s = CountMin(width, depth)
        if len(vc):
            s.add_counted(vc.index.to_numpy(), vc.to_numpy())
        return pd.DataFrame({"sk": [s.serialize()]})

    parts = ds.map_batches(sketch, batch_format="pandas").take_all()
    acc = CountMin(width, depth)
    for r in parts:
        acc.merge(CountMin.deserialize(r["sk"], width, depth))
    keys = list(query_keys)
    return pd.DataFrame(
        {column: keys, "est_count": pd.array(acc.estimate(keys), dtype="int64")}
    )
