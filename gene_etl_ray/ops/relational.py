"""Relational operator shapes over Ray Data — SURVEY §2 parity.

Each helper reproduces a reference operator family idiomatically:
filters/projections (M1-M2, ``io.py:60-61``/``io.py:184-199``), broadcast
dim joins (J1/J5, ``io.py:92``, ``app.py:256-268``), grouped aggregation
(A1-A11, ``filters.py:184-193``, ``models.py:268-284``), top-k / rank
(K1-K4, ``filters.py:82-88``, ``models.py:244``), LWW/latest-per-key dedup
(D2, ``persist.py:152-185``) and windowed grouped stats.

Scale notes: joins broadcast the small side (materialized once, shipped
via closure/object store — never re-read per batch); aggregations
pre-combine per batch where the group count is small; sorts are limited
to top-k results.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from gene_etl_ray.hashing import hash_keys, hash_objects


def read(
    sf_dir: str,
    table: str,
    columns: list[str] | None = None,
    row_filter=None,
) -> ray.data.Dataset:
    """Column-pruned read of one testdata table. Pandas-written parquet
    carries an unhashable ``b'pandas'`` schema-metadata dict that defeats
    Ray's shuffle schema dedup — pass the stripped schema into the read so
    even the read operator's own blocks are metadata-free.
    ``row_filter`` is a ``pyarrow.dataset`` expression pushed into the
    scan (row-group/row pruning at the source — only matching rows leave
    storage)."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(
        path, columns=columns, schema=schema, filter=row_filter)


def _adaptive_buckets(*datasets: ray.data.Dataset, floor: int = 32) -> int:
    """Bucket count for the partitioned-join family and
    ``bucketed_group_apply``: each bucket is one task holding its rows
    (both sides' for a join) in worker memory, so the count scales with
    the inputs' combined on-disk bytes at ~256 MB/bucket (``floor`` for
    parallelism, cap 4096 like read-block sizing). Estimated via
    ``input_files()`` — pure metadata, never triggers execution
    (``size_bytes()`` on a lazy chain would) — so it engages for direct
    file reads and falls back to the floor through transform chains,
    where callers with size knowledge pass an explicit count. Bucket
    count never affects correctness (a key's rows land in exactly one
    bucket either way), only task granularity."""
    import os

    total = 0
    for ds in datasets:
        try:
            total += sum(
                os.path.getsize(f.replace("local://", ""))
                for f in ds.input_files()
            )
        except Exception:
            pass
    if not total:
        return floor
    return int(min(max(floor, total // (256 << 20)), 4096))


def broadcast_join(
    ds: ray.data.Dataset,
    small: pd.DataFrame,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """Hash join against a broadcast small side (dimension table).

    The small frame is captured in the stage closure — Ray serializes it
    once into the object store and every task reads the same copy
    (never re-shipped per batch). Reference analog: sample⋈illness inner
    join (``io.py:92``) and the 3-way dim enrichment (``app.py:256-268``).
    """
    right_on = right_on or on
    small = small.rename(columns={right_on: on}) if right_on != on else small

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(small, on=on, how=how)

    return ds.map_batches(join, batch_format="pandas")


def partitioned_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    num_buckets: int | None = None,
    how: str = "inner",
    bucket_post=None,
) -> ray.data.Dataset:
    """Both-sides-large hash join: add ``bucket = H(key) % B`` to each
    side, tag the side, union, shuffle once on the bucket, and join the
    two sides inside each bucket group in Arrow (the explicit
    partitioned hash join from the Ray guide). Neither side is broadcast
    or materialized; the single shuffle moves each row once.

    Column-name collisions between the sides are the caller's problem
    (TPC-H-style disjoint prefixes assumed). Ray 2.49 also ships a native
    ``Dataset.join`` (hash-partitioned); this explicit form is kept
    because it makes the single-shuffle cost model visible and lets
    ``bucket_post`` fold per-key work into the bucket pass.

    ``bucket_post`` (``pa.Table -> pa.Table``) runs on each bucket's join
    result. A key's rows from both sides share one bucket, so a per-key
    aggregate or dedup there is globally exact and costs no extra
    shuffle.

    Null keys follow SQL: a null key matches nothing, on either side
    (Acero for inner/left/right/outer, ``is_in(skip_nulls=True)`` for
    semi/anti), unlike a pandas merge, which matches NaN to NaN. Keys an
    engine step derives (hashes, n-grams, bucket ids) are never null; the
    callers whose keys can be null join a column of their input data:
    ``queries.customer_orders_left_join`` (``o_custkey``),
    ``queries.events_customers_full_outer`` (``user_id``), the
    ``ops/graph.py`` operators (edge-list node ids), the ``ops/dedup.py``
    representative anti joins (``id_col``) and the ``pipelines/curate.py``
    semi join (``id_col``)."""
    acero_how = {"inner": "inner", "left": "left outer",
                 "right": "right outer", "outer": "full outer"}
    if how not in acero_how and how not in ("semi", "anti"):
        raise ValueError(f"partitioned_join: unknown how={how!r}")
    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right)
    both, lcols, rcols = _bucket_union(left, right, left_on, right_on, num_buckets)

    def join_bucket(g: pa.Table) -> pa.Table:
        lmask = pc.equal(g.column("__side"), "l")
        lg = g.select(lcols).filter(lmask)
        if how in ("semi", "anti"):
            # membership against the co-located right key set: left
            # columns only, right rows never multiply the output. Not an
            # Acero semi join, which rejects list payload columns ("Data
            # type list<item: int64> is not supported in join non-key
            # field"). skip_nulls=True: the default is_in lets a NULL in
            # the value set match NULL keys, and a NULL key matches
            # nothing (semi drops it, anti keeps it).
            rkeys = g.column(right_on).filter(pc.invert(lmask))
            m = pc.fill_null(pc.is_in(
                lg.column(left_on), value_set=rkeys.combine_chunks().unique(),
                skip_nulls=True), False)
            out = lg.filter(m if how == "semi" else pc.invert(m))
        else:
            rg = g.select(rcols).filter(pc.invert(lmask))
            out = _acero_join(lg, rg, left_on, right_on, acero_how[how])
        return out if bucket_post is None else bucket_post(out)

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


def _common_type(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Arrow's permissive promotion of two key types (int64 and float64
    give float64; null gives the other type)."""
    return pa.unify_schemas(
        [pa.schema([("k", a)]), pa.schema([("k", b)])],
        promote_options="permissive").field("k").type


def _acero_join(lg: pa.Table, rg: pa.Table, left_on: str, right_on: str,
                join_type: str) -> pa.Table:
    """One bucket's inner/outer join in Acero. ``coalesce_keys`` keeps
    both key columns when the names differ and one when they match, the
    pandas merge and DuckDB ``USING`` column set, in their order: the
    left side's columns, then the right's."""
    # Acero rejects arrow `null`-typed columns anywhere in a join (key OR
    # payload). They appear when a bucket lacks one side entirely or an
    # iterative caller fed an all-None pandas block. A null-typed column
    # carries no values, so any concrete type is faithful: keys take the
    # OTHER side's key type (null keys match nothing either way), payload
    # columns take int64.
    def solidify(t: pa.Table, key: str, other_key_t) -> pa.Table:
        for i, f in enumerate(t.schema):
            if pa.types.is_null(f.type):
                want = other_key_t if f.name == key else pa.int64()
                if pa.types.is_null(want):
                    want = pa.int64()
                t = t.set_column(i, pa.field(f.name, want), pa.nulls(t.num_rows, want))
        return t

    lg = solidify(lg, left_on, rg.schema.field(right_on).type)
    rg = solidify(rg, right_on, lg.schema.field(left_on).type)
    lt, rt = lg.schema.field(left_on).type, rg.schema.field(right_on).type
    if lt.equals(rt):
        out = lg.join(
            rg, keys=left_on, right_keys=right_on, join_type=join_type,
            coalesce_keys=(left_on == right_on),
            left_suffix="_x", right_suffix="_y", use_threads=False)
        if left_on == right_on and join_type == "right outer":
            # Acero emits the coalesced key among the right columns; it
            # goes back to the left key's place
            names = out.schema.names
            names.remove(left_on)
            names.insert(lg.schema.get_field_index(left_on), left_on)
            out = out.select(names)
        return out
    # Acero joins only like-typed keys (int64 ⋈ float64 raises): join on
    # both keys cast to their common type, and keep the key columns as
    # they were, like pandas and DuckDB do. Only differently named keys
    # get here: a shared key name has one type in the union schema. The
    # cast is unsafe because ``__jk`` only matches rows: an int64 above
    # 2^53 rounds to its float64, as DuckDB compares it.
    common = _common_type(lt, rt)
    lg = lg.append_column("__jk", lg.column(left_on).cast(common, safe=False))
    rg = rg.append_column("__jk", rg.column(right_on).cast(common, safe=False))
    return lg.join(
        rg, keys="__jk", join_type=join_type,
        left_suffix="_x", right_suffix="_y", use_threads=False,
    ).drop_columns(["__jk"])


def _bucket_union(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    num_buckets: int,
) -> tuple[ray.data.Dataset, list[str], list[str]]:
    """Shared co-location machinery for the bucketed binary operators:
    tag each side, add ``__bucket = H(key) % B``, conform both to the
    union schema and union — ONE shuffle (the bucket groupby downstream)
    then moves each row exactly once."""
    from gene_etl_ray.schema import conform_table

    def ensure_schema(ds: ray.data.Dataset):
        # a lazy groupby/map_groups output can stream a schemaless EMPTY
        # block first, making the limit-1 schema probe return None even
        # when rows exist — materialize (bounded: join sides here are
        # candidate-scale or already spilled) and unify across all blocks
        s = ds.schema()
        if s is None:
            ds = ds.materialize()
            s = ds.schema()
        if s is None:
            raise ValueError(
                "partitioned_join side has no determinable schema (empty "
                "dataset with no typed blocks) — guard the call site with "
                "an explicit empty-result branch"
            )
        return ds, s

    def arrow_schema(s, key: str) -> pa.Schema:
        base = s.base_schema
        if isinstance(base, pa.Schema):
            return base
        # pandas-block dataset (e.g. a map_groups output): map numpy
        # dtypes; object columns are strings by convention here, except
        # the key, which stays null-typed until the other side types it
        fields = []
        for name, dt in zip(base.names, base.types):
            try:
                fields.append(pa.field(name, pa.from_numpy_dtype(dt)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append(pa.field(name, pa.null() if name == key else pa.string()))
        return pa.schema(fields)

    left, ls_raw = ensure_schema(left)
    right, rs_raw = ensure_schema(right)
    ls = arrow_schema(ls_raw, left_on)
    rs = arrow_schema(rs_raw, right_on)
    lt, rt = ls.field(left_on).type, rs.field(right_on).type

    def key_type(own: pa.DataType, other: pa.DataType) -> pa.DataType:
        # a shared key name is one union column: both sides' promoted
        # type (int64 and float64 give float64, so 5.5 is not truncated);
        # an untyped key takes the other side's type
        if left_on == right_on or pa.types.is_null(own):
            own = _common_type(own, other)
        return pa.string() if pa.types.is_null(own) else own

    ls = ls.set(ls.get_field_index(left_on), pa.field(left_on, key_type(lt, rt)))
    rs = rs.set(rs.get_field_index(right_on), pa.field(right_on, key_type(rt, lt)))
    lcols, rcols = list(ls.names), list(rs.names)
    union_schema = pa.schema(
        list(ls)
        + [f for f in rs if f.name not in ls.names]
        + [pa.field("__bucket", pa.int64()), pa.field("__side", pa.string())]
    )

    def keyed(tag: str, col: str):
        key = union_schema.field(col)

        def fn(t: pa.Table) -> pa.Table:
            bucket = (
                hash_keys([t.column(col)]) % np.uint64(num_buckets)
            ).astype("int64")
            # unsafe: an int64 above 2^53 rounds to its float64 under a
            # promoted key type, as DuckDB compares it (and hashes alike)
            i = t.schema.get_field_index(col)
            t = t.set_column(i, key, t.column(i).cast(key.type, safe=False))
            t = t.append_column("__bucket", pa.array(bucket, pa.int64()))
            t = t.append_column("__side", pa.array([tag] * len(bucket), pa.string()))
            return conform_table(t, union_schema)

        return fn

    both = left.map_batches(keyed("l", left_on), batch_format="pyarrow").union(
        right.map_batches(keyed("r", right_on), batch_format="pyarrow")
    )
    return both, lcols, rcols


def asof_join_bucketed(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on_left: str,
    on_right: str,
    by_left: str,
    by_right: str,
    num_buckets: int | None = None,
    direction: str = "backward",
    right_prepare=None,
    out_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Big⋈big as-of join: co-locate both sides by ``H(by_key) % B``
    (every row of a user lands with every row of that user's right side),
    then ``pd.merge_asof`` within each bucket. Neither side is broadcast
    or driver-materialized — the scale-safe form of the broadcast as-of.
    ``right_prepare`` runs on each bucket's right frame first (e.g. a
    per-key dedup that would otherwise need its own shuffle — fold it
    into this one). Partitioning assumption: the by-key is the bucket
    key, so all as-of candidates for a row share its bucket."""
    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right)
    both, lcols, rcols = _bucket_union(left, right, by_left, by_right, num_buckets)

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["__side"] == "l", lcols].sort_values(on_left, kind="mergesort")
        rg = g.loc[g["__side"] == "r", rcols]
        if right_prepare is not None:
            rg = right_prepare(rg)
        rg = rg.sort_values(on_right, kind="mergesort")
        # arrow→pandas dtype of a key column depends on whether THIS
        # bucket block saw nulls from the other side (int64 vs float64);
        # merge_asof requires exact dtype equality — coerce numeric BY
        # and ON keys to a common float64 (exact for ids < 2^53)
        for frame_col in ((by_left, by_right), (on_left, on_right)):
            lc, rc = frame_col
            if pd.api.types.is_numeric_dtype(lg[lc]) and pd.api.types.is_numeric_dtype(
                rg[rc]
            ):
                lg = lg.assign(**{lc: lg[lc].astype("float64")})
                rg = rg.assign(**{rc: rg[rc].astype("float64")})
        if direction == "nearest":
            # explicit nearest with a PINNED tie rule (backward wins):
            # pandas' own "nearest" tie behavior is unspecified, which
            # would make the result hash-unstable vs a SQL oracle
            def _asof(d: str) -> pd.DataFrame:
                return pd.merge_asof(
                    lg, rg, left_on=on_left, right_on=on_right,
                    left_by=by_left, right_by=by_right, direction=d,
                )

            mb, mf = _asof("backward"), _asof("forward")

            def _dist(a: pd.Series, b: pd.Series) -> np.ndarray:
                # mask no-match rows BEFORE the dtype cast: NaT becomes
                # the int64 min sentinel (not NaN) under .astype(float)
                miss = a.isna().to_numpy() | b.isna().to_numpy()
                d = a.to_numpy() - b.to_numpy()
                if d.dtype.kind == "m":
                    d = d.astype("timedelta64[ns]").astype("float64")
                else:
                    d = d.astype("float64")
                d = np.abs(d)
                d[miss] = np.inf
                return d

            lo = lg[on_left].reset_index(drop=True)
            take_f = _dist(mf[on_right], lo) < _dist(lo, mb[on_right])
            m = mb
            for c in m.columns.difference(lg.columns):
                m.loc[take_f, c] = mf.loc[take_f, c]
        else:
            m = pd.merge_asof(
                lg, rg, left_on=on_left, right_on=on_right,
                left_by=by_left, right_by=by_right, direction=direction,
            )
        return m[out_cols] if out_cols else m

    return both.groupby("__bucket").map_groups(asof_bucket, batch_format="pandas")


def range_join_bucketed(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by_left: str,
    by_right: str,
    on_left: str,
    start_right: str,
    end_right: str,
    num_buckets: int | None = None,
    bucket_post=None,
) -> ray.data.Dataset:
    """Big⋈big RANGE join: equality on the by-key plus interval
    containment ``start_right <= on_left < end_right``. It is an inner
    ``partitioned_join`` on the by-key whose bucket pass filters the
    per-key cross product by the interval and then applies
    ``bucket_post`` (``pa.Table -> pa.Table``) — the standard range-join
    cost model, with the documented partitioning assumption that per-key
    fan-out (rows-per-key on each side) is bounded. ``bucket_post`` can
    fold an aggregation into the bucket pass (complete per by-key, since
    every row of a key shares its bucket)."""

    def in_range(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t.column(on_left), t.column(start_right)),
            pc.less(t.column(on_left), t.column(end_right))))
        return t if bucket_post is None else bucket_post(t)

    return partitioned_join(left, right, by_left, by_right,
                            num_buckets=num_buckets, bucket_post=in_range)


def semi_filter(ds: ray.data.Dataset, column: str, values) -> ray.data.Dataset:
    """Semi-join as a broadcast IN-list filter (J2/J3, ``io.py:118-133``)."""
    vset = pa.array(list(values))

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column(column), value_set=vset))

    return ds.map_batches(fn, batch_format="pyarrow")


def deterministic_sample(
    ds: ray.data.Dataset, key: str, rate_pct: int, salt: int = 2654435761
) -> ray.data.Dataset:
    """Reproducible sampling by multiplicative hashing of a key column:
    keep rows where ``(key * salt mod 2^32) mod 100 < rate_pct``. Unlike
    ``ds.random_sample`` the sample is a pure function of the data — the
    same rows are selected on every run, on any cluster, and the exact
    membership is SQL-expressible (oracle-checkable). Knuth's
    multiplicative constant scatters sequential ids across residues.

    Key domain: non-negative integers (ids) — negative keys would hash
    differently in SQL (DuckDB ``%`` keeps the sign) and are rejected
    loudly rather than silently diverging; null keys are dropped, exactly
    as the SQL predicate's NULL comparison drops them."""

    def fn(t: pa.Table) -> pa.Table:
        col = t.column(key)
        if col.null_count:
            t = t.filter(pc.is_valid(col))
            col = t.column(key)
        k = col.to_numpy(zero_copy_only=False)
        if len(k) and k.min() < 0:
            raise ValueError(f"deterministic_sample: negative {key} keys")
        k = k.astype(np.uint64)
        bucket = ((k * np.uint64(salt)) % np.uint64(2**32)) % np.uint64(100)
        return t.filter(pa.array(bucket < rate_pct))

    return ds.map_batches(fn, batch_format="pyarrow")


#: Cardinality guard for the driver-merged-partials pattern: the
#: largest partial frame (rows ≈ distinct keys × batches) the driver
#: will gather. Reporting aggregates over bounded keys (flags, types,
#: hours) stay far under it; a high-cardinality key (per-url, per-user
#: at 10^10 scale) trips it and the merge falls back LOUDLY to one
#: bucketed hash exchange, so driver bytes drop to O(distinct keys).
DRIVER_PARTIAL_ROW_LIMIT = 500_000


def collect_partials(
    partials: ray.data.Dataset,
    keys: list[str],
    fold,
    limit: int | None = None,
) -> pd.DataFrame:
    """Bounded gather for per-batch-combiner aggregates (the shared
    guard the r4 verdict ordered for every ``partial → to_pandas() →
    driver merge`` call site). ``fold`` must be the same ASSOCIATIVE
    merge the caller runs driver-side, applied to a frame holding all
    partials for each key it sees (so fold∘fold == fold — callers
    re-fold the returned frame unconditionally).

    Within ``limit`` partial rows → one ``to_pandas`` (the fast path:
    no exchange at all, the pattern's whole point for bounded keys).
    Above it, the partials are folded per key with ONE bucketed int
    exchange (``bucketed_group_apply``) and the driver receives one row
    per distinct key instead of one per key per batch."""
    import logging

    p = partials.materialize()
    n = p.count()
    lim = DRIVER_PARTIAL_ROW_LIMIT if limit is None else limit
    if n <= lim:
        df = p.to_pandas()
        if df.empty and not len(df.columns):
            # zero-block inputs lose the schema through to_pandas —
            # restore the column names so callers' re-folds (groupby
            # on the key columns) see a typed empty, not a KeyError
            s = p.schema()
            if s is not None:
                df = pd.DataFrame(columns=list(s.names))
        return df
    logging.getLogger(__name__).warning(
        "collect_partials: %d partial rows exceed the driver-merge bound"
        " %d for keys %s — falling back to a bucketed per-key fold"
        " (one hash exchange; driver receives one row per distinct key)",
        n, lim, keys)
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    return bucketed_group_apply(p, keys, fold).to_pandas()


def grouped_aggregate_partial(
    ds: ray.data.Dataset,
    keys: list[str],
    sums: dict[str, str],
    counts: str | None = None,
) -> pd.DataFrame:
    """groupby-aggregate with per-batch pre-combination: each batch emits
    one partial row per key, the tiny partials are merged driver-side.
    No all-to-all shuffle — correct when the distinct-key count is small
    (the common case for reporting aggregates). ``sums`` maps
    output_name → input_column; ``counts`` names an output count column.
    """

    def partial(batch: pa.Table) -> pa.Table:
        # pyarrow-native pre-combination (no pandas boxing of key
        # strings in the hot per-batch stage); null keys form their own
        # group exactly like the old pandas dropna=False
        if counts:
            batch = batch.append_column(
                "__one", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
        in_cols = sorted({c for c in sums.values()})
        aggs = [(c, "sum") for c in in_cols]
        if counts:
            aggs.append(("__one", "sum"))
        g = batch.group_by(keys, use_threads=False).aggregate(aggs)
        out_cols: dict[str, pa.ChunkedArray | pa.Array] = {
            k: g.column(k) for k in keys
        }
        for o, c in sums.items():
            out_cols[o] = g.column(f"{c}_sum")
        if counts:
            out_cols[counts] = g.column("__one_sum")
        return pa.table(out_cols)

    def merge(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby(keys, as_index=False, sort=False, dropna=False)
        agg = {o: (o, "sum") for o in sums}
        if counts:
            agg[counts] = (counts, "sum")
        return g.agg(**agg)

    partials = collect_partials(
        ds.map_batches(partial, batch_format="pyarrow"), keys, merge)
    return merge(partials)


def grouped_sum_topk(
    partials: ray.data.Dataset, key: str, val: str, k: int
) -> pd.DataFrame:
    """Top-k keys by the SUM of pre-combined per-batch partials over a
    HIGH-CARDINALITY, possibly skewed key. The caller's per-batch partial
    is the combiner: a hot key's rows collapse to ONE partial row per
    batch BEFORE the shuffle, so no reducer ever sees the raw hot-key row
    stream (the skew-safe shape — salting would only help if a single
    key's *partials* overwhelmed one reducer, i.e. ≥ millions of blocks).
    The shuffle moves ≤ distinct-keys-per-batch rows; per-block partial
    top-k (widened at the boundary tie so the global winner can't be
    dropped) then a driver merge of ≤ blocks × k rows, tie-broken
    (``val`` DESC, ``key`` ASC)."""
    summed = partials.groupby(key).sum(val).map_batches(
        lambda b: b.rename(columns={f"sum({val})": val}), batch_format="pandas"
    )

    def ptopk(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) <= k:
            return b
        kth = b[val].nlargest(k).iloc[-1]
        return b[b[val] >= kth]  # widen boundary ties

    tops = summed.map_batches(ptopk, batch_format="pandas").to_pandas()
    if key not in tops.columns:  # zero blocks: empty input loses the schema
        return pd.DataFrame(columns=[key, val])
    return (
        tops.sort_values([val, key], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def grouped_count_topk(ds: ray.data.Dataset, key: str, k: int) -> pd.DataFrame:
    """Top-k keys by row count — :func:`grouped_sum_topk` with a
    per-batch count as the combiner."""

    def precount(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby(key, as_index=False, sort=False, dropna=False)
            .size()
            .rename(columns={"size": "n"})
        )

    return grouped_sum_topk(
        ds.map_batches(precount, batch_format="pandas"), key, "n", k
    )


def grouped_count_distinct(
    ds: ray.data.Dataset, key: str, value: str, out: str = "n_distinct"
) -> pd.DataFrame:
    """Exact per-group COUNT(DISTINCT value): per-batch (key, value)
    dedup is the combiner — repeated pairs collapse BEFORE anything
    moves, so the shuffle carries at most the distinct-pair count, never
    the row count — then one groupby counts the surviving uniques per
    key. The exact companion to the HLL sketch (`approx_distinct`) for
    group-level cardinalities."""

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key, value]].drop_duplicates()

    def count_unique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {key: [g[key].iloc[0]], out: [int(g[value].nunique())]}
        )

    return (
        ds.map_batches(dedup, batch_format="pandas")
        .groupby(key)
        .map_groups(count_unique, batch_format="pandas")
        .to_pandas()
    )


def latest_per_key(
    ds: ray.data.Dataset, key: str, order: list[str]
) -> ray.data.Dataset:
    """Last-writer-wins per key: the row with max ``order`` tuple wins —
    the CDC merge kernel as a standalone relational operator (D2,
    ``persist.py:152-185``). LWW is associative, so a per-batch
    pre-combiner (keep-last per key INSIDE each batch) runs before the
    hash shuffle — the exchange then carries ≤ one row per (batch, key)
    instead of every event, the same partial-aggregation shape the
    grouped aggregates use."""

    def partial_last(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        b = b.sort_values(order, kind="mergesort")
        return b.drop_duplicates(key, keep="last")

    def keep_last(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        return g.tail(1)

    pre = ds.map_batches(partial_last, batch_format="pandas")
    return pre.groupby(key).map_groups(keep_last, batch_format="pandas")


def top_k(ds: ray.data.Dataset, column: str, k: int, extra_sort: list[str] | None = None):
    """Global top-k: per-batch partial top-k (vectorized) then a final
    merge — avoids a full sort shuffle (K1/K2, ``filters.py:82-88``).
    ``extra_sort`` columns break ties deterministically."""
    sort_cols = [column] + (extra_sort or [])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(sort_cols, ascending=[False] * len(sort_cols)).head(k)

    tops = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return tops.sort_values(sort_cols, ascending=[False] * len(sort_cols)).head(k).reset_index(
        drop=True
    )


def sessionize(
    ds: ray.data.Dataset,
    key: str,
    ts: str,
    gap_us: int,
) -> ray.data.Dataset:
    """Session windows (gap-based): per key, sort by time and start a new
    session whenever the gap to the previous event exceeds ``gap_us``.
    Ray Data has no event-time windows (SURVEY §2.9) — the session id is
    derived inside a per-key group with vectorized pandas, after the one
    hash shuffle on the key. Emits one row per session:
    (key, session_start, session_end, n_events)."""

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts], kind="mergesort")
        t = pd.Series(
            g[ts].values.astype("datetime64[us]").astype("int64"), index=g.index
        )
        new = (t.diff() > gap_us).fillna(True)
        sid = new.cumsum()
        out = g.assign(__sid=sid).groupby("__sid").agg(
            session_start=(ts, "min"), session_end=(ts, "max"), n_events=(ts, "size")
        )
        out[key] = g[key].iloc[0]
        return out.reset_index(drop=True)[[key, "session_start", "session_end", "n_events"]]

    return ds.groupby(key).map_groups(sessions, batch_format="pandas")


class BloomFilter:
    """Simple deterministic Bloom filter (k derived double-hashes over a
    bit array) — the broadcast semi-join filter for key sets too large to
    ship exactly: ship ``m/8`` bytes instead of the key set, accept a
    bounded false-positive rate (no false negatives)."""

    def __init__(self, num_bits: int = 1 << 20, num_hashes: int = 5):
        self.m = num_bits
        self.k = num_hashes
        self.bits = np.zeros(num_bits // 8 + 1, dtype=np.uint8)

    def _positions(self, h1: np.ndarray) -> np.ndarray:
        """The probe rule: bit positions of each key hash ``h1``
        (:func:`hashing.hash_keys`)."""
        h2 = (h1 >> np.uint64(32)) | np.uint64(1)
        idx = (
            h1[:, None] + np.arange(self.k, dtype=np.uint64)[None, :] * h2[:, None]
        ) % np.uint64(self.m)
        return idx.astype(np.int64)

    def add(self, values) -> None:
        pos = self._positions(hash_keys([values])).ravel()
        np.bitwise_or.at(self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))

    def contains_hashes(self, h1: np.ndarray) -> np.ndarray:
        """``contains`` for keys already hashed: a caller that probes many
        filters with one key set hashes it once."""
        return self.contains_probe(self.probe(h1))

    def probe(self, h1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The byte offsets and bit masks of ``_positions(h1)``: every
        filter of this ``(m, k)`` tests a key set with the same probe."""
        pos = self._positions(h1)
        return pos >> 3, (1 << (pos & 7)).astype(np.uint8)

    def contains_probe(self, probe: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        byte, mask = probe
        return (self.bits[byte] & mask).all(axis=1)

    def contains(self, values) -> np.ndarray:
        return self.contains_hashes(hash_keys([values]))


def bloom_semi_filter(
    ds: ray.data.Dataset, column: str, values=None, num_bits: int = 1 << 20,
    bloom: "BloomFilter | None" = None,
) -> ray.data.Dataset:
    """Semi join via a broadcast Bloom filter of the key set (pass either
    the key ``values`` or a pre-built ``bloom`` from :func:`build_bloom`).
    Approximate (bounded false positives) — follow with an exact check
    when exactness matters; at 10^10 scale this prunes the shuffle input
    first."""
    if bloom is None:
        bloom = BloomFilter(num_bits=num_bits)
        bloom.add(list(values))
    bf = bloom

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        return b[bf.contains(b[column].to_numpy())]

    return ds.map_batches(fn, batch_format="pandas")


def build_bloom(
    ds: ray.data.Dataset, column: str,
    num_bits: int = 1 << 20, num_hashes: int = 5,
) -> BloomFilter:
    """DISTRIBUTED Bloom build — the build-side twin of
    :func:`bloom_semi_filter` for key sets too large to gather: each
    batch emits its own bitmap (``m/8`` bytes, never the keys), the
    bitmaps OR-merge driver-side (Bloom union is exact). Driver bytes
    are ``batches × m/8``, independent of key count."""

    def part(b: pa.Table) -> pa.Table:
        bf = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        v = b.column(column).to_numpy(zero_copy_only=False)
        if len(v):
            bf.add(v)
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.binary())})

    acc = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
    for r in ds.map_batches(part, batch_format="pyarrow").take_all():
        acc.bits |= np.frombuffer(r["bits"], dtype=np.uint8)
    return acc


def windowed_agg(
    ds: ray.data.Dataset,
    key: str,
    ts: str,
    freq_us: int,
    value: str,
) -> pd.DataFrame:
    """Tumbling-window grouped aggregate: window = floor(ts/freq). Ray Data
    has no event-time windows (SURVEY §2.9) — the window id is a derived
    column, then an ordinary grouped aggregation with per-batch partials."""

    def add_window(batch: pa.Table) -> pa.Table:
        t = batch.column(ts).cast(pa.int64())
        w = pc.multiply(pc.floor(pc.divide(t, freq_us)), freq_us).cast(pa.int64())
        return batch.append_column("window_start", w)

    with_w = ds.map_batches(add_window, batch_format="pyarrow")
    out = grouped_aggregate_partial(
        with_w, [key, "window_start"], sums={"value_sum": value}, counts="n_events"
    )
    return out


def sliding_windowed_agg(
    ds: ray.data.Dataset,
    key: str,
    ts: str,
    size_us: int,
    slide_us: int,
    value: str,
) -> pd.DataFrame:
    """SLIDING-window grouped aggregate (hop windows): every row lands
    in ``k = size/slide`` overlapping windows.  Ray Data has no
    event-time windows (SURVEY §2.9), so the assignment is a vectorized
    k-fold replication inside ``map_batches`` (np.repeat on values,
    tiled hop offsets — no per-row Python), then the same
    partial-aggregated groupby as the tumbling case.  Exchange volume
    is k× the input of the COMBINED partials (per-batch pre-aggregation
    collapses rows to distinct (key, window) pairs first), not k× the
    fact table — the standard streaming hop-window expansion."""
    if size_us % slide_us:
        raise ValueError("sliding_windowed_agg: size_us must be a multiple of slide_us")
    k = size_us // slide_us

    def assign(batch: pa.Table) -> pa.Table:
        t = batch.column(ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch.column(value).to_numpy(zero_copy_only=False)
        kcol = batch.column(key).to_numpy(zero_copy_only=False)
        base = (t // slide_us) * slide_us
        n = len(t)
        w = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * slide_us, n
        )
        return pa.table(
            {
                key: pa.array(np.repeat(kcol, k)),
                "window_start": pa.array(w),
                value: pa.array(np.repeat(v, k)),
            }
        )

    with_w = ds.map_batches(assign, batch_format="pyarrow")
    return grouped_aggregate_partial(
        with_w, [key, "window_start"], sums={"value_sum": value}, counts="n_events"
    )


def lag_lead(
    ds: ray.data.Dataset,
    key: str,
    order: list[str],
    value: str,
    lag_name: str = "lag_value",
    lead_name: str = "lead_value",
) -> ray.data.Dataset:
    """Per-key LAG/LEAD window columns (``LAG(value) OVER (PARTITION BY
    key ORDER BY order)``): one hash shuffle on the key, then a
    vectorized shift inside each group — partition-local, no global
    sort. ``order`` must be a deterministic total order within the key
    (include a tiebreak column) or lag/lead values are ill-defined."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        g[lag_name] = g[value].shift(1)
        g[lead_name] = g[value].shift(-1)
        return g

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def trailing_window_count(
    ds: ray.data.Dataset,
    key: str,
    order_col: str,
    window,
    id_col: str,
    out: str = "n_window",
) -> ray.data.Dataset:
    """Time-RANGE window frame: ``COUNT(*) OVER (PARTITION BY key ORDER
    BY order_col RANGE BETWEEN window PRECEDING AND CURRENT ROW)`` —
    the event-time twin of the rows-frame moving average. One hash
    shuffle on the key; inside each group the count is two vectorized
    ``searchsorted`` probes over the sorted timestamps (``[t-w, t]``
    inclusive both ends, exactly SQL's RANGE bounds), which — unlike a
    pandas time-rolling — counts ALL timestamp peers, including ones
    that sort after the current row, matching SQL's peer-group
    semantics for tied order keys. ``window`` is anything subtractable
    from the order column's numpy values (``np.timedelta64`` for
    timestamps, a number for numerics)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col, kind="mergesort")
        ts = g[order_col].to_numpy()
        lo = np.searchsorted(ts, ts - window, side="left")
        hi = np.searchsorted(ts, ts, side="right")
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy(),
             out: (hi - lo).astype("int64")}
        )

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def ntile_in_groups(
    ds: ray.data.Dataset,
    key: str,
    order: list[str],
    n: int,
    name: str = "tile",
) -> ray.data.Dataset:
    """Per-key ``NTILE(n)``: rows ordered by ``order`` within each key
    are split into ``n`` near-equal tiles, the first ``count % n`` tiles
    one row larger (exact SQL NTILE semantics; tiles are 1-based). One
    hash shuffle; ``order`` needs a tiebreak column for determinism."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort").reset_index(drop=True)
        c = len(g)
        sizes = np.full(n, c // n, dtype=np.int64)
        sizes[: c % n] += 1
        g[name] = np.repeat(np.arange(1, n + 1, dtype=np.int64), sizes)[:c]
        return g

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "measure",
    value_name: str = "value",
) -> ray.data.Dataset:
    """UNPIVOT/melt: widen rows into (measure, value) pairs — a pure
    per-batch reshape (no shuffle, output rows = input × len(value_cols)).
    The wide→long step feeding per-measure aggregates."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        return b.melt(
            id_vars=id_cols, value_vars=value_cols,
            var_name=var_name, value_name=value_name,
        )

    return ds.map_batches(fn, batch_format="pandas")


def string_agg_per_key(
    ds: ray.data.Dataset,
    key: str,
    value: str,
    sep: str = ",",
    out: str = "agg",
) -> ray.data.Dataset:
    """Per-key ordered string aggregation (``string_agg(value, sep ORDER
    BY value)``): hash shuffle on the key, join inside the group. The
    concatenated value is O(group) — intended for bounded groups (names
    per dimension key), not payload columns."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        vals = sorted(str(v) for v in g[value] if v is not None)
        return pd.DataFrame(
            {key: [g[key].iloc[0]], "n": np.int64(len(vals)), out: [sep.join(vals)]}
        )

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def grouped_theil_sen(
    ds: ray.data.Dataset,
    key: str,
    x: str,
    y: str,
) -> pd.DataFrame:
    """Per-group THEIL–SEN slope (median of all pairwise slopes
    (yⱼ−yᵢ)/(xⱼ−xᵢ) over pairs with distinct x) and its intercept
    (median(y) − slope·median(x)) — the standard robust regression
    estimator (up to ~29% outliers do not move it), the robust
    counterpart of the per-group OLS op. One hash shuffle on the key,
    fully vectorized pairwise kernel per group (``np.triu_indices``).

    BOUNDED-GROUP contract (documented per the custom-operator rule):
    pairwise slopes are O(n²) per group — aggregate first (e.g. daily
    totals) so a group holds ≲10⁴ points; the op asserts the bound
    loudly rather than letting a task quietly allocate n² floats.
    Median matches SQL ``median`` (midpoint of the two central values
    for even counts). Null pairs drop, like SQL aggregates."""
    MAX_GROUP = 20_000

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        kval = g[key].iloc[0]
        sub = g[[x, y]].dropna()
        if len(sub) > MAX_GROUP:
            raise ValueError(
                f"grouped_theil_sen: group {kval!r} holds {len(sub)} "
                f"points > {MAX_GROUP} — pairwise slopes are O(n²); "
                "pre-aggregate the series first")
        xv = sub[x].to_numpy(np.float64)
        yv = sub[y].to_numpy(np.float64)
        if len(xv) < 2:
            return pd.DataFrame({key: [kval], "slope": [np.nan],
                                 "intercept": [np.nan],
                                 "n": [np.int64(len(xv))]})
        i, j = np.triu_indices(len(xv), k=1)
        dx = xv[j] - xv[i]
        m = dx != 0
        if not m.any():
            return pd.DataFrame({key: [kval], "slope": [np.nan],
                                 "intercept": [np.nan],
                                 "n": [np.int64(len(xv))]})
        slope = float(np.median((yv[j] - yv[i])[m] / dx[m]))
        inter = float(np.median(yv) - slope * np.median(xv))
        return pd.DataFrame({key: [kval], "slope": [slope],
                             "intercept": [inter],
                             "n": [np.int64(len(xv))]})

    return (
        ds.groupby(key).map_groups(fn, batch_format="pandas")
        .to_pandas().sort_values(key).reset_index(drop=True)
    )


def grouped_mann_kendall(
    ds: ray.data.Dataset,
    key: str,
    x: str,
    y: str,
) -> pd.DataFrame:
    """Per-group MANN–KENDALL trend test: S = Σ_{i<j} sign(yⱼ−yᵢ) over
    pairs ordered by ``x`` (ties in x excluded, the standard
    definition), tie-corrected variance

        Var(S) = [n(n−1)(2n+5) − Σ_t t(t−1)(2t+5)] / 18

    (t over tied-y group sizes) and the continuity-corrected normal
    z = (S∓1)/√Var — the nonparametric monotonic-trend detector that
    pairs with the Theil–Sen slope (same bounded-group pairwise
    contract, same pre-aggregated daily-series input). Returns
    (key, s_stat, var_s, z, n)."""
    MAX_GROUP = 20_000

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        kval = g[key].iloc[0]
        sub = g[[x, y]].dropna()
        if len(sub) > MAX_GROUP:
            raise ValueError(
                f"grouped_mann_kendall: group {kval!r} holds "
                f"{len(sub)} points > {MAX_GROUP} — pairs are O(n²); "
                "pre-aggregate the series first")
        n = len(sub)
        if n < 2:
            return pd.DataFrame({key: [kval], "s_stat": [np.int64(0)],
                                 "var_s": [np.nan], "z": [np.nan],
                                 "n": [np.int64(n)]})
        xv = sub[x].to_numpy(np.float64)
        yv = sub[y].to_numpy(np.float64)
        i, j = np.triu_indices(n, k=1)
        m = xv[i] != xv[j]
        # orient each pair by x order so sign(y_later - y_earlier)
        lo_first = xv[i] < xv[j]
        d = np.where(lo_first, yv[j] - yv[i], yv[i] - yv[j])[m]
        s = int(np.sign(d).sum())
        _, counts = np.unique(yv, return_counts=True)
        t = counts[counts > 1].astype(np.float64)
        var = (n * (n - 1.0) * (2.0 * n + 5.0)
               - (t * (t - 1.0) * (2.0 * t + 5.0)).sum()) / 18.0
        if var > 0:
            z = ((s - 1.0) / np.sqrt(var) if s > 0
                 else (s + 1.0) / np.sqrt(var) if s < 0 else 0.0)
        else:
            z = np.nan
        return pd.DataFrame({key: [kval], "s_stat": [np.int64(s)],
                             "var_s": [var], "z": [float(z)],
                             "n": [np.int64(n)]})

    return (
        ds.groupby(key).map_groups(fn, batch_format="pandas")
        .to_pandas().sort_values(key).reset_index(drop=True)
    )


def grouped_corr_stats(
    ds: ray.data.Dataset,
    key: str,
    x: str,
    y: str,
) -> pd.DataFrame:
    """Per-group Pearson correlation / sample covariance / regression
    slope between two numeric columns, from MERGEABLE moment partials:
    each batch emits one row per key of (n, Σx, Σy, Σx², Σy², Σxy) —
    six numbers per key per batch, no row shuffle — and the tiny partial
    frame folds driver-side. The bivariate analog of the grouped
    variance op (A3); null pairs are dropped exactly as SQL ``corr``
    drops them. Scale: shuffle volume is O(batches × distinct keys),
    independent of row count."""

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[key, x, y]].dropna()
        xv = b[x].to_numpy(dtype=np.float64)
        yv = b[y].to_numpy(dtype=np.float64)
        g = b.assign(
            __n=np.int64(1), __sx=xv, __sy=yv, __sxx=xv * xv, __syy=yv * yv,
            __sxy=xv * yv,
        ).groupby(key, as_index=False, sort=False)
        return g.agg(
            n=("__n", "sum"), sx=("__sx", "sum"), sy=("__sy", "sum"),
            sxx=("__sxx", "sum"), syy=("__syy", "sum"), sxy=("__sxy", "sum"),
        )

    def fold(p: pd.DataFrame) -> pd.DataFrame:
        return p.groupby(key, as_index=False, sort=False).sum()

    p = collect_partials(
        ds.map_batches(moments, batch_format="pandas"), [key], fold)
    m = fold(p)
    n = m["n"].to_numpy(dtype=np.float64)
    # sample (n-1) central moments, the SQL corr/covar_samp definitions
    cov = (m["sxy"] - m["sx"] * m["sy"] / n) / (n - 1)
    vx = (m["sxx"] - m["sx"] ** 2 / n) / (n - 1)
    vy = (m["syy"] - m["sy"] ** 2 / n) / (n - 1)
    out = pd.DataFrame({key: m[key]})
    out["n"] = m["n"].astype("int64")
    out["covar"] = cov
    with np.errstate(invalid="ignore", divide="ignore"):
        out["corr"] = cov / np.sqrt(vx * vy)
        out["slope"] = cov / vx
    return out


def patch_latest_per_key(
    ds: ray.data.Dataset,
    key: str,
    order: list[str],
    value_cols: list[str],
) -> ray.data.Dataset:
    """COLUMN-level last-writer-wins (CDC partial updates / patch
    semantics): events carry NULL in columns they do not change, and the
    converged row per key takes each column from the LATEST event where
    that column is non-null — Debezium-style patch merge, vs the
    row-level LWW of :func:`latest_per_key`. One hash shuffle on the
    key; inside each group a vectorized forward-fill over the ordered
    frame yields the per-column winners in O(rows). Emits one row per
    key: the patched values plus ``n_versions``. SQL equivalent:
    ``last_value(col IGNORE NULLS) OVER (... ROWS BETWEEN UNBOUNDED
    PRECEDING AND UNBOUNDED FOLLOWING)`` + QUALIFY."""

    def patch(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        last = g[value_cols].ffill().iloc[-1:]
        last.insert(0, key, g[key].iloc[0])
        last["n_versions"] = np.int64(len(g))
        return last.reset_index(drop=True)

    return ds.groupby(key).map_groups(patch, batch_format="pandas")


def grouped_higher_moments(
    ds: ray.data.Dataset,
    key: str,
    x: str,
) -> pd.DataFrame:
    """Per-group skewness/kurtosis from MERGEABLE central-moment
    partials: each batch emits per key (n, mean, M2, M3, M4) about its
    OWN batch mean; partials fold with the Pébay/Chan parallel update
    formulas — numerically stable where raw power sums (Σx³, Σx⁴)
    catastrophically cancel for large-mean data, and the canonical
    single-pass distributed shape for higher-order statistics. Returns
    sample-corrected skewness (adjusted Fisher-Pearson G1) and sample
    excess kurtosis (G2), the SQL ``skewness()`` / ``kurtosis()``
    definitions."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[key, x]].dropna()
        g = b.groupby(key, sort=False)
        mean = g[x].transform("mean")
        d = (b[x] - mean).to_numpy(dtype=np.float64)
        p = b.assign(__d2=d * d, __d3=d**3, __d4=d**4).groupby(
            key, as_index=False, sort=False
        )
        out = p.agg(
            n=(x, "size"), mean=(x, "mean"),
            M2=("__d2", "sum"), M3=("__d3", "sum"), M4=("__d4", "sum"),
        )
        return out

    def merge_rows(rows: pd.DataFrame) -> tuple:
        # Pébay/Chan parallel update — associative, so the same loop is
        # the per-bucket fold (cardinality fallback) AND the final merge
        nA = muA = m2A = m3A = m4A = 0.0
        for r in rows.itertuples(index=False):
            nB, muB, m2B, m3B, m4B = float(r.n), r.mean, r.M2, r.M3, r.M4
            n = nA + nB
            d = muB - muA
            m4 = (
                m4A + m4B
                + d**4 * nA * nB * (nA * nA - nA * nB + nB * nB) / n**3
                + 6 * d * d * (nA * nA * m2B + nB * nB * m2A) / (n * n)
                + 4 * d * (nA * m3B - nB * m3A) / n
            )
            m3 = (
                m3A + m3B
                + d**3 * nA * nB * (nA - nB) / (n * n)
                + 3 * d * (nA * m2B - nB * m2A) / n
            )
            m2 = m2A + m2B + d * d * nA * nB / n
            muA = muA + d * nB / n
            nA, m2A, m3A, m4A = n, m2, m3, m4
        return nA, muA, m2A, m3A, m4A

    def fold(p: pd.DataFrame) -> pd.DataFrame:
        out = []
        for kval, g in p.groupby(key, sort=False):
            n, mu, m2, m3, m4 = merge_rows(
                g[["n", "mean", "M2", "M3", "M4"]])
            out.append((kval, n, mu, m2, m3, m4))
        return pd.DataFrame(
            out, columns=[key, "n", "mean", "M2", "M3", "M4"])

    parts = collect_partials(
        ds.map_batches(partial, batch_format="pandas"), [key], fold)

    def combine(rows: pd.DataFrame) -> pd.Series:
        nA, muA, m2A, m3A, m4A = merge_rows(rows)
        n = nA
        g1 = np.sqrt(n) * m3A / m2A**1.5 if m2A > 0 else np.nan
        G1 = g1 * np.sqrt(n * (n - 1)) / (n - 2) if n > 2 else np.nan
        g2 = n * m4A / (m2A * m2A) - 3.0 if m2A > 0 else np.nan
        G2 = (
            ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
            if n > 3 else np.nan
        )
        return pd.Series({"n": np.int64(n), "skew": G1, "kurt": G2})

    out = (
        parts.groupby(key, sort=False).apply(combine, include_groups=False)
        .reset_index()
    )
    out["n"] = out["n"].astype("int64")
    return out


def grouped_mode(
    ds: ray.data.Dataset, key: str, value: str
) -> pd.DataFrame:
    """Per-key MODE (most frequent value), deterministically tie-broken
    by the smallest value: per-batch (key, value) count partials — the
    combiner, so a hot value's rows collapse before anything moves —
    merged driver-side (distinct key×value pairs, not rows), then a
    vectorized per-key argmax."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby([key, value], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def fold(p: pd.DataFrame) -> pd.DataFrame:
        return p.groupby([key, value], as_index=False, sort=False).agg(
            n=("n", "sum"))

    parts = collect_partials(
        ds.map_batches(partial, batch_format="pandas"), [key, value], fold)
    full = fold(parts)
    full = full.sort_values(
        [key, "n", value], ascending=[True, False, True], kind="mergesort"
    )
    out = full.drop_duplicates(key, keep="first").reset_index(drop=True)
    out = out.rename(columns={value: "mode_value", "n": "mode_count"})
    out["mode_count"] = out["mode_count"].astype("int64")
    return out


def cube_from_finest(
    finest: pd.DataFrame,
    keys: list[str],
    sums: list[str],
    count: str,
    sentinels: dict[str, object],
) -> pd.DataFrame:
    """GROUP BY CUBE derived from ONE distributed finest-level pass: the
    fact table is scanned once (per-batch partial aggregation → the
    finest grouping), and all 2^k coarser grouping sets re-aggregate the
    finest partials driver-side — they are tiny (distinct finest keys),
    never the fact rows. Rolled-up keys take COALESCE ``sentinels`` so
    the dtype contract stays stable (no NULL-ordering ambiguity).
    Correct for distributive aggregates (sum/count); the ROLLUP op is
    the chain-subset special case of this."""
    from itertools import combinations

    frames = [finest]
    for r in range(len(keys)):
        for kept in combinations(keys, r):  # grouping sets above finest
            kept = list(kept)
            if kept:
                g = finest.groupby(kept, as_index=False).agg(
                    **{c: (c, "sum") for c in sums + [count]}
                )
            else:
                g = finest[sums + [count]].sum().to_frame().T
            for k in keys:
                if k not in kept:
                    g[k] = sentinels[k]
            frames.append(g[keys + sums + [count]])
    out = pd.concat(frames, ignore_index=True)
    out[count] = out[count].astype("int64")
    return out


def stratified_sample(
    ds: ray.data.Dataset,
    key: str,
    strata: str,
    rates_pct: dict[str, int],
    default_pct: int = 0,
    salt: int = 2654435761,
) -> ray.data.Dataset:
    """Per-stratum deterministic sampling: each row keeps iff
    ``hash(key) mod 100 < rates_pct[stratum]`` — the
    :func:`deterministic_sample` predicate with a per-stratum rate, so
    every stratum is sampled at its own fraction reproducibly (the
    class-balancing primitive for training-data curation). Membership is
    a pure function of (key, stratum) — SQL-expressible. Same key-domain
    contract as deterministic_sample: non-negative int keys, nulls drop."""

    def fn(t: pa.Table) -> pa.Table:
        col = t.column(key)
        if col.null_count:
            t = t.filter(pc.is_valid(col))
            col = t.column(key)
        k = col.to_numpy(zero_copy_only=False)
        if len(k) and k.min() < 0:
            raise ValueError(f"stratified_sample: negative {key} keys")
        k = k.astype(np.uint64)
        bucket = ((k * np.uint64(salt)) % np.uint64(2**32)) % np.uint64(100)
        s = t.column(strata).to_pandas()
        rate = s.map(rates_pct).fillna(default_pct).to_numpy(dtype=np.uint64)
        return t.filter(pa.array(bucket < rate))

    return ds.map_batches(fn, batch_format="pyarrow")


def merge_into(
    target: ray.data.Dataset,
    source: ray.data.Dataset,
    on: str,
    update_cols: list[str],
    delete_col: str | None = None,
    insert: bool = True,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """SQL ``MERGE INTO`` over two large Datasets (the conditional
    upsert/delete the reference applies row-by-row through its ORM
    session, ``etl/persist.py`` upsert loop — here one co-located bucket
    pass): matched target rows take ``update_cols`` from the source
    (WHEN MATCHED THEN UPDATE), matched rows whose source ``delete_col``
    is true are dropped (WHEN MATCHED AND <cond> THEN DELETE), and
    source rows with no target match are appended (WHEN NOT MATCHED THEN
    INSERT), with target columns the source lacks null-filled.

    Both sides are hash-co-located on ``on`` via the shared
    :func:`_bucket_union` machinery — ONE shuffle, neither side
    broadcast or driver-materialized, so target and source can both be
    fact-sized. Within a bucket every occurrence of a key from either
    side is present, so match/anti decisions made per bucket are
    globally exact. Enforces the SQL MERGE contract that the source has
    at most one row per key (a duplicate raises, exactly like DuckDB /
    the standard's cardinality violation). CDC convention: a
    delete-flagged source row whose key is NOT in the target is a no-op
    (a delete for an absent key), not an insert."""
    tcols = [c for c in target.schema().names]
    scols = [c for c in source.schema().names]
    out_cols = list(tcols)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g.loc[g["__side"] == "l", tcols]
        s = g.loc[g["__side"] == "r", scols]
        if s[on].duplicated().any():
            raise ValueError(f"merge_into: duplicate source keys on {on!r}")
        s2 = s.rename(columns={c: c + "__s" for c in scols if c != on})
        m = t.merge(s2, on=on, how="left", indicator=True)
        matched = (m["_merge"] == "both").to_numpy()
        for c in update_cols:
            m[c] = np.where(matched, m[c + "__s"], m[c])
        keep = np.ones(len(m), dtype=bool)
        if delete_col is not None:
            flag = (
                m[delete_col + "__s"].astype("boolean").fillna(False)
                .to_numpy(dtype=bool)
            )
            keep = ~(matched & flag)
        out = m.loc[keep, out_cols]
        if insert:
            anti = s.loc[~s[on].isin(t[on])]
            if delete_col is not None:
                # null delete flag == not-a-delete, same as the matched
                # path (plain astype(bool) treats NaN as truthy and
                # raises on pd.NA — silently dropping the insert)
                anti = anti.loc[
                    ~anti[delete_col].astype("boolean").fillna(False)
                    .to_numpy(dtype=bool)
                ]
            if len(anti):
                ins = pd.DataFrame(
                    {
                        c: (anti[c].to_numpy() if c in anti.columns
                            else np.full(len(anti), np.nan))
                        for c in out_cols
                    }
                )
                out = pd.concat([out, ins], ignore_index=True)
        return out.reset_index(drop=True)

    if num_buckets is None:
        num_buckets = _adaptive_buckets(target, source)
    both, _, _ = _bucket_union(target, source, on, on, num_buckets)
    return both.groupby("__bucket").map_groups(merge_bucket, batch_format="pandas")


def percent_rank_cume_dist(
    ds: ray.data.Dataset,
    key: str,
    value: str,
    pct_name: str = "pct_rank",
    cume_name: str = "cume_dist",
) -> ray.data.Dataset:
    """PERCENT_RANK() and CUME_DIST() OVER (PARTITION BY key ORDER BY
    value): one hash shuffle on the key, vectorized rank arithmetic
    inside each group (reference capability family: windowed rank
    transforms, correlate.py). SQL tie semantics exactly — percent_rank
    uses rank-with-gaps ((rank-1)/(n-1), 0 for a single row), cume_dist
    counts ALL peers ≤ current ((max-rank)/n) — so tied values get
    identical scores, unlike a positional rank."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        r_min = g[value].rank(method="min").to_numpy()
        r_max = g[value].rank(method="max").to_numpy()
        g[pct_name] = (r_min - 1.0) / (n - 1.0) if n > 1 else 0.0
        g[cume_name] = r_max / float(n)
        return g

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def histogram_fixed(
    ds: ray.data.Dataset,
    col: str,
    by: str,
    width: float,
    nbins: int,
    lo: float = 0.0,
) -> pd.DataFrame:
    """Fixed-width grouped histogram: bucket = min(floor((x-lo)/width),
    nbins-1), counted with a per-batch combiner — each batch emits at
    most |groups|·nbins partial rows, so the only exchange is a groupby
    over the (by, bucket) partials, never the rows. The same
    floor-divide runs in float64 on both the engine and the SQL oracle,
    so boundary values bucket identically."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b[col].to_numpy(dtype=np.float64)
        bucket = np.minimum(
            np.floor((x - lo) / width), nbins - 1
        ).astype(np.int64)
        out = (
            pd.DataFrame({by: b[by], "bucket": bucket})
            .groupby([by, "bucket"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out

    def total(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                by: [g[by].iloc[0]],
                "bucket": [g["bucket"].iloc[0]],
                "n": [int(g["n"].sum())],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([by, "bucket"])
        .map_groups(total, batch_format="pandas")
        .to_pandas()
    )


def set_op(
    ds_a: ray.data.Dataset, ds_b: ray.data.Dataset, col: str, op: str
) -> pd.DataFrame:
    """Distributed INTERSECT / EXCEPT over distinct values of ``col``:
    per-batch dedup is the combiner (the exchange carries at most the
    per-batch distinct count), sides are tagged and co-partitioned by
    the value itself in ONE groupby, and membership is decided
    per-group — neither side is broadcast or gathered. SQL bag
    semantics for set ops on DISTINCT inputs."""
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be intersect|except, got {op!r}")

    def tag(side: str):
        def fn(b: pa.Table) -> pa.Table:
            vals = pc.unique(b.column(col))
            return pa.table(
                {col: vals, "__side": pa.array([side] * len(vals))}
            )

        return fn

    a = ds_a.map_batches(tag("a"), batch_format="pyarrow")
    b = ds_b.map_batches(tag("b"), batch_format="pyarrow")

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        sides = set(g["__side"])
        keep = (
            ("a" in sides and "b" in sides)
            if op == "intersect"
            else ("a" in sides and "b" not in sides)
        )
        if not keep:
            return pd.DataFrame({col: []}).astype({col: g[col].dtype})
        return pd.DataFrame({col: [g[col].iloc[0]]})

    return (
        a.union(b)
        .groupby(col)
        .map_groups(decide, batch_format="pandas")
        .to_pandas()
    )


def grouped_entropy(
    ds: ray.data.Dataset, key: str, value: str, out: str = "entropy"
) -> pd.DataFrame:
    """Per-key Shannon entropy (nats) of the ``value`` distribution:
    per-batch (key, value) count partials are the combiner — the
    exchange carries distinct-pair partials, never rows — then one
    groupby folds partials per key and computes -Σ p·ln(p) over the
    value frequencies."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby([key, value], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def entropy(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(value)["n"].sum().to_numpy(dtype=np.float64)
        p = c / c.sum()
        return pd.DataFrame(
            {key: [g[key].iloc[0]], out: [float(-(p * np.log(p)).sum())]}
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(key)
        .map_groups(entropy, batch_format="pandas")
        .to_pandas()
    )


def rolling_count_distinct(
    ds: ray.data.Dataset,
    entity: str,
    time_col: str,
    window_days: int,
    out: str = "n_distinct",
) -> pd.DataFrame:
    """Per-day TRAILING-window distinct-entity counts (the DAU/WAU/MAU
    family): for every activity day d, COUNT(DISTINCT entity) active in
    [d-window+1, d]. SQL cannot express COUNT(DISTINCT) OVER a frame;
    the distributed shape is an expansion combiner — per batch, distinct
    (entity, day) pairs each replicate to the ``window_days`` window-end
    days they fall into, deduped again per batch — feeding the exact
    distinct-pair groupby (`grouped_count_distinct`). The exchange
    carries ≤ distinct-pairs × window rows, never raw events; output
    rows are restricted to days with actual activity (SQL twin's days
    CTE)."""

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        day = b[time_col].dt.floor("D")
        p = pd.DataFrame({entity: b[entity], "day": day}).drop_duplicates()
        reps = pd.concat(
            [
                p.assign(win_day=p["day"] + pd.Timedelta(days=i))
                for i in range(window_days)
            ],
            ignore_index=True,
        )
        return reps[[entity, "win_day"]].drop_duplicates()

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": b[time_col].dt.floor("D").unique()}
        )

    expanded = ds.map_batches(pairs, batch_format="pandas")
    counts = grouped_count_distinct(expanded, "win_day", entity, out=out)
    active_days = set(
        ds.map_batches(day_partial, batch_format="pandas").to_pandas()["day"]
    )
    counts = counts[counts["win_day"].isin(active_days)]
    return (
        counts.rename(columns={"win_day": "day"})
        .sort_values("day")
        .reset_index(drop=True)
    )


def grouped_standardize(
    ds: ray.data.Dataset,
    key: str,
    value: str,
    id_cols: list[str],
    out: str = "zscore",
) -> ray.data.Dataset:
    """Per-group z-score transform ((x - mean) / stddev_pop) — the
    per-cohort normalization step of the reference's expression
    pipeline (the `normalized_expression` slot,
    `/root/reference/models.py:106`) as a BROADCAST-MERGE map, never a
    row shuffle: per-batch (n, sum, sum-of-squares) partials collapse
    to one row per (batch, key), one tiny groupby reduces them, and the
    per-key stats ship back via a single ``ray.put`` into a stateless
    map stage.  For integral inputs the partials stay int64 and the
    score is computed as ``(n*x - S) / sqrt(n*Q - S^2)`` — every term
    exact in int64/float64 — so the result is bit-identical to a SQL
    engine computing the same rearrangement (no variance-of-floats
    drift across summation orders)."""
    import ray

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        x = b[value].to_numpy(dtype=np.int64)
        b2 = pd.DataFrame({key: b[key].to_numpy(), "__x": x, "__sq": x * x})
        return b2.groupby(key, as_index=False, sort=False, dropna=False).agg(
            n=("__x", "size"), s=("__x", "sum"), q=("__sq", "sum")
        )

    stats = (
        ds.map_batches(partials, batch_format="pandas")
        .groupby(key)
        .map_groups(
            lambda g: pd.DataFrame(
                {
                    key: [g[key].iloc[0]],
                    "n": [g["n"].sum()],
                    "s": [g["s"].sum()],
                    "q": [g["q"].sum()],
                }
            ),
            batch_format="pandas",
        )
        .to_pandas()
    )
    sref = ray.put(stats.set_index(key)[["n", "s", "q"]])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(sref)
        m = st.reindex(b[key].to_numpy())
        n = m["n"].to_numpy(dtype=np.int64)
        s = m["s"].to_numpy(dtype=np.int64)
        q = m["q"].to_numpy(dtype=np.int64)
        x = b[value].to_numpy(dtype=np.int64)
        num = (n * x - s).astype(np.float64)
        den = np.sqrt((n * q - s * s).astype(np.float64))
        res = b[id_cols].copy()
        res[out] = num / den
        return res

    return ds.map_batches(score, batch_format="pandas")


def trailing_window_median(
    ds: ray.data.Dataset,
    key: str,
    order_col: str,
    window,
    value: str,
    id_col: str,
    out: str = "med_window",
) -> ray.data.Dataset:
    """Event-time RANGE median: ``median(value) OVER (PARTITION BY key
    ORDER BY order_col RANGE BETWEEN window PRECEDING AND CURRENT
    ROW)``.  Same one-shuffle plan as :func:`trailing_window_count`
    (hash on key, two searchsorted probes per group for the
    ``[t-w, t]``-inclusive frame with SQL peer-group semantics), but
    the reducer is a rolling median, which has no closed-form
    vectorization: one ``np.partition`` per DISTINCT frame (timestamp
    peers share theirs), O(g·w) in-group — fine because groups are
    per-key bounded, never corpus-sized.  Even-count frames interpolate
    as ``lo + (hi - lo) * 0.5``, DuckDB's ``quantile_cont`` formula, so
    the floats match an SQL oracle bit-for-bit."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col, kind="mergesort")
        ts = g[order_col].to_numpy()
        v = g[value].to_numpy(dtype=np.float64)
        lo = np.searchsorted(ts, ts - window, side="left")
        hi = np.searchsorted(ts, ts, side="right")
        med = np.empty(len(v))
        starts = np.flatnonzero(
            np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
        )
        ends = np.r_[starts[1:], len(v)]
        for s, e in zip(starts, ends):
            w = v[lo[s] : hi[s]]
            n = len(w)
            if n % 2:
                m = np.partition(w, n // 2)[n // 2]
            else:
                p = np.partition(w, [n // 2 - 1, n // 2])
                m = p[n // 2 - 1] + (p[n // 2] - p[n // 2 - 1]) * 0.5
            med[s:e] = m
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy(), out: med}
        )

    return ds.groupby(key).map_groups(fn, batch_format="pandas")


def interval_overlap_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    l_interval: tuple[str, str],
    r_interval: tuple[str, str],
    bucket_width: int,
    l_cols: list[str],
    r_cols: list[str],
    suffixes: tuple[str, str] = ("_a", "_b"),
    tile: int = 4096,
) -> ray.data.Dataset:
    """KEYLESS interval-overlap join — pairs (l, r) with
    ``l.start <= r.end AND r.start <= l.end`` (inclusive ends) and NO
    equality key to co-locate on (``range_join_bucketed`` covers the
    keyed case). The spatial-join pattern: range-partition the axis
    into ``bucket_width`` buckets, REPLICATE each interval into every
    bucket it touches (pick width ≈ typical interval length so the
    factor stays ~2), test overlaps inside each bucket with tiled
    vectorized masks, and dedup the multi-bucket double-counting by
    OWNERSHIP — a pair is emitted only by the bucket containing
    ``max(l.start, r.start)``, which every overlapping pair lies in
    exactly once (that max is inside both intervals). One hash exchange
    of (interval, kept columns); driver never sees the pairs.

    Interval bounds must be integers (cast timestamps to epoch-us
    first); output columns are ``l_cols``/``r_cols`` with
    ``suffixes`` applied to collisions."""
    w = int(bucket_width)

    def keyed(cols: list[str], iv: tuple[str, str], side: int):
        s_col, e_col = iv

        def fn(b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                out = {c: b[c] for c in cols}
                out.update(
                    {"__s": pd.Series([], dtype=np.int64),
                     "__e": pd.Series([], dtype=np.int64),
                     "__side": pd.Series([], dtype=np.int64),
                     "__bucket": pd.Series([], dtype=np.int64)}
                )
                return pd.DataFrame(out)
            s = b[s_col].to_numpy(np.int64)
            e = b[e_col].to_numpy(np.int64)
            if (e < s).any():
                raise ValueError("interval_overlap_join: end < start")
            lo, hi = s // w, e // w
            reps = (hi - lo + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(b)), reps)
            bkt = np.concatenate(
                [np.arange(a, z + 1) for a, z in zip(lo, hi)]
            ).astype(np.int64)
            out = {c: b[c].to_numpy()[idx] for c in cols}
            out["__s"] = s[idx]
            out["__e"] = e[idx]
            out["__side"] = np.full(len(idx), side, dtype=np.int64)
            out["__bucket"] = bkt
            return pd.DataFrame(out)

        return fn

    lk = left.map_batches(
        keyed(l_cols, l_interval, 0), batch_format="pandas"
    )
    rk = right.map_batches(
        keyed(r_cols, r_interval, 1), batch_format="pandas"
    )
    # union both sides into ONE exchange; frames are column-aligned by
    # padding the other side's columns with nulls
    all_cols = list(dict.fromkeys(l_cols + r_cols))

    def pad(b: pd.DataFrame) -> pd.DataFrame:
        for c in all_cols:
            if c not in b.columns:
                b[c] = pd.Series([pd.NA] * len(b), dtype=object)
        return b[all_cols + ["__s", "__e", "__side", "__bucket"]]

    both = lk.map_batches(pad, batch_format="pandas").union(
        rk.map_batches(pad, batch_format="pandas")
    )

    out_l = [
        (c, c + (suffixes[0] if c in r_cols else "")) for c in l_cols
    ]
    out_r = [
        (c, c + (suffixes[1] if c in l_cols else "")) for c in r_cols
    ]
    # explicit output schema (driver-derived from the input datasets):
    # the union pads the other side's columns with nulls, which degrades
    # pandas dtypes to object inside the bucket frames — typing the
    # emitted Arrow table restores them, and an all-empty result keeps
    # its schema instead of collapsing to zero columns
    lsch, rsch = left.schema(), right.schema()
    ltypes = dict(zip(lsch.names, lsch.types))
    rtypes = dict(zip(rsch.names, rsch.types))
    out_schema = pa.schema(
        [pa.field(n, ltypes[c]) for c, n in out_l]
        + [pa.field(n, rtypes[c]) for c, n in out_r]
    )

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        L = g[g["__side"] == 0]
        R = g[g["__side"] == 1]
        if not len(L) or not len(R):
            return out_schema.empty_table()
        bkt = int(g["__bucket"].iloc[0])
        ls, le = L["__s"].to_numpy(), L["__e"].to_numpy()
        rs, re_ = R["__s"].to_numpy(), R["__e"].to_numpy()
        lis, ris = [], []
        for lo in range(0, len(L), tile):
            hi = min(lo + tile, len(L))
            m = (ls[lo:hi, None] <= re_[None, :]) & (
                rs[None, :] <= le[lo:hi, None]
            )
            # ownership dedup: only the bucket holding max(l.s, r.s)
            m &= (
                np.maximum(ls[lo:hi, None], rs[None, :]) // w == bkt
            )
            li, ri = np.nonzero(m)
            if len(li):
                lis.append(li + lo)
                ris.append(ri)
        if not lis:
            return out_schema.empty_table()
        li = np.concatenate(lis)
        ri = np.concatenate(ris)
        cols = {}
        for c, n in out_l:
            cols[n] = pa.array(L[c].to_numpy()[li], out_schema.field(n).type)
        for c, n in out_r:
            cols[n] = pa.array(R[c].to_numpy()[ri], out_schema.field(n).type)
        return pa.table(cols, schema=out_schema)

    return both.groupby("__bucket").map_groups(
        per_bucket, batch_format="pandas"
    )


def profile_table(
    ds: ray.data.Dataset,
    columns: list[str],
    numeric_cols: list[str] | None = None,
) -> pd.DataFrame:
    """Column profiler — the data-quality summary every ingest runs
    before trusting a new source: per column (n, n_null, n_distinct,
    min/max, mean for numerics, lexicographic bounds for strings).
    Two column-pruned passes, both O(columns) on the driver:

    1. stats partials per batch — (n, nulls, sum, min, max) per column
       are a handful of doubles, merged with a tiny driver reduce;
    2. exact distinct counts via the distinct-(column, value-hash)
       combiner into :func:`grouped_count_distinct` — repeated values
       collapse per batch and the exchange carries 64-bit digests
       (vectorized ``hashing.hash_objects``, the same cross-process-
       deterministic hash content_hash relies on), never the values,
       so wide text columns profile at hash cost. A 64-bit collision
       undercounts a cardinality by 1 with birthday-bound probability
       (~1e-11 at 10^4 distinct values) — the profiler trade, exact
       for practical purposes without shipping the values.

    min/max on strings use byte/codepoint order — identical to SQL's
    default binary collation on VARCHAR. Means are population means
    over non-null values (SQL ``avg``)."""
    num = set(numeric_cols if numeric_cols is not None else columns)

    def stats_partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = b[c]
            nonnull = s.dropna()
            if c in num:
                v = nonnull.to_numpy(dtype=np.float64)
                rows.append((c, len(s), int(s.isna().sum()),
                             float(v.min()) if len(v) else np.nan,
                             float(v.max()) if len(v) else np.nan,
                             float(v.sum()), None, None))
            else:
                sv = nonnull.astype(str)
                rows.append((c, len(s), int(s.isna().sum()),
                             np.nan, np.nan, 0.0,
                             sv.min() if len(sv) else None,
                             sv.max() if len(sv) else None))
        return pd.DataFrame(
            rows, columns=["column", "n", "n_null", "min_num", "max_num",
                           "sum_num", "min_str", "max_str"],
        )

    parts = ds.map_batches(stats_partial, batch_format="pandas").to_pandas()
    merged = parts.groupby("column", as_index=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min_num=("min_num", "min"), max_num=("max_num", "max"),
        sum_num=("sum_num", "sum"),
        # object columns can carry arrow-round-tripped NaN beside
        # strings — skipna manually, "min" on object would compare them
        min_str=("min_str", lambda s: (
            s.dropna().min() if s.notna().any() else None)),
        max_str=("max_str", lambda s: (
            s.dropna().max() if s.notna().any() else None)),
    )

    def hash_pairs(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c in columns:
            vals = b[c].dropna().astype(str).unique()
            outs.append(pd.DataFrame({
                "column": c,
                "h": hash_objects(vals).astype(np.int64),
            }))
        return pd.concat(outs, ignore_index=True)

    nd = grouped_count_distinct(
        ds.map_batches(hash_pairs, batch_format="pandas"), "column", "h"
    )
    out = merged.merge(nd, on="column", how="left")
    nn = (out["n"] - out["n_null"]).to_numpy(dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(nn > 0, out["sum_num"].to_numpy() / nn, np.nan)
    out["mean_num"] = np.where(
        out["column"].isin(sorted(num & set(columns))), mean, np.nan
    )
    out.loc[~out["column"].isin(num), ["min_num", "max_num"]] = np.nan
    out["n"] = out["n"].astype("int64")
    out["n_null"] = out["n_null"].astype("int64")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    for c in ("min_str", "max_str"):  # object-column nulls as None (SQL NULL)
        out[c] = out[c].where(pd.notna(out[c]), None)
    cols = ["column", "n", "n_null", "n_distinct",
            "min_num", "max_num", "mean_num", "min_str", "max_str"]
    return out[cols].sort_values("column").reset_index(drop=True)


def cooccurrence_counts(
    ds: ray.data.Dataset,
    entity_col: str,
    item_col: str,
) -> pd.DataFrame:
    """Pairwise co-occurrence (basket / market-basket support counts):
    for every unordered item pair (a < b), the number of entities that
    carry BOTH — association mining's support table, and the seed for
    PMI / lift scoring. Shape: the distinct-(entity, item) combiner per
    batch (an entity's repeat events collapse before anything moves),
    ONE entity-bucketed groupby, then a bucket-LOCAL vectorized
    self-merge expands each entity's item set into pairs — bounded per
    entity by |item domain|², the operator's documented assumption
    (item domains are enums/categories, never unbounded ids) — and
    per-bucket (a, b) count partials reduce to an O(|domain|²) driver
    merge."""

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        return b[[entity_col, item_col]].drop_duplicates()

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([entity_col, item_col])
        m = g.merge(g, on=entity_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        out = (
            m.groupby([f"{item_col}_a", f"{item_col}_b"], as_index=False)
            .size()
            .rename(columns={
                f"{item_col}_a": "item_a", f"{item_col}_b": "item_b",
                "size": "n",
            })
        )
        if not len(out):
            return pd.DataFrame(
                {"item_a": pd.Series([], dtype="object"),
                 "item_b": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64")}
            )
        return out

    from gene_etl_ray.ops.dedup import bucketed_group_apply

    parts = bucketed_group_apply(
        ds.map_batches(pairs, batch_format="pandas"),
        [entity_col], bucket_counts,
    ).to_pandas()
    if "item_a" not in parts.columns:
        return pd.DataFrame(
            {"item_a": pd.Series([], dtype="object"),
             "item_b": pd.Series([], dtype="object"),
             "n_entities": pd.Series([], dtype="int64")}
        )
    out = (
        parts.groupby(["item_a", "item_b"], as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_entities"})
    )
    out["n_entities"] = out["n_entities"].astype("int64")
    return out.sort_values(["item_a", "item_b"]).reset_index(drop=True)


def scd2_intervals(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    tiebreak: str,
    op_col: str | None = None,
    delete_value: str = "D",
) -> ray.data.Dataset:
    """Slowly-changing-dimension type-2 history: turn a change log into
    validity intervals — per key ordered by (ts, tiebreak), every
    version is valid from its own timestamp until the NEXT version's
    (``valid_to`` NULL on the last), and ``is_current`` marks the last
    version unless it is a delete. The warehouse-side companion of the
    LWW merge: ``latest_per_key`` keeps the winner, this keeps the
    full audit trail with interval semantics.

    Shape: one key-bucketed exchange (``bucketed_group_apply``), then a
    fully vectorized in-bucket sort + per-key shift — no per-key Python
    dispatch, no barrier beyond the single groupby every history
    derivation needs."""
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort")
        nxt = g.groupby(key, sort=False)[ts_col].shift(-1)
        g = g.assign(
            valid_from=g[ts_col],
            valid_to=nxt,
            is_current=nxt.isna()
            & (g[op_col].ne(delete_value) if op_col else True),
        )
        return g.drop(columns=[ts_col])

    return bucketed_group_apply(ds, [key], per_bucket)


def debounce(
    ds: ray.data.Dataset,
    key_cols: list[str],
    ts_col: str,
    min_gap_us: int,
    tiebreak: str | None = None,
) -> ray.data.Dataset:
    """Event debounce (lag semantics): drop a row whose PREVIOUS
    same-key event — in (ts, tiebreak) order — is younger than
    ``min_gap_us``. The monitoring-pipeline noise filter (double-fires,
    retry storms) in its SQL-twinnable form: each row compares to its
    literal predecessor, so one key-bucketed exchange + a vectorized
    in-group shift decides every row (the greedy keep-anchored variant
    is sequential per key and intentionally NOT this operator).
    Returns the kept rows with original columns."""
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    order = [ts_col] + ([tiebreak] if tiebreak else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_cols + order, kind="mergesort")
        prev = g.groupby(key_cols, sort=False)[ts_col].shift(1)
        # integer timedelta compare — total_seconds()*1e6 double-rounds
        # below the threshold for many gap values (boundary rows would
        # silently drop where the SQL twin keeps them)
        keep = prev.isna() | (
            (g[ts_col] - prev) >= pd.Timedelta(microseconds=int(min_gap_us))
        )
        return g[keep.to_numpy()]

    return bucketed_group_apply(ds, key_cols, per_bucket)


def transition_counts(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    item_col: str,
    tiebreak: str,
) -> pd.DataFrame:
    """First-order Markov transition matrix over per-key ordered
    sequences: for every key, order its rows by (ts, tiebreak), pair
    each item with its successor, and count (prev_item → next_item)
    transitions globally, with ``prob`` the row-normalized transition
    probability (count / Σ count over the same prev_item). The sequence
    analog of the co-occurrence operator: co-occurrence asks "appear
    together", transitions ask "follow each other".

    Shape: one key-bucketed exchange (``bucketed_group_apply`` — a
    key's whole sequence lands in exactly one bucket, so adjacency is
    globally exact), vectorized in-bucket sort + per-key shift, and each
    bucket emits item-domain-sized partial counts; the driver merges
    partials bounded by |items|², never by rows. Normalization is a
    closed-form scoring layer over the merged counts."""
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort")
        nxt = g.groupby(key, sort=False)[item_col].shift(-1)
        # a null item forms no transition on EITHER side of the pair
        # (the SQL twin filters both prev and next NULLs the same way)
        m = (nxt.notna() & g[item_col].notna()).to_numpy()
        pairs = pd.DataFrame(
            {"prev_item": g[item_col].to_numpy()[m], "next_item": nxt.to_numpy()[m]}
        )
        out = pairs.groupby(
            ["prev_item", "next_item"], as_index=False, sort=False
        ).size().rename(columns={"size": "n"})
        return out

    parts = bucketed_group_apply(ds, [key], per_bucket).to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {"prev_item": pd.Series([], dtype=object),
             "next_item": pd.Series([], dtype=object),
             "n": pd.array([], dtype="int64"),
             "prob": pd.Series([], dtype="float64")}
        )
    out = parts.groupby(["prev_item", "next_item"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    out["prob"] = out["n"] / out.groupby("prev_item")["n"].transform("sum")
    return out.sort_values(["prev_item", "next_item"]).reset_index(drop=True)


def skew_report(
    ds: ray.data.Dataset,
    id_col: str,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Partition-skew diagnostic for a prospective shuffle key: bucket
    rows by ``id_col % n_buckets`` (numpy floored modulo — negative ids
    wrap into [0, B); deterministic AND SQL-expressible —
    the engine's internal siphash buckets are not, and the diagnostic's
    job is the distribution's SHAPE, which any uniform-ish bucketing
    exposes), then summarize the bucket-size distribution: row count,
    occupied buckets, the heaviest bucket's share, and the Gini
    coefficient of bucket sizes (0 = perfectly even shuffle, →1 = one
    straggler task does everything). The numbers that decide whether a
    key needs salting (``ingest``'s hot-domain salting) BEFORE the
    expensive shuffle runs.
    One pass of tiny per-batch partials; the driver folds ``n_buckets``
    integers."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        blk = b[id_col].to_numpy(dtype=np.int64) % n_buckets
        u, c = np.unique(blk, return_counts=True)
        return pd.DataFrame({"b": u, "c": c})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    counts = np.zeros(n_buckets, dtype=np.int64)
    if len(parts):
        np.add.at(counts, parts["b"].to_numpy(), parts["c"].to_numpy())
    n = int(counts.sum())
    occupied = int((counts > 0).sum())
    if n == 0:
        return pd.DataFrame({"n_rows": pd.array([0], dtype="int64"),
                             "n_buckets_occupied": pd.array([0], dtype="int64"),
                             "max_share": [float("nan")],
                             "gini": [float("nan")]})
    x = np.sort(counts.astype(np.float64))
    m = float(n_buckets)
    # standard sorted-rank Gini over ALL n_buckets cells (empties count:
    # an empty bucket IS skew for the shuffle)
    gini = float((2.0 * np.sum(np.arange(1, n_buckets + 1) * x))
                 / (m * x.sum()) - (m + 1.0) / m)
    return pd.DataFrame({
        "n_rows": pd.array([n], dtype="int64"),
        "n_buckets_occupied": pd.array([occupied], dtype="int64"),
        "max_share": [float(counts.max()) / n],
        "gini": [gini],
    })
