"""Query registry: one entry per operator family from SURVEY §2, plus the
training-data ops (dedup / text / similarity / multimodal) — each a
callable(sf_dir) returning a Dataset / pandas DataFrame, with matching
DuckDB oracle SQL where the semantics are SQL-expressible.

Conventions (driver contract, __ray_entry__.py):
- aggregate/computed columns carry identical names in Ray and SQL;
- float aggregates are ROUNDED on both sides (absorbs summation-order
  ulp differences between numpy partials and DuckDB);
- top-k ties are broken by an explicit deterministic key on both sides.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from gene_etl_ray.ops import dedup, knn, multimodal, relational, text
from gene_etl_ray.ops.util import per_process
from gene_etl_ray.ops.relational import broadcast_join, grouped_aggregate_partial, read

_HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# relational family (filters M1/M2, joins J1/J5, aggs A1-A11, top-k K1-K4)
# ---------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: grouped sums/avgs with per-batch partial
    aggregation (A9/A10 analog, ``models.py:268-284``)."""
    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
               "l_discount", "l_shipdate"])
    cutoff = pa.scalar(pd.Timestamp("1998-09-01"), type=pa.timestamp("us"))

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b.column("l_shipdate"), cutoff))
        disc = pc.multiply(b.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return b.append_column("disc_price", disc)

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = grouped_aggregate_partial(
        prepped, ["l_returnflag", "l_linestatus"],
        sums={"sum_qty": "l_quantity", "sum_base_price": "l_extendedprice",
              "sum_disc_price": "disc_price"},
        counts="count_order",
    )
    out["avg_qty"] = (out["sum_qty"] / out["count_order"]).round(6)
    out["sum_qty"] = out["sum_qty"].round(2)
    out["sum_base_price"] = out["sum_base_price"].round(2)
    out["sum_disc_price"] = out["sum_disc_price"].round(2)
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                        AS sum_qty,
       round(sum(l_extendedprice), 2)                   AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(sum(l_quantity) / count(*), 6)             AS avg_qty,
       count(*)                                         AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q3_top_orders(sf_dir: str) -> pd.DataFrame:
    """Top-10 revenue orders for one segment — fully distributed: exact
    partitioned hash joins on both fact edges (customer⋈orders on
    custkey, then orders⋈lineitem on orderkey), with the per-order
    revenue sum AND the bucket-local top-10 folded into the second
    join's bucket pass (J4). The driver only merges B×10 candidate
    rows — no fact table is ever materialized driver-side."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust_b = cust.map_batches(
        lambda b: b.filter(pc.equal(b.column("c_mktsegment"), pa.scalar("BUILDING")))
        .select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders_b = relational.partitioned_join(
        orders, cust_b, "o_custkey", "c_custkey",
        bucket_post=lambda t: t.select(["o_orderkey", "o_orderdate"]),
    )

    li = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return b.append_column("rev", r).select(["l_orderkey", "rev"])

    def local_top(t: pa.Table) -> pa.Table:
        # the bucket holds EVERY lineitem of each of its orders, so the
        # per-order sum is complete here; local top-10 under the same
        # total order as the global merge keeps the candidate set tiny
        agg = t.group_by(["l_orderkey", "o_orderdate"]).aggregate([("rev", "sum")])
        # np.round, not pc.round: the two disagree on sums within float
        # error of a half cent
        agg = agg.append_column(
            "revenue", pa.array(np.round(agg.column("rev_sum").to_numpy(), 2)))
        return agg.drop_columns(["rev_sum"]).sort_by(
            [("revenue", "descending"), ("l_orderkey", "ascending")]
        ).slice(0, 10)

    cands = relational.partitioned_join(
        li.map_batches(rev, batch_format="pyarrow"), orders_b,
        "l_orderkey", "o_orderkey", bucket_post=local_top,
    ).to_pandas()
    top = cands.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).head(10)
    top["l_orderkey"] = top["l_orderkey"].astype("int64")
    return top[["l_orderkey", "revenue", "o_orderdate"]].reset_index(drop=True)


Q3_SQL = """
SELECT l_orderkey,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       o_orderdate
FROM customer JOIN orders ON c_custkey = o_custkey
             JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def q5_nation_revenue(sf_dir: str) -> pd.DataFrame:
    """Revenue per nation: the TRUE dims (region⋈nation⋈customer) are
    broadcast, but the two facts (lineitem⋈orders) go through the
    partitioned hash join with the per-custkey partial revenue folded
    into the join's bucket pass — orders is never materialized
    driver-side. The driver then only merges tiny per-(custkey, bucket)
    partials against the broadcast customer→nation map (J5 analog,
    scale-safe form)."""
    nation = read(sf_dir, "nation").to_pandas()
    region = read(sf_dir, "region").to_pandas()
    cust = read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    cust_nation = cust.merge(dim, left_on="c_nationkey", right_on="n_nationkey")[
        ["c_custkey", "n_name", "r_name"]
    ]

    li = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return b.append_column("rev", r).select(["l_orderkey", "rev"])

    def per_cust(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("rev", "sum"), ([], "count_all")])
        return pa.table({"o_custkey": g["o_custkey"], "rev_sum": g["rev_sum"],
                         "n_items": g["count_all"]})

    partials = relational.partitioned_join(
        li.map_batches(rev, batch_format="pyarrow"), orders,
        "l_orderkey", "o_orderkey", bucket_post=per_cust,
    ).to_pandas()  # one row per (custkey, bucket) — tiny
    partials["o_custkey"] = partials["o_custkey"].astype("int64")
    joined = partials.merge(cust_nation, left_on="o_custkey", right_on="c_custkey")
    out = joined.groupby(["n_name", "r_name"], as_index=False).agg(
        revenue=("rev_sum", "sum"), n_items=("n_items", "sum")
    )
    out["revenue"] = out["revenue"].round(2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("n_name").reset_index(drop=True)


Q5_SQL = """
SELECT n_name, r_name,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders   ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN nation   ON c_nationkey = n_nationkey
              JOIN region   ON n_regionkey = r_regionkey
GROUP BY n_name, r_name
ORDER BY n_name
"""


def filter_high_value_orders(sf_dir: str) -> ray.data.Dataset:
    """Vectorized filter + projection (M1/M2)."""
    ds = read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus"])

    def fn(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater(b.column("o_totalprice"), 200000.0),
                    pc.equal(b.column("o_orderstatus"), "O"))
        return b.filter(m).select(["o_orderkey", "o_custkey", "o_totalprice"])

    return ds.map_batches(fn, batch_format="pyarrow")


FILTER_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders WHERE o_totalprice > 200000 AND o_orderstatus = 'O'
"""


def part_topk_price(sf_dir: str) -> pd.DataFrame:
    """Global top-k without a full sort (K1/K2, ``filters.py:82-88``)."""
    ds = read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    return relational.top_k(ds, "p_retailprice", 10, extra_sort=["p_partkey"])


PART_TOPK_SQL = """
SELECT p_partkey, p_name, p_retailprice
FROM part ORDER BY p_retailprice DESC, p_partkey DESC LIMIT 10
"""


def events_lww_latest(sf_dir: str) -> ray.data.Dataset:
    """Latest event per user by (ts, event_id) — the LWW merge kernel as a
    relational operator (D2 analog), SQL-checkable."""
    ds = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    return relational.latest_per_key(ds, "user_id", ["ts", "event_id"])


LWW_SQL = """
SELECT event_id, ts, user_id, event_type, value
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def events_hourly_stats(sf_dir: str) -> pd.DataFrame:
    """Tumbling-window grouped aggregate (streaming-shaped workload —
    SURVEY §2.9: window id as derived column + grouped agg)."""
    ds = read(sf_dir, "events", ["ts", "event_type", "value"])
    out = relational.windowed_agg(ds, "event_type", "ts", _HOUR_US, "value")
    out["window_start"] = pd.to_datetime(out["window_start"], unit="us").astype(
        "datetime64[us]"  # match DuckDB's microsecond unit exactly
    )
    out["value_sum"] = out["value_sum"].round(6)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


HOURLY_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       round(sum(value), 6) AS value_sum, count(*) AS n_events
FROM events GROUP BY event_type, window_start
ORDER BY event_type, window_start
"""


def events_hourly_gapfill(sf_dir: str) -> pd.DataFrame:
    """Dense time-spine gap-fill (monitoring's zero-fill): hourly event
    counts per type with MISSING hours emitted as 0 across the global
    [min, max] hour span. The aggregate runs distributed (per-batch
    partials, exchange carries (type, hour) partials); the densify runs
    on the AGGREGATE — output-sized by construction (hours × types), the
    only place a spine join belongs at 100 TB."""
    ds = read(sf_dir, "events", ["ts", "event_type", "value"])
    agg = relational.windowed_agg(ds, "event_type", "ts", _HOUR_US, "value")
    hours = np.arange(
        int(agg["window_start"].min()),
        int(agg["window_start"].max()) + _HOUR_US,
        _HOUR_US,
        dtype=np.int64,
    )
    types = sorted(agg["event_type"].unique())
    dense = pd.MultiIndex.from_product(
        [types, hours], names=["event_type", "window_start"]
    ).to_frame(index=False)
    out = dense.merge(
        agg[["event_type", "window_start", "n_events"]],
        on=["event_type", "window_start"],
        how="left",
    )
    out["n_events"] = out["n_events"].fillna(0).astype("int64")
    out["window_start"] = pd.to_datetime(
        out["window_start"], unit="us"
    ).astype("datetime64[us]")
    return out.sort_values(["event_type", "window_start"]).reset_index(
        drop=True
    )


HOURLY_GAPFILL_SQL = """
WITH agg AS (
  SELECT event_type, date_trunc('hour', ts) AS h, count(*) AS n_events
  FROM events GROUP BY 1, 2
),
span AS (
  SELECT unnest(generate_series(
    (SELECT min(h) FROM agg), (SELECT max(h) FROM agg),
    INTERVAL 1 HOUR)) AS h
),
types AS (SELECT DISTINCT event_type FROM events)
SELECT t.event_type, s.h AS window_start,
       COALESCE(a.n_events, 0) AS n_events
FROM span s CROSS JOIN types t
LEFT JOIN agg a ON a.event_type = t.event_type AND a.h = s.h
ORDER BY t.event_type, window_start
"""


def events_hourly_acf(sf_dir: str) -> pd.DataFrame:
    """Per-type autocorrelation of the hourly event-count series at
    lags 1–3 (traffic periodicity / burstiness detection). The count
    aggregate runs distributed exactly as ``events_hourly_gapfill``;
    the ACF — Pearson between the zero-filled series and its lag —
    runs on the AGGREGATE, which is output-sized (hours × types) by
    construction, the only place a lag-correlation belongs at 100 TB."""
    dense = events_hourly_gapfill(sf_dir)
    rows = []
    for etype, sub in dense.groupby("event_type", sort=True):
        x = sub.sort_values("window_start")["n_events"].to_numpy(np.float64)
        for k in (1, 2, 3):
            if len(x) > k + 1 and x[k:].std() > 0 and x[:-k].std() > 0:
                r = float(np.corrcoef(x[k:], x[:-k])[0, 1])
            else:
                r = np.nan
            rows.append((etype, np.int64(k), round(r, 6)))
    return pd.DataFrame(rows, columns=["event_type", "lag_h", "acf"])


HOURLY_ACF_SQL = """
WITH agg AS (
  SELECT event_type, date_trunc('hour', ts) AS h, count(*) AS n_events
  FROM events GROUP BY 1, 2
),
span AS (
  SELECT unnest(generate_series(
    (SELECT min(h) FROM agg), (SELECT max(h) FROM agg),
    INTERVAL 1 HOUR)) AS h
),
types AS (SELECT DISTINCT event_type FROM events),
dense AS (
  SELECT t.event_type, s.h, COALESCE(a.n_events, 0) AS n
  FROM span s CROSS JOIN types t
  LEFT JOIN agg a ON a.event_type = t.event_type AND a.h = s.h
),
l AS (
  SELECT event_type, n,
         lag(n, 1) OVER w AS l1,
         lag(n, 2) OVER w AS l2,
         lag(n, 3) OVER w AS l3
  FROM dense WINDOW w AS (PARTITION BY event_type ORDER BY h)
)
SELECT event_type, lag_h, acf FROM (
  SELECT event_type, 1 AS lag_h, round(corr(n, l1), 6) AS acf
  FROM l WHERE l1 IS NOT NULL GROUP BY event_type
  UNION ALL
  SELECT event_type, 2, round(corr(n, l2), 6)
  FROM l WHERE l2 IS NOT NULL GROUP BY event_type
  UNION ALL
  SELECT event_type, 3, round(corr(n, l3), 6)
  FROM l WHERE l3 IS NOT NULL GROUP BY event_type
) ORDER BY event_type, lag_h
"""


def events_hourly_ewma(sf_dir: str) -> pd.DataFrame:
    """Exponentially weighted moving average (α = 0.3, adjust=False —
    the streaming smoother: y₁ = x₁, yₜ = α·xₜ + (1−α)·yₜ₋₁) over each
    type's zero-filled hourly count series. Like the ACF, the recursion
    runs on the OUTPUT-SIZED aggregate (hours × types). The SQL twin
    unrolls the recursion to a scaled cumulative sum — exact to double
    precision for spans ≤ ~2000 hours at this α (pow(0.7,−r) stays
    under 1e308; terms older than ~110 hours fall below double epsilon
    on both sides identically)."""
    dense = events_hourly_gapfill(sf_dir)
    span = dense.groupby("event_type").size().max()
    if span > 1900:  # pow(0.7, -r) overflows double near r ~ 1988
        raise ValueError(
            f"hourly span {span} exceeds the EWMA oracle's double-"
            "precision bound (~1900 rows at alpha=0.3); shrink the "
            "window or raise alpha"
        )
    outs = []
    for etype, sub in dense.groupby("event_type", sort=True):
        sub = sub.sort_values("window_start").reset_index(drop=True)
        sub["ewma"] = (
            sub["n_events"].astype("float64")
            .ewm(alpha=0.3, adjust=False).mean().round(4)
        )
        outs.append(sub[["event_type", "window_start", "ewma"]])
    return pd.concat(outs, ignore_index=True)


HOURLY_EWMA_SQL = """
WITH agg AS (
  SELECT event_type, date_trunc('hour', ts) AS h, count(*) AS n_events
  FROM events GROUP BY 1, 2
),
span AS (
  SELECT unnest(generate_series(
    (SELECT min(h) FROM agg), (SELECT max(h) FROM agg),
    INTERVAL 1 HOUR)) AS h
),
types AS (SELECT DISTINCT event_type FROM events),
dense AS (
  SELECT t.event_type, s.h, COALESCE(a.n_events, 0) AS n
  FROM span s CROSS JOIN types t
  LEFT JOIN agg a ON a.event_type = t.event_type AND a.h = s.h
),
l AS (
  SELECT event_type, h, n,
         row_number() OVER (PARTITION BY event_type ORDER BY h) AS r
  FROM dense
)
SELECT event_type, h AS window_start,
       round(pow(0.7, r) * sum(
         CASE WHEN r = 1 THEN n / 0.7 ELSE 0.3 * n * pow(0.7, -r) END
       ) OVER (PARTITION BY event_type ORDER BY r), 4) AS ewma
FROM l ORDER BY event_type, window_start
"""


def events_hourly_anomalies(sf_dir: str) -> pd.DataFrame:
    """Traffic-anomaly flags: hours where a type's zero-filled count
    sits more than 3 population-σ from that type's mean — the
    monitoring alert query on top of the shared gapfill aggregate
    (output-sized, like the ACF/EWMA siblings)."""
    dense = events_hourly_gapfill(sf_dir)
    st = dense.groupby("event_type")["n_events"].agg(["mean", "std"])
    st["std"] *= np.sqrt(
        (dense.groupby("event_type").size() - 1)
        / dense.groupby("event_type").size()
    )  # population σ (SQL stddev_pop)
    m = dense.merge(st, left_on="event_type", right_index=True)
    z = (m["n_events"] - m["mean"]) / m["std"]
    out = m.loc[(m["std"] > 0) & (z.abs() > 3),
                ["event_type", "window_start", "n_events"]].copy()
    out["z"] = z[out.index].round(4)
    return out.sort_values(
        ["event_type", "window_start"]
    ).reset_index(drop=True)


HOURLY_ANOMALY_SQL = """
WITH agg AS (
  SELECT event_type, date_trunc('hour', ts) AS h, count(*) AS n
  FROM events GROUP BY 1, 2
),
span AS (
  SELECT unnest(generate_series(
    (SELECT min(h) FROM agg), (SELECT max(h) FROM agg),
    INTERVAL 1 HOUR)) AS h
),
types AS (SELECT DISTINCT event_type FROM events),
dense AS (
  SELECT t.event_type, s.h, COALESCE(a.n, 0) AS n
  FROM span s CROSS JOIN types t
  LEFT JOIN agg a ON a.event_type = t.event_type AND a.h = s.h
),
st AS (
  SELECT event_type, avg(n) AS m, stddev_pop(n) AS sd
  FROM dense GROUP BY 1
)
SELECT d.event_type, d.h AS window_start, d.n AS n_events,
       round((d.n - st.m) / st.sd, 4) AS z
FROM dense d JOIN st USING (event_type)
WHERE st.sd > 0 AND abs(d.n - st.m) / st.sd > 3
ORDER BY d.event_type, window_start
"""


def lineitem_trimmed_mean_by_flag(sf_dir: str) -> pd.DataFrame:
    """10%-trimmed mean per returnflag — the robust-location statistic
    beside MAD/IQR: a full-group barrier op (A7 family — exact ranks
    need the whole group co-located), one hash shuffle on the flag,
    vectorized in-group sort + slice."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["l_quantity"].to_numpy(np.float64))
        k = int(len(v) * 0.1)
        core = v[k:len(v) - k]
        if not len(core):
            return g.iloc[:0][["l_returnflag"]].assign(
                n_kept=pd.Series([], dtype="int64"),
                trimmed_mean=pd.Series([], dtype="float64"),
            )
        return pd.DataFrame(
            {"l_returnflag": [g["l_returnflag"].iloc[0]],
             "n_kept": [np.int64(len(core))],
             "trimmed_mean": [round(float(core.mean()), 6)]}
        )

    out = (
        ds.groupby("l_returnflag")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()
    )
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


TRIMMED_MEAN_SQL = """
WITH r AS (
  SELECT l_returnflag, l_quantity,
         row_number() OVER (
           PARTITION BY l_returnflag ORDER BY l_quantity) AS rn,
         count(*) OVER (PARTITION BY l_returnflag) AS n
  FROM lineitem
)
SELECT l_returnflag, count(*) AS n_kept,
       round(avg(l_quantity), 6) AS trimmed_mean
FROM r
WHERE rn > floor(n * 0.1) AND rn <= n - floor(n * 0.1)
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_daily_trending(sf_dir: str) -> pd.DataFrame:
    """Trending feed: each day's top-2 event types by count —
    (day, type) count partials through ``grouped_aggregate_partial``
    (no all-to-all), per-day rank on the output-sized aggregate,
    ties broken by type ascending."""
    ds = read(sf_dir, "events", ["ts", "event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b["day"] = b["ts"].dt.floor("D")
        return b[["day", "event_type"]]

    agg = grouped_aggregate_partial(
        ds.map_batches(prep, batch_format="pandas"),
        ["day", "event_type"], sums={}, counts="n",
    )
    agg = agg.sort_values(
        ["day", "n", "event_type"], ascending=[True, False, True],
        kind="mergesort",
    )
    out = agg.groupby("day", as_index=False).head(2).astype({"n": "int64"})
    return out[["day", "event_type", "n"]].sort_values(
        ["day", "n", "event_type"], ascending=[True, False, True]
    ).reset_index(drop=True)


DAILY_TRENDING_SQL = """
SELECT day, event_type, n FROM (
  SELECT date_trunc('day', ts) AS day, event_type, count(*) AS n
  FROM events GROUP BY 1, 2
)
QUALIFY row_number() OVER (
  PARTITION BY day ORDER BY n DESC, event_type) <= 2
ORDER BY day, n DESC, event_type
"""


def events_user_sessions(sf_dir: str) -> pd.DataFrame:
    """Gap-based session windows per user (30-min gap): one row per
    session with start/end/count — streaming-shaped workload expressed as
    key shuffle + in-group vectorized windowing (SURVEY §2.9)."""
    ds = read(sf_dir, "events", ["user_id", "ts"])
    out = relational.sessionize(ds, "user_id", "ts", gap_us=30 * 60 * 1_000_000)
    return (
        out.to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )


SESSIONS_SQL = """
WITH d AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sid
ORDER BY user_id, session_start
"""


def distinct_event_types(sf_dir: str) -> pd.DataFrame:
    """Distinct (A11, ``io.py:280-287``) via per-batch partial sets."""
    ds = read(sf_dir, "events", ["event_type"])
    parts = ds.map_batches(
        lambda b: b.drop_duplicates(), batch_format="pandas"
    ).to_pandas()
    return parts.drop_duplicates().sort_values("event_type").reset_index(drop=True)


DISTINCT_SQL = "SELECT DISTINCT event_type FROM events ORDER BY event_type"


def customer_segment_stats(sf_dir: str) -> pd.DataFrame:
    """Grouped summary stats (A9/A10)."""
    ds = read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])
    df = ds.to_pandas()  # customer is a dim-sized table
    g = df.groupby("c_mktsegment", as_index=False).agg(
        n_customers=("c_acctbal", "size"),
        avg_acctbal=("c_acctbal", "mean"),
        min_acctbal=("c_acctbal", "min"),
        max_acctbal=("c_acctbal", "max"),
    )
    g["avg_acctbal"] = g["avg_acctbal"].round(6)
    g["min_acctbal"] = g["min_acctbal"].round(2)
    g["max_acctbal"] = g["max_acctbal"].round(2)
    return g.sort_values("c_mktsegment").reset_index(drop=True)


SEGMENT_SQL = """
SELECT c_mktsegment,
       count(*) AS n_customers,
       round(avg(c_acctbal), 6) AS avg_acctbal,
       round(min(c_acctbal), 2) AS min_acctbal,
       round(max(c_acctbal), 2) AS max_acctbal
FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def supplier_nation_enrich(sf_dir: str) -> ray.data.Dataset:
    """3-way broadcast dim enrichment (J5, ``app.py:256-268``)."""
    nation = read(sf_dir, "nation").to_pandas()
    region = read(sf_dir, "region").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "n_name", "r_name"]
    ]
    ds = read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
    joined = broadcast_join(ds, dim, on="s_nationkey", right_on="n_nationkey")
    return joined.map_batches(
        lambda b: b[["s_suppkey", "s_name", "n_name", "r_name"]], batch_format="pandas"
    )


SUPPLIER_SQL = """
SELECT s_suppkey, s_name, n_name, r_name
FROM supplier JOIN nation ON s_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
"""


def orders_rank(sf_dir: str) -> pd.DataFrame:
    """Global rank (K3, ``models.py:244`` ROW_NUMBER): top-100 by
    totalprice with explicit tiebreak."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = relational.top_k(ds, "o_totalprice", 100, extra_sort=["o_orderkey"])
    top = top.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, False])
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top.reset_index(drop=True)


RANK_SQL = """
SELECT o_orderkey, o_totalprice,
       row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey DESC) AS rank
FROM orders ORDER BY o_totalprice DESC, o_orderkey DESC LIMIT 100
"""


def top2_orders_per_status(sf_dir: str) -> pd.DataFrame:
    """Grouped top-k (K1 per-group shape, ``filters.py:82-88``): the two
    highest-value orders per status — groupby + in-group vectorized
    head(k), deterministic tiebreak."""
    ds = read(sf_dir, "orders", ["o_orderstatus", "o_orderkey", "o_totalprice"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, False]
        ).head(2)

    out = ds.groupby("o_orderstatus").map_groups(topk, batch_format="pandas").to_pandas()
    return out.sort_values(["o_orderstatus", "o_totalprice", "o_orderkey"],
                           ascending=[True, False, False]).reset_index(drop=True)


TOP2_SQL = """
SELECT o_orderstatus, o_orderkey, o_totalprice
FROM orders
QUALIFY row_number() OVER (
    PARTITION BY o_orderstatus ORDER BY o_totalprice DESC, o_orderkey DESC
) <= 2
ORDER BY o_orderstatus, o_totalprice DESC, o_orderkey DESC
"""


def orders_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-customer running total ordered by (date, orderkey) — the
    ordered-window-function shape (K3 family): one hash shuffle on the
    key, vectorized cumsum within each ordered group."""
    ds = read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderdate", "o_orderkey"], kind="mergesort")
        g["running_total"] = g["o_totalprice"].cumsum().round(2)
        return g[["o_custkey", "o_orderkey", "running_total"]]

    # return the Dataset: the window output is as large as the input, so
    # it must stream to whatever sink collects it, not materialize here
    # (the driver's compare is row-order-insensitive)
    return ds.groupby("o_custkey").map_groups(running, batch_format="pandas")


RUNNING_SQL = """
SELECT o_custkey, o_orderkey,
       round(sum(o_totalprice) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
           ROWS UNBOUNDED PRECEDING), 2) AS running_total
FROM orders ORDER BY o_custkey, o_orderkey
"""


def orders_moving_avg(sf_dir: str) -> ray.data.Dataset:
    """Per-customer SLIDING window frame (5-order moving average over the
    (date, orderkey) ordering): one hash shuffle on the key, vectorized
    ``rolling`` within each ordered group — the bounded-frame sibling of
    :func:`orders_running_total`'s unbounded frame."""
    ds = read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def moving(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderdate", "o_orderkey"], kind="mergesort")
        # moving SUM, not avg: prices are exact multiples of 0.01, so the
        # true window value is ≥ 0.005 from every round(2) boundary and a
        # 1-ulp accumulation difference vs the SQL engine can never flip
        # the rounding (avg/5 lands exactly ON half-cent ties and did)
        g["moving_sum"] = (
            g["o_totalprice"].rolling(5, min_periods=1).sum().round(2)
        )
        return g[["o_custkey", "o_orderkey", "moving_sum"]]

    return ds.groupby("o_custkey").map_groups(moving, batch_format="pandas")


MOVING_AVG_SQL = """
SELECT o_custkey, o_orderkey,
       round(sum(o_totalprice) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 2) AS moving_sum
FROM orders ORDER BY o_custkey, o_orderkey
"""


def docs_term_df(sf_dir: str) -> pd.DataFrame:
    """Explode/flat-map aggregate: term → document frequency, top-200.
    Per batch each doc's DISTINCT terms are pre-counted (the combiner — a
    batch emits ≤ its vocabulary, never its raw token stream); the
    vocab-sized partials hash-shuffle to a per-term sum; per-block
    partial top-k with boundary-tie widening, then a driver merge of
    ≤ blocks × k rows."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    K = 200

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lists = b["text"].fillna("").str.split().tolist()
        lens = np.fromiter((len(t) for t in lists), dtype=np.int64, count=len(lists))
        if lens.sum() == 0:
            return pd.DataFrame(
                {"term": pd.Series([], dtype="object"), "df": pd.Series([], dtype="int64")}
            )
        terms = np.concatenate([np.asarray(t, dtype=object) for t in lists if t])
        ridx = np.repeat(np.arange(len(lists)), lens)
        pairs = pd.DataFrame({"r": ridx, "term": terms}).drop_duplicates()
        return pairs.groupby("term", as_index=False).size().rename(columns={"size": "df"})

    out = relational.grouped_sum_topk(
        ds.map_batches(partial, batch_format="pandas"), "term", "df", K
    )
    out["df"] = out["df"].astype("int64")
    return out[["term", "df"]]


# `term <> ''` mirrors the engine's str.split(), which never emits empty
# tokens (string_split_regex yields '' for empty text or non-space
# whitespace at the edges — trim() strips spaces only)
TERM_DF_SQL = r"""
SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
FROM (SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
      FROM documents)
WHERE term <> ''
GROUP BY term ORDER BY df DESC, term LIMIT 200
"""


def docs_zipf_slope(sf_dir: str) -> pd.DataFrame:
    """Zipf's-law corpus statistic: OLS slope of ln(term frequency) on
    ln(rank) over the top-100 terms by TOTAL count — the classic
    power-law fingerprint a corpus-analysis pass reports (natural text
    ≈ −1; boilerplate floods flatten it). Distributed term counts via
    the vocab-sized per-batch combiner (a batch emits ≤ its vocabulary,
    never its token stream) + one grouped sum; rank ties pinned by
    (count desc, term asc) row_number so both engines fit the same 100
    points. Twin: string_split + regr_slope/regr_intercept."""
    from gene_etl_ray.ops.relational import grouped_sum_topk

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    K = 100

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lists = b["text"].fillna("").str.split().tolist()
        toks = [t for sub in lists for t in sub]
        if not toks:
            return pd.DataFrame({"term": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        s = pd.Series(toks, dtype=object).value_counts()
        return pd.DataFrame({"term": s.index.to_numpy(object),
                             "n": s.to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas")
    top = grouped_sum_topk(parts, "term", "n", K)
    top = top.sort_values(["n", "term"], ascending=[False, True],
                          kind="mergesort").head(K).reset_index(drop=True)
    x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
    y = np.log(top["n"].to_numpy(np.float64))
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    intercept = float(ym - slope * xm)
    return pd.DataFrame({
        "zipf_slope": [round(slope, 6)],
        "zipf_intercept": [round(intercept, 6)],
        "n_terms": [np.int64(len(top))],
    })


ZIPF_SQL = r"""
WITH tf AS (
  SELECT term, CAST(count(*) AS DOUBLE) AS n
  FROM (SELECT unnest(string_split_regex(trim(text), '\s+')) AS term
        FROM documents)
  WHERE term <> ''
  GROUP BY term ORDER BY n DESC, term LIMIT 100),
rk AS (
  SELECT ln(CAST(row_number() OVER (ORDER BY n DESC, term) AS DOUBLE))
           AS x,
         ln(n) AS y
  FROM tf)
SELECT round(regr_slope(y, x), 6) AS zipf_slope,
       round(regr_intercept(y, x), 6) AS zipf_intercept,
       CAST(count(*) AS BIGINT) AS n_terms
FROM rk
"""


def docs_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Distributed inverted-index build (``text.inverted_index``):
    term → (df, sorted posting list) via the distinct-pair combiner +
    ONE vocab-keyed groupby; posting lists serialize as comma-joined
    sorted ids so the whole structure sits under the value-hash gate.
    Terms past the ``max_postings`` stop-list bound keep their df but
    elide the list (rule pinned by unit test)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    return text.inverted_index(ds, max_postings=10000)


INVERTED_INDEX_SQL = r"""
WITH pairs AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
    FROM documents
  ) WHERE term <> ''
)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       CASE WHEN count(*) <= 10000
            THEN string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
            END AS postings
FROM pairs GROUP BY term ORDER BY term
"""


def lineitem_geomean_by_flag(sf_dir: str) -> pd.DataFrame:
    """Geometric + harmonic means per returnflag — the multiplicative /
    rate-style companions of avg, both fully mergeable (Σ ln x and
    Σ 1/x partials through ``grouped_aggregate_partial``, O(groups)
    driver bytes). Quantities are strictly positive in the schema, the
    domain both means require."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        q = b.column("l_quantity")
        b = b.append_column("ln_q", pc.ln(q))
        return b.append_column("inv_q", pc.divide(pa.scalar(1.0), q))

    out = grouped_aggregate_partial(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag"],
        sums={"s_ln": "ln_q", "s_inv": "inv_q"},
        counts="n",
    )
    out["geo_mean"] = np.exp(out["s_ln"] / out["n"]).round(6)
    out["harm_mean"] = (out["n"] / out["s_inv"]).round(6)
    out["n"] = out["n"].astype("int64")
    out = out[["l_returnflag", "n", "geo_mean", "harm_mean"]]
    return out.sort_values("l_returnflag").reset_index(drop=True)


GEOMEAN_SQL = """
SELECT l_returnflag, count(*) AS n,
       round(exp(avg(ln(l_quantity))), 6) AS geo_mean,
       round(count(*) / sum(1.0 / l_quantity), 6) AS harm_mean
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_type_lift(sf_dir: str) -> pd.DataFrame:
    """Association lift per event-type pair:
    lift = P(a ∧ b) / (P(a)·P(b)) = n_ab·N / (n_a·n_b) over distinct
    users — the scoring layer on ``relational.cooccurrence_counts``
    (support), with the per-item and total cardinalities from the same
    distinct-pair combiner family. All three inputs are O(|domain|)
    driver bytes; the arithmetic is closed-form under the SQL gate."""
    ds = read(sf_dir, "events", ["user_id", "event_type"])
    # ONE scan: the distinct-(user, type) pair table feeds all three
    # cardinalities (support pairs, per-item, total) — materialized so
    # the lazy chain isn't re-executed per consumer
    pair_ds = ds.map_batches(
        lambda b: b[["user_id", "event_type"]].drop_duplicates(),
        batch_format="pandas",
    ).materialize()
    pairs = relational.cooccurrence_counts(pair_ds, "user_id", "event_type")
    per_item = relational.grouped_count_distinct(
        pair_ds, "event_type", "user_id", out="n_item"
    )
    n_total = int(
        relational.grouped_count_distinct(
            pair_ds.map_batches(
                lambda b: b.assign(__one=np.int64(1)),
                batch_format="pandas",
            ),
            "__one", "user_id", out="n",
        )["n"].iloc[0]
    )
    m = dict(zip(per_item["event_type"], per_item["n_item"]))
    na = pairs["item_a"].map(m).to_numpy(dtype=np.float64)
    nb = pairs["item_b"].map(m).to_numpy(dtype=np.float64)
    pairs["lift"] = (
        pairs["n_entities"].to_numpy(np.float64) * n_total / (na * nb)
    ).round(6)
    return pairs.sort_values(["item_a", "item_b"]).reset_index(drop=True)


LIFT_SQL = """
WITH p AS (SELECT DISTINCT user_id, event_type FROM events),
co AS (
  SELECT a.event_type AS item_a, b.event_type AS item_b,
         count(*) AS n_entities
  FROM p a JOIN p b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
),
item AS (SELECT event_type, count(*) AS n_item FROM p GROUP BY 1),
tot AS (SELECT count(DISTINCT user_id) AS n FROM events)
SELECT co.item_a, co.item_b, co.n_entities,
       round(co.n_entities * tot.n / (ia.n_item * 1.0 * ib.n_item), 6)
         AS lift
FROM co, tot
JOIN item ia ON ia.event_type = co.item_a
JOIN item ib ON ib.event_type = co.item_b
ORDER BY co.item_a, co.item_b
"""


def events_debounced(sf_dir: str) -> pd.DataFrame:
    """Noise filter (``relational.debounce``): drop an event whose
    previous same-(user, type) event is < 10 minutes older — double-
    fire / retry-storm suppression in its lag-twinnable form. One
    key-bucketed exchange, vectorized in-group shift."""
    ds = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out = relational.debounce(
        ds, ["user_id", "event_type"], "ts",
        min_gap_us=10 * 60 * 1_000_000, tiebreak="event_id",
    ).to_pandas()
    return (
        out[["event_id", "user_id", "event_type", "ts"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


DEBOUNCE_SQL = """
SELECT event_id, user_id, event_type, ts FROM events
WINDOW w AS (PARTITION BY user_id, event_type ORDER BY ts, event_id)
QUALIFY lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w >= INTERVAL 10 MINUTE
ORDER BY event_id
"""


def events_type_cooccurrence(sf_dir: str) -> pd.DataFrame:
    """Basket analysis (``relational.cooccurrence_counts``): for every
    unordered event-type pair, how many users performed both — the
    association-mining support table. Distinct-(user, type) combiner,
    one user-bucketed groupby, bucket-local vectorized self-merge,
    O(|types|²) driver merge."""
    ds = read(sf_dir, "events", ["user_id", "event_type"])
    return relational.cooccurrence_counts(ds, "user_id", "event_type")


COOCCURRENCE_SQL = """
WITH p AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS item_a, b.event_type AS item_b,
       count(*) AS n_entities
FROM p a JOIN p b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def docs_profile(sf_dir: str) -> pd.DataFrame:
    """Column profiler (``relational.profile_table``) over documents:
    per-column n / nulls / exact distinct / numeric bounds + mean /
    lexicographic string bounds — two column-pruned passes, O(columns)
    driver bytes, distinct counts via the 64-bit-digest pair combiner."""
    ds = read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    out = relational.profile_table(
        ds, ["doc_id", "lang", "source", "n_chars"],
        numeric_cols=["doc_id", "n_chars"],
    )
    out["mean_num"] = out["mean_num"].round(6)
    return out


PROFILE_SQL = """
SELECT * FROM (
  SELECT 'doc_id' AS "column", count(*) AS n,
         count(*) - count(doc_id) AS n_null,
         count(DISTINCT doc_id) AS n_distinct,
         CAST(min(doc_id) AS DOUBLE) AS min_num,
         CAST(max(doc_id) AS DOUBLE) AS max_num,
         round(avg(doc_id), 6) AS mean_num,
         CAST(NULL AS VARCHAR) AS min_str, CAST(NULL AS VARCHAR) AS max_str
  FROM documents
  UNION ALL
  SELECT 'n_chars', count(*), count(*) - count(n_chars),
         count(DISTINCT n_chars), CAST(min(n_chars) AS DOUBLE),
         CAST(max(n_chars) AS DOUBLE), round(avg(n_chars), 6), NULL, NULL
  FROM documents
  UNION ALL
  SELECT 'lang', count(*), count(*) - count(lang), count(DISTINCT lang),
         NULL, NULL, NULL, min(lang), max(lang)
  FROM documents
  UNION ALL
  SELECT 'source', count(*), count(*) - count(source),
         count(DISTINCT source), NULL, NULL, NULL, min(source), max(source)
  FROM documents
) ORDER BY "column"
"""


def docs_snippets(sf_dir: str) -> pd.DataFrame:
    """Keyword-in-context extraction: the first "vector" occurrence per
    doc with up to two words of context either side — the search-result
    snippet stage. One compiled-regex ``str.extract`` per batch
    (map-only, zero shuffle); the pattern anchors context words on a
    space boundary so Python re and DuckDB RE2 pick the identical
    leftmost match."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    pat = r"(?:^|\s)((?:\S+ ){0,2}vector(?: \S+){0,2})"

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        from gene_etl_ray.ops.util import typed_if_empty

        snip = b["text"].fillna("").str.extract(pat, expand=False)
        out = pd.DataFrame({"doc_id": b["doc_id"], "snippet": snip})
        return typed_if_empty(out.dropna(subset=["snippet"]))

    out = ds.map_batches(fn, batch_format="pandas").to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "snippet": pd.Series([], dtype="object")}
        )
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SNIPPETS_SQL = r"""
SELECT doc_id,
       regexp_extract(text, '(?:^|\s)((?:\S+ ){0,2}vector(?: \S+){0,2})', 1)
         AS snippet
FROM documents
WHERE regexp_matches(text, '(?:^|\s)(?:\S+ ){0,2}vector')
ORDER BY doc_id
"""


def docs_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """BM25 ranked retrieval (``text.bm25_topk``): top-10 docs for the
    query {vector, spark} under the Robertson/Okapi scorer — two
    query-sized stat passes + vectorized scoring + partial top-k, no
    full sort. Completes the retrieval family: boolean → phrase →
    ranked."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.bm25_topk(ds, ["vector", "spark"], k=10)
    out["score"] = out["score"].round(6)
    return out


BM25_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
  FROM documents
),
len AS (
  SELECT doc_id, count(*) AS L FROM tok WHERE term <> '' GROUP BY doc_id
),
lend AS (
  SELECT d.doc_id, COALESCE(l.L, 0) AS L
  FROM documents d LEFT JOIN len l USING (doc_id)
),
stats AS (SELECT count(*) AS N, avg(L) AS avgl FROM lend),
dfreq AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tok
  WHERE term IN ('vector', 'spark') GROUP BY term
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM tok
  WHERE term IN ('vector', 'spark') GROUP BY 1, 2
),
sc AS (
  SELECT tf.doc_id,
         sum(ln((stats.N - dfreq.df + 0.5) / (dfreq.df + 0.5) + 1)
             * tf.tf * 2.2
             / (tf.tf + 1.2 * (0.25 + 0.75 * lend.L / stats.avgl))
         ) AS score
  FROM tf
  JOIN dfreq USING (term) JOIN lend USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, 6) AS score FROM sc
QUALIFY row_number() OVER (ORDER BY score DESC, doc_id) <= 10
ORDER BY score DESC, doc_id
"""


def docs_phrase_search(sf_dir: str) -> pd.DataFrame:
    """Exact phrase search (``text.phrase_search``): doc ids containing
    "vector scan" as a contiguous token run — the positional-index
    query, fused with tokenization via the flat n-gram kernel (no
    per-document loop); the only exchange is the match-sized id dedup."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    return text.phrase_search(ds, "vector scan")


PHRASE_SEARCH_SQL = r"""
WITH w AS (
  SELECT doc_id, generate_subscripts(t, 1) AS i, unnest(t) AS tok
  FROM (SELECT doc_id, string_split_regex(trim(text), '\s+') AS t
        FROM documents)
)
SELECT DISTINCT a.doc_id AS doc_id
FROM w a JOIN w b ON a.doc_id = b.doc_id AND b.i = a.i + 1
WHERE a.tok = 'vector' AND b.tok = 'scan'
ORDER BY a.doc_id
"""


def supplier_fuzzy_pairs(sf_dir: str) -> pd.DataFrame:
    """Blocked fuzzy self-join (``dedup.fuzzy_pairs``): supplier-name
    pairs within edit distance 1 — record linkage without the O(n²)
    cross join, via SymSpell delete-1 blocking (exact recall at
    distance ≤ 1), a capped key-bucketed candidate pass, and fused
    cross-bucket dedup + vectorized verification."""
    ds = read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return dedup.fuzzy_pairs(ds, "s_suppkey", "s_name")


FUZZY_PAIRS_SQL = """
SELECT a.s_suppkey AS id_a, b.s_suppkey AS id_b
FROM supplier a JOIN supplier b ON a.s_suppkey < b.s_suppkey
WHERE levenshtein(a.s_name, b.s_name) <= 1
ORDER BY id_a, id_b
"""


def docs_search_and(sf_dir: str) -> pd.DataFrame:
    """Conjunctive term search (``text.search_and``): doc ids
    containing ALL of {vector, spark, big} — posting-list intersection
    fused into the tokenize pass, with the query-term filter pushed
    into the batch combiner so the doc-keyed exchange carries
    query-sized data only."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    return text.search_and(ds, ["vector", "spark", "big"])


SEARCH_AND_SQL = r"""
SELECT doc_id FROM (
  SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
  FROM documents
)
WHERE term IN ('vector', 'spark', 'big')
GROUP BY doc_id HAVING count(DISTINCT term) = 3
ORDER BY doc_id
"""


def order_priority_class(sf_dir: str) -> pd.DataFrame:
    """CASE-style categorizer + grouped counts (M8, ``models.py:253-258``)."""
    ds = read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        b["priority_class"] = np.where(
            b["o_orderpriority"].str[:1].isin(["1", "2"]), "high", "low"
        )
        return b[["o_orderstatus", "priority_class"]]

    out = grouped_aggregate_partial(
        ds.map_batches(fn, batch_format="pandas"),
        ["o_orderstatus", "priority_class"], sums={}, counts="n_orders",
    )
    return out.sort_values(["o_orderstatus", "priority_class"]).reset_index(drop=True)


PRIORITY_SQL = """
SELECT o_orderstatus,
       CASE WHEN substr(o_orderpriority, 1, 1) IN ('1','2') THEN 'high' ELSE 'low' END
         AS priority_class,
       count(*) AS n_orders
FROM orders GROUP BY o_orderstatus, priority_class
ORDER BY o_orderstatus, priority_class
"""


def lineitem_var_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group variance (A3, ``filters.py:55-91``): numpy kernel inside
    map_groups."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def var_fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "var_qty": [round(float(np.var(g["l_quantity"])), 6)],
                "n": [len(g)],
            }
        )

    out = ds.groupby("l_returnflag").map_groups(var_fn, batch_format="pandas").to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


VAR_SQL = """
SELECT l_returnflag, round(var_pop(l_quantity), 6) AS var_qty, count(*) AS n
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def lineitem_iqr_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group IQR via np.percentile (A4, ``filters.py:93-127``)."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def iqr_fn(g: pd.DataFrame) -> pd.DataFrame:
        v = g["l_extendedprice"].to_numpy()
        q75, q25 = np.percentile(v, 75), np.percentile(v, 25)
        med = float(np.median(v))
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "iqr_price": [round(float(q75 - q25), 6)],
                "median_price": [round(med, 6)],
            }
        )

    out = ds.groupby("l_returnflag").map_groups(iqr_fn, batch_format="pandas").to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


IQR_SQL = """
SELECT l_returnflag,
       round(quantile_cont(l_extendedprice, 0.75)
             - quantile_cont(l_extendedprice, 0.25), 6) AS iqr_price,
       round(quantile_cont(l_extendedprice, 0.5), 6)    AS median_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def orders_lineitem_partitioned_join(sf_dir: str) -> pd.DataFrame:
    """Both-sides-large partitioned hash join (no broadcast): orders ⋈
    lineitem bucketed on the order key, merged per bucket, then grouped
    revenue per order status. One shuffle, each row moves once."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    li = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    joined = relational.partitioned_join(li, orders, "l_orderkey", "o_orderkey")

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        b["revenue"] = b["l_extendedprice"] * (1 - b["l_discount"])
        return b[["o_orderstatus", "revenue"]]

    out = grouped_aggregate_partial(
        joined.map_batches(rev, batch_format="pandas"),
        ["o_orderstatus"], sums={"revenue": "revenue"}, counts="n_items",
    )
    out["revenue"] = out["revenue"].round(2)
    return out.sort_values("o_orderstatus").reset_index(drop=True)


PARTJOIN_SQL = """
SELECT o_orderstatus,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


def orders_repeat_within_90d(sf_dir: str) -> pd.DataFrame:
    """RANGE join (equality + interval containment): per order, count the
    SAME customer's follow-up orders within 90 days — a fact⋈fact
    self-join co-located by customer key, per-order count folded into the
    bucket pass (``relational.range_join_bucketed``)."""
    base = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def as_left(b: pa.Table) -> pa.Table:
        end = pc.add(
            b.column("o_orderdate"),
            pa.scalar(pd.Timedelta(days=90).to_pytimedelta()),
        )
        return pa.table(
            {
                "a_orderkey": b.column("o_orderkey"),
                "a_custkey": b.column("o_custkey"),
                "a_start": b.column("o_orderdate"),
                "a_end": end,
            }
        )

    def per_order(m: pa.Table) -> pa.Table:
        # strict follow-ups only: later date, not the same order
        m = m.filter(pc.greater(m.column("o_orderdate"), m.column("a_start")))
        g = m.group_by("a_orderkey").aggregate([([], "count_all")])
        return pa.table({"a_orderkey": g["a_orderkey"], "n_followups": g["count_all"]})

    left = base.map_batches(as_left, batch_format="pyarrow")
    out = relational.range_join_bucketed(
        base, left,
        by_left="o_custkey", by_right="a_custkey",
        on_left="o_orderdate", start_right="a_start", end_right="a_end",
        bucket_post=per_order,
    ).to_pandas()
    out = out.rename(columns={"a_orderkey": "o_orderkey"})
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["n_followups"] = out["n_followups"].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


RANGE_SQL = """
SELECT a.o_orderkey, CAST(count(*) AS BIGINT) AS n_followups
FROM orders a JOIN orders b
  ON b.o_custkey = a.o_custkey
 AND b.o_orderdate > a.o_orderdate
 AND b.o_orderdate < a.o_orderdate + INTERVAL 90 DAY
GROUP BY a.o_orderkey
ORDER BY a.o_orderkey
"""


def events_props_k_stats(sf_dir: str) -> pd.DataFrame:
    """JSON sidecar parsing (scalar parser stage): extract ``k`` from the
    ``props`` JSON column per row, grouped stats per event type."""
    import json as _json

    ds = read(sf_dir, "events", ["event_type", "props"])

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        b["k"] = [
            _json.loads(p).get("k") if p else None for p in b["props"]
        ]
        return b[["event_type", "k"]]

    out = grouped_aggregate_partial(
        ds.map_batches(parse, batch_format="pandas"),
        ["event_type"], sums={"k_sum": "k"}, counts="n",
    )
    out["k_sum"] = out["k_sum"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


PROPS_SQL = """
SELECT event_type,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS k_sum,
       count(*) AS n
FROM events GROUP BY event_type ORDER BY event_type
"""


def lineitem_mad_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group median-absolute-deviation (A5, ``filters.py:129-162``)."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def mad_fn(g: pd.DataFrame) -> pd.DataFrame:
        v = g["l_quantity"].to_numpy()
        med = np.median(v)
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "mad_qty": [round(float(np.median(np.abs(v - med))), 6)],
            }
        )

    out = ds.groupby("l_returnflag").map_groups(mad_fn, batch_format="pandas").to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


MAD_SQL = """
SELECT l_returnflag, round(mad(l_quantity), 6) AS mad_qty
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_orphan_users(sf_dir: str) -> pd.DataFrame:
    """Anti-join referential check: distinct event users with no customer
    row (D4, set-difference consistency checks ``validate.py:289-346``).
    Broadcast key set + vectorized invert — semi/anti join as filter."""
    cust_keys = set(
        read(sf_dir, "customer", ["c_custkey"]).to_pandas()["c_custkey"]
    )
    ev = read(sf_dir, "events", ["user_id"])

    def anti(b: pd.DataFrame) -> pd.DataFrame:
        return b[~b["user_id"].isin(cust_keys)].drop_duplicates()

    out = ev.map_batches(anti, batch_format="pandas").to_pandas()
    if "user_id" not in out.columns:  # fully-empty result loses its schema
        out = pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
    return out.drop_duplicates().sort_values("user_id").reset_index(drop=True)


ORPHAN_SQL = """
SELECT DISTINCT user_id FROM events
WHERE user_id NOT IN (SELECT c_custkey FROM customer)
ORDER BY user_id
"""


def orders_page2(sf_dir: str) -> pd.DataFrame:
    """Deterministic pagination (K5, ``app.py:284``, ``io.py:310-314``):
    page 2 of 50 ordered by (orderdate, orderkey)."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
    top = relational.top_k(ds, "o_orderdate", 100, extra_sort=["o_orderkey"])
    # top_k gives the 100 NEWEST; page = rows 51..100 of that ordering
    return top.iloc[50:100].reset_index(drop=True)


PAGE_SQL = """
SELECT o_orderkey, o_orderdate, o_totalprice
FROM orders ORDER BY o_orderdate DESC, o_orderkey DESC
LIMIT 50 OFFSET 50
"""


def events_asof_orders(sf_dir: str) -> pd.DataFrame:
    """As-of join (backward): each event matched to the user's most recent
    order at or before the event time. Both sides are facts, so neither
    is broadcast: bucket both on the user key (one shuffle) and
    ``merge_asof`` within buckets; the per-(custkey, date) order dedup is
    folded into the same bucket pass (right_prepare) so ties are
    deterministic without an extra shuffle."""
    return _asof_orders_dir(sf_dir, "backward")


ASOF_SQL = """
WITH o AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id,
       (SELECT o.o_orderkey FROM o
        WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        ORDER BY o.o_orderdate DESC LIMIT 1) AS o_orderkey
FROM events e ORDER BY e.event_id
"""


def _asof_orders_dir(sf_dir: str, direction: str) -> pd.DataFrame:
    """Shared body of the as-of direction family (backward variant is
    ``events_asof_orders``): same bucketing, same folded right-side
    dedup, different match rule."""
    ev = read(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def dedup_orders(rg: pd.DataFrame) -> pd.DataFrame:
        return rg.groupby(["o_custkey", "o_orderdate"], as_index=False)["o_orderkey"].max()

    out = relational.asof_join_bucketed(
        ev, orders, on_left="ts", on_right="o_orderdate",
        by_left="user_id", by_right="o_custkey", direction=direction,
        right_prepare=dedup_orders, out_cols=["event_id", "o_orderkey"],
    ).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["o_orderkey"] = out["o_orderkey"].astype(
        "float64" if out["o_orderkey"].isna().any() else "int64"
    )
    return out.sort_values("event_id").reset_index(drop=True)


def _asof_views_dir(sf_dir: str, direction: str) -> pd.DataFrame:
    """Purchase→view attribution: each 'purchase' event matched to the
    same user's 'view' event in the given as-of direction. Unlike the
    (events, orders) pair — whose time ranges don't overlap, making
    forward/nearest degenerate — purchases and views interleave, so
    every direction is exercised for real. Same one-shuffle bucketed
    as-of plan; the per-(user, ts) view dedup folds into the bucket
    pass as right_prepare."""
    ev = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def side(t: str, rename: dict[str, str] | None = None):
        def fn(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b.column("event_type"), pa.scalar(t)))
            b = b.select(["event_id", "ts", "user_id"])
            return b.rename_columns([rename.get(c, c) for c in b.column_names]) if rename else b

        return fn

    purchases = ev.map_batches(side("purchase"), batch_format="pyarrow")
    views = ev.map_batches(
        side("view", {"event_id": "view_id", "ts": "view_ts"}),
        batch_format="pyarrow",
    )

    def dedup_views(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["user_id", "view_ts"], as_index=False).agg(
            view_id=("view_id", "max")
        )

    out = relational.asof_join_bucketed(
        purchases, views, on_left="ts", on_right="view_ts",
        by_left="user_id", by_right="user_id", direction=direction,
        right_prepare=dedup_views, out_cols=["event_id", "view_id"],
    ).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    # DuckDB fetchdf dtype contract: nullable BIGINT → float64 iff NULLs
    out["view_id"] = out["view_id"].astype(
        "float64" if out["view_id"].isna().any() else "int64"
    )
    return out.sort_values("event_id").reset_index(drop=True)


def events_asof_views_forward(sf_dir: str) -> pd.DataFrame:
    """Forward as-of join: each purchase matched to the user's FIRST
    view at or after the purchase time (the other half of the as-of
    family — same one-shuffle bucketed plan as the backward variant)."""
    return _asof_views_dir(sf_dir, "forward")


ASOF_FWD_SQL = """
WITH v AS (
  SELECT user_id, ts AS view_ts, max(event_id) AS view_id
  FROM events WHERE event_type = 'view' GROUP BY 1, 2
)
SELECT e.event_id,
       (SELECT v.view_id FROM v
        WHERE v.user_id = e.user_id AND v.view_ts >= e.ts
        ORDER BY v.view_ts ASC LIMIT 1) AS view_id
FROM events e WHERE e.event_type = 'purchase' ORDER BY e.event_id
"""


def events_asof_views_nearest(sf_dir: str) -> pd.DataFrame:
    """Nearest as-of join with a pinned tie rule (backward wins on an
    exact-distance tie): backward + forward merges inside the SAME
    bucket pass, vectorized distance pick — no extra shuffle and no
    dependence on pandas' unspecified nearest tie-breaking."""
    return _asof_views_dir(sf_dir, "nearest")


ASOF_NEAREST_SQL = """
WITH v AS (
  SELECT user_id, ts AS view_ts, max(event_id) AS view_id
  FROM events WHERE event_type = 'view' GROUP BY 1, 2
)
SELECT e.event_id,
       (SELECT v.view_id FROM v
        WHERE v.user_id = e.user_id
        ORDER BY abs(epoch_us(e.ts) - epoch_us(v.view_ts)),
                 CASE WHEN v.view_ts <= e.ts THEN 0 ELSE 1 END
        LIMIT 1) AS view_id
FROM events e WHERE e.event_type = 'purchase' ORDER BY e.event_id
"""


# ---------------------------------------------------------------------------
# documents: dedup + text analysis
# ---------------------------------------------------------------------------

def docs_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: min doc_id + copy count per distinct text (D1)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    hashed = dedup.content_hash(ds)

    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": [g["doc_id"].min()], "n_copies": [len(g)]}
        )

    out = (
        hashed.groupby("content_hash")
        .map_groups(reduce_group, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


DEDUP_SQL = """
SELECT min(doc_id) AS doc_id, count(*) AS n_copies
FROM documents GROUP BY text ORDER BY doc_id
"""


def docs_token_count(sf_dir: str) -> pd.DataFrame:
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.token_count_ws(ds).to_pandas()[["doc_id", "n_tokens_ws"]]
    return out.sort_values("doc_id").reset_index(drop=True)


TOKEN_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens_ws
FROM documents ORDER BY doc_id
"""


def docs_char_stats(sf_dir: str) -> pd.DataFrame:
    """SQL-checkable slice of the quality scorer: char count, ASCII
    upper/digit ratios (avoids regex-engine unicode divergence)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].fillna("")
        n = s.str.len()
        b["n_chars"] = n.astype("int64")
        b["upper_ratio"] = (s.str.count(r"[A-Z]") / n.replace(0, 1)).round(6)
        b["digit_ratio"] = (s.str.count(r"[0-9]") / n.replace(0, 1)).round(6)
        return b[["doc_id", "n_chars", "upper_ratio", "digit_ratio"]]

    return ds.map_batches(fn, batch_format="pandas").to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)


CHAR_SQL = """
SELECT doc_id, length(text) AS n_chars,
       round(length(regexp_replace(text, '[^A-Z]', '', 'g'))
             / greatest(length(text), 1), 6) AS upper_ratio,
       round(length(regexp_replace(text, '[^0-9]', '', 'g'))
             / greatest(length(text), 1), 6) AS digit_ratio
FROM documents ORDER BY doc_id
"""


def docs_quality_filter(sf_dir: str) -> pd.DataFrame:
    """Corpus-cleaning composition (the realistic training-data filter):
    English docs within length bounds and low shouting ratio — vectorized
    predicate chain over derived quality columns (M1 + M9)."""
    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def fn(b):
        return text.quality_filter_frame(b).select(["doc_id", "n_chars"])

    return (
        ds.map_batches(fn, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


QUALITY_FILTER_SQL = """
SELECT doc_id, length(text) AS n_chars
FROM documents
WHERE lang = 'en' AND length(text) BETWEEN 100 AND 20000
  AND length(regexp_replace(text, '[^A-Z]', '', 'g'))
      / greatest(length(text), 1) < 0.3
ORDER BY doc_id
"""


def docs_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic 10% sample of documents by multiplicative key
    hashing (reproducible across runs/clusters, unlike random_sample) —
    membership is SQL-expressible, so the sample itself is oracled."""
    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = relational.deterministic_sample(ds, "doc_id", 10).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SAMPLE_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE ((doc_id * 2654435761) % 4294967296) % 100 < 10
ORDER BY doc_id
"""


def docs_curation_pipeline(sf_dir: str) -> pd.DataFrame:
    """The composite training-data curation pipeline (quality filter →
    exact dedup → trigram-Jaccard near-dup cluster removal) — every
    stage deterministic, so the WHOLE composition is oracled: DuckDB
    reproduces the component stage with a recursive transitive-closure
    CTE (see ``pipelines/curate.py``)."""
    from gene_etl_ray.pipelines.curate import curate_documents

    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return curate_documents(ds)


CURATION_SQL = r"""
WITH quality AS (
  SELECT doc_id, text FROM documents
  WHERE lang = 'en' AND length(text) BETWEEN 100 AND 20000
    AND length(regexp_replace(text, '[^A-Z]', '', 'g'))
        / greatest(length(text), 1) < 0.3
), dedup AS (
  SELECT min(doc_id) AS doc_id, any_value(text) AS text
  FROM quality GROUP BY text
), tri AS (
  SELECT doc_id, list_distinct(list_transform(
    range(1, greatest(length(regexp_extract_all(lower(text),'\w+'))-1, 1)),
    i -> regexp_extract_all(lower(text),'\w+')[i] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+1] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+2])) AS tri
  FROM dedup
), edges AS (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM tri a JOIN tri b ON a.doc_id <> b.doc_id
  WHERE CAST(length(list_intersect(a.tri,b.tri)) AS DOUBLE) /
        length(list_distinct(list_concat(a.tri,b.tri))) >= 0.9
), reach AS (
  WITH RECURSIVE r(a, b) AS (
    SELECT src, dst FROM edges
    UNION
    SELECT r.a, e.dst FROM r JOIN edges e ON r.b = e.src WHERE e.dst <> r.a
  ) SELECT * FROM r
), labels AS (
  SELECT d.doc_id,
         least(d.doc_id, coalesce(min(r.b), d.doc_id)) AS cluster_id
  FROM dedup d LEFT JOIN reach r ON r.a = d.doc_id
  GROUP BY d.doc_id
)
SELECT l.doc_id FROM labels l WHERE l.doc_id = l.cluster_id ORDER BY doc_id
"""


def docs_quality_full(sf_dir: str) -> pd.DataFrame:
    """Full quality scorer (char/word counts, mean word length, punct /
    stopword / uppercase ratios) with a DuckDB oracle: on this
    ASCII-only corpus (asserted in tests) Python's unicode ``\\w`` and
    RE2's agree, so every signal is SQL-derivable. Ratios rounded to 6dp
    on both sides."""
    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = ds.map_batches(per_process(text.QualityScorer), batch_format="pyarrow").to_pandas()
    out = out.drop(columns=["text"])
    for c in ("mean_word_len", "punct_ratio", "stopword_ratio", "upper_ratio"):
        out[c] = out[c].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


# the engine's _STOPWORDS["en"] set, inlined for the SQL side
_STOP_EN_SQL = "['the','and','of','to','a','in','is','it','that','for']"

QUALITY_FULL_SQL = rf"""
WITH w AS (
    SELECT doc_id, lang, text,
           length(text) AS n_chars,
           regexp_extract_all(text, '\w+') AS words
    FROM documents
)
SELECT doc_id, lang,
       CAST(n_chars AS BIGINT) AS n_chars,
       CAST(length(words) AS BIGINT) AS n_words,
       round(CASE WHEN length(words) = 0 THEN 0.0
             ELSE CAST(list_sum(list_transform(words, x -> length(x))) AS DOUBLE)
                  / length(words) END, 6) AS mean_word_len,
       round(CAST(length(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE)
             / greatest(n_chars, 1), 6) AS punct_ratio,
       round(CASE WHEN length(words) = 0 THEN 0.0
             ELSE CAST(list_sum(list_transform(words,
                      x -> CASE WHEN list_contains({_STOP_EN_SQL}, lower(x))
                                THEN 1 ELSE 0 END)) AS DOUBLE)
                  / length(words) END, 6) AS stopword_ratio,
       round(CAST(length(regexp_extract_all(text, '[A-Z]')) AS DOUBLE)
             / greatest(n_chars, 1), 6) AS upper_ratio
FROM w ORDER BY doc_id
"""


def docs_lang_id(sf_dir: str) -> pd.DataFrame:
    """Heuristic language ID alongside the labeled ``lang`` column. The
    classifier is stopword-rate scoring with vectorized alternation-regex
    counts (RE2-compatible), so the WHOLE prediction is SQL-derivable —
    LANG_ID_SQL re-derives the per-language rates, the argmax-first
    tie-break and the 0.02 floor in DuckDB. (The corpus labels are
    decorrelated from the text by construction, so agreement is not the
    contract — prediction equality is; the accuracy gate on a controlled
    corpus lives in tests/test_ops.py.)"""
    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = ds.map_batches(per_process(text.LangId), batch_format="pandas").to_pandas()
    out = out.drop(columns=["text"])
    return out.sort_values("doc_id").reset_index(drop=True)


def _langid_sql() -> str:
    from gene_etl_ray.ops.text import _STOPWORDS

    langs = list(_STOPWORDS)
    rate_exprs = ",\n         ".join(
        "length(regexp_extract_all(sample, '\\b(?:"
        + "|".join(sorted(_STOPWORDS[lang]))
        + ")\\b')) * 1.0 / greatest(n_toks, 1) AS r_" + lang
        for lang in langs
    )
    case_parts = " ".join(f"WHEN r_{l} = rmax THEN '{l}'" for l in langs)
    greatest = ", ".join("r_" + l for l in langs)
    return rf"""
WITH s AS (
  SELECT doc_id, lang, lower(substr(text, 1, 2000)) AS sample FROM documents),
t AS (
  SELECT doc_id, lang, sample,
         length(regexp_extract_all(sample, '\w+')) AS n_toks FROM s),
r AS (
  SELECT doc_id, lang, n_toks,
         {rate_exprs}
  FROM t),
m AS (SELECT *, greatest({greatest}) AS rmax FROM r)
SELECT doc_id, lang,
       CASE WHEN n_toks = 0 OR rmax <= 0.02 THEN 'und'
            ELSE (CASE {case_parts} END) END AS lang_pred
FROM m ORDER BY doc_id
"""


LANG_ID_SQL = _langid_sql()


def docs_token_count_bpe(sf_dir: str) -> pd.DataFrame:
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.token_count_bpe_ish(ds).to_pandas()[["doc_id", "n_tokens_bpe"]]
    out["n_tokens_bpe"] = out["n_tokens_bpe"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


# RE2 (lookahead-free) variant of ops.text._BPE_ISH: the '\\s+(?!\\S)'
# branch only changes SEGMENTATION of whitespace runs, never the token
# COUNT, so counts agree on any input; this corpus is ASCII/space-only
# (asserted in tests), so RE2's ASCII \\w also agrees with Python's.
BPE_SQL = r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(
           text, '''(?:s|t|re|ve|m|ll|d)| ?\w+| ?[^\s\w]+|\s+'
       )) AS BIGINT) AS n_tokens_bpe
FROM documents ORDER BY doc_id
"""


def docs_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprint counts with a FULL DuckDB twin: the rolling
    polynomial hash (Σ byte·257^(k-1-j) mod 2^64) is re-derived in SQL
    with HUGEINT arithmetic over per-position code points (ASCII corpus,
    asserted in tests), the w-window minimum via a window frame, and the
    consecutive-dedup count via LAG — so the count gates the exact hash
    values, not just the shape."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(per_process(text.Fingerprinter), batch_format="pyarrow").to_pandas()
    return out[["doc_id", "n_fingerprints"]].sort_values("doc_id").reset_index(drop=True)


def _fingerprint_sql(k: int = 8, w: int = 16) -> str:
    powers = [pow(257, k - 1 - j, 2**64) for j in range(k)]
    hexpr = " + ".join(
        f"CAST(unicode(substr(text, i+{j}, 1)) AS HUGEINT) * {powers[j]}::HUGEINT"
        for j in range(k)
    )
    return f"""
WITH pos AS (
  SELECT doc_id, text, length(text) AS n,
         unnest(range(1, greatest(length(text) - {k} + 2, 1))) AS i
  FROM documents),
h AS (
  SELECT doc_id, n, i,
         ({hexpr}) % 18446744073709551616::HUGEINT AS h
  FROM pos WHERE n >= {k}),
mins AS (
  SELECT doc_id, i,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
             ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS mn,
         n - {k} + 1 AS m
  FROM h),
valid AS (
  SELECT doc_id, i, mn,
         LAG(mn) OVER (PARTITION BY doc_id ORDER BY i) AS prev
  FROM mins WHERE i <= m - {w} + 1),
cnt AS (
  SELECT doc_id,
         CAST(1 + sum(CASE WHEN prev IS NOT NULL AND mn != prev
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_fingerprints
  FROM valid GROUP BY doc_id)
SELECT d.doc_id, COALESCE(c.n_fingerprints, 1) AS n_fingerprints
FROM documents d LEFT JOIN cnt c USING (doc_id) ORDER BY d.doc_id
"""


FINGERPRINT_SQL = _fingerprint_sql()


def _docs_with_planted_copies(sf_dir: str):
    """documents ∪ exact copies (doc_id+1e6 for doc_id<16) — the
    planted-dup twin corpus shared by the near-dup gates (the same
    pattern as embeddings_near_dup). Exact copies collapse in the
    hardened MinHash chain and re-expand through the mapping joins, so
    the gate exercises the full collapse→sign→band→verify→expand path."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        dup = b[b["doc_id"] < 16].copy()
        dup["doc_id"] = dup["doc_id"] + 1_000_000
        return pd.concat([b, dup], ignore_index=True)

    return ds.map_batches(plant, batch_format="pandas")


# SQL fragment: the planted-copy corpus (twin of _docs_with_planted_copies)
_PLANTED_DOCS_SQL = """
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id < 16
"""

# exhaustive trigram-jaccard pair CTE over the planted corpus (twin of
# the LSH-pruned exact verification; construction mirrors dedup._shingles)
def _jaccard_pairs_sql(threshold: float) -> str:
    return rf"""
aug AS ({_PLANTED_DOCS_SQL}),
tri AS (
  SELECT doc_id, list_distinct(list_transform(
    range(1, greatest(length(regexp_extract_all(lower(text),'\w+'))-1, 1)),
    i -> regexp_extract_all(lower(text),'\w+')[i] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+1] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+2])) AS tri
  FROM aug),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(length(list_intersect(a.tri, b.tri)) AS DOUBLE) /
         length(list_distinct(list_concat(a.tri, b.tri))) AS jaccard
  FROM tri a JOIN tri b ON a.doc_id < b.doc_id
  WHERE length(a.tri) > 0 AND length(b.tri) > 0
    AND CAST(length(list_intersect(a.tri, b.tri)) AS DOUBLE) /
        length(list_distinct(list_concat(a.tri, b.tri))) >= {threshold})
"""


def docs_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH near-dup pairs, exactly verified: candidates from the
    hardened chain (exact-dup collapse → band buckets with caps →
    partitioned-join verification) filtered at TRUE trigram Jaccard
    ≥ 0.95, over the corpus with planted exact copies. Full DuckDB twin:
    exhaustive pairwise Jaccard at the same threshold (LSH per-pair miss
    probability at j ≥ 0.95 with 16×4 banding ≈ 10⁻¹²; the corpus is
    fixed, so the comparison is deterministic)."""
    aug = _docs_with_planted_copies(sf_dir)
    out = dedup.ngram_jaccard_pairs(aug, threshold=0.95)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["jaccard"] = out["jaccard"].round(6)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


MINHASH_PAIRS_SQL = rf"""
WITH {_jaccard_pairs_sql(0.95)}
SELECT id_a, id_b, round(jaccard, 6) AS jaccard
FROM pairs ORDER BY id_a, id_b
"""


def docs_near_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup clusters over the planted corpus: LSH candidates →
    exact-Jaccard verification at ≥ 0.85 → scale-adaptive connected
    components (bounded union-find task / large-small-star rounds).
    DuckDB twin: exhaustive verified pairs + recursive transitive
    closure, labels = min id per component — the same CTE pattern
    already gating the curation composite."""
    aug = _docs_with_planted_copies(sf_dir)
    out = dedup.near_dup_clusters(aug, threshold=0.85)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


NEAR_DUP_CLUSTERS_SQL = rf"""
WITH {_jaccard_pairs_sql(0.85)},
edges AS (
  SELECT id_a AS src, id_b AS dst FROM pairs
  UNION SELECT id_b, id_a FROM pairs),
reach AS (
  WITH RECURSIVE r(a, b) AS (
    SELECT src, dst FROM edges
    UNION
    SELECT r.a, e.dst FROM r JOIN edges e ON r.b = e.src WHERE e.dst <> r.a
  ) SELECT * FROM r)
SELECT a AS doc_id,
       least(a, min(b)) AS cluster_id
FROM reach GROUP BY a ORDER BY doc_id
"""


def events_users_approx_distinct(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog approximate distinct users vs exact. The approximation
    itself has no SQL form, so the oracle contract is: the exact count
    (SQL-checkable) plus ``approx_ok`` = |approx−exact|/exact ≤ 5% — a
    regressed sketch flips the boolean and fails the gate."""
    from gene_etl_ray.ops.sketch import approx_distinct

    ds = read(sf_dir, "events", ["user_id"])
    approx = approx_distinct(ds, "user_id")
    # exact distinct, distributed: shuffle to one row per user, count rows
    exact = int(ds.groupby("user_id").count().count())
    return pd.DataFrame(
        {
            "n_exact": pd.Series([exact], dtype="int64"),
            "approx_ok": [abs(approx - exact) / max(1, exact) <= 0.05],
        }
    )


APPROX_DISTINCT_SQL = """
SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_exact, TRUE AS approx_ok
FROM events
"""


def lineitem_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT distributed quantiles (``quantile_disc`` semantics) of
    l_extendedprice via iterative histogram refinement
    (:func:`gene_etl_ray.ops.sketch.order_statistics`) — no global sort:
    each pass ships a few KB of histogram per block instead of moving
    every block through an all-to-all sort exchange."""
    from gene_etl_ray.ops.sketch import order_statistics

    ds = read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = [0.25, 0.5, 0.9, 0.99]
    res = order_statistics(ds, "l_extendedprice", qs)
    return pd.DataFrame(
        {
            "q": pd.Series(qs, dtype="float64"),
            "price": pd.Series([res[q] for q in qs], dtype="float64"),
        }
    )


QUANTILE_SQL = """
SELECT 0.25 AS q, quantile_disc(l_extendedprice, 0.25) AS price FROM lineitem
UNION ALL
SELECT 0.5, quantile_disc(l_extendedprice, 0.5) FROM lineitem
UNION ALL
SELECT 0.9, quantile_disc(l_extendedprice, 0.9) FROM lineitem
UNION ALL
SELECT 0.99, quantile_disc(l_extendedprice, 0.99) FROM lineitem
ORDER BY q
"""


def events_type_hour_rollup(sf_dir: str) -> pd.DataFrame:
    """Hierarchical ROLLUP aggregate over (event_type, hour): the finest
    level runs distributed with per-batch partial combination (tiny
    partials, no row shuffle — the key space is types × 24); the coarser
    rollup levels are DERIVED from the finest-level result, never
    re-scanning the fact table. Rollup markers are COALESCE sentinels
    ('__all__', -1) on both sides so the dtype contract stays
    (string, int64) with no NULL-ordering ambiguity."""
    ds = read(sf_dir, "events", ["ts", "event_type", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.cast(pc.hour(t.column("ts")), pa.int64()),
                "value": t.column("value"),
            }
        )

    finest = grouped_aggregate_partial(
        ds.map_batches(add_hour, batch_format="pyarrow"),
        keys=["event_type", "hour"],
        sums={"sum_value": "value"},
        counts="n",
    )
    lvl1 = finest.groupby("event_type", as_index=False).agg(
        sum_value=("sum_value", "sum"), n=("n", "sum")
    )
    lvl1["hour"] = -1
    total = pd.DataFrame(
        {
            "event_type": ["__all__"],
            "hour": [-1],
            "sum_value": [finest["sum_value"].sum()],
            "n": [finest["n"].sum()],
        }
    )
    out = pd.concat([finest, lvl1, total], ignore_index=True)[
        ["event_type", "hour", "sum_value", "n"]
    ]
    out["hour"] = out["hour"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["sum_value"] = out["sum_value"].round(2)
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


ROLLUP_SQL = """
SELECT COALESCE(event_type, '__all__') AS event_type,
       COALESCE(CAST(EXTRACT(hour FROM ts) AS BIGINT), -1) AS hour,
       round(sum(value), 2) AS sum_value,
       CAST(count(*) AS BIGINT) AS n
FROM events
GROUP BY ROLLUP(event_type, EXTRACT(hour FROM ts))
ORDER BY event_type, hour
"""


def events_hour_type_pivot(sf_dir: str) -> pd.DataFrame:
    """PIVOT (long→wide conditional aggregation): per hour-of-day, one
    count column per event type. Indicator columns are created per batch
    and pre-summed by the partial combiner, so only ≤24-row partials ever
    leave a task. The type list is the fixtures' closed set."""
    ds = read(sf_dir, "events", ["ts", "event_type"])
    types = ["click", "error", "purchase", "signup", "view"]

    def indicators(t: pa.Table) -> pa.Table:
        cols = {"hour": pc.cast(pc.hour(t.column("ts")), pa.int64())}
        et = t.column("event_type")
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        return pa.table(cols)

    out = grouped_aggregate_partial(
        ds.map_batches(indicators, batch_format="pyarrow"),
        keys=["hour"],
        sums={f"n_{ty}": f"n_{ty}" for ty in types},
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("hour").reset_index(drop=True)


PIVOT_SQL = """
SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
       CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
FROM events GROUP BY 1 ORDER BY 1
"""


def events_top_users(sf_dir: str) -> pd.DataFrame:
    """Top-50 users by event count over the high-cardinality (Zipf-hot)
    user key — the skew-safe grouped-count top-k
    (:func:`gene_etl_ray.ops.relational.grouped_count_topk`): per-batch
    pre-count collapses hot keys before the shuffle; ties at the top-k
    boundary are widened per block and broken (n DESC, user ASC)."""
    ds = read(sf_dir, "events", ["user_id"])
    out = relational.grouped_count_topk(ds, "user_id", 50)
    out["user_id"] = out["user_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


TOP_USERS_SQL = """
SELECT user_id, CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY user_id
ORDER BY n DESC, user_id LIMIT 50
"""


def docs_simhash(sf_dir: str) -> pd.DataFrame:
    """64-bit SimHash signatures with a FULL DuckDB twin: token hashes
    are md5-derived (first 8 bytes, big-endian — reproducible as
    ``CAST('0x'||substr(md5(tok),1,16) AS UBIGINT)``), the bit voting is
    64 per-bit aggregate sums, and the signed-int64 signature is
    Σ bit_b·2^b − bit_63·2^63 on both sides."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.simhash_signatures(ds).to_pandas()[["doc_id", "simhash"]]
    out["simhash"] = out["simhash"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _simhash_sig_sql(src: str = "documents") -> str:
    """CTE chain computing ``sig(doc_id, simhash)`` over ``src``."""
    terms = [
        f"CASE WHEN 2*sum(((h >> {b}) & 1)::HUGEINT) > count(*) "
        f"THEN (1::BIGINT << {b}) ELSE 0 END"
        for b in range(63)
    ]
    terms.append(
        "CASE WHEN 2*sum(((h >> 63) & 1)::HUGEINT) > count(*) "
        "THEN -9223372036854775808 ELSE 0::BIGINT END"
    )
    expr = " + ".join(terms)
    return rf"""
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS tok
  FROM {src}),
th AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS h
  FROM toks),
voted AS (
  SELECT doc_id, {expr} AS simhash FROM th GROUP BY doc_id),
sig AS (
  SELECT d.doc_id, COALESCE(v.simhash, 0) AS simhash
  FROM {src} d LEFT JOIN voted v USING (doc_id))
"""


SIMHASH_SQL = f"""
WITH {_simhash_sig_sql()}
SELECT doc_id, simhash FROM sig ORDER BY doc_id
"""


def docs_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact trigram-Jaccard near-dup pairs at ≥ 0.9, candidates pruned
    by MinHash-LSH then exactly verified. Oracled against an exhaustive
    DuckDB cross-join: at this threshold the 16-band/4-row LSH's miss
    probability is ~3·10⁻⁸ per pair, and on this FIXED corpus the
    engine's candidate set provably covers every true pair (the
    comparison is deterministic — verified at both test scales)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.ngram_jaccard_pairs(ds, threshold=0.9)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["jaccard"] = out["jaccard"].round(6)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# exhaustive trigram-set jaccard (the spec the LSH-pruned engine must
# reproduce); trigram construction mirrors ops.dedup._shingles on this
# ASCII corpus (lower + \w+ tokens, space-joined, set-distinct)
NGRAM_SQL = r"""
WITH t AS (
  SELECT doc_id, list_distinct(list_transform(
    range(1, greatest(length(regexp_extract_all(lower(text),'\w+'))-1, 1)),
    i -> regexp_extract_all(lower(text),'\w+')[i] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+1] || ' ' ||
         regexp_extract_all(lower(text),'\w+')[i+2])) AS tri
  FROM documents
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       round(CAST(length(list_intersect(a.tri,b.tri)) AS DOUBLE) /
             length(list_distinct(list_concat(a.tri,b.tri))), 6) AS jaccard
FROM t a JOIN t b ON a.doc_id < b.doc_id
WHERE CAST(length(list_intersect(a.tri,b.tri)) AS DOUBLE) /
      length(list_distinct(list_concat(a.tri,b.tri))) >= 0.9
ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------

def _query_vectors(sf_dir: str, n: int = 5) -> tuple[np.ndarray, np.ndarray]:
    # row-filter pushdown: only the n query rows leave the parquet scan
    # (the r3 verdict's trivial full-table collect, fixed) — via the
    # shared read() helper so the metadata-stripping convention holds
    import pyarrow.dataset as pads

    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"],
               row_filter=pads.field("vec_id") < n).to_pandas()
    q = emb.sort_values("vec_id")
    return np.stack(q["embedding"].to_numpy()).astype(np.float64), q["vec_id"].to_numpy()


def knn_cosine_topk(sf_dir: str) -> pd.DataFrame:
    """Exact brute-force cosine top-10 for queries = vectors 0..4
    (float64 so the oracle's list_cosine_similarity matches to 6dp)."""
    qv, qids = _query_vectors(sf_dir)
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn.brute_force_topk(ds, qv, k=10)
    out["query_id"] = qids[out["query_idx"].to_numpy()]
    out["cosine"] = out["cosine"].round(6)
    return out[["query_id", "vec_id", "cosine"]].sort_values(
        ["query_id", "cosine", "vec_id"], ascending=[True, False, True]
    ).reset_index(drop=True)


KNN_SQL = """
WITH qd AS (
    SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings WHERE vec_id < 5
), ed AS (
    SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings
)
SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
       round(list_cosine_similarity(q.emb, e.emb), 6) AS cosine
FROM qd q CROSS JOIN ed e
QUALIFY row_number() OVER (
    PARTITION BY q.vec_id
    ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id
) <= 10
ORDER BY query_id, cosine DESC, vec_id
"""


def embeddings_knn_graph(sf_dir: str) -> pd.DataFrame:
    """Exact cosine kNN graph (``knn.knn_graph``, k=3, self excluded):
    every vector's global top-3 — broadcast-matrix matmul per batch,
    shuffle-free, per-row top-k already global because the corpus is
    resident per task (the bounded-corpus exactness oracle for the
    IVF/LSH scale paths)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn.knn_graph(ds, k=3)
    out["cosine"] = out["cosine"].round(6)
    return out.reset_index(drop=True)


def embeddings_knn_graph_ivf(sf_dir: str) -> pd.DataFrame:
    """The IVF (sub-quadratic) kNN-graph builder in its EXACT REGIME
    (``knn.knn_graph_edges_ivf``, nprobe == nlist): coarse-quantizer
    train → (1+nprobe)× fan-out → per-list brute force → per-id re-cap.
    Probing every list makes each (query, member) pair co-occur, so the
    output equals the exact graph and the SAME cross-join twin gates
    the whole IVF machinery (assignment, bucketed list exchange,
    candidate merge) under the value hash; recall at low nprobe is
    pinned separately on clustered fixtures (tests/test_ops.py)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn.knn_graph_edges_ivf(ds, k=3, nlist=4, nprobe=4).to_pandas()
    out = out.sort_values(
        ["vec_id", "cosine", "nbr_id"], ascending=[True, False, True],
        kind="mergesort").reset_index(drop=True)
    out["cosine"] = out["cosine"].round(6)
    for c in ("vec_id", "nbr_id"):
        out[c] = out[c].astype("int64")
    return out


KNN_GRAPH_SQL = """
WITH ed AS (
    SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings
)
SELECT q.vec_id AS vec_id, e.vec_id AS nbr_id,
       round(list_cosine_similarity(q.emb, e.emb), 6) AS cosine
FROM ed q CROSS JOIN ed e
WHERE q.vec_id <> e.vec_id
QUALIFY row_number() OVER (
    PARTITION BY q.vec_id
    ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id
) <= 3
ORDER BY vec_id, cosine DESC, nbr_id
"""


def embeddings_hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Contrastive-pair mining (``knn.hard_negatives``): each vector's
    single most-similar vector with a DIFFERENT label — the closest
    impostor. Broadcast-matrix matmul with a cross-label mask; same
    shuffle-free shape as the kNN graph."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = knn.hard_negatives(ds, k=1)
    out["cosine"] = out["cosine"].round(6)
    return out.reset_index(drop=True)


HARD_NEG_SQL = """
WITH ed AS (
    SELECT vec_id, label,
           list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings
)
SELECT q.vec_id AS vec_id, e.vec_id AS neg_id,
       round(list_cosine_similarity(q.emb, e.emb), 6) AS cosine
FROM ed q CROSS JOIN ed e
WHERE q.label <> e.label
QUALIFY row_number() OVER (
    PARTITION BY q.vec_id
    ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id
) <= 1
ORDER BY vec_id, cosine DESC, neg_id
"""


def embeddings_norm_by_label(sf_dir: str) -> pd.DataFrame:
    """Per-label mean L2 norm (vectorized numpy per batch + partials)."""
    ds = read(sf_dir, "embeddings", ["label", "embedding"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        b2 = pd.DataFrame({"label": b["label"].to_numpy(),
                           "norm": np.sqrt((m * m).sum(axis=1))})
        return b2

    out = grouped_aggregate_partial(
        ds.map_batches(fn, batch_format="pandas"), ["label"],
        sums={"norm_sum": "norm"}, counts="n_vecs",
    )
    out["avg_norm"] = (out["norm_sum"] / out["n_vecs"]).round(6)
    return out[["label", "n_vecs", "avg_norm"]].sort_values("label").reset_index(drop=True)


NORM_SQL = """
SELECT label, count(*) AS n_vecs,
       round(avg(sqrt(list_sum(list_transform(embedding, x -> x * x)))), 6) AS avg_norm
FROM embeddings GROUP BY label ORDER BY label
"""


def ensure_lsh_index(sf_dir: str, num_planes: int = 6) -> str:
    """Build (once) the bucket-partitioned ANN layout for the embeddings
    table; returns the index dir."""
    index_dir = f"{_cdc_base_dir(sf_dir)}/lsh_index"
    if not os.path.isdir(index_dir):
        ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
        knn.build_lsh_index(ds, index_dir, num_planes=num_planes)
    return index_dir


def _embeddings_with_twins(sf_dir: str):
    """embeddings ∪ planted IDENTICAL copies (vec_id+1e6 for vec_id<5) —
    the exact-regime ANN gate corpus: an identical vector lands in the
    same LSH bucket / IVF list as its twin deterministically, so a probe
    for the original must surface the twin at cosine 1.0."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        dup = b[b["vec_id"] < 5].copy()
        dup["vec_id"] = dup["vec_id"] + 1_000_000
        return pd.concat([b, dup], ignore_index=True)

    return ds.map_batches(plant, batch_format="pandas")


_ANN_TWIN_SQL = """
SELECT query_id, vec_id, 1.0 AS cosine FROM (
  SELECT vec_id AS query_id, vec_id, 1.0 FROM embeddings WHERE vec_id < 5
  UNION ALL
  SELECT vec_id AS query_id, vec_id + 1000000, 1.0
  FROM embeddings WHERE vec_id < 5
) ORDER BY query_id, vec_id
"""


def knn_lsh_topk(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed ANN via the bucket-PARTITIONED stored layout (only
    probed buckets' partition dirs are read — the targeted-read path at
    10^10 scale), gated in the EXACT regime: the index holds planted
    identical twins of the query vectors, and the result is the top-k
    filtered at cosine ≥ 0.999 — which the deterministic bucket
    assignment provably reduces to {{(q, q), (q, twin(q))}} (the natural
    corpus max pairwise cosine ≈ 0.51). A recall miss, a broken probe
    path or a cosine error all flip the frame. The approximate-recall
    behavior is covered by unit tests (recall-vs-bruteforce)."""
    qv, qids = _query_vectors(sf_dir)
    index_dir = f"{_cdc_base_dir(sf_dir)}/lsh_twin_index"
    if not os.path.isdir(index_dir):
        knn.build_lsh_index(_embeddings_with_twins(sf_dir), index_dir, num_planes=6)
    out = knn.lsh_topk_indexed(index_dir, qv, k=10)
    out["query_id"] = qids[out["query_idx"].to_numpy()]
    out = out[out["cosine"] >= 0.999].copy()
    out["cosine"] = 1.0
    return (
        out[["query_id", "vec_id", "cosine"]]
        .sort_values(["query_id", "vec_id"])
        .reset_index(drop=True)
    )


def knn_ivf_topk(sf_dir: str) -> pd.DataFrame:
    """IVF (k-means inverted-file) ANN — centroid-partitioned layout,
    only nprobe lists' files read — gated in the EXACT regime exactly
    like knn_lsh_topk: identical planted twins, result filtered at
    cosine ≥ 0.999 equals the known twin set (an identical vector gets
    the same argmax centroid, and the query's own best list is always
    probed)."""
    qv, qids = _query_vectors(sf_dir)
    index_dir = f"{_cdc_base_dir(sf_dir)}/ivf_twin_index"
    if not os.path.isdir(index_dir):
        knn.build_ivf_index(_embeddings_with_twins(sf_dir), index_dir, num_lists=16)
    out = knn.ivf_topk(index_dir, qv, k=10, nprobe=4)
    out["query_id"] = qids[out["query_idx"].to_numpy()]
    out = out[out["cosine"] >= 0.999].copy()
    out["cosine"] = 1.0
    return (
        out[["query_id", "vec_id", "cosine"]]
        .sort_values(["query_id", "vec_id"])
        .reset_index(drop=True)
    )


def docs_simhash_near_dup(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs (pigeonhole block banding, Hamming ≤ 3)
    over the planted-copy corpus. FULL DuckDB twin now that signatures
    are md5-derived: exhaustive pairwise ``bit_count(xor(sig_a, sig_b))
    ≤ 3`` — and the pigeonhole banding guarantees EXACT recall at this
    radius, so the pruned engine result equals the exhaustive one by
    theorem, not by luck."""
    aug = _docs_with_planted_copies(sf_dir)
    out = dedup.simhash_near_dup_pairs(aug, max_hamming=3)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["hamming"] = out["hamming"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SIMHASH_PAIRS_SQL = f"""
WITH aug AS ({_PLANTED_DOCS_SQL}),
{_simhash_sig_sql('aug')}
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY id_a, id_b
"""


def embeddings_near_dup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup pairs over an augmented table: plant
    deterministic scaled copies (same direction ⇒ cosine 1, same LSH
    bucket) for vec_id < 32 so the operator is actually exercised at the
    gate — the base corpus's max pairwise cosine is ~0.51, so at
    threshold 0.99 the result is exactly the planted pairs and the LSH
    path is deterministic (scaling never flips a hyperplane sign)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        dup = b[b["vec_id"] < 32].copy()
        dup["vec_id"] = dup["vec_id"] + 1_000_000
        dup["embedding"] = dup["embedding"].map(lambda v: [x * 2.0 for x in v])
        return pd.concat([b, dup], ignore_index=True)

    aug = ds.map_batches(plant, batch_format="pandas")
    out = knn.cosine_near_dup_pairs(aug, threshold=0.99)
    out["cosine"] = out["cosine"].round(4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


NEAR_DUP_SQL = """
WITH aug AS (
    SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings
    UNION ALL
    SELECT vec_id + 1000000, list_transform(embedding, x -> CAST(x AS DOUBLE) * 2)
    FROM embeddings WHERE vec_id < 32
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(a.emb, b.emb), 4) AS cosine
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= 0.99
ORDER BY id_a, id_b
"""


def embeddings_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup (``knn.semdedup``): cluster the embedding space, prune
    cosine-≥-τ pairs WITHIN clusters only — the corpus-scale semantic
    dedup where the O(n²) pass runs per cluster, never globally.
    Centroids = the 4 lowest vec_ids (deterministic, SQL-derivable);
    the corpus is augmented with planted twins so the prune is
    non-vacuous at the gate: exact copies for vec_id < 16 (same vector
    ⇒ same cluster ⇒ always dropped) and ×2-scaled copies for
    16 ≤ vec_id < 32 (same direction ⇒ cosine 1, exercises the
    threshold on non-identical vectors and the cross-cluster-safe
    path). Base corpus max pairwise cosine ~0.51, so at τ=0.99 only
    planted pairs prune. Returns the kept (vec_id, cluster)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        d1 = b[b["vec_id"] < 16].copy()
        d1["vec_id"] = d1["vec_id"] + 1_000_000
        d2 = b[(b["vec_id"] >= 16) & (b["vec_id"] < 32)].copy()
        d2["vec_id"] = d2["vec_id"] + 1_000_000
        d2["embedding"] = d2["embedding"].map(lambda v: [x * 2.0 for x in v])
        return pd.concat([b, d1, d2], ignore_index=True)

    aug = ds.map_batches(plant, batch_format="pandas")
    seed = (
        aug.map_batches(
            lambda b: b.nsmallest(4, "vec_id"), batch_format="pandas"
        )
        .to_pandas()
        .nsmallest(4, "vec_id")
        .sort_values("vec_id")
    )
    cents = np.stack(seed["embedding"].to_numpy()).astype(np.float64)
    out = knn.semdedup(aug, cents, tau=0.99).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


SEMDEDUP_SQL = """
WITH aug AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
  FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000, list_transform(embedding, x -> CAST(x AS DOUBLE))
  FROM embeddings WHERE vec_id < 16
  UNION ALL
  SELECT vec_id + 1000000, list_transform(embedding, x -> CAST(x AS DOUBLE) * 2)
  FROM embeddings WHERE vec_id >= 16 AND vec_id < 32
),
c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster, emb AS cv
  FROM (SELECT * FROM aug ORDER BY vec_id LIMIT 4)
),
a AS (
  SELECT aug.vec_id, aug.emb, c.cluster
  FROM aug CROSS JOIN c
  QUALIFY row_number() OVER (
    PARTITION BY aug.vec_id ORDER BY list_distance(emb, cv), cluster) = 1
),
drops AS (
  SELECT b.vec_id
  FROM a x JOIN a b ON x.cluster = b.cluster AND x.vec_id < b.vec_id
  WHERE list_cosine_similarity(x.emb, b.emb) >= 0.99
)
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster
FROM a
WHERE vec_id NOT IN (SELECT vec_id FROM drops)
ORDER BY vec_id
"""


# ---------------------------------------------------------------------------
# flagship CDC pipeline + multimodal plumbing (rows-only)
# ---------------------------------------------------------------------------

def _cdc_base_dir(sf_dir: str) -> str:
    import gene_etl_ray

    tag = os.path.basename(os.path.normpath(sf_dir))
    # version-keyed scratch dir: a lake built by an older engine version
    # must never be served as this version's result
    return f"/tmp/gene_etl_ray_cdc/{gene_etl_ray.__version__}/{tag}"


def ensure_cdc_events(sf_dir: str) -> str:
    """Deterministically derive (once) the flagship change log from the
    sanctioned ``documents`` table; returns the events directory. Also the
    hook the oracle side uses so the DuckDB SQL can read the same files."""
    from gene_etl_ray.fixtures import events_from_documents

    ev_dir = f"{_cdc_base_dir(sf_dir)}/events"
    if not os.path.isdir(ev_dir):
        events_from_documents(sf_dir, ev_dir)
    return ev_dir


def cdc_ingest_lake(sf_dir: str) -> pd.DataFrame:
    """The flagship end-to-end: derive a deterministic change log from the
    documents table, ingest it (extract → partition → LWW merge → manifest
    commit), return the live lake table."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import read_lake, run_ingest

    ev_dir = ensure_cdc_events(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8)
    run_ingest(cfg, ev_dir)  # idempotent: a second call is a no-op
    df = read_lake(lake_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


# DuckDB oracle for the flagship: LWW winner per url over the raw change
# log (QUALIFY over (warc_ts, seq) — the engine's merge order), tombstones
# dropped, and the html→text extraction re-derived INDEPENDENTLY in SQL as
# a RE2 regexp_replace port of extract._RULES (entity unescape is a no-op
# on this corpus — asserted by tests/test_queries.py). Mirrors
# oracle.py's single-process replay, but executed by DuckDB.
CDC_SQL_TEMPLATE = """
WITH ev AS (
    SELECT url, warc_ts, decode(html) AS h, lang, op, seq, epoch
    FROM read_parquet('{ev_glob}', hive_partitioning = false)
    WHERE url IS NOT NULL AND op IN ('I', 'U', 'D')
      AND warc_ts IS NOT NULL AND seq IS NOT NULL
){admit_ctes}, w AS (
    SELECT * FROM {src}
    QUALIFY row_number() OVER (
        PARTITION BY url ORDER BY warc_ts DESC, seq DESC
    ) = 1
)
SELECT url, warc_ts,
       trim(
         regexp_replace(
           regexp_replace(
             regexp_replace(
               regexp_replace(
                 regexp_replace(
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(h, '(?is)<!--.*?-->', ' ', 'g'),
                       '(?is)<script\\b.*?</script\\s*>', ' ', 'g'),
                     '(?is)<style\\b.*?</style\\s*>', ' ', 'g'),
                   '(?is)<head\\b.*?</head\\s*>', ' ', 'g'),
                 '(?is)<(?:br|/p|/div|/li|/h[1-6]|/tr)\\b[^>]*>', chr(10), 'g'),
               '(?s)<[^>]*>', ' ', 'g'),
             '[ \\t\\r\\f\\v]+', ' ', 'g'),
           '\\s*\\n\\s*', chr(10), 'g'),
         ' ' || chr(10)) AS text,
       lang, seq, epoch
FROM w
WHERE op <> 'D'
ORDER BY url
"""


# Per-commit-group event-time watermark, in SQL (epochs_per_commit=1 ⇒
# group == epoch): W(e) = max warc_ts over PRIOR epochs' events; an event
# is admitted iff no prior watermark exists or warc_ts >= W - L. Using the
# max over ALL prior (structurally valid) events is provably identical to
# the engine's max over ADMITTED events: a late-rejected event has
# warc_ts < W_prior - L <= W_prior, so it can never raise the running max
# (induction over groups; mirrored by oracle.replay_oracle's simulation).
CDC_LATE_CTES = """, em AS (
    SELECT epoch, max(warc_ts) AS ts_max FROM ev GROUP BY epoch
), wm AS (
    SELECT epoch, max(ts_max) OVER (
        ORDER BY epoch ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
    ) AS W FROM em
), adm AS (
    SELECT ev.* FROM ev JOIN wm ON ev.epoch = wm.epoch
    WHERE wm.W IS NULL
       OR epoch_us(ev.warc_ts) >= epoch_us(wm.W) - {lateness_us}
)"""


def cdc_oracle_sql(sf_dir: str) -> str:
    """Materialized-for-sf_dir flagship oracle (generates the change log
    if needed so DuckDB can read it regardless of run order)."""
    ev_dir = ensure_cdc_events(sf_dir)
    return CDC_SQL_TEMPLATE.format(
        ev_glob=f"{ev_dir}/epoch=*.parquet", admit_ctes="", src="ev"
    )


def ensure_cdc_shards(sf_dir: str) -> str:
    """Split the canonical change log into two PRODUCER shards (even/odd
    epochs, shard-locally renumbered and restamped — each shard is a
    self-consistent contiguous WAL, as a real binlog shard would be) and
    mux them back into one consumer WAL (`pipelines.mux.merge_wals`).
    Returns the muxed WAL directory. Idempotent per sf_dir."""
    import pyarrow.parquet as _pq

    from gene_etl_ray.pipelines.mux import merge_wals

    base = _cdc_base_dir(sf_dir)
    ev_dir = ensure_cdc_events(sf_dir)
    mux_dir = f"{base}/wal_mux"
    if os.path.isdir(mux_dir):
        return mux_dir
    shards = [f"{base}/shard0", f"{base}/shard1"]
    for d in shards:
        os.makedirs(d, exist_ok=True)
    import glob as _glob

    for f in sorted(_glob.glob(f"{ev_dir}/epoch=*.parquet")):
        e = int(os.path.basename(f)[6:-8])
        local = e // 2
        t = _pq.read_table(f)
        i = t.schema.get_field_index("epoch")
        t = t.set_column(
            i, t.schema.field(i),
            pa.array([local] * t.num_rows, t.schema.field(i).type),
        )
        _pq.write_table(t, os.path.join(shards[e % 2], f"epoch={local:05d}.parquet"))
    merge_wals(shards, mux_dir)
    return mux_dir


def cdc_mux_ingest(sf_dir: str) -> pd.DataFrame:
    """Multi-producer CDC: the flagship change log split across two
    binlog-style shards, multiplexed into one consumer WAL
    (reserve-then-copy protocol, epochs restamped globally), ingested to
    LWW convergence. The DuckDB twin replays the MUXED files, so epoch
    renumbering, interleaving, and the restamped envelope are all under
    the gate."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import read_lake, run_ingest

    mux_dir = ensure_cdc_shards(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake_mux"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8)
    run_ingest(cfg, mux_dir)  # idempotent
    df = read_lake(lake_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def ensure_cdc_expiry(sf_dir: str) -> tuple[str, str]:
    """Build (once, deterministically) the retention-expiry CDC chain:
    consumer WAL ← base change log, lake ingested, TTL deletion events
    emitted at the lake's median winning warc_ts
    (``ingest.build_expiry_wal``), muxed back into the SAME consumer
    WAL, re-ingested. Returns (consumer_wal_dir, lake_dir). The cutoff
    is frozen on first build (marker file), so re-runs and the DuckDB
    twin always see the same on-disk segments."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import (
        build_expiry_wal,
        read_lake,
        run_ingest,
    )
    from gene_etl_ray.pipelines.mux import merge_wals

    base = _cdc_base_dir(sf_dir)
    ev_dir = ensure_cdc_events(sf_dir)
    con_dir = f"{base}/wal_expiry"
    lake_dir = f"{base}/lake_expiry"
    exp_src = f"{base}/wal_expiry_src"
    marker = f"{base}/.expiry_done"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8)
    if os.path.exists(marker):
        run_ingest(cfg, con_dir)  # replay no-op; heals a torn build
        return con_dir, lake_dir
    merge_wals([ev_dir], con_dir)
    run_ingest(cfg, con_dir)
    # freeze the cutoff BEFORE anything expiry-related mutates the lake:
    # a torn build resumed after the expiry segments already applied
    # would otherwise recompute the median over the SURVIVORS and derive
    # a drifting second cutoff
    cut_file = f"{base}/.expiry_cutoff"
    if os.path.exists(cut_file):
        with open(cut_file) as fh:
            cutoff = int(fh.read())
    else:
        live = read_lake(lake_dir, columns=["url", "warc_ts"]).to_pandas()
        cutoff = int(
            live["warc_ts"].astype("datetime64[us]").astype("int64").median()
        )
        with open(cut_file, "w") as fh:
            fh.write(str(cutoff))
    build_expiry_wal(cfg, exp_src, cutoff)
    merge_wals([ev_dir, exp_src], con_dir)  # ev_dir keeps source index 0
    run_ingest(cfg, con_dir)
    open(marker, "w").close()
    return con_dir, lake_dir


def cdc_expired_lake(sf_dir: str) -> pd.DataFrame:
    """Retention expiry under the oracle gate: TTL deletion events
    (rows older than the frozen median cutoff) flow through the mux and
    the ordinary exactly-once ingest — the DuckDB twin replays the
    consumer WAL INCLUDING the expiry segment, so the whole
    expire-as-change-data contract is value-hash-checked."""
    from gene_etl_ray.pipelines.ingest import read_lake

    _, lake_dir = ensure_cdc_expiry(sf_dir)
    df = read_lake(lake_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def cdc_expiry_oracle_sql(sf_dir: str) -> str:
    con_dir, _ = ensure_cdc_expiry(sf_dir)
    return CDC_SQL_TEMPLATE.format(
        ev_glob=f"{con_dir}/epoch=*.parquet", admit_ctes="", src="ev"
    )


def cdc_mux_oracle_sql(sf_dir: str) -> str:
    """Oracle for the multi-shard flagship: QUALIFY-LWW replay of the
    MUXED consumer WAL (same template as the single-WAL flagship)."""
    mux_dir = ensure_cdc_shards(sf_dir)
    return CDC_SQL_TEMPLATE.format(
        ev_glob=f"{mux_dir}/epoch=*.parquet", admit_ctes="", src="ev"
    )


def cdc_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Time-travel change feed under the oracle gate: ingest the flagship
    change log into a RETAINED lake (``retain_history=True``), then
    ``diff_snapshots`` between commit epochs 1 and 3 — added / updated /
    deleted urls with each side's winning seq. The DuckDB twin recomputes
    both snapshots as QUALIFY-LWW over the same event files (prefix
    ``epoch <= e``) and full-outer-joins them."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import diff_snapshots, run_ingest

    ev_dir = ensure_cdc_events(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake_tt"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8, retain_history=True)
    run_ingest(cfg, ev_dir)  # idempotent: a second call is a no-op
    df = diff_snapshots(lake_dir, 1, 3).to_pandas()
    out = df[["url", "change", "seq_from", "seq_to"]].copy()
    out["seq_from"] = out["seq_from"].astype("float64")  # NaN on 'added'
    out["seq_to"] = out["seq_to"].astype("float64")  # NaN on 'deleted'
    return out.sort_values("url").reset_index(drop=True)


CDC_DIFF_SQL_TEMPLATE = """
WITH ev AS (
    SELECT url, warc_ts, op, seq, epoch
    FROM read_parquet('{ev_glob}', hive_partitioning = false)
), a AS (
    SELECT url, seq, op FROM ev WHERE epoch <= 1
    QUALIFY row_number() OVER (
        PARTITION BY url ORDER BY warc_ts DESC, seq DESC) = 1
), b AS (
    SELECT url, seq, op FROM ev WHERE epoch <= 3
    QUALIFY row_number() OVER (
        PARTITION BY url ORDER BY warc_ts DESC, seq DESC) = 1
), al AS (SELECT url, seq FROM a WHERE op <> 'D'),
   bl AS (SELECT url, seq FROM b WHERE op <> 'D')
SELECT COALESCE(al.url, bl.url) AS url,
       CASE WHEN al.url IS NULL THEN 'added'
            WHEN bl.url IS NULL THEN 'deleted'
            ELSE 'updated' END AS change,
       CAST(al.seq AS DOUBLE) AS seq_from,
       CAST(bl.seq AS DOUBLE) AS seq_to
FROM al FULL OUTER JOIN bl ON al.url = bl.url
WHERE al.url IS NULL OR bl.url IS NULL OR al.seq <> bl.seq
ORDER BY url
"""


def cdc_diff_oracle_sql(sf_dir: str) -> str:
    ev_dir = ensure_cdc_events(sf_dir)
    return CDC_DIFF_SQL_TEMPLATE.format(ev_glob=f"{ev_dir}/epoch=*.parquet")


def cdc_scd2_history(sf_dir: str) -> pd.DataFrame:
    """SCD type-2 audit history (``relational.scd2_intervals``) over the
    flagship change log: every version of every url as a validity
    interval [valid_from, valid_to) in the engine's merge order
    (warc_ts, seq), valid_to NULL on the open version, is_current on
    the last non-delete — the warehouse companion of the LWW merge
    (winner-only) and the snapshot diff (two-point): the FULL trail.
    One url-bucketed exchange, vectorized in-bucket sort + shift."""
    ev_dir = ensure_cdc_events(sf_dir)
    files = sorted(
        os.path.join(ev_dir, f)
        for f in os.listdir(ev_dir)
        if f.startswith("epoch=") and f.endswith(".parquet")
    )
    ds = ray.data.read_parquet(
        files, columns=["url", "warc_ts", "op", "seq"]
    )
    out = relational.scd2_intervals(
        ds, "url", "warc_ts", "seq", op_col="op", delete_value="D"
    ).to_pandas()
    out = out[["url", "seq", "op", "valid_from", "valid_to", "is_current"]]
    return out.sort_values(
        ["url", "valid_from", "seq"]
    ).reset_index(drop=True)


CDC_SCD2_SQL_TEMPLATE = """
SELECT url, seq, op, warc_ts AS valid_from,
       lead(warc_ts) OVER w AS valid_to,
       (lead(warc_ts) OVER w IS NULL AND op <> 'D') AS is_current
FROM read_parquet('{ev_glob}', hive_partitioning = false)
WINDOW w AS (PARTITION BY url ORDER BY warc_ts, seq)
ORDER BY url, valid_from, seq
"""


def cdc_scd2_oracle_sql(sf_dir: str) -> str:
    ev_dir = ensure_cdc_events(sf_dir)
    return CDC_SCD2_SQL_TEMPLATE.format(ev_glob=f"{ev_dir}/epoch=*.parquet")


def _cdc_since_ts_us(sf_dir: str) -> int:
    """Deterministic changed-since cut: the DISCRETE median of per-url
    winning warc_ts over the change log (computed identically by the
    query and the oracle builder, so the cut is non-vacuous at any sf)."""
    import glob as _glob

    import pyarrow.parquet as pq

    ev_dir = ensure_cdc_events(sf_dir)
    frames = [
        pq.read_table(f, columns=["url", "warc_ts"]).to_pandas()
        for f in sorted(_glob.glob(f"{ev_dir}/epoch=*.parquet"))
    ]
    w = pd.concat(frames).groupby("url")["warc_ts"].max().sort_values()
    return int(w.iloc[len(w) // 2].value // 1000)


def cdc_changed_since(sf_dir: str) -> pd.DataFrame:
    """Recency feed over the flagship lake: live rows whose WINNING
    version's warc_ts ≥ T — what a downstream CDC consumer polls. File
    pruning comes from the manifests' per-file zone maps
    (``read_lake(ts_min=...)``); exactness from the post-LWW row filter.
    The DuckDB twin filters the same LWW QUALIFY oracle on warc_ts."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import read_lake, run_ingest

    ev_dir = ensure_cdc_events(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8)
    run_ingest(cfg, ev_dir)  # idempotent: shares the flagship lake
    df = read_lake(lake_dir, ts_min=_cdc_since_ts_us(sf_dir)).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def cdc_since_oracle_sql(sf_dir: str) -> str:
    base = CDC_SQL_TEMPLATE.format(
        ev_glob=f"{ensure_cdc_events(sf_dir)}/epoch=*.parquet",
        admit_ctes="",
        src="ev",
    )
    t = pd.Timestamp(_cdc_since_ts_us(sf_dir) * 1000).isoformat(sep=" ")
    return (
        f"SELECT * FROM ({base.replace('ORDER BY url', '')}) "
        f"WHERE warc_ts >= TIMESTAMP '{t}' ORDER BY url"
    )


def cdc_repartitioned_lake(sf_dir: str) -> pd.DataFrame:
    """Online partition scale-out under the oracle gate: ingest the first
    half of the flagship change log at P=4, ``repartition_lake`` ×2 (the
    shuffle-free factor split + atomic overlay flip), ingest the rest at
    P=8, return the live table. The DuckDB twin is the SAME LWW QUALIFY
    oracle as ``cdc_ingest_lake`` — the final state is layout-independent,
    which is exactly the invariant the repartition must preserve."""
    import shutil

    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import (
        read_lake,
        repartition_lake,
        run_ingest,
    )
    from gene_etl_ray.state.checkpoint import read_lake_meta

    ev_dir = ensure_cdc_events(sf_dir)
    base = _cdc_base_dir(sf_dir)
    lake_dir = f"{base}/lake_repart"
    first = f"{base}/events_first2"
    os.makedirs(first, exist_ok=True)
    for n in ("epoch=00000.parquet", "epoch=00001.parquet"):
        if not os.path.exists(os.path.join(first, n)):
            shutil.copy(os.path.join(ev_dir, n), first)
    if read_lake_meta(lake_dir) is None:
        run_ingest(EngineConfig(lake_dir=lake_dir, num_partitions=4), first)
    if read_lake_meta(lake_dir)["num_partitions"] == 4:  # idempotent rerun
        repartition_lake(EngineConfig(lake_dir=lake_dir, num_partitions=4), 2)
    run_ingest(EngineConfig(lake_dir=lake_dir, num_partitions=8), ev_dir)
    df = read_lake(lake_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def ensure_late_events(sf_dir: str) -> str:
    """Deterministically derive (once) the lateness-exercising change log
    (stale updates + blocked resurrections) from the documents table."""
    from gene_etl_ray.fixtures import late_events_from_documents

    ev_dir = f"{_cdc_base_dir(sf_dir)}/events_late"
    if not os.path.isdir(ev_dir):
        late_events_from_documents(sf_dir, ev_dir)
    return ev_dir


def cdc_lateness_lake(sf_dir: str) -> pd.DataFrame:
    """Event-time watermark / allowed-lateness contract under the oracle
    gate: ingest a change log planted with stale events (older than the
    committed watermark minus ``LATE_LATENESS_US``, including attempts to
    resurrect deleted urls) with ``allowed_lateness_us`` set — the engine
    must reject them at admission (dead-lettered with reason "late") and
    GC aged tombstones. The DuckDB twin simulates the same per-commit-
    group watermark with window functions (``CDC_LATE_CTES``)."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.fixtures import LATE_LATENESS_US
    from gene_etl_ray.pipelines.ingest import read_lake, run_ingest

    ev_dir = ensure_late_events(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake_late"
    cfg = EngineConfig(
        lake_dir=lake_dir,
        num_partitions=8,
        allowed_lateness_us=LATE_LATENESS_US,
        dead_letter=True,
    )
    run_ingest(cfg, ev_dir)  # idempotent: a second call is a no-op
    df = read_lake(lake_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def cdc_late_oracle_sql(sf_dir: str) -> str:
    from gene_etl_ray.fixtures import LATE_LATENESS_US

    ev_dir = ensure_late_events(sf_dir)
    return CDC_SQL_TEMPLATE.format(
        ev_glob=f"{ev_dir}/epoch=*.parquet",
        admit_ctes=CDC_LATE_CTES.format(lateness_us=LATE_LATENESS_US),
        src="adm",
    )


CDC_LATE_DL_TEMPLATE = """
WITH ev AS (
    SELECT url, warc_ts, op, seq, epoch
    FROM read_parquet('{ev_glob}', hive_partitioning = false)
    WHERE url IS NOT NULL AND op IN ('I', 'U', 'D')
      AND warc_ts IS NOT NULL AND seq IS NOT NULL
){admit_ctes}
SELECT ev.url, ev.warc_ts, ev.seq, ev.epoch, 'late' AS reason
FROM ev JOIN wm ON ev.epoch = wm.epoch
WHERE wm.W IS NOT NULL
  AND epoch_us(ev.warc_ts) < epoch_us(wm.W) - {lateness_us}
ORDER BY seq
"""


def cdc_late_dead_letters(sf_dir: str) -> pd.DataFrame:
    """The complement feed: every event the lateness contract rejected,
    read back from the replayable dead-letter sink with its reason. The
    DuckDB twin inverts the admission predicate over the same files —
    together with ``cdc_lateness_lake`` the two oracles pin that admitted
    ∪ rejected is exactly the change log (nothing silently dropped)."""
    from gene_etl_ray.pipelines.ingest import read_dead_letters

    cdc_lateness_lake(sf_dir)  # idempotent: ensure lake + sink exist
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake_late"
    df = read_dead_letters(lake_dir).to_pandas()
    out = df[["url", "warc_ts", "seq", "epoch", "reason"]].copy()
    return out.sort_values("seq").reset_index(drop=True)


def cdc_late_dl_oracle_sql(sf_dir: str) -> str:
    from gene_etl_ray.fixtures import LATE_LATENESS_US

    ev_dir = ensure_late_events(sf_dir)
    return CDC_LATE_DL_TEMPLATE.format(
        ev_glob=f"{ev_dir}/epoch=*.parquet",
        admit_ctes=CDC_LATE_CTES.format(lateness_us=LATE_LATENESS_US),
        lateness_us=LATE_LATENESS_US,
    )


def ensure_mv_events(sf_dir: str) -> str:
    """Deterministic multi-domain change log (url host keyed by the
    document's ``source``) so the domain_stats view has 20 groups."""
    from gene_etl_ray.fixtures import events_from_documents

    ev_dir = f"{_cdc_base_dir(sf_dir)}/events_mv"
    if not os.path.isdir(ev_dir):
        events_from_documents(sf_dir, ev_dir, subdomain_urls=True)
    return ev_dir


def cdc_domain_stats_view(sf_dir: str) -> pd.DataFrame:
    """Incremental materialized view under the oracle gate: ingest a
    multi-domain change log, ``refresh_view`` (partition-invalidation IVM
    — only shards behind their partition's manifest epoch recompute),
    read the combined per-domain stats. The DuckDB twin recomputes the
    view from scratch over the raw change log (LWW winners → extracted
    text → per-domain url/whitespace-token totals) — the invariant is
    that incremental maintenance equals full recomputation."""
    from gene_etl_ray.config import EngineConfig
    from gene_etl_ray.pipelines.ingest import run_ingest
    from gene_etl_ray.state.mview import read_view, refresh_view

    ev_dir = ensure_mv_events(sf_dir)
    lake_dir = f"{_cdc_base_dir(sf_dir)}/lake_mv"
    cfg = EngineConfig(lake_dir=lake_dir, num_partitions=8)
    run_ingest(cfg, ev_dir)  # idempotent: a second call is a no-op
    refresh_view(lake_dir)  # incremental: no-op when shards are current
    return read_view(lake_dir)


DOMAIN_STATS_SQL_TEMPLATE = """
WITH lww AS ({lww_sql})
SELECT regexp_extract(url, '^[a-z][a-z0-9+.-]*://([^/]+)', 1) AS domain,
       CAST(count(*) AS BIGINT) AS n_urls,
       CAST(sum(coalesce(CASE
           WHEN length(trim(text, ' ' || chr(10) || chr(9))) = 0 THEN 0
           ELSE len(regexp_split_to_array(
                    trim(text, ' ' || chr(10) || chr(9)), '\\s+'))
       END, 0)) AS BIGINT) AS n_tokens
FROM lww
GROUP BY domain
ORDER BY domain
"""


def cdc_domain_stats_oracle_sql(sf_dir: str) -> str:
    ev_dir = ensure_mv_events(sf_dir)
    lww = CDC_SQL_TEMPLATE.format(
        ev_glob=f"{ev_dir}/epoch=*.parquet", admit_ctes="", src="ev"
    ).replace("ORDER BY url", "")
    return DOMAIN_STATS_SQL_TEMPLATE.format(lww_sql=lww)


def media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal decode: synthesize REAL binary payloads (JPEG/PNG/WAV,
    all native codecs — baseline JPEG included since r4) →
    actor-pool decode → feature rows. Oracled as a FIXTURE-PARAMETER
    TWIN: the synthesis parameters are pure formulas of doc_id (image
    side = 8 + id%24, audio samples = 256 + id%1024, rate 8000), and the
    query re-derives ``decoded_size`` FROM THE DECODED FEATURE VECTOR
    (h·4096 for images, duration·rate for audio) — so equality with the
    SQL formula gates the whole encode→decode→featurize roundtrip on
    real bytes."""
    docs = read(sf_dir, "documents", ["doc_id"])
    media = multimodal.synthesize_media(docs)
    out = multimodal.decode_media(media).to_pandas()
    feats = np.stack(out["feature"].to_numpy())
    is_img = (out["media_type"] == "image").to_numpy()
    decoded = np.where(
        is_img,
        np.rint(feats[:, 6] * 4096.0),          # h / 4096 → side
        np.rint(feats[:, 4] * feats[:, 5] * 48000.0),  # dur · rate
    ).astype(np.int64)
    out["feature_dim"] = out["feature"].map(len).astype("int64")
    out["decoded_size"] = decoded
    return out[
        ["media_id", "media_type", "mime", "feature_dim", "decoded_size"]
    ].sort_values("media_id").reset_index(drop=True)


MEDIA_FEATURES_SQL = """
SELECT doc_id AS media_id,
       CASE WHEN doc_id % 3 = 0 THEN 'audio' ELSE 'image' END AS media_type,
       CASE WHEN doc_id % 3 = 0 THEN 'audio/wav'
            WHEN doc_id % 3 = 1 THEN 'image/jpeg'
            ELSE 'image/png' END AS mime,
       CAST(8 AS BIGINT) AS feature_dim,
       CAST(CASE WHEN doc_id % 3 = 0 THEN 256 + doc_id % 1024
                 ELSE 8 + doc_id % 24 END AS BIGINT) AS decoded_size
FROM documents ORDER BY media_id
"""


def media_resized(sf_dir: str) -> pd.DataFrame:
    """Multimodal resize / frame-sample: synthesize → actor-pool resample
    (REAL nearest-neighbor JPEG/PNG resize to 12×12 + PCM
    frame-decimation by stride 4; MP3/video raise at the PIL/ffmpeg
    slot) → RE-DECODE the
    resized payloads to prove the output bytes are themselves valid
    media. Fixture-parameter twin: out_h/out_w = 12 for images, -1 for
    audio; out_frames = ceil((256 + id%1024) / 4) for audio, -1 for
    images — all pure formulas of doc_id, checked against the re-decoded
    bytes."""
    docs = read(sf_dir, "documents", ["doc_id"])
    media = multimodal.synthesize_media(docs)
    resized = multimodal.resize_media(media, size=12, stride=4)
    out = multimodal.decode_media(resized).to_pandas()
    out = out[
        ["media_id", "media_type", "mime", "out_h", "out_w", "out_frames"]
    ].copy()
    for c in ("out_h", "out_w", "out_frames"):
        out[c] = out[c].astype("int64")
    return out.sort_values("media_id").reset_index(drop=True)


MEDIA_RESIZED_SQL = """
SELECT doc_id AS media_id,
       CASE WHEN doc_id % 3 = 0 THEN 'audio' ELSE 'image' END AS media_type,
       CASE WHEN doc_id % 3 = 0 THEN 'audio/wav'
            WHEN doc_id % 3 = 1 THEN 'image/jpeg'
            ELSE 'image/png' END AS mime,
       CAST(CASE WHEN doc_id % 3 = 0 THEN -1 ELSE 12 END AS BIGINT) AS out_h,
       CAST(CASE WHEN doc_id % 3 = 0 THEN -1 ELSE 12 END AS BIGINT) AS out_w,
       CAST(CASE WHEN doc_id % 3 = 0
                 THEN CAST(ceil((256 + doc_id % 1024) / 4.0) AS BIGINT)
                 ELSE -1 END AS BIGINT) AS out_frames
FROM documents ORDER BY media_id
"""


def media_frame_sample(sf_dir: str) -> pd.DataFrame:
    """Video frame-sampling (``multimodal.sample_frames``): synthesize
    REAL raw-video payloads (frame f = constant pixel (id+f)%251) →
    actor-pool every-4th-frame sampler → RE-DECODE the sampled payloads
    and recompute the checksum from THOSE bytes, proving the output is
    itself valid video. Fixture-parameter twin: frame counts and the
    sampled-pixel checksum are pure formulas of doc_id that the SQL
    re-derives with a range-unnest — so the gate covers the actual
    pixel bytes through encode → sample → decode."""
    docs = read(sf_dir, "documents", ["doc_id"])
    vids = multimodal.synthesize_video(docs)
    sampled = multimodal.sample_frames(vids, stride=4).to_pandas()
    # re-decode the SAMPLED payloads: checksum must reproduce from bytes
    redec = np.array(
        [
            int(multimodal.rawvideo_decode(p).sum(dtype=np.uint64))
            for p in sampled["payload"]
        ],
        dtype=np.int64,
    )
    assert (redec == sampled["checksum"].to_numpy()).all()
    out = sampled[
        ["media_id", "n_frames_in", "n_frames_out", "out_h", "out_w", "checksum"]
    ].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("media_id").reset_index(drop=True)


MEDIA_FRAME_SAMPLE_SQL = """
WITH v AS (SELECT doc_id, CAST(8 + doc_id % 8 AS BIGINT) AS side,
                  CAST(8 + doc_id % 32 AS BIGINT) AS nf
           FROM documents),
f AS (SELECT doc_id, side, nf, unnest(range(0, nf)) AS fi FROM v)
SELECT doc_id AS media_id, nf AS n_frames_in,
       CAST(count(*) AS BIGINT) AS n_frames_out,
       side AS out_h, side AS out_w,
       CAST(sum(side * side * ((doc_id + fi) % 251)) AS BIGINT) AS checksum
FROM f WHERE fi % 4 = 0
GROUP BY doc_id, nf, side ORDER BY media_id
"""


# ---------------------------------------------------------------------------
# literal rank statistics (reference correlate.py parity): Spearman /
# Kendall dispatch, BH-FDR, blocked all-pairs correlation matrix
# ---------------------------------------------------------------------------


def lineitem_spearman_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-cohort Spearman correlation (the reference's headline method,
    ``correlate.py:124-131``): rho(l_quantity, l_extendedprice) per
    l_returnflag — one hash shuffle, average-rank transform + Pearson
    moments in-group. DuckDB twin: average ranks via RANK + tie-count
    windows, then corr()."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = correlate.grouped_corr(
        ds, "l_returnflag", "l_quantity", "l_extendedprice", method="spearman"
    )
    out["rho"] = out["rho"].round(6)
    return out


SPEARMAN_SQL = """
WITH r AS (
  SELECT l_returnflag,
         RANK() OVER (PARTITION BY l_returnflag ORDER BY l_quantity)
           + (COUNT(*) OVER (PARTITION BY l_returnflag, l_quantity) - 1)/2.0 AS rx,
         RANK() OVER (PARTITION BY l_returnflag ORDER BY l_extendedprice)
           + (COUNT(*) OVER (PARTITION BY l_returnflag, l_extendedprice) - 1)/2.0 AS ry
  FROM lineitem)
SELECT l_returnflag, round(corr(rx, ry), 6) AS rho,
       CAST(count(*) AS BIGINT) AS n
FROM r GROUP BY l_returnflag ORDER BY l_returnflag
"""


def customer_kendall_by_segment(sf_dir: str) -> pd.DataFrame:
    """Per-cohort Kendall tau-b (the reference's third dispatch method):
    tau(c_acctbal, c_nationkey) per market segment — blocked pairwise
    sign kernel in-group. DuckDB twin: concordant/discordant self-join +
    tie-count correction."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "customer", ["c_mktsegment", "c_acctbal", "c_nationkey"])
    out = correlate.grouped_corr(
        ds, "c_mktsegment", "c_acctbal", "c_nationkey", method="kendall"
    )
    out["rho"] = out["rho"].round(6)
    return out


KENDALL_SQL = """
WITH base AS (
  SELECT c_mktsegment g, c_acctbal x, CAST(c_nationkey AS DOUBLE) y,
         row_number() OVER () i
  FROM customer),
cd AS (SELECT a.g, sum(sign(a.x-b.x)*sign(a.y-b.y)) s
       FROM base a JOIN base b ON a.g = b.g AND a.i < b.i GROUP BY a.g),
tx AS (SELECT g, sum(c*(c-1)/2) n1
       FROM (SELECT g, x, count(*) c FROM base GROUP BY g, x) GROUP BY g),
ty AS (SELECT g, sum(c*(c-1)/2) n2
       FROM (SELECT g, y, count(*) c FROM base GROUP BY g, y) GROUP BY g),
nn AS (SELECT g, count(*)*(count(*)-1)/2 n0, count(*) n FROM base GROUP BY g)
SELECT nn.g AS c_mktsegment,
       round(cd.s / sqrt((nn.n0-tx.n1)*(nn.n0-ty.n2)), 6) AS rho,
       CAST(nn.n AS BIGINT) AS n
FROM nn JOIN cd ON nn.g=cd.g JOIN tx ON nn.g=tx.g JOIN ty ON nn.g=ty.g
ORDER BY nn.g
"""


def events_fdr_bh(sf_dir: str) -> pd.DataFrame:
    """Per-cohort Benjamini-Hochberg FDR (``correlate.py:149-189``
    literally): pseudo p-values = percent_rank of value within each
    event_type (SQL-identical arithmetic), then the BH suffix-min rank
    transform per cohort — the A7 full-group barrier. DuckDB twin:
    percent_rank window + MIN OVER the suffix frame."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "events", ["event_id", "event_type", "value"])

    def add_p(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        r = g["value"].rank(method="min").to_numpy()
        g = g.copy()
        g["p"] = (r - 1) / max(n - 1, 1)
        return g

    pds = ds.groupby("event_type").map_groups(add_p, batch_format="pandas")
    out = correlate.grouped_bh_fdr(pds, "event_type", "p").to_pandas()
    out = out[["event_id", "event_type", "p", "q_value"]]
    out["p"] = out["p"].round(6)
    out["q_value"] = out["q_value"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


FDR_BH_SQL = """
WITH p AS (
  SELECT event_id, event_type,
         percent_rank() OVER (PARTITION BY event_type ORDER BY value) AS p,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events),
r AS (
  SELECT event_id, event_type, p,
         p * n / (row_number() OVER (PARTITION BY event_type ORDER BY p)) AS v,
         row_number() OVER (PARTITION BY event_type ORDER BY p) AS rk
  FROM p)
SELECT event_id, event_type, round(p, 6) AS p,
       round(least(min(v) OVER (PARTITION BY event_type ORDER BY rk
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING), 1.0), 6) AS q_value
FROM r ORDER BY event_id
"""


def events_fdr_by(sf_dir: str) -> pd.DataFrame:
    """Per-cohort Benjamini-YEKUTIELI FDR (``bh_fdr(dependence=True)``):
    BH with the harmonic-number c(n) = Σ 1/i factor — valid under
    arbitrary dependence, the conservative correction genomics
    pipelines use when tests correlate. Same pseudo-p construction and
    barrier shape as events_fdr_bh; the twin computes c(n) with a
    generate_series sum."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "events", ["event_id", "event_type", "value"])

    def add_p(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        r = g["value"].rank(method="min").to_numpy()
        g = g.copy()
        g["p"] = (r - 1) / max(n - 1, 1)
        return g

    pds = ds.groupby("event_type").map_groups(add_p, batch_format="pandas")
    out = correlate.grouped_bh_fdr(
        pds, "event_type", "p", dependence=True).to_pandas()
    out = out[["event_id", "event_type", "p", "q_value"]]
    out["p"] = out["p"].round(6)
    out["q_value"] = out["q_value"].round(6)
    return out.sort_values("event_id").reset_index(drop=True)


FDR_BY_SQL = """
WITH p AS (
  SELECT event_id, event_type,
         percent_rank() OVER (PARTITION BY event_type ORDER BY value) AS p,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events),
hn AS (
  SELECT nn, sum(1.0 / k) AS cm
  FROM (SELECT DISTINCT n AS nn FROM p) d,
       LATERAL (SELECT unnest(generate_series(1, d.nn)) AS k)
  GROUP BY nn),
r AS (
  SELECT event_id, event_type, p.p,
         p.p * p.n * hn.cm
           / (row_number() OVER (PARTITION BY event_type ORDER BY p.p)) AS v,
         row_number() OVER (PARTITION BY event_type ORDER BY p.p) AS rk
  FROM p JOIN hn ON hn.nn = p.n)
SELECT event_id, event_type, round(p, 6) AS p,
       round(least(min(v) OVER (PARTITION BY event_type ORDER BY rk
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING), 1.0), 6)
         AS q_value
FROM r ORDER BY event_id
"""


def events_type_corr_matrix(sf_dir: str) -> pd.DataFrame:
    """Blocked ALL-PAIRS correlation matrix (the reference's flagship
    compute shape, ``correlate.py:34-113``): pivot per-user event-type
    counts to a users × types matrix (missing → 0, the pivot-fill_null
    parity) and correlate every type pair via upper-triangle block
    tiles. DuckDB twin: dense grid via cross join + per-pair corr."""
    from gene_etl_ray.ops import correlate
    from gene_etl_ray.ops.relational import grouped_aggregate_partial

    ds = read(sf_dir, "events", ["user_id", "event_type"])
    counts = grouped_aggregate_partial(
        ds.map_batches(
            lambda b: b.assign(__one=np.int64(1)), batch_format="pandas"
        ),
        ["user_id", "event_type"],
        sums={"n": "__one"},
    )
    counts_ds = ray.data.from_pandas(
        counts if isinstance(counts, pd.DataFrame) else counts.to_pandas()
    )
    out = correlate.pairwise_corr_matrix(
        counts_ds, "event_type", "user_id", "n", fill=0.0
    )
    out["rho"] = out["rho"].round(6)
    return out


CORR_MATRIX_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS DOUBLE) v
  FROM events GROUP BY 1, 2),
grid AS (
  SELECT u.user_id, t.event_type
  FROM (SELECT DISTINCT user_id FROM events) u
  CROSS JOIN (SELECT DISTINCT event_type FROM events) t),
m AS (
  SELECT g.user_id, g.event_type, COALESCE(c.v, 0.0) v
  FROM grid g LEFT JOIN c USING (user_id, event_type))
SELECT a.event_type AS var_a, b.event_type AS var_b,
       round(corr(a.v, b.v), 6) AS rho,
       CAST(count(*) AS BIGINT) AS n
FROM m a JOIN m b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def lineitem_corr_fdr_pipeline(sf_dir: str) -> pd.DataFrame:
    """The reference's END-TO-END statistical pipeline
    (``correlate.py:249-295``) on engine data: per-returnflag all-pairs
    Spearman over the orderkey × linenumber quantity matrix → t-test
    p-value → per-cohort BH-FDR → significance flag. Fully oracled
    (CORR_FDR_PIPE_SQL): the t survival function has a closed FINITE
    series for every integer df (A&S 26.7.3/26.7.4) that DuckDB
    evaluates via a generate_series join, so the general-df path lands
    under the value-hash gate; invariants (rho ∈ [-1,1], p/q ∈ [0,1],
    q ≥ p, C(n,2) pairs per cohort) stay pinned in
    tests/test_correlate.py exactly the way the reference pins its own
    p-values."""
    from gene_etl_ray.ops import correlate

    ds = read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_orderkey", "l_linenumber", "l_quantity"],
    )
    out = correlate.corr_with_fdr(
        ds, "l_linenumber", "l_orderkey", "l_quantity", "l_returnflag",
        method="spearman",
    )
    for c in ("rho", "p_value", "q_value"):
        out[c] = out[c].round(6)
    return out


def corr_fdr_significant(sf_dir: str) -> pd.DataFrame:
    """The SAME end-to-end corr→p→BH-FDR→significance code path as
    ``lineitem_corr_fdr_pipeline`` (``correlate.py:249-295``), run in
    the df=1 EXACT REGIME so the t-distribution survival function has a
    closed form DuckDB can evaluate: with exactly 3 samples per cohort,
    p = P(|T₁| ≥ |t|) = 1 − (2/π)·atan(|t|), t = rho/√(1−rho²). The
    input is the per-(returnflag, suppkey%8, linenumber≤3) revenue sum,
    pivoted to a 3-sample × 8-var matrix per cohort — every stage of the
    pipeline (pivot fill, blocked tile corr, betainc p-value, per-cohort
    BH suffix-min, alpha flag) lands under the value-hash gate. The
    engine side still goes through the general incomplete-beta kernel
    (verified ≤1e-12 from the closed form at df=1 in
    tests/test_correlate.py), so this gates the production code, not a
    special case of it."""
    from gene_etl_ray.ops import correlate
    from gene_etl_ray.ops.relational import grouped_aggregate_partial

    ds = read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_suppkey", "l_linenumber", "l_extendedprice"],
    )

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b.column("l_linenumber"), pa.scalar(3)))
        return b.append_column(
            "supp_bucket", pc.bit_wise_and(b.column("l_suppkey"), pa.scalar(7))
        )

    sums = grouped_aggregate_partial(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "supp_bucket", "l_linenumber"],
        sums={"v": "l_extendedprice"},
    )
    out = correlate.corr_with_fdr(
        ray.data.from_pandas(sums),
        "supp_bucket", "l_linenumber", "v", "l_returnflag",
        method="pearson", alpha=0.05,
    )
    out["n"] = out["n"].astype("int64")
    for c in ("rho", "p_value", "q_value"):
        out[c] = out[c].round(6)
    return out.reset_index(drop=True)


CORR_FDR_SQL = """
WITH c AS (
  SELECT l_returnflag g, l_suppkey % 8 var, l_linenumber s,
         sum(l_extendedprice) v
  FROM lineitem WHERE l_linenumber <= 3 GROUP BY 1, 2, 3),
grid AS (
  SELECT gv.g, gv.var, gs.s
  FROM (SELECT DISTINCT g, var FROM c) gv
  JOIN (SELECT DISTINCT g, s FROM c) gs ON gv.g = gs.g),
m AS (
  SELECT grid.g, grid.var, grid.s, COALESCE(c.v, 0.0) v
  FROM grid LEFT JOIN c ON grid.g = c.g AND grid.var = c.var
                        AND grid.s = c.s),
pairs AS (
  SELECT a.g, a.var va, b.var vb, corr(a.v, b.v) rho,
         CAST(count(*) AS BIGINT) n
  FROM m a JOIN m b ON a.g = b.g AND a.s = b.s AND a.var < b.var
  GROUP BY 1, 2, 3),
pv AS (
  SELECT g, va, vb, rho, n,
         CASE WHEN abs(rho) >= 1.0 THEN 0.0
              ELSE 1.0 - 2.0 * atan(abs(rho) / sqrt(1.0 - rho*rho)) / pi()
         END AS p,
         count(*) OVER (PARTITION BY g) AS npairs
  FROM pairs),
r AS (
  SELECT *, row_number() OVER (PARTITION BY g ORDER BY p) AS rk,
         p * npairs / row_number() OVER (PARTITION BY g ORDER BY p) AS bh
  FROM pv),
q AS (
  SELECT g, va, vb, rho, n, p,
         least(min(bh) OVER (PARTITION BY g ORDER BY rk
             ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING), 1.0) AS qv
  FROM r)
SELECT g AS l_returnflag, va AS var_a, vb AS var_b,
       round(rho, 6) AS rho, round(p, 6) AS p_value,
       round(qv, 6) AS q_value, n, qv < 0.05 AS significant
FROM q ORDER BY 1, 2, 3
"""


# Twin for the GENERAL-df pipeline (lineitem_corr_fdr_pipeline). The
# Student-t two-sided survival function has a closed FINITE form for
# every integer df (Abramowitz & Stegun 26.7.3/26.7.4):
#   θ = atan(t/√df)
#   df odd:  A = (2/π)·(θ + sinθ·cosθ·Σ_{k=0}^{(df-3)/2} o_k cos^{2k}θ),
#            o_0 = 1, o_k = o_{k-1}·2k/(2k+1)
#   df even: A = sinθ·Σ_{k=0}^{(df-2)/2} e_k cos^{2k}θ,
#            e_0 = 1, e_k = e_{k-1}·(2k-1)/(2k)
#   p = 1 − A(|t| | df)
# The coefficient prefix-products are exp(Σ ln) window sums over ONE
# generate_series shared by all pairs (k capped per pair by its df), so
# the whole series is a plain join + groupby — no recursion. The engine
# side still evaluates the regularized-incomplete-beta continued
# fraction (correlate.py t_sf_two_sided); the two are the same function
# to ~1e-12, far inside the 6dp gate. Spearman = corr over average
# ranks (rank() + (ties−1)/2), the _rank_average convention.
CORR_FDR_PIPE_SQL = """
WITH c AS (
  SELECT l_returnflag g, l_orderkey s, l_linenumber var,
         CAST(min(l_quantity) AS DOUBLE) v
  FROM lineitem GROUP BY 1, 2, 3),
grid AS (
  SELECT gs.g, gs.s, gv.var
  FROM (SELECT DISTINCT g, s FROM c) gs
  JOIN (SELECT DISTINCT g, var FROM c) gv ON gs.g = gv.g),
m AS (
  SELECT grid.g, grid.s, grid.var, COALESCE(c.v, 0.0) v
  FROM grid LEFT JOIN c ON grid.g = c.g AND grid.s = c.s
                        AND grid.var = c.var),
rk AS (
  SELECT g, s, var,
         CAST(rank() OVER (PARTITION BY g, var ORDER BY v) AS DOUBLE)
         + (CAST(count(*) OVER (PARTITION BY g, var, v) AS DOUBLE)
            - 1.0) / 2.0 AS r
  FROM m),
pairs AS (
  SELECT a.g, a.var va, b.var vb, corr(a.r, b.r) rho,
         CAST(count(*) AS BIGINT) n
  FROM rk a JOIN rk b ON a.g = b.g AND a.s = b.s AND a.var < b.var
  GROUP BY 1, 2, 3),
ang AS (
  SELECT g, va, vb, rho, n, n - 2 AS df,
         atan(abs(rho) * sqrt((n - 2.0)
              / greatest(1.0 - rho * rho, 1e-300))
              / sqrt(n - 2.0)) AS theta
  FROM pairs),
ks AS (
  SELECT unnest(generate_series(0,
      greatest((SELECT CAST(max(n) AS BIGINT) FROM pairs), 1))) AS k),
coef AS (
  SELECT k,
         exp(sum(CASE WHEN k = 0 THEN 0.0
                      ELSE ln(2.0 * k / (2.0 * k + 1.0)) END)
             OVER (ORDER BY k)) AS ocoef,
         exp(sum(CASE WHEN k = 0 THEN 0.0
                      ELSE ln((2.0 * k - 1.0) / (2.0 * k)) END)
             OVER (ORDER BY k)) AS ecoef
  FROM ks),
ser AS (
  SELECT a.g, a.va, a.vb,
         sum(CASE WHEN a.df % 2 = 1 THEN coef.ocoef
                  ELSE coef.ecoef END
             * pow(cos(a.theta) * cos(a.theta), coef.k)) AS ssum
  FROM ang a JOIN coef
    ON coef.k <= CASE WHEN a.df % 2 = 1 THEN (a.df - 3) // 2
                      ELSE (a.df - 2) // 2 END
  GROUP BY 1, 2, 3),
pv AS (
  SELECT a.g, a.va, a.vb, a.rho, a.n,
         CASE WHEN a.rho IS NULL OR a.n <= 2 THEN 1.0
              WHEN abs(a.rho) >= 1.0 THEN 0.0
              ELSE least(greatest(1.0 - CASE WHEN a.df % 2 = 1
                  THEN (2.0 / pi()) * (a.theta
                       + sin(a.theta) * cos(a.theta)
                         * COALESCE(ser.ssum, 0.0))
                  ELSE sin(a.theta) * COALESCE(ser.ssum, 0.0)
              END, 0.0), 1.0)
         END AS p
  FROM ang a LEFT JOIN ser ON a.g = ser.g AND a.va = ser.va
                           AND a.vb = ser.vb),
pv2 AS (
  SELECT *, count(*) OVER (PARTITION BY g) AS npairs FROM pv),
r AS (
  SELECT *, row_number() OVER (PARTITION BY g ORDER BY p) AS rnk,
         p * npairs / row_number() OVER (PARTITION BY g ORDER BY p) AS bh
  FROM pv2),
q AS (
  SELECT g, va, vb, rho, n, p,
         least(min(bh) OVER (PARTITION BY g ORDER BY rnk
             ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING), 1.0) AS qv
  FROM r)
SELECT g AS l_returnflag, va AS var_a, vb AS var_b,
       round(rho, 6) AS rho, round(p, 6) AS p_value,
       round(qv, 6) AS q_value, n, qv < 0.05 AS significant
FROM q ORDER BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# outer joins, window functions, reshape, stratified sampling
# ---------------------------------------------------------------------------

def customer_orders_left_join(sf_dir: str) -> pd.DataFrame:
    """LEFT OUTER partitioned join (customers without orders survive with
    nulls): customer ⋈ orders bucketed on the customer key — per-bucket
    left-merge is globally exact because a bucket holds every row of both
    sides for its keys. Neither side broadcast or driver-materialized."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    joined = relational.partitioned_join(
        cust, orders, "c_custkey", "o_custkey", how="left"
    )

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b["no_order"] = b["o_orderkey"].isna().astype(np.int64)
        b["spend"] = b["o_totalprice"].fillna(0.0)
        return b[["c_mktsegment", "no_order", "spend"]]

    out = grouped_aggregate_partial(
        joined.map_batches(prep, batch_format="pandas"),
        ["c_mktsegment"],
        sums={"n_no_orders": "no_order", "spend": "spend"},
        counts="n_rows",
    )
    out["n_no_orders"] = out["n_no_orders"].astype("int64")
    out["spend"] = out["spend"].round(2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


LEFT_JOIN_SQL = """
SELECT c_mktsegment,
       CAST(sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_no_orders,
       ROUND(sum(COALESCE(o_totalprice, 0)), 2) AS spend,
       CAST(count(*) AS BIGINT) AS n_rows
FROM customer LEFT JOIN orders ON c_custkey = o_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def events_customers_full_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER reconciliation: distinct event users vs the customer
    dimension, categorized by side presence — the set-difference
    consistency check (D4) as one partitioned outer join instead of two
    anti joins. Distinct users come from a distributed groupby (never a
    driver-side set)."""
    users = (
        read(sf_dir, "events", ["user_id"])
        .groupby("user_id").count()
        .map_batches(lambda b: b[["user_id"]], batch_format="pandas")
    )
    cust = read(sf_dir, "customer", ["c_custkey"])
    joined = relational.partitioned_join(
        users, cust, "user_id", "c_custkey", how="outer"
    )

    def cat(b: pd.DataFrame) -> pd.DataFrame:
        b["presence"] = np.where(
            b["user_id"].isna(), "customer_only",
            np.where(b["c_custkey"].isna(), "event_only", "both"),
        )
        return b[["presence"]]

    out = grouped_aggregate_partial(
        joined.map_batches(cat, batch_format="pandas"),
        ["presence"], sums={}, counts="n",
    )
    return out.sort_values("presence").reset_index(drop=True)


FULL_OUTER_SQL = """
WITH u AS (SELECT DISTINCT user_id FROM events)
SELECT CASE WHEN user_id IS NULL THEN 'customer_only'
            WHEN c_custkey IS NULL THEN 'event_only'
            ELSE 'both' END AS presence,
       CAST(count(*) AS BIGINT) AS n
FROM u FULL OUTER JOIN customer ON user_id = c_custkey
GROUP BY 1 ORDER BY 1
"""


def events_value_lag_stats(sf_dir: str) -> pd.DataFrame:
    """LAG window function: per-user inter-event value deltas (ordered by
    ts with event_id tiebreak), aggregated per user. One hash shuffle on
    the key; the shift is vectorized inside each group."""
    ds = read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    lagged = relational.lag_lead(ds, "user_id", ["ts", "event_id"], "value")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b["abs_delta"] = (b["value"] - b["lag_value"]).abs().fillna(0.0)
        b["has_lag"] = b["lag_value"].notna().astype(np.int64)
        return b[["user_id", "abs_delta", "has_lag"]]

    out = grouped_aggregate_partial(
        lagged.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        sums={"sum_abs_delta": "abs_delta", "n_deltas": "has_lag"},
        counts="n_events",
    )
    out["n_deltas"] = out["n_deltas"].astype("int64")
    out["sum_abs_delta"] = out["sum_abs_delta"].round(4)
    return out.sort_values("user_id").reset_index(drop=True)


LAG_SQL = """
WITH lagged AS (
  SELECT user_id, value,
         lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)
             AS lag_value
  FROM events)
SELECT user_id,
       ROUND(COALESCE(sum(abs(value - lag_value)), 0), 4) AS sum_abs_delta,
       CAST(count(lag_value) AS BIGINT) AS n_deltas,
       CAST(count(*) AS BIGINT) AS n_events
FROM lagged GROUP BY user_id ORDER BY user_id
"""


def part_price_quartiles(sf_dir: str) -> pd.DataFrame:
    """NTILE window function: per-brand price quartiles (deterministic
    order: price then partkey), then per-(brand, tile) stats. Exact SQL
    NTILE semantics — the first count%n tiles are one row larger."""
    ds = read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])
    tiled = relational.ntile_in_groups(
        ds, "p_brand", ["p_retailprice", "p_partkey"], 4, name="tile"
    )
    out = grouped_aggregate_partial(
        tiled, ["p_brand", "tile"], sums={"sum_price": "p_retailprice"}, counts="n"
    )
    out["avg_price"] = (out["sum_price"] / out["n"]).round(6)
    out["sum_price"] = out["sum_price"].round(2)
    return out.sort_values(["p_brand", "tile"]).reset_index(drop=True)


NTILE_SQL = """
WITH t AS (
  SELECT p_brand, p_retailprice,
         ntile(4) OVER (PARTITION BY p_brand ORDER BY p_retailprice, p_partkey)
             AS tile
  FROM part)
SELECT p_brand, CAST(tile AS BIGINT) AS tile,
       ROUND(sum(p_retailprice), 2) AS sum_price,
       CAST(count(*) AS BIGINT) AS n,
       ROUND(avg(p_retailprice), 6) AS avg_price
FROM t GROUP BY p_brand, tile ORDER BY p_brand, tile
"""


def lineitem_unpivot_stats(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT/melt: four lineitem measures widened into (measure, value)
    pairs per batch (pure reshape, no shuffle), then per-measure global
    stats via partial aggregation."""
    measures = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = read(sf_dir, "lineitem", measures)
    long = relational.unpivot(ds, [], measures)
    out = grouped_aggregate_partial(
        long, ["measure"], sums={"sum_value": "value"}, counts="n"
    )
    out["avg_value"] = (out["sum_value"] / out["n"]).round(6)
    out["sum_value"] = out["sum_value"].round(2)
    return out.sort_values("measure").reset_index(drop=True)


UNPIVOT_SQL = """
WITH m AS (
  SELECT 'l_quantity' AS measure, l_quantity AS value FROM lineitem
  UNION ALL SELECT 'l_extendedprice', l_extendedprice FROM lineitem
  UNION ALL SELECT 'l_discount', l_discount FROM lineitem
  UNION ALL SELECT 'l_tax', l_tax FROM lineitem)
SELECT measure, ROUND(sum(value), 2) AS sum_value,
       CAST(count(*) AS BIGINT) AS n,
       ROUND(avg(value), 6) AS avg_value
FROM m GROUP BY measure ORDER BY measure
"""


def supplier_names_by_nation(sf_dir: str) -> pd.DataFrame:
    """Ordered string aggregation (listagg) per key: supplier names per
    nation, comma-joined in name order — distributed groupby, value
    assembly inside the group."""
    ds = read(sf_dir, "supplier", ["s_nationkey", "s_name"])
    out = relational.string_agg_per_key(
        ds, "s_nationkey", "s_name", sep=",", out="names"
    ).to_pandas()
    return out.sort_values("s_nationkey").reset_index(drop=True)


STRING_AGG_SQL = """
SELECT s_nationkey, CAST(count(*) AS BIGINT) AS n,
       string_agg(s_name, ',' ORDER BY s_name) AS names
FROM supplier GROUP BY s_nationkey ORDER BY s_nationkey
"""


def customer_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Per-stratum deterministic sampling (class balancing): each market
    segment keeps its own reproducible hash-fraction of customers;
    membership is a pure function of (key, stratum) so the exact sample
    is SQL-checkable."""
    rates = {"BUILDING": 20, "AUTOMOBILE": 10, "MACHINERY": 5}
    ds = read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    samp = relational.stratified_sample(
        ds, "c_custkey", "c_mktsegment", rates, default_pct=2
    )
    out = grouped_aggregate_partial(
        samp, ["c_mktsegment"], sums={"sum_acctbal": "c_acctbal"}, counts="n"
    )
    out["sum_acctbal"] = out["sum_acctbal"].round(2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


STRATIFIED_SQL = """
SELECT c_mktsegment,
       ROUND(sum(c_acctbal), 2) AS sum_acctbal,
       CAST(count(*) AS BIGINT) AS n
FROM customer
WHERE ((c_custkey * 2654435761) % 4294967296) % 100 <
      CASE c_mktsegment WHEN 'BUILDING' THEN 20 WHEN 'AUTOMOBILE' THEN 10
           WHEN 'MACHINERY' THEN 5 ELSE 2 END
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def lineitem_corr_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group bivariate statistics (corr / covar_samp / regression
    slope) from mergeable moment partials — six numbers per key per
    batch move, never the rows."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = relational.grouped_corr_stats(
        ds, "l_returnflag", "l_quantity", "l_extendedprice"
    )
    out["corr"] = out["corr"].round(6)
    out["covar"] = out["covar"].round(2)
    out["slope"] = out["slope"].round(4)
    return out.sort_values("l_returnflag").reset_index(drop=True)


CORR_SQL = """
SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
       ROUND(covar_samp(l_quantity, l_extendedprice), 2) AS covar,
       ROUND(corr(l_quantity, l_extendedprice), 6) AS corr,
       ROUND(regr_slope(l_extendedprice, l_quantity), 4) AS slope
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_type_hour_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(event_type, hour): one distributed finest-level
    pass over the fact table; all four grouping sets derived from the
    tiny finest partials driver-side."""
    ds = read(sf_dir, "events", ["ts", "event_type", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.cast(pc.hour(t.column("ts")), pa.int64()),
                "value": t.column("value"),
            }
        )

    finest = grouped_aggregate_partial(
        ds.map_batches(add_hour, batch_format="pyarrow"),
        keys=["event_type", "hour"],
        sums={"sum_value": "value"},
        counts="n",
    )
    out = relational.cube_from_finest(
        finest, ["event_type", "hour"], ["sum_value"], "n",
        sentinels={"event_type": "__all__", "hour": -1},
    )
    out["hour"] = out["hour"].astype("int64")
    out["sum_value"] = out["sum_value"].round(2)
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


CUBE_SQL = """
SELECT COALESCE(event_type, '__all__') AS event_type,
       COALESCE(CAST(EXTRACT(hour FROM ts) AS BIGINT), -1) AS hour,
       round(sum(value), 2) AS sum_value,
       CAST(count(*) AS BIGINT) AS n
FROM events
GROUP BY CUBE(event_type, EXTRACT(hour FROM ts))
ORDER BY event_type, hour
"""


def events_patch_latest(sf_dir: str) -> pd.DataFrame:
    """CDC partial updates (column-level LWW / patch merge): events
    carry NULL in columns they don't change — derived here
    deterministically (value withheld on event_id % 3 = 0, event_type on
    event_id % 2 = 0) so the patch path is exercised and the exact same
    change stream is SQL-constructible. Converged row per user takes
    each column from the latest non-null event (order ts, event_id)."""
    ds = read(sf_dir, "events", ["user_id", "ts", "event_id", "value", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        e = eid.to_numpy(zero_copy_only=False)
        val = pc.if_else(
            pa.array(e % 3 == 0), pa.nulls(len(t), pa.float64()),
            t.column("value"),
        )
        typ = pc.if_else(
            pa.array(e % 2 == 0), pa.nulls(len(t), pa.string()),
            t.column("event_type"),
        )
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "event_id": eid,
                "val_patch": val,
                "type_patch": typ,
            }
        )

    patched = relational.patch_latest_per_key(
        ds.map_batches(derive, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"], ["val_patch", "type_patch"],
    ).to_pandas()
    # sentinel-fill the never-patched case (all deltas withheld a column)
    # so the null never reaches the hash compare (NaN vs NULL ambiguity)
    patched["val_patch"] = patched["val_patch"].round(4).fillna(-1.0)
    patched["type_patch"] = patched["type_patch"].fillna("__none__")
    patched["n_versions"] = patched["n_versions"].astype("int64")
    return patched.sort_values("user_id").reset_index(drop=True)


PATCH_SQL = """
WITH stream AS (
  SELECT user_id, ts, event_id,
         CASE WHEN event_id % 3 = 0 THEN NULL ELSE value END AS val_patch,
         CASE WHEN event_id % 2 = 0 THEN NULL ELSE event_type END AS type_patch
  FROM events)
SELECT user_id,
       COALESCE(ROUND(last_value(val_patch IGNORE NULLS) OVER w, 4), -1.0)
           AS val_patch,
       COALESCE(last_value(type_patch IGNORE NULLS) OVER w, '__none__')
           AS type_patch,
       CAST(count(*) OVER w AS BIGINT) AS n_versions
FROM stream
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
ORDER BY user_id
"""


def events_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Heavy hitters via a mergeable SpaceSaving sketch: per-batch
    value_counts combiner → one bounded sketch per batch → driver merge.
    Bytes moved are capacity-bounded, independent of rows AND distinct
    keys. Run with capacity ≥ the distinct-user count, where SpaceSaving
    is provably exact (max_error 0) — hence SQL-oracleable; the
    approximate regime's error bound is unit-tested separately."""
    from gene_etl_ray.ops.sketch import heavy_hitters

    ds = read(sf_dir, "events", ["user_id"])
    out = heavy_hitters(ds, "user_id", capacity=1 << 17, k=25)
    out["user_id"] = out["user_id"].astype("int64")
    out["est_count"] = out["est_count"].astype("int64")
    out["max_error"] = out["max_error"].astype("int64")
    return out.reset_index(drop=True)


HEAVY_SQL = """
SELECT user_id, CAST(count(*) AS BIGINT) AS est_count,
       CAST(0 AS BIGINT) AS max_error
FROM events GROUP BY user_id
ORDER BY est_count DESC, user_id LIMIT 25
"""


def lineitem_skew_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group skewness/kurtosis via Pébay-merged central-moment
    partials (stable where raw Σx³/Σx⁴ sums cancel) — matches the SQL
    sample-corrected definitions to machine precision."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = relational.grouped_higher_moments(ds, "l_returnflag", "l_extendedprice")
    out["skew"] = out["skew"].round(6)
    out["kurt"] = out["kurt"].round(6)
    return out.sort_values("l_returnflag").reset_index(drop=True)


SKEW_SQL = """
SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
       ROUND(skewness(l_extendedprice), 6) AS skew,
       ROUND(kurtosis(l_extendedprice), 6) AS kurt
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_user_mode_type(sf_dir: str) -> pd.DataFrame:
    """Per-user modal event type (deterministic min-value tie-break):
    per-batch count combiner, key×value-pair merge, vectorized argmax."""
    ds = read(sf_dir, "events", ["user_id", "event_type"])
    out = relational.grouped_mode(ds, "user_id", "event_type")
    return out.sort_values("user_id").reset_index(drop=True)


MODE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type)
SELECT user_id, event_type AS mode_value, CAST(n AS BIGINT) AS mode_count
FROM c
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY n DESC, event_type) = 1
ORDER BY user_id
"""

_REDACT_PAT = r"\b(spark|hash|merge)\b"


def docs_redact_terms(sf_dir: str) -> pd.DataFrame:
    """Regex scrubbing (the PII-redaction shape, non-vacuous on this
    corpus): per-doc hit counts + redacted lengths, aggregated per
    language. Vectorized str kernels; RE2-compatible pattern so the
    exact predicate is SQL-checkable."""
    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])
    red = text.redact_terms(ds, _REDACT_PAT)
    out = grouped_aggregate_partial(
        red, ["lang"],
        sums={"total_redacted": "n_redacted", "sum_redacted_len": "redacted_len"},
        counts="n_docs",
    )
    out["total_redacted"] = out["total_redacted"].astype("int64")
    out["sum_redacted_len"] = out["sum_redacted_len"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


REDACT_SQL = r"""
SELECT lang,
       CAST(sum(len(regexp_extract_all(text, '\b(spark|hash|merge)\b'))) AS BIGINT)
           AS total_redacted,
       CAST(sum(length(regexp_replace(text, '\b(spark|hash|merge)\b', '[X]', 'g'))) AS BIGINT)
           AS sum_redacted_len,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
"""


def docs_pii_scan(sf_dir: str) -> pd.DataFrame:
    """PII detection + redaction (``text.pii_scan``): emails / IPv4 /
    phone counts and the redacted length per doc. The corpus has no
    organic PII, so the gate PLANTS deterministic PII derived from
    doc_id (the planted-twin convention): doc_id%4 selects none / an
    email / an IP / a phone, each a pure string formula both engines
    build identically. The patterns are RE2-safe and run VERBATIM in
    DuckDB — detector parity is exact, not approximated. Returns the
    per-doc rows for doc_id < 400 plus corpus totals via the driver's
    row set (bounded output)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        suffix = []
        for i in ids:
            i = int(i)
            m = i % 4
            if m == 1:
                suffix.append(f" reach me at user{i}@example.com")
            elif m == 2:
                suffix.append(
                    f" server 10.{i % 256}.{(i * 3) % 256}.{i % 100} up")
            elif m == 3:
                suffix.append(
                    f" call +1 (555) {i % 900 + 100}-{(i * 7) % 10000:04d}")
            else:
                suffix.append("")
        b["text"] = b["text"].fillna("") + np.asarray(suffix, dtype=object)
        return b

    out = text.pii_scan(ds.map_batches(plant, batch_format="pandas"))
    out = out.select_columns(
        ["doc_id", "n_email", "n_ipv4", "n_phone", "n_pii", "redacted_len"]
    ).to_pandas()
    out = out[out["doc_id"] < 400]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


PII_SCAN_SQL = r"""
WITH planted AS (
  SELECT doc_id,
         coalesce(text, '') || CASE
           WHEN doc_id % 4 = 1 THEN ' reach me at user'
                || CAST(doc_id AS VARCHAR) || '@example.com'
           WHEN doc_id % 4 = 2 THEN ' server 10.'
                || CAST(doc_id % 256 AS VARCHAR) || '.'
                || CAST((doc_id * 3) % 256 AS VARCHAR) || '.'
                || CAST(doc_id % 100 AS VARCHAR) || ' up'
           WHEN doc_id % 4 = 3 THEN ' call +1 (555) '
                || CAST(doc_id % 900 + 100 AS VARCHAR) || '-'
                || lpad(CAST((doc_id * 7) % 10000 AS VARCHAR), 4, '0')
           ELSE '' END AS t
  FROM documents WHERE doc_id < 400)
SELECT doc_id,
  CAST(len(regexp_extract_all(t,
       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
    AS n_email,
  CAST(len(regexp_extract_all(t,
       '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b')) AS BIGINT) AS n_ipv4,
  CAST(len(regexp_extract_all(t,
       '\+[0-9][0-9()\- ]{6,}[0-9]')) AS BIGINT) AS n_phone,
  CAST(len(regexp_extract_all(t,
       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
     + len(regexp_extract_all(t, '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b'))
     + len(regexp_extract_all(t, '\+[0-9][0-9()\- ]{6,}[0-9]'))
     AS BIGINT) AS n_pii,
  CAST(length(
    regexp_replace(
      regexp_replace(
        regexp_replace(t,
          '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[PII]', 'g'),
        '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b', '[PII]', 'g'),
      '\+[0-9][0-9()\- ]{6,}[0-9]', '[PII]', 'g')) AS BIGINT)
    AS redacted_len
FROM planted ORDER BY doc_id
"""


def docs_containment(sf_dir: str) -> pd.DataFrame:
    """Graded n-gram containment decontamination
    (``text.containment_decontaminate``): best benchmark item per doc
    by fraction-of-benchmark-trigrams-contained, self excluded — the
    GPT-3/PaLM contamination score with attribution. Shuffle-free
    corpus pass against the broadcast benchmark gram table; the twin
    is the exhaustive trigram-set join."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.containment_decontaminate(ds).to_pandas()
    out["containment"] = out["containment"].round(6)
    for c in ("doc_id", "bench_id", "n_shared"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


CONTAINMENT_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
g AS (SELECT DISTINCT doc_id, p[1] || ' ' || p[2] || ' ' || p[3] AS g
      FROM tri),
bsize AS (SELECT doc_id AS bench_id, count(*) AS bn
          FROM g WHERE doc_id % 97 = 0 GROUP BY 1),
bg AS (SELECT doc_id AS bench_id, g FROM g WHERE doc_id % 97 = 0),
hits AS (SELECT g.doc_id, bg.bench_id, count(*) AS n_shared
         FROM g JOIN bg USING (g)
         WHERE g.doc_id <> bg.bench_id GROUP BY 1, 2),
scored AS (
  SELECT h.doc_id, h.bench_id, h.n_shared,
         h.n_shared * 1.0 / b.bn AS containment,
         row_number() OVER (
           PARTITION BY h.doc_id
           ORDER BY h.n_shared * 1.0 / b.bn DESC, h.bench_id) AS rn
  FROM hits h JOIN bsize b USING (bench_id))
SELECT doc_id, bench_id, CAST(n_shared AS BIGINT) AS n_shared,
       round(containment, 6) AS containment
FROM scored WHERE rn = 1 ORDER BY doc_id
"""


def docs_gopher_filter(sf_dir: str) -> pd.DataFrame:
    """Gopher/MassiveText composite quality gate (``text.gopher_filter``):
    every adapted rule as an explicit int flag + the conjunction. One
    streaming pass over the corpus; the twin recomputes the identical
    6-dp signal values from the QUALITY_FULL / REPETITION twin bodies
    and applies the same thresholds, so the per-rule flags (booleans —
    immune to float-hash noise) gate the whole composition."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.gopher_filter(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


GOPHER_SQL = rf"""
WITH w AS (
  SELECT doc_id, text, length(text) AS n_chars,
         regexp_extract_all(text, '\w+') AS words
  FROM documents),
q AS (
  SELECT doc_id,
    length(words) AS n_words,
    round(CASE WHEN length(words) = 0 THEN 0.0
          ELSE CAST(list_sum(list_transform(words, x -> length(x)))
               AS DOUBLE) / length(words) END, 6) AS mean_word_len,
    round(CAST(length(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE)
          / greatest(n_chars, 1), 6) AS punct_ratio,
    round(CASE WHEN length(words) = 0 THEN 0.0
          ELSE CAST(list_sum(list_transform(words,
                   x -> CASE WHEN list_contains({_STOP_EN_SQL}, lower(x))
                             THEN 1 ELSE 0 END)) AS DOUBLE)
               / length(words) END, 6) AS stopword_ratio
  FROM w),
d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
      FROM documents),
base AS (SELECT doc_id, len(toks) AS nw,
                len(list_distinct(toks)) AS ndis FROM d),
bi AS (SELECT doc_id, unnest(list_zip(toks[1:len(toks)-1], toks[2:])) AS p
       FROM d WHERE len(toks) >= 2),
bic AS (SELECT doc_id, p[1] || ' ' || p[2] AS g, count(*) AS c
        FROM bi GROUP BY 1, 2),
bistat AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM bic GROUP BY 1),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
tric AS (SELECT doc_id, count(*) AS tot,
                count(DISTINCT p[1] || ' ' || p[2] || ' ' || p[3]) AS dis
         FROM tri GROUP BY 1),
r AS (
  SELECT b.doc_id,
         round(1.0 - b.ndis * 1.0 / b.nw, 6) AS dup_word_frac,
         round(COALESCE(bistat.mx * 1.0 / bistat.tot, 0.0), 6)
           AS top_bigram_frac,
         round(COALESCE(1.0 - tric.dis * 1.0 / tric.tot, 0.0), 6)
           AS dup_trigram_frac
  FROM base b LEFT JOIN bistat USING (doc_id)
              LEFT JOIN tric USING (doc_id)),
f AS (
  SELECT q.doc_id,
    CAST(q.n_words >= 50 AND q.n_words <= 100000 AS BIGINT) AS ok_words,
    CAST(q.mean_word_len >= 3.0 AND q.mean_word_len <= 10.0 AS BIGINT)
      AS ok_word_len,
    CAST(q.stopword_ratio >= 0.06 AS BIGINT) AS ok_stopwords,
    CAST(q.punct_ratio <= 0.3 AS BIGINT) AS ok_punct,
    CAST(r.dup_word_frac <= 0.6 AS BIGINT) AS ok_dup_words,
    CAST(r.top_bigram_frac <= 0.2 AS BIGINT) AS ok_top_bigram,
    CAST(r.dup_trigram_frac <= 0.6 AS BIGINT) AS ok_dup_trigram
  FROM q JOIN r USING (doc_id))
SELECT *,
       CAST(ok_words * ok_word_len * ok_stopwords * ok_punct
            * ok_dup_words * ok_top_bigram * ok_dup_trigram AS BIGINT)
         AS keep
FROM f ORDER BY doc_id
"""


def docs_collocations(sf_dir: str) -> pd.DataFrame:
    """Top-50 PMI collocations (``text.pmi_collocations``, min count
    5): the classic corpus-statistics surface; twin recomputes the
    identical counts/marginals/ln from the position self-join and
    applies the same (pmi DESC, bigram ASC) order."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.pmi_collocations(ds, k=50, min_count=5)
    out["pmi"] = out["pmi"].round(6)
    return out


COLLOCATIONS_SQL = r"""
WITH toks AS (
  SELECT doc_id, t.w, t.pos
  FROM documents,
       LATERAL (SELECT unnest(regexp_extract_all(lower(text), '\w+')) AS w,
                       generate_subscripts(
                         regexp_extract_all(lower(text), '\w+'), 1) AS pos) t),
big AS (
  SELECT a.w AS w1, b.w AS w2
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
nt AS (SELECT count(*) AS c FROM big),
c12 AS (SELECT w1, w2, count(*) AS n FROM big GROUP BY 1, 2
        HAVING count(*) >= 5),
c1 AS (SELECT w1, count(*) AS c1 FROM big GROUP BY 1),
c2 AS (SELECT w2, count(*) AS c2 FROM big GROUP BY 1),
s AS (
  SELECT c12.w1, c12.w2, c12.n,
         ln(c12.n * 1.0 * (SELECT c FROM nt) / (c1.c1 * 1.0 * c2.c2))
           AS pmi
  FROM c12 JOIN c1 USING (w1) JOIN c2 USING (w2))
SELECT w1, w2, CAST(n AS BIGINT) AS n, round(pmi, 6) AS pmi
FROM s ORDER BY pmi DESC, w1, w2 LIMIT 50
"""


def docs_bigram_lm(sf_dir: str) -> pd.DataFrame:
    """Self-trained bigram-LM quality scoring (``text.bigram_lm_score``,
    the CCNet perplexity-filter shape without an external model): mean
    add-½-smoothed bigram log-probability per doc against the corpus's
    own bigram statistics. Exact SQL twin: the identical counts/V/
    smoothing reproduced with regexp tokenization + a position
    self-join. Bounded gate output: doc_id < 300."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        text.bigram_lm_score(ds)
        .map_batches(lambda b: b[b["doc_id"] < 300], batch_format="pandas")
        .to_pandas()
    )
    out["avg_logprob"] = out["avg_logprob"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


BIGRAM_LM_SQL = r"""
WITH toks AS (
  SELECT doc_id, t.w, t.pos
  FROM documents,
       LATERAL (SELECT unnest(regexp_extract_all(lower(text), '\w+')) AS w,
                       generate_subscripts(
                         regexp_extract_all(lower(text), '\w+'), 1) AS pos) t),
big AS (
  SELECT a.doc_id, a.w AS w1, b.w AS w2
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
bc AS (SELECT w1, w2, count(*) AS c2 FROM big GROUP BY 1, 2),
uc AS (SELECT w1, count(*) AS c1 FROM big GROUP BY 1),
v AS (SELECT count(DISTINCT w) AS vv FROM toks),
scored AS (
  SELECT big.doc_id,
         ln((bc.c2 + 0.5) / (uc.c1 + 0.5 * v.vv)) AS lp
  FROM big JOIN bc USING (w1, w2) JOIN uc USING (w1) CROSS JOIN v)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       round(sum(lp) / count(*), 6) AS avg_logprob
FROM scored WHERE doc_id < 300 GROUP BY doc_id ORDER BY doc_id
"""


def orders_theil_sen(sf_dir: str) -> pd.DataFrame:
    """Per-priority THEIL–SEN robust trend of daily revenue over the
    first corpus year (1995) (``relational.grouped_theil_sen``): pre-aggregate
    to (priority, day) — the op's bounded-group contract — then the
    median-of-pairwise-slopes estimator per group, intercept at the
    day-0 origin (1995-01-01, identical in both engines so the
    intercept is comparable, not just the slope)."""
    ds = read(
        sf_dir, "orders",
        ["o_orderpriority", "o_orderdate", "o_totalprice"],
    )

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderdate"] < pd.Timestamp("1996-01-01")]
        if not len(b):
            return pd.DataFrame({
                "o_orderpriority": pd.Series([], dtype=object),
                "day": pd.Series([], dtype="int64"),
                "rev": pd.Series([], dtype="float64")})
        day = (
            b["o_orderdate"].to_numpy().astype("datetime64[D]")
            - np.datetime64("1995-01-01")
        ).astype("int64")
        return (
            b.assign(day=day)
            .groupby(["o_orderpriority", "day"], as_index=False)
            .agg(rev=("o_totalprice", "sum"))
        )

    agg = (
        ray.data.from_pandas(
            relational.collect_partials(
                ds.map_batches(day_partial, batch_format="pandas"),
                ["o_orderpriority", "day"],
                lambda p: p.groupby(
                    ["o_orderpriority", "day"], as_index=False
                ).agg(rev=("rev", "sum")),
            )
            .groupby(["o_orderpriority", "day"], as_index=False)
            .agg(rev=("rev", "sum"))
        )
    )
    out = relational.grouped_theil_sen(agg, "o_orderpriority", "day", "rev")
    out["slope"] = out["slope"].round(6)
    out["intercept"] = out["intercept"].round(6)
    return out


THEIL_SEN_SQL = """
WITH d AS (
  SELECT o_orderpriority,
         datediff('day', DATE '1995-01-01', CAST(o_orderdate AS DATE))
           AS day,
         sum(o_totalprice) AS rev
  FROM orders WHERE o_orderdate < DATE '1996-01-01'
  GROUP BY 1, 2),
s AS (
  SELECT a.o_orderpriority,
         (b.rev - a.rev) / (b.day - a.day) AS slope
  FROM d a JOIN d b
    ON a.o_orderpriority = b.o_orderpriority AND b.day > a.day),
m AS (SELECT o_orderpriority, median(slope) AS slope
      FROM s GROUP BY o_orderpriority),
ctr AS (SELECT o_orderpriority, median(rev) AS my, median(day) AS mx,
               count(*) AS n
        FROM d GROUP BY o_orderpriority)
SELECT ctr.o_orderpriority,
       round(coalesce(m.slope, 'nan'::DOUBLE), 6) AS slope,
       round(coalesce(ctr.my - m.slope * ctr.mx, 'nan'::DOUBLE), 6)
         AS intercept,
       CAST(ctr.n AS BIGINT) AS n
FROM ctr LEFT JOIN m USING (o_orderpriority)
ORDER BY ctr.o_orderpriority
"""


def orders_mann_kendall(sf_dir: str) -> pd.DataFrame:
    """Per-priority MANN–KENDALL monotonic-trend test over the same
    daily-1995 revenue series as the Theil–Sen slope
    (``relational.grouped_mann_kendall``): S over day-ordered pairs,
    tie-corrected variance, continuity-corrected z. The twin recomputes
    the identical pairwise sign sum and variance."""
    ds = read(
        sf_dir, "orders",
        ["o_orderpriority", "o_orderdate", "o_totalprice"],
    )

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderdate"] < pd.Timestamp("1996-01-01")]
        if not len(b):
            return pd.DataFrame({
                "o_orderpriority": pd.Series([], dtype=object),
                "day": pd.Series([], dtype="int64"),
                "rev": pd.Series([], dtype="float64")})
        day = (
            b["o_orderdate"].to_numpy().astype("datetime64[D]")
            - np.datetime64("1995-01-01")
        ).astype("int64")
        return (
            b.assign(day=day)
            .groupby(["o_orderpriority", "day"], as_index=False)
            .agg(rev=("o_totalprice", "sum"))
        )

    agg = ray.data.from_pandas(
        relational.collect_partials(
            ds.map_batches(day_partial, batch_format="pandas"),
            ["o_orderpriority", "day"],
            lambda p: p.groupby(
                ["o_orderpriority", "day"], as_index=False
            ).agg(rev=("rev", "sum")),
        )
        .groupby(["o_orderpriority", "day"], as_index=False)
        .agg(rev=("rev", "sum"))
    )
    out = relational.grouped_mann_kendall(agg, "o_orderpriority",
                                          "day", "rev")
    out["var_s"] = out["var_s"].round(6)
    out["z"] = out["z"].round(6)
    return out


MANN_KENDALL_SQL = """
WITH d AS (
  SELECT o_orderpriority,
         datediff('day', DATE '1995-01-01', CAST(o_orderdate AS DATE))
           AS day,
         sum(o_totalprice) AS rev
  FROM orders WHERE o_orderdate < DATE '1996-01-01'
  GROUP BY 1, 2),
pairs AS (
  SELECT a.o_orderpriority, sign(b.rev - a.rev) AS sg
  FROM d a JOIN d b
    ON a.o_orderpriority = b.o_orderpriority AND b.day > a.day),
s AS (SELECT o_orderpriority, CAST(sum(sg) AS BIGINT) AS s_stat
      FROM pairs GROUP BY 1),
nn AS (SELECT o_orderpriority, count(*) AS n FROM d GROUP BY 1),
ties AS (SELECT o_orderpriority, rev, count(*) AS t
         FROM d GROUP BY 1, 2 HAVING count(*) > 1),
tv AS (SELECT o_orderpriority,
              sum(t * (t - 1.0) * (2.0 * t + 5.0)) AS tt
       FROM ties GROUP BY 1),
v AS (
  SELECT nn.o_orderpriority,
         (nn.n * (nn.n - 1.0) * (2.0 * nn.n + 5.0)
          - coalesce(tv.tt, 0.0)) / 18.0 AS var_s,
         nn.n
  FROM nn LEFT JOIN tv USING (o_orderpriority))
SELECT v.o_orderpriority,
       coalesce(s.s_stat, CAST(0 AS BIGINT)) AS s_stat,
       round(v.var_s, 6) AS var_s,
       round(CASE WHEN v.var_s > 0 THEN
               CASE WHEN coalesce(s.s_stat, 0) > 0
                    THEN (coalesce(s.s_stat, 0) - 1.0) / sqrt(v.var_s)
                    WHEN coalesce(s.s_stat, 0) < 0
                    THEN (coalesce(s.s_stat, 0) + 1.0) / sqrt(v.var_s)
                    ELSE 0.0 END
             ELSE 'nan'::DOUBLE END, 6) AS z,
       CAST(v.n AS BIGINT) AS n
FROM v LEFT JOIN s USING (o_orderpriority)
ORDER BY v.o_orderpriority
"""


def orders_trailing_90d_count(sf_dir: str) -> pd.DataFrame:
    """Event-time RANGE window frame (``RANGE BETWEEN INTERVAL 90 DAY
    PRECEDING AND CURRENT ROW``): per order, the count of the same
    customer's orders in the trailing 90 days INCLUSIVE of timestamp
    peers — one hash shuffle on the customer key, two vectorized
    searchsorted probes per group (``relational.trailing_window_count``).
    Complements the rows-frame ``orders_moving_avg`` (positional frame)
    and the ``orders_repeat_within_90d`` range JOIN (forward-looking,
    join-shaped) with the SQL window-function event-time frame."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    out = relational.trailing_window_count(
        ds, "o_custkey", "o_orderdate", np.timedelta64(90, "D"),
        "o_orderkey", out="n_90d",
    )
    return out.to_pandas().sort_values("o_orderkey").reset_index(drop=True)


TRAILING_90D_SQL = """
SELECT o_orderkey,
       CAST(count(*) OVER (PARTITION BY o_custkey ORDER BY o_orderdate
            RANGE BETWEEN INTERVAL 90 DAY PRECEDING AND CURRENT ROW)
            AS BIGINT) AS n_90d
FROM orders ORDER BY o_orderkey
"""


def events_user_distinct_types(sf_dir: str) -> pd.DataFrame:
    """Per-group exact COUNT(DISTINCT): per-batch (user, type) dedup
    combiner shrinks the exchange to the distinct-pair count before the
    single groupby (``relational.grouped_count_distinct``)."""
    ds = read(sf_dir, "events", ["user_id", "event_type"])
    out = relational.grouped_count_distinct(
        ds, "user_id", "event_type", out="n_types"
    )
    out["n_types"] = out["n_types"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


USER_DISTINCT_SQL = """
SELECT user_id, CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
FROM events GROUP BY user_id ORDER BY user_id
"""


def lineitem_bloom_semi_revenue(sf_dir: str) -> pd.DataFrame:
    """The bloom-prune → exact-verify semi-join pattern at fact⋈fact
    scale: the high-value order key set becomes a DISTRIBUTED Bloom
    filter (per-batch bitmaps OR-merged — the keys are never gathered),
    lineitem is pre-pruned by the broadcast bloom (no false negatives →
    no lost rows; false positives bounded), and only the survivors enter
    the EXACT partitioned semi join — the shuffle sees ~selectivity·N
    rows instead of N. Result is exact, so it's fully SQL-oracleable."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def hv(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("o_totalprice"), pa.scalar(450000.0)))

    hv_orders = orders.map_batches(hv, batch_format="pyarrow")
    bf = relational.build_bloom(hv_orders, "o_orderkey")
    li = read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"])
    pruned = relational.bloom_semi_filter(li, "l_orderkey", bloom=bf)
    joined = relational.partitioned_join(
        pruned, hv_orders, "l_orderkey", "o_orderkey"
    )
    out = grouped_aggregate_partial(
        joined, ["l_returnflag"],
        sums={"revenue": "l_extendedprice"}, counts="n_items",
    )
    out["revenue"] = out["revenue"].round(2)
    return out.sort_values("l_returnflag").reset_index(drop=True)


BLOOM_SEMI_SQL = """
SELECT l_returnflag, round(sum(l_extendedprice), 2) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_totalprice > 450000
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def lineitem_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """Per-group quantiles from a MERGEABLE KLL sketch in one streaming
    pass — no shuffle, bytes moved are sketch-sized (the 10^10-row scale
    path; the exact multi-pass alternative is ``order_statistics``).
    Run with capacity ≥ the largest group, where the sketch is provably
    exact and therefore SQL-oracleable (``quantile_disc``); the approx
    regime's rank-error bound is unit-tested separately — the same
    exact-regime-gate pattern as ``events_heavy_hitters``."""
    from gene_etl_ray.ops.sketch import grouped_quantiles

    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = grouped_quantiles(
        ds, "l_returnflag", "l_extendedprice", [0.5, 0.9, 0.99], k=1 << 17
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


QUANTILE_SKETCH_SQL = """
SELECT l_returnflag,
       quantile_disc(l_extendedprice, 0.5) AS p50,
       quantile_disc(l_extendedprice, 0.9) AS p90,
       quantile_disc(l_extendedprice, 0.99) AS p99
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def orders_merge_corrections(sf_dir: str) -> pd.DataFrame:
    """SQL ``MERGE INTO`` as one co-located bucket pass
    (``relational.merge_into``): a deterministic corrections feed derived
    from orders — price updates (keys ≡ 3 mod 10: price + 100.0),
    deletes (keys ≡ 7 mod 100), and brand-new rows (keys ≡ 11 mod 1000,
    re-keyed +100 000 000, half price, status 'NEW') — merged into the
    orders table in a single shuffle with neither side broadcast. All
    source arithmetic is exact-IEEE (add / halve, no decimal rounding)
    so engine and oracle agree bit-for-bit. The three key families are
    disjoint (last digit 3 / last-two 07 / re-keyed), satisfying MERGE's
    unique-source-key contract."""
    target = read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"])
    base = read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"])

    def corrections(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        p = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        s = t.column("o_orderstatus").to_pandas().to_numpy(dtype=object)
        upd, dele, ins = k % 10 == 3, k % 100 == 7, k % 1000 == 11
        keys = np.concatenate([k[upd], k[dele], k[ins] + 100_000_000])
        price = np.concatenate([p[upd] + 100.0, p[dele], p[ins] * 0.5])
        status = np.concatenate(
            [s[upd], s[dele], np.full(int(ins.sum()), "NEW", dtype=object)]
        )
        flag = np.concatenate(
            [np.zeros(int(upd.sum()), bool), np.ones(int(dele.sum()), bool),
             np.zeros(int(ins.sum()), bool)]
        )
        return pa.table(
            {
                "o_orderkey": pa.array(keys, pa.int64()),
                "o_totalprice": pa.array(price, pa.float64()),
                "o_orderstatus": pa.array(list(status), pa.string()),
                "is_delete": pa.array(flag, pa.bool_()),
            }
        )

    source = base.map_batches(corrections, batch_format="pyarrow")
    merged = relational.merge_into(
        target, source, on="o_orderkey",
        update_cols=["o_totalprice"], delete_col="is_delete",
    )
    # The merged table IS the deliverable (same contract as
    # orders_running_total): collect and order it for the compare.
    out = merged.to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


MERGE_SQL = """
WITH src AS (
  SELECT o_orderkey, o_totalprice + 100.0 AS price, FALSE AS is_delete,
         o_orderstatus AS status
  FROM orders WHERE o_orderkey % 10 = 3
  UNION ALL
  SELECT o_orderkey, o_totalprice, TRUE, o_orderstatus
  FROM orders WHERE o_orderkey % 100 = 7
  UNION ALL
  SELECT o_orderkey + 100000000, o_totalprice * 0.5, FALSE, 'NEW'
  FROM orders WHERE o_orderkey % 1000 = 11
)
SELECT t.o_orderkey,
       CASE WHEN s.o_orderkey IS NOT NULL THEN s.price
            ELSE t.o_totalprice END AS o_totalprice,
       t.o_orderstatus
FROM orders t LEFT JOIN src s ON t.o_orderkey = s.o_orderkey
WHERE s.o_orderkey IS NULL OR NOT s.is_delete
UNION ALL
SELECT s.o_orderkey, s.price AS o_totalprice, s.status AS o_orderstatus
FROM src s LEFT JOIN orders t ON s.o_orderkey = t.o_orderkey
WHERE t.o_orderkey IS NULL AND NOT s.is_delete
ORDER BY o_orderkey
"""


def orders_percent_rank(sf_dir: str) -> pd.DataFrame:
    """PERCENT_RANK / CUME_DIST window per order status
    (``relational.percent_rank_cume_dist``): one hash shuffle,
    vectorized SQL-tie-exact rank arithmetic in each group."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])
    out = relational.percent_rank_cume_dist(
        ds, "o_orderstatus", "o_totalprice"
    ).to_pandas()
    out["pct_rank"] = out["pct_rank"].round(6)
    out["cume_dist"] = out["cume_dist"].round(6)
    return out.sort_values("o_orderkey").reset_index(drop=True)


PCT_RANK_SQL = """
SELECT o_orderkey, o_orderstatus, o_totalprice,
       round(percent_rank() OVER w, 6) AS pct_rank,
       round(cume_dist() OVER w, 6) AS cume_dist
FROM orders
WINDOW w AS (PARTITION BY o_orderstatus ORDER BY o_totalprice)
ORDER BY o_orderkey
"""


def orders_price_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width grouped histogram (``relational.histogram_fixed``):
    per-batch (status, bucket) count partials are the combiner, so the
    exchange carries at most |statuses|·nbins rows per batch."""
    ds = read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])
    out = relational.histogram_fixed(
        ds, "o_totalprice", by="o_orderstatus", width=25000.0, nbins=8
    )
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["o_orderstatus", "bucket"]).reset_index(drop=True)


HISTOGRAM_SQL = """
SELECT o_orderstatus,
       CAST(least(floor(o_totalprice / 25000.0), 7) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM orders
GROUP BY o_orderstatus, bucket
ORDER BY o_orderstatus, bucket
"""


def events_type_set_ops(sf_dir: str) -> pd.DataFrame:
    """Distributed INTERSECT / EXCEPT (``relational.set_op``): users who
    both clicked and purchased, and users who clicked but never
    purchased — per-batch distinct combiner, sides co-partitioned by the
    value itself, neither side broadcast."""
    ev = read(sf_dir, "events", ["user_id", "event_type"])

    def only_type(t: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("event_type"), t))

        return fn

    clicks = ev.map_batches(only_type("click"), batch_format="pyarrow")
    buys = ev.map_batches(only_type("purchase"), batch_format="pyarrow")
    both = relational.set_op(clicks, buys, "user_id", "intersect")
    both["set_op"] = "both"
    only = relational.set_op(clicks, buys, "user_id", "except")
    only["set_op"] = "click_only"
    out = pd.concat([both, only], ignore_index=True)
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["set_op", "user_id"]).reset_index(drop=True)


SET_OPS_SQL = """
WITH clicks AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'click'),
     buys AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase')
SELECT user_id, 'both' AS set_op FROM (
  SELECT user_id FROM clicks INTERSECT SELECT user_id FROM buys)
UNION ALL
SELECT user_id, 'click_only' AS set_op FROM (
  SELECT user_id FROM clicks EXCEPT SELECT user_id FROM buys)
ORDER BY set_op, user_id
"""


def events_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user Shannon entropy of the event-type distribution
    (``relational.grouped_entropy``): distinct-pair count partials per
    batch, one groupby; the behavioral-diversity score used to flag
    bot-like (zero-entropy) traffic in web logs."""
    ds = read(sf_dir, "events", ["user_id", "event_type"])
    out = relational.grouped_entropy(ds, "user_id", "event_type")
    out["entropy"] = out["entropy"].round(6)
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS DOUBLE) AS n
  FROM events GROUP BY user_id, event_type
), t AS (
  SELECT user_id, sum(n) AS total FROM c GROUP BY user_id
)
SELECT c.user_id,
       round(sum(-(c.n / t.total) * ln(c.n / t.total)), 6) AS entropy
FROM c JOIN t ON c.user_id = t.user_id
GROUP BY c.user_id
ORDER BY c.user_id
"""


def docs_chunk_dedup(sf_dir: str) -> pd.DataFrame:
    """Cross-document chunk-level dedup (``dedup.dedup_chunks``, the
    CCNet/RefinedWeb passage pattern) over a corpus with deterministic
    planted duplicates (every doc_id % 10 == 3 re-enters as a copy):
    shared 15-token chunks are removed corpus-wide, docs reassemble from
    their surviving chunks, fully-duplicated docs vanish."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def dup_subset(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        m = b.filter(pa.array(ids % 10 == 3))
        return pa.table(
            {
                "doc_id": pc.add(m.column("doc_id"), 1000000),
                "text": m.column("text"),
            }
        )

    corpus = docs.union(docs.map_batches(dup_subset, batch_format="pyarrow"))
    out = dedup.dedup_chunks(corpus, chunk_tokens=15, min_docs=2).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CHUNK_DEDUP_SQL = """
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 10 = 3
),
docs AS (SELECT doc_id, string_split(text, ' ') AS toks FROM corpus),
idx AS (SELECT doc_id, toks,
        unnest(range(CAST(ceil(len(toks) / 15.0) AS BIGINT))) AS chunk_idx
        FROM docs),
chunks AS (SELECT doc_id, chunk_idx,
           array_to_string(toks[chunk_idx * 15 + 1 : chunk_idx * 15 + 15],
                           ' ') AS chunk
           FROM idx),
freq AS (SELECT chunk, count(DISTINCT doc_id) AS ndocs
         FROM chunks GROUP BY chunk),
kept AS (SELECT c.doc_id, c.chunk_idx, c.chunk
         FROM chunks c JOIN freq f USING (chunk) WHERE f.ndocs < 2)
SELECT doc_id,
       string_agg(chunk, ' ' ORDER BY chunk_idx) AS text_clean,
       CAST(count(*) AS BIGINT) AS n_chunks_kept
FROM kept GROUP BY doc_id ORDER BY doc_id
"""


def docs_tfidf_topk(sf_dir: str) -> pd.DataFrame:
    """Top-3 TF-IDF terms per document (``text.tfidf_topk``): DF via the
    distinct-pair combiner + one vocab-sized groupby, broadcast df map,
    shuffle-free per-batch scoring and per-doc top-k."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.tfidf_topk(docs, k=3)
    out["tfidf"] = out["tfidf"].round(6)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.reset_index(drop=True)


TFIDF_SQL = """
WITH toks AS (
  SELECT doc_id, t.tok AS term
  FROM documents, unnest(string_split(text, ' ')) AS t(tok)
),
tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
       FROM toks GROUP BY doc_id, term),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
       FROM toks GROUP BY term),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents)
SELECT doc_id, term, round(tf * ln(n.n / df.df), 6) AS tfidf
FROM tf JOIN df USING (term), n
QUALIFY row_number() OVER (
  PARTITION BY doc_id ORDER BY tf * ln(n.n / df.df) DESC, term) <= 3
ORDER BY doc_id, tfidf DESC, term
"""


def events_funnel_stages(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel analysis (view → click → purchase, each stage
    strictly after the previous AND within a 7-day conversion window —
    the windowing keeps stages discriminating even on long event
    histories): per-user stage computed vectorized inside ONE user-keyed
    group pass, then per-batch stage-count partials — the exchange
    carries users once and stages four times, never raw events."""
    ds = read(sf_dir, "events", ["user_id", "event_type", "ts"])
    win = np.timedelta64(7, "D")

    def stage_of(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy()
        et = g["event_type"].to_numpy()
        stage = 0
        v = ts[et == "view"]
        if v.size:
            stage = 1
            t1 = v.min()
            c = ts[(et == "click") & (ts > t1) & (ts <= t1 + win)]
            if c.size:
                stage = 2
                t2 = c.min()
                p = ts[(et == "purchase") & (ts > t2) & (ts <= t2 + win)]
                if p.size:
                    stage = 3
        return pd.DataFrame(
            {"user_id": [g["user_id"].iloc[0]], "stage": [stage]}
        )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("stage", as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )

    per_user = ds.groupby("user_id").map_groups(stage_of, batch_format="pandas")
    out = (
        per_user.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("stage", as_index=False)["n_users"]
        .sum()
    )
    out["stage"] = out["stage"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("stage").reset_index(drop=True)


FUNNEL_SQL = """
WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, min(e.ts) AS t2
      FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
        AND e.ts <= v.t1 + INTERVAL 7 DAY
      WHERE e.event_type = 'click' GROUP BY e.user_id),
p AS (SELECT e.user_id, min(e.ts) AS t3
      FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
        AND e.ts <= c.t2 + INTERVAL 7 DAY
      WHERE e.event_type = 'purchase' GROUP BY e.user_id),
staged AS (
  SELECT u.user_id,
         CASE WHEN p.user_id IS NOT NULL THEN 3
              WHEN c.user_id IS NOT NULL THEN 2
              WHEN v.user_id IS NOT NULL THEN 1
              ELSE 0 END AS stage
  FROM (SELECT DISTINCT user_id FROM events) u
  LEFT JOIN v USING (user_id)
  LEFT JOIN c USING (user_id)
  LEFT JOIN p USING (user_id)
)
SELECT stage, CAST(count(*) AS BIGINT) AS n_users
FROM staged GROUP BY stage ORDER BY stage
"""


def events_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention: users grouped by first-activity day, distinct
    users active per (cohort, day offset) — the first-touch day and the
    distinct active-day offsets both derive inside ONE user-keyed group
    pass (each user contributes exactly one row per offset), then
    per-batch (cohort, offset) count partials feed a tiny groupby."""
    ds = read(sf_dir, "events", ["user_id", "ts"])

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        days = g["ts"].dt.floor("D")
        cohort = days.min()
        offs = np.unique((days - cohort).dt.days.to_numpy())
        return pd.DataFrame(
            {"cohort": np.repeat(cohort, offs.size), "offset_days": offs}
        )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby(["cohort", "offset_days"], as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )

    out = (
        ds.groupby("user_id")
        .map_groups(offsets, batch_format="pandas")
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby(["cohort", "offset_days"], as_index=False)["n_users"]
        .sum()
    )
    out["offset_days"] = out["offset_days"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort", "offset_days"]).reset_index(drop=True)


COHORT_SQL = """
WITH f AS (SELECT user_id, date_trunc('day', min(ts)) AS cohort
           FROM events GROUP BY user_id),
a AS (SELECT DISTINCT e.user_id, f.cohort,
             date_diff('day', f.cohort, date_trunc('day', e.ts)) AS offset_days
      FROM events e JOIN f USING (user_id))
SELECT cohort, offset_days, CAST(count(*) AS BIGINT) AS n_users
FROM a GROUP BY cohort, offset_days ORDER BY cohort, offset_days
"""


def events_weekly_active_users(sf_dir: str) -> pd.DataFrame:
    """Trailing-7-day distinct active users per day
    (``relational.rolling_count_distinct``): the rolling COUNT(DISTINCT)
    SQL windows can't express — expansion combiner feeding the exact
    distinct-pair groupby; exchange ≤ pairs × 7, never raw events."""
    ds = read(sf_dir, "events", ["user_id", "ts"])
    out = relational.rolling_count_distinct(
        ds, "user_id", "ts", window_days=7, out="wau"
    )
    out["wau"] = out["wau"].astype("int64")
    return out


WAU_SQL = """
WITH p AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events),
days AS (SELECT DISTINCT day FROM p)
SELECT d.day, CAST(count(DISTINCT p.user_id) AS BIGINT) AS wau
FROM days d JOIN p
  ON p.day >= d.day - INTERVAL 6 DAY AND p.day <= d.day
GROUP BY d.day ORDER BY d.day
"""


def docs_top_bigrams(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide top-15 word bigrams (``text.ngram_topk``): vectorized
    flat-array window join with cross-document masking, per-batch count
    partials, skew-safe top-k merge — the LM-preprocessing count table."""
    docs = read(sf_dir, "documents", ["text"])
    out = text.ngram_topk(docs, n=2, k=15)
    return out.rename(columns={"ngram": "bigram"})


BIGRAM_SQL = """
WITH d AS (SELECT string_split(text, ' ') AS toks FROM documents),
b AS (SELECT unnest(list_zip(toks[1:len(toks) - 1], toks[2:])) AS pair FROM d)
SELECT pair[1] || ' ' || pair[2] AS bigram, CAST(count(*) AS BIGINT) AS n
FROM b GROUP BY bigram ORDER BY n DESC, bigram LIMIT 15
"""


def docs_repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality signals per document
    (``text.repetition_stats``): dup-word fraction, top-bigram share,
    dup-trigram fraction — one shuffle-free flat-array pass; every
    per-doc statistic lands under the value-hash gate."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        text.repetition_stats(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_words"] = out["n_words"].astype("int64")
    return out


REPETITION_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
base AS (SELECT doc_id, len(toks) AS n_words,
                len(list_distinct(toks)) AS n_distinct FROM d),
bi AS (SELECT doc_id, unnest(list_zip(toks[1:len(toks)-1], toks[2:])) AS p
       FROM d WHERE len(toks) >= 2),
bic AS (SELECT doc_id, p[1] || ' ' || p[2] AS g, count(*) AS c
        FROM bi GROUP BY 1, 2),
bistat AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM bic GROUP BY 1),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
tric AS (SELECT doc_id, count(*) AS tot,
                count(DISTINCT p[1] || ' ' || p[2] || ' ' || p[3]) AS dis
         FROM tri GROUP BY 1)
SELECT b.doc_id, CAST(b.n_words AS BIGINT) AS n_words,
       round(1.0 - b.n_distinct * 1.0 / b.n_words, 6) AS dup_word_frac,
       round(COALESCE(bistat.mx * 1.0 / bistat.tot, 0.0), 6)
         AS top_bigram_frac,
       round(COALESCE(1.0 - tric.dis * 1.0 / tric.tot, 0.0), 6)
         AS dup_trigram_frac
FROM base b LEFT JOIN bistat USING (doc_id) LEFT JOIN tric USING (doc_id)
ORDER BY doc_id
"""


def docs_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination (``text.decontaminate``): documents
    sharing ≥2 distinct word trigrams with the deterministic benchmark
    subset (doc_id % 97 == 0) are flagged — the n-gram-overlap
    decontamination pass every training corpus runs before use. Bench
    gram set broadcast once via ray.put; corpus side shuffle-free."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        text.decontaminate(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_hits"] = out["n_hits"].astype("int64")
    return out


DECONTAMINATE_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
g AS (SELECT DISTINCT doc_id, p[1] || ' ' || p[2] || ' ' || p[3] AS g
      FROM tri),
bench AS (SELECT DISTINCT g FROM g WHERE doc_id % 97 = 0),
hits AS (SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_hits
         FROM g JOIN bench USING (g) GROUP BY 1)
SELECT d0.doc_id, COALESCE(h.n_hits, CAST(0 AS BIGINT)) AS n_hits,
       COALESCE(h.n_hits, 0) >= 2 AS contaminated,
       d0.doc_id % 97 = 0 AS is_benchmark
FROM documents d0 LEFT JOIN hits h USING (doc_id)
ORDER BY doc_id
"""


def docs_chunk_windows(sf_dir: str) -> pd.DataFrame:
    """Sliding token-window chunking (``text.chunk_windows``): every doc
    fans out to overlapping 32-token windows at stride 24, emitted as
    offset metadata (no chunk-text materialization) — one shuffle-free
    flat-map pass; every offset lands under the value-hash gate."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        text.chunk_windows(ds, window=32, stride=24)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


CHUNK_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
t AS (SELECT doc_id, len(toks) AS n FROM d),
chunks AS (
  SELECT doc_id,
         CAST(unnest(range(0, CAST(floor((n - 1) / 24.0) AS BIGINT) + 1))
              AS BIGINT) AS chunk_id,
         n
  FROM t WHERE n > 0),
c2 AS (
  SELECT doc_id, chunk_id, CAST(chunk_id * 24 AS BIGINT) AS tok_start,
         CAST(least(32, n - chunk_id * 24) AS BIGINT) AS n_tok
  FROM chunks),
toku AS (SELECT doc_id, unnest(toks) AS tok,
                generate_subscripts(toks, 1) AS ord FROM d),
pre AS (SELECT doc_id, ord, length(tok) AS tlen,
        COALESCE(sum(length(tok) + 1) OVER (PARTITION BY doc_id ORDER BY ord
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cstart
        FROM toku)
SELECT c.doc_id AS doc_id, c.chunk_id, c.tok_start, c.n_tok,
       CAST(a.cstart AS BIGINT) AS char_start,
       CAST(b.cstart + b.tlen - a.cstart AS BIGINT) AS char_len
FROM c2 c
JOIN pre a ON a.doc_id = c.doc_id AND a.ord = c.tok_start + 1
JOIN pre b ON b.doc_id = c.doc_id AND b.ord = c.tok_start + c.n_tok
ORDER BY 1, 2
"""


def docs_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Greedy training-sequence packing (``text.pack_sequences``): docs
    in id order fill 128-token sequences within disjoint doc_id//16
    buckets — one bounded-key hash shuffle, per-bucket sequential pack
    over (id, n_tokens) rows only; per-sequence fill stats gated."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        text.pack_sequences(ds, budget=128, bucket_size=16)
        .to_pandas()
        .sort_values(["bucket", "seq_id"])
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


PACK_SQL = r"""
WITH RECURSIVE docs_t AS (
  SELECT doc_id, doc_id // 16 AS bucket,
         len(string_split(COALESCE(text,''), ' ')) AS n,
         row_number() OVER (PARTITION BY doc_id // 16 ORDER BY doc_id) AS rn
  FROM documents),
r AS (
  SELECT bucket, doc_id, n, rn, CAST(0 AS BIGINT) AS seq_id, n AS fill
  FROM docs_t WHERE rn = 1
  UNION ALL
  SELECT d.bucket, d.doc_id, d.n, d.rn,
         CASE WHEN r.fill + d.n > 128 THEN r.seq_id + 1 ELSE r.seq_id END,
         CASE WHEN r.fill + d.n > 128 THEN d.n ELSE r.fill + d.n END
  FROM docs_t d JOIN r ON d.bucket = r.bucket AND d.rn = r.rn + 1)
SELECT CAST(bucket AS BIGINT) AS bucket, seq_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n) AS BIGINT) AS seq_tokens
FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def docs_training_pipeline(sf_dir: str) -> pd.DataFrame:
    """END-TO-END training-data preparation
    (``pipelines.curate.prepare_training_sequences``): quality gate →
    Gopher repetition gate → benchmark decontamination (bench grams
    from the full corpus) → exact dedup → greedy 256-token sequence
    packing. The entire chain — five composed operators — lands under
    ONE value-hash gate; the SQL twin chains the stage CTEs and packs
    with a recursive per-bucket row_number chain."""
    from gene_etl_ray.pipelines.curate import prepare_training_sequences

    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = prepare_training_sequences(ds)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


TRAINING_PIPELINE_SQL = r"""
WITH RECURSIVE
quality AS (
  SELECT doc_id, text FROM documents
  WHERE lang = 'en' AND length(text) BETWEEN 100 AND 20000
    AND length(regexp_replace(text, '[^A-Z]', '', 'g'))
        / greatest(length(text), 1) < 0.3),
tok AS (SELECT doc_id, text, string_split(text, ' ') AS toks FROM quality),
base AS (SELECT doc_id, text, toks, len(toks) AS n_words,
                len(list_distinct(toks)) AS n_distinct FROM tok),
bi AS (SELECT doc_id, unnest(list_zip(toks[1:len(toks)-1], toks[2:])) AS p
       FROM tok WHERE len(toks) >= 2),
bic AS (SELECT doc_id, p[1] || ' ' || p[2] AS g, count(*) AS c
        FROM bi GROUP BY 1, 2),
bistat AS (SELECT doc_id, max(c) * 1.0 / sum(c) AS top_bi FROM bic GROUP BY 1),
rep AS (
  SELECT b.doc_id, b.text, b.toks, b.n_words
  FROM base b LEFT JOIN bistat USING (doc_id)
  WHERE round(1.0 - b.n_distinct * 1.0 / b.n_words, 6) <= 0.6
    AND round(COALESCE(bistat.top_bi, 0.0), 6) < 0.12),
alltok AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents WHERE doc_id % 97 = 0),
tri_b AS (SELECT unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                                 toks[3:])) AS p
          FROM alltok WHERE len(toks) >= 3),
bench AS (SELECT DISTINCT p[1] || ' ' || p[2] || ' ' || p[3] AS g FROM tri_b),
tri_r AS (SELECT doc_id, unnest(list_zip(toks[1:len(toks)-2],
                                         toks[2:len(toks)-1], toks[3:])) AS p
          FROM rep WHERE len(toks) >= 3),
gr AS (SELECT DISTINCT doc_id, p[1] || ' ' || p[2] || ' ' || p[3] AS g
       FROM tri_r),
hits AS (SELECT gr.doc_id, count(*) AS n FROM gr JOIN bench USING (g)
         GROUP BY 1),
clean AS (
  SELECT r.doc_id, r.text, r.n_words
  FROM rep r LEFT JOIN hits h USING (doc_id)
  WHERE COALESCE(h.n, 0) < 2 AND r.doc_id % 97 <> 0),
ded AS (
  SELECT doc_id, n_words FROM (
    SELECT doc_id, n_words,
           row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rk
    FROM clean) WHERE rk = 1),
docs_t AS (
  SELECT doc_id, doc_id // 32 AS bucket, n_words AS n,
         row_number() OVER (PARTITION BY doc_id // 32 ORDER BY doc_id) AS rn
  FROM ded),
pk AS (
  SELECT bucket, doc_id, n, rn, CAST(0 AS BIGINT) AS seq_id, n AS fill
  FROM docs_t WHERE rn = 1
  UNION ALL
  SELECT d.bucket, d.doc_id, d.n, d.rn,
         CASE WHEN pk.fill + d.n > 256 THEN pk.seq_id + 1 ELSE pk.seq_id END,
         CASE WHEN pk.fill + d.n > 256 THEN d.n ELSE pk.fill + d.n END
  FROM docs_t d JOIN pk ON d.bucket = pk.bucket AND d.rn = pk.rn + 1)
SELECT CAST(bucket AS BIGINT) AS bucket, seq_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n) AS BIGINT) AS seq_tokens
FROM pk GROUP BY 1, 2 ORDER BY 1, 2
"""


def embeddings_kmeans_assign(sf_dir: str) -> pd.DataFrame:
    """k-means assignment step under the SQL gate (``knn.kmeans_assign``):
    centroids = the 4 lowest vec_ids (deterministic, no RNG), one
    broadcast + per-batch float64 distance matmul, argmin tie-broken
    toward the lowest cluster — the building block the full distributed
    Lloyd's iteration (``knn.kmeans``) repeats with mergeable partials."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seed = (
        ds.map_batches(
            lambda b: b.nsmallest(4, "vec_id"), batch_format="pandas"
        )
        .to_pandas()
        .nsmallest(4, "vec_id")
        .sort_values("vec_id")
    )
    cents = np.stack(seed["embedding"].to_numpy()).astype(np.float64)
    out = knn.kmeans_assign(ds, cents)
    out["dist"] = out["dist"].round(6)
    out["cluster"] = out["cluster"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


KMEANS_SQL = """
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS cv
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 4)
),
e AS (SELECT vec_id,
             list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ev
      FROM embeddings),
d AS (SELECT e.vec_id, c.cluster, list_distance(ev, cv) AS dist
      FROM e CROSS JOIN c)
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster, round(dist, 6) AS dist
FROM d
QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist, cluster) = 1
ORDER BY vec_id
"""


def events_cumulative_types(sf_dir: str) -> pd.DataFrame:
    """Cumulative distinct-count window (COUNT(DISTINCT) OVER a running
    frame — not directly expressible in SQL): per user, how many distinct
    event types seen up to and including each event. One hash shuffle on
    the user key; in-group it reduces to a vectorized first-occurrence
    marker + cumsum, which is also how the SQL twin rewrites it."""
    ds = read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        first = ~g["event_type"].duplicated()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "n_types_seen": first.cumsum().to_numpy(dtype=np.int64),
            }
        )

    out = (
        ds.groupby("user_id")
        .map_groups(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["n_types_seen"] = out["n_types_seen"].astype("int64")
    return out


CUMULATIVE_TYPES_SQL = """
WITH m AS (
  SELECT event_id, user_id, ts,
         CASE WHEN row_number() OVER (
                PARTITION BY user_id, event_type ORDER BY ts, event_id) = 1
              THEN 1 ELSE 0 END AS first_seen
  FROM events
)
SELECT event_id, user_id,
       CAST(sum(first_seen) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
         AS n_types_seen
FROM m ORDER BY event_id
"""


def orders_anti_join_bulk(sf_dir: str) -> pd.DataFrame:
    """Big⋈big partitioned ANTI join: orders with NO high-quantity
    lineitem — both fact tables co-partitioned by the join key in ONE
    shuffle, per-bucket set-membership anti (globally exact; neither
    side broadcast, right rows never multiply output)."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    li = read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def hot(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b.column("l_quantity"), 45.0))

    big = li.map_batches(hot, batch_format="pyarrow")
    out = relational.partitioned_join(
        orders, big, "o_orderkey", "l_orderkey", how="anti"
    ).to_pandas()
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return out.sort_values("o_orderkey").reset_index(drop=True)


ANTI_BULK_SQL = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 45.0
)
ORDER BY o_orderkey
"""


def docs_span_dedup(sf_dir: str) -> pd.DataFrame:
    """SPAN-level exact-substring dedup (``dedup.span_dedup``): every
    word 8-gram occurring ≥2 times corpus-wide keeps only its first
    occurrence — all tokens covered by a later occurrence are cut from
    that document. Occurrences exchange as fixed-width (hash, doc, pos)
    rows (gram text never shuffles); per-gram work is linear (no pair
    explosion); the cut is a numpy interval-coverage pass. Both the
    cleaned text and removed-token counts land under the value-hash
    gate."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        dedup.span_dedup(ds, n=8, min_count=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_removed"] = out["n_removed"].astype("int64")
    return out


SPAN_DEDUP_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
gr AS (
  SELECT doc_id, CAST(i - 1 AS BIGINT) AS s,
         array_to_string(toks[i:i+7], ' ') AS g
  FROM d, unnest(range(1, len(toks) - 8 + 2)) AS u(i)),
mk AS (
  SELECT doc_id, s FROM (
    SELECT doc_id, s,
           row_number() OVER (PARTITION BY g ORDER BY doc_id, s) AS rn,
           count(*) OVER (PARTITION BY g) AS c
    FROM gr) WHERE c >= 2 AND rn > 1),
tokp AS (SELECT doc_id, unnest(toks) AS w,
                CAST(generate_subscripts(toks, 1) - 1 AS BIGINT) AS i
         FROM d),
rem AS (SELECT DISTINCT t.doc_id, t.i
        FROM tokp t JOIN mk m
          ON m.doc_id = t.doc_id AND t.i >= m.s AND t.i < m.s + 8)
SELECT t.doc_id,
       COALESCE(string_agg(CASE WHEN r.i IS NULL THEN t.w END,
                           ' ' ORDER BY t.i), '') AS clean_text,
       CAST(count(r.i) AS BIGINT) AS n_removed
FROM tokp t LEFT JOIN rem r ON r.doc_id = t.doc_id AND r.i = t.i
GROUP BY t.doc_id
ORDER BY t.doc_id
"""


def docs_token_budget(sf_dir: str) -> pd.DataFrame:
    """Global token-budget selection (``select.token_budget_select``):
    keep the best documents — ordered (n_chars DESC, doc_id) — until
    40% of the corpus's whitespace tokens are used. Distributed as a
    two-pass threshold search (per-score sums -> driver cut point ->
    broadcast filter), never a global sort; the SQL twin is the
    windowed running-sum QUALIFY."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    tok = text.token_count_ws(ds).select_columns(
        ["doc_id", "n_chars", "n_tokens_ws"]
    )
    total = int(tok.sum("n_tokens_ws"))
    out = select.token_budget_select(
        tok, "n_chars", "n_tokens_ws", (4 * total) // 10
    ).to_pandas()
    if out.empty:  # Ray wart: empty to_pandas() drops the schema
        out = pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ["doc_id", "n_chars", "n_tokens_ws"]}
        )
    return out.sort_values("doc_id").reset_index(drop=True)


TOKEN_BUDGET_SQL = r"""
WITH tok AS (
  SELECT doc_id, n_chars,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens_ws
  FROM documents)
SELECT doc_id, n_chars, n_tokens_ws FROM (
  SELECT doc_id, n_chars, n_tokens_ws,
         SUM(n_tokens_ws) OVER (ORDER BY n_chars DESC, doc_id) AS cum
  FROM tok)
WHERE cum <= (SELECT (4 * SUM(n_tokens_ws)) // 10 FROM tok)
ORDER BY doc_id
"""


def docs_source_cap(sf_dir: str) -> pd.DataFrame:
    """Per-domain cap (``select.per_group_cap``): at most 5 documents
    per source, largest-first — the C4/Gopher-style domain cap. One
    hash-bucketed exchange, vectorized in-bucket head(k)."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    out = select.per_group_cap(
        ds, ["source"], 5, ["n_chars", "doc_id"], [False, True]
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "source", "n_chars"]
    ]


SOURCE_CAP_SQL = """
SELECT doc_id, source, n_chars FROM documents
QUALIFY row_number() OVER (
    PARTITION BY source ORDER BY n_chars DESC, doc_id
) <= 5
ORDER BY doc_id
"""


def docs_mixture_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic source-mixture down-sampling
    (``select.mixture_sample``): per-source keep-rates chosen in exact
    integer arithmetic so kept counts are proportional to the target
    weights ``(source_index % 4) + 1``; membership by multiplicative
    id hashing. No data shuffle — one tiny counts groupby + one
    broadcast filter. The DuckDB twin recomputes the same rates from
    the same integer formula, so exact membership is oracled."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "source"])
    out = select.mixture_sample(
        ds, "source", lambda s: (int(s[3:]) % 4) + 1
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


MIXTURE_SAMPLE_SQL = """
WITH counts AS (
  SELECT source, count(*) AS c,
         (CAST(substr(source, 4) AS BIGINT) % 4) + 1 AS w
  FROM documents GROUP BY source),
mn AS (
  SELECT c AS cmin, w AS wmin FROM counts
  ORDER BY c * (12 // w), source LIMIT 1),
rates AS (
  SELECT source,
         LEAST(10000, (10000 * mn.cmin * counts.w) // (mn.wmin * counts.c))
           AS rate_pm
  FROM counts, mn)
SELECT d.doc_id, d.source
FROM documents d JOIN rates r USING (source)
WHERE ((d.doc_id * 2654435761) % 4294967296) % 10000 < r.rate_pm
ORDER BY d.doc_id
"""


def docs_novelty(sf_dir: str) -> pd.DataFrame:
    """Per-document trigram novelty (``text.novelty_score``): fraction
    of a doc's distinct word trigrams whose corpus-wide first owner
    (min doc_id) is the doc itself — the graded diversity signal
    data-pruning ranks by. Gram strings shuffle exactly once; the
    first-owner counts hash-aggregate by doc; one bucketed left join
    stitches per-doc totals."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.novelty_score(ds).to_pandas()
    out["novelty"] = out["novelty"].round(9)
    return out.sort_values("doc_id").reset_index(drop=True)


NOVELTY_SQL = """
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
g AS (SELECT DISTINCT doc_id, p[1] || ' ' || p[2] || ' ' || p[3] AS g
      FROM tri),
firsts AS (SELECT g, MIN(doc_id) AS doc_id FROM g GROUP BY g),
novel AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_novel
          FROM firsts GROUP BY 1),
dist AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_distinct
         FROM g GROUP BY 1)
SELECT d0.doc_id,
       COALESCE(dist.n_distinct, CAST(0 AS BIGINT)) AS n_distinct,
       COALESCE(novel.n_novel, CAST(0 AS BIGINT)) AS n_novel,
       CASE WHEN dist.n_distinct IS NULL THEN NULL
            ELSE round(CAST(COALESCE(novel.n_novel, 0) AS DOUBLE)
                       / dist.n_distinct, 9) END AS novelty
FROM documents d0
LEFT JOIN dist USING (doc_id) LEFT JOIN novel USING (doc_id)
ORDER BY doc_id
"""


def docs_split_assign(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 train/valid/test assignment
    (``select.assign_split``): split is a pure function of doc_id via
    multiplicative hashing — stable across runs/clusters (a random
    split would leak eval docs into training on any retry). Map-only,
    zero shuffle."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "source"])
    out = select.assign_split(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SPLIT_ASSIGN_SQL = """
SELECT doc_id, source,
       CASE WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 80
                THEN 'train'
            WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 90
                THEN 'valid'
            ELSE 'test' END AS split
FROM documents ORDER BY doc_id
"""


def docs_lm_quality(sf_dir: str) -> pd.DataFrame:
    """CCNet-style LM quality scoring (``text.lm_quality``): mean token
    log-probability under a deterministic add-one unigram LM over the
    top-20 corpus terms (the KenLM stand-in — same distributed
    plumbing: vocab-bounded count exchange, one broadcast, shuffle-free
    scoring pass)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    out = text.lm_quality(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


LM_QUALITY_SQL = """
WITH tok AS (SELECT doc_id, unnest(string_split(COALESCE(text, ''), ' ')) AS t
             FROM documents),
cnt AS (SELECT t, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY t),
vocab AS (SELECT t, c FROM cnt ORDER BY c DESC, t LIMIT 20),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM tok)
SELECT doc_id,
       round(avg(ln((COALESCE(v.c, 0) + 1.0) / (tot.n + 21.0))), 6)
           AS lm_score
FROM tok LEFT JOIN vocab v USING (t), tot
GROUP BY doc_id ORDER BY doc_id
"""


def docs_select_corpus(sf_dir: str) -> pd.DataFrame:
    """The corpus-SELECTION composite (``pipelines.curate
    .select_training_corpus``): novelty gate (2·n_novel ≥ n_distinct)
    → per-source cap 150 → token budget (half the survivors' ws
    tokens) → deterministic 80/10/10 split. Every stage
    integer-thresholded, so the whole chain sits under one value-hash
    oracle."""
    from gene_etl_ray.pipelines.curate import select_training_corpus

    ds = read(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])
    return select_training_corpus(ds)


SELECT_CORPUS_SQL = r"""
WITH d AS (SELECT doc_id, string_split(COALESCE(text,''), ' ') AS toks
           FROM documents),
tri AS (SELECT doc_id,
               unnest(list_zip(toks[1:len(toks)-2], toks[2:len(toks)-1],
                               toks[3:])) AS p
        FROM d WHERE len(toks) >= 3),
g AS (SELECT DISTINCT doc_id, p[1] || ' ' || p[2] || ' ' || p[3] AS g
      FROM tri),
firsts AS (SELECT g, MIN(doc_id) AS doc_id FROM g GROUP BY g),
novel AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_novel
          FROM firsts GROUP BY 1),
dist AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_distinct
         FROM g GROUP BY 1),
nov_keep AS (
  SELECT d0.doc_id FROM documents d0
  LEFT JOIN dist USING (doc_id) LEFT JOIN novel USING (doc_id)
  WHERE 2 * COALESCE(novel.n_novel, 0) >= COALESCE(dist.n_distinct, 0)),
tokc AS (
  SELECT doc_id, source, n_chars,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(string_split_regex(trim(text), '\s+')) END
             AS n_tokens_ws
  FROM documents),
s1 AS (SELECT t.* FROM tokc t JOIN nov_keep USING (doc_id)),
s2 AS (SELECT * FROM s1
       QUALIFY row_number() OVER (
           PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 150),
s3 AS (SELECT doc_id, source, n_chars, n_tokens_ws FROM (
         SELECT *, SUM(n_tokens_ws) OVER (ORDER BY n_chars DESC, doc_id)
                AS cum
         FROM s2)
       WHERE cum <= (SELECT SUM(n_tokens_ws) // 2 FROM s2))
SELECT doc_id, source, n_chars, n_tokens_ws,
       CASE WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 80
                THEN 'train'
            WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 90
                THEN 'valid'
            ELSE 'test' END AS split
FROM s3 ORDER BY doc_id
"""


def orders_priority_overlaps(sf_dir: str) -> pd.DataFrame:
    """KEYLESS interval-overlap join (``relational
    .interval_overlap_join``): urgent-order 3-day windows × high-order
    3-day windows, pairs whose windows overlap — the spatial-join
    family ``range_join_bucketed`` can't express (no equality key).
    Range-partition + boundary replication + ownership dedup; one hash
    exchange, pairs never gathered."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])
    day_us = 86_400 * 1_000_000

    def mk(pri):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            b = b[b["o_orderpriority"] == pri]
            s = b["o_orderdate"].astype("datetime64[us]").astype(np.int64)
            return pd.DataFrame(
                {"o_orderkey": b["o_orderkey"].to_numpy(np.int64),
                 "s_us": s.to_numpy(),
                 "e_us": s.to_numpy() + 3 * day_us}
            )

        return fn

    left = ds.map_batches(mk("1-URGENT"), batch_format="pandas")
    right = ds.map_batches(mk("2-HIGH"), batch_format="pandas")
    out = relational.interval_overlap_join(
        left, right, ("s_us", "e_us"), ("s_us", "e_us"),
        bucket_width=3 * day_us, l_cols=["o_orderkey"],
        r_cols=["o_orderkey"],
    ).to_pandas()
    out["o_orderkey_a"] = out["o_orderkey_a"].astype("int64")
    out["o_orderkey_b"] = out["o_orderkey_b"].astype("int64")
    return out.sort_values(["o_orderkey_a", "o_orderkey_b"]).reset_index(
        drop=True
    )


PRIORITY_OVERLAPS_SQL = """
SELECT a.o_orderkey AS o_orderkey_a, b.o_orderkey AS o_orderkey_b
FROM orders a JOIN orders b
  ON a.o_orderpriority = '1-URGENT' AND b.o_orderpriority = '2-HIGH'
 AND a.o_orderdate <= b.o_orderdate + INTERVAL 3 DAY
 AND b.o_orderdate <= a.o_orderdate + INTERVAL 3 DAY
ORDER BY o_orderkey_a, o_orderkey_b
"""


def orders_welch_ttest(sf_dir: str) -> pd.DataFrame:
    """Per-priority Welch two-sample t-test
    (``correlate.grouped_welch_ttest``): does o_totalprice differ
    between open ('O') and fulfilled ('F') orders within each priority?
    Mergeable (n, Σx, Σx²) partials per (group, cohort) — O(groups)
    driver bytes; t and the Welch–Satterthwaite df are closed-form
    arithmetic, so both sit under the SQL gate (the p-value, a
    regularized-incomplete-beta SF, is unit-tested instead)."""
    from gene_etl_ray.ops import correlate

    ds = read(
        sf_dir, "orders",
        ["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    out = correlate.grouped_welch_ttest(
        ds, "o_orderpriority", "o_orderstatus", "o_totalprice", "O", "F"
    )
    out = out[["o_orderpriority", "n_a", "n_b", "t_stat", "welch_df"]].copy()
    out["t_stat"] = out["t_stat"].round(6)
    out["welch_df"] = out["welch_df"].round(4)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


WELCH_SQL = """
WITH s AS (
  SELECT o_orderpriority,
         count(*) FILTER (o_orderstatus = 'O') AS n_a,
         avg(o_totalprice) FILTER (o_orderstatus = 'O') AS m_a,
         var_samp(o_totalprice) FILTER (o_orderstatus = 'O') AS v_a,
         count(*) FILTER (o_orderstatus = 'F') AS n_b,
         avg(o_totalprice) FILTER (o_orderstatus = 'F') AS m_b,
         var_samp(o_totalprice) FILTER (o_orderstatus = 'F') AS v_b
  FROM orders
  WHERE o_orderstatus IN ('O', 'F')
  GROUP BY o_orderpriority
)
SELECT o_orderpriority, n_a, n_b,
       round((m_a - m_b) / sqrt(v_a / n_a + v_b / n_b), 6) AS t_stat,
       round(
         pow(v_a / n_a + v_b / n_b, 2) /
         (pow(v_a / n_a, 2) / (n_a - 1) + pow(v_b / n_b, 2) / (n_b - 1)),
         4) AS welch_df
FROM s ORDER BY o_orderpriority
"""


def orders_mann_whitney(sf_dir: str) -> pd.DataFrame:
    """Per-priority Mann–Whitney U (``correlate.grouped_mann_whitney``):
    the nonparametric two-sample test between open and fulfilled
    orders' totals — one hash shuffle on the group key, vectorized
    in-group average ranks, closed-form U and tie-corrected z under
    the SQL gate (average rank = RANK() + (ties−1)/2)."""
    from gene_etl_ray.ops import correlate

    ds = read(
        sf_dir, "orders",
        ["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    out = correlate.grouped_mann_whitney(
        ds, "o_orderpriority", "o_orderstatus", "o_totalprice", "O", "F"
    )
    out["u_stat"] = out["u_stat"].round(6)
    out["z"] = out["z"].round(6)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


MANN_WHITNEY_SQL = """
WITH s AS (
  SELECT o_orderpriority AS g, o_orderstatus AS c, o_totalprice AS v
  FROM orders WHERE o_orderstatus IN ('O', 'F')
),
r AS (
  SELECT g, c,
         RANK() OVER (PARTITION BY g ORDER BY v) AS rmin,
         COUNT(*) OVER (PARTITION BY g, v) AS tcnt
  FROM s
),
agg AS (
  SELECT g,
         count(*) FILTER (c = 'O') AS n_a,
         count(*) FILTER (c = 'F') AS n_b,
         sum(rmin + (tcnt - 1) / 2.0) FILTER (c = 'O') AS r_a
  FROM r GROUP BY g
),
ties AS (
  SELECT g, sum(pow(t, 3) - t) AS tt FROM (
    SELECT g, v, CAST(count(*) AS DOUBLE) AS t FROM s GROUP BY g, v
  ) GROUP BY g
)
SELECT agg.g AS o_orderpriority, n_a, n_b,
       round(r_a - n_a * (n_a + 1) / 2.0, 6) AS u_stat,
       round((r_a - n_a * (n_a + 1) / 2.0 - n_a * n_b / 2.0)
             / sqrt(n_a * n_b / 12.0 *
                    ((n_a + n_b + 1)
                     - tt / ((n_a + n_b) * (n_a + n_b - 1.0)))),
             6) AS z
FROM agg JOIN ties ON agg.g = ties.g
ORDER BY o_orderpriority
"""


def events_chi2_type_dow(sf_dir: str) -> pd.DataFrame:
    """Pearson χ² independence test (``correlate.chi2_independence``):
    is event type independent of day-of-week? One (a, b) count combiner
    per batch, O(cells) driver merge, closed-form statistic under the
    SQL gate. (Day-of-week numbering conventions differ between engines
    but χ² is invariant under category relabeling, so each side may use
    its own.)"""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "events", ["event_type", "ts"])

    def add_dow(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(),
                "dow": b["ts"].astype("datetime64[us]").dt.dayofweek
                .to_numpy(np.int64),
            }
        )

    out = correlate.chi2_independence(
        ds.map_batches(add_dow, batch_format="pandas"), "event_type", "dow"
    )
    out["chi2"] = out["chi2"].round(6)
    return out


CHI2_SQL = """
WITH o AS (
  SELECT event_type AS a, dayofweek(ts) AS b, count(*) AS n
  FROM events GROUP BY 1, 2
),
tot AS (SELECT CAST(sum(n) AS DOUBLE) AS n FROM o),
r AS (SELECT a, CAST(sum(n) AS DOUBLE) AS rn FROM o GROUP BY a),
c AS (SELECT b, CAST(sum(n) AS DOUBLE) AS cn FROM o GROUP BY b),
cells AS (
  SELECT COALESCE(o.n, 0) AS obs, r.rn * c.cn / tot.n AS exp
  FROM r CROSS JOIN c CROSS JOIN tot
  LEFT JOIN o ON o.a = r.a AND o.b = c.b
)
SELECT round(sum((obs - exp) * (obs - exp) / exp), 6) AS chi2,
       CAST((SELECT count(*) - 1 FROM r)
            * (SELECT count(*) - 1 FROM c) AS BIGINT) AS df,
       CAST((SELECT n FROM tot) AS BIGINT) AS n
FROM cells
"""


def embeddings_gram_matrix(sf_dir: str) -> pd.DataFrame:
    """Upper-triangle Gram matrix over the embedding column — the
    reference's blocked pairwise-matrix kernel
    (``/root/reference/etl/correlate.py:34-113``) as ONE mergeable
    matmul partial per batch (``ops/linalg.second_moment_table``):
    per-batch d×d ``X.T @ X`` + a tiny (i, j) groupby-sum; O(d²)
    exchange bytes per batch, fact rows scanned once and never moved."""
    from gene_etl_ray.ops import linalg

    ds = read(sf_dir, "embeddings", ["embedding"])
    out = linalg.gram_matrix(ds)
    out["g"] = out["g"].round(6)
    return out.sort_values(["i", "j"]).reset_index(drop=True)


GRAM_SQL = """
WITH e AS (SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS i,
                  CAST(unnest(embedding) AS DOUBLE) AS v FROM embeddings)
SELECT a.i AS i, b.i AS j, round(SUM(a.v * b.v), 6) AS g
FROM e a JOIN e b USING (vec_id)
WHERE a.i <= b.i GROUP BY 1, 2 ORDER BY 1, 2
"""


def lineitem_ols_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-returnflag OLS regression of extendedprice on quantity
    (``correlate.grouped_ols``): the effect-size slot beside
    Spearman/Pearson — six mergeable moments per group, O(groups)
    driver bytes, closed-form slope/intercept/R² under the SQL gate
    (DuckDB regr_slope / regr_intercept / regr_r2)."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = correlate.grouped_ols(
        ds, "l_returnflag", "l_quantity", "l_extendedprice")
    out["slope"] = out["slope"].round(6)
    out["intercept"] = out["intercept"].round(4)
    out["r2"] = out["r2"].round(8)
    return out.sort_values("l_returnflag").reset_index(drop=True)


OLS_SQL = """
SELECT l_returnflag,
       CAST(regr_count(l_extendedprice, l_quantity) AS BIGINT) AS n,
       round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
       round(regr_intercept(l_extendedprice, l_quantity), 4) AS intercept,
       round(regr_r2(l_extendedprice, l_quantity), 8) AS r2
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def embeddings_pca_axis(sf_dir: str) -> pd.DataFrame:
    """PCA projection gated in its d=1 EXACT regime (the
    ``corr_fdr_significant`` twin pattern): vectors are collapsed to
    their first coordinate, so the full distributed path — moment
    sweep → covariance → driver ``eigh`` → sign canonicalization →
    broadcast projection (``ops/linalg.pca_fit/pca_project``) — runs
    end-to-end while the answer stays SQL-expressible
    (pc_0 = x − avg(x)).  The 64-dim regime is pinned by unit
    invariants in tests/test_linalg.py (eigenvalue/variance match,
    orthonormality, reconstruction error)."""
    from gene_etl_ray.ops import linalg

    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def first_dim(t: pa.Table) -> pa.Table:
        X = linalg._batch_matrix(t.column("embedding"))
        n = X.shape[0]
        col0 = X[:, 0] if n else np.empty(0)
        lst = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), pa.array(col0)
        )
        return pa.table({"vec_id": t.column("vec_id"), "embedding": lst})

    ds1 = ds.map_batches(first_dim, batch_format="pyarrow")
    fit = linalg.pca_fit(ds1, k=1)
    out = linalg.pca_project(ds1, fit).to_pandas()
    out["pc_0"] = out["pc_0"].round(6)
    return out.sort_values("vec_id").reset_index(drop=True)


PCA_AXIS_SQL = """
SELECT vec_id,
       round(CAST(embedding[1] AS DOUBLE)
             - (SELECT avg(CAST(embedding[1] AS DOUBLE)) FROM embeddings),
             6) AS pc_0
FROM embeddings ORDER BY vec_id
"""


def events_sliding_windows(sf_dir: str) -> pd.DataFrame:
    """Hop-window aggregate (30-min windows sliding every 10 min):
    the streaming sliding-window literal SURVEY §2.9 calls for, as a
    vectorized k-fold window assignment + partial-aggregated groupby
    (``ops/relational.sliding_windowed_agg``)."""
    ds = read(sf_dir, "events", ["ts", "event_type", "value"])
    out = relational.sliding_windowed_agg(
        ds, "event_type", "ts",
        size_us=30 * 60 * 1_000_000, slide_us=10 * 60 * 1_000_000,
        value="value",
    )
    out["window_start"] = pd.to_datetime(out["window_start"], unit="us").astype(
        "datetime64[us]"
    )
    out["value_sum"] = out["value_sum"].round(6)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


SLIDING_SQL = """
SELECT event_type,
       make_timestamp((epoch_us(ts) // 600000000) * 600000000
                      - u.r * 600000000) AS window_start,
       round(sum(value), 6) AS value_sum, count(*) AS n_events
FROM events, unnest(range(0, 3)) AS u(r)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def lineitem_zscore_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-cohort z-score normalization — the reference's
    `normalized_expression` slot (`/root/reference/models.py:106`) as a
    broadcast-merge transform (``relational.grouped_standardize``):
    tiny (n, S, Q) partials per batch, one small groupby, stats shipped
    back via ray.put — the fact rows never shuffle. Exact-integer
    rearrangement ``(n·x − S)/sqrt(n·Q − S²)`` so the floats match the
    SQL twin bit-for-bit (l_quantity is integral)."""
    ds = read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    )
    out = relational.grouped_standardize(
        ds, "l_returnflag", "l_quantity",
        id_cols=["l_orderkey", "l_linenumber"], out="zscore",
    ).to_pandas()
    out["zscore"] = out["zscore"].round(6)
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["l_linenumber"] = out["l_linenumber"].astype("int64")
    # (l_orderkey, l_linenumber) is NOT unique in the fixture — include
    # the score in the sort so row order is deterministic on both sides
    return out.sort_values(
        ["l_orderkey", "l_linenumber", "zscore"]
    ).reset_index(drop=True)


ZSCORE_SQL = """
WITH s AS (
  SELECT l_orderkey, l_linenumber, CAST(l_quantity AS BIGINT) AS x,
         count(*) OVER w AS n,
         sum(CAST(l_quantity AS BIGINT)) OVER w AS s,
         sum(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT)) OVER w AS q
  FROM lineitem WINDOW w AS (PARTITION BY l_returnflag)
)
SELECT l_orderkey, l_linenumber,
       round((n * x - s) / sqrt(n * q - s * s), 6) AS zscore
FROM s ORDER BY l_orderkey, l_linenumber, zscore
"""


def orders_trailing_median(sf_dir: str) -> pd.DataFrame:
    """Event-time RANGE-frame MEDIAN (trailing 90 days per customer,
    timestamp peers included): the order-statistic member of the window
    family — unlike count/sum it has no running form, so the in-group
    reducer is one np.partition per distinct frame
    (``relational.trailing_window_median``), with DuckDB's exact
    quantile_cont interpolation pinned for even frames."""
    ds = read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    out = relational.trailing_window_median(
        ds, "o_custkey", "o_orderdate", np.timedelta64(90, "D"),
        "o_totalprice", "o_orderkey", out="med_90d",
    ).to_pandas()
    out["med_90d"] = out["med_90d"].round(6)
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


TRAILING_MED_SQL = """
SELECT o_orderkey,
       round(median(o_totalprice) OVER (PARTITION BY o_custkey
             ORDER BY o_orderdate
             RANGE BETWEEN INTERVAL 90 DAY PRECEDING AND CURRENT ROW), 6)
         AS med_90d
FROM orders ORDER BY o_orderkey
"""


def _pq_codebooks(sf_dir: str):
    """Deterministic PQ setup shared by the two PQ queries: m=2
    contiguous 32-dim subspaces, k=4 codewords per subspace seeded from
    the 4 lowest vec_ids (no RNG — same convention as
    ``embeddings_kmeans_assign``), query = the lowest vec_id's vector."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seed = (
        ds.map_batches(
            lambda b: b.nsmallest(4, "vec_id"), batch_format="pandas"
        )
        .to_pandas()
        .nsmallest(4, "vec_id")
        .sort_values("vec_id")
    )
    v = np.stack(seed["embedding"].to_numpy()).astype(np.float64)
    half = v.shape[1] // 2
    return ds, [v[:, :half], v[:, half:]], v[0]


def embeddings_pq_codes(sf_dir: str) -> pd.DataFrame:
    """Product-quantization encode + asymmetric distance (``knn.pq_encode``):
    every vector becomes (code_0, code_1) + its ADC distance to the
    query — the memory-scale ANN representation (10^10 vectors as m
    bytes each). Codebooks broadcast once; per-batch work is two
    argmin-over-k kernels and a k-entry LUT gather."""
    ds, cbs, q = _pq_codebooks(sf_dir)
    out = knn.pq_encode(ds, cbs, query=q).to_pandas()
    out["adc_dist"] = out["adc_dist"].round(6)
    for c in ("vec_id", "code_0", "code_1"):
        out[c] = out[c].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


PQ_CTES = """
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS code,
         list_transform(list_slice(embedding, 1, 32),
                        x -> CAST(x AS DOUBLE)) AS c0,
         list_transform(list_slice(embedding, 33, 64),
                        x -> CAST(x AS DOUBLE)) AS c1
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 4)
),
q AS (SELECT c0 AS q0, c1 AS q1 FROM c QUALIFY row_number() OVER (ORDER BY code) = 1),
e AS (SELECT vec_id,
             list_transform(list_slice(embedding, 1, 32),
                            x -> CAST(x AS DOUBLE)) AS v0,
             list_transform(list_slice(embedding, 33, 64),
                            x -> CAST(x AS DOUBLE)) AS v1
      FROM embeddings),
a0 AS (SELECT e.vec_id, c.code, c.c0 FROM e CROSS JOIN c
       QUALIFY row_number() OVER (PARTITION BY e.vec_id
               ORDER BY list_distance(e.v0, c.c0), c.code) = 1),
a1 AS (SELECT e.vec_id, c.code, c.c1 FROM e CROSS JOIN c
       QUALIFY row_number() OVER (PARTITION BY e.vec_id
               ORDER BY list_distance(e.v1, c.c1), c.code) = 1),
adc AS (
  SELECT a0.vec_id, CAST(a0.code AS BIGINT) AS code_0,
         CAST(a1.code AS BIGINT) AS code_1,
         sqrt(power(list_distance(q.q0, a0.c0), 2)
            + power(list_distance(q.q1, a1.c1), 2)) AS d
  FROM a0 JOIN a1 USING (vec_id) CROSS JOIN q
)
"""

PQ_SQL = PQ_CTES + """
SELECT vec_id, code_0, code_1, round(d, 6) AS adc_dist
FROM adc ORDER BY vec_id
"""


def embeddings_pq_topk(sf_dir: str) -> pd.DataFrame:
    """ADC top-k over the PQ codes (``knn.pq_adc_topk``): per-batch
    partial top-k with boundary ties widened — load-bearing here, since
    every vector sharing all codes ties exactly — then a tiny driver
    merge tie-broken (dist, vec_id). No global sort."""
    ds, cbs, q = _pq_codebooks(sf_dir)
    codes = knn.pq_encode(ds, cbs, query=q)
    out = knn.pq_adc_topk(codes, k=20)
    out["adc_dist"] = out["adc_dist"].round(6)
    for c in ("vec_id", "code_0", "code_1"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


PQ_TOPK_SQL = PQ_CTES + """
SELECT vec_id, code_0, code_1, round(d, 6) AS adc_dist
FROM adc ORDER BY d, vec_id LIMIT 20
"""


def docs_top_quarter(sf_dir: str) -> pd.DataFrame:
    """Corpus-percentile quality filter (``select.top_fraction_select``):
    keep exactly the top ⌊N/4⌋ documents by (n_chars DESC, doc_id) —
    "keep the best quarter of the corpus by score". Distributed as a
    count-budget threshold search (``select.rank_cut``): per-score
    counts → driver cut point → broadcast filter; no sort, no
    shuffle."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = select.top_fraction_select(ds, "n_chars", 1, 4).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


TOP_QUARTER_SQL = """
SELECT doc_id, n_chars FROM documents
QUALIFY ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) * 4
        <= COUNT(*) OVER ()
ORDER BY doc_id
"""


def docs_length_terciles(sf_dir: str) -> pd.DataFrame:
    """CCNet-style head/middle/tail partition (``select.ntile_label``):
    every document labeled with its NTILE(3) bucket in (n_chars DESC,
    doc_id) order — the corpus split CCNet makes on LM perplexity
    before choosing which band to train on. The distinct-score counts
    table is computed once; both tercile boundaries resolve to exact
    (score, id) cuts on the driver; one map stage labels. No sort, no
    shuffle, O(distinct scores) driver bytes."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = select.ntile_label(ds, "n_chars", 3, out_col="tercile").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "n_chars", "tercile"]
    ]


TERCILE_SQL = """
SELECT doc_id, n_chars,
       NTILE(3) OVER (ORDER BY n_chars DESC, doc_id) AS tercile
FROM documents ORDER BY doc_id
"""


def docs_shuffle_order(sf_dir: str) -> pd.DataFrame:
    """Deterministic training-order shuffle
    (``select.deterministic_shuffle_rank``): every document gets a
    dense rank in md5("seed:id") order — the seeded global permutation
    a training run reads in, stable across retries so a resumed epoch
    sees the same order. Distributed as a GLOBAL ORDER BY with no sort:
    md5's hex prefix splits the total order into 4096 contiguous
    uniform buckets (prefix-consistent lexicographic order), per-bucket
    count partials prefix-sum on the driver (O(buckets) bytes), one
    hash exchange of (id, key) stamps rank = offset + local position."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id"])
    out = select.deterministic_shuffle_rank(ds, "doc_id", seed=42).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out = out.rename(columns={"rank": "shuffle_rank"})
    out["shuffle_rank"] = out["shuffle_rank"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SHUFFLE_ORDER_SQL = """
SELECT doc_id,
       CAST(row_number() OVER (
            ORDER BY md5('42:' || CAST(doc_id AS VARCHAR)), doc_id) - 1
            AS BIGINT) AS shuffle_rank
FROM documents
ORDER BY doc_id
"""


def docs_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sampling without replacement (``select.weighted_sample``,
    Efraimidis–Spirakis A-ES): 64 documents sampled proportional to
    ``n_chars`` via deterministic hash-uniform keys ``u^(1/w)`` — "take
    a length-biased subsample" with no corpus shuffle (per-batch
    tie-widened partial top-k, driver merges blocks×k rows). u's 52
    bits are mantissa-exact in both engines, so membership is exactly
    SQL-checkable."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = select.weighted_sample(ds, "n_chars", 64, id_col="doc_id", seed=7)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    out["es_key"] = out["es_key"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


WEIGHTED_SAMPLE_SQL = """
WITH t AS (
  SELECT doc_id, n_chars,
         pow(
           CAST(CAST('0x' || substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 13)
                AS UBIGINT) AS DOUBLE) / pow(16, 13),
           1.0 / n_chars) AS es_key
  FROM documents
  WHERE n_chars > 0
)
SELECT doc_id, n_chars, round(es_key, 6) AS es_key
FROM t
QUALIFY row_number() OVER (ORDER BY es_key DESC, doc_id) <= 64
ORDER BY doc_id
"""


def embeddings_label_centroid(sf_dir: str) -> pd.DataFrame:
    """Per-label mean embedding (``linalg.grouped_vector_mean``) — the
    grouped VECTOR-valued aggregate (class centroids / doc-from-chunk
    averaging): one mergeable (d-dim sum, count) partial per group per
    batch, O(labels·d) driver bytes, long-form output so the DuckDB
    unnest + per-dimension avg twin compares directly."""
    from gene_etl_ray.ops import linalg

    ds = read(sf_dir, "embeddings", ["label", "embedding"])
    out = linalg.grouped_vector_mean(ds, "label")
    out["label"] = out["label"].astype("int64")
    out["mean_val"] = out["mean_val"].round(6)
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


LABEL_CENTROID_SQL = """
WITH e AS (
  SELECT label, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ev
  FROM embeddings
),
u AS (
  SELECT label, generate_subscripts(ev, 1) AS j, unnest(ev) AS x FROM e
)
SELECT CAST(label AS BIGINT) AS label, CAST(j AS BIGINT) AS dim,
       round(avg(x), 6) AS mean_val
FROM u GROUP BY label, j ORDER BY label, dim
"""


def docs_stratified_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Per-source stratified A-ES (``select.grouped_weighted_sample``):
    an independent length-biased sample of 16 docs per source — the
    "cap each domain, bias toward quality inside it" selection. One
    hash-bucketed exchange, vectorized in-bucket head(k)."""
    from gene_etl_ray.ops import select

    ds = read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    out = select.grouped_weighted_sample(
        ds, "source", "n_chars", 16, id_col="doc_id", seed=7
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    out["es_key"] = out["es_key"].round(6)
    return (
        out[["doc_id", "source", "n_chars", "es_key"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


STRAT_WEIGHTED_SAMPLE_SQL = """
WITH t AS (
  SELECT doc_id, source, n_chars,
         pow(
           CAST(CAST('0x' || substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 13)
                AS UBIGINT) AS DOUBLE) / pow(16, 13),
           1.0 / n_chars) AS es_key
  FROM documents
  WHERE n_chars > 0
)
SELECT doc_id, source, n_chars, round(es_key, 6) AS es_key
FROM t
QUALIFY row_number() OVER (
    PARTITION BY source ORDER BY es_key DESC, doc_id) <= 16
ORDER BY doc_id
"""


def embeddings_logreg_step(sf_dir: str) -> pd.DataFrame:
    """Distributed logistic-regression quality classifier
    (``linalg.logreg_train``) under the SQL gate via the one-step exact
    regime: from w₀=0 the first full-batch GD step is a closed form
    (w₁ = lr·avg(x·(y−½)), since σ(0)=½), so both the d-dim gradient
    partials AND the scoring pass are DuckDB-expressible (unnest +
    per-dimension avg + dot-product re-join). The full iterated trainer
    is the same broadcast-w/mergeable-partial loop, unit-pinned
    (convergence on separable labels, blocking invariance). Label:
    embeddings.label == 0."""
    from gene_etl_ray.ops import linalg

    ds = read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def lab(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["y"] = (b["label"] == 0).astype(np.float64)
        return b

    lds = ds.map_batches(lab, batch_format="pandas")
    w = linalg.logreg_train(lds, "y", n_iters=1, lr=0.5)
    out = (
        linalg.logreg_score(lds, w)
        .select_columns(["vec_id", "score"])
        .to_pandas()
    )
    out["vec_id"] = out["vec_id"].astype("int64")
    out["score"] = out["score"].round(6)
    return out.sort_values("vec_id").reset_index(drop=True)


LOGREG_STEP_SQL = """
WITH e AS (
  SELECT vec_id, CASE WHEN label = 0 THEN 1.0 ELSE 0.0 END AS y,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ev
  FROM embeddings
),
u AS (
  SELECT vec_id, y, generate_subscripts(ev, 1) AS j, unnest(ev) AS x
  FROM e
),
w AS (
  SELECT j, 0.5 * avg(x * (y - 0.5)) AS wj FROM u GROUP BY j
),
s AS (
  SELECT u.vec_id, sum(u.x * w.wj) AS z
  FROM u JOIN w USING (j) GROUP BY u.vec_id
)
SELECT vec_id, round(1.0 / (1.0 + exp(-z)), 6) AS score
FROM s ORDER BY vec_id
"""


def docs_dedup_incremental(sf_dir: str) -> pd.DataFrame:
    """Incremental (cross-snapshot) dedup — the CDC-shaped curation
    op: documents with even doc_id stand in for the already-ingested
    snapshot, odd doc_id for the new crawl; a new document is dropped
    when its first-12-token fingerprint (``text.prefix_key``) already
    exists in the snapshot. One anti ``partitioned_join`` on the
    fingerprint — only (fingerprint, small metadata) rows exchange,
    never document text; the snapshot side ships fingerprints only.
    At 100 TB the key would be the fingerprint's 128-bit hash (same
    join, fixed-width exchange)."""
    docs = read(sf_dir, "documents", ["doc_id", "source", "n_chars", "text"])
    keyed = text.prefix_key(docs, 12).drop_columns(["text"])

    def parity(rem: int):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id")
            return t.filter(
                pc.equal(pc.bit_wise_and(ids, pa.scalar(1, pa.int64())), rem)
            )

        return fn

    new = keyed.map_batches(parity(1), batch_format="pyarrow")
    prior = keyed.map_batches(parity(0), batch_format="pyarrow").select_columns(
        ["prefix_key"]
    )
    out = relational.partitioned_join(
        new, prior, "prefix_key", "prefix_key", how="anti"
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "source", "n_chars"]
    ]


DEDUP_INCR_SQL = r"""
WITH pre AS (
  SELECT doc_id, source, n_chars,
         array_to_string(
           (string_split_regex(trim(coalesce(text, '')), '\s+'))[1:12], ' '
         ) AS pfx
  FROM documents)
SELECT doc_id, source, n_chars FROM pre d
WHERE d.doc_id % 2 = 1 AND NOT EXISTS (
  SELECT 1 FROM pre p WHERE p.doc_id % 2 = 0 AND p.pfx = d.pfx)
ORDER BY doc_id
"""


def events_type_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition matrix over per-user event
    sequences (``relational.transition_counts``): one user-bucketed
    exchange, vectorized in-bucket sort + shift, item-domain-sized
    partials; ``prob`` row-normalizes per prev_type as a closed-form
    scoring layer. The sequence-order companion of
    ``events_type_cooccurrence``."""
    ds = read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])
    out = relational.transition_counts(
        ds, "user_id", "ts", "event_type", "event_id"
    )
    out = out.rename(columns={"prev_item": "prev_type", "next_item": "next_type"})
    out["prob"] = out["prob"].round(6)
    return out.reset_index(drop=True)


TRANSITIONS_SQL = """
WITH seq AS (
    SELECT user_id, event_type,
           lead(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS next_type
    FROM events
)
SELECT event_type AS prev_type, next_type,
       CAST(count(*) AS BIGINT) AS n,
       round(count(*) * 1.0 /
             sum(count(*)) OVER (PARTITION BY event_type), 6) AS prob
FROM seq WHERE next_type IS NOT NULL AND event_type IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def events_countmin_types(sf_dir: str) -> pd.DataFrame:
    """Point-frequency estimates from a merged Count-Min sketch
    (``sketch.CountMin``): per-batch value_counts combiner → one
    depth×width grid per batch → driver merge → vectorized point
    queries for the distinct event types. Run in the small-domain
    regime where no two live keys collide in every row, so CM's
    one-sided estimate is EXACT and SQL-gateable (same exact-regime
    pattern as ``events_heavy_hitters``); the approximate regime's
    ε·N bound is unit-tested separately."""
    from gene_etl_ray.ops.sketch import countmin_frequencies

    ds = read(sf_dir, "events", ["event_type"])
    keys = grouped_aggregate_partial(ds, ["event_type"], {}, counts="c")[
        "event_type"
    ].sort_values().tolist()
    out = countmin_frequencies(ds, "event_type", keys, width=4096, depth=4)
    return out.sort_values("event_type").reset_index(drop=True)


COUNTMIN_SQL = """
SELECT event_type, CAST(count(*) AS BIGINT) AS est_count
FROM events GROUP BY 1 ORDER BY 1
"""


def _knn_edges_ds(sf_dir: str, k: int = 3,
                  with_weight: bool = False) -> ray.data.Dataset:
    """The kNN edge list every graph query runs on — ONE builder so k,
    the tie-break and the weight rounding cannot drift between the
    engine/oracle pairs. Returns a DATASET straight from the
    distributed sharded builder (``knn.knn_graph_edges``): the edges
    feed the graph ops without ever collecting on the driver (r3
    verdict's last whole-corpus gather, closed)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    edges = knn.knn_graph_edges(ds, k=k)

    def conv(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": b["vec_id"].astype("int64"),
                            "dst": b["nbr_id"].astype("int64")})
        if with_weight:
            # 4dp (not the output's 6): a rounded value used as a
            # fixed-point INPUT needs boundary margin against last-ulp
            # cosine differences between engines
            out["w"] = b["cosine"].round(4)
        return out

    return edges.map_batches(conv, batch_format="pandas")


def _knn_edges_cte(k: int = 3, with_weight: bool = False) -> str:
    """The matching SQL edge CTE (AS MATERIALIZED — every twin
    references it repeatedly)."""
    wcol = (",\n           round(list_cosine_similarity(q.emb, e.emb), 4)"
            " AS w" if with_weight else "")
    return f"""WITH ed AS MATERIALIZED (
    SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
    FROM embeddings
), edges AS MATERIALIZED (
    SELECT q.vec_id AS src, e.vec_id AS dst{wcol}
    FROM ed q CROSS JOIN ed e
    WHERE q.vec_id <> e.vec_id
    QUALIFY row_number() OVER (
        PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id
    ) <= {k}
)"""


def embeddings_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank over the exact cosine kNN graph (``graph.pagerank``,
    k=3, d=0.85, 5 fixed power iterations): similarity-graph centrality
    — the corpus-curation signal for "how prototypical is this
    document". Rank state and edges live as Datasets (per-round
    bucketed join + grouped sum; driver holds scalars only); the fixed
    iteration count makes the twin an unrolled-CTE recomputation.
    ``pr_ratio`` = N·pr, rank mass relative to uniform, rounded on
    both sides."""
    from gene_etl_ray.ops import graph

    pr = graph.pagerank(_knn_edges_ds(sf_dir), iters=5).to_pandas()
    n = len(pr)
    pr["pr_ratio"] = (pr["pr"] * n).round(6)
    pr = pr.rename(columns={"node": "vec_id"})
    pr["vec_id"] = pr["vec_id"].astype("int64")
    return pr[["vec_id", "pr_ratio"]].sort_values("vec_id").reset_index(drop=True)


def embeddings_rp(sf_dir: str) -> pd.DataFrame:
    """Johnson–Lindenstrauss ±1 random projection
    (``knn.random_projection``, 32 → 8 dims): every projected
    coordinate gated value-exact — the md5-derived sign matrix is
    byte-identical in both engines, so the twin recomputes y = xS/√8
    with a generate_series sign table. Bounded output: vec_id < 200."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = (
        knn.random_projection(ds, out_dim=8)
        .map_batches(lambda b: b[b["vec_id"] < 200],
                     batch_format="pandas")
        .to_pandas()
    )
    out["pv"] = out["pv"].round(6)
    for c in ("vec_id", "j"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["vec_id", "j"]).reset_index(drop=True)


RP_SQL = """
WITH x AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(unnest(embedding) AS DOUBLE) AS v
  FROM embeddings WHERE vec_id < 200),
dims AS (SELECT DISTINCT i FROM x),
s AS (
  SELECT dims.i, j.j,
         CASE WHEN substr(md5(CAST(dims.i AS VARCHAR) || ':'
                              || CAST(j.j AS VARCHAR)), 1, 1)
                   IN ('0','1','2','3','4','5','6','7')
              THEN 1.0 ELSE -1.0 END AS sign
  FROM dims CROSS JOIN generate_series(1, 8) j(j))
SELECT x.vec_id, s.j,
       round(sum(x.v * s.sign) / sqrt(8.0), 6) AS pv
FROM x JOIN s ON x.i = s.i
GROUP BY x.vec_id, s.j
ORDER BY x.vec_id, s.j
"""


def embeddings_ppr(sf_dir: str) -> pd.DataFrame:
    """PERSONALIZED PageRank / random-walk-with-restart over the exact
    cosine kNN graph (``graph.pagerank(seeds=...)``): restart mass
    returns to the uniform distribution over the seed set
    (vec_id % 17 == 0) instead of all nodes — the "similar to THESE
    documents" relevance diffusion (topic-focused curation, seed-set
    expansion). Same per-round join/sum shape as the uniform op; the
    kNN graph has no dangling nodes, so the fixed point is
    CTE-unrollable exactly like the uniform twin."""
    from gene_etl_ray.ops import graph

    edges = _knn_edges_ds(sf_dir)
    seed_ids = (
        edges.map_batches(
            lambda b: pd.DataFrame(
                {"s": pd.unique(b["src"][b["src"] % 17 == 0])}),
            batch_format="pandas",
        ).to_pandas()["s"].unique()
    )
    pr = graph.pagerank(edges, iters=5, seeds=seed_ids).to_pandas()
    pr["ppr"] = (pr["pr"] * 1000.0).round(6)
    pr = pr.rename(columns={"node": "vec_id"})
    pr["vec_id"] = pr["vec_id"].astype("int64")
    return (
        pr[["vec_id", "ppr"]].sort_values("vec_id").reset_index(drop=True)
    )


def _ppr_sql(iters: int = 5, k: int = 3, damping: float = 0.85) -> str:
    """Unrolled personalized-PageRank twin: p = 1/|S| on seeds
    (vec_id % 17 == 0) else 0; r_{i} = (1−d)·p + d·(contrib + 0·p)
    (the kNN graph has no dangling nodes). Same CTE skeleton as the
    uniform twin."""
    head = "\n" + _knn_edges_cte(k) + """, deg AS MATERIALIZED (
    SELECT src, count(*) AS outdeg FROM edges GROUP BY src
), ns AS MATERIALIZED (SELECT count(*) AS c FROM ed WHERE vec_id % 17 = 0),
r0 AS MATERIALIZED (
    SELECT vec_id AS node,
           CASE WHEN vec_id % 17 = 0
                THEN 1.0 / (SELECT c FROM ns) ELSE 0.0 END AS pr
    FROM ed)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f""", r{i} AS MATERIALIZED (
    SELECT b.node,
           (1 - {damping}) * CASE WHEN b.node % 17 = 0
                THEN 1.0 / (SELECT c FROM ns) ELSE 0.0 END
           + {damping} * coalesce(s.m, 0) AS pr
    FROM (SELECT node FROM r0) b LEFT JOIN (
        SELECT e.dst AS node, sum(r.pr / d.outdeg) AS m
        FROM edges e
        JOIN r{i - 1} r ON e.src = r.node
        JOIN deg d ON d.src = e.src
        GROUP BY e.dst
    ) s USING (node)
)""")
    tail = f"""
SELECT node AS vec_id, round(pr * 1000.0, 6) AS ppr
FROM r{iters} ORDER BY vec_id
"""
    return head + "".join(steps) + tail


PPR_SQL = _ppr_sql()


def _pagerank_sql(iters: int = 5, k: int = 3, damping: float = 0.85) -> str:
    """Unrolled-iteration PageRank twin (same pattern as the EWMA
    oracle's unrolled recursion): r0 = uniform, each r_i one
    LEFT-JOINed grouped sum over the kNN edge CTE."""
    head = "\n" + _knn_edges_cte(k) + """, deg AS MATERIALIZED (
    SELECT src, count(*) AS outdeg FROM edges GROUP BY src
), nn AS MATERIALIZED (SELECT count(*) AS c FROM ed),
r0 AS MATERIALIZED (SELECT vec_id AS node, 1.0 / (SELECT c FROM nn) AS pr FROM ed)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f""", r{i} AS MATERIALIZED (
    SELECT b.node,
           (1 - {damping}) / (SELECT c FROM nn)
           + {damping} * coalesce(s.m, 0) AS pr
    FROM (SELECT node FROM r0) b LEFT JOIN (
        SELECT e.dst AS node, sum(r.pr / d.outdeg) AS m
        FROM edges e
        JOIN r{i - 1} r ON e.src = r.node
        JOIN deg d ON d.src = e.src
        GROUP BY e.dst
    ) s USING (node)
)""")
    tail = f"""
SELECT node AS vec_id,
       round(pr * (SELECT c FROM nn), 6) AS pr_ratio
FROM r{iters} ORDER BY vec_id
"""
    return head + "".join(steps) + tail


PAGERANK_SQL = _pagerank_sql()


def embeddings_knn_triangles(sf_dir: str) -> pd.DataFrame:
    """Per-node triangle participation over the undirected-ized cosine
    kNN graph (``graph.triangle_counts``): the node-ordered wedge
    enumeration as two bucketed joins (canonical edges self-joined on
    the middle vertex, wedges closed by a semi join against the edge
    set) — the local-clustering signal over the similarity graph. The
    twin recomputes the same wedge→closure chain as SQL self-joins."""
    from gene_etl_ray.ops import graph

    out = graph.triangle_counts(_knn_edges_ds(sf_dir))
    return out.rename(columns={"node": "vec_id"}).reset_index(drop=True)


KNN_TRIANGLES_SQL = "\n" + _knn_edges_cte(3) + """, und AS MATERIALIZED (
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM edges
), tri AS MATERIALIZED (
    SELECT e1.u AS a, e1.v AS b, e2.v AS c
    FROM und e1
    JOIN und e2 ON e1.v = e2.u
    JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v
)
SELECT node AS vec_id, CAST(count(*) AS BIGINT) AS n_tri
FROM (
    SELECT a AS node FROM tri
    UNION ALL SELECT b FROM tri
    UNION ALL SELECT c FROM tri
)
GROUP BY node ORDER BY node
"""


def events_jackknife_mean(sf_dir: str) -> pd.DataFrame:
    """Per-type mean of ``value`` with a delete-one-block jackknife
    standard error (``correlate.grouped_block_jackknife``, 20 blocks by
    ``event_id % 20``): resampling error bars whose exchange is
    |groups|·blocks partial rows regardless of stream size — and whose
    deterministic block assignment is SQL-expressible, putting a
    resampling estimator under the value-hash gate."""
    from gene_etl_ray.ops.correlate import grouped_block_jackknife

    ds = read(sf_dir, "events", ["event_type", "value", "event_id"])
    out = grouped_block_jackknife(
        ds, "event_type", "value", "event_id", n_blocks=20
    )
    out["mean"] = out["mean"].round(6)
    out["jk_se"] = out["jk_se"].round(6)
    return out.reset_index(drop=True)


JACKKNIFE_SQL = """
WITH blocks AS (
    SELECT event_type, event_id % 20 AS blk,
           sum(value) AS s, count(value) AS n
    FROM events WHERE value IS NOT NULL
    GROUP BY 1, 2
), loo AS (
    SELECT event_type,
           sum(s) OVER (PARTITION BY event_type) AS S,
           sum(n) OVER (PARTITION BY event_type) AS N,
           count(*) OVER (PARTITION BY event_type) AS B,
           (sum(s) OVER (PARTITION BY event_type) - s)
           / (sum(n) OVER (PARTITION BY event_type) - n) AS theta
    FROM blocks
), dev AS (
    SELECT event_type, S, N, B, theta,
           avg(theta) OVER (PARTITION BY event_type) AS tbar
    FROM loo
)
SELECT event_type,
       round(any_value(S) / any_value(N), 6) AS mean,
       round(sqrt((any_value(B) - 1.0) / any_value(B)
                  * sum((theta - tbar) * (theta - tbar))), 6) AS jk_se,
       CAST(any_value(B) AS BIGINT) AS n_blocks_used
FROM dev GROUP BY event_type ORDER BY event_type
"""


def embeddings_hits(sf_dir: str) -> pd.DataFrame:
    """HITS hubs & authorities over the cosine kNN graph
    (``graph.hits``, k=3, 3 L1-normalized mutual-recursion rounds):
    directional centrality — a high-authority vector is one many
    others choose as a neighbor, a high-hub vector points at
    high-authority ones. Same Dataset-state iteration shape as
    ``embeddings_pagerank``; the twin unrolls the mutual recursion."""
    from gene_etl_ray.ops import graph

    out = graph.hits(_knn_edges_ds(sf_dir), iters=3).to_pandas()
    out["hub"] = out["hub"].round(6)
    out["authority"] = out["authority"].round(6)
    out = out.rename(columns={"node": "vec_id"})
    out["vec_id"] = out["vec_id"].astype("int64")
    return out[["vec_id", "hub", "authority"]].sort_values(
        "vec_id"
    ).reset_index(drop=True)


def _hits_sql(iters: int = 3, k: int = 3) -> str:
    """Unrolled HITS twin: h0 = 1, each round one LEFT-JOINed grouped
    sum per direction plus an L1-normalizing scalar subquery."""
    # every CTE is AS MATERIALIZED: each a{i}/h{i} is referenced more
    # than once (value + L1 normalizer), and without materialization
    # DuckDB re-inlines the whole upstream chain per reference — the
    # edge cross-join would be recomputed O(4^iters) times and spill
    head = "\n" + _knn_edges_cte(k) + """, nodes AS MATERIALIZED (
    SELECT DISTINCT src AS node FROM edges
    UNION SELECT DISTINCT dst FROM edges
),
h0 AS MATERIALIZED (SELECT node, 1.0 AS v FROM nodes)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f""", a{i}r AS MATERIALIZED (
    SELECT n.node, coalesce(s.m, 0) AS v
    FROM nodes n LEFT JOIN (
        SELECT e.dst AS node, sum(h.v) AS m
        FROM edges e JOIN h{i - 1} h ON e.src = h.node GROUP BY e.dst
    ) s USING (node)
), a{i} AS MATERIALIZED (
    SELECT node, v / (SELECT sum(v) FROM a{i}r) AS v FROM a{i}r
), h{i}r AS MATERIALIZED (
    SELECT n.node, coalesce(s.m, 0) AS v
    FROM nodes n LEFT JOIN (
        SELECT e.src AS node, sum(a.v) AS m
        FROM edges e JOIN a{i} a ON e.dst = a.node GROUP BY e.src
    ) s USING (node)
), h{i} AS MATERIALIZED (
    SELECT node, v / (SELECT sum(v) FROM h{i}r) AS v FROM h{i}r
)""")
    tail = f"""
SELECT h.node AS vec_id, round(h.v, 6) AS hub, round(a.v, 6) AS authority
FROM h{iters} h JOIN a{iters} a USING (node)
ORDER BY vec_id
"""
    return head + "".join(steps) + tail


HITS_SQL = _hits_sql()


def embeddings_clustering_coeff(sf_dir: str) -> pd.DataFrame:
    """Local clustering coefficient over the undirected-ized cosine kNN
    graph (``graph.clustering_coefficients``): per-node neighborhood
    cohesion = 2·n_tri / (deg·(deg−1)), degree ≥ 2 only — one triangle
    pass plus one bucketed degree count. Twin: the triangle self-join
    chain plus a degree CTE."""
    from gene_etl_ray.ops import graph

    out = graph.clustering_coefficients(_knn_edges_ds(sf_dir))
    out["clustering"] = out["clustering"].round(6)
    return out.rename(columns={"node": "vec_id"}).reset_index(drop=True)


CLUSTERING_SQL = "\n" + _knn_edges_cte(3) + """, und AS MATERIALIZED (
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM edges
), tri AS MATERIALIZED (
    SELECT e1.u AS a, e1.v AS b, e2.v AS c
    FROM und e1
    JOIN und e2 ON e1.v = e2.u
    JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v
), tric AS MATERIALIZED (
    SELECT node, count(*) AS n_tri FROM (
        SELECT a AS node FROM tri
        UNION ALL SELECT b FROM tri
        UNION ALL SELECT c FROM tri
    ) GROUP BY node
), deg AS MATERIALIZED (
    SELECT node, count(*) AS degree FROM (
        SELECT u AS node FROM und UNION ALL SELECT v FROM und
    ) GROUP BY node
)
SELECT d.node AS vec_id, CAST(d.degree AS BIGINT) AS degree,
       round(2.0 * coalesce(t.n_tri, 0) / (d.degree * (d.degree - 1.0)), 6)
           AS clustering
FROM deg d LEFT JOIN tric t USING (node)
WHERE d.degree >= 2
ORDER BY vec_id
"""


def embeddings_communities(sf_dir: str) -> pd.DataFrame:
    """Community detection over the cosine kNN graph by DETERMINISTIC
    synchronous label propagation (``graph.label_propagation``, 4
    rounds, most-frequent-neighbor-label with min-label ties): the
    similarity-cluster signal one level above connected components.
    Fixed rounds + deterministic ties are what make the twin an
    unrolled-CTE recomputation (the classic random-order LPA is not
    oracle-able)."""
    from gene_etl_ray.ops import graph

    out = graph.label_propagation(_knn_edges_ds(sf_dir), iters=4)
    return out.rename(columns={"node": "vec_id"}).reset_index(drop=True)


def _lpa_sql(iters: int = 4, k: int = 3) -> str:
    """Unrolled label-propagation twin: per round one grouped count of
    neighbor labels with a (count DESC, label ASC) row_number argmax."""
    head = "\n" + _knn_edges_cte(k) + """, und AS MATERIALIZED (
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM edges
), sym AS MATERIALIZED (
    SELECT u AS node, v AS nbr FROM und
    UNION ALL SELECT v, u FROM und
),
l0 AS MATERIALIZED (SELECT DISTINCT node, node AS label FROM sym)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f""", l{i} AS MATERIALIZED (
    SELECT node, label FROM (
        SELECT s.node, l.label,
               row_number() OVER (
                   PARTITION BY s.node ORDER BY count(*) DESC, l.label
               ) AS rn
        FROM sym s JOIN l{i - 1} l ON s.nbr = l.node
        GROUP BY s.node, l.label
    ) WHERE rn = 1
)""")
    tail = f"""
SELECT node AS vec_id, CAST(label AS BIGINT) AS community
FROM l{iters} ORDER BY vec_id
"""
    return head + "".join(steps) + tail


LPA_SQL = _lpa_sql()


def embeddings_pagerank_weighted(sf_dir: str) -> pd.DataFrame:
    """Cosine-WEIGHTED PageRank over the kNN graph: each vector
    distributes rank proportionally to the (4dp-rounded) cosine of each
    neighbor edge instead of uniformly — the centrality a curation
    pipeline actually wants (strong similarities count more). Weights
    are rounded to 4dp BEFORE propagation so engine and twin start from
    identical inputs — 4dp (not the output's 6) because a rounded value
    used as a fixed-point INPUT must not straddle a boundary when the
    two engines' cosines differ in the last ulp, and 100× fewer
    boundaries means 100× fewer chances; the twin recomputes the same
    weighted fixed-point with unrolled CTEs."""
    from gene_etl_ray.ops import graph

    pr = graph.pagerank(_knn_edges_ds(sf_dir, with_weight=True),
                        iters=5, weight="w").to_pandas()
    n = len(pr)
    pr["pr_ratio"] = (pr["pr"] * n).round(6)
    pr = pr.rename(columns={"node": "vec_id"})
    pr["vec_id"] = pr["vec_id"].astype("int64")
    return pr[["vec_id", "pr_ratio"]].sort_values("vec_id").reset_index(drop=True)


def _pagerank_weighted_sql(iters: int = 5, k: int = 3,
                           damping: float = 0.85) -> str:
    """Weighted-PageRank twin: identical to ``_pagerank_sql`` with
    4dp-rounded cosine edge weights and Σw normalization."""
    head = "\n" + _knn_edges_cte(k, with_weight=True) + """, deg AS MATERIALIZED (
    SELECT src, sum(w) AS wout FROM edges GROUP BY src
), nn AS MATERIALIZED (SELECT count(*) AS c FROM ed),
r0 AS MATERIALIZED (
    SELECT vec_id AS node, 1.0 / (SELECT c FROM nn) AS pr FROM ed)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f""", r{i} AS MATERIALIZED (
    SELECT b.node,
           (1 - {damping}) / (SELECT c FROM nn)
           + {damping} * coalesce(s.m, 0) AS pr
    FROM (SELECT node FROM r0) b LEFT JOIN (
        SELECT e.dst AS node, sum(r.pr * e.w / d.wout) AS m
        FROM edges e
        JOIN r{i - 1} r ON e.src = r.node
        JOIN deg d ON d.src = e.src
        GROUP BY e.dst
    ) s USING (node)
)""")
    tail = f"""
SELECT node AS vec_id,
       round(pr * (SELECT c FROM nn), 6) AS pr_ratio
FROM r{iters} ORDER BY vec_id
"""
    return head + "".join(steps) + tail


PAGERANK_W_SQL = _pagerank_weighted_sql()


def embeddings_knn_reach(sf_dir: str) -> pd.DataFrame:
    """Single-source BFS reachability over the kNN graph
    (``graph.bfs_hops``, source = vec 0, ≤4 hops): the traversal member
    of the graph family — hop distance doubles as a similarity-radius
    signal ("how many neighbor steps from this exemplar"). Frontier
    Dataset rounds above the small-graph threshold; unrolled min-hops
    CTE twin."""
    from gene_etl_ray.ops import graph

    out = graph.bfs_hops(_knn_edges_ds(sf_dir), source=0,
                         max_hops=4)
    return out.rename(columns={"node": "vec_id"}).reset_index(drop=True)


def _bfs_sql(max_hops: int = 4, k: int = 3) -> str:
    """Unrolled BFS twin: each round unions frontier expansions into a
    min-hops visited set (AS MATERIALIZED throughout — multiply
    referenced)."""
    head = "\n" + _knn_edges_cte(k) + """,
v0 AS MATERIALIZED (SELECT 0 AS node, 0 AS hops)"""
    steps = []
    for i in range(1, max_hops + 1):
        steps.append(f""", v{i} AS MATERIALIZED (
    SELECT node, min(hops) AS hops FROM (
        SELECT node, hops FROM v{i - 1}
        UNION ALL
        SELECT e.dst AS node, v.hops + 1 AS hops
        FROM edges e JOIN v{i - 1} v ON e.src = v.node
    ) GROUP BY node
)""")
    tail = f"""
SELECT node AS vec_id, CAST(hops AS BIGINT) AS hops
FROM v{max_hops} ORDER BY vec_id
"""
    return head + "".join(steps) + tail


BFS_SQL = _bfs_sql()


def events_skew_report(sf_dir: str) -> pd.DataFrame:
    """Shuffle-key skew diagnostic (``relational.skew_report``): bucket
    events by ``user_id % 64``, report row count / occupied buckets /
    heaviest-bucket share / Gini of bucket sizes — the pre-shuffle
    numbers that decide whether a key needs salting. One pass of
    per-batch partials; 64 integers fold on the driver."""
    ds = read(sf_dir, "events", ["user_id"])
    out = relational.skew_report(ds, "user_id", n_buckets=64)
    out["max_share"] = out["max_share"].round(6)
    out["gini"] = out["gini"].round(6)
    return out


SKEW_REPORT_SQL = """
WITH cells AS (
    SELECT g.b, coalesce(c.cnt, 0) AS cnt
    FROM (SELECT unnest(generate_series(0, 63)) AS b) g
    LEFT JOIN (
        -- floored modulo, matching numpy: negative ids wrap into [0, 64)
        SELECT ((user_id % 64) + 64) % 64 AS b, count(*) AS cnt
        FROM events GROUP BY 1
    ) c USING (b)
), ranked AS (
    SELECT cnt, row_number() OVER (ORDER BY cnt, b) AS r FROM cells
)
SELECT CAST(sum(cnt) AS BIGINT) AS n_rows,
       CAST(count(*) FILTER (WHERE cnt > 0) AS BIGINT)
           AS n_buckets_occupied,
       round(max(cnt) * 1.0 / sum(cnt), 6) AS max_share,
       round(2.0 * sum(r * cnt) / (64.0 * sum(cnt)) - 65.0 / 64.0, 6)
           AS gini
FROM ranked
"""


# ---------------------------------------------------------------------------
# source-format coverage: the same table served as JSONL and CSV, read
# with ray.data.read_json / read_csv and gated against DuckDB reading
# the IDENTICAL file (the oracle twins carry the file path, so they are
# registered through __ray_entry__.oracle_sql like the CDC oracles)
# ---------------------------------------------------------------------------

def ensure_events_textfiles(sf_dir: str) -> str:
    """Idempotently derive JSONL + CSV copies of the events table under
    a deterministic scratch dir (atomic tmp+rename; parquet row order;
    ts as int64 epoch-µs so neither format's timestamp parser is in the
    comparison loop). Returns the directory."""
    import json

    sfname = os.path.basename(os.path.normpath(sf_dir))
    out_dir = os.path.join("/tmp/gene_etl_ray_src", sfname)
    jpath = os.path.join(out_dir, "events.jsonl")
    cpath = os.path.join(out_dir, "events.csv")
    src = os.path.join(sf_dir, "events.parquet")
    st = os.stat(src)
    stamp = f"{st.st_mtime_ns}:{st.st_size}"
    marker = os.path.join(out_dir, "_src_stamp")
    fresh = False
    try:
        with open(marker) as f:
            fresh = f.read() == stamp
    except OSError:
        pass
    if fresh and os.path.exists(jpath) and os.path.exists(cpath):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )
    df = t.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    df = df[["event_id", "user_id", "event_type", "ts_us", "value"]]
    tmp = jpath + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        for r in df.itertuples(index=False):
            v = float(r.value)
            f.write(json.dumps(
                {"event_id": int(r.event_id), "user_id": int(r.user_id),
                 "event_type": r.event_type, "ts_us": int(r.ts_us),
                 # json.dumps would emit the bare token NaN (invalid
                 # JSON) for a null value — write JSON null like the
                 # CSV path's empty field
                 "value": None if v != v else v}) + "\n")
    os.replace(tmp, jpath)
    tmp = cpath + f".tmp{os.getpid()}"
    df.to_csv(tmp, index=False)
    os.replace(tmp, cpath)
    tmp = marker + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(stamp)
    os.replace(tmp, marker)
    return out_dir


def events_jsonl_hourly(sf_dir: str) -> pd.DataFrame:
    """Hourly per-type counts/sums computed from a JSONL serving of the
    events table (``ray.data.read_json`` — line-delimited, Arrow json
    reader under the hood): source-format parity with the parquet path.
    The oracle reads the SAME file via DuckDB ``read_json_auto``."""
    d = ensure_events_textfiles(sf_dir)
    ds = ray.data.read_json(os.path.join(d, "events.jsonl"))

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.divide(t.column("ts_us"), pa.scalar(_HOUR_US, pa.int64()))
        return pa.table({"event_type": t.column("event_type"),
                         "hour": hour, "value": t.column("value")})

    out = grouped_aggregate_partial(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hour"], {"sum_value": "value"}, counts="n",
    )
    out["n"] = out["n"].astype("int64")
    out["hour"] = out["hour"].astype("int64")
    out["sum_value"] = out["sum_value"].round(6)
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


def jsonl_events_oracle_sql(sf_dir: str) -> str:
    d = ensure_events_textfiles(sf_dir)
    return f"""
SELECT event_type, CAST(ts_us // {_HOUR_US} AS BIGINT) AS hour,
       round(sum(value), 6) AS sum_value,
       CAST(count(*) AS BIGINT) AS n
FROM read_json_auto('{d}/events.jsonl')
GROUP BY 1, 2 ORDER BY 1, 2
"""


def events_csv_type_stats(sf_dir: str) -> pd.DataFrame:
    """Per-type count / mean / min / max of ``value`` computed from a
    CSV serving of the events table (``ray.data.read_csv`` — Arrow csv
    reader): the second source-format parity check. The oracle reads
    the SAME file via DuckDB ``read_csv_auto``."""
    d = ensure_events_textfiles(sf_dir)
    ds = ray.data.read_csv(os.path.join(d, "events.csv"))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("event_type", as_index=False, sort=False)
        out = g.agg(s=("value", "sum"), n=("value", "count"),
                    mn=("value", "min"), mx=("value", "max"))
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        s=("s", "sum"), n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
    res = pd.DataFrame({
        "event_type": out["event_type"],
        "n": out["n"].astype("int64"),
        "mean_value": (out["s"] / out["n"]).round(6),
        "min_value": out["mn"].round(6),
        "max_value": out["mx"].round(6),
    })
    return res.sort_values("event_type").reset_index(drop=True)


def csv_events_oracle_sql(sf_dir: str) -> str:
    d = ensure_events_textfiles(sf_dir)
    return f"""
SELECT event_type, CAST(count(value) AS BIGINT) AS n,
       round(avg(value), 6) AS mean_value,
       round(min(value), 6) AS min_value,
       round(max(value), 6) AS max_value
FROM read_csv_auto('{d}/events.csv')
GROUP BY 1 ORDER BY 1
"""


def lineitem_quantile_normalize(sf_dir: str) -> pd.DataFrame:
    """Quantile normalization (Bolstad et al. 2003) of the orderkey ×
    linenumber quantity matrix — the cross-sample matrix normalizer of
    the reference's expression-analysis domain, upstream of its
    correlation flagship (``correlate.quantile_normalize``: densify →
    per-column (value, row-id) rank → rank-mean reference distribution
    → int join back; every step a Dataset). After normalization every
    column has the IDENTICAL value distribution; the twin recomputes
    the same pinned row_number tie-break in SQL."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_quantity"])
    out = correlate.quantile_normalize(
        ds, "l_linenumber", "l_orderkey", "l_quantity"
    ).to_pandas()
    out["qnorm_value"] = out["qnorm_value"].round(6)
    for c in ("l_orderkey", "l_linenumber"):
        out[c] = out[c].astype("int64")
    return out.sort_values(
        ["l_orderkey", "l_linenumber"]).reset_index(drop=True)


QNORM_SQL = """
WITH c AS (
  SELECT l_orderkey s, l_linenumber var, CAST(min(l_quantity) AS DOUBLE) v
  FROM lineitem GROUP BY 1, 2),
rows_ AS (SELECT DISTINCT s FROM c),
vars_ AS (SELECT DISTINCT var FROM c),
m AS (
  SELECT r.s, vv.var, COALESCE(c.v, 0.0) v
  FROM rows_ r CROSS JOIN vars_ vv
  LEFT JOIN c ON c.s = r.s AND c.var = vv.var),
rk AS (SELECT s, var, v,
       row_number() OVER (PARTITION BY var ORDER BY v, s) AS r FROM m),
ref AS (SELECT r, avg(v) AS mv FROM rk GROUP BY r)
SELECT rk.s AS l_orderkey, rk.var AS l_linenumber,
       round(ref.mv, 6) AS qnorm_value
FROM rk JOIN ref USING (r) ORDER BY 1, 2
"""


def lineitem_rint_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-cohort rank-based INVERSE NORMAL TRANSFORM of extendedprice
    (``correlate.grouped_rint``, Blom offset, average-rank ties) — the
    second classic normalizer of the reference's statistical domain
    beside quantile normalization. Φ⁻¹ is Acklam's rational
    approximation; the twin evaluates the IDENTICAL Horner polynomials
    in SQL, so engine and oracle agree to double rounding (both tail
    branches exercised: min p ≈ 3e-5 at sf0.01)."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_orderkey", "l_linenumber",
               "l_extendedprice"])
    out = correlate.grouped_rint(
        ds, "l_returnflag", "l_extendedprice").to_pandas()
    out = out[["l_returnflag", "l_orderkey", "l_linenumber", "rint"]]
    out["rint"] = out["rint"].round(6)
    for c in ("l_orderkey", "l_linenumber"):
        out[c] = out[c].astype("int64")
    return out.sort_values(
        ["l_returnflag", "l_orderkey", "l_linenumber", "rint"]
    ).reset_index(drop=True)


RINT_SQL = """
WITH base AS (
  SELECT l_returnflag g, l_orderkey, l_linenumber,
         CAST(l_extendedprice AS DOUBLE) v
  FROM lineitem),
rk AS (
  SELECT g, l_orderkey, l_linenumber,
         CAST(rank() OVER (PARTITION BY g ORDER BY v) AS DOUBLE)
         + (CAST(count(*) OVER (PARTITION BY g, v) AS DOUBLE) - 1.0) / 2.0
           AS r,
         CAST(count(*) OVER (PARTITION BY g) AS DOUBLE) AS n
  FROM base),
pp AS (SELECT g, l_orderkey, l_linenumber,
              (r - 0.375) / (n + 0.25) AS p FROM rk),
h AS (
  SELECT g, l_orderkey, l_linenumber, p,
         p - 0.5 AS qc, (p - 0.5) * (p - 0.5) AS rc,
         sqrt(-2.0 * ln(p)) AS ql,
         sqrt(-2.0 * ln(1.0 - p)) AS qh
  FROM pp),
z AS (
  SELECT g, l_orderkey, l_linenumber,
    CASE
      WHEN p < 0.02425 THEN
        (((((-7.784894002430293e-03 * ql + -3.223964580411365e-01) * ql
            + -2.400758277161838e+00) * ql + -2.549732539343734e+00) * ql
            + 4.374664141464968e+00) * ql + 2.938163982698783e+00)
        / ((((7.784695709041462e-03 * ql + 3.224671290700398e-01) * ql
            + 2.445134137142996e+00) * ql + 3.754408661907416e+00) * ql
            + 1.0)
      WHEN p > 1.0 - 0.02425 THEN
        -((((((-7.784894002430293e-03) * qh + -3.223964580411365e-01) * qh
            + -2.400758277161838e+00) * qh + -2.549732539343734e+00) * qh
            + 4.374664141464968e+00) * qh + 2.938163982698783e+00)
        / ((((7.784695709041462e-03 * qh + 3.224671290700398e-01) * qh
            + 2.445134137142996e+00) * qh + 3.754408661907416e+00) * qh
            + 1.0)
      ELSE
        ((((((-3.969683028665376e+01) * rc + 2.209460984245205e+02) * rc
            + -2.759285104469687e+02) * rc + 1.383577518672690e+02) * rc
            + -3.066479806614716e+01) * rc + 2.506628277459239e+00) * qc
        / ((((((-5.447609879822406e+01) * rc + 1.615858368580409e+02) * rc
            + -1.556989798598866e+02) * rc + 6.680131188771972e+01) * rc
            + -1.328068155288572e+01) * rc + 1.0)
    END AS zval
  FROM h)
SELECT g AS l_returnflag, l_orderkey, l_linenumber,
       round(zval, 6) AS rint
FROM z ORDER BY 1, 2, 3, 4
"""


def events_type_dow_mi(sf_dir: str) -> pd.DataFrame:
    """Mutual information between event type and day-of-week
    (``correlate.mutual_information``): the dependence measure beside
    the χ² gate — one (a, b) count combiner per batch, O(cells) driver
    merge, plug-in estimate in nats plus marginal entropies and
    normalized MI. (MI is invariant under category relabeling, so each
    engine may use its own dow numbering.)"""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "events", ["event_type", "ts"])

    def add_dow(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"].to_numpy(),
            "dow": b["ts"].astype("datetime64[us]").dt.dayofweek
            .to_numpy(np.int64),
        })

    out = correlate.mutual_information(
        ds.map_batches(add_dow, batch_format="pandas"), "event_type", "dow")
    for c in ("mi", "h_a", "h_b", "nmi"):
        out[c] = out[c].round(6)
    out["n"] = out["n"].astype("int64")
    return out


MI_SQL = """
WITH o AS (
  SELECT event_type AS a, dayofweek(ts) AS b, CAST(count(*) AS DOUBLE) n
  FROM events GROUP BY 1, 2),
t AS (SELECT sum(n) AS total FROM o),
pa AS (SELECT a, sum(n) AS na FROM o GROUP BY a),
pb AS (SELECT b, sum(n) AS nb FROM o GROUP BY b),
mi AS (
  SELECT sum((o.n / t.total)
             * ln((o.n / t.total)
                  / ((pa.na / t.total) * (pb.nb / t.total)))) AS mi
  FROM o JOIN pa USING (a) JOIN pb USING (b) CROSS JOIN t),
ents AS (
  SELECT (SELECT -sum((na / total) * ln(na / total)) FROM pa, t) AS h_a,
         (SELECT -sum((nb / total) * ln(nb / total)) FROM pb, t) AS h_b,
         (SELECT CAST(total AS BIGINT) FROM t) AS n)
SELECT round(mi.mi, 6) AS mi, round(ents.h_a, 6) AS h_a,
       round(ents.h_b, 6) AS h_b,
       round(mi.mi / sqrt(ents.h_a * ents.h_b), 6) AS nmi,
       ents.n AS n
FROM mi, ents
"""


def events_fisher_click_weekend(sf_dir: str) -> pd.DataFrame:
    """Fisher's exact 2×2 (``correlate.fisher_exact_2x2``): is the
    'click' event type associated with weekends? Counts from one
    distributed combiner; the exact hypergeometric two-sided p (R
    fisher.test convention, 1e-7 relative tolerance) is recomputed by
    the twin with lgamma log-binomials over a generate_series of all
    tables with the observed margins."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "events", ["event_type", "ts"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        dow = b["ts"].astype("datetime64[us]").dt.dayofweek.to_numpy()
        return pd.DataFrame({
            "is_click": b["event_type"].to_numpy() == "click",
            "is_weekend": dow >= 5,
        })

    out = correlate.fisher_exact_2x2(
        ds.map_batches(flags, batch_format="pandas"),
        "is_click", "is_weekend")
    out["odds_ratio"] = out["odds_ratio"].round(6)
    out["p_value"] = out["p_value"].round(6)
    for c in ("a", "b", "c", "d"):
        out[c] = out[c].astype("int64")
    return out


# python dayofweek: Mon=0..Sun=6 → weekend = dow>=5; DuckDB dayofweek:
# Sun=0..Sat=6 → weekend = dow IN (0, 6). Cell COUNTS are identical.
FISHER_SQL = """
WITH f AS (
  SELECT (event_type = 'click') AS x,
         (dayofweek(ts) IN (0, 6)) AS y
  FROM events),
tab AS (
  SELECT CAST(sum(CASE WHEN x AND y THEN 1 ELSE 0 END) AS BIGINT) a,
         CAST(sum(CASE WHEN x AND NOT y THEN 1 ELSE 0 END) AS BIGINT) b,
         CAST(sum(CASE WHEN NOT x AND y THEN 1 ELSE 0 END) AS BIGINT) c,
         CAST(sum(CASE WHEN NOT x AND NOT y THEN 1 ELSE 0 END) AS BIGINT) d
  FROM f),
m AS (SELECT a, b, c, d, a + b AS r1, c + d AS r2, a + c AS c1,
             a + b + c + d AS n FROM tab),
ks AS (
  SELECT m.*, unnest(generate_series(greatest(0, m.c1 - m.r2),
                                     least(m.r1, m.c1))) AS k
  FROM m),
pmf AS (
  SELECT *,
         exp((lgamma(r1 + 1) - lgamma(k + 1) - lgamma(r1 - k + 1))
             + (lgamma(r2 + 1) - lgamma(c1 - k + 1)
                - lgamma(r2 - c1 + k + 1))
             - (lgamma(n + 1) - lgamma(c1 + 1) - lgamma(n - c1 + 1)))
           AS p_k,
         exp((lgamma(r1 + 1) - lgamma(a + 1) - lgamma(r1 - a + 1))
             + (lgamma(r2 + 1) - lgamma(c1 - a + 1)
                - lgamma(r2 - c1 + a + 1))
             - (lgamma(n + 1) - lgamma(c1 + 1) - lgamma(n - c1 + 1)))
           AS p_obs
  FROM ks)
SELECT any_value(a) AS a, any_value(b) AS b, any_value(c) AS c,
       any_value(d) AS d,
       round(CASE WHEN any_value(b) * any_value(c) > 0
             THEN CAST(any_value(a) * any_value(d) AS DOUBLE)
                  / (any_value(b) * any_value(c))
             WHEN any_value(a) * any_value(d) > 0
             THEN 'inf'::DOUBLE
             ELSE 'nan'::DOUBLE END, 6) AS odds_ratio,
       round(least(sum(CASE WHEN p_k <= p_obs * (1.0 + 1e-7)
                            THEN p_k ELSE 0 END), 1.0), 6) AS p_value
FROM pmf
"""


def lineitem_anova_by_flag(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA F for extendedprice across returnflag cohorts
    (``correlate.oneway_anova_f``): the omnibus test beside the
    pairwise Welch gate — mergeable (n, Σx, Σx²) partials, O(groups)
    driver merge, closed-form statistic fully under the SQL twin."""
    from gene_etl_ray.ops import correlate

    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = correlate.oneway_anova_f(ds, "l_returnflag", "l_extendedprice")
    # raw sums of squares are ~1e13 at sf0.1 — summation-order noise
    # breaks fixed-decimal rounding under the value hash, so the gated
    # surface is the SCALE-FREE pair (F, eta²); both are O(1)
    out["eta_sq"] = (out["ss_between"]
                     / (out["ss_between"] + out["ss_within"])).round(6)
    out["f_stat"] = out["f_stat"].round(6)
    for c in ("df1", "df2"):
        out[c] = out[c].astype("int64")
    return out[["f_stat", "df1", "df2", "eta_sq"]]


ANOVA_SQL = """
WITH g AS (
  SELECT l_returnflag, CAST(count(*) AS DOUBLE) n,
         sum(CAST(l_extendedprice AS DOUBLE)) s,
         sum(CAST(l_extendedprice AS DOUBLE)
             * CAST(l_extendedprice AS DOUBLE)) q
  FROM lineitem GROUP BY 1),
t AS (SELECT sum(n) AS n, sum(s) AS s, count(*) AS k FROM g),
parts AS (
  SELECT sum(g.n * (g.s / g.n - t.s / t.n) * (g.s / g.n - t.s / t.n))
           AS ssb,
         sum(g.q - g.n * (g.s / g.n) * (g.s / g.n)) AS ssw,
         any_value(t.k) AS k, any_value(t.n) AS n
  FROM g CROSS JOIN t)
SELECT round(CASE
         WHEN ssw > 0 THEN (ssb / (k - 1)) / (ssw / (n - k))
         WHEN ssb > 0 AND k > 1 AND n > k THEN 'inf'::DOUBLE
         ELSE 'nan'::DOUBLE END, 6) AS f_stat,
       CAST(k - 1 AS BIGINT) AS df1,
       CAST(n - k AS BIGINT) AS df2,
       round(ssb / (ssb + ssw), 6) AS eta_sq
FROM parts
"""


def embeddings_sq_codes(sf_dir: str) -> pd.DataFrame:
    """INT8 scalar quantization (the FAISS-SQ8 memory-scale path next
    to PQ): per-dimension global (min, max) trained distributed
    (``knn.sq_stats`` — dim-sized partials), then every float32 vector
    becomes dim uint8 codes via floor((x−mn)/(mx−mn)·255 + 0.5) — 4×
    smaller than raw float32 at 10^10-vector scale. Gate output is the
    per-vector code summary (first/last code + code sum); the SQL twin
    recomputes the identical double-precision quantization with a
    generate_subscripts unnest."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    mn, mx = knn.sq_stats(ds)
    out = knn.sq_encode_summary(ds, mn, mx)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQ_CODES_SQL = """
WITH x AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(unnest(embedding) AS DOUBLE) AS val
  FROM embeddings),
st AS (SELECT dim, min(val) AS mn, max(val) AS mx FROM x GROUP BY dim),
nd AS (SELECT max(dim) AS d FROM x),
cd AS (
  SELECT x.vec_id, x.dim,
         CASE WHEN st.mx = st.mn THEN 0
              ELSE least(greatest(CAST(floor(
                   (x.val - st.mn) / (st.mx - st.mn) * 255.0 + 0.5)
                   AS BIGINT), 0), 255) END AS code
  FROM x JOIN st USING (dim))
SELECT vec_id,
       CAST(max(CASE WHEN dim = 1 THEN code END) AS BIGINT) AS code_first,
       CAST(max(CASE WHEN dim = (SELECT d FROM nd) THEN code END)
            AS BIGINT) AS code_last,
       CAST(sum(code) AS BIGINT) AS code_sum
FROM cd GROUP BY vec_id ORDER BY vec_id
"""


def embeddings_sq_topk(sf_dir: str) -> pd.DataFrame:
    """Asymmetric SQ8 search (``knn.sq_topk``): corpus vectors decode
    from their int8 codes (mn + code·(mx−mn)/255), the query stays
    full-precision — cosine top-10 for query vector 0, tie-broken
    (cosine desc, id asc). Per-batch encode+decode+matvec, tie-widened
    partial top-k, ≤ blocks·k driver merge; codes never shuffle."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    mn, mx = knn.sq_stats(ds)
    qv, _ = _query_vectors(sf_dir, 1)
    out = knn.sq_topk(ds, mn, mx, qv[0], k=10)
    out["sq_cosine"] = out["sq_cosine"].round(6)
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


SQ_TOPK_SQL = """
WITH x AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(unnest(embedding) AS DOUBLE) AS val
  FROM embeddings),
st AS (SELECT dim, min(val) AS mn, max(val) AS mx FROM x GROUP BY dim),
cd AS (
  SELECT x.vec_id, x.dim,
         CASE WHEN st.mx = st.mn THEN st.mn
              ELSE st.mn + least(greatest(floor(
                   (x.val - st.mn) / (st.mx - st.mn) * 255.0 + 0.5),
                   0), 255) * (st.mx - st.mn) / 255.0 END AS dv
  FROM x JOIN st USING (dim)),
dl AS (SELECT vec_id, list(dv ORDER BY dim) AS v FROM cd GROUP BY vec_id),
q AS (SELECT list_transform(embedding, y -> CAST(y AS DOUBLE)) AS qv
      FROM embeddings WHERE vec_id = 0)
SELECT d.vec_id, round(list_cosine_similarity(d.v, q.qv), 6) AS sq_cosine
FROM dl d, q
ORDER BY list_cosine_similarity(d.v, q.qv) DESC, d.vec_id
LIMIT 10
"""


# Registry order IS the driver's gate order: the driver runs a 50-entry
# PREFIX against DuckDB at sf0.01 (verified in round 2: CORRECTNESS_r02
# keys == registry positions 0-49). Ordering policy:
#   1. the 8 CDC-engine oracles first (flagship evidence),
#   2. round-3 newly-oracled operators (former no_oracle/rows-only
#      entries + the new literal rank-statistics kernels),
#   3. oracled queries the driver has never gated (r2 positions 50+),
#   4. everything already driver-green in r2,
#   5. rows-only entries last.
QUERIES = {
    # Registry order IS the driver's gate order (50-entry prefix).
    # Round-5 rotation (COVERAGE.md plan): position 0 keeps the
    # flagship continuously gated; positions 1-39 are the 39 entries
    # that have NEVER had a driver CORRECTNESS row across r01-r04;
    # positions 40-49 are CDC-family re-gates (round-5 additions are
    # inserted here as they land, displacing re-gates). With this
    # rotation every registry entry has a driver row across r01-r05.
    "cdc_ingest_lake": cdc_ingest_lake,
    # --- positions 1-39: first-time-gated this round ---
    "events_cohort_retention": events_cohort_retention,
    "events_weekly_active_users": events_weekly_active_users,
    "docs_top_bigrams": docs_top_bigrams,
    "docs_repetition_stats": docs_repetition_stats,
    "media_frame_sample": media_frame_sample,
    "orders_anti_join_bulk": orders_anti_join_bulk,
    "embeddings_gram_matrix": embeddings_gram_matrix,
    "embeddings_pca_axis": embeddings_pca_axis,
    "events_asof_views_forward": events_asof_views_forward,
    "events_asof_views_nearest": events_asof_views_nearest,
    "docs_top_quarter": docs_top_quarter,
    "docs_length_terciles": docs_length_terciles,
    "embeddings_logreg_step": embeddings_logreg_step,
    "embeddings_label_centroid": embeddings_label_centroid,
    "orders_priority_overlaps": orders_priority_overlaps,
    "docs_search_and": docs_search_and,
    "supplier_fuzzy_pairs": supplier_fuzzy_pairs,
    "docs_profile": docs_profile,
    "events_type_cooccurrence": events_type_cooccurrence,
    "lineitem_geomean_by_flag": lineitem_geomean_by_flag,
    "events_type_lift": events_type_lift,
    "docs_phrase_search": docs_phrase_search,
    "events_debounced": events_debounced,
    "lineitem_trimmed_mean_by_flag": lineitem_trimmed_mean_by_flag,
    "events_daily_trending": events_daily_trending,
    "embeddings_hard_negatives": embeddings_hard_negatives,
    "docs_snippets": docs_snippets,
    "events_skew_report": events_skew_report,
    "corr_fdr_significant": corr_fdr_significant,
    "embeddings_sq_codes": embeddings_sq_codes,
    "embeddings_sq_topk": embeddings_sq_topk,
    "embeddings_knn_graph_ivf": embeddings_knn_graph_ivf,
    "lineitem_quantile_normalize": lineitem_quantile_normalize,
    "lineitem_rint_by_flag": lineitem_rint_by_flag,
    "events_type_dow_mi": events_type_dow_mi,
    "events_fisher_click_weekend": events_fisher_click_weekend,
    "lineitem_anova_by_flag": lineitem_anova_by_flag,
    "events_fdr_by": events_fdr_by,
    "docs_zipf_slope": docs_zipf_slope,
    # --- positions 40-48: round-5 additions; 49: CDC re-gate.
    #     The rows of this block past position 49 sit OUTSIDE the
    #     50-entry gate window; they are prior-round driver-green
    #     entries, listed here only to keep the CDC family
    #     together. ---
    "docs_pii_scan": docs_pii_scan,
    "orders_theil_sen": orders_theil_sen,
    "docs_bigram_lm": docs_bigram_lm,
    "docs_gopher_filter": docs_gopher_filter,
    "docs_containment": docs_containment,
    "embeddings_ppr": embeddings_ppr,
    "embeddings_rp": embeddings_rp,
    "docs_collocations": docs_collocations,
    "orders_mann_kendall": orders_mann_kendall,
    "cdc_scd2_history": cdc_scd2_history,
    "cdc_mux_ingest": cdc_mux_ingest,
    "cdc_snapshot_diff": cdc_snapshot_diff,
    "cdc_changed_since": cdc_changed_since,
    "cdc_lateness_lake": cdc_lateness_lake,
    "cdc_late_dead_letters": cdc_late_dead_letters,
    "cdc_domain_stats_view": cdc_domain_stats_view,
    "cdc_expired_lake": cdc_expired_lake,
    "cdc_repartitioned_lake": cdc_repartitioned_lake,
    "docs_dedup_exact": docs_dedup_exact,
    # --- positions 50+: driver-green in earlier rounds (r1-r4);
    #     still covered by the local full-registry sweep ---
    "docs_span_dedup": docs_span_dedup,
    "docs_select_corpus": docs_select_corpus,
    "docs_dedup_incremental": docs_dedup_incremental,
    "docs_token_budget": docs_token_budget,
    "docs_source_cap": docs_source_cap,
    "docs_mixture_sample": docs_mixture_sample,
    "docs_novelty": docs_novelty,
    "docs_split_assign": docs_split_assign,
    "docs_lm_quality": docs_lm_quality,
    "embeddings_knn_graph": embeddings_knn_graph,
    "embeddings_pagerank": embeddings_pagerank,
    "embeddings_pagerank_weighted": embeddings_pagerank_weighted,
    "embeddings_hits": embeddings_hits,
    "embeddings_knn_triangles": embeddings_knn_triangles,
    "embeddings_clustering_coeff": embeddings_clustering_coeff,
    "embeddings_communities": embeddings_communities,
    "embeddings_knn_reach": embeddings_knn_reach,
    "events_jsonl_hourly": events_jsonl_hourly,
    "events_csv_type_stats": events_csv_type_stats,
    "events_sliding_windows": events_sliding_windows,
    "events_hourly_gapfill": events_hourly_gapfill,
    "events_hourly_ewma": events_hourly_ewma,
    "events_hourly_acf": events_hourly_acf,
    "events_hourly_anomalies": events_hourly_anomalies,
    "orders_trailing_median": orders_trailing_median,
    "lineitem_zscore_by_flag": lineitem_zscore_by_flag,
    "events_cumulative_types": events_cumulative_types,
    "embeddings_pq_codes": embeddings_pq_codes,
    "embeddings_pq_topk": embeddings_pq_topk,
    "embeddings_kmeans_assign": embeddings_kmeans_assign,
    "events_funnel_stages": events_funnel_stages,
    "docs_training_pipeline": docs_training_pipeline,
    "docs_decontaminate": docs_decontaminate,
    "docs_chunk_windows": docs_chunk_windows,
    "docs_pack_sequences": docs_pack_sequences,
    "docs_shuffle_order": docs_shuffle_order,
    "docs_weighted_sample": docs_weighted_sample,
    "docs_stratified_weighted_sample": docs_stratified_weighted_sample,
    "orders_welch_ttest": orders_welch_ttest,
    "events_chi2_type_dow": events_chi2_type_dow,
    "orders_mann_whitney": orders_mann_whitney,
    "lineitem_ols_by_flag": lineitem_ols_by_flag,
    "events_jackknife_mean": events_jackknife_mean,
    "docs_inverted_index": docs_inverted_index,
    "docs_bm25_topk": docs_bm25_topk,
    "events_type_transitions": events_type_transitions,
    "events_countmin_types": events_countmin_types,
    "lineitem_corr_fdr_pipeline": lineitem_corr_fdr_pipeline,
    "docs_lang_id": docs_lang_id,
    "docs_fingerprints": docs_fingerprints,
    "docs_minhash_pairs": docs_minhash_pairs,
    "docs_near_dup_clusters": docs_near_dup_clusters,
    "docs_simhash": docs_simhash,
    "docs_simhash_near_dup": docs_simhash_near_dup,
    "knn_lsh_topk": knn_lsh_topk,
    "knn_ivf_topk": knn_ivf_topk,
    "media_features": media_features,
    "media_resized": media_resized,
    "lineitem_spearman_by_flag": lineitem_spearman_by_flag,
    "customer_kendall_by_segment": customer_kendall_by_segment,
    "events_fdr_bh": events_fdr_bh,
    "events_type_corr_matrix": events_type_corr_matrix,
    "embeddings_near_dup": embeddings_near_dup,
    "embeddings_semdedup": embeddings_semdedup,
    "customer_orders_left_join": customer_orders_left_join,
    "events_customers_full_outer": events_customers_full_outer,
    "events_value_lag_stats": events_value_lag_stats,
    "part_price_quartiles": part_price_quartiles,
    "lineitem_unpivot_stats": lineitem_unpivot_stats,
    "supplier_names_by_nation": supplier_names_by_nation,
    "customer_stratified_sample": customer_stratified_sample,
    "lineitem_corr_by_flag": lineitem_corr_by_flag,
    "events_type_hour_cube": events_type_hour_cube,
    "events_patch_latest": events_patch_latest,
    "events_heavy_hitters": events_heavy_hitters,
    "lineitem_skew_by_flag": lineitem_skew_by_flag,
    "events_user_mode_type": events_user_mode_type,
    "docs_redact_terms": docs_redact_terms,
    "orders_merge_corrections": orders_merge_corrections,
    "lineitem_quantiles_sketch": lineitem_quantiles_sketch,
    "orders_trailing_90d_count": orders_trailing_90d_count,
    "lineitem_bloom_semi_revenue": lineitem_bloom_semi_revenue,
    "events_user_distinct_types": events_user_distinct_types,
    "orders_percent_rank": orders_percent_rank,
    "orders_price_histogram": orders_price_histogram,
    "events_type_set_ops": events_type_set_ops,
    "events_user_entropy": events_user_entropy,
    "docs_chunk_dedup": docs_chunk_dedup,
    "docs_tfidf_topk": docs_tfidf_topk,
    "q1_pricing_summary": q1_pricing_summary,
    "q5_nation_revenue": q5_nation_revenue,
    "events_lww_latest": events_lww_latest,
    "docs_curation_pipeline": docs_curation_pipeline,
    "events_asof_orders": events_asof_orders,
    "orders_lineitem_partitioned_join": orders_lineitem_partitioned_join,
    "knn_cosine_topk": knn_cosine_topk,
    "events_user_sessions": events_user_sessions,
    "q3_top_orders": q3_top_orders,
    "filter_high_value_orders": filter_high_value_orders,
    "part_topk_price": part_topk_price,
    "events_hourly_stats": events_hourly_stats,
    "distinct_event_types": distinct_event_types,
    "customer_segment_stats": customer_segment_stats,
    "supplier_nation_enrich": supplier_nation_enrich,
    "orders_rank": orders_rank,
    "orders_running_total": orders_running_total,
    "orders_moving_avg": orders_moving_avg,
    "docs_term_df": docs_term_df,
    "top2_orders_per_status": top2_orders_per_status,
    "order_priority_class": order_priority_class,
    "lineitem_var_by_flag": lineitem_var_by_flag,
    "lineitem_iqr_by_flag": lineitem_iqr_by_flag,
    "lineitem_mad_by_flag": lineitem_mad_by_flag,
    "events_orphan_users": events_orphan_users,
    "orders_page2": orders_page2,
    "orders_repeat_within_90d": orders_repeat_within_90d,
    "events_props_k_stats": events_props_k_stats,
    "docs_token_count": docs_token_count,
    "docs_char_stats": docs_char_stats,
    "docs_quality_filter": docs_quality_filter,
    "docs_quality_full": docs_quality_full,
    "docs_sample": docs_sample,
    "docs_token_count_bpe": docs_token_count_bpe,
    "events_users_approx_distinct": events_users_approx_distinct,
    "lineitem_price_quantiles": lineitem_price_quantiles,
    "events_type_hour_rollup": events_type_hour_rollup,
    "events_hour_type_pivot": events_hour_type_pivot,
    "events_top_users": events_top_users,
    "docs_ngram_jaccard": docs_ngram_jaccard,
    "embeddings_norm_by_label": embeddings_norm_by_label,
}

ORACLE_SQL = {
    "docs_pii_scan": PII_SCAN_SQL,
    "orders_theil_sen": THEIL_SEN_SQL,
    "docs_bigram_lm": BIGRAM_LM_SQL,
    "docs_gopher_filter": GOPHER_SQL,
    "docs_containment": CONTAINMENT_SQL,
    "embeddings_ppr": PPR_SQL,
    "embeddings_rp": RP_SQL,
    "docs_collocations": COLLOCATIONS_SQL,
    "orders_mann_kendall": MANN_KENDALL_SQL,
    "q1_pricing_summary": Q1_SQL,
    "q3_top_orders": Q3_SQL,
    "q5_nation_revenue": Q5_SQL,
    "filter_high_value_orders": FILTER_SQL,
    "part_topk_price": PART_TOPK_SQL,
    "events_lww_latest": LWW_SQL,
    "events_hourly_stats": HOURLY_SQL,
    "events_user_sessions": SESSIONS_SQL,
    "distinct_event_types": DISTINCT_SQL,
    "customer_segment_stats": SEGMENT_SQL,
    "supplier_nation_enrich": SUPPLIER_SQL,
    "orders_rank": RANK_SQL,
    "orders_running_total": RUNNING_SQL,
    "orders_moving_avg": MOVING_AVG_SQL,
    "docs_term_df": TERM_DF_SQL,
    "top2_orders_per_status": TOP2_SQL,
    "order_priority_class": PRIORITY_SQL,
    "lineitem_var_by_flag": VAR_SQL,
    "lineitem_iqr_by_flag": IQR_SQL,
    "lineitem_mad_by_flag": MAD_SQL,
    "events_orphan_users": ORPHAN_SQL,
    "orders_page2": PAGE_SQL,
    "events_asof_orders": ASOF_SQL,
    "orders_repeat_within_90d": RANGE_SQL,
    "orders_lineitem_partitioned_join": PARTJOIN_SQL,
    "events_props_k_stats": PROPS_SQL,
    "docs_dedup_exact": DEDUP_SQL,
    "docs_token_count": TOKEN_SQL,
    "docs_char_stats": CHAR_SQL,
    "docs_quality_filter": QUALITY_FILTER_SQL,
    "knn_cosine_topk": KNN_SQL,
    "embeddings_near_dup": NEAR_DUP_SQL,
    "embeddings_semdedup": SEMDEDUP_SQL,
    "docs_token_count_bpe": BPE_SQL,
    "events_users_approx_distinct": APPROX_DISTINCT_SQL,
    "lineitem_price_quantiles": QUANTILE_SQL,
    "events_type_hour_rollup": ROLLUP_SQL,
    "events_hour_type_pivot": PIVOT_SQL,
    "events_top_users": TOP_USERS_SQL,
    "docs_quality_full": QUALITY_FULL_SQL,
    "docs_curation_pipeline": CURATION_SQL,
    "docs_sample": SAMPLE_SQL,
    "docs_ngram_jaccard": NGRAM_SQL,
    "embeddings_norm_by_label": NORM_SQL,
    "customer_orders_left_join": LEFT_JOIN_SQL,
    "events_customers_full_outer": FULL_OUTER_SQL,
    "events_value_lag_stats": LAG_SQL,
    "part_price_quartiles": NTILE_SQL,
    "lineitem_unpivot_stats": UNPIVOT_SQL,
    "supplier_names_by_nation": STRING_AGG_SQL,
    "customer_stratified_sample": STRATIFIED_SQL,
    "lineitem_corr_by_flag": CORR_SQL,
    "events_type_hour_cube": CUBE_SQL,
    "events_patch_latest": PATCH_SQL,
    "events_heavy_hitters": HEAVY_SQL,
    "lineitem_skew_by_flag": SKEW_SQL,
    "events_user_mode_type": MODE_SQL,
    "docs_redact_terms": REDACT_SQL,
    "orders_merge_corrections": MERGE_SQL,
    "lineitem_quantiles_sketch": QUANTILE_SKETCH_SQL,
    "orders_trailing_90d_count": TRAILING_90D_SQL,
    "lineitem_bloom_semi_revenue": BLOOM_SEMI_SQL,
    "events_user_distinct_types": USER_DISTINCT_SQL,
    "orders_percent_rank": PCT_RANK_SQL,
    "orders_price_histogram": HISTOGRAM_SQL,
    "events_type_set_ops": SET_OPS_SQL,
    "events_user_entropy": ENTROPY_SQL,
    "docs_chunk_dedup": CHUNK_DEDUP_SQL,
    "docs_tfidf_topk": TFIDF_SQL,
    "events_funnel_stages": FUNNEL_SQL,
    "events_cohort_retention": COHORT_SQL,
    "events_weekly_active_users": WAU_SQL,
    "docs_top_bigrams": BIGRAM_SQL,
    "docs_repetition_stats": REPETITION_SQL,
    "docs_decontaminate": DECONTAMINATE_SQL,
    "docs_chunk_windows": CHUNK_SQL,
    "docs_pack_sequences": PACK_SQL,
    "media_frame_sample": MEDIA_FRAME_SAMPLE_SQL,
    "docs_training_pipeline": TRAINING_PIPELINE_SQL,
    "docs_span_dedup": SPAN_DEDUP_SQL,
    "embeddings_kmeans_assign": KMEANS_SQL,
    "events_cumulative_types": CUMULATIVE_TYPES_SQL,
    "orders_anti_join_bulk": ANTI_BULK_SQL,
    # round-3 oracles
    "docs_lang_id": LANG_ID_SQL,
    "docs_fingerprints": FINGERPRINT_SQL,
    "docs_minhash_pairs": MINHASH_PAIRS_SQL,
    "docs_near_dup_clusters": NEAR_DUP_CLUSTERS_SQL,
    "docs_simhash": SIMHASH_SQL,
    "docs_simhash_near_dup": SIMHASH_PAIRS_SQL,
    "knn_lsh_topk": _ANN_TWIN_SQL,
    "knn_ivf_topk": _ANN_TWIN_SQL,
    "media_features": MEDIA_FEATURES_SQL,
    "media_resized": MEDIA_RESIZED_SQL,
    "lineitem_spearman_by_flag": SPEARMAN_SQL,
    "customer_kendall_by_segment": KENDALL_SQL,
    "events_fdr_bh": FDR_BH_SQL,
    "events_type_corr_matrix": CORR_MATRIX_SQL,
    "corr_fdr_significant": CORR_FDR_SQL,
    "lineitem_corr_fdr_pipeline": CORR_FDR_PIPE_SQL,
    "embeddings_sq_codes": SQ_CODES_SQL,
    "embeddings_sq_topk": SQ_TOPK_SQL,
    "embeddings_knn_graph_ivf": KNN_GRAPH_SQL,
    "lineitem_quantile_normalize": QNORM_SQL,
    "lineitem_rint_by_flag": RINT_SQL,
    "events_type_dow_mi": MI_SQL,
    "events_fisher_click_weekend": FISHER_SQL,
    "lineitem_anova_by_flag": ANOVA_SQL,
    "events_fdr_by": FDR_BY_SQL,
    "docs_zipf_slope": ZIPF_SQL,
    "docs_token_budget": TOKEN_BUDGET_SQL,
    "docs_source_cap": SOURCE_CAP_SQL,
    "docs_mixture_sample": MIXTURE_SAMPLE_SQL,
    "docs_novelty": NOVELTY_SQL,
    "docs_split_assign": SPLIT_ASSIGN_SQL,
    "docs_lm_quality": LM_QUALITY_SQL,
    "docs_select_corpus": SELECT_CORPUS_SQL,
    "embeddings_gram_matrix": GRAM_SQL,
    "embeddings_pca_axis": PCA_AXIS_SQL,
    "events_sliding_windows": SLIDING_SQL,
    "events_asof_views_forward": ASOF_FWD_SQL,
    "events_asof_views_nearest": ASOF_NEAREST_SQL,
    "lineitem_zscore_by_flag": ZSCORE_SQL,
    "orders_trailing_median": TRAILING_MED_SQL,
    "embeddings_pq_codes": PQ_SQL,
    "embeddings_pq_topk": PQ_TOPK_SQL,
    "docs_top_quarter": TOP_QUARTER_SQL,
    "docs_length_terciles": TERCILE_SQL,
    "docs_dedup_incremental": DEDUP_INCR_SQL,
    "docs_shuffle_order": SHUFFLE_ORDER_SQL,
    "docs_weighted_sample": WEIGHTED_SAMPLE_SQL,
    "embeddings_logreg_step": LOGREG_STEP_SQL,
    "docs_stratified_weighted_sample": STRAT_WEIGHTED_SAMPLE_SQL,
    "embeddings_label_centroid": LABEL_CENTROID_SQL,
    "events_hourly_gapfill": HOURLY_GAPFILL_SQL,
    "orders_priority_overlaps": PRIORITY_OVERLAPS_SQL,
    "orders_welch_ttest": WELCH_SQL,
    "events_chi2_type_dow": CHI2_SQL,
    "orders_mann_whitney": MANN_WHITNEY_SQL,
    "lineitem_ols_by_flag": OLS_SQL,
    "events_hourly_acf": HOURLY_ACF_SQL,
    "docs_inverted_index": INVERTED_INDEX_SQL,
    "docs_search_and": SEARCH_AND_SQL,
    "supplier_fuzzy_pairs": FUZZY_PAIRS_SQL,
    "docs_profile": PROFILE_SQL,
    "events_type_cooccurrence": COOCCURRENCE_SQL,
    "lineitem_geomean_by_flag": GEOMEAN_SQL,
    "events_type_lift": LIFT_SQL,
    "docs_phrase_search": PHRASE_SEARCH_SQL,
    "events_debounced": DEBOUNCE_SQL,
    "events_hourly_ewma": HOURLY_EWMA_SQL,
    "embeddings_knn_graph": KNN_GRAPH_SQL,
    "events_hourly_anomalies": HOURLY_ANOMALY_SQL,
    "lineitem_trimmed_mean_by_flag": TRIMMED_MEAN_SQL,
    "events_daily_trending": DAILY_TRENDING_SQL,
    "embeddings_hard_negatives": HARD_NEG_SQL,
    "docs_snippets": SNIPPETS_SQL,
    "docs_bm25_topk": BM25_SQL,
    "events_type_transitions": TRANSITIONS_SQL,
    "events_countmin_types": COUNTMIN_SQL,
    "embeddings_pagerank": PAGERANK_SQL,
    "embeddings_knn_triangles": KNN_TRIANGLES_SQL,
    "events_jackknife_mean": JACKKNIFE_SQL,
    "embeddings_hits": HITS_SQL,
    "embeddings_clustering_coeff": CLUSTERING_SQL,
    "embeddings_communities": LPA_SQL,
    "events_skew_report": SKEW_REPORT_SQL,
    "embeddings_pagerank_weighted": PAGERANK_W_SQL,
    "embeddings_knn_reach": BFS_SQL,
}
