"""Seeded benchmark inputs and the oracles that gate every result.

Everything here is a pure function of the seed: the WAL comes from
``gene_etl_ray.fixtures.generate_events`` and the query tables from a
small generator shaped like the TPC-H-ish testdata (``lineitem``,
``events``, ``documents``). The program under test only ever sees the
generated files.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# The WAL shared by bulk_load and cdc_tail: the bench.py sf0.01 shape
# (html sized like crawl pages, a schema add late in the log) cut from
# 40k events over 10k urls in 8 segments to 4k over 1k in 12. A cdc_tail
# commit is mostly fixed per-group work (2-4 s at this size with Ray at 2
# logical CPUs on a 4-vCPU host, and bimodal: some commits wait about a
# second longer than others), so a cycle needs a dozen commits for its
# median to repeat from run to run; at the 40k shape 8 commits took ~66 s,
# which would not fit a run of a benchmark that repeats runs many times.
WAL_SHAPE = dict(n_urls=1_000, n_events=4_000, n_epochs=12,
                 schema_add_epoch=8, html_size_hint=1500)

# The query sweep's tables, shaped like the TPC-H-ish testdata tables. The
# documents stay few because the DuckDB twin of docs_minhash_pairs is an
# exhaustive pairwise Jaccard (quadratic): 800 documents took 37 s on a
# 4-vCPU host, 160 took 3.8 s.
QUERY_ROWS = dict(lineitem=60_000, events=40_000, documents=120)
QUERY_TABLES = ("lineitem", "events", "documents")


def make_wal(out_dir: str, seed: int) -> dict:
    from gene_etl_ray.fixtures import generate_events

    return generate_events(out_dir, seed=seed, **WAL_SHAPE)


def wal_segments(wal_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(wal_dir, "epoch=*.parquet")))


def _ts_us(col) -> np.ndarray:
    return pd.to_datetime(col).astype("datetime64[us]").astype("int64").to_numpy()


def lake_digest(df: pd.DataFrame) -> str:
    """sha256 over the live rows' ``(url, warc_ts, seq, text)``, rows in
    url order: the convergence fingerprint of a lake."""
    df = df.sort_values("url", kind="mergesort")
    h = hashlib.sha256()
    for url, ts, seq, text in zip(df["url"], _ts_us(df["warc_ts"]),
                                  df["seq"], df["text"]):
        text = "\0" if text is None or text != text else text
        h.update(f"{url}\x1f{int(ts)}\x1f{int(seq)}\x1f{text}\x1e".encode())
    return h.hexdigest()


class WalOracle:
    """The replay oracle of one WAL, computed once per seed.

    ``digest`` fingerprints the converged lake; ``rows`` maps each live
    url to its winning ``(warc_ts_us, seq, text)``. ``prefix_live[k]``
    maps each live url after segments ``0..k`` to its winning
    ``(warc_ts_us, seq)``, built from the envelope columns alone, so
    every intermediate cdc_tail read is checked too."""

    def __init__(self, wal_dir: str):
        from gene_etl_ray.oracle import replay_oracle
        from gene_etl_ray.pipelines.normalize import canonicalize_url_one

        live = replay_oracle(wal_dir)
        self.digest = lake_digest(live)
        self.rows = {
            u: (int(t), int(s), x)
            for u, t, s, x in zip(live["url"], _ts_us(live["warc_ts"]),
                                  live["seq"], live["text"])
        }
        env = pd.concat(
            [pq.read_table(f, columns=["url", "warc_ts", "op", "seq", "epoch"])
             .to_pandas() for f in wal_segments(wal_dir)],
            ignore_index=True,
        )
        env["url"] = env["url"].map(canonicalize_url_one)
        env["ts"] = _ts_us(env["warc_ts"])
        env = env.sort_values(["ts", "seq"], kind="mergesort")
        self.prefix_live: list[dict[str, tuple[int, int]]] = []
        for k in range(int(env["epoch"].max()) + 1):
            win = env[env["epoch"] <= k].groupby("url").tail(1)
            win = win[win["op"] != "D"]
            self.prefix_live.append(
                dict(zip(win["url"], zip(win["ts"].tolist(), win["seq"].tolist()))))
        self.urls = sorted(env["url"].unique())


def make_query_tables(out_dir: str, seed: int) -> dict[str, int]:
    """Write ``lineitem``/``events``/``documents`` parquet files shaped
    like the testdata tables. Documents carry planted exact copies,
    one-word-appended near copies and shared 12-token prefixes, so the
    three dedup queries all find work. Prices are whole units and
    discounts whole percent, so the rounded Q1 sums sit on the cent grid
    whatever the summation order."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    n = QUERY_ROWS["lineitem"]
    qty = rng.integers(1, 51, n).astype(np.float64)
    lineitem = pd.DataFrame({
        "l_orderkey": rng.integers(1, n // 4, n),
        "l_partkey": rng.integers(1, 2_000, n),
        "l_suppkey": rng.integers(1, 100, n),
        "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
        "l_quantity": qty,
        "l_extendedprice": qty * rng.integers(900, 2_100, n),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_tax": rng.integers(0, 9, n) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], n),
        "l_linestatus": rng.choice(["F", "O"], n),
        "l_shipdate": (np.datetime64("1992-01-01", "us")
                       + rng.integers(0, 3_650, n).astype("timedelta64[D]")),
    })

    n = QUERY_ROWS["events"]
    events = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": (np.datetime64("2024-01-01", "us")
               + np.cumsum(rng.integers(1, 400_000_000, n)).astype("timedelta64[us]")),
        "user_id": rng.integers(0, 300, n),
        "event_type": rng.choice(["view", "click", "purchase", "signup", "error"], n),
        "value": rng.integers(0, 2_000, n) / 100.0,
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n)],
    })

    vocab = ("data lake merge epoch commit scan query join key value table row "
             "column batch stream window sort hash part filter group order line "
             "customer spark fast slow big small vector agg index page crawl text "
             "shard node task plan cost").split()
    n = QUERY_ROWS["documents"]
    words: list[list[str]] = []
    for i in range(n):
        r = rng.random()
        if i > 20 and r < 0.04:  # exact copy
            w = list(words[rng.integers(0, i)])
        elif i > 20 and r < 0.08:  # near copy: one word appended
            w = words[rng.integers(0, i)] + [str(rng.choice(vocab))]
        elif i > 20 and r < 0.18:  # shared 12-token prefix, fresh tail
            w = words[rng.integers(0, i)][:12] + list(rng.choice(vocab, rng.integers(8, 60)))
        else:
            w = list(rng.choice(vocab, rng.integers(10, 90)))
        words.append(w)
    texts = [" ".join(w) for w in words]
    documents = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": texts,
        "lang": rng.choice(["en", "de", "fr"], n),
        "source": [f"src{i % 5}" for i in range(n)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
    })

    tables = {"lineitem": lineitem, "events": events, "documents": documents}
    for name, df in tables.items():
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(out_dir, f"{name}.parquet"))
    return {name: len(df) for name, df in tables.items()}


def normalize_result(df: pd.DataFrame) -> pd.DataFrame:
    """Order-insensitive canonical form: columns by name, floats rounded
    to 6 places, integers widened, rows sorted."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def duckdb_twins(tables_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    """Each query's ``queries.ORACLE_SQL`` twin, run by DuckDB over the
    same parquet files, in canonical form."""
    import duckdb

    from gene_etl_ray.queries import ORACLE_SQL

    con = duckdb.connect()
    con.execute("SET enable_progress_bar = false")
    try:
        for t in QUERY_TABLES:
            path = os.path.join(tables_dir, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return {n: normalize_result(con.execute(ORACLE_SQL[n]).fetchdf()) for n in names}
    finally:
        con.close()


def same_result(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    got = normalize_result(got)
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-5)
    except AssertionError:
        return False
    return True
