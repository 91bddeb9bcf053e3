"""Distributed link analysis over edge-list Datasets.

PageRank (Brin & Page 1998) by power iteration, expressed in the
engine's own join/groupby primitives so every piece of O(nodes) or
O(edges) state lives in the object store as a Dataset — the driver
holds scalars only (node count, dangling mass, iteration counter).

Reference capability family: iterative whole-graph computation — the
same per-round bucketed-exchange shape as the near-dup
connected-components relabeler (``ops/dedup.py``), with a numeric
fixed-point instead of a label fixed-point.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from gene_etl_ray.ops.dedup import bucketed_group_apply
from gene_etl_ray.ops.relational import partitioned_join


#: edge count below which an iterative graph op runs its whole fixed-point
#: inside ONE Ray task holding the edge list (~16 B/edge ⇒ ≤64 MB worker
#: memory at the default) — the same scale-adaptive split the near-dup
#: connected-components pass uses (``ops/dedup.py SMALL_EDGE_LIMIT``).
#: Above it, every round is Dataset joins/groupbys. The in-task kernels
#: compute the identical fixed-point (same masses, ties and round
#:  counts); only float summation order differs (absorbed by the 6dp
#: oracle rounding like every other aggregate).
SMALL_EDGE_LIMIT = 4_000_000


def _integer_ids(ds: ray.data.Dataset, cols: list) -> bool:
    """The in-task kernels index ids as int64; non-integer id columns
    (string doc keys, floats) must stay on the type-generic
    Dataset-round paths. Checked from schema metadata — no execution."""
    try:
        sch = ds.schema()
        by_name = dict(zip(sch.names, sch.types))
        return all(pa.types.is_integer(by_name[c]) for c in cols)
    except Exception:
        return False


def _check_id_domain(e: ray.data.Dataset, cols: list, op: str,
                     bound: int = 1 << 53) -> ray.data.Dataset:
    """LOUD id-domain guard: the Dataset-round paths move node ids
    through bucket-union NULL-fills whose pandas blocks promote int64
    to float64 — exact only below 2^53. Reject out-of-range ids on
    EVERY path (fast ones too, so path parity includes the domain)."""

    def check(t: pa.Table) -> pa.Table:
        for c in cols:
            v = t.column(c).to_numpy(zero_copy_only=False)
            if len(v) and (v.min() < 0 or v.max() >= bound):
                raise ValueError(
                    f"{op}: node ids must be in [0, 2^{bound.bit_length() - 1}) "
                    "— remap ids (e.g. dense-rank) first"
                )
        return t

    return e.map_batches(check, batch_format="pyarrow")


def _gather_edges(e: ray.data.Dataset) -> "ray.ObjectRef":
    """Block refs resolve inside the consuming TASK — the edge list
    never lands on the driver (the CC small-path convention)."""
    return e.to_pandas_refs()


def _node_index(si: np.ndarray, ti: np.ndarray):
    """Dense node index for the in-task kernels — one vectorized
    np.unique(return_inverse) instead of per-element dict lookups."""
    nodes, inv = np.unique(np.concatenate([si, ti]), return_inverse=True)
    return nodes, inv[: len(si)], inv[len(si):]


def _pagerank_kernel(edges: pd.DataFrame, src: str, dst: str,
                     damping: float, iters: int,
                     weight: str | None,
                     seeds=None) -> pd.DataFrame:
    si = edges[src].to_numpy(np.int64)
    ti = edges[dst].to_numpy(np.int64)
    nodes, s_, t_ = _node_index(si, ti)
    w = (edges[weight].to_numpy(np.float64) if weight
         else np.ones(len(si)))
    if weight and (w <= 0).any():
        raise ValueError(
            "pagerank: edge weights must be > 0 (a zero out-weight sum "
            "would be mass-losing in the distributed rounds)"
        )
    n = len(nodes)
    wout = np.zeros(n)
    np.add.at(wout, s_, w)
    dang = wout == 0
    denom = np.where(dang, 1.0, wout)
    if seeds is None:
        # uniform restart — arithmetic kept EXACTLY as the oracled
        # uniform twin computes it (scalar base, dm/n)
        r = np.full(n, 1.0 / n)
        base = (1.0 - damping) / n
        for _ in range(iters):
            dm = float(r[dang].sum())
            contrib = np.zeros(n)
            np.add.at(contrib, t_, r[s_] * w / denom[s_])
            r = base + damping * (contrib + dm / n)
        return pd.DataFrame({"node": nodes, "pr": r})
    # personalized (random walk with restart): all restart AND
    # dangling mass returns to the seed distribution p
    sm = np.isin(nodes, np.asarray(list(seeds), dtype=np.int64))
    ns = int(sm.sum())
    if ns == 0:
        raise ValueError(
            "pagerank: no personalization seed is a graph node")
    p = np.where(sm, 1.0 / ns, 0.0)
    r = p.copy()
    for _ in range(iters):
        dm = float(r[dang].sum())
        contrib = np.zeros(n)
        np.add.at(contrib, t_, r[s_] * w / denom[s_])
        r = (1.0 - damping) * p + damping * (contrib + dm * p)
    return pd.DataFrame({"node": nodes, "pr": r})


def _rename(ds: ray.data.Dataset, mapping: dict) -> ray.data.Dataset:
    """Column rename that works on pandas AND arrow blocks (Ray's
    ``rename_columns`` assumes arrow blocks)."""

    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])

    return ds.map_batches(fn, batch_format="pyarrow")


def _scalar_sum(ds: ray.data.Dataset, col: str) -> float:
    """Driver-side sum of one numeric column via per-batch partials."""
    parts = ds.map_batches(
        lambda b: pd.DataFrame({"s": [float(b[col].sum())]}),
        batch_format="pandas",
    ).to_pandas()
    return float(parts["s"].sum()) if len(parts) else 0.0


def pagerank(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 5,
    weight: str | None = None,
    small_edge_limit: int = SMALL_EDGE_LIMIT,
    seeds=None,
) -> ray.data.Dataset:
    """PageRank over a directed edge list, ``iters`` fixed power
    iterations from the uniform vector:

        pr'(v) = (1−d)/N + d · ( Σ_{u→v} pr(u)/outdeg(u) + D/N )

    with D the total rank mass on dangling nodes (out-degree 0),
    redistributed uniformly so Σ pr stays 1 exactly.

    Scale shape: edges and the rank vector are both Datasets; each
    iteration is (a) one bucketed hash join of ranks onto the
    degree-annotated edges by source, (b) one dst-keyed bucketed
    grouped sum of contributions, (c) one left join back onto the node
    set to re-seed nodes with no in-edges, (d) an anti join + scalar
    partial-sum for the dangling mass. The rank state is materialized
    per round (O(nodes) object-store bytes — never driver memory), and
    the fixed iteration count makes the operator SQL-twinnable by CTE
    unrolling. On a real cluster the edge table would be
    hash-partitioned by ``src`` once and every per-round join would
    reuse that partitioning; the explicit ``partitioned_join`` keeps
    that single-shuffle cost model visible exactly as the join layer
    documents.

    ``weight`` names an optional STRICTLY POSITIVE edge-weight column
    (validated loudly on both paths): each
    source then distributes its rank proportionally to w/Σw_out instead
    of 1/outdeg (weighted PageRank). Pass PRE-ROUNDED weights when an
    oracle twin recomputes them — identical inputs keep the fixed-point
    comparable across engines.

    ``seeds`` switches to PERSONALIZED PageRank (random walk with
    restart): all restart mass — and dangling mass — returns to the
    uniform distribution over the seed set instead of all nodes
    (p(v) = 1/|S∩V| on seeds, 0 elsewhere; seeds outside the graph are
    ignored, an empty intersection raises). The seed set rides in the
    task closures — bounded (≤ ~10⁵ ids), the usual RWR shape; a
    corpus-sized personalization vector would need its own rank-join,
    which this operator deliberately does not implement.

    Returns a Dataset of (node, pr) with Σ pr = 1.
    """
    e = edges.select_columns([src, dst] + ([weight] if weight else []))

    # scale-adaptive: a bounded edge list runs the whole fixed-point in
    # ONE task (every per-round Dataset execution costs ~0.5 s of fixed
    # scheduling wall — 10 executions dwarf the math at small sizes)
    if _integer_ids(e, [src, dst]):
        e = _check_id_domain(e, [src, dst], "pagerank")
    if e.count() <= small_edge_limit and _integer_ids(e, [src, dst]):
        @ray.remote(num_cpus=1)
        def solve(*parts: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat(parts, ignore_index=True)
            if not len(df):
                return pd.DataFrame({"node": pd.Series([], dtype=object),
                                     "pr": pd.Series([], dtype="float64")})
            return _pagerank_kernel(
                df, src, dst, damping, iters, weight, seeds)

        return ray.data.from_pandas(ray.get(solve.remote(*_gather_edges(e))))

    # ---- node set = distinct src ∪ dst (one bucketed distinct) ----
    nodes = _rename(e.select_columns([src]), {src: "node"}).union(
        _rename(e.select_columns([dst]), {dst: "node"})
    )
    nodes = bucketed_group_apply(
        nodes, ["node"], lambda g: g.drop_duplicates("node")
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_pandas(
            pd.DataFrame({"node": pd.Series([], dtype=object),
                          "pr": pd.Series([], dtype="float64")})
        )

    # ---- out-degree (or out-weight-sum), annotated onto the edges ----
    if weight:
        def check_w(t: pa.Table) -> pa.Table:
            wv = t.column(weight).to_numpy(zero_copy_only=False)
            if len(wv) and (wv <= 0).any():
                raise ValueError(
                    "pagerank: edge weights must be > 0 (a zero "
                    "out-weight sum would divide by zero and NaN-poison "
                    "the rank vector)"
                )
            return t

        e = e.map_batches(check_w, batch_format="pyarrow")
        deg = bucketed_group_apply(
            e.select_columns([src, weight]),
            [src],
            lambda g: g.groupby(src, as_index=False, sort=False)[weight]
            .sum()
            .rename(columns={src: "__dsrc", weight: "outdeg"}),
        )
    else:
        deg = bucketed_group_apply(
            e.select_columns([src]),
            [src],
            lambda g: g.groupby(src, as_index=False, sort=False)
            .size()
            .rename(columns={src: "__dsrc", "size": "outdeg"}),
        )
    edges_w = partitioned_join(e, deg, src, "__dsrc").drop_columns(
        ["__dsrc"]
    ).materialize()

    # ---- dangling nodes: in the node set but absent from deg ----
    dangling = partitioned_join(
        nodes,
        deg.select_columns(["__dsrc"]),
        "node",
        "__dsrc",
        how="anti",
    ).materialize()
    n_dangling = dangling.count()

    seeds_arr = None
    ns = 0
    if seeds is not None:
        seeds_arr = np.sort(np.asarray(list(seeds), dtype=np.int64))
        ns = int(_scalar_sum(
            nodes.map_batches(
                lambda b, _s=seeds_arr: pd.DataFrame({"s": [float(
                    np.isin(b["node"].to_numpy(np.int64), _s).sum())]}),
                batch_format="pandas",
            ), "s"))
        if ns == 0:
            raise ValueError(
                "pagerank: no personalization seed is a graph node")

    base = (1.0 - damping) / n_nodes
    if seeds_arr is None:
        ranks = nodes.map_batches(
            lambda b, _n=n_nodes: b.assign(pr=np.full(len(b), 1.0 / _n)),
            batch_format="pandas",
        ).materialize()
    else:
        ranks = nodes.map_batches(
            lambda b, _s=seeds_arr, _ns=ns: b.assign(pr=np.where(
                np.isin(b["node"].to_numpy(np.int64), _s),
                1.0 / _ns, 0.0)),
            batch_format="pandas",
        ).materialize()

    for _ in range(iters):
        d_mass = 0.0
        if n_dangling:
            d_mass = _scalar_sum(
                partitioned_join(
                    dangling, _rename(ranks, {"node": "__rnode"}),
                    "node", "__rnode"
                ),
                "pr",
            )
        contribs = partitioned_join(
            edges_w, _rename(ranks, {"node": "__rnode", "pr": "__pr"}),
            src, "__rnode",
        ).map_batches(
            lambda b: pd.DataFrame(
                {"__cdst": b[dst],
                 "w": (b["__pr"] * b[weight] / b["outdeg"]) if weight
                 else (b["__pr"] / b["outdeg"])}
            ),
            batch_format="pandas",
        )
        sums = bucketed_group_apply(
            contribs,
            ["__cdst"],
            lambda g: g.groupby("__cdst", as_index=False, sort=False)["w"].sum(),
        )
        uniform = damping * d_mass / n_nodes

        if seeds_arr is None:
            def step(b: pd.DataFrame, _base=base, _u=uniform,
                     _d=damping) -> pd.DataFrame:
                w = b["w"].fillna(0.0) if "w" in b.columns else 0.0
                return pd.DataFrame(
                    {"node": b["node"], "pr": _base + _u + _d * w}
                )
        else:
            # identical float ordering to the in-task kernel:
            # (1−d)·p + d·(contrib + dm·p), p = 1/|S| on seeds else 0
            def step(b: pd.DataFrame, _s=seeds_arr, _ns=ns,
                     _dm=d_mass, _d=damping) -> pd.DataFrame:
                w = (b["w"].fillna(0.0).to_numpy(np.float64)
                     if "w" in b.columns
                     else np.zeros(len(b)))
                pv = np.where(
                    np.isin(b["node"].to_numpy(np.int64), _s),
                    1.0 / _ns, 0.0)
                return pd.DataFrame(
                    {"node": b["node"],
                     "pr": (1.0 - _d) * pv + _d * (w + _dm * pv)}
                )

        ranks = partitioned_join(
            nodes, sums, "node", "__cdst", how="left"
        ).map_batches(step, batch_format="pandas").materialize()

    return ranks


def undirected_edges(
    edges: ray.data.Dataset, src: str = "src", dst: str = "dst"
) -> ray.data.Dataset:
    """Canonicalize a directed edge list to distinct undirected edges
    (u < v): vectorized min/max swap per batch, then one bucketed
    distinct. Self-loops dropped."""

    def canon(t: pa.Table) -> pa.Table:
        a = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        # the triangle closure packs (a,c) as a*2^32+c — enforce the
        # id range that packing relies on LOUDLY instead of wrapping
        if len(a):
            lo = min(a.min(), b.min()) if len(b) else a.min()
            hi = max(a.max(), b.max()) if len(b) else a.max()
            if lo < 0 or hi >= (1 << 32):
                raise ValueError(
                    "graph ops require node ids in [0, 2^32): got "
                    f"[{lo}, {hi}] — remap ids (e.g. dense-rank) first"
                )
        m = a != b
        a, b = a[m], b[m]
        return pa.table({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    canoned = edges.map_batches(canon, batch_format="pyarrow")
    return bucketed_group_apply(
        canoned, ["u", "v"], lambda g: g.drop_duplicates(["u", "v"])
    )


def triangle_counts(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    canonical: bool = False,
) -> pd.DataFrame:
    """Per-node triangle participation counts over the undirected-ized
    edge list — the compact-forward (node-ordered) triangle algorithm
    as two bucketed joins: canonical edges (u<v) joined on the middle
    vertex give wedges a<b<c, wedges joined against the edge set on the
    closing (a,c) pair give triangles, and each triangle credits its
    three corners. Wedge volume is Σ deg²(middle) — bounded for
    degree-bounded graphs (kNN: k²·N) and the reason production
    triangle counts pre-order by degree; no all-pairs pass, no driver
    gather of the edge set. Returns (node, n_tri) for nodes in ≥1
    triangle."""
    if canonical:
        # caller guarantees canonical (u<v, distinct, range-checked)
        # edges — e.g. clustering_coefficients reusing its own und set —
        # so skip the second canonicalization shuffle
        und = _rename(edges.select_columns([src, dst]),
                      {src: "u", dst: "v"}).materialize()
    else:
        und = undirected_edges(edges, src, dst).materialize()
    M = np.int64(1) << np.int64(32)

    wedges = partitioned_join(
        _rename(und, {"u": "a", "v": "b"}),
        _rename(und, {"u": "b2", "v": "c"}),
        "b",
        "b2",
    )

    def wkey(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"a": a, "b": t.column("b"), "c": c, "ac": a * M + c})

    def ekey(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"uv": u * M + v})

    tri = partitioned_join(
        wedges.map_batches(wkey, batch_format="pyarrow"),
        und.map_batches(ekey, batch_format="pyarrow"),
        "ac",
        "uv",
        how="semi",
    )

    def corner_counts(b: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([b["a"], b["b"], b["c"]], ignore_index=True)
        out = nodes.value_counts().rename_axis("node").reset_index(name="n_tri")
        return out

    parts = tri.map_batches(corner_counts, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"node": pd.array([], dtype="int64"),
                             "n_tri": pd.array([], dtype="int64")})
    out = parts.groupby("node", as_index=False)["n_tri"].sum()
    out["node"] = out["node"].astype("int64")
    out["n_tri"] = out["n_tri"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _hits_kernel(edges: pd.DataFrame, src: str, dst: str,
                 iters: int) -> pd.DataFrame:
    si = edges[src].to_numpy(np.int64)
    ti = edges[dst].to_numpy(np.int64)
    nodes, s_, t_ = _node_index(si, ti)
    n = len(nodes)
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(iters):
        a = np.zeros(n)
        np.add.at(a, t_, h[s_])
        tot = a.sum()
        if tot:
            a /= tot
        h = np.zeros(n)
        np.add.at(h, s_, a[t_])
        tot = h.sum()
        if tot:
            h /= tot
    return pd.DataFrame({"node": nodes, "hub": h, "authority": a})


def _lpa_kernel(edges: pd.DataFrame, src: str, dst: str,
                iters: int) -> pd.DataFrame:
    a = edges[src].to_numpy(np.int64)
    b = edges[dst].to_numpy(np.int64)
    m = a != b
    a, b = a[m], b[m]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    und = np.unique(np.stack([lo, hi], axis=1), axis=0)
    nodes, u, v = _node_index(und[:, 0], und[:, 1])
    pn = np.concatenate([u, v])   # node side of each (node, nbr) pair
    pb = np.concatenate([v, u])   # neighbor side
    lbl = nodes.copy()            # labels ARE original ids throughout
    for _ in range(iters):
        nl = lbl[pb]
        # mode per node, ties -> smallest label: count (node,label)
        # pairs, then lexsort (label asc, count desc) within node and
        # take the first row per node
        pairs = np.stack([pn, nl], axis=1)
        uniq, cnt = np.unique(pairs, axis=0, return_counts=True)
        order = np.lexsort((uniq[:, 1], -cnt, uniq[:, 0]))
        su = uniq[order]
        first = np.ones(len(su), dtype=bool)
        first[1:] = su[1:, 0] != su[:-1, 0]
        newlbl = lbl.copy()
        newlbl[su[first, 0]] = su[first, 1]
        lbl = newlbl
    return pd.DataFrame({"node": nodes, "label": lbl})


def hits(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 3,
    small_edge_limit: int = SMALL_EDGE_LIMIT,
) -> ray.data.Dataset:
    """HITS hubs & authorities (Kleinberg 1999), ``iters`` fixed
    mutual-recursion rounds with L1 normalization: a(v) = Σ_{u→v} h(u)
    then a /= Σa; h(u) = Σ_{u→v} a(v) then h /= Σh. Same
    Dataset-state shape as ``pagerank`` — each half-round is one
    bucketed join of the opposite vector onto the edges plus one
    grouped sum, the normalizer is a driver scalar from per-batch
    partials, and the fixed round count keeps the operator
    SQL-twinnable by CTE unrolling. Returns (node, hub, authority)."""
    e = edges.select_columns([src, dst])
    if _integer_ids(e, [src, dst]):
        e = _check_id_domain(e, [src, dst], "hits")
    if e.count() <= small_edge_limit and _integer_ids(e, [src, dst]):
        @ray.remote(num_cpus=1)
        def solve(*parts: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat(parts, ignore_index=True)
            if not len(df):
                return pd.DataFrame(
                    {"node": pd.Series([], dtype=object),
                     "hub": pd.Series([], dtype="float64"),
                     "authority": pd.Series([], dtype="float64")})
            return _hits_kernel(df, src, dst, iters)

        return ray.data.from_pandas(ray.get(solve.remote(*_gather_edges(e))))
    nodes = _rename(e.select_columns([src]), {src: "node"}).union(
        _rename(e.select_columns([dst]), {dst: "node"})
    )
    nodes = bucketed_group_apply(
        nodes, ["node"], lambda g: g.drop_duplicates("node")
    ).materialize()
    if nodes.count() == 0:
        return ray.data.from_pandas(
            pd.DataFrame({"node": pd.Series([], dtype=object),
                          "hub": pd.Series([], dtype="float64"),
                          "authority": pd.Series([], dtype="float64")})
        )
    e = e.materialize()

    def _uniform(name: str) -> ray.data.Dataset:
        return nodes.map_batches(
            lambda b, _n=name: b.assign(**{_n: np.ones(len(b))}),
            batch_format="pandas",
        ).materialize()

    def _half_round(vec: ray.data.Dataset, vcol: str, join_on: str,
                    group_to: str, out_col: str) -> ray.data.Dataset:
        """sum the opposite vector over edges incident via ``join_on``,
        grouped onto ``group_to``, re-seeded over all nodes, normalized."""
        contrib = partitioned_join(
            e, _rename(vec, {"node": "__vnode", vcol: "__v"}),
            join_on, "__vnode",
        ).map_batches(
            lambda b, _g=group_to: pd.DataFrame(
                {"__gnode": b[_g], "w": b["__v"]}
            ),
            batch_format="pandas",
        )
        sums = bucketed_group_apply(
            contrib,
            ["__gnode"],
            lambda g: g.groupby("__gnode", as_index=False, sort=False)["w"].sum(),
        )
        raw = partitioned_join(nodes, sums, "node", "__gnode", how="left")
        raw = raw.map_batches(
            lambda b, _o=out_col: pd.DataFrame(
                {"node": b["node"],
                 _o: (b["w"].fillna(0.0) if "w" in b.columns
                      else np.zeros(len(b)))}
            ),
            batch_format="pandas",
        ).materialize()
        total = _scalar_sum(raw, out_col)
        if total == 0.0:
            return raw
        return raw.map_batches(
            lambda b, _o=out_col, _t=total: b.assign(**{_o: b[_o] / _t}),
            batch_format="pandas",
        ).materialize()

    hubs = _uniform("hub")
    auth = _uniform("authority")
    for _ in range(iters):
        auth = _half_round(hubs, "hub", src, dst, "authority")
        hubs = _half_round(auth, "authority", dst, src, "hub")
    return partitioned_join(
        hubs, _rename(auth, {"node": "__anode"}), "node", "__anode"
    ).drop_columns(["__anode"])


def clustering_coefficients(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
) -> pd.DataFrame:
    """Local clustering coefficient per node: n_tri / C(degree, 2) over
    the undirected-ized graph — how close each node's neighborhood is
    to a clique (the structural cohesion signal next to the volume
    signal of ``triangle_counts``). One triangle pass plus one bucketed
    degree count; nodes with degree < 2 are excluded (undefined
    denominator). Returns (node, degree, clustering) as a node-sized
    frame (same driver-size contract as ``triangle_counts``)."""
    und = undirected_edges(edges, src, dst).materialize()
    tri = triangle_counts(und, "u", "v", canonical=True)

    def ends(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"node": np.concatenate([u, v])})

    deg = bucketed_group_apply(
        und.map_batches(ends, batch_format="pyarrow"),
        ["node"],
        lambda g: g.groupby("node", as_index=False, sort=False)
        .size()
        .rename(columns={"size": "degree"}),
    ).to_pandas()
    out = deg[deg["degree"] >= 2].merge(tri, on="node", how="left")
    out["n_tri"] = out["n_tri"].fillna(0).astype("int64")
    out["degree"] = out["degree"].astype("int64")
    out["clustering"] = (
        2.0 * out["n_tri"] / (out["degree"] * (out["degree"] - 1.0))
    )
    out["node"] = out["node"].astype("int64")
    return out[["node", "degree", "clustering"]].sort_values(
        "node"
    ).reset_index(drop=True)


def label_propagation(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 4,
    small_edge_limit: int = SMALL_EDGE_LIMIT,
) -> pd.DataFrame:
    """Community detection by synchronous label propagation (Raghavan
    et al. 2007) made DETERMINISTIC: labels start as node ids; each
    round every node takes the most frequent label among its
    (undirected) neighbors, ties broken by the smallest label; a fixed
    round count replaces convergence detection. Determinism + fixed
    rounds is exactly what makes the op twin-able by CTE unrolling —
    the classic formulation's random visit order is not.

    Shape per round: one bucketed join of the label vector onto the
    symmetrized edge list, then one node-bucketed count+argmax (a
    node's whole neighbor-label multiset co-locates in its bucket, so
    the argmax is globally exact). Labels are a Dataset; the driver
    only counts rounds. Returns (node, community) as a node-sized
    frame."""
    e = edges.select_columns([src, dst])
    if not _integer_ids(e, [src, dst]):
        raise ValueError(
            "label_propagation requires integer node ids (community = "
            "min int id) — remap ids (e.g. dense-rank) first"
        )
    e = _check_id_domain(e, [src, dst], "label_propagation")
    if e.count() <= small_edge_limit:
        @ray.remote(num_cpus=1)
        def solve(*parts: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat(parts, ignore_index=True)
            if not len(df):
                return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                     "label": pd.Series([], dtype="int64")})
            return _lpa_kernel(df, src, dst, iters)

        out = ray.get(solve.remote(*_gather_edges(e)))
        out["node"] = out["node"].astype("int64")
        out["community"] = out["label"].astype("int64")
        return out[["node", "community"]].sort_values(
            "node").reset_index(drop=True)
    und = undirected_edges(edges, src, dst)

    def both_dirs(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"node": np.concatenate([u, v]),
                         "nbr": np.concatenate([v, u])})

    sym = und.map_batches(both_dirs, batch_format="pyarrow").materialize()

    nodes = bucketed_group_apply(
        sym.select_columns(["node"]), ["node"],
        lambda g: g.drop_duplicates("node"),
    ).materialize()

    labels = nodes.map_batches(
        lambda b: pd.DataFrame({"node": b["node"], "label": b["node"]}),
        batch_format="pandas",
    ).materialize()

    def argmax_label(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby(["node", "__lbl"], as_index=False, sort=False).size()
        cnt = cnt.sort_values(["node", "size", "__lbl"],
                              ascending=[True, False, True],
                              kind="mergesort")
        top = cnt.drop_duplicates("node")
        return pd.DataFrame({"node": top["node"], "label": top["__lbl"]})

    for _ in range(iters):
        nbr_lbl = partitioned_join(
            sym, _rename(labels, {"node": "__lnode", "label": "__lbl"}),
            "nbr", "__lnode",
        ).map_batches(
            lambda b: b[["node", "__lbl"]], batch_format="pandas"
        )
        labels = bucketed_group_apply(
            nbr_lbl, ["node"], argmax_label
        ).materialize()

    out = labels.to_pandas()
    out["node"] = out["node"].astype("int64")
    out["community"] = out["label"].astype("int64")
    return out[["node", "community"]].sort_values("node").reset_index(drop=True)


def _bfs_kernel(edges: pd.DataFrame, src: str, dst: str,
                source: int, max_hops: int) -> pd.DataFrame:
    si = edges[src].to_numpy(np.int64)
    ti = edges[dst].to_numpy(np.int64)
    nodes, s_, t_ = _node_index(si, ti)
    pos = np.searchsorted(nodes, source)
    if pos >= len(nodes) or nodes[pos] != source:
        return pd.DataFrame({"node": pd.array([source], dtype="int64"),
                             "hops": pd.array([0], dtype="int64")})
    dist = np.full(len(nodes), -1, dtype=np.int64)
    dist[pos] = 0
    frontier = np.array([pos], dtype=np.int64)
    for h in range(1, max_hops + 1):
        mask = np.isin(s_, frontier)
        nxt = np.unique(t_[mask])
        nxt = nxt[dist[nxt] < 0]
        if not len(nxt):
            break
        dist[nxt] = h
        frontier = nxt
    seen = dist >= 0
    return pd.DataFrame({"node": nodes[seen], "hops": dist[seen]})


def bfs_hops(
    edges: ray.data.Dataset,
    source: int,
    src: str = "src",
    dst: str = "dst",
    max_hops: int = 4,
    small_edge_limit: int = SMALL_EDGE_LIMIT,
) -> pd.DataFrame:
    """Unweighted single-source reachability: the BFS hop distance of
    every node within ``max_hops`` of ``source`` (directed edges).
    The traversal member of the graph family next to the centrality
    (PageRank/HITS) and cohesion (triangles/LPA) members; the fixed
    hop bound is what makes it an unrolled-CTE twin.

    Scale shape: the visited set is a Dataset; each hop is one bucketed
    join of the current frontier onto the edge table plus a bucketed
    min-hops merge into the visited set. Honest cost note: in Ray Data
    the edge side re-enters the bucket exchange every hop (partitioning
    does not persist across materializations) — on a real cluster
    you'd hash-partition the edges once and keep them resident, making
    per-hop exchange frontier-proportional; the in-task fast path is
    the bounded-graph analog of that resident form. Bounded edge lists
    run the whole BFS in one task (``SMALL_EDGE_LIMIT`` convention).
    Returns (node, hops), hops ∈ [0, max_hops]."""
    e = edges.select_columns([src, dst])
    if not _integer_ids(e, [src, dst]):
        raise ValueError(
            "bfs_hops requires integer node ids — remap ids (e.g. "
            "dense-rank) first"
        )
    e = _check_id_domain(e, [src, dst], "bfs_hops")
    if e.count() <= small_edge_limit:
        @ray.remote(num_cpus=1)
        def solve(*parts: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat(parts, ignore_index=True)
            if not len(df):
                return pd.DataFrame(
                    {"node": pd.array([source], dtype="int64"),
                     "hops": pd.array([0], dtype="int64")})
            return _bfs_kernel(df, src, dst, source, max_hops)

        out = ray.get(solve.remote(*_gather_edges(e)))
    else:
        e = e.materialize()
        visited = ray.data.from_pandas(pd.DataFrame(
            {"node": pd.array([source], dtype="int64"),
             "hops": pd.array([0], dtype="int64")}))
        frontier = visited
        for h in range(1, max_hops + 1):
            hop = int(h)
            reached = partitioned_join(
                e, _rename(frontier, {"node": "__fnode", "hops": "__fh"}),
                src, "__fnode",
            ).map_batches(
                # node stays int64, the dtype of ``visited`` it unions with
                lambda b, _h=hop: pd.DataFrame(
                    {"node": b[dst].astype("int64"),
                     "hops": np.full(len(b), _h, dtype="int64")}),
                batch_format="pandas",
            )
            # min-hops merge: previously-visited nodes keep their level
            visited = bucketed_group_apply(
                visited.union(reached), ["node"],
                lambda g: g.groupby("node", as_index=False, sort=False)[
                    "hops"].min(),
            ).map_batches(
                lambda b: b.astype({"node": "int64", "hops": "int64"}),
                batch_format="pandas",
            ).materialize()
            frontier = visited.map_batches(
                lambda b, _h=hop: b[b["hops"] == _h],
                batch_format="pandas",
            ).materialize()
            if frontier.count() == 0:
                break
        out = visited.to_pandas()
    out["node"] = out["node"].astype("int64")
    out["hops"] = out["hops"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)
