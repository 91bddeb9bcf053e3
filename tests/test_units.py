"""Unit tests for the engine's kernels (reference test style: seeded
inputs + invariant assertions, SURVEY §5.1)."""

import numpy as np
import pyarrow as pa
import pytest

from gene_etl_ray.config import EngineConfig, config_hash
from gene_etl_ray.extract import HtmlTextExtractor, extract_text
from gene_etl_ray.hashing import group_keys, hash_keys, hash_urls, partition_keys
from gene_etl_ray.pipelines.normalize import canonicalize_url_one, normalize_batch
from gene_etl_ray.schema import (
    SchemaEvolutionError,
    conform_table,
    evolve_schema,
)


class TestExtractor:
    def test_strips_tags_scripts_styles(self):
        html = b"<html><head><style>x{}</style></head><body><script>bad()</script><p>Hello &amp; world</p></body></html>"
        out = extract_text(html)
        assert "Hello & world" in out
        assert "bad()" not in out and "x{}" not in out and "<p>" not in out

    def test_byte_determinism_repeated(self):
        html = ("<html><body>" + "<p>word &copy; t</p>" * 200 + "</body></html>").encode()
        a, b = extract_text(html), HtmlTextExtractor().extract_one(html)
        assert a == b
        assert extract_text(html) == a

    def test_none_passthrough(self):
        assert extract_text(None) is None

    def test_batch_path_byte_identical_to_per_doc(self):
        """The RE2 batch path and the Python-re per-doc path are TWO
        implementations of one frozen algorithm — every adversarial
        shape must produce byte-identical output: engine-divergent
        constructs (non-ASCII around \\b, unicode whitespace via
        entities), nested comment/script pathologies, invalid utf-8,
        every whitespace char, empty and entity-only docs."""
        import random

        cases = [
            b"",
            b"plain text no markup",
            b"<p>a</p>\t<p>b</p>\v\f<br>c\r\n d",
            b"<script> <!-- </script> --> text",  # comment/script nesting
            b"<!-- <script> --> real <script>x</script> tail",
            b"<script>a<style>b</style>c</script>d<style>e</style>",
            b"a &nbsp; b\n&nbsp;\nc",       # entity -> U+00A0 next to \n
            b"&amp;&lt;&gt;&quot;&copy;",   # entity-only
            "<scripté>x</script>y".encode(),  # \b divergence bait (non-ASCII)
            "héllo <p>wörld</p>  ok".encode(),  # unicode ws + words
            b"\xff\xfe<p>bad utf8</p>\xff", # invalid utf-8 -> replacement
            b"   \n\n\t \n  ",              # all-whitespace
            b"<head><title>t</title></head><body>x</body>",
        ]
        rng = random.Random(7)
        frags = [
            "<p>", "</p>", "<br>", "<script>", "</script>", "<!--", "-->",
            "&nbsp;", "&amp;", " ", "\t", "\n", "\v", "word", "\xa0", "é",
        ]
        for _ in range(300):
            cases.append(
                "".join(rng.choice(frags) for _ in range(rng.randint(0, 25))).encode()
            )
        # every character Python's \s matches, raw and as numeric entities,
        # next to the newlines the whitespace collapse is built around
        uni_ws = [c for c in map(chr, range(0x3001)) if c.isspace()]
        assert len(uni_ws) == 29
        entities = ["&#x2028;", "&#133;", "&#12288;", "&#28;"]
        for w in uni_ws + entities:
            for shape in ("a{w}\nb", "a\n{w}b", "a{w}<br>b", "a<br>{w}b",
                          "{w}\n{w}", "x {w}{w}\n\t{w} y", "<p>{w}</p>{w}<br>{w}",
                          "{w}", "a{w}b", "\n{w}\n{w}\n"):
                cases.append(shape.format(w=w).encode())
        frags2 = frags + uni_ws + entities
        rng = random.Random(11)
        for _ in range(300):
            cases.append(
                "".join(rng.choice(frags2) for _ in range(rng.randint(0, 25))).encode()
            )
        ex = HtmlTextExtractor()
        got = ex._extract_many(cases).to_pylist()
        want = [ex.extract_one(c) for c in cases]
        for c, g, w in zip(cases, got, want):
            assert g == w, (c[:80], g[:80], w[:80])

    def test_batch_fills_only_null_text(self):
        ex = HtmlTextExtractor()
        t = pa.table(
            {
                "html": pa.array([b"<p>a</p>", b"<p>b</p>", None], pa.binary()),
                "text": pa.array(["keep", None, None], pa.string()),
            }
        )
        out = ex(t)
        assert out.column("text").to_pylist() == ["keep", "b", None]

    def test_batch_keeps_set_text_beside_html(self):
        """A row whose text is already set keeps it even when its html is
        present: only null text is extracted. The batch arrives in two
        chunks, as a concatenated merge group does."""
        ex = HtmlTextExtractor()
        html = pa.chunked_array([
            pa.array([b"<p>x</p>", b"<p>y</p>"], pa.binary()),
            pa.array([None, b"<p>z</p>", b"<p>w</p>"], pa.binary()),
        ])
        text = pa.chunked_array([
            pa.array(["stale x", None], pa.string()),
            pa.array(["lake", "set", None], pa.string()),
        ])
        out = ex(pa.table({"html": html, "text": text}))
        assert out.column("text").to_pylist() == ["stale x", "y", "lake", "set", "w"]
        assert out.schema == pa.schema([("html", pa.binary()), ("text", pa.string())])

    def test_batch_path_byte_identical_on_wal_pages(self, tmp_path):
        """The batch path matches the per-doc reference on the pages of a
        seeded change log, which are crawl-sized and non-ASCII (``&copy;``)."""
        import pyarrow.parquet as pq

        from gene_etl_ray.fixtures import generate_events

        meta = generate_events(str(tmp_path), n_urls=150, n_events=400,
                               n_epochs=2, seed=777, html_size_hint=1500)
        pages = [h for f in meta["files"]
                 for h in pq.read_table(f, columns=["html"]).column("html").to_pylist()]
        assert sum(h is not None for h in pages) > 300
        ex = HtmlTextExtractor()
        got = ex._extract_many(pages).to_pylist()
        assert got == [ex.extract_one(h) for h in pages]

    def test_re2_whitespace_class_is_python_whitespace(self):
        """The RE2 class the batch path collapses newline runs with must
        match exactly the code points of ``str.isspace``, which is also
        Python ``re``'s ``\\s`` on str, over every non-surrogate code
        point. A Python or pyarrow upgrade that moves either side fails
        here."""
        import re
        import sys

        import pyarrow.compute as pc

        from gene_etl_ray.extract import _RE2_WS

        cps = [c for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]
        chars = [chr(c) for c in cps]
        re2 = pc.match_substring_regex(pa.array(chars, pa.string()), f"^{_RE2_WS}$")
        got = {c for c, m in zip(cps, re2.to_numpy(zero_copy_only=False)) if m}
        want = {c for c, ch in zip(cps, chars) if ch.isspace()}
        assert len(want) == 29
        assert got == want
        assert {ord(m) for m in re.findall(r"\s", "".join(chars))} == want


class TestHashing:
    def test_deterministic_across_calls(self):
        urls = [f"https://d{i}.com/p{i}" for i in range(100)]
        assert (hash_urls(urls) == hash_urls(list(urls))).all()

    def test_partition_range_and_stability(self):
        urls = [f"https://x.com/{i}" for i in range(1000)]
        pk = partition_keys(urls, 16)
        assert pk.min() >= 0 and pk.max() < 16
        # a url's partition never changes
        assert (pk == partition_keys(urls, 16)).all()

    def test_int_beyond_2_53_hashes_as_its_float64(self):
        """An integer key beyond ±2^53 compares equal to the float64 it
        rounds to (DuckDB, Arrow's cast), so the two hash alike whatever
        the column's dtype; integers within ±2^53 keep the int64 hash."""
        big = [2**53 + 1, -(2**53) - 1, 2**63 - 1, 5, None]
        as_float = hash_keys([pa.array([None if v is None else float(v) for v in big])])
        for col in (pa.array(big, pa.int64()), np.array(big, dtype=object),
                    np.array(big[:-1], dtype=np.int64)):
            assert hash_keys([col]).tolist() == as_float.tolist()[:len(col)]
        assert hash_keys([np.array([2**53 + 1], np.uint64)])[0] == as_float[0]
        assert hash_keys([pa.array([2**53 + 1])])[0] != hash_keys([pa.array([2**53 + 3])])[0]

    def test_salting_preserves_per_url_grouping(self):
        urls = np.array(["https://h.com/a"] * 50 + ["https://h.com/b"] * 50, dtype=object)
        pk, gk = group_keys(urls, 4, 8, hot_partitions={0, 1, 2, 3})
        # same url → always same group key
        assert len(set(gk[:50])) == 1 and len(set(gk[50:])) == 1
        # gkey maps back to pkey
        assert (gk // 8 == pk).all()

    def test_layout_hashes_are_pinned(self, tmp_path):
        """Every lake on disk is laid out by these url hashes and every
        Bloom sidecar holds these bits: a change to either strands the
        lakes and sidecars already written."""
        import hashlib
        import json

        from gene_etl_ray.pipelines.ingest import _write_bloom_sidecar

        urls = ["http://example.com/", "https://a.b/c?d=1", "http://münchen.de/straße",
                "http://x.org/page/42", "https://news.example/2024/01/01/story.html"]
        assert hash_urls(urls).tolist() == [
            4486041657559908502, 13643620514893613415, 3671603830354942982,
            4810481930726267976, 2778928271321134859]
        assert partition_keys(urls, 16).tolist() == [6, 7, 6, 8, 11]
        pk, gk = group_keys(urls, 16, 4)
        assert pk.tolist() == [6, 7, 6, 8, 11]
        assert gk.tolist() == [26, 30, 27, 32, 46]
        path = str(tmp_path / "f.parquet")
        _write_bloom_sidecar(path, [f"http://site{i}.example/p{i}" for i in range(40)])
        with open(path + ".bloom") as f:
            payload = json.load(f)
        assert (payload["num_bits"], payload["num_hashes"]) == (8192, 5)
        assert hashlib.sha256(payload["bits"].encode()).hexdigest() == (
            "e6f58962c538a946b75af12c6fada7da09f9bbe0dec325720463f4387834897e")

    def test_hash_array_called_only_in_hashing(self):
        """Every key hash and fingerprint goes through ``hashing.py``, so
        one dtype rule holds everywhere; a second ``hash_array`` caller is
        where a second rule would start."""
        from pathlib import Path

        import gene_etl_ray

        root = Path(gene_etl_ray.__file__).parent
        callers = sorted(
            str(p.relative_to(root)) for p in root.rglob("*.py")
            if p != root / "hashing.py" and "hash_array(" in p.read_text())
        assert callers == []


class TestNormalize:
    def test_canonicalize(self):
        assert canonicalize_url_one("HTTPS://ExAmple.Com/Path#frag") == "https://example.com/Path"
        assert canonicalize_url_one("  ") is None
        assert canonicalize_url_one(None) is None

    def test_batch_drops_bad_rows(self):
        t = pa.table(
            {
                "url": pa.array(["https://a.com/x", None, "https://b.com/y"], pa.string()),
                "op": pa.array(["I", "I", "Z"], pa.string()),
                "warc_ts": pa.array([1, 2, 3], pa.timestamp("us")),
                "seq": pa.array([0, 1, 2], pa.int64()),
            }
        )
        out = normalize_batch(t)
        assert out.column("url").to_pylist() == ["https://a.com/x"]


class TestSchemaEvolution:
    def test_additive_column(self):
        a = pa.schema([("x", pa.int64())])
        b = pa.schema([("x", pa.int64()), ("y", pa.string())])
        assert evolve_schema(a, b).names == ["x", "y"]
        # symmetric: removing a column never removes it from the lake
        assert evolve_schema(b, a).names == ["x", "y"]

    def test_widening(self):
        a = pa.schema([("x", pa.int32())])
        b = pa.schema([("x", pa.int64())])
        assert evolve_schema(a, b).field("x").type == pa.int64()
        c = pa.schema([("x", pa.float32())])
        assert evolve_schema(a, c).field("x").type == pa.float64()

    def test_incompatible_raises(self):
        a = pa.schema([("x", pa.string())])
        b = pa.schema([("x", pa.int64())])
        with pytest.raises(SchemaEvolutionError):
            evolve_schema(a, b)

    def test_conform_backfills_and_casts(self):
        t = pa.table({"x": pa.array([1, 2], pa.int32())})
        s = pa.schema([("x", pa.int64()), ("y", pa.string())])
        out = conform_table(t, s)
        assert out.schema == s
        assert out.column("y").null_count == 2


class TestConfig:
    def test_hash_stable_and_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(lake_dir="/tmp/x", num_partitions=0)

    def test_late_extract_is_accepted_and_not_hashed(self, tmp_path):
        d = str(tmp_path)
        assert (
            EngineConfig(lake_dir=d, late_extract=False).hash()
            == EngineConfig(lake_dir=d, late_extract=True).hash()
            == EngineConfig(lake_dir=d).hash()
        )

    def test_prevalidate_is_accepted_and_not_hashed(self, tmp_path):
        d = str(tmp_path)
        assert (
            EngineConfig(lake_dir=d, prevalidate=False).hash()
            == EngineConfig(lake_dir=d, prevalidate=True).hash()
            == EngineConfig(lake_dir=d).hash()
        )
        assert "prevalidate" not in EngineConfig(lake_dir=d).__dict__


class TestCrossProcessDeterminism:
    def test_extractor_bytes_identical_across_processes(self, tmp_path):
        """SURVEY §5.2: same html → same text bytes, in ANOTHER process
        (no dict-order / locale / hash-seed dependence)."""
        import subprocess
        import sys

        from gene_etl_ray.fixtures import generate_events
        import pyarrow.parquet as pq
        import os

        d = str(tmp_path / "ev")
        generate_events(d, n_urls=30, n_events=60, n_epochs=1)
        t = pq.read_table(os.path.join(d, "epoch=00000.parquet"))
        htmls = [h for h in t.column("html").to_pylist() if h is not None][:20]

        from gene_etl_ray.extract import HtmlTextExtractor

        here = [HtmlTextExtractor().extract_one(h) for h in htmls]

        script = (
            "import sys, hashlib\n"
            "sys.path.insert(0, %r)\n"
            "from gene_etl_ray.extract import HtmlTextExtractor\n"
            "import pyarrow.parquet as pq\n"
            "t = pq.read_table(%r)\n"
            "htmls = [h for h in t.column('html').to_pylist() if h is not None][:20]\n"
            "ex = HtmlTextExtractor()\n"
            "for h in htmls:\n"
            "    print(hashlib.sha256(ex.extract_one(h).encode()).hexdigest())\n"
        ) % (os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
             os.path.join(d, "epoch=00000.parquet"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},  # force a DIFFERENT hash seed
        ).stdout.split()
        import hashlib

        assert out == [hashlib.sha256(x.encode()).hexdigest() for x in here]


class TestMergeExchange:
    """The merge exchange's map side (``_bucket_sort``) and reduce side
    (``_bucket_groups``), without Ray: every row must land in exactly one
    bucket, inside its whole gkey group."""

    @staticmethod
    def _block(gkeys, first_row):
        n = len(gkeys)
        return pa.table(
            {
                "row": pa.array(range(first_row, first_row + n), pa.int64()),
                "html": pa.array([b"x" * (i % 5) for i in range(n)], pa.binary()),
                "gkey": pa.array(gkeys, pa.int64()),
            }
        )

    @staticmethod
    def _exchange(blocks, S, R):
        """Partitions with a salted key (``gkey % S != 0``) are hot, so
        every gkey of these blocks is its own merge group."""
        from gene_etl_ray.pipelines.ingest import _bucket_groups, _bucket_sort

        hot = {g // S for b in blocks for g in b.column("gkey").to_pylist() if g % S}
        staged = [_bucket_sort(b) if b.num_rows else b for b in blocks]
        return {r: _bucket_groups(staged, r, S, R, hot) for r in range(R)}

    def _check(self, blocks, S, R):
        from gene_etl_ray.pipelines.ingest import _bucket_of

        out = self._exchange(blocks, S, R)
        want: dict[int, set[int]] = {}
        for b in blocks:
            for g, row in zip(b.column("gkey").to_pylist(), b.column("row").to_pylist()):
                want.setdefault(g, set()).add(row)
        seen: dict[int, list[int]] = {}
        for r, keyed in out.items():
            keys = [k for k, _ in keyed]
            groups = [g for _, g in keyed]
            assert keys == sorted(set(keys))  # one group per gkey, in order
            for g, k in zip(groups, keys):
                assert set(g.column("gkey").to_pylist()) == {k}
                assert int(_bucket_of(np.array([k]), S, R)[0]) == r
                assert g.schema == blocks[0].schema
                seen[k] = g.column("row").to_pylist()
        assert seen.keys() == want.keys()
        for k, rows in seen.items():
            assert len(rows) == len(set(rows)) and set(rows) == want[k]
        return out

    def test_empty_piece_and_empty_bucket(self):
        blocks = [self._block([], 0), self._block([0, 4, 0, 8], 10), self._block([], 20)]
        out = self._check(blocks, S=4, R=8)
        assert sum(len(g) for g in out.values()) == 3
        assert self._exchange([self._block([], 0)], 4, 2) == {0: [], 1: []}

    def test_all_rows_in_one_bucket(self):
        # S=1: bucket = gkey % 3 — every key below is 1 mod 3
        blocks = [self._block([1, 4, 7, 1, 4], 0), self._block([7, 7, 1], 100)]
        out = self._check(blocks, S=1, R=3)
        assert out[0] == [] and out[2] == [] and len(out[1]) == 3

    def test_chunked_and_unsorted_runs(self):
        from gene_etl_ray.pipelines.ingest import _bucket_groups, _bucket_sort

        # a block Ray concatenated from two separately sorted batches, in
        # several chunks: runs are found by key change, not by sortedness
        a = _bucket_sort(self._block([5, 2, 9, 2, 5], 0))
        b = _bucket_sort(self._block([2, 9, 9, 5], 50))
        block = pa.concat_tables([a.slice(0, 2), a.slice(2), b])
        assert block.column("gkey").num_chunks == 3
        groups = {r: _bucket_groups([block], r, 1, 2) for r in range(2)}
        got = {k: sorted(g.column("row").to_pylist())
               for gs in groups.values() for k, g in gs}
        assert got == {2: [1, 3, 50], 5: [0, 4, 53], 9: [2, 51, 52]}
        self._check([self._block([5, 2, 9], 700), block], S=1, R=2)

    def test_one_gkey_over_many_blocks(self):
        rng = np.random.default_rng(7)
        blocks = [self._block(rng.integers(0, 6, 40).tolist(), 1000 * i) for i in range(5)]
        blocks.append(self._block([3] * 7, 9000))
        out = self._check(blocks, S=2, R=3)
        (g3,) = [g for gs in out.values() for k, g in gs if k == 3]
        assert g3.num_rows == 7 + sum(b.column("gkey").to_pylist().count(3) for b in blocks[:5])

    def test_salted_gkeys_spread_over_buckets(self):
        from gene_etl_ray.pipelines.ingest import _bucket_of

        S, R = 4, 4
        # partition 3 is hot (four salted sub-groups), 0-2 and 4-7 are not
        hot = [3 * S + salt for salt in range(S)]
        cold = [p * S for p in (0, 1, 2, 4, 5, 6, 7)]
        blocks = [self._block(hot * 3 + cold, 0), self._block(cold + hot, 500)]
        out = self._check(blocks, S, R)
        assert sorted(int(_bucket_of(np.array([g]), S, R)[0]) for g in hot) == [0, 1, 2, 3]
        # unsalted keys are multiples of S; a bare gkey % R would put all
        # of them in bucket 0
        assert all(out[r] for r in range(R))

    def test_hot_set_decides_salting_after_the_map_side(self):
        """Blocks keyed with every url's salt, whatever the hot set: a cold
        partition's S salted sub-runs form one group keyed ``pkey * S``
        (one slice per block), a hot partition forms S groups (a salt
        without rows, an empty one), and every row lands exactly once."""
        from gene_etl_ray.pipelines.ingest import _bucket_groups, _bucket_of, _bucket_sort

        S, R = 4, 3
        cold = [1 * S + s for s in range(S)] + [5 * S, 5 * S + 3]
        hot = [2 * S + s for s in range(S)] + [3 * S + 1, 3 * S + 2]
        rng = np.random.default_rng(3)
        blocks = [
            _bucket_sort(self._block(rng.permutation(cold * 2 + hot).tolist(), 100 * i))
            for i in range(3)
        ]
        out = {r: _bucket_groups(blocks, r, S, R, {2, 3}) for r in range(R)}
        groups = {k: g for keyed in out.values() for k, g in keyed}
        assert sorted(groups) == [1 * S, 2 * S, 2 * S + 1, 2 * S + 2, 2 * S + 3,
                                  3 * S, 3 * S + 1, 3 * S + 2, 3 * S + 3, 5 * S]
        for r, keyed in out.items():
            assert all(int(_bucket_of(np.array([k]), S, R)[0]) == r for k, _ in keyed)
        for p in (1, 5):
            g = groups[p * S]
            assert set(g.column("gkey").to_pylist()) == {k for k in cold if k // S == p}
            assert g.column("gkey").num_chunks == len(blocks)  # one slice per block
        for k in (2 * S, 2 * S + 1, 2 * S + 2, 2 * S + 3, 3 * S + 1, 3 * S + 2):
            assert set(groups[k].column("gkey").to_pylist()) == {k}
        assert groups[3 * S].num_rows == groups[3 * S + 3].num_rows == 0
        rows = [x for g in groups.values() for x in g.column("row").to_pylist()]
        assert sorted(rows) == sorted(x for b in blocks for x in b.column("row").to_pylist())
        assert all(g.schema.metadata is None for g in groups.values())

    def test_stored_rows_keep_only_the_task_salts(self, tmp_path):
        """A copy-on-write merge task reads a stored partition a row group
        at a time: for a hot partition it keeps only the salts it merges,
        each row in its own salt's group; a cold partition's rows all go
        to its one group."""
        import pyarrow.parquet as pq

        from gene_etl_ray.pipelines.ingest import _make_lake_side_stage, _stored_rows
        from gene_etl_ray.schema import EVENT_SCHEMA, lake_schema_for

        S = 4
        target = lake_schema_for(EVENT_SCHEMA)
        urls = [f"http://h{i % 7}.example/{i}" for i in range(300)]
        files = []
        for j, part in enumerate((urls[:170], urls[170:])):
            f = str(tmp_path / f"f{j}.parquet")
            pq.write_table(
                conform_table(pa.table({"url": pa.array(part, pa.string())}), target),
                f, row_group_size=40,
            )
            files.append(f)
        _, gk = group_keys(np.array(urls, dtype=object), 1, S)
        stage = _make_lake_side_stage(EngineConfig(lake_dir=str(tmp_path), num_partitions=1,
                                                   salt_factor=S), target)
        got = _stored_rows(files, stage, [1, 3], salted=True)
        assert sorted(got) == [1, 3]
        for g, pieces in got.items():
            assert all(p.num_rows <= 40 for p in pieces)  # one row group's share
            assert sorted(u for p in pieces for u in p.column("url").to_pylist()) == sorted(
                u for u, k in zip(urls, gk) if k == g
            )
            assert all(set(p.column("gkey").to_pylist()) == {g} for p in pieces)
        (cold,) = _stored_rows(files, stage, [0], salted=False).values()
        assert sorted(u for p in cold for u in p.column("url").to_pylist()) == sorted(urls)

    def test_read_units_floor_cap_and_whole_row_groups(self, tmp_path, monkeypatch):
        """Unit planning: one unit under ``READ_UNIT_MIN_BYTES``; above it
        at most ``2 * cpus`` units, none over ``READ_UNIT_BYTES`` unless it
        is one row group; every row group in exactly one unit, in order."""
        import pyarrow.parquet as pq

        import gene_etl_ray.pipelines.ingest as ing

        files = []
        for j, rows in enumerate((700, 300, 1000)):
            f = str(tmp_path / f"epoch={j:05d}.parquet")
            t = pa.table({"x": pa.array(np.arange(rows) * (j + 1), pa.int64())})
            pq.write_table(t, f, row_group_size=100)
            files.append(f)
        footers = [pq.read_metadata(f) for f in files]
        rgs = [(f, i) for f, md in zip(files, footers) for i in range(md.num_row_groups)]
        size = {(f, i): md.row_group(i).total_byte_size
                for f, md in zip(files, footers) for i in range(md.num_row_groups)}
        decoded = sum(size.values())

        def plan(cpus):
            units, got = ing._read_units(files, footers, cpus)
            assert got == decoded
            assert [rg for u in units for rg in u] == rgs
            return units

        monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", decoded + 1)
        assert [len(plan(c)) for c in (1, 2, 8)] == [1, 1, 1]
        monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", decoded // 6)
        assert [len(plan(c)) for c in (1, 2, 3, 8)] == [2, 4, 6, 6]
        monkeypatch.setattr(ing, "READ_UNIT_MIN_BYTES", 0)
        assert len(plan(8)) == 16
        cap = 3 * max(size.values())
        monkeypatch.setattr(ing, "READ_UNIT_BYTES", cap)
        for cpus in (1, 4):
            units = plan(cpus)
            assert len(units) <= max(2 * cpus, -(-decoded // cap) + 1)
            assert all(sum(size[rg] for rg in u) <= cap for u in units)
        monkeypatch.setattr(ing, "READ_UNIT_BYTES", 1)
        assert plan(1) == [[rg] for rg in rgs]  # never split a row group


class TestLateMergeExtraction:
    """The merge exchange's fused late extraction, called directly on a
    hand-built group (one partition, one merge key)."""

    def test_merge_extracts_winners_only(self, tmp_path):
        import pyarrow.parquet as pq

        from gene_etl_ray.pipelines.ingest import HTML_SIDE_COLUMN, _make_merge_fn
        from gene_etl_ray.schema import EVENT_SCHEMA, lake_schema_for

        target = lake_schema_for(EVENT_SCHEMA)
        old_html, new_html = b"<p>old</p>", b"<p>new <b>body</b> &amp; more</p>"
        rows = [
            # url, warc_ts, text, seq, is_deleted, html
            ("http://a/", 100, None, 0, False, old_html),
            ("http://a/", 200, None, 1, False, new_html),  # winner of a
            ("http://b/", 100, None, 2, False, b"<p>gone</p>"),
            ("http://b/", 300, None, 3, True, None),  # tombstone winner
            ("http://c/", 100, "given", 4, False, b"<p>other</p>"),
            ("http://d/", 50, "stored", 5, False, None),  # cow lake-side row
        ]
        cols = list(zip(*rows))
        n = len(rows)
        group = pa.table(
            {
                "url": pa.array(cols[0], pa.string()),
                "warc_ts": pa.array(cols[1], pa.timestamp("us")),
                "text": pa.array(cols[2], pa.string()),
                "lang": pa.nulls(n, pa.string()),
                "seq": pa.array(cols[3], pa.int64()),
                "epoch": pa.array([0] * n, pa.int32()),
                "pkey": pa.array([0] * n, pa.int32()),
                "is_deleted": pa.array(cols[4], pa.bool_()),
                HTML_SIDE_COLUMN: pa.array(cols[5], pa.binary()),
                "gkey": pa.array([0] * n, pa.int64()),
            }
        )
        assert group.schema.names[:-2] == target.names

        out = _make_merge_fn(str(tmp_path), commit_epoch=0)(group, 0, 0)
        assert out.column("rows").to_pylist() == [4]
        written = pq.read_table(out.column("path")[0].as_py())
        assert HTML_SIDE_COLUMN not in written.column_names
        assert written.schema.names == target.names
        text = dict(zip(written.column("url").to_pylist(),
                        written.column("text").to_pylist()))
        assert text == {
            "http://a/": extract_text(new_html),
            "http://b/": None,
            "http://c/": "given",
            "http://d/": "stored",
        }
        assert written.column("is_deleted").to_pylist() == [False, True, False, False]

    def test_keep_html_crosses_exchange_once(self, tmp_path):
        """A lake that stores html ships it into the exchange once, from
        the event side and the cow lake side alike: as the side column,
        in the lake column's place. The merge extracts the winners and
        writes the column back as ``html``."""
        import pyarrow.parquet as pq

        from gene_etl_ray.pipelines.ingest import (
            HTML_SIDE_COLUMN,
            _events_to_lake,
            _make_lake_side_stage,
            _make_merge_fn,
        )
        from gene_etl_ray.schema import EVENT_SCHEMA, lake_schema_for

        target = lake_schema_for(EVENT_SCHEMA, keep_html=True)
        new_html = b"<p>new <b>body</b></p>"
        events = pa.table(
            {
                "url": pa.array(["http://a/", "http://a/"], pa.string()),
                "warc_ts": pa.array([100, 200], pa.timestamp("us")),
                "html": pa.array([b"<p>old</p>", new_html], pa.binary()),
                "text": pa.nulls(2, pa.string()),
                "lang": pa.nulls(2, pa.string()),
                "op": pa.array(["I", "U"], pa.string()),
                "seq": pa.array([0, 1], pa.int64()),
                "epoch": pa.array([1, 1], pa.int32()),
                "pkey": pa.array([0, 0], pa.int32()),
                "gkey": pa.array([0, 0], pa.int64()),
            }
        )
        stored = conform_table(
            pa.table(
                {
                    "url": pa.array(["http://b/"], pa.string()),
                    "warc_ts": pa.array([50], pa.timestamp("us")),
                    "html": pa.array([b"<p>kept</p>"], pa.binary()),
                    "text": pa.array(["kept"], pa.string()),
                    "seq": pa.array([7], pa.int64()),
                    "epoch": pa.array([0], pa.int32()),
                    "pkey": pa.array([0], pa.int32()),
                    "is_deleted": pa.array([False], pa.bool_()),
                }
            ),
            target,
        )
        ev = _events_to_lake(events, target)
        cfg = EngineConfig(lake_dir=str(tmp_path), num_partitions=1)
        old = _make_lake_side_stage(cfg, target, pa.binary())(stored)
        side = [HTML_SIDE_COLUMN if c == "html" else c for c in target.names]
        assert ev.schema.names == old.schema.names == side + ["gkey"]
        assert ev.schema == old.schema

        out = _make_merge_fn(str(tmp_path), commit_epoch=1, keep_html=True)(
            pa.concat_tables([ev, old]), 0, 0
        )
        written = pq.read_table(out.column("path")[0].as_py())
        assert written.schema.names == target.names
        got = {
            r["url"]: (r["html"], r["text"]) for r in written.to_pylist()
        }
        assert got == {
            "http://a/": (new_html, extract_text(new_html)),
            "http://b/": (b"<p>kept</p>", "kept"),
        }


class TestBenchmarkTooling:
    def test_span_targets_resolve(self):
        """The benchmark's tracer wraps engine functions by name
        (``perfbench/spans.py`` ``TARGETS``). Each must stay bound, even
        one the engine's readers no longer call, or a traced run breaks
        where an untraced one passes. The module is compiled from its
        source, so no bytecode is written beside it."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spans = {"__name__": "perfbench_spans", "__file__": str(path)}
        exec(compile(path.read_text(), str(path), "exec"), spans)
        missing = [name for owner, attr, name in spans["TARGETS"]
                   if not callable(getattr(owner, attr, None))]
        assert len(spans["TARGETS"]) > 10 and missing == []
