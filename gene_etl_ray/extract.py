"""Deterministic html→text extraction (the stateful transform stage).

Reference analog: the stateful per-worker compute stage
(``correlate.py:25-33`` holds config once, heavy vectorized work per call;
``io.py:31-50`` holds connections once per worker). Here the per-worker
state is the compiled rule tables of a trafilatura-style extractor, built
once per worker process (``ingest.per_process_extractor``) and applied to
each merge group's LWW winners inside the merge task.

Determinism contract (`input_hint`: "byte-identical extracted text per
url"): the extractor is a pure function of the html bytes — fixed regex
tables, no locale, no dict-order dependence, no wall clock. The same bytes
always produce the same text bytes, in any process, on any worker. Its
output is part of the golden lake state, so the algorithm below is FROZEN;
changing it invalidates all golden fixtures (SURVEY §7 step 2).

This is stdlib-only by design (no trafilatura/bs4 in the sandbox): strip
non-content blocks (script/style/head/comments), drop tags, unescape
entities, collapse whitespace.
"""

from __future__ import annotations

import html as _htmlmod
import re

import pyarrow as pa
import pyarrow.compute as pc

_RULES: list[tuple[str, str]] = [
    # (pattern, replacement) applied in this fixed order
    (r"(?is)<!--.*?-->", " "),
    (r"(?is)<script\b.*?</script\s*>", " "),
    (r"(?is)<style\b.*?</style\s*>", " "),
    (r"(?is)<head\b.*?</head\s*>", " "),
    (r"(?is)<(?:br|/p|/div|/li|/h[1-6]|/tr)\b[^>]*>", "\n"),
    (r"(?s)<[^>]*>", " "),
]
_WS_LINE = re.compile(r"[ \t\r\f\v]+")
_WS_NL = re.compile(r"\s*\n\s*")


#: Python's str ``\s`` spelled out for RE2, whose ``\s`` is ASCII-only:
#: exactly the 29 code points of ``str.isspace`` (pinned against it over
#: every code point in tests/test_units.py).
_RE2_WS = (r"[\t-\r\x{1c}-\x{20}\x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
           r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}]")


class HtmlTextExtractor:
    """Batch callable: fills ``text`` from ``html`` where text is null.

    Built once per worker process and called on each merge group's
    winners (``ingest.per_process_extractor``). Rule tables are compiled
    once (``__init__``) and applied per batch (``__call__``).

    ``extract_one`` is the frozen per-document Python-``re`` reference
    that the single-process oracle runs; ``_extract_many`` is the batch
    path that the engine runs. Byte-identity between them is pinned by
    corpus, adversarial and code-point tests (tests/test_units.py).
    """

    def __init__(self) -> None:
        self._rules = [(re.compile(p), r) for p, r in _RULES]

    def extract_one(self, raw: bytes | None) -> str | None:
        if raw is None:
            return None
        text = raw.decode("utf-8", errors="replace")
        for rx, repl in self._rules:
            text = rx.sub(repl, text)
        text = _htmlmod.unescape(text)
        text = _WS_LINE.sub(" ", text)
        text = _WS_NL.sub("\n", text)
        return text.strip(" \n")

    def _extract_many(self, raws: list) -> pa.Array:
        """Batch extraction, byte-identical to ``extract_one`` per doc.

        The tag-rule chain and entity unescape run per doc with the
        reference Python-``re`` kernels (Python's literal-prefix
        optimization beats RE2 on these ``<``-anchored patterns, and
        unescape has no Arrow kernel), while the whitespace collapse runs
        column-wide in RE2. ``_RE2_WS`` makes its ``\\s*\\n\\s*`` match
        exactly what Python's does, so every doc takes the same path."""
        docs = []
        for raw in raws:
            if raw is None:
                docs.append(None)
                continue
            text = raw.decode("utf-8", errors="replace")
            for rx, repl in self._rules:
                text = rx.sub(repl, text)
            docs.append(_htmlmod.unescape(text))
        k = pa.array(docs, pa.string())
        # skip-identity variant of [ \t\r\f\v]+ → " ": single spaces
        # (the overwhelming majority of matches) map to themselves, so
        # exclude them from the match set entirely — output-equal, ~6×
        # fewer engine matches
        k = pc.replace_substring_regex(k, r"[ \t\r\f\v]{2,}|[\t\r\f\v]", " ")
        k = pc.replace_substring_regex(k, f"{_RE2_WS}*\n{_RE2_WS}*", "\n")
        return pc.utf8_trim(k, " \n")

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        html = batch.column("html")
        need = pc.and_(pc.is_null(text), pc.is_valid(html)).combine_chunks()
        if not pc.any(need).as_py():
            return batch
        new = self._extract_many(pc.filter(html, need).to_pylist())
        i = batch.schema.get_field_index("text")
        filled = pc.replace_with_mask(text, need, new.cast(text.type))
        return batch.set_column(i, batch.schema.field(i), filled)


def extract_text(raw: bytes | None) -> str | None:
    """One-shot pure-function form (used by the single-process oracle)."""
    return HtmlTextExtractor().extract_one(raw)
