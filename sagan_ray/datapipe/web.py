"""URL / domain operators — the crawl-side curation steps (domain
statistics, blocklist filtering) a web-scale training-data pipeline runs
before any text analysis. Beyond the reference's scope; verified against
REAL SQL oracles (DuckDB regexp kernels over the same parquet corpus),
not golden parquets.

Extraction pattern: ``https?://[a-z0-9.-]+(?:/[a-z0-9/?=._~%&-]*)?``
over lowercased
text. The pattern is alternation-free with greedy quantifiers over
disjoint EXPLICIT character classes (no negated classes — a ``[^ ]``
would swallow the flat-buffer NUL separator below), so Python ``re``
(pipeline) and RE2 (DuckDB ``regexp_extract_all``) agree byte-for-byte
on it; the synthetic corpus emits only those path characters.

The per-batch extraction is ONE compiled-regex pass over the batch's
texts joined with a ``\\x00`` separator (URLs cannot contain NUL), with
match offsets mapped back to rows via searchsorted over the join
boundaries — the same flat-buffer discipline as the CDC gear-hash pass,
no per-row Python regex calls.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

URL_RE = r"https?://[a-z0-9.-]+(?:/[a-z0-9/?=._~%&-]*)?"
_URL_COMPILED = re.compile(URL_RE)
_DOMAIN_COMPILED = re.compile(r"https?://([^/]+)")


def _extract_batch(tbl: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(doc_id, url, domain) rows for every URL occurrence in the batch,
    in document order then match order (the spec order)."""
    import pyarrow.compute as pc

    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    texts = pc.utf8_lower(tbl.column(text_col)).to_pylist()
    joined = "\x00".join(t if t is not None else "" for t in texts)
    # row boundary b[i] = start offset of row i in the joined buffer
    lens = np.array([len(t) if t is not None else 0 for t in texts],
                    dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens + 1)])[:-1]
    urls, pos = [], []
    for m in _URL_COMPILED.finditer(joined):
        urls.append(m.group(0))
        pos.append(m.start())
    if not urls:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "url": pa.array([], pa.string()),
                         "domain": pa.array([], pa.string())})
    rows = np.searchsorted(starts, np.array(pos, dtype=np.int64),
                           side="right") - 1
    domains = []
    for u in urls:
        d = _DOMAIN_COMPILED.match(u).group(1)
        domains.append(d[4:] if d.startswith("www.") else d)
    return pa.table({id_col: pa.array(ids[rows].astype(np.int64),
                                      pa.int64()),
                     "url": pa.array(urls, pa.string()),
                     "domain": pa.array(domains, pa.string())})


def extract_urls(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """documents → (doc_id, url, domain) Dataset, one row per URL
    occurrence. Text never leaves the extraction stage."""
    return ds.map_batches(lambda t: _extract_batch(t, id_col, text_col),
                          batch_format="pyarrow")


def domain_stats(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Per-domain (n_urls, n_docs): URL occurrence count and DISTINCT
    document count. Map side emits per-batch (domain, doc) distinct
    partials + occurrence counts; only those small rows cross the
    domain-keyed exchange."""
    import pandas as pd

    from .exchange import hash_group_apply

    def partial(tbl: pa.Table) -> pa.Table:
        ex = _extract_batch(tbl, id_col, text_col)
        df = ex.to_pandas()
        g = (df.groupby(["domain", id_col], sort=False, observed=True)
             .size().reset_index(name="n_urls"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("domain", sort=False, observed=True)
        out = g.agg(n_urls=("n_urls", "sum"),
                    n_docs=(id_col, "nunique")).reset_index()
        return out.astype({"n_urls": "int64", "n_docs": "int64"})

    part_schema = pa.schema([("domain", pa.string()),
                             (id_col, pa.int64()),
                             ("n_urls", pa.int64())])
    out_schema = pa.schema([("domain", pa.string()),
                            ("n_urls", pa.int64()),
                            ("n_docs", pa.int64())])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    parts = parts.map_batches(
        lambda t: t.cast(part_schema), batch_format="pyarrow")
    return hash_group_apply(parts, ["domain"], reduce_bucket,
                            out_schema=out_schema)


def domain_filter(ds, blocked, *, id_col: str = "doc_id",
                  text_col: str = "text"):
    """Documents containing NO URL from a blocked domain — the blocklist
    keep-side of crawl filtering. ``blocked`` (small) is captured as a
    frozenset in the task closure (broadcast once per worker); rows
    stream through a single map_batches, no shuffle."""
    blocked = frozenset(blocked)

    def keep(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        ex = _extract_batch(tbl, id_col, text_col)
        doc = ex.column(id_col).to_numpy(zero_copy_only=False)
        bad = pd.Series(ex.column("domain").to_pylist(),
                        dtype="object").isin(blocked).to_numpy()
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        mask = ~np.isin(ids, np.unique(doc[bad]))
        return tbl.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


# ----------------------------------------------------------------------
# deterministic synthetic web corpus
# ----------------------------------------------------------------------

def synth_web_docs(n: int, seed: int = 23) -> pa.Table:
    """n documents of word soup with 0-4 embedded URLs each: domains
    drawn hub-skewed from a 64-domain pool (t² trick — low indices are
    mega-domains), mixed http/https and bare/www-prefixed/MiXeD-case
    spellings so normalization is actually exercised. URLs are always
    space-delimited (see module docstring)."""
    from .ann import _splitmix64

    words = ["data", "scan", "batch", "query", "table", "merge", "row",
             "filter", "sort", "group", "join", "value", "stream"]
    docs = []
    h = _splitmix64(np.arange(n * 8, dtype=np.uint64)
                    + np.uint64(seed) * np.uint64(0x9E37))
    for i in range(n):
        hw = h[i * 8:(i + 1) * 8]
        n_words = 5 + int(hw[0] % np.uint64(10))
        toks = [words[int(h[(i * 7 + k) % len(h)] % np.uint64(len(words)))]
                for k in range(n_words)]
        n_urls = int(hw[1] % np.uint64(5))
        for u in range(n_urls):
            t = int(hw[2 + u] >> np.uint64(32))
            dom_ix = (t * t) >> (64 - 6)          # 0..63, hub-skewed
            scheme = "http" if int(hw[2 + u] & np.uint64(1)) else "https"
            www = "www." if int(hw[2 + u] & np.uint64(2)) else ""
            name = f"site{dom_ix}.example.com"
            if int(hw[2 + u] & np.uint64(4)):
                name = name.capitalize()          # case normalization
            path = f"/p{int(hw[2 + u] % np.uint64(97))}"
            pos = int(hw[2 + u] % np.uint64(len(toks) + 1))
            toks.insert(pos, f"{scheme}://{www}{name}{path}")
        docs.append(" ".join(toks))
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64),
                                        pa.int64()),
                     "text": pa.array(docs, pa.string())})


def _canon_urls(urls: list[str]) -> list[str]:
    """Canonical form: scheme dropped, leading ``www.`` dropped, ONE
    trailing slash dropped (exactly what the SQL oracle's three
    regexp_replace calls do — keep the two in lockstep). Input is
    already lowercased by extraction."""
    out = []
    for u in urls:
        if u.startswith("https://"):
            u = u[8:]
        elif u.startswith("http://"):
            u = u[7:]
        if u.startswith("www."):
            u = u[4:]
        if u.endswith("/"):
            u = u[:-1]
        out.append(u)
    return out


def url_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Canonical-URL dedup report — one row per canonical URL with its
    raw-spelling occurrence count, distinct-document count and first
    (min) doc_id: the crawl-frontier dedup that collapses
    http/https × www/bare × case spellings before fetch scheduling.
    Map side extracts + canonicalizes + collapses each batch to
    (canon_url, doc, n) partials; only those cross the URL-keyed
    exchange — text never shuffles. Returns
    (url, n_urls, n_docs, first_doc)."""
    import pandas as pd

    from .exchange import hash_group_apply

    def partial(tbl: pa.Table) -> pa.Table:
        ex = _extract_batch(tbl, id_col, text_col)
        df = ex.to_pandas()
        df["url"] = _canon_urls(df["url"].tolist())
        g = (df.groupby(["url", id_col], sort=False, observed=True)
             .size().reset_index(name="n"))
        return pa.Table.from_pandas(g, preserve_index=False).cast(
            pa.schema([("url", pa.string()), (id_col, pa.int64()),
                       ("n", pa.int64())]))

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("url", sort=False, observed=True)
        out = g.agg(n_urls=("n", "sum"), n_docs=(id_col, "nunique"),
                    first_doc=(id_col, "min")).reset_index()
        return out.astype({"n_urls": "int64", "n_docs": "int64",
                           "first_doc": "int64"})

    out_schema = pa.schema([("url", pa.string()), ("n_urls", pa.int64()),
                            ("n_docs", pa.int64()),
                            ("first_doc", pa.int64())])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    return hash_group_apply(parts, ["url"], reduce_bucket,
                            out_schema=out_schema)
