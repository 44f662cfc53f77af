"""Property-based tests (hypothesis) for the vectorized kernels that have
an independent scalar definition: batched shingle hashing, the pipe wire
parser and the polynomial fingerprint hash. These hunt the boundary
cases the fixture corpora don't reach (weird whitespace, short docs,
malformed fields)."""

from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

# text without newlines (wire lines) and without surrogates
_line_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n\r"),
    max_size=60)
_doc_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120)


@settings(max_examples=60, deadline=None)
@given(st.lists(_doc_text, max_size=12), st.integers(2, 5))
def test_shingle_batch_equals_single(texts, k):
    """The batch kernel must agree with itself called one text at a time
    (doc-boundary handling, empty/short docs, unicode whitespace)."""
    from sagan_ray.datapipe.dedup import _shingle_hashes_batch

    batch = _shingle_hashes_batch(texts, k)
    for t, got in zip(texts, batch):
        want = _shingle_hashes_batch([t], k)[0]
        assert np.array_equal(got, want), (t, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["conv-1", "c", ""]),                     # conv
        st.sampled_from(["0", "17", "x", "-3", "", "3.5", "1_000",
                         "+7", "99999999999999999999",
                         "-9223372036854775808", "-2147483648"]),  # turn
        _line_text,                                               # role
        _line_text,                                               # tool
        st.one_of(                                                # ts
            st.datetimes(min_value=datetime(1990, 1, 1),
                         max_value=datetime(2100, 1, 1)).map(
                lambda d: d.replace(microsecond=0).isoformat()),
            st.integers(0, 2 ** 31).map(str),
            st.text(alphabet="abcdef ", max_size=8)),
        _line_text,                                               # text
        st.booleans()),                                           # truncate
    max_size=10))
def test_pipe_parser_matches_scalar_reference(rows):
    """Vectorized pipe parse ≡ a straightforward per-row reference."""
    from sagan_ray.sources.wire import (
        _SENTINEL_TS,
        PIPE_FIELDS,
        _parse_ts,
        parse_pipe_batch,
    )

    lines = []
    for conv, turn, role, tool, ts, text, truncate in rows:
        line = "|".join([conv, turn, role, tool, ts, text])
        if truncate:
            line = line.rsplit("|", 2)[0]      # drop fields → malformed
        lines.append(line)
    tbl = pa.table({"text": pa.array(lines, pa.large_string())})
    got = parse_pipe_batch(tbl).to_pylist()

    for line, g in zip(lines, got):
        parts = line.split("|", PIPE_FIELDS - 1)
        if len(parts) != PIPE_FIELDS:
            assert g["malformed"] and g["text"] == line
            continue
        import re as _re

        bad = False
        # the parser's documented turn spec: plain ASCII integer literal
        # within int32 range (stricter than python int())
        if _re.fullmatch(r"[+-]?\d+", parts[1]) and \
                -2 ** 31 <= int(parts[1]) <= 2 ** 31 - 1:
            turn = int(parts[1])
        else:
            turn, bad = 0, True
        t = _parse_ts(parts[4])
        if t is None:
            t, bad = _SENTINEL_TS, True
        assert g["conv_id"] == parts[0]
        assert g["turn_idx"] == turn
        assert g["role"] == parts[2]
        assert g["tool"] == parts[3]
        assert g["text"] == parts[5]
        assert g["malformed"] == bad
        if not bad:
            assert abs((g["ts"] - t) / timedelta(seconds=1)) < 1e-3, line


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_poly_hash_equals_per_byte_fold(data):
    """The vectorized dot-product polynomial hash must equal the scalar
    left-fold definition h = (h·p + b) mod 2^64."""
    from sagan_ray.datapipe.textstats import _POLY_P, _POLY_SEED, _poly_hash

    h = int(_POLY_SEED)
    for b in data:
        h = (h * int(_POLY_P) + b) & 0xFFFFFFFFFFFFFFFF
    assert _poly_hash(data) == h


_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=30))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fixed_dictionaries(
    {},
    optional={
        "conv_id": st.text(max_size=12),
        "turn_idx": _json_scalar,
        "role": st.text(max_size=8),
        "tool": _json_scalar,
        "ts": st.one_of(st.text(max_size=25), st.integers(0, 2**33)),
        "text": st.text(max_size=40),
        "extra": st.dictionaries(st.text(max_size=5), _json_scalar,
                                 max_size=2),
    }), min_size=1, max_size=20))
def test_json_wire_fast_path_never_diverges(objs):
    """Whatever shape a JSON-lines batch takes, the public parse —
    which may or may not engage the pyarrow.json fast path — must equal
    the per-row spec loop byte for byte."""
    import json as _json

    import sagan_ray.sources.wire as w

    lines = [_json.dumps(o) for o in objs]
    tbl = pa.table({"text": pa.array(lines, pa.large_string())})
    got = w.parse_json_batch(tbl)
    orig = w._fast_map_ok
    w._fast_map_ok = lambda f: False
    try:
        want = w.parse_json_batch(tbl)
    finally:
        w._fast_map_ok = orig
    assert got.equals(want)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.text(alphabet="abcx", min_size=1, max_size=6),
    st.integers(1, 5), max_size=8),
    st.integers(0, 12))
def test_bpe_train_encode_against_naive(freq, n_merges):
    """train_bpe/encode_len vs an independent naive re-derivation:
    after training, re-applying the merges in rank order to each vocab
    word must reproduce the trained vocab states, and encode_len must
    equal that replay's length (the greedy-lowest-rank loop equals
    in-order replay when merges came from training on this vocab)."""
    from sagan_ray.datapipe.bpe import _merge_pass, encode_len, train_bpe

    merges = train_bpe(freq, n_merges)
    ranks = {p: r for r, p in enumerate(merges)}
    for w in freq:
        if not w:
            continue
        syms = list(w)
        for pair in merges:          # in-order replay of training merges
            syms = _merge_pass(syms, pair)
        assert encode_len(w, ranks) == len(syms), (w, merges)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=8),
                min_size=1, max_size=6),
       st.lists(st.tuples(st.sampled_from(["a", "b", "ab", "ba", "aa"]),
                          st.sampled_from(["a", "b", "ab", "ba", "aa"])),
                max_size=4))
def test_bpe_encode_merge_invariants(words, merges):
    """encode under an ARBITRARY merges table: token count is within
    [1, len(word)] and deterministic across calls."""
    from sagan_ray.datapipe.bpe import encode_len

    ranks = {}
    for p in merges:
        ranks.setdefault(p, len(ranks))
    for w in words:
        n1 = encode_len(w, ranks)
        assert 1 <= n1 <= len(w)
        assert n1 == encode_len(w, ranks)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2),            # conv code
                          st.integers(0, 2)),           # role code
                max_size=20))
def test_adjacent_pairs_matches_sequential(rows):
    """Vectorized shifted-mask pair extraction ≡ a per-conv sequential
    scan (conv boundaries, role exactness, turn order)."""
    import pyarrow as pa

    from sagan_ray.pipelines.aggregates import adjacent_pairs

    # unique turn_idx per conv in input order
    seen: dict = {}
    convs, turns, roles, texts = [], [], [], []
    for c, r in rows:
        t = seen.get(c, 0)
        seen[c] = t + 1
        convs.append(f"c{c}")
        turns.append(t)
        roles.append(f"r{r}")
        texts.append("x" * (t + 1))
    tbl = pa.table({"conv_id": pa.array(convs),
                    "turn_idx": pa.array(turns, pa.int32()),
                    "role": pa.array(roles),
                    "text": pa.array(texts)})

    import ray.data as rd
    out = adjacent_pairs(rd.from_arrow(tbl), prev_role="r0",
                         next_role="r1").to_pandas()
    # all-empty Dataset.to_pandas() loses columns — treat as empty set
    got = (set(zip(out["conv_id"], out["turn_idx"].astype(int)))
           if len(out) else set())

    want = set()
    by_conv: dict = {}
    for c, t, r in zip(convs, turns, roles):
        by_conv.setdefault(c, []).append((t, r))
    for c, lst in by_conv.items():
        lst.sort()
        for (pt, pr), (nt, nr) in zip(lst, lst[1:]):
            if pr == "r0" and nr == "r1":
                want.add((c, nt))
    assert got == want


_metric_text = st.text(
    alphabet=st.sampled_from("ab xy\t\né"), max_size=30)


@settings(max_examples=40, deadline=None)
@given(st.lists(_metric_text, min_size=1, max_size=8))
def test_metric_identity_and_bounds(texts):
    """Metric-family invariants on arbitrary (incl. non-ASCII,
    whitespace-heavy, empty) text: scoring a row against ITSELF gives
    BLEU 1/WER 0/chrF 1 whenever the row has content, and every score
    stays in its documented range."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import (bleu_scores, chrf_scores,
                                          wer_scores)

    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "ref": pa.array(texts, pa.string()),
        "cand": pa.array(texts, pa.string())})
    ds = rd.from_arrow(tbl)
    b = (bleu_scores(ds, ref_col="ref", cand_col="cand").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    w = (wer_scores(rd.from_arrow(tbl), ref_col="ref",
                    cand_col="cand").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    c = (chrf_scores(rd.from_arrow(tbl), ref_col="ref",
                     cand_col="cand").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    for i, t in enumerate(texts):
        has_words = len(t.split()) > 0
        has_bytes = len("".join(t.split())) > 0
        assert w.loc[i, "dist"] == 0
        assert w.loc[i, "wer"] == 0.0
        if has_words:
            assert b.loc[i, "bleu"] == 1.0
        else:
            assert b.loc[i, "bleu"] == 0.0
        if has_bytes:
            assert c.loc[i, "chrf"] == 1.0
        else:
            assert c.loc[i, "chrf"] == 0.0
    assert ((b["bleu"] >= 0) & (b["bleu"] <= 1)).all()
    assert ((c["chrf"] >= 0) & (c["chrf"] <= 1)).all()
    assert (w["wer"] >= 0).all()


# content literals over case-fold hazards: U+212A KELVIN SIGN lowercases
# to "k" and RE2 folds it to "k"; RE2 folds "s" ↔ U+017F LONG S, which
# str.lower leaves alone; U+0130 lowercases to "i" + U+0307; dotless ı,
# ß and ẞ fold to nothing ASCII
_FOLD_TOKENS = ["\u212a", "\u017f", "\u0131", "\u0130", "\u00df", "\u1e9e",
                "\u00e9", "\u00c9", "K", "k", "S", "s", "login", " failed",
                "LOGIN", "ecret", "ELVIN", "stanbul", "tra", "aa", " ",
                "r\u00e9sum\u00e9"]
_FOLD_LITERALS = ["login", "login failed", "failed", "secret", "kelvin",
                  "istanbul", "stanbul", "strasse", "aaa", "r\u00e9sum\u00e9",
                  "ss", "\u00df", "\u0130stanbul"]
_WINDOWS = [(0, None), (2, None), (0, 9), (3, 14)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_FOLD_TOKENS), max_size=8).map("".join),
                min_size=1, max_size=12))
@example(["\u212aELVIN \u212a", "\u017fecret", "\u0130stanbul \u0131stanbul",
          "stra\u00dfe STRASSE", "xx login failed login", "LOGIN FAILED", "",
          "aaaa", "R\u00c9SUM\u00c9 r\u00e9sum\u00e9"])
def test_literal_masks_are_exact(texts):
    """Every content mask, from the batch's multi-pattern literal pass or
    from the per-literal kernel, equals ``match_stateless``'s own test
    (``p in win``, or ``p.lower() in win.lower()`` under nocase) on every
    row, for every window; it equals Arrow's ``match_substring`` wherever
    case folding cannot differ (case-sensitive atoms, ASCII rows). A
    regex's literal prefilter keeps every row RE2 can match."""
    import pyarrow.compute as pc

    from sagan_ray.rules import parse_rules
    from sagan_ray.stages.classify import RuleClassifier, _BatchCtx

    rules = parse_rules("\n".join(
        f'alert any any any -> any any (msg:"l"; content:"{p}";{nc} '
        f'sid:{100 + 2 * i + bool(nc)};)'
        for i, p in enumerate(_FOLD_LITERALS) for nc in ("", " nocase;")))
    cls = RuleClassifier(rules)
    assert {"login", "login failed", "secret"} <= set(cls.literals.cs)
    assert "\u00df" not in cls.literals.cs and "ss" not in cls.literals.ci

    n = len(texts)
    col = pa.array(texts, pa.large_string())
    ctx = _BatchCtx(col, np.full(n, "user", dtype=object),
                    np.full(n, "", dtype=object), np.zeros(n, np.int64),
                    cls.literals)
    ascii_rows = np.array([t.isascii() for t in texts])
    for p in _FOLD_LITERALS:
        for start, stop in _WINDOWS:
            wins = [t[start:stop] for t in texts]
            sliced = pa.array(wins, pa.large_string())
            for nocase in (False, True):
                got = ctx.content_mask(False, start, stop, p, nocase)
                spec = [(p.lower() in w.lower()) if nocase else (p in w)
                        for w in wins]
                assert got.tolist() == spec, (p, start, stop, nocase, texts)
                re2 = pc.match_substring(sliced, p, ignore_case=nocase
                                         ).to_numpy(zero_copy_only=False)
                same = ascii_rows & p.isascii() if nocase else np.full(n, True)
                assert (got[same] == re2[same]).all(), (p, start, stop, texts)
                if start == 0 and stop is None:
                    cand = ctx.literal_hits(False, 0, None, p, nocase)
                    if nocase:
                        cand = cand | ctx.fold_rows(False, p)
                    assert not (re2 & ~cand).any(), (p, nocase, texts)


# IP hazards for the column extractor: leading-zero and >255 octets,
# dotted runs too long or too short, a word or ':' glued before, ports
# past 65535, the other port styles, v6 in all its shapes, non-ASCII
# digits, the \x1c that re's \s takes and RE2's does not
_IP_TOKENS = ["1.2.3.4", "10.13.7.7", "01.2.3.4", "1.2.3.04", "256.1.2.3",
              "1.2.3.255", "0.0.0.0", "1.2.3.4.5", "1.2.3", "a:1.2.3.4",
              "x1.2.3.4", "1.2.3.4x", "_1.2.3.4", ".1.2.3.4", "1.2.3.4.",
              "1.2.3.4:", ":80", ":65535", ":65536", ":123456", ":0", ":x",
              "[fe80::1]:80", "[::1]", "::ffff:1.2.3.4", "fe80::1", "a:b:c",
              "12:34", "#443", " port 53", "port", "١.٢.٣.٤",
              "\x1cport 7", "\x1c", "é", " ", ",", "/", "-", "=", "(", "\t",
              "\n", "beacon to"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_IP_TOKENS), max_size=10).map("".join),
                min_size=1, max_size=12))
@example(["from 1.2.3.4:22 to 5.6.7.8:99999 and 01.2.3.4 or 256.0.0.1",
          "ver 1.2.3.4.5 a:1.2.3.4 [fe80::1]:80",
          "::ffff:1.2.3.4 x", "5.6.7.8#443", "9.9.9.9 port 53",
          "١.٢.٣.٤ 1.2.3.4", "1.2.3.4\x1cport 7",
          " ".join(f"10.0.{i}.1:{i}" for i in range(40)),
          "1.2.3.4:80:90 x 1.2.3.4:8x", "no ip here"])
def test_ip_columns_equal_extract_ips(texts):
    """On every row ``ip_columns`` calls regular, its count, IPs, ports
    and int values are ``extract_ips``'s; the rows it does not call
    regular are exactly the ones the spec's shortcut must not decide
    (non-ASCII, ``[``, ``#``, ``port``, or ``:`` hex{0,4} ``:``)."""
    import ipaddress
    import re

    from sagan_ray.functions.ip import MAX_PARSE_IP, extract_ips, ip_columns

    for width in (MAX_PARSE_IP, 2):
        cols = ip_columns(pa.array(texts, pa.large_string()), width)
        for i, t in enumerate(texts):
            hazard = (not t.isascii() or "[" in t or "#" in t or "port" in t
                      or re.search(r":[0-9A-Fa-f]{0,4}:", t) is not None)
            assert cols.regular[i] == (not hazard), t
            if hazard:
                continue
            want = extract_ips(t)
            assert cols.count[i] == len(want), (t, want)
            got = [(cols.ips[i, k], int(cols.ports[i, k]))
                   for k in range(min(width, len(want)))]
            assert got == want[:width], (t, want)
            for k, (ip, _) in enumerate(want[:width]):
                assert cols.v4[i, k] == int(ipaddress.ip_address(ip))
            assert (cols.v4[i, len(want):] == -1).all()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(
    ["d" * 32, "D" * 31, "e" * 40, "F" * 64, "a" * 65, "0", "g", " ", "-",
     "\n", "é", "١"]), max_size=8).map("".join), min_size=1,
    max_size=10))
def test_hash_columns_equal_extract_hashes(texts):
    """``hash_columns`` gives every row's ``extract_hashes``."""
    from sagan_ray.functions.textutil import extract_hashes, hash_columns

    cols = hash_columns(pa.array(texts, pa.large_string()))
    for i, t in enumerate(texts):
        assert {k: v[i] for k, v in cols.items()} == extract_hashes(t), t


# event_id heads: the whitespace that re's \s takes and RE2's does not
# (\v, \x1c-\x1f, \x85, U+3000, NBSP), and digits that only re's \d takes
_EID_TOKENS = ["4625", "4625:", ":", " ", "\t", "\n", "\v", "\x1c", "\x1f",
               "\x85", "　", "\xa0", "٤٦٢٥:", "x",
               "46250", "é", "12345678901:"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_EID_TOKENS), max_size=6).map("".join),
                min_size=1, max_size=12))
@example(["x\x1c4625: y", "x\v4625: y", "x\x854625: y", "x　4625: y",
          "٤٦٢٥: y", "4625: plain", "a 4625:b",
          "abcdefghij 4625:"])
def test_classifier_event_id_equals_match_stateless(texts):
    """A rule gated on ``event_id`` alone: the classifier's verdict is
    ``match_stateless``'s on every row, hazard heads included."""
    from sagan_ray.config import Lookups
    from sagan_ray.oracle.evaluator import RowCache, match_stateless
    from sagan_ray.rules import parse_rules
    from sagan_ray.stages.classify import RuleClassifier

    rules = parse_rules(
        'alert any any any -> any any (msg:"e"; event_id: 4625; sid:1;)')
    n = len(texts)
    tbl = pa.table({
        "conv_id": ["c"] * n, "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["user"] * n, "text": pa.array(texts, pa.large_string()),
        "tool": [""] * n, "ts": pa.array([0] * n, pa.timestamp("us"))})
    got = sorted(RuleClassifier(rules)(tbl).column("turn_idx").to_pylist())
    want = [i for i, t in enumerate(texts) if match_stateless(
        rules.rules[0], RowCache(t, "user", "", 0), Lookups()) is not None]
    assert got == want, texts


# pcre hazards: characters re's \w, \d and \s take and RE2's do not, a
# trailing newline before $, and case folds RE2 and re disagree on
# (U+0130 folds to i in re only, in the text and in the pattern, where
# it reaches ASCII text)
_PCRE_RULES = [r"/on \w+/", r"/\d/", r"/a\sb/", r"/a$/",
               r"/ERROR: \w+ timeout/", r"/istanbul/i", "/\u0130stanbul/i",
               r"/\bé/"]
_PCRE_TOKENS = ["on ", "İstanbul", "istanbul", "x", "٣", "3", "a", "b",
                " ", "\v", "\x1c", "\x1f", "\x85", "\n", "ERROR: ",
                " timeout", "é"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_PCRE_TOKENS), min_size=1,
                         max_size=6).map("".join), min_size=1, max_size=12))
@example(["on İstanbul", "٣", "a\vb", "a\x1cb", "a\n", "on x",
          "ERROR: é timeout", "İSTANBUL", "kelvin", "x é"])
def test_classifier_pcre_equals_match_stateless(texts):
    """Rules gated on one RE2-compilable pcre each: the classifier's
    verdict is ``match_stateless``'s on every row, hazard rows included."""
    from sagan_ray.config import Lookups
    from sagan_ray.oracle.evaluator import RowCache, match_stateless
    from sagan_ray.rules import parse_rules
    from sagan_ray.stages.classify import RuleClassifier

    rules = parse_rules("\n".join(
        f'alert any any any -> any any (msg:"p"; pcre:"{p}"; sid:{i + 1};)'
        for i, p in enumerate(_PCRE_RULES)))
    n = len(texts)
    tbl = pa.table({
        "conv_id": ["c"] * n, "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["user"] * n, "text": pa.array(texts, pa.large_string()),
        "tool": [""] * n, "ts": pa.array([0] * n, pa.timestamp("us"))})
    out = RuleClassifier(rules, list_form=False)(tbl)
    got = sorted(zip(out.column("sid").to_pylist(),
                     out.column("turn_idx").to_pylist()))
    want = sorted((r.sid, i) for r in rules.rules
                  for i, t in enumerate(texts) if match_stateless(
                      r, RowCache(t, "user", "", 0), Lookups()) is not None)
    assert got == want, texts
