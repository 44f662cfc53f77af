"""Generate docs/CATALOG.md — one row per gated query in the driver
registry: name, oracle kind (SQL / golden-parquet / rows-only) and the
first docstring sentence. Run ``python tools/gen_catalog.py`` after
adding or deleting a query; the file is a derived artifact (regenerate,
don't hand-edit) and tests/test_catalog.py fails when it is stale."""
import inspect
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def first_sentence(doc: str) -> str:
    if not doc:
        return ""
    text = " ".join(line.strip() for line in doc.strip().splitlines())
    # cut at the first period followed by a space/end that is not
    # inside an abbreviation like "e.g." — simple heuristic: first
    # ". " after 20 chars, else whole text
    m = re.search(r"\.(\s|$)", text[20:])
    cut = 20 + m.start() + 1 if m else len(text)
    return text[:cut]


CATALOG_PATH = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "docs", "CATALOG.md"))


def render() -> str:
    """The full text of docs/CATALOG.md for the current registry."""
    from sagan_ray.pipelines.queries import ORACLES, QUERIES

    rows = []
    for name, fn in QUERIES.items():
        if name in ORACLES:
            sql = ORACLES[name]
            # a golden oracle is a bare SELECT over a precomputed
            # expected parquet; a SQL that RECOMPUTES the operator
            # (grouping, joins, regexps, CTEs) is a real oracle even
            # when it reads a shared input fixture under the golden dir
            recompute = any(kw in sql.upper() for kw in
                            ("GROUP BY", "JOIN", "REGEXP", "UNNEST",
                             "WITH ", "OVER (", "CASE "))
            kind = ("golden" if "/tmp/sagan_ray_golden/" in sql
                    and not recompute else "SQL")
        else:
            kind = "rows-only"
        rows.append((name, kind,
                     first_sentence(inspect.getdoc(fn)) or "\u2014"))

    n_sql = sum(1 for _, k, _ in rows if k == "SQL")
    n_gold = sum(1 for _, k, _ in rows if k == "golden")
    n_rows = sum(1 for _, k, _ in rows if k == "rows-only")
    out = ["# Query catalog (generated by tools/gen_catalog.py)", "",
           f"{len(rows)} gated queries — {n_sql} verified by a REAL "
           f"DuckDB SQL oracle, {n_gold} by an independent sequential "
           f"golden-parquet implementation, {n_rows} rows-only.",
           "", "| # | query | oracle | what it computes |",
           "|---|---|---|---|"]
    for i, (name, kind, doc) in enumerate(rows, 1):
        doc = doc.replace("|", "\\|")
        out.append(f"| {i} | `{name}` | {kind} | {doc} |")
    return "\n".join(out) + "\n"


def main():
    text = render()
    with open(CATALOG_PATH, "w") as f:
        f.write(text)
    print(f"wrote {CATALOG_PATH}")


if __name__ == "__main__":
    main()
