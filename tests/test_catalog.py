"""docs/CATALOG.md is generated from the query registry by
tools/gen_catalog.py; adding or deleting a query must come with a
regenerated catalog."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tools.gen_catalog import CATALOG_PATH, render  # noqa: E402


def test_catalog_matches_registry():
    with open(CATALOG_PATH) as f:
        assert f.read() == render(), (
            "docs/CATALOG.md is stale: run python tools/gen_catalog.py")
