"""tools/check_queries.py --against: the hash comparison behind a
refactor's bit-equality proof."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tools.check_queries import hash_diffs  # noqa: E402

BASE = {"a": [3, "h1"], "b": [5, "h2"], "entry()": [45, "h3"]}


def test_equal_maps_have_no_diffs():
    assert hash_diffs(BASE, dict(BASE), full=True) == []


def test_changed_and_new_entries_are_diffs():
    now = {"a": [3, "h1"], "b": [5, "hX"], "c": [1, "h4"],
           "entry()": [45, "h3"]}
    assert hash_diffs(BASE, now, full=True) == [
        "DIFF b: base=[5, 'h2'] now=[5, 'hX']",
        "DIFF c: base=None now=[1, 'h4']"]


def test_gone_entry_is_a_diff_on_a_full_run_only():
    now = {"a": [3, "h1"], "entry()": [45, "h3"]}
    assert hash_diffs(BASE, now, full=True) == ["GONE b"]
    # a name-filtered run compares only what it ran
    assert hash_diffs(BASE, {"a": [3, "h1"]}, full=False) == []
