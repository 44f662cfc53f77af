"""The lazy export map of ``sagan_ray.datapipe``: importing the package
loads no submodule, and every exported name resolves to the object its
submodule defines."""

import importlib
import os
import subprocess
import sys

import sagan_ray.datapipe as datapipe


def test_import_loads_no_submodule():
    code = ("import sys, sagan_ray.datapipe\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('sagan_ray.datapipe.')))")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], check=True, cwd=repo,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_export_resolves():
    pairs = [(mod, name) for mod, names in datapipe._EXPORTS.items()
             for name in names.split()]
    names = [name for _, name in pairs]
    assert len(names) == len(set(names)), "a name is exported twice"
    for mod, name in pairs:
        sub = importlib.import_module(f"sagan_ray.datapipe.{mod}")
        assert getattr(datapipe, name) is getattr(sub, name), (mod, name)
    assert set(names) <= set(dir(datapipe))
