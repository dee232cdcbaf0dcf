"""The traced benchmark run (``perfbench/layers.py``) wraps functions and
methods of the package by name. If a refactor renames or deletes one, its
per-layer metric silently reads "not called"; these checks fail instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    # layers.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for owner, attr, name in layers.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # wire.reassembly.slots_max reads len() of the buffer
    assert "__len__" in vars(layers.ReassemblyBuffer)
