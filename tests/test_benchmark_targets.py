"""The functions the traced benchmark wraps still exist.

``perfbench/layers.py`` lists them in ``TARGETS``, and
``Tracer.install`` looks each one up with ``getattr`` on its module
(a method through its class), so a removed or renamed name stops the
traced run with an AttributeError.  This test makes the same lookups.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        owner = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            raw = vars(getattr(owner, cls_name))[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            fn = getattr(owner, target.attr)
        assert callable(fn), target
