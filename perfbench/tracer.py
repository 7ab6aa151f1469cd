"""Spans around the public functions of the quatorsion modules.

The tracer replaces each target function with a wrapper that records a
span (name, start, end, parent) while tracing is active.  A function is
replaced in every ``quatorsion`` module whose globals bind it, because
callers reach it by module-global lookup: ``curve_lpoly`` is imported
into ``genus2.torsion`` and ``genus2.jacobian``, and ``cantor_mul`` calls
``cantor_add`` through ``genus2.jacobian``'s globals.  Methods are
replaced on their class.

Spans are kept in flat arrays (about 28 bytes each) and written out when
the benchmark ends.  A span's self time is its duration minus the
durations of its direct children; spans nest, because the benchmark
runs one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``attr`` may be ``Class.method``.

    ``label(args, kwargs, result)`` returns a suffix that splits the
    function's spans by argument or outcome (``count_points_curve#n2``).
    """

    module: str
    attr: str
    label: Callable[[tuple, dict, Any], str] | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('quatorsion.')}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        index = len(self.start)
        self.name_id.append(-1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def _close(self, index: int, name: str) -> None:
        self.end[index] = self.clock()
        self._stack.pop()
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id[index] = nid

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, base, label = self, target.name, target.label

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open()
            name = base
            try:
                result = fn(*args, **kwargs)
                if label is not None:
                    name = f"{base}#{label(args, kwargs, result)}"
                return result
            finally:
                tracer._close(index, name)

        return traced

    # -- installing ---------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Replace every target; :meth:`uninstall` puts the originals back."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "quatorsion" or name.startswith("quatorsion.")
        ]
        for target in targets:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, target))
                else:
                    new = self.wrap(raw, target)
                setattr(cls, meth, new)
                self._restore.append(functools.partial(setattr, cls, meth, raw))
                continue
            orig = getattr(owner, target.attr)
            new = self.wrap(orig, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._restore.append(functools.partial(setattr, mod, key, orig))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit a pass."""
        return len(self.start)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self time)} over spans lo..hi-1.

        Spans lo..hi-1 must be closed and hold every child of each of them.
        """
        hi = len(self.start) if hi is None else hi
        if hi <= lo:
            return {}
        dur = _column(self.end, lo, hi) - _column(self.start, lo, hi)
        parent = _column(self.parent, lo, hi).astype(np.int64)
        names = _column(self.name_id, lo, hi)
        children = np.zeros(hi - lo)
        nested = parent >= lo
        np.add.at(children, parent[nested] - lo, dur[nested])
        own = dur - children
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {
            self.names[i]: (int(calls[i]), float(totals[i]))
            for i in range(len(self.names)) if calls[i]
        }

    def durations(self, name: str, lo: int = 0, hi: int | None = None) -> float:
        """Summed duration of the spans named ``name`` in lo..hi-1."""
        hi = len(self.start) if hi is None else hi
        nid = self._ids.get(name)
        if nid is None or hi <= lo:
            return 0.0
        dur = _column(self.end, lo, hi) - _column(self.start, lo, hi)
        return float(dur[_column(self.name_id, lo, hi) == nid].sum())

    def write(self, path: Path, **meta: Any) -> None:
        """Save the spans as ``.npz``: name table, then one column per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=_column(self.name_id),
            parent=_column(self.parent),
            start=_column(self.start),
            end=_column(self.end),
            meta=np.array(json.dumps(meta)),
        )


def _column(values: array, lo: int = 0, hi: int | None = None) -> np.ndarray:
    # Slicing copies, so the growing array never exports its buffer.
    return np.frombuffer(values[lo:hi], dtype=values.typecode)
