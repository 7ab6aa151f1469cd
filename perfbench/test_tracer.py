"""Self-time arithmetic and rebinding of the benchmark's tracer."""

from __future__ import annotations

import sys
import types

import pytest

from tracer import Target, Tracer

TOY = """
def leaf(x):
    clock.advance(1)
    return x

def middle(x):
    clock.advance(2)
    leaf(x)
    clock.advance(3)
    return leaf(x)

def top(x):
    middle(x)
    clock.advance(4)
    return x
"""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def toy(monkeypatch):
    clock = FakeClock()
    mod = types.ModuleType("quatorsion.toy")
    mod.clock = clock
    exec(TOY, mod.__dict__)
    # a second module that binds leaf by import, as genus2.torsion binds curve_lpoly
    alias = types.ModuleType("quatorsion.toy_alias")
    alias.leaf = mod.leaf
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    return mod, alias, clock


def test_self_time_of_nested_calls(toy):
    mod, _, clock = toy
    tracer = Tracer(clock)
    tracer.install([Target("quatorsion.toy", name) for name in ("top", "middle", "leaf")])
    tracer.active = True
    mod.top(0)
    tracer.active = False
    tracer.uninstall()

    spans = tracer.self_times()
    assert spans == {"toy.top": (1, 4.0), "toy.middle": (1, 5.0), "toy.leaf": (2, 2.0)}
    # self times add up to the root span's duration
    assert sum(own for _, own in spans.values()) == tracer.durations("toy.top") == 11.0


def test_every_binding_is_wrapped_and_restored(toy):
    mod, alias, clock = toy
    original = mod.leaf
    tracer = Tracer(clock)
    tracer.install([Target("quatorsion.toy", "leaf",
                           label=lambda args, kwargs, result: "odd" if result % 2 else "even")])
    assert alias.leaf is mod.leaf is not original
    tracer.active = True
    alias.leaf(1)
    mod.middle(2)
    tracer.active = False
    tracer.uninstall()
    assert alias.leaf is mod.leaf is original

    assert tracer.self_times() == {"toy.leaf#odd": (1, 1.0), "toy.leaf#even": (2, 2.0)}


def test_inactive_tracer_records_nothing(toy):
    mod, _, clock = toy
    tracer = Tracer(clock)
    tracer.install([Target("quatorsion.toy", "leaf")])
    mod.top(0)
    tracer.uninstall()
    assert tracer.mark() == 0 and tracer.self_times() == {}
