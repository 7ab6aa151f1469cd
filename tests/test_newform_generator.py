"""Unit checks of the newform fixture generator's Hecke layer.

``scripts/gen_newform_fixtures.py`` is loaded as a module.  Its Hecke
operators come from Merel's Heilbronn matrices, so the enumerator is
checked against a brute-force filter, the index table of P^1(Z/N)
against unit scaling, the Hecke matrices against a loop over symbols
and against each other (they commute), and the whole layer against the
script's own level-11 and level-23 anchors.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gen_newform_fixtures.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("gen_newform_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_heilbronn_matrices_match_the_brute_force_filter(gen, p):
    brute = [(a, b, c, d) for a, b, c, d in itertools.product(range(p + 1), repeat=4)
             if a * d - b * c == p and a > b >= 0 and d > c >= 0]
    assert sorted(gen.heilbronn(p)) == brute


@pytest.mark.parametrize("N", [1, 12, 27, 30])
def test_p1_table_indexes_unit_classes(gen, N):
    p1 = gen.P1List(N)
    units = [t for t in range(N) if math.gcd(t, N) == 1]
    for u, v in itertools.product(range(N), repeat=2):
        i = p1.index(u, v)
        if math.gcd(math.gcd(u, v), N) != 1:
            assert i == -1
        else:
            assert any((t * u % N, t * v % N) == p1.reps[i] for t in units)
    assert len(set(p1.table.ravel()) - {-1}) == len(p1.reps)


def test_hecke_matrix_matches_the_symbol_loop(gen):
    q = next(gen.iter_working_primes())
    space = gen.ManinSpace(243, q)
    for p in (2, 5, 7):
        loop = np.zeros((space.dim, space.dim), dtype=np.int64)
        for t, j in enumerate(space.basis):
            u, v = space.p1.reps[j]
            for a, b, c, d in gen.heilbronn(p):
                loop[:, t] += space.proj[space.p1.index(u * a + v * c, u * b + v * d)]
        assert np.array_equal(loop % q, space.hecke_matrix(p))


def test_hecke_operators_commute(gen):
    q = next(gen.iter_working_primes())
    space = gen.ManinSpace(37, q)
    T = {p: space.hecke_matrix(p) for p in (2, 3, 5)}
    for p, r in itertools.combinations(T, 2):
        assert np.array_equal(T[p] @ T[r] % q, T[r] @ T[p] % q)
    assert np.any(T[2] @ T[3] % q)


def test_self_test_anchors(gen):
    gen.self_test()
