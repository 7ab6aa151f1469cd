"""J(F_p) at the 107 good p <= 100 of the five table curves, pinned.

Each entry is (order, invariants, 2-rank): 74 structures are proved,
and 33 are left open (None), at primes where the sextic has no root mod
p.  The probes draw from a seeded RNG, so the table is checked at two
seeds, with ``odd_degree_model`` refusing to run: no entry needs the
quintic model.

J(F_p) is pinned also where the quintic is the only model: 22 seeded
random curves at p <= 17 where every value of f mod p is 0 or a square,
so that there is no inert sextic, and f has a root.  Twelve of them are
probed on the quintic; the rest are settled by the order and rank
bounds alone.
"""

from __future__ import annotations

import pytest

from quatorsion.exact import poly_eval
from quatorsion.genus2 import jacobian
from quatorsion.genus2.curve import GenusTwoCurve, good_primes
from quatorsion.genus2.jacobian import JacobianGroup, jacobian_group_mod_p
from quatorsion.genus2.torsion import table_curves

TABLE = table_curves()

# curve index in the table -> {p: (order, invariants, 2-rank)}
GROUPS = {
    0: {7: (62, (62,), 1), 11: (124, (2, 62), 2), 13: (178, (178,), 1),
        17: (266, (266,), 1), 19: (484, (22, 22), 2), 23: (494, (494,), 1),
        29: (880, (2, 2, 2, 110), 4), 37: (1426, (1426,), 1), 41: (1684, (2, 842), 2),
        43: (1918, (1918,), 1), 47: (2206, (2206,), 1), 53: (2714, (2714,), 1),
        59: (3520, (2, 2, 4, 220), 4), 61: (4624, (2, 2, 34, 34), 4),
        67: (4622, (4622,), 1), 71: (5164, (2, 2582), 2), 73: (5474, (5474,), 1),
        79: (5476, (74, 74), 2), 83: (6814, (6814,), 1), 89: (8080, (2, 2, 2, 1010), 4),
        97: (9442, (9442,), 1)},
    1: {5: (24, (2, 2, 6), 3), 7: (36, (6, 6), 2), 11: (100, (10, 10), 2),
        17: (196, (14, 14), 2), 19: (676, (26, 26), 2), 23: (528, (2, 2, 132), 3),
        29: (676, (26, 26), 2), 31: (1444, (38, 38), 2), 37: (1396, (2, 698), 2),
        41: (1752, (2, 2, 438), 3), 43: (1888, (2, 4, 236), 3), 47: (3364, (58, 58), 2),
        53: (2116, (46, 46), 2), 59: (4900, (70, 70), 2), 61: (3136, (2, 2, 28, 28), 4),
        67: (4900, (70, 70), 2), 71: (6724, (82, 82), 2), 73: (5284, (2, 2642), 2),
        79: (6208, (2, 4, 776), 3), 83: (6724, (82, 82), 2), 89: (8088, (2, 2, 2022), 3),
        97: (9604, None, 2)},
    2: {7: (51, (51,), 0), 17: (321, (321,), 0), 19: (339, (339,), 0), 23: (531, None, 0),
        29: (900, None, 2), 31: (900, None, 2), 37: (1089, None, 0), 41: (1689, (1689,), 0),
        43: (1824, (2, 2, 2, 228), 4), 47: (2259, None, 0), 53: (2736, (6, 456), 2),
        59: (3555, None, 0), 61: (3660, (2, 1830), 2), 67: (6084, None, 2),
        71: (5139, None, 0), 73: (5244, (2, 2622), 2), 79: (6099, (6099,), 0),
        83: (7044, (2, 3522), 2), 89: (7920, (6, 1320), 2), 97: (8649, None, 0)},
    3: {7: (36, (6, 6), 2), 11: (126, None, 1), 13: (225, None, 0), 17: (306, None, 1),
        19: (225, None, 0), 23: (558, None, 1), 29: (828, (6, 138), 2), 31: (1521, None, 0),
        37: (1764, (42, 42), 2), 41: (1692, (6, 282), 2), 43: (1521, None, 0),
        47: (2304, (48, 48), 2), 53: (2898, None, 1), 59: (3582, None, 1),
        61: (3249, None, 0), 67: (3249, None, 0), 71: (5166, None, 1), 73: (5625, None, 0),
        79: (4761, None, 0), 83: (6894, None, 1), 89: (7812, (6, 1302), 2),
        97: (11025, None, 0)},
    4: {5: (24, (2, 2, 6), 3), 11: (126, None, 1), 13: (168, (2, 84), 2),
        17: (312, (2, 2, 78), 3), 19: (348, (2, 174), 2), 23: (558, None, 1),
        29: (882, None, 1), 31: (900, None, 2), 37: (900, (30, 30), 2),
        41: (1752, (2, 2, 438), 3), 43: (1764, (42, 42), 2), 47: (2256, (2, 2, 564), 3),
        53: (2754, None, 1), 59: (3408, (2, 2, 852), 3), 61: (3696, None, 2),
        67: (3600, (2, 2, 30, 30), 4), 71: (5166, None, 1), 73: (5208, (2, 2604), 2),
        79: (7056, (2, 2, 42, 42), 4), 83: (7008, (2, 4, 876), 3),
        89: (7992, (2, 6, 666), 3), 97: (9240, (2, 4620), 2)},
}


# f (ascending, reduced mod p), p, (order, invariants, 2-rank) at seeds 0
# and 1, and whether the probes ran on the quintic
QUINTIC_ONLY = [
    ((0, 1, 5, 1, 2, 1, 5), 7, (105, (105,), 0), False),
    ((2, 6, 6, 6, 1, 1, 1), 7, (131, (131,), 0), False),
    ((4, 6, 5, 2, 0, 0, 6), 7, (106, (106,), 1), False),
    ((0, 6, 5, 2, 2, 6, 1), 7, (120, (120,), 1), False),
    ((2, 6, 4, 0, 6, 4, 6), 7, (105, (105,), 0), False),
    ((1, 6, 5, 2, 1, 3, 4), 7, (130, (130,), 1), False),
    ((4, 1, 3, 2, 5, 0, 6), 7, (84, (2, 42), 2), False),
    ((1, 6, 1, 1, 5, 2, 6), 7, (80, (2, 40), 2), True),
    ((9, 4, 3, 6, 7, 1, 4), 11, (288, (288,), 1), True),
    ((9, 0, 8, 5, 2, 6, 4), 11, (288, (288,), 1), True),
    ((4, 2, 0, 0, 1, 1, 7), 11, (252, (2, 126), 2), True),
    ((0, 5, 0, 1, 8, 4, 5), 11, (256, (2, 8, 16), 3), True),
    ((9, 9, 4, 6, 5, 2, 2), 11, (270, (270,), 1), True),
    ((5, 10, 0, 2, 2, 6, 9), 11, (288, (288,), 1), True),
    ((1, 0, 2, 9, 3, 8, 3), 11, (305, (305,), 0), False),
    ((0, 4, 8, 12, 2, 10, 7), 13, (360, (3, 120), 1), True),
    ((3, 0, 7, 10, 9, 9, 1), 13, (400, (20, 20), 2), True),
    ((4, 7, 10, 1, 8, 7, 5), 13, (358, (358,), 1), False),
    ((0, 11, 1, 3, 4, 3, 3), 13, (400, (20, 20), 2), True),
    ((0, 1, 12, 2, 11, 2, 8), 13, (358, (358,), 1), False),
    ((9, 7, 16, 13, 9, 14, 0), 17, (576, (2, 2, 12, 12), 4), True),
    ((9, 11, 6, 10, 14, 16, 0), 17, (576, (2, 2, 12, 12), 4), True),
]


def _refuse_quintic_model(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("odd_degree_model was called")

    monkeypatch.setattr(jacobian, "odd_degree_model", refuse)


def test_the_table_covers_every_good_prime():
    assert [sorted(GROUPS[i]) for i in range(5)] == [good_primes(row.curve, 100) for row in TABLE]
    entries = [entry for groups in GROUPS.values() for entry in groups.values()]
    assert len(entries) == 107
    assert sum(invariants is None for _, invariants, _ in entries) == 33


@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_groups_match_the_table(seed, monkeypatch):
    _refuse_quintic_model(monkeypatch)
    for i, row in enumerate(TABLE):
        for p, entry in GROUPS[i].items():
            assert jacobian_group_mod_p(row.curve, p, seed) == JacobianGroup(p, *entry), (i, p)


def test_open_structures_are_at_primes_where_the_sextic_has_no_root():
    for i, row in enumerate(TABLE):
        for p, (_, invariants, _) in GROUPS[i].items():
            if invariants is None:
                assert row.curve.coeffs[6] % p and 1 not in jacobian._factor_degrees(row.curve, p)


def test_square_sylow_subgroups_need_no_quintic_model(monkeypatch):
    # (Z/41)^2 and (Z/479)^2 on the (2,2) row
    _refuse_quintic_model(monkeypatch)
    curve = TABLE[1].curve
    assert {p: jacobian_group_mod_p(curve, p).invariants for p in (83, 1013)} == {
        83: (82, 82), 1013: (958, 958)}


@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_groups_on_the_quintic_match_the_pins(seed, monkeypatch):
    models = []
    quintic = jacobian.odd_degree_model
    monkeypatch.setattr(jacobian, "odd_degree_model",
                        lambda *args: models.append(args) or quintic(*args))
    for f, p, entry, probed in QUINTIC_ONLY:
        curve = GenusTwoCurve.from_coefficients(f)
        c = [v % p for v in curve.coeffs]
        assert jacobian._inert_model(c, p) is None
        assert any(poly_eval(c, a) % p == 0 for a in range(p))
        models.clear()
        assert jacobian_group_mod_p(curve, p, seed) == JacobianGroup(p, *entry), (f, p)
        assert bool(models) == probed, (f, p)
