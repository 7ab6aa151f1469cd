"""J(F_p) at the 107 good p <= 100 of the five table curves, pinned.

Each entry is (order, invariants, 2-rank): 91 structures are proved,
and 16 are left open (None), at primes where the sextic has no root mod
p.  The probes draw from a seeded RNG, so the table is checked at two
seeds, with ``odd_degree_model`` refusing to run: no entry needs the
quintic model.

J(F_p) is pinned also where the quintic may be the only model: 22
seeded random curves at p <= 17 where every value of f mod p is 0 or a
square, and f has a root.  Where f_6 is a non-square, f itself is the
inert sextic.  Seven of them are probed, five of those on the quintic;
the rest are settled by the order and rank bounds, the Frobenius rule
or, on f itself, the Tate pairing.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from class_oracle import enumerate_classes
from quatorsion.exact import factorint, multiplicity, poly_eval
from quatorsion.genus2 import curve as curve_mod
from quatorsion.genus2 import jacobian
from quatorsion.genus2.curve import GenusTwoCurve, curve_lpoly, curve_lpolys, good_prime, good_primes
from quatorsion.genus2.jacobian import JacobianGroup, divisor_order, jacobian_group_mod_p
from quatorsion.genus2.torsion import table_curves
from quatorsion.weil import WeilPoly2, is_weil_valid

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
        97: (9604, (98, 98), 2)},
    2: {7: (51, (51,), 0), 17: (321, (321,), 0), 19: (339, (339,), 0), 23: (531, None, 0),
        29: (900, (30, 30), 2), 31: (900, (30, 30), 2), 37: (1089, (33, 33), 0),
        41: (1689, (1689,), 0), 43: (1824, (2, 2, 2, 228), 4), 47: (2259, None, 0),
        53: (2736, (6, 456), 2), 59: (3555, None, 0), 61: (3660, (2, 1830), 2),
        67: (6084, (78, 78), 2), 71: (5139, None, 0), 73: (5244, (2, 2622), 2),
        79: (6099, (6099,), 0), 83: (7044, (2, 3522), 2), 89: (7920, (6, 1320), 2),
        97: (8649, (93, 93), 0)},
    3: {7: (36, (6, 6), 2), 11: (126, None, 1), 13: (225, (15, 15), 0), 17: (306, None, 1),
        19: (225, (15, 15), 0), 23: (558, None, 1), 29: (828, (6, 138), 2),
        31: (1521, (39, 39), 0), 37: (1764, (42, 42), 2), 41: (1692, (6, 282), 2),
        43: (1521, (39, 39), 0), 47: (2304, (48, 48), 2), 53: (2898, None, 1),
        59: (3582, None, 1), 61: (3249, (57, 57), 0), 67: (3249, (57, 57), 0),
        71: (5166, None, 1), 73: (5625, (75, 75), 0), 79: (4761, (69, 69), 0),
        83: (6894, None, 1), 89: (7812, (6, 1302), 2), 97: (11025, (105, 105), 0)},
    4: {5: (24, (2, 2, 6), 3), 11: (126, None, 1), 13: (168, (2, 84), 2),
        17: (312, (2, 2, 78), 3), 19: (348, (2, 174), 2), 23: (558, None, 1),
        29: (882, None, 1), 31: (900, (30, 30), 2), 37: (900, (30, 30), 2),
        41: (1752, (2, 2, 438), 3), 43: (1764, (42, 42), 2), 47: (2256, (2, 2, 564), 3),
        53: (2754, None, 1), 59: (3408, (2, 2, 852), 3), 61: (3696, (4, 924), 2),
        67: (3600, (2, 2, 30, 30), 4), 71: (5166, None, 1), 73: (5208, (2, 2604), 2),
        79: (7056, (2, 2, 42, 42), 4), 83: (7008, (2, 4, 876), 3),
        89: (7992, (2, 6, 666), 3), 97: (9240, (2, 4620), 2)},
}


# f (ascending, reduced mod p), p, (order, invariants, 2-rank) at seeds 0
# and 1, and the Sylow subgroups not proved by the bounds, with their rule.
# Every f(a) is 0 or a square and f has a root; where f_6 is a non-square
# f itself is the inert model, and the quintic serves the others
QUINTIC_ONLY = [
    ((0, 1, 5, 1, 2, 1, 5), 7, (105, (105,), 0), {}),
    ((2, 6, 6, 6, 1, 1, 1), 7, (131, (131,), 0), {}),
    ((4, 6, 5, 2, 0, 0, 6), 7, (106, (106,), 1), {}),
    ((0, 6, 5, 2, 2, 6, 1), 7, (120, (120,), 1), {}),
    ((2, 6, 4, 0, 6, 4, 6), 7, (105, (105,), 0), {}),
    ((1, 6, 5, 2, 1, 3, 4), 7, (130, (130,), 1), {}),
    ((4, 1, 3, 2, 5, 0, 6), 7, (84, (2, 42), 2), {}),
    ((1, 6, 1, 1, 5, 2, 6), 7, (80, (2, 40), 2), {2: "tate"}),
    ((9, 4, 3, 6, 7, 1, 4), 11, (288, (288,), 1), {3: "frobenius"}),
    ((9, 0, 8, 5, 2, 6, 4), 11, (288, (288,), 1), {3: "frobenius"}),
    ((4, 2, 0, 0, 1, 1, 7), 11, (252, (2, 126), 2), {3: "frobenius"}),
    ((0, 5, 0, 1, 8, 4, 5), 11, (256, (2, 8, 16), 3), {2: "probes"}),
    ((9, 9, 4, 6, 5, 2, 2), 11, (270, (270,), 1), {3: "probes"}),
    ((5, 10, 0, 2, 2, 6, 9), 11, (288, (288,), 1), {3: "frobenius"}),
    ((1, 0, 2, 9, 3, 8, 3), 11, (305, (305,), 0), {}),
    ((0, 4, 8, 12, 2, 10, 7), 13, (360, (3, 120), 1), {3: "probes"}),
    ((3, 0, 7, 10, 9, 9, 1), 13, (400, (20, 20), 2), {2: "probes", 5: "frobenius"}),
    ((4, 7, 10, 1, 8, 7, 5), 13, (358, (358,), 1), {}),
    ((0, 11, 1, 3, 4, 3, 3), 13, (400, (20, 20), 2), {2: "probes", 5: "frobenius"}),
    ((0, 1, 12, 2, 11, 2, 8), 13, (358, (358,), 1), {}),
    ((9, 7, 16, 13, 9, 14, 0), 17, (576, (2, 2, 12, 12), 4), {2: "probes", 3: "frobenius"}),
    ((9, 11, 6, 10, 14, 16, 0), 17, (576, (2, 2, 12, 12), 4), {2: "probes", 3: "frobenius"}),
]


def _refuse_quintic_model(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("odd_degree_model was called")

    monkeypatch.setattr(jacobian, "odd_degree_model", refuse)


def test_the_table_covers_every_good_prime():
    assert [sorted(GROUPS[i]) for i in range(5)] == [good_primes(row.curve, 100) for row in TABLE]
    entries = [entry for groups in GROUPS.values() for entry in groups.values()]
    assert len(entries) == 107
    assert sum(invariants is None for _, invariants, _ in entries) == 16


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
                assert row.curve.coeffs[6] % p and 1 not in curve_mod._factor_degrees(row.curve, p)


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
    quintics = 0
    for f, p, entry, rules in QUINTIC_ONLY:
        curve = GenusTwoCurve.from_coefficients(f)
        c = [v % p for v in curve.coeffs]
        assert all(jacobian._legendre(poly_eval(c, a), p) >= 0 for a in range(p))
        assert any(poly_eval(c, a) % p == 0 for a in range(p))
        own = jacobian._legendre(c[6], p) < 0
        assert jacobian._inert_model(c, p) == (tuple(c) if own else None)
        models.clear()
        group = jacobian_group_mod_p(curve, p, seed)
        assert group == JacobianGroup(p, *entry), (f, p)
        assert {ell: rule for ell, rule in group.proved_by.items() if rule != "bounds"} == rules
        assert bool(models) == ("probes" in rules.values() and not own), (f, p)
        quintics += bool(models)
    assert quintics == 5


def test_jacobian_groups_on_the_quintic_without_the_frobenius_rule(monkeypatch):
    # the probes prove what the rule proves: with the rule off, 11 of the
    # 22 curves are probed, one more has its 2-part from the Tate pairing
    # on f itself, and the groups agree
    monkeypatch.setattr(jacobian, "_frobenius_shape", lambda w, ell: None)
    probed = paired = 0
    for f, p, entry, rules in QUINTIC_ONLY:
        group = jacobian_group_mod_p(GenusTwoCurve.from_coefficients(f), p)
        assert group == JacobianGroup(p, *entry), (f, p)
        assert set(group.proved_by.values()) - {"bounds"} <= {"probes", "tate"}
        probed += "probes" in group.proved_by.values()
        paired += "tate" in group.proved_by.values()
    assert (probed, paired) == (11, 1)


def test_a_prime_without_a_model_is_left_open():
    # mod 7 this f has type (2, 2, 2), every f(a) is a nonzero square and
    # f_6 = 2 = 3^2 is one too: there is neither an inert sextic nor a
    # quintic to draw classes on, and the 2-part stays open
    curve = GenusTwoCurve.from_coefficients([9, -5, 10, 19, -2, 4, 2])
    p = 7
    c = [v % p for v in curve.coeffs]
    assert curve_mod._factor_degrees(curve, p) == [2, 2, 2]
    assert all(jacobian._legendre(poly_eval(c, a), p) == 1 for a in range(p))
    assert jacobian._legendre(c[6], p) == 1
    assert jacobian._inert_model(c, p) is None and jacobian.odd_degree_model(curve, p) is None
    for seed in (0, 1):
        group = jacobian_group_mod_p(curve, p, seed)
        assert group == JacobianGroup(p, 144, None, 2)
        assert group.proved_by == {2: None, 3: "frobenius"}


@pytest.mark.parametrize("coeffs, p, order", [([-4, -20, 0, -12, -8, 8, 11], 13, 399),
                                              ([-2, -11, 14, 11, -11, -11, -3], 11, 289)])
def test_a_sextic_that_is_its_own_inert_model(coeffs, p, order):
    # every f(a) is 0 or a square and f has no root mod p, but f_6 is a
    # non-square: no finite a gives an inert sextic and there is no
    # quintic, so f itself is the model classes are drawn on
    curve = GenusTwoCurve.from_coefficients(coeffs)
    c = [v % p for v in curve.coeffs]
    assert all(jacobian._legendre(poly_eval(c, a), p) == 1 for a in range(p))
    assert jacobian._legendre(c[6], p) == -1 and jacobian.odd_degree_model(curve, p) is None
    f = jacobian._inert_model(c, p)
    assert f == tuple(c)
    jacobian._check_model(f, p)
    assert curve_lpoly(curve, p).point_count() == order
    rng = random.Random(0)
    classes = [jacobian.random_divisor(f, p, rng) for _ in range(4)]
    assert not all(d.is_identity for d in classes)
    assert all(jacobian.cantor_mul(order, d, f).is_identity for d in classes)


# ---------------------------------------------------------------------------
# the Frobenius rule


def test_the_frobenius_rule_proves_what_probes_cannot_reach():
    # the 16 structures at rootless primes that the rule proves, the one
    # that the Tate pairing proves, and the record of each rule: no ell at
    # a rootless prime is probed
    proved, paired, opened = 0, 0, 0
    for i, row in enumerate(TABLE):
        for p in GROUPS[i]:
            group = jacobian_group_mod_p(row.curve, p)
            rootless = row.curve.coeffs[6] % p and 1 not in curve_mod._factor_degrees(row.curve, p)
            assert sorted(group.proved_by) == sorted(factorint(group.order))
            assert (group.invariants is None) == (None in group.proved_by.values())
            if rootless:
                assert "probes" not in group.proved_by.values()
                proved += group.invariants is not None and "frobenius" in group.proved_by.values()
                paired += group.invariants is not None and "tate" in group.proved_by.values()
            opened += group.invariants is None
    assert (proved, paired, opened) == (16, 1, 16)
    # the (6) curve at 61 was open only at ell = 2: Z/4 x Z/4
    group = jacobian_group_mod_p(TABLE[4].curve, 61)
    assert group.invariants == (4, 924)
    assert group.proved_by == {2: "tate", 3: "bounds", 7: "bounds", 11: "bounds"}
    group = jacobian_group_mod_p(TABLE[3].curve, 97)
    assert group.invariants == (105, 105)
    assert group.proved_by == {3: "frobenius", 5: "frobenius", 7: "frobenius"}


def _shapes_without_the_rule(curve, p: int, seed: int = 0) -> dict[int, tuple | None]:
    """ell -> the shape of the ell-Sylow subgroup of J(F_p) proved by the
    bounds and at most 16 probes, rootless primes included, or None."""
    two_rank = curve_mod._two_rank(curve_mod._factor_degrees(curve, p))
    order = curve_lpoly(curve, p).point_count()
    sylows = [jacobian._SylowProof(ell, v, p, two_rank) for ell, v in factorint(order).items()]
    f = jacobian._inert_model([v % p for v in curve.coeffs], p) or jacobian.odd_degree_model(curve, p)
    if f:
        jacobian._probe(f, p, order, sylows, seed)
    return {s.ell: s.shape for s in sylows}


def test_the_frobenius_rule_matches_the_probes():
    # at every good p <= 500 of the five curves, wherever both the rule
    # and the bounds with probes prove an ell-Sylow subgroup
    compared = ruled = 0
    for row in TABLE:
        for p, w in curve_lpolys(row.curve, 500):
            probed = _shapes_without_the_rule(row.curve, p)
            for ell, shape in probed.items():
                ruled_shape = jacobian._frobenius_shape(w, ell)
                if ruled_shape is not None and shape is not None:
                    assert ruled_shape == shape, (row.torsion, p, ell)
                    compared += 1
                    ruled += len(jacobian._SylowProof(ell, sum(shape), p, 0).shapes) > 1
    assert compared > 600 and ruled > 150, (compared, ruled)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=7, max_size=7), st.sampled_from([7, 11, 13]))
@example(list(TABLE[3].curve.coeffs), 13)  # (Z/15)^2 at a rootless prime
@example(list(TABLE[3].curve.coeffs), 19)
def test_the_frobenius_rule_matches_class_enumeration(coeffs, p):
    # the number of classes killed by ell^j is #J / ell^v * ell^(k min(j, e))
    # for a shape (e,) * k of the ell-Sylow subgroup; on random curves at
    # small p most shapes the rule gives are Z/ell, so two examples pin
    # squares
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    f = jacobian._inert_model([v % p for v in curve.coeffs], p) or jacobian.odd_degree_model(curve, p)
    if f is None:
        return
    w = curve_lpoly(curve, p)
    order = w.point_count()
    orders = [divisor_order(d, f, order) for d in enumerate_classes(f, p)]
    assert len(orders) == order
    for ell, v in factorint(order).items():
        shape = jacobian._frobenius_shape(w, ell)
        if shape is None:
            continue
        e, k = shape[0], len(shape)
        assert k * e == v
        for j in range(e + 1):
            killed = sum(n % ell ** (j + 1) != 0 for n in orders)
            assert killed == order // ell**v * ell ** (k * j), (coeffs, p, ell, j)


def _radical(w) -> sympy.Poly:
    t = sympy.Symbol("T")
    big_p = sympy.Poly(list(w.coefficients()), t)
    return sympy.quo(big_p, sympy.gcd(big_p, big_p.diff(t)))


def test_the_frobenius_rule_against_its_definition():
    # m = P / gcd(P, P'), k = 4 / deg m, and the shape (v_ell(m(1)),) * k
    # exactly when ell != p and ell^2 does not divide disc m
    seen = {1: 0, 2: 0}
    ws = [w for row in TABLE for _, w in curve_lpolys(row.curve, 200)]
    ws += [WeilPoly2(p, a1, a2) for p in (7, 11, 13) for a1 in range(-12, 13, 2)
           for a2 in range(-2 * p, a1 * a1 // 4 + 2 * p + 1) if is_weil_valid(WeilPoly2(p, a1, a2))]
    for w in ws:
        m = _radical(w)
        k = 4 // m.degree()
        disc, value = int(m.discriminant()), int(m.eval(1))
        seen[k] += 1
        for ell in set(factorint(w.point_count())) | {w.q}:
            expected = None
            if ell != w.q and disc % (ell * ell):
                expected = (multiplicity(ell, value),) * k
            assert jacobian._frobenius_shape(w, ell) == expected, (w, ell)
    assert seen[1] > 500 and seen[2] > 20, seen


def test_the_frobenius_rule_says_nothing_at_ell_p_or_a_square_discriminant():
    # (2,2) curve at p = 97: P = (T^2 + 97)^2, and g(1) = 98 gives (Z/49)^2;
    # at ell = 2, 4 divides disc g = -388 (the 2-rank settles it), and at
    # ell = 97 the Tate module is another object
    w = curve_lpoly(TABLE[1].curve, 97)
    assert (w.a1, w.a2) == (0, 194)
    assert jacobian._frobenius_shape(w, 2) is None
    assert jacobian._frobenius_shape(w, 7) == (2, 2)
    assert jacobian._frobenius_shape(w, 97) is None
    # the (3) curve at p = 23: #J = 531 = 9 * 59 with 9 dividing disc P, so
    # the rule says nothing at ell = 3, and the structure stays open
    w = curve_lpoly(TABLE[2].curve, 23)
    disc = sympy.Poly(list(w.coefficients()), sympy.Symbol("T")).discriminant()
    assert w.point_count() == 531 and disc % 9 == 0
    assert jacobian._frobenius_shape(w, 3) is None
    assert jacobian._frobenius_shape(w, 59) == (1,)
    # P(1) = 56 = 7 * 8 at p = 7
    assert jacobian._frobenius_shape(WeilPoly2(7, 0, 6), 7) is None


FORGED = (
    "import sys\n"
    "from quatorsion.genus2 import jacobian\n"
    "from quatorsion.weil import WeilPoly2\n"
    "proof = jacobian._SylowProof(11, 1, 59, 4)\n"
    "try:\n"
    "    proof.frobenius(WeilPoly2(59, 0, 27))\n"
    "except ArithmeticError as exc:\n"
    "    print(sys.flags.optimize, 'ArithmeticError', exc)\n"
)


def test_a_forged_weil_polynomial_conflicts_with_the_bounds():
    # J(F_59) of the (2) curve has a2 = 38 and order 3520 = 2^6 * 5 * 11;
    # the forged a2 = 27 makes the rule read Z/121 where the order leaves
    # Z/11
    assert curve_lpoly(TABLE[0].curve, 59) == WeilPoly2(59, 0, 38)
    assert is_weil_valid(WeilPoly2(59, 0, 27))
    assert jacobian._frobenius_shape(WeilPoly2(59, 0, 27), 11) == (2,)
    proof = jacobian._SylowProof(11, 1, 59, 4)
    with pytest.raises(ArithmeticError, match="shape"):
        proof.frobenius(WeilPoly2(59, 0, 27))
    assert proof.shapes == [(1,)] and proof.rule == "bounds"


def test_a_forged_weil_polynomial_raises_under_python_O():
    src = str(Path(jacobian.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", FORGED],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("1 ArithmeticError the Frobenius rule gives")
