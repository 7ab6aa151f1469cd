"""Tests for the genus-2 family, point counts, Cantor arithmetic, torsion."""

from __future__ import annotations

import ast
import collections
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracle import count_model
from quatorsion.exact import fp_divmod
from quatorsion.genus2 import family, jacobian
from quatorsion.genus2.curve import (
    GenusTwoCurve,
    count_points_curve,
    curve_lpoly,
    good_prime,
    good_primes,
    lpoly_from_counts,
    parse_curve,
)
from quatorsion.genus2.jacobian import (
    JacobianGroup,
    cantor_add,
    cantor_mul,
    cantor_neg,
    divisor_from_point,
    divisor_order,
    identity_divisor,
    jacobian_group_mod_p,
    mumford_divisor,
    odd_degree_model,
    random_divisor,
)
from quatorsion.genus2.torsion import (
    CertificationReport,
    certify_torsion,
    table_curves,
    two_torsion_count,
)
from quatorsion.weil import is_weil_valid

TABLE = table_curves()
QUINTIC = GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1
Z6_CURVE = TABLE[4].curve


# ---------------------------------------------------------------------------
# the family of Igusa invariants
# ---------------------------------------------------------------------------


def _factored_j(t: Fraction) -> Fraction:
    # independent form of j: -64 t^4 (t^4-1)^4 / (t^8 + 14 t^4 + 1)^3
    return Fraction(-64) * t**4 * (t**4 - 1) ** 4 / (t**8 + 14 * t**4 + 1) ** 3


def test_family_j_frozen_value():
    assert family.family_j(2) == Fraction(-51840000, 111284641)


def test_family_j_matches_factored_form():
    rng = random.Random(5)
    for _ in range(60):
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 25))
        if t in (0, 1, -1):
            continue
        assert family.family_j(t) == _factored_j(t)
        assert family.family_j(t) < 0


@pytest.mark.parametrize("t", [0, 1, -1, Fraction(-1)])
def test_family_singular_parameters(t):
    with pytest.raises(ValueError, match="singular"):
        family.family_j(t)


def test_family_j_checks_its_denominator(monkeypatch):
    # the denominator is positive on Q; a broken one raises, also under -O
    monkeypatch.setattr(family, "_J_DEN", (-1,))
    with pytest.raises(ArithmeticError, match="not positive"):
        family.family_j(2)


def test_family_igusa_point():
    pt = family.family_igusa(Fraction(1, 2))
    j = family.family_j(Fraction(1, 2))
    assert pt.J2 == 12 * (j + 1)
    assert pt.J10 == j**3
    assert 4 * pt.J8 == pt.J2 * pt.J6 - pt.J4**2


def test_igusa_point_validation():
    with pytest.raises(ValueError, match="J10"):
        family.IgusaPoint(1, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="J2 J6"):
        family.IgusaPoint(1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "t",
    [2, -2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(-3, 5),
     Fraction(7, 4), Fraction(22, 7)],
)
def test_rational_model_checks_on_family(t):
    assert family.rational_model_checks(t) == (True, True)


def test_model_checks_fail_off_family():
    # j = 1 is not on the family: -27 - 16/1 = -43 is not a square and
    # the obstruction algebra (-6, -86) ramifies at infinity.
    assert not family._field_of_moduli_ok(Fraction(1))
    assert not family._mestre_splits(Fraction(1))
    assert family._field_of_moduli_ok(Fraction(-16, 27))


# ---------------------------------------------------------------------------
# curves: construction, parsing, good primes
# ---------------------------------------------------------------------------


def test_from_coefficients_normalizes():
    # y^2 = x^5 + 1/4 and (2y)^2 = 4 x^5 + 1 present the same curve
    c = GenusTwoCurve.from_coefficients([Fraction(1, 4), 0, 0, 0, 0, 1])
    assert c.coeffs == (1, 0, 0, 0, 0, 4, 0)
    assert c.degree == 5
    # square content is stripped, non-square content stays
    assert GenusTwoCurve.from_coefficients([4, 0, 0, 0, 0, 8]).coeffs == (
        1, 0, 0, 0, 0, 2, 0)
    assert GenusTwoCurve.from_coefficients([3, 0, 0, 0, 0, 3]).coeffs == (
        3, 0, 0, 0, 0, 3, 0)


@pytest.mark.parametrize(
    "coeffs",
    [[1, 2], [0, 1, 2, 3, 4], [1] * 8, [0] * 7],
)
def test_from_coefficients_degree_errors(coeffs):
    with pytest.raises(ValueError, match="degree"):
        GenusTwoCurve.from_coefficients(coeffs)


def test_from_coefficients_singular():
    # (x^3 - 1)^2 has repeated roots
    with pytest.raises(ValueError, match="singular"):
        GenusTwoCurve.from_coefficients([1, 0, 0, -2, 0, 0, 1])


def test_parse_curve_table_row():
    c = parse_curve("5x^6+21x^5-63x^4-49x^3+294x^2-343")
    assert c == Z6_CURVE
    assert parse_curve("y^2 = 5*x^6 + 21*x^5 - 63*x^4 - 49*x^3 + 294*x^2 - 343") == c


def test_parse_curve_forms():
    assert parse_curve("x^5+1") == QUINTIC
    assert parse_curve("y^2 = x^6 - x - 1") == GenusTwoCurve.from_coefficients(
        [-1, -1, 0, 0, 0, 0, 1])
    # repeated powers accumulate, bare x means degree 1
    assert parse_curve("x^5+x+x") == GenusTwoCurve.from_coefficients(
        [0, 2, 0, 0, 0, 1])


@pytest.mark.parametrize("bad", ["", "y^2 =", "x^7+1", "3z^2+1", "x^2+", "5"])
def test_parse_curve_errors(bad):
    with pytest.raises(ValueError):
        parse_curve(bad)


def test_curve_str_round_trips():
    for row in TABLE:
        assert parse_curve(str(row.curve)) == row.curve
        assert str(row.curve).startswith("y^2 = ")


def test_good_primes_degree_drop():
    # lead 5 vanishes mod 5 but the quintic reduction stays smooth,
    # while 3 and 7 divide the form discriminant
    assert good_primes(Z6_CURVE, 20) == [5, 11, 13, 17, 19]
    assert good_prime(Z6_CURVE, 5)
    assert not good_prime(Z6_CURVE, 7)
    assert not good_prime(Z6_CURVE, 2)
    assert not good_prime(Z6_CURVE, 15)
    assert good_prime(QUINTIC, 3)
    assert not good_prime(QUINTIC, 5)  # disc(x^5 + 1) = 5^5


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------


def _brute_count_fp(curve: GenusTwoCurve, p: int) -> int:
    c = [v % p for v in curve.coeffs]
    deg = 6 if c[6] else 5
    total = 0
    for x in range(p):
        fx = sum(c[i] * pow(x, i, p) for i in range(deg + 1)) % p
        total += sum(1 for y in range(p) if y * y % p == fx)
    if deg == 5:
        return total + 1
    return total + (2 if pow(c[6], (p - 1) // 2, p) == 1 else 0)


def _brute_count_fp2(curve: GenusTwoCurve, p: int) -> int:
    # F_{p^2} as pairs a + b s with s^2 = r, r the first non-residue
    r = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    c = [v % p for v in curve.coeffs]
    deg = 6 if c[6] else 5

    def mul(z, w):
        return (
            (z[0] * w[0] + r * z[1] * w[1]) % p,
            (z[0] * w[1] + z[1] * w[0]) % p,
        )

    squares: dict[tuple[int, int], int] = {}
    for a in range(p):
        for b in range(p):
            z = mul((a, b), (a, b))
            squares[z] = squares.get(z, 0) + 1
    total = 0
    for a in range(p):
        for b in range(p):
            fx = (c[deg], 0)
            for i in range(deg - 1, -1, -1):
                fx = mul(fx, (a, b))
                fx = ((fx[0] + c[i]) % p, fx[1])
            total += squares.get(fx, 0)
    return total + (1 if deg == 5 else 2)


def test_count_points_example():
    # y^2 = x^5 + 1 over F_3: (0, +-1), (-1, 0), infinity
    assert count_points_curve(QUINTIC, 3, 1) == 4


def test_count_points_against_brute_force():
    for row in TABLE:
        for p in (3, 5, 7, 11, 13):
            if not good_prime(row.curve, p):
                continue
            assert count_points_curve(row.curve, p, 1) == _brute_count_fp(
                row.curve, p)
            if p <= 7:
                assert count_points_curve(row.curve, p, 2) == _brute_count_fp2(
                    row.curve, p)


def test_count_points_degree_drop_weil_interval():
    # lead(f) = 5: the reduction mod 5 drops to degree 5 but stays smooth
    n = count_points_curve(Z6_CURVE, 5, 1)
    assert n == 6
    assert abs(n - 6) <= 4 * isqrt(5) + 4  # |#C - p - 1| <= 4 sqrt(p)


@pytest.mark.parametrize(
    "p, n", [(2, 1), (7, 1), (15, 1), (5, 3), (5, 0)]
)
def test_count_points_errors(p, n):
    with pytest.raises(ValueError):
        count_points_curve(Z6_CURVE, p, n)


# frozen from the first verified run of this module's counting engine,
# cross-checked against the brute-force oracles above
JACOBIAN_ORDER_SAMPLES = [
    (0, {7: 62, 11: 124, 13: 178}),
    (1, {5: 24, 7: 36, 11: 100}),
    (2, {7: 51, 17: 321, 19: 339}),
    (3, {7: 36, 11: 126, 13: 225}),
    (4, {5: 24, 11: 126, 13: 168}),
]


@pytest.mark.parametrize("index, orders", JACOBIAN_ORDER_SAMPLES)
def test_jacobian_orders_frozen(index, orders):
    row = TABLE[index]
    for p, expected in orders.items():
        w = curve_lpoly(row.curve, p)
        assert w.point_count() == expected
        assert is_weil_valid(w)
        assert expected % prod(row.torsion) == 0


def test_lpoly_from_counts_round_trip():
    w = curve_lpoly(TABLE[3].curve, 7)
    assert (w.q, w.point_count()) == (7, 36)  # 9 | 36: (Z/3)^2 injects


def test_lpoly_from_counts_errors():
    with pytest.raises(ValueError, match="odd"):
        lpoly_from_counts(5, 12, 3)  # 2 a2 would be odd
    with pytest.raises(ValueError, match="Weil"):
        lpoly_from_counts(11, 11, 3)  # a1 = 7 > 4 sqrt(3)


# ---------------------------------------------------------------------------
# Mumford divisors and Cantor arithmetic
# ---------------------------------------------------------------------------

F5_MOD7 = odd_degree_model(QUINTIC, 7)  # x^5 + 1 is already odd-degree


def test_mumford_validation():
    assert F5_MOD7 == (1, 0, 0, 0, 0, 1)
    d = mumford_divisor(F5_MOD7, 7, (-1, 1), (3,))  # f(1) = 2 = 3^2 mod 7
    assert d.u == (6, 1) and d.v == (3,)
    with pytest.raises(ValueError, match="monic"):
        mumford_divisor(F5_MOD7, 7, (1, 2), (0,))
    with pytest.raises(ValueError, match="degree"):
        mumford_divisor(F5_MOD7, 7, (6, 1), (1, 1))
    with pytest.raises(ValueError, match="divide"):
        mumford_divisor(F5_MOD7, 7, (6, 1), (1,))


def test_divisor_from_point():
    d = divisor_from_point(F5_MOD7, 7, 1, 3)
    assert d == mumford_divisor(F5_MOD7, 7, (6, 1), (3,))
    with pytest.raises(ValueError, match="not on the curve"):
        divisor_from_point(F5_MOD7, 7, 1, 5)


def test_weierstrass_point_is_two_torsion():
    d = divisor_from_point(F5_MOD7, 7, 6, 0)  # f(-1) = 0
    assert not d.is_identity
    assert cantor_add(d, d, F5_MOD7).is_identity
    assert cantor_neg(d) == d


def test_cantor_mixed_field_error():
    d3 = identity_divisor(3)
    d7 = identity_divisor(7)
    with pytest.raises(ValueError, match="different prime fields"):
        cantor_add(d3, d7, F5_MOD7)


def test_cantor_group_axioms():
    rng = random.Random(11)
    curves = [QUINTIC, TABLE[1].curve, TABLE[4].curve]
    checked = 0
    for c in curves:
        for p in good_primes(c, 30):
            f5 = odd_degree_model(c, p)
            if f5 is None:
                continue
            order = curve_lpoly(c, p).point_count()
            for _ in range(3):
                d = random_divisor(f5, p, rng)
                e = random_divisor(f5, p, rng)
                g = random_divisor(f5, p, rng)
                assert cantor_add(d, e, f5) == cantor_add(e, d, f5)
                assert cantor_add(cantor_add(d, e, f5), g, f5) == cantor_add(
                    d, cantor_add(e, g, f5), f5)
                assert cantor_add(d, identity_divisor(p), f5) == d
                assert cantor_add(d, cantor_neg(d), f5).is_identity
                assert cantor_mul(order, d, f5).is_identity
                assert cantor_mul(-1, d, f5) == cantor_neg(d)
                checked += 1
    assert checked >= 30


def test_divisor_order_divides_group_order():
    rng = random.Random(3)
    f5 = odd_degree_model(QUINTIC, 11)
    order = curve_lpoly(QUINTIC, 11).point_count()
    assert order == 80
    seen = set()
    for _ in range(12):
        d = random_divisor(f5, 11, rng)
        o = divisor_order(d, f5, order)
        assert order % o == 0
        assert cantor_mul(o, d, f5).is_identity
        for ell in sympy.factorint(o):
            assert not cantor_mul(o // int(ell), d, f5).is_identity
        seen.add(o)
    assert max(seen) > 1


def test_divisor_order_rejects_non_annihilating_multiple():
    rng = random.Random(4)
    f5 = odd_degree_model(QUINTIC, 11)
    order = curve_lpoly(QUINTIC, 11).point_count()
    d = random_divisor(f5, 11, rng)
    while divisor_order(d, f5, order) == 1:
        d = random_divisor(f5, 11, rng)
    with pytest.raises(ValueError, match="annihilate"):
        divisor_order(d, f5, 1)
    # a proper divisor of the order, also for a class of prime-power order,
    # in J(F_19) = Z/20 x Z/20
    f5 = odd_degree_model(QUINTIC, 19)
    d = random_divisor(f5, 19, rng)
    while divisor_order(d, f5, 400) % 4:
        d = random_divisor(f5, 19, rng)
    o = divisor_order(d, f5, 400)
    for ell, v in sympy.factorint(o).items():
        with pytest.raises(ValueError, match="annihilate"):
            divisor_order(d, f5, o // ell)
        part = cantor_mul(o // ell**v, d, f5)
        assert divisor_order(part, f5, ell**v) == ell**v
        if v >= 2:
            with pytest.raises(ValueError, match="annihilate"):
                divisor_order(part, f5, ell ** (v - 1))


# ---------------------------------------------------------------------------
# odd-degree models
# ---------------------------------------------------------------------------


def test_odd_degree_model_preserves_counts():
    for row in TABLE:
        for p in (3, 5, 7, 11, 13):
            if not good_prime(row.curve, p):
                continue
            f5 = odd_degree_model(row.curve, p)
            if f5 is None:
                continue
            assert f5[5] == 1
            model = tuple(f5) + (0,)
            for n in (1, 2):
                assert count_model(model, p, n) == count_model(row.curve.coeffs, p, n)


def test_odd_degree_model_none_without_rational_weierstrass_point():
    assert odd_degree_model(TABLE[2].curve, 7) is None
    assert odd_degree_model(TABLE[4].curve, 11) is None
    with pytest.raises(ValueError, match="good prime"):
        odd_degree_model(Z6_CURVE, 7)


# ---------------------------------------------------------------------------
# group structure of J(F_p)
# ---------------------------------------------------------------------------


def test_jacobian_group_against_enumeration():
    # (Z/2)^2-row curve at p = 5: enumerate every reduced Mumford pair
    c = TABLE[1].curve
    p = 5
    f5 = odd_degree_model(c, p)
    order = curve_lpoly(c, p).point_count()
    elems = {identity_divisor(p)}
    for u0 in range(p):
        for v0 in range(p):
            try:
                elems.add(mumford_divisor(f5, p, (u0, 1), (v0,)))
            except ValueError:
                pass
        for u1 in range(p):
            for v0 in range(p):
                for v1 in range(p):
                    try:
                        elems.add(mumford_divisor(f5, p, (u0, u1, 1), (v0, v1)))
                    except ValueError:
                        pass
    assert len(elems) == order == 24
    stats: dict[int, int] = {}
    for d in elems:
        o = divisor_order(d, f5, order)
        stats[o] = stats.get(o, 0) + 1
    # 8 classes killed by 2 and a unique Z/3: the group is Z/2 x Z/2 x Z/6
    assert stats == {1: 1, 2: 7, 3: 2, 6: 14}
    g = jacobian_group_mod_p(c, p)
    assert g == JacobianGroup(p=5, order=24, invariants=(2, 2, 6), two_rank=3)


def test_jacobian_group_consistency():
    for row in TABLE:
        for p in good_primes(row.curve, 20):
            g = jacobian_group_mod_p(row.curve, p)
            assert g.order % prod(row.torsion) == 0
            if g.invariants is None:
                continue
            assert prod(g.invariants) == g.order
            assert sum(1 for d in g.invariants if d % 2 == 0) == g.two_rank
            for claim, actual in zip(
                reversed(row.torsion), reversed(g.invariants)
            ):
                assert actual % claim == 0


def test_jacobian_group_without_odd_model():
    g = jacobian_group_mod_p(TABLE[2].curve, 7)
    assert g.order == 51
    assert g.invariants is None
    assert g.two_rank == 0  # odd order forces trivial 2-torsion


def test_divisor_order_edge_cases():
    f5 = F5_MOD7
    assert divisor_order(identity_divisor(7), f5, 1) == 1
    with pytest.raises(ValueError, match="positive"):
        divisor_order(identity_divisor(7), f5, 0)


def test_jacobian_probing_stops_at_largest_exponent(monkeypatch):
    # (Z/2)^2 row at p = 5: #J = 24 and the 2-rank is 3, so the 2-part
    # can only be (Z/2)^3 and the 3-part Z/3: no probe is needed
    probes = _count_probes(monkeypatch)
    g = jacobian_group_mod_p(TABLE[1].curve, 5)
    assert g.invariants == (2, 2, 6)
    assert probes == []


def _enumerate_classes(f, p: int) -> list:
    """Every reduced pair (u, v) on y^2 = f(x), found without the sampler:
    deg u <= 2 on a monic quintic, deg u in {0, 2} on a sextic, and for
    u = x^2 + u1 x + u0, v = v0 + v1 x solves v0^2 - u0 v1^2 = r0 and
    2 v0 v1 - u1 v1^2 = r1 for f = r0 + r1 x mod u."""
    roots = collections.defaultdict(list)
    for y in range(p):
        roots[y * y % p].append(y)
    out = [identity_divisor(p)]
    if len(f) == 6:
        out += [divisor_from_point(f, p, x, y) for x in range(p)
                for y in roots[jacobian._eval(f, x, p)]]
    for u0, u1 in itertools.product(range(p), repeat=2):
        r0, r1 = (fp_divmod(f, (u0, u1, 1), p)[1] + (0, 0))[:2]
        for v1 in range(p):
            if v1:
                v0 = (r1 + u1 * v1 * v1) * pow(2 * v1, -1, p) % p
                v0s = [v0] if (v0 * v0 - u0 * v1 * v1 - r0) % p == 0 else []
            else:
                v0s = roots[r0] if r1 == 0 else []
            out += [mumford_divisor(f, p, (u0, u1, 1), (v0, v1)) for v0 in v0s]
    return out


def _order_counts(invariants) -> collections.Counter:
    """How many elements of Z/d1 x Z/d2 x ... have each order."""
    counts = collections.Counter()
    for x in itertools.product(*(range(d) for d in invariants)):
        counts[math.lcm(*(d // math.gcd(a, d) for a, d in zip(x, invariants)))] += 1
    return counts


def _generated(gens, f, p: int) -> set:
    group, frontier = {identity_divisor(p)}, [identity_divisor(p)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = cantor_add(x, g, f)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


NO_AFFINE_POINT_MOD_7 = GenusTwoCurve.from_coefficients([6, 4, 1, 3, 4, 1])
ENUMERATED = [(row.curve, p) for row in TABLE for p in good_primes(row.curve, 13)
              if odd_degree_model(row.curve, p) is not None]
# Z/2 x Z/4 x Z/236 at p = 43: v_2 = 5, with two parts above 2
ENUMERATED += [(TABLE[1].curve, 43), (NO_AFFINE_POINT_MOD_7, 7)]


@pytest.mark.parametrize("curve, p", ENUMERATED,
                         ids=[f"{','.join(map(str, c.coeffs))}@{p}" for c, p in ENUMERATED])
def test_jacobian_group_matches_class_enumeration(curve, p):
    # finite abelian groups with the same number of elements of each
    # order are isomorphic
    f5 = odd_degree_model(curve, p)
    order = curve_lpoly(curve, p).point_count()
    classes = _enumerate_classes(f5, p)
    assert len(set(classes)) == len(classes) == order
    counts = collections.Counter(divisor_order(d, f5, order) for d in classes)
    assert counts == _order_counts(jacobian_group_mod_p(curve, p).invariants)


def test_random_divisor_draws_generate_every_class():
    # (3,3) row at p = 7: J = Z/6 x Z/6, and sums of two rational points
    # generate only 12 of its 36 classes
    f5 = odd_degree_model(TABLE[3].curve, 7)
    rng = random.Random(0)
    draws = [random_divisor(f5, 7, rng) for _ in range(12)]
    assert len(_generated(draws, f5, 7)) == 36


@pytest.mark.parametrize("index, p", [(2, 7), (3, 11), (4, 13)])
def test_random_divisor_reaches_every_class_of_the_inert_sextic(index, p):
    # no rational Weierstrass point: the classes are D - D_inf with deg u
    # in {0, 2}, and there are #J(F_p) of them
    curve = TABLE[index].curve
    assert odd_degree_model(curve, p) is None
    sextic = jacobian._inert_model([c % p for c in curve.coeffs], p)
    classes = set(_enumerate_classes(sextic, p))
    assert len(classes) == curve_lpoly(curve, p).point_count()
    rng = random.Random(1)
    assert {random_divisor(sextic, p, rng) for _ in range(40 * len(classes))} == classes


def _count_probes(monkeypatch) -> list:
    """Draws of random_divisor made by the probing of jacobian_group_mod_p,
    after the L-polynomial step, which draws classes of its own."""
    probes = []
    draw, lpoly = jacobian.random_divisor, jacobian.curve_lpoly

    def counted(*args):
        probes.append(args)
        return draw(*args)

    def lpoly_then_reset(*args, **kwargs):
        out = lpoly(*args, **kwargs)
        probes.clear()
        return out

    monkeypatch.setattr(jacobian, "random_divisor", counted)
    monkeypatch.setattr(jacobian, "curve_lpoly", lpoly_then_reset)
    return probes


def test_probing_proves_every_structure_before_sixteen_probes(monkeypatch):
    probes = _count_probes(monkeypatch)
    probed = 0
    for row in TABLE:
        for p in good_primes(row.curve, 100):
            if odd_degree_model(row.curve, p) is None:
                continue
            jacobian_group_mod_p(row.curve, p, 0)
            assert len(probes) < 16, (row.torsion, p, len(probes))
            probed += 1
    assert probed == 61


def test_unproved_sylow_subgroup_leaves_the_structure_open(monkeypatch):
    # draws confined to a cyclic subgroup of J = Z/6 x Z/6 cannot prove
    # the 3-part: all 16 probes run, and the structure is not proved
    f5 = odd_degree_model(TABLE[3].curve, 7)
    rng = random.Random(0)
    d = random_divisor(f5, 7, rng)
    while divisor_order(d, f5, 36) != 6:
        d = random_divisor(f5, 7, rng)
    monkeypatch.setattr(jacobian, "random_divisor",
                        lambda f, p, rng: cantor_mul(rng.randrange(6), d, f))
    probes = _count_probes(monkeypatch)
    g = jacobian_group_mod_p(TABLE[3].curve, 7)
    assert (g.order, g.invariants, g.two_rank) == (36, None, 2)
    assert len(probes) == 16


def test_factor_degrees_match_sympy():
    x = sympy.Symbol("x")
    for row in TABLE:
        for p in good_primes(row.curve, 100):
            f = sum(int(c) * x**i for i, c in enumerate(row.curve.coeffs))
            poly = sympy.Poly(f, x, modulus=p)
            expected = sorted(int(g.degree()) for g, _ in poly.factor_list()[1])
            assert sorted(jacobian._factor_degrees(row.curve, p)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=7, max_size=7),
       st.sampled_from(list(sympy.primerange(3, 2000))))
def test_factor_degrees_match_sympy_random(coeffs, p):
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    x = sympy.Symbol("x")
    f = sympy.Poly(sum(c * x**i for i, c in enumerate(curve.coeffs)), x, modulus=p)
    expected = sorted(g.degree() for g, m in f.factor_list()[1] for _ in range(m))
    assert sorted(jacobian._factor_degrees(curve, p)) == expected


# ---------------------------------------------------------------------------
# explicit formulas against the generic Cantor algorithm
# ---------------------------------------------------------------------------

ORACLE_PRIMES = (3, 5, 7, 11, 13, 29, 53, 97)


def _oracle_models():
    """(p, monic quintic) for every odd-degree model of the table curves."""
    for row in TABLE:
        for p in ORACLE_PRIMES:
            if good_prime(row.curve, p):
                f5 = odd_degree_model(row.curve, p)
                if f5 is not None:
                    yield p, f5


def _oracle_pairs(f5, p: int, rng: random.Random):
    """Pairs of reduced classes, by the case of the addition they exercise."""
    pts = [(x, y) for x in range(p) for y in range(p)
           if (y * y - jacobian._eval(f5, x, p)) % p == 0]
    weierstrass = [pt for pt in pts if pt[1] == 0]
    by_x = {x: (x, y) for x, y in pts if y}  # one point with y != 0 per x

    def point(pt):
        return divisor_from_point(f5, p, *pt)

    def opposite(pt):
        return pt[0], -pt[1] % p

    def two(a, b):
        return jacobian._cantor_generic(point(a), point(b), f5)

    cases = collections.defaultdict(list)
    for _ in range(6):
        d, e = random_divisor(f5, p, rng), random_divisor(f5, p, rng)
        a, b = rng.choice(pts), rng.choice(pts)
        cases["random"].append((d, e))
        cases["doubling"].append((d, d))
        cases["D + (-D)"].append((d, cantor_neg(d)))
        # D + (P - D) = P: a sum of weight one
        cases["weight-one sum"].append(
            (d, jacobian._cantor_generic(point(a), cantor_neg(d), f5)))
        cases["deg u = 1"] += [(point(a), d), (d, point(a)), (point(a), point(b)),
                               (point(a), point(a)), (point(a), point(opposite(a)))]
        if len(by_x) >= 3:
            a, b, c = (by_x[x] for x in rng.sample(sorted(by_x), 3))
            cases["u1 = u2, v1 != +-v2"].append((two(a, b), two(a, opposite(b))))
            cases["one shared root"] += [(two(a, b), two(a, c)),
                                         (two(a, b), two(opposite(a), c))]
        if weierstrass and by_x:
            w, a = rng.choice(weierstrass), by_x[rng.choice(sorted(by_x))]
            cases["Res(u, v) = 0"] += [(two(w, a), two(w, a)), (two(w, a), d)]
        if len(weierstrass) >= 2:
            w1, w2 = rng.sample(weierstrass, 2)
            cases["Res(u, v) = 0"].append((two(w1, w2), two(w1, w2)))
    return cases


def test_cantor_add_matches_generic_cantor():
    rng = random.Random(2)
    seen = collections.Counter()
    for p, f5 in _oracle_models():
        for case, pairs in _oracle_pairs(f5, p, rng).items():
            for d, e in pairs:
                out = cantor_add(d, e, f5)
                assert out == jacobian._cantor_generic(d, e, f5), (case, p, d, e)
                seen[case] += 1
                if case in ("random", "doubling", "weight-one sum") and (
                        len(d.u) == len(e.u) == 3 and e != cantor_neg(d)):
                    seen["weight two"] += 1
                    seen["explicit"] += jacobian._add_weight_two(d, e, f5) is not None
    assert len(seen) == 10 and min(seen.values()) >= 10, seen
    assert seen["explicit"] >= 0.8 * seen["weight two"], seen


@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_group_matches_generic_path(seed, monkeypatch):
    groups = {
        (i, p): jacobian_group_mod_p(row.curve, p, seed)
        for i, row in enumerate(TABLE)
        for p in good_primes(row.curve, 100)
    }
    monkeypatch.setattr(jacobian, "cantor_add", jacobian._cantor_generic)
    for (i, p), g in groups.items():
        assert jacobian_group_mod_p(TABLE[i].curve, p, seed) == g


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["jacobian.py", "quat.py", "actions.py", "weil.py",
                                  "exact.py", "newform.py", "family.py", "curve.py",
                                  *sorted(path.name for path in SCRIPTS.glob("*.py"))])
def test_module_has_no_asserts(name):
    # python -O strips asserts; the checks that carry lemmas must raise instead
    package = Path(jacobian.__file__).resolve().parents[1]
    (path,) = [*package.rglob(name), *SCRIPTS.glob(name)]
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_divisor_order_check_survives_python_O():
    code = (
        "import sys\n"
        "from quatorsion.genus2.curve import parse_curve\n"
        "from quatorsion.genus2.jacobian import (\n"
        "    divisor_from_point, divisor_order, odd_degree_model)\n"
        "f5 = odd_degree_model(parse_curve('x^5 + 1'), 7)\n"
        "try:\n"
        "    divisor_order(divisor_from_point(f5, 7, 1, 3), f5, 1)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, 'ValueError', exc)\n"
    )
    src = str(Path(jacobian.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("1 ValueError group_order does not annihilate")


def test_model_with_no_affine_point_does_not_hang():
    # the monic quintic model mod 7 has one point, at infinity: #C(F_7) =
    # 7 + 1 + a1 = 1, so every class but zero has deg u = 2; run in a
    # subprocess so that a hang fails the test
    code = (
        "import random\n"
        "from quatorsion.genus2.curve import parse_curve\n"
        "from quatorsion.genus2.jacobian import jacobian_group_mod_p, random_divisor\n"
        "curve = parse_curve('x^5 + 4x^4 + 3x^3 + x^2 + 4x + 6')\n"
        "print(jacobian_group_mod_p(curve, 7))\n"
        "rng = random.Random(0)\n"
        "draws = [random_divisor((6, 4, 1, 3, 4, 1), 7, rng) for _ in range(200)]\n"
        "print(len(set(draws)), sorted({len(d.u) - 1 for d in draws}))\n"
    )
    src = str(Path(jacobian.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "JacobianGroup(p=7, order=18, invariants=(18,), two_rank=1)",
        "18 [0, 2]",
    ]


# ---------------------------------------------------------------------------
# 2-torsion from Weierstrass orbits
# ---------------------------------------------------------------------------

PARTITIONS_6 = [
    (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
    (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
]
PARTITIONS_5 = [
    (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
]


def _fixed_classes_by_enumeration(degrees) -> int:
    # J[2] = even subsets of the six Weierstrass points modulo
    # complementation; Frobenius permutes the points in cycles given by
    # the orbit degrees (plus a fixed sixth point for a quintic model).
    perm = {}
    i = 0
    for d in degrees:
        cycle = list(range(i, i + d))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        i += d
    if i == 5:
        perm[5] = 5
    everything = frozenset(range(6))
    fixed = 0
    seen = set()
    for bits in range(64):
        s = frozenset(j for j in range(6) if bits >> j & 1)
        if len(s) % 2:
            continue
        key = min(tuple(sorted(s)), tuple(sorted(everything - s)))
        if key in seen:
            continue
        seen.add(key)
        image = frozenset(perm[a] for a in s)
        if image in (s, everything - s):
            fixed += 1
    assert len(seen) == 16
    return fixed


@pytest.mark.parametrize("degrees", PARTITIONS_6 + PARTITIONS_5)
def test_two_torsion_count_matches_enumeration(degrees):
    assert two_torsion_count(degrees) == _fixed_classes_by_enumeration(degrees)


def test_two_torsion_count_examples():
    assert two_torsion_count([2, 2, 2]) == 4
    assert two_torsion_count([6]) == 1
    assert two_torsion_count([1] * 6) == 16
    assert two_torsion_count([1, 1, 4]) == 2
    assert two_torsion_count([2, 4]) == 2


@pytest.mark.parametrize("degrees", [[], [1, 1], [7], [0, 6], [-1, 6, 1]])
def test_two_torsion_count_errors(degrees):
    with pytest.raises(ValueError):
        two_torsion_count(degrees)


# ---------------------------------------------------------------------------
# torsion certification
# ---------------------------------------------------------------------------

TABLE_EXPECTATIONS = [
    # (index, torsion, disc, endos, gcd of orders, 2-torsion lower bound)
    (0, (2,), 10, "Q", 2, 2),
    (1, (2, 2), 6, "Q(sqrt(3))", 4, 4),
    (2, (3,), 15, "Q", 3, 1),
    (3, (3, 3), 6, "Q(sqrt(2))", 9, 1),
    (4, (6,), 6, "Q", 6, 2),
]


def test_table_curves_fixture():
    assert len(TABLE) == 5
    for index, tors, disc, endos, _, _ in TABLE_EXPECTATIONS:
        row = TABLE[index]
        assert row.torsion == tors
        assert row.quaternion_disc == disc
        assert row.endomorphisms == endos
        assert row.curve.degree == 6


@pytest.mark.parametrize(
    "index, tors, disc, endos, order_gcd, two_lower", TABLE_EXPECTATIONS
)
def test_certify_table_rows(index, tors, disc, endos, order_gcd, two_lower):
    row = TABLE[index]
    report = certify_torsion(row.curve, row.torsion, 200)
    assert report.verdict == "CONSISTENT"
    assert report.consistent
    assert report.divisibility_failures == ()
    assert report.order_gcd == order_gcd
    assert report.two_torsion_lower == two_lower
    assert gcd(report.order_gcd, 2**10) >= 2 ** sum(
        1 for d in tors if d % 2 == 0)
    assert len(report.orders) >= 40


def test_certify_refutes_wrong_order():
    report = certify_torsion(Z6_CURVE, (5,), 60)
    assert report.verdict == "INCONSISTENT"
    assert 5 in report.divisibility_failures


def test_certify_cannot_separate_groups_of_equal_order():
    # the necessary conditions do not tell Z/4 from (Z/2)^2
    assert certify_torsion(TABLE[1].curve, (4,), 60).consistent


def test_certify_refutes_by_weierstrass_orbits_alone():
    # (x^2 + x + 1)(x^4 + x + 2): every #J(F_p) here is divisible by 4,
    # but the factor degrees {2, 4} only support #J(Q)[2] <= 2
    c = GenusTwoCurve.from_coefficients([2, 3, 3, 1, 1, 1, 1])
    report = certify_torsion(c, (2, 2), 60)
    assert report.divisibility_failures == ()
    assert report.two_torsion_lower == 2
    assert report.verdict == "INCONSISTENT"


def test_certify_trivial_claim():
    assert certify_torsion(QUINTIC, (), 30).consistent


@pytest.mark.parametrize("claimed", [(0,), (1,), (3, 2), (2, 3)])
def test_certify_claim_validation(claimed):
    with pytest.raises(ValueError):
        certify_torsion(QUINTIC, claimed, 30)


def test_certify_needs_good_primes():
    with pytest.raises(ValueError, match="good odd primes"):
        certify_torsion(Z6_CURVE, (6,), 3)


def test_certification_report_is_frozen():
    report = certify_torsion(QUINTIC, (2,), 30)
    assert isinstance(report, CertificationReport)
    with pytest.raises(AttributeError):
        report.verdict = "CONSISTENT"
