"""Tests for genus-2 point counts, Cantor arithmetic and torsion."""

from __future__ import annotations

import ast
import collections
import functools
import importlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import quatorsion
import quatorsion.genus2
from class_oracle import enumerate_classes
from grid_oracle import count_model
from quatorsion import exact
from quatorsion.exact import (
    fp_distinct_degree,
    fp_monic,
    fp_mul,
    fp_trim,
    nextprime,
    poly_eval,
)
from quatorsion.genus2 import curve as curve_mod
from quatorsion.genus2 import jacobian, torsion
from quatorsion.genus2.curve import (
    GenusTwoCurve,
    count_points_curve,
    curve_lpoly,
    good_prime,
    good_primes,
    lpoly_from_counts,
    two_torsion_count,
)
from quatorsion.genus2.jacobian import (
    JacobianGroup,
    cantor_add,
    cantor_mul,
    cantor_neg,
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
)
from quatorsion.weil import is_weil_valid

TABLE = table_curves()
QUINTIC = GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1
Z6_CURVE = TABLE[4].curve


# ---------------------------------------------------------------------------
# curves: construction, printing, good primes
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


def test_from_coefficients_strips_trailing_zeros():
    # zeros above x^6 do not raise the degree; a nonzero coefficient does
    assert GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 1, 0, 0]) == QUINTIC
    assert GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 0, 1, 0, 0]).degree == 6
    with pytest.raises(ValueError, match="degree at most 6"):
        GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 1, 0, 1])


def test_from_coefficients_singular():
    # (x^3 - 1)^2 has repeated roots
    with pytest.raises(ValueError, match="singular"):
        GenusTwoCurve.from_coefficients([1, 0, 0, -2, 0, 0, 1])


def test_curve_str_round_trips():
    # the printed f parses back, with sympy, to the coefficients
    for row in TABLE:
        text = str(row.curve)
        assert text.startswith("y^2 = ")
        poly = sympy.Poly(sympy.sympify(re.sub(r"(\d)x", r"\1*x", text[6:]).replace("^", "**")))
        assert tuple(reversed(poly.all_coeffs())) == row.curve.coeffs[:row.curve.degree + 1]
    assert str(Z6_CURVE) == "y^2 = 5x^6+21x^5-63x^4-49x^3+294x^2-343"
    assert str(QUINTIC) == "y^2 = x^5+1"


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
    assert count_points_curve(QUINTIC, 3) == 4


def test_count_points_against_brute_force():
    # over F_{p^2} the count is p^2 + 1 - a1^2 + 2 a2, from the L-polynomial
    for row in TABLE:
        for p in (3, 5, 7, 11, 13):
            if not good_prime(row.curve, p):
                continue
            assert count_points_curve(row.curve, p) == _brute_count_fp(
                row.curve, p)
            if p <= 7:
                w = curve_lpoly(row.curve, p)
                assert p * p + 1 - w.a1 * w.a1 + 2 * w.a2 == _brute_count_fp2(
                    row.curve, p)


def test_count_points_degree_drop_weil_interval():
    # lead(f) = 5: the reduction mod 5 drops to degree 5 but stays smooth
    n = count_points_curve(Z6_CURVE, 5)
    assert n == 6
    assert abs(n - 6) <= 4 * isqrt(5) + 4  # |#C - p - 1| <= 4 sqrt(p)


@pytest.mark.parametrize("p", [2, 7, 15])
def test_count_points_errors(p):
    with pytest.raises(ValueError):
        count_points_curve(Z6_CURVE, p)


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
    # the point (1, 3) less infinity is the pair (x - 1, 3); (1, 5) is no point
    d = mumford_divisor(F5_MOD7, 7, (-1, 1), (3,))
    assert d == jacobian.MumfordDivisor(7, (6, 1), (3,))
    with pytest.raises(ValueError, match="divide"):
        mumford_divisor(F5_MOD7, 7, (-1, 1), (5,))


def test_weierstrass_point_is_two_torsion():
    d = mumford_divisor(F5_MOD7, 7, (1, 1), ())  # f(-1) = 0
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
            assert len(f5) == 6 and f5[5]
            model = tuple(f5) + (0,)
            for n in (1, 2):
                assert count_model(model, p, n) == count_model(row.curve.coeffs, p, n)


def test_odd_degree_model_none_without_rational_weierstrass_point():
    assert odd_degree_model(TABLE[2].curve, 7) is None
    assert odd_degree_model(TABLE[4].curve, 11) is None
    with pytest.raises(ValueError, match="good prime"):
        odd_degree_model(Z6_CURVE, 7)


# ---------------------------------------------------------------------------
# the model check where a class enters
# ---------------------------------------------------------------------------

# the (2) curve's own sextic: its leading coefficient is 4 mod 7, a square
SPLIT_SEXTIC = TABLE[0].curve.coeffs


def test_random_divisor_refuses_a_sextic_with_a_square_leading_coefficient():
    # its two points at infinity are rational, and the classes the sampler
    # would draw there are not all killed by #J(F_7)
    p = 7
    assert pow(SPLIT_SEXTIC[6], (p - 1) // 2, p) == 1
    with pytest.raises(ValueError, match="non-square leading coefficient"):
        random_divisor(SPLIT_SEXTIC, p, random.Random(0))
    f = tuple(c % p for c in SPLIT_SEXTIC)
    order = curve_lpoly(TABLE[0].curve, p).point_count()
    rng = random.Random(0)
    draws = [_random_divisor_by_extraction(f, p, rng) for _ in range(20)]
    assert any(not cantor_mul(order, d, f).is_identity for d in draws)


def test_mumford_divisor_refuses_a_weight_one_pair_on_the_inert_sextic():
    # (1, 1) is a point of F, but a point alone is no class on a sextic
    p = 13
    F = jacobian._inert_model([c % p for c in TABLE[0].curve.coeffs], p)
    assert F == (5, 6, 4, 7, 1, 12, 5) and poly_eval(F, 1) % p == 1
    with pytest.raises(ValueError, match="degree 1"):
        mumford_divisor(F, 13, (12, 1), (1,))
    assert mumford_divisor(F, 13, (1,), ()).is_identity


BAD_MODELS = [(1, 0, 0, 0, 0, 7), (1, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0, 3)]


@pytest.mark.parametrize("f", BAD_MODELS, ids=["f5=7", "f6=0", "quartic", "octic"])
def test_model_check_refuses_every_other_model(f):
    with pytest.raises(ValueError, match="neither a quintic nor a sextic"):
        random_divisor(f, 7, random.Random(0))
    with pytest.raises(ValueError, match="neither a quintic nor a sextic"):
        mumford_divisor(f, 7, (1,), ())


def test_every_model_the_package_builds_passes_the_check():
    # the inert sextics of each curve and its twist, and the quintics
    checked = collections.Counter()
    for row in TABLE:
        for p in good_primes(row.curve, 200):
            c = [v % p for v in row.curve.coeffs]
            models = [*jacobian._class_models(c, p), odd_degree_model(row.curve, p)]
            for f in filter(None, models):
                jacobian._check_model(f, p)
                checked[len(f)] += 1
    assert checked[7] > 400 and checked[6] > 100, checked


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=7, max_size=7),
       st.sampled_from(list(sympy.primerange(3, 60))), st.integers(0, 2**32))
def test_random_models_pass_the_check_and_give_classes_killed_by_the_order(coeffs, p, seed):
    # random_divisor checks the model before it draws
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    c = [v % p for v in curve.coeffs]
    order = curve_lpoly(curve, p).point_count()
    rng = random.Random(seed)
    for f in filter(None, [jacobian._inert_model(c, p), odd_degree_model(curve, p)]):
        assert cantor_mul(order, random_divisor(f, p, rng), f).is_identity


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
    # #J = 531 = 3^2 59 and 3 does not divide p - 1 = 22: Z/9 and (Z/3)^2
    # are both left open, and there is no quintic model to probe on
    g = jacobian_group_mod_p(TABLE[2].curve, 23)
    assert odd_degree_model(TABLE[2].curve, 23) is None
    assert g.order == 531
    assert g.invariants is None
    assert g.two_rank == 0  # odd order forces trivial 2-torsion


@pytest.mark.parametrize("scale, p", [(1, 1), (1, 0), (1, 4), (3, 3), (3, 9)])
def test_jacobian_group_rejects_bad_primes(scale, p):
    # p = 0, 1, 4 and 9 are not primes; 3 divides the discriminant of 3(x^5 + 1)
    curve = GenusTwoCurve.from_coefficients([scale, 0, 0, 0, 0, scale])
    with pytest.raises(ValueError, match=f"p = {p} is not a good prime"):
        jacobian_group_mod_p(curve, p)


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
    # order are isomorphic; the classes are those of the inert sextic,
    # which the probes use
    f = jacobian._inert_model([c % p for c in curve.coeffs], p)
    order = curve_lpoly(curve, p).point_count()
    classes = enumerate_classes(f, p)
    assert len(set(classes)) == len(classes) == order
    counts = collections.Counter(divisor_order(d, f, order) for d in classes)
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
    classes = set(enumerate_classes(sextic, p))
    assert len(classes) == curve_lpoly(curve, p).point_count()
    rng = random.Random(1)
    assert {random_divisor(sextic, p, rng) for _ in range(40 * len(classes))} == classes


@pytest.mark.parametrize("index, p, invariants",
                         [(2, 7, (51,)), (2, 17, (321,)), (2, 19, (339,)), (4, 13, (2, 84))])
def test_jacobian_group_from_the_bounds_alone_matches_the_inert_sextic(index, p, invariants):
    # no quintic model, but the order and rank bounds leave one shape
    curve = TABLE[index].curve
    assert odd_degree_model(curve, p) is None
    g = jacobian_group_mod_p(curve, p)
    assert g.invariants == invariants
    sextic = jacobian._inert_model([c % p for c in curve.coeffs], p)
    classes = enumerate_classes(sextic, p)
    assert len(set(classes)) == len(classes) == g.order
    counts = collections.Counter(divisor_order(d, sextic, g.order) for d in classes)
    assert counts == _order_counts(invariants)


def _count_probes(monkeypatch) -> list:
    """Draws of random_divisor made by the probing of jacobian_group_mod_p,
    after the L-polynomial step, which draws classes of its own."""
    probes = []
    draw, stream = jacobian.random_divisor, jacobian._reductions

    def counted(*args):
        probes.append(args)
        return draw(*args)

    def stream_then_reset(*args):
        for out in stream(*args):
            probes.clear()
            yield out

    monkeypatch.setattr(jacobian, "random_divisor", counted)
    monkeypatch.setattr(jacobian, "_reductions", stream_then_reset)
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
    # draws confined to a cyclic subgroup of J = Z/6 x Z/6 on the inert
    # sextic cannot prove the 3-part: all 16 probes run, and the structure
    # is not proved.  The Frobenius rule proves (Z/3)^2 here before any
    # probe, so it is switched off
    p = 7
    monkeypatch.setattr(jacobian, "_frobenius_shape", lambda w, ell: None)
    sextic = jacobian._inert_model([c % p for c in TABLE[3].curve.coeffs], p)
    rng = random.Random(0)
    d = random_divisor(sextic, p, rng)
    while divisor_order(d, sextic, 36) != 6:
        d = random_divisor(sextic, p, rng)
    monkeypatch.setattr(jacobian, "random_divisor",
                        lambda f, p, rng: cantor_mul(rng.randrange(6), d, f))
    probes = _count_probes(monkeypatch)
    g = jacobian_group_mod_p(TABLE[3].curve, p)
    assert (g.order, g.invariants, g.two_rank) == (36, None, 2)
    assert len(probes) == 16
    assert {f for f, _, _ in probes} == {sextic}


def _walk_coordinates(t, ts, ell: int, f5):
    """Oracle for ``_coordinates``: a table of the span of the first
    len(ts) // 2 classes, and a one-sided walk over the span of the rest,
    ell^(m - m // 2) steps for m classes."""
    half = len(ts) // 2
    baby = dict(_walk_span(ts[:half], t.p, ell, f5))
    for s, cs in _walk_span(ts[half:], t.p, ell, f5):
        hit = baby.get(cantor_add(t, cantor_neg(s), f5))
        if hit is not None:
            return hit + cs
    return None


def _walk_span(ts, p: int, ell: int, f5):
    if not ts:
        yield identity_divisor(p), ()
        return
    for s, cs in _walk_span(ts[:-1], p, ell, f5):
        for c in range(ell):
            yield s, cs + (c,)
            s = cantor_add(s, ts[-1], f5)


@functools.lru_cache(maxsize=None)
def _order_ell_classes(curve, p: int, ell: int, rank: int):
    """The inert sextic, ``rank`` F_ell-independent classes of order ell
    (independent by the oracle), and a class w with ell w != 0."""
    f5 = jacobian._inert_model([c % p for c in curve.coeffs], p)
    order = curve_lpoly(curve, p).point_count()
    v = exact.factorint(order)[ell]
    rng, ts, w = random.Random(0), [], None
    while len(ts) < rank or w is None:
        d = random_divisor(f5, p, rng)
        if w is None and not cantor_mul(ell, d, f5).is_identity:
            w = d
        k, t = jacobian._ell_ladder(cantor_mul(order // ell**v, d, f5), ell, v, f5)
        if k and len(ts) < rank and _walk_coordinates(t, ts, ell, f5) is None:
            ts.append(t)
    return f5, tuple(ts), w


# (curve, p, ell, ell-rank of J(F_p)): J = (Z/2)^2 x (Z/28)^2 at 61,
# (Z/14)^2 at 17, (Z/82)^2 at 83, (Z/958)^2 at 1013 and (Z/3)^2 x (Z/114)^2
# at 331 on the (2,2) row; Z/2 x (Z/10)^2 x Z/110 at 151 on y^2 = x^5 + 1
ORDER_ELL_CASES = [(TABLE[1].curve, 61, 2, 4), (TABLE[1].curve, 331, 3, 4),
                   (QUINTIC, 151, 5, 3), (TABLE[1].curve, 17, 7, 2),
                   (TABLE[1].curve, 83, 41, 2), (TABLE[1].curve, 1013, 479, 2)]


@pytest.mark.parametrize("curve, p, ell, rank", ORDER_ELL_CASES,
                         ids=[f"ell={c[2]}@{c[1]}" for c in ORDER_ELL_CASES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_coordinates_match_the_walk(curve, p, ell, rank, data):
    f5, ts, w = _order_ell_classes(curve, p, ell, rank)
    m = data.draw(st.integers(0, min(rank, 3)), label="m")
    cs = tuple(data.draw(st.lists(st.integers(0, ell - 1), min_size=m, max_size=m), label="cs"))
    t = functools.reduce(lambda x, y: cantor_add(x, y, f5),
                         (cantor_mul(c, t_i, f5) for c, t_i in zip(cs, ts)), identity_divisor(p))
    assert jacobian._coordinates(t, ts[:m], ell, f5) == _walk_coordinates(t, ts[:m], ell, f5) == cs
    # off the span: t plus a multiple of a class of order ell independent
    # of ts[:m], or t + w, which ell does not kill
    offs = [cantor_mul(data.draw(st.integers(1, ell - 1)), t_m, f5) for t_m in ts[m:m + 1]]
    for x in (cantor_add(t, off, f5) for off in (*offs, w)):
        assert jacobian._coordinates(x, ts[:m], ell, f5) is None
        assert _walk_coordinates(x, ts[:m], ell, f5) is None


def _count_cantor_add(monkeypatch, within=None) -> list:
    """Calls of cantor_add made by jacobian, or only those made inside
    the function of that name."""
    calls, depth = [], []
    add = jacobian.cantor_add

    def counted(*args):
        if within is None or depth:
            calls.append(args)
        return add(*args)

    monkeypatch.setattr(jacobian, "cantor_add", counted)
    if within is not None:
        inner = getattr(jacobian, within)

        def entered(*args):
            depth.append(args)
            try:
                return inner(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(jacobian, within, entered)
    return calls


@pytest.mark.parametrize("p, ell", [(17, 7), (83, 41), (1013, 479)])
def test_coordinates_take_about_two_square_roots_of_ell_additions(p, ell, monkeypatch):
    f5, (t1, t2), _ = _order_ell_classes(TABLE[1].curve, p, ell, 2)
    calls = _count_cantor_add(monkeypatch)
    # t2 is off the span of t1, so every giant step is taken
    assert jacobian._coordinates(t2, [t1], ell, f5) is None
    assert len(calls) <= 2 * (isqrt(ell - 1) + 1) + 2
    calls.clear()
    assert jacobian._coordinates(cantor_mul(ell - 1, t1, f5), [t1], ell, f5) == (ell - 1,)
    assert len(calls) <= 2 * (isqrt(ell - 1) + 1) + 2


def test_square_sylow_proof_takes_far_fewer_than_ell_additions(monkeypatch):
    # J(F_1013) = (Z/958)^2 on the (2,2) row: the proof of (Z/479)^2, not
    # Z/479^2, asks whether a second class of order 479 is a multiple of
    # the first, which took up to 2 * 479 additions as a walk.  The
    # Frobenius rule proves (Z/479)^2 before any probe, so it is switched off
    monkeypatch.setattr(jacobian, "_frobenius_shape", lambda w, ell: None)
    calls = _count_cantor_add(monkeypatch, within="_coordinates")
    assert jacobian_group_mod_p(TABLE[1].curve, 1013).invariants == (958, 958)
    assert 0 < len(calls) <= 100


def test_factor_degrees_match_sympy():
    x = sympy.Symbol("x")
    for row in TABLE:
        for p in good_primes(row.curve, 100):
            f = sum(int(c) * x**i for i, c in enumerate(row.curve.coeffs))
            poly = sympy.Poly(f, x, modulus=p)
            expected = sorted(int(g.degree()) for g, _ in poly.factor_list()[1])
            assert sorted(curve_mod._factor_degrees(row.curve, p)) == expected


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
    assert sorted(curve_mod._factor_degrees(curve, p)) == expected


def _distinct_degree_oracle(curve: GenusTwoCurve, p: int) -> list[int]:
    f = fp_monic(fp_trim([c % p for c in curve.coeffs]), p)
    return [k for k, g in fp_distinct_degree(f, p) for _ in range((len(g) - 1) // k)]


# every factorization pattern of a squarefree sextic and quintic, ascending
PATTERNS = [tuple(reversed(s)) for n in (6, 5) for s in jacobian._partitions(n, n)]


def test_patterns_are_the_partitions_of_five_and_six():
    assert sum(sum(s) == 6 for s in PATTERNS) == 11
    assert sum(sum(s) == 5 for s in PATTERNS) == 7


def test_factor_degrees_match_distinct_degree_on_the_table_curves():
    for row in TABLE:
        for p in good_primes(row.curve, 10_000):
            assert curve_mod._factor_degrees(row.curve, p) == _distinct_degree_oracle(
                row.curve, p), (row.torsion, p)


def _curve_with_pattern(pattern, p: int, rng: random.Random, drop: bool) -> GenusTwoCurve:
    """A curve whose f mod p is lead times distinct random irreducible
    factors of the given degrees; a quintic pattern with ``drop`` is the
    reduction of a sextic with p | f_6."""
    factors: set[tuple[int, ...]] = set()
    for k in pattern:
        while True:
            g = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            if g not in factors and fp_distinct_degree(g, p) == [(k, g)]:
                factors.add(g)
                break
    f = functools.reduce(lambda a, b: fp_mul(a, b, p), sorted(factors))
    lead = rng.randrange(1, p)
    coeffs = [c * lead % p for c in f]
    if len(coeffs) == 6:
        coeffs.append(p if drop else 0)
    curve = GenusTwoCurve.from_coefficients(coeffs)
    assert good_prime(curve, p)
    return curve


PRIMES_TO_A_MILLION = st.integers(10, 999_982).map(nextprime)


@pytest.mark.parametrize("pattern", PATTERNS, ids=["".join(map(str, s)) for s in PATTERNS])
@settings(max_examples=8, deadline=None)
@given(p=PRIMES_TO_A_MILLION, seed=st.integers(0, 2**32), drop=st.booleans())
def test_factor_degrees_find_every_pattern(pattern, p, seed, drop):
    curve = _curve_with_pattern(pattern, p, random.Random(seed), drop)
    assert _distinct_degree_oracle(curve, p) == list(pattern)
    assert curve_mod._factor_degrees(curve, p) == list(pattern)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=7), PRIMES_TO_A_MILLION)
def test_factor_degrees_match_distinct_degree_random(coeffs, p):
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if good_prime(curve, p):
        assert curve_mod._factor_degrees(curve, p) == _distinct_degree_oracle(curve, p)


@pytest.mark.parametrize("index, p", [(1, 5), (4, 5), (2, 263)])
def test_factor_degrees_where_the_degree_drops(index, p):
    curve = TABLE[index].curve
    assert curve.coeffs[6] % p == 0 and good_prime(curve, p)
    assert curve_mod._factor_degrees(curve, p) == _distinct_degree_oracle(curve, p)


def test_factor_degrees_at_three_and_five():
    # x^5 - x vanishes on all of F_5: no t in F_5 has f(t) != 0
    x5 = GenusTwoCurve.from_coefficients([0, -1, 0, 0, 0, 1])
    assert curve_mod._factor_degrees(x5, 5) == [1, 1, 1, 1, 1]
    checked = 0
    for coeffs in itertools.product(range(-2, 3), repeat=4):
        for top in ([1], [0, 1], [1, 1], [2, 0, 3]):
            try:
                curve = GenusTwoCurve.from_coefficients([*coeffs, *top])
            except ValueError:
                continue
            for p in (3, 5):
                if good_prime(curve, p):
                    assert curve_mod._factor_degrees(curve, p) == _distinct_degree_oracle(
                        curve, p), (curve.coeffs, p)
                    checked += 1
    assert checked > 500


def test_factor_degrees_need_no_distinct_degree_split(monkeypatch):
    rng = random.Random(3)
    cases = [(pattern, p, _curve_with_pattern(pattern, p, rng, drop))
             for pattern in PATTERNS for p in (7, 10007) for drop in (False, True)]

    def refuse(*args):
        raise AssertionError("fp_distinct_degree was called")

    monkeypatch.setattr(exact, "fp_distinct_degree", refuse)
    assert not hasattr(curve_mod, "fp_distinct_degree")
    for pattern, p, curve in cases:
        assert curve_mod._factor_degrees(curve, p) == list(pattern)


@pytest.mark.parametrize("index, p, group", [
    (1, 37, JacobianGroup(37, 1396, (2, 698), 2)),
    (2, 7, JacobianGroup(7, 51, (51,), 0)),
    (2, 23, JacobianGroup(23, 531, None, 0)),
    (3, 11, JacobianGroup(11, 126, None, 1)),
    (4, 13, JacobianGroup(13, 168, (2, 84), 2)),
])
def test_jacobian_group_seeks_no_model_for_a_rootless_sextic(index, p, group, monkeypatch):
    def refuse(*args):
        raise AssertionError("odd_degree_model was called")

    monkeypatch.setattr(jacobian, "odd_degree_model", refuse)
    assert jacobian_group_mod_p(TABLE[index].curve, p) == group


# y^2 = 4x^6 - 4x^5 + x^4 - 4x^3 - 3x^2 + 7x: every value of f mod 13 is
# 0 or a square
NO_INERT_MODEL_MOD_13 = GenusTwoCurve.from_coefficients([0, 7, -3, -4, 1, -4, 4])


def test_jacobian_group_probes_on_the_quintic_without_an_inert_model(monkeypatch):
    # J(F_13) has order 400 = 2^4 5^2 and 2-rank 2, which leave Z/2 x Z/8
    # or (Z/4)^2, and Z/25 or (Z/5)^2: the probes run on the quintic
    p, curve = 13, NO_INERT_MODEL_MOD_13
    c = [v % p for v in curve.coeffs]
    assert jacobian._inert_model(c, p) is None
    w = curve_lpoly(curve, p)
    assert (w.a1, w.a2) == (12, 62)
    assert w == lpoly_from_counts(count_model(c, p, 1), count_model(c, p, 2), p)
    models = []
    quintic = jacobian.odd_degree_model
    monkeypatch.setattr(jacobian, "odd_degree_model",
                        lambda *args: models.append(args) or quintic(*args))
    for seed in (0, 1):
        assert jacobian_group_mod_p(curve, p, seed) == JacobianGroup(p, 400, (20, 20), 2)
    assert len(models) == 2
    f5 = odd_degree_model(curve, p)
    classes = enumerate_classes(f5, p)
    assert len(set(classes)) == len(classes) == w.point_count()
    counts = collections.Counter(divisor_order(d, f5, 400) for d in classes)
    assert counts == _order_counts((20, 20))


def _binary_ladder(n: int, d, f5):
    """The right-to-left binary ladder that ``cantor_mul`` replaced."""
    if n < 0:
        return _binary_ladder(-n, cantor_neg(d), f5)
    acc, sq = identity_divisor(d.p), d
    while n:
        if n & 1:
            acc = cantor_add(acc, sq, f5)
        n >>= 1
        if n:
            sq = cantor_add(sq, sq, f5)
    return acc


def _ladder_models(p: int, sextic_row: int = 2):
    """A quintic and a sextic with a non-square leading coefficient
    (the table curve of index 2 is bad at 11 and 13, that of index 3 is
    good at 7, 11, 13, 23 and 10007)."""
    c = [v % p for v in TABLE[sextic_row].curve.coeffs]
    return [odd_degree_model(TABLE[0].curve, p), jacobian._inert_model(c, p)]


def test_cantor_mul_matches_repeated_addition():
    rng = random.Random(4)
    for p in (7, 23):
        for f in _ladder_models(p):
            for _ in range(3):
                d = random_divisor(f, p, rng)
                assert cantor_mul(0, d, f).is_identity
                acc = identity_divisor(p)
                for n in range(1, 101):
                    acc = cantor_add(acc, d, f)
                    assert cantor_mul(n, d, f) == acc
                    assert cantor_mul(-n, d, f) == cantor_neg(acc)


def test_cantor_mul_matches_the_binary_ladder():
    rng = random.Random(5)
    for p in (23, 10007):
        for f in _ladder_models(p):
            for _ in range(20):
                d, n = random_divisor(f, p, rng), rng.randrange(1 << 40)
                assert cantor_mul(n, d, f) == _binary_ladder(n, d, f)
                assert cantor_mul(-n, d, f) == _binary_ladder(-n, d, f)


def _cantor_add_ladder(n: int, d, f5):
    """The non-adjacent-form ladder of ``cantor_mul`` with every step a
    ``cantor_add``, as it was before the ladder kept integers."""
    if n < 0:
        return _cantor_add_ladder(-n, cantor_neg(d), f5)
    if n == 0:
        return identity_divisor(d.p)
    neg = cantor_neg(d)
    triple, acc = 3 * n, d
    for i in range(triple.bit_length() - 2, 0, -1):
        acc = cantor_add(acc, acc, f5)
        digit = (triple >> i & 1) - (n >> i & 1)
        if digit:
            acc = cantor_add(acc, d if digit > 0 else neg, f5)
    return acc


def _special_starts(f, p: int) -> list:
    """On a quintic a class with deg u = 1, and where f has a root alpha
    mod p a class W + P with W = (alpha, 0): gcd(u, v) = x - alpha."""
    alpha = next((x for x in range(p) if poly_eval(f, x) % p == 0), None)
    x, y = next((x, y) for x in range(p) if x != alpha
                for y in [sympy.sqrt_mod(poly_eval(f, x) % p, p)] if y)
    starts = [mumford_divisor(f, p, (-x, 1), (y,))] if len(f) == 6 else []
    if alpha is not None:
        lam = y * pow(x - alpha, -1, p) % p
        starts.append(mumford_divisor(f, p, (alpha * x, -(alpha + x), 1), (-lam * alpha, lam)))
    return starts


def test_integer_ladder_matches_the_cantor_add_ladder():
    rng = random.Random(6)
    kinds = collections.Counter()
    for p in (23, 10007):
        for f in _ladder_models(p):
            special = _special_starts(f, p)
            kinds["deg u = 1"] += sum(len(d.u) == 2 for d in special)
            kinds["gcd(u, v) != 1"] += sum(len(exact.fp_gcd(d.u, d.v, p)) == 2 for d in special)
            for d in special + [random_divisor(f, p, rng) for _ in range(3)]:
                for n in [*range(-100, 101), *(rng.randrange(1 << 40) for _ in range(10))]:
                    assert cantor_mul(n, d, f) == _cantor_add_ladder(n, d, f), (p, f, d, n)
    # deg u = 1 on both quintics; gcd(u, v) != 1 on both quintics and on
    # the sextic at 10007, the one model of the four with a root
    assert kinds == {"deg u = 1": 2, "gcd(u, v) != 1": 3}, kinds


def _ladder_fallbacks(n: int, m: int) -> list[bool]:
    """For each step of the ladder of ``cantor_mul(n, D)``, D of odd order
    m on the inert sextic, whether ``_ladder_add`` takes it outside the
    kernel: zero is the one class of weight below two, so those are the
    steps with kD = 0 or a sum of zero."""
    triple, k, out = 3 * n, 1, []
    for i in range(triple.bit_length() - 2, 0, -1):
        out.append(k % m == 0)  # 2kD = 0 only if kD = 0, for m odd
        k *= 2
        digit = (triple >> i & 1) - (n >> i & 1)
        if digit:
            out.append(k % m == 0 or (k + digit) % m == 0)
            k += digit
    return out


def test_integer_ladder_returns_to_the_kernel_after_a_fallback(monkeypatch):
    # for D of order 11 and n = 11 * 2^25 + r, the multiples of D in the
    # ladder reach zero at 11 D and stay there through the zero bits; the
    # ladder takes those steps, and any other at zero, outside the kernel
    # and takes the bits of r in the kernel again
    p = 10007
    f = _ladder_models(p)[1]
    order = curve_lpoly(TABLE[2].curve, p).point_count()
    rng = random.Random(8)
    d = identity_divisor(p)
    while d.is_identity:
        d = cantor_mul(order // 11, random_divisor(f, p, rng), f)
    n = (11 << 25) + rng.randrange(1 << 19, 1 << 20)
    expected = _cantor_add_ladder(n, d, f)
    calls, sums = [], []
    original, add = jacobian._ladder_add, jacobian._add_weight_two

    def kernel(*args):
        out = add(*args)
        sums.append(out is not None)
        return out

    monkeypatch.setattr(jacobian, "_ladder_add",
                        lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(jacobian, "_add_weight_two", kernel)
    assert cantor_mul(n, d, f) == expected
    steps = _ladder_fallbacks(n, 11)
    assert len(calls) == len(steps) and len(calls) - sum(sums) == sum(steps) > 0
    assert False in steps[steps.index(True):] and 2 * sum(steps) < len(steps)


def _monic_up_to_quadratic(p: int):
    yield (1,)
    yield from ((u0, 1) for u0 in range(p))
    yield from ((u0, u1, 1) for u0 in range(p) for u1 in range(p))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_root_count_matches_the_square_roots(p):
    counts = collections.Counter()
    for f in _ladder_models(p, sextic_row=3):
        for u in _monic_up_to_quadratic(p):
            count = jacobian._root_count(f, u, p)
            assert count == len(jacobian._square_roots_mod(f, u, p)), (f, u)
            counts[count] += 1
    assert set(counts) == {0, 1, 2, 4}, counts


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([23, 10007]), st.booleans(), st.integers(0, 10**6),
       st.integers(-1, 10**6))
def test_root_count_matches_the_square_roots_random(p, sextic, u0, u1):
    f = _ladder_models(p)[sextic]
    u = (u0 % p, 1) if u1 < 0 else (u0 % p, u1 % p, 1)
    assert jacobian._root_count(f, u, p) == len(jacobian._square_roots_mod(f, u, p))


def _random_divisor_by_extraction(f, p: int, rng: random.Random):
    """The sampler as it was before the root count: every try extracts
    the square roots of f mod u."""
    lines = 0 if len(f) == 7 else p
    while True:
        n, i = rng.randrange(1 + lines + p * p), rng.randrange(4)
        if n == 0:
            u = (1,)
        elif n <= lines:
            u = (n - 1, 1)
        else:
            u0, u1 = divmod(n - 1 - lines, p)
            u = (u0, u1, 1)
        roots = jacobian._square_roots_mod(f, u, p)
        if i < len(roots):
            return jacobian.MumfordDivisor(p, u, roots[i])


def test_random_divisor_draws_as_the_extracting_sampler():
    for p in (7, 11, 13, 23, 10007):
        models = _ladder_models(p, sextic_row=3)
        for f, seed in itertools.product(models, range(3)):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert ([random_divisor(f, p, ours) for _ in range(40)]
                    == [_random_divisor_by_extraction(f, p, theirs) for _ in range(40)])
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("shared", range(7))
def test_gcd_degree_matches_fp_gcd(shared):
    # f and g share a factor of degree `shared`; by chance their gcd
    # can be larger, and fp_gcd says by how much
    rng = random.Random(shared)
    for p in (7, 11, 13, 101, 10007):
        for _ in range(25):
            k = (*(rng.randrange(p) for _ in range(shared)), 1)
            f = fp_mul(k, (*(rng.randrange(p) for _ in range(6 - shared)), 1), p)
            g = fp_mul(k, [rng.randrange(p) for _ in range(6 - shared)], p)
            six = g + (0,) * (6 - len(g))
            assert curve_mod._gcd_degree(f, six, p) == len(exact.fp_gcd(f, g, p)) - 1 >= shared


# ---------------------------------------------------------------------------
# explicit formulas against the generic Cantor algorithm
# ---------------------------------------------------------------------------

ORACLE_PRIMES = (3, 5, 7, 11, 13, 29, 53, 97)


def _oracle_models():
    """(p, inert sextic) of the table curves at the oracle primes."""
    for row in TABLE:
        for p in ORACLE_PRIMES:
            if good_prime(row.curve, p):
                sextic = jacobian._inert_model([c % p for c in row.curve.coeffs], p)
                if sextic is not None:
                    yield p, sextic


def _oracle_pairs(f, p: int, rng: random.Random):
    """Pairs of reduced classes, by the case of the addition they exercise."""
    pts = [(x, y) for x in range(p) for y in range(p)
           if (y * y - poly_eval(f, x)) % p == 0]
    weierstrass = [pt for pt in pts if pt[1] == 0]
    by_x = {x: (x, y) for x, y in pts if y}  # one point with y != 0 per x

    def opposite(pt):
        return pt[0], -pt[1] % p

    def point(x, y):
        return jacobian.MumfordDivisor(p, (-x % p, 1), (y,) if y else ())

    def two(a, b):
        # a single point is no class on the sextic, but Cantor's composition
        # of two gives P_a + P_b - D_inf
        return jacobian._cantor_generic(point(*a), point(*b), f)

    cases = collections.defaultdict(list)
    for _ in range(6):
        d, e = random_divisor(f, p, rng), random_divisor(f, p, rng)
        cases["random"].append((d, e))
        cases["doubling"].append((d, d))
        cases["D + (-D)"].append((d, cantor_neg(d)))
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
    for p, f in _oracle_models():
        for case, pairs in _oracle_pairs(f, p, rng).items():
            for d, e in pairs:
                out = cantor_add(d, e, f)
                assert out == jacobian._cantor_generic(d, e, f), (case, p, d, e)
                seen[case] += 1
                if case in ("random", "doubling") and (
                        len(d.u) == len(e.u) == 3 and e != cantor_neg(d)):
                    seen["weight two"] += 1
                    seen["explicit"] += jacobian._add_weight_two(
                        f, p, *jacobian._weight_two(d), *jacobian._weight_two(e)) is not None
    assert len(seen) == 8 and min(seen.values()) >= 10, seen
    assert seen["explicit"] >= 0.8 * seen["weight two"], seen


def _formula_pairs(f, p: int, rng: random.Random):
    """Pairs of classes by the case of the formulas they exercise: two
    weight-two classes with one common root, u1 = u2 with v1 != +-v2,
    and the doubling of W + P for a Weierstrass point W."""
    pts = [(x, y) for x in range(p) for y in range(p) if (y * y - poly_eval(f, x)) % p == 0]
    weierstrass = [pt for pt in pts if pt[1] == 0]
    by_x = {x: (x, y) for x, y in pts if y}

    def two(a, b):  # P_a + P_b - D_inf
        return jacobian._divisor(p, jacobian._add_points(f, p, *a, *b))

    def opposite(pt):
        return pt[0], -pt[1] % p

    cases = collections.defaultdict(list)
    for _ in range(6):
        if len(by_x) >= 3:
            a, b, c = (by_x[x] for x in rng.sample(sorted(by_x), 3))
            cases["one common root"] += [(two(a, b), two(a, c)), (two(a, b), two(opposite(a), c)),
                                         (two(a, a), two(opposite(a), c))]
            cases["u1 = u2, v1 != +-v2"].append((two(a, b), two(a, opposite(b))))
        for w in weierstrass[:1]:
            if by_x:
                a = by_x[rng.choice(sorted(by_x))]
                cases["doubling W + P"].append((two(w, a), two(w, a)))
    return cases


def test_mixed_and_common_root_formulas_match_generic_cantor(monkeypatch):
    rng = random.Random(3)
    seen = collections.Counter()
    for p, f in _oracle_models():
        for case, pairs in _formula_pairs(f, p, rng).items():
            for d, e in pairs:
                expected = jacobian._cantor_generic(d, e, f)
                generic = []
                monkeypatch.setattr(jacobian, "_cantor_generic",
                                    lambda *args: generic.append(1) or expected)
                assert cantor_add(d, e, f) == expected, (case, p, f, d, e)
                monkeypatch.undo()
                seen[case] += 1
                seen["generic"] += len(generic)
    cases = ("one common root", "u1 = u2, v1 != +-v2", "doubling W + P")
    assert all(seen[case] >= 10 for case in cases), seen
    # what the formulas leave is 3P + B, from u = (x - al)^2 and a point over al
    assert seen["generic"] == 0, seen


def test_a_point_three_times_takes_the_generic_path():
    # 2P + (P + B): u = (x - al)^2 and (x - al)(x - be) share the root al
    p, f = next((p, f) for p, f in _oracle_models() if p == 29)
    (x, y), (xb, yb) = [(x, y) for x in range(p) for y in range(1, p)
                        if (y * y - poly_eval(f, x)) % p == 0][::2][:2]
    assert x != xb
    double = jacobian._divisor(p, jacobian._add_points(f, p, x, y, x, y))
    plus = jacobian._divisor(p, jacobian._add_points(f, p, x, y, xb, yb))
    for d, e in ((double, plus), (plus, double)):
        assert jacobian._add_weight_two(f, p, *jacobian._weight_two(d),
                                        *jacobian._weight_two(e)) is None
        assert cantor_add(d, e, f) == jacobian._cantor_generic(d, e, f)


def test_quintic_arithmetic_is_generic_cantor(monkeypatch):
    # the straight-line kernel serves only the inert sextic: on the quintic
    # of odd_degree_model, and on twice it, cantor_add and cantor_mul are
    # the generic algorithm
    def refuse(*args):
        raise AssertionError("_add_weight_two was called on a quintic")

    monkeypatch.setattr(jacobian, "_add_weight_two", refuse)
    rng = random.Random(9)
    seen = collections.Counter()
    for row in TABLE:
        for p in ORACLE_PRIMES:
            f5 = odd_degree_model(row.curve, p) if good_prime(row.curve, p) else None
            if f5 is None:
                continue
            for f in (f5, tuple(2 * c % p for c in f5)):
                classes = [random_divisor(f, p, rng) for _ in range(5)]
                for d in classes:
                    for e in classes:
                        assert cantor_add(d, e, f) == jacobian._cantor_generic(d, e, f)
                        seen[len(d.u) - 1, len(e.u) - 1] += 1
                    acc = d
                    for n in range(2, 13):
                        acc = jacobian._cantor_generic(acc, d, f)
                        assert cantor_mul(n, d, f) == acc
                        assert cantor_mul(-n, d, f) == cantor_neg(acc)
    assert min(seen[k] for k in ((1, 1), (1, 2), (2, 2))) >= 10, seen


@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_group_matches_generic_path(seed, monkeypatch):
    groups = {
        (i, p): jacobian_group_mod_p(row.curve, p, seed)
        for i, row in enumerate(TABLE)
        for p in good_primes(row.curve, 100)
    }
    # the kernel declines every sum, so each one, the ladder's included,
    # runs on the generic algorithm
    monkeypatch.setattr(jacobian, "cantor_add", jacobian._cantor_generic)
    monkeypatch.setattr(jacobian, "_add_weight_two", lambda *args: None)
    for (i, p), g in groups.items():
        assert jacobian_group_mod_p(TABLE[i].curve, p, seed) == g


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PACKAGE = Path(jacobian.__file__).resolve().parents[1]
SOURCES = sorted([*PACKAGE.rglob("*.py"), *SCRIPTS.glob("*.py")])


@pytest.mark.parametrize(
    "path", SOURCES,
    # an __init__.py is named by its package; every other file by its own name
    ids=[f"{p.parent.name}/{p.name}" if p.name == "__init__.py" else p.name for p in SOURCES])
def test_module_has_no_asserts(path):
    # python -O strips asserts; the checks that carry lemmas must raise instead
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_package_docstrings_name_exactly_the_modules():
    named = {name for package in (quatorsion, quatorsion.genus2)
             for name in re.findall(r":mod:`([\w.]+)`", package.__doc__)}
    for name in named:
        importlib.import_module(name)
    files = {".".join(("quatorsion", *path.relative_to(PACKAGE).with_suffix("").parts))
             .removesuffix(".__init__") for path in PACKAGE.rglob("*.py")}
    assert named == files - {"quatorsion"}


def test_curve_imports_jacobian_only_to_settle_an_lpoly():
    # curve owns the factorization type of f mod p and the 2-torsion
    # count: jacobian imports nothing from torsion, and curve imports
    # jacobian only in the branch where more than one a2 survives
    def tree(module):
        return list(ast.walk(ast.parse(Path(module.__file__).read_text())))

    def imports(nodes):
        return [(node, {a.name for a in node.names}) for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level == 1]

    assert all(node.module != "torsion" and "torsion" not in names
               for node, names in imports(tree(jacobian)))
    nodes = tree(curve_mod)
    [(node, names)] = [(n, names) for n, names in imports(nodes)
                       if n.module == "jacobian" or "jacobian" in names]
    assert node.module is None and names == {"jacobian"} and node.col_offset > 0
    used = {n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "jacobian"}
    assert used == {"_settle_by_annihilation"}


def test_divisor_order_check_survives_python_O():
    code = (
        "import sys\n"
        "from quatorsion.genus2.curve import GenusTwoCurve\n"
        "from quatorsion.genus2.jacobian import (\n"
        "    divisor_order, mumford_divisor, odd_degree_model)\n"
        "f5 = odd_degree_model(GenusTwoCurve.from_coefficients([1, 0, 0, 0, 0, 1]), 7)\n"
        "try:\n"
        "    divisor_order(mumford_divisor(f5, 7, (-1, 1), (3,)), f5, 1)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, 'ValueError', exc)\n"
    )
    assert _run_optimized(code).startswith("1 ValueError group_order does not annihilate")


def test_model_check_survives_python_O():
    code = (
        "import random, sys\n"
        "from quatorsion.genus2.jacobian import random_divisor\n"
        "from quatorsion.genus2.torsion import table_curves\n"
        "try:\n"
        "    random_divisor(table_curves()[0].curve.coeffs, 7, random.Random(0))\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, 'ValueError', exc)\n"
    )
    assert _run_optimized(code).startswith("1 ValueError y^2 = f(x) mod 7 is neither a quintic")


def _run_optimized(code: str) -> str:
    """The output of ``code`` run by ``python -O`` on this source tree."""
    src = str(Path(jacobian.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_model_with_no_affine_point_does_not_hang():
    # the monic quintic model mod 7 has one point, at infinity: #C(F_7) =
    # 7 + 1 + a1 = 1, so every class but zero has deg u = 2; run in a
    # subprocess so that a hang fails the test
    code = (
        "import random\n"
        "from quatorsion.genus2.curve import GenusTwoCurve\n"
        "from quatorsion.genus2.jacobian import jacobian_group_mod_p, random_divisor\n"
        "curve = GenusTwoCurve.from_coefficients([6, 4, 1, 3, 4, 1])\n"
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
    assert torsion.two_torsion_count is two_torsion_count
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
    # (index, torsion, disc, endos, gcd of orders, #J(Q)[2])
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
