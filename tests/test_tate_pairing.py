"""The Tate pairing on J(F_p)[2]: the basis of J(F_p)[2], the rank r1
of J(F_p)[2] cap 2 J(F_p) it gives, and its two readers, the a2 step of
``curve`` and the 2-Sylow proof of ``jacobian``.

The oracles are the ones the pairing replaces: Kedlaya-Sutherland
annihilation for the a2, class enumeration at small p and the probes
for the 2-Sylow subgroup.
"""

from __future__ import annotations

import itertools
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from class_oracle import enumerate_classes
from quatorsion.exact import fp_mul, fp_monic, fp_mod, multiplicity
from quatorsion.genus2 import curve as curve_mod
from quatorsion.genus2 import jacobian
from quatorsion.genus2.curve import GenusTwoCurve, curve_lpoly, curve_lpolys, good_prime
from quatorsion.genus2.jacobian import (
    JacobianGroup,
    cantor_add,
    divisor_order,
    jacobian_group_mod_p,
    mumford_divisor,
)
from quatorsion.genus2.torsion import table_curves

TABLE = table_curves()


def _two_shape(invariants) -> tuple[int, ...]:
    """The exponents of the cyclic factors of the 2-Sylow subgroup."""
    return tuple(sorted((multiplicity(2, d) for d in invariants if d % 2 == 0), reverse=True))


def _ambiguous(curve, bound: int):
    """(p, c, a1, the a2 left by the 2-part test over F_p, degrees) at
    every good 7 <= p <= bound where more than one a2 is left."""
    stream = curve_mod._reductions(curve, curve_mod.good_primes(curve, bound))
    for p, w, degrees in stream:
        if p < 7:
            continue
        two_rank = curve_mod._two_rank(degrees)
        fits = [a2 for a2 in curve_mod._weil_a2s(p, w.a1, w.a2 % p)
                if curve_mod._two_part_fits(p, w.a1, a2, two_rank)]
        if len(fits) > 1:
            yield p, [v % p for v in curve.coeffs], w, fits, degrees


def _filters_keep(c, p: int, a1: int, fits, degrees, rng) -> tuple[int, list[int]]:
    """(the a2 of annihilation, what the F_{p^3} and Tate filters leave)."""
    inert = jacobian._inert_model(c, p)
    a2 = jacobian._settle_by_annihilation(c, inert, p, a1, fits, rng)
    two_rank = curve_mod._two_rank(degrees)
    left = curve_mod._fits_over_f_p3(p, a1, fits, degrees, two_rank)
    r1 = jacobian._tate_rank(inert, p, degrees, rng) if two_rank else None
    if r1 is not None:
        left = [b for b in left if curve_mod._two_sylow_fits(p, a1, b, two_rank, r1)]
    return a2, left


# ---------------------------------------------------------------------------
# the basis of J(F_p)[2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=7, max_size=7),
       st.sampled_from(list(sympy.primerange(3, 200))), st.integers(0, 2**32))
@example([-225, 0, 259, 0, -35, 0, 1], 11, 0)  # (x^2 - 1)(x^2 - 9)(x^2 - 25): six roots
@example([0, 4, 0, -5, 0, 1], 11, 0)  # x (x^2 - 1)(x^2 - 4): five roots and infinity
def test_two_torsion_basis_spans_the_rational_two_torsion(coeffs, p, seed):
    # the (u_i, 0) are classes of order 2 and independent: their 2^r
    # sums are distinct, and r is the 2-rank of the factorization type
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    f = jacobian._inert_model([v % p for v in curve.coeffs], p)
    if f is None:
        return
    degrees = curve_mod._factor_degrees(curve, p)
    us = jacobian._two_torsion_basis(f, p, degrees, random.Random(seed))
    assert len(us) == curve_mod._two_rank(degrees)
    ts = [mumford_divisor(f, p, u, ()) for u in us]
    assert all(len(u) == 3 and not fp_mod(fp_monic(f, p), u, p) for u in us)
    assert all(cantor_add(t, t, f).is_identity for t in ts)
    sums = set()
    for picks in itertools.product((0, 1), repeat=len(ts)):
        acc = jacobian.identity_divisor(p)
        for pick, t in zip(picks, ts):
            if pick:
                acc = cantor_add(acc, t, f)
        sums.add(acc)
    assert len(sums) == 2 ** len(ts)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(sympy.primerange(3, 300))), st.sampled_from([1, 2]),
       st.integers(2, 3), st.integers(0, 2**32))
def test_equal_degree_splits_products_of_irreducibles(p, d, count, seed):
    # a product of distinct monic irreducibles of degree d that divides a
    # sextic f, split with z^p mod f; for d = 2 that includes two
    # quadratics with the same trace, which need the gcd rounds
    rng = random.Random(seed)
    factors = set()
    while len(factors) < count:
        u = (*(rng.randrange(p) for _ in range(d)), 1)
        if sympy.Poly(u[::-1], sympy.Symbol("z"), modulus=p).is_irreducible:
            factors.add(tuple(c % p for c in u))
    if d == 2 and count == 2 and rng.randrange(2):
        a, b = sorted(factors)
        b = (b[0], a[1], 1)  # same trace as a
        if b == a or not sympy.Poly(b[::-1], sympy.Symbol("z"), modulus=p).is_irreducible:
            return
        factors = {a, b}
    product = (1,)
    for u in factors:
        product = fp_mul(product, u, p)
    f = product
    while len(f) < 7:  # a sextic with the product as a factor
        f = fp_mul(f, (rng.randrange(1, p), 1), p)
    if len(f) > 7:
        return
    rows = curve_mod._sextic_rows(f, p)
    h = curve_mod._frobenius(rows, p)
    found = jacobian._equal_degree(product, d, rows, h, p, rng)
    assert sorted(found) == sorted(factors)


# ---------------------------------------------------------------------------
# r1 against every class


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=7, max_size=7), st.sampled_from([7, 11, 13]),
       st.integers(0, 2**32))
@example(list(TABLE[0].curve.coeffs), 11, 0)
@example(list(TABLE[1].curve.coeffs), 7, 0)
def test_tate_rank_matches_class_enumeration(coeffs, p, seed):
    # #J[4] / #J[2] = 2^r1 for r1 the number of cyclic factors of order
    # >= 4, counted over every class of J(F_p)
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    f = jacobian._inert_model([v % p for v in curve.coeffs], p)
    if f is None:
        return
    degrees = curve_mod._factor_degrees(curve, p)
    r1 = jacobian._tate_rank(f, p, degrees, random.Random(seed))
    if r1 is None:
        return
    order = curve_lpoly(curve, p).point_count()
    orders = [divisor_order(d, f, order) for d in enumerate_classes(f, p)]
    assert len(orders) == order
    two, four = sum(2 % n == 0 for n in orders), sum(4 % n == 0 for n in orders)
    assert two == 2 ** curve_mod._two_rank(degrees)
    assert four == two * 2**r1, (coeffs, p)


# ---------------------------------------------------------------------------
# the a2 step of curve


def test_filters_keep_the_a2_of_annihilation_on_the_table_curves():
    # at every good p <= 1000 of the five curves where the 2-part test
    # over F_p leaves more than one a2, the F_{p^3} test and the Tate
    # pairing keep the one that annihilation picks, which is the
    # stream's; they leave it alone at all 195 of these primes with 2-rank
    # >= 1 and at 33 of the 64 with 2-rank 0
    ambiguous = alone = 0
    for row in TABLE:
        for p, c, w, fits, degrees in _ambiguous(row.curve, 1000):
            a2, left = _filters_keep(c, p, w.a1, fits, degrees, random.Random(p))
            assert a2 == w.a2 and a2 in left, (row.torsion, p)
            ambiguous += 1
            alone += left == [a2]
    assert (ambiguous, alone) == (259, 228)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=7, max_size=7),
       st.sampled_from(list(sympy.primerange(7, 400))), st.integers(0, 2**32))
def test_filters_keep_the_a2_of_annihilation_on_random_sextics(coeffs, p, seed):
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    for q, c, w, fits, degrees in _ambiguous(curve, p):
        if q != p:
            continue
        try:
            a2, left = _filters_keep(c, p, w.a1, fits, degrees, random.Random(seed))
        except ArithmeticError:  # annihilation left more than one
            return
        assert a2 == w.a2 and a2 in left


def test_annihilation_runs_at_few_primes(monkeypatch):
    # certification to B = 400 settles 122 primes by annihilation without
    # the filters, and at most 15 with them
    calls = []
    settle = jacobian._settle_by_annihilation
    monkeypatch.setattr(jacobian, "_settle_by_annihilation",
                        lambda *args: calls.append(args[2]) or settle(*args))
    for row in TABLE:
        list(curve_lpolys(row.curve, 400))
    assert 0 < len(calls) <= 15
    ambiguous = sum(1 for row in TABLE for _ in _ambiguous(row.curve, 400))
    assert ambiguous == 122


# ---------------------------------------------------------------------------
# the 2-Sylow proof of jacobian


def test_tate_shapes_match_the_probes():
    # at every good p <= 1000 of the five curves where the bounds leave
    # the 2-Sylow subgroup open and the pairing proves it, the bounds and
    # the probes alone prove the same shape, rootless primes included;
    # jacobian_group_mod_p records the pairing there.  That is 101 of the
    # 134 open after the bounds, 24 of them at rootless primes
    paired = 0
    for row in TABLE:
        primes = curve_mod.good_primes(row.curve, 1000)
        for p, w, degrees in curve_mod._reductions(row.curve, primes):
            order, two_rank = w.point_count(), curve_mod._two_rank(degrees)
            proof = jacobian._SylowProof(2, multiplicity(2, order), p, two_rank)
            if order % 2 or proof.shape:
                continue
            f = jacobian._inert_model([v % p for v in row.curve.coeffs], p)
            proof.tate(jacobian._tate_rank(f, p, degrees, random.Random(p)))
            group = jacobian_group_mod_p(row.curve, p)
            assert (group.proved_by[2] == "tate") == (proof.rule == "tate"), (row.torsion, p)
            if proof.rule != "tate":
                continue
            probed = jacobian._SylowProof(2, multiplicity(2, order), p, two_rank)
            jacobian._probe(f, p, order, [probed], 0)
            assert probed.shape == proof.shape, (row.torsion, p)
            if group.invariants:
                assert _two_shape(group.invariants) == proof.shape
            paired += 1
    assert paired == 101


def test_the_pairing_proves_j_f59_of_the_two_curve():
    # 3520 = 2^6 * 5 * 11 with 2-rank 4: (3, 1, 1, 1) or (2, 2, 1, 1), and
    # the pairing finds two cyclic factors of order >= 4
    group = jacobian_group_mod_p(TABLE[0].curve, 59)
    assert group == JacobianGroup(59, 3520, (2, 2, 4, 220), 4)
    assert group.proved_by == {2: "tate", 5: "bounds", 11: "bounds"}


def test_a_tate_rank_that_no_shape_has_raises():
    proof = jacobian._SylowProof(2, 6, 59, 4)
    assert proof.shapes == [(3, 1, 1, 1), (2, 2, 1, 1)]
    with pytest.raises(ArithmeticError, match="Tate pairing"):
        proof.tate(3)
    assert proof.rule is None
    proof.tate(None)
    assert proof.rule is None
    proof.tate(2)
    assert proof.shapes == [(2, 2, 1, 1)] and proof.rule == "tate"
