"""Tests for quaternion algebra and order arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatorsion import quat

HALF = Fraction(1, 2)

coord_ints = st.tuples(*[st.integers(-9, 9)] * 4)


def _alg16() -> quat.QuatAlgebra:
    return quat.QuatAlgebra(-1, 6)


# ---------------------------------------------------------------------------
# algebra and element arithmetic


def test_algebra_rejects_zero_parameters():
    with pytest.raises(ValueError):
        quat.QuatAlgebra(0, 6)
    with pytest.raises(ValueError):
        quat.QuatAlgebra(-1, 0)


def test_multiplication_table():
    alg = _alg16()
    i, j, k = alg.i, alg.j, alg.k
    a, b = alg.a, alg.b
    assert i * i == alg.element(a)
    assert j * j == alg.element(b)
    assert k * k == alg.element(-a * b)
    assert i * j == k and j * i == -k
    assert i * k == j.scale(a) and k * i == -j.scale(a)
    assert j * k == i.scale(-b) and k * j == i.scale(b)


def test_conjugate_trace_norm_basics():
    alg = _alg16()
    x = alg.element(3, -1, 2, 5)
    assert x.conj().coords == (Fraction(3), Fraction(1), Fraction(-2), Fraction(-5))
    assert x.trd() == 6
    # nrd(t + xi + yj + zk) = t^2 - a x^2 - b y^2 + a b z^2
    assert x.nrd() == 9 + 1 - 24 - 150
    assert (x + x.conj()).scalar_part() == x.trd()
    assert (x * x.conj()).scalar_part() == x.nrd()


def test_norm_of_one_plus_i_is_two():
    alg = _alg16()
    assert (alg.one + alg.i).nrd() == 2


@given(coord_ints, coord_ints)
def test_norm_is_multiplicative(u, v):
    alg = _alg16()
    x, y = alg.element(*u), alg.element(*v)
    assert (x * y).nrd() == x.nrd() * y.nrd()


@given(
    st.integers(-12, 12).filter(bool),
    st.integers(-12, 12).filter(bool),
    coord_ints,
    coord_ints,
)
def test_norm_multiplicative_across_algebras(a, b, u, v):
    alg = quat.QuatAlgebra(a, b)
    x, y = alg.element(*u), alg.element(*v)
    assert (x * y).nrd() == x.nrd() * y.nrd()
    assert (x * y).conj() == y.conj() * x.conj()


def test_inverse_and_powers():
    alg = _alg16()
    x = alg.element(1, 1, -2, 0)
    inv = x.inverse()
    assert x * inv == alg.one and inv * x == alg.one
    assert x**3 == x * x * x
    assert x**0 == alg.one
    assert x**-2 == inv * inv
    with pytest.raises(ZeroDivisionError):
        alg.element(0, 0, 0, 0).inverse()


def test_scalar_recognition():
    alg = _alg16()
    assert alg.element(7).is_scalar() and alg.element(7).scalar_part() == 7
    assert not alg.i.is_scalar()
    with pytest.raises(ValueError):
        alg.i.scalar_part()


def test_mixed_algebra_arithmetic_rejected():
    x = _alg16().i
    y = quat.QuatAlgebra(-3, 6).i
    with pytest.raises(ValueError):
        x * y


# ---------------------------------------------------------------------------
# ramification


@pytest.mark.parametrize(
    "a, b, ram, definite, disc",
    [
        (-1, 6, {2, 3}, False, 6),
        (-3, 6, {2, 3}, False, 6),
        (-1, 3, {2, 3}, False, 6),
        (-2, 5, {2, 5}, False, 10),
        (-1, 11, {2, 11}, False, 22),
        (-1, 22, {2, 11}, False, 22),
        (1, 1, set(), False, 1),
        (-1, -1, {2}, True, 2),
        # a parameter above exact.ISPRIME_BOUND, proved prime by Pocklington
        (-1, 2**89 - 1, {2, 2**89 - 1}, False, 2 * (2**89 - 1)),
    ],
)
def test_ramified_places(a, b, ram, definite, disc):
    alg = quat.QuatAlgebra(a, b)
    places, at_infinity = quat.ramified_places(alg)
    assert places == frozenset(ram)
    assert at_infinity is definite
    assert quat.discriminant(alg) == disc


@given(st.integers(-30, 30).filter(bool), st.integers(-30, 30).filter(bool))
def test_ramified_set_is_even_with_infinity(a, b):
    alg = quat.QuatAlgebra(a, b)
    places, at_infinity = quat.ramified_places(alg)
    assert (len(places) + (1 if at_infinity else 0)) % 2 == 0
    assert at_infinity == (a < 0 and b < 0)
    d = quat.discriminant(alg)
    for p in places:
        assert d % p == 0 and d % (p * p) != 0


# ---------------------------------------------------------------------------
# orders: construction and canonical form


def test_order_basis_is_canonicalized(omax_1_6):
    basis = omax_1_6.basis
    assert basis[0] == omax_1_6.algebra.one
    for e in basis[1:]:
        assert 0 <= e.coords[0] < 1
    # the canonical form is reproduced from any generating set of the lattice
    alg = omax_1_6.algebra
    shuffled = quat.QuatOrder.from_basis(
        alg,
        [
            [0, 0, 0, 1],
            [HALF, HALF, 0, HALF],
            [1, 0, HALF, HALF],
            [1, 0, 0, 0],
        ],
    )
    assert shuffled == omax_1_6


def test_order_requires_rank_four():
    alg = _alg16()
    with pytest.raises(ValueError):
        quat.QuatOrder.from_basis(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0]]
        )


def test_order_requires_one():
    alg = _alg16()
    with pytest.raises(ValueError):
        quat.QuatOrder.from_basis(
            alg, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )


def test_order_requires_integral_elements():
    alg = _alg16()
    with pytest.raises(ValueError):
        quat.QuatOrder.from_basis(
            alg, [[1, 0, 0, 0], [0, HALF, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )


def test_order_requires_multiplicative_closure():
    # i * k = -j is not in Z<1, i, 2j, k>
    alg = _alg16()
    with pytest.raises(ValueError):
        quat.QuatOrder.from_basis(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]
        )


def test_order_membership_and_coordinates(omax_1_6):
    alg = omax_1_6.algebra
    half_elt = alg.element(HALF, HALF, 0, HALF)
    assert omax_1_6.contains(half_elt)
    assert omax_1_6.contains(alg.i)
    assert not omax_1_6.contains(alg.element(HALF, HALF, 0, 0))
    coords = omax_1_6.coordinates(alg.i)
    assert omax_1_6.element(coords) == alg.i


@given(coord_ints)
def test_order_coordinates_round_trip(c):
    alg = _alg16()
    order = quat.standard_order(alg)
    x = alg.element(*c)
    assert order.coordinates(x) == tuple(Fraction(v) for v in c)


@given(coord_ints, coord_ints)
def test_table_arithmetic_matches_quaternion_arithmetic(omax_3_6, u, v):
    # products, norms and traces from the integer table against Fraction arithmetic
    x, y = omax_3_6.element(u), omax_3_6.element(v)
    assert omax_3_6.element(omax_3_6.multiply(u, v)) == x * y
    assert omax_3_6.nrd(u) == x.nrd()
    assert sum(c * t for c, t in zip(u, omax_3_6.traces)) == x.trd()


@given(coord_ints)
def test_conjugation_rows_match_quaternion_arithmetic(omax_1_6, c):
    if not any(c):
        return
    b = omax_1_6.element(c)
    rows = omax_1_6.conjugation_rows(c)
    assert (rows is not None) == quat.norm_divides_discriminant(omax_1_6, b)
    if rows is None:
        return
    b_inv = b.inverse()
    for e, row in zip(omax_1_6.basis, rows):
        assert omax_1_6.element(row) == b_inv * e * b


# ---------------------------------------------------------------------------
# reduced discriminant


def test_reduced_discriminant_of_maximal_order(omax_1_6):
    assert quat.reduced_discriminant(omax_1_6) == 6


def test_reduced_discriminant_of_standard_order():
    # Gram matrix trd(e_i e_j) of Z<1,i,j,k> in (-1,6) is diag(2,-2,12,12),
    # so |det| = 576 and the reduced discriminant is 24.
    order = quat.standard_order(_alg16())
    assert order.gram_trd() == [
        [2, 0, 0, 0],
        [0, -2, 0, 0],
        [0, 0, 12, 0],
        [0, 0, 0, 12],
    ]
    assert quat.reduced_discriminant(order) == 24


@pytest.mark.parametrize(
    "a, b, expected",
    [(-1, 6, 24), (-3, 6, 72), (-1, -1, 4), (-2, 5, 40)],
)
def test_reduced_discriminant_standard_orders(a, b, expected):
    # oracle: the Gram form of Z<1,i,j,k> is diag(2, 2a, 2b, -2ab)
    assert abs(16 * a * a * b * b) == expected**2
    order = quat.standard_order(quat.QuatAlgebra(a, b))
    assert quat.reduced_discriminant(order) == expected


def test_hurwitz_order_discriminant():
    alg = quat.QuatAlgebra(-1, -1)
    hurwitz = quat.QuatOrder.from_basis(
        alg,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [HALF, HALF, HALF, HALF]],
    )
    assert quat.reduced_discriminant(hurwitz) == 2
    assert quat.is_maximal(hurwitz)


# ---------------------------------------------------------------------------
# saturation to a maximal order


def test_saturation_reaches_the_maximal_order(omax_1_6):
    sat = quat.saturate_to_maximal(quat.standard_order(_alg16()))
    assert quat.reduced_discriminant(sat) == 6
    assert sat == omax_1_6  # canonical bases of the same lattice coincide
    assert quat.is_maximal(sat)


def test_saturation_fixes_maximal_orders(omax_1_6):
    assert quat.saturate_to_maximal(omax_1_6) == omax_1_6


@pytest.mark.parametrize("a, b, disc", [(-3, 6, 6), (-2, 5, 10), (-1, -1, 2), (-1, 11, 22)])
def test_maximal_order_has_algebra_discriminant(a, b, disc):
    order = quat.maximal_order(quat.QuatAlgebra(a, b))
    assert quat.reduced_discriminant(order) == disc


def test_maximal_order_of_3_6_contains_omega(omax_3_6):
    alg = omax_3_6.algebra
    omega = alg.element(-HALF, HALF, 0, 0)
    assert omax_3_6.contains(omega)
    assert omega * omega + omega + alg.one == alg.element(0)


# ---------------------------------------------------------------------------
# normalizer membership


def test_normalizer_examples(omax_1_6):
    alg = omax_1_6.algebra
    assert quat.is_in_normalizer(omax_1_6, alg.one)
    assert quat.is_in_normalizer(omax_1_6, alg.i)
    assert quat.is_in_normalizer(omax_1_6, alg.j)
    assert quat.is_in_normalizer(omax_1_6, alg.k)
    assert not quat.is_in_normalizer(omax_1_6, alg.one + alg.j)
    with pytest.raises(ValueError):
        quat.is_in_normalizer(omax_1_6, alg.element(0))


def test_normalizer_is_scale_invariant(omax_1_6):
    alg = omax_1_6.algebra
    for b in (alg.j, alg.one + alg.j):
        expected = quat.is_in_normalizer(omax_1_6, b)
        assert quat.is_in_normalizer(omax_1_6, b.scale(3)) is expected
        assert quat.is_in_normalizer(omax_1_6, b.scale(Fraction(-2, 7))) is expected


@settings(max_examples=150, deadline=None)
@given(coord_ints)
def test_norm_criterion_matches_normalizer_disc6(omax_1_6, c):
    x = omax_1_6.element(c)
    if x.is_zero():
        return
    assert quat.is_in_normalizer(omax_1_6, x) == quat.norm_divides_discriminant(
        omax_1_6, x
    )


@settings(max_examples=80, deadline=None)
@given(coord_ints)
def test_norm_criterion_matches_normalizer_disc10(omax_2_5, c):
    x = omax_2_5.element(c)
    if x.is_zero():
        return
    assert quat.is_in_normalizer(omax_2_5, x) == quat.norm_divides_discriminant(
        omax_2_5, x
    )


# ---------------------------------------------------------------------------
# Atkin-Lehner representatives


def test_atkin_lehner_group_disc6(omax_1_6):
    group = quat.atkin_lehner_group(omax_1_6)
    assert list(group) == [1, 2, 3, 6]
    assert group[1] == omax_1_6.algebra.one
    for m, w in group.items():
        assert abs(w.nrd()) == m
        assert quat.is_in_normalizer(omax_1_6, w)


def test_atkin_lehner_group_disc10(omax_2_5):
    group = quat.atkin_lehner_group(omax_2_5)
    assert list(group) == [1, 2, 5, 10]
    for m, w in group.items():
        assert abs(w.nrd()) == m


def _unit_class(order: quat.QuatOrder, z: quat.QuatElt) -> bool:
    prim, _ = quat.primitive_in_order(order, z)
    return abs(prim.nrd()) == 1


def test_atkin_lehner_composition_law(omax_1_6):
    group = quat.atkin_lehner_group(omax_1_6)
    for m, wm in group.items():
        assert _unit_class(omax_1_6, wm * wm)  # every class has order <= 2
        for n, wn in group.items():
            target = m * n // math.gcd(m, n) ** 2
            assert _unit_class(omax_1_6, wm * wn * group[target].inverse())


# Canonical bases and representatives as computed before orders carried an
# integer multiplication table; a change of the canonical form shows here
# and not in the reduced discriminant, which every maximal order shares.
PINNED_MAXIMAL_ORDERS = {
    (-1, 6): [["1", "0", "0", "0"], ["1/2", "1/2", "0", "1/2"], ["0", "0", "1/2", "1/2"],
              ["0", "0", "0", "1"]],
    (-3, 6): [["1", "0", "0", "0"], ["1/2", "1/2", "0", "0"], ["0", "0", "1/2", "1/6"],
              ["0", "0", "0", "1/3"]],
    (-2, 5): [["1", "0", "0", "0"], ["0", "1/2", "0", "1/2"], ["1/2", "0", "1/2", "0"],
              ["0", "0", "0", "1"]],
    (-3, 5): [["1", "0", "0", "0"], ["1/2", "1/2", "0", "0"], ["0", "0", "1/2", "1/2"],
              ["0", "0", "0", "1"]],
    (-13, 23): [["1", "0", "0", "0"], ["1/2", "1/26", "1/2", "11/26"], ["0", "0", "1", "0"],
                ["0", "0", "0", "1"]],
}

PINNED_ATKIN_LEHNER = {
    (-1, 6): {1: ["1", "0", "0", "0"], 2: ["-1", "0", "-1/2", "-1/2"],
              3: ["0", "0", "-1/2", "-1/2"], 6: ["0", "0", "0", "-1"]},
    (-2, 5): {1: ["1", "0", "0", "0"], 2: ["0", "-1/2", "0", "-1/2"],
              5: ["-5/2", "0", "-1/2", "-1"], 10: ["0", "0", "0", "-1"]},
}


@pytest.mark.parametrize("a, b", list(PINNED_MAXIMAL_ORDERS))
def test_maximal_order_canonical_basis_is_pinned(a, b):
    doc = quat.order_to_json(quat.maximal_order(quat.QuatAlgebra(a, b)))
    assert doc == {"algebra": [str(a), str(b)], "basis": PINNED_MAXIMAL_ORDERS[a, b]}


@pytest.mark.parametrize("a, b", list(PINNED_ATKIN_LEHNER))
def test_atkin_lehner_representatives_are_pinned(a, b):
    group = quat.atkin_lehner_group(quat.maximal_order(quat.QuatAlgebra(a, b)))
    assert {m: [str(c) for c in w.coords] for m, w in group.items()} == PINNED_ATKIN_LEHNER[a, b]


def test_atkin_lehner_reports_missing_divisor(omax_1_6):
    with pytest.raises(LookupError, match="2"):
        quat.atkin_lehner_group(omax_1_6, max_height=0)


def test_atkin_lehner_requires_maximal_order():
    with pytest.raises(ValueError):
        quat.atkin_lehner_group(quat.standard_order(_alg16()))


# ---------------------------------------------------------------------------
# trace-zero search


def test_trace_zero_square_roots_of_minus_one(omax_1_6):
    alg = omax_1_6.algebra
    sols = quat.find_trace_zero(omax_1_6, -1, 5)
    assert alg.i in sols
    for x in sols:
        assert x.trd() == 0
        assert (x * x) == alg.element(-1)


def test_trace_zero_square_roots_of_six(omax_1_6):
    alg = omax_1_6.algebra
    sols = quat.find_trace_zero(omax_1_6, 6, 5)
    assert alg.k in sols
    for x in sols:
        assert (x * x) == alg.element(6)


def test_trace_zero_results_are_sorted_by_height(omax_1_6):
    sols = quat.find_trace_zero(omax_1_6, -1, 6)

    def key(x):
        coords = omax_1_6.coordinates(x)
        return (max(abs(c) for c in coords), coords)

    assert sols == sorted(sols, key=key)


def test_trace_zero_split_fields_are_absent(omax_1_6):
    # 3 splits in Q(sqrt 7) and 2 splits in Q(sqrt -7), so neither field
    # embeds into an algebra ramified at {2, 3}
    assert quat.find_trace_zero(omax_1_6, 7, 12) == []
    assert quat.find_trace_zero(omax_1_6, -7, 12) == []


def test_trace_zero_finds_inert_fields(omax_1_6):
    # both 2 and 3 are inert in Q(sqrt 5): i - j is a square root of 5
    sols = quat.find_trace_zero(omax_1_6, 5, 5)
    assert sols and (sols[0] * sols[0]).scalar_part() == 5


def test_trace_zero_negative_six(omax_1_6):
    sols = quat.find_trace_zero(omax_1_6, -6, 10)
    assert sols
    for x in sols:
        assert (x * x).scalar_part() == -6


def test_trace_zero_rejects_zero(omax_1_6):
    with pytest.raises(ValueError):
        quat.find_trace_zero(omax_1_6, 0, 5)


# ---------------------------------------------------------------------------
# primitive scaling


def test_primitive_in_order(omax_1_6):
    alg = omax_1_6.algebra
    prim, coords = quat.primitive_in_order(omax_1_6, alg.i.scale(4))
    assert prim == alg.i
    assert math.gcd(*coords) == 1
    prim2, _ = quat.primitive_in_order(omax_1_6, alg.i.scale(Fraction(4, 3)))
    assert prim2 == alg.i


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_matrices(omax_1_6):
    gram = omax_1_6.gram_trd()
    norm_gram = omax_1_6.norm_gram()
    for r in range(4):
        assert norm_gram[r][r] == 2 * omax_1_6.basis[r].nrd()
        for s in range(4):
            assert gram[r][s] == gram[s][r]
            assert norm_gram[r][s] == norm_gram[s][r]


@given(coord_ints)
def test_norm_gram_evaluates_the_norm(omax_1_6, c):
    gram = omax_1_6.norm_gram()
    value = sum(c[r] * gram[r][s] * c[s] for r in range(4) for s in range(4))
    assert Fraction(value, 2) == omax_1_6.element(c).nrd()


# ---------------------------------------------------------------------------
# serialization


def test_order_json_round_trip(omax_1_6, omax_2_5):
    for order in (omax_1_6, omax_2_5):
        doc = quat.order_to_json(order)
        assert set(doc) == {"algebra", "basis"}
        restored = quat.order_from_json(doc)
        assert restored == order


def test_order_json_is_plain_data(omax_1_6):
    import json

    text = json.dumps(quat.order_to_json(omax_1_6))
    assert quat.order_from_json(json.loads(text)) == omax_1_6
