"""Tests for quaternion algebra and order arithmetic."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from order_oracle import coordinates as oracle_coordinates
from order_oracle import enlarge_by_full_scan, mat_inverse, vec_mat
from quatorsion import quat
from quatorsion.exact import factorint

HALF = Fraction(1, 2)

# the benchmark's maximal orders, and the other algebras the suite saturates
MAXIMAL_ORDER_ALGEBRAS = ((-1, 6), (-3, 6), (-2, 5), (-3, 5), (-13, 23))
SUITE_ALGEBRAS = ((-1, -1), (-1, 11), (-1, 3))

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
    # two generating sets of Z + Zx + 3 O_max with x = (1 + i + 2j + k)/2;
    # the scalar part of the second basis element is 1/2 from either
    third = Fraction(3, 2)
    suborder = quat.QuatOrder.from_basis(
        alg, [[1, 0, 0, 0], [HALF, HALF, 1, HALF], [0, 0, third, third], [0, 0, 0, 3]]
    )
    assert suborder.basis[1] == alg.element(HALF, HALF, 1, HALF)
    assert suborder == quat.QuatOrder.from_basis(
        alg, [[1, 0, 0, 0], [HALF, third, 0, -third], [-HALF, -HALF, HALF, 1], [0, 0, 0, 3]]
    )
    # any spanning rows will do: 1, x and 3 times the rows of O_max
    spanning = [[1, 0, 0, 0], [HALF, HALF, 1, HALF]] + [
        [3 * c for c in e.coords] for e in omax_1_6.basis
    ]
    assert quat.QuatOrder.from_basis(alg, spanning) == suborder
    rng = random.Random(3)
    rows = suborder.basis_matrix()
    for _ in range(40):
        u = _random_unimodular(rng, 4)
        mixed = [[sum(a * row[c] for a, row in zip(urow, rows)) for c in range(4)] for urow in u]
        assert quat.QuatOrder.from_basis(alg, mixed) == suborder


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A product of random row additions, swaps and negations."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i], u[j] = u[j], [-x for x in u[i]]
    return u


def test_order_requires_rank_four():
    alg = _alg16()
    with pytest.raises(ValueError):
        quat.QuatOrder.from_basis(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0]]
        )
    for rows in ([], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            quat.QuatOrder.from_basis(alg, rows)


def test_order_requires_one():
    alg = _alg16()
    with pytest.raises(ValueError, match="must contain 1$"):
        quat.QuatOrder.from_basis(
            alg, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
    with pytest.raises(ValueError, match="primitive"):
        quat.QuatOrder.from_basis(
            alg, [[HALF, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
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


def _rescaled(order: quat.QuatOrder, u: int, v: int) -> quat.QuatOrder:
    """The image of the order in (a/u^2, b/v^2) under i -> u i, j -> v j."""
    alg = quat.QuatAlgebra(order.algebra.a / (u * u), order.algebra.b / (v * v))
    return quat.QuatOrder.from_basis(
        alg, [[t, u * x, v * y, u * v * z] for t, x, y, z in order.basis_matrix()]
    )


@functools.lru_cache(maxsize=None)
def _oracle_orders() -> tuple[quat.QuatOrder, ...]:
    """Every kind of order the suite builds, and two in algebras with rational a, b."""
    maximal = [quat.maximal_order(quat.QuatAlgebra(a, b))
               for a, b in MAXIMAL_ORDER_ALGEBRAS + SUITE_ALGEBRAS]
    alg = _alg16()
    third = Fraction(3, 2)
    suborder = quat.QuatOrder.from_basis(
        alg, [[1, 0, 0, 0], [HALF, HALF, 1, HALF], [0, 0, third, third], [0, 0, 0, 3]]
    )
    standard = [quat.standard_order(quat.QuatAlgebra(a, b)) for a, b in ((-1, 6), (-3, 6))]
    rescaled = [_rescaled(maximal[0], 2, 3), _rescaled(maximal[4], 1, 5)]
    return tuple(maximal + [suborder] + standard + rescaled)


def test_oracle_orders_include_rational_parameters():
    orders = _oracle_orders()
    assert len(orders) == 13  # the index range of the hypothesis tests below
    assert orders[-2].algebra == quat.QuatAlgebra(Fraction(-1, 4), Fraction(2, 3))
    assert orders[-1].algebra.b == Fraction(23, 25)
    assert orders[-2].den == 2
    # the image of a maximal order is maximal: same discriminant, same algebra up to iso
    assert all(quat.is_maximal(order) for order in orders[-2:])


fractions_small = st.tuples(*[st.integers(-30, 30)] * 4, st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False), fractions_small, coord_ints)
def test_integer_order_matches_fraction_arithmetic(index, rng, x_data, c):
    # table, traces, coordinates and contains against QuatElt products and a
    # rational inverse, on a random unimodular change of basis of the order
    order = _oracle_orders()[index]
    alg = order.algebra
    rows = order.basis_matrix()
    u = _random_unimodular(rng, 4)
    mixed = [[sum(a * row[k] for a, row in zip(urow, rows)) for k in range(4)] for urow in u]
    built = quat.QuatOrder.from_basis(alg, mixed)
    assert built == order
    basis = built.basis
    zero = alg.element(0)
    for i, e in enumerate(basis):
        assert built.traces[i] == e.trd()
        for j, f in enumerate(basis):
            coords = built.table[i][j]
            assert sum((g.scale(x) for g, x in zip(basis, coords)), zero) == e * f
    *nums, d = x_data
    x = alg.element(*(Fraction(n, d) for n in nums))
    expected = oracle_coordinates(built, x)
    assert built.coordinates(x) == expected
    assert built.contains(x) == all(v.denominator == 1 for v in expected)
    y = sum((g.scale(ci) for g, ci in zip(basis, c)), zero)
    assert built.element(c) == y
    assert built.coordinates(y) == tuple(Fraction(ci) for ci in c)
    assert built.contains(y)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MAXIMAL_ORDER_ALGEBRAS[:4]), st.lists(coord_ints, min_size=3, max_size=3))
def test_from_basis_accepts_exactly_the_orders(ab, combos):
    # Z + Z r1 + Z r2 + Z r3 for small combinations r of a maximal order's
    # basis: an order exactly when each r has integral trd and nrd and the
    # products of the basis have integral rational coordinates
    order = quat.maximal_order(quat.QuatAlgebra(*ab))
    alg = order.algebra
    basis = [alg.one] + [
        sum((e.scale(ci) for e, ci in zip(order.basis, cs)), alg.element(0)) for cs in combos
    ]
    rows = [list(e.coords) for e in basis]
    try:
        inv = mat_inverse(rows)
    except ValueError:
        with pytest.raises(ValueError):
            quat.QuatOrder.from_basis(alg, rows)
        return
    closed = all(
        v.denominator == 1
        for e in basis
        for f in basis
        for v in vec_mat((e * f).coords, inv)
    )
    integral = all(e.trd().denominator == 1 and e.nrd().denominator == 1 for e in basis)
    if closed and integral:
        built = quat.QuatOrder.from_basis(alg, rows)
        assert all(built.contains(e) for e in basis)
        assert all(order.contains(e) for e in built.basis)
    else:
        with pytest.raises(ValueError):
            quat.QuatOrder.from_basis(alg, rows)


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
    assert order.trace_form == (
        (2, 0, 0, 0),
        (0, -2, 0, 0),
        (0, 0, 12, 0),
        (0, 0, 0, 12),
    )
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


@pytest.mark.parametrize("a, b", [(-1, -9), (-9, -1), (-25, -3), (-101**2, -3)])
def test_maximal_order_when_a_parameter_has_a_square_factor(a, b):
    # Z<1, i, j, k> of (-101^2, -3) has no overorder of index 101
    order = quat.maximal_order(quat.QuatAlgebra(a, b))
    assert quat.is_maximal(order)
    assert quat.reduced_discriminant(order) == quat.discriminant(order.algebra)


@pytest.mark.parametrize("a, b", [(Fraction(3, 2), Fraction(-7, 6)), (43, Fraction(-28, 9))])
def test_maximal_order_names_non_integer_parameters(a, b):
    alg = quat.QuatAlgebra(a, b)
    with pytest.raises(ValueError, match=f"integer parameters, got a = {alg.a}, b = {alg.b}"):
        quat.maximal_order(alg)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([-1, -2, -3, -5, -7, -11, 2, 3, 5]),
       st.sampled_from([-1, -3, 2, 3, 5, 7, -7, 11, 13]),
       st.sampled_from([1, 2, 3, 5, 7]), st.sampled_from([1, 2, 3]))
def test_maximal_order_on_the_square_factor_grid(a, b, c, d):
    order = quat.maximal_order(quat.QuatAlgebra(a * c * c, b * d * d))
    assert quat.is_maximal(order)


@pytest.mark.parametrize("a, b", MAXIMAL_ORDER_ALGEBRAS + SUITE_ALGEBRAS)
def test_enlargement_matches_the_full_scan(a, b):
    # every step of the saturation: the trace-form radical against all of O/pO
    alg = quat.QuatAlgebra(a, b)
    current = quat.standard_order(alg)
    target = quat.discriminant(alg)
    steps = 0
    while (disc := quat.reduced_discriminant(current)) != target:
        for p in factorint(disc // target):
            candidate = quat._enlarge_at(current, p)
            assert candidate == enlarge_by_full_scan(current, p)
            steps += 1
            if candidate is not None:
                break
        current = candidate
    assert steps > 0
    assert current == quat.maximal_order(alg)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.sampled_from([2, 3, 4, 5, 6, 9]), coord_ints)
def test_enlargement_of_a_suborder_matches_the_full_scan(index, n, x):
    # the order Z + Z x + n O_max: the trace form vanishes mod p on more of
    # it, so the radical is larger and the first hit can come late
    order = _oracle_orders()[index]
    rows = [[1, 0, 0, 0], list(order.element(x).coords)]
    rows += [[n * c for c in row] for row in order.basis_matrix()]
    suborder = quat.QuatOrder.from_basis(order.algebra, rows)
    for p in factorint(n):
        assert quat._enlarge_at(suborder, p) == enlarge_by_full_scan(suborder, p)


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
    gram = omax_1_6.trace_form
    norm_gram = omax_1_6.norm_form
    for r in range(4):
        assert norm_gram[r][r] == 2 * omax_1_6.basis[r].nrd()
        for s in range(4):
            assert gram[r][s] == gram[s][r]
            assert norm_gram[r][s] == norm_gram[s][r]


@given(coord_ints)
def test_norm_gram_evaluates_the_norm(omax_1_6, c):
    gram = omax_1_6.norm_form
    value = sum(c[r] * gram[r][s] * c[s] for r in range(4) for s in range(4))
    assert Fraction(value, 2) == omax_1_6.element(c).nrd()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_mod_runs_lexicographically(p):
    # on a reduced echelon basis the pivot coordinates are the coefficients
    basis, pivots = [(1, 0, 2, 0), (0, 1, 4, 0), (0, 0, 0, 1)], (0, 1, 3)
    for k in range(4):
        vectors = list(quat.span_mod(basis[:k], p))
        assert [tuple(v[c] for c in pivots[:k]) for v in vectors] == list(
            itertools.product(range(p), repeat=k)
        )
        assert len(set(vectors)) == p**k
    assert list(quat.span_mod([], p)) == [(0, 0, 0, 0)]


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
