"""Tests for the finite-field isogeny-class engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatorsion import weil

# The ten isogeny classes cited by label in the torsion arguments, with
# their decoded coefficients and the point counts those arguments use.
CITED_CLASSES = [
    ("2.2.a_e", 2, 0, 4, 9),
    ("2.2.b_b", 2, 1, 1, 9),
    ("2.3.a_ac", 3, 0, -2, 8),
    ("2.3.a_g", 3, 0, 6, 16),
    ("2.5.a_ac", 5, 0, -2, 24),
    ("2.5.a_k", 5, 0, 10, 36),
    ("2.5.d_e", 5, 3, 4, 48),
    ("2.5.f_q", 5, 5, 16, 72),
    ("2.7.a_ac", 7, 0, -2, 48),
    ("2.7.i_be", 7, 8, 30, 144),
]

# Class totals per field size (valid, flagged admissible).  Over a prime
# field every valid pair is admissible; q = 4 excludes ten and q = 9
# twenty-six (NONADMISSIBLE below).
CLASS_COUNTS = {
    2: (35, 35),
    3: (63, 63),
    4: (101, 91),
    5: (129, 129),
    7: (207, 207),
    9: (311, 285),
}

# The (a1, a2) that Honda-Tate excludes.  The slope-1/2 pairs (p | a1,
# v_p(a2) = 1, h irreducible) are all ten over F_4 and twenty over F_9;
# the other six over F_9 have a 3-adic root of valuation exactly 1.
SLOPE_HALF_Q9 = {
    (-6, 21), (-6, 24), (-3, 3), (-3, 6), (-3, 12), (-3, 15), (0, -15),
    (0, -12), (0, -6), (0, -3), (0, 3), (0, 6), (0, 12), (0, 15),
    (3, 3), (3, 6), (3, 12), (3, 15), (6, 21), (6, 24),
}
NONADMISSIBLE = {
    4: {(-4, 10), (-2, 2), (-2, 6), (0, -6), (0, -2), (0, 2), (0, 6), (2, 2), (2, 6), (4, 10)},
    9: SLOPE_HALF_Q9 | {(-4, 12), (-2, -3), (-1, 15), (1, 15), (2, -3), (4, 12)},
}


# ---------------------------------------------------------------------------
# oracle: the per-degree Newton path that base change used to take


def _newton_power_sums(w: weil.WeilPoly2, count: int) -> list[int]:
    """Power sums s_1..s_count of the roots, by Newton's identities alone."""
    e = [-w.a1, w.a2, -w.q * w.a1, w.q**2]
    sums: list[int] = []
    for k in range(1, count + 1):
        total = 0
        for i in range(1, min(k, 4) + 1):
            term = e[i - 1] * (sums[k - i - 1] if k > i else k)
            total += term if i % 2 else -term
        sums.append(total)
    return sums


def _newton_base_change(w: weil.WeilPoly2, n: int) -> tuple[int, ...]:
    """Coefficients over F_{q^n} from s_n, s_2n, s_3n, s_4n and inverse Newton."""
    sums = _newton_power_sums(w, 4 * n)
    s = [sums[n * k - 1] for k in range(1, 5)]
    e: list[int] = []
    for k in range(1, 5):
        total = s[k - 1] if k % 2 else -s[k - 1]
        for i in range(1, k):
            term = e[i - 1] * s[k - i - 1]
            total += term if (k - i) % 2 else -term
        quotient, remainder = divmod(total, k)
        assert remainder == 0
        e.append(quotient)
    qn = w.q**n
    assert e[2] == qn * e[0] and e[3] == qn * qn
    return (1, -e[0], e[1], -e[2], e[3])


def _newton_split(w: weil.WeilPoly2, table: list[tuple[int, ...]], nmax: int):
    """The split analysis read off the oracle's base changes.

    The trace test is the one ``test_elliptic_traces_match_enumeration``
    checks against every curve over the small fields.
    """
    for n, (_, a1, a2, _, _) in enumerate(table[:nmax], start=1):
        a = a1 // 2
        if a1 % 2 == 0 and a2 == a * a + 2 * w.q**n and weil._is_elliptic_trace(w.q**n, a):
            return n, a
    return None


@pytest.fixture(scope="module")
def newton_table():
    """Per class of every supported q, the oracle base changes for n <= 24."""
    return {
        q: [
            (c, [_newton_base_change(c.poly, n) for n in range(1, 25)])
            for c in weil.enumerate_surfaces(q)
        ]
        for q in weil.SUPPORTED_Q
    }


# ---------------------------------------------------------------------------
# prime powers


@pytest.mark.parametrize(
    "q, expected",
    [(2, (2, 1)), (7, (7, 1)), (4, (2, 2)), (8, (2, 3)), (9, (3, 2)), (121, (11, 2))],
)
def test_prime_power_base(q, expected):
    assert weil.prime_power_base(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_prime_power_base_rejects_composites(q):
    with pytest.raises(ValueError, match="prime power"):
        weil.prime_power_base(q)


# ---------------------------------------------------------------------------
# polynomial types


def test_coefficients_and_point_count():
    w = weil.WeilPoly2(5, 3, 4)
    assert w.coefficients() == (1, 3, 4, 15, 25)
    assert w.point_count() == 48


def test_quartic_requires_prime_power_field():
    with pytest.raises(ValueError, match="prime power"):
        weil.WeilPoly2(6, 0, 0)


def test_ordinary_means_middle_coefficient_prime_to_p():
    assert weil.WeilPoly2(5, 5, 16).is_ordinary()
    assert not weil.WeilPoly2(3, 0, 6).is_ordinary()
    assert not weil.WeilPoly2(4, 1, 2).is_ordinary()


def test_elliptic_square_expands_correctly():
    e = weil.WeilPoly1(7, 4)
    assert e.point_count() == 12
    w = e.square()
    # (T^2 + 4T + 7)^2 = T^4 + 8T^3 + 30T^2 + 56T + 49
    assert w.coefficients() == (1, 8, 30, 56, 49)
    assert w.point_count() == e.point_count() ** 2


def test_elliptic_trace_bound_enforced():
    weil.WeilPoly1(4, 4)  # |a| = 2 sqrt(q) is allowed
    with pytest.raises(ValueError, match="exceeds"):
        weil.WeilPoly1(2, 3)


# ---------------------------------------------------------------------------
# validity


@pytest.mark.parametrize(
    "q, a1, a2, expected",
    [
        (5, 3, 4, True),
        (2, 9, 0, False),  # a1^2 > 16q
        (3, 0, 6, True),
        (2, 0, -4, True),  # (T^2 - 2)^2, both edge conditions tight
        (2, 0, -5, False),  # 2q + a2 < 0
        (5, 4, -6, False),  # edge^2 < 4q a1^2
    ],
)
def test_validity_examples(q, a1, a2, expected):
    assert weil.is_weil_valid(weil.WeilPoly2(q, a1, a2)) is expected


def test_validity_matches_root_moduli():
    """Oracle: valid iff all complex roots have absolute value sqrt(q)."""
    for a1 in range(-9, 10):
        for a2 in range(-12, 27):
            w = weil.WeilPoly2(5, a1, a2)
            roots = np.roots(np.array(w.coefficients(), dtype=float))
            on_circle = bool(
                np.max(np.abs(np.abs(roots) - math.sqrt(5))) < 1e-4
            )
            assert weil.is_weil_valid(w) == on_circle, (a1, a2)


# ---------------------------------------------------------------------------
# labels


@pytest.mark.parametrize("label, q, a1, a2, count", CITED_CLASSES)
def test_cited_labels_decode_and_round_trip(label, q, a1, a2, count):
    w = weil.parse_label(label)
    assert (w.q, w.a1, w.a2) == (q, a1, a2)
    assert weil.format_label(w) == label
    assert w.point_count() == count
    assert weil.is_weil_valid(w)


def test_leading_a_negates_the_following_letters():
    assert weil.parse_label("2.3.a_ac").a2 == -2
    assert weil.format_label(weil.WeilPoly2(3, 0, -2)) == "2.3.a_ac"
    # multi-letter values are base 26: "ba" = 26, "be" = 30
    assert weil.parse_label("2.2.ba_be") == weil.WeilPoly2(2, 26, 30)
    assert weil.format_label(weil.WeilPoly2(2, -26, 0)) == "2.2.aba_a"


@pytest.mark.parametrize(
    "label, message",
    [
        ("2.3.a_aa", "negative zero"),
        ("2.3.aa_b", "negative zero"),
        ("1.2.a_e", "unsupported dimension"),
        ("3.2.a_e", "unsupported dimension"),
        ("2.6.a_e", "prime power"),
        ("2.x.a_e", "invalid field size"),
        ("2.3.a", "two coefficient strings"),
        ("2.3.a_b_c", "two coefficient strings"),
        ("2.3", "three dot-separated parts"),
        ("2.3.a_e.f", "three dot-separated parts"),
        ("2.3.A_e", "invalid coefficient letter"),
        ("2.3.a_", "invalid coefficient letter"),
        ("2.3._e", "invalid coefficient letter"),
        ("2.5.aab_c", "canonical label is '2.5.b_c'"),
        ("2.05.b_c", "canonical label is '2.5.b_c'"),
        ("2.+5.b_c", "canonical label is '2.5.b_c'"),
        ("2. 5.b_c", "canonical label is '2.5.b_c'"),
    ],
)
def test_malformed_labels_are_rejected(label, message):
    with pytest.raises(ValueError, match=message):
        weil.parse_label(label)


@given(
    st.sampled_from(weil.SUPPORTED_Q),
    st.integers(-675, 675),
    st.integers(-675, 675),
)
@settings(max_examples=1000, deadline=None)
def test_label_round_trip_on_random_coefficients(q, a1, a2):
    w = weil.WeilPoly2(q, a1, a2)
    label = weil.format_label(w)
    assert weil.parse_label(label) == w
    assert weil.format_label(weil.parse_label(label)) == label


# ---------------------------------------------------------------------------
# enumeration


def test_class_counts_per_field_size():
    for q, (valid, admissible) in CLASS_COUNTS.items():
        classes = weil.enumerate_surfaces(q)
        assert len(classes) == valid, q
        assert sum(c.honda_tate_admissible for c in classes) == admissible, q


def test_nonadmissible_classes_occur_only_over_square_fields():
    for q in weil.SUPPORTED_Q:
        excluded = {
            (c.poly.a1, c.poly.a2)
            for c in weil.enumerate_surfaces(q)
            if not c.honda_tate_admissible
        }
        assert excluded == NONADMISSIBLE.get(q, set()), q
    assert weil.parse_label("2.4.a_c") in [
        c.poly for c in weil.enumerate_surfaces(4) if not c.honda_tate_admissible
    ]


def test_slope_half_classes_are_the_p_divisible_irreducible_ones():
    # p | a1 and v_p(a2) = 1 with h irreducible: Newton slopes 1/2, 3/2
    def slope_half(q, p):
        return {
            (c.poly.a1, c.poly.a2)
            for c in weil.enumerate_surfaces(q)
            if c.poly.a1 % p == 0
            and c.poly.a2 % p == 0
            and c.poly.a2 % (p * p)
            and math.isqrt(d := c.poly.a1**2 - 4 * (c.poly.a2 - 2 * q)) ** 2 != d
        }

    assert slope_half(4, 2) == NONADMISSIBLE[4]
    assert slope_half(9, 3) == SLOPE_HALF_Q9


def test_enumeration_is_sorted_and_consistent():
    for q in weil.SUPPORTED_Q:
        classes = weil.enumerate_surfaces(q)
        pairs = [(c.poly.a1, c.poly.a2) for c in classes]
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)
        for c in classes:
            assert c.poly.q == q
            assert weil.is_weil_valid(c.poly)
            assert c.label == weil.format_label(c.poly)
            assert c.poly.point_count() > 0


def test_every_cited_class_is_enumerated_admissible():
    by_label = {
        c.label: c for q in (2, 3, 5, 7) for c in weil.enumerate_surfaces(q)
    }
    for label, *_ in CITED_CLASSES:
        assert by_label[label].honda_tate_admissible, label


def test_real_weil_number_class_is_admissible():
    # (T^2 - q)^2 from sqrt(q): covered over F_p, and split at square q
    for q in weil.SUPPORTED_Q:
        (c,) = [c for c in weil.enumerate_surfaces(q) if (c.poly.a1, c.poly.a2) == (0, -2 * q)]
        assert c.honda_tate_admissible, q


def test_point_count_anchors():
    def admissible(q):
        return [c.poly for c in weil.enumerate_surfaces(q) if c.honda_tate_admissible]

    def split_part(q, ell):
        return max(
            math.gcd(w.point_count(), ell**100)
            for w in admissible(q)
            if weil.geometric_split_analysis(w) is not None
        )

    assert [(w.a1, w.a2) for w in admissible(2) if w.point_count() % 9 == 0] == [(0, 4), (1, 1)]
    assert [(w.a1, w.a2) for w in admissible(5) if w.point_count() % 72 == 0] == [(5, 16)]
    assert split_part(3, 2) == 16
    assert split_part(2, 3) == 9


def test_enumeration_returns_a_fresh_list():
    first = weil.enumerate_surfaces(9)
    first.clear()
    assert len(weil.enumerate_surfaces(9)) == 311


def test_root_refinement_of_a_repeated_root_raises():
    # (t - 1)^2 is not separable: refinement at 1 + 3Z_3 never ends
    with pytest.raises(ArithmeticError, match="terminate"):
        weil._has_root_in_class((1, -2, 1), 3, 1)


def test_enumeration_rejects_unsupported_fields():
    with pytest.raises(ValueError, match="q must be one of"):
        weil.enumerate_surfaces(11)


# ---------------------------------------------------------------------------
# base change


def test_base_change_identity_and_errors():
    w = weil.parse_label("2.5.d_e")
    assert weil.base_change(w, 1) == w
    with pytest.raises(ValueError, match="positive"):
        weil.base_change(w, 0)


@pytest.mark.parametrize(
    "label", ["2.2.b_b", "2.3.a_ac", "2.5.d_e", "2.5.f_q", "2.7.i_be"]
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_base_change_matches_powered_roots(label, n):
    """Oracle: coefficients of prod (T - r^n) over the complex roots r."""
    w = weil.parse_label(label)
    roots = np.roots(np.array(w.coefficients(), dtype=float)) ** n
    expected = [round(c) for c in np.poly(roots).real]
    assert expected == list(weil.base_change(w, n).coefficients())


def test_base_change_known_point_counts():
    # the class of the reduction at 3 gains exactly 64 points over F_9
    assert weil.base_change(weil.parse_label("2.3.a_ac"), 2).point_count() == 64
    # over F_25 the count 576 has 3-part exactly 9
    over_25 = weil.base_change(weil.parse_label("2.5.a_ac"), 2)
    assert over_25 == weil.WeilPoly2(25, -4, 54)
    assert over_25.point_count() == 576
    assert math.gcd(over_25.point_count(), 3**100) == 9


@given(st.integers(0, 34), st.integers(1, 4), st.integers(1, 3))
@settings(deadline=None)
def test_base_change_composition_law(index, m, n):
    w = weil.enumerate_surfaces(2)[index].poly
    step = weil.base_change(w, m)
    assert weil.is_weil_valid(step)
    assert weil.base_change(step, n) == weil.base_change(w, m * n)


def test_base_change_matches_newton_oracle(newton_table):
    for rows in newton_table.values():
        for c, table in rows:
            for n, expected in enumerate(table, start=1):
                assert weil.base_change(c.poly, n).coefficients() == expected, (c.label, n)


def test_power_sums_match_newton_oracle():
    for q in weil.SUPPORTED_Q:
        for c in weil.enumerate_surfaces(q):
            assert weil._power_sums(c.poly, 48) == _newton_power_sums(c.poly, 48)
    w = weil.parse_label("2.5.d_e")
    for count in range(5):
        assert weil._power_sums(w, count) == _newton_power_sums(w, count)


def test_odd_power_sum_difference_raises(monkeypatch):
    # s_n^2 - s_2n is twice an integer for any integer quartic; a broken
    # power-sum list must not be rounded into a polynomial
    w = weil.parse_label("2.5.d_e")
    good = weil._power_sums

    def broken(w, count):
        sums = good(w, count)
        sums[3] += 1  # s_4, read as s_2n at n = 2
        return sums

    monkeypatch.setattr(weil, "_power_sums", broken)
    with pytest.raises(ArithmeticError, match="odd"):
        weil.base_change(w, 2)
    with pytest.raises(ArithmeticError, match="odd"):
        weil.geometric_split_analysis(w)


# ---------------------------------------------------------------------------
# geometric split analysis


def test_elliptic_squares_split_at_degree_one():
    for q in weil.SUPPORTED_Q:
        for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
            square = weil.WeilPoly1(q, a).square()
            assert weil.geometric_split_analysis(square) == (1, a)


@pytest.mark.parametrize(
    "label, expected",
    [
        ("2.5.d_e", (3, 18)),  # acquires QM only over the cubic extension
        ("2.5.f_q", None),  # never isogenous to a square of an elliptic curve
        ("2.5.a_k", (1, 0)),  # already a square: (T^2 + 5)^2
        ("2.5.a_ac", (2, -2)),  # endomorphisms defined over F_25
        ("2.3.a_ac", (2, -2)),  # splits over F_9 with E(F_9) of order 8
        ("2.3.a_g", (1, 0)),
        ("2.2.a_e", (1, 0)),
        ("2.2.b_b", None),  # commutative geometric endomorphism algebra
        ("2.7.i_be", (1, 4)),
        ("2.7.a_ac", (2, -2)),
    ],
)
def test_split_analysis_on_cited_classes(label, expected):
    assert weil.geometric_split_analysis(weil.parse_label(label)) == expected


@pytest.mark.parametrize(
    "label, square_at, expected",
    [
        ("2.5.a_a", (2, 0), (4, 50)),  # no trace 0 over F_25: 5 = 1 mod 4
        ("2.7.a_h", (2, 7), (6, -686)),  # no trace +-7 over F_49: 7 = 1 mod 3
        ("2.7.a_ah", (2, -7), (3, 0)),
    ],
)
def test_split_skips_squares_of_non_elliptic_polynomials(label, square_at, expected):
    w = weil.parse_label(label)
    n, a = square_at
    assert weil.base_change(w, n) == weil.WeilPoly1(w.q**n, a).square()
    assert not weil._is_elliptic_trace(w.q**n, a)
    assert weil.geometric_split_analysis(w) == expected


# x^m = -(c_0 + c_1 x + ... ) over F_p for each non-prime field below
_FIELD_REDUCTIONS = {
    4: (1, 1),
    8: (1, 1, 0),
    9: (1, 0),
    25: (3, 0),
    27: (2, 2, 0),
    49: (1, 0),
}


def _field_tables(q: int):
    """Addition and multiplication tables of F_q on 0..q-1 (base-p digits)."""
    p, m = weil.prime_power_base(q)
    low = _FIELD_REDUCTIONS.get(q, (0,))

    def digits(x):
        return [x // p**i % p for i in range(m)]

    def number(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul(x, y):
        prod = [0] * (2 * m - 1)
        for i, u in enumerate(digits(x)):
            for j, v in enumerate(digits(y)):
                prod[i + j] += u * v
        for k in range(2 * m - 2, m - 1, -1):
            c, prod[k] = prod[k], 0
            for i, l in enumerate(low):
                prod[k - m + i] -= c * l
        return number([c % p for c in prod[:m]])

    add = [[number([(u + v) % p for u, v in zip(digits(x), digits(y))]) for y in range(q)]
           for x in range(q)]
    return add, [[mul(x, y) for y in range(q)] for x in range(q)]


def _elliptic_traces(q: int) -> set[int]:
    """Every a with T^2 + aT + q the polynomial of an elliptic curve over F_q.

    Counts the points of every curve in a Weierstrass normal form: y^2 =
    x^3 + a2 x^2 + a4 x + a6 in odd characteristic (a2 = 0 for p >= 5),
    and y^2 + xy = x^3 + a2 x^2 + a6 (a6 != 0) or y^2 + a3 y = x^3 + a4 x
    + a6 (a3 != 0) in characteristic 2.  Each normal form covers every curve, and a curve
    with q + 1 + a points has Weil polynomial T^2 + aT + q.
    """
    p, _ = weil.prime_power_base(q)
    add, mul = _field_tables(q)
    cube = [mul[mul[x][x]][x] for x in range(q)]
    square = [mul[y][y] for y in range(q)]
    counts = set()
    if p == 2:
        def affine(lhs, rhs):
            return sum(lhs(x, y) == rhs(x) for x in range(q) for y in range(q))

        for a2 in range(q):
            for a6 in range(1, q):
                counts.add(affine(lambda x, y: add[square[y]][mul[x][y]],
                                  lambda x: add[add[cube[x]][mul[a2][square[x]]]][a6]))
        for a3 in range(1, q):
            for a4 in range(q):
                for a6 in range(q):
                    counts.add(affine(lambda x, y: add[square[y]][mul[a3][y]],
                                      lambda x: add[add[cube[x]][mul[a4][x]]][a6]))
    else:
        roots = [0] * q
        for y in range(q):
            roots[square[y]] += 1
        three = add[add[1][1]][1]
        two = add[1][1]
        for a2 in range(q) if p == 3 else (0,):  # a2 = 0 suffices from p = 5 on
            for a4 in range(q):
                for a6 in range(q):
                    values = [add[add[add[cube[x]][mul[a2][square[x]]]][mul[a4][x]]][a6]
                              for x in range(q)]
                    slopes = [add[add[mul[three][square[x]]][mul[two][mul[a2][x]]]][a4]
                              for x in range(q)]
                    if any(v == 0 and d == 0 for v, d in zip(values, slopes)):
                        continue  # a repeated root, necessarily rational
                    counts.add(sum(roots[v] for v in values))
    return {count - q for count in counts}  # q + 1 + a points with infinity


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49])
def test_elliptic_traces_match_enumeration(q):
    bound = math.isqrt(4 * q)
    admitted = {a for a in range(-bound, bound + 1) if weil._is_elliptic_trace(q, a)}
    assert admitted == _elliptic_traces(q)


@pytest.mark.parametrize("nmax", [1, 2, 24])
def test_split_analysis_matches_newton_oracle(newton_table, nmax):
    checked = 0
    for rows in newton_table.values():
        for c, table in rows:
            expected = _newton_split(c.poly, table, nmax)
            assert weil.geometric_split_analysis(c.poly, nmax) == expected, c.label
            checked += 1
    assert checked == 846


def test_split_beyond_the_weil_bound_raises():
    # (T^2 + 3T + 2)^2 is a square, but |3| > 2 sqrt(2): not a Weil polynomial
    with pytest.raises(ArithmeticError, match="exceeds"):
        weil.geometric_split_analysis(weil.WeilPoly2(2, 6, 13))


def test_split_analysis_window_and_errors():
    d_e = weil.parse_label("2.5.d_e")
    assert weil.geometric_split_analysis(d_e, nmax=2) is None
    with pytest.raises(ValueError, match="positive"):
        weil.geometric_split_analysis(d_e, nmax=0)


# ---------------------------------------------------------------------------
# torsion scans


def test_three_part_bound_over_f2():
    assert weil.torsion_gcd_scan(2, 3, geometric_square_only=True) == (
        9,
        ["2.2.a_e"],
    )
    # without the geometric restriction the other count-9 class appears
    assert weil.torsion_gcd_scan(2, 3, geometric_square_only=False) == (
        9,
        ["2.2.a_e", "2.2.b_b"],
    )


def test_two_part_bound_over_f3():
    assert weil.torsion_gcd_scan(3, 2, geometric_square_only=True) == (
        16,
        ["2.3.a_g"],
    )


def test_no_surface_over_f2_has_49_points_dividing():
    best, _ = weil.torsion_gcd_scan(2, 7, geometric_square_only=False)
    assert best <= 7


def _oracle_scan(rows, ell: int, geometric: bool) -> tuple[int, list[str]]:
    cap = ell**100
    best, attaining = 0, []
    for c, table in rows:
        if not c.honda_tate_admissible:
            continue
        if geometric and _newton_split(c.poly, table, 24) is None:
            continue
        value = math.gcd(c.poly.point_count(), cap)
        if value > best:
            best, attaining = value, [c.label]
        elif value == best:
            attaining.append(c.label)
    return best, attaining


def test_torsion_scans_match_oracle(newton_table):
    scans = 0
    for q, rows in newton_table.items():
        for ell in sorted(weil.qm_prime_bound(q)):
            for geometric in (False, True):
                assert weil.torsion_gcd_scan(q, ell, geometric) == _oracle_scan(
                    rows, ell, geometric
                ), (q, ell, geometric)
                scans += 1
    assert scans == 54


def test_torsion_scan_rejects_bad_modulus():
    with pytest.raises(ValueError, match="at least 2"):
        weil.torsion_gcd_scan(2, 1, geometric_square_only=False)


# ---------------------------------------------------------------------------
# prime bounds


@pytest.mark.parametrize(
    "q, expected",
    [
        (2, {2, 3, 5}),
        (3, {2, 3, 5, 7}),
        (4, {2, 3, 5, 7}),
        (9, {2, 3, 5, 7, 11, 13}),
    ],
)
def test_qm_prime_bound(q, expected):
    assert weil.qm_prime_bound(q) == expected


def test_qm_prime_bound_requires_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        weil.qm_prime_bound(6)


def test_qm_prime_bound_rejects_a_zero_count(monkeypatch):
    # over a field of size 1 the trace a = -2 would give 1 + a + q = 0
    monkeypatch.setattr(weil, "prime_power_base", lambda q: (q, 1))
    with pytest.raises(ArithmeticError, match="not a positive point count"):
        weil.qm_prime_bound(1)
