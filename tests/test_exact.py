"""Tests for the exact arithmetic substrate."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy
from sympy import GF, ZZ, Matrix, Poly, symbols
from sympy.matrices.normalforms import invariant_factors
from sympy.ntheory import factorint, primerange

from quatorsion import exact

_x = symbols("x")


# ---------------------------------------------------------------------------
# integers: primality and factoring against sympy

STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)
CARMICHAEL = (561, 41041)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not exact.isprime(n)
    assert exact.factorint(n) == sympy.factorint(n)


def test_isprime_small_values_match_sympy():
    assert [n for n in range(-5, 5000) if exact.isprime(n)] == list(sympy.primerange(0, 5000))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**24))
def test_isprime_and_factorint_match_sympy(n):
    assert exact.isprime(n) == sympy.isprime(n)
    assert exact.factorint(n) == sympy.factorint(n)
    assert exact.factorint(-n) == sympy.factorint(-n)


def test_factorint_conventions():
    assert exact.factorint(1) == {}
    assert exact.factorint(-1) == {-1: 1}
    assert list(exact.factorint(-360)) == [-1, 2, 3, 5]
    assert exact.factorint(2**61 - 1) == {2**61 - 1: 1}
    # powers of large primes, and products of them, as conic norms give
    for n in (1000003**5, 999983**2 * 1000003**2, (2**31 - 1) ** 3 * 5, 315589**2):
        assert exact.factorint(n) == sympy.factorint(n)
    with pytest.raises(ValueError):
        exact.factorint(0)


def test_primality_above_the_proved_bound():
    # composites above the bound are proved so by a failed strong test
    assert not exact.isprime(exact.ISPRIME_BOUND + 2)
    assert exact.factorint(4057**3 * 418069**3) == {4057: 3, 418069: 3}
    # the least spsp to all 13 bases goes on to Pocklington's test, whose
    # Fermat test to a base above 41 proves it composite
    assert not exact.isprime(exact.ISPRIME_BOUND)
    assert exact.factorint(exact.ISPRIME_BOUND) == sympy.factorint(exact.ISPRIME_BOUND)


# n - 1 = 16 P Q with the primes P ~ 2^47 and Q ~ 2^49: rho would need
# about 2^23 steps to split P Q, far past the budget
UNPROVED_PRIME = 16 * 140737488367699 * 562949953428103 + 1


@pytest.mark.parametrize("n", [2**89 - 1, 2**127 - 1, 2**521 - 1])
def test_pocklington_proves_mersenne_primes(n):
    assert n >= exact.ISPRIME_BOUND
    assert exact.isprime(n)
    assert exact.factorint(n) == {n: 1}
    assert not exact.isprime(n + 2)


def test_pocklington_gives_up_when_the_budget_runs_out():
    assert sympy.isprime(UNPROVED_PRIME) and UNPROVED_PRIME >= exact.ISPRIME_BOUND
    assert exact._rho_divisor(140737488367699 * 562949953428103, 1 << 16) is None
    with pytest.raises(ValueError, match="did not factor past sqrt"):
        exact.isprime(UNPROVED_PRIME)


def test_rho_divisor_within_a_budget():
    assert exact._rho_divisor(2113 * 2931542417, 1 << 16) in (2113, 2931542417)


def test_primerange_nextprime_primefactors_multiplicity():
    for a, b in [(0, 0), (0, 3), (2, 3), (3, 400), (90, 97), (97, 98), (1000, 1100)]:
        assert exact.primerange(a, b) == list(sympy.primerange(a, b))
    assert [exact.nextprime(n) for n in range(-3, 300)] == [
        sympy.nextprime(n) for n in range(-3, 300)
    ]
    assert exact.primefactors(-3 * 3 * 7 * 101) == [3, 7, 101]
    assert exact.multiplicity(3, -162) == 4
    with pytest.raises(ValueError):
        exact.multiplicity(3, 0)


def test_sqrt_mod_matches_sympy():
    # every a at every odd p < 2000, including p = 1 mod 8 (Tonelli-Shanks)
    for p in sympy.primerange(3, 2000):
        for a in range(p):
            assert exact.sqrt_mod(a, p) == sympy.ntheory.sqrt_mod(a, p), (a, p)


# ---------------------------------------------------------------------------
# kronecker symbol


def _legendre_bruteforce(a: int, p: int) -> int:
    """Oracle: quadratic-residue search for an odd prime p."""
    if a % p == 0:
        return 0
    return 1 if any(x * x % p == a % p for x in range(1, p)) else -1


@pytest.mark.parametrize(
    "a, n, expected",
    [
        (1, 7, 1),
        (-1, 3, -1),  # -1 is a non-residue mod 3
        (2, 15, 1),  # (2|3)(2|5) = (-1)(-1)
    ],
)
def test_kronecker_examples(a, n, expected):
    assert exact.kronecker_symbol(a, n) == expected


def test_kronecker_matches_bruteforce_on_odd_primes():
    for p in primerange(3, 98):
        for a in range(-50, 51):
            assert exact.kronecker_symbol(a, p) == _legendre_bruteforce(a, p), (a, p)


def test_kronecker_matches_sympy_on_every_sign_and_parity():
    # n < 0, n = 0 and even n follow the rules of the docstring
    for a in range(-60, 61):
        for n in range(-60, 61):
            assert exact.kronecker_symbol(a, n) == sympy.kronecker_symbol(a, n), (a, n)


@given(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
def test_kronecker_matches_sympy_random(a, n):
    assert exact.kronecker_symbol(a, n) == sympy.kronecker_symbol(a, n)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-60, 60))
def test_kronecker_multiplicative_in_first_argument(a, b, n):
    lhs = exact.kronecker_symbol(a * b, n)
    rhs = exact.kronecker_symbol(a, n) * exact.kronecker_symbol(b, n)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Hilbert symbol


@pytest.mark.parametrize(
    "a, b, place, expected",
    [
        (-1, 6, 2, -1),
        (-1, 6, 3, -1),
        (-1, 6, math.inf, 1),  # b > 0, real algebra splits
        (1, 6, 2, 1),  # 1 is a square
        (1, -7, math.inf, 1),
        (-1, -1, math.inf, -1),
        (-2, 5, 2, -1),
        (-2, 5, 5, -1),
    ],
)
def test_hilbert_examples(a, b, place, expected):
    assert exact.hilbert_symbol(a, b, place) == expected


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        exact.hilbert_symbol(0, 5, 2)
    with pytest.raises(ValueError):
        exact.hilbert_symbol(5, Fraction(0), 3)


def test_hilbert_rejects_nonprime_place():
    with pytest.raises(ValueError):
        exact.hilbert_symbol(2, 3, 6)


def _relevant_places(a: Fraction, b: Fraction):
    n = 2 * a.numerator * a.denominator * b.numerator * b.denominator
    places: list[int | float] = [math.inf]
    places += sorted(p for p in factorint(n) if p > 0)
    return places


nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
).filter(lambda q: q != 0)


@settings(max_examples=300)
@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_product_formula(a, b):
    prod = 1
    for v in _relevant_places(a, b):
        prod *= exact.hilbert_symbol(a, b, v)
    assert prod == 1


@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_symmetric(a, b):
    for v in (2, 3, 5, math.inf):
        assert exact.hilbert_symbol(a, b, v) == exact.hilbert_symbol(b, a, v)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_hilbert_bimultiplicative(a1, a2, b):
    for v in (2, 3, 7, math.inf):
        lhs = exact.hilbert_symbol(a1 * a2, b, v)
        rhs = exact.hilbert_symbol(a1, b, v) * exact.hilbert_symbol(a2, b, v)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# square classes and valuations


@pytest.mark.parametrize(
    "x, squarefree, is_square",
    [
        (18, 2, False),
        (Fraction(4, 9), 1, True),
        (Fraction(-45, 5), -1, False),  # -9 = -1 * 3^2
        (1, 1, True),
        (-1, -1, False),
    ],
)
def test_square_class_examples(x, squarefree, is_square):
    assert exact.rational_square_class(x) == (squarefree, is_square)


def test_square_class_rejects_zero():
    with pytest.raises(ValueError):
        exact.rational_square_class(0)


@given(nonzero_rationals)
def test_square_class_is_a_square_times_squarefree(x):
    s, is_square = exact.rational_square_class(x)
    ratio = x / s
    assert ratio > 0
    assert exact.rational_square_class(ratio) == (1, True)
    assert is_square == (s == 1)


@pytest.mark.parametrize(
    "x, p, expected",
    [(12, 2, 2), (Fraction(5, 8), 2, -3), (Fraction(7, 3), 5, 0)],
)
def test_padic_examples(x, p, expected):
    assert exact.padic_valuation(x, p) == expected


def test_padic_rejects_zero():
    with pytest.raises(ValueError):
        exact.padic_valuation(0, 2)


@given(nonzero_rationals, nonzero_rationals)
def test_padic_additive(x, y):
    for p in (2, 3, 5):
        assert exact.padic_valuation(x * y, p) == exact.padic_valuation(
            x, p
        ) + exact.padic_valuation(y, p)


# ---------------------------------------------------------------------------
# Smith invariants


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[2, 0], [0, 2]], (2, 2)),
        ([[1, 0], [0, 6]], (6,)),
        ([[2, 0], [0, 4]], (2, 4)),
        ([[2, 0], [2, 4]], (2, 4)),  # row op applied to the previous
        ([[0, 2], [4, 0]], (2, 4)),
        ([[1, 0], [0, 1]], ()),
    ],
)
def test_smith_examples(rows, expected):
    assert exact.smith_invariants(rows) == expected


def test_smith_rejects_infinite_cokernel():
    with pytest.raises(ValueError):
        exact.smith_invariants([[2, 4], [1, 2]])  # rank 1, free quotient


small_2x2 = st.lists(st.integers(-8, 8), min_size=4, max_size=4).filter(
    lambda e: e[0] * e[3] - e[1] * e[2] != 0
)


@given(small_2x2)
def test_smith_2x2_against_gcd_det_oracle(entries):
    a, b, c, d = entries
    det = abs(a * d - b * c)
    d1 = math.gcd(math.gcd(a, b), math.gcd(c, d))
    d2 = det // d1
    expected = tuple(x for x in (d1, d2) if x > 1)
    assert exact.smith_invariants([[a, b], [c, d]]) == expected


def _apply_unimodular_ops(rows, ops):
    m = [list(r) for r in rows]
    n = len(m)
    for kind, i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        if kind == 0:  # row_i += c * row_j
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == 1:  # col_i += c * col_j
            for row in m:
                row[i] += c * row[j]
        elif kind == 2:  # swap rows
            m[i], m[j] = m[j], m[i]
        else:  # negate a row
            m[i] = [-x for x in m[i]]
    return m


matrices_3x3 = st.lists(st.integers(-6, 6), min_size=9, max_size=9)
unimodular_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200)
@given(matrices_3x3, unimodular_ops)
def test_smith_diagonal_unimodular_invariance(entries, ops):
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    transformed = _apply_unimodular_ops(rows, ops)
    assert exact.smith_diagonal(rows) == exact.smith_diagonal(transformed)


def _sympy_smith_diagonal(rows):
    """Oracle: sympy's invariant factors, padded with zeros to ncols."""
    mat = Matrix(rows)
    diag = [abs(int(d)) for d in invariant_factors(mat, domain=ZZ)]
    return tuple(diag + [0] * (mat.cols - len(diag)))


@st.composite
def smith_matrices(draw):
    """4 x n integer matrices, 4 <= n <= 12, some rank-deficient, some transposed.

    The last ``deficiency`` rows are integer combinations of the others,
    and row multipliers give nontrivial invariant factors.
    """
    ncols = draw(st.integers(4, 12))
    entry = st.integers(-9, 9)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(4)]
    for r in range(4):
        scale = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
        rows[r] = [scale * x for x in rows[r]]
    kept = 4 - draw(st.integers(0, 3))
    for r in range(kept, 4):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=kept, max_size=kept))
        rows[r] = [sum(c * rows[i][k] for i, c in enumerate(coeffs)) for k in range(ncols)]
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return rows


@settings(max_examples=300, deadline=None)
@given(smith_matrices())
def test_smith_forms_against_sympy_oracle(rows):
    expected = _sympy_smith_diagonal(rows)
    assert exact.smith_diagonal(rows) == expected
    if sum(1 for d in expected if d) < len(rows):
        with pytest.raises(ValueError, match="free rank"):
            exact.smith_invariants(rows)
    else:
        assert exact.smith_invariants(rows) == tuple(d for d in expected if d > 1)


def test_smith_diagonal_of_zero_and_deficient_matrices():
    assert exact.smith_diagonal([[0, 0, 0], [0, 0, 0]]) == (0, 0, 0)
    assert exact.smith_diagonal([[2, 4], [1, 2]]) == (1, 0)
    assert exact.smith_diagonal([[-2, 0], [0, -6]]) == (2, 6)
    assert exact.smith_diagonal([[2, 0, 0], [0, 3, 0]]) == (1, 6, 0)


@st.composite
def square_matrices(draw):
    """n x n integer matrices, n <= 6, with many zeros (so pivots need
    row swaps) and, when ``dependent`` is drawn, one row a combination
    of the others (singular)."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, 9, -9])
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        r = draw(st.integers(0, n - 1))
        others = rows[:r] + rows[r + 1:]
        rows[r] = [sum(c * row[k] for c, row in zip(coeffs, others)) for k in range(n)]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_bareiss_against_sympy(rows):
    assert exact.det_bareiss(rows) == Matrix(rows).det()


def test_det_bareiss_examples():
    assert exact.det_bareiss([]) == 1
    assert exact.det_bareiss([[0, 1], [1, 0]]) == -1  # one row swap
    assert exact.det_bareiss([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == 5 * (4 - 6)
    assert exact.det_bareiss([[1, 2], [2, 4]]) == 0


def test_hnf_rows_reduces_above_every_pivot():
    # subtracting the middle row changes the last column, which must end in [0, 4)
    assert exact.hnf_rows([[1, 1, 0], [0, 1, 3], [0, 0, 4]]) == [[1, 0, 1], [0, 1, 3], [0, 0, 4]]


@st.composite
def hnf_inputs(draw):
    """An integer matrix M, 3x3 to 4x5, and a unimodular U with as many rows,
    a product of row additions, swaps and negations."""
    nrows = draw(st.integers(3, 4))
    ncols = draw(st.integers(nrows, 5))
    m = [draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    row_ops = st.tuples(st.sampled_from([0, 2, 3]), st.integers(0, 3), st.integers(0, 3),
                        st.integers(-4, 4))
    identity = [[int(r == c) for c in range(nrows)] for r in range(nrows)]
    u = _apply_unimodular_ops(identity, draw(st.lists(row_ops, min_size=1, max_size=10)))
    return m, u


@settings(max_examples=300, deadline=None)
@given(hnf_inputs())
def test_hnf_rows_is_the_hermite_form_of_the_row_lattice(inputs):
    m, u = inputs
    um = [[sum(a * row[c] for a, row in zip(urow, m)) for c in range(len(m[0]))] for urow in u]
    hnf = exact.hnf_rows(m)
    assert exact.hnf_rows(um) == hnf
    assert len(hnf) == Matrix(m).rank()
    cols = [next(c for c, x in enumerate(row) if x) for row in hnf]
    assert cols == sorted(set(cols))  # echelon: pivots strictly to the right
    for r, col in enumerate(cols):
        assert hnf[r][col] > 0
        assert all(0 <= hnf[above][col] < hnf[r][col] for above in range(r))


# ---------------------------------------------------------------------------
# factorization over Q


def test_factor_difference_of_squares():
    content, factors = exact.factor_poly_q((-1, 0, 1))
    assert content == 1
    assert factors == [(-1, 1), (1, 1)]


def test_factor_irreducible_quartic():
    content, factors = exact.factor_poly_q((9, 0, -2, 0, 1))
    assert content == 1
    assert factors == [(9, 0, -2, 0, 1)]


def test_factor_sophie_germain_with_multiplicity():
    # x^6 + 4x^2 = x * x * (x^2 - 2x + 2) * (x^2 + 2x + 2)
    content, factors = exact.factor_poly_q((0, 0, 4, 0, 0, 0, 1))
    assert content == 1
    assert factors == [(0, 1), (0, 1), (2, -2, 1), (2, 2, 1)]


def test_factor_pulls_out_rational_content():
    content, factors = exact.factor_poly_q((-12, 0, 12))
    assert content == 12
    assert factors == [(-1, 1), (1, 1)]


def test_factor_degree_cap():
    with pytest.raises(ValueError):
        exact.factor_poly_q((1,) + (0,) * 8 + (1,))  # degree 9


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        exact.factor_poly_q(())


def test_factor_checks_the_product(monkeypatch):
    # a recombination that returns a wrong factor raises, also under -O
    monkeypatch.setattr(exact, "_recombine", lambda h, lifted, modulus: [(-1, 1), (-2, 1)])
    with pytest.raises(ArithmeticError, match="multiply back"):
        exact.factor_poly_q((-1, 0, 1))


def test_unit_residue_rejects_non_units():
    assert exact._unit_residue(Fraction(3, 5), 8) == 3 * 5 % 8
    with pytest.raises(ValueError, match="not a unit"):
        exact._unit_residue(Fraction(1, 6), 8)


def _divides(h, g) -> bool:
    """Exact polynomial division test over Q."""
    h = [Fraction(c) for c in exact.poly_trim(h)]
    rem = [Fraction(c) for c in exact.poly_trim(g)]
    if len(h) < 2:
        return True
    while len(rem) >= len(h):
        q = rem[-1] / h[-1]
        shift = len(rem) - len(h)
        for i, c in enumerate(h):
            rem[shift + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return True
    return not rem


def _rational_roots_exist(g) -> bool:
    """Oracle: rational root theorem, exhaustive over divisor pairs."""
    g = exact.poly_trim(g)
    if g[0] == 0:
        return True
    lead, const = abs(g[-1]), abs(g[0])
    num_divs = [d for d in range(1, const + 1) if const % d == 0]
    den_divs = [d for d in range(1, lead + 1) if lead % d == 0]
    for num in num_divs:
        for den in den_divs:
            for sign in (1, -1):
                if exact.poly_eval(g, Fraction(sign * num, den)) == 0:
                    return True
    return False


def _mod_p_rules_out_quadratic(g) -> bool:
    """Cheap certificate that g has no quadratic factor over Q.

    If g stays squarefree mod a prime p not dividing its leading
    coefficient, the degree multiset of any Q-factorization refines the
    mod-p factor degrees; if no sub-multiset sums to 2 the quadratic is
    impossible.
    """
    g = exact.poly_trim(g)
    for p in primerange(3, 60):
        if g[-1] % p == 0:
            continue
        gp = Poly(list(reversed(g)), _x, domain=GF(p))
        if gp.degree() != len(g) - 1 or gp.gcd(gp.diff()).degree() > 0:
            continue
        degrees = [int(h.degree()) for h, mult in gp.factor_list()[1] for _ in range(mult)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        if 2 not in sums:
            return True
    return False


def _quadratic_factor_exists(g) -> bool:
    """Oracle: exhaustive search for an integer quadratic factor.

    Complete for primitive g with g(0) != 0: any quadratic factor can be
    taken integral and primitive (Gauss), with leading coefficient dividing
    lead(g), constant dividing g(0), and middle coefficient within the
    Landau-Mignotte bound 4*||g||_2.  A mod-p degree-pattern certificate
    short-circuits the search when it already excludes quadratics.
    """
    g = exact.poly_trim(g)
    assert g[0] != 0
    if _mod_p_rules_out_quadratic(g):
        return False
    bound = 4 * (math.isqrt(sum(c * c for c in g)) + 1)
    lead, const = abs(g[-1]), abs(g[0])
    lead_divs = [d for d in range(1, lead + 1) if lead % d == 0]
    const_divs = [d for d in range(1, const + 1) if const % d == 0]
    for c2 in lead_divs:
        for c0 in const_divs:
            for s in (1, -1):
                for c1 in range(-bound, bound + 1):
                    if _divides((s * c0, c1, c2), g):
                        return True
    return False


int_polys = st.lists(st.integers(-40, 40), min_size=2, max_size=6).filter(
    lambda c: any(x != 0 for x in c)
)


@settings(max_examples=150, deadline=None)
@given(int_polys)
def test_factor_reconstructs_and_factors_are_irreducible(coeffs):
    f = exact.poly_trim(coeffs)
    content, factors = exact.factor_poly_q(f)
    prod = (1,)
    for g in factors:
        prod = exact.poly_mul(prod, g)
    assert exact.poly_trim([content * c for c in prod]) == tuple(
        Fraction(c) for c in f
    )
    # irreducibility: any reducible polynomial of degree <= 5 has a factor
    # of degree 1 or 2, both of which the oracles find exhaustively
    for g in factors:
        deg = exact.poly_degree(g)
        if deg >= 2:
            assert not _rational_roots_exist(g), g
        if deg >= 4:
            assert not _quadratic_factor_exists(g), g


def _sympy_factor_poly_q(f):
    """Oracle: sympy's factor_list in factor_poly_q's convention."""
    content_sym, factors_sym = sympy.factor_list(sum(int(c) * _x**i for i, c in enumerate(f)))
    content = Fraction(int(content_sym.p), int(content_sym.q))
    factors = []
    for g_expr, mult in factors_sym:
        coeffs = [int(c) for c in reversed(Poly(g_expr, _x).all_coeffs())]
        g = exact.poly_primitive(coeffs)
        content *= Fraction(coeffs[-1], g[-1]) ** mult
        factors += [g] * mult
    return content, sorted(factors, key=lambda g: (len(g), g))


@st.composite
def factor_products(draw):
    """Products of factors of degree <= 4, some repeated, of degree <= 8,
    times a rational content."""
    f = (draw(st.integers(-30, 30).filter(bool)),)
    while True:
        g = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=4))
        g = tuple(g) + (draw(st.sampled_from([1, 1, 2, 3, -1, 6])),)
        mult = draw(st.sampled_from([1, 1, 1, 2, 3]))
        if exact.poly_degree(f) + mult * (len(g) - 1) > 8:
            return f
        for _ in range(mult):
            f = exact.poly_mul(f, g)


@settings(max_examples=150, deadline=None)
@given(factor_products())
def test_factor_poly_q_matches_sympy(f):
    assert exact.factor_poly_q(f) == _sympy_factor_poly_q(f)


SWINNERTON_DYER = (1, 0, -10, 0, 1)  # irreducible over Q, splits mod every prime


@pytest.mark.parametrize(
    "f",
    [
        SWINNERTON_DYER,
        exact.poly_mul(SWINNERTON_DYER, (1, 0, 0, 0, 1)),  # degree 8, the cap
        exact.poly_mul(SWINNERTON_DYER, SWINNERTON_DYER),
        (576, 0, -960, 0, 352, 0, -40, 0, 1),  # sqrt 2 + sqrt 3 + sqrt 5: degree 8
        exact.poly_mul((2, 0, -1), (-3, 0, 1)),
        (-1,) + (0,) * 7 + (1,),
        (0, 0, 0, 6),
        (7,),
    ],
)
def test_factor_poly_q_hard_cases(f):
    assert exact.factor_poly_q(f) == _sympy_factor_poly_q(f)


def _sympy_fp_factor(f, p):
    """Oracle: sympy's factor list over F_p, as sorted (monic factor, e)."""
    _, factors = Poly(list(reversed(f)), _x, modulus=p).factor_list()
    return sorted(
        (tuple(int(c) % p for c in reversed(g.all_coeffs())), e) for g, e in factors
    )


@st.composite
def fp_products(draw):
    """(f, p): a product over F_p of monic factors of degree <= 4, some
    repeated up to 7 times, times a unit.  p runs over the odd primes
    below 2^16 and the largest prime below 2^26; p = 3, 5, 7 are drawn
    often, so that multiplicities divisible by p take the p-th root step."""
    p = draw(st.one_of(st.sampled_from([3, 5, 7, 67108859]),
                       st.sampled_from(exact.primerange(11, 2**16))))
    f = (draw(st.integers(1, p - 1)),)
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4)) + [1]
        for _ in range(draw(st.sampled_from([1, 1, 2, 3, 5, 6, 7]))):
            f = exact.fp_mul(f, g, p)
    return f, p


@settings(max_examples=200, deadline=None)
@given(fp_products(), st.integers(0, 2**32))
def test_fp_factor_matches_sympy(fp, seed):
    f, p = fp
    factors = exact.fp_factor(f, p, random.Random(seed))
    assert sorted(factors) == _sympy_fp_factor(f, p)


def test_fp_factor_edge_cases():
    assert exact.fp_factor((5,), 7, random.Random(0)) == []
    # x^9 + 2 = (x + 2)^9 over F_3: only the p-th root step sees it
    assert exact.fp_factor((2,) + (0,) * 8 + (1,), 3, random.Random(0)) == [((2, 1), 9)]
    with pytest.raises(ValueError, match="odd prime"):
        exact.fp_factor((1, 1), 2, random.Random(0))


_FP_POLY = st.lists(st.integers(0, 10**6), max_size=7)


@settings(max_examples=200, deadline=None)
@given(_FP_POLY, _FP_POLY, _FP_POLY, st.sampled_from([3, 5, 7, 101, 65521]))
def test_fp_gcd_matches_gcdext(a, b, common, p):
    # a common factor makes the gcd nontrivial; empty lists give zero
    reduce = lambda h: exact.fp_trim([c % p for c in h])
    f = exact.fp_mul(reduce(a), reduce(common), p)
    g = exact.fp_mul(reduce(b), reduce(common), p)
    for u, v in ((f, g), (g, f), (f, ()), ((), g), ((), ())):
        assert exact.fp_gcd(u, v, p) == exact.fp_gcdext(u, v, p)[0]


def test_recombination_runs_on_swinnerton_dyer():
    # mod p the quartic has two or four factors; only their product lifts
    p, factors = exact._modular_factors(SWINNERTON_DYER)
    assert len(factors) >= 2
    assert exact.factor_poly_q(SWINNERTON_DYER)[1] == [SWINNERTON_DYER]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=5, max_size=6),
       st.integers(-50, 50).filter(bool))
def test_poly_discriminant_matches_sympy(low, lead):
    f = tuple(low) + (lead,)
    expected = sympy.discriminant(sum(c * _x**i for i, c in enumerate(f)), _x)
    assert exact.poly_discriminant(f) == int(expected)


def test_poly_discriminant_small_degrees():
    assert exact.poly_discriminant((5, 3)) == 1
    assert exact.poly_discriminant((1, 3, 2)) == 3 * 3 - 4 * 2
    assert exact.poly_discriminant((1, 0, 0, 1)) == -27
    assert exact.poly_discriminant((0, 0, 1)) == 0
    with pytest.raises(ValueError):
        exact.poly_discriminant((4,))


# ---------------------------------------------------------------------------
# fundamental discriminants


@pytest.mark.parametrize(
    "x, expected",
    [
        (5, 5),
        (-1, -4),
        (-3, -3),
        (2, 8),
        (3, 12),
        (12, 12),
        (18, 8),
        (-6, -24),
        (45, 5),
        (Fraction(1, 2), 8),
        (-2, -8),
    ],
)
def test_fundamental_discriminant(x, expected):
    assert exact.fundamental_discriminant(x) == expected


def test_fundamental_discriminant_rejects_squares():
    for x in (1, 4, Fraction(9, 4)):
        with pytest.raises(ValueError):
            exact.fundamental_discriminant(x)


@given(st.integers(-400, 400).filter(lambda n: n != 0))
def test_fundamental_discriminant_is_zero_or_one_mod_four(n):
    d, is_square = exact.rational_square_class(n)
    if is_square:
        return
    fund = exact.fundamental_discriminant(n)
    assert fund % 4 in (0, 1)
    assert exact.rational_square_class(fund)[0] == d
