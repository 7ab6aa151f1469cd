"""Exact arithmetic substrate: symbols, square classes, linear algebra, factoring.

Conventions
-----------
* Rational numbers are :class:`fractions.Fraction`; integers are plain
  Python ints.  Nothing in this module touches floating point.
* An integer polynomial is a tuple of coefficients indexed by degree,
  ``(c0, c1, ..., cd)`` with ``cd != 0``; the zero polynomial is the
  empty tuple.
* A finite abelian group is reported by its invariant factors
  ``(d1, d2, ..., dk)`` with ``2 <= d1 | d2 | ... | dk``; the trivial
  group is the empty tuple.
* ``hilbert_symbol(a, b, v)`` is the symbol of the quaternion algebra
  ``(a, b)`` at the place ``v``: ``+1`` when the algebra splits locally,
  ``-1`` when it ramifies.  The real place is ``math.inf``.
* The linear-algebra section holds the exact matrix routines of the
  package, all on row vectors: the row-style Hermite normal form of an
  integer matrix (:func:`hnf_rows`), the inverse of a rational matrix
  (:func:`mat_inverse`), Smith forms over Z (:func:`smith_diagonal`,
  :func:`smith_invariants`) and the reduced row echelon form over F_p
  (:func:`rref_mod`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from sympy import Poly, factor_list, symbols
from sympy import kronecker_symbol as _kronecker
from sympy.ntheory import factorint, isprime, multiplicity

__all__ = [
    "kronecker_symbol",
    "hilbert_symbol",
    "rational_square_class",
    "padic_valuation",
    "hnf_rows",
    "mat_inverse",
    "rref_mod",
    "smith_diagonal",
    "smith_invariants",
    "validate_invariants",
    "factor_poly_q",
    "poly_trim",
    "poly_degree",
    "poly_add",
    "poly_neg",
    "poly_mul",
    "poly_scale",
    "poly_eval",
    "poly_content",
    "poly_primitive",
]

_X = symbols("x")

Rat = Fraction
IntPoly = "tuple[int, ...]"


# ---------------------------------------------------------------------------
# symbols


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of the Jacobi symbol.

    Multiplicative in both arguments; (a|2) is 0 for even a and
    (-1)^((a^2-1)/8) for odd a; (a|-1) is the sign of a; (a|0) is 1
    exactly for a = +-1.
    """
    return int(_kronecker(int(a), int(n)))


def _as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _unit_residue(u: Fraction, modulus: int) -> int:
    """Residue of a rational with unit denominator modulo ``modulus``."""
    num, den = u.numerator, u.denominator
    if math.gcd(den, modulus) != 1:
        raise ValueError(f"{u} is not a unit modulo {modulus}")
    return num * pow(den, -1, modulus) % modulus


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: int | float) -> int:
    """Hilbert symbol (a, b)_v over Q; v a prime or ``math.inf``.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at v, i.e. iff the quaternion algebra (a, b) splits there.

    At the real place the symbol is -1 exactly when a < 0 and b < 0.  At a
    finite prime the classical valuation/unit-part formulas are used: for
    odd p, writing a = p^alpha * u and b = p^beta * v with u, v units,

        (a, b)_p = (-1)^(alpha*beta*eps(p)) * (u|p)^beta * (v|p)^alpha,

    and at p = 2, with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2,

        (a, b)_2 = (-1)^(eps(u)eps(v) + alpha*omega(v) + beta*omega(u)).
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol requires nonzero arguments")
    if place == math.inf:
        return -1 if (a < 0 and b < 0) else 1
    try:
        p = operator.index(place)
    except TypeError:
        raise ValueError(f"place must be a prime or math.inf, got {place!r}") from None
    if not isprime(p):
        raise ValueError(f"place must be a prime or math.inf, got {place!r}")
    alpha = padic_valuation(a, p)
    beta = padic_valuation(b, p)
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    if p != 2:
        sign = 0
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = 1
        s = (-1) ** sign
        s *= kronecker_symbol(_unit_residue(u, p), p) ** (beta % 2)
        s *= kronecker_symbol(_unit_residue(v, p), p) ** (alpha % 2)
        return s
    u8 = _unit_residue(u, 8)
    v8 = _unit_residue(v, 8)
    eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
    omega_u, omega_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
    expo = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return (-1) ** (expo % 2)


def rational_square_class(x: int | Fraction) -> tuple[int, bool]:
    """Squarefree integer representing x modulo nonzero rational squares.

    Returns ``(squarefree, is_square)``; ``is_square`` iff the class is 1.
    """
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("rational_square_class requires a nonzero argument")
    # x and num*den differ by the square den^2.
    n = x.numerator * x.denominator
    squarefree = 1
    for prime, exp in factorint(n).items():
        if prime == -1:
            squarefree = -squarefree
        elif exp % 2:
            squarefree *= int(prime)
    return squarefree, squarefree == 1


def fundamental_discriminant(x: int | Fraction) -> int:
    """Discriminant of the quadratic field Q(sqrt x).

    Reduces x to its square class d and returns d if d = 1 mod 4 and 4d
    otherwise.  Raises for square x, where Q(sqrt x) = Q.
    """
    d, is_square = rational_square_class(x)
    if is_square:
        raise ValueError("Q(sqrt x) is not a quadratic field for square x")
    return d if d % 4 == 1 else 4 * d


def padic_valuation(x: int | Fraction, p: int) -> int:
    """Exponent of the prime p in the nonzero rational x."""
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("padic_valuation requires a nonzero argument")
    if not isprime(p):
        raise ValueError(f"padic_valuation requires a prime, got {p}")
    return int(multiplicity(p, x.numerator)) - int(multiplicity(p, x.denominator))


# ---------------------------------------------------------------------------
# linear algebra: Hermite form, rational inverse, Smith forms, F_p echelon


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows: upper echelon, positive pivots, entries above
    each pivot reduced to [0, pivot).
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivot_row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        # euclidean elimination below pivot_row in this column
        while True:
            nonzero = [r for r in range(pivot_row, nrows) if m[r][col] != 0]
            if not nonzero:
                break
            r_min = min(nonzero, key=lambda r: abs(m[r][col]))
            m[pivot_row], m[r_min] = m[r_min], m[pivot_row]
            if len(nonzero) == 1:
                break
            p = m[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if m[r][col]:
                    q = m[r][col] // p
                    m[r] = [x - q * y for x, y in zip(m[r], m[pivot_row])]
        if pivot_row < nrows and m[pivot_row][col] != 0:
            if m[pivot_row][col] < 0:
                m[pivot_row] = [-x for x in m[pivot_row]]
            pivots.append((pivot_row, col))
            pivot_row += 1
            if pivot_row == nrows:
                break
    # reduce entries above the pivots
    for r, col in reversed(pivots):
        p = m[r][col]
        for r2 in range(r):
            q = m[r2][col] // p
            if q:
                m[r2] = [x - q * y for x, y in zip(m[r2], m[r])]
    return [row for row in m if any(row)]


def mat_inverse(rows: Sequence[Sequence[int | Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [
        [_as_fraction(c) for c in row] + [Fraction(1) if i == r else Fraction(0) for i in range(n)]
        for r, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [c / aug[col][col] for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [c - factor * d for c, d in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rref_mod(rows: Iterable[Sequence[int]], p: int) -> list[tuple[int, ...]]:
    """Reduced row echelon basis of the span of rows over F_p."""
    basis: list[list[int]] = []
    for row in rows:
        row = [v % p for v in row]
        for b in basis:
            pivot = next(c for c in range(len(b)) if b[c])
            if row[pivot]:
                factor = row[pivot]
                row = [(v - factor * w) % p for v, w in zip(row, b)]
        if any(row):
            lead = next(c for c in range(len(row)) if row[c])
            inv = pow(row[lead], -1, p)
            row = [v * inv % p for v in row]
            basis.append(row)
    basis.sort(key=lambda b: next(c for c in range(len(b)) if b[c]))
    # clear entries above each pivot for a canonical form
    for idx, b in enumerate(basis):
        pivot = next(c for c in range(len(b)) if b[c])
        for other in basis[:idx]:
            if other[pivot]:
                factor = other[pivot]
                other[:] = [(v - factor * w) % p for v, w in zip(other, b)]
    return [tuple(b) for b in basis]


def _smith_nonzero(rows: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero Smith entries d1 | d2 | ... | d_rank of an integer matrix.

    Integer elimination: move an entry of least absolute value to the
    pivot, reduce its row and column by it, and repeat until both are
    clear; then drop them.  The diagonal so found becomes a divisor chain
    by replacing pairs (a, b) with (gcd, lcm), which keeps the class of
    diag(a, b).
    """
    m = [[int(c) for c in row] for row in rows]
    diag: list[int] = []
    while m := [row for row in m if any(row)]:
        r0, c0 = min(
            ((r, c) for r, row in enumerate(m) for c, x in enumerate(row) if x),
            key=lambda rc: abs(m[rc[0]][rc[1]]),
        )
        pivot_row = m[r0]
        p = pivot_row[c0]
        clear = True
        for r, row in enumerate(m):
            if r != r0 and row[c0]:
                f = row[c0] // p
                m[r] = [x - f * y for x, y in zip(row, pivot_row)]
                clear = clear and not m[r][c0]
        for c, x in enumerate(pivot_row):
            if c != c0 and x:
                f = x // p
                for row in m:
                    row[c] -= f * row[c0]
                clear = clear and not pivot_row[c]
        if clear:
            diag.append(abs(p))
            del m[r0]
            for row in m:
                del row[c0]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def smith_diagonal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, padded with zeros to ncols.

    The entries ``d1 | d2 | ... | dn`` (zeros last) describe the image
    lattice of the matrix viewed as a map ``Z^ncols -> Z^nrows`` acting on
    column vectors; trailing zeros record rank deficiency in the columns.
    """
    diag = _smith_nonzero(rows)
    ncols = len(rows[0]) if rows else 0
    return tuple(diag + [0] * (ncols - len(diag)))


def smith_invariants(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of the cokernel of an integer matrix, 1's dropped.

    The matrix is a map ``Z^ncols -> Z^nrows``; the cokernel must be finite
    (full row rank), otherwise the free part cannot be reported as
    invariant factors and a ValueError is raised.
    """
    diag = _smith_nonzero(rows)
    if len(diag) < len(rows):
        raise ValueError("cokernel has positive free rank; not a finite group")
    invariants = tuple(d for d in diag if d > 1)
    validate_invariants(invariants)
    return invariants


def validate_invariants(divisors: Iterable[int]) -> tuple[int, ...]:
    """Check d1 | d2 | ... | dk with every di >= 2; return as a tuple."""
    divs = tuple(int(d) for d in divisors)
    for d in divs:
        if d < 2:
            raise ValueError(f"invariant factors must be >= 2, got {divs}")
    for d, e in zip(divs, divs[1:]):
        if e % d:
            raise ValueError(f"invariant factors must be a divisor chain, got {divs}")
    return divs


# ---------------------------------------------------------------------------
# integer polynomials (coefficients indexed by degree)


def poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros; the zero polynomial is the empty tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(f: Sequence[int]) -> int:
    """Degree, with deg 0 = -1 by convention."""
    f = poly_trim(f)
    return len(f) - 1


def poly_add(f: Sequence[int], g: Sequence[int]):
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_neg(f: Sequence[int]):
    return tuple(-c for c in f)


def poly_mul(f: Sequence[int], g: Sequence[int]):
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        if ci:
            for j, cj in enumerate(g):
                out[i + j] += ci * cj
    return tuple(out)


def poly_scale(f: Sequence[int], c):
    return poly_trim([c * ci for ci in f])


def poly_eval(f: Sequence[int], x):
    acc = 0
    for c in reversed(poly_trim(f)):
        acc = acc * x + c
    return acc


def poly_content(f: Sequence[int]) -> int:
    """Gcd of the coefficients, with the sign of the leading coefficient."""
    f = poly_trim(f)
    if not f:
        return 0
    g = 0
    for c in f:
        g = math.gcd(g, c)
    return g if f[-1] > 0 else -g


def poly_primitive(f: Sequence[int]) -> tuple[int, ...]:
    """Primitive part: content divided out, positive leading coefficient."""
    f = poly_trim(f)
    c = poly_content(f)
    if c == 0:
        return ()
    return tuple(ci // c for ci in f)


def factor_poly_q(f: Sequence[int]) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Irreducible factorization over Q of an integer polynomial.

    Returns ``(content, factors)`` where each factor is a primitive integer
    polynomial with positive leading coefficient, irreducible over Q, listed
    with multiplicity and sorted by (degree, coefficients); the product of
    the factors times the rational content equals the input exactly.

    Degree is capped at 8; larger inputs raise ValueError (unsupported).
    """
    f = poly_trim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if poly_degree(f) > 8:
        raise ValueError(f"degree {poly_degree(f)} unsupported (cap is 8)")
    expr = sum(int(c) * _X**i for i, c in enumerate(f))
    content_sym, factors_sym = factor_list(expr)
    content = Fraction(int(content_sym.p), int(content_sym.q))
    factors: list[tuple[int, ...]] = []
    for g_expr, mult in factors_sym:
        coeffs = [int(c) for c in reversed(Poly(g_expr, _X).all_coeffs())]
        g_prim = poly_primitive(coeffs)
        # fold any residual content of a factor into the rational content
        content *= Fraction(coeffs[-1], g_prim[-1]) ** int(mult)
        factors.extend([g_prim] * int(mult))
    factors.sort(key=lambda g: (len(g), g))
    prod: tuple[int, ...] = (1,)
    for g in factors:
        prod = poly_mul(prod, g)
    recon = [content * c for c in prod]
    if len(recon) != len(f) or any(r != c for r, c in zip(recon, f)):
        raise ArithmeticError("factorization does not multiply back to the input")
    return content, factors
