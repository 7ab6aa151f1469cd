"""Exact arithmetic substrate: integers, symbols, linear algebra, polynomials.

Conventions
-----------
* Rational numbers are :class:`fractions.Fraction`; integers are plain
  Python ints.  Nothing in this module touches floating point.
* An integer polynomial is a tuple of coefficients indexed by degree,
  ``(c0, c1, ..., cd)`` with ``cd != 0``; the zero polynomial is the
  empty tuple.  Polynomials over Z/m (the ``fp_`` functions) use the
  same layout with coefficients in [0, m); m is a prime except in
  Hensel lifting, where only monic divisors occur.
* A finite abelian group is reported by its invariant factors
  ``(d1, d2, ..., dk)`` with ``2 <= d1 | d2 | ... | dk``; the trivial
  group is the empty tuple.
* ``hilbert_symbol(a, b, v)`` is the symbol of the quaternion algebra
  ``(a, b)`` at the place ``v``: ``+1`` when the algebra splits locally,
  ``-1`` when it ramifies.  The real place is ``math.inf``.

Sections
--------
* Integers: :func:`isprime` (trial division by the primes below 42,
  then Miller-Rabin to those 13 bases; a proof below ``ISPRIME_BOUND``
  = 3317044064679887385961981, about 3.3e24; above it a failed test
  proves compositeness, and a pass goes to Pocklington's test, which
  raises ValueError when n - 1 does not factor far enough),
  :func:`factorint` (trial division to 1000, then perfect powers and
  Pollard-Brent rho; every cofactor goes through :func:`isprime`),
  :func:`primefactors`, :func:`multiplicity`, :func:`primerange` (a
  sieve of Eratosthenes) and :func:`nextprime`.
* Symbols and square classes: :func:`kronecker_symbol` (binary Jacobi
  algorithm), :func:`sqrt_mod` (odd prime moduli; Tonelli-Shanks),
  :func:`hilbert_symbol`, :func:`rational_square_class`,
  :func:`fundamental_discriminant` and :func:`padic_valuation`.
* Linear algebra, on row vectors: the row-style Hermite normal form of an
  integer matrix (:func:`hnf_rows`), the fraction-free determinant of a
  square integer matrix (:func:`det_bareiss`), the inverse of a rational matrix
  (:func:`mat_inverse`), Smith forms over Z (:func:`smith_diagonal`,
  :func:`smith_invariants`) and the reduced row echelon form over F_p
  (:func:`rref_mod`).
* Integer polynomials: ring operations, content, and the discriminant
  as a Sylvester resultant (:func:`poly_discriminant`).
* Polynomials over F_p: ring operations, division, extended gcd, powers
  modulo a monic polynomial, the distinct-degree split and factoring
  (:func:`fp_factor`).
* Factoring over Q (:func:`factor_poly_q`, degree <= 8): square-free
  decomposition, factoring modulo a small prime (Cantor-Zassenhaus),
  Hensel lifting and recombination of the lifted factors (Zassenhaus;
  Cohen, GTM 138, section 3.5).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "ISPRIME_BOUND",
    "isprime",
    "factorint",
    "primefactors",
    "multiplicity",
    "primerange",
    "nextprime",
    "kronecker_symbol",
    "sqrt_mod",
    "hilbert_symbol",
    "rational_square_class",
    "fundamental_discriminant",
    "padic_valuation",
    "hnf_rows",
    "det_bareiss",
    "mat_inverse",
    "rref_mod",
    "smith_diagonal",
    "smith_invariants",
    "validate_invariants",
    "poly_trim",
    "poly_degree",
    "poly_add",
    "poly_neg",
    "poly_mul",
    "poly_eval",
    "poly_content",
    "poly_primitive",
    "poly_derivative",
    "poly_discriminant",
    "fp_trim",
    "fp_add",
    "fp_neg",
    "fp_sub",
    "fp_mul",
    "fp_divmod",
    "fp_exact_div",
    "fp_mod",
    "fp_monic",
    "fp_gcd",
    "fp_gcdext",
    "fp_mulmod",
    "fp_powmod",
    "fp_distinct_degree",
    "fp_factor",
    "factor_poly_q",
]

Rat = Fraction
IntPoly = "tuple[int, ...]"


# ---------------------------------------------------------------------------
# integers: primality, factoring, primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all of _MR_BASES (Sorenson-Webster 2017).
ISPRIME_BOUND = 3317044064679887385961981


def isprime(n: int) -> bool:
    """Whether the integer n is prime.

    Trial division by the 13 primes below 42, then the strong
    (Miller-Rabin) test to those bases, which no composite below
    ISPRIME_BOUND passes.  A failed test proves n composite at any size;
    an n of ISPRIME_BOUND or more that passes goes to Pocklington's test
    (:func:`_pocklington`), which proves it prime or composite, or raises
    ValueError when n - 1 does not factor far enough within its budget.
    """
    n = operator.index(n)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= ISPRIME_BOUND:
        return _pocklington(n)
    return True


# Pollard rho steps spent on each composite cofactor of n - 1 in _pocklington
_POCKLINGTON_RHO_STEPS = 1 << 16


def _pocklington(n: int) -> bool:
    """Whether n, odd and free of primes below 42, is prime, by Pocklington's theorem.

    If F divides n - 1, F > sqrt(n), and for every prime q | F some a has
    a^(n-1) = 1 mod n and gcd(a^((n-1)/q) - 1, n) = 1, then n is prime
    (Crandall-Pomerance, Prime Numbers, Theorem 4.1.3).  F collects the
    prime factors of n - 1 found by trial division to 1000, then by
    Pollard rho on each composite cofactor, at most _POCKLINGTON_RHO_STEPS
    steps each; a cofactor of ISPRIME_BOUND or more is proved prime the
    same way.  The witnesses a are the primes below 1000.  A failed Fermat
    test or a proper gcd proves n composite.  ValueError when F stays at
    most sqrt(n) or no witness turns up.
    """
    m = n - 1
    primes = set()
    for q in _TRIAL_PRIMES:
        if m % q == 0:
            primes.add(q)
            while m % q == 0:
                m //= q
    factored = (n - 1) // m
    pending = [m] if m > 1 else []
    while pending and factored * factored <= n:
        c = pending.pop()
        try:
            prime = isprime(c)
        except ValueError:  # an unproved cofactor stays out of F
            continue
        if prime:
            primes.add(c)
            factored *= c
        elif power := _perfect_power(c):
            pending += [power[0]] * power[1]
        elif d := _rho_divisor(c, _POCKLINGTON_RHO_STEPS):
            pending += [d, c // d]
    if factored * factored <= n:
        raise ValueError(
            f"{n} passes the strong test, but n - 1 did not factor past sqrt(n) "
            f"within {_POCKLINGTON_RHO_STEPS} rho steps per cofactor"
        )
    for q in sorted(primes):
        for a in _TRIAL_PRIMES:
            if pow(a, n - 1, n) != 1:
                return False
            g = math.gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
        else:
            raise ValueError(f"no Pocklington witness below 1000 for {n} and q = {q}")
    return True


def _rho_divisor(n: int, budget: int | None = None) -> int | None:
    """A proper divisor of the odd composite n: Pollard rho, Brent's cycle
    search, gcds batched over 128 steps.  The polynomials x^2 + c are
    tried for c = 1, 2, ... from x = 2, so the divisor found depends on n
    alone.  With a budget, None once about that many steps x -> x^2 + c
    have found nothing."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget is not None and steps >= budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _integer_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r^k for a prime k, or None."""
    for k in _TRIAL_PRIMES:
        if k >= m.bit_length():
            return None
        r = _integer_root(m, k)
        if r**k == m:
            return r, k
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a nonzero integer, sorted by key.

    A negative n carries the entry {-1: 1}; n = 1 gives {}.  Trial
    division by the primes below 1000; what is left is split as a
    perfect power or by Pollard-Brent rho.  Cofactors go through
    :func:`isprime`, so one of ISPRIME_BOUND or more raises ValueError
    when Pocklington's test cannot settle it.
    """
    n = operator.index(n)
    if n == 0:
        raise ValueError("factorint requires a nonzero argument")
    out: dict[int, int] = {}
    if n < 0:
        out[-1] = 1
        n = -n
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out[q] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        elif power := _perfect_power(m):
            pending += [power[0]] * power[1]
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def primefactors(n: int) -> list[int]:
    """The positive primes dividing the nonzero integer n, ascending."""
    return [p for p in factorint(n) if p > 0]


def multiplicity(p: int, n: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0 or p < 2:
        raise ValueError("multiplicity requires n != 0 and p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending: a sieve of Eratosthenes."""
    if b <= 2:
        return []
    sieve = bytearray([1]) * b
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(b - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, b, i)))
    return list(itertools.compress(range(max(a, 0), b), sieve[max(a, 0) :]))


def nextprime(n: int) -> int:
    """The least prime greater than n."""
    m = max(operator.index(n) + 1, 2)
    while not isprime(m):
        m += 1
    return m


_TRIAL_PRIMES = tuple(primerange(2, 1000))


# ---------------------------------------------------------------------------
# symbols, square roots mod p, square classes


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of the Jacobi symbol.

    Multiplicative in both arguments; (a|2) is 0 for even a and
    (-1)^((a^2-1)/8) for odd a; (a|-1) is -1 for a < 0 and 1 otherwise;
    (a|0) is 1 exactly for a = +-1.  The odd part of n goes through the
    binary Jacobi algorithm: strip twos from a, flip by (2|n), swap by
    quadratic reciprocity, reduce.
    """
    a, n = operator.index(a), operator.index(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        v = (n & -n).bit_length() - 1
        n >>= v
        if v % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


@lru_cache(maxsize=256)
def _tonelli_setup(p: int) -> tuple[int, int, int]:
    """(s, q, c) with p - 1 = 2^s q, q odd, and c = z^q for the least
    non-residue z."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return s, q, pow(z, q, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """The least r in [0, p) with r^2 = a mod the odd prime p, or None.

    p = 3 mod 4 takes r = a^((p+1)/4); other p take Tonelli-Shanks.  Of
    the two roots r and p - r the smaller is returned.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        m, q, c = _tonelli_setup(p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


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
            squarefree *= prime
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
    return multiplicity(p, x.numerator) - multiplicity(p, x.denominator)


# ---------------------------------------------------------------------------
# linear algebra: Hermite form, rational inverse, Smith forms, F_p echelon


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows: upper echelon, positive pivots, entries above
    each pivot reduced to [0, pivot).  This is the unique Hermite basis of
    the row lattice, so two generating sets of one lattice give the same
    rows.  The entries above the pivots are reduced in pivot order, top to
    bottom (Cohen, "A Course in Computational Algebraic Number Theory",
    Alg. 2.4.5): subtracting pivot row r changes only the columns from
    its pivot on, so it never undoes a reduction at an earlier pivot.
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
    for r, col in pivots:
        p = m[r][col]
        for r2 in range(r):
            q = m[r2][col] // p
            if q:
                m[r2] = [x - q * y for x, y in zip(m[r2], m[r])]
    return [row for row in m if any(row)]


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss):
    every division is exact.  The empty matrix has determinant 1."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


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


def poly_derivative(f: Sequence[int]) -> tuple[int, ...]:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_discriminant(f: Sequence[int]) -> int:
    """Discriminant of an integer polynomial of degree n >= 1:
    (-1)^(n(n-1)/2) Res(f, f') / lead(f), the resultant being the
    determinant of the Sylvester matrix."""
    f = poly_trim(f)
    n = len(f) - 1
    if n < 1:
        raise ValueError("the discriminant needs degree at least 1")
    if n == 1:
        return 1
    df = poly_derivative(f)
    size = 2 * n - 1
    rows = [[0] * i + list(f[::-1]) + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + list(df[::-1]) + [0] * (size - n - i) for i in range(n)]
    res = det_bareiss(rows)
    return (-1) ** (n * (n - 1) // 2) * res // f[-1]


# ---------------------------------------------------------------------------
# polynomials over Z/m (ascending coefficient tuples, trimmed)


def fp_trim(f: list[int]) -> tuple[int, ...]:
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def fp_add(f, g, p: int) -> tuple[int, ...]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return fp_trim(out)


def fp_neg(f, p: int) -> tuple[int, ...]:
    return tuple((p - c) % p for c in f)


def fp_sub(f, g, p: int) -> tuple[int, ...]:
    return fp_add(f, fp_neg(g, p), p)


def fp_mul(f, g, p: int) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return fp_trim(out)


def fp_divmod(f, g, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], -1, p)
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] * inv % p
        if c:
            q[i] = c
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % p
    return fp_trim(q), fp_trim(rem)


def fp_exact_div(f, g, p: int) -> tuple[int, ...]:
    q, r = fp_divmod(f, g, p)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def fp_mod(f, g, p: int) -> tuple[int, ...]:
    return fp_divmod(f, g, p)[1]


def fp_monic(f, p: int) -> tuple[int, ...]:
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def fp_gcd(f, g, p: int) -> tuple[int, ...]:
    """Monic gcd of f and g (zero when both are): ``fp_gcdext`` without
    the Bezout cofactors."""
    r0, r1 = tuple(f), tuple(g)
    while r1:
        r0, r1 = r1, fp_mod(r0, r1, p)
    return fp_monic(r0, p) if r0 else ()


def fp_gcdext(f, g, p: int):
    """(d, s, t) with s f + t g = d and d monic (or zero)."""
    r0, r1 = tuple(f), tuple(g)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    if not r0:
        return (), s0, t0
    inv = pow(r0[-1], -1, p)
    scale = (inv,)
    return fp_monic(r0, p), fp_mul(scale, s0, p), fp_mul(scale, t0, p)


def fp_mulmod(f, g, m, p: int) -> tuple[int, ...]:
    """f g mod m for a monic m, reducing mod p once per coefficient."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    d = len(m) - 1
    for i in range(len(out) - 1, d - 1, -1):
        q = out[i] % p
        if q:
            for j in range(d):
                out[i - d + j] -= q * m[j]
    return fp_trim([c % p for c in out[:d]])


def fp_powmod(f, n: int, m, p: int) -> tuple[int, ...]:
    """f^n mod a monic m, for f reduced mod m and n >= 1."""
    acc = f
    for bit in bin(n)[3:]:
        acc = fp_mulmod(acc, acc, m, p)
        if bit == "1":
            acc = fp_mulmod(acc, f, m, p)
    return acc


def fp_distinct_degree(f, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Distinct-degree split of a monic squarefree f over F_p: the pairs
    (k, g_k), ascending in k, with g_k the product of the degree-k
    irreducible factors of f; pairs with g_k = 1 are left out.

    The degree-k factors of what is left divide x^(p^k) - x.  A remainder
    with no factor of degree <= deg/2 is irreducible.  Only x^p takes a
    ladder: Frobenius fixes F_p, so x^(p^k) = h(x^p) mod f for
    h = x^(p^(k-1)).
    """
    x = (0, 1)
    out = []
    h = frob = x  # x^(p^k) and x^p mod f
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        if k == 1:
            h = frob = fp_powmod(x, p, f, p)
        else:
            acc = (h[-1],)
            for c in reversed(h[:-1]):
                acc = fp_add(fp_mulmod(acc, frob, f, p), (c,), p)
            h = acc
        g = fp_gcd(f, fp_sub(h, x, p), p)
        if len(g) > 1:
            out.append((k, g))
            f = fp_exact_div(f, g, p)
            h, frob = fp_mod(h, f, p), fp_mod(frob, f, p)
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _fp_equal_degree(g, k: int, p: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The monic irreducible factors of a monic g over F_p, p odd, all of
    degree k (Cantor-Zassenhaus): gcd(g, a^((p^k-1)/2) - 1) for random a
    splits g with probability about 1/2."""
    if len(g) - 1 == k:
        return [g]
    e = (p**k - 1) // 2
    while True:
        a = fp_trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        d = fp_gcd(g, fp_sub(fp_powmod(a, e, g, p), (1,), p), p)
        if 1 < len(d) < len(g):
            return _fp_equal_degree(d, k, p, rng) + _fp_equal_degree(
                fp_exact_div(g, d, p), k, p, rng
            )


def _fp_squarefree_parts(f, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Square-free split of a monic f of positive degree over F_p: pairs
    (a_i, i) with f = prod a_i^i, the a_i monic, square-free and pairwise
    coprime, a_i = 1 left out (Cohen, GTM 138, Algorithm 3.4.2).  The gcd
    chain from gcd(f, f') takes the multiplicities prime to p; what is
    left is a polynomial in x^p, the p-th power of the polynomial made of
    every p-th coefficient, since Frobenius fixes F_p."""
    out = []
    c = fp_gcd(f, fp_trim([i * a % p for i, a in enumerate(f)][1:]), p)
    w = fp_exact_div(f, c, p)
    i = 1
    while len(w) > 1:
        y = fp_gcd(w, c, p)
        if len(w) > len(y):
            out.append((fp_exact_div(w, y, p), i))
        w, c = y, fp_exact_div(c, y, p)
        i += 1
    if len(c) > 1:
        out += [(a, e * p) for a, e in _fp_squarefree_parts(c[::p], p)]
    return out


def fp_factor(f, p: int, rng: random.Random) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (monic irreducible factor, multiplicity) of a nonzero f
    over F_p, p odd: the square-free split, then distinct-degree and
    Cantor-Zassenhaus equal-degree splitting with random draws from
    ``rng``.  A constant f has no factors."""
    if p == 2:
        raise ValueError("fp_factor needs an odd prime")
    if len(f) < 2:
        return []
    return [
        (g, e)
        for a, e in _fp_squarefree_parts(fp_monic(f, p), p)
        for k, gk in fp_distinct_degree(a, p)
        for g in _fp_equal_degree(gk, k, p, rng)
    ]


# ---------------------------------------------------------------------------
# factoring over Q: square-free parts, factors mod p, Hensel lifting,
# recombination


def _divide_z(f, g) -> tuple[int, ...] | None:
    """f / g when g divides f in Z[x], otherwise None."""
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[i + len(g) - 1], g[-1])
        if r:
            return None
        q[i] = c
        for j, b in enumerate(g):
            rem[i + j] -= c * b
    return None if any(rem) else poly_trim(q)


def _gcd_z(f, g) -> tuple[int, ...]:
    """Primitive gcd in Z[x] with positive leading coefficient: Euclid
    over Q, then the primitive part."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while b:
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] -= c * bi
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    den = math.lcm(*(c.denominator for c in a))
    return poly_primitive([int(c * den) for c in a])


def _squarefree_parts(f) -> list[tuple[tuple[int, ...], int]]:
    """Yun's decomposition of a primitive f of positive degree: pairs
    (a_i, i) with f = prod a_i^i, the a_i primitive, square-free and
    pairwise coprime; a_i = 1 is left out.  Every quotient is exact in
    Z[x] by Gauss's lemma."""
    df = poly_derivative(f)
    a0 = _gcd_z(f, df)
    b = _divide_z(f, a0)
    d = poly_add(_divide_z(df, a0), poly_neg(poly_derivative(b)))
    out = []
    i = 1
    while len(b) > 1:
        a = _gcd_z(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _divide_z(b, a)
        d = poly_add(_divide_z(d, a), poly_neg(poly_derivative(b)))
        i += 1
    return out


def _modular_factors(h) -> tuple[int, list[tuple[int, ...]]]:
    """The least odd prime p not dividing lead(h) with h square-free mod
    p, and the monic irreducible factors of h mod p."""
    dh = poly_derivative(h)
    for p in _TRIAL_PRIMES[1:]:
        hp = fp_trim([c % p for c in h])
        if h[-1] % p == 0 or len(fp_gcd(hp, fp_trim([c % p for c in dh]), p)) != 1:
            continue
        return p, [g for g, _ in fp_factor(hp, p, random.Random(f"{p}/{h}"))]
    raise ArithmeticError(f"no prime below 1000 keeps {h} square-free")


def _hensel_pair(f, g, h, p: int, modulus: int):
    """Lift f = g h mod p, with g, h monic and coprime mod p and f monic
    modulo ``modulus`` = p^(2^j), to monic g*, h* with f = g* h* mod
    ``modulus`` (von zur Gathen-Gerhard, Algorithm 15.10, one quadratic
    step per j)."""
    _, s, t = fp_gcdext(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = fp_sub(fp_trim([c % m for c in f]), fp_mul(g, h, m), m)
        q, r = fp_divmod(fp_mul(s, e, m), h, m)
        g = fp_add(g, fp_add(fp_mul(t, e, m), fp_mul(q, g, m), m), m)
        h = fp_add(h, r, m)
        b = fp_sub(fp_add(fp_mul(s, g, m), fp_mul(t, h, m), m), (1,), m)
        c, d = fp_divmod(fp_mul(s, b, m), h, m)
        s = fp_sub(s, d, m)
        t = fp_sub(t, fp_add(fp_mul(t, b, m), fp_mul(c, g, m), m), m)
    return g, h


def _hensel_lift(h, factors, p: int, modulus: int) -> list[tuple[int, ...]]:
    """Monic lifts G_i of the factors of h mod p with h = lead(h) prod G_i
    mod ``modulus``: one two-factor lift per factor, against the product
    of those after it."""
    inv = pow(h[-1], -1, modulus)
    rest = fp_trim([c * inv % modulus for c in h])
    lifted = []
    for i, g in enumerate(factors[:-1]):
        cofactor = (1,)
        for other in factors[i + 1 :]:
            cofactor = fp_mul(cofactor, other, p)
        g, rest = _hensel_pair(rest, g, cofactor, p, modulus)
        lifted.append(g)
    return lifted + [rest]


def _recombine(h, lifted, modulus: int) -> list[tuple[int, ...]]:
    """The irreducible factors over Z of the primitive square-free h from
    its lifted modular factors: subsets of growing size whose product,
    times the leading coefficient and in symmetric residues, has a
    primitive part dividing what is left of h."""
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = (h[-1],)
            for i in subset:
                g = fp_mul(g, lifted[i], modulus)
            g = poly_primitive([c - modulus if 2 * c > modulus else c for c in g])
            quotient = _divide_z(h, g)
            if quotient is not None:
                factors.append(g)
                h = quotient
                lifted = [G for i, G in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [h]


def _factor_squarefree(h) -> list[tuple[int, ...]]:
    """The irreducible factors of a primitive square-free h over Z."""
    if len(h) <= 2:
        return [h]
    p, factors = _modular_factors(h)
    if len(factors) == 1:
        return [h]
    # Mignotte: a factor of h has coefficients at most 2^deg ||h||_2, and
    # the candidates carry an extra factor lead(h)
    bound = abs(h[-1]) * 2 ** (len(h) - 1) * (math.isqrt(sum(c * c for c in h)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    return _recombine(h, _hensel_lift(h, factors, p, modulus), modulus)


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
    content = Fraction(poly_content(f))
    factors: list[tuple[int, ...]] = []
    if len(f) > 1:
        for a, mult in _squarefree_parts(poly_primitive(f)):
            factors += _factor_squarefree(a) * mult
    factors.sort(key=lambda g: (len(g), g))
    prod: tuple[int, ...] = (1,)
    for g in factors:
        prod = poly_mul(prod, g)
    recon = [content * c for c in prod]
    if len(recon) != len(f) or any(r != c for r, c in zip(recon, f)):
        raise ArithmeticError("factorization does not multiply back to the input")
    return content, factors
