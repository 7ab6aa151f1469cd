"""Genus-2 curves y^2 = f(x) over Q and their zeta data at good primes.

A curve is stored as the integer coefficient vector of f (degree 5 or 6,
ascending order) together with the discriminant of f viewed as a binary
sextic form: for deg f = 6 this is disc(f), for deg f = 5 it is
lead(f)^2 * disc(f), which is the specialization of the universal binary
sextic discriminant at c6 = 0.  A prime p is good exactly when p is odd
and prime to that form discriminant; this keeps primes where the degree
drops but the reduction stays smooth (the leading coefficient vanishes
mod p while the quintic reduction is squarefree).

The degrees of the factors of f are the sizes of the Galois orbits of
the Weierstrass points, and they fix the rational 2-torsion
(``two_torsion_count``): over Q that is #J(Q)[2], which ``torsion``
checks a claim against, and over F_p the 2-rank of J(F_p)
(``_two_rank``), which step 3 below and the structure proof of
``jacobian`` use.

The L-polynomial L(T) = 1 + a1 T + a2 T^2 + p a1 T^3 + p^2 T^4 of a
reduction takes O(p) time and O(1) memory at one prime, and those at
every good p <= B come from one pass, in four steps:

1. The Hasse-Witt (Cartier-Manin) matrix is W = [[c_{p-1}, c_{p-2}],
   [c_{2p-1}, c_{2p-2}]] in the coefficients c_n of f^((p-1)/2).  The
   recurrence that f h' = k f' h gives for h = f^k (Bostan-Gaudry-Schost,
   SIAM J. Comput. 2007) is, mod p, one integer matrix product
   e_1 M(1) ... M(p-1) with M(n) free of p, on a model with f(0) f_6
   prime to p; the reversed polynomial gives the high pair.
   ``curve_lpolys`` runs that product once for all p <= B, on one
   integer model, reduced modulo the product of the primes not yet
   passed: about B steps on integers of about 1.44 B bits, in O(B)
   bits of memory, against sum p ~ B^2 / (2 ln B) steps one prime at a
   time.  The few p >= 7 dividing f(0) f_6 of that model share one
   more short run on a second model, shifted so that its f(0) f_6 is
   prime to them.  One prime is the same stream at [p]: a run of p
   steps, on the coefficients reduced mod p.
2. a1 = -tr W and a2 = det W mod p (Manin).  For p >= 67 the Weil
   bound |a1| <= 4 sqrt(p) < p/2 fixes a1; below it, a1 comes from
   counting the points over F_p, with the values of f from its forward
   differences at 0.
3. The Weil bounds leave the a2 of that residue class in [2 |a1|
   sqrt(p) - 2p, a1^2/4 + 2p], at most nine, found in integers.  The
   2-torsion of J(F_p), read off the factorization type of f mod p, is
   also that of the quadratic twist, so it must fit in groups of the
   integer orders L(1) and L(-1) = 1 +- a1 (1 + p) + p^2 + a2, and only
   the candidates where it does are kept, a lone one too: there it is
   the one check of the Hasse-Witt step.  The type needs no
   factorization: the roots of f in F_p, the parity of the number of
   factors (Stickelberger's theorem on the binary discriminant) and,
   for a sextic without a root, its roots in F_{p^2} fix it, from one
   ladder for x^p mod f (``_factor_degrees``).
4. L(1) = #J(F_p) annihilates every class of J(F_p), and L(-1) every
   class of the twist's Jacobian: classes rule out the other candidates
   (Kedlaya-Sutherland, ANTS VIII, 2008).  The candidates are taken
   from the largest a2 down, where a reduction isogenous to a square
   sits.  Each class costs one full ladder, for [L(1)] D; when that
   vanishes the order of D divides L(1), and a ladder of a few bits,
   for the gcd with the next candidate's order, decides that one, and
   otherwise steps of -[p] D walk down the others.  A class is the sum
   of two random affine points less D_inf on the sextic z^6 f(a + 1/z)
   with f(a) a non-square, which needs no root of f (see ``jacobian``);
   the twist's model is built only when the curve leaves more than one
   candidate.  If more than one candidate survives, ArithmeticError:
   the result is never a guess.

At p <= 5, where those models need not exist, the counts over F_p and
F_{p^2} are made directly (at most 25 values of x), and they give L.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm, prod

from ..exact import (
    factorint,
    fp_monic,
    fp_trim,
    isprime,
    poly_discriminant,
    poly_eval,
    poly_taylor,
    primerange,
)
from ..weil import WeilPoly2, is_weil_valid

# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GenusTwoCurve:
    """y^2 = f(x) with integral f of degree 5 or 6, ascending coefficients."""

    coeffs: tuple[int, int, int, int, int, int, int]
    binary_disc: int

    @classmethod
    def from_coefficients(cls, coeffs) -> "GenusTwoCurve":
        vals = [Fraction(c) for c in coeffs]
        while len(vals) > 7 and vals[-1] == 0:
            vals.pop()
        if len(vals) > 7:
            raise ValueError("f must have degree at most 6")
        vals += [Fraction(0)] * (7 - len(vals))
        if vals[6] == 0 and vals[5] == 0:
            raise ValueError("f must have degree 5 or 6")
        # Clear denominators and strip square content: y^2 = f and
        # (d y)^2 = d^2 f present the same curve.
        den = lcm(*(v.denominator for v in vals))
        ints = [int(v * den * den) for v in vals]
        content = gcd(*ints)
        square = 1
        for q, e in factorint(content).items():
            square *= q ** (e // 2)
        ints = [c // (square * square) for c in ints]
        disc = _binary_sextic_disc(ints)
        if disc == 0:
            raise ValueError("f has a repeated root: the curve is singular")
        return cls(tuple(ints), disc)

    @property
    def degree(self) -> int:
        return 6 if self.coeffs[6] else 5

    def __str__(self) -> str:
        terms = []
        for i in range(6, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                body = ("" if mag == 1 else str(mag)) + (
                    "x" if i == 1 else f"x^{i}"
                )
            terms.append(sign + body)
        return "y^2 = " + "".join(terms)


def _binary_sextic_disc(coeffs) -> int:
    """Discriminant of f as a binary sextic form (c5^2 disc5 when c6 = 0)."""
    if coeffs[6]:
        return poly_discriminant(coeffs)
    return coeffs[5] ** 2 * poly_discriminant(coeffs)


# ---------------------------------------------------------------------------
# good primes and point counting
# ---------------------------------------------------------------------------


def good_prime(curve: GenusTwoCurve, p: int) -> bool:
    """Whether the reduction of the curve mod p is a smooth genus-2 curve."""
    return p != 2 and isprime(p) and curve.binary_disc % p != 0


def good_primes(curve: GenusTwoCurve, bound: int) -> list[int]:
    """All good primes p <= bound, ascending."""
    return [p for p in primerange(3, bound + 1) if curve.binary_disc % p]


def _count_points(c, p: int, n: int) -> int:
    """#C(F_{p^n}) of y^2 = c(x), c reduced mod p: O(p^n) time.

    c must stay squarefree of degree 5 or 6 mod p (a good prime).  The
    smooth model has one point at infinity in degree 5; in degree 6 it
    has two when the leading coefficient is a square in the field (always
    so in F_{p^2}) and none otherwise.  Over F_p the values c(0), ...,
    c(p - 1) come from the forward differences of c at 0, six additions
    per x, and a table of the square roots mod p counts the y.  Over
    F_{p^2} = F_p(s) with s^2 = r a non-residue, A + B s != 0 is a square
    iff its norm A^2 - r B^2 is a square in F_p.
    """
    roots = [0] * p  # roots[a] = #{y : y^2 = a}
    for y in range(p):
        roots[y * y % p] += 1
    deg = 6 if c[6] else 5
    if n == 1:
        # d_k = (Delta^k c)(0) from c(0), ..., c(6); then c(x + 1) = c(x) + d_1
        # and each d_k(x + 1) = d_k(x) + d_(k+1)(x)
        d = [poly_eval(c, x) for x in range(7)]
        for k in range(1, 7):
            for i in range(6, k - 1, -1):
                d[i] -= d[i - 1]
        d0, d1, d2, d3, d4, d5, d6 = (t % p for t in d)
        affine = 0
        for _ in range(p):
            affine += roots[d0]
            d0, d1, d2, d3, d4, d5 = ((d0 + d1) % p, (d1 + d2) % p, (d2 + d3) % p,
                                      (d3 + d4) % p, (d4 + d5) % p, (d5 + d6) % p)
        return affine + (1 if deg == 5 else roots[c[6]])
    r = next(a for a in range(2, p) if not roots[a])
    affine = 0
    for u in range(p):
        for v in range(p):
            A, B = c[deg], 0
            for i in range(deg - 1, -1, -1):
                A, B = (A * u + r * B * v + c[i]) % p, (A * v + B * u) % p
            affine += roots[(A * A - r * B * B) % p]
    return affine + (1 if deg == 5 else 2)


def count_points_curve(curve: GenusTwoCurve, p: int) -> int:
    """#C(F_p) of the reduction mod a good prime p, counted in O(p).

    #C(F_{p^2}) = p^2 + 1 - a1^2 + 2 a2 comes from ``curve_lpoly``.
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    return _count_points([v % p for v in curve.coeffs], p, 1)


def lpoly_from_counts(count1: int, count2: int, p: int) -> WeilPoly2:
    """Weil polynomial of a genus-2 reduction from #C(F_p) and #C(F_{p^2}).

    With L(T) = 1 + a1 T + a2 T^2 + p a1 T^3 + p^2 T^4, the counts give
    a1 = #C(F_p) - p - 1 and a1^2 - 2 a2 = -(#C(F_{p^2}) - p^2 - 1).
    Counts that do not arise from a genus-2 curve raise ValueError.
    """
    a1 = count1 - p - 1
    twice_a2 = count2 - p * p - 1 + a1 * a1
    if twice_a2 % 2:
        raise ValueError("point counts are inconsistent (odd 2 a2)")
    w = WeilPoly2(p, a1, twice_a2 // 2)
    if not is_weil_valid(w):
        raise ValueError("point counts do not satisfy the Weil bounds")
    return w


# ---------------------------------------------------------------------------
# the factorization type of f mod p and the 2-torsion
# ---------------------------------------------------------------------------


def two_torsion_count(degrees) -> int:
    """#J[2]-classes fixed by Galois, from Weierstrass orbit sizes.

    ``degrees`` lists the degrees of the Galois orbits of the affine
    Weierstrass points: the factor degrees of f, summing to 6, or to 5
    for an odd-degree model (the sixth point, at infinity, is rational).
    J[2] is spanned by even-cardinality subsets of the six points modulo
    complementation; a subset is Galois-stable iff it is a union of
    orbits, so the count is the number of even-sum sub-multisets of the
    degree multiset, halved in the sextic case (a stable subset is never
    Galois-sent to its complement, which would force |S| = 3 odd).  The
    result is 2^(c-1) when all c degrees are even and 2^(c-2) otherwise
    for a sextic, and always 2^(c-1) for a quintic.
    """
    degs = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degs):
        raise ValueError("orbit degrees must be positive")
    total = sum(degs)
    if total not in (5, 6):
        raise ValueError("orbit degrees must sum to 5 or 6")
    c = len(degs)
    if total == 5:
        return 2 ** (c - 1)
    if all(d % 2 == 0 for d in degs):
        return 2 ** (c - 1)
    return 2 ** (c - 2)


def _factor_degrees(curve: GenusTwoCurve, p: int) -> list[int]:
    """Degrees of the irreducible factors of f mod a good prime p,
    ascending.

    Three numbers fix the pattern.  r1 = deg gcd(f, x^p - x) counts the
    roots, and Stickelberger's theorem gives the parity of the number of
    factors: the discriminant of a squarefree f of degree n with k
    irreducible factors is a square mod p exactly when n - k is even.
    The binary discriminant of the curve is that of f mod p times a
    nonzero square, also when the degree drops.  Of what is left, of
    degree rest = n - r1, a rest of 2 or 3 is one factor, and parity
    tells [rest] from [2, rest - 2] when rest is 4 or 5.  Only a sextic
    without a root needs more, x^(p^2) = h(h) for h = x^p: parity leaves
    (6) or (2, 2, 2), told apart by x^(p^2) = x, or (3, 3) or (2, 4),
    told apart by a second gcd, with x^(p^2) - x.

    A quintic g goes through the same kernel as the sextic x g, which
    has one more root in F_p when g(0) != 0.  The kernel works on six
    coefficients mod f (``_sextic_rows``, ``_frobenius``, ``_mulmod``),
    and so do both gcds (``_gcd_degree``).
    """
    g = fp_monic(fp_trim([v % p for v in curve.coeffs]), p)
    sextic = g if len(g) == 7 else (0, *g)
    rows = _sextic_rows(sextic, p)
    h = _frobenius(rows, p)
    roots = _gcd_degree(sextic, _minus_x(h, p), p) - (len(g) == 6 and g[0] != 0)
    rest = len(g) - 1 - roots
    even = pow(curve.binary_disc, (p - 1) // 2, p) == 1  # (-1)^(n - k) = 1
    if rest == 6:
        h2 = (h[5], 0, 0, 0, 0, 0)
        for c in reversed(h[:5]):
            h2 = _mulmod(h2, h, rows, p)
            h2 = ((h2[0] + c) % p, *h2[1:])
        if not even:  # (6) or (2, 2, 2), where x^(p^2) = x
            tail = [2, 2, 2] if h2 == (0, 1, 0, 0, 0, 0) else [6]
        else:  # (3, 3) or (2, 4)
            tail = [2, 4] if _gcd_degree(sextic, _minus_x(h2, p), p) else [3, 3]
    elif rest >= 4 and even == (rest % 2 == 0):
        tail = [2, rest - 2]
    else:
        tail = [rest] if rest else []
    return [1] * roots + tail


def _minus_x(h, p: int) -> tuple[int, ...]:
    """h - x for h of degree <= 5 given by six coefficients."""
    return (h[0], (h[1] - 1) % p, *h[2:])


def _gcd_degree(f, g, p: int) -> int:
    """deg gcd(f, g) over F_p for the monic sextic f and g of degree <= 5
    given by six coefficients in [0, p): Euclid on coefficient lists."""
    a, b = list(f), list(g)
    while b and not b[-1]:
        b.pop()
    while b:
        top = len(b) - 1
        inv = pow(b[top], -1, p)
        for k in range(len(a) - 1, top - 1, -1):
            q = a[k] * inv % p
            if q:
                for j in range(top):
                    a[k - top + j] = (a[k - top + j] - q * b[j]) % p
        del a[top:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _sextic_rows(f, p: int):
    """The rows x^6, ..., x^10 mod a monic sextic f over F_p, six
    coefficients each."""
    rows = [tuple(-c % p for c in f[:6])]
    for _ in range(4):
        rows.append(_times_x(rows[-1], rows[0], p))
    return rows


def _times_x(a, r6, p: int) -> tuple[int, ...]:
    """x a mod f: a shift, with the x^6 term folded in by the row r6 of
    x^6 mod f."""
    a0, a1, a2, a3, a4, a5 = a
    return (a5 * r6[0] % p, (a0 + a5 * r6[1]) % p, (a1 + a5 * r6[2]) % p,
            (a2 + a5 * r6[3]) % p, (a3 + a5 * r6[4]) % p, (a4 + a5 * r6[5]) % p)


def _frobenius(rows, p: int) -> tuple[int, ...]:
    """x^p mod a monic sextic f over F_p, from the rows of f.

    A left-to-right ladder of straight-line squarings of a0 + ... + a5
    x^5 (``_fold``), from x^t for the top three bits t of p, which is a
    row or a monomial; multiplying by x is ``_times_x``.
    """
    bits = bin(p)[2:]
    top = int(bits[:3], 2)
    a = rows[top - 6] if top >= 6 else tuple(int(i == top) for i in range(6))
    for bit in bits[3:]:
        a0, a1, a2, a3, a4, a5 = a
        a = _fold((
            a0 * a0, 2 * a0 * a1, 2 * a0 * a2 + a1 * a1, 2 * (a0 * a3 + a1 * a2),
            2 * (a0 * a4 + a1 * a3) + a2 * a2, 2 * (a0 * a5 + a1 * a4 + a2 * a3),
            2 * (a1 * a5 + a2 * a4) + a3 * a3, 2 * (a2 * a5 + a3 * a4),
            2 * a3 * a5 + a4 * a4, 2 * a4 * a5, a5 * a5), rows, p)
        if bit == "1":
            a = _times_x(a, rows[0], p)
    return a


def _mulmod(a, b, rows, p: int) -> tuple[int, ...]:
    """a b mod f for a, b of degree <= 5 (six coefficients each), from
    the rows of f."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    return _fold((
        a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
        a0 * b5 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a5 * b0,
        a1 * b5 + a2 * b4 + a3 * b3 + a4 * b2 + a5 * b1,
        a2 * b5 + a3 * b4 + a4 * b3 + a5 * b2, a3 * b5 + a4 * b4 + a5 * b3,
        a4 * b5 + a5 * b4, a5 * b5), rows, p)


def _fold(c, rows, p: int) -> tuple[int, ...]:
    """c_0 + ... + c_10 x^10 mod f, with the terms of x^6, ..., x^10
    folded in by the rows of f."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = c
    c6, c7, c8, c9, c10 = c6 % p, c7 % p, c8 % p, c9 % p, c10 % p
    R6, R7, R8, R9, R10 = rows
    return (
        (c0 + c6 * R6[0] + c7 * R7[0] + c8 * R8[0] + c9 * R9[0] + c10 * R10[0]) % p,
        (c1 + c6 * R6[1] + c7 * R7[1] + c8 * R8[1] + c9 * R9[1] + c10 * R10[1]) % p,
        (c2 + c6 * R6[2] + c7 * R7[2] + c8 * R8[2] + c9 * R9[2] + c10 * R10[2]) % p,
        (c3 + c6 * R6[3] + c7 * R7[3] + c8 * R8[3] + c9 * R9[3] + c10 * R10[3]) % p,
        (c4 + c6 * R6[4] + c7 * R7[4] + c8 * R8[4] + c9 * R9[4] + c10 * R10[4]) % p,
        (c5 + c6 * R6[5] + c7 * R7[5] + c8 * R8[5] + c9 * R9[5] + c10 * R10[5]) % p,
    )


def _two_rank(degrees) -> int:
    """r with J(F_p)[2] = (Z/2)^r, from the factor degrees of f mod p."""
    return two_torsion_count(degrees).bit_length() - 1


# ---------------------------------------------------------------------------
# L-polynomials from the Hasse-Witt matrix
# ---------------------------------------------------------------------------


def _hasse_witt_model(c, primes=()) -> list[int]:
    """A model of y^2 = c(x) over Z with c(0) c_6 != 0 when ``primes`` is
    empty; otherwise one modulo the product of ``primes``, all >= 7, with
    c(0) c_6 prime to each.

    x = a + 1/z when c_6 is not such a unit, then x = z + b, with the
    least a >= 0 and b >= 1 where c takes a unit value.  A quintic mod p
    has at most five roots and a sextic with the root 0 at most five
    more, so for one prime a <= 5 and b <= 6; each further prime rules
    out at most six residues, so for a few a and b stay small.  Both
    substitutions are unimodular, so over Z the model keeps the binary
    discriminant, and with it the good primes.
    """
    modulus = prod(primes)

    def unit(v: int) -> bool:
        return v != 0 and all(v % p for p in primes)

    def reduce(v: int) -> int:
        return v % modulus if primes else v

    if not unit(c[6]):
        # z^6 c(a + 1/z) has leading coefficient c(a)
        a = next(a for a in count() if unit(poly_eval(c, a)))
        c = [reduce(t) for t in reversed(poly_taylor(c, a))]
    if not unit(c[0]):
        b = next(b for b in count(1) if unit(poly_eval(c, b)))
        c = [reduce(t) for t in poly_taylor(c, b)]
    return c


def _power_pairs(f, primes):
    """Yield (p, c_{p-2}, c_{p-1}) mod p of f^((p-1)/2) for each p of
    ``primes``, odd, ascending and prime to f(0), from one recurrence.

    h = f^k with k = (p-1)/2 satisfies f h' = k f' h.  Its x^(n-1)
    coefficient reads sum_i (n - (k+1) i) f_i c_{n-i} = 0, and k + 1 is
    1/2 mod p, so 2 n f_0 c_n = -sum_{i=1..6} (2n - i) f_i c_{n-i}, which
    does not depend on p.  Times (-2 f_0)^n n! / c_0, the window
    (c_n, ..., c_{n-5}) is T_n = T_{n-1} M(n) with T_0 = e_1, where the
    integer matrix M(n) has first column (2n - i) f_i and superdiagonal
    -2 f_0 n.  At n = p - 1, (-2 f_0)^(p-1) = 1 and (p-1)! = -1 mod p
    (Wilson), and c_0 = f_0^k is the Legendre symbol chi(f_0), so
    c_{p-1} = -chi(f_0) T[0] and c_{p-2} = -chi(f_0) T[1] mod p.

    T runs once over n < max(primes), modulo the product of the primes
    not yet passed: for primes up to B, about B steps on integers of
    about 1.44 B bits, in O(B) bits of memory.  Coefficients of f at
    least that product in size are reduced modulo it first, so one prime
    runs on residues; a smaller negative one would grow to its size.
    """
    modulus = prod(primes)
    f0, f1, f2, f3, f4, f5, f6 = (t % modulus if abs(t) >= modulus else t for t in f)
    m = -2 * f0
    t0, t1, t2, t3, t4, t5 = 1, 0, 0, 0, 0, 0
    n = 0
    for p in primes:
        for n in range(n + 1, p):
            n2 = 2 * n
            s = ((n2 - 1) * f1 * t0 + (n2 - 2) * f2 * t1 + (n2 - 3) * f3 * t2
                 + (n2 - 4) * f4 * t3 + (n2 - 5) * f5 * t4 + (n2 - 6) * f6 * t5)
            k = m * n
            t0, t1, t2, t3, t4, t5 = (
                s % modulus, t0 * k % modulus, t1 * k % modulus,
                t2 * k % modulus, t3 * k % modulus, t4 * k % modulus,
            )
        chi = pow(f0, (p - 1) // 2, p)
        yield p, -chi * t1 % p, -chi * t0 % p
        modulus //= p


def _hasse_witt_traces(f, primes):
    """Yield (p, tr W, det W) mod p of the Hasse-Witt matrix of y^2 = f(x)
    for each p of ``primes``, ascending and prime to f(0) f_6.

    W = [[c_{p-1}, c_{p-2}], [c_{2p-1}, c_{2p-2}]] in the coefficients of
    f^((p-1)/2).  The top two are c_{p-2} and c_{p-1} of the power of the
    reversed f, which is the reversed power.
    """
    low, high = _power_pairs(f, primes), _power_pairs(f[::-1], primes)
    for (p, low2, low1), (_, high1, high2) in zip(low, high):
        yield p, (low1 + high2) % p, (low1 * high2 - low2 * high1) % p


def _weil_a2s(p: int, a1: int, a2_mod_p: int) -> range:
    """The a2 = a2_mod_p mod p with 1 + a1 T + a2 T^2 + p a1 T^3 + p^2 T^4
    Weil-valid, descending.

    That is a1^2 <= 16 p and 2 |a1| sqrt(p) - 2 p <= a2 <= a1^2 / 4 + 2 p
    (``weil.is_weil_valid``), with the square root rounded up in
    integers: at most nine values.
    """
    if a1 * a1 > 16 * p:
        return range(0)
    square = 4 * p * a1 * a1  # (2 |a1| sqrt(p))^2
    low = (isqrt(square - 1) + 1 if square else 0) - 2 * p
    top = a1 * a1 // 4 + 2 * p
    return range(top - (top - a2_mod_p) % p, low - 1, -p)


def _two_part_fits(p: int, a1: int, a2: int, two_rank: int) -> bool:
    """Whether J(F_p)[2] = (Z/2)^two_rank fits in groups of orders L(1)
    and L(-1) = 1 -+ a1 (1 + p) + p^2 + a2: the quadratic twist has the
    same 2-torsion."""
    orders = (1 + p * p + a2 + a1 * (1 + p), 1 + p * p + a2 - a1 * (1 + p))
    if two_rank == 0:
        return all(n % 2 for n in orders)
    return all(n % (1 << two_rank) == 0 for n in orders)


def _reductions(curve: GenusTwoCurve, primes):
    """Yield (p, L, ``_factor_degrees(curve, p)``) for each p of
    ``primes``, good and ascending: counts at p <= 5, then the runs of
    step 1 of the module docstring, the second one only if some p needs
    it."""
    f = _hasse_witt_model(curve.coeffs)
    rest = [p for p in primes if p > 5 and f[0] * f[6] % p == 0]
    batch = _hasse_witt_traces(f, [p for p in primes if p > 5 and p not in rest])
    extra = rest and _hasse_witt_traces(_hasse_witt_model(curve.coeffs, rest), rest)
    for p in primes:
        degrees = _factor_degrees(curve, p)
        if p <= 5:
            c = [v % p for v in curve.coeffs]
            w = lpoly_from_counts(_count_points(c, p, 1), _count_points(c, p, 2), p)
        else:
            _, trace, det = next(extra if p in rest else batch)
            w = _lpoly_from_hasse_witt(curve, p, trace, det, degrees)
        yield p, w, degrees


def curve_lpoly(curve: GenusTwoCurve, p: int) -> WeilPoly2:
    """Weil polynomial of the reduction of the curve mod a good prime p:
    the stream of ``curve_lpolys`` at [p], in O(p) time and O(1) memory.

    The random classes of step 4 come from an RNG seeded by p and f, so
    the result is deterministic.  ArithmeticError means they could not
    single out one candidate.
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    return next(_reductions(curve, [p]))[1]


def curve_lpolys(curve: GenusTwoCurve, bound: int):
    """Yield (p, L) for every good prime p <= bound, ascending, from one
    recurrence for all of them (step 1 of the module docstring): about
    B steps on integers of about 1.44 B bits for B = bound, in O(B) bits
    of memory."""
    for p, w, _ in _reductions(curve, good_primes(curve, bound)):
        yield p, w


def _lpoly_from_hasse_witt(
    curve: GenusTwoCurve, p: int, trace: int, det: int, degrees
) -> WeilPoly2:
    """Steps 2 to 4 of the module docstring, from tr W and det W mod
    p >= 7 and the factor degrees of f mod p."""
    c = [v % p for v in curve.coeffs]
    if p < 67:
        a1 = _count_points(c, p, 1) - p - 1
        if (a1 + trace) % p:
            raise ArithmeticError(f"#C(F_{p}) disagrees with the Hasse-Witt trace")
    else:
        # |a1| <= 4 sqrt(p) < p / 2
        a1 = -trace if 2 * trace < p else p - trace
    two_rank = _two_rank(degrees)
    fits = [a2 for a2 in _weil_a2s(p, a1, det) if _two_part_fits(p, a1, a2, two_rank)]
    if not fits:
        raise ArithmeticError(f"no Weil polynomial fits the Hasse-Witt matrix mod {p}")
    if len(fits) > 1:
        from . import jacobian  # jacobian imports this module

        rng = random.Random(f"{p}/{curve.coeffs}")
        return WeilPoly2(p, a1, jacobian._settle_by_annihilation(c, p, a1, fits, rng))
    return WeilPoly2(p, a1, fits[0])
