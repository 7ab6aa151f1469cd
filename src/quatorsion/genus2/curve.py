"""Genus-2 curves y^2 = f(x) over Q and their zeta data at good primes.

A curve is stored as the integer coefficient vector of f (degree 5 or 6,
ascending order) together with the discriminant of f viewed as a binary
sextic form: for deg f = 6 this is disc(f), for deg f = 5 it is
lead(f)^2 * disc(f), which is the specialization of the universal binary
sextic discriminant at c6 = 0.  A prime p is good exactly when p is odd
and prime to that form discriminant; this keeps primes where the degree
drops but the reduction stays smooth (the leading coefficient vanishes
mod p while the quintic reduction is squarefree).

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
   time.  The few p >= 7 dividing f(0) f_6 of that model, and
   ``curve_lpoly``, run it for one prime on a model for that prime.
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
   ladder for x^p mod f (``jacobian``).
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
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from ..exact import factorint, isprime, poly_discriminant, poly_eval, poly_taylor, primerange
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


_TERM = re.compile(r"([+-]?\d*)(x(?:\^(\d+))?)?$")


def parse_curve(text: str) -> GenusTwoCurve:
    """Parse a polynomial string like ``5x^6+21x^5-63x^4-49x^3+294x^2-343``.

    An optional ``y^2 =`` prefix, whitespace, and ``*`` between coefficient
    and variable are accepted.
    """
    body = text.replace(" ", "").replace("*", "")
    if body.lower().startswith("y^2="):
        body = body[4:]
    if not body:
        raise ValueError("empty curve expression")
    coeffs = [0] * 7
    for term in re.findall(r"[+-]?[^+-]+", body):
        m = _TERM.match(term)
        if m is None or (not m.group(1) and not m.group(2)):
            raise ValueError(f"cannot parse term {term!r}")
        raw = m.group(1)
        if m.group(2) is None:
            if raw in ("", "+", "-"):
                raise ValueError(f"cannot parse term {term!r}")
            c, e = int(raw), 0
        else:
            c = -1 if raw == "-" else (1 if raw in ("", "+") else int(raw))
            e = int(m.group(3)) if m.group(3) is not None else 1
        if e > 6:
            raise ValueError("f must have degree at most 6")
        coeffs[e] += c
    return GenusTwoCurve.from_coefficients(coeffs)


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
# L-polynomials from the Hasse-Witt matrix
# ---------------------------------------------------------------------------


def _hasse_witt_model(c, p: int = 0) -> list[int]:
    """A model of y^2 = c(x) with c(0) c_6 prime to p, for p >= 7; over Z
    (c(0) c_6 != 0) for p = 0.

    x = a + 1/z when the degree drops, then x = z + b, with the least
    a >= 0 and b >= 1 that are not roots: a quintic has at most five
    roots and a sextic with the root 0 at most five more, so a <= 5 and
    b <= 6.  Both substitutions are unimodular, so over Z the model keeps
    the binary discriminant, and with it the good primes.
    """

    def unit(v: int) -> int:
        return v % p if p else v

    if not unit(c[6]):
        # z^6 c(a + 1/z) has leading coefficient c(a)
        a = next(a for a in range(7) if unit(poly_eval(c, a)))
        c = [unit(t) for t in reversed(poly_taylor(c, a))]
    if not unit(c[0]):
        b = next(b for b in range(1, 8) if unit(poly_eval(c, b)))
        c = [unit(t) for t in poly_taylor(c, b)]
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
    about 1.44 B bits, in O(B) bits of memory.
    """
    f0, f1, f2, f3, f4, f5, f6 = f
    m = -2 * f0
    modulus = prod(primes)
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


def _hasse_witt(c, p: int) -> tuple[int, int]:
    """Trace and determinant mod p of the Hasse-Witt matrix of y^2 = c(x),
    from the recurrence for p alone on a model for p alone."""
    _, trace, det = next(_hasse_witt_traces(_hasse_witt_model(c, p), [p]))
    return trace, det


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


def curve_lpoly(curve: GenusTwoCurve, p: int, *, degrees=None) -> WeilPoly2:
    """Weil polynomial of the reduction of the curve mod a good prime p.

    O(p) time and O(1) memory, in the four steps of the module
    docstring.  A caller that already has them may pass the degrees of
    the irreducible factors of f mod p; the result does not depend on
    them.  The random classes of the last step come from an RNG
    seeded by p and f, so the result is deterministic.  ArithmeticError
    means the random classes could not single out one candidate.
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    c = [v % p for v in curve.coeffs]
    if p <= 5:
        return lpoly_from_counts(_count_points(c, p, 1), _count_points(c, p, 2), p)
    return _lpoly_from_hasse_witt(curve, p, *_hasse_witt(c, p), degrees)


def curve_lpolys(curve: GenusTwoCurve, bound: int):
    """Yield (p, L) for every good prime p <= bound, ascending: the Weil
    polynomials of ``curve_lpoly``, from one recurrence for all of them.

    The recurrence runs on one integer model with f(0) f_6 != 0 (step 1
    of the module docstring), forward and reversed: about B steps on
    integers of about 1.44 B bits for B = bound, in O(B) bits of memory.
    A prime p >= 7 that divides f(0) f_6 of that model gets
    ``curve_lpoly``, as every p <= 5 does.
    """
    f = _hasse_witt_model(curve.coeffs)
    primes = good_primes(curve, bound)
    batch = _hasse_witt_traces(f, [p for p in primes if p > 5 and f[0] * f[6] % p])
    for p in primes:
        if p <= 5 or f[0] * f[6] % p == 0:
            yield p, curve_lpoly(curve, p)
            continue
        _, trace, det = next(batch)
        yield p, _lpoly_from_hasse_witt(curve, p, trace, det)


def _lpoly_from_hasse_witt(
    curve: GenusTwoCurve, p: int, trace: int, det: int, degrees=None
) -> WeilPoly2:
    """Steps 2 to 4 of the module docstring, from tr W and det W mod p >= 7."""
    from . import jacobian  # jacobian imports this module

    c = [v % p for v in curve.coeffs]
    if p < 67:
        a1 = _count_points(c, p, 1) - p - 1
        if (a1 + trace) % p:
            raise ArithmeticError(f"#C(F_{p}) disagrees with the Hasse-Witt trace")
    else:
        # |a1| <= 4 sqrt(p) < p / 2
        a1 = -trace if 2 * trace < p else p - trace
    if degrees is None:
        degrees = jacobian._factor_degrees(curve, p)
    two_rank = jacobian._two_rank(degrees)
    fits = [a2 for a2 in _weil_a2s(p, a1, det) if _two_part_fits(p, a1, a2, two_rank)]
    if not fits:
        raise ArithmeticError(f"no Weil polynomial fits the Hasse-Witt matrix mod {p}")
    if len(fits) > 1:
        rng = random.Random(f"{p}/{curve.coeffs}")
        return WeilPoly2(p, a1, jacobian._settle_by_annihilation(c, p, a1, fits, rng))
    return WeilPoly2(p, a1, fits[0])
