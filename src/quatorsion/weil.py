"""Weil polynomials of abelian surfaces over finite fields.

An isogeny class of abelian surfaces over F_q has characteristic
polynomial of Frobenius

    f(T) = T^4 + a1 T^3 + a2 T^2 + q a1 T + q^2,

all of whose complex roots have absolute value sqrt(q).  Substituting
x = T + q/T turns that condition into h(x) = x^2 + a1 x + (a2 - 2q)
having both real roots in [-2 sqrt(q), 2 sqrt(q)], which reduces to four
exact integer inequalities.  The point count of any surface in the class
is #A(F_q) = f(1).

Isogeny classes are named by LMFDB-style labels "2.q.c1_c2" whose
coefficient strings encode a1 and a2 in base 26 (a = 0, ..., z = 25,
with a leading 'a' before further letters marking negation, so
"ac" = -2).

Base change to F_{q^n} replaces the roots by their n-th powers.  The
power sums s_k of the four roots obey the linear recurrence

    s_k = -a1 s_{k-1} - a2 s_{k-2} - q a1 s_{k-3} - q^2 s_{k-4}

(Newton's identities for k <= 4), so one pass gives s_1..s_m.  Over
F_{q^n} the coefficients are a1 = -s_n and a2 = (s_n^2 - s_{2n}) / 2;
the other two, q^n a1 and q^{2n}, are forced by the functional equation.
The split test over every F_{q^n}, n <= nmax, reads s_n and s_{2n} from
the one list s_1..s_{2 nmax} of the class.

Not every valid f is the polynomial of an actual surface: Honda-Tate
theory (Tate 1968, Waterhouse 1969) excludes a handful of pairs over
non-prime fields.  ``enumerate_surfaces`` derives each class's flag at
run time from the p-adic roots of f (see ``_honda_tate_admissible``),
once per q, and caches the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exact import factorint, poly_derivative, poly_eval, poly_taylor, primefactors

SUPPORTED_Q = (2, 3, 4, 5, 7, 9)


@lru_cache(maxsize=1024)
def prime_power_base(q: int) -> tuple[int, int]:
    """The pair (p, n) with q = p^n; raises unless q is a prime power.

    Cached by q: every WeilPoly2 and WeilPoly1 checks its field size here.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    factors = factorint(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = factors.items()
    return p, n


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, slots=True)
class WeilPoly2:
    """The degree-4 polynomial T^4 + a1 T^3 + a2 T^2 + q a1 T + q^2."""

    q: int
    a1: int
    a2: int

    def __post_init__(self) -> None:
        prime_power_base(self.q)

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (1, self.a1, self.a2, self.q * self.a1, self.q**2)

    def point_count(self) -> int:
        """f(1) = #A(F_q) for any surface A in the class."""
        return 1 + self.a1 + self.a2 + self.q * self.a1 + self.q**2

    def is_ordinary(self) -> bool:
        p, _ = prime_power_base(self.q)
        return self.a2 % p != 0


@dataclass(frozen=True, slots=True)
class WeilPoly1:
    """The degree-2 polynomial T^2 + a T + q of an elliptic isogeny class."""

    q: int
    a: int

    def __post_init__(self) -> None:
        prime_power_base(self.q)
        if self.a**2 > 4 * self.q:
            raise ValueError(f"|{self.a}| exceeds 2 sqrt({self.q})")

    def point_count(self) -> int:
        return 1 + self.a + self.q

    def square(self) -> WeilPoly2:
        """The polynomial of E x E, (T^2 + aT + q)^2."""
        return WeilPoly2(self.q, 2 * self.a, self.a**2 + 2 * self.q)


@dataclass(frozen=True, slots=True)
class SurfaceClass:
    """One enumerated isogeny class with its admissibility flag."""

    poly: WeilPoly2
    label: str
    honda_tate_admissible: bool


def is_weil_valid(w: WeilPoly2) -> bool:
    """Whether every complex root of f has absolute value sqrt(q).

    Equivalently h(x) = x^2 + a1 x + (a2 - 2q) has both real roots in
    [-2 sqrt(q), 2 sqrt(q)]: real roots (nonnegative discriminant), the
    vertex within range, and h nonnegative at both endpoints.  All four
    conditions are exact in integers.
    """
    q, a1, a2 = w.q, w.a1, w.a2
    if a1 * a1 - 4 * (a2 - 2 * q) < 0:
        return False
    if a1 * a1 > 16 * q:
        return False
    edge = 2 * q + a2
    return edge >= 0 and edge * edge >= 4 * q * a1 * a1


# ---------------------------------------------------------------------------
# labels


def _letters_to_int(s: str, offset: int) -> int:
    if not s or any(not ("a" <= ch <= "z") for ch in s):
        bad = next((i for i, ch in enumerate(s) if not ("a" <= ch <= "z")), 0)
        raise ValueError(f"invalid coefficient letter at position {offset + bad}")
    if len(s) == 1:
        return ord(s) - ord("a")
    if s[0] == "a":
        magnitude = _letters_to_int(s[1:], offset + 1)
        if magnitude == 0:
            raise ValueError(f"negative zero at position {offset}")
        return -magnitude
    value = 0
    for ch in s:
        value = value * 26 + (ord(ch) - ord("a"))
    return value


def _int_to_letters(value: int) -> str:
    if value < 0:
        return "a" + _int_to_letters(-value)
    if value == 0:
        return "a"
    digits = []
    while value:
        value, digit = divmod(value, 26)
        digits.append(chr(ord("a") + digit))
    return "".join(reversed(digits))


def parse_label(s: str) -> WeilPoly2:
    """Decode an isogeny class label "2.q.c1_c2".

    Only the canonical label of a class is accepted, the one that
    ``format_label`` gives back: no sign, leading zero or space in q, and
    no repeated "a" of a negative coefficient.
    """
    parts = s.split(".")
    if len(parts) != 3:
        raise ValueError(f"expected three dot-separated parts in {s!r}")
    if parts[0] != "2":
        raise ValueError(f"unsupported dimension {parts[0]!r} at position 0")
    try:
        q = int(parts[1])
    except ValueError:
        raise ValueError(f"invalid field size at position 2 in {s!r}") from None
    prime_power_base(q)
    coeffs = parts[2].split("_")
    if len(coeffs) != 2:
        raise ValueError(
            f"expected two coefficient strings at position {len(parts[0]) + len(parts[1]) + 2}"
        )
    offset = len(parts[0]) + len(parts[1]) + 2
    a1 = _letters_to_int(coeffs[0], offset)
    a2 = _letters_to_int(coeffs[1], offset + len(coeffs[0]) + 1)
    w = WeilPoly2(q, a1, a2)
    canonical = format_label(w)
    if canonical != s:
        raise ValueError(f"{s!r} is not a canonical label; the canonical label is {canonical!r}")
    return w


def format_label(w: WeilPoly2) -> str:
    return f"2.{w.q}.{_int_to_letters(w.a1)}_{_int_to_letters(w.a2)}"


# ---------------------------------------------------------------------------
# enumeration


def _strip_p(f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The nonzero polynomial f divided by the largest power of p dividing it."""
    while all(c % p == 0 for c in f):
        f = tuple(c // p for c in f)
    return f


def _has_root_in_class(f: tuple[int, ...], p: int, r: int, depth: int = 0) -> bool:
    """Whether the separable integer polynomial f has a root in r + pZ_p.

    A simple root mod p lifts (Hensel); a multiple one is refined by
    passing to f(r + p t) / p^k, which terminates for separable f.
    """
    if depth >= 64:
        raise ArithmeticError("root refinement failed to terminate")
    if poly_eval(f, r) % p:
        return False
    if poly_eval(poly_derivative(f), r) % p:
        return True
    g = _strip_p(tuple(t * p**i for i, t in enumerate(poly_taylor(f, r))), p)
    return any(_has_root_in_class(g, p, s, depth + 1) for s in range(p))


def _honda_tate_admissible(w: WeilPoly2) -> bool:
    """The Honda-Tate flag of the Weil-valid class w.

    These rules hold only for q = p or p^2, with every elliptic trace
    |a| <= 2 sqrt(q) admissible (Waterhouse), which is what the
    ``SUPPORTED_Q`` guard of ``enumerate_surfaces`` ensures:

    * over F_p every Brauer invariant v_p(f_i(0)) / v_p(q) is integral;
    * when h(x) = x^2 + a1 x + (a2 - 2q) splits over Q, f is a product of
      elliptic Weil polynomials (or the square of one, realized since
      every invariant is a multiple of 1/2);
    * the real Weil number sqrt(q), the pair (0, -2q), is covered by the
      first rule at prime q and by the second at square q;
    * otherwise q = p^2 and f is irreducible over Q.  When p | a1 and
      v_p(a2) = 1 the Newton slopes are 1/2 and 3/2, so the invariants at
      p are 1/2 and the flag is False (Rück 1990 asks v_p(a2) >= 2 there):
      10 classes over F_4, 2.4.a_c among them, and 20 over F_9;
    * else the flag is False exactly when f has a Q_p-root of valuation
      1, a linear Q_p-factor with invariant 1/2.
    """
    q, a1, a2 = w.q, w.a1, w.a2
    p, n = prime_power_base(q)
    if n == 1:
        return True
    disc = a1 * a1 - 4 * (a2 - 2 * q)
    if math.isqrt(disc) ** 2 == disc:
        return True
    if a1 % p == 0 and a2 % p == 0 and a2 % (p * p):
        return False
    # roots x = p t of f with t a unit: f(p t) / p^k
    g = _strip_p(tuple(c * p**i for i, c in enumerate((q * q, q * a1, a2, a1, 1))), p)
    return not any(_has_root_in_class(g, p, r) for r in range(1, p))


@lru_cache(maxsize=None)
def _surface_classes(q: int) -> tuple[SurfaceClass, ...]:
    out = []
    for a1 in range(-math.isqrt(16 * q), math.isqrt(16 * q) + 1):
        for a2 in range(-2 * q, a1 * a1 // 4 + 2 * q + 1):
            w = WeilPoly2(q, a1, a2)
            if is_weil_valid(w):
                out.append(SurfaceClass(w, format_label(w), _honda_tate_admissible(w)))
    return tuple(out)


def enumerate_surfaces(q: int) -> list[SurfaceClass]:
    """All Weil-valid (a1, a2) over F_q with admissibility flags.

    Classes are ordered by (a1, a2).  The enumeration is computed once
    per q; each call returns a fresh list.
    """
    if q not in SUPPORTED_Q:
        raise ValueError(f"q must be one of {SUPPORTED_Q}")
    return list(_surface_classes(q))


# ---------------------------------------------------------------------------
# base change


def _power_sums(w: WeilPoly2, count: int) -> list[int]:
    """Power sums s_1..s_count of the four roots of f.

    Newton's identities give s_1..s_4; from k = 5 on the roots satisfy
    f, so s_k = -a1 s_{k-1} - a2 s_{k-2} - q a1 s_{k-3} - q^2 s_{k-4}.
    """
    c1, c2, c3, c4 = -w.a1, -w.a2, -w.q * w.a1, -w.q * w.q
    sums = [c1, c1 * c1 + 2 * c2]
    sums.append(c1 * sums[1] + c2 * sums[0] + 3 * c3)
    sums.append(c1 * sums[2] + c2 * sums[1] + c3 * sums[0] + 4 * c4)
    for _ in range(count - 4):
        sums.append(c1 * sums[-1] + c2 * sums[-2] + c3 * sums[-3] + c4 * sums[-4])
    return sums[:count]


def _base_change_pair(sums: Sequence[int], n: int) -> tuple[int, int]:
    """(a1, a2) over F_{q^n} from the power sums s_1..s_{2n} of f."""
    s_n, s_2n = sums[n - 1], sums[2 * n - 1]
    twice_a2 = s_n * s_n - s_2n
    if twice_a2 % 2:
        raise ArithmeticError(f"s_{n}^2 - s_{2 * n} = {twice_a2} is odd")
    return -s_n, twice_a2 // 2


def base_change(w: WeilPoly2, n: int) -> WeilPoly2:
    """The Weil polynomial over F_{q^n}, with roots the n-th powers.

    Computed exactly over Z from the power sums s_n and s_{2n}; the
    coefficients q^n a1 and q^{2n} follow from a1 by the functional
    equation.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return w
    return WeilPoly2(w.q**n, *_base_change_pair(_power_sums(w, 2 * n), n))


def _is_elliptic_trace(q: int, a: int) -> bool:
    """Whether T^2 + aT + q, |a| <= 2 sqrt(q), is the polynomial of an
    elliptic curve over F_q (Waterhouse 1969, Theorem 4.1).

    With q = p^m: every a prime to p; for even m, a = +-2 sqrt(q),
    a = +-sqrt(q) unless p = 1 mod 3, and a = 0 unless p = 1 mod 4; for
    odd m, a = 0, and a = +-p^((m+1)/2) when p is 2 or 3.
    """
    p, m = prime_power_base(q)
    if a % p:
        return True
    if m % 2 == 0:
        root = p ** (m // 2)
        return abs(a) == 2 * root or (abs(a) == root and p % 3 != 1) or (a == 0 and p % 4 != 1)
    return a == 0 or (p in (2, 3) and abs(a) == p ** ((m + 1) // 2))


def geometric_split_analysis(
    w: WeilPoly2, nmax: int = 24
) -> tuple[int, int] | None:
    """The least n <= nmax with f over F_{q^n} the square of an elliptic class.

    Returns (n, a) when f over F_{q^n} is (T^2 + aT + q^n)^2 and a is the
    trace of an elliptic curve over F_{q^n} (Waterhouse); a square whose
    factor no elliptic curve realizes moves on to the next n.  None means
    no base change in range is such a square — the class is then not
    geometrically isogenous to the square of an elliptic curve within the
    window.  One list of power sums s_1..s_{2 nmax} serves every n.
    """
    if nmax < 1:
        raise ValueError("nmax must be a positive integer")
    sums = _power_sums(w, 2 * nmax)
    qn = 1
    for n in range(1, nmax + 1):
        qn *= w.q
        a1, a2 = _base_change_pair(sums, n)
        if a1 % 2 == 0:
            a = a1 // 2
            if a2 == a * a + 2 * qn:
                if a * a > 4 * qn:
                    raise ArithmeticError(
                        f"|{a}| exceeds 2 sqrt({w.q}^{n}): {format_label(w)} is not Weil-valid"
                    )
                if _is_elliptic_trace(qn, a):
                    return n, a
    return None


# ---------------------------------------------------------------------------
# torsion scans


def torsion_gcd_scan(
    q: int, ell: int, geometric_square_only: bool
) -> tuple[int, list[str]]:
    """Maximum gcd(f(1), ell^100) over admissible classes, with attainers.

    With ``geometric_square_only`` the scan is restricted to classes
    that become a square of an elliptic class over some F_{q^n}, n <= 24.
    Returns the maximum together with the labels attaining it.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    cap = ell**100
    best, attaining = 0, []
    for cls in enumerate_surfaces(q):
        if not cls.honda_tate_admissible:
            continue
        if geometric_square_only and geometric_split_analysis(cls.poly) is None:
            continue
        value = math.gcd(cls.poly.point_count(), cap)
        if value > best:
            best, attaining = value, [cls.label]
        elif value == best:
            attaining.append(cls.label)
    return best, attaining


def qm_prime_bound(q: int) -> set[int]:
    """Primes dividing (1 + a + q)^2 for some integer a with a^2 <= 4q.

    These are the possible prime orders of rational torsion points
    surviving into a quaternionic reduction over F_q, where the point
    count is the square of an elliptic one.
    """
    prime_power_base(q)
    out: set[int] = set()
    for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
        count = 1 + a + q
        if count <= 0:
            raise ArithmeticError(f"1 + {a} + {q} is not a positive point count")
        out.update(primefactors(count))
    return out
