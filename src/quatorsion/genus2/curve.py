"""Genus-2 curves y^2 = f(x) over Q and their zeta data at good primes.

A curve is stored as the integer coefficient vector of f (degree 5 or 6,
ascending order) together with the discriminant of f viewed as a binary
sextic form: for deg f = 6 this is disc(f), for deg f = 5 it is
lead(f)^2 * disc(f), which is the specialization of the universal binary
sextic discriminant at c6 = 0.  A prime p is good exactly when p is odd
and prime to that form discriminant; this keeps primes where the degree
drops but the reduction stays smooth (the leading coefficient vanishes
mod p while the quintic reduction is squarefree).

Point counts over F_p and F_{p^2} determine the L-polynomial of the
reduction, returned as a Weil q-polynomial.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import sympy

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
        for q, e in sympy.factorint(content).items():
            square *= int(q) ** (e // 2)
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
    x = sympy.Symbol("x")
    f = sum(int(c) * x**i for i, c in enumerate(coeffs))
    if coeffs[6]:
        return int(sympy.discriminant(f, x))
    return int(coeffs[5]) ** 2 * int(sympy.discriminant(f, x))


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


def curve_from_json(obj) -> GenusTwoCurve:
    """Build a curve from ``{"f": [c0, ..., c6]}`` (dict or JSON text)."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "f" not in obj:
        raise ValueError('curve JSON must be an object with an "f" array')
    return GenusTwoCurve.from_coefficients(obj["f"])


# ---------------------------------------------------------------------------
# curve labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CurveLabel:
    """LMFDB-style genus-2 curve label ``conductor.class.disc.number``."""

    conductor: int
    isogeny_class: str
    discriminant: int
    number: int


_CLASS_CODE = re.compile(r"[a-z]+$")


def parse_curve_label(s: str) -> CurveLabel:
    """Decode a genus-2 curve label such as ``20736.l.373248.1``."""
    parts = s.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed genus-2 curve label {s!r}")
    cond, cls, disc, num = parts
    if not (cond.isdigit() and disc.isdigit() and num.isdigit()):
        raise ValueError(f"malformed genus-2 curve label {s!r}")
    if not _CLASS_CODE.match(cls):
        raise ValueError(f"malformed genus-2 curve label {s!r}")
    label = CurveLabel(int(cond), cls, int(disc), int(num))
    if label.conductor < 1 or label.discriminant < 1 or label.number < 1:
        raise ValueError(f"malformed genus-2 curve label {s!r}")
    return label


def format_curve_label(label: CurveLabel) -> str:
    """Encode a genus-2 curve label back to its dotted string form."""
    return (
        f"{label.conductor}.{label.isogeny_class}"
        f".{label.discriminant}.{label.number}"
    )


# ---------------------------------------------------------------------------
# good primes and point counting
# ---------------------------------------------------------------------------


def good_prime(curve: GenusTwoCurve, p: int) -> bool:
    """Whether the reduction of the curve mod p is a smooth genus-2 curve."""
    return p != 2 and sympy.isprime(p) and curve.binary_disc % p != 0


def good_primes(curve: GenusTwoCurve, bound: int) -> list[int]:
    """All good primes p <= bound, ascending."""
    return [p for p in sympy.primerange(3, bound + 1) if good_prime(curve, p)]


def _square_table(p: int) -> np.ndarray:
    """chi[a] = 1 if a is a nonzero square mod p, else 0 (chi[0] = 0)."""
    xs = np.arange(p, dtype=np.int64)
    chi = np.zeros(p, dtype=np.int64)
    chi[(xs * xs) % p] = 1
    chi[0] = 0
    return chi


def _count_model(coeffs, p: int, n: int) -> int:
    """#C(F_{p^n}) for the reduced model mod p, n in {1, 2}.

    The model must stay squarefree of degree 5 or 6 mod p (a good prime):
    then the smooth curve has one point at infinity in degree 5, and two
    in degree 6 exactly when the leading coefficient is a square in the
    field (always so in F_{p^2}, where F_p* consists of squares).
    """
    c = [int(v) % p for v in coeffs]
    deg = 6 if c[6] else 5
    chi = _square_table(p)
    # solutions of y^2 = a number 2*chi[a] + (a == 0)
    if n == 1:
        xs = np.arange(p, dtype=np.int64)
        vals = np.full(p, c[deg], dtype=np.int64)
        for i in range(deg - 1, -1, -1):
            vals = (vals * xs + c[i]) % p
        affine = 2 * int(chi[vals].sum()) + int(np.count_nonzero(vals == 0))
        infinity = 1 if deg == 5 else 2 * int(chi[c[6]])
        return affine + infinity

    # F_{p^2} = F_p(s) with s^2 = r a non-residue; x = u + v s, and
    # a = A + B s is a nonzero square iff its norm A^2 - r B^2 is a
    # nonzero square in F_p.  Rows v and p - v hold conjugate x, whose
    # values f(x) are conjugate with equal norms: only rows
    # v = 0..(p-1)/2 are evaluated, and rows v >= 1 count twice.
    r = 2
    while chi[r]:
        r += 1
    u, v = np.meshgrid(
        np.arange(p, dtype=np.int64), np.arange((p + 1) // 2, dtype=np.int64)
    )
    A = np.full_like(u, c[deg])
    B = np.zeros_like(u)
    for i in range(deg - 1, -1, -1):
        A, B = (A * u + r * (B * v) % p + c[i]) % p, (A * v + B * u) % p
    norm = (A * A - r * (B * B) % p) % p
    sols = 2 * chi[norm] + (norm == 0)
    affine = 2 * int(sols.sum()) - int(sols[0].sum())
    infinity = 1 if deg == 5 else 2
    return affine + infinity


def count_points_curve(curve: GenusTwoCurve, p: int, n: int = 1) -> int:
    """#C(F_{p^n}) of the reduction mod a good prime p, for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError("only n = 1 and n = 2 are supported")
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    return _count_model(curve.coeffs, p, n)


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


def curve_lpoly(curve: GenusTwoCurve, p: int) -> WeilPoly2:
    """Weil polynomial of the reduction of the curve mod a good prime p."""
    return lpoly_from_counts(
        count_points_curve(curve, p, 1), count_points_curve(curve, p, 2), p
    )
