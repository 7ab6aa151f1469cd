#!/usr/bin/env python3
"""Generate the per-q isogeny class fixtures for abelian surfaces.

For each supported q this enumerates the Weil-valid coefficient pairs
(a1, a2) and keeps those admissible by Honda-Tate theory, writing
src/quatorsion/fixtures/av/av_classes_q{q}.json.  The admissibility
computation is exact:

* If f = (T^2 + uT + q)(T^2 + vT + q) over Z, the class exists exactly
  when each quadratic is an elliptic Weil polynomial (Waterhouse's
  theorem) -- except that a square g^2 of an irreducible quadratic is
  also realized by a simple surface whenever the division algebra
  attached to its Weil number has period 2, which for q = p or p^2 is
  automatic whenever g is not elliptic.
* f = (T^2 - q)^2 with q non-square comes from the real Weil number
  sqrt(q) and is always admissible.
* An irreducible quartic f corresponds to a surface exactly when every
  Brauer invariant of its endomorphism algebra vanishes; the invariant
  at the place of Q(pi) under a Q_p-irreducible factor f_i is
  v_p(f_i(0)) / v_p(q) mod 1.  Over prime fields all invariants are
  integral; over q = p^2 they all vanish exactly when f has no root of
  p-adic valuation 1 in Q_p, which is decided by exact root counting
  in Z_p.

The script checks the class counts and the point-count anchors that the
test suite relies on before writing anything; a failed check raises
ArithmeticError, also under ``python -O``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from quatorsion.weil import (
    SUPPORTED_Q,
    WeilPoly2,
    format_label,
    geometric_split_analysis,
    is_weil_valid,
    prime_power_base,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "quatorsion" / "fixtures" / "av"

# Over a prime field every valid pair is admissible, so those counts are
# pure enumeration; q = 4 has no exclusions either, while q = 9 excludes
# six irreducible quartics whose slope-1 segments split over Q_3 (the
# pairs (+-1, 15), (+-2, -3), (+-4, 12), each with a Hensel-certified
# root of valuation 1).
EXPECTED_COUNTS = {2: 35, 3: 63, 4: 101, 5: 129, 7: 207, 9: 305}


def check(ok: bool, message: str) -> None:
    """Raise ArithmeticError unless ok (an assert would vanish under -O)."""
    if not ok:
        raise ArithmeticError(message)


def elliptic_admissible(q: int, a: int) -> bool:
    """Waterhouse: T^2 + aT + q is the polynomial of an elliptic curve."""
    p, n = prime_power_base(q)
    if a * a > 4 * q:
        return False
    if a % p != 0:
        return True
    if n % 2 == 0:
        root = p ** (n // 2)
        if abs(a) == 2 * root:
            return True
        if abs(a) == root and p % 3 != 1:
            return True
        return a == 0 and p % 4 != 1
    if a == 0:
        return True
    return p in (2, 3) and abs(a) == p ** ((n + 1) // 2)


def _compose_affine(coeffs: list[int], shift: int, scale: int) -> list[int]:
    """Coefficients (low to high) of g(shift + scale * t)."""
    out = [0] * len(coeffs)
    for i, gi in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += gi * math.comb(i, j) * shift ** (i - j) * scale**j
    return out


def _eval_poly(coeffs: list[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _strip_content(coeffs: list[int], p: int) -> list[int]:
    out = list(coeffs)
    while all(c % p == 0 for c in out if c) and any(out):
        out = [c // p for c in out]
    return out


def _count_roots_in_class(coeffs: list[int], p: int, r: int, depth: int = 0) -> int:
    """Number of roots of a separable integer polynomial in r + pZ_p."""
    check(depth < 64, "root refinement failed to terminate")
    if _eval_poly(coeffs, r) % p != 0:
        return 0
    if _eval_poly(_derivative(coeffs), r) % p != 0:
        return 1  # simple root mod p lifts uniquely
    refined = _strip_content(_compose_affine(coeffs, r, p), p)
    return sum(
        _count_roots_in_class(refined, p, s, depth + 1) for s in range(p)
    )


def has_valuation_one_root(q: int, a1: int, a2: int) -> bool:
    """Whether T^4 + a1T^3 + a2T^2 + qa1T + q^2 has a Q_p-root of valuation 1."""
    p, n = prime_power_base(q)
    if n != 2:
        raise ValueError(f"q = {q} is not the square of a prime")
    f = [q * q, q * a1, a2, a1, 1]
    g = _strip_content(_compose_affine(f, 0, p), p)
    return any(_count_roots_in_class(g, p, r) > 0 for r in range(1, p))


def surface_admissible(q: int, a1: int, a2: int) -> bool:
    """Honda-Tate: the valid pair (a1, a2) belongs to an abelian surface."""
    p, n = prime_power_base(q)
    if n > 2:
        raise ValueError("the period-2 shortcut below is specific to n <= 2")
    disc = a1 * a1 - 4 * (a2 - 2 * q)
    root = math.isqrt(disc)
    if root * root == disc:
        check((a1 + root) % 2 == 0, f"odd split of ({a1}, {a2})")
        u, v = (a1 + root) // 2, (a1 - root) // 2
        if u != v:
            return elliptic_admissible(q, u) and elliptic_admissible(q, v)
        # the square g^2 of an elliptic class is E x E; the square of an
        # irreducible non-elliptic quadratic is a simple surface whenever
        # the attached algebra has period 2, which holds for n <= 2 since
        # every Brauer invariant is a multiple of 1/2 there
        return True
    if (a1, a2) == (0, -2 * q):
        return True  # the real Weil number sqrt(q), q non-square here
    if n == 1:
        return True  # invariants v_p(f_i(0))/1 are integers
    return not has_valuation_one_root(q, a1, a2)


def isogeny_classes(q: int) -> list[tuple[int, int]]:
    out = []
    for a1 in range(-math.isqrt(16 * q), math.isqrt(16 * q) + 1):
        for a2 in range(-2 * q, a1 * a1 // 4 + 2 * q + 1):
            if is_weil_valid(WeilPoly2(q, a1, a2)) and surface_admissible(q, a1, a2):
                out.append((a1, a2))
    return out


def check_anchors(classes: dict[int, list[tuple[int, int]]]) -> None:
    for q, expected in EXPECTED_COUNTS.items():
        check(len(classes[q]) == expected, f"q = {q}: {len(classes[q])} classes, want {expected}")

    def f1(q: int, pair: tuple[int, int]) -> int:
        return WeilPoly2(q, *pair).point_count()

    nine = [pair for pair in classes[2] if f1(2, pair) % 9 == 0]
    check(nine == [(0, 4), (1, 1)], f"q = 2, 9 | #A: {nine}")
    seventy_two = [pair for pair in classes[5] if f1(5, pair) % 72 == 0]
    check(seventy_two == [(5, 16)], f"q = 5, 72 | #A: {seventy_two}")

    def split_part(q: int, ell: int) -> int:
        best = 1
        for pair in classes[q]:
            w = WeilPoly2(q, *pair)
            if geometric_split_analysis(w) is not None:
                best = max(best, math.gcd(w.point_count(), ell**100))
        return best

    check(split_part(3, 2) == 16, f"q = 3 split 2-part: {split_part(3, 2)}")
    check(split_part(2, 3) == 9, f"q = 2 split 3-part: {split_part(2, 3)}")


def main() -> None:
    classes = {q: isogeny_classes(q) for q in SUPPORTED_Q}
    check_anchors(classes)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for q, pairs in classes.items():
        entries = [
            {"label": format_label(WeilPoly2(q, a1, a2)), "a1": a1, "a2": a2}
            for a1, a2 in pairs
        ]
        path = FIXTURE_DIR / f"av_classes_q{q}.json"
        path.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"q={q}: {len(entries)} classes -> {path.name}")


if __name__ == "__main__":
    main()
