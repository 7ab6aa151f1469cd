"""The F_{p^2} point-count grid: an O(p^2) oracle for L-polynomials.

``count_model`` evaluates f at every x in F_p or F_{p^2} with numpy, and
``oracle_lpoly`` turns the two counts into the Weil polynomial.  The
library computes L-polynomials from the Hasse-Witt matrix instead; the
tests compare it with this grid.
"""

from __future__ import annotations

import numpy as np

from quatorsion.genus2.curve import lpoly_from_counts
from quatorsion.weil import WeilPoly2


def _square_table(p: int) -> np.ndarray:
    """chi[a] = 1 if a is a nonzero square mod p, else 0 (chi[0] = 0)."""
    xs = np.arange(p, dtype=np.int64)
    chi = np.zeros(p, dtype=np.int64)
    chi[(xs * xs) % p] = 1
    chi[0] = 0
    return chi


def count_model(coeffs, p: int, n: int) -> int:
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


def oracle_lpoly(coeffs, p: int) -> WeilPoly2:
    """The Weil polynomial from the grid counts over F_p and F_{p^2}."""
    return lpoly_from_counts(count_model(coeffs, p, 1), count_model(coeffs, p, 2), p)
