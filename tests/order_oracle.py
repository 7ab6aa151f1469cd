"""Rational oracles for the integer order arithmetic of ``quatorsion.quat``.

``QuatOrder`` is built and used in integers; these are the ``Fraction``
computations it replaced, kept to test it: a Gauss-Jordan inverse of a
rational matrix, coordinates through that inverse, and the enlargement
step that scans every residue of O/pO.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from quatorsion import quat


def mat_inverse(rows: Sequence[Sequence[int | Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [
        [Fraction(c) for c in row] + [Fraction(int(i == r)) for i in range(n)]
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


def vec_mat(vec: Sequence[Fraction], mat: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """The row vector vec times the matrix mat."""
    return tuple(sum((v * row[c] for v, row in zip(vec, mat)), Fraction(0)) for c in range(len(mat[0])))


def coordinates(order: quat.QuatOrder, x: quat.QuatElt) -> tuple[Fraction, ...]:
    """Coordinates of x in the order basis through the rational inverse."""
    return vec_mat(x.coords, mat_inverse(order.basis_matrix()))


def enlarge_by_full_scan(order: quat.QuatOrder, p: int) -> quat.QuatOrder | None:
    """The first order O + Z(v/p) over all residues v of O/pO, lexicographically.

    Each residue is screened by integral trd(v/p) and nrd(v/p), both
    necessary, before ``from_basis`` decides.
    """
    rows = order.basis_matrix()
    gram = order.norm_form
    for c in itertools.product(range(p), repeat=4):
        if not any(c):
            continue
        if sum(ci * ti for ci, ti in zip(c, order.traces)) % p:
            continue
        if sum(c[r] * gram[r][s] * c[s] for r in range(4) for s in range(4)) % (2 * p * p):
            continue
        w = sum((e.scale(Fraction(ci, p)) for e, ci in zip(order.basis, c)), order.algebra.element(0))
        try:
            return quat.QuatOrder.from_basis(order.algebra, rows + [list(w.coords)])
        except ValueError:
            continue
    return None
