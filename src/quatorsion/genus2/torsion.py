"""Certification of claimed rational torsion on genus-2 Jacobians.

Two cheap, independent necessary conditions are checked against a claimed
torsion subgroup T of J(Q):

* injectivity of reduction: #T must divide #J(F_p) at every odd prime of
  good reduction, so in particular it divides their gcd;
* rational 2-torsion is visible in the factorization of f over Q: the
  Galois orbits of the six (or five plus infinity) Weierstrass points
  give #J(Q)[2] exactly, as a count depending only on the factor
  degrees (``two_torsion_count``), and the claimed 2-torsion must fit
  in it.

A report is CONSISTENT when both hold over all good odd primes up to the
chosen bound; it can never prove the claim, only fail to refute it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path

from ..exact import factor_poly_q, poly_degree, validate_invariants
from .curve import GenusTwoCurve, curve_lpolys

_FIXTURE_DIR = Path(__file__).parents[1] / "fixtures" / "genus2"


# ---------------------------------------------------------------------------
# 2-torsion from Weierstrass orbits
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


def _rational_two_torsion_bound(curve: GenusTwoCurve) -> int:
    """#J(Q)[2], exactly, from the degrees of the factors of f over Q."""
    _, factors = factor_poly_q(curve.coeffs)
    return two_torsion_count([poly_degree(f) for f in factors])


# ---------------------------------------------------------------------------
# certification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CertificationReport:
    """Outcome of checking a claimed torsion subgroup against reductions.

    ``orders`` lists (p, #J(F_p)) over the good odd primes used;
    ``divisibility_failures`` the primes where the claimed order does not
    divide #J(F_p); ``two_torsion_lower`` the Weierstrass-orbit count,
    which is #J(Q)[2] exactly (the name is kept from when it was read as
    a lower bound), compared against the claimed exponent-2 subgroup.
    """

    curve: GenusTwoCurve
    claimed: tuple[int, ...]
    prime_bound: int
    orders: tuple[tuple[int, int], ...]
    divisibility_failures: tuple[int, ...]
    order_gcd: int
    two_torsion_lower: int
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"


def certify_torsion(
    curve: GenusTwoCurve, claimed, prime_bound: int = 200
) -> CertificationReport:
    """Check a claimed torsion structure (invariant factors) on J(Q).

    ``claimed`` is the invariant-factor chain of the claimed subgroup,
    e.g. (2, 2) or (6,).  The verdict is CONSISTENT when the claimed
    order divides #J(F_p) at every good odd prime up to ``prime_bound``
    and the claimed 2-torsion fits in #J(Q)[2], which the Weierstrass
    orbits count exactly, INCONSISTENT otherwise.

    Each #J(F_p) is exact: ``curve_lpolys`` either yields the one
    L-polynomial its checks leave or raises.  Its Hasse-Witt recurrence
    runs once for all good p <= B = ``prime_bound``: about B steps on
    integers of about 1.44 B bits, with memory of O(B) bits.
    """
    claimed = validate_invariants(claimed)
    orders = tuple((p, w.point_count()) for p, w in curve_lpolys(curve, prime_bound))
    if not orders:
        raise ValueError(f"no good odd primes up to {prime_bound}")

    claimed_order = prod(claimed)
    failures = tuple(p for p, n in orders if n % claimed_order)
    order_gcd = gcd(*(n for _, n in orders))
    two_lower = _rational_two_torsion_bound(curve)
    claimed_two = 2 ** sum(1 for d in claimed if d % 2 == 0)
    ok = not failures and claimed_two <= two_lower
    return CertificationReport(
        curve=curve,
        claimed=claimed,
        prime_bound=prime_bound,
        orders=orders,
        divisibility_failures=failures,
        order_gcd=order_gcd,
        two_torsion_lower=two_lower,
        verdict="CONSISTENT" if ok else "INCONSISTENT",
    )


# ---------------------------------------------------------------------------
# the five certified curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TableCurve:
    """A certified curve: claimed torsion, quaternion discriminant, endos."""

    torsion: tuple[int, ...]
    quaternion_disc: int
    endomorphisms: str
    curve: GenusTwoCurve


def table_curves() -> tuple[TableCurve, ...]:
    """The five certified PQM curves with their claimed torsion."""
    rows = json.loads((_FIXTURE_DIR / "table_curves.json").read_text())
    return tuple(
        TableCurve(
            torsion=tuple(row["torsion"]),
            quaternion_disc=row["quaternion_disc"],
            endomorphisms=row["endomorphisms"],
            curve=GenusTwoCurve.from_coefficients(row["f"]),
        )
        for row in rows
    )
