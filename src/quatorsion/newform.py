"""Screening of weight-2 newforms for quaternionic multiplication.

A weight-2 newform f with trivial character and real quadratic Hecke
field Q(sqrt(m)) corresponds to an isogeny class of abelian surfaces A/Q
of GL2-type.  The geometric endomorphism algebra of A grows beyond the
quadratic field exactly when f admits a nontrivial inner twist: a
quadratic character chi_d with conjugate(a_p) = chi_d(p) a_p for all
good p.  When f is not CM (no self-twist) and such a d exists, the
geometric endomorphism algebra is the quaternion algebra (d, m / Q),
and A has potential quaternionic multiplication precisely when that
algebra is a division algebra, i.e. has discriminant > 1.

Coefficient data enters as JSON fixture records storing a_p = u + v
sqrt(m) as exact rational pairs, validated on ingest against the Weil
bound |a_p| <= 2 sqrt(p) at both real embeddings.  The local L-factor
of A at a good prime p evaluates at 1 to the integer

    L_p(1) = Norm(1 - a_p + p) = (1 - u + p)^2 - v^2 m > 0,

which is the order of A(F_p) up to the Euler factors' pairing, and any
rational torsion of A injects into A(F_p); gcds of these values over
several good primes therefore bound the rational torsion order of every
surface in the isogeny class.

The conductor of such a surface is constrained to the rigid shape
2^(2i) 3^(2j) N^4 with N squarefree and coprime to 6;
:func:`conductor_admissible` decides membership and returns the
decomposition.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .exact import (
    factorint,
    fundamental_discriminant,
    isprime,
    kronecker_symbol,
    nextprime,
    primerange,
    rational_square_class,
)
from .quat import QuatAlgebra, discriminant

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "newforms"

#: Smallest coefficient bound considered sufficient for twist detection.
TWIST_COEFF_BOUND = 100

#: Largest |d| scanned for undeclared twist characters.  Inner twists of
#: the surfaces screened here have conductor-(dN) characters with small
#: d; 40 covers every fundamental discriminant that divides a conductor
#: of the admissible shape with room to spare.
TWIST_SCAN_BOUND = 40

#: Fewest witnesses of each character sign required before a twist
#: pattern is believed (rather than vacuously unrefuted).
MIN_WITNESSES = 5


class InconclusiveTwistError(ValueError):
    """Raised when a verdict is requested but the coefficient data is
    too short to decide the twist structure."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, slots=True)
class NewformRecord:
    """A weight-2 newform Galois orbit with real quadratic Hecke field.

    ``ap[p] = (u, v)`` stores a_p = u + v sqrt(m) exactly.
    ``has_self_twist`` is the source's CM flag; None when the source did
    not say (detection then falls back to a heuristic).
    """

    label: str
    level: int
    weight: int
    m: int
    ap: Mapping[int, tuple[Fraction, Fraction]]
    inner_twist_discs: tuple[int, ...] = ()
    has_self_twist: bool | None = None

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level: must be a positive integer")
        if self.weight != 2:
            raise ValueError("weight: must be 2")
        if self.m <= 1 or math.isqrt(self.m) ** 2 == self.m:
            raise ValueError("m: must be a nonsquare integer > 1")

    def ap_at(self, p: int) -> tuple[Fraction, Fraction]:
        """The stored pair (u, v) with a_p = u + v sqrt(m)."""

        try:
            return self.ap[p]
        except KeyError:
            raise ValueError(f"a_{p} is not stored on {self.label}") from None

    def coeff_bound(self) -> int:
        """The largest P such that a_p is stored for every prime <= P."""

        p = 2
        while p in self.ap:
            p = nextprime(p)
        return p - 1


@dataclass(frozen=True, slots=True)
class TwistReport:
    """Outcome of the self-twist and inner-twist checks.

    ``conclusive`` is False when the coefficient list is too short to
    decide (distinct from a negative verdict).  ``basis`` is "sturm" when
    the stored a_p reach :func:`sturm_bound`, so they fix the newform, and
    "evidence" otherwise.  ``self_twist_basis`` records whether the
    self-twist answer came from the source flag ("declared") or from the
    a_p = 0 pattern ("heuristic").
    """

    conclusive: bool
    basis: str
    self_twist: bool
    self_twist_basis: str
    inner_twists: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PqmVerdict:
    """Quaternion criterion outcome: the surface class has potential
    quaternionic multiplication iff ``is_pqm``; then its geometric
    endomorphism algebra is (twist_disc, m / Q) of the given
    discriminant."""

    is_pqm: bool
    twist_disc: int
    quaternion_disc: int

    def __post_init__(self) -> None:
        if self.is_pqm and self.quaternion_disc == 1:
            raise ValueError("a PQM verdict needs a division algebra "
                             "(quaternion_disc > 1)")


# ---------------------------------------------------------------------------
# ingest


def _require(doc: Mapping, field: str, kind: type) -> object:
    if field not in doc:
        raise ValueError(f"{field}: missing")
    value = doc[field]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{field}: expected {kind.__name__}")
    return value


def load_record(doc: Mapping | str | bytes) -> NewformRecord:
    """Validate a newform fixture document into a :class:`NewformRecord`.

    Accepts a parsed JSON object or raw JSON text.  Unknown keys are
    tolerated; schema violations raise ValueError naming the field.
    Coefficients at primes not dividing the level must satisfy the Weil
    bound at both real embeddings.
    """

    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, Mapping):
        raise ValueError("document: expected a JSON object")

    label = _require(doc, "label", str)
    level = _require(doc, "level", int)
    _require(doc, "weight", int)
    if doc["weight"] != 2:
        raise ValueError("weight: must be 2")
    m = _require(doc, "m", int)
    raw_ap = _require(doc, "ap", Mapping)

    raw_inner = doc.get("inner_twists", [])
    if not isinstance(raw_inner, (list, tuple)) or any(
        isinstance(d, bool) or not isinstance(d, int) for d in raw_inner
    ):
        raise ValueError("inner_twists: expected a list of integers")
    inner = list(raw_inner)

    self_twist = doc.get("self_twist")
    if self_twist is not None and not isinstance(self_twist, bool):
        raise ValueError("self_twist: expected a boolean")

    ap: dict[int, tuple[Fraction, Fraction]] = {}
    for key, quad in raw_ap.items():
        try:
            p = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"ap: key {key!r} is not a prime") from None
        if not isprime(p):
            raise ValueError(f"ap: key {key!r} is not a prime")
        if (
            not isinstance(quad, (list, tuple))
            or len(quad) != 4
            or any(isinstance(x, bool) or not isinstance(x, int) for x in quad)
        ):
            raise ValueError(f"ap[{p}]: expected [u_num, u_den, v_num, v_den]")
        u_num, u_den, v_num, v_den = quad
        if u_den == 0 or v_den == 0:
            raise ValueError(f"ap[{p}]: zero denominator")
        ap[p] = (Fraction(u_num, u_den), Fraction(v_num, v_den))

    record = NewformRecord(
        label=label,
        level=level,
        weight=2,
        m=m,
        ap=ap,
        inner_twist_discs=tuple(inner),
        has_self_twist=self_twist,
    )

    for p, (u, v) in ap.items():
        if level % p == 0:
            continue  # bad Euler factors are stored as given
        if not _weil_bounded(u, v, m, p):
            raise ValueError(
                f"ap[{p}]: {u} + {v} sqrt({m}) violates the Weil bound"
            )

    if record.has_self_twist is not True and all(v == 0 for _, v in ap.values()):
        raise ValueError(
            "ap: every coefficient is rational but the record does not "
            "declare a self-twist"
        )
    return record


def _weil_bounded(u: Fraction, v: Fraction, m: int, p: int) -> bool:
    """Whether |u| + |v| sqrt(m) <= 2 sqrt(p), exactly in rationals.

    Squaring twice: with A = u^2 + m v^2 and B = |2 u v|, the condition
    is A + B sqrt(m) <= 4p, i.e. A <= 4p and (4p - A)^2 >= B^2 m.
    """

    A = u * u + m * v * v
    if A > 4 * p:
        return False
    B2 = (2 * u * v) ** 2
    return (4 * p - A) ** 2 >= B2 * m


def load_fixture(name: str | Path) -> NewformRecord:
    """Load a packaged fixture by label, or any fixture file by path."""

    path = Path(name)
    if path.suffix != ".json":
        path = FIXTURE_DIR / f"{name}.json"
    return load_record(path.read_text())


def packaged_fixtures() -> list[str]:
    """Labels of the newform fixtures shipped with the package."""

    return sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


# ---------------------------------------------------------------------------
# L-factors and torsion bounds


def lp_at_one(record: NewformRecord, p: int) -> int:
    """The integer Norm(1 - a_p + p) = (1 - u + p)^2 - v^2 m at good p.

    This is the value at 1 of the degree-4 local L-factor of any surface
    in the isogeny class, hence a multiple of its rational torsion
    order.  Primes dividing the level are out of scope.
    """

    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if record.level % p == 0:
        raise ValueError(
            f"p = {p} divides the level {record.level}; bad Euler factors "
            "are out of scope"
        )
    u, v = record.ap_at(p)
    value = (1 - u + p) ** 2 - v * v * record.m
    if value.denominator != 1:
        raise ValueError(f"a_{p} of {record.label} is not an algebraic integer")
    return int(value)


def torsion_divisor_bound(record: NewformRecord, primes: Iterable[int]) -> int:
    """gcd of lp_at_one over the given good primes: the rational torsion
    order of every surface in the isogeny class divides it."""

    values = [lp_at_one(record, p) for p in primes]
    if not values:
        raise ValueError("need at least one prime")
    return math.gcd(*values)


# ---------------------------------------------------------------------------
# twists


@lru_cache(maxsize=None)
def _fundamental_discriminants(bound: int) -> tuple[int, ...]:
    """Fundamental discriminants d with 1 < |d| <= bound, ascending: the
    nonsquares d that are the discriminant of Q(sqrt d)."""

    return tuple(
        d
        for d in range(-bound, bound + 1)
        if d
        and not rational_square_class(d)[1]
        and fundamental_discriminant(d) == d
    )


def _inner_twist_holds(record: NewformRecord, d: int, bound: int) -> bool:
    """Whether chi_d(p) a_p = conjugate(a_p) for all stored good p <= bound
    coprime to d, with at least MIN_WITNESSES of each character sign."""

    seen = {1: 0, -1: 0}
    for p in primerange(2, bound + 1):
        if d % p == 0 or record.level % p == 0:
            continue
        u, v = record.ap_at(p)
        chi = kronecker_symbol(d, p)
        # chi = +1 needs v = 0; chi = -1 needs u = 0
        if chi == 1 and v != 0:
            return False
        if chi == -1 and u != 0:
            return False
        if chi == 1 and (u, v) != (0, 0) or chi == -1 and v != 0:
            seen[chi] += 1
    return seen[1] >= MIN_WITNESSES and seen[-1] >= MIN_WITNESSES


def _self_twist_holds(record: NewformRecord, d: int, bound: int) -> bool:
    """Whether a_p = 0 at every stored good p <= bound inert for d, with
    at least MIN_WITNESSES inert witnesses."""

    inert = 0
    for p in primerange(2, bound + 1):
        if d % p == 0 or record.level % p == 0:
            continue
        if kronecker_symbol(d, p) == -1:
            if record.ap_at(p) != (0, 0):
                return False
            inert += 1
    return inert >= MIN_WITNESSES


def sturm_bound(level: int) -> int:
    """The weight-2 Sturm bound of Gamma_0(N), the least integer at least
    N prod_{p | N} (1 + 1/p) / 6: forms whose a_n agree up to it are equal."""

    primes = factorint(level)
    index = level // math.prod(primes) * math.prod(p + 1 for p in primes)
    return -(-index // 6)


def twist_checks(record: NewformRecord) -> TwistReport:
    """Detect the self-twist flag and the nontrivial inner twists.

    Inner twist by chi_d means conjugate(a_p) = chi_d(p) a_p for every
    good p coprime to d: split primes have rational a_p, inert primes
    have pure v sqrt(m) coefficients.  Declared discriminants are
    verified and small fundamental discriminants are scanned, so an
    empty declaration still finds the twists.  With fewer coefficients
    than TWIST_COEFF_BOUND the report is marked inconclusive rather
    than negative.
    """

    P = record.coeff_bound()
    basis = "sturm" if P >= sturm_bound(record.level) else "evidence"
    if P < TWIST_COEFF_BOUND:
        return TwistReport(
            conclusive=False,
            basis=basis,
            self_twist=False,
            self_twist_basis="",
            inner_twists=(),
        )

    candidates = sorted(
        set(_fundamental_discriminants(TWIST_SCAN_BOUND))
        | {d for d in record.inner_twist_discs if d != 1},
        key=lambda d: (abs(d), d),
    )
    accepted = tuple(
        d for d in candidates if _inner_twist_holds(record, d, P)
    )

    if record.has_self_twist is not None:
        self_twist, self_twist_basis = record.has_self_twist, "declared"
    else:
        self_twist = any(
            _self_twist_holds(record, d, P)
            for d in _fundamental_discriminants(TWIST_SCAN_BOUND)
            if d < 0
        )
        self_twist_basis = "heuristic"
    return TwistReport(
        conclusive=True,
        basis=basis,
        self_twist=self_twist,
        self_twist_basis=self_twist_basis,
        inner_twists=accepted,
    )


def pqm_criterion(record: NewformRecord) -> PqmVerdict:
    """Quaternion criterion: no self-twist, some nontrivial inner twist
    d, and (d, m / Q) a division algebra.

    The verdict carries the twist discriminant used and the discriminant
    of (d, m / Q) (1 when split).  Inconclusive twist data raises
    :class:`InconclusiveTwistError`.
    """

    report = twist_checks(record)
    if not report.conclusive:
        raise InconclusiveTwistError(
            f"{record.label}: coefficients up to {record.coeff_bound()} are "
            f"not enough to decide twists (need {TWIST_COEFF_BOUND})"
        )
    if not report.inner_twists:
        return PqmVerdict(is_pqm=False, twist_disc=0, quaternion_disc=1)
    discs = {
        d: discriminant(QuatAlgebra(d, record.m)) for d in report.inner_twists
    }
    ramified = [d for d in report.inner_twists if discs[d] > 1]
    if not ramified:
        d = report.inner_twists[0]
        return PqmVerdict(is_pqm=False, twist_disc=d, quaternion_disc=1)
    d = ramified[0]
    return PqmVerdict(
        is_pqm=not report.self_twist,
        twist_disc=d,
        quaternion_disc=discs[d],
    )


# ---------------------------------------------------------------------------
# conductor shape


def conductor_admissible(cond: int) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether cond = 2^(2i) 3^(2j) N^4 with 0 <= i <= 10, 0 <= j <= 5,
    N squarefree and coprime to 6; returns (flag, (i, j, N) or None)."""

    if cond < 1:
        raise ValueError("conductor must be a positive integer")
    exponents = factorint(cond)
    e2, e3 = exponents.pop(2, 0), exponents.pop(3, 0)
    if e2 % 2 or e2 // 2 > 10 or e3 % 2 or e3 // 2 > 5:
        return False, None
    # every prime exponent of N^4 is exactly 4
    if any(e != 4 for e in exponents.values()):
        return False, None
    return True, (e2 // 2, e3 // 2, math.prod(exponents))
