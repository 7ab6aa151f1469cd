"""Rational quaternion algebras, their orders, normalizers, Atkin-Lehner structure.

Conventions
-----------
* ``B = (a, b | Q)`` has basis ``1, i, j, k`` with ``i^2 = a``, ``j^2 = b``,
  ``k = ij = -ji``; consequently ``k^2 = -ab``, ``ik = aj``, ``ki = -aj``,
  ``jk = -bi``, ``kj = bi``.
* Elements carry coordinates ``(t, x, y, z)`` over Q with respect to
  ``1, i, j, k``.  The canonical involution is
  ``conj(t, x, y, z) = (t, -x, -y, -z)``, the reduced trace ``trd = 2t``
  and the reduced norm ``nrd = t^2 - a x^2 - b y^2 + a b z^2``.
* An order is a rank-4 lattice containing 1, closed under multiplication,
  with integral reduced traces and norms.  Its canonical basis comes from
  the Hermite normal form of the lattice with the coordinates taken in
  the order ``(x, y, z, t)``: the last Hermite row spans the lattice's
  meet with Q, so it is 1 (1 is primitive in any order because
  trd(1/n) = 2/n), and the basis is 1 followed by the three rows above
  it, whose scalar parts lie in [0, 1).  It depends only on the lattice,
  so ``==`` on orders is equality of lattices.
* ``reduced_discriminant(O)``  is the positive square root of
  ``|det(trd(e_i e_j))|``; it equals the algebra discriminant exactly for
  maximal orders, and picks up a factor ``[O':O]`` under passing to a
  suborder.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import det_bareiss, factorint, hilbert_symbol, hnf_rows, mat_inverse

__all__ = [
    "QuatAlgebra",
    "QuatElt",
    "QuatOrder",
    "ramified_places",
    "discriminant",
    "standard_order",
    "maximal_order",
    "reduced_discriminant",
    "is_maximal",
    "saturate_to_maximal",
    "is_in_normalizer",
    "norm_divides_discriminant",
    "atkin_lehner_group",
    "find_trace_zero",
    "order_to_json",
    "order_from_json",
]

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class QuatAlgebra:
    """The quaternion algebra (a, b | Q) with i^2 = a, j^2 = b, ij = -ji."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion algebra parameters must be nonzero")

    def element(self, t=0, x=0, y=0, z=0) -> "QuatElt":
        return QuatElt(self, (_frac(t), _frac(x), _frac(y), _frac(z)))

    @property
    def one(self) -> "QuatElt":
        return self.element(1)

    @property
    def i(self) -> "QuatElt":
        return self.element(0, 1)

    @property
    def j(self) -> "QuatElt":
        return self.element(0, 0, 1)

    @property
    def k(self) -> "QuatElt":
        return self.element(0, 0, 0, 1)

    def __repr__(self) -> str:
        return f"QuatAlgebra({self.a}, {self.b})"


@dataclass(frozen=True, slots=True)
class QuatElt:
    """An element of a rational quaternion algebra, coordinates w.r.t. 1,i,j,k."""

    algebra: QuatAlgebra
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(_frac(c) for c in self.coords))
        if len(self.coords) != 4:
            raise ValueError("quaternion coordinates must have length 4")

    # -- ring operations ----------------------------------------------------

    def _require_same_algebra(self, other: "QuatElt") -> None:
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different quaternion algebras")

    def __add__(self, other: "QuatElt") -> "QuatElt":
        self._require_same_algebra(other)
        return QuatElt(self.algebra, tuple(u + v for u, v in zip(self.coords, other.coords)))

    def __sub__(self, other: "QuatElt") -> "QuatElt":
        self._require_same_algebra(other)
        return QuatElt(self.algebra, tuple(u - v for u, v in zip(self.coords, other.coords)))

    def __neg__(self) -> "QuatElt":
        return QuatElt(self.algebra, tuple(-c for c in self.coords))

    def __mul__(self, other) -> "QuatElt":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_algebra(other)
        a, b = self.algebra.a, self.algebra.b
        t1, x1, y1, z1 = self.coords
        t2, x2, y2, z2 = other.coords
        return QuatElt(
            self.algebra,
            (
                t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
                t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
                t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
                t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
            ),
        )

    def __rmul__(self, other) -> "QuatElt":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "QuatElt":
        c = _frac(c)
        return QuatElt(self.algebra, tuple(c * u for u in self.coords))

    def __pow__(self, n: int) -> "QuatElt":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.algebra.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- involution, trace, norm --------------------------------------------

    def conj(self) -> "QuatElt":
        t, x, y, z = self.coords
        return QuatElt(self.algebra, (t, -x, -y, -z))

    def trd(self) -> Fraction:
        return 2 * self.coords[0]

    def nrd(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        t, x, y, z = self.coords
        return t * t - a * x * x - b * y * y + a * b * z * z

    def inverse(self) -> "QuatElt":
        n = self.nrd()
        if n == 0:
            raise ZeroDivisionError("element of reduced norm zero has no inverse")
        return self.conj().scale(Fraction(1) / n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def scalar_part(self) -> Fraction:
        if not self.is_scalar():
            raise ValueError(f"{self} is not a scalar")
        return self.coords[0]

    def is_scalar(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __repr__(self) -> str:
        names = ("", "i", "j", "k")
        parts = [f"{c}{n}" if n else f"{c}" for c, n in zip(self.coords, names) if c != 0]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# algebra invariants


def ramified_places(alg: QuatAlgebra) -> tuple[frozenset[int], bool]:
    """Finite ramified primes of (a, b) and whether the real place ramifies."""
    a, b = alg.a, alg.b
    candidates = {2}
    for value in (a.numerator, a.denominator, b.numerator, b.denominator):
        candidates.update(p for p in factorint(value) if p > 0)
    finite = frozenset(p for p in candidates if hilbert_symbol(a, b, p) == -1)
    at_infinity = hilbert_symbol(a, b, math.inf) == -1
    if (len(finite) + int(at_infinity)) % 2:
        raise ArithmeticError(
            f"product formula violated: {alg!r} ramifies at an odd number of places"
        )
    return finite, at_infinity


def discriminant(alg: QuatAlgebra) -> int:
    """Product of the finite ramified primes (1 for the split algebra)."""
    finite, _ = ramified_places(alg)
    return math.prod(sorted(finite)) if finite else 1


# ---------------------------------------------------------------------------
# orders


@dataclass(frozen=True, slots=True)
class QuatOrder:
    """An order in a rational quaternion algebra.

    ``basis`` lists four elements whose Z-span is the order: 1, then the
    Hermite rows of the module docstring.  Construct through
    :meth:`from_basis`, which takes any spanning rows, canonicalizes and
    validates.

    Two integer fields carry the arithmetic of the order, and everything
    else (Gram matrices, products, norms, conjugation) is derived from
    them in integer arithmetic:

    * ``table[i][j]`` holds the coordinates of ``e_i e_j`` in the basis;
    * ``traces[i]`` is ``trd(e_i)``, so ``traces[0] == 2``.
    """

    algebra: QuatAlgebra
    basis: tuple[QuatElt, QuatElt, QuatElt, QuatElt]
    basis_inv: tuple[tuple[Fraction, ...], ...] = dataclasses.field(compare=False, repr=False)
    table: tuple[tuple[tuple[int, ...], ...], ...] = dataclasses.field(compare=False, repr=False)
    traces: tuple[int, int, int, int] = dataclasses.field(compare=False, repr=False)

    @classmethod
    def from_basis(cls, algebra: QuatAlgebra, rows: Iterable[Sequence[Fraction]]) -> "QuatOrder":
        """Build and validate the order spanned by rational coordinate rows.

        Any rows that span the lattice will do.  The basis is 1 followed by
        the first three rows of the lattice's Hermite form over the
        coordinates (x, y, z, t), whose last row must be 1 itself.
        """
        matrix = [[_frac(c) for c in row] for row in rows]
        if not matrix or any(len(row) != 4 for row in matrix):
            raise ValueError("an order is spanned by coordinate 4-vectors")
        den = math.lcm(*(c.denominator for row in matrix for c in row))
        # the Hermite form with the coordinates in the order (x, y, z, t)
        hnf = hnf_rows([[int(c * den) for c in row[1:] + row[:1]] for row in matrix])
        if len(hnf) != 4:
            raise ValueError("order basis must have rank 4")
        # the last Hermite row (0, 0, 0, g) / den spans the lattice's meet with Q
        g = hnf[3][3]
        if den % g:
            raise ValueError("an order must contain 1")
        if g != den:
            # 1/n lies in the lattice for some n >= 2, so nrd is non-integral
            raise ValueError("an order must contain 1 as a primitive vector")
        # 1, then the three rows above it, back in the order (t, x, y, z)
        rows4 = [[Fraction(c, den) for c in row[3:] + row[:3]] for row in hnf[3:] + hnf[:3]]
        basis = tuple(QuatElt(algebra, tuple(row)) for row in rows4)
        for e in basis:
            if e.trd().denominator != 1 or e.nrd().denominator != 1:
                raise ValueError("order basis elements must be integral")
        inv = mat_inverse(rows4)
        table = []
        for e in basis:
            row = []
            for f in basis:
                coords = _vec_mat((e * f).coords, inv)
                if any(c.denominator != 1 for c in coords):
                    raise ValueError("order basis is not closed under multiplication")
                row.append(tuple(int(c) for c in coords))
            table.append(tuple(row))
        traces = tuple(int(e.trd()) for e in basis)
        return cls(algebra, basis, inv, tuple(table), traces)

    # -- linear algebra over the basis ---------------------------------------

    def basis_matrix(self) -> list[list[Fraction]]:
        return [list(e.coords) for e in self.basis]

    def coordinates(self, x: QuatElt) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates of x in the order basis (the basis is a Q-basis of B)."""
        if x.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        return _vec_mat(x.coords, self.basis_inv)

    def contains(self, x: QuatElt) -> bool:
        return all(c.denominator == 1 for c in self.coordinates(x))

    def element(self, coords: Sequence[int | Fraction]) -> QuatElt:
        """The element with the given coordinates in the order basis."""
        return QuatElt(self.algebra, _vec_mat([_frac(c) for c in coords], self.basis_matrix()))

    # -- integer arithmetic from the multiplication table ----------------------

    def gram_trd(self) -> list[list[int]]:
        """Integer matrix trd(e_i e_j) = sum_k table[i][j][k] trd(e_k)."""
        return [
            [sum(c * t for c, t in zip(prod, self.traces)) for prod in row]
            for row in self.table
        ]

    def norm_gram(self) -> list[list[int]]:
        """Integer Gram matrix of the bilinear form trd(x conj(y)).

        Since conj(e_j) = trd(e_j) - e_j, the entry is
        ``trd(e_i) trd(e_j) - trd(e_i e_j)``.  ``nrd(sum c_i e_i) = (1/2)
        c G c^T``; the diagonal carries ``2 nrd(e_i)``.
        """
        t = self.traces
        return [
            [t[i] * t[j] - g for j, g in enumerate(row)]
            for i, row in enumerate(self.gram_trd())
        ]

    def nrd(self, coords: Sequence[int]) -> int:
        """Reduced norm of the element with integer coordinates ``coords``."""
        return _eval_gram(self.norm_gram(), coords) // 2

    def multiply(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int, int]:
        """Coordinates of x y for x, y with integer coordinates u, v."""
        out = [0, 0, 0, 0]
        for i, ui in enumerate(u):
            if ui:
                row = self.table[i]
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj
                        for k, entry in enumerate(row[j]):
                            out[k] += c * entry
        return tuple(out)

    def conjugation_rows(self, beta: Sequence[int]) -> list[list[int]] | None:
        """Integer matrix of x |-> b^-1 x b for b with integer coordinates beta.

        Row i holds the coordinates of conj(b) e_i b divided exactly by
        nrd(b); coordinate row vectors transform by right multiplication.
        Returns None when nrd(b) = 0 or a division leaves a remainder, that
        is, when b does not normalize the order (conjugation preserves
        covolume, so b^-1 O b inside O already means equality).
        """
        n = self.nrd(beta)
        if n == 0:
            return None
        conj = [-c for c in beta]  # conj(b) = trd(b) - b
        conj[0] += sum(c * t for c, t in zip(beta, self.traces))
        rows = []
        for i in range(4):
            unit = [1 if r == i else 0 for r in range(4)]
            row = []
            for c in self.multiply(self.multiply(conj, unit), beta):
                q, rem = divmod(c, n)
                if rem:
                    return None
                row.append(q)
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return f"QuatOrder({self.algebra!r}, basis={[str(e) for e in self.basis]})"


def _vec_mat(vec: Sequence[Fraction], mat: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """The row vector vec times the 4x4 matrix mat."""
    return tuple(
        sum((v * mat[r][c] for r, v in enumerate(vec) if v), Fraction(0)) for c in range(4)
    )


def standard_order(alg: QuatAlgebra) -> QuatOrder:
    """The order Z<1, i, j, k>; requires integer parameters a, b."""
    if alg.a.denominator != 1 or alg.b.denominator != 1:
        raise ValueError("standard order requires integer algebra parameters")
    return QuatOrder.from_basis(
        alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def reduced_discriminant(order: QuatOrder) -> int:
    """Positive square root of |det(trd(e_i e_j))| over the order basis."""
    gram = order.gram_trd()
    det = det_bareiss(gram)
    root = math.isqrt(abs(det))
    if root * root != abs(det):
        raise ValueError("invariant violation: |det trd(e_i e_j)| is not a square")
    if root == 0:
        raise ValueError("invariant violation: degenerate trace pairing")
    return root


def is_maximal(order: QuatOrder) -> bool:
    return reduced_discriminant(order) == discriminant(order.algebra)


def saturate_to_maximal(order: QuatOrder) -> QuatOrder:
    """A maximal order containing the given one.

    At each prime p dividing the index disc(O) / disc(B), every residue v
    of O/pO is tested: if O + Z(v/p) is again an order the lattice is
    enlarged with index p, dividing the reduced discriminant by p;
    iteration stops when the discriminant reaches the algebra's.
    """
    current = order
    target = discriminant(order.algebra)
    disc = reduced_discriminant(current)
    while disc != target:
        if disc % target:
            raise ArithmeticError(
                f"reduced discriminant {disc} is not a multiple of disc(B) = {target}"
            )
        candidate = None
        for p in factorint(disc // target):
            candidate = _enlarge_at(current, p)
            if candidate is not None:
                break
        if candidate is None:
            raise ArithmeticError(
                f"saturation stalled at reduced discriminant {disc} (target {target})"
            )
        current = candidate
        disc = reduced_discriminant(current)
    return current


def _enlarge_at(order: QuatOrder, p: int) -> QuatOrder | None:
    """The first order O + Z(v/p), for residues v of O/pO in lexicographic order.

    Each residue with coordinates c is screened in integers before any
    quaternion is built: trd(v/p) = sum c_i trd(e_i) / p and nrd(v/p) =
    c G c^T / (2 p^2), with G the norm Gram matrix, must both be integers.
    ``from_basis`` then gets the four basis rows of O and the row of v/p
    as they are, since any spanning rows will do.  O + Z(v/p) strictly
    contains O, so its reduced discriminant is smaller.
    """
    basis_rows = order.basis_matrix()
    traces = order.traces
    gram = order.norm_gram()
    for c in itertools.product(range(p), repeat=4):
        if not any(c):
            continue
        if sum(ci * ti for ci, ti in zip(c, traces)) % p or _eval_gram(gram, c) % (2 * p * p):
            continue
        w = order.element([Fraction(ci, p) for ci in c])
        try:
            return QuatOrder.from_basis(order.algebra, basis_rows + [list(w.coords)])
        except ValueError:
            continue
    return None


def maximal_order(alg: QuatAlgebra) -> QuatOrder:
    """A maximal order of (a, b | Q) with integer parameters."""
    return saturate_to_maximal(standard_order(alg))


# ---------------------------------------------------------------------------
# normalizer and Atkin-Lehner structure


def is_in_normalizer(order: QuatOrder, b: QuatElt) -> bool:
    """Whether b O b^{-1} = O (containment suffices: conjugation preserves covolume)."""
    if b.is_zero():
        raise ValueError("the normalizer test requires b != 0")
    _, beta = primitive_in_order(order, b)
    return order.conjugation_rows(beta) is not None


def primitive_in_order(order: QuatOrder, b: QuatElt) -> tuple[QuatElt, tuple[int, int, int, int]]:
    """Scale b by a rational so its order coordinates are integral with content 1."""
    if b.is_zero():
        raise ValueError("cannot normalize the zero element")
    coords = order.coordinates(b)
    den = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    return order.element(ints), tuple(ints)


def norm_divides_discriminant(order: QuatOrder, b: QuatElt) -> bool:
    """The normalizer's norm criterion for a maximal order.

    After scaling b into the order with primitive coordinates, tests whether
    |nrd(b)| divides the algebra discriminant.  For maximal orders this is
    equivalent to membership in the normalizer.
    """
    _, coords = primitive_in_order(order, b)
    n = abs(order.nrd(coords))
    if n == 0:
        return False
    return discriminant(order.algebra) % n == 0


def _box_coordinates(height: int) -> Iterator[tuple[int, int, int, int]]:
    """Integer 4-tuples ordered by max-norm shells, lexicographic inside a shell."""
    for h in range(height + 1):
        for c1 in range(-h, h + 1):
            for c2 in range(-h, h + 1):
                for c3 in range(-h, h + 1):
                    for c4 in range(-h, h + 1):
                        if max(abs(c1), abs(c2), abs(c3), abs(c4)) == h:
                            yield (c1, c2, c3, c4)


def atkin_lehner_group(order: QuatOrder, max_height: int = 12) -> dict[int, QuatElt]:
    """Representatives of the Atkin-Lehner group of a maximal order.

    For each positive divisor m of disc(B) returns a primitive element
    w_m of the order, normalizing it, with |nrd(w_m)| = m; w_1 = 1.
    Representatives are canonical: first in (max-norm shell, lexicographic)
    coordinate order.  Modulo Q^x O^x the classes form an elementary
    abelian 2-group.
    """
    if not is_maximal(order):
        raise ValueError("the Atkin-Lehner group is defined here for maximal orders")
    disc = discriminant(order.algebra)
    divisors = [m for m in range(1, disc + 1) if disc % m == 0]
    reps: dict[int, QuatElt] = {1: order.algebra.one}
    gram = order.norm_gram()
    remaining = set(divisors) - {1}
    for coords in _box_coordinates(max_height):
        if not remaining:
            break
        if math.gcd(*coords) != 1:
            continue
        n2 = _eval_gram(gram, coords)  # 2 nrd
        m = abs(n2) // 2
        if m in remaining:
            if order.conjugation_rows(coords) is None:
                raise ArithmeticError(
                    f"{order.element(coords)} has norm dividing disc(B) but does not normalize"
                )
            reps[m] = order.element(coords)
            remaining.discard(m)
    if remaining:
        missing = min(remaining)
        raise LookupError(
            f"no Atkin-Lehner representative found for divisor {missing} within height {max_height}"
        )
    return {m: reps[m] for m in divisors}


def _eval_gram(gram: Sequence[Sequence[int]], coords: Sequence[int]) -> int:
    """c G c^T for integer vectors; equals 2 nrd for the norm Gram matrix."""
    total = 0
    for idx, ci in enumerate(coords):
        if ci:
            row = gram[idx]
            total += ci * sum(cj * row[jdx] for jdx, cj in enumerate(coords) if cj)
    return total


def find_trace_zero(order: QuatOrder, m: int, height: int = 30) -> list[QuatElt]:
    """All x in the order with trd(x) = 0, x^2 = m, coordinates within the box.

    The box constraint is max-norm <= height in the order basis.  Since a
    trace-zero x has x^2 = -nrd(x), the search solves trd = 0 (linear) and
    nrd = -m (quadratic) exactly.  The empty list is a valid result.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if m == 0:
        raise ValueError("m must be a nonzero integer")
    g = order.norm_gram()
    traces = order.traces
    # nrd(c) = c1^2 + c1*(g12 c2 + g13 c3 + g14 c4) + C(c2, c3, c4); all integer
    out: list[tuple[int, int, int, int]] = []
    rng = range(-height, height + 1)
    for c2 in rng:
        h22 = g[1][1] // 2 * c2 * c2
        for c3 in rng:
            h23 = h22 + g[2][2] // 2 * c3 * c3 + g[1][2] * c2 * c3
            lin23 = g[0][1] * c2 + g[0][2] * c3
            tr23 = c2 * traces[1] + c3 * traces[2]
            for c4 in rng:
                rest = tr23 + c4 * traces[3]
                if rest % 2:
                    continue
                c1 = -rest // 2
                if abs(c1) > height:
                    continue
                lin = lin23 + g[0][3] * c4
                const = h23 + g[3][3] // 2 * c4 * c4 + (g[1][3] * c2 + g[2][3] * c3) * c4
                if c1 * c1 + c1 * lin + const == -m:
                    out.append((c1, c2, c3, c4))
    out.sort(key=lambda c: (max(abs(x) for x in c), c))
    return [order.element(c) for c in out]


# ---------------------------------------------------------------------------
# serialization


def order_to_json(order: QuatOrder) -> dict:
    """JSON-ready document {"algebra": [a, b], "basis": 4x4 rational strings}."""
    return {
        "algebra": [str(order.algebra.a), str(order.algebra.b)],
        "basis": [[str(c) for c in e.coords] for e in order.basis],
    }


def order_from_json(doc: str | dict) -> QuatOrder:
    data = json.loads(doc) if isinstance(doc, str) else doc
    alg = QuatAlgebra(_frac(data["algebra"][0]), _frac(data["algebra"][1]))
    return QuatOrder.from_basis(alg, [[_frac(c) for c in row] for row in data["basis"]])
