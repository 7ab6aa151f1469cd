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
* Orders are built and used in integers: ``den`` times the canonical
  basis is triangular, so coordinates come from back-substitution with
  exact division, and the multiplication table is solved that way from
  integer products of the rows; a remainder means the lattice is not
  closed under multiplication.  The trace and norm forms are computed
  from the table once, with it.
* ``maximal_order`` enlarges Z<1, i, j, k> by elements v/p, one prime p
  at a time, with v in the radical of the trace form trd(x y) mod p.
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

from .exact import det_bareiss, factorint, hilbert_symbol, hnf_rows, rref_mod

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
        return QuatElt(self.algebra, _product(self.coords, other.coords, 1, a, b, a * b))

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

    The other fields are integers, computed once by :meth:`from_basis`,
    and everything else (coordinates, products, norms, conjugation) is
    derived from them in integer arithmetic:

    * ``hermite[i]`` is ``den * e_i`` over (t, x, y, z), ``den`` the least
      common denominator: row r has its positive pivot in column r, and
      the rows solved after it vanish there (see :func:`_solve`);
    * ``table[i][j]`` holds the coordinates of ``e_i e_j`` in the basis;
    * ``traces[i]`` is ``trd(e_i)``, so ``traces[0] == 2``;
    * ``trace_form[i][j]`` is ``trd(e_i e_j)``;
    * ``norm_form[i][j]`` is ``trd(e_i conj(e_j))``, so that
      ``nrd(sum c_i e_i) = (1/2) c G c^T`` and the diagonal carries
      ``2 nrd(e_i)``.
    """

    algebra: QuatAlgebra
    basis: tuple[QuatElt, QuatElt, QuatElt, QuatElt]
    hermite: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False, repr=False)
    den: int = dataclasses.field(compare=False, repr=False)
    table: tuple[tuple[tuple[int, ...], ...], ...] = dataclasses.field(compare=False, repr=False)
    traces: tuple[int, int, int, int] = dataclasses.field(compare=False, repr=False)
    trace_form: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False, repr=False)
    norm_form: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False, repr=False)

    @classmethod
    def from_basis(cls, algebra: QuatAlgebra, rows: Iterable[Sequence[Fraction]]) -> "QuatOrder":
        """Build and validate the order spanned by rational coordinate rows.

        Any rows that span the lattice will do.  The basis is 1 followed by
        the first three rows of the lattice's Hermite form over the
        coordinates (x, y, z, t), whose last row must be 1 itself.  The
        other checks run on those integer rows.
        """
        matrix = [[_frac(c) for c in row] for row in rows]
        if not matrix or any(len(row) != 4 for row in matrix):
            raise ValueError("an order is spanned by coordinate 4-vectors")
        den = math.lcm(*(c.denominator for row in matrix for c in row))
        # the Hermite form with the coordinates in the order (x, y, z, t)
        hnf = hnf_rows([[c.numerator * den // c.denominator for c in row[1:] + row[:1]]
                         for row in matrix])
        if len(hnf) != 4:
            raise ValueError("order basis must have rank 4")
        # the last Hermite row (0, 0, 0, g) / den spans the lattice's meet with Q
        g = hnf[3][3]
        if den % g:
            raise ValueError("an order must contain 1")
        if g != den:
            # 1/n lies in the lattice for some n >= 2, so nrd is non-integral
            raise ValueError("an order must contain 1 as a primitive vector")
        # den times 1, then the three rows above it, back in the order (t, x, y, z)
        hermite = tuple(tuple(row[3:] + row[:3]) for row in hnf[3:] + hnf[:3])
        # s a, s b and s a b are integers for s the product of the denominators of a, b
        (an, ad), (bn, bd) = algebra.a.as_integer_ratio(), algebra.b.as_integer_ratio()
        s, sa, sb, sab = ad * bd, an * bd, bn * ad, an * bn
        for t, x, y, z in hermite:
            if 2 * t % den or (s * t * t - sa * x * x - sb * y * y + sab * z * z) % (s * den * den):
                raise ValueError("order basis elements must be integral")
        # e_i e_j = P / (s den^2) with P = s (den e_i)(den e_j) integral, so its
        # coordinates c solve c . hermite = P / (s den)
        scale = s * den
        products = [[_product(u, v, s, sa, sb, sab) for v in hermite] for u in hermite]
        table = tuple(
            tuple(None if any(c % scale for c in p) else _solve(hermite, [c // scale for c in p])
                  for p in row)
            for row in products
        )
        if any(None in row for row in table):
            raise ValueError("order basis is not closed under multiplication")
        basis = tuple(QuatElt(algebra, tuple(Fraction(c, den) for c in row)) for row in hermite)
        traces = tuple(2 * row[0] // den for row in hermite)
        trace_form = tuple(tuple(sum(c * t for c, t in zip(prod, traces)) for prod in row)
                           for row in table)
        # conj(e_j) = trd(e_j) - e_j, so trd(e_i conj(e_j)) = trd(e_i) trd(e_j) - trd(e_i e_j)
        norm_form = tuple(tuple(traces[i] * traces[j] - g for j, g in enumerate(row))
                          for i, row in enumerate(trace_form))
        return cls(algebra, basis, hermite, den, table, traces, trace_form, norm_form)

    # -- linear algebra over the basis ---------------------------------------

    def basis_matrix(self) -> list[list[Fraction]]:
        return [list(e.coords) for e in self.basis]

    def coordinates(self, x: QuatElt) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates of x in the order basis (the basis is a Q-basis of B).

        c . hermite = den x; with m x integral and D the product of the
        pivots, m D c is integral (Cramer), so one exact solve finds it.
        """
        if x.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        m = math.lcm(*(c.denominator for c in x.coords))
        det = math.prod(row[r] for r, row in enumerate(self.hermite))
        scale = self.den * det
        ints = _solve(self.hermite, [c.numerator * (m // c.denominator) * scale for c in x.coords])
        return tuple(Fraction(c, m * det) for c in ints)

    def contains(self, x: QuatElt) -> bool:
        return all(c.denominator == 1 for c in self.coordinates(x))

    def element(self, coords: Sequence[int | Fraction]) -> QuatElt:
        """The element with the given coordinates in the order basis."""
        return QuatElt(self.algebra, tuple(
            Fraction(sum(c * row[k] for c, row in zip(coords, self.hermite)), self.den)
            for k in range(4)
        ))

    # -- integer arithmetic from the multiplication table ----------------------

    def nrd(self, coords: Sequence[int]) -> int:
        """Reduced norm of the element with integer coordinates ``coords``."""
        return _eval_gram(self.norm_form, coords) // 2

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
        for unit in UNIT_VECTORS:
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


#: The coordinates of the basis elements e_1, ..., e_4 of an order.
UNIT_VECTORS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def span_mod(basis: Sequence[Sequence[int]], p: int) -> Iterator[tuple[int, int, int, int]]:
    """The vectors sum c_i b_i mod p of order coordinates, for (c_1, ..., c_k)
    in lexicographic order over [0, p)^k; the empty basis yields 0 alone."""
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        yield tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(4))


def _solve(hermite: Sequence[Sequence[int]], w: Sequence[int]) -> tuple[int, ...] | None:
    """The integer c with c . hermite = w, or None, by back-substitution through
    the columns x, y, z, t, where the rows not yet solved vanish."""
    c = [0, 0, 0, 0]
    for r in (1, 2, 3, 0):
        q, rem = divmod(w[r] - sum(ci * row[r] for ci, row in zip(c, hermite)), hermite[r][r])
        if rem:
            return None
        c[r] = q
    return tuple(c)


def _product(u, v, s, sa, sb, sab) -> tuple:
    """s u v for coordinate vectors u, v, given s a, s b and s a b."""
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        s * t1 * t2 + sa * x1 * x2 + sb * y1 * y2 - sab * z1 * z2,
        s * (t1 * x2 + x1 * t2) + sb * (z1 * y2 - y1 * z2),
        s * (t1 * y2 + y1 * t2) + sa * (x1 * z2 - z1 * x2),
        s * (t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2),
    )


def standard_order(alg: QuatAlgebra) -> QuatOrder:
    """The order Z<1, i, j, k>; ValueError unless a and b are integers."""
    return QuatOrder.from_basis(
        alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def reduced_discriminant(order: QuatOrder) -> int:
    """Positive square root of |det(trd(e_i e_j))| over the order basis."""
    det = det_bareiss(order.trace_form)
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

    At each prime p dividing the index disc(O) / disc(B), the residues v
    of O/pO in the radical of the trace form mod p are tested: if
    O + Z(v/p) is again an order the lattice is enlarged with index p,
    dividing the reduced discriminant by p; iteration stops when the
    discriminant reaches the algebra's.  A non-maximal order with no
    overorder of index p still raises ArithmeticError ("saturation
    stalled"); the standard order of (-101^2, -3) is one.
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

    If O + Z(v/p) is an order, p | trd(v w) for every w in O, so v lies in
    the left kernel of trd(e_i e_j) mod p, and only that kernel is visited.
    With its basis in reduced echelon form, sum l_i b_i runs through it in
    lexicographic order as (l_1, ..., l_k) does, so the first hit is the
    one a scan of all of O/pO finds.  nrd(v/p) = c G c^T / (2 p^2), with G
    the norm Gram matrix, must be integral before ``from_basis`` gets the
    rows of O and of v/p.  O + Z(v/p) strictly contains O, so its reduced
    discriminant is smaller.
    """
    # the kernel is the identity half of the rows of [G | I] whose G half reduces to 0
    augmented = [row + unit for row, unit in zip(order.trace_form, UNIT_VECTORS)]
    kernel = [row[4:] for row in rref_mod(augmented, p) if not any(row[:4])]
    rows = order.basis_matrix()
    for c in span_mod(kernel, p):
        if not any(c) or _eval_gram(order.norm_form, c) % (2 * p * p):
            continue
        w = [Fraction(x, p) for x in order.element(c).coords]
        try:
            return QuatOrder.from_basis(order.algebra, rows + [w])
        except ValueError:
            continue
    return None


def maximal_order(alg: QuatAlgebra) -> QuatOrder:
    """A maximal order of (a, b | Q) with integer parameters.

    Saturation starts from Z<1, i/c, j/d, k/(cd)>, with c^2 and d^2 the
    largest squares dividing a and b, that is, from the standard order of
    (a/c^2, b/d^2).  From Z<1, i, j, k> itself it can stall when c or d
    exceeds 1 (see :func:`saturate_to_maximal`).
    """
    if alg.a.denominator != 1 or alg.b.denominator != 1:
        raise ValueError(
            f"maximal_order needs integer parameters, got a = {alg.a}, b = {alg.b}")
    c, d = (math.prod(p ** (e // 2) for p, e in factorint(x.numerator).items())
            for x in (alg.a, alg.b))
    rows = [[Fraction(int(r == k), s) for k, s in enumerate((1, c, d, c * d))] for r in range(4)]
    return saturate_to_maximal(QuatOrder.from_basis(alg, rows))


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
        for c in itertools.product(range(-h, h + 1), repeat=4):
            if max(map(abs, c)) == h:
                yield c


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
    remaining = set(divisors) - {1}
    for coords in _box_coordinates(max_height):
        if not remaining:
            break
        if math.gcd(*coords) != 1:
            continue
        n2 = _eval_gram(order.norm_form, coords)  # 2 nrd
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
    g = order.norm_form
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
