"""Finite dihedral subgroups of Aut(O) and their mod-N fixed points.

Every ring automorphism of an order O in a quaternion algebra B is
conjugation x |-> b^-1 x b by some b in B* normalising O (Skolem-Noether),
and b is determined up to Q*-multiples, so Aut(O) = N_{B*}(O)/Q*.  This
module represents such classes [b], assembles the dihedral subgroups
D1, D2, D3, D4, D6 of Aut(O) from explicit generator presentations,
and computes their fixed points on O/NO together with the associated
mod-2/mod-4 classification lemmas, the left-submodule lattice of O/lO,
the semidirect-product "enhanced" group law, and the polarization and
distinguished-subring arithmetic.

Generator presentations (O maximal):
  D1  <[b]>          with b^2 = m in Z, m != 1, m | disc(B)
  D2  <[i],[j]>      with i^2 = m, j^2 = n dividing disc(B), ij = -ji;
                     the third involution [ij] squares to -mn up to squares
  D4  <[1+i],[j]>    with i^2 = -1, j^2 = m | disc(B), ij = -ji
  D3  <[1+w],[j]>    with w^2 + w + 1 = 0, j^2 = m | disc(B), wj = j(-1-w)
  D6  <[1-w],[j]>    same data; [1-w] has norm 3, forcing 3 | disc(B)

Conjugation by a class acts on O/NO through an integer matrix in the
order basis, computed once per class; fixed subgroups are reported as
abelian invariants read off the Smith form of the stacked
(conjugation - identity) maps, for every N.  Products of order
coordinates, twists and norms, in O/NO and of class representatives,
come from ``QuatOrder.multiply`` and the order's stored norm form, in
integer arithmetic; residues mod p are enumerated by ``quat.span_mod``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    factorint,
    fundamental_discriminant,
    isprime,
    rational_square_class,
    rref_mod,
    smith_diagonal,
)
from .quat import (
    UNIT_VECTORS,
    QuatElt,
    QuatOrder,
    discriminant,
    is_maximal,
    order_from_json,
    order_to_json,
    primitive_in_order,
    span_mod,
)

KINDS = ("D1", "D2", "D3", "D4", "D6")


# ---------------------------------------------------------------------------
# automorphism classes


@dataclass(frozen=True, slots=True)
class AutClass:
    """A class [b] in N_{B*}(O)/Q*, acting on O by x |-> b^-1 x b.

    The representative is primitive in the order basis with positive
    leading coordinate, so equal classes compare equal.  ``coords`` are its
    integer coordinates and ``matrix`` is the conjugation matrix, both
    computed once at construction.
    """

    order: QuatOrder
    rep: QuatElt
    coords: tuple[int, int, int, int] = dataclasses.field(compare=False, repr=False)
    matrix: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False, repr=False)

    @classmethod
    def from_element(cls, order: QuatOrder, x: QuatElt) -> "AutClass":
        if x.is_zero():
            raise ValueError("the zero element has no class in B*/Q*")
        return cls._from_coords(order, primitive_in_order(order, x)[1])

    @classmethod
    def _from_coords(cls, order: QuatOrder, coords: Sequence[int]) -> "AutClass":
        """The class of the nonzero element with integer coordinates ``coords``."""
        lead = next(c for c in coords if c)
        content = math.gcd(*coords) if lead > 0 else -math.gcd(*coords)
        coords = tuple(c // content for c in coords)
        rows = order.conjugation_rows(coords)
        if rows is None:
            raise ValueError(f"{order.element(coords)} does not normalize the order")
        return cls(order, order.element(coords), coords, tuple(tuple(row) for row in rows))

    def is_identity(self) -> bool:
        return self.rep.is_scalar()

    def conjugation_matrix(self) -> list[list[int]]:
        """Integer matrix of x |-> b^-1 x b on the order basis.

        Coordinate row vectors transform by right multiplication.
        """
        return [list(row) for row in self.matrix]

    def __mul__(self, other: "AutClass") -> "AutClass":
        if self.order != other.order:
            raise ValueError("classes act on different orders")
        return AutClass._from_coords(self.order, self.order.multiply(self.coords, other.coords))


@dataclass(frozen=True, slots=True)
class DihedralAction:
    """A dihedral subgroup of Aut(O) with its presentation data.

    ``params`` holds (m,) for D1 (b^2 = m), (m, n) for D2 (i^2 = m,
    j^2 = n), and (m,) for D3/D4/D6 (the reflection square j^2 = m).
    """

    kind: str
    generators: tuple[AutClass, ...]
    params: tuple[int, ...]

    @property
    def order(self) -> QuatOrder:
        return self.generators[0].order


def _scalar_square(x: QuatElt, name: str) -> int:
    sq = x * x
    if not sq.is_scalar() or sq.coords[0].denominator != 1:
        raise ValueError(f"relation violated: {name}^2 must be an integer")
    return int(sq.coords[0])


def _check_divides(m: int, disc: int, name: str) -> None:
    if m == 1:
        raise ValueError(f"relation violated: {name}^2 = 1 gives a trivial class")
    if disc % abs(m) != 0:
        raise ValueError(
            f"relation violated: {name}^2 = {m} does not divide disc(B) = {disc}"
        )


def build_dihedral_action(
    order: QuatOrder, kind: str, generators: Sequence[QuatElt]
) -> DihedralAction:
    """Assemble and validate a dihedral subgroup of Aut(O).

    Generators are primitivised before the relation checks, so any
    Q*-multiples of the canonical presentations are accepted: [b] for D1;
    pure anticommuting i, j for D2; 1+i and j for D4; 1+w (resp. 1-w)
    and j for D3 (resp. D6).  A violated relation raises ValueError
    naming the relation.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if not is_maximal(order):
        raise ValueError("dihedral actions are classified over maximal orders")
    disc = discriminant(order.algebra)
    classes = [AutClass.from_element(order, g) for g in generators]
    reps = [c.rep for c in classes]

    if kind == "D1":
        if len(reps) != 1:
            raise ValueError("D1 takes a single generator")
        (b,) = reps
        if b.is_scalar():
            raise ValueError("relation violated: the generator is a scalar")
        m = _scalar_square(b, "b")
        _check_divides(m, disc, "b")
        return DihedralAction(kind, tuple(classes), (m,))

    if len(reps) != 2:
        raise ValueError(f"{kind} takes two generators")

    if kind == "D2":
        u, v = reps
        m = _scalar_square(u, "i")
        n = _scalar_square(v, "j")
        _check_divides(m, disc, "i")
        _check_divides(n, disc, "j")
        if u * v != -(v * u):
            raise ValueError("relation violated: ij = -ji")
        return DihedralAction(kind, tuple(classes), (m, n))

    if kind == "D4":
        s, v = reps
        t = s.trd()
        if t == 0:
            raise ValueError("relation violated: the rotation must be of the form 1+i")
        i_elt = s.scale(2 / t) - order.algebra.one
        if i_elt * i_elt != order.algebra.element(-1):
            raise ValueError("relation violated: i^2 = -1")
        m = _scalar_square(v, "j")
        _check_divides(m, disc, "j")
        if i_elt * v != -(v * i_elt):
            raise ValueError("relation violated: ij = -ji")
        if disc % 2:  # nrd(1+i) = 2 normalizes, so 2 ramifies
            raise ArithmeticError(f"a D4 action on an order of discriminant {disc}")
        return DihedralAction(kind, tuple(classes), (m,))

    # D3 / D6: rotation 1+w (nrd 1, trd 1) or 1-w (nrd 3, trd 3).
    # The class [r] is sign-canonical; the relations need trd(r) > 0.
    r, v = reps
    if r.trd() < 0:
        r = -r
    omega = r - order.algebra.one if kind == "D3" else order.algebra.one - r
    if omega * omega + omega + order.algebra.one != order.algebra.element(0):
        raise ValueError("relation violated: w^2 + w + 1 = 0")
    m = _scalar_square(v, "j")
    _check_divides(m, disc, "j")
    if omega * v != v * (-order.algebra.one - omega):
        raise ValueError("relation violated: wj = j(-1-w)")
    if kind == "D6" and disc % 3:  # nrd(1-w) = 3 normalizes, so 3 ramifies
        raise ArithmeticError(f"a D6 action on an order of discriminant {disc}")
    return DihedralAction(kind, tuple(classes), (m,))


# ---------------------------------------------------------------------------
# fixed points on O/NO


def _generator_classes(action: DihedralAction | Iterable[AutClass]) -> tuple[AutClass, ...]:
    if isinstance(action, DihedralAction):
        return action.generators
    classes = tuple(action)
    if not classes:
        raise ValueError("at least one generator is required")
    return classes


def _vec_mat_mod(vec: Sequence[int], mat: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    return tuple(sum(vec[r] * mat[r][c] for r in range(4)) % n for c in range(4))


def residue_fixed_subgroup(
    action: DihedralAction | Iterable[AutClass], modulus: int
) -> list[int]:
    """Abelian invariants of {x in O/NO : g^-1 x g = x for all generators}.

    Accepts a DihedralAction or any iterable of AutClass generators (for
    cyclic subgroups such as <[1+i]>).  The fixed subgroup is the kernel
    of x |-> xA on (Z/N)^4, with A the stacked (M - 1) maps over Z; writing
    A = U D V with U, V unimodular, that kernel is the direct sum of
    Z/gcd(d_i, N) over the four diagonal entries of D (zeros included,
    with gcd(0, N) = N).
    """
    if modulus < 2:
        raise ValueError("the modulus must be at least 2")
    mats = [c.matrix for c in _generator_classes(action)]
    stacked = [
        [mat[r][c] - (1 if r == c else 0) for mat in mats for c in range(4)]
        for r in range(4)
    ]
    diag = [d for d in smith_diagonal(stacked) if d != 0]
    diag += [0] * (4 - len(diag))
    return [g for d in diag if (g := math.gcd(d, modulus)) > 1]


# ---------------------------------------------------------------------------
# mod-2 and mod-4 involution lemmas


def _validated_involution(order: QuatOrder, b: QuatElt) -> int:
    if not is_maximal(order):
        raise ValueError("the involution lemmas require a maximal order")
    if not order.contains(b):
        raise ValueError("b must lie in the order")
    m = _scalar_square(b, "b")
    if b.is_scalar():
        raise ValueError("b must not be a scalar")
    disc = discriminant(order.algebra)
    _check_divides(m, disc, "b")
    return m


def classify_involution_mod2(order: QuatOrder, b: QuatElt) -> tuple[list[int], bool]:
    """Fixed points of conjugation by b on O/2O, with the (Z/2)^3 test.

    Returns ``(invariants, criterion)`` where criterion is true exactly
    when the centralizer is (Z/2)^3, which happens if and only if
    2 | disc(B) and b^2 = 3 mod 4.
    """
    m = _validated_involution(order, b)
    cls = AutClass.from_element(order, b)
    fixed = residue_fixed_subgroup([cls], 2)
    criterion = fixed == [2, 2, 2]
    disc = discriminant(order.algebra)
    if criterion != (disc % 2 == 0 and m % 4 == 3):
        raise ArithmeticError(
            f"mod-2 lemma violated: fixed points {fixed} for b^2 = {m}, disc(B) = {disc}"
        )
    return fixed, criterion


def search_mod4_anticommutator(order: QuatOrder, b: QuatElt) -> QuatElt | None:
    """Search O/4O for x = 1 mod 2O with b^-1 x b x = -1; expected empty.

    Requires b to have (Z/2)^3 fixed points mod 2; under that
    precondition the search provably finds nothing.  The twist b^-1 x b
    is the coordinate vector of x times the conjugation matrix of [b], and
    the product comes from ``QuatOrder.multiply``, all in integers.
    """
    _, criterion = classify_involution_mod2(order, b)
    if not criterion:
        raise ValueError("b must have (Z/2)^3 fixed points on O/2O")
    mat = AutClass.from_element(order, b).matrix
    for c0, c1, c2, c3 in itertools.product(range(2), repeat=4):
        coords = (1 + 2 * c0, 2 * c1, 2 * c2, 2 * c3)
        residual = order.multiply(_vec_mat_mod(coords, mat, 4), coords)
        if (residual[0] + 1) % 4 == 0 and all(v % 4 == 0 for v in residual[1:]):
            return order.element(coords)
    return None


def classify_c2c2_mod2(action: DihedralAction) -> tuple[list[int], bool]:
    """Fixed points of a D2 action on O/2O, with the (Z/2)^3 test.

    The criterion holds if and only if 2 | disc(B) and both generator
    squares are 3 mod 4.
    """
    if action.kind != "D2":
        raise ValueError("classify_c2c2_mod2 takes a D2 action")
    fixed = residue_fixed_subgroup(action, 2)
    criterion = fixed == [2, 2, 2]
    m, n = action.params
    disc = discriminant(action.order.algebra)
    if criterion != (disc % 2 == 0 and m % 4 == 3 and n % 4 == 3):
        raise ArithmeticError(
            f"mod-2 lemma violated: fixed points {fixed} for squares {m}, {n}, disc(B) = {disc}"
        )
    return fixed, criterion


# ---------------------------------------------------------------------------
# left submodules of O/lO


def _left_ideal_basis(order: QuatOrder, coords: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """Reduced echelon basis mod p of O x, spanned by the e_i x, x with the given coordinates."""
    return rref_mod([order.multiply(unit, coords) for unit in UNIT_VECTORS], p)


def _line_representatives(p: int) -> Iterable[tuple[int, ...]]:
    """Zero and the vectors of F_p^4 whose first nonzero coordinate is 1."""
    yield (0, 0, 0, 0)
    for lead in range(4):
        for tail in itertools.product(range(p), repeat=3 - lead):
            yield (0,) * lead + (1,) + tail


def generated_by(order: QuatOrder, ell: int, coords: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The left submodule of O/lO generated by the element with given coordinates."""
    if not isprime(ell):
        raise ValueError("the modulus must be prime")
    return frozenset(span_mod(_left_ideal_basis(order, coords, ell), ell))


def submodule_lattice_mod_ell(order: QuatOrder, ell: int) -> list[frozenset[tuple[int, ...]]]:
    """All left O-submodules of O/lO for a maximal order O, by size, then lexicographically.

    For l not dividing disc(B), O/lO = Mat_2(F_l): the zero module, the
    l+1 minimal left ideals, of order l^2, and the full module.  For l
    dividing disc(B), the maximal ideal P/lO, of order l^2, is the only
    proper nonzero one (Voight, Quaternion Algebras, chs. 23 and 42).
    Both cases are read off one right ideal xO with nrd(x) = 0 mod l.
    Such an x exists since the norm form is isotropic mod l; the first
    line representative found is used.  xO has dimension 2 over F_l,
    and the left modules O y over the l+1 lines y of xO are the middle of
    the lattice: in Mat_2(F_l) the y have one column space and every row
    space, so every kernel; in the ramified case each O y is P/lO.
    """
    if not isprime(ell):
        raise ValueError("the modulus must be prime")
    if not is_maximal(order):
        raise ValueError("submodule lattices are computed over maximal orders")
    lines = itertools.islice(_line_representatives(ell), 1, None)
    x = next(c for c in lines if order.nrd(c) % ell == 0)
    # the x e_i span the right ideal x O
    b1, b2 = rref_mod([order.multiply(x, unit) for unit in UNIT_VECTORS], ell)
    keys = {
        tuple(_left_ideal_basis(order, y, ell))
        for y in [b2] + [[(u + t * v) % ell for u, v in zip(b1, b2)] for t in range(ell)]
    }
    middle = sorted((frozenset(span_mod(key, ell)) for key in keys), key=sorted)
    zero = frozenset({(0, 0, 0, 0)})
    return [zero] + middle + [frozenset(itertools.product(range(ell), repeat=4))]


def three_dim_generator_check(
    order: QuatOrder, ell: int, subspace: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """First element of a 3-dimensional subspace of O/lO generating it as a left module.

    Scans the subspace in lexicographic coefficient order over the given
    basis.  Existence is guaranteed (a 3-dimensional subspace cannot
    avoid the generators), so exhaustion raises ArithmeticError.
    """
    if not isprime(ell):
        raise ValueError("the modulus must be prime")
    basis = [tuple(v % ell for v in row) for row in subspace]
    if len(basis) != 3 or len(rref_mod(basis, ell)) != 3:
        raise ValueError("the subspace must be 3-dimensional")
    for coords in span_mod(basis, ell):
        if len(_left_ideal_basis(order, coords, ell)) == 4:
            return coords
    raise ArithmeticError("a 3-dimensional subspace must contain a module generator")


# ---------------------------------------------------------------------------
# the enhanced semidirect product


@dataclass(frozen=True, slots=True)
class EnhancedElement:
    """A pair (gamma, x) with gamma in Aut(O) and x a unit of O/NO.

    The group law is (g1, x1)(g2, x2) = (g1 g2, x1^{g2} x2) with
    x^g = g^-1 x g.
    """

    gamma: AutClass
    coords: tuple[int, int, int, int]
    modulus: int

    @classmethod
    def create(
        cls, gamma: AutClass, coords: Sequence[int], modulus: int
    ) -> "EnhancedElement":
        if modulus < 2:
            raise ValueError("the modulus must be at least 2")
        reduced = tuple(int(c) % modulus for c in coords)
        if math.gcd(gamma.order.nrd(reduced), modulus) != 1:
            raise ValueError("x must be a unit of O/NO (nrd a unit mod N)")
        return cls(gamma, reduced, modulus)


def enhanced_identity(order: QuatOrder, modulus: int) -> EnhancedElement:
    one = AutClass.from_element(order, order.algebra.one)
    return EnhancedElement.create(one, (1, 0, 0, 0), modulus)


def enhanced_mul(e1: EnhancedElement, e2: EnhancedElement) -> EnhancedElement:
    """The semidirect product law (g1, x1)(g2, x2) = (g1 g2, x1^{g2} x2)."""
    if e1.gamma.order != e2.gamma.order or e1.modulus != e2.modulus:
        raise ValueError("operands must share the order and the modulus")
    twisted = _vec_mat_mod(e1.coords, e2.gamma.matrix, e1.modulus)
    product = e1.gamma.order.multiply(twisted, e2.coords)
    return EnhancedElement.create(e1.gamma * e2.gamma, product, e1.modulus)


# ---------------------------------------------------------------------------
# polarizations and the distinguished quadratic subring


@dataclass(frozen=True, slots=True)
class PolarizationReport:
    degree_class: int
    subfield_disc: int
    jacobian_consistent: bool


def polarization_analysis(
    order: QuatOrder,
    mu: QuatElt,
    jacobian_mode: bool = False,
    c2c2_fixed: Sequence[int] | None = None,
) -> PolarizationReport:
    """Square-class arithmetic of the polarization attached to mu.

    ``degree_class`` is the squarefree part of disc(B) * nrd(mu) — the
    square class of the degree of the associated line bundle — and
    ``subfield_disc`` the discriminant of Q(mu) = Q(sqrt(mu^2)).  The
    polarization is principal (degree class 1) exactly when Q(mu) is
    Q(sqrt(-disc B)); in jacobian mode a failure of this equivalence
    raises ArithmeticError.
    When the fixed-point data of an associated D2 action is supplied and
    equals (Z/2)^3, a principal polarization is impossible, so an even
    degree class is required for consistency.
    """
    if mu.is_zero() or mu.trd() != 0:
        raise ValueError("mu must be nonzero with reduced trace zero")
    mu_squared = (mu * mu).scalar_part()
    if mu_squared >= 0:
        raise ValueError("mu^2 must be a negative rational")
    disc = discriminant(order.algebra)
    degree_class, _ = rational_square_class(Fraction(disc) * mu.nrd())
    subfield_disc = fundamental_discriminant(mu_squared)
    matches_minus_disc = subfield_disc == fundamental_discriminant(-disc)
    consistent = (degree_class == 1) == matches_minus_disc
    if jacobian_mode and not consistent:  # both sides compare the same square classes
        raise ArithmeticError(
            f"degree class {degree_class} and Q(mu) of discriminant {subfield_disc} disagree"
        )
    if c2c2_fixed is not None and list(c2c2_fixed) == [2, 2, 2]:
        consistent = consistent and degree_class % 2 == 0
    return PolarizationReport(degree_class, subfield_disc, consistent)


@dataclass(frozen=True, slots=True)
class DistinguishedRing:
    """The quadratic ring Z[sqrt d] (or Z[w], Z[i]) attached to an action.

    ``index_bound`` bounds the index of Z[sqrt(generator_square)] in the
    ring: the ring is maximal away from 2.
    """

    generator_square: int
    ring_discriminant: int
    index_bound: int
    is_real: bool


def distinguished_subring(action: DihedralAction) -> DistinguishedRing:
    """The distinguished quadratic subring of O determined by the action.

    D1 fixes the centralizer Z[sqrt m] of its generator; D2 singles out
    the unique generator square class that is negative (exactly one of
    m, n, -mn is negative when B is indefinite); D4 yields Z[i] and
    D3/D6 yield Z[w].  The ring is unramified away from 6 disc(B).
    """
    disc = discriminant(action.order.algebra)
    if action.kind == "D1":
        d, _ = rational_square_class(action.params[0])
    elif action.kind == "D2":
        m, n = action.params
        squares = [rational_square_class(v)[0] for v in (m, n, -m * n)]
        negatives = [d for d in squares if d < 0]
        if len(negatives) != 1:  # B is indefinite
            raise ArithmeticError(f"square classes {squares}: expected exactly one negative")
        d = negatives[0]
    elif action.kind == "D4":
        d = -1
    else:
        d = -3
    ring_disc = fundamental_discriminant(d)
    if action.kind in ("D3", "D4", "D6"):
        index_bound = 1
    else:
        index_bound = 2 if d % 4 == 1 else 1
    for p in factorint(abs(ring_disc)):
        if (6 * disc) % p:  # unramified away from 6 disc(B)
            raise ArithmeticError(f"Q(sqrt {d}) ramifies at {p}, which does not divide 6 disc(B)")
    return DistinguishedRing(d, ring_disc, index_bound, d > 0)


# ---------------------------------------------------------------------------
# serialization


def action_to_json(action: DihedralAction) -> dict:
    """JSON-ready document for a dihedral action."""
    params = {"m": action.params[0]}
    if len(action.params) == 2:
        params["n"] = action.params[1]
    return {
        "kind": action.kind,
        "order": order_to_json(action.order),
        "generators": [list(cls.coords) for cls in action.generators],
        "params": params,
    }


def action_from_json(doc: dict) -> DihedralAction:
    order = order_from_json(doc["order"])
    generators = [order.element(coords) for coords in doc["generators"]]
    action = build_dihedral_action(order, doc["kind"], generators)
    expected = [doc["params"]["m"]] + ([doc["params"]["n"]] if "n" in doc["params"] else [])
    if list(action.params) != expected:
        raise ValueError("serialized parameters do not match the generators")
    return action
