"""The rational one-parameter family of QM Jacobians with full 2-torsion.

The family is presented by a rational function j(t) on the parameter line
together with Igusa invariants (J2 : J4 : J6 : J8 : J10), weighted degrees
(2, 4, 6, 8, 10), expressed in j.  Every nonsingular rational specialization
has field of moduli Q (the expression -27 - 16/j is a rational square) and
trivial Mestre obstruction (the algebra (-6j, -2(27j+16)) splits), so a
curve over Q with those invariants exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact import poly_eval, rational_square_class
from ..quat import QuatAlgebra, ramified_places

# j(t) as one fixed rational function: numerator and denominator
# coefficients in ascending order.
_J_NUM = (0,) * 4 + (-64,) + (0,) * 3 + (256,) + (0,) * 3 + (-384,) + (
    0,
) * 3 + (256,) + (0,) * 3 + (-64,)
_J_DEN = (1,) + (0,) * 3 + (42,) + (0,) * 3 + (591,) + (0,) * 3 + (2828,) + (
    0,
) * 3 + (591,) + (0,) * 3 + (42,) + (0,) * 3 + (1,)

if (len(_J_NUM), len(_J_DEN)) != (21, 25):
    raise ValueError("j(t) must have numerator degree 20 and denominator degree 24")


@dataclass(frozen=True, slots=True)
class IgusaPoint:
    """Igusa invariants of a genus-2 curve, weighted degrees (2,4,6,8,10)."""

    J2: Fraction
    J4: Fraction
    J6: Fraction
    J8: Fraction
    J10: Fraction

    def __post_init__(self) -> None:
        for name in ("J2", "J4", "J6", "J8", "J10"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.J10 == 0:
            raise ValueError("J10 = 0 does not define a nonsingular curve")
        if 4 * self.J8 != self.J2 * self.J6 - self.J4**2:
            raise ValueError("Igusa invariants violate 4 J8 = J2 J6 - J4^2")


def family_j(t: Fraction | int) -> Fraction:
    """The coordinate j of the parameter t, exact in Q.

    Raises for the singular rational parameters t in {0, 1, -1}, where the
    numerator -64 t^4 (t^4 - 1)^4 vanishes and the invariants degenerate
    (J10 = j^3 = 0); the denominator (t^8 + 14 t^4 + 1)^3 is positive for
    every rational t.
    """
    t = Fraction(t)
    den = poly_eval(_J_DEN, t)
    if den <= 0:
        raise ArithmeticError(f"the denominator of j is {den} at t = {t}, not positive")
    j = poly_eval(_J_NUM, t) / den
    if j == 0:
        raise ValueError(f"singular parameter t = {t}")
    return j


def family_igusa(t: Fraction | int) -> IgusaPoint:
    """Igusa invariants of the fiber at t, exact in Q."""
    j = family_j(t)
    j2 = 12 * (j + 1)
    j4 = 6 * (j * j + j + 1)
    j6 = 4 * (j**3 - 2 * j * j + 1)
    j8 = (j2 * j6 - j4 * j4) / 4
    return IgusaPoint(j2, j4, j6, j8, j**3)


def _field_of_moduli_ok(j: Fraction) -> bool:
    """Whether -27 - 16/j is a rational square (field of moduli Q)."""
    value = -27 - Fraction(16) / j
    if value == 0:
        return True
    return rational_square_class(value)[1]


def _mestre_splits(j: Fraction) -> bool:
    """Whether the Mestre obstruction algebra (-6j, -2(27j+16)) splits."""
    finite, _ = ramified_places(QuatAlgebra(-6 * j, -2 * (27 * j + 16)))
    return not finite


def rational_model_checks(t: Fraction | int) -> tuple[bool, bool]:
    """(field of moduli is Q, Mestre obstruction vanishes) at parameter t.

    Both are true on the whole family; the checks recompute them from
    scratch at the given fiber rather than trusting the identity.
    """
    j = family_j(t)
    return _field_of_moduli_ok(j), _mestre_splits(j)
