"""Quaternion orders, Weil polynomials, and torsion of abelian surfaces.

Subpackages and modules:

* :mod:`quatorsion.exact` — exact arithmetic substrate (symbols, Smith
  forms, integer polynomial factorization).
* :mod:`quatorsion.quat` — rational quaternion algebras, orders,
  normalizers, Atkin–Lehner structure.
* :mod:`quatorsion.actions` — dihedral subgroups of Aut(O) and their
  fixed points on O/NO; polarization and distinguished-subring checks.
* :mod:`quatorsion.weil` — Weil polynomials of abelian surfaces over
  finite fields: labels, enumeration, base change, torsion bounds.
* :mod:`quatorsion.newform` — weight-2 newform screening for potential
  quaternionic multiplication.
* :mod:`quatorsion.genus2` — point counts, Jacobian arithmetic and
  torsion certification of explicit genus-2 curves.
"""

from __future__ import annotations

__version__ = "0.1.0"
