"""Explicit genus-2 curves and the certification of their torsion.

* :mod:`quatorsion.genus2.curve` — curves y^2 = f(x) over Q, built from
  the coefficients of f: good primes, point counts, the factorization
  type of f mod p and the 2-torsion count it gives, and L-polynomials
  from the Hasse-Witt matrix: O(p) at one prime, and at every good
  p <= B from one recurrence of about B steps on integers of about
  1.44 B bits.
* :mod:`quatorsion.genus2.jacobian` — Mumford/Cantor arithmetic in
  J(F_p), uniform random classes, and a proof of its abstract group
  structure.
* :mod:`quatorsion.genus2.torsion` — certification of claimed rational
  torsion against reductions, and the table of five certified curves.
"""

from __future__ import annotations
