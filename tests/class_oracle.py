"""Every class of J(F_p), listed without the sampler: an oracle for the
group structure at small p.

``enumerate_classes`` solves for the reduced Mumford pairs directly, so
the tests can compare ``jacobian_group_mod_p`` and the Frobenius rule
with the orders of all #J(F_p) classes.
"""

from __future__ import annotations

import collections
import itertools

from quatorsion.exact import fp_divmod, poly_eval
from quatorsion.genus2.jacobian import identity_divisor, mumford_divisor


def enumerate_classes(f, p: int) -> list:
    """Every reduced pair (u, v) on y^2 = f(x), found without the sampler:
    deg u <= 2 on a quintic, deg u in {0, 2} on a sextic, and for
    u = x^2 + u1 x + u0, v = v0 + v1 x solves v0^2 - u0 v1^2 = r0 and
    2 v0 v1 - u1 v1^2 = r1 for f = r0 + r1 x mod u."""
    roots = collections.defaultdict(list)
    for y in range(p):
        roots[y * y % p].append(y)
    out = [identity_divisor(p)]
    if len(f) == 6:
        out += [mumford_divisor(f, p, (-x, 1), (y,)) for x in range(p)
                for y in roots[poly_eval(f, x) % p]]
    for u0, u1 in itertools.product(range(p), repeat=2):
        r0, r1 = (fp_divmod(f, (u0, u1, 1), p)[1] + (0, 0))[:2]
        for v1 in range(p):
            if v1:
                v0 = (r1 + u1 * v1 * v1) * pow(2 * v1, -1, p) % p
                v0s = [v0] if (v0 * v0 - u0 * v1 * v1 - r0) % p == 0 else []
            else:
                v0s = roots[r0] if r1 == 0 else []
            out += [mumford_divisor(f, p, (u0, u1, 1), (v0, v1)) for v0 in v0s]
    return out
