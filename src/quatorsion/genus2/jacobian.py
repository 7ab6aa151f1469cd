"""Mumford arithmetic on genus-2 Jacobians over prime fields.

Divisor classes on y^2 = f(x) with f monic of degree 5 are written in
Mumford form (u, v): u monic of degree <= 2, deg v < deg u, and
u | f - v^2.  The group law is Cantor's composition and reduction, and
the reduced representative of a class is unique, so any correct route
to the sum gives the same pair.

``cantor_add`` takes explicit straight-line formulas (after Lange,
"Formulae for arithmetic on genus 2 hyperelliptic curves", 2005) in the
common cases: two classes with deg u1 = deg u2 = 2 and gcd(u1, u2) = 1,
and the doubling of a class with deg u = 2 and gcd(u, v) = 1.  Both
compose to (U, V) with U = u1 u2 (or u^2) and V = v1 + s u1, where s of
degree <= 1 costs one inverse mod p, and reduce in one step to
u' = monic((f - V^2) / U), v' = -V mod u'.  D + (-D), the sum of two
points and the doubling of W + P with W a Weierstrass point (2P) are
closed forms too.  The rest -- a point plus a weight-two class, u1 != u2
with a common root, u1 = u2 with v1 != +-v2 -- goes through the generic
polynomial Cantor algorithm (``_cantor_generic``), which is also the
test oracle for the formulas.

Combined with the group order from the zeta function this proves the
abstract structure of J(F_p), one Sylow subgroup S at a time, for
ell^v || #J(F_p) (after Sutherland, "Structure computation and discrete
logarithms in finite abelian p-groups", Math. Comp. 80, 2011).  A
uniformly random class D projects to Q = [#J / ell^v] D in S, and the
ladder that multiplies Q by ell until it vanishes (shared with
``divisor_order``) ends at a class t of order ell in ell^k S for every k
below its depth.  Independent such t bound each rank r_k = dim
(ell^k S)[ell] from below, and the r_k sum to v, so S is proved once a
single shape Z/ell^e1 x Z/ell^e2 x ... fits the bounds, the ell-rank
<= 4 (<= 2 unless ell | p - 1, by the Weil pairing) and, for ell = 2,
the exact 2-rank read off the factorization type of f mod p (found by
distinct-degree factorization).  Probing stops as soon as every Sylow
subgroup is proved.

Degree-6 models are handled by passing to an odd-degree model: move a
rational Weierstrass point to infinity (x = a + 1/z) when the sextic has
a root a in F_p, then rescale to a monic quintic.

Without such a root, the L-polynomial step of ``curve`` still adds
classes, on the sextic z^6 f(a + 1/z) for an a with f(a) a non-square.
The leading coefficient of that model is f(a), so its two points at
infinity are conjugate over F_p and their sum D_inf is rational.  Every
class of J(F_p) is then D - D_inf for a unique reduced effective D of
degree 0 or 2; a rational point alone is not a class.  Cantor's
algorithm works unchanged: composing two such D gives deg u = 4, and
since f - v^2 keeps degree 6 (f(a) is not a square), one reduction
step brings u to degree 6 - 4 = 2.  An odd-degree u would stay at
degree 3, so ``_cantor_generic`` raises there rather than loop.  The
weight-two formulas above carry over, with the top three coefficients
of the sextic f - V^2 in the reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from ..exact import (
    factorint,
    fp_add,
    fp_distinct_degree,
    fp_divmod,
    fp_exact_div,
    fp_gcdext,
    fp_mod,
    fp_monic,
    fp_mul,
    fp_neg,
    fp_sub,
    fp_trim,
    sqrt_mod,
    validate_invariants,
)
from ..weil import WeilPoly2
from .curve import GenusTwoCurve, _eval, _taylor_coeffs, curve_lpoly, good_prime
from .torsion import two_torsion_count


def _deg(f) -> int:
    return len(f) - 1


# ---------------------------------------------------------------------------
# Mumford representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MumfordDivisor:
    """Reduced Mumford pair (u, v) over F_p, coefficients ascending."""

    p: int
    u: tuple[int, ...]
    v: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return self.u == (1,)


def identity_divisor(p: int) -> MumfordDivisor:
    return MumfordDivisor(p, (1,), ())


def mumford_divisor(f5, p: int, u, v) -> MumfordDivisor:
    """Validated Mumford divisor on y^2 = f5(x), f5 monic quintic mod p."""
    u = fp_trim([c % p for c in u])
    v = fp_trim([c % p for c in v])
    if not u or u[-1] != 1 or _deg(u) > 2:
        raise ValueError("u must be monic of degree <= 2")
    if _deg(v) >= _deg(u):
        raise ValueError("v must have degree < deg u")
    _, rem = fp_divmod(fp_sub(tuple(f5), fp_mul(v, v, p), p), u, p)
    if rem:
        raise ValueError("u does not divide f - v^2")
    return MumfordDivisor(p, u, v)


def divisor_from_point(f5, p: int, x: int, y: int) -> MumfordDivisor:
    """The class of the affine point (x, y) minus infinity."""
    x, y = x % p, y % p
    if y * y % p != _eval(f5, x, p):
        raise ValueError(f"({x}, {y}) is not on the curve mod {p}")
    return MumfordDivisor(p, ((p - x) % p, 1), (y,) if y else ())


# ---------------------------------------------------------------------------
# Cantor composition and reduction
# ---------------------------------------------------------------------------


def cantor_add(
    d1: MumfordDivisor, d2: MumfordDivisor, f5
) -> MumfordDivisor:
    """Sum of two divisor classes on y^2 = f5(x).

    The inputs must be reduced Mumford pairs on this curve.  On a monic
    quintic, D + (-D), sums of two points and weight-two sums use
    explicit formulas, and on a sextic with a non-square leading
    coefficient D + (-D) and weight-two sums do; the rest use the
    generic Cantor algorithm.
    """
    p = d1.p
    if p != d2.p:
        raise ValueError("divisors live over different prime fields")
    if d1.u == (1,):
        return d2
    if d2.u == (1,):
        return d1
    if d1.u == d2.u and d2.v == fp_neg(d1.v, p):
        return identity_divisor(p)
    out = None
    if len(f5) == 6 and f5[5] % p == 1:
        if len(d1.u) == 3 and len(d2.u) == 3:
            out = _add_weight_two(d1, d2, f5)
        elif len(d1.u) == 2 and len(d2.u) == 2:
            out = _add_points(f5, p, -d1.u[0], (d1.v or (0,))[0],
                              -d2.u[0], (d2.v or (0,))[0])
    elif len(f5) == 7 and len(d1.u) == 3 and len(d2.u) == 3:
        out = _add_weight_two(d1, d2, f5)
    return out if out is not None else _cantor_generic(d1, d2, f5)


def _add_points(f5, p: int, x1: int, y1: int, x2: int, y2: int) -> MumfordDivisor:
    """(x1, y1) + (x2, y2) - 2 infinity, for affine points with P2 != -P1.

    u = (x - x1)(x - x2) and v the line through both points, or the
    tangent at P1 when P2 = P1 (then y1 != 0).
    """
    if (x1 - x2) % p:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    else:
        slope = 0  # f'(x1)
        for i in range(5, 0, -1):
            slope = (slope * x1 + i * f5[i]) % p
        lam = slope * pow(2 * y1, -1, p) % p
    c = (y1 - lam * x1) % p
    v = (c, lam) if lam else ((c,) if c else ())
    return MumfordDivisor(p, (x1 * x2 % p, -(x1 + x2) % p, 1), v)


def _add_weight_two(
    d1: MumfordDivisor, d2: MumfordDivisor, f5
) -> MumfordDivisor | None:
    """Explicit sum of two weight-two classes, or None.

    The model is a monic quintic or a sextic with a non-square leading
    coefficient (module docstring).  D2 = -D1 must have been ruled out by
    the caller.

    None means the case is not covered: u1 = u2 with v1 != +-v2, a
    common root of u1 and u2, or on a sextic the doubling of a class with
    gcd(u, v) != 1, or a leading coefficient that is a square.
    """
    sextic = len(f5) == 7
    p = d1.p
    a0, a1, _ = d1.u
    b0, b1 = (d1.v + (0, 0))[:2]
    if d1.u != d2.u:
        # s = (v2 - v1) / u1 mod u2.  With u1 = u2 + r mod u2, r = r1 x + r0,
        # r (t1 x + t0) = res mod u2 and res = Res(u2, r) != 0 iff coprime.
        c0, c1, _ = d2.u
        e0, e1 = (d2.v + (0, 0))[:2]
        r1, r0 = a1 - c1, a0 - c0
        t1, t0 = -r1, r0 - r1 * c1
        res = (r0 * t0 + r1 * r1 * c0) % p
        if res == 0:
            return None
        w1, w0 = e1 - b1, e0 - b0
    elif d1.v == d2.v:
        # doubling: s = k / (2 v) mod u with k = (f - v^2) / u reduced mod u
        c0, c1 = a0, a1
        if sextic:
            w1, w0 = _quotient_mod_u(f5, a0, a1, b1, p)
        else:
            k2 = f5[4] - a1
            k1 = f5[3] - a1 * k2 - a0
            k0 = f5[2] - b1 * b1 - a1 * k1 - a0 * k2
            w1 = k1 + a1 * a1 - a0 - k2 * a1
            w0 = k0 + a1 * a0 - k2 * a0
        t1, t0 = -b1, b0 - b1 * a1
        res = 2 * (b0 * t0 + b1 * b1 * a0) % p
        if res == 0 and sextic:
            return None
        if res == 0:
            # v = b1 (x - alpha) vanishes at a root alpha of u, so D = W + P
            # with W = (alpha, 0) of order 2, P = (beta, v(beta)), 2D = 2P
            beta = (b0 * pow(b1, -1, p) - a1) % p
            y = (b1 * beta + b0) % p
            return _add_points(f5, p, beta, y, beta, y)
    else:
        return None
    # s = (w1 x + w0)(t1 x + t0) / res mod (x^2 + c1 x + c0)
    inv = pow(res, -1, p)
    s1 = (w1 * t0 + w0 * t1 - w1 * t1 * c1) * inv % p
    s0 = (w0 * t0 - w1 * t1 * c0) * inv % p
    # V = v1 + s u1 = s1 x^3 + v2 x^2 + v1 x + v0
    v2 = s1 * a1 + s0
    v1 = s1 * a0 + s0 * a1 + b1
    v0 = s0 * a0 + b0
    if sextic:
        # f - V^2 has degree 6, so (f - V^2) / (u1 u2) is a quadratic whose
        # coefficients need the top three of f - V^2 and of u1 u2
        q2 = (f5[6] - s1 * s1) % p
        if q2 == 0:
            return None
        q1 = f5[5] - 2 * s1 * v2 - q2 * (a1 + c1)
        q0 = f5[4] - 2 * s1 * v1 - v2 * v2 - q2 * (a0 + a1 * c1 + c0) - q1 * (a1 + c1)
    elif s1 == 0:
        # deg V <= 2: (f - V^2) / U = x + m0, and v' = -V(-m0)
        m0 = (f5[4] - a1 - s0 * s0 - c1) % p
        n0 = -((v2 * m0 - v1) * m0 + v0) % p
        return MumfordDivisor(p, (m0, 1), (n0,) if n0 else ())
    else:
        # (f - V^2) / (u1 u2) = (k - s (2 v1 + s u1)) / u2 with
        # k = (f - v1^2) / u1 monic cubic, so the quotient's three
        # coefficients need only the top three of the quartic
        # k - s (2 v1 + s u1).
        ss = s1 * s1
        q2 = -ss
        q1 = 1 - ss * a1 - 2 * s0 * s1 - q2 * c1
        q0 = f5[4] - a1 - ss * a0 - 2 * s0 * s1 * a1 - 2 * s1 * b1 - s0 * s0
        q0 -= q1 * c1 + q2 * c0
    lead = pow(q2, -1, p)
    m1, m0 = q1 * lead % p, q0 * lead % p
    # v' = -V mod x^2 + m1 x + m0, with x^3 = (m1^2 - m0) x + m1 m0
    n1 = -(v1 + s1 * (m1 * m1 - m0) - v2 * m1) % p
    n0 = -(v0 + s1 * m1 * m0 - v2 * m0) % p
    v = (n0, n1) if n1 else ((n0,) if n0 else ())
    return MumfordDivisor(p, (m0, m1, 1), v)


def _quotient_mod_u(f, a0: int, a1: int, b1: int, p: int):
    """(k1, k0) with k1 x + k0 = ((f - v^2) / u) mod u, for u = x^2 + a1 x
    + a0 and v = b1 x + b0: two synthetic divisions by the monic u.

    The quotient reads only the coefficients of degree >= 2, where f - v^2
    differs from f by b1^2 alone.
    """
    g = [0, 0, f[2] - b1 * b1, *f[3:]]
    k = [0] * (len(g) - 2)
    for i in range(len(k) - 1, -1, -1):
        k[i] = q = g[i + 2] % p
        g[i + 1] -= q * a1
        g[i] -= q * a0
    for i in range(len(k) - 3, -1, -1):
        q = k[i + 2] % p
        k[i + 1] -= q * a1
        k[i] -= q * a0
    return k[1], k[0]


def _cantor_generic(
    d1: MumfordDivisor, d2: MumfordDivisor, f5
) -> MumfordDivisor:
    """Cantor composition and reduction with polynomial arithmetic."""
    p = d1.p
    f = tuple(c % p for c in f5)
    u1, v1, u2, v2 = d1.u, d1.v, d2.u, d2.v

    g1, e1, e2 = fp_gcdext(u1, u2, p)
    d, c1, c2 = fp_gcdext(g1, fp_add(v1, v2, p), p)
    # s1 u1 + s2 u2 + s3 (v1 + v2) = d with s1 = c1 e1 etc.
    u = fp_exact_div(fp_mul(u1, u2, p), fp_mul(d, d, p), p)
    num = fp_add(
        fp_mul(fp_mul(c1, e1, p), fp_mul(u1, v2, p), p),
        fp_add(
            fp_mul(fp_mul(c1, e2, p), fp_mul(u2, v1, p), p),
            fp_mul(c2, fp_add(fp_mul(v1, v2, p), f, p), p),
            p,
        ),
        p,
    )
    v = fp_mod(fp_exact_div(num, d, p), u, p)

    while _deg(u) > 2:
        u_next = fp_monic(fp_exact_div(fp_sub(f, fp_mul(v, v, p), p), u, p), p)
        if _deg(u_next) >= _deg(u):
            # on a sextic f - v^2 has degree 6, so deg u = 3 would stay 3
            raise ArithmeticError(
                f"reduction of a degree-{_deg(u)} u makes no progress: "
                "odd-degree u on a sextic model")
        v = fp_neg(fp_mod(v, u_next, p), p)
        u = u_next
    return MumfordDivisor(p, u, v)


def cantor_neg(d: MumfordDivisor) -> MumfordDivisor:
    return MumfordDivisor(d.p, d.u, fp_neg(d.v, d.p))


def cantor_mul(n: int, d: MumfordDivisor, f5) -> MumfordDivisor:
    """n-th multiple of a divisor class (n may be negative)."""
    if n < 0:
        return cantor_mul(-n, cantor_neg(d), f5)
    acc = identity_divisor(d.p)
    sq = d
    while n:
        if n & 1:
            acc = cantor_add(acc, sq, f5)
        n >>= 1
        if n:
            sq = cantor_add(sq, sq, f5)
    return acc


def divisor_order(d: MumfordDivisor, f5, group_order: int) -> int:
    """Exact order of the class, given a multiple of it (the group order).

    One ladder per prime: for ell^v || N, Q = [N / ell^v] D is multiplied
    by ell until it vanishes, which takes at most v steps when N
    annihilates D; otherwise ValueError.
    """
    if group_order < 1:
        raise ValueError("group_order must be a positive integer")
    if group_order == 1 and not d.is_identity:
        raise ValueError("group_order does not annihilate the divisor")
    order = 1
    for ell, v in factorint(group_order).items():
        k, _ = _ell_ladder(cantor_mul(group_order // ell**v, d, f5), ell, v, f5)
        order *= ell**k
    return order


def _ell_ladder(q: MumfordDivisor, ell: int, v: int, f5) -> tuple[int, MumfordDivisor]:
    """(k, t) for a class q killed by ell^v: ell^k is its order and t =
    [ell^(k - 1)] q its last nonzero multiple (q itself when k = 0).

    ValueError when ell^v does not annihilate q.
    """
    k, t = 0, q
    while not q.is_identity:
        if k == v:
            raise ValueError("group_order does not annihilate the divisor")
        t, q = q, cantor_mul(ell, q, f5)
        k += 1
    return k, t


# ---------------------------------------------------------------------------
# odd-degree models and random classes
# ---------------------------------------------------------------------------


def odd_degree_model(curve: GenusTwoCurve, p: int):
    """A monic quintic F_p-model of the curve, or None.

    Degree-5 reductions rescale to a monic model directly; degree-6
    reductions need a rational Weierstrass point, i.e. a root a of the
    sextic mod p, which x -> a + 1/z sends to infinity.  Returns the
    quintic's six coefficients ascending (last one 1), or None when the
    sextic has no root in F_p.
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    return _quintic_model([v % p for v in curve.coeffs], p)


def _quintic_model(c, p: int):
    """``odd_degree_model`` of y^2 = c(x), c reduced mod a good prime p."""
    if c[6] == 0:
        quintic = c[:6]
    else:
        for a in range(p):
            if _eval(tuple(c), a, p) == 0:
                break
        else:
            return None
        taylor = _taylor_coeffs(c, a, p)
        if taylor[0] != 0 or taylor[1] == 0:
            raise ArithmeticError(
                f"x = {a} is not a simple root of the sextic mod {p}")
        quintic = [taylor[6 - j] for j in range(6)]
    # rescale x -> x / lead, y -> y / lead^2 to make the quintic monic
    lead = quintic[5]
    model = tuple(quintic[i] * pow(lead, 4 - i, p) % p for i in range(6))
    if model[5] != 1:
        raise ArithmeticError(f"rescaled quintic mod {p} is not monic")
    return model


def random_divisor(f, p: int, rng: random.Random) -> MumfordDivisor:
    """A uniformly random class of J(F_p) on y^2 = f(x).

    f is a monic quintic, or a sextic with a non-square leading
    coefficient (module docstring).  Every class is one reduced pair
    (u, v): u monic of degree 0, 1 or 2 on the quintic and of degree 0
    or 2 on the sextic, v one of the at most four square roots of f mod
    u of degree < deg u.  Each try draws such a u and an index below
    four, both uniformly, and keeps the root of that index if there is
    one.  So every class comes with the same probability, and a try
    succeeds with probability #J(F_p) / (4 * the number of u), about
    1/4.  A model without affine points is no exception.
    """
    lines = 0 if len(f) == 7 else p  # the u of degree 1
    while True:
        n, i = rng.randrange(1 + lines + p * p), rng.randrange(4)
        if n == 0:
            u = (1,)
        elif n <= lines:
            u = (n - 1, 1)
        else:
            u0, u1 = divmod(n - 1 - lines, p)
            u = (u0, u1, 1)
        roots = _square_roots_mod(f, u, p)
        if i < len(roots):
            return MumfordDivisor(p, u, roots[i])


def _square_roots_mod(f, u, p: int) -> list[tuple[int, ...]]:
    """Every v with deg v < deg u and v^2 = f mod u, for u monic of
    degree <= 2 and f squarefree, sorted.

    For deg u = 2 write u = X^2 - delta with X = x + u1/2, f = a + b X
    and v = c + e X mod u.  Then c^2 + delta e^2 = a and 2 c e = b, and
    c^2 - delta e^2 squares to the norm a^2 - delta b^2, which leaves at
    most eight (c, e) to test when delta != 0.  When delta = 0, c^2 = a
    with c != 0, since (x + u1/2)^2 does not divide f.
    """
    if len(u) == 1:
        return [()]
    if len(u) == 2:
        return [fp_trim([y]) for y in _square_roots(_eval(f, -u[0], p), p)]
    u0, u1 = u[0], u[1]
    r = list(f)  # f mod u by synthetic division
    for i in range(len(r) - 1, 1, -1):
        r[i - 1] -= r[i] * u1
        r[i - 2] -= r[i] * u0
    half = (p + 1) // 2
    h = u1 * half % p
    delta = (h * h - u0) % p
    a, b = (r[0] - r[1] * h) % p, r[1] % p
    if delta == 0:
        pairs = {(c, b * pow(2 * c, -1, p) % p) for c in _square_roots(a, p) if c}
    else:
        to_e = half * pow(delta, -1, p)
        pairs = {(c, e)
                 for n in _square_roots(a * a - delta * b * b, p)
                 for c in _square_roots((a + n) * half, p)
                 for e in _square_roots((a - n) * to_e, p)
                 if (2 * c * e - b) % p == 0}
    return sorted(fp_trim([(c + e * h) % p, e]) for c, e in pairs)


def _square_roots(w: int, p: int) -> list[int]:
    """The y in [0, p) with y^2 = w mod p."""
    y = sqrt_mod(w, p)
    return [] if y is None else [y] if y == 0 else [y, p - y]


# ---------------------------------------------------------------------------
# settling the L-polynomial by annihilation
# ---------------------------------------------------------------------------


def _inert_model(c, p: int, twist: int = 1):
    """z^6 g(a + 1/z) for g = twist * c and g(a) a non-square, or None.

    Its leading coefficient g(a) is a non-square: the two points at
    infinity are conjugate, and their sum D_inf is rational (module
    docstring).
    """
    for a in range(p):
        value = twist * _eval(c, a, p) % p
        if value and pow(value, (p - 1) // 2, p) != 1:
            return tuple(twist * t % p for t in reversed(_taylor_coeffs(c, a, p)))
    return None


def _class_models(c, p: int, degrees, model):
    """Models of y^2 = c(x) and of its quadratic twist y^2 = d c(x) on
    which Cantor's algorithm adds classes, each None where there is none.

    A rational Weierstrass point gives monic quintics; ``model`` is the
    curve's when the caller has it.  Without one, the models are sextics
    with a non-square leading coefficient.
    """
    d = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)
    if c[6] and 1 not in degrees:
        return _inert_model(c, p), _inert_model(c, p, d)
    f5 = model if model is not None else _quintic_model(c, p)
    # y^2 = d f5(x), and X = d x, Y = d^2 y make it monic
    return f5, tuple(a * pow(d, 5 - i, p) % p for i, a in enumerate(f5))


def _settle_by_annihilation(c, p: int, candidates, degrees, model, rng) -> WeilPoly2:
    """The candidate L whose L(1) annihilates J(F_p) and whose L(-1)
    annihilates the Jacobian of the quadratic twist.

    The candidates share a1, and their a2, L(1) and L(-1) differ by
    multiples of p.  For a class D and R = [p] D, the candidate with
    order n_0 + k p is ruled out unless [n_0] D + k R = 0.  Each round
    draws a class on the curve and, while more than one candidate is
    left, one on the twist, with ``random_divisor`` on the monic quintic
    or on the sextic with a non-square leading coefficient.  The true
    candidate is never ruled out; if more than one is left after 16
    rounds, ArithmeticError.
    """
    alive = sorted(candidates, key=lambda w: w.a2)
    models = zip(_class_models(c, p, degrees, model), (1, -1))
    sides = [(F, sign) for F, sign in models if F is not None]
    for _ in range(16):
        for F, sign in sides:
            d = random_divisor(F, p, rng)
            orders = [WeilPoly2(p, sign * w.a1, w.a2).point_count() for w in alive]
            step = cantor_mul(p, d, F)
            acc, at = cantor_mul(orders[0], d, F), orders[0]
            kept = []
            for w, n in zip(alive, orders):
                while at < n:
                    acc, at = cantor_add(acc, step, F), at + p
                if acc.is_identity:
                    kept.append(w)
            alive = kept
            if len(alive) == 1:
                return alive[0]
            if not alive:
                raise ArithmeticError(f"no candidate L-polynomial annihilates J(F_{p})")
    raise ArithmeticError(
        f"{len(alive)} L-polynomials mod {p} annihilate every class tried "
        "on the curve and its twist")


# ---------------------------------------------------------------------------
# group structure of J(F_p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JacobianGroup:
    """Order, invariant factors (ascending chain), and 2-rank of J(F_p).

    ``invariants`` is None when the structure is not proved: no
    odd-degree model exists mod p (the sextic has no F_p-root), or 16
    classes left a Sylow subgroup open.  The order and the 2-rank are
    always reported.
    """

    p: int
    order: int
    invariants: tuple[int, ...] | None
    two_rank: int


def _factor_degrees(curve: GenusTwoCurve, p: int) -> list[int]:
    """Degrees of the irreducible factors of f mod a good prime p, from
    the distinct-degree split of the squarefree f."""
    f = fp_monic(fp_trim([c % p for c in curve.coeffs]), p)
    return [k for k, g in fp_distinct_degree(f, p) for _ in range(_deg(g) // k)]


def _two_rank(degrees) -> int:
    """r with J(F_p)[2] = (Z/2)^r, from the factor degrees of f mod p."""
    return two_torsion_count(degrees).bit_length() - 1


class _SylowProof:
    """Certificate for the ell-Sylow subgroup S of J(F_p), ell^v || #J.

    ``basis`` holds triples (b, e, t): a class b of S of order ell^e and
    its last nonzero multiple t = [ell^(e - 1)] b, with the t
    independent over F_ell.  Each t lies in ell^k S for k < e, so r_k =
    dim (ell^k S)[ell] is at least the number of e > k.  ``shapes`` are
    the partitions (e1 >= e2 >= ...) of v, for S = Z/ell^e1 x Z/ell^e2 x
    ..., that these bounds leave, among those with at most four parts,
    at most two unless ell | p - 1 (three independent classes of order
    ell pair nontrivially under the Weil pairing, which puts mu_ell in
    F_p), and exactly ``two_rank`` parts for ell = 2.  S is proved when
    one shape is left.
    """

    def __init__(self, ell: int, v: int, p: int, two_rank: int):
        self.ell, self.v = ell, v
        most = 4 if (p - 1) % ell == 0 else 2
        self.shapes = [s for s in _partitions(v, most) if ell != 2 or len(s) == two_rank]
        self.basis: list[tuple[MumfordDivisor, int, MumfordDivisor]] = []

    @property
    def shape(self) -> tuple[int, ...] | None:
        return self.shapes[0] if len(self.shapes) == 1 else None

    def add(self, q: MumfordDivisor, f5) -> None:
        """Take in a class q of S.

        Let q have depth d and last nonzero multiple t.  If t is not in
        the span of the basis t_i, q joins the basis.  Otherwise t = sum
        c_i t_i, and q - sum c_i [ell^(e_i - d)] b_i over the e_i >= d
        has smaller depth and is taken in again; if only e_i < d take
        part, q replaces one such b_i, which is taken in again.  Each
        step lowers a depth or raises the sum of the e_i, which is at
        most v.  A class is dropped once its depth d can no longer tell
        the shapes apart, since it only bounds r_k for k < d.
        """
        ell, pending = self.ell, [q]
        while pending and self.shape is None:
            q = pending.pop()
            while True:
                depth, t = _ell_ladder(q, ell, self.v, f5)
                if self._settled_below(depth):
                    break
                coords = _coordinates(t, [t_i for _, _, t_i in self.basis], ell, f5)
                if coords is None:
                    self.basis.append((q, depth, t))
                    break
                deeper = [(c, b, e) for c, (b, e, _) in zip(coords, self.basis)
                          if c and e >= depth]
                for c, b, e in deeper:
                    q = cantor_add(q, cantor_mul(-c * ell ** (e - depth), b, f5), f5)
                if not deeper:
                    j = next(i for i, c in enumerate(coords) if c)
                    pending.append(self.basis[j][0])
                    self.basis[j] = (q, depth, t)
                    break
            es = sorted((e for _, e, _ in self.basis), reverse=True)
            self.shapes = [s for s in self.shapes
                           if len(s) >= len(es) and all(a >= b for a, b in zip(s, es))]

    def _settled_below(self, depth: int) -> bool:
        """Whether every shape left has the same r_k for all k < depth."""
        ranks = {tuple(sum(e > k for e in s) for k in range(depth)) for s in self.shapes}
        return len(ranks) == 1


def _partitions(v: int, most: int, top: int | None = None):
    """Partitions of v into at most ``most`` parts, each <= top, descending."""
    if v == 0:
        yield ()
        return
    if most == 0:
        return
    for first in range(min(v, top or v), 0, -1):
        for rest in _partitions(v - first, most - 1, first):
            yield (first, *rest)


def _coordinates(t: MumfordDivisor, ts, ell: int, f5) -> tuple[int, ...] | None:
    """(c_i) in [0, ell) with t = sum c_i t_i, for F_ell-independent
    classes t_i of order ell, or None when t is not in their span.

    Baby steps hold the span of the first half of the t_i, ell^(m // 2)
    classes for m of them, and giant steps walk the span of the rest.
    """
    half = len(ts) // 2
    baby = dict(_span(ts[:half], t.p, ell, f5))
    for s, cs in _span(ts[half:], t.p, ell, f5):
        hit = baby.get(cantor_add(t, cantor_neg(s), f5))
        if hit is not None:
            return hit + cs
    return None


def _span(ts, p: int, ell: int, f5):
    """(sum c_i t_i, (c_i)) for every (c_i) in [0, ell)^len(ts)."""
    if not ts:
        yield identity_divisor(p), ()
        return
    for s, cs in _span(ts[:-1], p, ell, f5):
        for c in range(ell):
            yield s, cs + (c,)
            s = cantor_add(s, ts[-1], f5)


def _invariant_factors(sylows) -> tuple[int, ...]:
    """The chain d1 | d2 | ... of Z/q x Z/q' x ..., for the cyclic
    factors q (prime powers) of each Sylow subgroup."""
    ranked = [sorted(qs, reverse=True) for qs in sylows]
    k = max(map(len, ranked), default=0)
    ds = [prod(qs[i] for qs in ranked if i < len(qs)) for i in range(k)]
    return validate_invariants(reversed(ds))


def jacobian_group_mod_p(
    curve: GenusTwoCurve, p: int, seed: int = 0
) -> JacobianGroup:
    """Structure of J(F_p) at a good prime p.

    The order comes from the zeta function and the 2-rank from the
    factorization type of f mod p.  Each Sylow subgroup is proved by
    ``_SylowProof`` from at most 16 uniformly random classes (seeded,
    hence deterministic); probing stops as soon as every one is proved,
    which needs no probe where order and rank bounds leave one shape.  A
    Sylow subgroup still open after 16 probes leaves the structure
    unproved, and ``invariants`` is None.
    """
    degrees = _factor_degrees(curve, p)
    two_rank = _two_rank(degrees)
    f5 = odd_degree_model(curve, p)
    order = curve_lpoly(curve, p, degrees=degrees, model=f5).point_count()
    if f5 is None:
        return JacobianGroup(p, order, None, two_rank)
    sylows = [_SylowProof(ell, v, p, two_rank) for ell, v in factorint(order).items()]
    rng = random.Random(seed)
    for _ in range(16):
        open_ = [s for s in sylows if s.shape is None]
        if not open_:
            break
        d = random_divisor(f5, p, rng)
        for s in open_:
            s.add(cantor_mul(order // s.ell**s.v, d, f5), f5)
    if any(s.shape is None for s in sylows):
        return JacobianGroup(p, order, None, two_rank)
    cyclic = [[s.ell**e for e in s.shape] for s in sylows]
    return JacobianGroup(p, order, _invariant_factors(cyclic), two_rank)
