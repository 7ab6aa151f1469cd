"""Mumford arithmetic on genus-2 Jacobians over prime fields.

Divisor classes on y^2 = f(x) are written in Mumford form (u, v): u
monic of degree <= 2, deg v < deg u, and u | f - v^2.  The group law is
Cantor's composition and reduction (``_cantor_generic``), and the
reduced representative of a class is unique, so any correct route to
the sum gives the same pair.

Classes are added on the "inert" sextic z^6 f(a + 1/z) for an a with
f(a) a non-square (``_inert_model``), found in a few values of f, or on
f itself when only f_6 is one, which needs no root of f: the
L-polynomial step of ``curve`` draws classes there and on the twist's,
and ``jacobian_group_mod_p`` probes there.
The leading coefficient of that model is f(a), so its two points at
infinity are conjugate over F_p and their sum D_inf is rational.  Every
class of J(F_p) is then D - D_inf for a unique reduced effective D of
degree 0 or 2; a rational point alone is not a class.  Cantor's
algorithm works unchanged: composing two such D gives deg u = 4, and
since f - v^2 keeps degree 6 (f(a) is not a square), one reduction step
brings u to degree 6 - 4 = 2.  An odd-degree u would stay at degree 3,
so ``_cantor_generic`` raises there rather than loop.

On that model explicit straight-line formulas (after Lange, "Formulae
for arithmetic on genus 2 hyperelliptic curves", 2005) cover the common
cases: two classes with deg u1 = deg u2 = 2 and gcd(u1, u2) = 1, and the
doubling of a class with deg u = 2 and gcd(u, v) = 1.  Both compose to
(U, V) with U = u1 u2 (or u^2) and V = v1 + s u1, where s of degree <= 1
costs one inverse mod p, and reduce in one step to u' = monic((f - V^2)
/ U), v' = -V mod u', from the top three coefficients of f - V^2 and of
U.  They live in one integer kernel, ``_add_weight_two``, which maps the
eight integers u0, u1, v0, v1 of the two classes to the four of the sum,
or declines.  The ladder of ``cantor_mul`` keeps its state in those
integers and builds a divisor only at the end.  D + (-D), the sum P1 +
P2 - D_inf of two points and the doubling of W + P with W a Weierstrass
point (2P) are closed forms too.  Two weight-two classes with one common
root al are P + B and +-P + G over x = al, be, ga, all in F_p: their sum
is B + G, or (2P) + (B + G) with coprime u; and u1 = u2 with v1 != +-v2
sums to 2P for the root where v1 = v2.  Only 3P + B, from u = (x - al)^2
and a point over al, goes through ``_cantor_generic``, which is also the
test oracle for the formulas.  So does every sum on the quintic of
``odd_degree_model`` (z^6 f(a + 1/z) for a root a of f, or f itself
where its degree drops mod p), which ``jacobian_group_mod_p`` probes on
only at the few small primes where the sextic has no inert model.
``_ladder_add`` is the one place that picks the route of a sum, for
``cantor_add`` and for the ladder of ``cantor_mul`` alike.

A class enters through ``mumford_divisor`` or ``random_divisor``, and
both check the model there: f must be a quintic (f_5 != 0 mod p) or a
sextic with a non-square leading coefficient, on which a u of degree 1
is no class.  Any other model, a split sextic for one, raises
ValueError rather than give classes the group order does not kill.

Combined with the group order from the zeta function this proves the
abstract structure of J(F_p), one Sylow subgroup S at a time, for
ell^v || #J(F_p) (``_SylowProof``).  S is proved once one shape Z/ell^e1
x Z/ell^e2 x ... is left, and three rules narrow the shapes, in this
order:

1. The bounds: the ell-rank is <= 4 (<= 2 unless ell | p - 1, by the
   Weil pairing) and, for ell = 2, exactly the 2-rank read off the
   factorization type of f mod p (step 3 of ``curve`` and its
   ``_factor_degrees``).
2. The Weil polynomial alone, with no model and no class: where ell^2
   does not divide the discriminant of its radical m, Z_ell[pi] is
   maximal and S = (Z/ell^e)^k with e = v_ell(m(1)) and k = 4 / deg m
   (``_frobenius_shape``, after Tate and Lenstra).  At the 107 good
   p <= 100 of the five table curves it proves 16 structures that the
   bounds leave open at primes where f has no root, and leaves 12
   primes that need classes.
3. Classes (after Sutherland, "Structure computation and discrete
   logarithms in finite abelian p-groups", Math. Comp. 80, 2011).  A
   uniformly random class D projects to Q = [#J / ell^v] D in S, and the
   ladder that multiplies Q by ell until it vanishes (shared with
   ``divisor_order``) ends at a class t of order ell in ell^k S for
   every k below its depth.  Independent such t bound each rank r_k =
   dim (ell^k S)[ell] from below, and the r_k sum to v; whether a new t
   is a combination of m found ones is a balanced baby-step giant-step
   search with about ell^(m/2) classes a side (``_coordinates``), so
   telling (Z/ell)^2 from Z/ell^2 takes O(sqrt(ell)) additions.  Probing
   stops as soon as every Sylow subgroup is proved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt, prod

from ..exact import (
    factorint,
    fp_add,
    fp_divmod,
    fp_exact_div,
    fp_gcdext,
    fp_mod,
    fp_monic,
    fp_mul,
    fp_neg,
    fp_sub,
    fp_trim,
    multiplicity,
    poly_eval,
    poly_taylor,
    sqrt_mod,
    validate_invariants,
)
from ..weil import WeilPoly2
from .curve import GenusTwoCurve, _reductions, _two_rank, good_prime


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


def mumford_divisor(f, p: int, u, v) -> MumfordDivisor:
    """The class of the Mumford pair (u, v) on y^2 = f(x), validated.

    f is a model that ``_check_model`` accepts.  On a quintic, an affine
    point (a, b) less the point at infinity is the pair (x - a, b).
    """
    _check_model(f, p)
    u = fp_trim([c % p for c in u])
    v = fp_trim([c % p for c in v])
    if not u or u[-1] != 1 or _deg(u) > 2:
        raise ValueError("u must be monic of degree <= 2")
    if _deg(u) == 1 and len(f) == 7:
        raise ValueError("u of degree 1 is no class on a sextic model")
    if _deg(v) >= _deg(u):
        raise ValueError("v must have degree < deg u")
    _, rem = fp_divmod(fp_sub(tuple(f), fp_mul(v, v, p), p), u, p)
    if rem:
        raise ValueError("u does not divide f - v^2")
    return MumfordDivisor(p, u, v)


def _check_model(f, p: int) -> None:
    """ValueError unless y^2 = f(x) mod p is a model the arithmetic serves:
    a quintic (six coefficients, f_5 != 0 mod p) or a sextic (seven)
    whose leading coefficient is a non-square mod p (module docstring)."""
    if not (len(f) == 6 and f[5] % p or len(f) == 7 and _legendre(f[6], p) < 0):
        raise ValueError(
            f"y^2 = f(x) mod {p} is neither a quintic nor a sextic with a "
            "non-square leading coefficient")


# ---------------------------------------------------------------------------
# Cantor composition and reduction
# ---------------------------------------------------------------------------


def cantor_add(d1: MumfordDivisor, d2: MumfordDivisor, f) -> MumfordDivisor:
    """Sum of two classes of y^2 = f(x), given as reduced Mumford pairs:
    ``_ladder_add`` on their ladder states."""
    p = d1.p
    if p != d2.p:
        raise ValueError("divisors live over different prime fields")
    return _from_state(p, _ladder_add(_ladder_state(d1, f), _ladder_state(d2, f), f, p))


def _weight_two(d: MumfordDivisor) -> tuple[int, int, int, int]:
    """(u0, u1, v0, v1) of a class with u = x^2 + u1 x + u0, v = v1 x + v0."""
    v = d.v
    return d.u[0], d.u[1], v[0] if v else 0, v[1] if len(v) == 2 else 0


def _divisor(p: int, t) -> MumfordDivisor:
    """The class of the kernel's integers (u0, u1, v0, v1)."""
    u0, u1, v0, v1 = t
    return MumfordDivisor(p, (u0, u1, 1), (v0, v1) if v1 else (v0,) if v0 else ())


def _ladder_state(d: MumfordDivisor, f):
    """The four integers of a weight-two class on a sextic, or the class
    itself."""
    return _weight_two(d) if len(d.u) == 3 and len(f) == 7 else d


def _from_state(p: int, x) -> MumfordDivisor:
    """The class of a ladder state (``_ladder_state``)."""
    return _divisor(p, x) if type(x) is tuple else x


def _ladder_add(x, y, f, p: int):
    """x + y for two ladder states (``_ladder_state``), as a ladder state.

    The one place that picks the route of a sum: Lange's kernel
    ``_add_weight_two`` for two weight-two classes on a sextic, the
    identity, D + (-D), and ``_cantor_generic`` for the rest, which is
    every sum on a quintic.
    """
    if type(x) is tuple and type(y) is tuple:
        out = _add_weight_two(f, p, *x, *y)
        if out is not None:
            return out
    d1, d2 = _from_state(p, x), _from_state(p, y)
    if d1.u == (1,):
        return y
    if d2.u == (1,):
        return x
    if d1.u == d2.u and d2.v == fp_neg(d1.v, p):
        return identity_divisor(p)
    return _ladder_state(_cantor_generic(d1, d2, f), f)


def _add_points(f, p: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int, int]:
    """P1 + P2 - D_inf for affine points P1 = (x1, y1) and P2 = (x2, y2) !=
    -P1 of the inert sextic, as the kernel's four integers.

    u = (x - x1)(x - x2) and v the line through both points, or the
    tangent at P1 when P2 = P1 (then y1 != 0).
    """
    if (x1 - x2) % p:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    else:
        slope = 0  # f'(x1)
        for i in range(len(f) - 1, 0, -1):
            slope = (slope * x1 + i * f[i]) % p
        lam = slope * pow(2 * y1, -1, p) % p
    return x1 * x2 % p, -(x1 + x2) % p, (y1 - lam * x1) % p, lam


def _add_weight_two(f, p: int, a0: int, a1: int, b0: int, b1: int,
                    c0: int, c1: int, e0: int, e1: int):
    """The sum of two weight-two classes, (x^2 + a1 x + a0, b1 x + b0) and
    (x^2 + c1 x + c0, e1 x + e0), with coefficients in [0, p): the
    integers (u0, u1, v0, v1) of the reduced sum, or None.

    This is the home of the straight-line formulas, with ``_add_points``.
    The model is a sextic with a non-square leading coefficient (module
    docstring).

    None means the case is not covered: D2 = -D1, 3P + B from a common
    root (module docstring), or a leading coefficient that is a square.
    """
    if a0 == c0 and a1 == c1 and (b0 + e0) % p == 0 and (b1 + e1) % p == 0:
        return None  # D2 = -D1
    if a0 != c0 or a1 != c1:
        # s = (v2 - v1) / u1 mod u2.  With u1 = u2 + r mod u2, r = r1 x + r0,
        # r (t1 x + t0) = res mod u2 and res = Res(u2, r) != 0 iff coprime.
        r1, r0 = a1 - c1, a0 - c0
        t1, t0 = -r1, r0 - r1 * c1
        res = (r0 * t0 + r1 * r1 * c0) % p
        if res == 0:
            # one common root al = -r0 / r1: D1 = P + B and D2 = Q + G over
            # x = al, be, ga, with Q = +-P
            al = r0 * pow(-r1, -1, p) % p
            be, ga = (-a1 - al) % p, (-c1 - al) % p
            y, yb, yg = (b1 * al + b0) % p, (b1 * be + b0) % p, (e1 * ga + e0) % p
            if (y + e1 * al + e0) % p == 0:  # Q = -P: the sum is B + G
                return _add_points(f, p, be, yb, ga, yg)
            if al == be or al == ga:  # 3P + G or 3P + B
                return None
            # Q = P: the sum is 2P + (B + G), and u = (x - al)^2 is prime to
            # (x - be)(x - ga)
            return _add_weight_two(f, p, *_add_points(f, p, al, y, al, y),
                                   *_add_points(f, p, be, yb, ga, yg))
        w1, w0 = e1 - b1, e0 - b0
    elif b0 == e0 and b1 == e1:
        # doubling: s = k / (2 v) mod u with k = (f - v^2) / u reduced mod u,
        # by synthetic division; the quotient k reads only the coefficients
        # of degree >= 2, where f - v^2 differs from f by b1^2 alone
        k4 = f[6]
        k3 = f[5] - a1 * k4
        k2 = f[4] - a1 * k3 - a0 * k4
        k1 = f[3] - a1 * k2 - a0 * k3
        k0 = f[2] - b1 * b1 - a1 * k1 - a0 * k2
        q1 = k3 - a1 * k4  # k = (k4 x^2 + q1 x + q0) u + w1 x + w0
        q0 = k2 - a1 * q1 - a0 * k4
        w1, w0 = k1 - a1 * q0 - a0 * q1, k0 - a0 * q0
        t1, t0 = -b1, b0 - b1 * a1
        res = 2 * (b0 * t0 + b1 * b1 * a0) % p
        if res == 0:
            # v = b1 (x - alpha) vanishes at a root alpha of u, so D = W + P
            # with W = (alpha, 0) of order 2, P = (beta, v(beta)), 2D = 2P
            beta = (b0 * pow(b1, -1, p) - a1) % p
            y = (b1 * beta + b0) % p
            return _add_points(f, p, beta, y, beta, y)
    else:
        # u1 = u2 and v1 != +-v2: the classes agree over one root al of u,
        # where v1 = v2, and are opposite over the other, so the sum is 2P
        # for P = (al, v1(al))
        al = (e0 - b0) * pow(b1 - e1, -1, p) % p
        y = (b1 * al + b0) % p
        return _add_points(f, p, al, y, al, y)
    # s = (w1 x + w0)(t1 x + t0) / res mod (x^2 + c1 x + c0)
    inv = pow(res, -1, p)
    s1 = (w1 * t0 + w0 * t1 - w1 * t1 * c1) * inv % p
    s0 = (w0 * t0 - w1 * t1 * c0) * inv % p
    # V = v1 + s u1 = s1 x^3 + v2 x^2 + v1 x + v0
    v2 = s1 * a1 + s0
    v1 = s1 * a0 + s0 * a1 + b1
    v0 = s0 * a0 + b0
    # f - V^2 has degree 6, so (f - V^2) / (u1 u2) is a quadratic whose
    # coefficients need the top three of f - V^2 and of u1 u2
    q2 = (f[6] - s1 * s1) % p
    if q2 == 0:
        return None
    q1 = f[5] - 2 * s1 * v2 - q2 * (a1 + c1)
    q0 = f[4] - 2 * s1 * v1 - v2 * v2 - q2 * (a0 + a1 * c1 + c0) - q1 * (a1 + c1)
    lead = pow(q2, -1, p)
    m1, m0 = q1 * lead % p, q0 * lead % p
    # v' = -V mod x^2 + m1 x + m0, with x^3 = (m1^2 - m0) x + m1 m0
    n1 = -(v1 + s1 * (m1 * m1 - m0) - v2 * m1) % p
    n0 = -(v0 + s1 * m1 * m0 - v2 * m0) % p
    return m0, m1, n0, n1


def _cantor_generic(d1: MumfordDivisor, d2: MumfordDivisor, f) -> MumfordDivisor:
    """Cantor composition and reduction with polynomial arithmetic."""
    p = d1.p
    f = tuple(c % p for c in f)
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


def cantor_mul(n: int, d: MumfordDivisor, f) -> MumfordDivisor:
    """n-th multiple of a divisor class (n may be negative).

    A left-to-right ladder on the non-adjacent form of n: -D = (u, -v)
    costs nothing, so each nonzero digit is one addition of D or -D, on
    average one for every three doublings.  Digit i of that form is bit
    i of 3n minus bit i of n.  On a sextic the ladder keeps a weight-two
    class as the four integers of ``_add_weight_two`` and steps on them
    with ``_ladder_add``, and the divisor is built once, at the end.
    """
    if n < 0:
        return cantor_mul(-n, cantor_neg(d), f)
    if n == 0:
        return identity_divisor(d.p)
    p = d.p
    plus, minus = _ladder_state(d, f), _ladder_state(cantor_neg(d), f)
    triple, acc = 3 * n, plus
    for i in range(triple.bit_length() - 2, 0, -1):
        acc = _ladder_add(acc, acc, f, p)
        digit = (triple >> i & 1) - (n >> i & 1)
        if digit:
            acc = _ladder_add(acc, plus if digit > 0 else minus, f, p)
    return _from_state(p, acc)


def divisor_order(d: MumfordDivisor, f, group_order: int) -> int:
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
        k, _ = _ell_ladder(cantor_mul(group_order // ell**v, d, f), ell, v, f)
        order *= ell**k
    return order


def _ell_ladder(q: MumfordDivisor, ell: int, v: int, f) -> tuple[int, MumfordDivisor]:
    """(k, t) for a class q killed by ell^v: ell^k is its order and t =
    [ell^(k - 1)] q its last nonzero multiple (q itself when k = 0).

    ValueError when ell^v does not annihilate q.
    """
    k, t = 0, q
    while not q.is_identity:
        if k == v:
            raise ValueError("group_order does not annihilate the divisor")
        t, q = q, cantor_mul(ell, q, f)
        k += 1
    return k, t


# ---------------------------------------------------------------------------
# odd-degree models and random classes
# ---------------------------------------------------------------------------


def odd_degree_model(curve: GenusTwoCurve, p: int):
    """A quintic F_p-model of the curve, or None.

    A reduction of degree 5 is its own model.  One of degree 6 needs a
    rational Weierstrass point, a root a of the sextic mod p, which x =
    a + 1/z sends to infinity: z^6 f(a + 1/z) has degree 5, since a is a
    simple root at a good prime.  Returns the quintic's six coefficients
    ascending, or None when the sextic has no root in F_p.

    This is the slow fallback: every sum on the quintic runs
    ``_cantor_generic`` with polynomial arithmetic, and none the integer
    formulas of ``_add_weight_two`` (CHANGES.md has a run at p =
    10007).  ``jacobian_group_mod_p`` probes on it only where the curve
    has no inert model (``_inert_model``).
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    c = [v % p for v in curve.coeffs]
    if c[6]:
        a = next((a for a in range(p) if poly_eval(c, a) % p == 0), None)
        if a is None:
            return None
        c = [t % p for t in reversed(poly_taylor(c, a))]
    return tuple(c[:6])


def random_divisor(f, p: int, rng: random.Random) -> MumfordDivisor:
    """A uniformly random class of J(F_p) on y^2 = f(x).

    f is a quintic, or a sextic with a non-square leading coefficient
    (``_check_model``, which raises ValueError for any other model).
    Every class is one reduced pair (u, v): u monic of degree 0, 1 or 2
    on the quintic and of degree 0 or 2 on the sextic, v one of the at
    most four square roots of f mod u of degree < deg u.  Each try draws such a u and an index below
    four, both uniformly, and keeps the root of that index if there is
    one.  So every class comes with the same probability, and a try
    succeeds with probability #J(F_p) / (4 * the number of u), about
    1/4.  A model without affine points is no exception.  The number of
    roots comes from Legendre symbols (``_root_count``), so only a try
    that succeeds extracts square roots.
    """
    _check_model(f, p)
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
        if i < _root_count(f, u, p):
            return MumfordDivisor(p, u, _square_roots_mod(f, u, p)[i])


def _root_count(f, u, p: int) -> int:
    """len(_square_roots_mod(f, u, p)), without extracting a square root
    of f.

    With the notation of ``_square_roots_mod``, F_p[x]/u is F_{p^2} when
    delta is a non-square, and a + b X != 0 is a square there exactly
    when its norm a^2 - delta b^2 is one in F_p.  When delta = s^2 != 0,
    u = (X - s)(X + s) and the count is the product of the counts of a
    + b s and a - b s, whose product is again the norm.
    """
    if len(u) == 1:
        return 1
    if len(u) == 2:
        return 1 + _legendre(poly_eval(f, -u[0]), p)
    a, b, delta, _ = _mod_quadratic(f, u, p)
    if delta == 0:
        return 1 + _legendre(a, p) if a else 0
    norm = _legendre(a * a - delta * b * b, p)
    if norm < 0:
        return 0
    if _legendre(delta, p) < 0:
        return 1 + norm
    s = sqrt_mod(delta, p)
    return (1 + _legendre(a + b * s, p)) * (1 + _legendre(a - b * s, p))


def _legendre(w: int, p: int) -> int:
    """The Legendre symbol (w / p) for an odd prime p: 0, 1 or -1."""
    r = pow(w, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _mod_quadratic(f, u, p: int) -> tuple[int, int, int, int]:
    """(a, b, delta, h) with f = a + b X mod u = X^2 - delta, X = x + h,
    for u = x^2 + u1 x + u0: h = u1 / 2."""
    u0, u1 = u[0], u[1]
    r1 = r0 = 0  # r1 x + r0 = the top coefficients of f mod u, by Horner
    for c in reversed(f):
        r1, r0 = (r0 - r1 * u1) % p, c - r1 * u0
    h = u1 * ((p + 1) // 2) % p
    return (r0 - r1 * h) % p, r1, (h * h - u0) % p, h


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
        return [fp_trim([y]) for y in _square_roots(poly_eval(f, -u[0]) % p, p)]
    a, b, delta, h = _mod_quadratic(f, u, p)
    half = (p + 1) // 2
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
    """z^6 g(a + 1/z) for g = twist * c and the least a in F_p with g(a)
    a non-square; where there is none, g itself if its leading
    coefficient is a non-square; otherwise None.

    Its leading coefficient, g(a) or g_6, is a non-square: the two
    points at infinity are conjugate, and their sum D_inf is rational
    (module docstring).
    """
    for a in range(p):
        if _legendre(twist * poly_eval(c, a), p) < 0:
            return tuple(twist * t % p for t in reversed(poly_taylor(c, a)))
    if _legendre(twist * c[6], p) < 0:
        return tuple(twist * t % p for t in c)
    return None


def _class_models(c, p: int):
    """The inert models (``_inert_model``) of y^2 = c(x) and then of its
    quadratic twist y^2 = d c(x), each None where there is none, and
    each built when it is asked for."""
    yield _inert_model(c, p)
    d = next(a for a in range(2, p) if _legendre(a, p) < 0)
    yield _inert_model(c, p, d)


def _point_class(f, p: int, rng: random.Random) -> MumfordDivisor:
    """The class P1 + P2 - D_inf of two random affine points of y^2 =
    f(x), on an inert sextic (``_add_points``); zero when P2 = -P1.  Not
    uniform: each point is drawn as x uniform in F_p until f(x) is a
    square, and one of its square roots.  f must have an affine point.
    """
    points = []
    while len(points) < 2:
        x = rng.randrange(p)
        y = sqrt_mod(poly_eval(f, x), p)
        if y is not None:
            points.append((x, p - y if y and rng.randrange(2) else y))
    (x1, y1), (x2, y2) = points
    if x1 == x2 and (y1 + y2) % p == 0:
        return identity_divisor(p)
    return _divisor(p, _add_points(f, p, x1, y1, x2, y2))


def _settle_by_annihilation(c, p: int, a1: int, a2s, rng) -> int:
    """The one a2 of ``a2s`` whose L = 1 + a1 T + a2 T^2 + ... has L(1)
    annihilating J(F_p) and L(-1) annihilating the Jacobian of the
    quadratic twist.

    The a2 are taken from the largest down.  The reductions of an
    abelian surface with QM are geometrically squares (Jordan), and one
    isogenous to E x E over F_p has L = (1 + a T + p T^2)^2, with a2 =
    a1^2 / 4 + 2 p at the top of the Weil interval.  The orders n_0 >
    n_1 > ... of one side differ by multiples of p.  For a class D,
    [n_0] D comes first, one full ladder.  If it vanishes, the order of D divides n_0, so candidate i
    survives exactly when [gcd(n_i, n_0)] D = 0, a ladder of a few bits.
    Otherwise candidate 0 is ruled out, and with R = -[p] D the
    candidate of order n_0 - k p survives only if [n_0] D + k R = 0.
    Each round draws a class on the curve and, while more than one
    candidate is left, one on the twist, on the models of
    ``_class_models``; the twist's is built only when the curve leaves
    more than one candidate.  The first 8 rounds draw P1 + P2 - D_inf
    from affine points (``_point_class``), on a model with at least two;
    the rest draw uniform classes (``random_divisor``).  The true a2 is
    never ruled out; if more than one is left after 16 rounds,
    ArithmeticError.
    """
    alive = sorted(a2s, reverse=True)
    models, built = _class_models(c, p), []
    for round_ in range(16):
        for side, sign in enumerate((1, -1)):
            if side == len(built):
                built.append(next(models))
            F = built[side]
            if F is None:
                continue
            # #C(F_p) = p + 1 +- a1, and no point is at infinity
            if round_ < 8 and p + 1 + sign * a1 >= 2:
                d = _point_class(F, p, rng)
            else:
                d = random_divisor(F, p, rng)
            base = 1 + sign * a1 * (1 + p) + p * p
            n0 = base + alive[0]
            acc = cantor_mul(n0, d, F)
            if acc.is_identity:
                alive = [alive[0]] + [a2 for a2 in alive[1:]
                                      if cantor_mul(gcd(base + a2, n0), d, F).is_identity]
            else:
                step, at, kept = cantor_neg(cantor_mul(p, d, F)), n0, []
                for a2 in alive[1:]:
                    while at > base + a2:
                        acc, at = cantor_add(acc, step, F), at - p
                    if acc.is_identity:
                        kept.append(a2)
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

    ``invariants`` is None when a Sylow subgroup is left open: the order
    and rank bounds leave more than one shape, the Weil polynomial does
    not fix it (``_frobenius_shape``), and either 16 classes left it
    open or the sextic has no root mod p, where ``jacobian_group_mod_p``
    does not probe.  That leaves 17 of the 107 good p <= 100 of the
    five table curves open, all at such primes.  The order and the
    2-rank are always reported.

    ``proved_by`` maps each prime ell dividing the order to the rule
    that proved its Sylow subgroup, "bounds", "frobenius" or "probes",
    or to None where it is open.  Equality ignores it, so two results
    compare by the group alone.
    """

    p: int
    order: int
    invariants: tuple[int, ...] | None
    two_rank: int
    proved_by: dict[int, str | None] = field(default_factory=dict, compare=False, repr=False)


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

    ``rule`` names what proved S: "bounds" when they leave one shape,
    "frobenius" when ``frobenius`` does, "probes" when classes taken in
    by ``add`` do, and None while S is open.
    """

    def __init__(self, ell: int, v: int, p: int, two_rank: int):
        self.ell, self.v = ell, v
        most = 4 if (p - 1) % ell == 0 else 2
        self.shapes = [s for s in _partitions(v, most) if ell != 2 or len(s) == two_rank]
        self.basis: list[tuple[MumfordDivisor, int, MumfordDivisor]] = []
        self.rule = "bounds" if self.shape else None

    @property
    def shape(self) -> tuple[int, ...] | None:
        return self.shapes[0] if len(self.shapes) == 1 else None

    def frobenius(self, w: WeilPoly2) -> None:
        """Prove S from the Weil polynomial w alone where
        ``_frobenius_shape`` applies.  Its shape must be one the bounds
        leave, a partition of v, so k e = v; otherwise w is not the Weil
        polynomial of this J(F_p): ArithmeticError, also under -O."""
        shape = _frobenius_shape(w, self.ell)
        if shape is None:
            return
        if shape not in self.shapes:
            raise ArithmeticError(
                f"the Frobenius rule gives the {self.ell}-Sylow subgroup of "
                f"J(F_{w.q}) the shape {shape}, against the bounds {self.shapes}")
        self.shapes, self.rule = [shape], "frobenius"

    def add(self, q: MumfordDivisor, f) -> None:
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
                depth, t = _ell_ladder(q, ell, self.v, f)
                if self._settled_below(depth):
                    break
                coords = _coordinates(t, [t_i for _, _, t_i in self.basis], ell, f)
                if coords is None:
                    self.basis.append((q, depth, t))
                    break
                deeper = [(c, b, e) for c, (b, e, _) in zip(coords, self.basis)
                          if c and e >= depth]
                for c, b, e in deeper:
                    q = cantor_add(q, cantor_mul(-c * ell ** (e - depth), b, f), f)
                if not deeper:
                    j = next(i for i, c in enumerate(coords) if c)
                    pending.append(self.basis[j][0])
                    self.basis[j] = (q, depth, t)
                    break
            es = sorted((e for _, e, _ in self.basis), reverse=True)
            self.shapes = [s for s in self.shapes
                           if len(s) >= len(es) and all(a >= b for a, b in zip(s, es))]
        if self.shape:
            self.rule = "probes"

    def _settled_below(self, depth: int) -> bool:
        """Whether every shape left has the same r_k for all k < depth."""
        ranks = {tuple(sum(e > k for e in s) for k in range(depth)) for s in self.shapes}
        return len(ranks) == 1


def _frobenius_shape(w: WeilPoly2, ell: int) -> tuple[int, ...] | None:
    """The shape (e,) * k of the ell-Sylow subgroup S of J(F_p) that the
    Weil polynomial w forces, or None where this rule says nothing: for
    ell = p, or when ell^2 divides disc m below.

    For ell != p, S = T / (pi - 1) T for the ell-adic Tate module T, free
    of rank 4 over Z_ell, on which Frobenius pi acts semisimply with
    characteristic polynomial P = T^4 + a1 T^3 + a2 T^2 + p a1 T + p^2
    (Tate, Invent. Math. 2, 1966).  Let m = P / gcd(P, P') be its radical.
    The roots of P have absolute value sqrt(p), irrational, so the factors
    of P over Q are quadratic or quartic, and m is P itself or the g with
    P = g^2: g = T^2 + (a1/2) T + c with c = p, or c = -p and a1 = 0.  Let
    k = 4 / deg m.  By semisimplicity m(pi) kills T, so T is a module over
    R = Z_ell[T]/(m), and T (x) Q_ell is free of rank k over R (x) Q_ell,
    as its characteristic polynomial is m^k.

    Suppose v_ell(disc m) <= 1.  As disc m is disc R_max times the square
    of the index of R in the maximal order R_max, R = R_max: a product of
    complete discrete valuation rings R_i, one for each irreducible factor
    m_i of m over Z_ell, and T, torsion-free, is free of rank k over each.
    So S = (+)_i (R_i / (pi - 1))^k, and a factor where pi - 1 is a unit
    adds nothing.  Where pi = 1 mod the prime of R_i, the residue field,
    generated by pi mod that prime as R_i = Z_ell[pi], is F_ell, and m_i =
    (T - 1)^(e_i) mod ell for the ramification index e_i.  Then:

    - at most one factor has pi = 1 mod its prime: for two, ell would
      divide their resultant, whose square divides disc m;
    - for that factor v_ell(disc R_i) >= e_i - 1, with equality only when
      ell does not divide e_i; as v_ell(disc R_i) <= 1, e_i = 1, or e_i =
      2 for odd ell;
    - for e_i = 1, R_i = Z_ell and R_i / (pi - 1) = Z / ell^e with e =
      v_ell(m_i(1)) = v_ell(m(1)), the other m_j(1) being units;
    - for e_i = 2, pi - 1 is a uniformizer, since otherwise it lies in
      ell R_i and Z_ell[pi] is inside Z_ell + ell R_i, not all of R_i; so
      R_i / (pi - 1) = F_ell, and v_ell(m(1)) = 1 (m_i(1) is the norm of 1 -
      pi).

    So S = (Z / ell^e)^k with e = v_ell(m(1)), and k e = v_ell(P(1)) as
    P(1) = m(1)^k.  Lenstra proves the elliptic case ("Complex
    multiplication structure of elliptic curves", J. Number Theory 56,
    1996).  disc g = a1^2 / 4 - 4 c, and disc P = p^2 ((a2 + 2p)^2 - 4 p
    a1^2) (a1^2 - 4 a2 + 8 p)^2, from P(T) = T^2 h(T + p/T) with h = x^2 +
    a1 x + a2 - 2p; the factor p^2 is a unit at ell.
    """
    p, a1, a2 = w.q, w.a1, w.a2
    if ell == p:
        return None
    c2 = a2 - a1 * a1 // 4  # 2 c when P = g^2
    if a1 % 2 == 0 and (c2 == 2 * p or a1 == 0 and c2 == -2 * p):
        k, disc, value = 2, a1 * a1 // 4 - 2 * c2, 1 + a1 // 2 + c2 // 2
    else:
        h = a1 * a1 - 4 * a2 + 8 * p
        k, disc, value = 1, ((a2 + 2 * p) ** 2 - 4 * p * a1 * a1) * h * h, w.point_count()
    if disc % (ell * ell) == 0:
        return None
    return (multiplicity(ell, value),) * k


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


def _coordinates(t: MumfordDivisor, ts, ell: int, f) -> tuple[int, ...] | None:
    """(c_i) in [0, ell) with t = sum c_i t_i, for F_ell-independent
    classes t_i of order ell, or None when t is not in their span.

    A balanced baby-step giant-step search.  For m of the t_i, the baby
    steps hold the span of the first m // 2 and the giant steps walk t
    minus the span of the last m // 2.  For odd m the multiples c t of
    the middle t are split at k = ceil(sqrt(ell)), as c = a + b k with
    a < k on the baby side and b < ceil(ell / k) on the giant side; the
    giant steps run b outermost, so the first hit has a + b k = c < ell.
    Each side has about ell^(m/2) classes, one ``cantor_add`` each, and
    the baby table holds O(ell^(m/2)) of them.
    """
    m, half = len(ts), len(ts) // 2
    babies = [(s, ell) for s in ts[:half]]
    giants = [(cantor_neg(s), ell) for s in ts[m - half:]]
    if m % 2:
        k = isqrt(ell - 1) + 1
        babies.append((ts[half], k))
    baby = dict(_span(identity_divisor(t.p), babies, f))
    if m % 2:  # the table starts with 0, t, ..., (k - 1) t for the middle t
        kt = cantor_add(list(baby)[k - 1], ts[half], f)
        giants.insert(0, (cantor_neg(kt), -(-ell // k)))
    for s, cs in _span(t, giants, f):
        hit = baby.get(s)
        if hit is not None:
            if m % 2:
                hit = (*hit[:-1], hit[-1] + k * cs[0])
                cs = cs[1:]
            return hit + cs
    return None


def _span(start: MumfordDivisor, steps, f):
    """(start + sum c_i s_i, (c_i)) for every (c_i) with 0 <= c_i < n_i,
    over the steps (s_i, n_i), the last c_i running fastest: one
    ``cantor_add`` per class after the first."""
    if not steps:
        yield start, ()
        return
    *outer, (s, n) = steps
    for x, cs in _span(start, outer, f):
        yield x, (*cs, 0)
        for c in range(1, n):
            x = cantor_add(x, s, f)
            yield x, (*cs, c)


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

    The order L(1) and the 2-rank come from the L-polynomial and the
    factorization type of f mod p, both read off the stream of
    ``curve_lpolys`` at [p].  Each Sylow subgroup is proved by
    ``_SylowProof``, by the first of three rules that leaves one shape:
    the order and rank bounds; the Weil polynomial alone, where Z_ell[pi]
    is maximal (``_frobenius_shape``), before any model is built; and at
    most 16 uniformly random classes (``_probe``, seeded, hence
    deterministic).  ``proved_by`` records the rule for each ell.

    Probing runs only where f mod p has a root or degree 5.  A Sylow
    subgroup still open after 16 probes, or open at a sextic without a
    root mod p, leaves the structure unproved, and ``invariants`` is
    None.  The second is mostly a cost policy.  At the 107 good p <= 100
    of the five table curves it leaves 17 structures open; probing there
    too proves all 17, but it made a pass over the ``genus2`` benchmark
    items (those 107, and certification of the five curves to B = 400)
    slower, and its slowest items most (run figures in CHANGES.md, on
    the Frobenius rule).  It is also a limit of the models: a sextic
    without a root, whose values f(a) are all nonzero squares and whose
    leading coefficient is a square, has neither an inert model
    (``_inert_model``) nor a quintic one (``odd_degree_model``).  Then
    #C(F_p) = 2p + 2, so by the Hasse-Weil bound p <= 13; y^2 = 2x^6 +
    4x^5 - 2x^4 + 19x^3 + 10x^2 - 5x + 9 at p = 7 is one such case.
    """
    if not good_prime(curve, p):
        raise ValueError(f"p = {p} is not a good prime for this curve")
    _, w, degrees = next(_reductions(curve, [p]))
    two_rank = _two_rank(degrees)
    order = w.point_count()
    sylows = [_SylowProof(ell, v, p, two_rank) for ell, v in factorint(order).items()]
    for s in sylows:
        if s.shape is None:
            s.frobenius(w)
    rootless = curve.coeffs[6] % p and 1 not in degrees
    if not rootless:
        _probe(curve, p, order, sylows, seed)
    proved_by = {s.ell: s.rule for s in sylows}
    if None in proved_by.values():
        return JacobianGroup(p, order, None, two_rank, proved_by)
    cyclic = [[s.ell**e for e in s.shape] for s in sylows]
    return JacobianGroup(p, order, _invariant_factors(cyclic), two_rank, proved_by)


def _probe(curve: GenusTwoCurve, p: int, order: int, sylows, seed: int) -> None:
    """Take uniformly random classes of J(F_p), #J(F_p) = order, into the
    open proofs of ``sylows`` until none is open, at most 16.

    They are drawn from an RNG seeded by ``seed`` on the inert sextic
    (``_inert_model``), built only when a proof is open.  Where every
    value of f mod p is 0 or a square and f_6 is a square there is no
    inert sextic, and they are drawn on the quintic of
    ``odd_degree_model``; by the Hasse-Weil bound that happens only at
    p <= 23.
    """
    open_ = [s for s in sylows if s.shape is None]
    if not open_:
        return
    f = _inert_model([v % p for v in curve.coeffs], p) or odd_degree_model(curve, p)
    rng = random.Random(seed)
    for _ in range(16):
        d = random_divisor(f, p, rng)
        for s in open_:
            s.add(cantor_mul(order // s.ell**s.v, d, f), f)
        open_ = [s for s in open_ if s.shape is None]
        if not open_:
            return
