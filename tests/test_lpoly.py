"""L-polynomials from the Hasse-Witt matrix, against the F_{p^2} grid.

The grid in ``grid_oracle`` counts points over F_p and F_{p^2} in O(p^2);
``curve_lpoly`` must agree with it wherever both run.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracle import count_model, oracle_lpoly
from quatorsion.exact import poly_eval
from quatorsion.genus2 import curve as curve_mod
from quatorsion.genus2 import jacobian
from quatorsion.genus2.curve import (
    GenusTwoCurve,
    count_points_curve,
    curve_lpoly,
    curve_lpolys,
    good_prime,
    good_primes,
)
from quatorsion.genus2.jacobian import (
    MumfordDivisor,
    cantor_mul,
    jacobian_group_mod_p,
)
from quatorsion.genus2.torsion import table_curves
from quatorsion.weil import WeilPoly2, is_weil_valid

TABLE = table_curves()
QUINTICS = [
    GenusTwoCurve.from_coefficients(c)
    for c in ([1, 0, 0, 0, 0, 1], [0, 2, 0, 0, 0, 1], [1, -1, 0, 0, 0, 1], [-1, 0, 3, 0, 0, 2])
]
# the curve whose L-polynomial at 41 only the quadratic twist settles
TWIST_ONLY = GenusTwoCurve.from_coefficients([33, 13, 18, -29, -22, -33, 3])
SIX_CURVE = next(row.curve for row in TABLE if row.torsion == (6,))
CURVES = [row.curve for row in TABLE] + QUINTICS


def _weil_candidates(p: int, a1: int, a2_mod_p: int) -> list[WeilPoly2]:
    """Weil-valid L-polynomials with the given a1 and a2 mod p, by
    ``is_weil_valid`` on every a2 = a2_mod_p mod p in [-2p, a1^2/4 + 2p]."""
    lo = -2 * p
    a2 = lo + (a2_mod_p - lo) % p
    out = []
    while a2 <= a1 * a1 // 4 + 2 * p:
        w = WeilPoly2(p, a1, a2)
        if is_weil_valid(w):
            out.append(w)
        a2 += p
    return out


def _two_part_fits_poly(w: WeilPoly2, two_rank: int) -> bool:
    """Whether (Z/2)^two_rank fits in groups of orders L(1) and L(-1),
    from the point counts of w and of its twist."""
    orders = (w.point_count(), WeilPoly2(w.q, -w.a1, w.a2).point_count())
    if two_rank == 0:
        return all(n % 2 for n in orders)
    return all(n % (1 << two_rank) == 0 for n in orders)


@pytest.mark.parametrize("p", list(sympy.primerange(3, 100)))
def test_weil_interval_matches_the_enumeration(p):
    # every a1 up to past the Weil bound |a1| <= 4 sqrt(p), every residue
    for a1 in range(-4 * math.isqrt(p) - 6, 4 * math.isqrt(p) + 7):
        for r in range(p):
            ws = _weil_candidates(p, a1, r)[::-1]
            assert list(curve_mod._weil_a2s(p, a1, r)) == [w.a2 for w in ws], (p, a1, r)
            for two_rank in range(5):
                assert ([w for w in ws if curve_mod._two_part_fits(p, a1, w.a2, two_rank)]
                        == [w for w in ws if _two_part_fits_poly(w, two_rank)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(sympy.primerange(3, 10**4))), st.floats(-1.05, 1.05),
       st.integers(0, 10**4))
def test_weil_interval_matches_the_enumeration_random(p, where, r):
    a1 = round(where * 4 * math.sqrt(p))
    expected = [w.a2 for w in reversed(_weil_candidates(p, a1, r % p))]
    assert list(curve_mod._weil_a2s(p, a1, r % p)) == expected


def _hasse_witt_from_power(c, p: int) -> tuple[int, int]:
    """(tr W, det W) mod p from f^((p-1)/2) expanded in full."""
    h = [1]
    for _ in range((p - 1) // 2):
        h = [sum(h[i] * c[k - i] for i in range(len(h)) if 0 <= k - i < 7) % p
             for k in range(len(h) + 6)]
    h += [0] * (2 * p)
    tr = (h[p - 1] + h[2 * p - 2]) % p
    det = (h[p - 1] * h[2 * p - 2] - h[p - 2] * h[2 * p - 1]) % p
    return tr, det


@pytest.mark.parametrize("index", range(len(CURVES)))
def test_curve_lpoly_matches_grid(index):
    curve = CURVES[index]
    for p in good_primes(curve, 500):
        assert curve_lpoly(curve, p) == oracle_lpoly(curve.coeffs, p), p


_COEFF = st.integers(min_value=-30, max_value=30)


@settings(max_examples=150, deadline=None)
@given(st.lists(_COEFF, min_size=7, max_size=7), st.booleans(),
       st.sampled_from(list(sympy.primerange(7, 200))))
def test_curve_lpoly_matches_grid_random(coeffs, quintic, p):
    if quintic:
        coeffs[6] = 0
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    assert curve_lpoly(curve, p) == oracle_lpoly(curve.coeffs, p)


def test_hasse_witt_matches_full_power():
    # the recurrence for one prime, on the model that the stream at [p]
    # runs it on and on a model for p alone, against f^((p-1)/2) itself
    for curve in CURVES + [TWIST_ONLY]:
        f = curve_mod._hasse_witt_model(curve.coeffs)
        for p in good_primes(curve, 60):
            if p < 7:
                continue
            c = [v % p for v in curve.coeffs]
            alone = curve_mod._hasse_witt_model(curve.coeffs, [p])
            for model in [alone] + [f] * bool(f[0] * f[6] % p):
                _, trace, det = next(curve_mod._hasse_witt_traces(model, [p]))
                assert (trace, det) == _hasse_witt_from_power(c, p), (curve, p, model)


def _power_from_expansion(f, p: int) -> tuple[int, int]:
    """(c_{p-2}, c_{p-1}) of f^((p-1)/2) mod p, expanded in full."""
    h = [1]
    for _ in range((p - 1) // 2):
        h = [sum(h[i] * f[k - i] for i in range(len(h)) if 0 <= k - i < 7) % p
             for k in range(len(h) + 6)]
    return h[p - 2], h[p - 1]


def test_power_pairs_match_full_power():
    # the recurrence for one prime, on the model and on the reversed model
    for curve in CURVES + [TWIST_ONLY]:
        for p in good_primes(curve, 60):
            if p < 7:
                continue
            f = curve_mod._hasse_witt_model([v % p for v in curve.coeffs], [p])
            for g in (f, f[::-1]):
                assert next(curve_mod._power_pairs(g, [p]))[1:] == _power_from_expansion(g, p), (curve, p)


@settings(max_examples=100, deadline=None)
@given(st.lists(_COEFF, min_size=7, max_size=7),
       st.sampled_from(list(sympy.primerange(3, 80))))
def test_power_pairs_match_full_power_random(coeffs, p):
    f = [c % p for c in coeffs]
    if f[0] == 0:
        f[0] = 1
    assert next(curve_mod._power_pairs(f, [p]))[1:] == _power_from_expansion(f, p)


def test_global_model_keeps_the_good_primes():
    for curve in CURVES + [TWIST_ONLY]:
        f = curve_mod._hasse_witt_model(curve.coeffs)
        assert f[0] * f[6] != 0
        assert curve_mod._binary_sextic_disc(f) == curve.binary_disc, curve


def test_batched_hasse_witt_matches_full_power():
    # one recurrence over all the primes, on the integer model, against
    # f^((p-1)/2) of the curve itself at every good 7 <= p <= 60
    seen = 0
    for curve in CURVES + [TWIST_ONLY]:
        f = curve_mod._hasse_witt_model(curve.coeffs)
        primes = [p for p in good_primes(curve, 60) if p >= 7 and f[0] * f[6] % p]
        for p, trace, det in curve_mod._hasse_witt_traces(f, primes):
            c = [v % p for v in curve.coeffs]
            assert (trace, det) == _hasse_witt_from_power(c, p), (curve, p)
            seen += 1
    assert seen > 100


@pytest.mark.parametrize("curve", CURVES + [TWIST_ONLY], ids=str)
def test_curve_lpolys_match_curve_lpoly(curve):
    expected = [(p, curve_lpoly(curve, p)) for p in good_primes(curve, 300)]
    assert list(curve_lpolys(curve, 300)) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(_COEFF, min_size=7, max_size=7), st.booleans(), st.booleans(),
       st.integers(7, 200))
def test_curve_lpolys_match_curve_lpoly_random(coeffs, quintic, root_at_zero, bound):
    if quintic:
        coeffs[6] = 0
    if root_at_zero:
        coeffs[0] = 0
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    expected = [(p, curve_lpoly(curve, p)) for p in good_primes(curve, bound)]
    assert list(curve_lpolys(curve, bound)) == expected


def test_curve_lpolys_batch_the_primes_of_the_model(monkeypatch):
    # f(0) f_6 = 7 * 143 = 7 * 11 * 13 on the curve itself, which is its
    # own global model: those three primes are good and share a second
    # recurrence, on a model whose f(0) f_6 is prime to all three, and
    # none takes the recurrence for itself alone
    curve = GenusTwoCurve.from_coefficients([7, 2, 0, 3, 0, 1, 143])
    assert tuple(curve_mod._hasse_witt_model(curve.coeffs)) == curve.coeffs
    assert all(good_prime(curve, p) for p in (7, 11, 13))
    model = curve_mod._hasse_witt_model(curve.coeffs, [7, 11, 13])
    assert all(model[0] * model[6] % p for p in (7, 11, 13))
    assert all(0 <= t < 7 * 11 * 13 for t in model)
    runs = []
    original = curve_mod._power_pairs
    monkeypatch.setattr(curve_mod, "_power_pairs",
                        lambda f, primes: runs.append(list(primes)) or original(f, primes))
    batched = list(curve_lpolys(curve, 150))
    assert [primes for primes in runs if 7 in primes] == [[7, 11, 13]] * 2  # forward, reversed
    assert len(runs) == 4
    monkeypatch.undo()
    assert batched == [(p, curve_lpoly(curve, p)) for p in good_primes(curve, 150)]
    assert all(w == oracle_lpoly(curve.coeffs, p) for p, w in batched if p <= 40)


def test_second_model_serves_the_table_curves():
    # the primes that divide f(0) f_6 of the global model: 61 on (2), 7
    # on (3,3), and 43, 227 and 263 on (3).  The stream at [p] takes each
    # through a second model for p alone, the stream to 300 through one
    # for all of them
    rest = {}
    for row in TABLE:
        f = curve_mod._hasse_witt_model(row.curve.coeffs)
        primes = [p for p in good_primes(row.curve, 300) if p > 5 and f[0] * f[6] % p == 0]
        if primes:
            rest[row.torsion] = primes
            model = curve_mod._hasse_witt_model(row.curve.coeffs, primes)
            assert all(model[0] * model[6] % p for p in primes)
            for p, trace, det in curve_mod._hasse_witt_traces(model, primes):
                c = [v % p for v in row.curve.coeffs]
                assert (trace, det) == _hasse_witt_from_power(c, p)
            stream = dict(curve_lpolys(row.curve, 300))
            for p in primes:
                assert curve_lpoly(row.curve, p) == stream[p]
                assert p > 61 or stream[p] == oracle_lpoly(row.curve.coeffs, p)
    assert rest == {(2,): [61], (3,): [43, 227, 263], (3, 3): [7]}



def test_degree_drop_prime():
    # lead 11: the reduction mod 11 is a quintic, and the Hasse-Witt model
    # moves a non-root to infinity first
    curve = GenusTwoCurve.from_coefficients([1, 2, 0, 3, 0, 1, 11])
    assert good_prime(curve, 11) and curve.coeffs[6] % 11 == 0
    assert curve_lpoly(curve, 11) == oracle_lpoly(curve.coeffs, 11)
    model = curve_mod._hasse_witt_model([v % 11 for v in curve.coeffs], [11])
    assert model[0] % 11 and model[6] % 11


def test_twist_only_case(monkeypatch):
    p = 41
    c = [v % p for v in TWIST_ONLY.coeffs]
    f = curve_mod._hasse_witt_model(TWIST_ONLY.coeffs)
    _, trace, det = next(curve_mod._hasse_witt_traces(f, [p]))
    assert (trace, det) == _hasse_witt_from_power(c, p)
    a1 = -trace if 2 * trace < p else p - trace
    degrees = curve_mod._factor_degrees(TWIST_ONLY, p)
    two_rank = curve_mod._two_rank(degrees)
    left = [w.a2 for w in _weil_candidates(p, a1, det) if _two_part_fits_poly(w, two_rank)]
    assert left == [1, 83]
    w = curve_lpoly(TWIST_ONLY, p)
    assert (w.a1, w.a2, w.point_count()) == (-2, 83, 41**2)
    assert w == oracle_lpoly(TWIST_ONLY.coeffs, p)
    # J(F_41) has exponent 41, which divides both candidate orders, so the
    # curve's own classes cannot separate them: without the twist, no answer
    model = jacobian._inert_model(c, p)
    for n in (w.point_count(), WeilPoly2(p, a1, 1).point_count()):
        d = jacobian.random_divisor(model, p, random.Random(n))
        assert cantor_mul(n, d, model).is_identity
    assert jacobian._settle_by_annihilation(c, model, p, a1, left, random.Random(0)) == 83
    monkeypatch.setattr(jacobian, "_inert_model", lambda c, p, twist=1: None)
    with pytest.raises(ArithmeticError, match="annihilate every class"):
        jacobian._settle_by_annihilation(c, model, p, a1, left, random.Random(0))


def _settle_as_the_curve_does(curve, p: int, a2s) -> int:
    """The annihilation step on the candidates a2s, with the RNG of
    ``curve_lpoly``, the curve's a1 and its inert model."""
    c = [v % p for v in curve.coeffs]
    a1 = oracle_lpoly(curve.coeffs, p).a1
    rng = random.Random(f"{p}/{curve.coeffs}")
    return jacobian._settle_by_annihilation(c, jacobian._inert_model(c, p), p, a1, a2s, rng)


def test_settle_takes_one_full_ladder_per_class(monkeypatch):
    calls, adds = [], []
    original, add = jacobian.cantor_mul, jacobian.cantor_add
    monkeypatch.setattr(jacobian, "cantor_mul",
                        lambda n, d, f: calls.append(n) or original(n, d, f))
    monkeypatch.setattr(jacobian, "cantor_add",
                        lambda d, e, f: adds.append(1) or add(d, e, f))
    curve = TABLE[0].curve
    # the candidates are taken from the largest a2 down.  At 13, [n_0] D = 0
    # for n_0 = 178, the true order, so the order of D divides 178, and the
    # other candidate, of order 152, survives only if [gcd(152, 178)] D =
    # [2] D = 0.  (The curve's own step never gets here: the Tate pairing
    # gives Z/2 as the 2-part, and 8 divides 152.)
    w = oracle_lpoly(curve.coeffs, 13)
    assert w.point_count() == 178
    assert _settle_as_the_curve_does(curve, 13, [w.a2, w.a2 - 26]) == w.a2
    assert calls == [178, 2]
    # at 17, [n_0] D != 0 for n_0 = 300 rules out the first candidate, and
    # R = -[17] D steps down to the other, of order 266 = 300 - 2 * 17
    calls.clear()
    adds.clear()
    w = oracle_lpoly(curve.coeffs, 17)
    assert w.point_count() == 266
    assert _settle_as_the_curve_does(curve, 17, [w.a2, w.a2 + 34]) == w.a2
    assert calls == [300, 17]
    assert len(adds) == 2
    # the twist's model is built only when the curve leaves two candidates:
    # not at 17, and at 41 by the least non-residue, 3
    twists = []
    inert = jacobian._inert_model
    monkeypatch.setattr(jacobian, "cantor_mul", original)
    monkeypatch.setattr(jacobian, "cantor_add", add)
    monkeypatch.setattr(jacobian, "_inert_model",
                        lambda c, p, twist=1: twists.append(twist) or inert(c, p, twist))
    _settle_as_the_curve_does(curve, 17, [w.a2, w.a2 + 34])
    assert _settle_as_the_curve_does(TWIST_ONLY, 41, [1, 83]) == 83
    assert twists == [1, 1, 3]


def test_settle_draws_uniform_classes_on_a_model_with_no_affine_point():
    # this quintic has one point mod 7, at infinity, which its inert sextic
    # z^6 f(a + 1/z) puts at z = 0, and J(F_7) has order 18 (a1 = -7, a2 =
    # 24).  The uniform classes of the settle rule out a false candidate of
    # order 25 there all the same
    p = 7
    curve = GenusTwoCurve.from_coefficients([6, 4, 1, 3, 4, 1])
    assert curve_lpoly(curve, p) == WeilPoly2(p, -7, 24)
    c = [v % p for v in curve.coeffs]
    sextic = jacobian._inert_model(c, p)
    assert [x for x in range(p) if sympy.sqrt_mod(poly_eval(sextic, x) % p, p) is not None] == [0]
    assert jacobian._settle_by_annihilation(c, sextic, p, -7, [31, 24], random.Random(0)) == 24


def _random_sextics(n: int, seed: int) -> list[GenusTwoCurve]:
    """n nonsingular sextics with small seeded random coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        coeffs = [rng.randint(-9, 9) for _ in range(6)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        try:
            out.append(GenusTwoCurve.from_coefficients(coeffs))
        except ValueError:  # singular
            pass
    return out


def test_settle_matches_the_grid_wherever_it_runs(monkeypatch):
    # at every good 7 <= p <= 150 of the table curves and of ten random
    # sextics where the Hasse-Witt, 2-part and Tate filters leave more than
    # one a2, the settle's answer is the grid's
    settled = []
    settle = jacobian._settle_by_annihilation
    monkeypatch.setattr(jacobian, "_settle_by_annihilation",
                        lambda *args: settled.append(args[2]) or settle(*args))
    total = 0
    for curve in [row.curve for row in TABLE] + _random_sextics(10, 0):
        settled.clear()
        ws = dict(curve_lpolys(curve, 150))
        for p in settled:
            assert ws[p] == oracle_lpoly(curve.coeffs, p), (curve.coeffs, p)
        total += len(settled)
    assert total >= 40


@pytest.mark.parametrize("p", [3, 5])
def test_small_primes_count_directly(p):
    curves = CURVES + [
        GenusTwoCurve.from_coefficients(c)
        for c in ([1, 2, 0, 3, 0, 1, 11], [3, 1, 4, 1, 5, 9, 91], [1, 0, 0, 0, 0, 0, 1],
                  [0, -1, 0, 0, 0, 1])]  # x^5 - x vanishes on all of F_5
    seen = 0
    for curve in curves:
        if not good_prime(curve, p):
            continue
        seen += 1
        c = [v % p for v in curve.coeffs]
        for n in (1, 2):
            assert curve_mod._count_points(c, p, n) == count_model(curve.coeffs, p, n)
        assert curve_lpoly(curve, p) == oracle_lpoly(curve.coeffs, p)
    assert seen >= 4


def test_two_part_filter_reads_both_orders():
    # L(1) = 32 and L(-1) = 20: (Z/2)^3 fits in the curve's group only
    w = WeilPoly2(5, 1, 0)
    assert (w.point_count(), WeilPoly2(5, -1, 0).point_count()) == (32, 20)
    assert curve_mod._two_part_fits(5, 1, 0, 2)
    assert not curve_mod._two_part_fits(5, 1, 0, 3)
    assert not curve_mod._two_part_fits(5, 1, 0, 0)
    assert curve_mod._two_part_fits(5, 1, 1, 0)  # 33 and 21


def test_finite_difference_count_matches_grid():
    seen = 0
    for row in TABLE:
        for p in good_primes(row.curve, 66):
            c = [v % p for v in row.curve.coeffs]
            assert curve_mod._count_points(c, p, 1) == count_model(row.curve.coeffs, p, 1), p
            seen += 1
    assert seen > 70


@settings(max_examples=150, deadline=None)
@given(st.lists(_COEFF, min_size=7, max_size=7), st.sampled_from(["quintic", "sextic", "p | f6"]),
       st.sampled_from(list(sympy.primerange(3, 67))))
def test_finite_difference_count_matches_grid_random(coeffs, kind, p):
    if kind == "quintic":
        coeffs[6] = 0
    elif kind == "p | f6":
        coeffs[6] = p * (coeffs[6] or 1)
    try:
        curve = GenusTwoCurve.from_coefficients(coeffs)
    except ValueError:  # degree below 5, or singular
        return
    if not good_prime(curve, p):
        return
    c = [v % p for v in curve.coeffs]
    assert curve_mod._count_points(c, p, 1) == count_model(curve.coeffs, p, 1)


def test_curve_lpolys_seek_no_root_of_the_sextic(monkeypatch):
    # without a model from the caller the settle works on sextics with a
    # non-square leading coefficient, which need no root mod p
    def refuse(*args):
        raise AssertionError("odd_degree_model was called")

    expected = {row.curve: list(curve_lpolys(row.curve, 400)) for row in TABLE}
    monkeypatch.setattr(jacobian, "odd_degree_model", refuse)
    for row in TABLE:
        assert list(curve_lpolys(row.curve, 400)) == expected[row.curve]


def test_count_points_curve_over_fp2_reads_the_lpoly():
    # count_points_curve counts over F_p; over F_{p^2} the count is read
    # off the L-polynomial
    for row in TABLE:
        for p in good_primes(row.curve, 60):
            w = curve_lpoly(row.curve, p)
            assert p * p + 1 - w.a1 * w.a1 + 2 * w.a2 == count_model(row.curve.coeffs, p, 2)
            assert count_points_curve(row.curve, p) == p + 1 + w.a1


def test_shared_work_gives_the_same_lpoly(monkeypatch):
    # the stream over all the primes and the stream at [p] yield the same
    # L-polynomial and factorization type
    for row in TABLE:
        stream = list(curve_mod._reductions(row.curve, good_primes(row.curve, 120)))
        for p, w, degrees in stream:
            assert next(curve_mod._reductions(row.curve, [p])) == (p, w, degrees)
            assert w == curve_lpoly(row.curve, p)
            assert degrees == curve_mod._factor_degrees(row.curve, p)
    # jacobian_group_mod_p and curve_lpoly read the type once, from the stream
    calls = []
    original = curve_mod._factor_degrees
    monkeypatch.setattr(curve_mod, "_factor_degrees",
                        lambda *args: calls.append(args) or original(*args))
    jacobian_group_mod_p(SIX_CURVE, 97, seed=3)
    assert len(calls) == 1
    calls.clear()
    curve_lpoly(SIX_CURVE, 97)
    assert len(calls) == 1


def test_curve_lpoly_rng_is_seeded_by_p_and_f(monkeypatch):
    # the Tate pairing and the annihilation step draw the same classes on
    # every call
    draws = []
    tate, settle = jacobian._tate_rank, jacobian._settle_by_annihilation

    def tate_spy(f, p, degrees, rng):
        draws.append(("tate", p, rng.getstate()))
        return tate(f, p, degrees, rng)

    def settle_spy(c, inert, p, a1, a2s, rng):
        draws.append(("settle", p, rng.getstate()))
        return settle(c, inert, p, a1, a2s, rng)

    monkeypatch.setattr(jacobian, "_tate_rank", tate_spy)
    monkeypatch.setattr(jacobian, "_settle_by_annihilation", settle_spy)
    for seed in (1, 2):
        random.seed(seed)
        for p in good_primes(SIX_CURVE, 200):
            curve_lpoly(SIX_CURVE, p)
    half = len(draws) // 2
    assert half > 5 and draws[:half] == draws[half:]
    assert any(kind == "tate" for kind, _, _ in draws)


def test_large_prime_flat_memory_and_annihilation():
    p = 4999
    assert good_prime(SIX_CURVE, p)
    tracemalloc.start()
    try:
        w = curve_lpoly(SIX_CURVE, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert is_weil_valid(w)
    c = [v % p for v in SIX_CURVE.coeffs]
    model = jacobian._inert_model(c, p)
    rng = random.Random(11)
    classes = [jacobian.random_divisor(model, p, rng) for _ in range(8)]
    assert not any(d.is_identity for d in classes)
    assert all(cantor_mul(w.point_count(), d, model).is_identity for d in classes)


def test_inert_sextic_fast_path_matches_generic_cantor():
    rng = random.Random(7)
    hits = 0
    for row in TABLE:
        for p in good_primes(row.curve, 100):
            if p < 7:
                continue
            c = [v % p for v in row.curve.coeffs]
            F = jacobian._inert_model(c, p)
            if F is None:
                continue
            classes = [d for d in (jacobian.random_divisor(F, p, rng) for _ in range(6))
                       if not d.is_identity]
            for d1 in classes:
                acc = d1
                for d2 in classes + [d1]:
                    expected = jacobian._cantor_generic(d1, d2, F)
                    assert jacobian.cantor_add(d1, d2, F) == expected
                    hits += jacobian._add_weight_two(
                        F, p, *jacobian._weight_two(d1), *jacobian._weight_two(d2)) is not None
                for _ in range(4):
                    expected = jacobian._cantor_generic(acc, acc, F)
                    acc = jacobian.cantor_add(acc, acc, F)
                    assert acc == expected
    assert hits > 500


def test_generic_cantor_rejects_odd_degree_on_inert_sextic():
    p = 41
    c = [v % p for v in TWIST_ONLY.coeffs]
    F = jacobian._inert_model(c, p)
    assert F is not None and pow(F[6], (p - 1) // 2, p) == p - 1
    x = next(x for x in range(p) if sympy.sqrt_mod(poly_eval(F, x) % p, p) is not None)
    y = sympy.sqrt_mod(poly_eval(F, x) % p, p)
    point = MumfordDivisor(p, ((p - x) % p, 1), (y,))  # not a class on this model
    rng = random.Random(1)
    d = jacobian.random_divisor(F, p, rng)
    while d.is_identity or poly_eval(d.u, x) % p == 0:
        d = jacobian.random_divisor(F, p, rng)
    with pytest.raises(ArithmeticError, match="no progress"):
        jacobian._cantor_generic(point, d, F)
