"""Tests for dihedral automorphism actions and their mod-N fixed points."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from order_oracle import mat_inverse
from quatorsion.actions import (
    AutClass,
    DistinguishedRing,
    EnhancedElement,
    PolarizationReport,
    _left_ideal_basis,
    _line_representatives,
    action_from_json,
    action_to_json,
    build_dihedral_action,
    classify_c2c2_mod2,
    classify_involution_mod2,
    distinguished_subring,
    enhanced_identity,
    enhanced_mul,
    generated_by,
    polarization_analysis,
    residue_fixed_subgroup,
    search_mod4_anticommutator,
    submodule_lattice_mod_ell,
    three_dim_generator_check,
)
from quatorsion.exact import hnf_rows, rref_mod, smith_invariants
from quatorsion.quat import (
    QuatAlgebra,
    QuatOrder,
    atkin_lehner_group,
    discriminant,
    find_trace_zero,
    maximal_order,
    order_to_json,
    standard_order,
)

HALF = Fraction(1, 2)


def omega_of(order: QuatOrder):
    """The cube root of unity (-1 + i)/2 in the (-3, b) algebras."""
    w = order.algebra.element(-HALF, HALF, 0, 0)
    assert order.contains(w)
    return w


@pytest.fixture(scope="module")
def omax_15():
    return maximal_order(QuatAlgebra(-3, 5))


# ---------------------------------------------------------------------------
# automorphism classes


def test_class_representative_is_primitive_and_sign_normalized(omax_1_6):
    b = omax_1_6.algebra
    cls = AutClass.from_element(omax_1_6, b.i.scale(Fraction(3, 2)))
    # all Q*-multiples of i land on one canonical representative
    assert cls == AutClass.from_element(omax_1_6, b.i)
    assert cls == AutClass.from_element(omax_1_6, -b.i)
    assert cls.rep in (b.i, -b.i)
    coords = [int(c) for c in omax_1_6.coordinates(cls.rep)]
    assert math.gcd(*coords) == 1
    assert next(c for c in coords if c) > 0


def test_scalar_classes_are_the_identity(omax_1_6):
    b = omax_1_6.algebra
    cls = AutClass.from_element(omax_1_6, b.element(-7))
    assert cls.is_identity()
    mat = cls.conjugation_matrix()
    assert mat == [[1 if r == c else 0 for c in range(4)] for r in range(4)]


def test_non_normalizing_element_is_rejected(omax_1_6):
    b = omax_1_6.algebra
    with pytest.raises(ValueError, match="normalize"):
        AutClass.from_element(omax_1_6, b.i + b.j)
    with pytest.raises(ValueError, match="zero"):
        AutClass.from_element(omax_1_6, b.element(0))


# every ordered pair of generators of the five actions of ``all_actions``
GENERATOR_PAIRS = [("D1", 0, 0)] + [
    (kind, s, t) for kind in ("D2", "D4", "D3", "D6") for s in range(2) for t in range(2)
]


@pytest.mark.parametrize("kind, s, t", GENERATOR_PAIRS)
def test_class_multiplication_matches_element_product(all_actions, kind, s, t):
    # the integer product of stored coordinates against the QuatElt product
    g, h = all_actions[kind].generators[s], all_actions[kind].generators[t]
    order = g.order
    product = g * h
    assert product == AutClass.from_element(order, g.rep * h.rep)
    assert product.is_identity() == (g.rep * h.rep).is_scalar()
    for cls in (g, h, product):
        assert cls.coords == tuple(int(c) for c in order.coordinates(cls.rep))


def test_orders_keep_their_gram_forms(omax_1_6):
    # from_basis computes the trace and norm forms once; later calls read
    # the stored fields
    b = omax_1_6.algebra
    box = list(itertools.product(range(-1, 2), repeat=4))

    def run():
        o36 = maximal_order(QuatAlgebra(-3, 6))
        return (
            [omax_1_6.nrd(c) for c in box],
            omax_1_6.conjugation_rows((-1, 2, 0, -1)),  # i
            AutClass.from_element(omax_1_6, b.one + b.i).matrix,
            order_to_json(o36),
            atkin_lehner_group(o36),
            find_trace_zero(omax_1_6, -1, 2),
        )

    forms = omax_1_6.trace_form, omax_1_6.norm_form
    expected = run()
    assert expected[0] == [omax_1_6.element(c).nrd() for c in box]
    norm = forms[1]
    assert expected[0] == [sum(c[r] * norm[r][s] * c[s] for r in range(4) for s in range(4)) // 2
                           for c in box]
    assert run() == expected
    assert (omax_1_6.trace_form, omax_1_6.norm_form) == forms


def test_conjugation_matrix_acts_as_conjugation(omax_1_6):
    b = omax_1_6.algebra
    cls = AutClass.from_element(omax_1_6, b.i)
    mat = cls.conjugation_matrix()
    inv = b.i.inverse()
    for idx, e in enumerate(omax_1_6.basis):
        expected = omax_1_6.coordinates(inv * e * b.i)
        assert [int(c) for c in expected] == mat[idx]


# ---------------------------------------------------------------------------
# building dihedral actions


def test_d1_from_pure_quaternion(omax_1_6):
    b = omax_1_6.algebra
    act = build_dihedral_action(omax_1_6, "D1", [b.i])
    assert act.kind == "D1" and act.params == (-1,)
    act = build_dihedral_action(omax_1_6, "D1", [b.k])
    assert act.params == (6,)


def test_d1_is_scale_invariant(omax_1_6):
    b = omax_1_6.algebra
    assert build_dihedral_action(omax_1_6, "D1", [b.i.scale(3)]) == build_dihedral_action(
        omax_1_6, "D1", [b.i]
    )


def test_d2_from_anticommuting_pair(omax_1_6):
    b = omax_1_6.algebra
    jk2 = b.element(0, 0, HALF, HALF)
    act = build_dihedral_action(omax_1_6, "D2", [b.i, jk2])
    assert act.params == (-1, 3)


def test_d2_on_discriminant_15(omax_15):
    b = omax_15.algebra
    act = build_dihedral_action(omax_15, "D2", [b.i, b.j])
    assert act.params == (-3, 5)


def test_d4_from_rotation_and_reflection(omax_1_6):
    b = omax_1_6.algebra
    act = build_dihedral_action(omax_1_6, "D4", [b.one + b.i, b.j])
    assert act.params == (6,)
    # any rational multiple of 1 + i carries the same rotation
    scaled = build_dihedral_action(omax_1_6, "D4", [(b.one + b.i).scale(-2), b.j])
    assert scaled == act


def test_d3_and_d6_from_cube_root(omax_3_6):
    b = omax_3_6.algebra
    w = omega_of(omax_3_6)
    d3 = build_dihedral_action(omax_3_6, "D3", [b.one + w, b.j])
    d6 = build_dihedral_action(omax_3_6, "D6", [b.one - w, b.j])
    assert d3.params == (6,) and d6.params == (6,)
    assert d3.generators != d6.generators
    # the class of the rotation is insensitive to sign
    flipped = build_dihedral_action(omax_3_6, "D3", [-(b.one + w), b.j])
    assert flipped == d3


@pytest.mark.parametrize(
    "kind, message",
    [
        ("D2", "ij = -ji"),
        ("D1", "b\\^2 must be an integer"),
    ],
)
def test_relation_violations_are_named(omax_1_6, kind, message):
    b = omax_1_6.algebra
    gens = {"D2": [b.i, b.i], "D1": [b.one + b.i]}[kind]
    with pytest.raises(ValueError, match=message):
        build_dihedral_action(omax_1_6, kind, gens)


def test_d4_violation_from_normalizing_unit(omax_1_6):
    # 1 + e2 has reduced norm 1, so it normalizes, but e2 is no square
    # root of -1
    rot = omax_1_6.algebra.one + omax_1_6.basis[1]
    with pytest.raises(ValueError, match="i\\^2 = -1"):
        build_dihedral_action(omax_1_6, "D4", [rot, omax_1_6.algebra.j])


def test_d3_violations(omax_3_6):
    b = omax_3_6.algebra
    w = omega_of(omax_3_6)
    with pytest.raises(ValueError, match="w\\^2 \\+ w \\+ 1 = 0"):
        build_dihedral_action(omax_3_6, "D3", [b.one, b.j])
    with pytest.raises(ValueError, match="wj = j\\(-1-w\\)"):
        build_dihedral_action(omax_3_6, "D3", [b.one + w, b.i])


def test_wrong_generator_counts_and_kind(omax_1_6):
    b = omax_1_6.algebra
    with pytest.raises(ValueError, match="single generator"):
        build_dihedral_action(omax_1_6, "D1", [b.i, b.j])
    with pytest.raises(ValueError, match="two generators"):
        build_dihedral_action(omax_1_6, "D2", [b.i])
    with pytest.raises(ValueError, match="kind"):
        build_dihedral_action(omax_1_6, "C2", [b.i])


def test_non_maximal_order_is_rejected():
    order = standard_order(QuatAlgebra(-1, 6))
    with pytest.raises(ValueError, match="maximal"):
        build_dihedral_action(order, "D1", [order.algebra.i])


# ---------------------------------------------------------------------------
# fixed points on O/NO


@pytest.fixture(scope="module")
def all_actions(omax_1_6, omax_3_6):
    b = omax_1_6.algebra
    b2 = omax_3_6.algebra
    w = omega_of(omax_3_6)
    jk2 = b.element(0, 0, HALF, HALF)
    return {
        "D1": build_dihedral_action(omax_1_6, "D1", [b.i]),
        "D2": build_dihedral_action(omax_1_6, "D2", [b.i, jk2]),
        "D4": build_dihedral_action(omax_1_6, "D4", [b.one + b.i, b.j]),
        "D3": build_dihedral_action(omax_3_6, "D3", [b2.one + w, b2.j]),
        "D6": build_dihedral_action(omax_3_6, "D6", [b2.one - w, b2.j]),
    }


@pytest.mark.parametrize("n", [5, 7, 11])
def test_fixed_points_coprime_to_six(all_actions, n):
    for kind, act in all_actions.items():
        expected = [n, n] if kind == "D1" else [n]
        assert residue_fixed_subgroup(act, n) == expected, kind


def test_fixed_points_mod_three(all_actions):
    assert residue_fixed_subgroup(all_actions["D1"], 3) == [3, 3]
    for kind in ("D2", "D4", "D6"):
        assert residue_fixed_subgroup(all_actions[kind], 3) == [3]
    # both Z/3 and (Z/3)^2 can occur for D3; this action realizes the larger
    assert residue_fixed_subgroup(all_actions["D3"], 3) == [3, 3]


def test_fixed_points_mod_two(all_actions, omax_1_6):
    assert residue_fixed_subgroup(all_actions["D1"], 2) == [2, 2, 2]
    assert residue_fixed_subgroup(all_actions["D2"], 2) == [2, 2, 2]
    assert residue_fixed_subgroup(all_actions["D4"], 2) == [2, 2]
    assert residue_fixed_subgroup(all_actions["D3"], 2) == [2]
    assert residue_fixed_subgroup(all_actions["D6"], 2) == [2]
    # a generator square that is 2 mod 4 gives the smallest D1 option
    d1k = build_dihedral_action(omax_1_6, "D1", [omax_1_6.algebra.k])
    assert residue_fixed_subgroup(d1k, 2) == [2, 2]


def test_fixed_points_composite_modulus(all_actions):
    # D1 by i fixes Z + Zi, and the quotient contributes one Z/2 factor
    assert residue_fixed_subgroup(all_actions["D1"], 6) == [2, 6, 6]
    assert residue_fixed_subgroup(all_actions["D1"], 12) == [2, 12, 12]


def test_fixed_points_of_cyclic_rotation_subgroup(omax_1_6):
    # conjugation by 1 + i alone fixes the plane Q + Qi
    cls = AutClass.from_element(omax_1_6, omax_1_6.algebra.one + omax_1_6.algebra.i)
    assert residue_fixed_subgroup([cls], 5) == [5, 5]


def _vec_mat_mod(vec, mat, n):
    return tuple(sum(vec[r] * mat[r][c] for r in range(4)) % n for c in range(4))


def _fixed_invariants_enumerate(mats, n):
    """Invariants of the common fixed subgroup of (Z/n)^4 by enumeration."""
    fixed = [
        vec
        for vec in itertools.product(range(n), repeat=4)
        if all(_vec_mat_mod(vec, mat, n) == vec for mat in mats)
    ]
    # the subgroup is L/nZ^4 for the lattice L spanned by lifts and nZ^4
    rows = [list(vec) for vec in fixed]
    rows += [[n if r == c else 0 for c in range(4)] for r in range(4)]
    basis = hnf_rows(rows)
    assert len(basis) == 4
    inv = mat_inverse(basis)
    rel = []
    for r in range(4):
        row = []
        for c in range(4):
            entry = n * inv[r][c]
            assert entry.denominator == 1  # nZ^4 lies inside L
            row.append(int(entry))
        rel.append(row)
    return list(smith_invariants(rel))


def test_fixed_point_paths_agree(all_actions):
    # the Smith path against the enumeration oracle
    for kind, act in all_actions.items():
        mats = [c.conjugation_matrix() for c in act.generators]
        for n in range(2, 9):
            assert residue_fixed_subgroup(act, n) == _fixed_invariants_enumerate(mats, n), (
                kind,
                n,
            )


def test_fixed_points_against_direct_enumeration(all_actions):
    # independent oracle: count fixed residues by quaternion arithmetic
    for kind, act in all_actions.items():
        order = act.order
        count = 0
        for coords in itertools.product(range(3), repeat=4):
            x = order.element(coords)
            if all(
                all(
                    int(c) % 3 == 0
                    for c in order.coordinates(g.rep.inverse() * x * g.rep - x)
                )
                for g in act.generators
            ):
                count += 1
        assert count == math.prod(residue_fixed_subgroup(act, 3)), kind


def test_fixed_points_reject_bad_modulus(all_actions):
    with pytest.raises(ValueError, match="modulus"):
        residue_fixed_subgroup(all_actions["D1"], 1)
    with pytest.raises(ValueError, match="generator"):
        residue_fixed_subgroup([], 5)


# ---------------------------------------------------------------------------
# mod-2 and mod-4 involution lemmas


def _centralizer_size_mod2(order, b) -> int:
    b_inv = b.inverse()
    count = 0
    for coords in itertools.product(range(2), repeat=4):
        x = order.element(coords)
        diff = b_inv * x * b - x
        if all(int(c) % 2 == 0 for c in order.coordinates(diff)):
            count += 1
    return count


@pytest.mark.parametrize(
    "mu_coords, expected, criterion",
    [
        ((0, 1, 0, 0), [2, 2, 2], True),  # m = -1
        ((0, 0, HALF, HALF), [2, 2, 2], True),  # m = 3
        ((0, 0, 0, 1), [2, 2], False),  # m = 6, not 3 mod 4
    ],
)
def test_involution_mod_two_on_disc_six(omax_1_6, mu_coords, expected, criterion):
    b = omax_1_6.algebra.element(*mu_coords)
    fixed, crit = classify_involution_mod2(omax_1_6, b)
    assert fixed == expected and crit is criterion
    assert _centralizer_size_mod2(omax_1_6, b) == 2 ** len(expected)


def test_involution_mod_two_on_disc_ten(omax_2_5):
    b = omax_2_5.algebra
    fixed, crit = classify_involution_mod2(omax_2_5, b.i)  # m = -2
    assert fixed == [2, 2] and crit is False
    witness = find_trace_zero(omax_2_5, -5, height=6)[0]
    fixed, crit = classify_involution_mod2(omax_2_5, witness)
    assert fixed == [2, 2, 2] and crit is True


def test_involution_lemma_preconditions(omax_1_6):
    b = omax_1_6.algebra
    with pytest.raises(ValueError, match="lie in the order"):
        classify_involution_mod2(omax_1_6, b.i.scale(HALF))
    with pytest.raises(ValueError, match="scalar"):
        classify_involution_mod2(omax_1_6, b.element(2))
    with pytest.raises(ValueError, match="divide"):
        classify_involution_mod2(omax_1_6, b.element(0, 1, 1, 0))


def test_mod_four_search_is_empty_in_the_congruence_class(omax_1_6):
    assert search_mod4_anticommutator(omax_1_6, omax_1_6.algebra.i) is None


def _table_product(order, u, v):
    return [
        sum(u[i] * v[j] * order.table[i][j][k] for i in range(4) for j in range(4))
        for k in range(4)
    ]


def test_mod_four_full_scan_finds_a_witness(omax_1_6):
    # dropping the congruence x = 1 mod 2O, a scan of all of O/4O finds
    # solutions of b^-1 x b x = -1
    b = omax_1_6.algebra
    mat = AutClass.from_element(omax_1_6, b.i).conjugation_matrix()

    def solves(coords):
        residual = _table_product(omax_1_6, _vec_mat_mod(coords, mat, 4), coords)
        residual[0] += 1
        return all(v % 4 == 0 for v in residual)

    witness = next(c for c in itertools.product(range(4), repeat=4) if solves(c))
    x = omax_1_6.element(witness)
    residual = b.i.inverse() * x * b.i * x + b.one
    assert all(int(c) % 4 == 0 for c in omax_1_6.coordinates(residual))
    # the witness must fall outside x = 1 mod 2O, or the restricted
    # search would have found one
    diff = omax_1_6.coordinates(x - b.one)
    assert any(int(c) % 2 for c in diff)


def test_mod_four_search_requires_the_mod_two_criterion(omax_1_6):
    with pytest.raises(ValueError, match="fixed points"):
        search_mod4_anticommutator(omax_1_6, omax_1_6.algebra.k)


def test_c2c2_mod_two(omax_1_6, omax_15):
    b = omax_1_6.algebra
    jk2 = b.element(0, 0, HALF, HALF)
    act = build_dihedral_action(omax_1_6, "D2", [b.i, jk2])
    assert classify_c2c2_mod2(act) == ([2, 2, 2], True)
    b15 = omax_15.algebra
    odd = build_dihedral_action(omax_15, "D2", [b15.i, b15.j])
    assert classify_c2c2_mod2(odd) == ([2, 2], False)
    d1 = build_dihedral_action(omax_1_6, "D1", [b.i])
    with pytest.raises(ValueError, match="D2"):
        classify_c2c2_mod2(d1)


# ---------------------------------------------------------------------------
# left submodules of O/lO


def _scan_lattice(order, ell):
    """The line scan: generated_by on one element of each line of O/lO.

    Lines with the same left ideal basis are spanned once; the modules are
    sorted by size, then lexicographically.
    """
    firsts = {}
    for coords in _line_representatives(ell):
        firsts.setdefault(tuple(_left_ideal_basis(order, coords, ell)), coords)
    modules = [generated_by(order, ell, coords) for coords in firsts.values()]
    modules.sort(key=lambda mod: (len(mod), sorted(mod)))
    return modules


# every maximal order that the suite and the benchmark build, with disc(B)
LATTICE_ORDERS = {
    "o16": 6,  # the basis of the omax_1_6 fixture and of the benchmark's o16
    (-3, 6): 6,
    (-2, 5): 10,
    (-3, 5): 15,
    (-13, 23): 46,
    (-1, -1): 2,  # the Hurwitz order
    (-1, 11): 22,
    (-1, 3): 6,
}


@pytest.fixture(scope="module")
def lattice_orders(omax_1_6):
    orders = {key: maximal_order(QuatAlgebra(*key)) for key in LATTICE_ORDERS if key != "o16"}
    orders["o16"] = omax_1_6
    return orders


@pytest.mark.parametrize("key", list(LATTICE_ORDERS), ids=str)
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_submodules_match_the_line_scan(lattice_orders, key, ell):
    order = lattice_orders[key]
    assert discriminant(order.algebra) == LATTICE_ORDERS[key]
    modules = submodule_lattice_mod_ell(order, ell)
    assert modules == _scan_lattice(order, ell)
    middle = 1 if LATTICE_ORDERS[key] % ell == 0 else ell + 1
    assert [len(m) for m in modules] == [1] + [ell**2] * middle + [ell**4]


def test_submodules_require_a_maximal_order():
    with pytest.raises(ValueError, match="maximal"):
        submodule_lattice_mod_ell(standard_order(QuatAlgebra(-1, -1)), 3)


@pytest.mark.parametrize("ell", [5, 7])
def test_submodules_at_unramified_primes(omax_1_6, ell):
    modules = submodule_lattice_mod_ell(omax_1_6, ell)
    sizes = [len(m) for m in modules]
    assert sizes == [1] + [ell**2] * (ell + 1) + [ell**4]


@pytest.mark.parametrize("ell", [2, 3])
def test_submodules_at_ramified_primes(omax_1_6, ell):
    modules = submodule_lattice_mod_ell(omax_1_6, ell)
    assert [len(m) for m in modules] == [1, ell**2, ell**4]


def test_submodules_disc_ten_at_three(omax_2_5):
    # 3 is unramified for discriminant 10
    sizes = [len(m) for m in submodule_lattice_mod_ell(omax_2_5, 3)]
    assert sizes == [1] + [9] * 4 + [81]


def test_submodules_are_left_ideals(omax_1_6):
    for ell in (2, 3):
        consts_check = submodule_lattice_mod_ell(omax_1_6, ell)
        for module in consts_check:
            for vec in module:
                x = omax_1_6.element(vec)
                for e in omax_1_6.basis:
                    prod = omax_1_6.coordinates(e * x)
                    reduced = tuple(int(c) % ell for c in prod)
                    assert reduced in module


def test_line_representatives_meet_each_line_once():
    for p in (2, 3, 5):
        reps = list(_line_representatives(p))
        assert len(reps) == (p**4 - 1) // (p - 1) + 1
        lines = {
            frozenset(tuple(c * v % p for v in vec) for c in range(1, p)) for vec in reps
        }
        assert len(lines) == len(reps)
        assert set().union(*lines) == set(itertools.product(range(p), repeat=4))


@pytest.mark.parametrize("ell", [2, 3])
def test_submodules_match_the_full_scan(omax_1_6, omax_2_5, ell):
    # the scan over one generator per line against generated_by on all of O/lO
    for order in (omax_1_6, omax_2_5):
        every = {generated_by(order, ell, c) for c in itertools.product(range(ell), repeat=4)}
        modules = submodule_lattice_mod_ell(order, ell)
        assert set(modules) == every and len(modules) == len(every)


def test_generated_by_matches_membership(omax_1_6):
    zero = generated_by(omax_1_6, 3, (0, 0, 0, 0))
    assert zero == frozenset({(0, 0, 0, 0)})
    full = generated_by(omax_1_6, 3, (1, 0, 0, 0))
    assert len(full) == 81
    with pytest.raises(ValueError, match="prime"):
        generated_by(omax_1_6, 4, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="prime"):
        submodule_lattice_mod_ell(omax_1_6, 6)


def test_three_dim_subspace_contains_a_generator(omax_1_6):
    proper = submodule_lattice_mod_ell(omax_1_6, 3)[1]
    basis = rref_mod(sorted(proper), 3)
    assert len(basis) == 2
    subspace = [(1, 0, 0, 0)] + basis
    coords = three_dim_generator_check(omax_1_6, 3, subspace)
    assert coords == (1, 0, 0, 0)
    assert len(generated_by(omax_1_6, 3, coords)) == 81


def test_three_dim_generator_on_disc_ten(omax_2_5):
    coords = three_dim_generator_check(
        omax_2_5, 3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    )
    assert len(generated_by(omax_2_5, 3, coords)) == 81


def test_three_dim_generator_rejects_degenerate_input(omax_1_6):
    with pytest.raises(ValueError, match="3-dimensional"):
        three_dim_generator_check(omax_1_6, 3, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError, match="prime"):
        three_dim_generator_check(omax_1_6, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


# ---------------------------------------------------------------------------
# the enhanced semidirect product


def test_enhanced_identity_laws(omax_1_6):
    b = omax_1_6.algebra
    e = enhanced_identity(omax_1_6, 4)
    gi = AutClass.from_element(omax_1_6, b.i)
    x = EnhancedElement.create(gi, (0, 1, 0, 0), 4)
    assert enhanced_mul(x, e) == x
    assert enhanced_mul(e, x) == x


def test_enhanced_twist_is_on_the_left_factor(omax_1_6):
    b = omax_1_6.algebra
    e2_coords = (0, 1, 0, 0)
    gi = AutClass.from_element(omax_1_6, b.i)
    one = AutClass.from_element(omax_1_6, b.one)
    pure = EnhancedElement.create(one, e2_coords, 4)
    rot = EnhancedElement.create(gi, (1, 0, 0, 0), 4)
    # (1, x)(g, 1) twists x by g; (g, 1)(1, x) leaves x alone
    left = enhanced_mul(pure, rot)
    right = enhanced_mul(rot, pure)
    assert right.coords == e2_coords
    e2 = omax_1_6.element(e2_coords)
    twisted = omax_1_6.coordinates(b.i.inverse() * e2 * b.i)
    assert left.coords == tuple(int(c) % 4 for c in twisted)


def test_enhanced_product_keeps_the_factor_order(omax_1_6):
    # with trivial automorphisms the law is multiplication in O/4O, which
    # does not commute
    one = AutClass.from_element(omax_1_6, omax_1_6.algebra.one)
    u, v = (0, 0, 1, 0), (0, 0, 1, 1)
    x, y = (EnhancedElement.create(one, c, 4) for c in (u, v))
    product = omax_1_6.element(u) * omax_1_6.element(v)
    expected = tuple(int(c) % 4 for c in omax_1_6.coordinates(product))
    assert enhanced_mul(x, y).coords == expected
    assert enhanced_mul(y, x).coords != expected


def test_enhanced_rejects_non_units(omax_1_6):
    b = omax_1_6.algebra
    one = AutClass.from_element(omax_1_6, b.one)
    with pytest.raises(ValueError, match="unit"):
        EnhancedElement.create(one, (2, 0, 0, 0), 4)
    with pytest.raises(ValueError, match="modulus"):
        EnhancedElement.create(one, (1, 0, 0, 0), 1)


def test_enhanced_rejects_mismatched_moduli(omax_1_6):
    one = AutClass.from_element(omax_1_6, omax_1_6.algebra.one)
    x = EnhancedElement.create(one, (1, 0, 0, 0), 4)
    y = EnhancedElement.create(one, (1, 0, 0, 0), 3)
    with pytest.raises(ValueError, match="modulus"):
        enhanced_mul(x, y)


@given(
    picks=st.tuples(
        st.integers(0, 3),
        st.integers(0, 255),
        st.integers(0, 3),
        st.integers(0, 255),
        st.integers(0, 3),
        st.integers(0, 255),
    )
)
def test_enhanced_associativity_mod_four(omax_1_6, picks):
    order = omax_1_6
    b = order.algebra
    jk2 = b.element(0, 0, HALF, HALF)
    gammas = [
        AutClass.from_element(order, g) for g in (b.one, b.i, jk2, b.i * jk2)
    ]
    triple = []
    for g_idx, c_idx in zip(picks[::2], picks[1::2]):
        coords = (c_idx & 3, (c_idx >> 2) & 3, (c_idx >> 4) & 3, (c_idx >> 6) & 3)
        norm = order.element(coords).nrd()
        assume(math.gcd(int(norm), 4) == 1)
        triple.append(EnhancedElement.create(gammas[g_idx], coords, 4))
    x, y, z = triple
    assert enhanced_mul(enhanced_mul(x, y), z) == enhanced_mul(x, enhanced_mul(y, z))


# ---------------------------------------------------------------------------
# polarizations


def test_polarization_principal_case(omax_1_6):
    b = omax_1_6.algebra
    mu = b.element(0, 6, 1, 2)
    assert (mu * mu).scalar_part() == -6
    report = polarization_analysis(omax_1_6, mu, jacobian_mode=True)
    assert report == PolarizationReport(1, -24, True)


def test_polarization_non_principal_case(omax_1_6):
    report = polarization_analysis(omax_1_6, omax_1_6.algebra.i, jacobian_mode=True)
    assert report == PolarizationReport(6, -4, True)


def test_polarization_with_c2c2_obstruction(omax_1_6):
    b = omax_1_6.algebra
    # even degree class: compatible with (Z/2)^3 fixed points
    report = polarization_analysis(omax_1_6, b.i, c2c2_fixed=[2, 2, 2])
    assert report.jacobian_consistent
    # degree class 1 contradicts the obstruction
    report = polarization_analysis(omax_1_6, b.element(0, 6, 1, 2), c2c2_fixed=[2, 2, 2])
    assert not report.jacobian_consistent
    # smaller fixed groups impose nothing
    report = polarization_analysis(omax_1_6, b.element(0, 6, 1, 2), c2c2_fixed=[2, 2])
    assert report.jacobian_consistent


def test_polarization_on_disc_ten(omax_2_5):
    b = omax_2_5.algebra
    mu = find_trace_zero(omax_2_5, -10, height=6)[0]
    report = polarization_analysis(omax_2_5, mu)
    assert report.degree_class == 1 and report.subfield_disc == -40
    report = polarization_analysis(omax_2_5, b.i)
    assert report.degree_class == 5 and report.subfield_disc == -8


def test_polarization_rejects_bad_mu(omax_1_6):
    b = omax_1_6.algebra
    with pytest.raises(ValueError, match="trace zero"):
        polarization_analysis(omax_1_6, b.one + b.i)
    with pytest.raises(ValueError, match="negative"):
        polarization_analysis(omax_1_6, b.i + b.j)  # squares to +5
    with pytest.raises(ValueError, match="trace zero"):
        polarization_analysis(omax_1_6, b.element(0))


# ---------------------------------------------------------------------------
# distinguished quadratic subrings


def test_distinguished_subring_table(all_actions, omax_1_6, omax_15):
    assert distinguished_subring(all_actions["D1"]) == DistinguishedRing(-1, -4, 1, False)
    assert distinguished_subring(all_actions["D2"]) == DistinguishedRing(-1, -4, 1, False)
    assert distinguished_subring(all_actions["D4"]) == DistinguishedRing(-1, -4, 1, False)
    assert distinguished_subring(all_actions["D3"]) == DistinguishedRing(-3, -3, 1, False)
    assert distinguished_subring(all_actions["D6"]) == DistinguishedRing(-3, -3, 1, False)
    d1k = build_dihedral_action(omax_1_6, "D1", [omax_1_6.algebra.k])
    assert distinguished_subring(d1k) == DistinguishedRing(6, 24, 1, True)
    # D2 keeps the negative square class; index 2 since -3 = 1 mod 4
    odd = build_dihedral_action(omax_15, "D2", [omax_15.algebra.i, omax_15.algebra.j])
    assert distinguished_subring(odd) == DistinguishedRing(-3, -3, 2, False)
    # a real ring with index bound 2: 5 = 1 mod 4
    d1j = build_dihedral_action(omax_15, "D1", [omax_15.algebra.j])
    assert distinguished_subring(d1j) == DistinguishedRing(5, 5, 2, True)


# ---------------------------------------------------------------------------
# serialization


def test_action_json_round_trip(all_actions):
    for kind, act in all_actions.items():
        doc = json.loads(json.dumps(action_to_json(act)))
        back = action_from_json(doc)
        assert back == act, kind
        assert doc["kind"] == kind


def test_action_json_rejects_tampered_params(all_actions):
    doc = action_to_json(all_actions["D2"])
    doc["params"]["m"] = 17
    with pytest.raises(ValueError, match="parameters"):
        action_from_json(doc)
