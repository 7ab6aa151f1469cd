"""Tests for the newform screen: the PQM criterion on the packaged forms."""

from __future__ import annotations

import dataclasses
import json

import pytest

from quatorsion import newform
from quatorsion.exact import primerange
from quatorsion.quat import QuatAlgebra, discriminant

# label -> (is_pqm, twist discriminant, quaternion discriminant)
EXPECTED = {
    "243.2.a.d": (True, -3, 6),
    "972.2.a.e": (True, -3, 6),
    "cm-256-disc-8": (False, -4, 1),
}


def test_packaged_fixtures():
    assert newform.packaged_fixtures() == sorted(EXPECTED)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_pqm_criterion_on_packaged_newforms(label):
    record = newform.load_fixture(label)
    verdict = newform.pqm_criterion(record)
    assert (verdict.is_pqm, verdict.twist_disc, verdict.quaternion_disc) == EXPECTED[label]
    # the reported algebra is (d, m / Q), and PQM needs it to be division
    assert verdict.quaternion_disc == discriminant(QuatAlgebra(verdict.twist_disc, record.m))
    assert not verdict.is_pqm or verdict.quaternion_disc > 1


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_twist_checks_recover_the_stored_twist_fields(label):
    # the fixture generator fills these two fields from twist_checks
    doc = json.loads((newform.FIXTURE_DIR / f"{label}.json").read_text())
    stored = (doc.pop("inner_twists"), doc.pop("self_twist"))
    report = newform.twist_checks(newform.load_record(doc))
    assert (list(report.inner_twists), report.self_twist) == stored
    assert report.self_twist_basis == "heuristic"


def test_fundamental_discriminants_up_to_40():
    assert newform._fundamental_discriminants(40) == (
        -40, -39, -35, -31, -24, -23, -20, -19, -15, -11, -8, -7, -4, -3,
        5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40,
    )


def test_pqm_verdict_rejects_split_algebra():
    # runs under python -O too: the invariant is an explicit exception
    with pytest.raises(ValueError, match="division algebra"):
        newform.PqmVerdict(is_pqm=True, twist_disc=-3, quaternion_disc=1)
    assert not newform.PqmVerdict(is_pqm=False, twist_disc=-3, quaternion_disc=1).is_pqm
    assert newform.PqmVerdict(is_pqm=True, twist_disc=-3, quaternion_disc=6).is_pqm


def test_pqm_verdict_is_frozen():
    verdict = newform.PqmVerdict(is_pqm=False, twist_disc=0, quaternion_disc=1)
    with pytest.raises(AttributeError):
        verdict.is_pqm = True


@pytest.mark.parametrize(
    "cond, shape",
    [
        (1, (0, 0, 1)),
        (22500, (1, 1, 5)),  # 2^2 3^2 5^4
        (20736, (4, 2, 1)),  # 2^8 3^4
        (2**20 * 3**10, (10, 5, 1)),
        (5**4 * 7**4, (0, 0, 35)),
    ],
)
def test_conductor_admissible_shapes(cond, shape):
    assert newform.conductor_admissible(cond) == (True, shape)


@pytest.mark.parametrize(
    "cond",
    [
        243,  # odd power of 3
        972,  # 2^2 3^5
        2**22,  # i = 11 > 10
        5**4 * 7**2,  # 7 to the second power
        3**12,  # j = 6 > 5
        11**8,  # N = 11^2 is not squarefree
    ],
)
def test_conductor_admissible_rejects(cond):
    assert newform.conductor_admissible(cond) == (False, None)


def test_conductor_admissible_requires_a_positive_conductor():
    with pytest.raises(ValueError, match="positive"):
        newform.conductor_admissible(0)


@pytest.mark.parametrize("label, bound", [("243.2.a.d", 3), ("972.2.a.e", 9), ("cm-256-disc-8", 4)])
def test_torsion_divisor_bound_over_good_primes(label, bound):
    record = newform.load_fixture(label)
    primes = [p for p in primerange(2, 98) if record.level % p]
    assert newform.torsion_divisor_bound(record, primes) == bound


def test_torsion_divisor_bound_needs_a_prime():
    with pytest.raises(ValueError, match="at least one prime"):
        newform.torsion_divisor_bound(newform.load_fixture("243.2.a.d"), [])


@pytest.mark.parametrize(
    "label, sturm, basis",
    [("243.2.a.d", 54, "sturm"), ("972.2.a.e", 324, "evidence"), ("cm-256-disc-8", 64, "sturm")],
)
def test_twist_report_names_its_basis(label, sturm, basis):
    record = newform.load_fixture(label)
    assert record.coeff_bound() == 100
    assert newform.sturm_bound(record.level) == sturm
    report = newform.twist_checks(record)
    assert report.basis == basis
    assert report.conclusive  # the verdict's gate is unchanged


def test_sturm_bound_rounds_up():
    # [SL2(Z) : Gamma_0(N)] / 6: 12/6 at 11, 3/6 at 2, 4/6 at 3, 72/6 at 36
    assert [newform.sturm_bound(n) for n in (1, 2, 3, 11, 36)] == [1, 1, 1, 2, 12]


def test_short_coefficient_list_still_names_its_basis():
    record = newform.load_fixture("243.2.a.d")
    short = dataclasses.replace(record, ap={p: record.ap[p] for p in primerange(2, 60)})
    report = newform.twist_checks(short)
    assert short.coeff_bound() == 60
    assert (report.conclusive, report.basis) == (False, "sturm")
