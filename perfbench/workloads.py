"""The two benchmark workloads, their reference snapshot and its checks.

A workload is a list of items drawn from two of the four pipelines of
the paper: ``genus2`` runs ``certify`` and ``jacobian``, ``algebra``
runs ``weil_scan`` and ``orders``.  An item is one top-level call into
quatorsion, named by a key in the reference snapshot, and carries its
own check.  Items call the library through module attributes, never
through names bound here, so that the tracer's wrappers see them.
Building a workload (its inputs, and for ``orders`` the two orders and
five actions the fixed-point and subring items act on) is set-up, not
measured work.

The seed permutes the item order and seeds every Jacobian probe.  The
checks accept any seed: they compare only what the seed cannot change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import quatorsion.actions as actions
import quatorsion.genus2.curve as curve_mod
import quatorsion.genus2.jacobian as jacobian
import quatorsion.genus2.torsion as torsion
import quatorsion.newform as newform
import quatorsion.quat as quat
import quatorsion.weil as weil

REFERENCE = Path(__file__).resolve().parent / "reference.json"

CERTIFY_BOUND = 400
JACOBIAN_BOUND = 100
RESIDUE_MODULI = range(2, 61)
LATTICE_PRIMES = (2, 3, 5, 7, 11)
MAXIMAL_ORDER_ALGEBRAS = ((-1, 6), (-3, 6), (-2, 5), (-3, 5), (-13, 23))

# pipeline -> its parameters; the reference snapshot is keyed by pipeline
PARAMETERS = {
    "certify": {"prime_bound": CERTIFY_BOUND, "curves": 5},
    "jacobian": {"prime_bound": JACOBIAN_BOUND, "curves": 5},
    "weil_scan": {"q": list(weil.SUPPORTED_Q), "ell": "max(qm_prime_bound(q))",
                  "geometric_square_only": [True, False]},
    "orders": {"algebras": [list(ab) for ab in MAXIMAL_ORDER_ALGEBRAS],
               "actions": ["D1", "D2", "D4", "D3", "D6"],
               "residue_moduli": [RESIDUE_MODULI.start, RESIDUE_MODULI.stop - 1],
               "lattice_primes": list(LATTICE_PRIMES),
               "newforms": "packaged_fixtures()"},
}
PIPELINES = tuple(PARAMETERS)
# workload -> the pipelines whose items it runs
WORKLOADS = {"genus2": ("certify", "jacobian"), "algebra": ("weil_scan", "orders")}


@dataclass(frozen=True)
class Item:
    key: str
    call: Callable[[], Any]
    canon: Callable[[Any], Any]  # result -> JSON data compared with the reference
    check: Callable[[Any, Any], bool]  # (canonical output, reference entry) -> ok
    exact: Callable[[Any], bool] = lambda out: True  # whether an output is fully determined


@dataclass(frozen=True)
class Workload:
    items: list[Item]
    lpoly_probe: tuple | None  # (curve, p) with the largest p the workload reaches
    pipeline_of: dict[str, str]  # item key -> pipeline


def pipeline_items(pipeline: str, seed: int) -> tuple[list[Item], tuple | None]:
    """A pipeline's items in a fixed order, and its largest (curve, p)."""
    return _FACTORIES[pipeline](seed)


def build(name: str, seed: int) -> Workload:
    """Inputs of a workload, items in the order the seed gives."""
    items, probes, pipeline_of = [], [], {}
    for pipeline in WORKLOADS[name]:
        more, probe = pipeline_items(pipeline, seed)
        items += more
        pipeline_of.update(dict.fromkeys((item.key for item in more), pipeline))
        if probe is not None:
            probes.append(probe)
    random.Random(seed).shuffle(items)
    return Workload(items, max(probes, key=lambda cp: cp[1], default=None), pipeline_of)


def parameters(name: str) -> dict[str, dict]:
    return {pipeline: PARAMETERS[pipeline] for pipeline in WORKLOADS[name]}


def load_reference() -> dict[str, dict[str, Any]]:
    """Reference entries by workload, then by item key."""
    by_pipeline = json.loads(REFERENCE.read_text())
    return {name: {key: ref for pipeline in pipelines for key, ref in by_pipeline[pipeline].items()}
            for name, pipelines in WORKLOADS.items()}


def _equal(out: Any, ref: Any) -> bool:
    return out == ref


def _largest_prime(curves, bound: int) -> tuple:
    return max(((c, curve_mod.good_primes(c, bound)[-1]) for c in curves), key=lambda cp: cp[1])


# ---------------------------------------------------------------------------
# certify: certify_torsion on the five table curves at B = 400


def _certify(seed: int):
    rows = torsion.table_curves()
    items = [
        Item(
            f"certify/{i}",
            lambda row=row: torsion.certify_torsion(row.curve, row.torsion, CERTIFY_BOUND),
            lambda r: {"verdict": r.verdict, "orders": [list(pn) for pn in r.orders],
                       "order_gcd": r.order_gcd},
            _check_certify,
        )
        for i, row in enumerate(rows)
    ]
    return items, _largest_prime([row.curve for row in rows], CERTIFY_BOUND)


def _check_certify(out, ref) -> bool:
    return out["verdict"] == "CONSISTENT" and out == ref


# ---------------------------------------------------------------------------
# jacobian: J(F_p) at every good p <= 100 of the five table curves


def _jacobian(seed: int):
    curves = [row.curve for row in torsion.table_curves()]
    items = []
    for i, curve in enumerate(curves):
        for p in curve_mod.good_primes(curve, JACOBIAN_BOUND):
            key = f"jacobian/{i}/{p}"
            probe_seed = random.Random(f"{seed}/{key}").randrange(2**31)
            items.append(Item(
                key,
                lambda curve=curve, p=p, s=probe_seed: jacobian.jacobian_group_mod_p(curve, p, s),
                lambda g: {"order": g.order, "two_rank": g.two_rank,
                           "invariants": None if g.invariants is None else list(g.invariants)},
                _check_jacobian,
                _jacobian_exact,
            ))
    return items, _largest_prime(curves, JACOBIAN_BOUND)


def _check_jacobian(out, ref) -> bool:
    """Order and 2-rank as in the snapshot; invariants, if any, consistent.

    The invariants need not equal the snapshot's: for odd ell with
    v_ell(#J) >= 4 order and exponent do not fix the ell-rank.
    """
    if out["order"] != ref["order"] or out["two_rank"] != ref["two_rank"]:
        return False
    inv = out["invariants"]
    if inv is None:
        return True
    chain = all(d >= 2 for d in inv) and all(b % a == 0 for a, b in zip(inv, inv[1:]))
    return chain and math.prod(inv) == out["order"] and sum(d % 2 == 0 for d in inv) == out["two_rank"]


def _jacobian_exact(out) -> bool:
    return out["invariants"] is not None


# ---------------------------------------------------------------------------
# weil_scan: torsion_gcd_scan for every supported q and mode, at the largest
# ell of qm_prime_bound(q).  The scans at the other ell repeat the same
# enumeration and split analysis; only the final gcd differs.


def _weil_scan(seed: int):
    for q in weil.SUPPORTED_Q:
        weil.enumerate_surfaces(q)  # loads the packaged class lists
    items = [
        Item(
            f"weil/{q}/{ell}/{'geo' if geo else 'plain'}",
            lambda q=q, ell=ell, geo=geo: weil.torsion_gcd_scan(q, ell, geo),
            lambda r: {"max": r[0], "labels": list(r[1])},
            _equal,
        )
        for q in weil.SUPPORTED_Q
        for ell in [max(weil.qm_prime_bound(q))]
        for geo in (True, False)
    ]
    return items, None


# ---------------------------------------------------------------------------
# orders: maximal orders, dihedral actions, fixed points, lattices, subrings,
# and the PQM criterion


def _action_inputs():
    """The five dihedral presentations of the test suite, by kind."""
    half = Fraction(1, 2)
    o16 = quat.QuatOrder.from_basis(
        quat.QuatAlgebra(-1, 6),
        [[1, 0, 0, 0], [half, half, 0, half], [0, 0, half, half], [0, 0, 0, 1]],
    )
    o36 = quat.maximal_order(quat.QuatAlgebra(-3, 6))
    b, b2 = o16.algebra, o36.algebra
    w = b2.element(-half, half, 0, 0)
    return o16, {
        "D1": (o16, [b.i]),
        "D2": (o16, [b.i, b.element(0, 0, half, half)]),
        "D4": (o16, [b.one + b.i, b.j]),
        "D3": (o36, [b2.one + w, b2.j]),
        "D6": (o36, [b2.one - w, b2.j]),
    }


def _orders(seed: int):
    o16, presentations = _action_inputs()
    built = {kind: actions.build_dihedral_action(o, kind, gens)
             for kind, (o, gens) in presentations.items()}
    records = {label: newform.load_fixture(label) for label in newform.packaged_fixtures()}
    items = [
        Item(f"maximal_order/{a},{b}",
             lambda a=a, b=b: quat.maximal_order(quat.QuatAlgebra(a, b)),
             quat.reduced_discriminant, _equal)
        for a, b in MAXIMAL_ORDER_ALGEBRAS
    ]
    items += [
        Item(f"action/{kind}",
             lambda kind=kind, o=o, gens=gens: actions.build_dihedral_action(o, kind, gens),
             lambda act: {"kind": act.kind, "params": list(act.params)}, _equal)
        for kind, (o, gens) in presentations.items()
    ]
    items += [
        Item(f"residue/{kind}/{n}",
             lambda act=act, n=n: actions.residue_fixed_subgroup(act, n),
             list, _equal)
        for kind, act in built.items()
        for n in RESIDUE_MODULI
    ]
    items += [
        Item(f"lattice/{ell}",
             lambda ell=ell: actions.submodule_lattice_mod_ell(o16, ell),
             lambda mods: [len(m) for m in mods], _equal)
        for ell in LATTICE_PRIMES
    ]
    items += [
        Item(f"subring/{kind}",
             lambda act=act: actions.distinguished_subring(act),
             lambda r: [r.generator_square, r.ring_discriminant, r.index_bound, r.is_real],
             _equal)
        for kind, act in built.items()
    ]
    items += [
        Item(f"pqm/{label}",
             lambda record=record: newform.pqm_criterion(record),
             lambda v: [v.is_pqm, v.twist_disc, v.quaternion_disc], _equal)
        for label, record in records.items()
    ]
    return items, None


_FACTORIES = {"certify": _certify, "jacobian": _jacobian, "weil_scan": _weil_scan,
              "orders": _orders}
