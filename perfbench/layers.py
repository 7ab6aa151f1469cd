"""The layers the traced run measures: wrapped functions and their metrics.

Every target reports ``<module>.<function>.calls`` and ``.self_s`` per
pass.  Labels split a function's spans by argument or outcome: the F_p
and F_{p^2} point counts, the two modes of the Weil scan, the field size
of each enumeration, and whether an odd-degree model exists.  A metric
of a function the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracer import Target, Tracer


def _extension_degree(args, kwargs, result) -> str:
    return f"n{kwargs.get('n', args[2] if len(args) > 2 else 1)}"


def _scan_mode(args, kwargs, result) -> str:
    geo = kwargs["geometric_square_only"] if len(args) < 3 else args[2]
    return "geo" if geo else "plain"


def _model_found(args, kwargs, result) -> str:
    return "none" if result is None else "model"


def _field_size(args, kwargs, result) -> str:
    return f"q{kwargs.get('q', args[0] if args else None)}"


TARGETS = [
    Target("quatorsion.genus2.curve", "curve_lpoly"),
    Target("quatorsion.genus2.curve", "count_points_curve", label=_extension_degree),
    Target("quatorsion.genus2.torsion", "certify_torsion"),
    Target("quatorsion.genus2.jacobian", "jacobian_group_mod_p"),
    Target("quatorsion.genus2.jacobian", "odd_degree_model", label=_model_found),
    Target("quatorsion.genus2.jacobian", "random_divisor"),
    Target("quatorsion.genus2.jacobian", "divisor_order"),
    Target("quatorsion.genus2.jacobian", "cantor_mul"),
    Target("quatorsion.genus2.jacobian", "cantor_add"),
    Target("quatorsion.weil", "torsion_gcd_scan", label=_scan_mode),
    Target("quatorsion.weil", "enumerate_surfaces", label=_field_size),
    Target("quatorsion.weil", "geometric_split_analysis"),
    Target("quatorsion.weil", "base_change"),
    Target("quatorsion.quat", "maximal_order"),
    Target("quatorsion.quat", "is_maximal"),
    Target("quatorsion.quat", "QuatOrder.from_basis"),
    Target("quatorsion.quat", "discriminant"),
    Target("quatorsion.actions", "build_dihedral_action"),
    Target("quatorsion.actions", "residue_fixed_subgroup"),
    Target("quatorsion.actions", "submodule_lattice_mod_ell"),
    Target("quatorsion.actions", "distinguished_subring"),
    Target("quatorsion.actions", "AutClass.conjugation_matrix"),
    Target("quatorsion.exact", "factor_poly_q"),
    Target("quatorsion.exact", "smith_diagonal"),
    Target("quatorsion.exact", "smith_invariants"),
    Target("quatorsion.exact", "hilbert_symbol"),
    Target("quatorsion.newform", "twist_checks"),
    Target("quatorsion.newform", "pqm_criterion"),
]

MODULES = ("genus2.curve", "genus2.jacobian", "genus2.torsion", "weil", "quat",
           "actions", "exact", "newform")

PER_LAYER: dict[str, str] = {}  # metric name -> unit; every one is reported
for _t in TARGETS:
    PER_LAYER[f"{_t.name}.calls"] = "count"
    PER_LAYER[f"{_t.name}.self_s"] = "s"
PER_LAYER.update({
    "genus2.curve.count_points_curve.n1.self_s": "s",
    "genus2.curve.count_points_curve.n2.self_s": "s",
    "genus2.curve.curve_lpoly.peak_alloc_mb": "MB",
    "genus2.jacobian.odd_degree_model.none_share": "share",
    "genus2.jacobian.probes_per_prime": "count",
    "weil.enumerate_surfaces.calls_per_q": "count",
    "weil.scan_geo.self_s": "s",
    "weil.scan_plain.self_s": "s",
})
PER_LAYER.update({f"{m}.self_s": "s" for m in MODULES})
PER_LAYER.update({"trace.overhead": "ratio", "trace.pass_s": "s", "trace.untraced_s": "s"})


def _module_of(name: str) -> str:
    return next(m for m in MODULES if name.startswith(m + "."))


def layer_metrics(
    tracer: Tracer,
    marks: list[int],
    traced_passes: list[float],
    overhead: float,
    peak_alloc_mb: float,
) -> dict[str, float]:
    """Per-layer metrics, each the median over the whole traced passes.

    ``marks[k]`` is the index of the first span of traced pass k, whose
    summed item time is ``traced_passes[k]``; a last, partial pass is
    left out.
    """
    bounds = zip(marks, marks[1:] + [tracer.mark()])
    per_pass: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for (lo, hi), pass_s in zip(bounds, traced_passes):
        spans = tracer.self_times(lo, hi)
        values = dict.fromkeys(PER_LAYER, 0.0)
        for name, (calls, own) in spans.items():
            base = name.partition("#")[0]
            values[f"{base}.calls"] += calls
            values[f"{base}.self_s"] += own
            values[f"{_module_of(base)}.self_s"] += own
        for n in ("n1", "n2"):
            values[f"genus2.curve.count_points_curve.{n}.self_s"] = spans.get(
                f"genus2.curve.count_points_curve#{n}", (0, 0.0))[1]
        models = spans.get("genus2.jacobian.odd_degree_model#model", (0, 0.0))[0]
        nones = spans.get("genus2.jacobian.odd_degree_model#none", (0, 0.0))[0]
        if models + nones:
            values["genus2.jacobian.odd_degree_model.none_share"] = nones / (models + nones)
        if models:
            values["genus2.jacobian.probes_per_prime"] = (
                values["genus2.jacobian.random_divisor.calls"] / models)
        q_seen = sum(1 for name in spans if name.startswith("weil.enumerate_surfaces#"))
        if q_seen:
            values["weil.enumerate_surfaces.calls_per_q"] = (
                values["weil.enumerate_surfaces.calls"] / q_seen)
        for mode in ("geo", "plain"):
            values[f"weil.scan_{mode}.self_s"] = tracer.durations(
                f"weil.torsion_gcd_scan#{mode}", lo, hi)
        values["trace.pass_s"] = pass_s
        values["trace.untraced_s"] = pass_s - sum(own for _, own in spans.values())
        for name, value in values.items():
            per_pass[name].append(value)
    out = {name: statistics.median(v) for name, v in per_pass.items()}
    out["genus2.curve.curve_lpoly.peak_alloc_mb"] = peak_alloc_mb
    out["trace.overhead"] = overhead
    return out
