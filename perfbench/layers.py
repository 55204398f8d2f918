"""Where the traced run wraps frobseries, and the per-layer metrics it reports.

The wrap points are the module attributes each caller looks up at call
time: ``frobenius`` calls ``mul``/``invert``/``pochhammer``/
``pentagonal_series``/``cg_product`` through its own globals, ``congruences``
and ``cli`` call the routes as ``frobenius.<route>`` and the suites as
``congruences.<suite>``, and ``verify_claim`` finds ``default_series_provider``
in the ``congruences`` globals. No file of the package changes.
"""

from __future__ import annotations

import math

from .tracer import self_times

SUITES = (
    "congruences.main_theorem_suite",
    "congruences.cphi_even_suite",
    "congruences.andrews_p_squared_suite",
)
ROUTES = (
    "frobenius.phi_parity_series",
    "frobenius.phi_series_double_sum",
    "frobenius.cphi_series",
)
GROWTH = (
    "series.mul",
    "series.invert",
    "frobenius.cg_product",
    "frobenius.phi_parity_series",
    "frobenius.phi_series_double_sum",
    "cli.main",
)

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = (
    [
        (f"series.{fn}.{what}", unit, "lower")
        for fn in ("mul", "invert")
        for what, unit in (("calls", "count"), ("self_s", "s"), ("coeff_pairs", "count"))
    ]
    + [
        ("series.pochhammer.calls", "count", "lower"),
        ("series.pochhammer.self_s", "s", "lower"),
        ("series.pentagonal_series.self_s", "s", "lower"),
    ]
    + [
        (f"{fn}.{what}", unit, "lower")
        for fn in ROUTES[:2]
        for what, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    ]
    + [
        ("frobenius.cphi_series.calls", "count", "lower"),
        ("frobenius.cphi_series.s", "s", "lower"),
        ("frobenius.cg_product.calls", "count", "lower"),
        ("frobenius.cg_product.self_s", "s", "lower"),
        ("frobenius.cg_product.z_rows", "count", "lower"),
        ("frobenius.coeffs_out", "count", "lower"),
    ]
    + [(f"{suite}.s", "s", "lower") for suite in SUITES]
    + [
        ("congruences.verify_claim.calls", "count", "lower"),
        ("congruences.verify_claim.self_s", "s", "lower"),
        ("congruences.series_builds", "count", "lower"),
        ("congruences.distinct_series", "count", "lower"),
        ("congruences.build_reuse", "ratio", "higher"),
        ("congruences.claim_overlap", "ratio", "lower"),
        ("cli.main.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.out_bytes", "bytes", "lower"),
    ]
    + [(f"{fn}.growth_exp", "slope", "lower") for fn in GROWTH]
    + [
        ("trace.self_accounted", "ratio", "lower"),
        ("trace_overhead_s", "s", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
)


def _truncation(args, kwargs, result):
    return {"n": result.truncation}


def _route(family):
    def describe(args, kwargs, result):
        return {
            "key": [family, args[0], result.ring.modulus],
            "coeffs": len(result.coeffs),
        }

    return describe


def _z_rows(args, kwargs, result):
    return {"z_rows": result.z_max - result.z_min + 1}


def wrap_points(frobenius, congruences):
    """(module, attribute, span name, describe) for Tracer.install."""
    return [
        (frobenius, "mul", "series.mul", _truncation),
        (frobenius, "invert", "series.invert", _truncation),
        (frobenius, "pochhammer", "series.pochhammer", None),
        (frobenius, "pentagonal_series", "series.pentagonal_series", None),
        (frobenius, "cg_product", "frobenius.cg_product", _z_rows),
        (frobenius, "phi_parity_series", ROUTES[0], _route("phi")),
        (frobenius, "phi_series_double_sum", ROUTES[1], _route("phi")),
        (frobenius, "cphi_series", ROUTES[2], _route("cphi")),
        (congruences, "verify_claim", "congruences.verify_claim", None),
        (
            congruences,
            "default_series_provider",
            "congruences.default_series_provider",
            None,
        ),
    ] + [
        (congruences, suite.split(".")[1], suite, None) for suite in SUITES
    ]


def growth_exponent(scales, times) -> float:
    """Least-squares slope of log(time) on log(scale); 0 if a time is 0."""
    if len(scales) < 2 or min(times) <= 0:
        return 0.0
    xs = [math.log(s) for s in scales]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(rung_spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``rung_spans`` is a list of (rung scale, spans of that rung). Returns
    every PER_LAYER metric except ``cli.out_bytes``, ``trace_overhead_s``
    and ``error_rate``, which the runner measures.
    """
    spans = [s for _, rs in rung_spans for s in rs]
    self_t = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        excl[s.name] = excl.get(s.name, 0.0) + self_t[s.sid]

    def suite_of(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name in SUITES:
                return span
        return None

    m: dict[str, float] = {}
    for fn in ("series.mul", "series.invert"):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = excl.get(fn, 0.0)
        m[f"{fn}.coeff_pairs"] = sum(
            (s.info["n"] + 1) * (s.info["n"] + 2) // 2
            for s in spans
            if s.name == fn and s.info
        )
    m["series.pochhammer.calls"] = calls.get("series.pochhammer", 0)
    m["series.pochhammer.self_s"] = excl.get("series.pochhammer", 0.0)
    m["series.pentagonal_series.self_s"] = excl.get(
        "series.pentagonal_series", 0.0
    )
    for fn in ROUTES:
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.s"] = incl.get(fn, 0.0)
    for fn in ROUTES[:2]:
        m[f"{fn}.self_s"] = excl.get(fn, 0.0)
    m["frobenius.cg_product.calls"] = calls.get("frobenius.cg_product", 0)
    m["frobenius.cg_product.self_s"] = excl.get("frobenius.cg_product", 0.0)
    m["frobenius.cg_product.z_rows"] = sum(
        s.info["z_rows"]
        for s in spans
        if s.name == "frobenius.cg_product" and s.info
    )
    route_spans = [s for s in spans if s.name in ROUTES]
    m["frobenius.coeffs_out"] = sum(
        s.info["coeffs"] for s in route_spans if s.info
    )

    for suite in SUITES:
        m[f"{suite}.s"] = incl.get(suite, 0.0)
    m["congruences.verify_claim.calls"] = calls.get("congruences.verify_claim", 0)
    m["congruences.verify_claim.self_s"] = excl.get(
        "congruences.verify_claim", 0.0
    )
    builds = 0
    distinct: dict[int, set] = {}
    for s in route_spans:
        suite = suite_of(s)
        if suite is not None and s.info:
            builds += 1
            distinct.setdefault(suite.sid, set()).add(tuple(s.info["key"]))
    n_distinct = sum(len(keys) for keys in distinct.values())
    m["congruences.series_builds"] = builds
    m["congruences.distinct_series"] = n_distinct
    m["congruences.build_reuse"] = n_distinct / builds if builds else 0.0
    suite_s = sum(incl.get(suite, 0.0) for suite in SUITES)
    claim_s = sum(
        s.duration
        for s in spans
        if s.name == "congruences.verify_claim" and suite_of(s) is not None
    )
    m["congruences.claim_overlap"] = claim_s / suite_s if suite_s else 0.0

    main_s = incl.get("cli.main", 0.0)
    m["cli.main.s"] = main_s
    m["cli.self_s"] = excl.get("cli.main", 0.0)
    for fn in GROWTH:
        m[f"{fn}.growth_exp"] = growth_exponent(
            [scale for scale, _ in rung_spans],
            [sum(s.duration for s in rs if s.name == fn) for _, rs in rung_spans],
        )
    m["trace.self_accounted"] = sum(self_t.values()) / main_s if main_s else 0.0
    return m
