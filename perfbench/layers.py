"""The traced layer boundaries and the per-layer metrics read from them.

Layers are homlab's modules.  ``cli`` is a thin argparse shell with no
work of its own and is not traced.  ``PER_LAYER`` is the one list of
per-layer metrics: BENCHMARK.json repeats its (name, unit, better) and the
self-test checks that the two agree.  ``moves`` names the end-to-end metric
and workload each one should move, so that later changes can cite it.
"""

from __future__ import annotations

import numpy as np


def _count_rank(tr, args, kwargs, rank, _before):
    rows = args[0] if args else kwargs["rows"]
    if isinstance(rows, np.ndarray):
        nrows = rows.shape[0] if rows.ndim else 0
        ncols = rows.shape[1] if rows.ndim == 2 else 0
    else:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
    tr.count("rank_mod.rows", nrows)
    tr.count("rank_mod.cells", nrows * ncols)
    tr.count("rank_mod.rank", rank)


def _count_steps(tr, args, _kwargs, _out, before):
    tr.count("extend.steps", args[0].computed_to - before)


_count_steps.before = lambda args, kwargs: args[0].computed_to


def _count_indices(tr, args, kwargs, _report, _before):
    lo, hi = args[2] if len(args) > 2 else kwargs["rng"]
    tr.count("homology.indices", hi - lo + 1)


def _count_accepts(tr, _args, _kwargs, report, _before):
    tr.count("verify_reduction.accepted", int(report.ok))


CHECKERS = ("check_T31", "check_T32", "check_L34", "check_T35", "check_T36",
            "check_T37", "check_T38", "explore_condition")

# (span name, 'module:attr', counter)
TARGETS = [
    ("ring.nf", "homlab.ring:QuotientRing.nf", None),
    ("linalg.rank_mod", "homlab.linalg:rank_mod", _count_rank),
    ("linalg.relation_rows", "homlab.linalg:relation_rows", None),
    ("linalg.map_rows", "homlab.linalg:map_rows", None),
    ("groebner.syzygies", "homlab.groebner:syzygies", None),
    ("groebner.minimal_generators", "homlab.groebner:minimal_generators", None),
    ("groebner.groebner", "homlab.groebner:groebner", None),
    ("groebner.normal_form", "homlab.groebner:normal_form", None),
    ("resolution.extend", "homlab.resolution:FreeResolution.extend",
     _count_steps),
    ("homology.tor", "homlab.homology:tor", _count_indices),
    ("homology.ext", "homlab.homology:ext", _count_indices),
    ("harness.complexity_estimate", "homlab.harness:complexity_estimate", None),
    ("harness.complexity_estimate_retry",
     "homlab.harness:complexity_estimate_retry", None),
    ("harness.ext_jump_check", "homlab.harness:ext_jump_check", None),
    ("cioperators.eta", "homlab.cioperators:eta", None),
    ("cioperators.k_eta", "homlab.cioperators:k_eta", None),
    ("cioperators.verify_reduction", "homlab.cioperators:verify_reduction",
     _count_accepts),
] + [("harness." + c, "homlab.harness:" + c, None) for c in CHECKERS]


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_ALL3 = "modules_per_s on all three workloads"
_ART_CHAIN = "modules_per_s and module_p50_s on sweep-artinian and reduction-chain"
_DIM1 = "modules_per_s on sweep-dim1 and setup_s; no change on sweep-artinian"
_CHAIN = "module_p50_s on reduction-chain; absent (0) from the sweeps"

PER_LAYER = [
    _m("ring.nf.calls", "count", "lower", _ALL3),
    _m("ring.nf.self_s", "s", "lower", _ALL3),
    _m("linalg.rank_mod.calls", "count", "lower",
       "modules_per_s on sweep-dim1, where many small matrices make "
       "per-call overhead dominate"),
    _m("linalg.rank_mod.self_s", "s", "lower", _ART_CHAIN),
    _m("linalg.rank_mod.cells", "count", "lower", _ART_CHAIN),
    _m("linalg.rank_mod.rank_frac", "ratio", "higher",
       _ART_CHAIN + "; graded pieces are built overdetermined"),
    _m("linalg.relation_rows.self_s", "s", "lower", _ART_CHAIN),
    _m("linalg.map_rows.self_s", "s", "lower", _ART_CHAIN),
    _m("groebner.syzygies.calls", "count", "lower", _DIM1),
    _m("groebner.syzygies.self_s", "s", "lower", _DIM1),
    _m("groebner.minimal_generators.calls", "count", "lower", _DIM1),
    _m("groebner.minimal_generators.self_s", "s", "lower", _DIM1),
    _m("groebner.groebner.calls", "count", "lower", _DIM1),
    _m("groebner.groebner.self_s", "s", "lower", _DIM1),
    _m("groebner.normal_form.calls", "count", "lower", _DIM1),
    _m("groebner.normal_form.self_s", "s", "lower", _DIM1),
    _m("resolution.extend.steps", "count", "higher",
       "a work count: a speed-up must not lower it"),
    _m("resolution.extend.self_s", "s", "lower",
       "modules_per_s on sweep-dim1 and reduction-chain"),
    _m("homology.tor.calls", "count", "lower", _ALL3),
    _m("homology.tor.self_s", "s", "lower", _ALL3),
    _m("homology.ext.calls", "count", "lower", _ALL3),
    _m("homology.ext.self_s", "s", "lower", _ALL3),
    _m("homology.indices", "count", "higher",
       "a work count (homological indices reported): a speed-up must not "
       "lower it"),
    _m("harness.complexity_estimate.calls", "count", "lower", _ALL3),
    _m("harness.complexity_estimate.self_s", "s", "lower", _ALL3),
    _m("harness.cx_retries", "count", "lower",
       "module_tail_s on sweep-artinian: each retry rebuilds Tor(k, M); "
       "none happen in these windows at the defining commit"),
    _m("harness.checks", "count", "higher",
       "a work count (checker calls): a speed-up must not lower it"),
    _m("harness.ext_jump_check.self_s", "s", "lower", _CHAIN),
    _m("cioperators.eta.self_s", "s", "lower", _CHAIN),
    _m("cioperators.k_eta.self_s", "s", "lower", _CHAIN),
    _m("cioperators.verify_reduction.calls", "count", "lower", _CHAIN),
    _m("cioperators.verify_reduction.self_s", "s", "lower", _CHAIN),
    _m("cioperators.verify_reduction.accept_frac", "ratio", "higher",
       _CHAIN + "; accepted over attempted eta draws"),
    _m("trace.overhead_frac", "ratio", "lower",
       "none: traced over untraced item time of the same items, minus 1"),
]


def layer_values(tracer, overhead_frac):
    """Every PER_LAYER metric, by name, from a finished traced pass."""
    spans, _, _ = tracer.summary()
    ctr = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(span)
        elif field == "self_s":
            values[name] = self_s(span)
    values.update({
        "linalg.rank_mod.cells": ctr.get("rank_mod.cells", 0),
        "linalg.rank_mod.rank_frac": ratio(ctr.get("rank_mod.rank", 0),
                                           ctr.get("rank_mod.rows", 0)),
        "resolution.extend.steps": ctr.get("extend.steps", 0),
        "homology.indices": ctr.get("homology.indices", 0),
        "harness.cx_retries": calls("harness.complexity_estimate_retry"),
        "harness.checks": tracer.outermost_calls(
            ["harness." + c for c in CHECKERS]),
        "cioperators.verify_reduction.accept_frac": ratio(
            ctr.get("verify_reduction.accepted", 0),
            calls("cioperators.verify_reduction")),
        "trace.overhead_frac": overhead_frac,
    })
    missing = [m["name"] for m in PER_LAYER if m["name"] not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return values
