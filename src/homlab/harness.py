"""Complexity estimation, vanishing-theorem checkers, and the random corpus.

The checkers share one shape: a small set of hypothesis indices is
tested for exact vanishing of Ext or Tor; when the hypothesis is met,
the conclusion ("all higher groups vanish") is verified on a stated
horizon.  A met hypothesis with a failed conclusion is recorded as a
COUNTEREXAMPLE — for the proved theorems that is a self-test failure,
for the open nonuniform-gap condition it goes to a findings log.
Complete intersections are Cohen-Macaulay, so the theorems' depth A is
read as ``ring.krull_dim``.  Complexity is read off the Betti table of
the module's own minimal resolution, on every ring.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .errors import (
    EvenGapError,
    NotRegularSequenceError,
    WindowTooShortError,
    ZeroModuleError,
)
from .homology import (
    ext,
    finite_length_test,
    tor,
    tor_symmetry_check,
)
from .resolution import (
    GradedModule,
    betti_table,
    depth,
    minimal_resolution,
)
from .ring import QuotientRing, parse_ring, render_ring

DEFAULT_CX_BOUND = 12
WINDOW_SIZE = 8


def residue_field_of(ring: QuotientRing) -> GradedModule:
    """The ring's one k, so its resolution is computed only once."""
    if ring._residue_field is None:
        ring._residue_field = GradedModule.residue_field(ring)
    return ring._residue_field


# ---------------------------------------------------------------------------
# complexity


@dataclass
class ComplexityEstimate:
    value: int
    method: str          # finite-pd | periodicity | polynomial-fit
    window: tuple
    confidence: str      # exact (finite-pd only) | fitted
    betti: list = field(default_factory=list)

    def to_json(self):
        return {"value": self.value, "method": self.method,
                "window": list(self.window), "confidence": self.confidence,
                "betti": list(self.betti)}


def _poly_degree(seq):
    """Degree of the polynomial interpolating the tail, or raise if unstable.

    Returns -1 for the zero sequence.  The sequence is accepted as
    polynomial of degree k when its (k+1)-st finite differences vanish
    on the window.
    """
    cur = list(seq)
    if all(v == 0 for v in cur):
        return -1
    k = 0
    while len(cur) >= 2:
        nxt = [b - a for a, b in zip(cur, cur[1:])]
        if all(v == 0 for v in nxt):
            return k
        cur = nxt
        k += 1
    return None  # never stabilized inside the window


def complexity_estimate(arg, bound: int = DEFAULT_CX_BOUND) -> ComplexityEstimate:
    """Growth rate of the Betti sequence: 0 = finite pd, 1 = bounded, ...

    Accepts a GradedModule, whose Betti table ``betti_table(M, bound)``
    is read off its own minimal resolution to `bound` on every ring, or
    a BettiTable.  The fit uses the last WINDOW_SIZE total Betti
    numbers, split into even- and odd-index subsequences.
    """
    if isinstance(arg, GradedModule):
        if arg.is_zero:
            return ComplexityEstimate(0, "finite-pd", (0, 0), "exact", [0])
        cached = arg._cx_estimate
        if cached is not None and cached[0] == bound:
            return cached[1]
        bt = betti_table(arg, bound)
        est = _estimate_from_table(arg, bt, bound)
        arg._cx_estimate = (bound, est)
        return est
    return _estimate_from_table(None, arg, arg.top)


def _estimate_from_table(origin, bt, bound):
    lo = bound - WINDOW_SIZE + 1
    if lo < 0:
        raise WindowTooShortError(
            f"need >= {WINDOW_SIZE} usable indices, have {bound + 1}"
        )
    totals = [bt.total(n) for n in range(bound + 1)]
    window = totals[lo:bound + 1]
    if 0 in window:
        return ComplexityEstimate(0, "finite-pd", (lo, bound), "exact", totals)
    even = [totals[n] for n in range(lo, bound + 1) if n % 2 == 0]
    odd = [totals[n] for n in range(lo, bound + 1) if n % 2 == 1]
    degs = []
    for seq in (even, odd):
        d = _poly_degree(seq)
        if d is None:
            return complexity_estimate_retry(origin, bound)
        degs.append(d)
    value = 1 + max(degs)
    method = "periodicity" if value == 1 else "polynomial-fit"
    # a finite-difference window is a fit, not a certificate, for
    # bounded Betti numbers as for growing ones
    return ComplexityEstimate(value, method, (lo, bound), "fitted", totals)


def complexity_estimate_retry(arg, bound):
    """Adaptive fallback: widen the window when differences do not settle."""
    if not isinstance(arg, GradedModule) or bound >= 24:
        raise WindowTooShortError(
            "Betti growth did not stabilize inside the window"
        )
    return complexity_estimate(arg, bound + 4)


# ---------------------------------------------------------------------------
# check reports


@dataclass
class CheckReport:
    theorem: str
    inputs: dict
    hypothesis_met: bool
    conclusion_verified: object  # bool, or None when hypothesis not met
    horizon: int
    witness: str
    details: dict = field(default_factory=dict)

    @property
    def counterexample(self):
        return bool(self.hypothesis_met) and self.conclusion_verified is False

    @property
    def status(self):
        if not self.hypothesis_met:
            return "hypothesis-not-met"
        return "verified" if self.conclusion_verified else "COUNTEREXAMPLE"

    def to_json(self):
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "hypothesis_met": self.hypothesis_met,
            "conclusion_verified": self.conclusion_verified,
            "horizon": self.horizon,
            "status": self.status,
            "witness": self.witness,
            "details": self.details,
        }


def _require_odd(name, value):
    if value < 1:
        raise ValueError(f"{name} must be a positive integer")
    if value % 2 == 0:
        raise EvenGapError(
            f"{name} = {value} is even: over the hypersurface k[x,y]/(xy) "
            "the pair A/(x), A/(y) vanishes on the even-gap pattern {2, 4} "
            "while Ext^3 is nonzero, so even gaps prove nothing"
        )


def _gap_check(theorem, kind, M, N, n, idxs, lower_bound):
    """Shared engine: hypothesis at idxs, conclusion on (lower_bound, horizon]."""
    if M.is_zero or N.is_zero:
        raise ZeroModuleError("checkers need nonzero modules")
    horizon = 2 * max(idxs) + 6 if idxs else 2 * n + 6
    lo_c = max(0, lower_bound + 1)
    strip_lo = min([lo_c] + list(idxs))
    fn = tor if kind == "Tor" else ext
    rep_h = fn(M, N, (min(idxs), max(idxs)), dims=False) if idxs else None
    hyp = all(rep_h.is_zero[i] for i in idxs) if idxs else True
    concl = None
    witness = ""
    if hyp:
        rep_c = fn(M, N, (strip_lo, horizon), dims=False)
        concl = all(rep_c.is_zero[i] for i in range(lo_c, horizon + 1))
        witness = rep_c.strip()
    elif rep_h is not None:
        witness = rep_h.strip()
    return CheckReport(
        theorem=theorem,
        inputs={"M": M.name, "N": N.name, "n": n, "indices": list(idxs),
                "lower_bound": lower_bound},
        hypothesis_met=hyp,
        conclusion_verified=concl,
        horizon=horizon,
        witness=witness,
    )


def check_T31(M, N, n, q, kind="Ext"):
    """Theorem: c+1 groups vanishing in arithmetic progression of odd gap q
    (starting above depth A - depth M) force all higher groups to vanish."""
    _require_odd("q", q)
    bnd = M.ring.krull_dim - depth(M)
    if n <= bnd:
        raise ValueError(
            f"n = {n} must exceed depth A - depth M = {bnd}"
        )
    c = complexity_estimate(M).value
    idxs = [n + j * q for j in range(c + 1)]
    rep = _gap_check("T3.1" if kind == "Ext" else "T3.2", kind, M, N, n,
                     idxs, bnd)
    rep.inputs["q"] = q
    rep.details["c"] = c
    return rep


def check_T32(M, N, n, q):
    return check_T31(M, N, n, q, kind="Tor")


def _finite_length_cap(M, N, hi):
    """Exact degree cap for hom/tor groups against a finite-length N."""
    fl = finite_length_test(N)
    if not fl.finite:
        raise ValueError("N does not have finite length")
    top = fl.top_degree if fl.top_degree is not None else 0
    base = min(M.twists) if not M.is_zero else 0
    return top - base + max(N.twists, default=0) + hi * 2 + 4


def check_finite_length(M, N, n, mode="l34", q=1):
    """L3.4 (consecutive window) / T3.5 (Ext, gap q) / T3.6 (Tor, gap q).

    Over finite-length N only c groups are needed, and the lower bound
    uses dim A (not depth A).  For codim-1 rings the alternating-length
    identity from the lemma's proof is checked alongside.
    """
    fl = finite_length_test(N)
    if not fl.finite:
        raise ValueError("N does not have finite length")
    if mode in ("t35", "t36"):
        _require_odd("q", q)
        kind = "Ext" if mode == "t35" else "Tor"
        label = "T3.5" if mode == "t35" else "T3.6"
        gap = q
    elif mode == "l34":
        kind = "Ext"
        label = "L3.4"
        gap = 1
    else:
        raise ValueError(f"unknown finite-length mode {mode!r}")
    bnd = M.ring.krull_dim - depth(M)
    if n <= bnd:
        raise ValueError(f"n = {n} must exceed dim A - depth M = {bnd}")
    c = complexity_estimate(M).value
    idxs = [n + j * gap for j in range(c)] if c > 0 else []
    rep = _gap_check(label, kind, M, N, n, idxs, bnd)
    rep.inputs["q"] = gap
    rep.details["c"] = c
    rep.details["length_N"] = fl.length
    if M.ring.codim == 1:
        rep.details["length_identity"] = length_identity_check(
            M, N, bnd, rep.horizon
        )
    return rep


def length_identity_check(M, N, lower_bound, horizon):
    """Codim 1: lengths of consecutive Ext groups above dim A - depth M agree."""
    lo = max(0, lower_bound + 1)
    cap = _finite_length_cap(M, N, horizon)
    rep = ext(M, N, (lo, horizon), cap=cap, exact=False, dims=True)
    return all(
        rep.total_dim(m) == rep.total_dim(m + 1)
        for m in range(lo, horizon)
    )


def check_T35(M, N, n, q):
    return check_finite_length(M, N, n, mode="t35", q=q)


def check_T36(M, N, n, q):
    return check_finite_length(M, N, n, mode="t36", q=q)


def check_L34(M, N, n):
    return check_finite_length(M, N, n, mode="l34")


def check_T37(M, N, n, p, q, kind="Ext"):
    """Complexity-2 modules: three groups at {n, n+p, n+p+q}, p and q odd."""
    _require_odd("p", p)
    _require_odd("q", q)
    cx = complexity_estimate(M).value
    if cx != 2:
        raise ValueError(f"theorem needs complexity 2, estimated {cx}")
    bnd = M.ring.krull_dim - depth(M)
    if n <= bnd:
        raise ValueError(f"n = {n} must exceed depth A - depth M = {bnd}")
    idxs = [n, n + p, n + p + q]
    rep = _gap_check("T3.7" if kind == "Ext" else "T3.8", kind, M, N, n,
                     idxs, bnd)
    rep.inputs.update({"p": p, "q": q})
    rep.details["c"] = cx
    return rep


def check_T38(M, N, n, p, q):
    return check_T37(M, N, n, p, q, kind="Tor")


def explore_condition(M, N, n, gaps, kind="Ext", findings_path=None):
    """The open nonuniform-gap condition: indices n plus partial gap sums.

    Counterexample candidates never fail: they are returned in the
    report and appended to the findings log when a path is given.
    """
    gaps = list(gaps)
    for g in gaps:
        _require_odd("gap", g)
    cx = complexity_estimate(M).value
    if len(gaps) != cx:
        raise ValueError(
            f"need one gap per unit of complexity: cx = {cx}, "
            f"got {len(gaps)} gaps"
        )
    bnd = M.ring.krull_dim - depth(M)
    if n <= bnd:
        raise ValueError(f"n = {n} must exceed depth A - depth M = {bnd}")
    idxs = [n]
    for g in gaps:
        idxs.append(idxs[-1] + g)
    rep = _gap_check("COND", kind, M, N, n, idxs, bnd)
    rep.inputs["gaps"] = gaps
    rep.details["c"] = cx
    if rep.counterexample and findings_path is not None:
        record = {
            "theorem": "COND", "ring": render_ring(M.ring),
            "M": M.to_json(), "N": N.to_json(),
            "n": n, "gaps": gaps, "kind": kind,
            "witness": rep.witness, "horizon": rep.horizon,
        }
        with open(findings_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return rep


# ---------------------------------------------------------------------------
# ext-jump isomorphism


def ext_jump_check(push, N, horizon=None):
    """Proof-engine invariant behind the theorems: if Ext(K, N) dies above
    depth A - depth M, then Ext^i(M,N) and Ext^{i+q+1}(M,N) have the same
    graded dimensions, up to the internal twist t*D of the pushout.

    Returns (applicable, ok, details)."""
    M = push.M
    K = push.module
    t = push.t
    shift_deg = t * push.degree
    jump = 2 * t  # q + 1 with q = 2t - 1
    bnd = M.ring.krull_dim - depth(M)
    lo = max(0, bnd + 1)
    if horizon is None:
        horizon = 2 * jump + 8
    if K.is_zero:
        vanish = True
    else:
        repK = ext(K, N, (lo, horizon), dims=False)
        vanish = all(repK.is_zero[i] for i in range(lo, horizon + 1))
    details = {"lower_bound": bnd, "horizon": horizon, "jump": jump,
               "K_vanishes": vanish}
    if not vanish:
        return False, None, details
    repM = ext(M, N, (lo, horizon), exact=False, dims=True)
    ok = True
    for i in range(lo, horizon - jump + 1):
        left = repM.dims.get(i, {})
        right = repM.dims.get(i + jump, {})
        if {d: v for d, v in left.items()} != \
                {d + shift_deg: v for d, v in right.items()}:
            ok = False
            details.setdefault("mismatches", []).append(i)
    return True, ok, details


# ---------------------------------------------------------------------------
# random corpus


DEFAULT_CORPUS_RINGS = (
    "p=32003; vars x,y; ci: x*y",
    "p=32003; vars x,y; ci: x^2, y^2",
    "p=32003; vars x,y,z; ci: x^2, y^2",
    "p=32003; vars x,y,z; ci: x^2, y^2, z^2",
)


def random_module(ring: QuotientRing, seed: int, max_gens=3, max_rels=3,
                  max_entry_deg=2) -> GradedModule:
    """Deterministic random homogeneous cokernel within the shape caps."""
    key = render_ring(ring)
    rng = random.Random(f"{key}|{seed}")
    g = rng.randint(1, max_gens)
    twists = [rng.randint(0, 1) for _ in range(g)]
    nrels = rng.randint(0, max_rels)
    cols = []
    for _ in range(nrels):
        cdeg = max(twists) + rng.randint(1, max_entry_deg)
        col = {}
        for a, t in enumerate(twists):
            e = cdeg - t
            if e < 1 or e > max_entry_deg:
                continue
            for m in ring.standard_monomials(e):
                if rng.random() < 0.5:
                    col[(a, m)] = rng.randrange(1, ring.p)
        if col:
            cols.append(col)
    return GradedModule.present(ring, twists, cols,
                                name=f"rand({seed})")


@dataclass
class SweepSummary:
    modules: int = 0
    skipped: int = 0
    checks_run: int = 0
    hypotheses_met: int = 0
    counterexamples: list = field(default_factory=list)
    cx_violations: list = field(default_factory=list)
    tor_symmetry_failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def ok(self):
        return not (self.counterexamples or self.cx_violations
                    or self.tor_symmetry_failures)

    def to_json(self):
        return {
            "modules": self.modules, "skipped": self.skipped,
            "checks_run": self.checks_run,
            "hypotheses_met": self.hypotheses_met,
            "counterexamples": self.counterexamples,
            "cx_violations": self.cx_violations,
            "tor_symmetry_failures": self.tor_symmetry_failures,
            "findings": len(self.findings),
            "ok": self.ok,
        }


def _sweep_one(ring, s, k, ringmod, ring_artinian, summary, findings_path):
    ring_name = render_ring(ring)
    M = random_module(ring, s)
    if M.is_zero:
        summary.skipped += 1
        return
    summary.modules += 1
    cx = complexity_estimate(M).value
    if cx > ring.codim:
        summary.cx_violations.append((ring_name, s, cx))
    dM = depth(M)
    n = max(1, ring.krull_dim - dM + 1)
    targets = [("k", k), ("ring", ringmod)]
    for nname, N in targets:
        ident = (ring_name, s, nname)

        def record(rep):
            summary.checks_run += 1
            if rep.hypothesis_met:
                summary.hypotheses_met += 1
            if rep.counterexample:
                summary.counterexamples.append(
                    (rep.theorem,) + ident + (rep.witness,)
                )

        record(check_T31(M, N, n, 1))
        record(check_T32(M, N, n, 1))
        if nname == "k" or ring_artinian:
            record(check_L34(M, N, n))
            record(check_T35(M, N, n, 1))
            record(check_T36(M, N, n, 1))
        if cx == 2:
            record(check_T37(M, N, n, 1, 1))
            record(check_T38(M, N, n, 1, 1))
        if cx >= 1:
            rep = explore_condition(M, N, n, (1,) * cx,
                                    findings_path=findings_path)
            summary.checks_run += 1
            if rep.counterexample:
                summary.findings.append((ident, rep.to_json()))
        if not tor_symmetry_check(M, N, (0, 3)):
            summary.tor_symmetry_failures.append(ident)


def corpus_sweep(rings=None, count=100, seed=0, findings_path=None,
                 progress=False) -> SweepSummary:
    """Run every applicable checker over the random corpus.

    Proved theorems must never produce a counterexample here; the open
    condition's candidates go to the findings log (sorted, append-only).
    """
    specs = rings if rings is not None else DEFAULT_CORPUS_RINGS
    summary = SweepSummary()
    for spec in specs:
        ring = parse_ring(spec) if isinstance(spec, str) else spec
        k = residue_field_of(ring)
        ringmod = GradedModule.free(ring, (0,), name="A")
        ring_artinian = ring.krull_dim == 0
        for s in range(seed, seed + count):
            _sweep_one(ring, s, k, ringmod, ring_artinian, summary,
                       findings_path)
            if progress and (s - seed + 1) % 10 == 0:
                print(f"  {render_ring(ring)}: {s - seed + 1}/{count}",
                      flush=True)
    summary.findings.sort(key=lambda f: f[0])
    return summary


# ---------------------------------------------------------------------------
# the paper's running example


def reproduce_paper_example(top=20):
    """The hypersurface pair: A = k[x,y]/(xy), M = A/(x), N = A/(y).

    Betti numbers of M are all 1, Tor vanishes exactly at odd indices,
    Ext exactly at even ones — so the even-gap pattern {2, 4} vanishes
    while Ext^3 does not, which is why the checkers reject even gaps.
    """
    A = parse_ring("p=32003; vars x,y; ci: x*y")
    M = GradedModule.cyclic(A, [A.parse("x")], name="A/(x)")
    N = GradedModule.cyclic(A, [A.parse("y")], name="A/(y)")
    res = minimal_resolution(M, top)
    betti = [res.betti(i) for i in range(top + 1)]
    tor_rep = tor(M, N, (0, top), exact=True, dims=False)
    ext_rep = ext(M, N, (0, top), exact=True, dims=False)
    even_gap = {
        "pattern": [2, 4],
        "pattern_vanishes": ext_rep.is_zero[2] and ext_rep.is_zero[4],
        "ext3_nonzero": not ext_rep.is_zero[3],
    }
    try:
        check_T31(M, N, 2, 2)
        rejected = False
    except EvenGapError:
        rejected = True
    even_gap["checker_rejects_even_gap"] = rejected
    return {
        "ring": render_ring(A),
        "betti": betti,
        "tor_strip": tor_rep.strip(),
        "ext_strip": ext_rep.strip(),
        "tor_zero": {i: tor_rep.is_zero[i] for i in range(top + 1)},
        "ext_zero": {i: ext_rep.is_zero[i] for i in range(top + 1)},
        "even_gap": even_gap,
    }
