"""Eisenbud operators, eta classes, pushout modules, reduction chains.

Over A = Q/(f_1..f_c) the composite of two lifted differentials of a
minimal A-free resolution lands in (f_1..f_c) entrywise; writing it as
sum f_j T_j yields the Eisenbud operator chain maps T_j of homological
shift -2.  A class eta = sum c_j T_j (all f_j involved of one degree D)
produces the pushout module K_eta sitting in

    0 -> M(-tD) -> K_eta -> Omega^{2t-1} M -> 0,

the engine behind complexity reductions.  Everything here is certified
a posteriori: chain-map identities by exact reduction modulo the ideal,
exactness by Hilbert additivity, long-exact-sequence bookkeeping by
alternating sums of graded dimensions per internal degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .errors import DecompositionError, RetriesExhaustedError
from .groebner import (
    eadd,
    elem_component,
    emul_term,
    escale,
    reduce_elem_mod_ideal,
)
from .harness import complexity_estimate, residue_field_of
from .homology import _default_cap, ext, tor
from .resolution import (
    GradedModule,
    depth,
    minimal_resolution,
    syzygy,
)
from .ring import pdeg, pzero


def _apply_cols(cols, el, p):
    """Image of a free-module element under the map given by columns."""
    out = {}
    for (pos, m), c in el.items():
        out = eadd(out, emul_term(cols[pos], m, c, p), p)
    return out


def decompose_in_ideal(ring, poly):
    """Write a homogeneous ambient polynomial as sum f_j * q_j.

    Solved degree by degree as a linear system over F_p; raises
    DecompositionError when the polynomial is not in the ideal.
    """
    gens = ring.ci_generators
    if not poly:
        return [pzero() for _ in gens]
    e = pdeg(poly, ring.weights)
    target_monos = ring.monomials(e)
    index = {m: i for i, m in enumerate(target_monos)}
    columns = []
    slots = []  # (gen index, monomial) per unknown
    for j, f in enumerate(gens):
        dj = pdeg(f, ring.weights)
        for m in ring.monomials(e - dj):
            columns.append({index[tuple(a + b for a, b in zip(fm, m))]: fc
                            for fm, fc in f.items()})
            slots.append((j, m))
    b = {index[m]: c for m, c in poly.items()}
    x = linalg.solve_mod(columns, b, ring.p)
    if x is None:
        raise DecompositionError(
            "polynomial is not in the ideal of ci generators"
        )
    out = [pzero() for _ in gens]
    for (j, m), c in zip(slots, x):
        if c % ring.p:
            out[j] = dict(out[j])
            out[j][m] = c % ring.p
    return out


@dataclass
class ChainMap:
    """A chain map F_i -> F_{i-shift} of a fixed minimal resolution.

    cols[i] lists, per generator of F_i, its image in the cover of
    F_{i-shift}, reduced modulo the quotient ideal.  `degree` is the
    total internal-degree drop: entry degrees satisfy
    deg(entry) = twist(source) - twist(target) - degree.
    """

    res: object
    shift: int
    degree: int
    cols: dict = field(default_factory=dict)
    label: str = ""

    @property
    def ring(self):
        return self.res.ring

    def levels(self):
        return sorted(self.cols)

    def apply(self, i, el):
        """Image in the cover of F_{i-shift} of an element of F_i's cover."""
        img = _apply_cols(self.cols[i], el, self.ring.p)
        return reduce_elem_mod_ideal(img, self.ring)

    def verify(self):
        """Exact certificate: d T = T d modulo the ideal at every level."""
        ring = self.ring
        for i in self.levels():
            if (i - 1) not in self.cols:
                continue
            lower = i - self.shift
            if lower < 1:
                continue
            d_low = self.res.differential(lower)
            d_i = self.res.differential(i)
            for a, dcol in enumerate(d_i):
                lhs = _apply_cols(d_low, self.cols[i][a], ring.p)
                rhs = _apply_cols(self.cols[i - 1], dcol, ring.p)
                diff = eadd(lhs, {t: -c for t, c in rhs.items()}, ring.p)
                if reduce_elem_mod_ideal(diff, ring):
                    return False
        return True

    def compose(self, other):
        """self after other: F_i -> F_{i - other.shift - self.shift}."""
        if self.res is not other.res:
            raise ValueError("chain maps live on different resolutions")
        cols = {}
        for i in other.levels():
            mid = i - other.shift
            if mid not in self.cols:
                continue
            cols[i] = [
                self.apply(mid, col) for col in other.cols[i]
            ]
        return ChainMap(
            res=self.res,
            shift=self.shift + other.shift,
            degree=self.degree + other.degree,
            cols=cols,
            label=f"{self.label}*{other.label}",
        )


def _operator_cols(res, rows, bound):
    """Columns of sum_j w_j T_j at levels 2..bound, one dict per row w.

    Each entry of the ambient composite d_{i-1} d_i is decomposed once
    as sum_j f_j q_j; the column of a row w is sum_j w_j q_j, reduced
    modulo the ideal.
    """
    ring = res.ring
    p = ring.p
    out = [{} for _ in rows]
    for i in range(2, bound + 1):
        d_im1 = res.differential(i - 1)
        tgt_rank = len(res.twist_list(i - 2))
        for cols in out:
            cols[i] = []
        for col in res.differential(i):
            dd = _apply_cols(d_im1, col, p)  # ambient, no reduction
            parts = [{} for _ in ring.ci_generators]
            for pos in range(tgt_rank):
                entry = elem_component(dd, pos)
                if entry:
                    qs = decompose_in_ideal(ring, entry)
                    for part, q in zip(parts, qs):
                        part.update(((pos, m), c) for m, c in q.items())
            for w, cols in zip(rows, out):
                acc = {}
                for wj, part in zip(w, parts):
                    acc = eadd(acc, escale(part, wj, p), p)
                cols[i].append(reduce_elem_mod_ideal(acc, ring))
    return out


def eisenbud_operators(M: GradedModule, bound: int):
    """The chain maps T_1..T_c with d~ d~ = sum f_j T~_j, one per ci gen.

    Computed on the minimal resolution of M at levels 2..bound; the
    decomposition is done entrywise over the ambient ring.
    """
    ring = M.ring
    res = minimal_resolution(M, bound)
    gens = ring.ci_generators
    units = [[int(j == k) for j in range(len(gens))] for k in range(len(gens))]
    cols = _operator_cols(res, units, bound)
    return [
        ChainMap(res=res, shift=2, degree=pdeg(f, ring.weights), cols=c,
                 label=f"T{j + 1}")
        for j, (f, c) in enumerate(zip(gens, cols))
    ]


def eta(M: GradedModule, coeffs, bound: int) -> ChainMap:
    """eta = sum c_j T_j on levels 2..bound; the ci gens with nonzero c_j
    must share a degree."""
    ring = M.ring
    coeffs = list(coeffs)
    if len(coeffs) != len(ring.ci_generators):
        raise ValueError("one coefficient per ci generator expected")
    degs = {
        pdeg(f, ring.weights)
        for f, c in zip(ring.ci_generators, coeffs)
        if c % ring.p
    }
    if not degs:
        raise ValueError("eta needs at least one nonzero coefficient")
    if len(degs) > 1:
        raise ValueError(
            "eta mixes ci generators of different degrees: " + str(sorted(degs))
        )
    res = minimal_resolution(M, bound)
    [cols] = _operator_cols(res, [coeffs], bound)
    return ChainMap(res=res, shift=2, degree=degs.pop(), cols=cols,
                    label="eta" + str([c % ring.p for c in coeffs]))


def eta_power(eta_map: ChainMap, t: int) -> ChainMap:
    """t-fold composite of a shift-2 chain map (shift 2t, degree t*D)."""
    if t < 1:
        raise ValueError("power must be >= 1")
    out = eta_map
    for _ in range(t - 1):
        out = eta_map.compose(out)
    return out


# ---------------------------------------------------------------------------
# pushout modules


@dataclass
class PushoutModule:
    """K_eta with its defining short exact sequence.

    0 -> M(-t D) -> K -> Omega^{2t-1} M -> 0; `sub` and `quot` carry
    minimal presentations of the outer terms.
    """

    module: GradedModule
    M: GradedModule
    sub: GradedModule
    quot: GradedModule
    t: int
    degree: int

    def check_exact(self):
        """Hilbert additivity hilb(K) = hilb(sub) + hilb(quot) on a window."""
        twists = list(self.module.twists) + list(self.sub.twists) \
            + list(self.quot.twists)
        if not twists:
            return True
        hi = max(twists) + 2 * max(self.module.ring.weights) + 6
        for d in range(min(twists), hi + 1):
            if self.module.hilbert_function(d) != (
                self.sub.hilbert_function(d) + self.quot.hilbert_function(d)
            ):
                return False
        return True

    def to_json(self):
        return {
            "t": self.t,
            "degree": self.degree,
            "module": self.module.to_json(),
            "sub_twists": list(self.sub.twists),
            "quot_twists": list(self.quot.twists),
        }


def k_eta(M: GradedModule, power: ChainMap) -> PushoutModule:
    """Pushout of Omega^{2t-1}M <- F_{2t} -> M(-tD) along a shift-2t map.

    K is the cokernel of F_{2t} -> F_{2t-1} (+) M-cover via
    (d_{2t}, -f_eta), with the relations of M appended in the M block.
    """
    ring = M.ring
    if power.shift <= 0 or power.shift % 2:
        raise ValueError("pushout needs a chain map of positive even shift")
    t = power.shift // 2
    res = minimal_resolution(M, 2 * t)
    if power.res is not res:
        raise ValueError("chain map was built on a different resolution")
    if 2 * t not in power.cols:
        raise ValueError("chain map not computed at level 2t")
    D = power.degree // t
    r1 = len(res.twist_list(2 * t - 1))
    twists = list(res.twist_list(2 * t - 1)) + [
        u + t * D for u in M.twists
    ]
    rels = []
    d_top = res.differential(2 * t)
    for a, dcol in enumerate(d_top):
        col = dict(dcol)
        img = power.cols[2 * t][a]
        for (b, m), c in img.items():
            key = (r1 + b, m)
            col[key] = (col.get(key, 0) - c) % ring.p
        rels.append(col)
    for mcol in M.relations:
        rels.append({(r1 + b, m): c for (b, m), c in mcol.items()})
    K = GradedModule.present(ring, twists, rels,
                             name=f"K_eta(t={t};{M.name or 'M'})")
    sub = M.twisted(t * D)
    quot = syzygy(M, 2 * t - 1)
    return PushoutModule(module=K, M=M, sub=sub, quot=quot, t=t, degree=D)


# ---------------------------------------------------------------------------
# reduction verification


def _segments_telescope(flat):
    """Alternating dimension sums over zero-delimited exact segments.

    `flat` lists consecutive terms of an exact sequence of finite
    vector-space dimensions whose first entry is a genuine zero end.
    Between any two zero entries the alternating sum must vanish; the
    trailing open segment (no closing zero) is not checkable.
    """
    zero_positions = [j for j, v in enumerate(flat) if v == 0]
    for za, zb in zip(zero_positions, zero_positions[1:]):
        total = 0
        sign = 1
        for v in flat[za + 1:zb]:
            total += sign * v
            sign = -sign
        if total != 0:
            return False
    return True


def _les_telescope(quot, K, sub, lo, hi, degrees):
    """LES bookkeeping of 0 -> sub -> K -> quot -> 0 per internal degree.

    Ext(-, N):  0 -> Ext^0(quot) -> Ext^0(K) -> Ext^0(sub) -> Ext^1(quot)
    Tor(-, N):  Tor_1(quot) -> Tor_0(sub) -> Tor_0(K) -> Tor_0(quot) -> 0
    Read from the genuine zero end (Tor backwards), both list
    0, quot_lo, K_lo, sub_lo, quot_{lo+1}, ...
    """
    ok = True
    for d in degrees:
        flat = [0]
        for i in range(lo, hi + 1):
            flat.extend(X.get(i, {}).get(d, 0) for X in (quot, K, sub))
        ok = ok and _segments_telescope(flat)
    return ok


@dataclass
class ReductionReport:
    flags: dict
    details: dict

    @property
    def ok(self):
        return all(self.flags.values())

    def to_json(self):
        return {"ok": self.ok, "flags": dict(self.flags),
                "details": dict(self.details)}


def verify_reduction(push: PushoutModule) -> ReductionReport:
    """Certify a pushout as a complexity reduction of its source module.

    Flags: cx drops by exactly one; depth of K equals depth of M; the
    short exact sequence is Hilbert-additive; and the Ext and Tor long
    exact sequences against the residue field telescope per internal
    degree on indices 0..6; those tables are the Betti tables of quot, K
    and sub (``homology`` reads them off the resolutions).  Failures are
    flags, never exceptions.
    """
    ring = push.module.ring
    N = residue_field_of(ring)
    hi = 6
    cx_M = complexity_estimate(push.M).value
    cx_K = complexity_estimate(push.module).value
    flags = {}
    details = {"cx_M": cx_M, "cx_K": cx_K, "t": push.t, "degree": push.degree}
    flags["cx_drops_by_one"] = (cx_K == cx_M - 1)
    d_M = depth(push.M)
    d_K = depth(push.module) if not push.module.is_zero else depth(
        GradedModule.free(ring)
    )
    details.update({"depth_M": d_M, "depth_K": d_K})
    flags["depth_matches"] = (d_K == d_M)
    flags["hilbert_additive"] = push.check_exact()
    terms = (push.quot, push.module, push.sub)
    cap = max(_default_cap(X, N, hi) for X in terms if not X.is_zero)
    for kind, fn in (("ext", ext), ("tor", tor)):
        dims = [{} if X.is_zero else fn(X, N, (0, hi), cap=cap,
                                        exact=False).dims
                for X in terms]
        degrees = {d for dd in dims for per in dd.values() for d in per}
        flags[f"les_telescopes_{kind}"] = _les_telescope(
            *dims, 0, hi, sorted(degrees)
        )
    return ReductionReport(flags=flags, details=details)


# ---------------------------------------------------------------------------
# reduction chains


@dataclass
class ReductionChain:
    start: GradedModule
    steps: list
    final: GradedModule

    def to_json(self):
        return {
            "start": self.start.to_json(),
            "final": self.final.to_json(),
            "steps": [
                {"coeffs": s["coeffs"], "degree": s["degree"],
                 "report": s["report"].to_json()}
                for s in self.steps
            ],
        }


def reduction_chain(M: GradedModule, seed=0, retries=8,
                    bound=12) -> ReductionChain:
    """Drive the complexity of M down to 0 by successive K_eta pushouts.

    Coefficients of eta are drawn at random (seeded); each step is
    accepted only when verify_reduction certifies it, and after
    `retries` failed draws RetriesExhaustedError reports the rejects.
    `bound` is the resolution length of the complexity estimates; eta is
    built only to level 2, the one k_eta reads for t = 1.
    """
    ring = M.ring
    rng = random.Random(f"chain|{seed}")
    gens = ring.ci_generators
    degs = [pdeg(f, ring.weights) for f in gens]
    current = M
    steps = []
    while True:
        cx = complexity_estimate(current, bound=bound).value
        if cx == 0:
            break
        target_deg = min(d for d in degs)
        failed = []
        done = False
        for _ in range(retries):
            coeffs = [
                rng.randrange(1, ring.p) if d == target_deg else 0
                for d in degs
            ]
            em = eta(current, coeffs, 2)
            push = k_eta(current, em)
            report = verify_reduction(push)
            if report.ok:
                steps.append({
                    "coeffs": coeffs, "degree": target_deg,
                    "push": push, "report": report,
                })
                current = push.module
                done = True
                break
            failed.append(coeffs)
        if not done:
            raise RetriesExhaustedError(
                f"no eta certified a complexity drop in {retries} tries",
                failed,
            )
    return ReductionChain(start=M, steps=steps, final=current)


# ---------------------------------------------------------------------------
# periodicity


@dataclass
class PeriodicityReport:
    ok: bool
    start: int
    period_degree: int
    checked: list

    def to_json(self):
        return {"ok": self.ok, "start": self.start,
                "period_degree": self.period_degree,
                "checked": list(self.checked)}


def periodicity_isomorphism_check(M: GradedModule, window_start: int,
                                  bound: int) -> PeriodicityReport:
    """Eventual 2-periodicity of the resolution of a complexity-1 module,
    witnessed by eta, on levels window_start .. bound.

    For levels i >= window_start the twists of F_{i+2} must equal those
    of F_i shifted by D, and the scalar part of eta: F_{i+2} -> F_i must
    be an invertible square matrix (so eta realizes the periodicity
    isomorphism on the nose).  eta is generic: its coefficients on the
    lowest-degree ci generators are drawn from a fixed seed.
    """
    ring = M.ring
    res = minimal_resolution(M, bound)
    cx = complexity_estimate(M).value
    if cx != 1:
        raise ValueError(f"periodicity check needs complexity 1, got {cx}")
    rng = random.Random("periodicity|0")
    degs = [pdeg(f, ring.weights) for f in ring.ci_generators]
    target = min(degs)
    coeffs = [rng.randrange(1, ring.p) if d == target else 0 for d in degs]
    eta_map = eta(M, coeffs, bound)
    D = eta_map.degree
    checked = []
    ok = True
    zero = (0,) * ring.nvars
    for i in range(window_start, bound - 1):
        tw_i = res.twist_list(i)
        tw_n = res.twist_list(i + 2)
        level_ok = sorted(tw_n) == sorted(t + D for t in tw_i)
        if level_ok and tw_i:
            rows = [{pos: c for (pos, m), c in col.items() if m == zero}
                    for col in eta_map.cols[i + 2]]
            level_ok = linalg.rank_mod(rows, ring.p) == len(tw_i)
        checked.append((i, bool(level_ok)))
        ok = ok and level_ok
    return PeriodicityReport(ok=bool(ok), start=window_start, period_degree=D,
                             checked=checked)
