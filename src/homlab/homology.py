"""Tor and Ext as graded dimension tables with exact zero-certificates.

Tor_i(M,N) is the homology of F_M tensor N, Ext^i(M,N) the cohomology of
Hom(F_M, N), for a minimal resolution F_M of M.  Each index takes one of
three routes:

- free partner: Tor_i(M, N) = 0 for i > 0 (flatness) and Ext^i(M, N) = 0
  for i > dim A - depth M (graded local duality; a complete intersection
  is Gorenstein); lower Ext indices take the covered complex;
- residue field: for N = k(-t) the maps of F_M (x) N and Hom(F_M, N) are
  zero, since F_M is minimal, so both are read off the generator degrees
  of F_M (Betti numbers), with no complex built;
- covered complex: every other partner, as below.

Index i of either complex is a sum of shifted copies of N,
one slot per generator of F_i: N(-t_a) for the tensor complex, N(t_a)
for Hom.  Graded dimensions are read in the quotient coordinates of N's
graded pieces (``GradedModule.pieces``): in internal degree d the map
between two indices is ``linalg.block_rows`` of the resolution entries,
the rows of a source slot holding, at the column offset of each target
slot, the entry acting by multiplication on a piece of N, and
dim H = dim C - rank(out map) - rank(in map).  Zero verdicts are exact
and read the same dimensions: H_i vanishes exactly when its graded
dimensions vanish in a set of degrees that holds generators of H_i.
Over an artinian ring that set is the window bounded by the socle top
degree, where every graded piece of the complex lives; otherwise it is
the degrees of the kernel generators of the map leaving index i,
computed by syzygies over a free cover of the index (one generator per
slot and generator of N), whose classes generate H_i.  Verdicts are
never read off truncated dimension tables.

Exact verdicts of the covered complex are memoized on M, one index at a
time, keyed by (kind, N.key()): the vanishing checkers ask overlapping
index windows of the same pair, and a memoized index is answered without
building the complex or extending M's resolution.  The degree cap only
bounds the dimension tables, never a verdict, so it is not part of the
key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .groebner import edeg, elead, groebner, syzygies
from .resolution import GradedModule, depth, minimal_resolution

DEFAULT_CAP_PAD = 5


class _CoveredComplex:
    """F_M (x) N (kind "Tor") or Hom(F_M, N) (kind "Ext"), index by index.

    ``sign`` fixes the slot shifts s_a = sign * t_a (slot a of index i is
    N(-s_a): N(-t_a) for Tor, Hom(R(-t_a), N) = N(t_a) for Ext) and
    ``step`` the direction of the maps (i -> i + step: down for Tor, up
    for Ext by composition with d_{i+1}).  The map between indices j and
    j - 1 comes from d_j: F_j -> F_{j-1}; its entry (a', a) joins slot a
    of index j with slot a' of index j - 1.
    """

    def __init__(self, M, N, top, kind):
        self.ring = M.ring
        self.N = N
        self.sign, self.step = (1, -1) if kind == "Tor" else (-1, 1)
        self.res = minimal_resolution(M, top + 1)
        self._entries = {}
        self._ranks = {}   # (src index, tgt index, degree) -> rank
        self._shifts = {}  # index -> slot shifts

    def shifts(self, i):
        s = self._shifts.get(i)
        if s is None:
            s = self._shifts[i] = tuple(self.sign * t
                                        for t in self.res.twist_list(i))
        return s

    def slot_dims(self, i, d):
        """dim N_{d - s_a} for every slot a of index i."""
        dim = self.N.pieces.dim
        return [dim(d - s) for s in self.shifts(i)]

    def cover(self, i):
        """Twists of the free cover of index i: position a*gN + b."""
        return tuple(s + u for s in self.shifts(i) for u in self.N.twists)

    def space(self, i):
        """(cover twists, relations of N repeated in every slot)."""
        g = len(self.N.twists)
        rels = [
            {(a * g + b, m): c for (b, m), c in col.items()}
            for a in range(len(self.res.twist_list(i)))
            for col in self.N.relations
        ]
        return self.cover(i), rels

    def entries(self, j):
        """(source slot, target slot, polynomial) of the map built on d_j."""
        if j not in self._entries:
            out = linalg.slot_entries(self.res.differential(j))
            if self.step > 0:
                out = [(a_t, a, poly) for a, a_t, poly in out]
            self._entries[j] = out
        return self._entries[j]

    def map_cols(self, j):
        """Cover columns of the map built on d_j (None for j <= 0)."""
        if j <= 0:
            return None
        g = len(self.N.twists)
        src = j if self.step < 0 else j - 1
        cols = [{} for _ in range(len(self.res.twist_list(src)) * g)]
        for a, a_t, poly in self.entries(j):
            for b in range(g):
                col = cols[a * g + b]
                for m, c in poly.items():
                    col[(a_t * g + b, m)] = c
        return cols

    def _map_at(self, i, tgt):
        if min(i, tgt) < 0:
            return None
        return self.map_cols(max(i, tgt)), tgt

    def out_map(self, i):
        """(cols, target index) for the map leaving index i, or None."""
        return self._map_at(i, i + self.step)

    def in_map(self, i):
        """(cols, source index) for the map arriving at index i, or None."""
        return self._map_at(i, i - self.step)

    def rank(self, src, tgt, d):
        """Rank in degree d of the map from index src to index tgt."""
        if min(src, tgt) < 0:
            return 0
        key = (src, tgt, d)
        if key not in self._ranks:
            self._ranks[key] = self._block_rank(src, tgt, d)
        return self._ranks[key]

    def _block_rank(self, src, tgt, d):
        rows, ncols = linalg.block_rows(self.N.pieces,
                                        self.entries(max(src, tgt)),
                                        self.shifts(src), self.shifts(tgt), d)
        if not rows or not ncols:
            return 0
        return linalg.rank_mod(rows, self.ring.p)


# ---------------------------------------------------------------------------
# homology of a covered complex


def _preimage_gens(cols, sub_gens, ring, tgt_twists):
    """Generators of the preimage of <sub_gens> under the column map."""
    combined = list(cols) + list(sub_gens)
    if not combined:
        return []
    syz = syzygies(combined, ring, len(tgt_twists), tgt_twists)
    out = []
    seen = set()
    for s in syz:
        proj = {(i, m): c for (i, m), c in s.items() if i < len(cols)}
        if not proj:
            continue
        key = tuple(sorted(proj.items()))
        if key not in seen:
            seen.add(key)
            out.append(proj)
    return out


def _kernel_gens_of_index(cx, i):
    """Module generators of ker(map leaving index i) inside the cover."""
    tw_i = cx.cover(i)
    out = cx.out_map(i)
    if out is None:
        zero = (0,) * cx.ring.nvars
        return [{(a, zero): 1} for a in range(len(tw_i))]
    cols, tgt = out
    tw_t, rels_t = cx.space(tgt)
    return _preimage_gens(cols, rels_t, cx.ring, tw_t)


def _is_zero_at(cx, i):
    """Exact verdict: homology at index i vanishes as a module.

    H_i is zero exactly when its graded dimensions vanish in degrees that
    hold generators of H_i: over an artinian ring every graded piece of
    the complex sits in the window [min twist, max twist + socle top];
    otherwise H_i is generated by the classes of the kernel generators.
    """
    tw_i = cx.cover(i)
    if not tw_i:
        return True
    top = cx.ring.top_degree()
    if top is not None:
        degrees = range(min(tw_i), max(tw_i) + top + 1)
    else:
        degrees = {edeg(g, tw_i, cx.ring.weights)
                   for g in _kernel_gens_of_index(cx, i)}
    return not _dims_at(cx, i, degrees)


def _dims_at(cx, i, degrees):
    """Graded dimensions of homology at index i: dim C - rk out - rk in."""
    out = {}
    for d in degrees:
        dim_c = sum(cx.slot_dims(i, d))
        if dim_c == 0:
            continue
        h = (dim_c - cx.rank(i, i + cx.step, d)
             - cx.rank(i - cx.step, i, d))
        if h < 0:
            raise AssertionError("negative homology dimension: broken complex")
        if h:
            out[d] = h
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class HomologyReport:
    kind: str                      # "Tor" or "Ext"
    pair: tuple
    range: tuple                   # (lo, hi), inclusive
    dims: dict = field(default_factory=dict)      # i -> {d: dim}
    is_zero: dict = field(default_factory=dict)   # i -> bool
    cap: int = 0

    def total_dim(self, i):
        return sum(self.dims.get(i, {}).values())

    def strip(self):
        lo, hi = self.range
        idx = " ".join(str(i) for i in range(lo, hi + 1))
        pat = " ".join(
            "0" if self.is_zero.get(i, False) else "*"
            for i in range(lo, hi + 1)
        )
        return f"i: {idx} / {self.kind}: {pat}"

    def to_json(self):
        return {
            "kind": self.kind,
            "M": self.pair[0],
            "N": self.pair[1],
            "range": list(self.range),
            "cap": self.cap,
            "is_zero": {str(i): v for i, v in sorted(self.is_zero.items())},
            "dims": {
                str(i): {str(d): v for d, v in sorted(dd.items())}
                for i, dd in sorted(self.dims.items())
            },
        }


def _default_cap(M, N, hi):
    tw = list(M.twists) + list(N.twists)
    mx = max(tw) if tw else 0
    return mx + 2 * hi + DEFAULT_CAP_PAD


def _residue_twist(N):
    """t when N is k(-t): one generator, of degree t, killed by every
    variable (its pieces in degree t + w vanish for every variable
    weight w); otherwise None."""
    if len(N.twists) != 1:
        return None
    t = N.twists[0]
    if any(N.pieces.dim(t + w) for w in set(N.ring.weights)):
        return None
    return t


def _read_betti(report, M, t, exact, dims):
    """Tor and Ext against N = k(-t) from the minimal resolution F of M.

    F is minimal, so the maps of F (x) k and Hom(F, k) are zero: index i
    is its own homology, one copy of k per generator of F_i, in degree
    t + u (Tor) or t - u (Ext) for a generator of degree u.
    """
    lo, hi = report.range
    sign = 1 if report.kind == "Tor" else -1
    res = minimal_resolution(M, hi)
    for i in range(lo, hi + 1):
        twists = res.twist_list(i)
        if exact:
            report.is_zero[i] = not twists
        if dims:
            per = report.dims[i] = {}
            for u in twists:
                d = t + sign * u
                if d <= report.cap:
                    per[d] = per.get(d, 0) + 1


def _homology(kind, M, N, rng, cap, exact, dims):
    """The one body behind tor and ext."""
    lo, hi = rng
    if lo < 0 or hi < lo:
        raise ValueError("bad homological index range")
    report = HomologyReport(
        kind=kind,
        pair=(M.name or "M", N.name or "N"),
        range=(lo, hi),
        cap=_default_cap(M, N, hi) if cap is None else cap,
    )
    # free partner: the groups above `zero_above` vanish without the complex;
    # Tor by flatness, Ext by graded local duality over the Gorenstein
    # ring (Bruns-Herzog 3.5.11): Ext^i(M, A) = 0 for i > dim A - depth M
    zero_above = hi
    if not N.relations and N.twists and not M.is_zero:
        zero_above = 0 if kind == "Tor" else M.ring.krull_dim - depth(M)
    # residue field: every index is read off the Betti numbers of M
    t = _residue_twist(N)
    if t is not None:
        _read_betti(report, M, t, exact, dims)
        return report
    verdicts = M._verdicts.setdefault((kind, N.key()), {}) if exact else {}
    built = [i for i in range(lo, hi + 1)
             if (dims or i not in verdicts) and i <= zero_above]
    cx = _CoveredComplex(M, N, max(built), kind) if built else None
    for i in range(lo, hi + 1):
        if i > zero_above:
            if exact:
                report.is_zero[i] = True
            if dims:
                report.dims[i] = {}
            continue
        if dims:
            dmin = min(cx.cover(i), default=0)
            report.dims[i] = _dims_at(cx, i, range(dmin, report.cap + 1))
        if exact:
            if i not in verdicts:
                verdicts[i] = _is_zero_at(cx, i)
            report.is_zero[i] = verdicts[i]
            if dims and verdicts[i] and report.dims[i]:
                raise AssertionError(
                    f"{kind} certified zero at {i} but graded dims nonzero"
                )
    return report


def tor(M: GradedModule, N: GradedModule, rng, cap=None,
        exact=True, dims=True) -> HomologyReport:
    """Tor_i(M, N) for i in rng = (lo, hi).

    Three routes (module docstring): when N is free, Tor_i vanishes for
    i > 0 by flatness; when N is k(-t), dim Tor_i(M, N)_{t+u} is the
    number of generators of degree u in F_i; otherwise the covered
    complex F_M (x) N.
    """
    return _homology("Tor", M, N, rng, cap, exact, dims)


def ext(M: GradedModule, N: GradedModule, rng, cap=None,
        exact=True, dims=True) -> HomologyReport:
    """Ext^i(M, N) for i in rng = (lo, hi).

    Three routes (module docstring): when N is free, Ext^i vanishes for
    i > dim A - depth M by graded local duality (a complete intersection
    is Gorenstein), and only the lower indices need the complex; when N
    is k(-t), dim Ext^i(M, N)_{t-u} is the number of generators of degree
    u in F_i; otherwise the covered complex Hom(F_M, N).
    """
    return _homology("Ext", M, N, rng, cap, exact, dims)


def tor_symmetry_check(M: GradedModule, N: GradedModule, rng, cap=None) -> bool:
    """Graded dims of H(F_M (x) N) and H(M (x) F_N) agree on the range."""
    lo, hi = rng
    if cap is None:
        cap = max(_default_cap(M, N, hi), _default_cap(N, M, hi))
    left = tor(M, N, rng, cap=cap, exact=False, dims=True)
    right = tor(N, M, rng, cap=cap, exact=False, dims=True)
    for i in range(lo, hi + 1):
        if left.dims.get(i, {}) != right.dims.get(i, {}):
            return False
    return True


# ---------------------------------------------------------------------------
# finite length


@dataclass
class FiniteLengthResult:
    finite: bool
    length: int | None
    top_degree: int | None = None

    def __bool__(self):
        return self.finite


def finite_length_test(N: GradedModule) -> FiniteLengthResult:
    """Exact finite-length verdict via pure powers in the lead-term module,
    memoized on N."""
    if N._finite_length is None:
        N._finite_length = _finite_length(N)
    return N._finite_length


def _finite_length(N):
    ring = N.ring
    if N.is_zero:
        return FiniteLengthResult(True, 0, None)
    gb = groebner(list(N.relations), ring, len(N.twists), N.twists)
    leads = {}
    for el in gb.basis:
        (pos, mono), _ = elead(el, ring.weights)
        leads.setdefault(pos, []).append(mono)
    for pos in range(len(N.twists)):
        monos = leads.get(pos, [])
        for v in range(ring.nvars):
            if not any(
                m[v] > 0 and all(e == 0 for j, e in enumerate(m) if j != v)
                for m in monos
            ):
                return FiniteLengthResult(False, None)
    # finite: accumulate the Hilbert function until it dies out
    length = 0
    top = None
    d = min(N.twists)
    zeros = 0
    maxw = max(ring.weights)
    while True:
        h = N.hilbert_function(d)
        if h:
            length += h
            top = d
            zeros = 0
        else:
            zeros += 1
            if d >= max(N.twists) and zeros >= maxw:
                break
        d += 1
    return FiniteLengthResult(True, length, top)
