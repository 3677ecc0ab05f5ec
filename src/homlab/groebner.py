"""Buchberger engine for submodules of graded free modules.

Elements of a free module of rank r are dicts mapping (position, monomial)
to a nonzero coefficient.  The term order is position-over-term: positions
compare by generator index ascending (index 0 is greatest), ties broken by
degrevlex on the monomial.  Computation over a quotient ring R = P/I is
computation over the ambient ring P with I times each free generator
appended to the submodule; results are read modulo I.

Syzygies are collected Schreyer-style: every basis element carries a
witness expressing it over the input generators, and each reduction of an
S-pair to zero yields a syzygy of the inputs.

All term-by-term reduction is done by one routine, ``_reduce``: the
Buchberger state reduces new generators and S-pairs with it, ``finalize``
tail-reduces each basis element against the others (skipping itself),
``normal_form`` reduces against a ``ModuleGroebnerBasis``, and
``QuotientRing.nf`` reduces monomials against the ring's ideal basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import InhomogeneousError, RankMismatchError, ResourceCapError
from .ring import (
    drl_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    wdeg,
)

DEFAULT_DEGREE_CAP = 40
DEFAULT_PAIR_CAP = 10**6

ORDER_DESCRIPTOR = "position-over-term (index ascending) / degrevlex"


# ---------------------------------------------------------------------------
# free-module element helpers


def term_key(pos, mono, weights):
    """Sort key: larger key = greater term under POT/degrevlex."""
    return (-pos, drl_key(mono, weights))


def elead(el, weights):
    """((pos, mono), coeff) of the leading term."""
    key = max(el, key=lambda t: term_key(t[0], t[1], weights))
    return key, el[key]


def eadd(a, b, p):
    out = dict(a)
    for t, c in b.items():
        v = (out.get(t, 0) + c) % p
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def escale(a, c, p):
    c %= p
    if c == 0:
        return {}
    return {t: (c * v) % p for t, v in a.items()}


def emul_term(a, mono, c, p):
    """a * (c * mono)."""
    c %= p
    if c == 0:
        return {}
    return {(pos, mono_mul(m, mono)): (c * v) % p for (pos, m), v in a.items()}


def e_sub_scaled(a, b, mono, c, p):
    """a - c * mono * b, in one pass."""
    out = dict(a)
    for (pos, m), v in b.items():
        t = (pos, mono_mul(m, mono))
        w = (out.get(t, 0) - c * v) % p
        if w:
            out[t] = w
        else:
            out.pop(t, None)
    return out


def _heap_key(pos, mono, weights):
    """Min-heap key realizing the POT/degrevlex order largest-first."""
    d, rev = drl_key(mono, weights)
    return (pos, -d, tuple(-x for x in rev))


def _isub(work, heap, b, mono, c, p, weights):
    """work -= c * mono * b in place; new terms are pushed onto the heap."""
    for (pos, m), v in b.items():
        mm = mono_mul(m, mono)
        t = (pos, mm)
        old = work.get(t)
        w = ((old or 0) - c * v) % p
        if w:
            if old is None and heap is not None:
                heapq.heappush(heap, (_heap_key(pos, mm, weights), t))
            work[t] = w
        elif old is not None:
            del work[t]


def edeg(el, twists, weights):
    """Degree of a homogeneous module element; None when zero."""
    deg = None
    for (pos, m) in el:
        if pos < 0 or pos >= len(twists):
            raise RankMismatchError(f"position {pos} outside rank {len(twists)}")
        d = wdeg(m, weights) + twists[pos]
        if deg is None:
            deg = d
        elif d != deg:
            raise InhomogeneousError(
                f"module element mixes degrees {deg} and {d}"
            )
    return deg


def elem_sort_key(el):
    """Canonical, deterministic ordering key for module elements."""
    return tuple(sorted(el.items()))


def poly_to_elem(poly, pos=0):
    return {(pos, m): c for m, c in poly.items()}


def elem_component(el, pos):
    """The polynomial sitting at one generator position."""
    return {m: c for (q, m), c in el.items() if q == pos}


def quotient_relation_gens(ring, rank):
    """I * e_i for every free generator: the columns forced by the quotient."""
    out = []
    for i in range(rank):
        for g in ring.ci_generators:
            out.append({(i, m): c for m, c in g.items()})
    return out


def reduce_elem_mod_ideal(el, ring):
    """Componentwise canonical representative modulo the quotient ideal."""
    if ring.codim == 0:
        return dict(el)
    out = {}
    by_pos = {}
    for (pos, m), c in el.items():
        by_pos.setdefault(pos, {})[m] = c
    for pos, poly in by_pos.items():
        nf = ring.nf(poly)
        for m, c in nf.items():
            out[(pos, m)] = c
    return out


# ---------------------------------------------------------------------------
# the incremental Buchberger state


class _Item:
    __slots__ = ("el", "wit", "lt", "deg")

    def __init__(self, el, wit, lt, deg):
        self.el = el
        self.wit = wit
        self.lt = lt
        self.deg = deg


def _reduce(el, items, by_pos, p, weights, wit=None, skip=None):
    """Fully reduce el against items; returns (normal form, witness).

    by_pos maps a position to the indices of the items whose lead term
    sits there; divisors are tried in that (insertion) order, and the
    item at index skip is never used.  Terms are visited largest-first
    through a lazy heap: stale entries are skipped, and subtractions
    mutate the work dict in place, pushing only genuinely new terms.
    Tail terms of a reducer multiple are strictly smaller than the term
    they kill, so settled output terms never reappear.  The witness
    invariant el = original - sum(wit_i * g_i) holds throughout.
    """
    out = {}
    work = dict(el)
    heap = [(_heap_key(pos, m, weights), (pos, m)) for (pos, m) in work]
    heapq.heapify(heap)
    if wit is not None:
        wit = dict(wit)
    while heap:
        _, t = heapq.heappop(heap)
        c = work.get(t)
        if c is None:
            continue
        pos, mono = t
        cand = None
        for idx in by_pos.get(pos, ()):
            if mono_divides(items[idx].lt[1], mono) and idx != skip:
                cand = items[idx]
                break
        if cand is None:
            out[t] = c
            del work[t]
        else:
            q = mono_div(mono, cand.lt[1])
            _isub(work, heap, cand.el, q, c, p, weights)
            if wit is not None and cand.wit is not None:
                _isub(wit, None, cand.wit, q, c, p, weights)
    return out, wit


class _GBState:
    def __init__(self, ring, rank, twists, track, degree_cap, pair_cap):
        self.p = ring.p
        self.weights = ring.weights
        self.rank = rank
        self.twists = tuple(twists)
        self.track = track
        self.degree_cap = degree_cap
        self.pair_cap = pair_cap
        self.items = []
        self.by_pos = {}
        self.pairs = []
        self.pairs_done = 0
        self.syzygies = []

    def reduce_full(self, el, wit=None, skip=None):
        """Reduce el against the basis; returns (normal form, witness)."""
        return _reduce(el, self.items, self.by_pos, self.p, self.weights,
                       wit, skip)

    # -- insertion ---------------------------------------------------------

    def add(self, el, wit=None):
        """Reduce a new generator against the basis and insert it."""
        edeg(el, self.twists, self.weights)  # validates rank and homogeneity
        self._insert(*self.reduce_full(el, wit))

    def _insert(self, nf, wit):
        """Record a reduced element and queue its S-pairs.

        A zero remainder is a syzygy (kept when tracking); otherwise the
        element is made monic and paired with every item whose lead term
        sits at the same position.
        """
        p = self.p
        if not nf:
            if self.track and wit:
                self.syzygies.append(wit)
            return
        lt, lc = elead(nf, self.weights)
        inv = pow(lc, p - 2, p)
        nf = escale(nf, inv, p)
        if wit is not None:
            wit = escale(wit, inv, p)
        idx = len(self.items)
        self.items.append(_Item(nf, wit, lt, edeg(nf, self.twists, self.weights)))
        self.by_pos.setdefault(lt[0], []).append(idx)
        for jdx in self.by_pos[lt[0]]:
            if jdx == idx:
                continue
            other = self.items[jdx]
            lcm = mono_lcm(other.lt[1], lt[1])
            sdeg = wdeg(lcm, self.weights) + self.twists[lt[0]]
            if not self.track and self.rank == 1:
                # Buchberger's coprime criterion.  Only sound for ideals:
                # for rank > 1 the tails can involve other positions, so
                # the product-criterion syzygy argument does not apply.
                # Also skipped when syzygies are being collected.
                if mono_mul(other.lt[1], lt[1]) == lcm:
                    continue
            heapq.heappush(self.pairs, (sdeg, jdx, idx))

    def process(self):
        p = self.p
        while self.pairs:
            sdeg, i, j = heapq.heappop(self.pairs)
            self.pairs_done += 1
            if self.pairs_done > self.pair_cap:
                raise ResourceCapError(
                    f"pair cap {self.pair_cap} exceeded",
                    "pair_cap", self.pair_cap,
                )
            if sdeg > self.degree_cap:
                raise ResourceCapError(
                    f"degree cap {self.degree_cap} exceeded by S-pair of "
                    f"degree {sdeg}",
                    "degree_cap", self.degree_cap,
                )
            fi, fj = self.items[i], self.items[j]
            lcm = mono_lcm(fi.lt[1], fj.lt[1])
            qi = mono_div(lcm, fi.lt[1])
            qj = mono_div(lcm, fj.lt[1])
            sp = e_sub_scaled(emul_term(fi.el, qi, 1, p), fj.el, qj, 1, p)
            if self.track:
                swit = e_sub_scaled(
                    emul_term(fi.wit, qi, 1, p), fj.wit, qj, 1, p
                )
            else:
                swit = None
            self._insert(*self.reduce_full(sp, swit))

    # -- post-processing ---------------------------------------------------

    def _reindex(self):
        self.by_pos = {}
        for idx, item in enumerate(self.items):
            self.by_pos.setdefault(item.lt[0], []).append(idx)

    def finalize(self):
        """Prune redundant lead terms, tail-reduce, and sort canonically."""
        order = sorted(range(len(self.items)), key=lambda i: self.items[i].deg)
        kept = []
        for i in order:
            lt = self.items[i].lt
            redundant = any(
                self.items[j].lt[0] == lt[0]
                and mono_divides(self.items[j].lt[1], lt[1])
                for j in kept
            )
            if not redundant:
                kept.append(i)
        self.items = [self.items[i] for i in kept]
        self._reindex()
        # tail reduction against the other elements
        for idx, item in enumerate(self.items):
            item.el, item.wit = self.reduce_full(item.el, item.wit, skip=idx)
            item.lt = elead(item.el, self.weights)[0]
        self.items.sort(
            key=lambda it: (it.deg, term_key(it.lt[0], it.lt[1], self.weights),
                            elem_sort_key(it.el))
        )
        self._reindex()


# ---------------------------------------------------------------------------
# public containers and operations


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    """Auto-reduced Groebner basis of a submodule over a quotient ring.

    The basis lives over the ambient polynomial ring; the quotient ideal
    times each free generator was appended before completion, so normal
    forms are canonical representatives over the quotient.
    """

    ring: object
    ambient_rank: int
    twists: tuple
    basis: tuple
    order: str = ORDER_DESCRIPTOR
    _items: tuple = field(init=False, repr=False, compare=False)
    _by_pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = self.ring.weights
        items = tuple(_Item(el, None, elead(el, weights)[0], None)
                      for el in self.basis)
        by_pos = {}
        for idx, item in enumerate(items):
            by_pos.setdefault(item.lt[0], []).append(idx)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_by_pos", by_pos)


def _build_state(gens, ring, rank, twists, track, degree_cap, pair_cap):
    for j, g in enumerate(gens):
        edeg(g, twists, ring.weights)  # validates rank and homogeneity
    full = list(gens)
    if ring.codim > 0:
        full.extend(quotient_relation_gens(ring, rank))
    state = _GBState(ring, rank, twists, track, degree_cap, pair_cap)
    zero = (0,) * ring.nvars
    for idx, g in enumerate(full):
        wit = {(idx, zero): 1} if track else None
        state.add(g, wit)
    state.process()
    return state, full


def groebner(gens, ring, rank, twists) -> ModuleGroebnerBasis:
    """Groebner basis of the submodule generated by gens over the quotient."""
    state, _ = _build_state(gens, ring, rank, twists, False,
                            DEFAULT_DEGREE_CAP, DEFAULT_PAIR_CAP)
    state.finalize()
    return ModuleGroebnerBasis(
        ring=ring,
        ambient_rank=rank,
        twists=tuple(twists),
        basis=tuple(dict(item.el) for item in state.items),
    )


def normal_form(el, gb: ModuleGroebnerBasis):
    """Unique fully reduced remainder of el against the basis."""
    ring = gb.ring
    edeg(el, gb.twists, ring.weights)  # rank / twist validation
    return _reduce(el, gb._items, gb._by_pos, ring.p, ring.weights)[0]


def syzygies(gens, ring, rank, twists):
    """Generators of the syzygy module of gens over the quotient ring.

    Returned elements live in the free module with one generator per
    input element (twist = degree of that element); components are reduced
    modulo the quotient ideal.
    """
    state, full = _build_state(gens, ring, rank, twists, True,
                               DEFAULT_DEGREE_CAP, DEFAULT_PAIR_CAP)
    state.finalize()
    raw = list(state.syzygies)
    # the identity-minus-division syzygies of the inputs
    zero = (0,) * ring.nvars
    for idx, g in enumerate(full):
        nf, wit = state.reduce_full(dict(g), {(idx, zero): 1})
        if nf:
            raise AssertionError("generator failed to reduce against its GB")
        if wit:
            raw.append(wit)
    n = len(gens)
    out = []
    seen = set()
    for s in raw:
        proj = {(i, m): c for (i, m), c in s.items() if i < n}
        proj = reduce_elem_mod_ideal(proj, ring)
        if not proj:
            continue
        key = elem_sort_key(proj)
        if key in seen:
            continue
        seen.add(key)
        out.append(proj)
    syz_twists = tuple(edeg(g, twists, ring.weights) or 0 for g in gens)
    out.sort(key=lambda el: (edeg(el, syz_twists, ring.weights),
                             elem_sort_key(el)))
    return out


def kernel_of_map(cols, ring, source_twists, target_twists):
    """Generators of the kernel of the free-module map with the given columns.

    Column j is the image of source generator j, as an element of the
    target free module; its degree must equal source_twists[j].
    """
    if len(cols) != len(source_twists):
        raise RankMismatchError("one source twist per column required")
    for j, col in enumerate(cols):
        d = edeg(col, target_twists, ring.weights)
        if d is not None and d != source_twists[j]:
            raise InhomogeneousError(
                f"column {j} has degree {d}, source twist {source_twists[j]}"
            )
    return syzygies(cols, ring, len(target_twists), target_twists)


def minimal_generators(gens, ring, rank, twists):
    """Deterministic minimal generating subset of a graded submodule.

    Generators are processed in degree order; an element is kept iff its
    normal form against the previously kept elements (and the quotient
    relations) is nonzero.  The kept elements are returned in their fully
    reduced canonical form.
    """
    weights = ring.weights
    ordered = sorted(
        (g for g in gens if g),
        key=lambda g: (edeg(g, twists, weights), elem_sort_key(g)),
    )
    state = _GBState(ring, rank, tuple(twists), False,
                     DEFAULT_DEGREE_CAP, DEFAULT_PAIR_CAP)
    if ring.codim > 0:
        for q in quotient_relation_gens(ring, rank):
            state.add(q)
        state.process()
    accepted = []
    for g in ordered:
        nf, _ = state.reduce_full(g)
        if nf:
            accepted.append(reduce_elem_mod_ideal(nf, ring))
            state.add(nf)
            state.process()
    return accepted
