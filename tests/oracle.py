"""Independent brute-force oracles used by the test suite.

Everything here works degree by degree with dense linear algebra over
F_p on ambient monomial bases: the quotient by the defining ideal is
taken as a vector-space quotient (span of all monomial multiples of the
generators), never through a Groebner basis.  This gives a second,
structurally unrelated route to Hilbert functions, submodule
membership, exactness of complexes and graded homology dimensions.

One reference at the end is the exception: ``groebner_zero_verdict``
keeps the Groebner normal-form certificate of homology vanishing, run on
the package's own Groebner engine, as a second route to the zero
verdicts that the package reads off graded dimensions.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# tiny exact linear algebra (local on purpose: the oracle shares no code
# with the package's reduction machinery)


def rank_mod(rows, p):
    if not rows:
        return 0
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    r = 0
    ncols = a.shape[1]
    for c in range(ncols):
        piv = None
        for i in range(r, a.shape[0]):
            if a[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def in_rowspan(rows, vec, p):
    base = rank_mod(rows, p)
    return rank_mod(list(rows) + [vec], p) == base


# ---------------------------------------------------------------------------
# monomials and polynomial vectors


def monomials(nvars, weights, d):
    """All exponent tuples of weighted degree d, in a fixed order."""
    out = []

    def rec(i, rem, acc):
        if i == nvars:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, acc + [e])

    rec(0, d, [])
    return out


def wdeg(mono, weights):
    return sum(e * w for e, w in zip(mono, weights))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_row(poly, basis_index, p):
    v = [0] * len(basis_index)
    for m, c in poly.items():
        v[basis_index[m]] = c % p
    return v


def ideal_rows(ring, d):
    """Rows spanning the degree-d piece of the defining ideal."""
    basis = monomials(ring.nvars, ring.weights, d)
    index = {m: j for j, m in enumerate(basis)}
    rows = []
    for g in ring.ci_generators:
        gd = wdeg(next(iter(g)), ring.weights)
        for m in monomials(ring.nvars, ring.weights, d - gd):
            prod = {mono_mul(m, mm): c for mm, c in g.items()}
            rows.append(poly_row(prod, index, ring.p))
    return basis, index, rows


def ring_piece_dim(ring, d):
    """Hilbert function of the quotient ring, by quotient-space count."""
    if d < 0:
        return 0
    basis, _, rows = ideal_rows(ring, d)
    return len(basis) - rank_mod(rows, ring.p)


# ---------------------------------------------------------------------------
# free modules over the quotient, presented maps, homology


def free_piece(ring, twists, d):
    """Ambient basis of the degree-d piece of the free module ⊕R(-t)."""
    basis = []
    for pos, t in enumerate(twists):
        for m in monomials(ring.nvars, ring.weights, d - t):
            basis.append((pos, m))
    return basis


def _slot_ideal_rows(ring, twists, d, index):
    rows = []
    for pos, t in enumerate(twists):
        for g in ring.ci_generators:
            gd = wdeg(next(iter(g)), ring.weights)
            for m in monomials(ring.nvars, ring.weights, d - t - gd):
                row = [0] * len(index)
                for mm, c in g.items():
                    row[index[(pos, mono_mul(m, mm))]] = c % ring.p
                rows.append(row)
    return rows


def elem_row(el, index, p):
    v = [0] * len(index)
    for (pos, m), c in el.items():
        v[index[(pos, m)]] = c % p
    return v


def submodule_rows(ring, twists, gens, d):
    """Rows spanning the degree-d piece of <gens> + I·(free module)."""
    basis = free_piece(ring, twists, d)
    index = {t: j for j, t in enumerate(basis)}
    rows = _slot_ideal_rows(ring, twists, d, index)
    for g in gens:
        degs = {wdeg(m, ring.weights) + twists[pos] for (pos, m) in g}
        if len(degs) != 1:
            raise ValueError("inhomogeneous generator in oracle")
        gd = degs.pop()
        for m in monomials(ring.nvars, ring.weights, d - gd):
            prod = {(pos, mono_mul(m, mm)): c for (pos, mm), c in g.items()}
            rows.append(elem_row(prod, index, ring.p))
    return basis, index, rows


def module_piece_dim(ring, twists, rels, d):
    """Hilbert function of coker(rels), fully brute force."""
    basis, _, rows = submodule_rows(ring, twists, rels, d)
    if not basis:
        return 0
    return len(basis) - rank_mod(rows, ring.p)


def membership(ring, twists, gens, el):
    """Is el in the submodule generated by gens (mod the ideal)?"""
    degs = {wdeg(m, ring.weights) + twists[pos] for (pos, m) in el}
    if len(degs) != 1:
        raise ValueError("inhomogeneous element in oracle")
    d = degs.pop()
    basis, index, rows = submodule_rows(ring, twists, gens, d)
    return in_rowspan(rows, elem_row(el, index, ring.p), ring.p)


def map_matrix(ring, src_twists, cols, tgt_twists, d):
    """Dense matrix (rows = images of source basis) of an element-column
    map between free-module graded pieces, over the ambient basis."""
    src = free_piece(ring, src_twists, d)
    tgt = free_piece(ring, tgt_twists, d)
    index = {t: j for j, t in enumerate(tgt)}
    rows = []
    for (pos, m) in src:
        img = {}
        for (q, mm), c in cols[pos].items():
            key = (q, mono_mul(m, mm))
            img[key] = (img.get(key, 0) + c) % ring.p
        rows.append(elem_row(img, index, ring.p))
    return src, tgt, rows


def _quotient_map_rank(ring, src_twists, cols, tgt_twists, d):
    """Rank of the induced map between quotient-by-ideal graded pieces."""
    _, tgt, rows = map_matrix(ring, src_twists, cols, tgt_twists, d)
    index = {t: j for j, t in enumerate(tgt)}
    tgt_ideal = _slot_ideal_rows(ring, tgt_twists, d, index)
    base = rank_mod(tgt_ideal, ring.p)
    return rank_mod(rows + tgt_ideal, ring.p) - base


def complex_homology_dim(ring, tw_prev, d_in_cols, tw_here, d_out_cols,
                         tw_next, d):
    """dim_k of homology at the middle spot of  prev <- here <- next
    (maps given by element columns; either may be None) in degree d."""
    basis = free_piece(ring, tw_here, d)
    index = {t: j for j, t in enumerate(basis)}
    ideal = _slot_ideal_rows(ring, tw_here, d, index)
    dim_v = len(basis) - rank_mod(ideal, ring.p)
    rk_out = (_quotient_map_rank(ring, tw_here, d_out_cols, tw_prev, d)
              if d_out_cols is not None else 0)
    rk_in = (_quotient_map_rank(ring, tw_next, d_in_cols, tw_here, d)
             if d_in_cols is not None else 0)
    h = dim_v - rk_out - rk_in
    if h < 0:
        raise AssertionError("oracle found negative homology dimension")
    return h


def socle_dimension(ring):
    """k-dimension of the socle of an artinian quotient ring.

    In each degree the socle is the kernel of r -> (x_1 r, ..., x_n r),
    so its dimension is dim R_d minus the rank of that map.
    """
    col = {(v, tuple(int(j == v) for j in range(ring.nvars))): 1
           for v in range(ring.nvars)}
    shifts = tuple(-w for w in ring.weights)
    return sum(ring_piece_dim(ring, d)
               - _quotient_map_rank(ring, (0,), [col], shifts, d)
               for d in range(ring.top_degree() + 1))


def presented_map_rank(ring, src, cols, tgt, d):
    """Rank of an induced map between presented graded pieces.

    src and tgt are (twists, relation_columns); the quotient includes
    both the defining ideal and the given relations."""
    _, tgt_basis, rows = map_matrix(ring, src[0], cols, tgt[0], d)
    _, _, tgt_rows = submodule_rows(ring, tgt[0], list(tgt[1]), d)
    base = rank_mod(tgt_rows, ring.p)
    return rank_mod(rows + tgt_rows, ring.p) - base


def presented_homology_dim(ring, prev, in_cols, here, out_cols, nxt, d):
    """dim_k homology of presented spaces  prev <- here <- nxt  at degree d."""
    basis, _, rows = submodule_rows(ring, here[0], list(here[1]), d)
    dim_v = len(basis) - rank_mod(rows, ring.p)
    rk_out = (presented_map_rank(ring, here, out_cols, prev, d)
              if out_cols is not None else 0)
    rk_in = (presented_map_rank(ring, nxt, in_cols, here, d)
             if in_cols is not None else 0)
    h = dim_v - rk_out - rk_in
    if h < 0:
        raise AssertionError("oracle found negative homology dimension")
    return h


def resolution_exact_and_minimal(ring, res, top, dmax):
    """Exactness (indices 1..top-1) and minimality of a resolution,
    checked degree by degree up to dmax with the oracle's own algebra.

    Returns (exact, minimal)."""
    minimal = True
    for n in range(1, top + 1):
        for col in res.differential(n):
            for (pos, m) in col:
                if sum(m) == 0:
                    minimal = False
    exact = True
    for n in range(1, top):
        tw_prev = list(res.twist_list(n - 1))
        tw_here = list(res.twist_list(n))
        tw_next = list(res.twist_list(n + 1))
        if not tw_here:
            continue
        d_out = res.differential(n)
        d_in = res.differential(n + 1) if tw_next else None
        for d in range(min(tw_here), dmax + 1):
            if complex_homology_dim(ring, tw_prev, d_in, tw_here, d_out,
                                    tw_next, d):
                exact = False
    return exact, minimal


# ---------------------------------------------------------------------------
# zero verdicts by the Groebner normal-form certificate


def groebner_zero_verdict(cx, i):
    """Does homology vanish at index i of a ``homology._CoveredComplex``?

    The index is presented over its free cover with N's relations in
    every slot; it vanishes exactly when every kernel generator of the
    map leaving it reduces to zero against a Groebner basis of the image
    of the map arriving plus those relations.
    """
    from homlab.groebner import groebner, normal_form
    from homlab.homology import _kernel_gens_of_index

    tw_i, rels_i = cx.space(i)
    if not tw_i:
        return True
    gens = _kernel_gens_of_index(cx, i)
    if not gens:
        return True
    inm = cx.in_map(i)
    image = list(inm[0]) if inm is not None else []
    gb = groebner(image + list(rels_i), cx.ring, len(tw_i), tw_i)
    return all(not normal_form(g, gb) for g in gens)
