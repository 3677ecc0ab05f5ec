"""Exact linear algebra mod p and the graded-piece model of presented modules.

A graded piece of a free module over the quotient ring is spanned by
pairs (position, standard monomial).  A presented module N = coker(rels)
is read in quotient coordinates: in each degree e the relation rows are
row-reduced once, the non-pivot columns of the cover basis form a basis
of N_e, and a cover vector is projected onto that basis by eliminating
its pivot coordinates.  Multiplication by a monomial is then a small
matrix N_e -> N_{e + deg m}, and maps of complexes built from N are
block matrices of these, with no relation rows.  Everything here is a
dimension or rank count; the Groebner layer owns exact zero-certificates.

Matrices are int64 with entries in [0, p).  PrimeField keeps p below
2^31, so one product stays below 2^62; sums of products are reduced mod
p before they could pass 2^63.
"""

from __future__ import annotations

import numpy as np

from .groebner import edeg, emul_term, reduce_elem_mod_ideal
from .ring import wdeg

_INT64_MAX = 2**63 - 1


def matmul_mod(A, B, p):
    """A @ B over F_p for int64 matrices with entries in [0, p).

    The inner dimension is cut into chunks whose partial sums, plus a
    reduced accumulator, stay at most 2^63 - 1.
    """
    n = A.shape[1]
    step = max(1, (_INT64_MAX - p) // (p - 1) ** 2)
    if n <= step:
        return (A @ B) % p
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, n, step):
        out = (out + A[:, s:s + step] @ B[s:s + step]) % p
    return out


def _echelon(rows, p, reduced):
    """Row echelon form over F_p; returns (pivot rows, pivot columns).

    With reduced=True every pivot column is cleared above its pivot as
    well (reduced row echelon form).  Rows at and below the current
    pivot vanish left of its column, so updates touch columns c: only.
    """
    A = np.array(rows, dtype=np.int64, order="C")
    if A.ndim != 2 or A.size == 0:
        return A.reshape(0, A.shape[-1] if A.ndim == 2 else 0), []
    A %= p
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = (A[r, c:] * inv) % p
        if reduced:
            idx = np.flatnonzero(A[:, c])
            idx = idx[idx != r]
        else:
            idx = r + nz[1:]
        if idx.size:
            A[idx, c:] = (A[idx, c:] - np.outer(A[idx, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank_mod(rows, p):
    """Rank of a matrix (list of rows or ndarray) over F_p."""
    A = np.asarray(rows, dtype=np.int64)
    if A.ndim == 2 and A.shape[1] > A.shape[0]:
        A = A.T
    return len(_echelon(A, p, reduced=False)[1])


def rref_mod(rows, p):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    return _echelon(rows, p, reduced=True)


def solve_mod(columns, b, p):
    """Solve A x = b over F_p, with A given by columns; None if insolvable."""
    ncols = len(columns)
    if ncols == 0:
        return [] if not any(int(v) % p for v in b) else None
    A = np.array(columns, dtype=np.int64).T % p
    bb = np.array(b, dtype=np.int64).reshape(-1, 1) % p
    aug = np.hstack([A, bb])
    R, pivots = rref_mod(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = int(R[r, ncols])
    return x


# ---------------------------------------------------------------------------
# graded pieces


def free_basis(ring, twists, d):
    """Basis of the degree-d piece of the free module over the quotient ring."""
    out = []
    for pos, t in enumerate(twists):
        for m in ring.standard_monomials(d - t):
            out.append((pos, m))
    return out


def elem_to_vec(el, index, length, p):
    """Coordinate vector of an element already reduced modulo the ideal."""
    v = np.zeros(length, dtype=np.int64)
    for t, c in el.items():
        j = index.get(t)
        if j is None:
            raise KeyError(f"term {t} outside the graded piece basis")
        v[j] = c % p
    return v


def relation_rows(ring, twists, rels, d, rel_degs=None):
    """Row vectors spanning the degree-d piece of the relation submodule.

    One row per (relation, standard monomial of complementary degree);
    products are reduced modulo the quotient ideal first.
    """
    basis = free_basis(ring, twists, d)
    index = {t: j for j, t in enumerate(basis)}
    rows = []
    if rel_degs is None:
        rel_degs = [edeg(r, twists, ring.weights) for r in rels]
    for r, rd in zip(rels, rel_degs):
        if rd is None:
            continue
        for m in ring.standard_monomials(d - rd):
            prod = emul_term(r, m, 1, ring.p)
            prod = reduce_elem_mod_ideal(prod, ring)
            rows.append(elem_to_vec(prod, index, len(basis), ring.p))
    return basis, index, rows


def map_rows(ring, src_twists, cols, tgt_twists, d):
    """Images of the degree-d source basis under the column map, as rows.

    Returns (src_basis, tgt_basis, rows); rows[j] is the coordinate vector
    of the image of src_basis[j] in the target graded piece.
    """
    src_basis = free_basis(ring, src_twists, d)
    tgt_basis = free_basis(ring, tgt_twists, d)
    index = {t: j for j, t in enumerate(tgt_basis)}
    rows = []
    for (pos, m) in src_basis:
        img = emul_term(cols[pos], m, 1, ring.p)
        img = reduce_elem_mod_ideal(img, ring)
        rows.append(elem_to_vec(img, index, len(tgt_basis), ring.p))
    return src_basis, tgt_basis, rows


class GradedPieces:
    """Graded pieces N_e of coker(rels) over a quotient ring, in quotient
    coordinates.

    Per degree e it keeps the cover-basis indices that form a basis of
    N_e (the non-pivot columns of the row-reduced relation rows) and the
    projection matrix taking cover coordinates to that basis.  Per
    (monomial, degree) it keeps the matrix of multiplication by the
    monomial.  Both caches hold only the degrees asked for.
    """

    def __init__(self, ring, twists, rels):
        self.ring = ring
        self.twists = tuple(twists)
        self.rels = tuple(rels)
        self._rel_degs = [edeg(r, self.twists, ring.weights) for r in rels]
        self._pieces = {}   # e -> (basis indices in the cover, projection)
        self._mult = {}     # (mono, e) -> matrix of N_e -> N_{e + deg mono}

    def _piece(self, e):
        piece = self._pieces.get(e)
        if piece is None:
            p = self.ring.p
            basis, _, rows = relation_rows(self.ring, self.twists, self.rels,
                                           e, self._rel_degs)
            R, pivots = rref_mod(rows, p) if rows else (None, [])
            pivot_set = set(pivots)
            free = [j for j in range(len(basis)) if j not in pivot_set]
            proj = np.zeros((len(basis), len(free)), dtype=np.int64)
            proj[free, range(len(free))] = 1
            if pivots:
                proj[pivots] = (-R[:, free]) % p
            piece = self._pieces[e] = (free, proj)
        return piece

    def dim(self, e):
        """k-dimension of N_e."""
        return len(self._piece(e)[0])

    def mult(self, mono, e):
        """Matrix (rows = basis of N_e) of multiplication by a monomial."""
        key = (mono, e)
        mat = self._mult.get(key)
        if mat is None:
            f = wdeg(mono, self.ring.weights)
            free = self._piece(e)[0]
            if not free or not self.dim(e + f):
                mat = np.zeros((len(free), self.dim(e + f)), dtype=np.int64)
            else:
                shifted = tuple(t + f for t in self.twists)
                cols = [{(b, mono): 1} for b in range(len(self.twists))]
                _, _, rows = map_rows(self.ring, shifted, cols, self.twists,
                                      e + f)
                # project the images onto the basis of N_{e+f}
                mat = matmul_mod(np.array(rows)[free], self._piece(e + f)[1],
                                 self.ring.p)
            self._mult[key] = mat
        return mat
