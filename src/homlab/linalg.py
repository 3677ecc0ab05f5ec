"""Exact linear algebra mod p and the graded-piece model of presented modules.

A graded piece of a free module over the quotient ring is spanned by
pairs (position, standard monomial).  A presented module N = coker(rels)
is read in quotient coordinates: in each degree e the relation rows are
row-reduced once, the non-pivot columns of the cover basis form a basis
of N_e, and a cover vector is projected onto that basis by eliminating
its pivot coordinates.  Multiplication by a monomial is then a small
sparse matrix N_e -> N_{e + deg m}, and maps of complexes built from N
are block matrices of these, with no relation rows.  Everything here is
a dimension or rank count; the Groebner layer owns exact zero-certificates.

Elimination is sparse: a row is a ``{column: value}`` dict of Python
ints, and one reducer touches only nonzero entries, so it serves rank,
reduced row echelon form and solving with no overflow bound.  Only
``matmul_mod`` works on dense int64 matrices with entries in [0, p);
PrimeField keeps p below 2^31, so one product stays below 2^62, and its
sums of products are reduced mod p before they could pass 2^63.
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


def _entries(row):
    """(column, value) pairs of a dict row or a dense sequence."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _eliminate(row, f, prow, p):
    """row -= f * prow in place; f and the entries of prow are nonzero."""
    for j, v in prow.items():
        w = (row.get(j, 0) - f * v) % p
        if w:
            row[j] = w
        else:
            del row[j]


def _reduce(rows, p, reduced):
    """Sparse Gaussian elimination over F_p.

    ``rows`` are ``{column: value}`` dicts or dense sequences, with any
    integer entries.  Returns ``{pivot column: row}``: each row has a 1
    at its pivot and no entry left of it, so the number of pivots is the
    rank.  With reduced=True every pivot column is also cleared from the
    other pivot rows (reduced row echelon form).
    """
    pivots = {}
    for row in rows:
        row = {j: w for j, v in _entries(row) if (w := int(v) % p)}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            _eliminate(row, row[c], prow, p)
    if reduced:
        # from the right: rows of later pivots are already cleared, so
        # clearing one pivot column puts nothing into another
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                _eliminate(row, row[j], pivots[j], p)
    return pivots


def rank_mod(rows, p):
    """Rank over F_p of a matrix given by dict or dense rows."""
    return len(_reduce(rows, p, reduced=False))


def rref_mod(rows, p):
    """Reduced row echelon form: (list of dict rows, pivot column list)."""
    pivots = _reduce(rows, p, reduced=True)
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def solve_mod(columns, b, p):
    """Solve A x = b over F_p, with A given by (dict or dense) columns.

    Returns x as a list of ints, or None if the system has no solution.
    """
    ncols = len(columns)
    rows = {}
    for j, col in enumerate(columns):
        for i, v in _entries(col):
            rows.setdefault(i, {})[j] = v
    for i, v in _entries(b):
        rows.setdefault(i, {})[ncols] = v
    pivots = _reduce(rows.values(), p, reduced=True)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for c, row in pivots.items():
        x[c] = row.get(ncols, 0)
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
    monomial as sparse rows.  Both caches hold only the degrees asked for.
    """

    def __init__(self, ring, twists, rels):
        self.ring = ring
        self.twists = tuple(twists)
        self.rels = tuple(rels)
        self._rel_degs = [edeg(r, self.twists, ring.weights) for r in rels]
        self._pieces = {}   # e -> (basis indices in the cover, projection)
        self._mult = {}     # (mono, e) -> sparse rows of N_e -> N_{e + deg}

    def _piece(self, e):
        piece = self._pieces.get(e)
        if piece is None:
            p = self.ring.p
            basis, _, rows = relation_rows(self.ring, self.twists, self.rels,
                                           e, self._rel_degs)
            R, pivots = rref_mod(rows, p)
            pivot_set = set(pivots)
            free = [j for j in range(len(basis)) if j not in pivot_set]
            proj = np.zeros((len(basis), len(free)), dtype=np.int64)
            proj[free, range(len(free))] = 1
            col = {j: k for k, j in enumerate(free)}
            for c, row in zip(pivots, R):
                for j, v in row.items():
                    if j != c:
                        proj[c, col[j]] = p - v
            piece = self._pieces[e] = (free, proj)
        return piece

    def dim(self, e):
        """k-dimension of N_e."""
        return len(self._piece(e)[0])

    def mult(self, mono, e):
        """Sparse rows (one per basis vector of N_e, as {column: value}
        over the basis of N_{e + deg mono}) of multiplication by a monomial.
        """
        key = (mono, e)
        rows = self._mult.get(key)
        if rows is None:
            f = wdeg(mono, self.ring.weights)
            free = self._piece(e)[0]
            rows = [{} for _ in free]
            if free and self.dim(e + f):
                shifted = tuple(t + f for t in self.twists)
                cols = [{(b, mono): 1} for b in range(len(self.twists))]
                _, _, images = map_rows(self.ring, shifted, cols,
                                        self.twists, e + f)
                # project the images onto the basis of N_{e+f}
                mat = matmul_mod(np.array(images)[free],
                                 self._piece(e + f)[1], self.ring.p)
                for row, dense in zip(rows, mat.tolist()):
                    row.update((j, v) for j, v in enumerate(dense) if v)
            self._mult[key] = rows
        return rows
