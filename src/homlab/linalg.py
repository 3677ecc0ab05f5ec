"""Exact linear algebra mod p and the graded-piece model of presented modules.

A graded piece of a free module over the quotient ring is spanned by
pairs (position, standard monomial).  A presented module N = coker(rels)
is read in quotient coordinates: in each degree e the relation rows are
row-reduced once, the non-pivot columns of the cover basis form a basis
of N_e, and a cover vector is projected onto that basis by eliminating
its pivot coordinates.  Multiplication by a monomial is then a small
sparse matrix N_e -> N_{e + deg m}, cached, and every map between sums
of shifted copies of N is assembled from these by ``block_rows``, with
no relation rows.  Over a quotient ring, ``minimal_kernel`` computes a
step of a minimal free resolution the same way over the ring's own
pieces (``ring_pieces``), in a finite degree window that its caller
bounds.  Given the previous step's kernel dimensions, exactness counts
each kernel piece (dim ker_e d_n = dim (F_n)_e - dim ker_e d_{n-1}), so
a degree stops collecting products once the count is reached and
eliminates only when it holds new generators.

Everything is sparse: a row is a ``{column: value}`` dict of Python
ints, one reducer touches only nonzero entries and serves rank, reduced
row echelon form, solving and the kernel steps, and projections are
sparse rows too.  No step has an overflow bound.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import ResourceCapError
from .groebner import edeg, emul_term, reduce_elem_mod_ideal
from .ring import wdeg

# cells (rows x columns) of the largest [image | identity] matrix one
# degree of minimal_kernel may eliminate
CELL_CAP = 4 * 10**6


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


def _insert(pivots, row, p):
    """Reduce a row (nonzero entries in [0, p)) against the pivot rows.

    A nonzero remainder is stored, scaled to 1 at its pivot, as a new
    pivot row; returns its pivot column, or None when the row reduces
    to zero.  ``row`` is consumed.
    """
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            inv = pow(row[c], p - 2, p)
            pivots[c] = {j: v * inv % p for j, v in row.items()}
            return c
        _eliminate(row, row[c], prow, p)
    return None


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
        _insert(pivots, {j: w for j, v in _entries(row) if (w := int(v) % p)},
                p)
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


def _elem_row(el, index):
    """Sparse row of an element already reduced modulo the ideal."""
    row = {}
    for t, c in el.items():
        j = index.get(t)
        if j is None:
            raise KeyError(f"term {t} outside the graded piece basis")
        row[j] = c
    return row


def relation_rows(ring, twists, rels, d, rel_degs=None):
    """Sparse rows spanning the degree-d piece of the relation submodule.

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
            rows.append(_elem_row(reduce_elem_mod_ideal(prod, ring), index))
    return basis, index, rows


def map_rows(ring, src_twists, cols, tgt_twists, d):
    """Images of the degree-d source basis under the column map, as rows.

    Returns (src_basis, tgt_basis, rows); rows[j] is the sparse coordinate
    row of the image of src_basis[j] in the target graded piece.
    """
    src_basis = free_basis(ring, src_twists, d)
    tgt_basis = free_basis(ring, tgt_twists, d)
    index = {t: j for j, t in enumerate(tgt_basis)}
    rows = []
    for (pos, m) in src_basis:
        img = emul_term(cols[pos], m, 1, ring.p)
        rows.append(_elem_row(reduce_elem_mod_ideal(img, ring), index))
    return src_basis, tgt_basis, rows


def ring_pieces(ring):
    """The graded pieces of the ring itself, one per ring (``ring._pieces``).

    Its degree-e basis is ``standard_monomials(e)`` in order and its
    projection the identity, so its rows are free-module coordinates.
    """
    if ring._pieces is None:
        ring._pieces = GradedPieces(ring, (0,), ())
    return ring._pieces


def slot_entries(cols):
    """(source slot, target slot, polynomial) triples of a column map."""
    out = []
    for a, col in enumerate(cols):
        polys = {}
        for (a_t, m), c in col.items():
            polys.setdefault(a_t, {})[m] = c
        out.extend((a, a_t, poly) for a_t, poly in polys.items())
    return out


def block_rows(pieces, entries, src_shifts, tgt_shifts, d):
    """Degree-d rows of a map between sums of shifted copies of one module.

    Slot a of the source is N(-src_shifts[a]), slot b of the target
    N(-tgt_shifts[b]), and an entry (a, b, poly) multiplies slot a into
    slot b.  Returns (rows, number of columns): the rows of a source slot
    hold, at the column offset of each target slot, the sum of c times
    ``pieces.mult(m, d - src_shifts[a])`` over the terms c*m of the
    polynomial.  Entries are Python ints, not reduced mod p.
    """
    rdims = [pieces.dim(d - s) for s in src_shifts]
    cdims = [pieces.dim(d - s) for s in tgt_shifts]
    roff = list(accumulate(rdims, initial=0))
    coff = list(accumulate(cdims, initial=0))
    rows = [{} for _ in range(roff[-1])]
    for a, b, poly in entries:
        if not rdims[a] or not cdims[b]:
            continue
        e = d - src_shifts[a]
        block, c0 = rows[roff[a]:roff[a + 1]], coff[b]
        for m, c in poly.items():
            for row, mrow in zip(block, pieces.mult(m, e)):
                for j, v in mrow.items():
                    row[c0 + j] = row.get(c0 + j, 0) + c * v
    return rows, coff[-1]


def minimal_kernel(cols, ring, src_twists, tgt_twists, top, image_dims=None):
    """Minimal generators of degree at most top of the kernel of a map of
    free modules over a quotient ring, by linear algebra on graded pieces.

    Column j is the image of source generator j, of degree src_twists[j].
    The kernel lives where the source does, so its generators lie in
    degrees min twist .. top once the caller's top bounds them (every
    graded piece there is finite).  Per degree e, ascending: U_e, the
    part of ker_e generated from below, is spanned by x_v * ker_{e -
    deg x_v} over the variables x_v and kept in echelon form.  Reducing
    by U_e clears its pivot coordinates, so ker_e is U_e plus the kernel
    of the piece map on the other source coordinates; that kernel, read
    off the rows of [image | identity] whose image part eliminates to
    zero, is the set of new generators of degree e, each scaled to 1 at
    its pivot.  The piece map and the maps x_v are block rows over
    ``ring_pieces``, in ``free_basis`` coordinates.

    ``image_dims`` ({e: dim im_e}, or None) counts instead: where dim
    im_e is known (listed there, or 0 where the target piece is 0),
    dim ker_e = dim (F_src)_e - dim im_e.  U_e takes products only up
    to that count, and a full U_e leaves no new generator, so no
    elimination.  The rows kept are those kept without the count (every
    later product lies in U_e).  A degree that still eliminates must
    reach the count exactly, or AssertionError.

    Returns (generators, dims): the new generators as module elements
    in ascending degree and {e: dim ker_e} over the window.  Raises
    ResourceCapError, before assembling any rows, when one degree's
    [image | identity] matrix would have more than CELL_CAP cells.
    """
    p = ring.p
    pieces = ring_pieces(ring)
    src_twists = tuple(src_twists)
    slots = range(len(src_twists))
    entries = slot_entries(cols)
    units = [{tuple(int(i == v) for i in range(ring.nvars)): 1}
             for v in range(ring.nvars)]
    kernels = {}   # e -> basis of ker_e, as rows over free_basis(e)
    gens = []
    for e in range(min(src_twists), top + 1):
        ns = sum(pieces.dim(e - t) for t in src_twists)
        nt = sum(pieces.dim(e - t) for t in tgt_twists)
        if ns * (nt + ns) > CELL_CAP:
            raise ResourceCapError(
                f"cell cap {CELL_CAP} exceeded by a {ns} x {nt + ns} "
                f"matrix in degree {e}", "cell_cap", CELL_CAP)
        target = None   # dim ker_e, where exactness gives it
        if image_dims is not None:
            if e in image_dims:
                target = ns - image_dims[e]
            elif not nt:
                target = ns
        below = {}
        for w, x in zip(ring.weights, units):
            lower = kernels.get(e - w)
            if not lower or len(below) == target:
                continue
            # multiplication by x_v, (F_src)_{e-w} -> (F_src)_e
            times, _ = block_rows(pieces, [(b, b, x) for b in slots],
                                  [t + w for t in src_twists], src_twists, e)
            for k in lower:
                row = {}
                for j, c in k.items():
                    for jj, a in times[j].items():
                        row[jj] = row.get(jj, 0) + c * a
                _insert(below, {j: r for j, a in row.items()
                                if (r := a % p)}, p)
                if len(below) == target:
                    break
        kernels[e] = list(below.values())
        if len(below) == target:
            continue
        images, _ = block_rows(pieces, entries, src_twists, tgt_twists, e)
        rows = []
        for j, row in enumerate(images):
            if j not in below:
                row[nt + j] = 1
                rows.append(row)
        pivots = _reduce(rows, p, reduced=False)
        new = [{j - nt: v for j, v in pivots[c].items()}
               for c in sorted(pivots) if c >= nt]
        kernels[e] += new
        if target is not None and len(kernels[e]) != target:
            raise AssertionError(
                f"kernel of dimension {len(kernels[e])} in degree {e}, "
                f"where exactness gives {target}: broken complex")
        if new:
            basis = free_basis(ring, src_twists, e)
            gens.extend({basis[j]: v for j, v in k.items()} for k in new)
    return gens, {e: len(k) for e, k in kernels.items()}


class GradedPieces:
    """Graded pieces N_e of coker(rels) over a quotient ring, in quotient
    coordinates.

    Per degree e it keeps the cover-basis indices that form a basis of
    N_e (the non-pivot columns of the row-reduced relation rows) and the
    projection onto that basis, one sparse row per cover column: a free
    column maps to its own basis vector, a pivot column to minus the
    non-pivot entries of its reduced row.  Per (monomial, degree) it
    keeps the matrix of multiplication by the monomial as sparse rows,
    and per degree the dimension.  The caches hold only the degrees asked
    for.
    """

    def __init__(self, ring, twists, rels):
        self.ring = ring
        self.twists = tuple(twists)
        self.rels = tuple(rels)
        self._rel_degs = [edeg(r, self.twists, ring.weights) for r in rels]
        self._pieces = {}   # e -> (basis indices in the cover, projection)
        self._dims = {}     # e -> dim N_e
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
            col = {j: k for k, j in enumerate(free)}
            proj = [{col[j]: 1} if j in col else None
                    for j in range(len(basis))]
            # reduced rows hold only non-pivot columns besides their pivot
            for c, row in zip(pivots, R):
                proj[c] = {col[j]: p - v for j, v in row.items() if j != c}
            piece = self._pieces[e] = (free, proj)
        return piece

    def dim(self, e):
        """k-dimension of N_e."""
        d = self._dims.get(e)
        if d is None:
            d = self._dims[e] = len(self._piece(e)[0])
        return d

    def mult(self, mono, e):
        """Sparse rows (one per basis vector of N_e, as {column: value}
        over the basis of N_{e + deg mono}) of multiplication by a monomial.
        """
        key = (mono, e)
        rows = self._mult.get(key)
        if rows is None:
            p = self.ring.p
            f = wdeg(mono, self.ring.weights)
            free = self._piece(e)[0]
            rows = [{} for _ in free]
            if free and self.dim(e + f):
                shifted = tuple(t + f for t in self.twists)
                cols = [{(b, mono): 1} for b in range(len(self.twists))]
                _, _, images = map_rows(self.ring, shifted, cols,
                                        self.twists, e + f)
                # project the images onto the basis of N_{e+f}
                proj = self._piece(e + f)[1]
                for row, j in zip(rows, free):
                    for c, v in images[j].items():
                        for k, w in proj[c].items():
                            row[k] = row.get(k, 0) + v * w
                rows = [{k: r for k, a in row.items() if (r := a % p)}
                        for row in rows]
            self._mult[key] = rows
        return rows
