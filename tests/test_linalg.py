"""Linear algebra mod p, checked against Python integers and the oracle's
dense loop elimination, up to the largest supported characteristic, and
the multiplication maps of the graded-piece model.

The sparse reducer behind rank_mod, rref_mod and solve_mod takes dict rows
and dense rows alike; the randomized tests feed it both."""

import random

import oracle
from homlab.harness import random_module
from homlab.linalg import (
    GradedPieces,
    block_rows,
    free_basis,
    map_rows,
    rank_mod,
    ring_pieces,
    rref_mod,
    slot_entries,
    solve_mod,
)
from homlab.resolution import minimal_resolution
from homlab.ring import mono_mul, wdeg
from test_homology import ORACLE_RINGS

BIG = 2**31 - 1


def _random_matrix(rng, p, nrows, ncols, density=1.0):
    """Entries biased to p-1 and p-2, where int64 products are largest."""
    return [
        [rng.choice((p - 1, p - 2, rng.randrange(p)))
         if rng.random() < density else 0
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


PRIMES = (2, 7, 32003, BIG)


def _as_dicts(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _shapes(rng):
    """(nrows, ncols, density): sparse, dense, wide, tall and zero-row."""
    for _ in range(6):
        n = rng.randrange(1, 12)
        yield n, rng.randrange(1, 12), 0.15
        yield n, rng.randrange(1, 12), 1.0
        yield rng.randrange(1, 4), rng.randrange(12, 30), 0.5
        yield rng.randrange(12, 30), rng.randrange(1, 4), 0.5
        yield 0, n, 0.5


def _with_dependent_rows(rng, rows, p):
    """Append a few combinations of rows, so that ranks below full occur."""
    for _ in range(rng.randrange(3) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        c = rng.randrange(p)
        rows.append([(x + c * y) % p for x, y in zip(a, b)])
    return rows


def _compose(A, B, p):
    """Rows of A then B, as {column: value} rows with entries in [0, p)."""
    out = []
    for row in A:
        acc = {}
        for k, v in row.items():
            for j, w in B[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: r for j, a in acc.items() if (r := a % p)})
    return out


def _rows_are_products(pieces, M, mono, e, rows):
    """Row j of mult(mono, e) is the class of mono times basis vector j:
    the oracle finds their difference in the relation submodule."""
    ring = M.ring
    f = e + wdeg(mono, ring.weights)
    src, tgt = (free_basis(ring, M.twists, d) for d in (e, f))
    tgt_free = pieces._piece(f)[0]
    for j, row in zip(pieces._piece(e)[0], rows):
        pos, m = src[j]
        diff = {(pos, mono_mul(m, mono)): 1}
        for k, v in row.items():
            t = tgt[tgt_free[k]]
            diff[t] = diff.get(t, 0) - v
        diff = {t: c for t, c in diff.items() if c % ring.p}
        if diff and not oracle.membership(ring, M.twists, M.relations, diff):
            return False
    return True


def test_graded_pieces_mult_composes_and_matches_oracle_dims():
    """Multiplication maps between graded pieces of random modules, over
    the oracle rings (non-monomial ideal and p = 2^31 - 1 among them):
    entries lie in [0, p), multiplying by m1 then by m2 is multiplying
    by m1 * m2, each row is the class of the product, and every piece
    has the oracle's dimension."""
    rng = random.Random(6)
    for ring in ORACLE_RINGS:
        p = ring.p
        for seed in rng.sample(range(100), 2):
            M = random_module(ring, seed)
            if M.is_zero:
                continue
            pieces = GradedPieces(ring, M.twists, M.relations)
            lo = min(M.twists)
            for _ in range(6):
                m1, m2 = (tuple(rng.randrange(2) for _ in range(ring.nvars))
                          for _ in range(2))
                e = rng.randrange(lo, lo + 3)
                f = e + wdeg(m1, ring.weights)
                A, B = pieces.mult(m1, e), pieces.mult(m2, f)
                AB = pieces.mult(mono_mul(m1, m2), e)
                assert all(0 < v < p for rows in (A, B, AB)
                           for row in rows for v in row.values())
                assert _compose(A, B, p) == AB, (ring.key(), seed, m1, m2, e)
                assert _rows_are_products(pieces, M, m1, e, A)
                for d in (e, f, f + wdeg(m2, ring.weights)):
                    assert pieces.dim(d) == oracle.module_piece_dim(
                        ring, M.twists, M.relations, d)


def test_block_rows_over_ring_pieces_match_map_rows():
    """The identity minimal_kernel rests on: over an artinian ring the
    block rows of a differential, read from the ring's own cached
    multiplication matrices, are its map_rows images mod p, row for row
    and in the same coordinates.  Differentials of random resolutions
    over the artinian oracle rings (non-monomial ideal and
    p = 2^31 - 1 among them)."""
    rng = random.Random(7)
    for ring in ORACLE_RINGS:
        top = ring.top_degree()
        if top is None:
            continue
        p = ring.p
        pieces = ring_pieces(ring)
        assert ring_pieces(ring) is pieces
        for seed in rng.sample(range(100), 4):
            M = random_module(ring, seed)
            if M.is_zero:
                continue
            res = minimal_resolution(M, 4)
            for n in range(1, 5):
                cols = res.differential(n)
                src, tgt = res.twist_list(n), res.twist_list(n - 1)
                if not cols:
                    continue
                entries = slot_entries(cols)
                for d in range(min(src), max(src) + top + 1):
                    rows, ncols = block_rows(pieces, entries, src, tgt, d)
                    _, tgt_basis, want = map_rows(ring, src, cols, tgt, d)
                    assert ncols == len(tgt_basis)
                    got = [{j: r for j, v in row.items() if (r := v % p)}
                           for row in rows]
                    assert got == want, (ring.key(), seed, n, d)


def test_rank_mod_matches_loop_reference():
    rng = random.Random(1)
    for p in (2, 7, 32003, BIG):
        for _ in range(40):
            nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
            rows = _with_dependent_rows(
                rng, _random_matrix(rng, p, nrows, ncols, density=0.4), p)
            assert rank_mod(rows, p) == oracle.rank_mod(rows, p)
    assert rank_mod([[BIG - 1, BIG - 1], [BIG - 2, BIG - 2]], BIG) == 1


def test_solve_mod_solutions_check_in_python_ints():
    rng = random.Random(2)
    for p in (32003, BIG):
        for _ in range(20):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
            columns = _random_matrix(rng, p, ncols, nrows, density=0.6)
            x0 = [rng.randrange(p) for _ in range(ncols)]
            b = [sum(columns[j][i] * x0[j] for j in range(ncols)) % p
                 for i in range(nrows)]
            x = solve_mod(columns, b, p)
            assert x is not None
            assert [sum(columns[j][i] * x[j] for j in range(ncols)) % p
                    for i in range(nrows)] == b


def test_rank_mod_random_shapes_match_oracle():
    rng = random.Random(3)
    for p in PRIMES:
        for nrows, ncols, density in _shapes(rng):
            rows = _with_dependent_rows(
                rng, _random_matrix(rng, p, nrows, ncols, density), p)
            want = oracle.rank_mod(rows, p)
            assert rank_mod(rows, p) == want
            assert rank_mod(_as_dicts(rows), p) == want
            # entries outside [0, p) are read mod p
            shifted = [[v + p * rng.randrange(-3, 4) for v in row]
                       for row in rows]
            assert rank_mod(shifted, p) == want


def test_rref_mod_is_reduced_echelon_with_oracle_row_space():
    rng = random.Random(4)
    for p in PRIMES:
        for nrows, ncols, density in _shapes(rng):
            rows = _with_dependent_rows(
                rng, _random_matrix(rng, p, nrows, ncols, density), p)
            R, pivots = rref_mod(_as_dicts(rows), p)
            rank = oracle.rank_mod(rows, p)
            assert len(R) == len(pivots) == rank
            assert pivots == sorted(set(pivots))
            for row, c in zip(R, pivots):
                assert row[c] == 1 and min(row) == c
                assert all(0 < v < p for v in row.values())
                assert not any(j in row for j in pivots if j != c)
            dense = [[row.get(j, 0) for j in range(ncols)] for row in R]
            # R spans the row space: adding either set to the other
            # leaves the rank unchanged
            assert oracle.rank_mod(rows + dense, p) == rank
            assert rref_mod(rows, p) == (R, pivots)


def test_solve_mod_random_systems_in_python_ints():
    rng = random.Random(5)
    for p in PRIMES:
        for nrows, ncols, density in _shapes(rng):
            # columns of A; A is nrows x ncols
            columns = _random_matrix(rng, p, ncols, nrows, density)
            x0 = [rng.randrange(p) for _ in range(ncols)]
            b = [sum(columns[j][i] * x0[j] for j in range(ncols)) % p
                 for i in range(nrows)]
            for cols, rhs in ((columns, b),
                              (_as_dicts(columns), _as_dicts([b])[0])):
                x = solve_mod(cols, rhs, p)
                assert x is not None and len(x) == ncols
                assert all(0 <= v < p for v in x)
                assert [sum(columns[j][i] * x[j] for j in range(ncols)) % p
                        for i in range(nrows)] == b
            # a right-hand side outside the column space has no solution
            c = [rng.randrange(p) for _ in range(nrows)]
            rows = [[col[i] for col in columns] for i in range(nrows)]
            aug = [row + [v] for row, v in zip(rows, c)]
            solvable = oracle.rank_mod(aug, p) == oracle.rank_mod(rows, p)
            assert (solve_mod(columns, c, p) is not None) == solvable
    assert solve_mod([], [0, 0], 7) == []
    assert solve_mod([], [0, 3], 7) is None
