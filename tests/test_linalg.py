"""Linear algebra mod p, checked against Python integers and the oracle's
dense loop elimination, up to the largest supported characteristic.

The sparse reducer behind rank_mod, rref_mod and solve_mod takes dict rows
and dense rows alike; the randomized tests feed it both."""

import random

import numpy as np

import oracle
from homlab.linalg import matmul_mod, rank_mod, rref_mod, solve_mod

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


def test_matmul_mod_matches_python_ints_at_largest_prime():
    rng = random.Random(0)
    for n, k, m in ((1, 1, 1), (3, 7, 2), (9, 40, 5), (4, 3, 11)):
        A = _random_matrix(rng, BIG, n, k)
        B = _random_matrix(rng, BIG, k, m)
        want = [[sum(A[i][t] * B[t][j] for t in range(k)) % BIG
                 for j in range(m)] for i in range(n)]
        got = matmul_mod(np.array(A, dtype=np.int64),
                         np.array(B, dtype=np.int64), BIG)
        assert got.tolist() == want


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
