"""Dense linear algebra mod p, checked against Python integers and the
oracle's loop elimination, up to the largest supported characteristic."""

import random

import numpy as np

import oracle
from homlab.linalg import matmul_mod, rank_mod, solve_mod

BIG = 2**31 - 1


def _random_matrix(rng, p, nrows, ncols, density=1.0):
    """Entries biased to p-1 and p-2, where int64 products are largest."""
    return [
        [rng.choice((p - 1, p - 2, rng.randrange(p)))
         if rng.random() < density else 0
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


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
            rows = _random_matrix(rng, p, nrows, ncols, density=0.4)
            # a few dependent rows, so that ranks below full occur
            for _ in range(rng.randrange(3)):
                a, b = rng.choice(rows), rng.choice(rows)
                c = rng.randrange(p)
                rows.append([(x + c * y) % p for x, y in zip(a, b)])
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
