"""Acceptance gate: one timed pass/fail line per criterion.

Run with plain `pytest -v`; capture is disabled in the project pytest
options so each criterion reports a single line like

    [PASS] paper-example (0.0s < 5s)
"""

import random
import sys
import time

import oracle
from homlab import (
    DEFAULT_CORPUS_RINGS,
    EvenGapError,
    GradedModule,
    betti_table,
    check_T31,
    complexity_estimate,
    corpus_sweep,
    eisenbud_operators,
    ext,
    ext_jump_check,
    length_identity_check,
    minimal_resolution,
    parse_ring,
    random_module,
    reduction_chain,
    reproduce_paper_example,
    residue_field_of,
    tor,
    verify_reduction,
)
from homlab.resolution import depth

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")


class _Criterion:
    """Context manager printing the single acceptance line."""

    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        over = self.limit is not None and dt >= self.limit
        verdict = "PASS" if exc_type is None and not over else "FAIL"
        budget = f" < {self.limit:.0f}s" if self.limit is not None else ""
        print(f"\n[{verdict}] {self.name} ({dt:.1f}s{budget})",
              file=sys.stderr, flush=True)
        if exc_type is None and over:
            raise AssertionError(
                f"{self.name} exceeded the {self.limit:.0f}s budget: {dt:.1f}s"
            )
        return False


def test_criterion_paper_example():
    with _Criterion("paper-example", 5.0):
        rep = reproduce_paper_example(top=20)
        assert rep["betti"] == [1] * 21
        M = GradedModule.cyclic(XY, ["x"], name="A/(x)")
        N = GradedModule.cyclic(XY, ["y"], name="A/(y)")
        t = tor(M, N, (0, 20))
        e = ext(M, N, (0, 20))
        for i in range(21):
            assert t.is_zero[i] == (i % 2 == 1 and i >= 1)
            assert e.is_zero[i] == (i % 2 == 0)


def test_criterion_even_gap():
    with _Criterion("even-gap-counterexample", 5.0):
        M = GradedModule.cyclic(XY, ["x"], name="A/(x)")
        N = GradedModule.cyclic(XY, ["y"], name="A/(y)")
        e = ext(M, N, (2, 4))
        assert e.is_zero[2] and e.is_zero[4] and not e.is_zero[3]
        try:
            check_T31(M, N, 2, 2)
            raise AssertionError("even q must be rejected")
        except EvenGapError:
            pass


def test_criterion_known_family_complexity():
    with _Criterion("known-family-complexity", 10.0):
        k = GradedModule.residue_field(SQ)
        assert complexity_estimate(k).value == 2
        assert betti_table(k, 15).totals == [n + 1 for n in range(16)]
        assert complexity_estimate(GradedModule.cyclic(XY, ["x"])).value == 1
        assert complexity_estimate(GradedModule.free(SQ, [0])).value == 0


def test_criterion_reduction_chains():
    with _Criterion("reduction-chain-certification", 30.0):
        k = GradedModule.residue_field(SQ)
        chain = reduction_chain(k, seed=0)
        assert len(chain.steps) == 2
        cxs = [2]
        for st in chain.steps:
            rep = st["report"]
            assert rep.ok and rep.flags["cx_drops_by_one"]
            assert rep.flags["depth_matches"]
            assert rep.flags["hilbert_additive"]
            cxs.append(complexity_estimate(st["push"].module).value)
        assert cxs == [2, 1, 0]
        Ax = GradedModule.cyclic(XY, ["x"], name="A/(x)")
        chain = reduction_chain(Ax, seed=0)
        assert len(chain.steps) == 1
        final = chain.final
        assert complexity_estimate(final).value == 0


def _chain_steps_slice():
    """Accepted chain steps of the default corpus slice."""
    out = []
    for ring, M in (
        (XY, GradedModule.cyclic(XY, ["x"], name="A/(x)")),
        (SQ, GradedModule.residue_field(SQ)),
        (SQ, random_module(SQ, 1)),
        (SQ, random_module(SQ, 3)),
    ):
        if M.is_zero or complexity_estimate(M).value == 0:
            continue
        for st in reduction_chain(M, seed=0).steps:
            out.append((ring, st["push"]))
    return out


def test_criterion_ext_jump():
    with _Criterion("ext-jump-isomorphism", 60.0):
        applicable = 0
        for ring, push in _chain_steps_slice():
            k = residue_field_of(ring)
            A = GradedModule.free(ring, [0], name="A")
            for N in (k, A):
                app, ok, details = ext_jump_check(push, N)
                if app:
                    applicable += 1
                    assert ok, (push.module.name, N.name, details)
        assert applicable >= 4


def test_criterion_theorem_sweep():
    with _Criterion("theorem-self-test-sweep", 900.0):
        swept = 0
        for spec in DEFAULT_CORPUS_RINGS:
            t0 = time.time()
            summary = corpus_sweep(rings=[spec], count=100, seed=0)
            print(f"\n  {spec}: {time.time() - t0:.2f}s, checks/hypotheses "
                  f"met {summary.checks_run}/{summary.hypotheses_met}",
                  file=sys.stderr, flush=True)
            assert summary.counterexamples == []
            assert summary.cx_violations == []
            assert summary.tor_symmetry_failures == []
            swept += summary.modules + summary.skipped
        assert swept == 400


def test_criterion_l34_length_identity():
    with _Criterion("l34-length-identity", 60.0):
        k = residue_field_of(XY)
        checked = 0
        seed = 0
        while checked < 20 and seed < 400:
            M = random_module(XY, seed)
            seed += 1
            if M.is_zero or complexity_estimate(M).value > 1:
                continue
            bnd = XY.krull_dim - depth(M)
            horizon = 2 * (bnd + 1) + 6
            assert length_identity_check(M, k, bnd, horizon)
            checked += 1
        assert checked == 20


def test_criterion_property_suites():
    with _Criterion("property-suites", None):
        rng = random.Random("acceptance-properties")
        rings = [XY, SQ,
                 parse_ring("p=32003; vars x,y,z; ci: x^2, y^2"),
                 parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2")]
        for ring in rings:
            k = residue_field_of(ring)
            for _ in range(3):
                M = random_module(ring, rng.randrange(100))
                if M.is_zero:
                    continue
                res = minimal_resolution(M, 4)
                dmax = max(
                    [t for n in range(5) for t in res.twist_list(n)] + [0]
                ) + (ring.top_degree() or 4)
                exact, minimal = oracle.resolution_exact_and_minimal(
                    ring, res, 4, dmax
                )
                assert exact and minimal
                bt = betti_table(M, 4)
                t = tor(M, k, (0, 4), exact=False)
                e = ext(M, k, (0, 4), exact=False)
                for n in range(5):
                    assert bt.total(n) == t.total_dim(n) == e.total_dim(n)
                for op in eisenbud_operators(M, 5):
                    assert op.verify()
