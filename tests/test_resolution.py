"""Resolutions: exactness, minimality, Betti tables, depth."""

import gc
import weakref
from collections import Counter

import pytest

import oracle
from homlab import (
    BettiTable,
    GradedModule,
    ResourceCapError,
    ZeroModuleError,
    ambient_restriction,
    betti_table,
    complexity_estimate,
    depth,
    ext,
    minimal_resolution,
    module_from_json,
    parse_ring,
    pd_ambient,
    periodicity_isomorphism_check,
    residue_field_of,
    syzygy,
    tor,
)
from homlab import linalg, resolution
from homlab.groebner import edeg, kernel_of_map, minimal_generators
from homlab.harness import random_module

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")
Z3 = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2")
# artinian, but no monomial ideal: products leave the standard monomials
NM = parse_ring("p=32003; vars x,y,z; ci: x^2-y*z, y^2-x*z, z^2")
WT = parse_ring("p=32003; vars x:1,y:2; ci: x^4, y^2")
# positive-dimensional: resolved in the Eisenbud-Shamash window
XYZ = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2")
WT3 = parse_ring("p=32003; vars x:1,y:2,z:1; ci: x^2, y^2")
NM3 = parse_ring("p=32003; vars x,y,z; ci: x^2-y*z, x*y")


def _compose(cols2, cols1, p):
    out = []
    for col in cols2:
        acc = {}
        for (pos, m), c in col.items():
            for (q, mm), cc in cols1[pos].items():
                key = (q, tuple(a + b for a, b in zip(m, mm)))
                acc[key] = (acc.get(key, 0) + c * cc) % p
        out.append({k: v for k, v in acc.items() if v})
    return out


@pytest.mark.parametrize("ring,seed", [(XY, 1), (SQ, 2), (Z3, 3), (NM, 4)],
                         ids=["xy", "sq", "z3", "nm"])
def test_d_compose_d_is_zero_mod_ideal(ring, seed):
    M = random_module(ring, seed)
    res = minimal_resolution(M, 6)
    for n in range(2, 7):
        if not res.twist_list(n):
            break
        z = _compose(res.differential(n), res.differential(n - 1), ring.p)
        for el in z:
            # composition lands in I * (free module)
            assert not el or oracle.membership(
                ring, res.twist_list(n - 2), [], el
            )


@pytest.mark.parametrize("ring,seed", [(XY, 1), (SQ, 2), (Z3, 3), (NM, 4)],
                         ids=["xy", "sq", "z3", "nm"])
def test_resolution_exact_and_minimal_by_oracle(ring, seed):
    M = random_module(ring, seed)
    res = minimal_resolution(M, 5)
    tw_all = [t for n in range(6) for t in res.twist_list(n)]
    dmax = max(tw_all) + (ring.top_degree() or 4)
    exact, minimal = oracle.resolution_exact_and_minimal(ring, res, 5, dmax)
    assert exact and minimal


@pytest.mark.parametrize("ring,top", [
    (SQ, 8), (WT, 8), (Z3, 6), (NM, 6),
    (XY, 8), (XYZ, 8), (WT3, 8), (NM3, 8),
], ids=["sq", "weighted", "z3", "nm", "xy", "xyz-sq", "weighted3", "nm3"])
def test_linear_algebra_steps_match_buchberger(ring, top):
    """Over a quotient ring every step past the first is linear algebra;
    Buchberger's kernel of the same differential has the same minimal
    generator degrees."""
    for seed in range(25):
        M = random_module(ring, seed)
        res = minimal_resolution(M, top)
        for n in range(1, top):
            src = res.twist_list(n)
            if not src:
                break
            kern = kernel_of_map(res.differential(n), ring, src,
                                 res.twist_list(n - 1))
            mins = minimal_generators(kern, ring, len(src), src)
            assert Counter(edeg(c, src, ring.weights) for c in mins) == \
                Counter(res.twist_list(n + 1)), (seed, n)


def test_linear_algebra_step_cell_cap(monkeypatch):
    """One degree's matrix over the cell cap raises ResourceCapError, on
    artinian and positive-dimensional rings alike."""
    monkeypatch.setattr(linalg, "CELL_CAP", 4)
    for ring in (SQ, XY):
        with pytest.raises(ResourceCapError) as err:
            minimal_resolution(GradedModule.residue_field(ring), 3)
        assert err.value.cap_name == "cell_cap"


@pytest.mark.parametrize("ring", [SQ, NM, XY, XYZ, WT3, NM3],
                         ids=["sq", "nm", "xy", "xyz-sq", "weighted3", "nm3"])
def test_quotient_steps_run_no_buchberger(ring, monkeypatch):
    """Past step 0, and once the ambient resolution that bounds the window
    exists, a resolution over a quotient ring runs no Groebner kernel."""
    for seed in range(6):
        M = random_module(ring, seed)
        minimal_resolution(M, 1)
        pd_ambient(M)
        with monkeypatch.context() as mp:
            _forbid_buchberger(mp)
            minimal_resolution(M, 12)


@pytest.mark.parametrize("ring", [XY, XYZ, NM3], ids=["xy", "xyz-sq", "nm3"])
def test_window_one_degree_lower_changes_betti(ring, monkeypatch):
    """The Eisenbud-Shamash window is tight enough to matter: one degree
    lower, some module loses generators, so the Buchberger comparison
    above can fail.  (Over the weighted ring these modules leave the
    bound two degrees of slack, so one degree lower changes nothing.)"""
    want = [betti_table(random_module(ring, seed), 6).entries
            for seed in range(8)]
    top = resolution.FreeResolution._top
    monkeypatch.setattr(resolution.FreeResolution, "_top",
                        lambda self, n: top(self, n) - 1)
    got = [betti_table(random_module(ring, seed), 6).entries
           for seed in range(8)]
    assert got != want


def _uncounted(monkeypatch):
    """Make every linear-algebra step eliminate in every degree."""
    full = linalg.minimal_kernel
    monkeypatch.setattr(linalg, "minimal_kernel",
                        lambda *args, image_dims=None: full(*args))


def _family_steps(ring, seed):
    """Steps to 8 of a module, of its twist and of its second syzygy; the
    copies are taken at step 4, so they compute steps of their own from
    the copied kernel dimensions."""
    M = random_module(ring, seed)
    minimal_resolution(M, 4)
    T, S = M.twisted(1), syzygy(M, 2)
    out = [minimal_resolution(X, 8) for X in (M, T, S)]
    return [(_steps(res, 8), res.kernel_dims) for res in out]


@pytest.mark.parametrize("ring", [SQ, NM, XY, XYZ, WT3, NM3],
                         ids=["sq", "nm", "xy", "xyz-sq", "weighted3", "nm3"])
def test_counted_steps_match_full_elimination(ring, monkeypatch):
    """Counting ker_e by exactness changes no column and no twist: the
    steps of a module and of its twisted and syzygy copies equal those of
    a run that eliminates in every degree, and so do the kernel dims."""
    for seed in range(3):
        counted = _family_steps(ring, seed)
        with monkeypatch.context() as mp:
            _uncounted(mp)
            full = _family_steps(ring, seed)
        assert counted == full, (ring.key(), seed)


@pytest.mark.parametrize("delta", [1, -1])
def test_perturbed_count_raises(delta):
    """The count is checked where a degree still eliminates.  Over
    x^2,y^2, d_3 of k has its kernel's new generators in degree 4, and a
    target off by one there fails: one more than the kernel is never
    reached, one less is reached neither by U_4 (it misses all five new
    generators) nor by the elimination."""
    k = GradedModule.residue_field(SQ)
    res = minimal_resolution(k, 4)
    args = (res.differential(3), SQ, res.twist_list(3), res.twist_list(2),
            res._top(3))
    image_dims = res.kernel_dims[2]
    assert 4 in image_dims and res.twist_list(4) == (4,) * 5
    gens, dims = linalg.minimal_kernel(*args, image_dims=image_dims)
    assert dims == res.kernel_dims[3] and len(gens) == 5
    # the image dimension moves against the target
    with pytest.raises(AssertionError, match="exactness"):
        linalg.minimal_kernel(*args, image_dims={
            **image_dims, 4: image_dims[4] - delta})


def test_counted_steps_eliminate_only_at_new_generators(monkeypatch):
    """Resolving k over x^2,y^2 to step 10 eliminates in every degree of
    step 1's window, and past step 1 only in degrees that hold new
    generators."""
    # fill the ring's piece caches first: their rref also calls _reduce
    minimal_resolution(GradedModule.residue_field(SQ), 10)
    calls = []
    kernel, reduce = linalg.minimal_kernel, linalg._reduce

    def counted_kernel(cols, ring, src, tgt, top, image_dims=None):
        calls.append([range(min(src), top + 1), 0, src])
        gens, dims = kernel(cols, ring, src, tgt, top, image_dims=image_dims)
        calls[-1].append({edeg(g, src, ring.weights) for g in gens})
        return gens, dims

    def counted_reduce(*args, **kw):
        calls[-1][1] += 1
        return reduce(*args, **kw)

    monkeypatch.setattr(linalg, "minimal_kernel", counted_kernel)
    monkeypatch.setattr(linalg, "_reduce", counted_reduce)
    minimal_resolution(GradedModule.residue_field(SQ), 10)
    assert len(calls) == 9   # steps 1..9 give F_2..F_10
    window, eliminations, _, _ = calls[0]
    assert eliminations == len(window)
    for window, eliminations, src, new_degrees in calls[1:]:
        assert eliminations == len(new_degrees) < len(window), src


def test_resolution_resolves_the_module():
    """H_0 of the resolution equals M: Hilbert functions agree (oracle)."""
    M = random_module(SQ, 4)
    res = minimal_resolution(M, 2)
    for d in range(8):
        assert M.hilbert_function(d) == oracle.module_piece_dim(
            SQ, M.twists, list(M.relations), d
        )


def test_hilbert_euler_identity():
    """dim M_d = sum (-1)^i dim (F_i)_d once twists outgrow d."""
    M = random_module(Z3, 5)
    res = minimal_resolution(M, 12)
    for d in range(7):
        total = 0
        for n in range(13):
            tw = res.twist_list(n)
            if tw and min(tw) > d:
                break
            total += (-1) ** n * sum(Z3.hilbert(d - t) for t in tw)
        assert M.hilbert_function(d) == total


def test_betti_known_families():
    k2 = GradedModule.residue_field(SQ)
    assert betti_table(k2, 10).totals == [n + 1 for n in range(11)]
    Ax = GradedModule.cyclic(XY, ["x"])
    assert betti_table(Ax, 10).totals == [1] * 11
    k3 = GradedModule.residue_field(Z3)
    assert betti_table(k3, 8).totals == \
        [(n + 1) * (n + 2) // 2 for n in range(9)]


def test_betti_graded_entries_paper_pair():
    Ax = GradedModule.cyclic(XY, ["x"])
    bt = betti_table(Ax, 6)
    assert all(bt.entries.get((n, n), 0) == 1 for n in range(7))


def test_free_module_resolution_stops():
    F = GradedModule.free(SQ, [0, 2])
    res = minimal_resolution(F, 5)
    assert res.twist_list(0) == (0, 2)
    assert all(not res.twist_list(n) for n in range(1, 6))


def test_syzygy_module():
    k = GradedModule.residue_field(SQ)
    s1 = syzygy(k, 1)
    assert list(s1.twists) == [1, 1]
    assert betti_table(s1, 5).totals == [2, 3, 4, 5, 6, 7]


def test_depth_and_pd_ambient():
    assert depth(GradedModule.cyclic(XY, ["x"])) == 1      # MCM over dim 1
    assert depth(GradedModule.residue_field(XY)) == 0
    assert depth(GradedModule.free(SQ, [0])) == 0          # artinian ring
    amb = ambient_restriction(GradedModule.residue_field(Z3))
    assert pd_ambient(GradedModule.residue_field(Z3)) == 3
    assert amb.ring.is_ambient
    # artinian: depth 0 and resolution steps without the ambient
    # resolution, as Auslander-Buchsbaum over the ambient ring confirms
    for seed in range(6):
        M = random_module(SQ, seed)
        if not M.is_zero:
            assert depth(M) == 0
            assert minimal_resolution(M, 4)._ambient is None
            assert SQ.nvars - pd_ambient(M) == 0
            assert M._res._ambient.ring.is_ambient


def test_depth_of_zero_module_rejected():
    zero = GradedModule.present(XY, [0], [{(0, (0, 0)): 1}])
    assert zero.is_zero
    with pytest.raises(ZeroModuleError):
        depth(zero)


def test_module_json_roundtrip():
    M = random_module(Z3, 6)
    back = module_from_json(Z3, M.to_json())
    assert back.twists == M.twists
    assert [sorted(c.items()) for c in back.relations] == \
        [sorted(c.items()) for c in M.relations]


def test_twisted_shifts_hilbert():
    M = random_module(SQ, 3)
    T = M.twisted(2)
    for d in range(6):
        assert T.hilbert_function(d) == M.hilbert_function(d - 2)


def _steps(res, bound):
    return ([res.twist_list(n) for n in range(bound + 1)],
            [res.differential(n) for n in range(1, bound + 1)])


def _boom(*args, **kw):
    raise AssertionError("forbidden step was computed")


def _forbid_buchberger(monkeypatch):
    monkeypatch.setattr(resolution, "kernel_of_map", _boom)
    monkeypatch.setattr(resolution, "minimal_generators", _boom)


def _forbid_steps(monkeypatch):
    """Make every resolution step fail: Buchberger and linear algebra."""
    _forbid_buchberger(monkeypatch)
    monkeypatch.setattr(linalg, "minimal_kernel", _boom)


@pytest.mark.parametrize("ring", [SQ, XY], ids=["sq", "xy"])
@pytest.mark.parametrize("s", [-1, 2])
def test_twisted_resolution_is_copied_shift(ring, s, monkeypatch):
    """A twist of a resolved module copies its resolution, shifted, and the
    copy equals the resolution of the twisted presentation from scratch."""
    for seed in range(4):
        M = random_module(ring, seed)
        minimal_resolution(M, 8)
        T = M.twisted(s)
        # the same presentation, as a module that owns no resolution yet
        scratch = GradedModule(ring, T.twists, T.relations, _minimal=True)
        fresh = minimal_resolution(scratch, 10)
        with monkeypatch.context() as mp:
            _forbid_steps(mp)
            copied = _steps(minimal_resolution(T, 8), 8)
        assert copied == _steps(fresh, 8), (seed, s)
        # past the copy, extend() goes on with the steps a from-scratch
        # run takes
        assert _steps(minimal_resolution(T, 10), 10) == _steps(fresh, 10)
        # twisting a module never resolved resolves it from scratch
        U = random_module(ring, seed).twisted(s)
        assert U._res is None
        assert _steps(minimal_resolution(U, 8), 8) == _steps(fresh, 8)


@pytest.mark.parametrize("ring", [SQ, XY], ids=["sq", "xy"])
def test_syzygy_resolution_is_copied_tail(ring, monkeypatch):
    """Omega^n M is presented by d_{n+1} and resolved by the tail of M's
    resolution; it has the same homology as its minimal presentation."""
    k = residue_field_of(ring)
    A = GradedModule.free(ring)
    for seed, n in ((1, 1), (2, 2), (3, 2)):
        M = random_module(ring, seed)
        res = minimal_resolution(M, n + 4)
        snapshot = ([list(t) for t in res.twists], list(res.diffs))
        S = syzygy(M, n)
        assert S.twists == res.twist_list(n)
        assert S.relations == tuple(res.differential(n + 1))
        with monkeypatch.context() as mp:
            _forbid_steps(mp)
            head = minimal_resolution(S, 4)
        assert _steps(head, 4) == (
            [res.twist_list(n + j) for j in range(5)],
            [res.differential(n + j) for j in range(1, 5)])
        # past the copied prefix: M's twists, M's lists left alone
        minimal_resolution(S, 8)
        assert ([list(t) for t in res.twists], list(res.diffs)) == snapshot
        assert [S._res.twist_list(j) for j in range(9)] == \
            [minimal_resolution(M, n + 8).twist_list(n + j)
             for j in range(9)]
        P = GradedModule.present(ring, S.twists, S.relations)
        assert betti_table(S, 8).entries == betti_table(P, 8).entries
        for fn in (tor, ext):
            for N in (k, A):
                got, want = fn(S, N, (0, 5)), fn(P, N, (0, 5))
                assert got.dims == want.dims, (seed, n, fn.__name__)
                assert got.is_zero == want.is_zero, (seed, n, fn.__name__)


def test_presentation_is_minimalized():
    """A redundant generator/relation pair is spliced away."""
    # relation u = x*v makes the degree-1 generator u redundant
    M = GradedModule.present(
        XY, [1, 0],
        [{(0, (0, 0)): 1, (1, (1, 0)): 32002}],
    )
    assert len(M.twists) == 1 and not M.relations


def test_negative_step_refused():
    """F_{-1} is refused, not read from the end of the computed steps."""
    res = minimal_resolution(GradedModule.cyclic(XY, ["x"]), 9)
    with pytest.raises(IndexError):
        res.twist_list(-1)
    with pytest.raises(IndexError):
        periodicity_isomorphism_check(GradedModule.cyclic(XY, ["x"]), -1, 9)


def test_resolution_deterministic():
    a = minimal_resolution(random_module(Z3, 7), 6)
    b = minimal_resolution(random_module(Z3, 7), 6)
    for n in range(7):
        assert a.twist_list(n) == b.twist_list(n)
        if n:
            assert a.differential(n) == b.differential(n)


def test_resolved_module_freed_by_reference_counting():
    """A module and its resolutions form no reference cycle, so dropping
    the last reference frees them without the cyclic collector."""
    M = random_module(SQ, 2)
    minimal_resolution(M, 4)
    pd_ambient(M)  # builds the ambient resolution
    complexity_estimate(M)  # memoizes the estimate on M
    # memoizes verdicts (against k they are read off the Betti numbers
    # and not memoized, so the partner is one that builds the complex)
    ext(M, GradedModule.cyclic(SQ, ["x"]), (0, 3), dims=False)
    assert M._cx_estimate is not None and M._verdicts
    refs = [weakref.ref(M), weakref.ref(M._res),
            weakref.ref(M._res._ambient)]
    gc.disable()
    try:
        del M
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
