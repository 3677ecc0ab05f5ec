"""Tor/Ext reports, zero certificates, finite length, socle."""

import os
import subprocess
import sys
import textwrap

import pytest

import oracle
from homlab import (
    GradedModule,
    eta,
    eta_power,
    ext,
    finite_length_test,
    k_eta,
    parse_ring,
    tor,
    tor_symmetry_check,
    verify_reduction,
)
from homlab.harness import (
    DEFAULT_CORPUS_RINGS,
    ext_jump_check,
    random_module,
    residue_field_of,
)
from homlab import homology
from homlab.homology import _CoveredComplex

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")
Z3 = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2")


def test_paper_pair_tor_parity():
    M = GradedModule.cyclic(XY, ["x"], name="A/(x)")
    N = GradedModule.cyclic(XY, ["y"], name="A/(y)")
    rep = tor(M, N, (0, 12))
    for i in range(13):
        assert rep.is_zero[i] == (i % 2 == 1 and i >= 1)


def test_paper_pair_ext_parity():
    M = GradedModule.cyclic(XY, ["x"], name="A/(x)")
    N = GradedModule.cyclic(XY, ["y"], name="A/(y)")
    rep = ext(M, N, (0, 12))
    for i in range(13):
        assert rep.is_zero[i] == (i % 2 == 0)


# The corpus rings, a non-monomial complete intersection (its normal
# forms are polynomials, not monomials or 0) and the largest supported
# characteristic.  Two-variable rings keep the window (hi 3, cap 12);
# three-variable rings get a short one to keep the oracle quick.
ORACLE_RINGS = [parse_ring(s) for s in DEFAULT_CORPUS_RINGS] + [
    parse_ring("p=32003; vars x,y; ci: x^2 - y^2, x*y"),
    parse_ring("p=2147483647; vars x,y; ci: x^2, y^2"),
]


@pytest.mark.parametrize("kind", ["Tor", "Ext"])
def test_homology_dims_match_oracle(kind):
    """Graded Tor/Ext dims and Hilbert functions recomputed by the
    brute-force oracle."""
    fn = tor if kind == "Tor" else ext
    for ring in ORACLE_RINGS:
        if ring.nvars >= 3:
            hi, cap = 2, (4 if ring.codim >= 3 else 5)
        else:
            hi, cap = 3, 12
        for seed in (4, 5, 7):
            M = random_module(ring, seed)
            N = random_module(ring, seed + 20)
            if M.is_zero or N.is_zero:
                continue
            for X in (M, N):
                for d in range(min(X.twists), cap + 1):
                    assert X.hilbert_function(d) == oracle.module_piece_dim(
                        ring, X.twists, X.relations, d)
            rep = fn(M, N, (0, hi), cap=cap, exact=False)
            cx = _CoveredComplex(M, N, hi, kind)
            for i in range(hi + 1):
                here = cx.space(i)
                if not here[0]:
                    assert not rep.dims.get(i)
                    continue
                outm = cx.out_map(i)
                inm = cx.in_map(i)
                want = {}
                for d in range(min(here[0]), cap + 1):
                    h = oracle.presented_homology_dim(
                        ring,
                        cx.space(outm[1]) if outm else None,
                        inm[0] if inm else None,
                        here,
                        outm[0] if outm else None,
                        cx.space(inm[1]) if inm else None,
                        d,
                    )
                    if h:
                        want[d] = h
                assert rep.dims.get(i, {}) == want, (kind, ring.key(), seed, i)


def _dense_block_rank(cx, src, tgt, d):
    """Oracle rank of the map src -> tgt in degree d, built as one dense
    block matrix from the multiplication maps of N's pieces."""
    rdims, cdims = cx.slot_dims(src, d), cx.slot_dims(tgt, d)
    roff = [sum(rdims[:a]) for a in range(len(rdims))]
    coff = [sum(cdims[:a]) for a in range(len(cdims))]
    A = [[0] * sum(cdims) for _ in range(sum(rdims))]
    for a, a_t, poly in cx.entries(max(src, tgt)):
        e = d - cx.shifts(src)[a]
        for m, c in poly.items():
            for r, mrow in enumerate(cx.N.pieces.mult(m, e)):
                assert r < rdims[a] and all(j < cdims[a_t] for j in mrow)
                for j, v in mrow.items():
                    A[roff[a] + r][coff[a_t] + j] += c * v
    return oracle.rank_mod(A, cx.ring.p)


@pytest.mark.parametrize("kind", ["Tor", "Ext"])
def test_block_rank_matches_dense_oracle(kind):
    """The sparse-row assembly and rank of every map equal the oracle
    rank of the dense block matrix, over the corpus rings."""
    for spec in DEFAULT_CORPUS_RINGS:
        ring = parse_ring(spec)
        for seed in (4, 5):
            M = random_module(ring, seed)
            N = random_module(ring, seed + 20)
            if M.is_zero or N.is_zero:
                continue
            cx = _CoveredComplex(M, N, 3, kind)
            for j in range(1, 4):
                src, tgt = (j, j - 1) if kind == "Tor" else (j - 1, j)
                lo = min(cx.cover(src) + cx.cover(tgt), default=0)
                for d in range(lo - 1, lo + 6):
                    assert cx._block_rank(src, tgt, d) == _dense_block_rank(
                        cx, src, tgt, d), (spec, seed, j, d)


def test_tor_zero_iff_dims_zero_artinian():
    """Over artinian rings is_zero agrees with the graded dimensions."""
    for seed in range(4):
        M = random_module(SQ, seed)
        N = random_module(SQ, seed + 31)
        if M.is_zero or N.is_zero:
            continue
        rep = tor(M, N, (0, 5), exact=True, dims=True)
        for i in range(6):
            assert rep.is_zero[i] == (not rep.dims.get(i))


@pytest.mark.parametrize("spec, seeds", [
    ("p=32003; vars x,y; ci: x*y", range(25, 33)),
    ("p=32003; vars x,y,z; ci: x^2, y^2", range(25, 28)),
], ids=["xy", "xyz-sq"])
def test_zero_verdicts_match_groebner_certificate(spec, seeds):
    """Over positive-dimensional rings the verdicts read off graded
    dimensions at the kernel-generator degrees equal the Groebner
    normal-form certificate, for k and a random partner."""
    ring = parse_ring(spec)
    for seed in seeds:
        M = random_module(ring, seed)
        for N in (residue_field_of(ring), random_module(ring, seed + 100)):
            for kind, fn in (("Tor", tor), ("Ext", ext)):
                rep = fn(M, N, (0, 5), dims=False)
                cx = _CoveredComplex(M, N, 5, kind)
                for i in range(6):
                    assert rep.is_zero[i] == oracle.groebner_zero_verdict(
                        cx, i), (kind, seed, i)


def test_library_runs_without_numpy():
    """homlab imports and computes Tor and Ext with numpy unavailable."""
    code = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        from homlab import GradedModule, ext, parse_ring, tor
        sq = parse_ring("p=32003; vars x,y; ci: x^2, y^2")
        xy = parse_ring("p=32003; vars x,y; ci: x*y")
        M = GradedModule.cyclic(sq, ["x"])
        rep = tor(M, GradedModule.residue_field(sq), (0, 3))
        assert not any(rep.is_zero.values())
        M, N = GradedModule.cyclic(xy, ["x"]), GradedModule.cyclic(xy, ["y"])
        rep = ext(M, N, (0, 3))
        assert [rep.is_zero[i] for i in range(4)] == [True, False] * 2
    """)
    src = os.path.dirname(os.path.dirname(homology.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_free_partner_shortcuts_are_exact():
    """Tor_i(M, free) = 0 and Ext^i(M, free) = 0 (Gorenstein artinian,
    dim A - depth M = 0) for i >= 1, and index 0 carries honest
    dimensions."""
    A = GradedModule.free(SQ, [0], name="A")
    M = random_module(SQ, 6)
    t = tor(M, A, (0, 8))
    e = ext(M, A, (0, 8))
    for i in range(1, 9):
        assert t.is_zero[i] and e.is_zero[i]
    # Tor_0(M, A) = M: same Hilbert function
    for d, v in t.dims[0].items():
        assert v == M.hilbert_function(d)


def test_tor_symmetry():
    for ring in (XY, SQ):
        M = random_module(ring, 8)
        N = random_module(ring, 9)
        if M.is_zero or N.is_zero:
            continue
        assert tor_symmetry_check(M, N, (0, 3))


def test_ext_nonsymmetric_report_fields():
    M = GradedModule.residue_field(SQ)
    rep = ext(M, M, (0, 3))
    assert rep.kind == "Ext" and rep.range == (0, 3)
    assert "Ext" in rep.strip()
    j = rep.to_json()
    assert set(j) >= {"kind", "range", "is_zero", "dims", "cap"}


def test_finite_length():
    k = GradedModule.residue_field(XY)
    r = finite_length_test(k)
    assert r.finite and r.length == 1 and r.top_degree == 0
    Ax = GradedModule.cyclic(XY, ["x"])
    assert not finite_length_test(Ax).finite
    A = GradedModule.free(SQ, [0])
    r = finite_length_test(A)
    assert r.finite and r.length == 4 and r.top_degree == 2


@pytest.mark.parametrize("ring", [XY, SQ], ids=["xy", "sq"])
def test_finite_length_memoized_on_module(ring, monkeypatch):
    """A second finite-length test of the same module runs no Groebner basis."""
    for N in (residue_field_of(ring), GradedModule.free(ring, [0]),
              GradedModule.cyclic(ring, ["x"])):
        first = finite_length_test(N)
        with monkeypatch.context() as mp:
            def boom(*args, **kw):
                raise AssertionError("finite-length test recomputed")

            mp.setattr(homology, "groebner", boom)
            assert finite_length_test(N) is first


def test_socle_dimension():
    """Artinian complete intersections are Gorenstein: one-dimensional
    socle, which sits in the top degree (oracle count)."""
    for ring in (SQ, Z3, ORACLE_RINGS[4]):   # [4]: x^2 - y^2, x*y
        assert oracle.socle_dimension(ring) == 1
        assert ring.hilbert(ring.top_degree()) == 1


def _ext_free_rule_vs_complex(ring, seeds, hi):
    """(seed, index, rule verdict, complex verdict) for Ext(M, A)."""
    A = GradedModule.free(ring, [0], name="A")
    out = []
    for seed in seeds:
        M = random_module(ring, seed)
        if M.is_zero:
            continue
        rep = ext(M, A, (0, hi), dims=False)
        cx = _CoveredComplex(M, A, hi, "Ext")
        out.extend((seed, i, rep.is_zero[i], homology._is_zero_at(cx, i))
                   for i in range(hi + 1))
    return out


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.key())
def test_ext_free_partner_rule_matches_complex(ring):
    """Ext^i(M, A) = 0 for i > dim A - depth M (graded local duality)
    gives the verdicts the covered complex gives."""
    hi = 4 if ring.nvars == 2 else 3
    for seed, i, rule, cx in _ext_free_rule_vs_complex(ring, range(6), hi):
        assert rule == cx, (seed, i)


def test_ext_free_partner_rule_fails_with_wrong_depth(monkeypatch):
    """With depth read one too high the rule calls a nonzero Ext^1(M, A)
    zero over xy, so the differential test above can fail."""
    real = homology.depth
    monkeypatch.setattr(homology, "depth", lambda M: real(M) + 1)
    assert any(i == 1 and rule != cx for _, i, rule, cx
               in _ext_free_rule_vs_complex(XY, range(6), 2))


def _zero_module(ring):
    return GradedModule.present(ring, [0], [{(0, (0,) * ring.nvars): 1}])


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.key())
def test_residue_field_rule_matches_complex(ring):
    """Tor and Ext against k and k(-2), read off the Betti numbers, give
    the covered complex's per-degree dims and verdicts, with the cap
    cutting off some nonzero degree."""
    lo, hi = (1, 3) if ring.nvars == 2 else (1, 2)
    k = residue_field_of(ring)
    modules = [_zero_module(ring)] + [random_module(ring, s)
                                      for s in (1, 4, 7)]
    cut = False
    for M in modules:
        for N in (k, k.twisted(2)):
            for kind, fn in (("Tor", tor), ("Ext", ext)):
                cap = N.twists[0] + (2 if kind == "Tor" else -2)
                rep = fn(M, N, (lo, hi), cap=cap)
                cx = _CoveredComplex(M, N, hi, kind)
                for i in range(lo, hi + 1):
                    dmin = min(cx.cover(i), default=0)
                    assert rep.dims[i] == homology._dims_at(
                        cx, i, range(dmin, cap + 1)), (kind, i)
                    assert rep.is_zero[i] == homology._is_zero_at(cx, i)
                    cut |= any(d > cap for d in homology._dims_at(
                        cx, i, range(dmin, cap + 10)))
    assert cut


def test_residue_field_detector():
    """The rule takes k(-t) however it was built, and nothing else."""
    XYZ = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2")
    kk = GradedModule.present(SQ, [0, 0], [
        {(b, m): 1} for b in (0, 1) for m in ((1, 0), (0, 1))])
    for N in (GradedModule.cyclic(XY, ["x"]), kk, GradedModule.free(SQ, [0]),
              GradedModule.cyclic(XYZ, ["x", "y"])):
        assert homology._residue_twist(N) is None, N
    assert homology._residue_twist(GradedModule.residue_field(XY)) == 0
    k3 = GradedModule.residue_field(Z3).twisted(3)
    assert homology._residue_twist(k3) == 3


def test_residue_field_rule_forced_on_other_partner_differs(monkeypatch):
    """Read off the Betti numbers against A/(x) over xy, Tor and Ext are
    wrong, so the differential test above can fail."""
    M = N = GradedModule.cyclic(XY, ["x"])
    want = [fn(M, N, (0, 3), cap=6).dims for fn in (tor, ext)]
    monkeypatch.setattr(homology, "_residue_twist", lambda N: 0)
    got = [fn(M, N, (0, 3), cap=6).dims for fn in (tor, ext)]
    assert got[0] != want[0] and got[1] != want[1]


@pytest.mark.parametrize("ring", [SQ, XY], ids=["sq", "xy"])
def test_residue_field_partner_builds_no_complex(ring, monkeypatch):
    """Every Tor/Ext against k, including those of verify_reduction and
    ext_jump_check, is read off the resolution, never a covered complex."""
    M = GradedModule.cyclic(ring, ["x"])
    k = residue_field_of(ring)
    push = k_eta(M, eta_power(eta(M, [1] * ring.codim, 4), 1))

    def boom(*args, **kw):
        raise AssertionError("covered complex built against k")

    monkeypatch.setattr(homology, "_CoveredComplex", boom)
    for fn in (tor, ext):
        for dims in (True, False):
            fn(M, k, (0, 6), dims=dims)
    assert verify_reduction(push).ok
    assert ext_jump_check(push, k)[0]


def test_homology_range_validation():
    """Bad ranges are refused for every partner, the free one too (its
    shortcut skips the complex, not the check)."""
    M = GradedModule.residue_field(SQ)
    A = GradedModule.free(SQ, [0], name="A")
    for N in (M, A):
        for fn in (tor, ext):
            for rng in ((3, 1), (-1, 2)):
                with pytest.raises(ValueError):
                    fn(M, N, rng)


def test_equal_rings_each_own_their_residue_field():
    spec = "p=32003; vars x,y; ci: x^2, y^2"
    r1, r2 = parse_ring(spec), parse_ring(spec)
    k1, k2 = residue_field_of(r1), residue_field_of(r2)
    assert k1.ring is r1 and k2.ring is r2
    assert residue_field_of(r1) is k1


def test_memoized_verdicts_keep_kind_and_partner_apart():
    """Exact tor/ext calls on one module over overlapping windows, with
    four partners, report what fresh modules asked once report."""
    # Against k and A the verdicts are read by rule and fill no memo; the
    # partners A/(x) and A/(x + y) build the complex and fill it.  A memo
    # keyed without the partner or without the kind answers one of their
    # calls wrongly.
    calls = [("Tor", "k", (2, 5)), ("Ext", "k", (1, 4)), ("Ext", "A", (3, 6)),
             ("Ext", "x", (1, 4)), ("Tor", "x", (2, 5)),
             ("Ext", "A", (0, 4)), ("Tor", "A", (0, 3)), ("Tor", "k", (0, 6)),
             ("Tor", "x+y", (0, 6)), ("Ext", "x+y", (0, 6)),
             ("Ext", "x", (0, 6)), ("Tor", "x", (0, 6)),
             ("Ext", "k", (0, 6)), ("Tor", "A", (1, 6))]
    for ring, seed in ((SQ, 3), (XY, 0)):
        partners = {"k": residue_field_of(ring),
                    "A": GradedModule.free(ring, [0], name="A"),
                    "x": GradedModule.cyclic(ring, ["x"], name="A/(x)"),
                    "x+y": GradedModule.cyclic(ring, ["x + y"])}
        M = random_module(ring, seed)
        for kind, name, rng in calls:
            fn = tor if kind == "Tor" else ext
            got = fn(M, partners[name], rng, dims=False)
            want = fn(random_module(ring, seed), partners[name], rng,
                      dims=False)
            assert got.is_zero == want.is_zero, (ring.key(), kind, name, rng)
            assert got.strip() == want.strip()
