"""Complexity estimates, theorem checkers, corpus, paper example."""

import json

import pytest

from homlab import (
    EvenGapError,
    GradedModule,
    WindowTooShortError,
    betti_table,
    check_L34,
    check_T31,
    check_T32,
    check_T35,
    check_T36,
    check_T37,
    check_T38,
    complexity_estimate,
    corpus_sweep,
    explore_condition,
    minimal_resolution,
    parse_ring,
    random_module,
    reproduce_paper_example,
    residue_field_of,
    tor,
)

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")
Z3 = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2")


# ---------------------------------------------------------------------------
# complexity


def test_cx_spec_examples():
    assert complexity_estimate(GradedModule.cyclic(XY, ["x"])).value == 1
    assert complexity_estimate(GradedModule.residue_field(SQ)).value == 2
    assert complexity_estimate(GradedModule.free(SQ, [0, 3])).value == 0
    assert complexity_estimate(GradedModule.residue_field(Z3)).value == 3


def test_cx_accepts_betti_table():
    bt = betti_table(GradedModule.residue_field(SQ), 12)
    est = complexity_estimate(bt)
    assert est.value == 2 and est.method == "polynomial-fit"


def test_cx_window_too_short():
    bt = betti_table(GradedModule.residue_field(SQ), 5)
    with pytest.raises(WindowTooShortError):
        complexity_estimate(bt)


def test_cx_methods_and_confidence():
    free = complexity_estimate(GradedModule.free(XY, [0]))
    assert free.method == "finite-pd" and free.confidence == "exact"
    per = complexity_estimate(GradedModule.cyclic(XY, ["x"]))
    assert per.method == "periodicity" and per.confidence == "fitted"


def test_artinian_betti_table_matches_tor_with_residue_field():
    """Betti tables come from M's own resolution; over artinian rings
    they must equal the graded dims of Tor(k, M), read with an exact cap:
    the tensor complex of k's F_0..F_8 with M lives below the largest
    twist of k's resolution plus M's largest twist plus the socle degree.
    """
    NM = parse_ring("p=32003; vars x,y; ci: x^2 - y^2, x*y")
    for ring in (SQ, Z3, NM):
        k = residue_field_of(ring)
        res = minimal_resolution(k, 8)
        max_u = max(max(res.twist_list(i)) for i in range(9))
        for seed in (0, 1, 2):
            M = random_module(ring, seed)
            if M.is_zero:
                continue
            cap = max_u + max(M.twists) + ring.top_degree()
            rep = tor(k, M, (0, 7), cap=cap, exact=False)
            want = {(n, d): v for n, dd in rep.dims.items()
                    for d, v in dd.items()}
            assert betti_table(M, 7).entries == want, (ring.key(), seed)


# ---------------------------------------------------------------------------
# checkers


def _paper_pair():
    return (GradedModule.cyclic(XY, ["x"], name="A/(x)"),
            GradedModule.cyclic(XY, ["y"], name="A/(y)"))


def test_t31_paper_pair_hypothesis_fails():
    M, N = _paper_pair()
    rep = check_T31(M, N, 2, 1)
    assert rep.inputs["indices"] == [2, 3]
    assert not rep.hypothesis_met and rep.conclusion_verified is None
    assert rep.status == "hypothesis-not-met"


def test_t31_mcm_against_ring_verified():
    M, _ = _paper_pair()
    A = GradedModule.free(XY, [0], name="A")
    rep = check_T31(M, A, 1, 1)
    assert rep.hypothesis_met and rep.conclusion_verified
    assert rep.horizon == 2 * 2 + 6


def test_even_gap_rejected_with_example_pointer():
    M, N = _paper_pair()
    with pytest.raises(EvenGapError) as err:
        check_T31(M, N, 2, 2)
    assert "even" in str(err.value)


def test_n_bound_enforced():
    M = GradedModule.residue_field(XY)  # depth 0, bound = 1 - 0 = 1
    with pytest.raises(ValueError):
        check_T31(M, M, 1, 1)


def test_t32_tor_side():
    M, N = _paper_pair()
    rep = check_T32(M, N, 1, 1)  # Tor vanishes at odd i; {1, 2} has Tor_2 != 0
    assert not rep.hypothesis_met


def test_l34_finite_length_required():
    M, N = _paper_pair()
    with pytest.raises(ValueError):
        check_L34(M, N, 2)  # N = A/(y) has infinite length


def test_l34_with_k_and_identity():
    M, _ = _paper_pair()
    k = residue_field_of(XY)
    rep = check_L34(M, k, 2)
    assert rep.theorem == "L3.4"
    assert not rep.hypothesis_met        # Ext^i(M,k) never vanishes (beta=1)
    assert "length_identity" in rep.details  # codim 1 ring


def test_t35_gorenstein_example():
    k = GradedModule.residue_field(SQ)
    A = GradedModule.free(SQ, [0], name="A")
    rep = check_T35(k, A, 1, 3)
    assert rep.inputs["indices"] == [1, 4]
    assert rep.hypothesis_met and rep.conclusion_verified


def test_t37_cx2_patterns():
    k = GradedModule.residue_field(SQ)
    A = GradedModule.free(SQ, [0], name="A")
    rep = check_T37(k, A, 1, 1, 3)
    assert rep.inputs["indices"] == [1, 2, 5]
    assert rep.hypothesis_met and rep.conclusion_verified
    rep = check_T37(k, k, 1, 1, 3)
    assert not rep.hypothesis_met  # beta_n(k) > 0 for all n
    with pytest.raises(EvenGapError):
        check_T37(k, A, 1, 2, 3)


def test_t37_requires_cx2():
    M = GradedModule.cyclic(XY, ["x"])
    with pytest.raises(ValueError):
        check_T37(M, M, 2, 1, 1)


def test_t38_runs():
    k = GradedModule.residue_field(SQ)
    A = GradedModule.free(SQ, [0], name="A")
    rep = check_T38(k, A, 1, 1, 1)
    assert rep.theorem == "T3.8"
    assert rep.hypothesis_met and rep.conclusion_verified


def test_condition_agrees_with_t31_when_c1(tmp_path):
    M, N = _paper_pair()
    t31 = check_T31(M, N, 2, 1)
    cond = explore_condition(M, N, 2, [1],
                             findings_path=str(tmp_path / "f.jsonl"))
    assert cond.hypothesis_met == t31.hypothesis_met
    assert cond.inputs["indices"] == t31.inputs["indices"]


def test_condition_agrees_with_t37_when_pattern_matches():
    k = GradedModule.residue_field(SQ)
    A = GradedModule.free(SQ, [0], name="A")
    t37 = check_T37(k, A, 1, 1, 3)
    cond = explore_condition(k, A, 1, [1, 3])
    assert cond.inputs["indices"] == t37.inputs["indices"]
    assert cond.hypothesis_met == t37.hypothesis_met
    assert cond.conclusion_verified == t37.conclusion_verified


def test_condition_never_fails_and_logs(tmp_path):
    path = tmp_path / "findings.jsonl"
    k = GradedModule.residue_field(SQ)
    rep = explore_condition(k, k, 1, [1, 1], findings_path=str(path))
    assert rep.theorem == "COND"
    # no counterexample here, so no findings written
    assert not path.exists() or not path.read_text().strip()


# ---------------------------------------------------------------------------
# corpus


def test_random_module_deterministic():
    a = random_module(XY, 5)
    b = random_module(XY, 5)
    assert a.twists == b.twists and list(a.relations) == list(b.relations)


def test_mini_sweep_clean():
    summary = corpus_sweep(
        rings=["p=32003; vars x,y; ci: x*y",
               "p=32003; vars x,y; ci: x^2, y^2"],
        count=4, seed=0,
    )
    assert summary.ok
    assert summary.counterexamples == []
    assert summary.cx_violations == []
    assert summary.tor_symmetry_failures == []
    assert summary.modules + summary.skipped == 8


def test_paper_example_report():
    rep = reproduce_paper_example()
    assert rep["betti"] == [1] * 21
    eg = rep["even_gap"]
    assert eg["pattern_vanishes"] and eg["ext3_nonzero"]
    assert eg["checker_rejects_even_gap"]
    # report is JSON-serializable
    json.dumps(rep)
