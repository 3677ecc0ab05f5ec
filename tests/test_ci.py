"""Cohomology operators, pushouts, reduction chains, periodicity."""

import dataclasses

import pytest

from homlab import (
    DecompositionError,
    GradedModule,
    decompose_in_ideal,
    eisenbud_operators,
    eta,
    eta_power,
    k_eta,
    minimal_resolution,
    parse_ring,
    periodicity_isomorphism_check,
    reduction_chain,
    verify_reduction,
)
from homlab.harness import complexity_estimate, random_module

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")


def test_decompose_in_ideal_roundtrip():
    f = SQ.parse("3*x^2*y + 5*y^3")
    qs = decompose_in_ideal(SQ, f)
    assert len(qs) == 2
    # recombine: sum q_j f_j == f
    acc = {}
    for q, g in zip(qs, SQ.ci_generators):
        for m, c in q.items():
            for mm, cc in g.items():
                key = tuple(a + b for a, b in zip(m, mm))
                acc[key] = (acc.get(key, 0) + c * cc) % SQ.p
    acc = {m: c for m, c in acc.items() if c}
    assert acc == f


def test_decompose_outside_ideal_fails():
    with pytest.raises(DecompositionError):
        decompose_in_ideal(SQ, SQ.parse("x*y"))


def test_eisenbud_operators_certify():
    """d o T = T o d mod the ideal, for every operator and level."""
    for ring, M in ((XY, GradedModule.cyclic(XY, ["x"])),
                    (SQ, GradedModule.residue_field(SQ))):
        ops = eisenbud_operators(M, 8)
        assert len(ops) == len(ring.ci_generators)
        for op in ops:
            assert op.shift == 2
            assert op.verify()


def test_verify_rejects_perturbed_operator():
    """The chain-map certificate can say no: one column off breaks d T = T d."""
    ops = eisenbud_operators(GradedModule.residue_field(SQ), 4)
    assert ops[0].verify()
    zero = (0,) * SQ.nvars
    cols = dict(ops[0].cols)
    cols[3] = [dict(cols[3][0])] + cols[3][1:]
    cols[3][0][(0, zero)] = (cols[3][0].get((0, zero), 0) + 1) % SQ.p
    bad = dataclasses.replace(ops[0], cols=cols)
    assert not bad.verify()


def test_eta_requires_matching_degrees():
    ring = parse_ring("p=32003; vars x,y; ci: x^2, y^3")
    M = GradedModule.residue_field(ring)
    with pytest.raises(ValueError):
        eta(M, [1, 1], 8)
    # a single generator is fine
    e = eta(M, [1, 0], 8)
    assert e.degree == 2


def test_eta_requires_nonzero_coefficient():
    M = GradedModule.residue_field(SQ)
    with pytest.raises(ValueError):
        eta(M, [0, 0], 8)


def test_eta_power_shift_and_degree():
    M = GradedModule.residue_field(SQ)
    e = eta(M, [1, 2], 10)
    sq = eta_power(e, 2)
    assert sq.shift == 4 and sq.degree == 2 * e.degree
    assert sq.verify()


def test_k_eta_ses_is_exact():
    M = GradedModule.residue_field(SQ)
    push = k_eta(M, eta_power(eta(M, [1, 2], 10), 1))
    assert push.t == 1 and push.degree == 2
    assert push.check_exact()
    # sub and quot are the stated outer terms of the sequence
    assert push.sub.twists == tuple(t + 2 for t in M.twists)
    assert push.quot.twists == minimal_resolution(M, 1).twist_list(1)


def test_verify_reduction_flags_spec_pair():
    M = GradedModule.residue_field(SQ)
    push = k_eta(M, eta_power(eta(M, [1, 1], 10), 1))
    rep = verify_reduction(push)
    assert rep.flags == {
        "cx_drops_by_one": True,
        "depth_matches": True,
        "hilbert_additive": True,
        "les_telescopes_ext": True,
        "les_telescopes_tor": True,
    }
    assert rep.ok


def test_misshifted_pushout_fails_certificates():
    """A sub term twisted one degree too far breaks additivity and the LES."""
    M = GradedModule.residue_field(SQ)
    push = k_eta(M, eta_power(eta(M, [1, 1], 2), 1))
    bad = dataclasses.replace(
        push, sub=M.twisted(push.t * push.degree + 1)
    )
    assert not bad.check_exact()
    flags = verify_reduction(bad).flags
    assert not flags["hilbert_additive"]
    assert not (flags["les_telescopes_ext"] and flags["les_telescopes_tor"])


def test_reduction_chain_hypersurface_one_step():
    Ax = GradedModule.cyclic(XY, ["x"], name="A/(x)")
    chain = reduction_chain(Ax, seed=0)
    assert len(chain.steps) == 1
    assert complexity_estimate(chain.final).value == 0


def test_reduction_chain_k_two_steps():
    k = GradedModule.residue_field(SQ)
    chain = reduction_chain(k, seed=0)
    assert len(chain.steps) == 2
    cxs = [complexity_estimate(k).value]
    for st in chain.steps:
        assert st["report"].ok
        cxs.append(complexity_estimate(st["push"].module).value)
    assert cxs == [2, 1, 0]


def test_reduction_chain_free_module_trivial():
    F = GradedModule.free(SQ, [0, 1])
    chain = reduction_chain(F, seed=0)
    assert chain.steps == [] and chain.final is F


def test_periodicity_cx1():
    Ax = GradedModule.cyclic(XY, ["x"], name="A/(x)")
    rep = periodicity_isomorphism_check(Ax, 2, 9)
    assert rep.ok


def test_periodicity_rejects_cx2():
    k = GradedModule.residue_field(SQ)
    with pytest.raises(ValueError):
        periodicity_isomorphism_check(k, 4, 12)


def test_chain_deterministic():
    k = GradedModule.residue_field(SQ)
    a = reduction_chain(k, seed=3)
    b = reduction_chain(GradedModule.residue_field(SQ), seed=3)
    assert [s["coeffs"] for s in a.steps] == [s["coeffs"] for s in b.steps]
