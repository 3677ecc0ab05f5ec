"""Groebner engine: normal forms, membership, syzygies, kernels."""

import importlib
import random

import pytest

import oracle
from homlab import (
    GradedModule,
    ResourceCapError,
    groebner,
    kernel_of_map,
    minimal_generators,
    normal_form,
    parse_ring,
    syzygies,
)
from homlab.groebner import e_sub_scaled, edeg, elead, emul_term
from homlab.harness import random_module
from homlab.ring import mono_div, mono_divides, mono_lcm

XY = parse_ring("p=32003; vars x,y; ci: x*y")
SQ = parse_ring("p=32003; vars x,y; ci: x^2, y^2")
Z3 = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2")
CUBE = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2")

# the module itself: the package attribute `groebner` is the function
groebner_mod = importlib.import_module("homlab.groebner")


def _random_elem(ring, rng, twists, deg):
    """Random homogeneous element of degree deg in the free module."""
    out = {}
    for pos, t in enumerate(twists):
        for m in ring.monomials(deg - t):
            c = rng.randrange(ring.p)
            if c:
                out[(pos, m)] = c
    return out


def _random_combination(ring, rng, twists, gens, deg):
    """Random element of the submodule generated by gens, of degree deg."""
    out = {}
    for g in gens:
        gd = edeg(g, twists, ring.weights)
        monos = ring.monomials(deg - gd)
        if not monos:
            continue
        m = monos[rng.randrange(len(monos))]
        c = rng.randrange(1, ring.p)
        for t, v in emul_term(g, m, c, ring.p).items():
            out[t] = (out.get(t, 0) + v) % ring.p
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("ring", [XY, SQ, Z3], ids=["xy", "sq", "z3"])
def test_membership_agrees_with_oracle_100_random(ring):
    """NF == 0 iff the brute-force oracle sees the element in the span."""
    rng = random.Random(f"membership|{ring.key()}")
    checked = 0
    while checked < 100:
        M = random_module(ring, rng.randrange(10_000))
        if M.is_zero or not M.relations:
            continue
        gb = groebner(list(M.relations), ring, len(M.twists), M.twists)
        deg = rng.randrange(1, 5)
        if rng.random() < 0.5:
            el = _random_combination(ring, rng, M.twists, M.relations, deg)
        else:
            el = _random_elem(ring, rng, M.twists, deg)
        if not el:
            continue
        inside = not normal_form(el, gb)
        assert inside == oracle.membership(ring, M.twists, M.relations, el)
        checked += 1


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(11)
    M = random_module(SQ, 5)
    gb = groebner(list(M.relations), SQ, len(M.twists), M.twists)
    for _ in range(20):
        el = _random_elem(SQ, rng, M.twists, rng.randrange(1, 4))
        nf = normal_form(el, gb)
        assert normal_form(nf, gb) == nf


def test_groebner_deterministic():
    M = random_module(Z3, 2)
    a = groebner(list(M.relations), Z3, len(M.twists), M.twists)
    b = groebner(list(M.relations), Z3, len(M.twists), M.twists)
    assert [sorted(e.items()) for e in a.basis] == \
        [sorted(e.items()) for e in b.basis]


def test_syzygies_annihilate_generators():
    """Every syzygy column combines the generators to zero (mod ideal)."""
    for ring, seed in ((XY, 1), (SQ, 3), (Z3, 4)):
        M = random_module(ring, seed)
        if M.is_zero or not M.relations:
            continue
        gens = list(M.relations)
        syz = syzygies(gens, ring, len(M.twists), M.twists)
        assert syz, "expected at least one syzygy"
        for col in syz:
            acc = {}
            for (j, m), c in col.items():
                for t, v in emul_term(gens[j], m, c, ring.p).items():
                    acc[t] = (acc.get(t, 0) + v) % ring.p
            acc = {t: c for t, c in acc.items() if c}
            # the combination must lie in I * (free module)
            assert not acc or oracle.membership(ring, M.twists, [], acc)


def test_kernel_of_map_is_kernel():
    """kernel_of_map output maps to zero and catches oracle kernel vectors."""
    ring = SQ
    M = random_module(ring, 7)
    cols = list(M.relations)
    tw_src = tuple(edeg(c, M.twists, ring.weights) for c in cols)
    ker = kernel_of_map(cols, ring, tw_src, M.twists)
    for col in ker:
        img = {}
        for (j, m), c in col.items():
            for t, v in emul_term(cols[j], m, c, ring.p).items():
                img[t] = (img.get(t, 0) + v) % ring.p
        img = {t: c for t, c in img.items() if c}
        assert not img or oracle.membership(ring, M.twists, [], img)


def test_minimal_generators_irredundant():
    """No kept generator lies in the span of the others (oracle-checked)."""
    ring = Z3
    M = random_module(ring, 9)
    gens = list(M.relations)
    kept = minimal_generators(gens, ring, len(M.twists), M.twists)
    for i, g in enumerate(kept):
        others = [kept[j] for j in range(len(kept)) if j != i]
        assert not oracle.membership(ring, M.twists, others, g)


def test_minimal_generators_still_generate():
    ring = Z3
    M = random_module(ring, 9)
    gens = list(M.relations)
    kept = minimal_generators(gens, ring, len(M.twists), M.twists)
    for g in gens:
        assert oracle.membership(ring, M.twists, kept, g)


def test_product_criterion_not_applied_to_modules():
    """Two module elements with coprime lead monomials in the same slot
    still need their S-pair: dropping it once produced non-minimal
    resolutions.  The membership below fails on an incomplete basis."""
    ring = parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2").ambient()
    twists = (0, 1)
    g1 = {(0, (2, 0, 0)): 1, (1, (0, 1, 0)): 1}   # x^2 e0 + y e1
    g2 = {(0, (0, 2, 0)): 1, (1, (1, 0, 0)): 1}   # y^2 e0 + x e1
    gb = groebner([g1, g2], ring, 2, twists)
    # S-pair combination: y^2 g1 - x^2 g2 = y^3 e1 - x^3 e1
    el = {(1, (0, 3, 0)): 1, (1, (3, 0, 0)): ring.p - 1}
    assert oracle.membership(ring, twists, [g1, g2], el)
    assert not normal_form(el, gb)


def _random_submodule(ring, rng):
    """Twists and 2-4 sparse homogeneous generators of rank 2 or 3."""
    rank = rng.choice((2, 3))
    twists = tuple(rng.randrange(2) for _ in range(rank))
    gens = []
    want = rng.randrange(2, 5)
    while len(gens) < want:
        deg = rng.randrange(1, 4) + max(twists)
        g = {}
        for pos, t in enumerate(twists):
            monos = ring.monomials(deg - t)
            if monos and rng.random() < 0.7:
                for _ in range(rng.randrange(1, 3)):
                    g[(pos, rng.choice(monos))] = rng.randrange(1, ring.p)
        if g:
            gens.append(g)
    return twists, gens


def _s_pairs_reduce_to_zero(gb):
    """Buchberger's criterion on a returned basis."""
    p = gb.ring.p
    weights = gb.ring.weights
    for i, f in enumerate(gb.basis):
        (pf, mf), cf = elead(f, weights)
        for g in gb.basis[i + 1:]:
            (pg, mg), cg = elead(g, weights)
            if pf != pg:
                continue
            lcm = mono_lcm(mf, mg)
            s = e_sub_scaled(
                emul_term(f, mono_div(lcm, mf), pow(cf, p - 2, p), p),
                g, mono_div(lcm, mg), pow(cg, p - 2, p), p,
            )
            if normal_form(s, gb):
                return False
    return True


def _reducible(el, leads, skip=None):
    """Terms of el divisible by a lead term (other than leads[skip])
    at their position."""
    return [(pos, m) for (pos, m) in el
            for j, (pj, mj) in enumerate(leads)
            if j != skip and pj == pos and mono_divides(mj, m)]


@pytest.mark.parametrize("ring", [CUBE.ambient(), CUBE, XY],
                         ids=["xyz", "cube", "xy"])
def test_random_module_bases_are_groebner(ring):
    """Random rank-2/3 submodules: the returned basis is auto-reduced and
    every S-pair of it reduces to zero; normal forms are fully reduced,
    differ from their input by a member, and NF == 0 iff the oracle
    sees membership."""
    zero = (0,) * ring.nvars
    for seed in range(300):
        rng = random.Random(f"buchberger|{seed}")
        twists, gens = _random_submodule(ring, rng)
        gb = groebner(gens, ring, len(twists), twists)
        leads = [elead(f, ring.weights)[0] for f in gb.basis]
        for i, f in enumerate(gb.basis):
            assert not _reducible(f, leads, skip=i), seed
        assert _s_pairs_reduce_to_zero(gb), seed
        deg = rng.randrange(2, 6)
        if rng.random() < 0.5:
            el = _random_combination(ring, rng, twists, gens, deg)
        else:
            el = _random_elem(ring, rng, twists, deg)
        if el:
            nf = normal_form(el, gb)
            assert not _reducible(nf, leads), seed
            rest = e_sub_scaled(el, nf, zero, 1, ring.p)
            assert not rest or oracle.membership(ring, twists, gens, rest), seed
            assert (not nf) == oracle.membership(ring, twists, gens, el), seed


def test_degree_cap_raises_resource_error(monkeypatch):
    M = random_module(Z3, 2)
    monkeypatch.setattr(groebner_mod, "DEFAULT_DEGREE_CAP", 1)
    with pytest.raises(ResourceCapError) as err:
        groebner(list(M.relations), Z3, len(M.twists), M.twists)
    assert err.value.cap_name == "degree_cap"


def test_pair_cap_raises_resource_error(monkeypatch):
    M = random_module(Z3, 2)
    monkeypatch.setattr(groebner_mod, "DEFAULT_PAIR_CAP", 1)
    with pytest.raises(ResourceCapError) as err:
        syzygies(list(M.relations), Z3, len(M.twists), M.twists)
    assert err.value.cap_name == "pair_cap" and err.value.cap_value == 1
