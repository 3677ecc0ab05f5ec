"""Ring layer: parsing, arithmetic, grading, CI verification."""

import random

import pytest

import oracle
from homlab import (
    NotPrimeError,
    NotRegularSequenceError,
    QuotientRing,
    RingParseError,
    parse_ring,
    render_ring,
    ring_from_json,
    ring_to_json,
)

XY = "p=32003; vars x,y; ci: x*y"
SQ = "p=32003; vars x,y; ci: x^2, y^2"


def test_parse_render_roundtrip():
    for text in (XY, SQ, "p=32003; vars x,y,z; ci: x^2, y^2, z^2"):
        ring = parse_ring(text)
        assert parse_ring(render_ring(ring)) == ring


def test_json_roundtrip():
    ring = parse_ring(SQ)
    assert ring_from_json(ring_to_json(ring)) == ring


def test_default_characteristic():
    ring = parse_ring("vars x,y; ci: x*y")
    assert ring.p == 32003


def test_nonprime_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        parse_ring("p=32004; vars x,y; ci: x*y")


def test_characteristic_beyond_int64_arithmetic_rejected():
    """Characteristics from 2^31 on lie outside the checked envelope."""
    with pytest.raises(NotPrimeError, match="2\\^31"):
        parse_ring("p=4294967311; vars x,y; ci: x*y")
    assert parse_ring("p=2147483647; vars x,y; ci: x*y").p == 2**31 - 1


def test_malformed_text_rejected():
    for bad in ("", "vars ; ci: x", "p=7; vars x; ci: x +"):
        with pytest.raises(RingParseError):
            parse_ring(bad)


def test_polynomial_arithmetic_mod_p():
    ring = parse_ring("p=7; vars x,y; ci: x*y")
    f = ring.parse("3*x^2 + 4*x^2")  # = 7 x^2 = 0 mod 7
    assert f == {}


def test_quotient_normal_form_kills_ideal():
    ring = parse_ring(XY)
    assert ring.nf(ring.parse("x*y")) == {}
    assert ring.nf(ring.parse("x^2*y + x")) == ring.parse("x")
    # random homogeneous polynomials: nf(f) is a combination of standard
    # monomials and f - nf(f) lies in the ideal (oracle row span)
    rng = random.Random(5)
    for text in ("p=32003; vars x,y; ci: x^2 - y^2, x*y",
                 "p=32003; vars x,y,z; ci: x^2, y^2, z^2"):
        ring = parse_ring(text)
        for _ in range(40):
            d = rng.randrange(6)
            f = {m: rng.randrange(1, ring.p) for m in ring.monomials(d)
                 if rng.random() < 0.6}
            nf = ring.nf(f)
            assert set(nf) <= set(ring.standard_monomials(d))
            _, index, rows = oracle.ideal_rows(ring, d)
            rest = oracle.poly_row(f, index, ring.p)
            for m, c in nf.items():
                rest[index[m]] = (rest[index[m]] - c) % ring.p
            assert oracle.in_rowspan(rows, rest, ring.p)


def test_hilbert_function_matches_oracle():
    for text in (XY, SQ, "p=32003; vars x,y,z; ci: x^2, y^2"):
        ring = parse_ring(text)
        for d in range(8):
            assert ring.hilbert(d) == oracle.ring_piece_dim(ring, d)


def test_hilbert_known_values():
    # [xy-ring: 1, 2, 2, 2, ...; x2y2-ring: 1, 2, 1, 0, ...]
    ring = parse_ring(XY)
    assert [ring.hilbert(d) for d in range(5)] == [1, 2, 2, 2, 2]
    ring = parse_ring(SQ)
    assert [ring.hilbert(d) for d in range(5)] == [1, 2, 1, 0, 0]


def test_top_degree():
    assert parse_ring(SQ).top_degree() == 2
    assert parse_ring("p=32003; vars x,y,z; ci: x^2, y^2, z^2").top_degree() == 3
    assert parse_ring(XY).top_degree() is None


def test_regular_sequence_accepted_and_rejected():
    assert parse_ring(SQ).codim == 2
    with pytest.raises(NotRegularSequenceError) as err:
        parse_ring("p=32003; vars x,y; ci: x*y, x^2")  # x^2 kills x mod xy
    # y^3 survives in degree 3, where a regular sequence of two quadrics
    # would leave the series (1 + t)^2 nothing
    assert err.value.degree == 3


def test_too_many_generators_rejected():
    with pytest.raises(NotRegularSequenceError):
        parse_ring("p=32003; vars x,y; ci: x^2, y^2, x*y")


def test_ring_equality_and_hash():
    a, b = parse_ring(XY), parse_ring(XY)
    assert a == b and hash(a) == hash(b)
    assert a != parse_ring(SQ)


def test_ambient_is_codim_zero():
    amb = parse_ring(XY).ambient()
    assert amb.is_ambient and amb.hilbert(3) == 4
