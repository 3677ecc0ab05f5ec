"""Graded polynomial arithmetic over a prime field and quotient-ring descriptors.

Polynomials are plain dicts mapping exponent tuples to nonzero coefficients
in [1, p).  The monomial order is degree-reverse-lexicographic throughout;
``drl_key`` produces a sort key that is larger for larger monomials.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import (
    InhomogeneousError,
    NotPrimeError,
    NotRegularSequenceError,
    RingParseError,
)

DEFAULT_CHARACTERISTIC = 32003

# The library computes in Python ints, with no overflow bound of its own;
# this is the envelope the test suite checks, against an int64 oracle
# whose products of two residues stay below 2^62.
MAX_CHARACTERISTIC = 2**31 - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """Arithmetic of the residue field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_CHARACTERISTIC):
        if not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if p > MAX_CHARACTERISTIC:
            raise NotPrimeError(
                f"characteristic {p} is too large: homlab supports "
                f"p < 2^31"
            )
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomials


def wdeg(mono, weights):
    return sum(e * w for e, w in zip(mono, weights))


@lru_cache(maxsize=1 << 20)
def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=1 << 20)
def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@lru_cache(maxsize=None)
def drl_key(mono, weights):
    """Sort key for degrevlex: bigger key = bigger monomial."""
    return (wdeg(mono, weights), tuple(-e for e in reversed(mono)))


# ---------------------------------------------------------------------------
# polynomials


def pzero():
    return {}


def pconst(c, nvars, p):
    c %= p
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def padd(a, b, p):
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pscale(a, c, p):
    c %= p
    if c == 0:
        return {}
    return {m: (c * v) % p for m, v in a.items()}


def pmul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def pdeg(a, weights):
    """Degree of a homogeneous polynomial; None for the zero polynomial.

    Raises InhomogeneousError when terms have unequal weighted degree.
    """
    deg = None
    for m in a:
        d = wdeg(m, weights)
        if deg is None:
            deg = d
        elif d != deg:
            raise InhomogeneousError(f"mixed degrees {deg} and {d}")
    return deg


# ---------------------------------------------------------------------------
# parsing and rendering


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise RingParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def parse_poly(text, names, p):
    """Parse +, -, *, ^ combinations of named variables and integers."""
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def parse_factor():
        t = peek()
        if t == "(":
            take()
            e = parse_expr()
            if peek() != ")":
                raise RingParseError(f"missing ')' in {text!r}")
            take()
            return e
        if isinstance(t, int):
            take()
            return pconst(t, nvars, p)
        if isinstance(t, str) and t in index:
            take()
            exp = 1
            if peek() == "^":
                take()
                e = take()
                if not isinstance(e, int):
                    raise RingParseError(f"bad exponent in {text!r}")
                exp = e
            mono = [0] * nvars
            mono[index[t]] = exp
            return {tuple(mono): 1}
        raise RingParseError(f"unknown token {t!r} in {text!r}")

    def parse_term():
        f = parse_factor()
        while peek() == "*":
            take()
            f = pmul(f, parse_factor(), p)
        return f

    def parse_expr():
        sign = 1
        if peek() in ("+", "-"):
            if take() == "-":
                sign = -1
        acc = pscale(parse_term(), sign, p)
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            acc = padd(acc, pscale(parse_term(), sign, p), p)
        return acc

    result = parse_expr()
    if pos != len(tokens):
        raise RingParseError(f"trailing tokens in {text!r}")
    return result


def render_poly(poly, names, p, weights=None):
    if not poly:
        return "0"
    if weights is None:
        weights = (1,) * len(names)
    monos = sorted(poly, key=lambda m: drl_key(m, weights), reverse=True)
    parts = []
    for m in monos:
        c = poly[m]
        neg = c > p // 2
        cc = p - c if neg else c
        factors = []
        if cc != 1 or not any(m):
            factors.append(str(cc))
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        term = "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# quotient rings


class QuotientRing:
    """Ambient graded polynomial ring modulo a complete-intersection ideal.

    ``ci_generators`` may be empty, in which case the ring is the ambient
    polynomial ring itself.  Construction verifies that the generators
    are homogeneous of positive degree and form a regular sequence.
    """

    def __init__(self, p, names, weights=None, ci_generators=()):
        self.field = PrimeField(p)
        self.p = self.field.p
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise RingParseError("duplicate variable names")
        if weights is None:
            weights = (1,) * len(self.names)
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != len(self.names):
            raise RingParseError("weight count does not match variable count")
        if any(w <= 0 for w in self.weights):
            raise RingParseError("variable weights must be positive")
        self.nvars = len(self.names)
        gens = []
        for g in ci_generators:
            if isinstance(g, str):
                g = parse_poly(g, self.names, self.p)
            d = pdeg(g, self.weights)
            if d is None:
                raise RingParseError("zero polynomial among quotient generators")
            if d <= 0:
                raise RingParseError("quotient generators must have positive degree")
            gens.append(dict(g))
        self.ci_generators = tuple(gens)
        self.codim = len(self.ci_generators)
        self.krull_dim = self.nvars - self.codim
        if self.krull_dim < 0:
            raise NotRegularSequenceError(
                "more generators than variables cannot be a regular sequence"
            )
        self._ambient = None
        self._ideal_gb = None
        self._std_cache = {}
        self._nf_cache = {}  # monomial -> its normal form
        self._mono_cache = {}
        self._top_degree = -1
        self._residue_field = None  # filled by harness.residue_field_of
        self._pieces = None  # filled by linalg.ring_pieces
        if self.codim:
            self._check_regular_sequence()

    # -- basics ------------------------------------------------------------

    @property
    def is_ambient(self):
        return self.codim == 0

    def ambient(self):
        """The ambient polynomial ring (no quotient relations)."""
        if self.codim == 0:
            return self
        if self._ambient is None:
            self._ambient = QuotientRing(self.p, self.names, self.weights, ())
        return self._ambient

    def key(self):
        return render_ring(self)

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.p == self.p
            and other.names == self.names
            and other.weights == self.weights
            and other.ci_generators == self.ci_generators
        )

    def __hash__(self):
        return hash((self.p, self.names, self.weights,
                     tuple(tuple(sorted(g.items())) for g in self.ci_generators)))

    def __repr__(self):
        return f"QuotientRing({self.key()!r})"

    def parse(self, text):
        return parse_poly(text, self.names, self.p)

    def render(self, poly):
        return render_poly(poly, self.names, self.p, self.weights)

    def _check_regular_sequence(self):
        """Compare the Hilbert series with HS(ambient) * prod(1 - t^deg f_j).

        The comparison runs past the sum of the generator degrees, which
        is where a failure of regularity first shows up.
        """
        degs = [pdeg(g, self.weights) for g in self.ci_generators]
        bound = sum(degs) + max(self.weights) + 2
        numer = [1] + [0] * bound  # coefficients of prod (1 - t^d_j)
        for dj in degs:
            for i in range(bound, dj - 1, -1):
                numer[i] -= numer[i - dj]
        for d in range(bound + 1):
            expected = sum(c * len(self.monomials(d - i))
                           for i, c in enumerate(numer[:d + 1]))
            if self.hilbert(d) != expected:
                raise NotRegularSequenceError(
                    "generators are not a regular sequence "
                    f"(Hilbert series deviates in degree {d})", degree=d)

    # -- ideal normal forms ------------------------------------------------

    def ideal_groebner(self):
        """Degrevlex Groebner basis of the quotient ideal over the ambient
        ring, as the finalized rank-one Buchberger state that the
        groebner reducer reads (items and lead-term lookup)."""
        if self._ideal_gb is None:
            from .groebner import DEFAULT_PAIR_CAP, _build_state, poly_to_elem

            gens = [poly_to_elem(g) for g in self.ci_generators]
            state, _ = _build_state(gens, self.ambient(), 1, (0,), False,
                                    10**9, DEFAULT_PAIR_CAP)
            state.finalize()
            self._ideal_gb = state
        return self._ideal_gb

    def nf(self, poly):
        """Canonical representative of a polynomial modulo the quotient ideal.

        Normal form is linear, so it is assembled from memoized normal
        forms of the single monomials of poly.
        """
        if self.codim == 0 or not poly:
            return poly
        p = self.p
        memo = self._nf_cache
        out = {}
        for m, c in poly.items():
            r = memo.get(m)
            if r is None:
                nf, _ = self.ideal_groebner().reduce_full({(0, m): 1})
                r = memo[m] = {mono: v for (_, mono), v in nf.items()}
            for m2, c2 in r.items():
                v = (out.get(m2, 0) + c * c2) % p
                if v:
                    out[m2] = v
                else:
                    out.pop(m2, None)
        return out

    # -- graded pieces -----------------------------------------------------

    def monomials(self, d):
        """All ambient monomials of weighted degree d."""
        if d < 0:
            return []
        if d not in self._mono_cache:
            self._mono_cache[d] = [
                m for m in _monomials_of_degree(self.weights, d)
            ]
        return self._mono_cache[d]

    def standard_monomials(self, d):
        """Monomials of degree d not divisible by a lead term of the ideal GB.

        These form a k-basis of the degree-d piece of the quotient ring.
        """
        if d < 0:
            return []
        if d not in self._std_cache:
            leads = [item.lt[1] for item in self.ideal_groebner().items]
            self._std_cache[d] = [
                m
                for m in self.monomials(d)
                if not any(mono_divides(lt, m) for lt in leads)
            ]
        return self._std_cache[d]

    def hilbert(self, d):
        return len(self.standard_monomials(d))

    def top_degree(self):
        """Largest degree carrying standard monomials, or None if dim > 0.

        Once max(weights) consecutive degrees are empty no later degree can
        be populated, so the scan below is exact for artinian quotients.
        """
        if self.krull_dim != 0:
            return None
        if self._top_degree < 0:
            d = top = gaps = 0
            maxw = max(self.weights)
            while gaps < maxw:
                if self.hilbert(d):
                    top, gaps = d, 0
                else:
                    gaps += 1
                d += 1
            self._top_degree = top
        return self._top_degree


@lru_cache(maxsize=None)
def _monomials_of_degree(weights, d):
    """Exponent tuples of weighted degree exactly d, in a fixed order."""
    n = len(weights)
    out = []

    def rec(i, rem, prefix):
        if i == n - 1:
            if rem % weights[i] == 0:
                out.append(prefix + (rem // weights[i],))
            return
        w = weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, prefix + (e,))

    if d >= 0:
        rec(0, d, ())
    return tuple(out)


# ---------------------------------------------------------------------------
# textual and JSON ring formats


def parse_ring(spec: str) -> QuotientRing:
    """Build a verified QuotientRing from its textual or JSON description.

    Text format: ``p=<prime>; vars <name[:weight]>,...; ci: <poly>,...``.
    JSON format: ``{"char": p, "vars": [...], "weights": [...], "ci": [...]}``.
    """
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            data = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise RingParseError(f"bad JSON ring spec: {exc}") from exc
        return ring_from_json(data)
    parts = [s.strip() for s in spec.split(";")]
    p = None
    names = []
    weights = []
    ci_texts = []
    seen_ci = False
    for part in parts:
        if not part:
            continue
        if part.startswith("p="):
            try:
                p = int(part[2:])
            except ValueError as exc:
                raise RingParseError(f"bad characteristic in {part!r}") from exc
        elif part.startswith("vars"):
            for v in part[4:].strip().split(","):
                v = v.strip()
                if not v:
                    continue
                if ":" in v:
                    name, w = v.split(":", 1)
                    names.append(name.strip())
                    try:
                        weights.append(int(w))
                    except ValueError as exc:
                        raise RingParseError(f"bad weight in {v!r}") from exc
                else:
                    names.append(v)
                    weights.append(1)
        elif part.startswith("ci:") or part == "ci":
            seen_ci = True
            body = part[3:] if part.startswith("ci:") else ""
            ci_texts = [s.strip() for s in body.split(",") if s.strip()]
        else:
            raise RingParseError(f"unrecognized ring clause {part!r}")
    if p is None:
        p = DEFAULT_CHARACTERISTIC
    if not names:
        raise RingParseError("ring spec names no variables")
    if not seen_ci:
        raise RingParseError("ring spec has no 'ci:' clause (may be empty)")
    return QuotientRing(p, names, weights, ci_texts)


def ring_from_json(data) -> QuotientRing:
    try:
        p = data["char"]
        names = data["vars"]
    except (KeyError, TypeError) as exc:
        raise RingParseError("JSON ring spec needs 'char' and 'vars'") from exc
    weights = data.get("weights")
    ci = data.get("ci", [])
    return QuotientRing(p, names, weights, ci)


def render_ring(ring: QuotientRing) -> str:
    vars_part = ", ".join(
        name if w == 1 else f"{name}:{w}"
        for name, w in zip(ring.names, ring.weights)
    )
    ci_part = ", ".join(ring.render(g) for g in ring.ci_generators)
    return f"p={ring.p}; vars {vars_part}; ci: {ci_part}".rstrip()


def ring_to_json(ring: QuotientRing) -> dict:
    return {
        "char": ring.p,
        "vars": list(ring.names),
        "weights": list(ring.weights),
        "ci": [ring.render(g) for g in ring.ci_generators],
    }
