"""Minimal graded free resolutions, Betti tables, syzygies, depth.

A GradedModule is a finite graded presentation over a QuotientRing:
generator twists plus homogeneous relation columns.  Presentations are
minimalized on construction (scalar entries spliced away, redundant
relations dropped), and each resolution step takes minimal generators
of the kernel of the last differential, so the resolution is minimal
step by step.  Over a quotient ring every step past the presentation is
graded linear algebra (``linalg.minimal_kernel``, capped by
``linalg.CELL_CAP``) in a finite degree window: up to max twist plus
the ring's top degree on artinian rings, up to the Eisenbud-Shamash
bound otherwise.  Each such step keeps dim ker_e d_n over its window,
where im d_{n+1} = ker d_n exactly, so the next step counts its kernel
pieces by exactness and eliminates only where new generators live.
Over the ambient polynomial ring, which has no such window, a step is
Buchberger's syzygies followed by ``minimal_generators``; the S-pair
degree and pair caps bind that route, step 0 and kernel generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .errors import InhomogeneousError, ZeroModuleError
from .groebner import (
    edeg,
    elem_component,
    elem_sort_key,
    e_sub_scaled,
    kernel_of_map,
    minimal_generators,
    poly_to_elem,
    reduce_elem_mod_ideal,
)
from .ring import QuotientRing, pdeg, render_poly


def _splice_scalars(ring, twists, cols, p):
    """Remove generators hit by a unit relation entry (Gaussian splice).

    Homogeneity makes each splice a single elimination: a degree-0 entry
    of a homogeneous column is the entire component at that position.
    Pivot choice: lowest generator index, then lowest column index.
    """
    twists = list(twists)
    cols = [dict(c) for c in cols]
    zero = (0,) * ring.nvars
    while True:
        pivot = None
        for pos in range(len(twists)):
            for j, col in enumerate(cols):
                if (pos, zero) in col:
                    pivot = (pos, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pos, j = pivot
        pcol = cols[j]
        c = pcol[(pos, zero)]
        cinv = pow(c, p - 2, p)
        for i, col in enumerate(cols):
            if i == j:
                continue
            a = elem_component(col, pos)
            if a:
                # col -= (a / c) * pcol, killing the pos component
                for m, ac in a.items():
                    col = e_sub_scaled(col, pcol, m, (ac * cinv) % p, p)
                cols[i] = col
        del cols[j]
        del twists[pos]
        cols = [
            {(q - 1 if q > pos else q, m): v
             for (q, m), v in col.items() if q != pos}
            for col in cols
        ]
        cols = [c for c in cols if c]
    return twists, cols


class GradedModule:
    """Finite graded presentation of a module over a QuotientRing."""

    def __init__(self, ring: QuotientRing, twists, relations, name=None,
                 _minimal=False):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)
        self.relations = tuple(relations)
        self.pieces = linalg.GradedPieces(ring, self.twists, self.relations)
        self.name = name
        self._key = None  # memo of key()
        self._res = None
        # (kind, N.key()) -> {index: exact zero verdict};
        # read by homology._homology
        self._verdicts = {}
        # (bound, ComplexityEstimate); read by harness.complexity_estimate
        self._cx_estimate = None
        # FiniteLengthResult; read by homology.finite_length_test
        self._finite_length = None
        if not _minimal:
            raise ValueError("use GradedModule.present() to construct")

    @classmethod
    def present(cls, ring, twists, relations, name=None):
        """Minimal presentation of coker(relations)."""
        rels = []
        for col in relations:
            col = reduce_elem_mod_ideal(col, ring)
            if col:
                edeg(col, tuple(twists), ring.weights)
                rels.append(col)
        twists2, cols2 = _splice_scalars(ring, twists, rels, ring.p)
        cols2 = minimal_generators(cols2, ring, len(twists2), tuple(twists2))
        cols2.sort(key=lambda c: (edeg(c, tuple(twists2), ring.weights),
                                  elem_sort_key(c)))
        return cls(ring, twists2, cols2, name=name, _minimal=True)

    # -- standard constructions -------------------------------------------

    @classmethod
    def free(cls, ring, twists=(0,), name=None):
        return cls.present(ring, twists, (), name=name)

    @classmethod
    def residue_field(cls, ring, name="k"):
        """k = R / (all variables)."""
        rels = []
        for i in range(ring.nvars):
            mono = [0] * ring.nvars
            mono[i] = 1
            rels.append({(0, tuple(mono)): 1})
        return cls.present(ring, (0,), rels, name=name)

    @classmethod
    def cyclic(cls, ring, polys, name=None):
        """R / (polys) for homogeneous polynomials."""
        rels = []
        for g in polys:
            if isinstance(g, str):
                g = ring.parse(g)
            if pdeg(g, ring.weights) in (None, 0):
                raise InhomogeneousError(
                    "cyclic quotient needs homogeneous positive-degree polys"
                )
            rels.append(poly_to_elem(g))
        return cls.present(ring, (0,), rels, name=name)

    # -- basics ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.twists

    def hilbert_function(self, d):
        return self.pieces.dim(d)

    def twisted(self, s, name=None):
        """Same module with all generator degrees shifted up by s.

        If this module is resolved, the twist's resolution starts as a
        copy of it shifted by s.  Over a quotient ring a uniform shift
        changes no step (the degree window shifts with it), so the copy
        equals a from-scratch run.
        """
        T = GradedModule(
            self.ring,
            tuple(t + s for t in self.twists),
            tuple(self.relations),
            name=name or (f"{self.name}({-s})" if self.name else None),
            _minimal=True,
        )
        if self._res is not None:
            T._res = FreeResolution(T, source=self._res, shift=s)
        return T

    def key(self):
        if self._key is None:
            rels = tuple(elem_sort_key(c) for c in self.relations)
            self._key = (self.ring.key(), self.twists, rels)
        return self._key

    def describe(self):
        parts = [f"gens of degree {list(self.twists)}"]
        if self.relations:
            rel_strs = []
            for col in self.relations:
                comps = []
                for pos in range(len(self.twists)):
                    poly = elem_component(col, pos)
                    comps.append(
                        render_poly(poly, self.ring.names, self.ring.p,
                                    self.ring.weights) if poly else "0"
                    )
                rel_strs.append("(" + ", ".join(comps) + ")")
            parts.append("relations " + "; ".join(rel_strs))
        return ", ".join(parts)

    def to_json(self):
        cols = []
        for col in self.relations:
            cols.append([
                render_poly(elem_component(col, pos), self.ring.names,
                            self.ring.p, self.ring.weights)
                if elem_component(col, pos) else "0"
                for pos in range(len(self.twists))
            ])
        return {"twists": list(self.twists), "relations": cols,
                "name": self.name}

    def __repr__(self):
        nm = self.name or "module"
        return f"GradedModule<{nm}: {self.describe()}>"


def module_from_json(ring, data, name=None):
    try:
        twists = data["twists"]
    except (KeyError, TypeError) as exc:
        raise ValueError("JSON module spec needs 'twists'") from exc
    cols = []
    for col in data.get("relations", []):
        el = {}
        for pos, text in enumerate(col):
            poly = ring.parse(text) if isinstance(text, str) else text
            for m, c in poly.items():
                el[(pos, m)] = c
        cols.append(el)
    return GradedModule.present(ring, twists, cols,
                                name=name or data.get("name"))


# ---------------------------------------------------------------------------
# resolutions


class FreeResolution:
    """Truncated minimal graded free resolution.

    twists[n] lists the generator degrees of F_n; diffs[n] holds the
    columns of d_{n+1}: F_{n+1} -> F_n.  Once some F_n is zero the
    resolution is complete and extends by zero steps for free.  Step 0
    is `minimal_generators` of the module's relations.  Over a quotient
    ring every later step is `linalg.minimal_kernel` up to the degree
    `_top` allows; over the ambient polynomial ring it is
    `kernel_of_map` plus `minimal_generators`.  Either way the new
    columns are sorted by (degree, elem_sort_key).  `kernel_dims[n]`
    holds dim ker_e d_n over the window of a `minimal_kernel` step
    (None for the other routes); the next step reads it as the
    dimensions of the image of d_{n+1}.

    With `source`, the resolution starts from the steps `start`,
    `start + 1`, ... already computed in `source`, every twist shifted
    up by `shift`; the module must then be presented on F_start of
    `source` (shifted) by d_{start+1}.  Kernel dimensions are copied
    shifted too.  The differential columns are
    shared, not copied (no one mutates them), and `extend` goes on
    from the last copied step.

    The resolution over the ambient ring of the presentation it starts
    from (`ambient`) is computed on first need and kept here.
    """

    def __init__(self, module: GradedModule, source=None, start=0, shift=0):
        # The module's relations, not the module: the module owns its
        # resolution, and a back reference would make the pair a cycle.
        # extend() and ambient() read them with twists[0].
        self.ring = module.ring
        self.relations = module.relations
        self._ambient = None
        if source is None:
            self.twists = [tuple(module.twists)]
            self.diffs = []
            self.kernel_dims = []
        else:
            self.twists = [tuple(t + shift for t in tw)
                           for tw in source.twists[start:]]
            self.diffs = source.diffs[start:]
            self.kernel_dims = [
                None if dims is None else {e + shift: v
                                           for e, v in dims.items()}
                for dims in source.kernel_dims[start:]]

    @property
    def computed_to(self):
        return len(self.twists) - 1

    def betti(self, n):
        if n < 0:
            return 0
        if n >= len(self.twists):
            if self._finished():
                return 0
            raise IndexError(f"resolution not computed to step {n}")
        return len(self.twists[n])

    def twist_list(self, n):
        if n < 0:
            raise IndexError("resolution steps start at F_0")
        if n >= len(self.twists) and self._finished():
            return ()
        return self.twists[n]

    def differential(self, n):
        """Columns of d_n: F_n -> F_{n-1} (n >= 1)."""
        if n < 1:
            raise IndexError("differentials start at d_1")
        if n - 1 >= len(self.diffs) and self._finished():
            return []
        return self.diffs[n - 1]

    def _finished(self):
        return len(self.twists) > 1 and not self.twists[-1] or (
            len(self.twists) == 1 and not self.twists[0]
        )

    def ambient(self):
        """The complete minimal resolution over the ambient ring Q of
        coker(d_1) on F_0, computed once."""
        if self._ambient is None:
            start = GradedModule(self.ring, self.twists[0], self.relations,
                                 _minimal=True)
            self._ambient = minimal_resolution(ambient_restriction(start),
                                               self.ring.nvars + 1)
        return self._ambient

    def _top(self, n):
        """Largest degree a minimal generator of F_{n+1} can have.

        Over an artinian ring ker d_n lives in degrees up to max twist
        F_n + top degree.  Otherwise, by Shamash (1969) and Eisenbud
        (1980, section 7), the module has an A-free resolution with
        F_i = sum_j D_j (x) F^Q_{i-2j}, where F^Q = ``ambient()`` and
        the divided powers D_j have generators of degree at most
        j * max deg f; the minimal resolution is a graded summand of it.
        """
        top = self.ring.top_degree()
        if top is not None:
            return max(self.twists[n]) + top
        amb = self.ambient()
        fmax = max(pdeg(f, self.ring.weights) for f in self.ring.ci_generators)
        return max(max(amb.twist_list(m)) + (n + 1 - m) // 2 * fmax
                   for m in range(n + 1, -1, -2) if amb.twist_list(m))

    def extend(self, bound):
        """Compute twists and differentials up to homological degree bound."""
        while self.computed_to < bound:
            if self._finished():
                self.twists.append(())
                self.diffs.append([])
                self.kernel_dims.append(None)
                continue
            n = self.computed_to
            src_twists = self.twists[n]
            dims = None
            if n == 0:
                mins = minimal_generators(list(self.relations), self.ring,
                                          len(src_twists), src_twists)
            elif self.ring.is_ambient:
                kern = kernel_of_map(
                    self.diffs[n - 1], self.ring,
                    src_twists, self.twists[n - 1],
                )
                mins = minimal_generators(kern, self.ring, len(src_twists),
                                          src_twists)
            else:
                # im d_n = ker d_{n-1}, counted by the step before
                mins, dims = linalg.minimal_kernel(
                    self.diffs[n - 1], self.ring,
                    src_twists, self.twists[n - 1], self._top(n),
                    image_dims=self.kernel_dims[n - 1],
                )
            degs = [edeg(c, src_twists, self.ring.weights) for c in mins]
            order = sorted(range(len(mins)),
                           key=lambda j: (degs[j], elem_sort_key(mins[j])))
            self.twists.append(tuple(degs[j] for j in order))
            self.diffs.append([mins[j] for j in order])
            self.kernel_dims.append(dims)
        return self

    def shape(self, bound=None):
        top = bound if bound is not None else self.computed_to
        return [list(self.twist_list(n)) for n in range(top + 1)]


def minimal_resolution(module: GradedModule, bound: int) -> FreeResolution:
    """Minimal free resolution of the module up to homological degree bound.

    The resolution is kept on the module and extended on demand.  A
    module made by `twisted` or `syzygy` of a resolved module starts
    from steps copied out of that resolution; they are never computed
    again.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if module._res is None:
        module._res = FreeResolution(module)
    return module._res.extend(bound)


def syzygy(module: GradedModule, n: int) -> GradedModule:
    """The n-th syzygy module, presented by d_{n+1} on the twists of F_n.

    The columns of a minimal resolution are already a minimal
    presentation.  The syzygy's resolution starts as steps n, n+1, ...
    of the module's, which are not rerun.
    """
    if n < 0:
        raise ValueError("syzygy index must be >= 0")
    if n == 0:
        return module
    res = minimal_resolution(module, n + 1)
    twists = res.twist_list(n)
    if not twists:
        return GradedModule.present(module.ring, (), (),
                                    name=f"syz{n}({module.name})")
    S = GradedModule(module.ring, twists, res.differential(n + 1),
                     name=f"syz{n}({module.name or 'M'})", _minimal=True)
    S._res = FreeResolution(S, source=res, start=n)
    return S


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    entries: dict = field(default_factory=dict)  # (n, d) -> count
    totals: list = field(default_factory=list)

    @classmethod
    def from_resolution(cls, res: FreeResolution, bound=None):
        top = bound if bound is not None else res.computed_to
        entries = {}
        totals = []
        for n in range(top + 1):
            tl = res.twist_list(n)
            totals.append(len(tl))
            for d in tl:
                entries[(n, d)] = entries.get((n, d), 0) + 1
        return cls(entries=entries, totals=totals)

    def total(self, n):
        if 0 <= n < len(self.totals):
            return self.totals[n]
        return 0

    @property
    def top(self):
        return len(self.totals) - 1

    def to_json(self):
        graded = {}
        for (n, d), c in sorted(self.entries.items()):
            graded.setdefault(str(n), {})[str(d)] = c
        return {"totals": list(self.totals), "graded": graded}

    def render(self):
        """Macaulay-style grid: rows are d - n, columns homological degree."""
        if not self.entries:
            return "(zero module)"
        rows = sorted({d - n for (n, d) in self.entries})
        top = len(self.totals) - 1
        lines = []
        head = "      " + "".join(f"{n:>6}" for n in range(top + 1))
        lines.append(head)
        for r in range(min(rows), max(rows) + 1):
            cells = []
            for n in range(top + 1):
                c = self.entries.get((n, n + r), 0)
                cells.append(f"{c if c else '.':>6}")
            lines.append(f"{r:>5}:" + "".join(cells))
        lines.append("total:" + "".join(f"{t:>6}" for t in self.totals))
        return "\n".join(lines)


def betti_table(arg, bound=None) -> BettiTable:
    """Betti table of a resolution, or of a module resolved out to bound."""
    if isinstance(arg, GradedModule):
        if bound is None:
            raise ValueError("betti_table of a module needs an explicit bound")
        arg = minimal_resolution(arg, bound)
    return BettiTable.from_resolution(arg, bound=bound)


# ---------------------------------------------------------------------------
# depth and projective dimension


def ambient_restriction(module: GradedModule) -> GradedModule:
    """The same presentation read over the ambient polynomial ring.

    The quotient relations times each generator are appended, so the
    cokernel over the ambient ring is the restriction of scalars.
    """
    ring = module.ring
    ambient = ring.ambient()
    rels = [dict(c) for c in module.relations]
    for i in range(len(module.twists)):
        for g in ring.ci_generators:
            rels.append({(i, m): c for m, c in g.items()})
    return GradedModule.present(ambient, module.twists, rels,
                                name=f"{module.name or 'M'}|ambient")


def pd_ambient(module: GradedModule) -> int:
    """Projective dimension over the ambient polynomial ring (finite)."""
    if module.is_zero:
        raise ZeroModuleError("zero module has no projective dimension here")
    res = minimal_resolution(module, 0).ambient()
    pd = 0
    for n in range(res.computed_to + 1):
        if res.twist_list(n):
            pd = n
    if res.twist_list(res.computed_to):
        raise AssertionError("ambient resolution did not terminate")
    return pd


def depth(module: GradedModule) -> int:
    """Depth via the Auslander-Buchsbaum formula over the ambient ring.

    Over an artinian ring it is 0 without the ambient resolution: the
    maximal ideal is nilpotent, so it has no nonzerodivisor on a nonzero
    module.
    """
    if module.is_zero:
        raise ZeroModuleError("depth of the zero module is undefined")
    if module.ring.krull_dim == 0:
        return 0
    return module.ring.nvars - pd_ambient(module)
