"""Command-line interface.

Module specifications (for ``--module`` and ``--against``) are compact
strings interpreted over the ring given by ``--ring``:

* ``k``                 the residue field
* ``ring`` / ``free``   the ring as a module (``free:0,1`` for more twists)
* ``cyclic:f1;f2``      the cyclic module cut out by the listed polynomials
* ``random:SEED``       the corpus generator's module for that seed
* ``syzygy:N:SPEC``     the N-th syzygy of another spec
* ``@path.json``        a module presentation stored as JSON

Exit codes: 0 clean, 1 usage error, 2 resource cap hit,
3 a theorem checker or sweep produced a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cioperators import eta, eta_power, k_eta, reduction_chain
from .errors import (
    HomlabError,
    ResourceCapError,
    RetriesExhaustedError,
    WindowTooShortError,
)
from .harness import (
    DEFAULT_CORPUS_RINGS,
    DEFAULT_CX_BOUND,
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
    random_module,
    reproduce_paper_example,
    residue_field_of,
)
from .homology import ext, tor
from .resolution import (
    GradedModule,
    betti_table,
    depth,
    minimal_resolution,
    module_from_json,
    syzygy,
)
from .ring import parse_ring

EXIT_CLEAN = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_COUNTEREXAMPLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


def parse_module(spec: str, ring) -> GradedModule:
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return module_from_json(ring, json.load(fh))
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    rest = rest.strip()
    if head == "k":
        return residue_field_of(ring)
    if head in ("ring", "free"):
        twists = [int(t) for t in rest.split(",")] if rest else [0]
        return GradedModule.free(ring, twists, name=spec)
    if head == "cyclic":
        polys = [s.strip() for s in rest.split(";") if s.strip()]
        if not polys:
            raise ValueError("cyclic: needs at least one polynomial")
        return GradedModule.cyclic(ring, polys, name=spec)
    if head == "random":
        return random_module(ring, int(rest))
    if head == "syzygy":
        n_text, _, inner = rest.partition(":")
        return syzygy(parse_module(inner, ring), int(n_text))
    raise ValueError(f"unrecognized module spec {spec!r}")


def _ring_of(args):
    if not getattr(args, "ring", None):
        raise ValueError("this command needs --ring")
    return parse_ring(args.ring)


def _emit(args, payload_json, text):
    if args.json:
        print(json.dumps(payload_json, indent=2, sort_keys=True))
    else:
        print(text)


def _parse_range(text):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_resolve(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    res = minimal_resolution(M, args.bound)
    shape = [len(res.twist_list(n)) for n in range(args.bound + 1)]
    twists = {n: list(res.twist_list(n)) for n in range(args.bound + 1)}
    _emit(
        args,
        {"module": M.name, "bound": args.bound, "totals": shape,
         "twists": {str(n): t for n, t in twists.items()}},
        "\n".join(
            [f"minimal free resolution of {M.name} to step {args.bound}:",
             "totals: " + " ".join(str(b) for b in shape)]
            + [f"F_{n}: twists {twists[n]}" for n in range(args.bound + 1)]
        ),
    )
    return EXIT_CLEAN


def cmd_betti(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    bt = betti_table(M, args.bound)
    _emit(args, bt.to_json(), bt.render())
    return EXIT_CLEAN


def _cmd_homology(args, kind):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    N = parse_module(args.against, ring)
    fn = tor if kind == "Tor" else ext
    rep = fn(M, N, _parse_range(args.range))
    lines = [rep.strip()]
    mark = "_" if kind == "Tor" else "^"
    for i in sorted(rep.dims):
        dd = rep.dims[i]
        shown = " ".join(f"{d}:{v}" for d, v in sorted(dd.items())) or "-"
        lines.append(f"{kind}{mark}{i}({M.name},{N.name}) dims {shown}")
    _emit(args, rep.to_json(), "\n".join(lines))
    return EXIT_CLEAN


def cmd_tor(args):
    return _cmd_homology(args, "Tor")


def cmd_ext(args):
    return _cmd_homology(args, "Ext")


def cmd_depth(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    d = depth(M)
    _emit(args, {"module": M.name, "depth": d}, f"depth {M.name} = {d}")
    return EXIT_CLEAN


def cmd_cx(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    est = complexity_estimate(M, args.bound)
    _emit(
        args, est.to_json(),
        f"cx {M.name} = {est.value}  (method {est.method}, "
        f"window {est.window[0]}..{est.window[1]}, {est.confidence})",
    )
    return EXIT_CLEAN


def cmd_keta(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    coeffs = [int(c) for c in args.coeffs.split(",")]
    if args.t < 1:
        raise ValueError("power must be >= 1")
    e = eta(M, coeffs, 2 * args.t)
    power = eta_power(e, args.t)
    push = k_eta(M, power)
    exact = push.check_exact()
    payload = push.to_json()
    payload["hilbert_additive"] = exact
    _emit(
        args, payload,
        f"K_eta of {M.name}: coeffs {coeffs}, power {args.t}, "
        f"gens {list(push.module.twists)}, hilbert additive: {exact}",
    )
    return EXIT_CLEAN


def cmd_reduce_chain(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    chain = reduction_chain(M, seed=args.seed, retries=args.retries,
                            bound=args.bound)
    lines = [f"reduction chain for {M.name}: {len(chain.steps)} step(s)"]
    for j, st in enumerate(chain.steps):
        lines.append(
            f"  step {j}: coeffs {st['coeffs']} degree {st['degree']} "
            f"flags {st['report'].flags}"
        )
    lines.append(f"final module gens {list(chain.final.twists)} (cx 0)")
    _emit(args, chain.to_json(), "\n".join(lines))
    return EXIT_CLEAN


_CHECKS = {
    "t31": lambda M, N, a: check_T31(M, N, a.n, a.q),
    "t32": lambda M, N, a: check_T32(M, N, a.n, a.q),
    "l34": lambda M, N, a: check_L34(M, N, a.n),
    "t35": lambda M, N, a: check_T35(M, N, a.n, a.q),
    "t36": lambda M, N, a: check_T36(M, N, a.n, a.q),
    "t37": lambda M, N, a: check_T37(M, N, a.n, a.p, a.q),
    "t38": lambda M, N, a: check_T38(M, N, a.n, a.p, a.q),
}


def cmd_check(args):
    ring = _ring_of(args)
    M = parse_module(args.module, ring)
    N = parse_module(args.against, ring)
    if args.theorem == "cond":
        gaps = [int(g) for g in args.gaps.split(",")]
        rep = explore_condition(M, N, args.n, gaps,
                                findings_path=args.findings)
    else:
        rep = _CHECKS[args.theorem](M, N, args)
    text = (
        f"{rep.theorem}  status: {rep.status}\n"
        f"  hypothesis indices {rep.inputs.get('indices')}, "
        f"horizon {rep.horizon}\n"
        f"  witness {rep.witness}"
    )
    _emit(args, rep.to_json(), text)
    if rep.counterexample and args.theorem != "cond":
        return EXIT_COUNTEREXAMPLE
    return EXIT_CLEAN


def cmd_corpus(args):
    rings = args.rings.split("|") if args.rings else None
    summary = corpus_sweep(rings=rings, count=args.count, seed=args.seed,
                           findings_path=args.findings,
                           progress=not args.json)
    _emit(
        args, summary.to_json(),
        f"corpus sweep: {summary.modules} modules, "
        f"{summary.checks_run} checks, "
        f"{summary.hypotheses_met} hypotheses met, "
        f"{len(summary.counterexamples)} counterexamples, "
        f"{len(summary.cx_violations)} complexity violations -> "
        f"{'ok' if summary.ok else 'FAILED'}",
    )
    return EXIT_CLEAN if summary.ok else EXIT_COUNTEREXAMPLE


def cmd_example_paper(args):
    rep = reproduce_paper_example()
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
        return EXIT_CLEAN
    print(f"ring: {rep['ring']}")
    print(f"betti totals of A/(x): {rep['betti']}")
    print(rep["tor_strip"])
    print(rep["ext_strip"])
    eg = rep["even_gap"]
    print(
        f"even-gap demonstration: Ext vanishes on {eg['pattern']}: "
        f"{eg['pattern_vanishes']}; Ext^3 nonzero: {eg['ext3_nonzero']}; "
        f"checker rejects even gaps: {eg['checker_rejects_even_gap']}"
    )
    return EXIT_CLEAN


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    top = _Parser(prog="homlab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--json", action="store_true",
                     help="emit JSON instead of text")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    def ring_module(p, against=False):
        p.add_argument("--ring", required=True,
                       help="ring text, e.g. 'p=32003; vars x,y; ci: x*y'")
        p.add_argument("--module", required=True, help="module spec")
        if against:
            p.add_argument("--against", default="k",
                           help="second module spec (default k)")

    p = add("resolve", cmd_resolve, help="minimal free resolution")
    ring_module(p)
    p.add_argument("--bound", type=int, default=6)

    p = add("betti", cmd_betti, help="graded Betti table")
    ring_module(p)
    p.add_argument("--bound", type=int, default=DEFAULT_CX_BOUND)

    for name, fn in (("tor", cmd_tor), ("ext", cmd_ext)):
        p = add(name, fn, help=f"graded {name.capitalize()} groups")
        ring_module(p, against=True)
        p.add_argument("--range", default="0:6", help="index range lo:hi")

    p = add("depth", cmd_depth, help="depth via the ambient resolution")
    ring_module(p)

    p = add("cx", cmd_cx, help="complexity estimate")
    ring_module(p)
    p.add_argument("--bound", type=int, default=DEFAULT_CX_BOUND)

    p = add("keta", cmd_keta, help="pushout module K_eta")
    ring_module(p)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated coefficients of eta")
    p.add_argument("--t", type=int, default=1, help="power of eta")

    p = add("reduce-chain", cmd_reduce_chain,
            help="certified complexity-reduction chain")
    ring_module(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=8)
    p.add_argument("--bound", type=int, default=DEFAULT_CX_BOUND)

    p = add("check", cmd_check, help="theorem checkers")
    p.add_argument("theorem",
                   choices=["t31", "t32", "l34", "t35", "t36", "t37", "t38",
                            "cond"])
    ring_module(p, against=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--p", type=int, default=1, dest="p")
    p.add_argument("--gaps", default="1", help="comma-separated gaps (cond)")
    p.add_argument("--findings", default=None,
                   help="findings JSONL path (cond)")

    p = add("corpus", cmd_corpus, help="random-module theorem sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--rings", default=None,
                   help="'|'-separated ring texts (default corpus rings)")
    p.add_argument("--findings", default=None)

    add("example-paper", cmd_example_paper,
        help="reproduce the hypersurface example")

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit_Usage as exc:
        print(f"homlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceCapError, WindowTooShortError,
            RetriesExhaustedError) as exc:
        print(f"homlab: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (HomlabError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"homlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
