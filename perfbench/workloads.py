"""The benchmark's workloads: set-up, items, output digests and checks.

Every workload is a contiguous window of ``random_module`` seeds that starts
at the benchmark's seed argument, taken modulo the seed range the reference
files cover.  An item is one module of complexity >= 1 through the workload:
one ``corpus_sweep`` call for the sweeps, one reduction chain and its
ext-jump checks for ``reduction-chain``.  Which seeds are items is read from
the reference files, recorded at the defining commit, never decided by the
code under test.  Each item builds its own module objects, so per-module
caches start cold; ring-level caches (the residue field's resolution, the
ideal Groebner basis) are filled during set-up, because a sweep pays them
once per ring per process.

An item's digest holds only mathematically determined outputs, never
generator choices, and is compared with the recorded digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import homlab
from homlab import GradedModule, minimal_resolution, parse_ring, residue_field_of

from tracer import Patch

SQ = "p=32003; vars x,y; ci: x^2, y^2"
XY = "p=32003; vars x,y; ci: x*y"

# complexity_estimate_retry widens the Betti window up to bound 24, which
# reads the residue field's resolution to step 25.
K_RESOLVE_TO = 25

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "sweep" or "chain"
    rings: tuple
    why: str
    trace_seeds_per_s: float  # fixed traced window: seeds per --seconds
    # module_tail_s percentile: fixed, so that runs holding different numbers
    # of items (a slower host, a faster commit) read the same percentile;
    # each leaves 14 or more of the items of a 30 s run beyond it.
    tail_pct: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-artinian", "sweep", (SQ,),
        "corpus sweep of x^2,y^2 modules of cx >= 1: zero verdicts by the "
        "socle window, Betti tables from Tor(k, M) dims, so dense rank_mod "
        "and ring NF dominate; little Groebner work",
        3.5, 95,
    ),
    Workload(
        "sweep-dim1", "sweep", (XY,),
        "corpus sweep of xy modules of cx >= 1: zero verdicts by the Groebner "
        "route, depth and resolutions by syzygies, and many tiny rank_mod "
        "calls where per-call overhead dominates",
        2.0, 85,
    ),
    Workload(
        "reduction-chain", "chain", (SQ, XY),
        "K_eta reduction chains and ext-jump checks on x^2,y^2 and xy modules "
        "of cx >= 1: the only workload that runs cioperators, with "
        "wide-window Ext/Tor dims",
        0.75, 80,
    ),
)}


class Capture:
    """Records what the sweep's own complexity_estimate and depth calls return.

    ``corpus_sweep`` builds its module internally, so cx and depth are read
    at the boundary instead of being recomputed on a second module.
    """

    def __init__(self):
        self.seen = {"cx": set(), "depth": set()}
        self._patch = Patch()

    def install(self):
        self._patch.replace("homlab.harness:complexity_estimate",
                            lambda fn: self._wrap("cx", fn, lambda r: r.value))
        self._patch.replace("homlab.resolution:depth",
                            lambda fn: self._wrap("depth", fn, lambda r: r))

    def uninstall(self):
        self._patch.undo()

    def _wrap(self, key, fn, value_of):
        seen = self.seen[key]

        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.add(value_of(out))
            return out

        return captured

    def clear(self):
        for seen in self.seen.values():
            seen.clear()

    def take(self, key):
        """The single value seen since the last take (None if none)."""
        seen = self.seen[key]
        if len(seen) > 1:
            raise AssertionError(f"one module, several {key} values: {seen}")
        value = next(iter(seen), None)
        seen.clear()
        return value


class State:
    """What set-up builds once per process for one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.rings = [parse_ring(spec) for spec in workload.rings]
        for ring in self.rings:
            minimal_resolution(residue_field_of(ring), K_RESOLVE_TO)
        self.partners = [
            (residue_field_of(ring), GradedModule.free(ring, [0], name="A"))
            for ring in self.rings
        ]
        self.capture = None
        if workload.kind == "sweep":
            self.capture = Capture()
            self.capture.install()

    def qualifies(self, ring_index, seed):
        """Items are modules of complexity >= 1; used when recording."""
        M = homlab.random_module(self.rings[ring_index], seed)
        return not M.is_zero and homlab.complexity_estimate(M).value >= 1

    def run_item(self, ring_index, seed):
        """Run one item; returns (digest, list of invariant violations)."""
        if self.workload.kind == "sweep":
            return self._sweep_item(ring_index, seed)
        return self._chain_item(ring_index, seed)

    def _sweep_item(self, ring_index, seed):
        self.capture.clear()
        s = homlab.corpus_sweep(rings=[self.rings[ring_index]], count=1,
                                seed=seed)
        digest = [s.modules, s.skipped, s.checks_run, s.hypotheses_met,
                  len(s.counterexamples), len(s.cx_violations),
                  len(s.tor_symmetry_failures), len(s.findings),
                  self.capture.take("cx"), self.capture.take("depth")]
        bad = []
        if s.modules != 1 or not digest[8]:
            bad.append(f"expected one module of cx >= 1, got {digest}")
        if s.counterexamples:
            bad.append(f"counterexamples {s.counterexamples}")
        if s.cx_violations:
            bad.append(f"cx violations {s.cx_violations}")
        if s.tor_symmetry_failures:
            bad.append(f"Tor symmetry failures {s.tor_symmetry_failures}")
        return digest, bad

    def _chain_item(self, ring_index, seed):
        ring = self.rings[ring_index]
        M = homlab.random_module(ring, seed)
        chain = homlab.reduction_chain(M, seed=0)
        cx, depth, flags, jumps = [], [], [], []
        for st in chain.steps:
            rep = st["report"]
            if not cx:
                cx.append(rep.details["cx_M"])
                depth.append(rep.details["depth_M"])
            cx.append(rep.details["cx_K"])
            depth.append(rep.details["depth_K"])
            flags.append(dict(sorted(rep.flags.items())))
            for N in self.partners[ring_index]:
                applicable, ok, _ = homlab.ext_jump_check(st["push"], N)
                jumps.append([applicable, ok])
        digest = {"steps": len(chain.steps), "cx": cx, "depth": depth,
                  "flags": flags, "ext_jump": jumps}
        bad = []
        if not chain.steps:
            bad.append("no reduction step for a module of cx >= 1")
        if cx and (cx[-1] != 0 or any(a - b != 1 for a, b in zip(cx, cx[1:]))):
            bad.append(f"cx sequence {cx} does not drop by one to 0")
        if not all(all(f.values()) for f in flags):
            bad.append(f"a step has a failed flag: {flags}")
        if any(app and not ok for app, ok in jumps):
            bad.append(f"ext-jump check failed: {jumps}")
        return digest, bad


def normalize(digest):
    """The digest as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(digest))


def reference_path(workload_name):
    return REFERENCE_DIR / f"{workload_name}.json"


class Reference:
    """Digests recorded at the defining commit for a range of seeds.

    The recorded seeds are the items.  Were the code under test to decide
    which seeds qualify, a change that made a module's complexity read 0
    would drop that module from the timed window unnoticed; as it is, the
    item runs and its digest no longer matches.
    """

    def __init__(self, workload_name):
        with open(reference_path(workload_name), encoding="utf-8") as fh:
            data = json.load(fh)
        self.first, self.last = data["seeds"]
        self.digests = {spec: {int(s): d for s, d in per.items()}
                        for spec, per in data["digests"].items()}
        if not any(self.digests.values()):
            raise ValueError(f"no recorded items for {workload_name}")

    def plan(self, specs, seed, n_seeds=None):
        """(ring index, seed) items of the n_seeds seeds from ``seed`` on.

        Seeds are taken modulo the recorded range, so every seed argument
        starts a window inside it; a window that runs past its end goes on
        at its start.  With n_seeds None the window has no end.
        """
        span = self.last - self.first + 1
        offset = seed - self.first
        i = 0
        while n_seeds is None or i < n_seeds:
            s = self.first + (offset + i) % span
            for ri, spec in enumerate(specs):
                if s in self.digests[spec]:
                    yield ri, s
            i += 1

    def check(self, spec, seed, digest):
        """The problems found comparing a digest with the recorded one."""
        expected = self.digests.get(spec, {}).get(seed)
        if expected is None:
            return [f"seed {seed} is not a recorded item"]
        if normalize(digest) != expected:
            return [f"differs from reference: {normalize(digest)} != {expected}"]
        return []
