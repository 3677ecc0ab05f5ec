"""homlab benchmark: corpus sweeps and reduction chains through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-artinian --seed 1 --seconds 30 --trace 0

``--trace 0`` times items for ``--seconds`` seconds of item time, starting at
the seed, and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
window sized from ``--seconds`` three times: once to fill per-process
caches, once untraced and once traced, and reports the per-layer metrics;
the window is fixed so that call counts repeat exactly for a given seed.
The items are the seeds recorded in perfbench/reference/, and every item's
outputs are checked against them.  The last line of standard output is one
JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
TAIL_BEYOND = 10  # least number of items beyond the reported tail
ROOT_SHARE_MIN = 0.8  # least share of traced item time inside root spans


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout (None if it is not a git repository)."""
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "homlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# items


def run_items(state, plan, reference, budget=None):
    """Run the planned items, stopping once wall item time reaches ``budget``.

    Returns one record per item: ring index, seed, wall time, latency (wall
    time rescaled by the calibration kernel run between items), digest and
    the problems found (raised, broke an invariant, differs from the
    ``reference`` digest).
    """
    from workloads import normalize

    records = []
    kernel = [calibrate.kernel_seconds()]
    timed = 0.0
    for ri, seed in plan:
        spec = state.workload.rings[ri]
        t0 = time.perf_counter()
        try:
            digest, problems = state.run_item(ri, seed)
        except Exception:  # an item that raises is a failed item, not a crash
            digest, problems = None, [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - t0
        kernel.append(calibrate.kernel_seconds())
        timed += wall
        if digest is not None:
            digest = normalize(digest)
            problems += reference.check(spec, seed, digest)
        records.append({"ring": ri, "seed": seed, "wall": wall,
                        "digest": digest, "problems": problems})
        if budget is not None and timed >= budget:
            break
    for r, scale in zip(records, calibrate.scales(kernel, len(records))):
        r["latency"] = r["wall"] * scale
    return records


def report_problems(workload, records):
    for r in records:
        for p in r["problems"]:
            print(f"FAILED {workload.rings[r['ring']]!r} seed {r['seed']}: {p}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(workload_name):
    """Median time from a fresh process start to ready, over SETUP_PROBES.

    A probe's time is its wall time up to the end of its imports plus its
    set-up computation rescaled by the calibration kernel run around it.
    Interpreter start and imports did not slow down with the kernel on a
    loaded host, so rescaling them made set-up read faster the busier the
    host was.
    """
    times = []
    kernel = [calibrate.kernel_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload_name],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        word, _, imported = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        imported = float(imported)
        if not t0 <= imported <= t1:
            raise RuntimeError("set-up probe clock differs from this one")
        kernel.append(calibrate.kernel_seconds())
        local = (kernel[-2] + kernel[-1]) / 2
        times.append(imported - t0 + (t1 - imported) * calibrate.K_REF_S / local)
    return statistics.median(times), times


class TooFewItems(Exception):
    pass


def tail_latency(latencies, pct):
    """Latency at percentile ``pct`` (nearest rank), with (percentile, items beyond).

    Lowered to the highest percentile with TAIL_BEYOND items beyond it when
    ``pct`` leaves fewer.
    """
    srt = sorted(latencies)
    n = len(srt)
    k = min(math.ceil(pct / 100 * n) - 1, n - TAIL_BEYOND - 1)
    if k < n // 2:
        raise TooFewItems(f"{n} items: a tail not below the median needs "
                          f"{2 * TAIL_BEYOND + 1} or more")
    return srt[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(args, state, reference):
    setup_s, setup_samples = measure_setup(args.workload)
    records = run_items(state, reference.plan(state.workload.rings, args.seed),
                        reference, budget=args.seconds)
    lat = [r["latency"] for r in records]
    timed = sum(lat)
    wall = [r["wall"] for r in records]
    tail, pct, beyond = tail_latency(lat, state.workload.tail_pct)
    failed = sum(1 for r in records if r["problems"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "modules_per_s": (len(records) / timed, "1/s"),
        "module_p50_s": (statistics.median(lat), "s"),
        "module_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "failed_frac": failed / len(records),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "items": len(records),
        "timed_s": timed,
        "wall_s": sum(wall),
        "wall_modules_per_s": len(wall) / sum(wall),
        "wall_module_p50_s": statistics.median(wall),
        "seeds": [records[0]["seed"], records[-1]["seed"]],
        "setup_samples_s": setup_samples,
    }
    print(f"items {len(records)} (seeds {extra['seeds'][0]}..{extra['seeds'][1]}),"
          f" {sum(wall):.2f} s of wall time, {timed:.2f} s rescaled")
    print(f"module_tail_s is p{pct:.1f} of {len(records)} items,"
          f" {beyond} beyond it")
    print(f"failed_frac {extra['failed_frac']:.4f} ratio")
    return records, metrics, extra


# ---------------------------------------------------------------------------
# traced run


def traced(args, state, reference):
    from layers import PER_LAYER, TARGETS, layer_values
    from tracer import Tracer

    n_seeds = max(1, round(args.seconds * state.workload.trace_seeds_per_s))
    plan = list(reference.plan(state.workload.rings, args.seed, n_seeds))
    if not plan:
        raise TooFewItems(f"no recorded item in the {n_seeds} seeds from "
                          f"{args.seed}")
    # The first pass fills the per-process caches these items use (the
    # monomial lru caches, ring-level memos), so that the untraced and the
    # traced pass below start from the same state.
    warm = run_items(state, plan, reference)
    plain = run_items(state, plan, reference)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        with_spans = run_items(state, plan, reference)
    finally:
        tracer.uninstall()
    plain_s = sum(r["latency"] for r in plain)
    traced_s = sum(r["latency"] for r in with_spans)
    traced_wall = sum(r["wall"] for r in with_spans)
    _, root_s, min_self = tracer.summary()
    values = layer_values(tracer, traced_s / plain_s - 1.0)
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}

    problems = []
    digests = [[r["digest"] for r in rs] for rs in (warm, plain, with_spans)]
    if not digests[0] == digests[1] == digests[2]:
        problems.append("traced outputs differ from untraced outputs")
    # Summed self time equals the root spans' time, which lies inside the
    # items' timed intervals; the layers' entry points cover nearly all of
    # an item, so a much smaller share means spans went missing.
    if not ROOT_SHARE_MIN * traced_wall <= root_s <= traced_wall + 1e-6:
        problems.append(f"root spans cover {root_s:.4f} s of "
                        f"{traced_wall:.4f} s traced wall item time")
    if min_self < -1e-6:
        problems.append(f"a span's children outlast it by {-min_self:.2g} s")
    for p in problems:
        print(f"FAILED trace self-test: {p}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    records = warm + plain + with_spans
    extra = {
        "seeds": [plan[0][1], plan[-1][1]],
        "items": len(plain),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "traced_wall_s": traced_wall,
        "root_span_s": root_s,
        "min_self_s": min_self,
        "spans": len(tracer.start),
        "self_test_problems": problems,
    }
    print(f"items {len(plain)} (seeds {plan[0][1]}..{plan[-1][1]}),"
          f" untraced {plain_s:.2f} s, traced {traced_s:.2f} s,"
          f" {len(tracer.start)} spans, root span time {root_s:.2f} s")
    return records, metrics, extra, problems


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "homlab" / "__init__.py").is_file():
        print(f"error: no homlab package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Reference, State

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = Reference(workload.name)
    t0 = time.perf_counter()
    state = State(workload)
    print(f"workload {workload.name}: {workload.why}")
    print(f"in-process set-up {time.perf_counter() - t0:.3f} s")

    try:
        if args.trace:
            records, metrics, extra, trace_problems = traced(args, state,
                                                             reference)
        else:
            records, metrics, extra = end_to_end(args, state, reference)
            trace_problems = []
    except TooFewItems as exc:
        print(f"error: {exc}; give more --seconds", file=sys.stderr)
        return 1
    report_problems(workload, records)
    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0 and not trace_problems
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=provenance(args), details=extra,
                  latencies=[[r["ring"], r["seed"], r["wall"], r["latency"]]
                             for r in records])
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"provenance {json.dumps(record['provenance'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
