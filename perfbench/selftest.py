"""Self-tests of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

1. BENCHMARK.json agrees with the code: workload names and whys, and the
   per-layer metrics with their units.
2. At seeds 0..24 per ring, corpus_sweep reproduces the per-ring baseline
   counts (checks run / hypotheses met) for all four corpus rings.
3. The items are exactly the recorded seeds: a window over the whole
   recorded range plans every recorded item once, and a seed past the range
   wraps into it.
4. With complexity_estimate made to read 0 for every module, every planned
   item runs and fails: no recorded seed is skipped.
5. A short run of every workload, untraced and traced, from a seed past the
   recorded ranges, is correct, fails no item and prints exactly the metrics
   BENCHMARK.json names, with its units.  The traced run also checks that
   tracing changes no output, that no span's children outlast it and that
   the root spans lie within, and cover most of, the traced item time.

Exits 1 if any check fails.
"""

import dataclasses
import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import homlab  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Patch  # noqa: E402
from workloads import WORKLOADS, Reference, State  # noqa: E402

# corpus_sweep(rings=[ring], count=25, seed=0) at the defining commit
BASELINE_COUNTS = {
    "p=32003; vars x,y; ci: x*y": (201, 110),
    "p=32003; vars x,y; ci: x^2, y^2": (320, 171),
    "p=32003; vars x,y,z; ci: x^2, y^2": (231, 131),
    "p=32003; vars x,y,z; ci: x^2, y^2, z^2": (308, 153),
}


def check_benchmark_json(bench, failures):
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    for w in bench["workloads"]:
        if w["name"] in WORKLOADS and w["why"] != WORKLOADS[w["name"]].why:
            failures.append(f"why of {w['name']} differs from workloads.py")
    declared = [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER]
    if bench["per_layer"] != declared:
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")


def check_baseline_counts(failures):
    if tuple(BASELINE_COUNTS) != tuple(homlab.DEFAULT_CORPUS_RINGS):
        failures.append("the corpus rings changed")
    for spec, expected in BASELINE_COUNTS.items():
        s = homlab.corpus_sweep(rings=[spec], count=25, seed=0)
        got = (s.checks_run, s.hypotheses_met)
        print(f"  {spec}: checks/hypotheses met {got[0]}/{got[1]}", flush=True)
        if got != expected or not s.ok:
            failures.append(f"{spec}: {got}, ok={s.ok}; expected {expected}")


def check_reference_plans(failures):
    for name, workload in WORKLOADS.items():
        ref = Reference(name)
        span = ref.last - ref.first + 1
        recorded = sorted((seed, ri) for ri, spec in enumerate(workload.rings)
                          for seed in ref.digests[spec])
        planned = list(ref.plan(workload.rings, ref.first, span))
        print(f"  {name}: {len(planned)} items planned, {len(recorded)} recorded",
              flush=True)
        if [(seed, ri) for ri, seed in planned] != recorded:
            failures.append(f"{name}: the plan over seeds {ref.first}..{ref.last}"
                            " is not the recorded items")
        if (list(ref.plan(workload.rings, ref.last + 1, 5))
                != list(ref.plan(workload.rings, ref.first, 5))):
            failures.append(f"{name}: a seed past the range does not wrap")


def _cx_reads_zero(fn):
    def zero(*args, **kwargs):
        return dataclasses.replace(fn(*args, **kwargs), value=0)
    return zero


def check_cx_change_fails(failures):
    for name, workload in WORKLOADS.items():
        patch = Patch()
        patch.replace("homlab.harness:complexity_estimate", _cx_reads_zero)
        state = None
        try:
            state = State(workload)
            ref = Reference(name)
            plan = list(ref.plan(workload.rings, ref.first, 3))
            records = run.run_items(state, plan, ref)
        finally:
            if state is not None and state.capture is not None:
                state.capture.uninstall()
            patch.undo()
        failed = sum(1 for r in records if r["problems"])
        print(f"  {name}: {failed} of {len(plan)} planned items failed",
              flush=True)
        if not plan or len(records) != len(plan) or failed != len(plan):
            failures.append(f"{name}: with cx read as 0, {failed} of "
                            f"{len(plan)} planned items failed")


def check_runs(bench, failures):
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", name, "--seed", "4497",
                                      "--seconds", "10", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=180)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            print(f"  {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct\n{proc.stderr}")
            if units != wanted[trace]:
                failures.append(f"{label}: metrics/units {units} differ from "
                                "BENCHMARK.json")


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    print("BENCHMARK.json against the code", flush=True)
    check_benchmark_json(bench, failures)
    print("baseline counts at seeds 0..24", flush=True)
    check_baseline_counts(failures)
    print("items are the recorded seeds", flush=True)
    check_reference_plans(failures)
    print("a module whose complexity reads 0 fails its item", flush=True)
    check_cx_change_fails(failures)
    print("short runs of every workload", flush=True)
    check_runs(bench, failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
