"""Record the reference digests that run.py checks every item against.

Run at the commit that defines the reference, from the checkout root:

    python3 perfbench/record_reference.py <workload> <first seed> <last seed>

Which seeds are items (modules of complexity >= 1) is decided here, on a
separate module object before each item, and stored with the digests;
run.py then runs exactly the recorded items.  It refuses to write a
reference from a window in which any item raised or broke an invariant.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, State, reference_path  # noqa: E402


class _NoReference:
    @staticmethod
    def check(spec, seed, digest):
        return []


def qualifying(state, first, last):
    """(ring index, seed) of the qualifying modules at seeds first..last."""
    for seed in range(first, last + 1):
        for ri in range(len(state.rings)):
            if state.qualifies(ri, seed):
                yield ri, seed


def main(argv):
    name, first, last = argv[0], int(argv[1]), int(argv[2])
    state = State(WORKLOADS[name])
    plan = qualifying(state, first, last)
    records = run.run_items(state, plan, _NoReference())
    run.report_problems(state.workload, records)
    if any(r["problems"] for r in records):
        return 1
    digests = {spec: {} for spec in state.workload.rings}
    for r in records:
        digests[state.workload.rings[r["ring"]]][str(r["seed"])] = r["digest"]
    data = {"workload": name, "seeds": [first, last],
            "source_commit": run._git_commit(), "digests": digests}
    with open(reference_path(name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}: {len(records)} items, seeds {first}..{last}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
