#!/usr/bin/env python3
"""Compare perf_harness runs and flag regressions.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--threshold=0.25]
    scripts/bench_diff.py --base=B1.json [--base=B2.json ...] \
                          --head=H1.json [--head=H2.json ...] [--threshold=0.25]

Each file is either a dcs-bench/1 run object (what `perf_harness --out`
or `fleet_scale --out` writes) or the committed dcs-bench-trajectory/1 file
(BENCH_dcs.json), in which case a specific entry can be picked with
`FILE:LABEL` (without a label the last entry is used):

    scripts/bench_diff.py BENCH_dcs.json:pr5-baseline BENCH_dcs.json:pr5-optimized

compares two named entries of the history.  The trajectory's numbers come
from several machines, so it is history, not a gate.

With --base/--head, each side is several runs, typically of the merge base
and of the head built on the same machine and run alternately (CI's bench
job gates perf_harness and fleet_scale this way).  A row's value on each
side is then the median of its per-run medians, which a single slow run
cannot move.

Prints an old-vs-new table for every benchmark present on both sides and
exits 1 if any "micro" benchmark regressed by more than the threshold
(default 25%).  "e2e" wall-clock rows are advisory: printed, never gating.
A row's kind is read from the old (base) side, so a change cannot turn off
the gate it is measured against by re-tagging its own rows.
"""

import json
import sys


def load_run(spec):
    path, _, label = spec.partition(":")
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") == "dcs-bench/1":
        return doc
    if doc.get("schema") == "dcs-bench-trajectory/1":
        entries = doc.get("entries", [])
        if not entries:
            sys.exit(f"{path}: trajectory file has no entries")
        if not label:
            return entries[-1]
        for entry in entries:
            if entry.get("label") == label:
                return entry
        sys.exit(f"{path}: no entry labelled {label!r}")
    sys.exit(f"{path}: unrecognised schema {doc.get('schema')!r}")


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def combine(runs):
    """One run object whose rows hold the median of the runs' medians."""
    if len(runs) == 1:
        return runs[0]
    rows = {}
    for run in runs:
        for bench in run["benchmarks"]:
            rows.setdefault(bench["name"], []).append(bench)
    benchmarks = []
    for name, benches in rows.items():
        row = dict(benches[0])
        row["median"] = median([b["median"] for b in benches])
        benchmarks.append(row)
    labels = ", ".join(str(run.get("label")) for run in runs)
    return {"label": f"{len(runs)} runs: {labels}", "host": runs[0].get("host", {}),
            "benchmarks": benchmarks}


def main(argv):
    threshold = 0.25
    args, base_specs, head_specs = [], [], []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--base="):
            base_specs.append(arg.split("=", 1)[1])
        elif arg.startswith("--head="):
            head_specs.append(arg.split("=", 1)[1])
        else:
            args.append(arg)
    if base_specs or head_specs:
        if args or not base_specs or not head_specs:
            sys.exit(__doc__)
    elif len(args) == 2:
        base_specs, head_specs = [args[0]], [args[1]]
    else:
        sys.exit(__doc__)

    new_run = combine([load_run(spec) for spec in head_specs])
    old_run = combine([load_run(spec) for spec in base_specs])
    old_by_name = {b["name"]: b for b in old_run["benchmarks"]}

    print(f"old: {old_run.get('label')}  ({old_run.get('host', {}).get('cpu')})")
    print(f"new: {new_run.get('label')}  ({new_run.get('host', {}).get('cpu')})")
    print(f"{'benchmark':<34}{'old':>14}{'new':>14}{'delta':>10}  unit")

    regressions = []
    for bench in new_run["benchmarks"]:
        name = bench["name"]
        old = old_by_name.get(name)
        if old is None:
            print(f"{name:<34}{'-':>14}{bench['median']:>14.3f}{'new':>10}  {bench['unit']}")
            continue
        old_median, new_median = old["median"], bench["median"]
        if old_median == 0:
            continue
        # Positive ratio = improvement, respecting the benchmark's direction.
        if bench.get("higher_is_better", True):
            ratio = new_median / old_median
        else:
            ratio = old_median / new_median
        delta = (ratio - 1.0) * 100.0
        marker = ""
        if ratio < 1.0 - threshold:
            if old.get("kind", "micro") == "micro":
                regressions.append((name, delta))
                marker = "  << REGRESSION"
            else:
                marker = "  (advisory)"
        print(
            f"{name:<34}{old_median:>14.3f}{new_median:>14.3f}{delta:>+9.1f}%"
            f"  {bench['unit']}{marker}"
        )

    if regressions:
        print(f"\n{len(regressions)} microbenchmark(s) regressed more than "
              f"{threshold * 100:.0f}%:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%")
        return 1
    print("\nno gating regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
