"""Turn paired benchmark runs of two checkouts into one BENCH_<pr>.json.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --pr N [--output PATH]

Each directory is a checkout in which ``perfbench/run.py ... --trace 0``
was run; its records are read from ``.perfbench_out/runs/*-trace0.json``.
Runs of the two checkouts are paired by workload and seed.  For every
workload and every end-to-end metric named in ``BENCHMARK.json``, the file
holds each side's values in seed order, their median and quartiles, the
change/parent ratio of each pair (median, min and max), the pair count
and the number of pairs the change wins (ties count for neither side).
Each workload also records each side's median ``attempted`` operations:
``peak_rss_mb`` grows with the operations a run fits into its seconds.
The file also records both commits, the Python and numpy versions,
``nproc`` and the run length.

The script refuses (exit 1, nothing written) when a record is not
correct, when the run lengths differ, when one side's records come from
more than one commit, or when a workload and seed has no partner.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Refusal(Exception):
    """The records cannot be paired into a fair comparison."""


def _records(checkout: str) -> dict[tuple[str, int], dict]:
    out = {}
    for path in sorted(glob.glob(os.path.join(checkout, ".perfbench_out", "runs", "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if not rec["result"]["correct"]:
            raise Refusal(f"{path}: the run is not correct")
        out[rec["workload"], rec["seed"]] = rec
    if not out:
        raise Refusal(f"no trace-0 run records under {checkout}")
    return out


def _commit(records: dict, side: str) -> str:
    commits = sorted({rec["environment"]["commit"] for rec in records.values()})
    if len(commits) != 1:
        raise Refusal(f"the {side} records come from several commits: {', '.join(commits)}")
    return commits[0]


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def _ratios(before: list[float], after: list[float], what: str) -> dict:
    if 0 in before:
        raise Refusal(f"{what}: a parent value of 0 has no ratio")
    ratios = [a / b for b, a in zip(before, after)]
    return {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}


def build(parent_dir: str, change_dir: str, pr: int, benchmark: dict) -> dict:
    parent, change = _records(parent_dir), _records(change_dir)
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        raise Refusal("no partner for " + ", ".join(f"{w} seed {s}" for w, s in unpaired))
    lengths = sorted({rec["seconds"] for rec in (*parent.values(), *change.values())})
    if len(lengths) != 1:
        raise Refusal(f"run lengths differ: {lengths} s")
    env = next(iter(change.values()))["environment"]
    out = {
        "pr": pr,
        "parent_commit": _commit(parent, "parent"),
        "change_commit": _commit(change, "change"),
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "run_seconds": lengths[0],
        "workloads": {},
    }
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
            before = [parent[workload, s]["result"]["metrics"][name]["value"] for s in seeds]
            after = [change[workload, s]["result"]["metrics"][name]["value"] for s in seeds]
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "parent": _summary(before),
                "change": _summary(after),
                "ratio": _ratios(before, after, f"{workload} {name}"),
                "change_wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
            }
        attempted = {
            side: statistics.median(recs[workload, s]["result"]["attempted"] for s in seeds)
            for side, recs in (("parent", parent), ("change", change))
        }
        out["workloads"][workload] = {"pairs": len(seeds), "seeds": seeds, "attempted": attempted, "metrics": metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit, with its run records")
    parser.add_argument("change", help="checkout of the change, with its run records")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--output", help="default: BENCH_<pr>.json in the current directory")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    try:
        record = build(args.parent, args.change, args.pr, benchmark)
    except Refusal as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    with open(args.output or f"BENCH_{args.pr}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
