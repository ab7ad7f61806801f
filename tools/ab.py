"""Compare two checkouts in one process, case by case, on an in-process workload.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W --rounds N [--tiny]

Each directory's ``src/leewaring`` is loaded under its own package name
(``parent_leewaring``, ``change_leewaring``), so both run in one
interpreter on one host state.  The case list is that of
``perfbench/cases.py`` in this script's checkout, read and not changed;
``cli_cold``, which starts processes, is not offered.  Every round runs
each case once on each side, back to back, timed by ``time.process_time``;
the side that goes first flips each round.  ``waring_fields`` clears the
package's caches before every call, as the benchmark does.  An untimed
warm-up round comes first.

The result is one JSON record on stdout: each side's per-round CPU
seconds (summed over the case list) with their median and quartiles, the
change/parent ratio of each round (median, min and max) and the rounds the
change wins.  A case whose two outputs differ is refused (exit 1, no
record): a timing of different results compares nothing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IN_PROCESS = ("coset_oracle", "extremal_construct", "waring_fields")


class Refusal(Exception):
    """The two sides cannot be compared."""


def load_cases():
    """perfbench/cases.py of this checkout, as a module of its own."""
    spec = importlib.util.spec_from_file_location("ab_cases", os.path.join(ROOT, "perfbench", "cases.py"))
    cases = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = cases  # dataclasses looks the module up while the class is built
    spec.loader.exec_module(cases)
    return cases


def load_package(checkout: str, name: str):
    """checkout/src/leewaring imported as the package name, with its submodules under it.

    Modules left under that name by an earlier load are dropped first, so
    that the relative imports find this checkout's files.
    """
    root = os.path.join(checkout, "src", "leewaring")
    init = os.path.join(root, "__init__.py")
    if not os.path.isfile(init):
        raise Refusal(f"no package at {root}")
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent, change, cases, workload: str, rounds: int, tiny: bool = False) -> dict:
    """Alternate the two packages case by case; raise Refusal when outputs differ."""
    if rounds < 1:
        raise Refusal(f"rounds must be positive, got {rounds}")
    case_list = cases.build(workload, tiny)
    sides = {"parent": parent, "change": change}
    totals = {"parent": [], "change": []}
    for round_index in range(rounds + 1):  # round 0 is the untimed warm-up
        order = ("parent", "change") if round_index % 2 else ("change", "parent")
        spent = dict.fromkeys(sides, 0.0)
        gc.collect()
        for case in case_list:
            outputs = {}
            for side in order:
                lw = sides[side]
                if workload == "waring_fields":
                    cases.clear_caches(lw)
                t0 = time.process_time()
                outputs[side] = cases.run_case(lw, workload, case, ROOT)
                spent[side] += time.process_time() - t0
            if outputs["parent"] != outputs["change"]:
                raise Refusal(f"{case.name}: the two outputs differ")
        if round_index:
            for side in sides:
                totals[side].append(spent[side])
    ratios = [c / p for p, c in zip(totals["parent"], totals["change"])]
    return {
        "workload": workload,
        "rounds": rounds,
        "tiny": tiny,
        "timer": "process_time",
        "cases": len(case_list),
        "parent": _summary(totals["parent"]),
        "change": _summary(totals["change"]),
        "ratio": {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)},
        "change_wins": sum(c < p for p, c in zip(totals["parent"], totals["change"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny case list")
    args = parser.parse_args(argv)
    try:
        cases = load_cases()
        record = compare(
            load_package(args.parent, "parent_leewaring"),
            load_package(args.change, "change_leewaring"),
            cases, args.workload, args.rounds, args.tiny,
        )
    except Refusal as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
