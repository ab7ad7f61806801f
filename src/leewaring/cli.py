"""Command-line front end.

Subcommands: bounds (tables), construct (extremal vectors with a
self-check certificate), check (admissibility of a given vector), oracle
(brute force vs formula), waring (thm1 / thm2 / remarks / generic).

Each subcommand computes its rows (plain dicts), its text lines and its
exit code; one renderer (_emit) prints them as text, csv or json.  Every
format streams, so `bounds` prints its table as the rows arrive, in
constant memory.  Errors are reported in main alone:
"budget exceeded" for a BudgetError, "hypothesis failure" (waring) or
"error" (the rest) for any other ValueError.

Exit codes: 0 success or match, 1 verified mismatch (a falsified formula
or failed self-check; never expected), 2 usage, budget or hypothesis
error, 3 vector not admissible in `check`, 4 Waring number undefined.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain, islice

from . import bounds as bnd
from .admissible import norm_sequence
from .construct import construct_max_lee, construct_max_norm1
from .errors import BudgetError, charge
from .ffwaring import (
    DEFAULT_FIELD_BUDGET,
    FqField,
    WaringReport,
    find_irreducible,
    verify_remarks,
    verify_theorem1,
    verify_theorem2,
    waring_report,
)
from .modring import ModVec, NormKind, shift
from .oracle import DEFAULT_BUDGET, brute_max_admissible

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NOT_ADMISSIBLE = 3
EXIT_UNDEFINED = 4

# Each norm's extremal construction and the closed form of its maximum.
_EXTREMAL = {
    NormKind.ONE: (construct_max_norm1, bnd.g_bound),
    NormKind.LEE: (construct_max_lee, bnd.h_bound),
}


def _parse_range(text: str) -> range:
    """'2..5' -> range(2, 6); a single number is a one-element range."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}, expected N or N..M")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} must satisfy 1 <= lo <= hi")
    return range(lo, hi + 1)


def _parse_norm(text: str) -> NormKind:
    try:
        return NormKind(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown norm {text!r}, expected one|lee")


def _parse_vec(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed vector {text!r}, expected e.g. 0,2,1")


def _vec_str(v: ModVec) -> str:
    return ",".join(str(c) for c in v.coords)


def _emit(fmt: str, rows, lines, header=None, many: bool = False) -> None:
    """Print a command's rows (dicts) as json or csv, or its text lines.

    json dumps the one row, or the list when many is set; csv writes the
    header (the first row's keys unless given) and one line per row, with
    list values joined by spaces.  rows and lines may be lazy, and every
    format writes as it goes: a json list is printed a batch of rows at a
    time, with the bytes of json.dumps(list(rows), indent=2).
    """
    if fmt == "json" and not many:
        print(json.dumps(next(iter(rows)), indent=2))
    elif fmt == "json":
        # A batch's dump less its brackets is its stretch of the whole dump.
        rows, opening = iter(rows), "["
        while batch := list(islice(rows, 1024)):
            print(opening + json.dumps(batch, indent=2)[1:-2], end="")
            opening = ","
        print("[]" if opening == "[" else "\n]")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for i, row in enumerate(rows):
            if i == 0:
                writer.writerow(header or row.keys())
            writer.writerow(
                " ".join(map(str, val)) if isinstance(val, list) else val for val in row.values()
            )
    else:
        for line in lines:
            print(line)


def cmd_bounds(args) -> int:
    rows = (
        {
            "m": m,
            "r": r,
            "g": bnd.g_bound(m, r),
            "h": bnd.h_bound(m, r),
            "case": bnd.bound_case(m, r).value,
            "rho": bnd.h_bound(m, r),
        }
        for m in args.m
        for r in args.r
    )
    line = "{:>4} {:>4} {:>8} {:>8} {:>14} {:>8}".format  # lines reads rows; one of them is printed
    lines = chain([line("m", "r", "g", "h", "case", "rho")], (line(*row.values()) for row in rows))
    _emit(args.format, rows, lines, many=True)
    return EXIT_OK


def cmd_construct(args) -> int:
    m, r, kind = args.m, args.r, args.norm
    charge(m + r, args.budget, "construction")
    construct, closed_form = _EXTREMAL[kind]
    v = construct(m, r)
    target = closed_form(m, r)
    seq = norm_sequence(v, kind)
    value = seq[0]
    ok = value == target and value == min(seq)
    row = {
        "m": m,
        "r": r,
        "norm": kind.value,
        "vector": list(v.coords),
        "value": value,
        "bound": target,
        "admissible": ok,
    }
    # text: "key: value" per field, the vector comma-joined, booleans lowercase
    lines = [f"{k}: {_vec_str(v) if k == 'vector' else str(val).lower()}" for k, val in row.items()]
    _emit(args.format, [row], lines)
    if not ok:
        print("self-check failed: constructed vector misses its bound", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_check(args) -> int:
    charge(args.m + len(args.vec), args.budget, "admissibility check")
    v = ModVec(args.m, args.vec)
    kind = args.norm
    seq = norm_sequence(v, kind)
    value = seq[0]
    x = seq.index(min(seq))  # the canonical shift
    shifted = shift(v, x)
    admissible = x == 0
    row = {
        "m": args.m,
        "norm": kind.value,
        "vector": list(v.coords),
        "value": value,
        "admissible": admissible,
        "canonical_shift": x,
        "shifted": list(shifted.coords),
        "norm_sequence": seq,
    }
    lines = [
        f"vector: {_vec_str(v)}",
        f"norm: {value}",
        f"admissible: {'true' if admissible else 'false'}",
        f"canonical shift: {x} -> {_vec_str(shifted)}",
        f"norm sequence: {','.join(map(str, seq))}",
    ]
    header = ["m", "norm", "vector", "value", "admissible", "shift", "shifted", "norm_sequence"]
    _emit(args.format, [row], lines, header)
    return EXIT_OK if admissible else EXIT_NOT_ADMISSIBLE


def cmd_oracle(args) -> int:
    kind = args.norm
    result = brute_max_admissible(args.m, args.r, kind, args.budget, args.threads)
    formula = _EXTREMAL[kind][1](args.m, args.r)
    match = result.max_norm == formula
    row = {
        "m": args.m,
        "r": args.r,
        "norm": kind.value,
        "oracle_max": result.max_norm,
        "formula": formula,
        "witness": list(result.witness.coords),
        "enumerated": result.enumerated,
        "match": match,
    }
    lines = [
        f"oracle max: {result.max_norm}",
        f"formula: {formula}",
        f"witness: {_vec_str(result.witness)}",
        f"enumerated: {result.enumerated}",
        "MATCH" if match else "MISMATCH",
    ]
    _emit(args.format, [row], lines)
    return EXIT_OK if match else EXIT_MISMATCH


def _report_line(rep: WaringReport) -> str:
    computed = "NONE" if rep.computed_g is None else rep.computed_g
    line = f"{rep.label}: p={rep.p} q={rep.q} k={rep.k} (gcd {rep.k_reduced}) computed={computed}"
    if rep.formula_g is not None:
        line += f" formula={rep.formula_g} {'MATCH' if rep.match else 'MISMATCH'}"
    return line


def cmd_waring(args) -> int:
    if args.subcommand == "thm1":
        reports = [verify_theorem1(args.p, args.r, args.budget)]
    elif args.subcommand == "thm2":
        reports = [verify_theorem2(args.p, args.r, args.budget)]
    elif args.subcommand == "remarks":
        reports = verify_remarks(args.p, args.budget)
    else:  # generic
        f = FqField(args.p, find_irreducible(args.p, args.n, args.budget))
        reports = [waring_report(f, args.k, budget=args.budget)]
    rows = [rep.to_dict() for rep in reports]
    _emit(args.format, rows, map(_report_line, reports), many=len(rows) != 1)
    if any(rep.computed_g is None for rep in reports):
        return EXIT_UNDEFINED
    if any(rep.match is False for rep in reports):
        return EXIT_MISMATCH
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leewaring",
        description="Lee-metric covering radii of repetition codes over Z/mZ "
        "and exact Waring numbers of small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"choices": ("text", "csv", "json"), "default": "text"}

    p_bounds = sub.add_parser("bounds", help="tabulate g, h, case and covering radius")
    p_bounds.add_argument("--m", type=_parse_range, required=True, help="modulus or range N..M")
    p_bounds.add_argument("--r", type=_parse_range, required=True, help="dimension or range N..M")
    p_bounds.add_argument("--format", **fmt)
    p_bounds.set_defaults(func=cmd_bounds)

    p_con = sub.add_parser("construct", help="build an extremal admissible vector")
    p_con.add_argument("--m", type=int, required=True)
    p_con.add_argument("--r", type=int, required=True)
    p_con.add_argument("--norm", type=_parse_norm, required=True)
    p_con.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="max m + r: the build and its self-check are linear in it",
    )
    p_con.add_argument("--format", **fmt)
    p_con.set_defaults(func=cmd_construct)

    p_check = sub.add_parser("check", help="norm, admissibility and norm sequence of a vector")
    p_check.add_argument("--m", type=int, required=True)
    p_check.add_argument("--vec", type=_parse_vec, required=True, help="comma-separated residues")
    p_check.add_argument("--norm", type=_parse_norm, required=True)
    p_check.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="max m + coordinates: the norm sequence is linear in it",
    )
    p_check.add_argument("--format", **fmt)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="brute-force maximum vs the closed form")
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--r", type=int, required=True)
    p_oracle.add_argument("--norm", type=_parse_norm, required=True)
    p_oracle.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="max work units: cosets covered, or states x (shifts + coordinates)",
    )
    p_oracle.add_argument("--threads", type=int, default=1, help="positive; the work is serial")
    p_oracle.add_argument("--format", **fmt)
    p_oracle.set_defaults(func=cmd_oracle)

    p_waring = sub.add_parser("waring", help="exact Waring numbers of small finite fields")
    wsub = p_waring.add_subparsers(dest="subcommand", required=True)
    for name, wants in (
        ("thm1", ("p", "r")),
        ("thm2", ("p", "r")),
        ("remarks", ("p",)),
        ("generic", ("p", "n", "k")),
    ):
        wp = wsub.add_parser(name)
        for flag in wants:
            wp.add_argument(f"--{flag}", type=int, required=True)
        wp.add_argument("--budget", type=int, default=DEFAULT_FIELD_BUDGET, help="max field size")
        wp.add_argument("--format", **fmt)
        wp.set_defaults(func=cmd_waring)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
    except ValueError as err:  # a theorem's hypothesis, for waring; bad input otherwise
        print(f"{'hypothesis failure' if args.command == 'waring' else 'error'}: {err}", file=sys.stderr)
    return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
