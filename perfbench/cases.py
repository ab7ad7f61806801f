"""The four workloads: their case lists and the calls that run one case.

Fresh set-up interpreters import this module, so it imports nothing
heavy of its own.  The library is always reached through the package
object passed in as ``lw`` and looked up at call time, so that the traced
run's wrappers (installed on the package's modules) see every call.

A case's output is plain data (ints, tuples, strings) so that the
checkers in ``checks.py`` never need the library's own types.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

WORKLOADS = ("coset_oracle", "extremal_construct", "waring_fields", "cli_cold")


@dataclass(frozen=True)
class Case:
    """One operation of a workload.

    ``kind`` groups cases for the per-layer metrics (``tie_light``,
    ``tie_heavy``, ``grid``, a ``bound_case`` name, ``thm1``, ...).
    """

    name: str
    kind: str
    args: tuple


# --- coset_oracle ------------------------------------------------------------

# (kind, norm, m, r).  Tie shares are the fraction of the m^(r-1) cosets
# that attain the maximum; the README lists them.
_ORACLE_WIDE = (
    ("tie_light", "lee", 25, 5),   # 390 625 cosets, 0.006 % ties
    ("tie_light", "one", 21, 5),   # 194 481 cosets, 0.062 % ties
    ("tie_heavy", "lee", 4, 11),   # 1 048 576 cosets, 20.4 % ties
    ("tie_heavy", "one", 2, 17),   # 65 536 cosets, 37.1 % ties
)
_ORACLE_TINY = (("tie_light", "lee", 7, 4), ("tie_heavy", "lee", 2, 9))
GRID_LIMIT = 5000  # criterion-1 grid cells with at most this many cosets


def _oracle_cases(tiny: bool) -> list[Case]:
    out = [Case(f"oracle {n} {m},{r}", k, (n, m, r)) for k, n, m, r in (_ORACLE_TINY if tiny else _ORACLE_WIDE)]
    for m in range(1, 5 if tiny else 9):
        for r in range(1, 5 if tiny else 8):
            if m ** (r - 1) <= GRID_LIMIT:
                for n in ("one", "lee"):
                    out.append(Case(f"grid {n} {m},{r}", "grid", (n, m, r)))
    return out


def _run_oracle(lw, case: Case):
    norm, m, r = case.args
    res = lw.brute_max_admissible(m, r, lw.NormKind(norm), threads=1)
    return res.max_norm, tuple(res.witness.coords), res.enumerated


# --- extremal_construct ------------------------------------------------------

# (norm, m, r); the kind is the construct_max_lee dispatch branch taken.
_CONSTRUCT = (
    ("step_plan", "lee", 598, 1195),     # even m, odd r < 2m: O(r^2) m_sequence self-check
    ("full_cycles", "lee", 2, 8000),     # r >= 2m: 3 999 concat calls, quadratic
    ("full_cycles", "lee", 100, 399),    # r >= 2m with a step-plan residual
    ("even_dim", "lee", 700, 700),       # build free, admissibility does the work
    ("halving", "lee", 299, 299),        # odd m, odd r <= m: plan over Z/2mZ, halved
    ("cycle_append", "lee", 301, 451),   # odd m, m < r < 2m: even dimension + one cycle
    ("modulus_one", "lee", 1, 2000),
    ("norm1", "one", 700, 700),
    ("norm1", "one", 499, 999),
)
_CONSTRUCT_TINY = (
    ("step_plan", "lee", 10, 19),
    ("full_cycles", "lee", 2, 40),
    ("full_cycles", "lee", 4, 11),
    ("even_dim", "lee", 10, 10),
    ("halving", "lee", 9, 9),
    ("cycle_append", "lee", 7, 11),
    ("modulus_one", "lee", 1, 5),
    ("norm1", "one", 12, 20),
)


def _construct_cases(tiny: bool) -> list[Case]:
    return [Case(f"{k} {n} {m},{r}", k, (n, m, r)) for k, n, m, r in (_CONSTRUCT_TINY if tiny else _CONSTRUCT)]


def _run_construct(lw, case: Case):
    norm, m, r = case.args
    kind = lw.NormKind(norm)
    v = lw.construct_max_lee(m, r) if norm == "lee" else lw.construct_max_norm1(m, r)
    admissible = lw.is_admissible(v, kind)
    x, w = lw.canonical_shift(v, kind)
    return v.modulus, tuple(v.coords), admissible, x, tuple(w.coords)


# --- waring_fields -----------------------------------------------------------

_THM1 = ((2, 3), (2, 5), (3, 5), (5, 3), (3, 7), (2, 11), (7, 5), (11, 3), (17, 3))
_THM2 = ((3, 5), (5, 3), (3, 7), (7, 5), (11, 3))
_REMARKS = (31, 43)
_DENSE = (11, 3)        # squares in F_{11^3}: q = 1 331, 666 powers, g = 2
_PER_ELEMENT = (13, 5)  # theorem-1 field F_{13^4}: q = 28 561, every element queried


def _waring_cases(tiny: bool) -> list[Case]:
    thm1 = ((2, 5), (3, 5)) if tiny else _THM1
    thm2 = ((3, 5),) if tiny else _THM2
    out = [Case(f"thm1 {p},{r}", "thm1", (p, r)) for p, r in thm1]
    out += [Case(f"thm2 {p},{r}", "thm2", (p, r)) for p, r in thm2]
    out += [Case(f"remarks {p}", "remarks", (p,)) for p in ((7,) if tiny else _REMARKS)]
    p, n = (3, 3) if tiny else _DENSE
    out.append(Case(f"squares {p}^{n}", "dense", (p, n, 2)))
    p, r = (3, 5) if tiny else _PER_ELEMENT
    out.append(Case(f"per_element thm1 {p},{r}", "per_element", (p, r)))
    return out


def clear_caches(lw) -> None:
    """Empty every functools cache in the package, so each field is computed cold."""
    for name, mod in list(sys.modules.items()):
        if name == lw.__name__ or name.startswith(lw.__name__ + "."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _report(rep):
    return rep.label, rep.p, rep.n, rep.k, rep.r, rep.computed_g, rep.formula_g


def _run_waring(lw, case: Case):
    if case.kind == "thm1":
        return _report(lw.verify_theorem1(*case.args))
    if case.kind == "thm2":
        return _report(lw.verify_theorem2(*case.args))
    if case.kind == "remarks":
        return tuple(_report(rep) for rep in lw.verify_remarks(*case.args))
    if case.kind == "dense":
        p, n, k = case.args
        f = lw.FqField(p, lw.find_irreducible(p, n))
        return f.q, lw.waring_number(f, k)
    p, r = case.args
    f = lw.cyclotomic_field(p, r)
    k = (f.q - 1) // r
    g = lw.waring_number(f, k)
    lengths = tuple(lw.per_element_length(f, k, a) for a in f.elements())
    return f.q, k, g, lengths


# --- cli_cold ----------------------------------------------------------------

# (label, argv, expected exit code).  The label names the subcommand whose
# p50 the traced run reports; both `check` calls share one label.
CLI_COMMANDS = (
    ("bounds", ("bounds", "--m", "2..8", "--r", "1..12", "--format", "csv"), 0),
    ("construct", ("construct", "--m", "6", "--r", "3", "--norm", "lee", "--format", "json"), 0),
    ("check", ("check", "--m", "6", "--vec", "0,4,2", "--norm", "lee", "--format", "json"), 0),
    ("check", ("check", "--m", "3", "--vec", "1,1", "--norm", "lee", "--format", "json"), 3),
    ("oracle", ("oracle", "--m", "5", "--r", "3", "--norm", "lee", "--threads", "1", "--format", "json"), 0),
    ("waring", ("waring", "thm1", "--p", "3", "--r", "5", "--format", "json"), 0),
    ("waring_rejected", ("waring", "thm1", "--p", "2", "--r", "29"), 2),
)


def _cli_cases(tiny: bool) -> list[Case]:
    cmds = [c for c in CLI_COMMANDS if not tiny or c[0] != "waring_rejected"]
    return [Case(" ".join(argv), label, (argv, code)) for label, argv, code in cmds]


def cli_env(root: str) -> dict:
    """Environment of every child interpreter: the checkout's src, fixed hashing,
    one BLAS thread, and bytecode cached inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(root, ".perfbench_out", "pycache"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_cli_cold(root: str, argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "leewaring", *argv],
        cwd=root, env=cli_env(root), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(lw_cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lw_cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- dispatch ----------------------------------------------------------------

def build(workload: str, tiny: bool = False) -> list[Case]:
    return {
        "coset_oracle": _oracle_cases,
        "extremal_construct": _construct_cases,
        "waring_fields": _waring_cases,
        "cli_cold": _cli_cases,
    }[workload](tiny)


def run_case(lw, workload: str, case: Case, root: str):
    if workload == "coset_oracle":
        return _run_oracle(lw, case)
    if workload == "extremal_construct":
        return _run_construct(lw, case)
    if workload == "waring_fields":
        return _run_waring(lw, case)
    return run_cli_cold(root, case.args[0])


def smallest_call(lw, workload: str) -> None:
    """The workload's cheapest operation, run once by every set-up launch."""
    if workload == "coset_oracle":
        _run_oracle(lw, Case("", "grid", ("lee", 1, 1)))
    elif workload == "extremal_construct":
        _run_construct(lw, Case("", "modulus_one", ("lee", 1, 1)))
    elif workload == "waring_fields":
        _run_waring(lw, Case("", "thm1", (2, 3)))
    else:
        import leewaring.cli

        run_cli_inprocess(leewaring.cli, ("bounds", "--m", "1", "--r", "1"))
