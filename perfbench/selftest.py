"""Self-test of the benchmark: every workload runs to its end at a tiny
size, and every checker rejects corrupted results.

    python3 perfbench/selftest.py

Exits 0 when all checks pass, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cases  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import leewaring as lw  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(workload: str, case, output, what: str) -> None:
    expect(bool(checks.check(lw, workload, case, output)), f"{workload}: checker rejects {what}")


def accepts(workload: str, case, output) -> None:
    problems = checks.check(lw, workload, case, output)
    expect(not problems, f"{workload}: checker accepts the real output of {case.name} {problems[:1]}")


def test_references() -> None:
    """The closed forms agree with plain enumeration on a small grid."""
    bad = [(n, m, r) for m in range(1, 7) for r in range(1, 6) for n in ("one", "lee")
           if checks.plain_oracle(n, m, r)[0] != checks.ref_bound(n, m, r)]
    expect(not bad, f"reference g and h equal plain enumeration on m <= 6, r <= 5 {bad[:3]}")


def test_oracle_checker() -> None:
    case = cases.Case("grid lee 5,4", "grid", ("lee", 5, 4))
    best, witness, count = cases.run_case(lw, "coset_oracle", case, ROOT)
    accepts("coset_oracle", case, (best, witness, count))
    rejects("coset_oracle", case, (best + 1, witness, count), "an off-by-one maximum")
    rejects("coset_oracle", case, (best, (0, 1, 1, 1), count), "a non-admissible witness")
    other = checks.plain_oracle("lee", 5, 4)[1]
    alt = tuple(sorted(other, reverse=True))  # same histogram, so same norm, but not the smallest
    rejects("coset_oracle", case, (best, alt, count), "a witness that is not the smallest maximiser")
    rejects("coset_oracle", case, (best, witness, count - 1), "a wrong coset count")


def test_construct_checker() -> None:
    case = cases.Case("step_plan lee 10,19", "step_plan", ("lee", 10, 19))
    out = cases.run_case(lw, "extremal_construct", case, ROOT)
    accepts("extremal_construct", case, out)
    m, coords, adm, x, shifted = out
    bad = tuple((c + 3) % m for c in coords)  # same coset, not admissible
    rejects("extremal_construct", case, (m, bad, adm, x, bad), "a non-admissible vector")
    rejects("extremal_construct", case, (m, coords, False, x, shifted), "is_admissible returning False")
    rejects("extremal_construct", case, (m, coords, adm, 1, shifted), "a nonzero canonical shift")


def test_waring_checker() -> None:
    for case in cases.build("waring_fields", tiny=True):
        cases.clear_caches(lw)
        out = cases.run_case(lw, "waring_fields", case, ROOT)
        accepts("waring_fields", case, out)
        if case.kind in ("thm1", "thm2"):
            wrong = out[:5] + (out[5] + 1, out[6])
            rejects("waring_fields", case, wrong, f"a wrong g in {case.name}")
        elif case.kind == "remarks":
            wrong = (out[0][:5] + (out[0][5] - 1, out[0][6]),) + out[1:]
            rejects("waring_fields", case, wrong, f"a wrong g in {case.name}")
        elif case.kind == "dense":
            rejects("waring_fields", case, (out[0], 3), f"a wrong g in {case.name}")
        else:
            q, k, g, lengths = out
            rejects("waring_fields", case, (q, k, g + 1, lengths), f"a wrong g in {case.name}")
            wrong = lengths[:1] + (lengths[1] + 1,) + lengths[2:]
            rejects("waring_fields", case, (q, k, g, wrong), f"a wrong element length in {case.name}")


def test_cli_checker() -> None:
    for case in cases.build("cli_cold"):
        if case.kind == "waring_rejected":
            continue  # slow; its exit code is covered by the full-size runs
        out = cases.run_case(lw, "cli_cold", case, ROOT)
        accepts("cli_cold", case, out)
        code, stdout, stderr = out
        rejects("cli_cold", case, (3 if code == 0 else 0, stdout, stderr), f"a wrong exit code for {case.name}")
        if case.args[0][0] in ("oracle", "construct", "waring"):
            payload = json.loads(stdout)
            key = {"oracle": "oracle_max", "construct": "value", "waring": "computed_g"}[case.args[0][0]]
            payload[key] += 1
            rejects("cli_cold", case, (code, json.dumps(payload), stderr), f"a wrong printed value for {case.name}")


def test_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == {n: u for n, u, _ in tracing.PER_LAYER}, "BENCHMARK.json lists exactly the traced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS), "BENCHMARK.json lists the workloads")
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace} at tiny size"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0: {proc.stderr[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = layers if trace else e2e
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0 and units == want,
                   f"{what} runs to its end, correct, with every metric")


def main() -> None:
    test_references()
    test_oracle_checker()
    test_construct_checker()
    test_waring_checker()
    test_cli_checker()
    test_runs()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
