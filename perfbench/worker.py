"""One fresh interpreter of the benchmark: a set-up launch or the measured run.

    python3 perfbench/worker.py setup   --workload W [--tiny]
    python3 perfbench/worker.py measure --workload W --seed N --seconds T --trace 0|1 [--tiny]

``setup`` imports the library from the checkout's ``src/``, builds the
workload's cases and runs its smallest call, then exits.  ``measure``
runs whole passes over the case list, each in a seeded order, until the
time is spent; it checks every output and prints one JSON line.
run.py starts both; they are not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 2


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import leewaring

    if not os.path.abspath(leewaring.__file__).startswith(src + os.sep):
        raise SystemExit(f"leewaring was imported from {leewaring.__file__}, not from {src}")
    return leewaring


def _measure(lw, workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import cases
    import checks

    case_list = cases.build(workload, tiny)
    cli_mod = None
    if workload == "cli_cold":
        import leewaring.cli as cli_mod
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cases.smallest_call(lw, workload)  # untimed warm call
    if tracer is not None:
        tracer.spans.clear()

    rng = random.Random(seed)
    checked: dict[str, object] = {}
    problems: list[str] = []  # wrong outputs
    errors: list[str] = []  # failed operations, counted in "failed"
    pass_times: list[float] = []
    case_times: dict[str, list[float]] = {c.name: [] for c in case_list}
    probes: dict[str, list[float]] = {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        order = list(case_list)
        rng.shuffle(order)
        outputs = []
        gc.collect()
        swept = 0.0
        for case in order:
            if workload == "waring_fields":
                cases.clear_caches(lw)  # every sumset table is computed cold
            if tracer is not None:
                tracer.tag = case.kind
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = cases.run_case(lw, workload, case, ROOT)
            except Exception as err:  # a failed operation is counted, not fatal
                failed += 1
                outputs.append((case, None))
                errors.append(f"{case.name}: raised {type(err).__name__}: {err}")
                continue
            finally:
                dt = time.perf_counter() - t0
                swept += dt
            case_times[case.name].append(dt)
            outputs.append((case, out))
        pass_times.append(swept)
        if workload == "cli_cold" and tracer is not None:
            tracer.tag = "main"
            _cli_probes(lw, cli_mod, case_list, probes)
        for case, out in outputs:
            if out is None:
                continue
            if case.name not in checked:
                found = checks.check(lw, workload, case, out)
                problems += found
                checked[case.name] = out if not found else None
            elif out != checked[case.name]:
                problems.append(f"{case.name}: output differs from the checked output of pass 1")
        if tracer is not None:
            tracer.pass_index += 1
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + 0.5 * pass_times[-1] >= seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "errors": errors[:20],
        "passes": len(pass_times),
        "pass_times": pass_times,
        "case_times": case_times,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import tracing

        if workload == "cli_cold":
            for case in case_list:  # cold times per subcommand label, for the p50s
                probes.setdefault(case.kind, []).extend(case_times[case.name])
        result["layers"] = tracing.layer_metrics(tracer.spans, len(pass_times), pass_times, probes)
        trace_dir = os.path.join(ROOT, ".perfbench_out", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        result["trace_file"] = os.path.join(trace_dir, f"{workload}-seed{seed}.json.gz")
        with gzip.open(result["trace_file"], "wt") as fh:
            json.dump({"fields": ["name", "t0", "t1", "parent", "pass", "kind", "work"], "spans": tracer.spans}, fh)
    return result


def _cli_probes(lw, cli_mod, case_list, probes: dict) -> None:
    """Traced cli_cold only: the interpreter floor, the import of the CLI
    module, and the command list run in-process through main(argv)."""
    import cases

    env = cases.cli_env(ROOT)
    for key, code in (("interpreter", "pass"), ("import", "import leewaring.cli")):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        probes.setdefault(key, []).append(time.perf_counter() - t0)
    cases.clear_caches(lw)  # each command starts cold, as a fresh process would
    t0 = time.perf_counter()
    for case in case_list:
        cases.run_cli_inprocess(cli_mod, case.args[0])
    probes.setdefault("main", []).append(time.perf_counter() - t0)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    lw = _import_library()
    if args.mode == "setup":
        import cases

        cases.build(args.workload, args.tiny)
        cases.smallest_call(lw, args.workload)
        return
    result = _measure(lw, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
