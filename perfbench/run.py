"""Benchmark of the leewaring checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: coset_oracle, extremal_construct, waring_fields, cli_cold (see
README.md).  The run launches fresh interpreters that import the library
from the checkout's ``src/``, one at a time:

* with ``--trace 0``, several set-up launches (``setup_s`` is their
  median), then one measured run that reports ``sweep_s`` (median time of
  a pass over the whole case list) and ``peak_rss_mb``;
* with ``--trace 1``, one measured run with spans around the library's
  public functions, reporting the per-layer metrics.

Every output is checked.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the commit, Python and numpy versions and CPU count.
The full record of the run is written under ``.perfbench_out/runs/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cases  # noqa: E402
import tracing  # noqa: E402

SETUP_LAUNCHES = 7
DEADLINE_S = 170  # whole run, so that it exits within 180 s

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}


def _worker(mode: str, args, extra=(), timeout: float = 60) -> subprocess.CompletedProcess:
    """Run worker.py in its own process group; on timeout the whole group
    (the worker and any CLI child it is waiting for) is killed and reaped."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload, *extra]
    if args.tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, cwd=ROOT, env=cases.cli_env(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _fail(f"{mode} run did not finish within {timeout:.0f} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _fail(msg: str, proc: subprocess.CompletedProcess | None = None) -> None:
    if proc is not None:
        sys.stderr.write(proc.stderr[-4000:])
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def _setup_times(args) -> list[float]:
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # launch 0 fills the bytecode cache, untimed
        t0 = time.perf_counter()
        proc = _worker("setup", args)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"set-up launch exited with {proc.returncode}", proc)
        if i:
            times.append(dt)
    return times


def _environment() -> dict:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny case lists, for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "leewaring", "__init__.py")):
        _fail(f"no leewaring sources under {os.path.join(ROOT, 'src')}")

    started = time.perf_counter()
    setup = [] if args.trace else _setup_times(args)
    budget = DEADLINE_S - (time.perf_counter() - started)
    proc = _worker("measure", args, ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], timeout=budget)
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"measured run exited with {proc.returncode}", proc)
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": run["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(run["pass_times"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    env = _environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_times": setup, "problems": run["problems"], "errors": run["errors"],
        "passes": run["passes"], "pass_times": run["pass_times"], "case_times": run["case_times"],
        "trace_file": run.get("trace_file"), "result": result,
    }
    out_dir = os.path.join(ROOT, ".perfbench_out", "runs")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in run["problems"]:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    for error in run["errors"]:
        sys.stderr.write(f"perfbench: operation failed: {error}\n")
    print("# environment " + json.dumps(env))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
