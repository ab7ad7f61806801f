"""Spans around the library's public functions, and the per-layer metrics.

The traced run replaces each wrapped function on every ``leewaring``
module that holds it (the defining module, the package namespace and the
modules that import the name), so calls between modules are seen too.
Functions called millions of times (``norm``, ``shift``) are not wrapped.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function, work counted per call).  Work is a callable of
# (args, result), or None for "one call".
TARGETS = (
    ("oracle", "brute_max_admissible", lambda a, out: out.enumerated),
    ("construct", "construct_max_lee", lambda a, out: len(out)),
    ("construct", "construct_max_norm1", lambda a, out: len(out)),
    ("construct", "vector_from_m_diffs", None),
    ("modring", "concat", None),
    ("admissible", "m_sequence", None),
    ("admissible", "is_admissible", lambda a, out: a[0].modulus),
    ("admissible", "canonical_shift", lambda a, out: a[0].modulus),
    ("ffwaring", "cyclotomic_field", None),
    ("ffwaring", "find_irreducible", None),
    ("ffwaring", "kth_power_set", lambda a, out: a[0].q),
    ("ffwaring", "waring_number", lambda a, out: a[0].q),
    ("ffwaring", "per_element_length", None),
)

# Every per-layer metric, with its unit and direction, in report order.
PER_LAYER = (
    ("oracle.brute_max_admissible.s", "s", "lower"),
    ("oracle.cosets_per_s", "cosets/s", "higher"),
    ("oracle.tie_heavy.cosets_per_s", "cosets/s", "higher"),
    ("oracle.small_calls_per_s", "calls/s", "higher"),
    ("oracle.enumerated", "cosets", "lower"),
    ("construct.construct_max_lee.s", "s", "lower"),
    ("construct.construct_max_norm1.s", "s", "lower"),
    ("construct.vector_from_m_diffs.s", "s", "lower"),
    ("construct.coords_per_s", "coords/s", "higher"),
    ("modring.concat.calls", "count", "lower"),
    ("modring.concat.s", "s", "lower"),
    ("admissible.m_sequence.s", "s", "lower"),
    ("admissible.is_admissible.s", "s", "lower"),
    ("admissible.canonical_shift.s", "s", "lower"),
    ("admissible.shifts_per_s", "shifts/s", "higher"),
    ("ffwaring.cyclotomic_field.s", "s", "lower"),
    ("ffwaring.find_irreducible.s", "s", "lower"),
    ("ffwaring.kth_power_set.s", "s", "lower"),
    ("ffwaring.kth_power_set.elements_per_s", "elements/s", "higher"),
    ("ffwaring.bfs.s", "s", "lower"),
    ("ffwaring.bfs.elements_per_s", "elements/s", "higher"),
    ("ffwaring.per_element_length.calls_per_s", "calls/s", "higher"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.bounds.p50_ms", "ms", "lower"),
    ("cli.construct.p50_ms", "ms", "lower"),
    ("cli.check.p50_ms", "ms", "lower"),
    ("cli.oracle.p50_ms", "ms", "lower"),
    ("cli.waring.p50_ms", "ms", "lower"),
    ("cli.waring_rejected.p50_ms", "ms", "lower"),
    ("trace.sweep_s", "s", "lower"),
)

NAME, T0, T1, PARENT, PASS, TAG, WORK = range(7)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    pass index, case kind and the work the call did."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = 0
        self.tag = ""
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index, self.tag, 1]
            stack.append(len(spans))
            spans.append(rec)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                rec[T0] = t0
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, out)
            return out

        return traced

    def install(self, package: str = "leewaring") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, fn_name, work in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], passes: int, pass_times: list[float], cli: dict | None = None) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``X.s`` is the median over passes of the time spent in X per pass,
    counting only calls not nested in another call of X.  Rates divide
    work by time summed over all passes.  ``cli`` holds the cold-start
    probe timings of the cli_cold workload, in seconds.
    """
    outer = []
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            outer.append(i)

    per_pass: dict[str, list[float]] = {}
    count_per_pass: dict[str, list[int]] = {}
    work_per_pass: dict[str, list[float]] = {}

    def bump(table, name, pass_index, value):
        table.setdefault(name, [0.0] * passes)[pass_index] += value

    for i in outer:
        rec = spans[i]
        dur = rec[T1] - rec[T0]
        bump(per_pass, rec[NAME], rec[PASS], dur)
        bump(count_per_pass, rec[NAME], rec[PASS], 1)
        bump(work_per_pass, rec[NAME], rec[PASS], rec[WORK])

    # BFS self time: waring_number minus its kth_power_set descendants.
    bfs_self = [0.0] * passes
    bfs_elements = 0.0
    for i in outer:
        rec = spans[i]
        if rec[NAME] == "ffwaring.waring_number":
            bfs_self[rec[PASS]] += rec[T1] - rec[T0]
            bfs_elements += rec[WORK]
    for i in outer:
        rec = spans[i]
        if rec[NAME] != "ffwaring.kth_power_set":
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != "ffwaring.waring_number":
            p = spans[p][PARENT]
        if p >= 0:
            bfs_self[rec[PASS]] -= rec[T1] - rec[T0]

    def s(name):
        return _median(per_pass.get(name, []))

    def tagged(name, tag):
        work = dur = 0.0
        calls = 0
        for i in outer:
            rec = spans[i]
            if rec[NAME] == name and rec[TAG] == tag:
                work += rec[WORK]
                dur += rec[T1] - rec[T0]
                calls += 1
        return work, dur, calls

    def rate(*names, calls=False):
        work = sum(sum((count_per_pass if calls else work_per_pass).get(n, [])) for n in names)
        return _rate(work, sum(sum(per_pass.get(n, [])) for n in names))

    light_work, light_dur, _ = tagged("oracle.brute_max_admissible", "tie_light")
    heavy_work, heavy_dur, _ = tagged("oracle.brute_max_admissible", "tie_heavy")
    _, grid_dur, grid_calls = tagged("oracle.brute_max_admissible", "grid")
    cli = cli or {}
    interp = _median(cli.get("interpreter", []))
    out = {
        "oracle.brute_max_admissible.s": s("oracle.brute_max_admissible"),
        "oracle.cosets_per_s": _rate(light_work, light_dur),
        "oracle.tie_heavy.cosets_per_s": _rate(heavy_work, heavy_dur),
        "oracle.small_calls_per_s": _rate(grid_calls, grid_dur),
        "oracle.enumerated": _median(work_per_pass.get("oracle.brute_max_admissible", [])),
        "construct.construct_max_lee.s": s("construct.construct_max_lee"),
        "construct.construct_max_norm1.s": s("construct.construct_max_norm1"),
        "construct.vector_from_m_diffs.s": s("construct.vector_from_m_diffs"),
        "construct.coords_per_s": rate("construct.construct_max_lee", "construct.construct_max_norm1"),
        "modring.concat.calls": _median(count_per_pass.get("modring.concat", [])),
        "modring.concat.s": s("modring.concat"),
        "admissible.m_sequence.s": s("admissible.m_sequence"),
        "admissible.is_admissible.s": s("admissible.is_admissible"),
        "admissible.canonical_shift.s": s("admissible.canonical_shift"),
        "admissible.shifts_per_s": rate("admissible.is_admissible", "admissible.canonical_shift"),
        "ffwaring.cyclotomic_field.s": s("ffwaring.cyclotomic_field"),
        "ffwaring.find_irreducible.s": s("ffwaring.find_irreducible"),
        "ffwaring.kth_power_set.s": s("ffwaring.kth_power_set"),
        "ffwaring.kth_power_set.elements_per_s": rate("ffwaring.kth_power_set"),
        "ffwaring.bfs.s": _median(bfs_self) if "ffwaring.waring_number" in per_pass else 0.0,
        "ffwaring.bfs.elements_per_s": _rate(bfs_elements, sum(bfs_self)),
        "ffwaring.per_element_length.calls_per_s": rate("ffwaring.per_element_length", calls=True),
        "cli.interpreter_ms": 1000 * interp,
        "cli.import_ms": 1000 * (_median(cli.get("import", [])) - interp) if cli.get("import") else 0.0,
        "cli.main_ms": 1000 * _median(cli.get("main", [])),
        "trace.sweep_s": _median(pass_times),
    }
    for label in ("bounds", "construct", "check", "oracle", "waring", "waring_rejected"):
        out[f"cli.{label}.p50_ms"] = 1000 * _median(cli.get(label, []))
    return out
