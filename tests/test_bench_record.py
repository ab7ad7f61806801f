"""tools/bench_record.py on synthetic run records."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write(checkout, workload, seed, sweep, *, commit, correct=True, seconds=25, setup=0.2, rss=30.0, attempted=10):
    runs = checkout / ".perfbench_out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    metrics = {"setup_s": setup, "sweep_s": sweep, "peak_rss_mb": rss}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "environment": {"commit": commit, "python": "3.11.7", "numpy": "2.4.6", "nproc": 2},
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": 0,
            "metrics": {name: {"value": value, "unit": "?"} for name, value in metrics.items()},
        },
    }
    (runs / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in [(1, 0.20, 0.10), (2, 0.18, 0.12), (3, 0.21, 0.09), (4, 0.10, 0.11)]:
        _write(parent, "waring_fields", seed, before, commit="aaa", attempted=100 + seed)
        _write(change, "waring_fields", seed, after, commit="bbb", rss=29.0, attempted=200 + 2 * seed)
    _write(parent, "cli_cold", 7, 0.5, commit="aaa")
    _write(change, "cli_cold", 7, 0.5, commit="bbb")
    return parent, change


def test_medians_quartiles_and_wins(checkouts, tmp_path):
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main([str(checkouts[0]), str(checkouts[1]), "--pr", "9", "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["pr"], record["parent_commit"], record["change_commit"]) == (9, "aaa", "bbb")
    assert (record["python"], record["numpy"], record["nproc"], record["run_seconds"]) == ("3.11.7", "2.4.6", 2, 25)
    fields = record["workloads"]["waring_fields"]
    assert fields["pairs"] == 4 and fields["seeds"] == [1, 2, 3, 4]
    sweep = fields["metrics"]["sweep_s"]
    assert sweep["parent"]["values"] == [0.20, 0.18, 0.21, 0.10]
    assert sweep["parent"]["median"] == pytest.approx(0.19)
    assert sweep["change"]["median"] == pytest.approx(0.105)
    assert (sweep["parent"]["q1"], sweep["parent"]["q3"]) == pytest.approx((0.16, 0.2025))
    assert sweep["change_wins"] == 3  # seed 4 is slower
    assert fields["metrics"]["peak_rss_mb"]["change_wins"] == 4
    assert fields["metrics"]["setup_s"]["change_wins"] == 0  # ties count for neither side
    assert fields["attempted"] == {"parent": 102.5, "change": 205}
    ratio = sweep["ratio"]  # per pair 0.5, 0.667, 0.429 and 1.1
    assert (ratio["min"], ratio["max"]) == pytest.approx((0.09 / 0.21, 1.1))
    assert ratio["median"] == pytest.approx((0.5 + 0.12 / 0.18) / 2)
    assert fields["metrics"]["peak_rss_mb"]["ratio"]["median"] == pytest.approx(29 / 30)
    assert record["workloads"]["cli_cold"]["pairs"] == 1
    cold = record["workloads"]["cli_cold"]["metrics"]["sweep_s"]
    assert (cold["parent"]["q1"], cold["parent"]["median"], cold["parent"]["q3"]) == (0.5, 0.5, 0.5)


def _refused(checkouts, tmp_path, capsys, reason):
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main([str(checkouts[0]), str(checkouts[1]), "--pr", "9", "--output", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_refuses_an_incorrect_run(checkouts, tmp_path, capsys):
    _write(checkouts[1], "waring_fields", 2, 0.12, commit="bbb", correct=False)
    _refused(checkouts, tmp_path, capsys, "not correct")


def test_refuses_different_run_lengths(checkouts, tmp_path, capsys):
    _write(checkouts[0], "waring_fields", 3, 0.21, commit="aaa", seconds=5)
    _refused(checkouts, tmp_path, capsys, "run lengths differ")


def test_refuses_a_seed_without_partner(checkouts, tmp_path, capsys):
    _write(checkouts[1], "waring_fields", 5, 0.1, commit="bbb")
    _refused(checkouts, tmp_path, capsys, "no partner for waring_fields seed 5")


def test_refuses_a_parent_value_of_zero(checkouts, tmp_path, capsys):
    _write(checkouts[0], "cli_cold", 7, 0.0, commit="aaa")
    _refused(checkouts, tmp_path, capsys, "cli_cold sweep_s: a parent value of 0 has no ratio")


def test_refuses_records_of_several_commits(checkouts, tmp_path, capsys):
    _write(checkouts[1], "waring_fields", 4, 0.11, commit="ccc")
    _refused(checkouts, tmp_path, capsys, "several commits")
