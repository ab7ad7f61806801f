"""tools/ab.py on two copies of this checkout's package, at the benchmark's tiny size."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(_ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.fixture
def copies(tmp_path):
    sides = []
    for side in ("parent", "change"):
        shutil.copytree(os.path.join(_ROOT, "src", "leewaring"), tmp_path / side / "src" / "leewaring")
        sides.append(tmp_path / side)
    yield sides
    for key in [key for key in sys.modules if key.split(".")[0] in ("parent_leewaring", "change_leewaring", "ab_cases")]:
        del sys.modules[key]


def test_the_record_of_two_equal_checkouts(copies, capsys):
    argv = [str(copies[0]), str(copies[1]), "--workload", "extremal_construct", "--rounds", "3", "--tiny"]
    assert ab.main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"workload", "rounds", "tiny", "timer", "cases", "parent", "change", "ratio", "change_wins"}
    assert (record["workload"], record["rounds"], record["tiny"], record["timer"]) == (
        "extremal_construct", 3, True, "process_time"
    )
    assert record["cases"] == 8
    for side in ("parent", "change"):
        summary = record[side]
        assert set(summary) == {"values", "median", "q1", "q3"} and len(summary["values"]) == 3
        assert summary["q1"] <= summary["median"] <= summary["q3"]
    ratio = record["ratio"]
    assert set(ratio) == {"median", "min", "max"} and ratio["min"] <= ratio["median"] <= ratio["max"]
    assert 0 <= record["change_wins"] <= 3


def test_a_case_whose_outputs_differ_is_refused(copies, capsys):
    # the change's norm-1 construction returns its coordinates reversed: the same
    # multiset, a different vector
    with open(copies[1] / "src" / "leewaring" / "construct.py", "a") as fh:
        fh.write(
            "\n_built = construct_max_norm1\n\n\n"
            "def construct_max_norm1(m, r):\n    return ModVec(m, _built(m, r).coords[::-1])\n"
        )
    argv = [str(copies[0]), str(copies[1]), "--workload", "extremal_construct", "--rounds", "1", "--tiny"]
    assert ab.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "ab: norm1 one 12,20: the two outputs differ\n"


def test_a_workload_that_starts_processes_is_refused(copies):
    with pytest.raises(SystemExit):  # argparse offers only the in-process workloads
        ab.main([str(copies[0]), str(copies[1]), "--workload", "cli_cold"])
