import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from leewaring import admissible, cli, ffwaring
from leewaring.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "2..4", "--r", "2..3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,r,g,h,case,rho"
    assert len(lines) == 1 + 6
    assert "3,3,3,2,ODD_R_LE,2" in lines
    row25 = [l for l in run_cli(capsys, "bounds", "--m", "2", "--r", "5", "--format", "csv")[1].splitlines() if l.startswith("2,5")]
    assert row25 == ["2,5,2,2,EVEN_ODD_RGT,2"]


def test_bounds_csv_is_byte_stable(capsys):
    args = ("bounds", "--m", "1..6", "--r", "1..6", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_bounds_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "3", "--r", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"m": 3, "r": 3, "g": 3, "h": 2, "case": "ODD_R_LE", "rho": 2}]


def test_bounds_rejects_malformed_range(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--m", "4..x", "--r", "2"])
    assert info.value.code == 2


def test_construct_lee(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "6", "--r", "3", "--norm", "lee")
    assert code == 0
    assert "value: 4" in out and "bound: 4" in out and "admissible: true" in out
    code, out, _ = run_cli(capsys, "construct", "--m", "8", "--r", "3", "--norm", "lee", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5 == payload["bound"] and payload["admissible"] is True


def test_construct_modulus_one(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "1", "--r", "3", "--norm", "one")
    assert code == 0
    assert "vector: 0,0,0" in out and "value: 0" in out


def test_check_admissible(capsys):
    code, out, _ = run_cli(capsys, "check", "--m", "4", "--vec", "0,2", "--norm", "lee")
    assert code == 0
    assert "norm: 2" in out and "admissible: true" in out


def test_check_not_admissible(capsys):
    code, out, _ = run_cli(capsys, "check", "--m", "3", "--vec", "1,1", "--norm", "lee")
    assert code == 3
    assert "admissible: false" in out and "canonical shift: 2" in out


def test_check_zero_vector(capsys):
    code, out, _ = run_cli(capsys, "check", "--m", "5", "--vec", "0,0,0", "--norm", "one")
    assert code == 0
    assert "norm: 0" in out


def test_check_rejects_malformed_vector(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--m", "4", "--vec", "0,two", "--norm", "lee"])
    assert info.value.code == 2


def _refused(capsys, *argv):
    """Exit code and stderr of a command that must refuse before it allocates."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert out == ""
    return code, err


def test_construct_and_check_refuse_a_huge_modulus(capsys):
    # both are linear in m: without a budget, construct --m 10^7 takes 11.6 s at 704 MB
    code, err = _refused(capsys, "construct", "--m", "1000000000", "--r", "3", "--norm", "lee")
    assert code == 2
    assert err == "budget exceeded: construction needs 1000000003, which exceeds the budget of 10000000\n"
    code, err = _refused(capsys, "check", "--m", "1000000000", "--vec", "0,1", "--norm", "one")
    assert code == 2
    assert err == "budget exceeded: admissibility check needs 1000000002, which exceeds the budget of 10000000\n"


def test_construct_and_check_budgets_count_m_plus_coordinates(capsys):
    for budget, code in (("9", 0), ("8", 2)):
        assert run_cli(capsys, "construct", "--m", "6", "--r", "3", "--norm", "lee", "--budget", budget)[0] == code
        assert run_cli(capsys, "check", "--m", "6", "--vec", "0,2,4", "--norm", "lee", "--budget", budget)[0] == code


def test_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "5", "--r", "3", "--norm", "lee")
    assert code == 0
    assert "MATCH" in out and "oracle max: 3" in out
    code, out, _ = run_cli(capsys, "oracle", "--m", "3", "--r", "3", "--norm", "one")
    assert code == 0
    assert "oracle max: 3" in out


def test_oracle_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "oracle", "--m", "7", "--r", "9", "--norm", "lee", "--budget", "1000000")
    assert code == 2
    assert str(7**8) in err


def test_oracle_rejects_nonpositive_threads(capsys):
    code, out, err = run_cli(capsys, "oracle", "--m", "3", "--r", "3", "--norm", "lee", "--threads", "0")
    assert code == 2 and out == ""
    assert "threads must be positive" in err


def test_oracle_budget_exceeded_by_astronomical_count(capsys):
    # 3^9999 has 4771 digits, past Python's limit for printing an int
    code, out, err = run_cli(capsys, "oracle", "--m", "3", "--r", "10000", "--norm", "lee")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: ") and "at least 2^9999," in err


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "4", "--r", "3", "--norm", "lee", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_max"] == payload["formula"] == 2
    assert payload["enumerated"] == 16 and payload["match"] is True


def test_waring_thm1(capsys):
    code, out, _ = run_cli(capsys, "waring", "thm1", "--p", "3", "--r", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed_g"] == 4 == payload["formula_g"] and payload["match"] is True


def test_waring_thm2(capsys):
    code, out, _ = run_cli(capsys, "waring", "thm2", "--p", "5", "--r", "3")
    assert code == 0
    assert "MATCH" in out


def test_waring_remarks(capsys):
    code, out, _ = run_cli(capsys, "waring", "remarks", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [rep["computed_g"] for rep in payload] == [6, 3, 6]


def test_waring_generic_undefined(capsys):
    code, out, _ = run_cli(capsys, "waring", "generic", "--p", "2", "--n", "2", "--k", "3")
    assert code == 4
    assert "NONE" in out


def test_waring_generic_defined(capsys):
    code, out, _ = run_cli(capsys, "waring", "generic", "--p", "5", "--n", "1", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed_g"] == 2 and payload["match"] is None


def test_waring_hypothesis_failure(capsys):
    code, _, err = run_cli(capsys, "waring", "thm1", "--p", "7", "--r", "3")
    assert code == 2
    assert "primitive root" in err
    code, _, err = run_cli(capsys, "waring", "thm2", "--p", "2", "--r", "5")
    assert code == 2
    assert "odd primes" in err


def test_waring_budget(capsys):
    code, _, err = run_cli(capsys, "waring", "thm2", "--p", "5", "--r", "7", "--budget", "100")
    assert code == 2
    assert "budget" in err


def test_waring_budget_checked_before_building_field(capsys, monkeypatch):
    def refuse(p, r):
        raise AssertionError("the field must not be built over budget")

    monkeypatch.setattr(ffwaring, "cyclotomic_field", refuse)
    for thm in ("thm1", "thm2"):
        code, _, err = run_cli(capsys, "waring", thm, "--p", "3", "--r", "29")
        assert code == 2
        assert "budget exceeded" in err and str(3**28) in err


def test_waring_budget_exceeded_by_astronomical_field(capsys):
    code, out, err = run_cli(capsys, "waring", "generic", "--p", "3", "--n", "10000", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: field size needs at least 2^10000,")


def test_waring_refuses_a_huge_degree_before_building_its_size(capsys):
    # 3^3000000 is never built: the bound 2^3000000 is read off the bit lengths
    code, out, err = run_cli(capsys, "waring", "generic", "--p", "3", "--n", "3000000", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: field size needs at least 2^3000000,")


HUGE_PRIME = 2**61 - 1


@pytest.mark.parametrize(
    "argv",
    [
        ("generic", "--p", str(HUGE_PRIME), "--n", "1", "--k", "2"),
        ("remarks", "--p", str(HUGE_PRIME)),
        ("thm1", "--p", str(HUGE_PRIME), "--r", "3"),
    ],
    ids=["generic", "remarks", "thm1"],
)
def test_waring_refuses_a_huge_prime_before_testing_it(capsys, monkeypatch, argv):
    # trial division up to isqrt(2^61 - 1) would run for minutes
    def refuse(n):
        raise AssertionError(f"primality test of {n} over budget")

    monkeypatch.setattr(ffwaring, "_is_prime", refuse)
    code, out, err = run_cli(capsys, "waring", *argv)
    assert code == 2 and out == ""
    assert err == f"budget exceeded: field size needs {HUGE_PRIME}, which exceeds the budget of 2000000\n"


@pytest.mark.parametrize("thm", ["thm1", "thm2"])
def test_waring_refuses_a_huge_order_before_testing_it(capsys, monkeypatch, thm):
    # q = 3^(r-1) is refused on r - 1 alone, before r's primality test
    def refuse(n):
        raise AssertionError(f"primality test of {n} over budget")

    monkeypatch.setattr(ffwaring, "_is_prime", refuse)
    code, out, err = run_cli(capsys, "waring", thm, "--p", "3", "--r", str(HUGE_PRIME))
    assert code == 2 and out == ""
    assert err == "budget exceeded: field size needs at least 2^16777216, which exceeds the budget of 2000000\n"


def test_check_computes_the_norm_sequence_once(capsys, monkeypatch):
    real, calls = admissible.norm_sequence, []

    def counted(v, kind):
        calls.append(v)
        return real(v, kind)

    monkeypatch.setattr(admissible, "norm_sequence", counted)
    monkeypatch.setattr(cli, "norm_sequence", counted)
    code, out, _ = run_cli(capsys, "check", "--m", "4", "--vec", "1,2,3", "--norm", "lee")
    assert code == 3 and len(calls) == 1
    assert "canonical shift: 2 -> 3,0,1" in out and "norm sequence: 4,3,2,3" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--m", "1..100", "--r", "1..100"],  # 10 001 lines, streamed
        ["oracle", "--m", "1", "--r", "100000", "--norm", "lee"],  # a 200 kB witness line
    ],
    ids=["bounds", "oracle"],
)
def test_a_closed_pipe_exits_141_and_keeps_stderr_empty(argv):
    # `leewaring bounds ... | head -1` once printed a BrokenPipeError traceback and
    # exited 1, the code of a verified mismatch; each output is far over a pipe's buffer
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "leewaring", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first and (code, err) == (cli.EXIT_CLOSED_PIPE, b"") == (141, b"")


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, leewaring.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NUMPY_FREE_COMMANDS = [
    ["bounds", "--m", "2..8", "--r", "1..12"],
    ["construct", "--m", "6", "--r", "3", "--norm", "lee"],
    ["check", "--m", "6", "--vec", "0,4,2", "--norm", "lee"],
]


def test_bounds_construct_and_check_run_without_numpy(capsys):
    # a child in which importing numpy raises ImportError prints what this process prints
    script = (
        "import sys\nsys.modules['numpy'] = None\nfrom leewaring.cli import main\n"
        f"assert [main(argv) for argv in {NUMPY_FREE_COMMANDS!r}] == [0, 0, 0]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [main(argv) for argv in NUMPY_FREE_COMMANDS] == [0, 0, 0]
    assert proc.stdout == capsys.readouterr().out


def test_waring_refuses_a_prime_above_the_exact_primality_bound(capsys):
    # 2^89 - 1 passes Miller-Rabin above the range where it is exact; it used to hang in trial division
    big = str(2**89 - 1)
    code, out, err = run_cli(capsys, "waring", "generic", "--p", big, "--n", "1", "--k", "1", "--budget", str(10**27))
    assert code == 2 and out == ""
    assert err.startswith("hypothesis failure: ") and big in err and "3317044064679887385961981" in err
