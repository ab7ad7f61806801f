"""Full CLI output, byte for byte: stdout and exit code of one input per
subcommand in every format, the whole stderr line of each error kind, and
the memory of a streamed `bounds` table."""

import contextlib
import io
import json
import tracemalloc

import pytest

from leewaring import bounds as bnd
from leewaring.cli import main

BOUNDS_ROWS = [
    {"m": 2, "r": 2, "g": 1, "h": 1, "case": "EVEN_EVEN", "rho": 1},
    {"m": 2, "r": 3, "g": 1, "h": 1, "case": "EVEN_ODD_RGT", "rho": 1},
    {"m": 3, "r": 2, "g": 1, "h": 1, "case": "ODD_EVEN_RLT", "rho": 1},
    {"m": 3, "r": 3, "g": 3, "h": 2, "case": "ODD_R_LE", "rho": 2},
]

REMARKS_ROWS = [
    {"label": "g(p-1, p)", "p": 7, "n": 1, "q": 7, "r": 1, "k": 6, "k_reduced": 6,
     "computed_g": 6, "formula_g": 6, "match": True},
    {"label": "g((p-1)/2, p)", "p": 7, "n": 1, "q": 7, "r": 1, "k": 3, "k_reduced": 3,
     "computed_g": 3, "formula_g": 3, "match": True},
    {"label": "g((p^2-1)/4, p^2)", "p": 7, "n": 2, "q": 49, "r": 2, "k": 12, "k_reduced": 12,
     "computed_g": 6, "formula_g": 6, "match": True},
]

# argv -> (exit code, text stdout, csv stdout, json payload).  The json
# stdout is pinned as json.dumps(payload, indent=2) + "\n": the payload's
# key order and the two-space indent are part of the output.
GOLDEN = {
    "bounds --m 2..3 --r 2..3": (
        0,
        "   m    r        g        h           case      rho\n"
        "   2    2        1        1      EVEN_EVEN        1\n"
        "   2    3        1        1   EVEN_ODD_RGT        1\n"
        "   3    2        1        1   ODD_EVEN_RLT        1\n"
        "   3    3        3        2       ODD_R_LE        2\n",
        "m,r,g,h,case,rho\n"
        "2,2,1,1,EVEN_EVEN,1\n"
        "2,3,1,1,EVEN_ODD_RGT,1\n"
        "3,2,1,1,ODD_EVEN_RLT,1\n"
        "3,3,3,2,ODD_R_LE,2\n",
        BOUNDS_ROWS,
    ),
    "construct --m 6 --r 3 --norm lee": (
        0,
        "m: 6\nr: 3\nnorm: lee\nvector: 0,4,2\nvalue: 4\nbound: 4\nadmissible: true\n",
        "m,r,norm,vector,value,bound,admissible\n6,3,lee,0 4 2,4,4,True\n",
        {"m": 6, "r": 3, "norm": "lee", "vector": [0, 4, 2], "value": 4, "bound": 4, "admissible": True},
    ),
    "check --m 3 --vec 1,1 --norm lee": (
        3,
        "vector: 1,1\nnorm: 2\nadmissible: false\ncanonical shift: 2 -> 0,0\nnorm sequence: 2,2,0\n",
        "m,norm,vector,value,admissible,shift,shifted,norm_sequence\n3,lee,1 1,2,False,2,0 0,2 2 0\n",
        {"m": 3, "norm": "lee", "vector": [1, 1], "value": 2, "admissible": False,
         "canonical_shift": 2, "shifted": [0, 0], "norm_sequence": [2, 2, 0]},
    ),
    "oracle --m 5 --r 3 --norm lee": (
        0,
        "oracle max: 3\nformula: 3\nwitness: 0,1,3\nenumerated: 25\nMATCH\n",
        "m,r,norm,oracle_max,formula,witness,enumerated,match\n5,3,lee,3,3,0 1 3,25,True\n",
        {"m": 5, "r": 3, "norm": "lee", "oracle_max": 3, "formula": 3, "witness": [0, 1, 3],
         "enumerated": 25, "match": True},
    ),
    "waring remarks --p 7": (
        0,
        "g(p-1, p): p=7 q=7 k=6 (gcd 6) computed=6 formula=6 MATCH\n"
        "g((p-1)/2, p): p=7 q=7 k=3 (gcd 3) computed=3 formula=3 MATCH\n"
        "g((p^2-1)/4, p^2): p=7 q=49 k=12 (gcd 12) computed=6 formula=6 MATCH\n",
        "label,p,n,q,r,k,k_reduced,computed_g,formula_g,match\n"
        '"g(p-1, p)",7,1,7,1,6,6,6,6,True\n'
        '"g((p-1)/2, p)",7,1,7,1,3,3,3,3,True\n'
        '"g((p^2-1)/4, p^2)",7,2,49,2,12,12,6,6,True\n',
        REMARKS_ROWS,
    ),
    "waring thm1 --p 3 --r 5": (
        0,
        "g((q-1)/r, q): p=3 q=81 k=16 (gcd 16) computed=4 formula=4 MATCH\n",
        "label,p,n,q,r,k,k_reduced,computed_g,formula_g,match\n" '"g((q-1)/r, q)",3,4,81,5,16,16,4,4,True\n',
        {"label": "g((q-1)/r, q)", "p": 3, "n": 4, "q": 81, "r": 5, "k": 16, "k_reduced": 16,
         "computed_g": 4, "formula_g": 4, "match": True},
    ),
    "waring thm2 --p 5 --r 7": (
        0,
        "g((q-1)/(2r), q): p=5 q=15625 k=1116 (gcd 1116) computed=8 formula=8 MATCH\n",
        "label,p,n,q,r,k,k_reduced,computed_g,formula_g,match\n"
        '"g((q-1)/(2r), q)",5,6,15625,7,1116,1116,8,8,True\n',
        {"label": "g((q-1)/(2r), q)", "p": 5, "n": 6, "q": 15625, "r": 7, "k": 1116, "k_reduced": 1116,
         "computed_g": 8, "formula_g": 8, "match": True},
    ),
    "waring generic --p 2 --n 2 --k 3": (
        4,
        "g(k, q): p=2 q=4 k=3 (gcd 3) computed=NONE\n",
        "label,p,n,q,r,k,k_reduced,computed_g,formula_g,match\n" '"g(k, q)",2,2,4,,3,3,,,\n',
        {"label": "g(k, q)", "p": 2, "n": 2, "q": 4, "r": None, "k": 3, "k_reduced": 3,
         "computed_g": None, "formula_g": None, "match": None},
    ),
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_stdout(capsys, command, fmt):
    code, text, csv_out, payload = GOLDEN[command]
    expected = {"text": text, "csv": csv_out, "json": json.dumps(payload, indent=2) + "\n"}[fmt]
    assert run_cli(capsys, command.split() + ["--format", fmt]) == (code, expected, "")


@pytest.mark.parametrize(
    "command, err",
    [
        (
            "oracle --m 7 --r 9 --norm lee --budget 1000000",
            "budget exceeded: oracle enumeration needs 5764801, which exceeds the budget of 1000000\n",
        ),
        (
            "waring thm2 --p 5 --r 7 --budget 100",
            "budget exceeded: field size needs 15625, which exceeds the budget of 100\n",
        ),
        (
            "waring thm1 --p 7 --r 3",
            "hypothesis failure: 1 + x + ... + x^2 is reducible mod 7: 7 is not a primitive root modulo 3\n",
        ),
        # the budget pre-check runs before the hypothesis and must not compute 0 ** -1
        ("waring thm1 --p 0 --r 0", "hypothesis failure: order must be a prime >= 2, got 0\n"),
        ("construct --m 0 --r 3 --norm lee", "error: m and r must be positive, got m=0, r=3\n"),
    ],
)
def test_golden_stderr(capsys, command, err):
    for fmt in ("text", "csv", "json"):
        assert run_cli(capsys, command.split() + ["--format", fmt]) == (2, "", err)


class _Tail(io.TextIOBase):
    """A stdout that keeps only the number of lines and the last characters."""

    def __init__(self):
        self.lines, self.tail = 0, ""

    def write(self, s):
        self.lines += s.count("\n")
        self.tail = (self.tail + s)[-200:]
        return len(s)


# 153 is the smallest square table whose rows, collected before printing,
# still peak at twice the bound (8.2 MiB csv, 8.1 MiB text); tracemalloc
# makes every larger table slower.  json prints eight lines a row and dumps
# it in Python, so its table is smaller; collected, even this one peaks far
# above the bound.
@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_bounds_streams_its_table(fmt):
    top = 120 if fmt == "json" else 153
    sink = _Tail()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["bounds", "--m", f"1..{top}", "--r", f"1..{top}", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g, h = bnd.g_bound(top, top), bnd.h_bound(top, top)  # rho, the covering radius, is h
    case = bnd.bound_case(top, top).value
    last = {
        "csv": f"\n{top},{top},{g},{h},{case},{h}\n",
        "text": f"\n {top}  {top} {g:>8} {h:>8} {case:>14} {h:>8}\n",
        "json": f'\n    "h": {h},\n    "case": "{case}",\n    "rho": {h}\n  }}\n]\n',
    }[fmt]
    # json: "[", eight lines a row ("{", six keys, "}"), then "]"
    assert code == 0 and sink.lines == (2 + 8 * top * top if fmt == "json" else 1 + top * top)
    assert sink.tail.endswith(last)
    assert peak < 4 * 2**20, peak
