"""The package computes in exact integers: no true division, no float literal.

A float that slips into a count, a budget or a BFS switch rounds once its
ints pass 2^53, so every source of the package is scanned with ast for the
/ operator (also /=) and for float literals.  Floor division, shifts and
cross-multiplied comparisons say the same in exact integers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leewaring"


def inexact_nodes(source: str) -> list[int]:
    """The lines of the true divisions and float literals in source."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    )


def test_the_scan_finds_division_and_float_literals():
    assert inexact_nodes("a = b / c\nd /= 2\ne = 0.5\nf = 1e3\ng = 2j\n") == [1, 2, 3, 4, 5]
    assert inexact_nodes('a = b // c\nd >>= 1\n"""q/64 words, 0.5 s"""\n') == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_the_package_has_no_true_division_or_float_literal(path):
    assert inexact_nodes(path.read_text()) == [], path.name
