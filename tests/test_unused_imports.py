"""Every name an import binds is used in its file.

No linter is installed, so the sources are scanned with ast: the package,
the tests, the tools and the benchmark harness.  A name counts as used when the file reads it;
in the package's __init__, a name listed in __all__ is a re-export and
counts as used too.  Every source must also parse with the Python 3.10
grammar, the oldest that pyproject.toml allows.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/leewaring/*.py", "tests/*.py", "tools/*.py", "perfbench/*.py")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # name -> line of the import binding it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_sees_every_source_tree():
    for pattern in SOURCES:
        assert list(ROOT.glob(pattern)), pattern


def test_no_unused_imports():
    found = [hit for pattern in SOURCES for path in sorted(ROOT.glob(pattern)) for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_source_parses_as_python_3_10():
    # the 3.10 parser refuses later grammar such as except* (Python 3.11)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for pattern in SOURCES:
        for path in sorted(ROOT.glob(pattern)):
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
