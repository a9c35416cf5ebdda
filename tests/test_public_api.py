"""The package root exports what the demos import, and nothing stale."""

import ast
from pathlib import Path

import pytest

import splitmerge

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _root_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "splitmerge"
        for alias in node.names
    ]


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_root_imports_resolve(demo):
    names = _root_imports(demo)
    assert names
    for name in names:
        assert name in splitmerge.__all__, name
        assert hasattr(splitmerge, name), name


def test_all_matches_the_names_init_binds():
    tree = ast.parse(Path(splitmerge.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    bound = {name for name in bound if not name.startswith("__")}
    assert sorted(splitmerge.__all__) == sorted(bound)
    assert len(set(splitmerge.__all__)) == len(splitmerge.__all__)
