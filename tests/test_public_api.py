"""The package root exports what the demos import, and nothing stale."""

import ast
import os
import subprocess
import sys
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
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["_PROBES"]:
                # the names the module __getattr__ loads on first use
                bound.update(ast.literal_eval(node.value))
            else:
                bound.update(names)
    bound = {name for name in bound if not name.startswith("_")}
    assert sorted(splitmerge.__all__) == sorted(bound)
    assert len(set(splitmerge.__all__)) == len(splitmerge.__all__)


@pytest.mark.parametrize(
    "modules", ["splitmerge.config, splitmerge.engine", "splitmerge.cli"]
)
def test_cold_start_loads_neither_the_pool_nor_the_probes(modules):
    # a run that uses them pays for them: the pool on a run of several
    # blocks on several workers, splitmerge.bounds on a probe name, the
    # bound-check command or a check that probes the bounds
    code = (
        "import sys\n"
        f"import {modules}\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "from splitmerge import tail_of_max_count\n"
        "from splitmerge import bounds\n"
        "assert tail_of_max_count is bounds.tail_of_max_count\n"
        "assert splitmerge.split_before_clock_bound is bounds.split_before_clock_bound\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(splitmerge.__file__).parents[1])},
    ).stdout.split()
    assert "splitmerge.engine" in out
    for module in ("concurrent.futures", "multiprocessing", "splitmerge.bounds"):
        assert module not in out, module
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        splitmerge.not_a_name
