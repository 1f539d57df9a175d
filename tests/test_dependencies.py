"""The package imports only the standard library and numpy, and its root exports the
names of the README's example, as the README promises."""

import ast
import inspect
import re
import sys
from pathlib import Path

import diffnet

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(diffnet.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert not stray, stray


def test_readme_example_imports_resolve_against_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    names = {alias.name for block in blocks for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "diffnet"
             for alias in node.names}
    assert [name for name in sorted(names) if not hasattr(diffnet, name)] == []
    exported = {name for name, value in vars(diffnet).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == names
