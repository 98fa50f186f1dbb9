"""Checks on the library's source text and on the README's code.

Core claims:
    - no module of `src/horikawa` holds a float literal, a true division `/`
      or the name `float`, so exact arithmetic is enforced before anything runs
    - the README's "Library example" block runs as written and its asserted
      numbers hold
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _float_sources(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division '/'"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name 'float'"


def test_library_source_has_no_float():
    modules = sorted((ROOT / "src" / "horikawa").glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}" for path in modules for line, what in _float_sources(path)
    ]
    assert found == []


def test_float_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = 0.5\nb = a / 2\nb /= 2\nc = float(b)\nd = a // 2\n")
    assert sorted(line for line, _ in _float_sources(path)) == [1, 2, 3, 4]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README.md has no python block under '## Library example'"
    code = match.group(1)
    assert "(8, 10, 86)" in code
    exec(compile(code, "README.md", "exec"), {})
