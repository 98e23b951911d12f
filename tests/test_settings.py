"""The package's settable values, counted from its source."""

import ast
import pathlib

import mdtaf

# A change that adds a setting raises this bound and books it in CHANGES.md.
MOST_SETTABLE_VALUES = 81


def _settable_values(source: str) -> int:
    """Defaults of positional and keyword-only parameters, plus class-level
    annotated fields that have a value (dataclass fields with defaults)."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_settable_value_count_reads_defaults_and_fields():
    source = ("def f(a, b=1, *, c=2, d):\n    return lambda x=3: x\n"
              "class C:\n    x: int = 4\n    y: int\n    z = 5\n")
    assert _settable_values(source) == 4


def test_package_settable_values_stay_within_the_bound():
    count = sum(_settable_values(p.read_text())
                for p in pathlib.Path(mdtaf.__file__).parent.glob("*.py"))
    assert count <= MOST_SETTABLE_VALUES, f"{count} settable values"
