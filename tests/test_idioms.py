"""Source rules that keep the package on one idiom."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hiersplines"


def _instance_dict_uses(source: str) -> list[tuple[int, str]]:
    """Line and text of every ``__dict__`` access, ``vars()`` call and
    ``__setattr__`` reference in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("__dict__", "__setattr__"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "vars":
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_derived_data_is_cached_through_cached_property(path):
    # data derived from an instance is kept with functools.cached_property;
    # writing it into the instance by hand is the idiom this rules out
    assert _instance_dict_uses(path.read_text(encoding="utf-8")) == []


def test_rule_sees_every_form():
    source = ("a.__dict__['x'] = 1\n"
              "b = c.__dict__.get('y')\n"
              "object.__setattr__(d, 'z', 2)\n"
              "e = vars(f)\n"
              "@cached_property\ndef g(self):\n    return {}\n")
    assert sorted(line for line, _ in _instance_dict_uses(source)) == [1, 2, 3, 4]
