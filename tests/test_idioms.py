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


# the limits that decide between int64 and Python ints, and whether int64
# division gives the float nearest n/q; univariate.exact_dtype and
# univariate.nearest_floats own them
LIMIT_BITS = (53, 62, 63)


def _integer_limits(source: str) -> list[tuple[int, str]]:
    """Line and text of every ``2 ** n`` and ``1 << n`` with n one of
    LIMIT_BITS, and of every number equal to such a power."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant) \
                and node.right.value in LIMIT_BITS and isinstance(node.left, ast.Constant) \
                and (isinstance(node.op, ast.Pow) and node.left.value == 2
                     or isinstance(node.op, ast.LShift) and node.left.value == 1):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Constant) and not isinstance(node.value, bool) \
                and isinstance(node.value, (int, float)) \
                and node.value in [2 ** n for n in LIMIT_BITS]:
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "univariate.py"], ids=lambda p: p.name)
def test_integer_limits_stay_in_univariate(path):
    # the format of an exact integer array is decided in one module:
    # callers state a bound and ask univariate.exact_dtype or nearest_floats
    assert _integer_limits(path.read_text(encoding="utf-8")) == []


def test_limit_rule_sees_every_form():
    source = ("a = 2 ** 53\n"
              "b = x < 2**62\n"
              "c = 1 << 63\n"
              "d = 9223372036854775808\n"
              "e = 9007199254740992.0\n"
              "f = 2 ** 52 + 2 ** 64 + (1 << 8) + 4611686018427387903\n"
              "g = '2 ** 63'  # 2 ** 63\n")
    assert sorted(line for line, _ in _integer_limits(source)) == [1, 2, 3, 4, 5]


# a knot vector's exact form is read in univariate alone: the other
# modules ask it for results (common_knots, interval_parents,
# interval_lengths), and only the dumps read the Fraction views
KNOT_ATTRIBUTES = ("knots", "knot_numerators", "knot_denominator")
BREAKPOINT_ATTRIBUTES = ("values", "numerators")
# what an lcm of knot denominators would read
KNOT_SOURCES = KNOT_ATTRIBUTES + ("breakpoints", "intervals", "interval_lengths")
KNOT_READERS = {"fixtures.py": ("_kv_to_dict",)}


def _knot_reads(source: str, allowed: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """Line and text of every read of a KNOT_ATTRIBUTES attribute or of
    ``.breakpoints.values`` and ``.breakpoints.numerators``, and of every
    ``lcm`` call whose arguments read a KNOT_SOURCES attribute, outside the
    functions named in ``allowed``."""
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name in allowed for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and (
                node.attr in KNOT_ATTRIBUTES
                or node.attr in BREAKPOINT_ATTRIBUTES and isinstance(node.value, ast.Attribute)
                and node.value.attr == "breakpoints"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and "lcm" in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None)) \
                and any(isinstance(n, ast.Attribute) and n.attr in KNOT_SOURCES
                        for arg in node.args for n in ast.walk(arg)):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "univariate.py"], ids=lambda p: p.name)
def test_exact_knots_stay_in_univariate(path):
    source = path.read_text(encoding="utf-8")
    assert _knot_reads(source, KNOT_READERS.get(path.name, ())) == []


def test_knot_rule_sees_every_form():
    source = ("a = kv.knots[0] + lv.kvs[1].local(2).knots[0]\n"
              "b = [str(v) for v in kv.breakpoints.values]\n"
              "c = kv.knot_numerators, kv.knot_denominator\n"
              "d = math.lcm(*(v.denominator for v in weights)), lcm(tab.denominator, q)\n"
              "e = lcm(*(kv.interval_lengths[1] for kv in kvs))\n"
              "f = kv.breakpoints.multiplicities, bp.values, w.numerators, kv.intervals\n"
              "def _kv_to_dict(kv):\n"
              "    return kv.breakpoints.numerators\n"
              "g = 'kv.knots'  # kv.knots\n")
    assert sorted(line for line, _ in _knot_reads(source)) == [1, 1, 2, 3, 3, 5, 8]
    assert sorted(line for line, _ in _knot_reads(source, ("_kv_to_dict",))) == \
        [1, 1, 2, 3, 3, 5]


# the invariants and the study read the per-level arrays; these views of
# them serve the dumps, the dict API and the tests
VIEW_FUNCTIONS = ("children_table", "tensor_children")
VIEW_ATTRIBUTES = ("member_set", "stages", "anchor_cells", "members", "coefficients")
# the level operators of a MultiscaleQuasiInterpolant share the name of
# the basis view ``stages``; read from an ``operator``, they are no view


def _view_uses(source: str) -> list[tuple[int, str]]:
    """Line and text of every call of a VIEW_FUNCTIONS function or of a
    ``.functions()`` method, and of every read of a VIEW_ATTRIBUTES
    attribute other than an ``operator``'s ``stages``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in VIEW_FUNCTIONS \
                or isinstance(func, ast.Attribute) \
                and func.attr in VIEW_FUNCTIONS + ("functions",) \
                or isinstance(node, ast.Attribute) and node.attr in VIEW_ATTRIBUTES \
                and not (node.attr == "stages"
                         and ast.unparse(node.value).rsplit(".", 1)[-1] == "operator"):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("name", ["invariants.py", "study.py"])
def test_checks_and_studies_read_the_arrays(name):
    assert _view_uses((SRC / name).read_text(encoding="utf-8")) == []


def test_view_rule_sees_every_form():
    source = ("a = children_table(c, f)\n"
              "b = univariate.tensor_children(i, c, f)\n"
              "c = list(basis.functions())\n"
              "d = basis.member_set\n"
              "e = basis.stages[0] - ctx.refinable.stages[1]\n"
              "f = op.anchor_cells[m]\n"
              "g = len(op.members)\n"
              "h = part.coefficients.values()\n"
              "i = functions(x) + tensor_children_arrays(p, t) + op.member_indices\n"
              "j = 'basis.members'  # basis.functions()\n"
              "k = ctx.operator.stages[0] + [s for s in self.operator.stages]\n"
              "l = operators.stages\n")
    assert sorted(line for line, _ in _view_uses(source)) == [1, 2, 3, 4, 5, 5, 6, 7, 8, 12]


# the checks of invariants.py state their names once, in the registry
EXEMPT_NAME = "linear_independence_active"
EXEMPT_FUNCTIONS = ("active_independence", "dense_independence")


def _repeated_check_names(source: str) -> list[tuple[int, str]]:
    """Line and text of every string equal to the name of a check that
    ``_check(...)`` registers, other than the argument of its first
    registration and EXEMPT_NAME inside EXEMPT_FUNCTIONS, which build the
    result of the public independence test."""
    tree = ast.parse(source)
    registered: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_check" and node.args \
                and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
            registered.setdefault(node.args[0].value, id(node.args[0]))
    allowed = set(registered.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in EXEMPT_FUNCTIONS:
            allowed |= {id(n) for n in ast.walk(node)
                        if isinstance(n, ast.Constant) and n.value == EXEMPT_NAME}
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in registered and id(node) not in allowed)


def test_check_names_live_in_the_registry():
    source = (SRC / "invariants.py").read_text(encoding="utf-8")
    assert _repeated_check_names(source) == []
    # the rule sees every registration
    from hiersplines.invariants import _CHECKS

    assert all(f'@_check("{name}")' in source for name, _ in _CHECKS)


def test_name_rule_sees_every_form():
    source = ('@_check("alpha")\n'
              'def a(ctx):\n'
              '    return InvariantResult("alpha", True)\n'
              '@_check("linear_independence_active")\n'
              'def b(ctx):\n'
              '    return active_independence(ctx.classical, ctx.mesh)\n'
              'def active_independence(basis, mesh):\n'
              '    return InvariantResult("linear_independence_active", True)\n'
              'def other():\n'
              '    return {"linear_independence_active": 1, "alpha": 2}\n'
              'x = ctx.points("alpha_pick", 9), f"{y} alpha", "Alpha", "alpha "\n'
              '_check("alpha")\n'
              'def dense_independence(basis, mesh):\n'
              '    return InvariantResult("linear_independence_active", "alpha")\n')
    assert [line for line, _ in _repeated_check_names(source)] == [3, 10, 10, 12, 14]


def test_code_line_counter_skips_blank_comment_and_docstring_lines():
    from .code_lines import code_lines

    source = ('"""Module docstring\n'         # 1 docstring
              'over two lines."""\n'          # 2 docstring
              '\n'                            # 3 blank
              '# a comment\n'                 # 4 comment
              'import os  # and a comment\n'  # 5 code
              '\n'                            # 6 blank
              '\n'                            # 7 blank
              'class A:\n'                    # 8 code
              '    """Class docstring."""\n'  # 9 docstring
              '\n'                            # 10 blank
              '    def f(self):\n'            # 11 code
              '        """Function\n'         # 12 docstring
              '\n'                            # 13 docstring
              '        docstring."""\n'       # 14 docstring
              '        x = 1\n'               # 15 code
              '        """A string\n'         # 16 code: no docstring
              '\n'                            # 17 code, inside the string
              '# not a comment"""\n'          # 18 code, inside the string
              '        return (x,\n'          # 19 code
              '                # a comment\n' # 20 comment
              '                os)\n')        # 21 code
    assert code_lines(source) == 9
