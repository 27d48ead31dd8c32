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
# them serve the mesh dumps and the benchmark
VIEW_FUNCTIONS = ("children_table", "tensor_children")
VIEW_ATTRIBUTES = ("coefficients",)


def _view_uses(source: str) -> list[tuple[int, str]]:
    """Line and text of every call of a VIEW_FUNCTIONS function or of a
    ``.functions()`` method, and of every read of a VIEW_ATTRIBUTES
    attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in VIEW_FUNCTIONS \
                or isinstance(func, ast.Attribute) \
                and func.attr in VIEW_FUNCTIONS + ("functions",) \
                or isinstance(node, ast.Attribute) and node.attr in VIEW_ATTRIBUTES:
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("name", ["invariants.py", "study.py"])
def test_checks_and_studies_read_the_arrays(name):
    assert _view_uses((SRC / name).read_text(encoding="utf-8")) == []


def test_view_rule_sees_every_form():
    source = ("a = children_table(c, f)\n"
              "b = univariate.tensor_children(i, c, f)\n"
              "c = list(basis.functions())\n"
              "d = part.coefficients.values()\n"
              "e = functions(x) + tensor_children_arrays(p, t) + op.member_indices\n"
              "f = 'basis.coefficients'  # basis.functions()\n"
              "g = ctx.operator.stages[0] + basis.selected[1]\n")
    assert sorted(line for line, _ in _view_uses(source)) == [1, 2, 3, 4]


# a function or class of the package is there for the package, for the
# benchmark under perfbench/, or for a reason named here; one that only
# the tests use belongs in the tests
BENCHMARK = SRC.parent.parent / "perfbench"
USED_ONLY_BY_TESTS = {
    "load_mesh_dump": "reads a file in the format dump-mesh writes, as load_fixture reads "
                      "a fixture; the package's public reader of its own output",
}


def _definitions(source: str) -> list[tuple[int, str]]:
    """Line and name of every function and class a module defines, methods
    and nested classes included, but no dunder method, which Python calls
    by protocol, and no function registered by a ``_check(...)``
    decorator, which the suite calls through its registry."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not (node.name.startswith("__") and node.name.endswith("__")) \
                and not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
                            for d in node.decorator_list):
            found.append((node.lineno, node.name))
    return found


def _references(source: str) -> set[str]:
    """The names that the module's Name and Attribute nodes read or
    write; strings, comments and import lists name nothing."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unused(package: dict[str, str], users: list[str], traced: set[str]
            ) -> list[tuple[str, int, str]]:
    """Module, line and name of every definition of the ``package``
    sources (module name to source) that no package source, no ``users``
    source and no ``traced`` name refers to."""
    seen = set(traced).union(*map(_references, [*package.values(), *users]))
    return [(module, line, name) for module, source in package.items()
            for line, name in sorted(_definitions(source)) if name not in seen]


def test_no_package_definition_is_used_only_by_the_tests():
    from perfbench.tracer import TARGETS

    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in sorted(BENCHMARK.glob("*.py"))]
    # "module:attribute" or "module:Class.method"
    traced = {spec.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
              for target in TARGETS for spec in target.functions}
    unused = _unused(package, users, traced)
    assert [u for u in unused if u[2] not in USED_ONLY_BY_TESTS] == []
    # every exemption still names a definition that needs it
    assert sorted(name for _, _, name in unused) == sorted(USED_ONLY_BY_TESTS)


def test_usage_rule_sees_every_form():
    package = {"a.py": ("def called():\n    pass\n"
                        "def read_as_attribute():\n    pass\n"
                        "def traced():\n    pass\n"
                        "def unused():\n    return 'unused'  # unused\n"
                        "class Unused:\n"
                        "    def __init__(self):\n        self.x = 1\n"
                        "    def method(self):\n        return self.x\n"
                        "    def recursive(self):\n        return self.recursive()\n"
                        "@_check('name')\ndef _chk(ctx):\n    pass\n"
                        "@other('name')\ndef _decorated(ctx):\n    pass\n"),
               "b.py": "from .a import unused\nx = called()\n"}
    users = ["y = module.read_as_attribute\n", "z = 'method'\n"]
    assert _unused(package, users, {"traced"}) == [
        ("a.py", 7, "unused"), ("a.py", 9, "Unused"), ("a.py", 12, "method"),
        ("a.py", 20, "_decorated")]


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


def test_code_line_counter_defaults_to_the_package(capsys):
    from .code_lines import main

    main([str(SRC)])
    explicit = capsys.readouterr().out
    main([])
    assert capsys.readouterr().out == explicit
    assert explicit.splitlines()[-1].endswith("total")
    # several directories: each one named before its own counts, then the
    # sum of their totals
    tests = Path(__file__).resolve().parent
    main([str(tests)])
    alone = capsys.readouterr().out
    main([str(SRC), str(tests)])
    lines = capsys.readouterr().out.splitlines()
    totals = [int(out.splitlines()[-1].split()[0]) for out in (explicit, alone)]
    assert lines == [str(SRC), *explicit.splitlines(), str(tests), *alone.splitlines(),
                     f"{sum(totals):6d}  grand total"]


def test_traffic_statement_map_sees_every_form(tmp_path):
    from .traffic import statements

    path = tmp_path / "module.py"
    path.write_text('"""Module docstring."""\n'      # 1 no function
                    'x = 1\n'                        # 2 no function
                    'class A:\n'                     # 3
                    '    y = 2\n'                    # 4 class body, no function
                    '    def f(self, z):\n'          # 5
                    '        """Docstring."""\n'     # 6 not listed
                    '        global x\n'             # 7 not listed
                    '        if (z and\n'            # 8 header, two lines
                    '                x):\n'          # 9
                    '            return (1,\n'       # 10 simple, two lines
                    '                    2)\n'       # 11
                    '        try:\n'                 # 12 not listed
                    '            def g():\n'         # 13 a function of its own
                    '                return 3\n'     # 14
                    '        finally:\n'
                    '            pass\n',            # 16
                    encoding="utf-8")
    assert {name: [(first, list(own)) for first, own in stmts]
            for name, stmts in statements(path).items()} == {
        "A.f": [(8, [8, 9]), (10, [10, 11]), (16, [16])],
        "A.f.g": [(14, [14])]}


def test_traffic_enters_every_statement_of_the_sweep_but_its_refusal(tmp_path):
    # two runs of the traffic that python -m tests.traffic runs, an exact
    # sweep in the suite and a float one in the study: what they enter
    # the whole traffic enters too
    from .traffic import runs, statements, unentered

    names = {"check fixtures/d1_depth3_blocks", "study sin q=2"}
    missed = unentered(run for run in runs(tmp_path) if run[0] in names)
    lines = (SRC / "hierarchy.py").read_text(encoding="utf-8").splitlines()
    sweep = dict(statements(SRC / "hierarchy.py"))["express_arrays"]
    never = missed.get(("hierarchy.py", "express_arrays"), [])
    assert len(sweep) > len(never)
    assert never and all("refus" in lines[first - 1] for first in never), \
        [lines[first - 1] for first in never]
