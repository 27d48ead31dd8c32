"""Function catalog, fixture parsing, studies, reports and the CLI."""

import dataclasses
import json
import subprocess
import sys
import time
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hiersplines import invariants, kernels
from hiersplines.errors import (
    AdmissibilityError,
    FixtureError,
    HierarchyError,
    HierSplineError,
)
from hiersplines.fixtures import (
    Fixture,
    dump_active_cells,
    load_fixture,
    load_mesh_dump,
    parse_fixture,
    parse_mesh_dump,
    write_fixture,
)
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    SubdomainHierarchy,
    build_hierarchical_basis,
    supports_in_cells,
)
from hiersplines.invariants import (
    active_independence,
    dense_independence,
    run_invariant_suite,
)
from hiersplines.quasiinterp import OperatorConfig
from hiersplines.study import read_study_csv, run_convergence_study, write_report
from hiersplines.tensor import build_level_sequence, marked_indices
from hiersplines.univariate import common_knots, make_open_knot_vector, uniform_open_knot_vector

from .conftest import (
    DATA_DIR,
    FIXTURE_DIR,
    corner_hierarchy,
    make_levels,
    random_hierarchy,
    repo_fixture,
)
from .test_invariant_equivalence import REFERENCES, _outcome


class TestFunctions:
    @pytest.mark.parametrize("name,dim", [("sin", 1), ("sin", 2),
                                          ("gauss", 1), ("gauss", 3)])
    def test_derivatives_match_finite_differences(self, name, dim):
        f = get_function(name, dim)
        rng = np.random.default_rng(1)
        pts = 0.2 + 0.6 * rng.random((20, dim))
        eps = 1e-6
        for i in range(dim):
            shift = np.zeros(dim)
            shift[i] = eps
            num = (f(pts + shift) - f(pts - shift)) / (2 * eps)
            ana = f.directional_derivative(i, 1)(pts)
            assert np.abs(num - ana).max() < 1e-5 * max(1.0, np.abs(ana).max())

    def test_poly_needs_degrees(self):
        with pytest.raises(HierSplineError):
            get_function("poly", 2)

    def test_unknown_name(self):
        with pytest.raises(HierSplineError, match="unknown"):
            get_function("nope", 1)


class TestFixtureParsing:
    def test_repo_fixtures_parse(self):
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            fx = load_fixture(path)
            assert fx.dimension >= 1

    def test_missing_field_located(self):
        with pytest.raises(FixtureError, match="demo.degrees"):
            parse_fixture({"schema": "hiersplines-fixture-v1",
                           "dimension": 2, "depth": 1,
                           "breakpoints": [["0", "1"], ["0", "1"]],
                           "degrees": [1]}, "demo")

    def test_bad_cell_located(self):
        obj = json.loads((FIXTURE_DIR / "d2_single_cell.json").read_text())
        obj["subdomains"][0]["cells"][0] = [1]
        with pytest.raises(FixtureError, match=r"subdomains\[0\].cells\[0\]"):
            parse_fixture(obj, "demo")

    def test_non_nested_subdomains_rejected(self):
        obj = json.loads((FIXTURE_DIR / "d1_depth3_blocks.json").read_text())
        obj["subdomains"][1]["cells"] = [[11]]
        with pytest.raises(FixtureError, match="nesting"):
            parse_fixture(obj, "demo")

    def test_invalid_enlargement_rejected_at_parse(self):
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        obj["enlargement"]["additions"][0]["cells"] = [[99]]
        with pytest.raises(FixtureError, match="enlargement"):
            parse_fixture(obj, "demo")

    @pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
    def test_mesh_dump_roundtrip_random_hierarchies(self, explicit):
        # the first explicit draw once dumped as dyadic and could not be re-read
        rng = np.random.default_rng(7)
        for _ in range(4):
            levels, h = random_hierarchy(rng, dim=2, degrees=[2, 3], depth=3,
                                         explicit=explicit)
            _, mesh = build_hierarchical_basis(h, levels)
            dump = json.loads(json.dumps(dump_active_cells(mesh)))
            assert (dump["refinement"] == "dyadic") == (not explicit or h.depth == 1)
            levels2, h2 = parse_mesh_dump(dump)
            assert h2 == h
            assert [lv.kvs for lv in levels2] == [lv.kvs for lv in mesh.levels]

    @pytest.mark.parametrize("edit,where", [
        (lambda obj: obj.update(enlargement=[1, 2]), r"demo\.enlargement:"),
        (lambda obj: obj.update(subdomains=[3]), r"demo\.subdomains\[0\]:"),
        (lambda obj: obj["enlargement"]["additions"][0].update(level="x"),
         r"demo\.enlargement\.additions\[0\]\.level:"),
        (lambda obj: obj["subdomains"][0].update(level=True),
         r"demo\.subdomains\[0\]\.level:"),
        (lambda obj: obj["subdomains"][0].update(cells=[[True], [2]]),
         r"demo\.subdomains\[0\]\.cells\[0\]:"),
        (lambda obj: obj.update(dimension=True), r"demo\.dimension:"),
        (lambda obj: obj["breakpoints"][0].__setitem__(4, True),
         r"demo\.breakpoints\[0\]\.breakpoints\[4\]:"),
        (lambda obj: obj.update(refinement={"explicit": [[{
            "breakpoints": ["0", "1/8", "1/4", "1/2", "3/4", True]}]]}),
         r"demo\.refinement\.explicit\[0\]\[0\]\.breakpoints\[5\]:"),
        (lambda obj: obj.update(name=5), r"demo\.name:"),
    ], ids=["enlargement_not_object", "subdomain_not_object", "addition_level_not_int",
            "subdomain_level_bool", "cell_entry_bool", "dimension_bool",
            "initial_breakpoint_bool", "explicit_breakpoint_bool", "name_not_string"])
    def test_malformed_section_refused(self, edit, where):
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        edit(obj)
        with pytest.raises(FixtureError, match=where):
            parse_fixture(obj, "demo")

    @pytest.mark.parametrize("name", [None, ""])
    def test_missing_or_empty_name_falls_back_to_source(self, name):
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        obj.pop("name", None)
        if name is not None:
            obj["name"] = name
        assert parse_fixture(obj, "demo").name == "demo"

    def test_benchmark_input_is_the_repo_fixture(self):
        # the check_nested benchmark workload reads its own copy
        name = "d2_nested_not_admissible.json"
        copy = FIXTURE_DIR.parent / "perfbench" / "data" / name
        assert copy.read_bytes() == (FIXTURE_DIR / name).read_bytes()

    def test_fixture_write_read_identity(self, tmp_path):
        # an explicit fixture of depth 3 whose subdomain 2 is empty: the
        # written depth is 2, so only one explicit level goes with it
        kv = uniform_open_knot_vector(2, 4)
        rule = [(make_open_knot_vector(2, ["0", "1/8", "1/4", "1/2", "3/4", "1"]),),
                (make_open_knot_vector(2, ["0", "1/16", "1/8", "1/4", "1/2", "3/4", "1"]),)]
        levels = build_level_sequence([kv], 3, rule)
        explicit = Fixture(name="explicit", dimension=1, degrees=(2,), levels=levels,
                           hierarchy=SubdomainHierarchy.from_cells([[(0,), (1,)], []]),
                           refinement=rule)
        for fx in (repo_fixture("d2_corner_admissible"), explicit):
            out = tmp_path / "roundtrip.json"
            write_fixture(fx, out)
            fx2 = load_fixture(out)
            assert fx2.hierarchy == fx.hierarchy
            assert fx2.levels[0].kvs == fx.levels[0].kvs
            assert [lv.kvs for lv in fx2.levels] == \
                [lv.kvs for lv in fx.levels[:fx.hierarchy.depth]]

    def test_mesh_dump_roundtrip_identical_basis(self):
        fx = repo_fixture("cubic_narrow_block")
        basis, mesh = build_hierarchical_basis(fx.hierarchy, fx.levels)
        payload = json.loads(json.dumps(dump_active_cells(mesh)))
        levels2, h2 = parse_mesh_dump(payload)
        assert h2 == fx.hierarchy
        basis2, _ = build_hierarchical_basis(h2, levels2)
        assert set(basis2.functions()) == set(basis.functions())

    @pytest.mark.parametrize("edit,where", [
        (lambda obj: obj.update(refinement="weird"), r"mesh\.refinement:"),
        (lambda obj: obj["cells"][0].pop("level"), r"mesh\.cells\[0\]:.*'level'"),
        (lambda obj: obj.update(degrees=[2]), r"mesh\.degrees:"),
        (lambda obj: obj["cells"][0].update(index=[0]), r"mesh\.cells\[0\]\.index:"),
        (lambda obj: obj["cells"][0].update(index=[0, 99]), r"mesh\.cells\[0\]\.index:"),
        (lambda obj: obj.update(cells={}), r"mesh\.cells:"),
        (lambda obj: obj["cells"].pop(), r"mesh\.cells:.*gap"),
        (lambda obj: obj["cells"].append(obj["cells"][0]), r"mesh\.cells:.*repeated"),
        (lambda obj: obj["cells"][0].update(level=False), r"mesh\.cells\[0\]\.level:"),
        (lambda obj: obj["cells"][0].update(index=[True, 0]), r"mesh\.cells\[0\]\.index:"),
        (lambda obj: obj["initial"][0].update(multiplicities=[3, True, 1, 1, 3]),
         r"mesh\.initial\[0\]\.multiplicities:"),
        (lambda obj: obj.update(depth=True), r"mesh\.depth:"),
        (lambda obj: obj["initial"][0]["breakpoints"].__setitem__(4, True),
         r"mesh\.initial\[0\]\.breakpoints\[4\]:"),
    ], ids=["unknown_refinement", "cell_without_level", "degrees_wrong_length",
            "index_too_short", "index_out_of_range", "cells_not_array",
            "cell_missing", "cell_repeated", "level_bool", "index_entry_bool",
            "multiplicity_bool", "depth_bool", "initial_breakpoint_bool"])
    def test_malformed_mesh_dump_refused(self, edit, where):
        fx = repo_fixture("d2_single_cell")
        _, mesh = build_hierarchical_basis(fx.hierarchy, fx.levels)
        obj = json.loads(json.dumps(dump_active_cells(mesh)))
        edit(obj)
        with pytest.raises(FixtureError, match=where):
            parse_mesh_dump(obj)

    @staticmethod
    def _assert_each_removal_refused(h, levels, picks=None):
        _, mesh = build_hierarchical_basis(h, levels)
        obj = json.loads(json.dumps(dump_active_cells(mesh)))
        cells = obj["cells"]
        for k in range(len(cells)) if picks is None else picks:
            with pytest.raises(FixtureError, match=r"^demo\.cells:"):
                parse_mesh_dump({**obj, "cells": cells[:k] + cells[k + 1:]}, "demo")

    def test_mesh_dump_missing_cell_refused_at_cells(self):
        # dropping level-1 cell (5, 0) here once rebuilt a hierarchy that
        # was not nested
        levels, h = random_hierarchy(np.random.default_rng(7), dim=2, degrees=[2, 3],
                                     depth=3, explicit=True)
        _, mesh = build_hierarchical_basis(h, levels)
        k = list(mesh.cells()).index((1, (5, 0)))
        self._assert_each_removal_refused(h, levels, [k])
        rng = np.random.default_rng(11)
        for explicit in (False, True):
            for _ in range(3):
                levels, h = random_hierarchy(rng, dim=2, depth=3, explicit=explicit)
                self._assert_each_removal_refused(h, levels)

    @pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_fixture_mesh_dump_missing_cell_refused_at_cells(self, path):
        fx = load_fixture(path)
        _, mesh = build_hierarchical_basis(fx.hierarchy, fx.levels)
        n = mesh.cell_count()
        picks = sorted({0, n - 1, *np.random.default_rng(n).integers(0, n, 6).tolist()})
        self._assert_each_removal_refused(fx.hierarchy, fx.levels, picks)

    def test_mesh_dump_invalid_json_refused(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text("{not json")
        with pytest.raises(FixtureError, match="invalid JSON"):
            load_mesh_dump(path)


class TestStudy:
    def test_polynomial_is_reproduced_every_step(self, tmp_path):
        fixtures = [repo_fixture("d2_depth1_uniform"),
                    repo_fixture("d2_single_cell")]
        report = run_convergence_study(fixtures, "poly", 2)
        assert all(r.error < 1e-10 for r in report.rows)

    def test_rejects_bad_smoothness(self):
        fixtures = [repo_fixture("d2_depth1_uniform")]
        with pytest.raises(HierSplineError, match="smoothness"):
            run_convergence_study(fixtures, "sin", 2, smoothness=[4, 1])

    def test_csv_roundtrip_bit_for_bit(self):
        fixtures = [repo_fixture("d2_depth1_uniform"),
                    repo_fixture("d2_single_cell")]
        report = run_convergence_study(fixtures, "sin", 2)
        text = report.csv_text()
        rows = read_study_csv(text)
        assert len(rows) == len(report.rows)
        for parsed, row in zip(rows, report.rows):
            assert parsed["error"] == row.error
            assert parsed["h"] == float(row.h)
            assert parsed["order"] == row.order

    @pytest.mark.parametrize("name", ["cubic_lshape", "cubic_narrow_block"])
    def test_classical_count_matches_built_basis(self, name):
        # the two fixtures whose classical basis has zero-weight functions
        fx = repo_fixture(name)
        report = run_convergence_study([fx], "sin", 2)
        classical, _ = build_hierarchical_basis(fx.hierarchy, fx.levels)
        step = report.steps[0]
        assert step.active_classical == len(classical) > step.active_refinable

    @pytest.mark.parametrize("q", [1, 2, "inf"])
    def test_level_zero_core_error_is_the_error(self, q):
        # the core domain of level 0 is the whole domain; summing its
        # cells in another order moved gauss's q=1 and q=2 errors by an ulp
        levels = make_levels(2, 2, 4, 3)
        corner = Fixture(name="corner4", dimension=2, degrees=(2, 2), levels=levels,
                         hierarchy=corner_hierarchy(levels, [2, 2]), refinement="dyadic")
        rows = run_convergence_study([corner], "gauss", q).rows
        rows += run_convergence_study([repo_fixture("cubic_lshape")], "sin", q).rows
        level0 = [r for r in rows if r.level == 0]
        assert len(level0) == 2
        assert all(r.error_core == r.error for r in level0)

    @pytest.mark.parametrize("text, message", [
        ("", "no header line"),
        ("\n  \n", "no header line"),
        ("step,level\n1,2\n", "line 1: the header lacks h, error, order"),
        ("step,level,h,error,order\n0,x,0.5,0.1,\n", "line 2: level 'x' is not an integer"),
        ("step,level,h,error,order\n0,1,0.5,0.1,\n\n0,2,0.25\n", "line 4: 3 fields for 5"),
        ("step,level,h,error,order\n0,1,0.5,0.1,fast\n", "line 2: order 'fast' is not a number"),
    ])
    def test_malformed_csv_refused_with_line(self, text, message):
        with pytest.raises(HierSplineError, match=message):
            read_study_csv(text)

    def test_family_checked_before_any_step_runs(self, monkeypatch):
        from hiersplines import study

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the family was checked")

        monkeypatch.setattr(study, "compute_weights", no_step)
        fixtures = [repo_fixture("d2_depth1_uniform"), repo_fixture("d2_single_cell"),
                    repo_fixture("d1_depth3_blocks")]
        with pytest.raises(HierSplineError, match="step 2 changes degrees or dimension"):
            run_convergence_study(fixtures, "sin", 2)

    @pytest.mark.parametrize("smoothness", [[1.5, 2], [True, 2], [2, np.float64(3)]])
    def test_non_integer_smoothness_refused_before_any_step(self, smoothness, monkeypatch):
        from hiersplines import study

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the smoothness orders were checked")

        monkeypatch.setattr(study, "compute_weights", no_step)
        with pytest.raises(HierSplineError, match=r"smoothness order .* is not an integer"):
            run_convergence_study([repo_fixture("d2_single_cell")], "sin", 2, smoothness)

    def test_numpy_smoothness_orders_are_written_as_ints(self, tmp_path):
        report = run_convergence_study([repo_fixture("d2_single_cell")], "sin", 2,
                                       [np.int64(2), 3])
        write_report(report, json_path=tmp_path / "study.json")
        assert json.loads((tmp_path / "study.json").read_text())["smoothness"] == [2, 3]
        assert [type(s) for s in report.smoothness] == [int, int]

    @pytest.mark.parametrize("q, label", [
        (2, "2"), (2.0, "2"), (np.float64(2), "2"), (1.0, "1"), (math.inf, "inf"),
        ("inf", "inf"), (np.float64("inf"), "inf")])
    def test_q_label_is_that_of_the_norm(self, q, label):
        assert run_convergence_study([repo_fixture("d2_single_cell")], "sin", q).q == label

    def test_json_roundtrip_bit_for_bit(self):
        fixtures = [repo_fixture("d2_depth1_uniform")]
        report = run_convergence_study(fixtures, "gauss", 1)
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        for parsed, row in zip(back["rows"], report.rows):
            assert parsed["error"] == row.error
            assert parsed["error_core"] == row.error_core


class TestInvariantSuite:
    def test_trivial_fixture_counts(self):
        fx = repo_fixture("d2_depth1_uniform")
        report = run_invariant_suite(fx)
        assert report.passed
        assert report.counts["active_classical"] \
            == report.counts["active_refinable"] == 36

    def test_narrow_block_reports_zero_weight_gap(self):
        fx = repo_fixture("cubic_narrow_block")
        report = run_invariant_suite(fx)
        assert report.passed
        assert report.counts["zero_weight"] > 0

    def test_non_nested_core_domains_are_refused_not_checked(self):
        # the hierarchy of TestMultiscale.test_refuses_non_nested
        levels = make_levels(1, 2, 16, 3)
        h = SubdomainHierarchy.from_cells(
            [[(i,) for i in range(10)], [(i,) for i in range(8, 20)]])
        fx = Fixture(name="non_nested", dimension=1, degrees=(2,), levels=levels,
                     hierarchy=h, refinement="dyadic")
        report = run_invariant_suite(fx)
        assert report.passed
        assert report.counts["core_nested"] is False
        details = {r.name: r.detail for r in report.results}
        assert details["multiscale_identities"] == "refused on non-nested core domains"
        assert details["core_functions_in_refinable"] == "core domains not nested"

    def test_repeated_initial_knot_counts_the_children_of_a_simple_function(self):
        # the knot 1/8 of multiplicity 2 leaves level-0 function 1, the
        # first interior one, three distinct local knots and three
        # children; function 2 has four distinct local knots and four
        report = run_invariant_suite(load_fixture(DATA_DIR / "repeated_initial_knot.json"))
        assert [(r.name, r.detail) for r in report.results if not r.passed] == []
        details = {r.name: r.detail for r in report.results}
        assert details["interior_child_count"] == "got 4, expected 4"

    def test_raised_initial_multiplicities_pass_every_invariant(self):
        # dyadic levels over initial knots k/n with interior multiplicities
        # up to degree+1; a function with repeated local knots has fewer
        # than degree+2 children per direction
        rng = np.random.default_rng(5)
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            degrees = [int(rng.integers(0, 4)) for _ in range(dim)]
            levels, h = random_hierarchy(rng, dim=dim, degrees=degrees, raised=True)
            report = run_invariant_suite(Fixture(name="raised", dimension=dim,
                                                 degrees=tuple(degrees), levels=levels,
                                                 hierarchy=h, refinement="dyadic"))
            assert [(r.name, r.detail) for r in report.results if not r.passed] == []

    def test_every_invariant_reports_its_wall_time(self):
        report = run_invariant_suite(repo_fixture("d2_single_cell"))
        rows = report.to_dict()["invariants"]
        assert len(rows) == len(invariants._CHECKS)
        for row in rows:
            assert isinstance(row["seconds"], float)
            assert row["seconds"] >= 0.0

    @pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                      "d3_depth2_corner"])
    @pytest.mark.parametrize("check, basis, what", [
        ("basis_selection_consistency", "classical", "selection mismatch"),
        ("refinable_subset_classical", "refinable", "refinable but not classical"),
        ("refinable_equals_positive_weights", "refinable", "set mismatch"),
        ("mesh_roundtrip", "classical", "selection mismatch after the round trip"),
    ])
    def test_a_changed_selection_is_named(self, name, check, basis, what):
        # the last and the first level-1 function outside the classical
        # basis join one basis; the detail names the first in canonical order
        ctx = _suite_context(name)
        outside = marked_indices(~ctx.classical.active[1])
        setattr(ctx, basis, _with_member(_with_member(getattr(ctx, basis), 1, outside[-1]),
                                         1, outside[0]))
        named = dict(invariants._CHECKS)[check]
        result = named(ctx)
        assert (result.name, result.passed, result.worst) == (check, False, 1.0)
        assert result.detail == f"{what}: function {outside[0]} of level 1"
        if check in REFERENCES:
            assert _outcome(named, ctx) == _outcome(REFERENCES[check], ctx)

    def test_negative_two_scale_coefficient_is_named(self, monkeypatch):
        real = invariants.two_scale_table

        def negated(coarse, fine):
            tab = real(coarse, fine)
            numerator = tab.numerator.copy()
            numerator[2, 1] *= -1
            return dataclasses.replace(tab, numerator=numerator)

        monkeypatch.setattr(invariants, "two_scale_table", negated)
        ctx = _suite_context("d1_depth3_blocks")
        tab = real(ctx.levels[0].kvs[0], ctx.levels[1].kvs[0])
        child, c = tab.index[2, 1], Fraction(-int(tab.numerator[2, 1]), tab.denominator)
        result = dict(invariants._CHECKS)["univariate_two_scale"](ctx)
        assert not result.passed
        assert result.detail == (f"nonpositive coefficient {c} in pair (parent 2 of level 0, "
                                 f"child {child} of level 1, direction 0)")

    def test_disagreeing_characterization_is_named(self, monkeypatch):
        ctx = _suite_context("d1_depth3_blocks")
        # the check cuts its local knot vectors from the common integer knots
        # of one pair of knot vectors, which equal windows of other pairs may
        # share, so the pair it works on is followed too
        ckv, fkv = ctx.levels[1].kvs[0], ctx.levels[2].kvs[0]
        ck, fk = (k.tolist() for k in common_knots(ckv, fkv))
        parent, child = tuple(ck[4:4 + ckv.degree + 2]), tuple(fk[9:9 + fkv.degree + 2])
        real, pair = invariants.is_child_of, []

        def followed(*kvs):
            pair[:] = kvs
            return common_knots(*kvs)

        def flipped(c, p):
            return real(c, p) != (pair == [ckv, fkv] and c.knots == child and p.knots == parent)

        monkeypatch.setattr(invariants, "common_knots", followed)
        monkeypatch.setattr(invariants, "is_child_of", flipped)
        result = dict(invariants._CHECKS)["parent_child_characterization"](ctx)
        assert not result.passed
        assert result.detail.startswith(
            "pair (parent 4 of level 1, child 9 of level 2, direction 0) disagrees: ")

    @pytest.mark.parametrize("fault, detail", [
        ("asymmetric", "not symmetric"), ("negative", "not positive definite (-1.0)")])
    def test_mass_matrix_fault_names_the_cell(self, fault, detail):
        ctx = _suite_context("d2_corner_admissible")
        cells = marked_indices(ctx.core.masks[0])
        cell = cells[len(cells) // 2]
        # the cell's interval masses: the first one made asymmetric, or all
        # made the identity and the first one negated, so their Kronecker
        # product is -I
        op = ctx.operator.stages[0]
        masses = [tab.mass.copy() for tab in op.tables]
        if fault == "asymmetric":
            masses[0][cell[0], 0, 1] += 1e-3
        else:
            for mass, j in zip(masses, cell):
                mass[j] = np.eye(len(mass[j]))
            masses[0][cell[0]] *= -1
        op.tables = tuple(tab._replace(mass=mass) for tab, mass in zip(op.tables, masses))
        named = dict(invariants._CHECKS)["mass_matrix_quadrature"]
        result = named(ctx)
        assert _outcome(named, ctx) == _outcome(REFERENCES["mass_matrix_quadrature"], ctx)
        assert not result.passed
        assert result.detail == f"mass matrix of cell {cell} of level 0 {detail}"

    def test_perturbed_two_scale_coefficient_fails(self, monkeypatch):
        exact = invariants.tensor_children_arrays

        def perturbed(parents, tables):
            # each parent's first coefficient times 1000001/1000000
            rows, children, numerators, q = exact(parents, tables)
            first = np.r_[True, rows[1:] != rows[:-1]]
            numerators = numerators.astype(object) * 1000000
            numerators[first] = numerators[first] // 1000000 * 1000001
            return rows, children, numerators, q * 1000000

        monkeypatch.setattr(invariants, "tensor_children_arrays", perturbed)
        report = run_invariant_suite(repo_fixture("d1_depth3_blocks"))
        verdicts = {r.name: r.passed for r in report.results}
        assert not verdicts["tensor_two_scale"]
        assert not verdicts["refinable_stage_nesting"]


def _suite_context(name):
    return invariants._Context(repo_fixture(name), OperatorConfig())


def _with_member(basis, level, indices):
    """The basis with one more function of ``level`` among its members."""
    active = [mask.copy() for mask in basis.active]
    active[level][indices] = True
    return dataclasses.replace(basis, active=tuple(active))


def _random_independence_cases(dim, explicit):
    """Eight random hierarchies of depth 3, as (basis, mesh) pairs: four
    over uniform initial knots and four with raised interior multiplicities."""
    for raised in (False, True):
        rng = np.random.default_rng(7 + dim + 10 * explicit + 100 * raised)
        for _ in range(4):
            levels, h = random_hierarchy(rng, dim=dim, depth=3, explicit=explicit,
                                         raised=raised)
            yield build_hierarchical_basis(h, levels)


def _fixture_basis(path):
    fx = load_fixture(path)
    return build_hierarchical_basis(fx.hierarchy, fx.levels)


FIXTURE_PATHS = sorted(FIXTURE_DIR.glob("*.json"))


class TestLinearIndependence:
    def _assert_matches_dense(self, basis, mesh):
        """The certified verdict and detail equal those of one dense SVD."""
        got = active_independence(basis, mesh)
        ref = dense_independence(basis, mesh)
        assert (got.passed, got.detail) == (ref.passed, ref.detail)
        return got

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_random_hierarchies_match_dense_reference(self, dim, explicit):
        for basis, mesh in _random_independence_cases(dim, explicit):
            assert self._assert_matches_dense(basis, mesh).passed

    @pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
    def test_fixtures_match_dense_reference(self, path):
        assert self._assert_matches_dense(*_fixture_basis(path)).passed

    @pytest.fixture
    def no_dense_rank(self, monkeypatch):
        """Fail on any fall back to the dense rank: a certificate that
        always fell back would still pass every verdict test."""
        def refuse(basis, mesh):
            raise AssertionError("dense_independence called")

        monkeypatch.setattr(invariants, "dense_independence", refuse)

    @pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
    def test_fixtures_certified_without_dense_rank(self, no_dense_rank, path):
        assert active_independence(*_fixture_basis(path)).passed

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_random_hierarchies_certified_without_dense_rank(self, no_dense_rank, dim,
                                                             explicit):
        for basis, mesh in _random_independence_cases(dim, explicit):
            assert active_independence(basis, mesh).passed

    @pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
    def test_certificate_evaluates_no_b_spline(self, no_dense_rank, monkeypatch, path):
        # the cover test reads supports and cells only
        basis, mesh = _fixture_basis(path)

        def refuse(*args, **kw):
            raise AssertionError("a B-spline was evaluated")

        for name in ("find_spans", "basis_columns", "local_values", "tensor_spline_values"):
            monkeypatch.setattr(kernels, name, refuse)
        assert active_independence(basis, mesh).passed

    def test_certificate_memory_stays_near_one_gram_block(self):
        # numpy reports its array memory to tracemalloc; the certificate
        # stays under a tenth of one n x n float64 block of the largest level
        basis, mesh = _fixture_basis(FIXTURE_DIR / "d2_nested_not_admissible.json")
        n = max(int(np.count_nonzero(mask)) for mask in basis.active)
        tracemalloc.start()
        try:
            assert active_independence(basis, mesh).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    def test_injected_dependent_column_fails(self):
        fx = repo_fixture("d2_corner_admissible")
        basis, mesh = build_hierarchical_basis(fx.hierarchy, fx.levels)
        # a level-0 function sunk into subdomain 1 is a combination of
        # active functions of finer levels
        sunk = next(idx for idx in fx.levels[0].function_ids()
                    if supports_in_cells(fx.hierarchy, fx.levels, 0, 1)[idx])
        dependent = _with_member(basis, 0, sunk)
        got = self._assert_matches_dense(dependent, mesh)
        assert not got.passed
        n = len(basis)
        assert got.detail.startswith(f"rank {n} of {n + 1} at ")

    def test_dependence_across_levels_fails(self):
        # Level 1 inserts one knot, 7/8, so the level-1 hat at 1/2 equals
        # the active level-0 hat at 1/2. Added as a level-1 member it keeps
        # every diagonal block regular; only its support, which leaves
        # subdomain 1, shows that the blocks do not decide the rank.
        quarters = [Fraction(i, 4) for i in range(5)]
        fine = make_open_knot_vector(1, quarters[:4] + [Fraction(7, 8), Fraction(1)])
        levels = build_level_sequence([uniform_open_knot_vector(1, 4)], 2, [[fine]])
        h = SubdomainHierarchy.from_cells([[(2,), (3,)]])
        basis, mesh = build_hierarchical_basis(h, levels)
        assert self._assert_matches_dense(basis, mesh).passed
        twin = _with_member(basis, 1, (2,))
        got = self._assert_matches_dense(twin, mesh)
        assert not got.passed
        assert got.detail == f"rank {len(basis)} of {len(basis) + 1} at 10 points"


def _cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "hiersplines.cli", *args],
                          capture_output=True, text=True, **kw)


class TestCli:
    def test_check_pass_exit_zero(self, tmp_path):
        report = tmp_path / "report.json"
        res = _cli("check", str(FIXTURE_DIR / "d1_depth3_blocks.json"),
                   "--report", str(report))
        assert res.returncode == 0, res.stderr
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert {r["name"] for r in payload["invariants"]} >= {
            "partition_of_unity_weighted", "mesh_roundtrip"}

    def test_package_runs_as_module(self):
        run = [sys.executable, "-m", "hiersplines", "check"]
        ok = subprocess.run(run + [str(FIXTURE_DIR / "d2_single_cell.json")],
                            capture_output=True, text=True)
        assert ok.returncode == 0, ok.stderr
        missing = subprocess.run(run + [str(FIXTURE_DIR / "no_such_fixture.json")],
                                 capture_output=True, text=True)
        assert missing.returncode == 2
        assert "error:" in missing.stderr

    def test_check_invariant_failure_exit_one(self, monkeypatch, capsys):
        from hiersplines import cli, invariants

        def synthetic_failure(ctx):
            return invariants.InvariantResult("synthetic_failure", False, 1,
                                              1.0, "injected for exit-code test")

        monkeypatch.setattr(
            invariants, "_CHECKS",
            invariants._CHECKS + [("synthetic_failure", synthetic_failure)])
        rc = cli.main(["check", str(FIXTURE_DIR / "d2_depth1_uniform.json")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL synthetic_failure" in out

    def test_check_invalid_fixture_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        obj = json.loads((FIXTURE_DIR / "d1_depth3_blocks.json").read_text())
        obj["subdomains"][1]["cells"] = [[11]]
        bad.write_text(json.dumps(obj))
        res = _cli("check", str(bad))
        assert res.returncode == 2
        assert "nesting" in res.stderr

    def test_check_malformed_section_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        obj["enlargement"] = [1, 2]
        bad.write_text(json.dumps(obj))
        res = _cli("check", str(bad))
        assert res.returncode == 2
        assert "enlargement: must be a JSON object" in res.stderr
        assert "Traceback" not in res.stderr

    def test_check_boolean_knot_exit_two(self, tmp_path, capsys):
        from hiersplines import cli

        bad = tmp_path / "bad.json"
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        obj["breakpoints"][0][-1] = True
        bad.write_text(json.dumps(obj))
        assert cli.main(["check", str(bad)]) == 2
        assert "breakpoints[4]: cannot parse knot value True" in capsys.readouterr().err

    @pytest.mark.parametrize("value,shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                             ("1/0", "'1/0'"), ("abc", "'abc'")],
                             ids=["nan", "inf", "zero-denominator", "word"])
    def test_check_unparsable_knot_exit_two(self, tmp_path, capsys, value, shown):
        from hiersplines import cli

        bad = tmp_path / "bad.json"
        obj = json.loads((FIXTURE_DIR / "d1_linear_enlarge.json").read_text())
        obj["breakpoints"][0][-2] = value
        bad.write_text(json.dumps(obj))
        assert cli.main(["check", str(bad)]) == 2
        assert f"breakpoints[3]: cannot parse knot value {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "study", "dump-mesh"])
    def test_oversized_level_exit_two_at_once(self, tmp_path, capsys, command):
        # 4 x 4 cells at level 0 and depth 40: level 10 would hold 2**24
        # cells, the first level past tensor.MAX_LEVEL_CELLS, and the level
        # sequence refuses it before building it
        from hiersplines import cli

        family = tmp_path / "family"
        family.mkdir()
        obj = json.loads((FIXTURE_DIR / "d2_single_cell.json").read_text())
        obj.update(depth=40, subdomains=[])
        fixture = family / "deep.json"
        fixture.write_text(json.dumps(obj))
        args = {"check": [str(fixture)],
                "study": [str(family), "--f", "sin"],
                "dump-mesh": [str(fixture), "--out", str(tmp_path / "cells.json")]}[command]
        start = time.perf_counter()
        assert cli.main([command, *args]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"deep.depth: level 10 would have {2 ** 24} cells" in capsys.readouterr().err

    def test_dump_mesh(self, tmp_path):
        out = tmp_path / "cells.json"
        res = _cli("dump-mesh", str(FIXTURE_DIR / "d2_single_cell.json"),
                   "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "hiersplines-mesh-v1"
        assert len(payload["cells"]) == 19
        levels2, h2 = parse_mesh_dump(payload)
        assert h2 == repo_fixture("d2_single_cell").hierarchy

    def test_study_family(self, tmp_path):
        family = tmp_path / "family"
        family.mkdir()
        fx = repo_fixture("d1_depth3_blocks")
        from hiersplines.univariate import dyadic_refine
        for step in range(3):
            kv = fx.levels[0].kvs[0]
            for _ in range(step):
                kv = dyadic_refine(kv)
            obj = {
                "schema": "hiersplines-fixture-v1",
                "name": f"step{step}",
                "dimension": 1, "degrees": [2],
                "breakpoints": [[str(v) for v in kv.breakpoints.values]],
                "depth": 1, "refinement": "dyadic", "subdomains": [],
            }
            (family / f"step_{step}.json").write_text(json.dumps(obj))
        csv_out = tmp_path / "study.csv"
        res = _cli("study", str(family), "--f", "sin", "--q", "2",
                   "--csv", str(csv_out))
        assert res.returncode == 0, res.stderr
        rows = read_study_csv(csv_out.read_text())
        orders = [r["order"] for r in rows if r["order"] is not None]
        assert orders and orders[-1] > 2.5

    @pytest.mark.parametrize("args,message", [
        (["check", "{fixture}", "--quad-increment", "-1"], "quad_increment"),
        (["study", "{family}", "--f", "sin", "--error-quad-increment", "-3"],
         "error_quad_increment"),
        (["study", "{family}", "--f", "sin", "--q", "inf", "--sup-samples", "-5"],
         "sup_samples_per_cell"),
        (["study", "{family}", "--f", "sin", "--s", "a"], "--s"),
        # one over each cap, and a sample count too large for a float
        (["check", "{fixture}", "--quad-increment", "65"], "quad_increment"),
        (["study", "{family}", "--f", "sin", "--error-quad-increment", "65"],
         "error_quad_increment"),
        (["study", "{family}", "--f", "sin", "--q", "inf", "--sup-samples", str(2 ** 20 + 1)],
         "sup_samples_per_cell"),
        (["study", "{family}", "--f", "sin", "--q", "inf", "--sup-samples", "1" + "0" * 400],
         "sup_samples_per_cell"),
    ], ids=["check_quad_increment", "study_error_quad_increment",
            "study_sup_samples", "study_smoothness_not_int", "check_quad_increment_over_cap",
            "study_error_quad_increment_over_cap", "study_sup_samples_over_cap",
            "study_sup_samples_400_digits"])
    def test_out_of_range_operator_settings_exit_two(self, tmp_path, args, message):
        family = tmp_path / "family"
        family.mkdir()
        fixture = FIXTURE_DIR / "d2_depth1_uniform.json"
        (family / fixture.name).write_bytes(fixture.read_bytes())
        res = _cli(*[a.format(fixture=fixture, family=family) for a in args])
        assert res.returncode == 2
        assert message in res.stderr
        assert "Traceback" not in res.stderr

    def test_study_refuses_non_nested_family(self, tmp_path):
        family = tmp_path / "family"
        family.mkdir()
        obj = {
            "schema": "hiersplines-fixture-v1",
            "name": "broken", "dimension": 1, "degrees": [2],
            "breakpoints": [[f"{i}/16" if i else "0" for i in range(17)]],
            "depth": 3, "refinement": "dyadic",
            "subdomains": [
                {"level": 1, "cells": [[i] for i in range(10)]},
                {"level": 2, "cells": [[i] for i in range(8, 20)]},
            ],
        }
        (family / "step_0.json").write_text(json.dumps(obj))
        res = _cli("study", str(family), "--f", "sin", "--q", "2")
        assert res.returncode == 2
        assert "core domains" in res.stderr



@pytest.mark.xfail(strict=True, raises=HierarchyError,
                   reason="a knot of raised multiplicity on the boundary of subdomain 1 "
                          "stops the operator with an internal HierarchyError")
def test_raised_multiplicity_on_subdomain_boundary_runs_or_is_refused():
    # level 1 raises the knot 1/2, the right end of subdomain 1, to
    # multiplicity 2; its function 4 is a core function whose only parent
    # is not sunk into the subdomain
    fx = load_fixture(DATA_DIR / "raised_multiplicity_on_boundary.json")
    try:
        run_convergence_study([fx], "sin", 2)
    except AdmissibilityError:
        pass


@pytest.mark.parametrize("ratio", [1000, 1000000])
def test_graded_mesh_checks_or_is_refused(ratio):
    # d2_single_cell over breakpoints 0, 1/ratio, 1 in both directions
    res = _cli("check", str(DATA_DIR / f"graded_interval_ratio_{ratio}.json"))
    assert "Traceback" not in res.stderr
    assert res.returncode in (0, 2), res.stdout


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("ratio", [10 ** 3, 10 ** 6])
def test_graded_meshes_keep_the_operator_identities(ratio, dim, degree):
    # one interval 1/ratio long beside one of length 1 - 1/ratio in every
    # direction, the short corner cell refined once: anchored on a cell of
    # largest volume in its support, every dual functional stays bounded
    # and the residuals stay at rounding level
    fx = parse_fixture({"schema": "hiersplines-fixture-v1", "name": "graded", "dimension": dim,
                        "degrees": [degree] * dim, "breakpoints": [["0", f"1/{ratio}", "1"]] * dim,
                        "depth": 2, "refinement": "dyadic",
                        "subdomains": [{"level": 1, "cells": [[0] * dim]}]})
    results = {r.name: r for r in run_invariant_suite(fx).results}
    for name in ("dual_basis_kronecker", "level_operator_identities", "multiscale_identities"):
        assert results[name].passed and results[name].worst <= 1e-13, results[name]

def test_import_leaves_scipy_unloaded():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, hiersplines; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
