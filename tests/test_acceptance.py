"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions hold. Tolerances are
fixed here and never loosened at runtime.
"""

import math
import time
from fractions import Fraction as F
from math import comb

import numpy as np

from hiersplines.fixtures import Fixture, dump_active_cells, parse_mesh_dump
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    SubdomainHierarchy,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    partition_of_unity,
    supports_in_cells,
)
from hiersplines.quasiinterp import (
    LevelQuasiInterpolant,
    MultiscaleQuasiInterpolant,
    compute_core_domains,
)
from hiersplines.study import run_convergence_study
from hiersplines.tensor import (
    LevelSpline,
    build_level_sequence,
    eval_function,
    extend_level_sequence,
    marked_indices,
)
from hiersplines.univariate import (
    children_table,
    dyadic_refine,
    uniform_open_knot_vector,
)

from .conftest import (
    corner_hierarchy,
    make_levels,
    random_enlargement,
    random_hierarchy,
    repo_fixture,
)
from .oracles import bspline_value_exact, dual_functional, local_values, tensor_parents

POU_TOL = 1e-12
TWO_SCALE_TOL = 1e-12
DUALITY_TOL = 1e-10
OPERATOR_TOL = 1e-10
EXPANSION_TOL = 1e-10
ORDER_MARGIN = 0.2


def _corpus():
    """Fixtures spanning d = 1, 2, 3 and depths 1 through 4."""
    d1_depth4 = Fixture(
        name="d1_depth4_corner", dimension=1, degrees=(2,),
        levels=make_levels(1, 2, 4, 4),
        hierarchy=SubdomainHierarchy.from_cells(
            [[(0,), (1,)], [(0,), (1,), (2,)], [(0,), (1,), (2,), (3,)]]),
        refinement="dyadic")
    return [
        d1_depth4,
        repo_fixture("d1_depth3_blocks"),
        repo_fixture("d2_depth1_uniform"),
        repo_fixture("d2_single_cell"),
        repo_fixture("d2_corner_admissible"),
        repo_fixture("cubic_narrow_block"),
        repo_fixture("d3_depth2_corner"),
    ]


def test_criterion_01_partition_of_unity():
    corpus = _corpus()
    assert len(corpus) >= 5
    dims = {fx.dimension for fx in corpus}
    depths = {fx.hierarchy.depth for fx in corpus}
    assert dims == {1, 2, 3} and depths >= {1, 2, 3, 4}
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for fx in corpus:
        weights = compute_weights(fx.hierarchy, fx.levels)
        classical, _ = build_hierarchical_basis(fx.hierarchy, fx.levels, weights)
        refinable = build_refinable_basis(fx.hierarchy, fx.levels, weights)
        pts = rng.random((1000, fx.dimension))
        for basis in (classical, refinable):
            vals = partition_of_unity(basis).evaluate(pts)
            worst = max(worst, float(np.abs(vals - 1.0).max()))
    elapsed = time.perf_counter() - start
    assert worst < POU_TOL
    assert elapsed < 10.0

    # exact in rational mode: weights are exact rationals and the weighted
    # sum is exactly one at rational points
    levels = make_levels(1, 2, 2, 2)
    h = SubdomainHierarchy.from_cells([[(0,)]])
    for basis in (build_hierarchical_basis(h, levels)[0],
                  build_refinable_basis(h, levels)):
        for x in (F(1, 7), F(3, 5), F(1, 2), F(1)):
            total = sum(
                basis.weights.values[fid]
                * bspline_value_exact(levels[fid.level].kvs[0].local(fid.indices[0]).knots, x)
                for fid in basis.functions())
            assert total == 1
    print(f"ACCEPTANCE 01 PASS: partition of unity on {len(corpus)} fixtures, "
          f"worst {worst:.2e}, {elapsed:.2f}s, exact at rational points")


def test_criterion_02_two_scale_oracle():
    rng = np.random.default_rng(202)
    xs = rng.random(100)
    pools = []
    fixtures = _corpus() + [repo_fixture("cubic_lshape"),
                            repo_fixture("d2_nested_not_admissible")]
    for fx in fixtures:
        for coarse, fine in zip(fx.levels, fx.levels[1:]):
            for ckv, fkv in zip(coarse.kvs, fine.kvs):
                pools.extend((ckv, fkv, j) for j in range(ckv.num_basis))
    assert len(pools) >= 200
    picks = rng.choice(len(pools), size=200, replace=False)
    worst = 0.0
    for k in picks:
        ckv, fkv, j = pools[int(k)]
        vals = local_values(ckv.local(j), xs)
        acc = np.zeros_like(xs)
        for i, c in children_table(ckv, fkv)[j]:
            acc += float(c) * local_values(fkv.local(i), xs)
        worst = max(worst, float(np.abs(vals - acc).max()))
    assert worst < TWO_SCALE_TOL

    for p in (1, 2, 3):
        kv = uniform_open_knot_vector(p, 8)
        fine = dyadic_refine(kv)
        j = kv.num_basis // 2
        masks = [c for _, c in children_table(kv, fine)[j]]
        assert masks == [F(comb(p + 1, k), 2 ** p) for k in range(p + 2)]
    print(f"ACCEPTANCE 02 PASS: 200 parents reproduced pointwise "
          f"(worst {worst:.2e}); interior masks match scaled binomials")


def test_criterion_03_characterization_equivalence():
    rng = np.random.default_rng(303)
    checked = 0
    nontrivial = 0
    while checked < 20:
        levels, h = random_hierarchy(rng)
        if h.depth < 2:
            continue
        weights = compute_weights(h, levels)
        classical, _ = build_hierarchical_basis(h, levels, weights)
        refinable = build_refinable_basis(h, levels, weights)
        positive = {f for f in classical.functions() if weights.values[f] > 0}
        assert set(refinable.functions()) == positive
        if len(positive) < len(classical):
            nontrivial += 1
        checked += 1
    print(f"ACCEPTANCE 03 PASS: children-only recursion equals the "
          f"positive-weight part on {checked} random hierarchies "
          f"({nontrivial} with zero-weight functions)")


def test_criterion_04_narrow_cubic_fixtures():
    found = []
    for name in ("cubic_narrow_block", "cubic_lshape"):
        fx = repo_fixture(name)
        weights = compute_weights(fx.hierarchy, fx.levels)
        classical, _ = build_hierarchical_basis(fx.hierarchy, fx.levels, weights)
        refinable = build_refinable_basis(fx.hierarchy, fx.levels, weights)
        dropped = sorted(set(classical.functions()) - set(refinable.functions()),
                         key=lambda f: (f.level, f.indices))
        assert dropped, f"{name}: expected zero-weight functions"
        for fid in dropped:
            assert weights.values[fid] == 0
            parents = tensor_parents(fid.indices, fx.levels[fid.level - 1],
                                     fx.levels[fid.level])
            assert parents
            for p in parents:
                assert classical.active[fid.level - 1][p]
        found.append((name, len(dropped)))
    print(f"ACCEPTANCE 04 PASS: zero-weight functions with all parents "
          f"active: {found}")


def test_criterion_05_dual_basis_kronecker():
    worst = 0.0
    pairs = 0
    for name in ("d1_depth3_blocks", "d2_single_cell",
                 "d2_corner_admissible", "cubic_narrow_block",
                 "d3_depth2_corner"):
        fx = repo_fixture(name)
        core = compute_core_domains(fx.hierarchy, fx.levels)
        for ell in range(fx.hierarchy.depth):
            op = LevelQuasiInterpolant(fx.levels, ell, core)
            members = list(map(tuple, op.member_indices.tolist()))
            for mi in members:
                lam = dual_functional(op, mi)
                for mj in members:
                    val = lam(lambda p, mj=mj: eval_function(op.level, mj, p))
                    worst = max(worst, abs(val - (1.0 if mi == mj else 0.0)))
                    pairs += 1
    assert worst < DUALITY_TOL
    print(f"ACCEPTANCE 05 PASS: duality over {pairs} pairs, worst {worst:.2e}")


def test_criterion_06_operator_identities():
    rng = np.random.default_rng(606)
    worst = 0.0
    for name in ("d1_depth3_blocks", "d2_corner_admissible",
                 "cubic_narrow_block"):
        fx = repo_fixture(name)
        refinable = build_refinable_basis(fx.hierarchy, fx.levels)
        op = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels, refinable)
        pts = rng.random((300, fx.dimension))
        # the per-level operators reproduce their member spans
        for stage in op.stages:
            if not len(stage):
                continue
            s = LevelSpline(stage.level, stage.member_indices,
                            [float(rng.uniform(-1, 1)) for _ in range(len(stage))])
            out = stage.apply(s.evaluate)
            worst = max(worst, float(np.abs(out.evaluate(pts) - s.evaluate(pts)).max()))
        # the multiscale operator reproduces the coarsest space
        ids = np.array(list(fx.levels[0].function_ids()))
        s0 = LevelSpline(fx.levels[0], ids, [float(rng.uniform(-1, 1)) for _ in ids])
        out0 = op.apply(s0.evaluate)
        worst = max(worst, float(np.abs(out0.evaluate(pts) - s0.evaluate(pts)).max()))
        # the interpolant of a generic function lies in the refinable basis
        # constructively and matches the raw recursion
        f = get_function("sin", fx.dimension)
        parts = op.apply_parts(f)
        expressed = op.express_over_refinable(parts)
        assert set(expressed.coefficients) <= set(refinable.functions())
        raw = sum(p.evaluate(pts) for p in parts)
        worst = max(worst, float(np.abs(expressed.evaluate(pts) - raw).max()))
        # the restricted decomposition matches the recursion on each core
        for ell in range(fx.hierarchy.depth):
            cells = sorted(marked_indices(op.core.masks[ell]))
            if not cells:
                continue
            loc = []
            for k in range(0, len(cells), max(1, len(cells) // 25)):
                box = fx.levels[ell].cell_box(cells[k])
                loc.append([rng.uniform(float(lo) + 1e-9, float(hi) - 1e-9)
                            for lo, hi in box])
            loc = np.array(loc)
            dec = op.decomposition_parts(f, ell)
            v1 = sum(p.evaluate(loc) for p in dec)
            v2 = sum(p.evaluate(loc) for p in parts)
            worst = max(worst, float(np.abs(v1 - v2).max()))
    assert worst < OPERATOR_TOL
    print(f"ACCEPTANCE 06 PASS: operator identities, worst {worst:.2e}")


def test_criterion_07_children_cover_core_functions():
    violations = 0
    checked = 0
    fixtures = _corpus() + [repo_fixture("d2_nested_not_admissible"),
                            repo_fixture("cubic_lshape")]
    for fx in fixtures:
        if fx.refinement != "dyadic":
            continue
        core = compute_core_domains(fx.hierarchy, fx.levels)
        for ell in range(fx.hierarchy.depth - 1):
            op = LevelQuasiInterpolant(fx.levels, ell + 1, core)
            sunk = supports_in_cells(fx.hierarchy, fx.levels, ell, ell + 1)
            for idx in map(tuple, op.member_indices.tolist()):
                checked += 1
                parents = tensor_parents(idx, fx.levels[ell], fx.levels[ell + 1])
                if not any(sunk[p] for p in parents):
                    violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 07 PASS: every core function of a finer level has a "
          f"parent sunk in its subdomain ({checked} functions, 0 violations)")


def _uniform_family(degree: int, steps: int, start: int = 4) -> list[Fixture]:
    out = []
    kv = uniform_open_knot_vector(degree, start)
    for s in range(steps):
        levels = build_level_sequence([kv], 1)
        out.append(Fixture(name=f"uniform_p{degree}_s{s}", dimension=1,
                           degrees=(degree,), levels=levels,
                           hierarchy=SubdomainHierarchy.from_cells([]),
                           refinement="dyadic"))
        kv = dyadic_refine(kv)
    return out


def _corner_family(steps: int) -> list[Fixture]:
    """A fixed corner-graded three-level layout, globally refined per step.

    Subdomain 1 is the corner quarter, subdomain 2 the corner sixteenth;
    every level's mesh size halves from one step to the next, so each level
    row pairs with the same level of the previous step.
    """
    out = []
    for s in range(steps):
        n = 4 * 2 ** s
        levels = make_levels(2, 2, n, 3)
        h = corner_hierarchy(levels, [n // 2, n // 2])
        out.append(Fixture(name=f"corner_s{s}", dimension=2, degrees=(2, 2),
                           levels=levels, hierarchy=h, refinement="dyadic"))
    return out


def test_criterion_08_convergence_orders():
    start = time.perf_counter()
    for degree in (1, 2, 3):
        family = _uniform_family(degree, 6)
        for q in (2, math.inf):
            report = run_convergence_study(family, "sin", q)
            orders = [r.order for r in report.rows if r.order is not None]
            tail = orders[-2:]  # orders among the last three steps
            assert len(tail) == 2
            for o in tail:
                assert o >= degree + 1 - ORDER_MARGIN, \
                    f"p={degree} q={q}: order {o}"
    family = _corner_family(5)
    from hiersplines.quasiinterp import check_admissibility
    for fx in family:
        assert check_admissibility(fx.hierarchy, fx.levels).strictly_admissible
    report = run_convergence_study(family, "sin", 2)
    late = [r for r in report.rows if r.order is not None and r.step >= 3]
    assert late
    for r in late:
        assert r.order >= 2.8, f"step {r.step} level {r.level}: {r.order}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 08 PASS: orders reach degree+1 within {ORDER_MARGIN} "
          f"(univariate) and 2.8 (graded corner), {elapsed:.1f}s")


def test_criterion_09_enlargement_monotonicity():
    rng = np.random.default_rng(909)
    checked = 0
    worst = 0.0
    while checked < 20:
        levels, h = random_hierarchy(rng, dim=int(rng.integers(1, 3)))
        additions, deepest = random_enlargement(rng, levels, h)
        if not additions and deepest is None:
            continue
        h2 = enlarge_hierarchy(h, levels, additions, deepest)
        levels2 = extend_level_sequence(levels, h2.depth)
        w1 = compute_weights(h, levels)
        w2 = compute_weights(h2, levels2)
        for fid, v in w1.values.items():
            if fid in w2.values:
                assert w2.values[fid] >= v
        refinable1 = build_refinable_basis(h, levels, w1)
        refinable2 = build_refinable_basis(h2, levels2, w2)
        pts = rng.random((100, levels[0].dim))
        for fid in refinable1.functions():
            want = eval_function(levels[fid.level], fid.indices, pts)
            if refinable2.active[fid.level][fid.indices]:
                continue
            acc = np.zeros(pts.shape[0])
            for g, c in expand_deactivated(fid, refinable2).items():
                acc += float(c) * eval_function(levels2[g.level], g.indices, pts)
            worst = max(worst, float(np.abs(acc - want).max()))
        checked += 1
    assert worst < EXPANSION_TOL
    print(f"ACCEPTANCE 09 PASS: weights monotone and refinable functions "
          f"re-expressed after {checked} random enlargements "
          f"(worst {worst:.2e})")


def test_criterion_10_mesh_roundtrip():
    fixtures = _corpus() + [repo_fixture("cubic_lshape"),
                            repo_fixture("d2_nested_not_admissible"),
                            repo_fixture("d1_linear_enlarge")]
    for fx in fixtures:
        basis, mesh = build_hierarchical_basis(fx.hierarchy, fx.levels)
        levels2, h2 = parse_mesh_dump(dump_active_cells(mesh))
        assert h2 == fx.hierarchy, fx.name
        basis2, _ = build_hierarchical_basis(h2, levels2)
        assert set(basis2.functions()) == set(basis.functions()), fx.name
    print(f"ACCEPTANCE 10 PASS: mesh round trip reproduces the hierarchy and "
          f"basis on {len(fixtures)} fixtures")
