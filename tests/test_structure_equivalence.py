"""The integer two-scale tables and subdomain grids against the scalar
routes they replaced.

The reference functions below are the former per-function
implementations: two-scale coefficients as products of Fractions, and
containment through one cell_ancestor call per cell. Every structural
output must equal theirs exactly: weights as reduced Fractions in the same
order, selections, core domains, integration cells in the same order, and
coefficients written over a basis bit for bit, the sign of zero included.
The two-scale tables themselves must equal the former per-pair build:
Fraction coefficients by the direct Oslo route, once per local knot
pattern, converted to integer numerators over one denominator.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hiersplines import hierarchy, univariate
from hiersplines.errors import HierarchyError, HierSplineError, InternalInvariantError
from hiersplines.fixtures import Fixture
from hiersplines.hierarchy import (
    SubdomainHierarchy,
    active_mesh,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    express_arrays,
    subdomain_grids,
    supports_in_cells,
)
from hiersplines.quasiinterp import compute_core_domains, integration_cells
from hiersplines.tensor import (
    CellSet,
    TensorFunctionId as Fid,
    build_level_sequence,
    cell_ancestor,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    marked_indices,
    tensor_children,
    two_scale_tables,
)
from hiersplines.study import run_convergence_study
from hiersplines.univariate import (
    children_table,
    dyadic_refine,
    make_open_knot_vector,
    two_scale_table,
    uniform_open_knot_vector,
)

from .conftest import FIXTURE_DIR, cell_ids, random_enlargement, random_hierarchy, repo_fixture
from .oracles import (
    cell_descendant_ranges,
    function_cell_ranges,
    functions_supported_in,
    oslo_children,
    stages,
    support_extension_cell_ranges,
)
from .test_univariate import RANDOM_PAIRS

# ---------------------------------------------------------------------------
# reference implementations


def ref_oslo_table(coarse, fine):
    """The former children_table: oslo_children of every coarse function,
    run once per local knot pattern. With all knots scaled to integers, a
    coarse function's pattern is the difference vector, from its first
    knot and divided by its gcd, of its p+2 knots and of the knots of the
    fine functions in its support."""
    p = coarse.degree
    scale = math.lcm(*(k.denominator for k in fine.knots))
    t = [k.numerator * (scale // k.denominator) for k in fine.knots]
    tau = [k.numerator * (scale // k.denominator) for k in coarse.knots]
    runs = {}
    rows = []
    for j in range(coarse.num_basis):
        first = bisect.bisect_left(t, tau[j])
        stop = min(bisect.bisect_right(t, tau[j + p + 1]) - p - 1, fine.num_basis)
        knots = tau[j:j + p + 2] + t[first:stop + p + 1]
        base = knots[0]
        step = math.gcd(*(x - base for x in knots))
        pattern = tuple((x - base) // step for x in knots)
        run = runs.get(pattern)
        if run is None:
            run = tuple((i - first, c) for i, c in oslo_children(coarse.local(j), fine))
            runs[pattern] = run
        rows.append(tuple((first + i, c) for i, c in run))
    return tuple(rows)


def ref_two_scale_table(exact):
    """The former conversion of a children table to slot arrays: the
    denominator, index, numerator and present arrays."""
    q = math.lcm(*(c.denominator for row in exact for _, c in row))
    width = max(map(len, exact))
    index = np.zeros((len(exact), width), dtype=np.int64)
    numerator = np.zeros((len(exact), width), dtype=np.int64 if q < 2 ** 62 else object)
    for j, row in enumerate(exact):
        index[j] = row[-1][0]
        for k, (i, c) in enumerate(row):
            index[j, k] = i
            numerator[j, k] = c.numerator * (q // c.denominator)
    return q, index, numerator, numerator > 0


def ref_tensor_children(indices, coarse, fine):
    per_dir = [children_table(ckv, fkv)[j]
               for ckv, fkv, j in zip(coarse.kvs, fine.kvs, indices)]
    out = []
    for combo in itertools.product(*[range(len(row)) for row in reversed(per_dir)]):
        combo = combo[::-1]
        idx = tuple(per_dir[i][c][0] for i, c in enumerate(combo))
        coef = Fraction(1)
        for i, c in enumerate(combo):
            coef *= per_dir[i][c][1]
        out.append((idx, coef))
    return out


def ref_cell_in_subdomain(h, levels, level, indices, ell):
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("cell coarser than the subdomain's granularity")
    return cell_ancestor(levels, level, ell - 1, indices) in cells


def ref_support_in_subdomain(h, levels, level, indices, ell):
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("function coarser than the subdomain's granularity")
    ranges = function_cell_ranges(levels[level], indices)
    if level > ell - 1:
        lo = cell_ancestor(levels, level, ell - 1, tuple(r.start for r in ranges))
        hi = cell_ancestor(levels, level, ell - 1, tuple(r.stop - 1 for r in ranges))
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    for c in iter_box(ranges):
        if c not in cells:
            return False
    return True


def ref_functions_with_support_in(h, levels, level, ell):
    cells = h.subdomain_cells(ell)
    if cells is None:
        return sorted(levels[level].function_ids(), key=id_sort_key)
    if not cells:
        return []
    lv = levels[level]
    base = levels[ell - 1]
    lo = [min(c[i] for c in cells) for i in range(lv.dim)]
    hi = [max(c[i] for c in cells) for i in range(lv.dim)]
    box = []
    for i in range(lv.dim):
        box.append((base.kvs[i].intervals[lo[i]].left, base.kvs[i].intervals[hi[i]].right))
    return [idx for idx in iter_box([functions_supported_in(kv, lo, hi)
                                     for kv, (lo, hi) in zip(lv.kvs, box)])
            if ref_support_in_subdomain(h, levels, level, idx, ell)]


def ref_compute_weights(h, levels):
    values, positive = {}, {}
    for idx in levels[0].function_ids():
        values[Fid(0, idx)] = Fraction(1)
        positive[Fid(0, idx)] = True
    for ell in range(h.depth - 1):
        coarse_inside = ref_functions_with_support_in(h, levels, ell, ell + 1)
        fine_inside = ref_functions_with_support_in(h, levels, ell + 1, ell + 1)
        for idx in fine_inside:
            values[Fid(ell + 1, idx)] = Fraction(0)
            positive[Fid(ell + 1, idx)] = False
        for idx in coarse_inside:
            w = values[Fid(ell, idx)]
            pos = positive[Fid(ell, idx)]
            for child_idx, c in ref_tensor_children(idx, levels[ell], levels[ell + 1]):
                dst = Fid(ell + 1, child_idx)
                if dst not in values:
                    raise InternalInvariantError(f"child {dst} escaped subdomain {ell + 1}")
                values[dst] += w * c
                positive[dst] = positive[dst] or pos
    return values, positive


def ref_selection_stages(h, levels, refinable):
    stages = [{Fid(0, idx) for idx in levels[0].function_ids()}]
    for ell in range(h.depth - 1):
        current = stages[-1]
        deact = {fid for fid in current if fid.level == ell and
                 ref_support_in_subdomain(h, levels, fid.level, fid.indices, ell + 1)}
        added = set()
        if refinable:
            for fid in deact:
                for child_idx, _ in ref_tensor_children(fid.indices, levels[ell],
                                                        levels[ell + 1]):
                    added.add(Fid(ell + 1, child_idx))
        else:
            for idx in ref_functions_with_support_in(h, levels, ell + 1, ell + 1):
                added.add(Fid(ell + 1, idx))
        stages.append((current - deact) | added)
    return stages


def ref_closed_form_classical(h, levels):
    return {Fid(ell, idx) for ell in range(h.depth)
            for idx in ref_functions_with_support_in(h, levels, ell, ell)
            if not ref_support_in_subdomain(h, levels, ell, idx, ell + 1)}


def ref_compute_core_domains(h, levels):
    sets = [frozenset(cell_ids(levels[0]))]
    for ell in range(1, h.depth):
        lv = levels[ell]
        pool = set()
        for c in h.subdomain_cells(ell):
            pool.update(iter_box(cell_descendant_ranges(levels, ell - 1, ell, c)))
        sets.append(frozenset(
            c for c in pool
            if all(ref_cell_in_subdomain(h, levels, ell, cc, ell)
                   for cc in iter_box(support_extension_cell_ranges(lv, c)))))
    nested = all(cell_ancestor(levels, ell + 1, ell, c) in sets[ell]
                 for ell in range(h.depth - 1) for c in sets[ell + 1])
    return sets, nested


def ref_active_cells_per_level(h, levels):
    out = []
    for ell in range(h.depth):
        inner = h.subdomain_cells(ell + 1)
        if ell == 0:
            pool = set(cell_ids(levels[0]))
        else:
            pool = set()
            for c in h.subdomain_cells(ell):
                pool.update(iter_box(cell_descendant_ranges(levels, ell - 1, ell, c)))
        out.append(sorted((c for c in pool if c not in inner), key=id_sort_key))
    return out


def ref_integration_cells(mesh, region):
    if region is None:
        return list(mesh.cells())
    levels = mesh.levels
    active_sets = [set(a) for a in mesh.active]
    out = []

    def resolve(level, idx):
        for k in range(level, -1, -1):
            if cell_ancestor(levels, level, k, idx) in active_sets[k]:
                out.append((level, idx))
                return
        if level + 1 >= len(levels):
            raise HierSplineError(
                f"cell {idx} of level {level} is not covered by the active mesh")
        for child in iter_box(cell_descendant_ranges(levels, level, level + 1, idx)):
            resolve(level + 1, child)

    for idx in marked_indices(region.mask):
        resolve(region.level, idx)
    return out


def ref_express_over(coefficients, basis):
    h, levels = basis.hierarchy, basis.levels
    pending = [{} for _ in range(h.depth)]

    def neither(fid):
        return HierarchyError(f"{fid} is neither active nor deactivated in this basis")

    for fid, c in coefficients.items():
        if not 0 <= fid.level < h.depth:
            raise neither(fid)
        pending[fid.level][fid.indices] = c
    out = {}
    for ell, row in enumerate(pending):
        for idx, c in row.items():
            fid = Fid(ell, idx)
            if basis.active[ell][idx]:
                out[fid] = c
            elif ref_support_in_subdomain(h, levels, ell, idx, ell + 1):
                kids = pending[ell + 1]
                for child, cc in ref_tensor_children(idx, levels[ell], levels[ell + 1]):
                    kids[child] = kids[child] + c * cc if child in kids else c * cc
            else:
                raise neither(fid)
    return out


# ---------------------------------------------------------------------------
# cases

FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
CASES = 30


def random_case(k: int, explicit: bool):
    """Case k: d = 1 or 2, degrees from 1 to 3, depth from 2 to 4."""
    rng = np.random.default_rng([20261018, k, explicit])
    dim = 1 + k % 2
    degrees = [1 + (k + i) % 3 for i in range(dim)]
    return random_hierarchy(rng, dim=dim, degrees=degrees, explicit=explicit)


def weight_denominator(h, levels) -> int:
    """The common denominator of the deepest level's weight numerators."""
    return math.prod(tab.denominator for ell in range(h.depth - 1)
                     for tab in two_scale_tables(levels[ell], levels[ell + 1]))


def bits(value):
    """A float's type and repr, which tells -0.0 from 0.0; an exact value
    as a Fraction, since the sweep returns every exact value as one."""
    return Fraction(value) if isinstance(value, (int, Fraction)) else (type(value), repr(value))


def by_level(cells):
    """(level, cell) pairs grouped per level, the levels in the order of
    their first cell."""
    groups = {}
    for ell, idx in cells:
        groups.setdefault(ell, []).append(idx)
    return list(groups.items())


def sweep(coefficients, basis):
    """:func:`express_arrays` on a ``Fid``-keyed dict, grouped per level in
    the order given, as a dict in the same form: float64 values when all
    coefficients are floats, else the integers L * c for the lcm L of their
    denominators, a numerator n over D_ell read back as n / (L * D_ell)."""
    grouped = [{} for _ in basis.levels]
    for fid, c in coefficients.items():
        grouped[fid.level][fid.indices] = c
    exact = not all(type(c) is float for c in coefficients.values())
    scale = math.lcm(*(Fraction(c).denominator for c in coefficients.values())) if exact else 1
    pending = [(np.array(list(row), dtype=np.int64).reshape(-1, lv.dim),
                np.array([int(c * scale) for c in row.values()], dtype=np.int64) if exact
                else np.array(list(row.values()), dtype=np.float64))
               for lv, row in zip(basis.levels, grouped)]
    return {Fid(ell, tuple(i)): Fraction(v, scale * d) if exact else v
            for ell, (indices, _, values, d) in enumerate(express_arrays(pending, basis))
            for i, v in zip(indices.tolist(), values.tolist())}


def assert_same_expression(got, want):
    assert list(got) == list(want)
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]


def assert_equivalent(levels, h, rng):
    # containment, every query the level ranges allow, by the grids and,
    # inside the hierarchy, by the stored cells
    grids = subdomain_grids(h, levels)
    for ell in range(h.depth + 1):
        for level in range(max(ell - 1, 0), h.depth):
            lv = levels[level]
            routes = [grids.supports_inside(level, ell)]
            if ell < h.depth:
                routes.append(supports_in_cells(h, levels, level, ell))
            for idx in lv.function_ids():
                want = ref_support_in_subdomain(h, levels, level, idx, ell)
                assert [bool(r[idx]) for r in routes] == [want] * len(routes), (level, idx, ell)
            cells = grids.cells_inside(level, ell)
            for idx in cell_ids(lv):
                assert bool(cells[idx]) == ref_cell_in_subdomain(h, levels, level, idx, ell), \
                    (level, idx, ell)
    # two-scale coefficients
    for ell in range(h.depth - 1):
        for idx in levels[ell].function_ids():
            assert tensor_children(idx, levels[ell], levels[ell + 1]) == \
                ref_tensor_children(idx, levels[ell], levels[ell + 1])
    # weights, in the same order
    values, positive = ref_compute_weights(h, levels)
    weights = compute_weights(h, levels)
    assert list(weights.values.items()) == list(values.items())
    assert list(weights.positive.items()) == list(positive.items())
    assert all(type(v) is Fraction for v in weights.values.values())
    # selections
    classical, _ = build_hierarchical_basis(h, levels, weights)
    refinable = build_refinable_basis(h, levels, weights)
    for basis in (classical, refinable):
        assert list(stages(basis)) == ref_selection_stages(h, levels, basis is refinable)
    assert {Fid(ell, idx) for ell, mask in enumerate(classical.active)
            for idx in marked_indices(mask)} == ref_closed_form_classical(h, levels)
    assert [list(cells) for cells in active_mesh(h, levels).active] == \
        ref_active_cells_per_level(h, levels)
    # core domains
    core = compute_core_domains(h, levels)
    sets, nested = ref_compute_core_domains(h, levels)
    assert [frozenset(marked_indices(m)) for m in core.masks] == sets
    assert core.nested == nested
    # integration cells, in the same order
    mesh = active_mesh(h, levels)
    regions = [None] + [CellSet(ell - 1, grids.cells_inside(ell - 1, ell))
                        for ell in range(1, h.depth)] \
        + [CellSet(ell, mask) for ell, mask in enumerate(core.masks)]
    for region in regions:
        assert [(ell, list(map(tuple, cells.tolist())))
                for ell, cells in integration_cells(mesh, region)] == \
            by_level(ref_integration_cells(mesh, region))
    # coefficients written over both bases
    for basis in (classical, refinable):
        for make in (_float_coefficient, _exact_coefficient):
            coeffs = _random_coefficients(rng, basis, make)
            try:
                want = ref_express_over(coeffs, basis)
            except HierarchyError as exc:
                with pytest.raises(HierarchyError) as got:
                    sweep(coeffs, basis)
                assert str(got.value) == str(exc)
            else:
                assert_same_expression(sweep(coeffs, basis), want)


def _float_coefficient(rng):
    return [0.0, -0.0, float(rng.normal()), -1e-300 * float(rng.random())][int(rng.integers(4))]


def _exact_coefficient(rng):
    if rng.random() < 0.2:
        return 1
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))


def _random_coefficients(rng, basis, make):
    """Coefficients on a random part of the active functions and of those
    whose support sank into the next subdomain, all levels."""
    h, levels = basis.hierarchy, basis.levels
    coeffs = {}
    for ell in range(h.depth):
        for idx in levels[ell].function_ids():
            fid = Fid(ell, idx)
            if (basis.active[ell][idx] or ref_support_in_subdomain(h, levels, ell, idx, ell + 1)) \
                    and rng.random() < 0.4:
                coeffs[fid] = make(rng)
    return coeffs


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_match_scalar_routes(name, rng):
    fx = repo_fixture(name)
    assert_equivalent(fx.levels, fx.hierarchy, rng)


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
@pytest.mark.parametrize("k", range(CASES))
def test_random_hierarchies_match_scalar_routes(k, explicit, rng):
    levels, h = random_case(k, explicit)
    assert_equivalent(levels, h, rng)


def test_some_explicit_case_needs_python_int_numerators():
    denominators = [weight_denominator(h, levels)
                    for levels, h in (random_case(k, True) for k in range(CASES))]
    assert max(denominators) >= 2 ** 62


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
def test_enlargement_sequences_match_scalar_routes(explicit, rng):
    for k in range(4):
        levels, h = random_case(k, explicit)
        for _ in range(3):
            adds, deepest = random_enlargement(rng, levels, h)
            h = enlarge_hierarchy(h, levels, adds, deepest)
            levels = extend_level_sequence(levels, h.depth)
            assert_equivalent(levels, h, rng)


@pytest.mark.parametrize("cells", [[(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1)]],
                         ids=["whole", "corner"])
def test_wide_denominators_match_scalar_routes(cells, rng):
    # one direction's denominator is below 2**53 and their product above
    # 2**63: float coefficients take the Python-int division and the
    # numerator products Python ints
    coarse = make_open_knot_vector(2, [0, Fraction(1, 3), 1], [3, 1, 3])
    fine = make_open_knot_vector(2, [0, Fraction(1, 1000003), Fraction(1, 3), Fraction(2, 3),
                                     Fraction(999999937, 1000000007), 1], [3, 1, 1, 1, 1, 3])
    levels = build_level_sequence([coarse, coarse], 2, [[fine, fine]])
    tables = two_scale_tables(levels[0], levels[1])
    assert all(tab.denominator < 2 ** 53 for tab in tables)
    assert math.prod(tab.denominator for tab in tables) >= 2 ** 63
    h = SubdomainHierarchy.from_cells([cells])
    weights = compute_weights(h, levels)
    assert weights.denominators[1] >= 2 ** 63
    assert weights.numerators[1].dtype == object
    assert_equivalent(levels, h, rng)



# ---------------------------------------------------------------------------
# the two-scale tables against the former per-pair build


def _wide_pair():
    """The knot vectors of test_wide_denominators_match_scalar_routes."""
    coarse = make_open_knot_vector(2, [0, Fraction(1, 3), 1], [3, 1, 3])
    fine = make_open_knot_vector(2, [0, Fraction(1, 1000003), Fraction(1, 3), Fraction(2, 3),
                                     Fraction(999999937, 1000000007), 1], [3, 1, 1, 1, 1, 3])
    return coarse, fine


def _corner_levels(steps):
    """Per step of the corner-graded study family, its three levels in
    each direction (quadratic, 4 * 2**s cells on level 0)."""
    return [build_level_sequence([uniform_open_knot_vector(2, 4 * 2 ** s)] * 2, 3)
            for s in range(steps)]


def _table_pairs():
    for name in FIXTURE_NAMES:
        levels = repo_fixture(name).levels
        for ell in range(len(levels) - 1):
            for k, (ckv, fkv) in enumerate(zip(levels[ell].kvs, levels[ell + 1].kvs)):
                yield pytest.param(ckv, fkv, id=f"{name}-{ell}-{k}")
    for s, levels in enumerate(_corner_levels(5)):
        for ell in range(2):
            yield pytest.param(levels[ell].kvs[0], levels[ell + 1].kvs[0],
                               id=f"corner_s{s}-{ell}")
    for pair in RANDOM_PAIRS:
        yield pytest.param(*pair.values, id=f"random-{pair.id}")
    yield pytest.param(*_wide_pair(), id="wide")


@pytest.mark.parametrize("coarse,fine", list(_table_pairs()))
def test_tables_equal_the_former_ones(coarse, fine):
    exact = ref_oslo_table(coarse, fine)
    q, index, numerator, present = ref_two_scale_table(exact)
    tab = two_scale_table(coarse, fine)
    assert tab.denominator == q
    assert tab.index.dtype == np.int64 and np.array_equal(tab.index, index)
    assert tab.numerator.tolist() == numerator.tolist()
    assert tab.numerator.dtype == (np.int64 if q < 2 ** 63 else object)
    assert tab.present.dtype == bool and np.array_equal(tab.present, present)
    rows = children_table(coarse, fine)
    assert rows == exact
    assert all(type(c) is Fraction for row in rows for _, c in row)


def test_warm_study_runs_no_recurrence():
    """The patterns are scale-free and the memo is process-wide: a study
    on fresh levels runs no recurrence once the smallest step has run."""
    def family(steps):
        out = []
        for s, levels in enumerate(_corner_levels(steps)):
            box = list(iter_box([range(2 * 2 ** s)] * 2))
            out.append(Fixture(name=f"corner_s{s}", dimension=2, degrees=(2, 2), levels=levels,
                               hierarchy=SubdomainHierarchy.from_cells([box, box]),
                               refinement="dyadic"))
        return out

    univariate._oslo_run.cache_clear()
    run_convergence_study(family(1), "sin", 2)
    # three patterns at each end of a quadratic uniform knot vector, one inside
    assert univariate._oslo_run.cache_info().misses == 7
    run_convergence_study(family(3), "sin", 2)
    assert univariate._oslo_run.cache_info().misses == 7


# ---------------------------------------------------------------------------
# the exact sweep: integer numerators over one denominator

def _spy_merges(monkeypatch):
    """The dtypes of the arrays the sweep merges."""
    dtypes = []
    merged = hierarchy._merged

    def spy(*args):
        out = merged(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(hierarchy, "_merged", spy)
    return dtypes


def _sunk_and_active_coefficients(basis, make):
    """make(k) on every active function and every one whose support sank
    into the next subdomain, all levels, k counting them."""
    h, levels = basis.hierarchy, basis.levels
    grids = subdomain_grids(h, levels)
    fids = [Fid(ell, idx) for ell in range(h.depth) for idx in levels[ell].function_ids()
            if basis.active[ell][idx] or grids.supports_inside(ell, ell + 1)[idx]]
    return {fid: make(k) for k, fid in enumerate(fids)}


def test_deep_exact_sweep_takes_python_ints(monkeypatch):
    levels, h = random_case(7, True)
    assert h.depth == 4 and weight_denominator(h, levels) >= 2 ** 62
    basis, _ = build_hierarchical_basis(h, levels)
    coeffs = _sunk_and_active_coefficients(basis, lambda k: Fraction(1 + k % 5, 3 + k % 4))
    dtypes = _spy_merges(monkeypatch)
    got = sweep(coeffs, basis)
    assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes
    assert_same_expression(got, ref_express_over(coeffs, basis))


@pytest.mark.parametrize("query, kind, level, indices", [
    (lambda h, lv: tensor_children((-1, 0), lv[0], lv[1]), "function", 0, (-1, 0)),
    (lambda h, lv: cell_ancestor(lv, 1, 0, (-1, 0)), "cell", 1, (-1, 0)),
], ids=["children-negative", "ancestor-negative"])
def test_scalar_queries_refuse_indices_off_the_grid(query, kind, level, indices):
    fx = repo_fixture("d2_corner_admissible")
    lv = fx.levels[level]
    grid = lv.num_cells if kind == "cell" else lv.num_basis
    with pytest.raises(HierSplineError, match=re.escape(
            f"{kind} {indices} is outside the {kind} grid {grid} of level {level}")):
        query(fx.hierarchy, fx.levels)
