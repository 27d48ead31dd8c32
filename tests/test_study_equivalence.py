"""The convergence study's shared per-cell tables against the former
per-region route.

The reference functions below are the former implementations: an L^q norm
that evaluates every cell of its region afresh, and a study loop that
calls it once per region (subdomain, core domain and each estimate term).
The study now evaluates each active cell once per integrand and step, and
every region's norm gathers its rows; every report must equal the former
one bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hiersplines import kernels, study
from hiersplines.errors import HierSplineError
from hiersplines.fixtures import Fixture
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    WeightMap,
    active_mesh,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    subdomain_grids,
)
from hiersplines.quasiinterp import (
    DEFAULT_CONFIG,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    _as_q,
    _cells_geometry,
    _CellRows,
    _Difference,
    _finite,
    _gauss_base,
    _grid_values,
    _kron,
    _tensor_grid,
    compute_core_domains,
    integration_cells,
    lq_norm,
)
from hiersplines.study import StudyReport, StudyRow, StudyStep, run_convergence_study
from hiersplines.tensor import CellSet

from .conftest import FIXTURE_DIR, random_hierarchy, repo_fixture
from .test_acceptance import _corner_family

FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
QS = [1, 2, "inf"]
CONFIGS = [DEFAULT_CONFIG, OperatorConfig(quad_increment=1, error_quad_increment=0,
                                          sup_samples_per_cell=40)]

# ---------------------------------------------------------------------------
# reference implementations


def former_abs_batches(f, lows, spans, base):
    """|f| on the per-cell grids in batches of whole cells, each batch's
    axes formed per grid from the cells' lower corners and edge lengths."""
    chunk = max(1, kernels.GRID_BLOCK // math.prod(len(t) for t in base))
    for k in range(0, lows.shape[0], chunk):
        axes = [lows[k:k + chunk, i, None] + spans[k:k + chunk, i, None] * t
                for i, t in enumerate(base)]
        vals = _finite(_grid_values(f, axes), lambda: _tensor_grid(axes))
        yield k, np.abs(vals, out=vals)


def former_lq_norm(f, q, mesh, region=None, config=DEFAULT_CONFIG):
    qv = _as_q(q)
    groups = integration_cells(mesh, region)
    if not groups:
        return 0.0
    if math.isinf(qv):
        d = mesh.levels[0].dim
        per_dir = max(2, math.ceil(config.sup_samples_per_cell ** (1.0 / d)))
        base = [np.linspace(0.0, 1.0, per_dir)] * d
        worst = 0.0
        for ell, idxs in groups:
            lows, spans = _cells_geometry(mesh.levels[ell], idxs)
            for _, vals in former_abs_batches(f, lows, spans, base):
                worst = max(worst, float(vals.max()))
        return worst
    total = 0.0
    for ell, idxs in groups:
        lv = mesh.levels[ell]
        counts = [kv.degree + 1 + config.error_quad_increment for kv in lv.kvs]
        rules = [_gauss_base(c) for c in counts]
        base_w = _kron([w for _, w in rules])
        lows, spans = _cells_geometry(lv, idxs)
        powers = np.empty((lows.shape[0], base_w.shape[0]))
        for k, vals in former_abs_batches(f, lows, spans, [t for t, _ in rules]):
            powers[k:k + vals.shape[0]] = vals ** qv
        total += float(spans.prod(axis=1) @ (powers @ base_w))
    return total ** (1.0 / qv)


def former_study(fixtures, f_name, q, smoothness=None, config=None) -> StudyReport:
    config = config or OperatorConfig()
    degrees = fixtures[0].degrees
    dim = fixtures[0].dimension
    if smoothness is None:
        smoothness = [p + 1 for p in degrees]
    smoothness = list(smoothness)
    f = get_function(f_name, dim, degrees)
    rows, steps = [], []
    for step, fixture in enumerate(fixtures):
        h = fixture.hierarchy
        levels = fixture.levels
        weights = compute_weights(h, levels)
        refinable = build_refinable_basis(h, levels, weights)
        op = MultiscaleQuasiInterpolant(h, levels, refinable, config)
        interpolant = op.apply(f)
        mesh = active_mesh(h, levels)
        grids = subdomain_grids(h, levels)
        diff = _Difference(f, interpolant)
        estimate_terms = []
        for ell in range(h.depth):
            region = CellSet(ell - 1, grids.cells_inside(ell - 1, ell)) if ell else None
            err = former_lq_norm(diff, q, mesh, region, config)
            core = op.core.masks[ell]
            if ell == 0:
                err_core = err
            else:
                err_core = former_lq_norm(diff, q, mesh, CellSet(ell, core), config) \
                    if core.any() else 0.0
            hs = levels[ell].max_interval_lengths
            rows.append(StudyRow(step=step, level=ell, h=max(hs),
                                 error=err, error_core=err_core))
            term = 0.0
            for i, (s_i, h_i) in enumerate(zip(smoothness, hs)):
                dnorm = former_lq_norm(f.directional_derivative(i, s_i), q, mesh,
                                       region, config)
                term += float(h_i) ** s_i * dnorm
            estimate_terms.append(term)
        steps.append(StudyStep(
            step=step, mesh_id=fixture.name,
            active_classical=len(build_hierarchical_basis(h, levels, weights)[0]),
            active_refinable=len(refinable),
            mesh_sizes=[[str(v) for v in levels[ell].max_interval_lengths]
                        for ell in range(h.depth)],
            estimate_terms=estimate_terms))
    study._fill_orders(rows)
    qs = "inf" if (isinstance(q, str) and q.lower() == "inf") or q == math.inf else str(q)
    return StudyReport(function=f_name, q=qs, smoothness=smoothness,
                       steps=steps, rows=rows)


# ---------------------------------------------------------------------------
# the study


@pytest.mark.parametrize("config", CONFIGS, ids=["default", "custom"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_studies_match_former_route(name, config):
    fx = repo_fixture(name)
    assert compute_core_domains(fx.hierarchy, fx.levels).nested
    for q in QS:
        assert run_convergence_study([fx], "gauss", q, config=config).to_dict() == \
            former_study([fx], "gauss", q, config=config).to_dict(), q


def _random_fixture(rng, explicit):
    levels, h = random_hierarchy(rng, explicit=explicit)
    return Fixture("random", levels[0].dim, levels[0].degrees, levels, h,
                   "explicit" if explicit else "dyadic")


def _outcome(run, *args, **kwargs):
    """A study's report as a dict, or the type and message of its refusal."""
    try:
        return run(*args, **kwargs).to_dict()
    except HierSplineError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
def test_random_studies_match_former_route(rng, explicit):
    # some random hierarchies have core domains that are not nested, and on
    # some explicit ones with nested cores the operator's output is not
    # expressed over the refinable basis; both routes must refuse alike
    reports = 0
    for _ in range(12):
        fx = _random_fixture(rng, explicit)
        for q in QS:
            for config in CONFIGS:
                got = _outcome(run_convergence_study, [fx], "sin", q, config=config)
                assert got == _outcome(former_study, [fx], "sin", q, config=config)
                reports += isinstance(got, dict)
    assert reports >= 18


# ---------------------------------------------------------------------------
# the norms


class _Counting:
    """A plain callable that counts the points it is given."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, pts):
        self.points += pts.shape[0]
        return self.f(pts)


def _nodes_per_cell(mesh, q, config=DEFAULT_CONFIG):
    d = mesh.levels[0].dim
    if math.isinf(_as_q(q)):
        return max(2, math.ceil(config.sup_samples_per_cell ** (1.0 / d))) ** d
    return math.prod(kv.degree + 1 + config.error_quad_increment for kv in mesh.levels[0].kvs)


def _corner_mesh():
    fx = repo_fixture("d2_corner_admissible")
    return active_mesh(fx.hierarchy, fx.levels), fx


@pytest.mark.parametrize("q", QS)
def test_small_region_evaluates_only_its_cells(q):
    mesh, fx = _corner_mesh()
    grids = subdomain_grids(fx.hierarchy, fx.levels)
    mask = np.zeros(fx.levels[0].num_cells, dtype=bool)
    # one level-0 cell inside subdomain 1, so its integration cells are finer
    cell = tuple(np.argwhere(grids.cells_inside(0, 1))[0])
    mask[cell] = True
    region = CellSet(0, mask)
    cells = sum(len(idxs) for _, idxs in integration_cells(mesh, region))
    assert 1 < cells < mesh.cell_count()
    f = _Counting(get_function("sin", 2))
    assert lq_norm(f, q, mesh, region) == former_lq_norm(get_function("sin", 2), q, mesh, region)
    assert f.points == cells * _nodes_per_cell(mesh, q)


@pytest.mark.parametrize("q", QS)
def test_shared_table_evaluates_each_cell_once(q):
    # a small region first, then the whole domain: the second norm evaluates
    # only the cells the first did not, and both equal the former route
    mesh, fx = _corner_mesh()
    f = get_function("gauss", 2)
    counting = _Counting(f)
    table = _CellRows(counting, q, mesh)
    region = CellSet(1, subdomain_grids(fx.hierarchy, fx.levels).cells_inside(1, 2))
    assert lq_norm(table, q, mesh, region) == former_lq_norm(f, q, mesh, region)
    assert lq_norm(table, q, mesh) == former_lq_norm(f, q, mesh)
    assert lq_norm(table, q, mesh, region) == former_lq_norm(f, q, mesh, region)
    assert counting.points == mesh.cell_count() * _nodes_per_cell(mesh, q)


@pytest.mark.parametrize("q", QS)
def test_region_finer_than_active_cells_matches_former_route(q):
    # level-2 cells over the whole domain: most of them sit inside coarser
    # active cells, so the norm integrates cells that are not active
    mesh, fx = _corner_mesh()
    f = get_function("sin", 2)
    region = CellSet(2, np.ones(fx.levels[2].num_cells, dtype=bool))
    [(ell, fine)] = integration_cells(mesh, region)
    assert ell == 2 and len(fine) > np.count_nonzero(mesh.masks[2])
    want = former_lq_norm(f, q, mesh, region)
    assert lq_norm(f, q, mesh, region) == want
    # after the active cells, only the level-2 cells not yet held are evaluated
    counting = _Counting(f)
    table = _CellRows(counting, q, mesh)
    assert lq_norm(table, q, mesh) == former_lq_norm(f, q, mesh)
    assert lq_norm(table, q, mesh, region) == want
    new = len(fine) - np.count_nonzero(mesh.masks[2])
    assert counting.points == (mesh.cell_count() + new) * _nodes_per_cell(mesh, q)


def test_table_serves_only_its_own_norms():
    mesh, fx = _corner_mesh()
    table = _CellRows(get_function("sin", 2), 2, mesh)
    for q, m, config in [(1, mesh, DEFAULT_CONFIG), (2, active_mesh(fx.hierarchy, fx.levels),
                                                      DEFAULT_CONFIG), (2, mesh, CONFIGS[1])]:
        with pytest.raises(HierSplineError, match="its own q, mesh and configuration"):
            lq_norm(table, q, m, None, config)


def test_study_never_builds_the_weight_dicts(monkeypatch):
    # a study reads no weight, so it builds no Fid key or Fraction per weight
    def refuse(self):
        raise AssertionError("the study built a weight dict view")

    monkeypatch.setattr(WeightMap, "values", property(refuse))
    monkeypatch.setattr(WeightMap, "positive", property(refuse))
    report = run_convergence_study(_corner_family(2), "sin", 2)
    assert [row.step for row in report.rows if row.level == 0] == [0, 1]
