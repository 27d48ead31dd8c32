"""Convergence studies over families of fixtures.

A family is an ordered list of fixtures (refinement steps). Per step the
multiscale interpolant of a catalog function is computed and its errors
are measured per level, on the level subdomain and on its core region,
together with the estimate terms h^s ||d^s f|| on the subdomain. The
regions are unions of active cells, so per step each integrand (the error
and each directional derivative) is evaluated once per active cell into a
table, and every region's norm gathers its cells' rows from it.
Observed orders pair a row with the previous step's row whose mesh size is
exactly twice as large.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from numbers import Integral
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import HierSplineError
from .fixtures import Fixture, load_fixture
from .functions import get_function
from .hierarchy import (
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    subdomain_grids,
)
from .quasiinterp import (
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    _as_q,
    _CellRows,
    _Difference,
    lq_norm,
)
from .tensor import CellSet


@dataclass
class StudyRow:
    step: int
    level: int
    h: Fraction
    error: float
    error_core: float
    order: float | None = None

    def to_dict(self) -> dict:
        return {"step": self.step, "level": self.level,
                "h": str(self.h), "h_float": float(self.h),
                "error": self.error, "error_core": self.error_core,
                "order": self.order}


@dataclass
class StudyStep:
    step: int
    mesh_id: str
    active_classical: int
    active_refinable: int
    mesh_sizes: list[list[str]]
    estimate_terms: list[float] = field(default_factory=list)


@dataclass
class StudyReport:
    function: str
    q: str
    smoothness: list[int]
    steps: list[StudyStep]
    rows: list[StudyRow]

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "q": self.q,
            "smoothness": self.smoothness,
            "steps": [asdict(s) for s in self.steps],
            "rows": [r.to_dict() for r in self.rows],
        }

    def csv_text(self) -> str:
        lines = ["step,level,h,error,order"]
        for r in self.rows:
            order = "" if r.order is None else repr(r.order)
            lines.append(f"{r.step},{r.level},{float(r.h)!r},{r.error!r},{order}")
        return "\n".join(lines) + "\n"


# the columns read_study_csv reads, with their parsers; an empty order is None
_CSV_COLUMNS = {"step": int, "level": int, "h": float, "error": float, "order": float}


# kept while the benchmark's workloads read it
def read_study_csv(text: str) -> list[dict]:
    """The rows of a study CSV as :meth:`StudyReport.csv_text` writes it.

    Blank lines are skipped. Text without a header naming every column of
    ``_CSV_COLUMNS``, a row with another number of fields than the header,
    or a field its column cannot parse is refused with the line's number.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise HierSplineError("study CSV: no header line")
    n, head = lines[0]
    header = head.split(",")
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if missing:
        raise HierSplineError(f"study CSV line {n}: the header lacks {', '.join(missing)}")
    rows = []
    for n, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise HierSplineError(
                f"study CSV line {n}: {len(fields)} fields for {len(header)} columns")
        row = dict(zip(header, fields))
        parsed: dict = {}
        for name, parse in _CSV_COLUMNS.items():
            if name == "order" and not row[name]:
                parsed[name] = None
                continue
            try:
                parsed[name] = parse(row[name])
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise HierSplineError(
                    f"study CSV line {n}: {name} {row[name]!r} is not {kind}") from None
        rows.append(parsed)
    return rows


def run_convergence_study(fixtures: Sequence[Fixture], f_name: str,
                          q, smoothness: Sequence[int] | None = None,
                          config: OperatorConfig | None = None) -> StudyReport:
    """Interpolate the named function on every step and report errors.

    Refuses a family whose steps differ in degrees or dimension before any
    step runs, and (by propagation) any step whose core domains are not
    nested. ``smoothness`` holds the per-direction derivative orders used
    for the reported estimate terms; it defaults to degree+1 and must hold
    integers within [1, degree+1], which the report keeps as Python ints.
    """
    if not fixtures:
        raise HierSplineError("empty fixture family")
    q_value = _as_q(q)
    config = config or OperatorConfig()
    degrees = fixtures[0].degrees
    dim = fixtures[0].dimension
    if smoothness is None:
        smoothness = [p + 1 for p in degrees]
    smoothness = list(smoothness)
    if len(smoothness) != dim:
        raise HierSplineError(f"need {dim} smoothness orders")
    for s, p in zip(smoothness, degrees):
        if isinstance(s, bool) or not isinstance(s, Integral):
            raise HierSplineError(f"smoothness order {s!r} is not an integer")
        if not 1 <= s <= p + 1:
            raise HierSplineError(
                f"smoothness order {s} outside 1..{p + 1}")
    smoothness = [int(s) for s in smoothness]
    for step, fixture in enumerate(fixtures):
        if fixture.degrees != degrees or fixture.dimension != dim:
            raise HierSplineError(
                f"step {step} changes degrees or dimension")
    f = get_function(f_name, dim, degrees)

    rows: list[StudyRow] = []
    steps: list[StudyStep] = []
    for step, fixture in enumerate(fixtures):
        step_rows, report = _study_step(step, fixture, f, q, smoothness, config)
        rows += step_rows
        steps.append(report)

    _fill_orders(rows)
    qs = "inf" if q_value == math.inf else str(int(q_value))
    return StudyReport(function=f_name, q=qs, smoothness=smoothness,
                       steps=steps, rows=rows)


def _study_step(step: int, fixture: Fixture, f, q, smoothness: list[int],
                config: OperatorConfig) -> tuple[list[StudyRow], StudyStep]:
    """Interpolate ``f`` on one step; its rows and its report.

    Each integrand (the error and each directional derivative) gets one
    table of per-cell values, which every region's norm reads; the tables
    are taken one after the other, and the operator is dropped before
    them, so that only the interpolant and one table are held at a time.
    """
    h = fixture.hierarchy
    levels = fixture.levels
    refinable = build_refinable_basis(h, levels, compute_weights(h, levels))
    op = MultiscaleQuasiInterpolant(h, levels, refinable, config)
    interpolant, core = op.apply(f), op.core
    del op
    classical, mesh = build_hierarchical_basis(h, levels, refinable.weights)
    grids = subdomain_grids(h, levels)
    # subdomain ell is a grid over the cells of level ell - 1; subdomain 0
    # and core domain 0 are the whole domain
    subdomains = [None] + [CellSet(ell - 1, grids.cells_inside(ell - 1, ell))
                           for ell in range(1, h.depth)]
    cores = [None] + [CellSet(ell, core.masks[ell]) for ell in range(1, h.depth)]
    errors = _level_norms(_CellRows(_Difference(f, interpolant), q, mesh, config),
                          list(zip(subdomains, cores)))
    dnorms = [_level_norms(_CellRows(f.directional_derivative(i, s_i), q, mesh, config),
                           [(sub,) for sub in subdomains])
              for i, s_i in enumerate(smoothness)]
    rows, estimate_terms = [], []
    for ell, (err, err_core) in enumerate(errors):
        hs = levels[ell].max_interval_lengths
        rows.append(StudyRow(step=step, level=ell, h=max(hs),
                             error=err, error_core=err_core))
        term = 0.0
        for s_i, h_i, per_level in zip(smoothness, hs, dnorms):
            term += float(h_i) ** s_i * per_level[ell][0]
        estimate_terms.append(term)
    return rows, StudyStep(
        step=step, mesh_id=fixture.name,
        active_classical=len(classical),
        active_refinable=len(refinable),
        mesh_sizes=[[str(v) for v in levels[ell].max_interval_lengths]
                    for ell in range(h.depth)],
        estimate_terms=estimate_terms)


def _level_norms(table: _CellRows, regions: Sequence[Sequence[CellSet | None]]
                 ) -> list[list[float]]:
    """Per level ell, the norms of the table's integrand over the regions
    ``regions[ell]``, None for the whole domain.

    Each region of level ell lies inside subdomain ell, so its cells are of
    level ell or finer, and level ell's rows are released after its norms.
    """
    out = []
    for ell, level_regions in enumerate(regions):
        out.append([lq_norm(table, table.qv, table.mesh, region, table.config)
                    for region in level_regions])
        table.release(ell)
    return out


def _fill_orders(rows: list[StudyRow]) -> None:
    by_step: dict[int, list[StudyRow]] = {}
    for r in rows:
        by_step.setdefault(r.step, []).append(r)
    for step, current in by_step.items():
        prev = by_step.get(step - 1)
        if not prev:
            continue
        for r in current:
            matches = [p for p in prev if p.h == 2 * r.h]
            if len(matches) != 1:
                continue
            e_prev, e_curr = matches[0].error, r.error
            if e_prev > 1e-14 and e_curr > 1e-14:
                r.order = float(np.log2(e_prev / e_curr))


def load_family(directory) -> list[Fixture]:
    """Fixtures of a family directory, ordered by file name."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise HierSplineError(f"no fixture files in {directory}")
    return [load_fixture(p) for p in paths]


def write_report(report: StudyReport, json_path=None, csv_path=None) -> None:
    if json_path:
        Path(json_path).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    if csv_path:
        Path(csv_path).write_text(report.csv_text(), encoding="utf-8")
