"""Convergence studies over families of fixtures.

A family is an ordered list of fixtures (refinement steps). Per step the
multiscale interpolant of a catalog function is computed and its errors
are measured per level, on the level subdomain and on its core region.
Observed orders pair a row with the previous step's row whose mesh size is
exactly twice as large.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import HierSplineError
from .fixtures import Fixture, load_fixture
from .functions import get_function
from .hierarchy import (
    active_mesh,
    build_refinable_basis,
    compute_weights,
    subdomain_grids,
)
from .quasiinterp import (
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    _as_q,
    error_norms,
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


def read_study_csv(text: str) -> list[dict]:
    rows = []
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    for ln in lines[1:]:
        parts = ln.split(",")
        row = dict(zip(header, parts))
        rows.append({
            "step": int(row["step"]),
            "level": int(row["level"]),
            "h": float(row["h"]),
            "error": float(row["error"]),
            "order": float(row["order"]) if row["order"] else None,
        })
    return rows


def run_convergence_study(fixtures: Sequence[Fixture], f_name: str,
                          q, smoothness: Sequence[int] | None = None,
                          config: OperatorConfig | None = None) -> StudyReport:
    """Interpolate the named function on every step and report errors.

    Refuses (by propagation) on any step whose core domains are not
    nested. ``smoothness`` holds the per-direction derivative orders used
    for the reported estimate terms; it defaults to degree+1 and must stay
    within [1, degree+1].
    """
    if not fixtures:
        raise HierSplineError("empty fixture family")
    _as_q(q)
    config = config or OperatorConfig()
    degrees = fixtures[0].degrees
    dim = fixtures[0].dimension
    if smoothness is None:
        smoothness = [p + 1 for p in degrees]
    smoothness = list(smoothness)
    if len(smoothness) != dim:
        raise HierSplineError(f"need {dim} smoothness orders")
    for s, p in zip(smoothness, degrees):
        if not 1 <= s <= p + 1:
            raise HierSplineError(
                f"smoothness order {s} outside 1..{p + 1}")
    f = get_function(f_name, dim, degrees)

    rows: list[StudyRow] = []
    steps: list[StudyStep] = []
    for step, fixture in enumerate(fixtures):
        if fixture.degrees != degrees or fixture.dimension != dim:
            raise HierSplineError(
                f"step {step} changes degrees or dimension")
        h = fixture.hierarchy
        levels = fixture.levels
        weights = compute_weights(h, levels)
        refinable = build_refinable_basis(h, levels, weights)
        op = MultiscaleQuasiInterpolant(h, levels, refinable, config)
        interpolant = op.apply(f)
        mesh = active_mesh(h, levels)
        grids = subdomain_grids(h, levels)
        estimate_terms = []
        for ell in range(h.depth):
            # subdomain ell is a grid over the cells of level ell - 1
            region = CellSet(ell - 1, grids.cells_inside(ell - 1, ell)) if ell else None
            err = error_norms(f, interpolant, q, mesh=mesh, region=region,
                              config=config)
            core = op.core.masks[ell]
            if ell == 0:
                err_core = err  # the core domain of level 0 is the whole domain
            else:
                err_core = error_norms(f, interpolant, q, mesh=mesh,
                                       region=CellSet(ell, core), config=config) \
                    if core.any() else 0.0
            hs = levels[ell].max_interval_lengths
            rows.append(StudyRow(step=step, level=ell, h=max(hs),
                                 error=err, error_core=err_core))
            term = 0.0
            for i, (s_i, h_i) in enumerate(zip(smoothness, hs)):
                dnorm = lq_norm(f.directional_derivative(i, s_i), q, mesh,
                                region, config)
                term += float(h_i) ** s_i * dnorm
            estimate_terms.append(term)
        steps.append(StudyStep(
            step=step, mesh_id=fixture.name,
            active_classical=_classical_count(h, levels),
            active_refinable=len(refinable),
            mesh_sizes=[[str(v) for v in levels[ell].max_interval_lengths]
                        for ell in range(h.depth)],
            estimate_terms=estimate_terms))

    _fill_orders(rows)
    qs = "inf" if (isinstance(q, str) and q.lower() == "inf") or q == math.inf else str(q)
    return StudyReport(function=f_name, q=qs, smoothness=smoothness,
                       steps=steps, rows=rows)


def _classical_count(h, levels) -> int:
    """Size of the classical basis: per level ell, the functions supported
    in subdomain ell but not in subdomain ell+1, counted on the support
    masks of the grids."""
    grids = subdomain_grids(h, levels)
    return sum(int(np.count_nonzero(grids.supports_inside(ell, ell)
                                    & ~grids.supports_inside(ell, ell + 1)))
               for ell in range(h.depth))


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
