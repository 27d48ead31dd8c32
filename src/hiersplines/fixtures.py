"""Fixture files and active-cell dumps.

Fixtures are human-writable JSON with a schema tag. Knot values accept
JSON numbers or strings like "1/3" and "0.25"; both parse to exact
rationals, so what you write is what gets compared. Cell lists are
multi-index tuples at the declared level.

An active-cell dump carries enough of the level structure to be re-parsed
standalone; rebuilding the hierarchy from it reproduces the original one
exactly, because subdomains are closed unions of cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import FixtureError, HierSplineError, LevelSizeError
from .hierarchy import (
    HierarchicalMesh,
    SubdomainHierarchy,
    active_mesh,
    enlarge_hierarchy,
    validate_hierarchy,
)
from .tensor import (
    Index,
    TensorLevel,
    build_level_sequence,
    id_sort_key,
    index_arrays,
    marked_indices,
)
from .univariate import KnotVector, as_knot, dyadic_refine, make_open_knot_vector

FIXTURE_SCHEMA = "hiersplines-fixture-v1"
MESH_SCHEMA = "hiersplines-mesh-v1"


@dataclass
class EnlargementSpec:
    additions: dict[int, list[Index]] = field(default_factory=dict)
    new_deepest: list[Index] | None = None


@dataclass
class Fixture:
    name: str
    dimension: int
    degrees: tuple[int, ...]
    levels: list[TensorLevel]
    hierarchy: SubdomainHierarchy
    refinement: Any  # "dyadic" or explicit per-level knot vectors
    enlargement: EnlargementSpec | None = None


def _is_int(raw) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(raw, int) and not isinstance(raw, bool)


def _expect(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise FixtureError(where, f"missing required field {key!r}")
    return obj[key]


def _expect_object(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise FixtureError(where, "must be a JSON object")
    return raw


def _expect_list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise FixtureError(where, "must be an array")
    return raw


def _parse_level(raw, low: int, high: int, where: str) -> int:
    if not _is_int(raw) or not low <= raw <= high:
        raise FixtureError(where, f"must be an integer in {low}..{high}")
    return raw


def _parse_value(raw, where: str) -> Fraction:
    try:
        return as_knot(raw)
    except Exception:
        raise FixtureError(where, f"cannot parse knot value {raw!r}") from None


def _parse_cell(raw, dim: int, where: str) -> Index:
    if not isinstance(raw, list) or len(raw) != dim \
            or not all(_is_int(v) for v in raw):
        raise FixtureError(where, f"cell must be an array of {dim} integers")
    return tuple(raw)


def _parse_cells(raw, dim: int, where: str) -> list[Index]:
    if not isinstance(raw, list):
        raise FixtureError(where, "cell list must be an array")
    return [_parse_cell(entry, dim, f"{where}[{i}]") for i, entry in enumerate(raw)]


def _parse_direction_knots(degree: int, raw, where: str) -> KnotVector:
    raw = _expect_object(raw, where)
    bps_raw = _expect_list(_expect(raw, "breakpoints", where), f"{where}.breakpoints")
    values = [_parse_value(v, f"{where}.breakpoints[{i}]")
              for i, v in enumerate(bps_raw)]
    mults = raw.get("multiplicities")
    if mults is not None and not (isinstance(mults, list)
                                  and all(_is_int(m) for m in mults)):
        raise FixtureError(f"{where}.multiplicities", "must be an array of integers")
    try:
        return make_open_knot_vector(degree, values, mults)
    except HierSplineError as exc:
        raise FixtureError(where, str(exc)) from None


def _parse_shape(obj: Mapping, source: str) -> tuple[int, list[int], int]:
    """Dimension, per-direction degrees and depth, shared by both formats."""
    dim = _expect(obj, "dimension", source)
    if not _is_int(dim) or dim < 1:
        raise FixtureError(f"{source}.dimension", "must be a positive integer")
    degrees = _expect(obj, "degrees", source)
    if not (isinstance(degrees, list) and len(degrees) == dim
            and all(_is_int(p) and p >= 0 for p in degrees)):
        raise FixtureError(f"{source}.degrees",
                           f"must be {dim} nonnegative integers")
    depth = _expect(obj, "depth", source)
    if not _is_int(depth) or depth < 1:
        raise FixtureError(f"{source}.depth", "must be a positive integer")
    return dim, degrees, depth


def _parse_levels(obj: Mapping, initial: list[KnotVector], degrees: list[int],
                  depth: int, source: str):
    """The level sequence and its refinement rule ("dyadic" or explicit)."""
    dim = len(degrees)
    refinement = obj.get("refinement", "dyadic")
    if refinement == "dyadic":
        rule = "dyadic"
    elif isinstance(refinement, Mapping) and "explicit" in refinement:
        explicit_raw = refinement["explicit"]
        if not isinstance(explicit_raw, list) or len(explicit_raw) != depth - 1:
            raise FixtureError(f"{source}.refinement.explicit",
                               f"need {depth - 1} levels")
        rule = []
        for ell, per_dir in enumerate(explicit_raw):
            if not isinstance(per_dir, list) or len(per_dir) != dim:
                raise FixtureError(
                    f"{source}.refinement.explicit[{ell}]",
                    f"need {dim} directions")
            rule.append(tuple(
                _parse_direction_knots(
                    degrees[i], per_dir[i],
                    f"{source}.refinement.explicit[{ell}][{i}]")
                for i in range(dim)))
    else:
        raise FixtureError(f"{source}.refinement",
                           "must be \"dyadic\" or {\"explicit\": [...]}")
    try:
        return build_level_sequence(initial, depth, rule), rule
    except LevelSizeError as exc:
        raise FixtureError(f"{source}.depth", str(exc)) from None
    except HierSplineError as exc:
        raise FixtureError(f"{source}.refinement", str(exc)) from None


def parse_fixture(obj: Mapping, source: str = "fixture") -> Fixture:
    obj = _expect_object(obj, source)
    schema = obj.get("schema")
    if schema != FIXTURE_SCHEMA:
        raise FixtureError(f"{source}.schema",
                           f"expected {FIXTURE_SCHEMA!r}, got {schema!r}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise FixtureError(f"{source}.name", "must be a string")
    dim, degrees, depth = _parse_shape(obj, source)

    bps = _expect(obj, "breakpoints", source)
    if not isinstance(bps, list) or len(bps) != dim:
        raise FixtureError(f"{source}.breakpoints",
                           f"need one breakpoint list per direction ({dim})")
    mults = obj.get("multiplicities")
    if mults is not None and (not isinstance(mults, list) or len(mults) != dim):
        raise FixtureError(f"{source}.multiplicities",
                           f"need one multiplicity list per direction ({dim})")
    initial = []
    for i in range(dim):
        raw = {"breakpoints": bps[i]}
        if mults is not None:
            raw["multiplicities"] = mults[i]
        initial.append(_parse_direction_knots(degrees[i], raw,
                                              f"{source}.breakpoints[{i}]"))
    levels, rule = _parse_levels(obj, initial, degrees, depth, source)

    subs_raw = _expect_list(obj.get("subdomains", []), f"{source}.subdomains")
    per_level: dict[int, list[Index]] = {}
    for i, entry in enumerate(subs_raw):
        where = f"{source}.subdomains[{i}]"
        entry = _expect_object(entry, where)
        ell = _parse_level(_expect(entry, "level", where), 1, depth - 1,
                           f"{where}.level")
        if ell in per_level:
            raise FixtureError(f"{where}.level", f"duplicate subdomain {ell}")
        per_level[ell] = _parse_cells(_expect(entry, "cells", where), dim,
                                      f"{where}.cells")
    cells_per_level = [per_level.get(ell, []) for ell in range(1, depth)]
    hierarchy = SubdomainHierarchy.from_cells(cells_per_level)
    try:
        validate_hierarchy(hierarchy, levels)
    except HierSplineError as exc:
        raise FixtureError(f"{source}.subdomains", str(exc)) from None

    enlargement = None
    if obj.get("enlargement") is not None:
        where = f"{source}.enlargement"
        raw = _expect_object(obj["enlargement"], where)
        plan = EnlargementSpec()
        additions = _expect_list(raw.get("additions", []), f"{where}.additions")
        for i, entry in enumerate(additions):
            at = f"{where}.additions[{i}]"
            entry = _expect_object(entry, at)
            ell = _parse_level(_expect(entry, "level", at), 1, depth - 1, f"{at}.level")
            plan.additions.setdefault(ell, []).extend(
                _parse_cells(_expect(entry, "cells", at), dim, f"{at}.cells"))
        if raw.get("new_deepest"):
            plan.new_deepest = _parse_cells(raw["new_deepest"], dim,
                                            f"{where}.new_deepest")
        try:
            enlarge_hierarchy(hierarchy, levels, plan.additions, plan.new_deepest)
        except HierSplineError as exc:
            raise FixtureError(where, str(exc)) from None
        enlargement = plan

    return Fixture(name=name or source, dimension=dim, degrees=tuple(degrees),
                   levels=levels, hierarchy=hierarchy, refinement=rule,
                   enlargement=enlargement)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FixtureError(str(path), f"invalid JSON: {exc}") from None


def load_fixture(path) -> Fixture:
    path = Path(path)
    return parse_fixture(_read_json(path), source=path.stem)


# ---------------------------------------------------------------------------
# writing fixtures

def _kv_to_dict(kv: KnotVector) -> dict:
    bp = kv.breakpoints
    return {"breakpoints": [str(v) for v in bp.values],
            "multiplicities": list(bp.multiplicities)}


def fixture_to_dict(fixture: Fixture) -> dict:
    out: dict[str, Any] = {
        "schema": FIXTURE_SCHEMA,
        "name": fixture.name,
        "dimension": fixture.dimension,
        "degrees": list(fixture.degrees),
        **{key: [_kv_to_dict(kv)[key] for kv in fixture.levels[0].kvs]
           for key in ("breakpoints", "multiplicities")},
        "depth": fixture.hierarchy.depth,
    }
    if fixture.refinement == "dyadic":
        out["refinement"] = "dyadic"
    else:
        out["refinement"] = {"explicit": [
            [_kv_to_dict(kv) for kv in kvs]
            for kvs in fixture.refinement[:fixture.hierarchy.depth - 1]]}
    subs = []
    for ell in range(1, fixture.hierarchy.depth):
        cells = fixture.hierarchy.subdomain_cells(ell)
        subs.append({"level": ell,
                     "cells": [list(c) for c in sorted(cells)]})
    out["subdomains"] = subs
    if fixture.enlargement is not None:
        enl: dict[str, Any] = {"additions": [
            {"level": ell, "cells": [list(c) for c in sorted(cells)]}
            for ell, cells in sorted(fixture.enlargement.additions.items())]}
        if fixture.enlargement.new_deepest is not None:
            enl["new_deepest"] = [list(c) for c in sorted(fixture.enlargement.new_deepest)]
        out["enlargement"] = enl
    return out


def write_fixture(fixture: Fixture, path) -> None:
    Path(path).write_text(json.dumps(fixture_to_dict(fixture), indent=2) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# active-cell dumps and the mesh round trip

def dump_active_cells(mesh: HierarchicalMesh, *, bases: Sequence = ()) -> dict:
    """Level-tagged boxes of the active cells plus the level structure.

    The levels are written as "dyadic" when each one is the dyadic
    refinement of the one before, and explicitly otherwise. Optional bases
    are dumped alongside as level-tagged active functions with their exact
    weights; re-parsing uses only the cells.
    """
    level0 = mesh.levels[0]
    out: dict[str, Any] = {
        "schema": MESH_SCHEMA,
        "dimension": level0.dim,
        "degrees": list(level0.degrees),
        "initial": [_kv_to_dict(kv) for kv in level0.kvs],
        "depth": len(mesh.levels),
    }
    if all(kv == dyadic_refine(ckv) for coarse, fine in zip(mesh.levels, mesh.levels[1:])
           for ckv, kv in zip(coarse.kvs, fine.kvs)):
        out["refinement"] = "dyadic"
    else:
        out["refinement"] = {"explicit": [
            [_kv_to_dict(kv) for kv in lv.kvs] for lv in mesh.levels[1:]]}
    cells = []
    for ell, idx in mesh.cells():
        box = mesh.levels[ell].cell_box(idx)
        cells.append({"level": ell,
                      "index": list(idx),
                      "box": [[str(lo), str(hi)] for lo, hi in box]})
    out["cells"] = cells
    if bases:
        out["functions"] = [{
            "flavor": basis.flavor,
            "members": [{"level": fid.level,
                         "index": list(fid.indices),
                         "weight": str(basis.weights.values[fid])}
                        for fid in basis.functions()],
        } for basis in bases]
    return out


def hierarchy_from_active_cells(levels: Sequence[TensorLevel],
                                active: Sequence[Sequence[Index]]
                                ) -> SubdomainHierarchy:
    """Rebuild the subdomain hierarchy from the active cells of each level.

    Subdomain ell is the set of level ell-1 cells that no active cell of
    level ell-1 or coarser covers, read off the mesh's covered grids.
    """
    depth = len(active)
    if depth < 1 or depth > len(levels):
        raise HierSplineError("active cell lists do not match the levels")
    masks = tuple(np.zeros(lv.num_cells, dtype=bool) for lv in levels[:depth])
    for lv, mask, cells in zip(levels, masks, active):
        mask[index_arrays(cells, lv.dim)] = True
    mesh = HierarchicalMesh(tuple(levels[:depth]), masks)
    return SubdomainHierarchy.from_cells(
        [marked_indices(~mesh.covered(ell)) for ell in range(depth - 1)])


def parse_mesh_dump(obj: Mapping, source: str = "mesh"
                    ) -> tuple[list[TensorLevel], SubdomainHierarchy]:
    obj = _expect_object(obj, source)
    if obj.get("schema") != MESH_SCHEMA:
        raise FixtureError(f"{source}.schema",
                           f"expected {MESH_SCHEMA!r}, got {obj.get('schema')!r}")
    dim, degrees, depth = _parse_shape(obj, source)
    initial_raw = _expect(obj, "initial", source)
    if not isinstance(initial_raw, list) or len(initial_raw) != dim:
        raise FixtureError(f"{source}.initial",
                           f"need one knot vector per direction ({dim})")
    initial = [_parse_direction_knots(degrees[i], raw, f"{source}.initial[{i}]")
               for i, raw in enumerate(initial_raw)]
    levels, _ = _parse_levels(obj, initial, degrees, depth, source)
    active: list[list[Index]] = [[] for _ in range(depth)]
    for i, entry in enumerate(_expect_list(_expect(obj, "cells", source),
                                           f"{source}.cells")):
        where = f"{source}.cells[{i}]"
        entry = _expect_object(entry, where)
        ell = _parse_level(_expect(entry, "level", where), 0, depth - 1,
                           f"{where}.level")
        idx = _parse_cell(_expect(entry, "index", where), dim, f"{where}.index")
        if not levels[ell].holds(idx, cells=True):
            raise FixtureError(f"{where}.index",
                               f"out of range for level {ell} grid "
                               f"{levels[ell].num_cells}")
        active[ell].append(idx)
    hierarchy = hierarchy_from_active_cells(levels, active)
    # the rebuild always yields some nested hierarchy; a gap, overlap or
    # repeated cell shows as a mismatch with that hierarchy's active cells
    rebuilt = [list(cells) for cells in active_mesh(hierarchy, levels).active]
    rebuilt += [[]] * (depth - hierarchy.depth)
    if rebuilt != [sorted(cells, key=id_sort_key) for cells in active]:
        raise FixtureError(f"{source}.cells", "the cells are not the active cells "
                           "of a hierarchy (a gap, an overlap or a repeated cell)")
    return levels, hierarchy


def load_mesh_dump(path) -> tuple[list[TensorLevel], SubdomainHierarchy]:
    path = Path(path)
    return parse_mesh_dump(_read_json(path), source=path.stem)
