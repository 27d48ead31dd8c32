"""The four benchmark workloads.

Each workload writes its inputs into a directory (``make_inputs``), runs a
small version of itself to warm up (``warm_up``), makes the timed call
(``call``) and turns what the call produced into per-operation outputs
(``outputs``) for the oracle. An operation is one study step, one
adaptive step or one invariant.

Library functions are always looked up through their module at call time
(``hierarchy.compute_weights``, never a name bound here), so the wrappers
the tracer installs on the modules see every call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hiersplines import cli, errors, fixtures, hierarchy, quasiinterp, study, tensor, univariate
from hiersplines.functions import get_function

DATA = Path(__file__).resolve().parent / "data"

# study_corner: the corner-graded family of the convergence acceptance test
CORNER_STEPS = 5
# study_corner steps whose orders the acceptance test holds to 2.8
CORNER_ORDER_FLOOR = 2.8
CORNER_ORDER_FROM_STEP = 3

# study_uniform_sup: 4, 8, 16, 32, 64 cells per direction, one level
UNIFORM_START = 4
UNIFORM_STEPS = 5

# adaptive_enlarge: an 8x8 quadratic mesh grown to depth 7 in 6 steps
ADAPTIVE_DEGREE = 2
ADAPTIVE_CELLS = 8
ADAPTIVE_RADII = (0.26, 0.18, 0.12, 0.08, 0.055, 0.04)
ADAPTIVE_DEPTH = len(ADAPTIVE_RADII) + 1
# The seed picks one of the eight symmetries of the square; the reference
# holds the outputs of every one of them.
ADAPTIVE_VARIANTS = 8
ADAPTIVE_STREAM = 1507


class Workload:
    """What every workload shares: whether its inputs depend on the seed."""

    name = ""
    # how many distinct inputs the seeds select; None when the seed is unused
    variants: int | None = None

    def variant(self, seed: int) -> int | None:
        return None if self.variants is None else seed % self.variants


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _uniform_level(degree: int, cells: int, depth: int):
    kv = univariate.uniform_open_knot_vector(degree, cells)
    return tensor.build_level_sequence([kv, kv], depth)


def _fixture(name: str, levels, subdomains) -> fixtures.Fixture:
    h = hierarchy.SubdomainHierarchy.from_cells(subdomains)
    return fixtures.Fixture(name=name, dimension=2, degrees=levels[0].degrees,
                            levels=levels, hierarchy=h, refinement="dyadic")


def _study_ops(report: dict, order_check) -> list[dict]:
    """One operation per study step: its structure exactly, its errors
    approximately, plus any violated property."""
    ops = []
    for st in report["steps"]:
        rows = [r for r in report["rows"] if r["step"] == st["step"]]
        approx = {}
        violations = []
        for r in rows:
            key = f"level{r['level']}"
            approx[f"{key}.error"] = r["error"]
            approx[f"{key}.error_core"] = r["error_core"]
            if r["order"] is not None:
                approx[f"{key}.order"] = r["order"]
            violations.extend(order_check(r))
        ops.append({
            "id": f"step{st['step']}",
            "exact": {
                "mesh_id": st["mesh_id"],
                "active_classical": st["active_classical"],
                "active_refinable": st["active_refinable"],
                "zero_weight": st["active_classical"] - st["active_refinable"],
                "mesh_sizes": st["mesh_sizes"],
                "rows": len(rows),
            },
            "approx": approx,
            "violations": violations,
        })
    return ops


def _no_order_check(row) -> list[str]:
    return []


def _corner_order_check(row) -> list[str]:
    if row["step"] >= CORNER_ORDER_FROM_STEP and row["order"] is not None \
            and row["order"] < CORNER_ORDER_FLOOR:
        return [f"step {row['step']} level {row['level']}: order "
                f"{row['order']} below {CORNER_ORDER_FLOOR}"]
    return []


def _failed_call(ids: list[str], reason: str) -> list[dict]:
    return [{"id": i, "error": reason} for i in ids]


class StudyCorner(Workload):
    """``hiersplines study`` in-process on the corner-graded family."""

    name = "study_corner"

    def make_inputs(self, seed: int, directory: Path) -> None:
        family = directory / "family"
        family.mkdir(parents=True, exist_ok=True)
        for s in range(CORNER_STEPS):
            n = 4 * 2 ** s
            levels = _uniform_level(2, n, 3)
            box = [tuple(c) for c in tensor.iter_box([range(n // 2)] * 2)]
            fixtures.write_fixture(_fixture(f"corner_s{s}", levels, [box, box]),
                                   family / f"corner_s{s}.json")

    def _run(self, family: Path, directory: Path) -> int:
        return cli.main(["study", str(family), "--f", "sin", "--q", "2",
                         "--csv", str(directory / "study.csv"),
                         "--report", str(directory / "study.json")])

    def warm_up(self, directory: Path) -> None:
        warm = directory / "warm"
        warm.mkdir(exist_ok=True)
        (warm / "corner_s0.json").write_bytes(
            (directory / "family" / "corner_s0.json").read_bytes())
        self._run(warm, directory)

    def call(self, directory: Path):
        for name in ("study.csv", "study.json"):
            (directory / name).unlink(missing_ok=True)
        return self._run(directory / "family", directory)

    def outputs(self, directory: Path, result) -> list[dict]:
        ids = [f"step{s}" for s in range(CORNER_STEPS)]
        if result != 0:
            return _failed_call(ids, f"exit code {result}")
        report = _read_json(directory / "study.json")
        csv_rows = study.read_study_csv((directory / "study.csv").read_text(encoding="utf-8"))
        ops = _study_ops(report, _corner_order_check)
        if [(r["step"], r["level"], r["error"]) for r in csv_rows] != \
                [(r["step"], r["level"], r["error"]) for r in report["rows"]]:
            for op in ops:
                op["violations"].append("CSV and JSON report disagree")
        return ops


class CheckNested(Workload):
    """``hiersplines check`` in-process on d2_nested_not_admissible."""

    name = "check_nested"
    fixture = "d2_nested_not_admissible.json"

    def make_inputs(self, seed: int, directory: Path) -> None:
        (directory / self.fixture).write_bytes((DATA / self.fixture).read_bytes())
        levels = _uniform_level(2, 4, 2)
        fixtures.write_fixture(
            _fixture("warm", levels, [[(0, 0), (0, 1), (1, 0), (1, 1)]]),
            directory / "warm.json")

    def _run(self, fixture: Path, directory: Path) -> int:
        return cli.main(["check", str(fixture), "--report", str(directory / "check.json")])

    def warm_up(self, directory: Path) -> None:
        self._run(directory / "warm.json", directory)

    def call(self, directory: Path):
        (directory / "check.json").unlink(missing_ok=True)
        return self._run(directory / self.fixture, directory)

    def outputs(self, directory: Path, result) -> list[dict]:
        report_path = directory / "check.json"
        if not report_path.exists():
            return [{"id": "report", "error": f"exit code {result}, no report written"}]
        # The CLI exits 1 when any invariant fails but still writes the
        # report; each invariant's own `passed` then goes to the oracle.
        report = _read_json(report_path)
        c = report["counts"]
        counts = {k: c[k] for k in ("active_classical", "active_refinable",
                                    "zero_weight", "active_cells", "depth",
                                    "strictly_admissible", "core_nested")}
        return [{"id": r["name"],
                 "exact": {"passed": r["passed"], "count": r["count"], **counts},
                 "approx": {},
                 "violations": []}
                for r in report["invariants"]]


class StudyUniformSup(Workload):
    """``run_convergence_study`` with the sup norm on uniform one-level meshes."""

    name = "study_uniform_sup"

    def make_inputs(self, seed: int, directory: Path) -> None:
        family = directory / "family"
        family.mkdir(parents=True, exist_ok=True)
        for s in range(UNIFORM_STEPS):
            levels = _uniform_level(2, UNIFORM_START * 2 ** s, 1)
            fixtures.write_fixture(_fixture(f"uniform_s{s}", levels, []),
                                   family / f"uniform_s{s}.json")

    def _run(self, paths: list[Path]):
        family = [fixtures.load_fixture(p) for p in paths]
        try:
            return study.run_convergence_study(family, "sin", math.inf)
        except errors.HierSplineError as exc:
            return exc

    def warm_up(self, directory: Path) -> None:
        self._run(sorted((directory / "family").glob("*.json"))[:2])

    def call(self, directory: Path):
        return self._run(sorted((directory / "family").glob("*.json")))

    def outputs(self, directory: Path, result) -> list[dict]:
        if isinstance(result, Exception):
            return _failed_call([f"step{s}" for s in range(UNIFORM_STEPS)],
                                f"{type(result).__name__}: {result}")
        return _study_ops(result.to_dict(), _no_order_check)


def _square_symmetry(variant: int, n: int, cell) -> tuple[int, int]:
    """One of the eight symmetries of the unit square, on a cell index of
    an n x n grid."""
    i, j = int(cell[0]), int(cell[1])
    if variant & 1:
        i = n - 1 - i
    if variant & 2:
        j = n - 1 - j
    if variant & 4:
        i, j = j, i
    return i, j


def _base_adaptive_steps() -> list[dict]:
    """Step k marks the cells of level k-1 whose centres lie within the
    step's disk; they form the new deepest subdomain. Every coarser
    subdomain then grows until it holds the support extension of each cell
    of the next finer one, which makes the hierarchy strictly admissible
    and its core domains nested."""
    rng = np.random.default_rng(ADAPTIVE_STREAM)
    centres = np.round(rng.uniform(0.15, 0.85, size=(len(ADAPTIVE_RADII), 2)), 4)
    p = ADAPTIVE_DEGREE
    subs: list[set] = []
    steps = []
    for k, (centre, radius) in enumerate(zip(centres, ADAPTIVE_RADII), start=1):
        n = ADAPTIVE_CELLS * 2 ** (k - 1)
        mid = (np.arange(n) + 0.5) / n
        inside = (mid[:, None] - centre[0]) ** 2 + (mid[None, :] - centre[1]) ** 2 <= radius ** 2
        deepest = {(int(i), int(j)) for i, j in zip(*np.nonzero(inside))}
        deepest.add((min(int(centre[0] * n), n - 1), min(int(centre[1] * n), n - 1)))
        grown = [set(s) for s in subs] + [deepest]
        # grown[m - 1] holds subdomain m as cells of level m - 1
        for m in range(k, 1, -1):
            cells = ADAPTIVE_CELLS * 2 ** (m - 1)
            need = set()
            for i, j in grown[m - 1]:
                for a in range(max(0, i - p), min(cells, i + p + 1)):
                    for b in range(max(0, j - p), min(cells, j + p + 1)):
                        need.add((a // 2, b // 2))
            grown[m - 2] |= need
        additions = {m: grown[m - 1] - subs[m - 1]
                     for m in range(1, k) if grown[m - 1] - subs[m - 1]}
        steps.append({"centre": [float(c) for c in centre], "radius": radius,
                      "additions": additions, "new_deepest": deepest})
        subs = grown
    return steps


def adaptive_steps(seed: int) -> list[dict]:
    """Centres, radii and the subdomain cells each adaptive step adds.

    The seed picks a symmetry of the unit square and applies it to one
    fixed sequence of steps. Every seed thus refines around other centres
    but builds a hierarchy of the same shape, so the work per call does not
    depend on the seed.
    """
    variant = seed % ADAPTIVE_VARIANTS

    def moved(m: int, cells) -> list[list[int]]:
        n = ADAPTIVE_CELLS * 2 ** (m - 1)
        return sorted(list(_square_symmetry(variant, n, c)) for c in cells)

    out = []
    for k, st in enumerate(_base_adaptive_steps(), start=1):
        x, y = st["centre"]
        x, y = (1 - x if variant & 1 else x), (1 - y if variant & 2 else y)
        if variant & 4:
            x, y = y, x
        out.append({"centre": [round(x, 4), round(y, 4)], "radius": st["radius"],
                    "additions": {str(m): moved(m, cells)
                                  for m, cells in sorted(st["additions"].items())},
                    "new_deepest": moved(k, st["new_deepest"])})
    return out


class AdaptiveEnlarge(Workload):
    """A library-level adaptive loop growing one hierarchy on shared levels."""

    name = "adaptive_enlarge"
    variants = ADAPTIVE_VARIANTS

    def make_inputs(self, seed: int, directory: Path) -> None:
        levels = _uniform_level(ADAPTIVE_DEGREE, ADAPTIVE_CELLS, 1)
        fixtures.write_fixture(_fixture("adaptive_base", levels, []),
                               directory / "base.json")
        _write_json(directory / "steps.json",
                    {"variant": self.variant(seed), "steps": adaptive_steps(seed)})

    def _run(self, directory: Path, steps: list[dict]) -> list[dict]:
        fixture = fixtures.load_fixture(directory / "base.json")
        levels = tensor.extend_level_sequence(fixture.levels, ADAPTIVE_DEPTH)
        h = fixture.hierarchy
        f = get_function("sin", 2, fixture.degrees)
        out = []
        for k, st in enumerate(steps, start=1):
            try:
                h = hierarchy.enlarge_hierarchy(
                    h, levels,
                    {int(m): [tuple(c) for c in cells]
                     for m, cells in st["additions"].items()},
                    [tuple(c) for c in st["new_deepest"]])
                weights = hierarchy.compute_weights(h, levels)
                refinable = hierarchy.build_refinable_basis(h, levels, weights)
                op = quasiinterp.MultiscaleQuasiInterpolant(h, levels, refinable)
                parts = op.apply_parts(f)
                spline = op.express_over_refinable(parts)
                mesh = hierarchy.active_mesh(h, levels)
                err = quasiinterp.error_norms(f, spline, 2, mesh=mesh)
            except errors.HierSplineError as exc:
                out.append({"id": f"step{k}", "error": f"{type(exc).__name__}: {exc}"})
                break
            out.append({
                "id": f"step{k}",
                "exact": {
                    "depth": h.depth,
                    "subdomain_cells": [len(s) for s in h.subdomains],
                    "weights_defined": len(weights.values),
                    "weights_positive": sum(weights.positive.values()),
                    "active_refinable": len(refinable),
                    "active_cells": mesh.cell_count(),
                    "coefficients": len(spline.coefficients),
                },
                "approx": {"error": err},
                "violations": [],
            })
        return out

    def warm_up(self, directory: Path) -> None:
        self._run(directory, _read_json(directory / "steps.json")["steps"][:2])

    def call(self, directory: Path):
        return self._run(directory, _read_json(directory / "steps.json")["steps"])

    def outputs(self, directory: Path, result) -> list[dict]:
        # steps after a failed one are missing, and the oracle counts them
        return result


WORKLOADS = {w.name: w for w in (StudyCorner(), CheckNested(),
                                 StudyUniformSup(), AdaptiveEnlarge())}
