"""CLI outputs against recorded golden files, byte for byte.

Per repository fixture, ``tests/golden`` holds the ``check --report``
JSON with the wall times removed and the ``dump-mesh`` JSON. It also holds
the study CSV and JSON reports of a small two-step corner family, for the
function and norm pairs of ``CORNER_STUDIES``. After a
change that is meant to alter outputs, rewrite them with
``PYTHONPATH=src python -m tests.test_golden``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from hiersplines import cli
from hiersplines.fixtures import Fixture, write_fixture
from hiersplines.hierarchy import SubdomainHierarchy
from hiersplines.tensor import iter_box

from .conftest import FIXTURE_DIR, make_levels

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


def check_report(name: str, tmp: Path) -> str:
    out = tmp / f"{name}.check.json"
    cli.main(["check", str(FIXTURE_DIR / f"{name}.json"), "--report", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    for entry in report["invariants"]:
        del entry["seconds"]
    return json.dumps(report, indent=2) + "\n"


def mesh_dump(name: str, tmp: Path) -> str:
    out = tmp / f"{name}.mesh.json"
    cli.main(["dump-mesh", str(FIXTURE_DIR / f"{name}.json"), "--out", str(out)])
    return out.read_text(encoding="utf-8")


# (function, q, golden file stem) of each recorded corner study
CORNER_STUDIES = (("sin", "2", "corner_study"),
                  ("gauss", "1", "corner_study_gauss_q1"),
                  ("gauss", "inf", "corner_study_gauss_qinf"))


def corner_study(tmp: Path) -> dict[str, str]:
    """The study CSV and JSON reports, per entry of ``CORNER_STUDIES``, of a
    quadratic corner family, 4 and 8 cells per direction, three levels
    refined towards one corner."""
    family = tmp / "family"
    family.mkdir()
    for s, n in enumerate((4, 8)):
        levels = make_levels(2, 2, n, 3)
        box = list(iter_box([range(n // 2)] * 2))
        h = SubdomainHierarchy.from_cells([box, box])
        write_fixture(Fixture(f"corner_s{s}", 2, (2, 2), levels, h, "dyadic"),
                      family / f"corner_s{s}.json")
    outputs = {}
    for f_name, q, stem in CORNER_STUDIES:
        csv, report = tmp / f"{stem}.csv", tmp / f"{stem}.json"
        cli.main(["study", str(family), "--f", f_name, "--q", q,
                  "--csv", str(csv), "--report", str(report)])
        outputs[csv.name] = csv.read_text(encoding="utf-8")
        outputs[report.name] = report.read_text(encoding="utf-8")
    return outputs


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_check_report_matches_golden(name, tmp_path):
    assert check_report(name, tmp_path) == _golden(f"{name}.check.json")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_mesh_dump_matches_golden(name, tmp_path):
    assert mesh_dump(name, tmp_path) == _golden(f"{name}.mesh.json")


def test_corner_study_matches_golden(tmp_path):
    for name, text in corner_study(tmp_path).items():
        assert text == _golden(name), name


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = corner_study(tmp)
        for name in FIXTURE_NAMES:
            outputs[f"{name}.check.json"] = check_report(name, tmp)
            outputs[f"{name}.mesh.json"] = mesh_dump(name, tmp)
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
