"""Tests of the benchmark itself: tracer, oracle, inputs and entry point.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hiersplines  # noqa: E402
from hiersplines import hierarchy, quasiinterp, study, tensor  # noqa: E402

from perfbench import hostspeed, oracle, run, tracer, workloads  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded hiersplines module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hiersplines" or name.startswith("hiersplines.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(f"{name}.{key}", attr)] = member
    return out


def _small_study():
    kv = hiersplines.uniform_open_knot_vector(2, 4)
    family = []
    for s in range(2):
        levels = tensor.build_level_sequence([kv, kv], 3)
        box = [tuple(c) for c in tensor.iter_box([range(2 * 2 ** s)] * 2)]
        family.append(hiersplines.Fixture(
            name=f"corner_s{s}", dimension=2, degrees=(2, 2), levels=levels,
            hierarchy=hierarchy.SubdomainHierarchy.from_cells([box, box]),
            refinement="dyadic"))
        kv = hiersplines.dyadic_refine(kv)
    return study.run_convergence_study(family, "sin", 2)


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    originals = [tracer._resolve(spec)[2] for t in tracer.TARGETS for spec in t.functions]
    tr = tracer.Tracer()
    with tr:
        during = _bindings()
        leaked = [k for k, v in during.items() if any(v is f for f in originals)]
        assert leaked == []
        # one function reachable from several modules is wrapped in each
        assert hiersplines.study.compute_weights is not before[("hiersplines.hierarchy",
                                                                "compute_weights")]
        assert hiersplines.invariants.compute_weights.__wrapped__ is \
            before[("hiersplines.hierarchy", "compute_weights")]
        with pytest.raises(RuntimeError):
            tr.install()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_times_plus_child_times_make_the_span_time():
    tr = tracer.Tracer()
    with tr:
        tr.begin_repeat()
        _small_study()
    a = tr.arrays()
    assert a["name"].size > 100
    duration = a["end"] - a["start"]
    child = np.zeros_like(duration)
    for i, parent in enumerate(a["parent"]):
        if parent >= 0:
            assert a["start"][parent] <= a["start"][i] <= a["end"][i] <= a["end"][parent]
            child[parent] += duration[i]
    self_s = tr.self_times()
    np.testing.assert_allclose(self_s + child, duration, rtol=0, atol=1e-9)
    assert self_s.min() > -1e-9
    # the self times of all spans add up to the time under the root spans
    roots = a["parent"] < 0
    assert math.isclose(self_s.sum(), duration[roots].sum(), rel_tol=1e-9)
    m = tr.metrics()
    assert m["study.run_convergence_study.calls"] == 1
    assert m["hierarchy.compute_weights.calls"] == 2
    assert m["quasiinterp.lq_norm.calls"] > 0
    assert m["kernels.tensor_spline_values.points"] > 0
    assert m["quasiinterp.workspace_build.per_cell"] == 1.0
    assert set(m) | {tracer.OVERHEAD} == set(tracer.metric_units())


def test_cached_tables_count_their_misses():
    coarse = hiersplines.uniform_open_knot_vector(2, 4)
    fine = hiersplines.dyadic_refine(coarse)
    tr = tracer.Tracer()
    with tr:
        for _ in range(3):
            hiersplines.univariate.children_table(coarse, fine)
            hiersplines.univariate.parent_table(coarse, fine)
    m = tr.metrics()
    for name in ("univariate.children_table", "univariate.parent_table"):
        assert (m[f"{name}.calls"], m[f"{name}.misses"]) == (3, 1)


def test_tracing_leaves_results_unchanged():
    plain = _small_study().to_dict()
    with tracer.Tracer():
        traced = _small_study().to_dict()
    assert traced == plain


@pytest.mark.parametrize("name", ["study_corner", "check_nested", "study_uniform_sup"])
def test_a_corrupted_reference_counts_as_failed(name):
    reference = oracle.load_reference(name)
    outputs = json.loads(json.dumps(reference))
    assert oracle.score(outputs, reference)[:3] == (len(reference), 0, True)

    corrupted = json.loads(json.dumps(reference))
    corrupted[1]["exact"]["active_refinable"] += 1
    attempted, failed, identical, reasons = oracle.score(outputs, corrupted)
    assert (attempted, failed, identical) == (len(reference), 1, False)
    assert "active_refinable" in reasons[0]


def _check_report(reference: list[dict]) -> dict:
    """The check report that the reference operations were recorded from."""
    counts = {k: v for k, v in reference[0]["exact"].items() if k not in ("passed", "count")}
    return {"counts": counts, "passed": True,
            "invariants": [{"name": r["id"], "passed": r["exact"]["passed"],
                            "count": r["exact"]["count"]} for r in reference]}


def test_one_failing_invariant_fails_one_operation(tmp_path):
    reference = oracle.load_reference("check_nested")
    check = workloads.WORKLOADS["check_nested"]
    report = _check_report(reference)
    (tmp_path / "check.json").write_text(json.dumps(report), encoding="utf-8")
    assert oracle.score(check.outputs(tmp_path, 0), reference)[:2] == (len(reference), 0)

    report["passed"] = False
    report["invariants"][3]["passed"] = False
    (tmp_path / "check.json").write_text(json.dumps(report), encoding="utf-8")
    # the CLI exits 1 but writes the report; only that invariant fails
    attempted, failed, _, reasons = oracle.score(check.outputs(tmp_path, 1), reference)
    assert (attempted, failed) == (len(reference), 1)
    assert reasons[0].startswith(f"{reference[3]['id']}: passed")

    (tmp_path / "check.json").unlink()
    attempted, failed, _, _ = oracle.score(check.outputs(tmp_path, 1), reference)
    assert failed == attempted == len(reference) + 1


def test_errors_compare_within_tolerance_and_failures_count():
    reference = oracle.load_reference("study_corner")
    outputs = json.loads(json.dumps(reference))
    key = "level0.error"
    outputs[0]["approx"][key] *= 1 + oracle.RTOL / 10
    attempted, failed, identical, _ = oracle.score(outputs, reference)
    assert (failed, identical) == (0, False)
    outputs[0]["approx"][key] *= 1 + 10 * oracle.RTOL
    outputs[1] = {"id": outputs[1]["id"], "error": "exit code 2"}
    del outputs[2]
    attempted, failed, _, _ = oracle.score(outputs, reference)
    assert (attempted, failed) == (len(reference), 3)


def test_adaptive_reference_covers_every_variant():
    for v in range(workloads.ADAPTIVE_VARIANTS):
        ops = oracle.load_reference("adaptive_enlarge", v)
        assert [op["id"] for op in ops] == [f"step{k}" for k in range(1, 7)]
    # symmetric inputs build hierarchies of one shape
    shapes = {json.dumps([op["exact"] for op in oracle.load_reference("adaptive_enlarge", v)])
              for v in range(workloads.ADAPTIVE_VARIANTS)}
    assert len(shapes) == 1


def _input_bytes(name: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    workloads.WORKLOADS[name].make_inputs(seed, directory)
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_only_the_adaptive_inputs(name, tmp_path):
    one = _input_bytes(name, 1, tmp_path / "one")
    two = _input_bytes(name, 2, tmp_path / "two")
    again = _input_bytes(name, 1, tmp_path / "again")
    assert one == again
    if name == "adaptive_enlarge":
        assert one != two
    else:
        assert one == two


def test_adaptive_steps_are_strictly_admissible():
    steps = workloads.adaptive_steps(5)
    kv = hiersplines.uniform_open_knot_vector(workloads.ADAPTIVE_DEGREE,
                                              workloads.ADAPTIVE_CELLS)
    levels = tensor.build_level_sequence([kv, kv], workloads.ADAPTIVE_DEPTH)
    h = hierarchy.SubdomainHierarchy.from_cells([])
    for st in steps[:4]:
        h = hierarchy.enlarge_hierarchy(
            h, levels, {int(m): [tuple(c) for c in cells]
                        for m, cells in st["additions"].items()},
            [tuple(c) for c in st["new_deepest"]])
        assert quasiinterp.check_admissibility(h, levels).strictly_admissible


def test_sampler_takes_its_own_time_out_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        mark = sampler.mark()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
        elapsed = time.perf_counter() - mark[0]
        interval = sampler.measure(mark)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert {kind for kind, _, _ in sampler.samples} == set(hostspeed.REFERENCE_S)
    sampling = sum(wall for _, wall, _ in sampler.samples)
    assert 0 < sampling < 0.1 * interval.wall_s
    assert interval.wall_s + sampling == pytest.approx(elapsed, abs=0.01)
    assert 0 < interval.cpu_s <= interval.wall_s + 0.01
    assert 0.1 < interval.scale < 10


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_corner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
