#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study_corner --seed 1 --seconds 26 --trace 0

Run from the repository root: the package is imported from ``src/``.
The workload's inputs are written under ``.perfbench_work/`` and removed
at the end. With ``--trace 0`` the timed calls run untraced and the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the same untraced calls are followed by one traced
call, whose spans go to ``.perfbench_out/trace_<workload>.npz`` and whose
per-layer metrics replace the end-to-end ones in the last line.

The BLAS libraries run one thread each, the C allocator's mmap threshold
is fixed, and the package's own ``HIERSPLINES_THREADS`` and
``HIERSPLINES_BACKEND`` are unset, so that runs compare on equal footing.
The host's speed is sampled throughout (``hostspeed.py``), and every
time metric is scaled to the reference speed; the raw times are in the
``info`` line.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
OUT = Path(".perfbench_out")
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import hiersplines"

BLAS_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
PACKAGE_SETTINGS = ("HIERSPLINES_THREADS", "HIERSPLINES_BACKEND")
# glibc's initial mmap threshold, kept fixed. By default glibc raises the
# threshold to the size of each large block freed, so whether check_nested's
# 134 KB collocation columns come from mmap or from the heap depends on the
# allocation history: with the heap, the freed columns stay resident during
# the rank SVD, and the peak memory lands on 557, 719 or 797 MB depending on
# hash seed and address layout. With the threshold fixed it is 553 MB, at
# the price of more page faults (see README.md).
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "passed_frac": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> int | None:
    """Fix the settings above and unset the package's own, before numpy
    loads. Returns the mmap threshold in effect, or None where mallopt is
    not available."""
    for var in PACKAGE_SETTINGS:
        os.environ.pop(var, None)
    os.environ.update(BLAS_SETTINGS)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def import_package():
    """Import hiersplines from this checkout's src/, or explain why not."""
    if not (SRC / "hiersplines" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/hiersplines")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import hiersplines
    if Path(hiersplines.__file__).resolve().parent != SRC / "hiersplines":
        raise SystemExit(f"error: imported hiersplines from {hiersplines.__file__}, "
                         f"not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, work: Path, sampler) -> tuple[list[float], float, Path]:
    """Set up SETUP_REPEATS times: import the package in a fresh
    interpreter, write the inputs and warm up. Returns the wall times, the
    host-speed scale over all of them, and the directory of the last
    set-up. One set-up holds too few samples for a steady scale."""
    times = []
    directory = work
    start = sampler.mark()
    for k in range(SETUP_REPEATS):
        directory = work / f"setup{k}"
        directory.mkdir(parents=True)
        mark = sampler.mark()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
        workload.make_inputs(seed, directory)
        workload.warm_up(directory)
        times.append(sampler.measure(mark).wall_s)
    return times, sampler.measure(start).scale, directory


@dataclass
class Tally:
    """Operations attempted and failed over all calls of a run."""

    attempted: int = 0
    failed: int = 0
    identical: bool = True
    reasons: list[str] = field(default_factory=list)

    def add(self, scored: tuple[int, int, bool, list[str]]) -> None:
        attempted, failed, identical, reasons = scored
        self.attempted += attempted
        self.failed += failed
        self.identical = self.identical and identical
        self.reasons.extend(reasons)


def _timed_calls(workload, directory: Path, reference, seconds: float, tally: Tally,
                 sampler):
    """Untraced calls until the next one would end after ``seconds``.
    At least one call is made. Returns each call's ``hostspeed.Interval``."""
    from perfbench import oracle
    calls = []
    start = time.perf_counter()
    while not calls or (time.perf_counter() - start) \
            + statistics.median(c.wall_s for c in calls) <= seconds:
        gc.collect()
        mark = sampler.mark()
        result = workload.call(directory)
        calls.append(sampler.measure(mark))
        tally.add(oracle.score(workload.outputs(directory, result), reference))
    return calls


def _traced_call(workload, directory: Path, reference, tally: Tally, meta: dict, sampler):
    """One call under the tracer; its wall time scaled to the reference
    host speed, and its per-layer metrics."""
    from perfbench import oracle, tracer
    tr = tracer.Tracer()
    gc.collect()
    with tr:
        tr.begin_repeat()
        mark = sampler.mark()
        result = workload.call(directory)
        wall = sampler.measure(mark).scaled_wall_s
    tally.add(oracle.score(workload.outputs(directory, result), reference))
    tr.write(OUT / f"trace_{workload.name}.npz", meta)
    return wall, tr.metrics()


def run(args, mmap_threshold: int | None) -> int:
    """Set up, measure and report one workload; the package is imported."""
    from perfbench import envinfo, hostspeed, oracle, tracer, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    variant = workload.variant(args.seed)
    reference = oracle.load_reference(args.workload, variant)
    env = envinfo.environment(mmap_threshold)
    print(json.dumps({"environment": env}, sort_keys=True))

    tally = Tally()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with hostspeed.Sampler() as sampler:
            setup_times, setup_scale, directory = _setup(workload, args.seed, work, sampler)
            calls = _timed_calls(workload, directory, reference, args.seconds, tally,
                                 sampler)
            wall_s = statistics.median(c.scaled_wall_s for c in calls)
            metrics: dict[str, float] = {
                "wall_s": wall_s,
                "cpu_s": statistics.median(c.scaled_cpu_s for c in calls),
                "setup_s": statistics.median(setup_times) * setup_scale,
                "peak_rss_mb": _peak_rss_mb(),
            }
            units = END_TO_END
            if args.trace:
                meta = {"workload": args.workload, "seed": args.seed,
                        "environment": env,
                        "untraced_wall_s": [c.wall_s for c in calls],
                        "host_speed_scales": [c.scale for c in calls]}
                wall, metrics = _traced_call(workload, directory, reference, tally,
                                             meta, sampler)
                metrics[tracer.OVERHEAD] = wall / wall_s
                units = tracer.metric_units()
            else:
                metrics["passed_frac"] = (tally.attempted - tally.failed) / tally.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for why in tally.reasons[:20]:
        print(f"mismatch: {why}")
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "samples": len(calls),
        "wall_s_samples": [c.wall_s for c in calls],
        "cpu_s_samples": [c.cpu_s for c in calls],
        "host_speed_scales": [c.scale for c in calls],
        "setup_s_samples": setup_times, "setup_host_speed_scale": setup_scale,
        "bit_identical": tally.identical,
        "failed_frac": tally.failed / tally.attempted}}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    mmap_threshold = pin_environment()
    import_package()
    return run(args, mmap_threshold)


if __name__ == "__main__":
    sys.exit(main())
