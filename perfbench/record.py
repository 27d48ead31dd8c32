#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root, only on a commit whose outputs are known to
be right: every later run is judged against what this writes into
``perfbench/reference/``. ``adaptive_enlarge`` is recorded for every
input variant its seeds select.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def _record_one(workload, seed: int) -> list[dict]:
    directory = Path(tempfile.mkdtemp(prefix=f"record-{workload.name}-", dir=run.WORK))
    try:
        workload.make_inputs(seed, directory)
        ops = workload.outputs(directory, workload.call(directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    bad = [op for op in ops if "error" in op or op["violations"]]
    if bad:
        raise SystemExit(f"error: {workload.name} (seed {seed}) did not run cleanly: {bad[:3]}")
    return ops


def main(argv=None) -> int:
    run.pin_environment()
    run.import_package()
    from perfbench import oracle, workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        if workload.variants:
            ref = {"variants": {str(v): _record_one(workload, v)
                                for v in range(workload.variants)}}
        else:
            ref = {"ops": _record_one(workload, 0)}
        path = oracle.reference_path(name)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}", flush=True)
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
