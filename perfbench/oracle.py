"""Reference outputs and the comparison behind ``failed`` and ``passed_frac``.

Structural outputs (counts, names, pass/fail flags) must equal the
reference exactly. Errors and orders are floating-point results whose
last digits may legitimately change with the order of the arithmetic, so
they are compared within ``RTOL``. Whether every value is bit-identical
to the reference is reported as information only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def load_reference(workload: str, variant: int | None = None) -> list[dict]:
    """The reference operations of a workload (of one input variant)."""
    ref = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    if variant is not None:
        return ref["variants"][str(variant)]
    return ref["ops"]


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    if math.isnan(got) or math.isnan(want):
        return False
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


def compare(op: dict, ref: dict | None) -> list[str]:
    """Reasons why one operation's outputs do not match its reference."""
    if "error" in op:
        return [op["error"]]
    if ref is None:
        return ["no reference for this operation"]
    reasons = list(op.get("violations", ()))
    for key in sorted(set(op["exact"]) | set(ref["exact"])):
        got, want = op["exact"].get(key), ref["exact"].get(key)
        if got != want:
            reasons.append(f"{key}: got {got!r}, expected {want!r}")
    for key in sorted(set(op["approx"]) | set(ref["approx"])):
        got, want = op["approx"].get(key), ref["approx"].get(key)
        if not _close(got, want):
            reasons.append(f"{key}: got {got!r}, expected {want!r} (rtol {RTOL})")
    return reasons


def score(ops: list[dict], reference: list[dict]) -> tuple[int, int, bool, list[str]]:
    """Attempted and failed operations, whether every output is
    bit-identical to the reference, and the failure reasons.

    Operations the reference has but the outputs lack count as failed."""
    by_id = {r["id"]: r for r in reference}
    seen = {op["id"] for op in ops}
    failed = 0
    identical = True
    reasons = []
    for op in ops:
        ref = by_id.get(op["id"])
        why = compare(op, ref)
        if why:
            failed += 1
            reasons.extend(f"{op['id']}: {w}" for w in why)
        if why or op["approx"] != ref["approx"]:
            identical = False
    missing = [r["id"] for r in reference if r["id"] not in seen]
    for rid in missing:
        reasons.append(f"{rid}: missing from the outputs")
    return len(ops) + len(missing), failed + len(missing), \
        identical and not missing, reasons
