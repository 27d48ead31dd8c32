"""Open knot vectors and univariate B-spline machinery.

Knots are stored as exact :class:`fractions.Fraction` values. Dyadic
refinement, subsequence tests, multiplicity counts and the knot-insertion
coefficients then stay exact, which removes every tolerance question from
the parent/child bookkeeping. Floats coming from input files convert
exactly (binary floats are rationals), so "equal as read" is literal.

Pointwise evaluation happens in float64 through :mod:`hiersplines.kernels`.
The convention is right-continuity in the interior of the domain and the
limit from the left at the right end, which makes partitions of unity hold
on the whole closed interval.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import KnotVectorError, RefinementMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_knot(value) -> Fraction:
    """Convert a number or string ("0.3", "1/3") to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise KnotVectorError(f"cannot interpret {value!r} as a knot")


@dataclass(frozen=True)
class Breakpoints:
    """Distinct knot values with their multiplicities."""

    values: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IntervalCell:
    """One nonempty breakpoint interval of a knot vector.

    ``flat_index`` is the position k in the full knot sequence with
    knots[k] = left and knots[k+1] = right. ``extension`` is the union of
    the supports of all basis functions that act on the interval.
    """

    index: int
    left: Fraction
    right: Fraction
    flat_index: int
    extension: tuple[Fraction, Fraction]

    @property
    def length(self) -> Fraction:
        return self.right - self.left


@dataclass(frozen=True)
class LocalKnotVector:
    """The p+2 consecutive knots that determine one B-spline.

    ``index`` is the position of the function in its owning basis when
    known; hand-built local vectors may leave it as None.
    """

    degree: int
    knots: tuple[Fraction, ...]
    index: int | None = None

    def __post_init__(self):
        if len(self.knots) != self.degree + 2:
            raise KnotVectorError(
                f"local knot vector needs degree+2 = {self.degree + 2} knots, "
                f"got {len(self.knots)}")
        if any(a > b for a, b in zip(self.knots, self.knots[1:])):
            raise KnotVectorError("local knot vector must be nondecreasing")
        if self.knots[0] == self.knots[-1]:
            raise KnotVectorError("local knot vector spans an empty interval")

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return (self.knots[0], self.knots[-1])

    def multiplicity(self, value: Fraction) -> int:
        return sum(1 for k in self.knots if k == value)

    def floats(self) -> np.ndarray:
        return np.array([float(k) for k in self.knots])

    def evaluate(self, xs, domain_right: float = 1.0) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        return kernels.local_values(self.floats(), self.degree, xs, domain_right)

    def value_at(self, x: float) -> float:
        return float(self.evaluate(np.array([x]))[0])


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A p-open knot vector on [0, 1].

    Both end knots are repeated degree+1 times, internal multiplicities
    are at most degree+1, and at least degree+1 basis functions exist.
    """

    degree: int
    knots: tuple[Fraction, ...]

    def __hash__(self) -> int:
        # rational knots hash and compare slowly, and knot vectors key the
        # two-scale table caches (see pair_cache), so both operations get
        # fast paths
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.degree, self.knots))
            self.__dict__["_hash"] = h
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and self.knots == other.knots

    def __post_init__(self):
        p = self.degree
        if p < 0:
            raise KnotVectorError("degree must be nonnegative")
        kn = self.knots
        if any(a > b for a, b in zip(kn, kn[1:])):
            raise KnotVectorError("knots must be nondecreasing")
        n = len(kn) - p - 1
        if n < p + 1:
            raise KnotVectorError(
                f"need at least {2 * p + 2} knots for degree {p}, got {len(kn)}")
        if kn[0] != ZERO or kn[p] != ZERO:
            raise KnotVectorError("first degree+1 knots must equal 0")
        if kn[-1] != ONE or kn[-(p + 1)] != ONE:
            raise KnotVectorError("last degree+1 knots must equal 1")
        bp = self.breakpoints
        for v, m in zip(bp.values[1:-1], bp.multiplicities[1:-1]):
            if m > p + 1:
                raise KnotVectorError(
                    f"internal knot {v} has multiplicity {m} > degree+1")

    # -- derived structure -------------------------------------------------

    @property
    def num_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def breakpoints(self) -> Breakpoints:
        bp = self.__dict__.get("_breakpoints")
        if bp is None:
            values: list[Fraction] = []
            mults: list[int] = []
            for k in self.knots:
                if values and values[-1] == k:
                    mults[-1] += 1
                else:
                    values.append(k)
                    mults.append(1)
            bp = Breakpoints(tuple(values), tuple(mults))
            self.__dict__["_breakpoints"] = bp
        return bp

    @property
    def intervals(self) -> tuple[IntervalCell, ...]:
        cached = self.__dict__.get("_intervals")
        if cached is None:
            cells = []
            bp = self.breakpoints
            flat = 0
            p = self.degree
            for j in range(len(bp) - 1):
                flat += bp.multiplicities[j]
                k = flat - 1
                ext = (self.knots[k - p], self.knots[k + p + 1])
                cells.append(IntervalCell(
                    index=j, left=bp.values[j], right=bp.values[j + 1],
                    flat_index=k, extension=ext))
            cached = tuple(cells)
            self.__dict__["_intervals"] = cached
        return cached

    def floats(self) -> np.ndarray:
        arr = self.__dict__.get("_floats")
        if arr is None:
            arr = np.array([float(k) for k in self.knots])
            object.__setattr__(self, "_floats", arr)
        return arr

    def breakpoint_floats(self) -> np.ndarray:
        arr = self.__dict__.get("_bp_floats")
        if arr is None:
            arr = np.array([float(v) for v in self.breakpoints.values])
            object.__setattr__(self, "_bp_floats", arr)
        return arr

    @property
    def num_intervals(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def max_interval_length(self) -> Fraction:
        return max(c.length for c in self.intervals)

    @property
    def quasi_uniformity(self) -> float:
        """Largest ratio of adjacent nonempty interval lengths (diagnostic)."""
        cells = self.intervals
        if len(cells) < 2:
            return 1.0
        ratios = []
        for a, b in zip(cells, cells[1:]):
            la, lb = float(a.length), float(b.length)
            ratios.append(max(la / lb, lb / la))
        return max(ratios)

    # -- functions ----------------------------------------------------------

    def local(self, j: int) -> LocalKnotVector:
        if not 0 <= j < self.num_basis:
            raise KnotVectorError(f"function index {j} out of range")
        return LocalKnotVector(self.degree, self.knots[j:j + self.degree + 2], index=j)

    def support(self, j: int) -> tuple[Fraction, Fraction]:
        return (self.knots[j], self.knots[j + self.degree + 1])

    def breakpoint_indices(self) -> tuple[int, ...]:
        """For each flat knot index, the index of its value among the
        breakpoints; interval i runs from breakpoint i to breakpoint i+1."""
        table = self.__dict__.get("_bp_indices")
        if table is None:
            table = tuple(i for i, m in enumerate(self.breakpoints.multiplicities)
                          for _ in range(m))
            self.__dict__["_bp_indices"] = table
        return table

    def function_interval_range(self, j: int) -> tuple[int, int]:
        """Inclusive range of interval indices covered by supp of function j."""
        bpi = self.breakpoint_indices()
        return bpi[j], bpi[j + self.degree + 1] - 1

    def functions_on_interval(self, interval_index: int) -> range:
        """Indices of the degree+1 functions that are nonzero on the interval."""
        k = self.intervals[interval_index].flat_index
        return range(k - self.degree, k + 1)

    def functions_supported_in(self, lo: Fraction, hi: Fraction) -> range:
        """Indices j with supp b_j contained in [lo, hi]."""
        first = bisect.bisect_left(self.knots, lo)
        # largest j with knots[j + p + 1] <= hi
        last = bisect.bisect_right(self.knots, hi) - 1 - (self.degree + 1)
        last = min(last, self.num_basis - 1)
        if first > last:
            return range(0)
        return range(first, last + 1)

    def multiplicity(self, value: Fraction) -> int:
        lo = bisect.bisect_left(self.knots, value)
        hi = bisect.bisect_right(self.knots, value)
        return hi - lo

    def contains_as_subsequence(self, other: "KnotVector") -> bool:
        """True when every knot of ``other`` appears here at least as often."""
        bp = other.breakpoints
        return all(self.multiplicity(v) >= m
                   for v, m in zip(bp.values, bp.multiplicities))


# ---------------------------------------------------------------------------
# constructors

def make_open_knot_vector(degree: int,
                          breakpoints: Sequence,
                          multiplicities: Sequence[int] | None = None) -> KnotVector:
    """Build a p-open knot vector from breakpoints and optional multiplicities.

    End multiplicities default to degree+1 and, when supplied explicitly,
    must equal degree+1.
    """
    values = [as_knot(v) for v in breakpoints]
    if len(values) < 2:
        raise KnotVectorError("need at least two breakpoints")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise KnotVectorError("breakpoints must be strictly increasing")
    if values[0] != ZERO or values[-1] != ONE:
        raise KnotVectorError("breakpoints must start at 0 and end at 1")
    if multiplicities is None:
        multiplicities = [degree + 1] + [1] * (len(values) - 2) + [degree + 1]
    multiplicities = list(multiplicities)
    if len(multiplicities) != len(values):
        raise KnotVectorError("one multiplicity per breakpoint required")
    if multiplicities[0] != degree + 1 or multiplicities[-1] != degree + 1:
        raise KnotVectorError("end multiplicities must equal degree+1")
    knots: list[Fraction] = []
    for v, m in zip(values, multiplicities):
        if m < 1:
            raise KnotVectorError("multiplicities must be positive")
        knots.extend([v] * m)
    return KnotVector(degree, tuple(knots))


def uniform_open_knot_vector(degree: int, intervals: int) -> KnotVector:
    if intervals < 1:
        raise KnotVectorError("need at least one interval")
    values = [Fraction(i, intervals) for i in range(intervals + 1)]
    return make_open_knot_vector(degree, values)


def dyadic_refine(kv: KnotVector) -> KnotVector:
    """Insert the midpoint of every nonempty interval once, keeping all knots."""
    bp = kv.breakpoints
    knots: list[Fraction] = []
    for j, (v, m) in enumerate(zip(bp.values, bp.multiplicities)):
        knots.extend([v] * m)
        if j < len(bp) - 1:
            knots.append((v + bp.values[j + 1]) / 2)
    return KnotVector(kv.degree, tuple(knots))


# ---------------------------------------------------------------------------
# two-scale machinery

def _boehm_insert(tau: list[Fraction], degree: int,
                  coeffs: list[Fraction], u: Fraction
                  ) -> tuple[list[Fraction], list[Fraction]]:
    """One knot-insertion step on a spline given over the knot list ``tau``.

    Coefficients outside the tracked window are zero; index arithmetic
    stays inside ``tau`` for every entry that can be nonzero.
    """
    p = degree
    k = bisect.bisect_right(tau, u) - 1
    m = len(coeffs)

    def old(i: int) -> Fraction:
        return coeffs[i] if 0 <= i < m else ZERO

    out: list[Fraction] = []
    for i in range(m + 1):
        if i <= k - p:
            out.append(old(i))
        elif i >= k + 1:
            out.append(old(i - 1))
        else:
            alpha = (u - tau[i]) / (tau[i + p] - tau[i])
            out.append(alpha * old(i) + (1 - alpha) * old(i - 1))
    new_tau = tau[:k + 1] + [u] + tau[k + 1:]
    return new_tau, out


def _refined_local_knots(parent: LocalKnotVector, fine: KnotVector) -> list[Fraction]:
    """Parent's local knots with all fine knots interior to its support inserted."""
    lo, hi = parent.support
    for v in set(parent.knots):
        if fine.multiplicity(v) < parent.multiplicity(v):
            raise RefinementMismatchError(
                f"knot {v} of the parent has multiplicity "
                f"{parent.multiplicity(v)} but only {fine.multiplicity(v)} "
                "in the fine knot vector")
    merged: list[Fraction] = [k for k in parent.knots if k == lo]
    merged.extend(k for k in fine.knots if lo < k < hi)
    merged.extend(k for k in parent.knots if k == hi)
    return merged


def _window_index_in(fine: KnotVector, window: tuple[Fraction, ...]) -> int:
    """Index j with fine.local(j).knots == window.

    The window is pinned by the position of the last copy of its leading
    value in the fine sequence.
    """
    a = window[0]
    t = 1
    while t < len(window) and window[t] == a:
        t += 1
    last_a = bisect.bisect_right(fine.knots, a) - 1
    j = last_a - t + 1
    if j < 0 or j >= fine.num_basis or fine.knots[j:j + len(window)] != window:
        raise RefinementMismatchError(
            f"window {tuple(map(str, window))} is not a run of consecutive "
            "knots in the fine knot vector")
    return j


def children_with_coefficients(parent: LocalKnotVector, fine: KnotVector
                               ) -> list[tuple[LocalKnotVector, Fraction]]:
    """Decompose a coarse B-spline over the fine basis by knot insertion.

    Returns every child (a window of the refined local knot vector, tagged
    with its index in ``fine``) together with its strictly positive
    coefficient. The weighted children reproduce the parent pointwise.
    """
    p = parent.degree
    if p != fine.degree:
        raise RefinementMismatchError(
            f"degree mismatch: parent {p}, fine {fine.degree}")
    merged = _refined_local_knots(parent, fine)

    tau = list(parent.knots)
    coeffs: list[Fraction] = [ONE]
    to_insert = _multiset_difference(merged, tau)
    for u in to_insert:
        tau, coeffs = _boehm_insert(tau, p, coeffs, u)

    out: list[tuple[LocalKnotVector, Fraction]] = []
    for i, c in enumerate(coeffs):
        if c <= 0:
            # windows that receive no mass are not children
            continue
        window = tuple(tau[i:i + p + 2])
        j = _window_index_in(fine, window)
        out.append((LocalKnotVector(p, window, index=j), c))
    return out


def _multiset_difference(superseq: Iterable[Fraction],
                         subseq: Iterable[Fraction]) -> list[Fraction]:
    remaining = list(subseq)
    out = []
    for v in superseq:
        if remaining and remaining[0] == v:
            remaining.pop(0)
        else:
            out.append(v)
    if remaining:
        raise RefinementMismatchError("refined knot list lost a parent knot")
    return sorted(out)


def is_child_of(child: LocalKnotVector, parent: LocalKnotVector) -> bool:
    """Parent/child test by endpoint containment and endpoint multiplicities.

    This is an independent route from the knot-insertion construction in
    :func:`children_with_coefficients`; the two must agree on every pair.
    """
    c_lo, c_hi = child.support
    p_lo, p_hi = parent.support
    if not (p_lo <= c_lo and c_hi <= p_hi):
        return False
    for endpoint in (p_lo, p_hi):
        mc = child.multiplicity(endpoint)
        if mc and mc > parent.multiplicity(endpoint):
            return False
    return True


def parents_of(child: LocalKnotVector, coarse: KnotVector) -> list[LocalKnotVector]:
    """All coarse basis functions of which ``child`` is a child."""
    out = []
    c_lo, c_hi = child.support
    for j in range(coarse.num_basis):
        lo, hi = coarse.support(j)
        if lo > c_lo or hi < c_hi:
            continue
        cand = coarse.local(j)
        if is_child_of(child, cand):
            out.append(cand)
    return out


def pair_cache(owner: KnotVector, name: str) -> dict:
    """A per-instance cache dict; keys are looked up identity-first, which
    avoids rehashing and comparing long rational tuples on every access.

    Its two users are :func:`children_table` and :func:`parent_table`,
    whose tables take exact knot insertion to build.
    """
    d = owner.__dict__.get(name)
    if d is None:
        d = {}
        owner.__dict__[name] = d
    return d


def children_table(coarse: KnotVector, fine: KnotVector
                   ) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Per coarse function: its children as (fine index, coefficient) pairs."""
    cache = pair_cache(coarse, "_children_tables")
    hit = cache.get(fine)
    if hit is not None:
        return hit
    if not fine.contains_as_subsequence(coarse):
        raise RefinementMismatchError(
            "fine knot vector does not refine the coarse one")
    rows = []
    for j in range(coarse.num_basis):
        kids = children_with_coefficients(coarse.local(j), fine)
        rows.append(tuple((lkv.index, c) for lkv, c in kids))
    table = tuple(rows)
    cache[fine] = table
    return table


def parent_table(coarse: KnotVector, fine: KnotVector) -> tuple[tuple[int, ...], ...]:
    """Per fine function: indices of its coarse parents (endpoint test route)."""
    cache = pair_cache(fine, "_parent_tables")
    hit = cache.get(coarse)
    if hit is not None:
        return hit
    rows = []
    for j in range(fine.num_basis):
        rows.append(tuple(p.index for p in parents_of(fine.local(j), coarse)))
    table = tuple(rows)
    cache[coarse] = table
    return table
