"""Open knot vectors and univariate B-spline machinery.

A knot vector stores its knots in one exact form: integer numerators over
one denominator, the lcm of the reduced knots' denominators. Equal knot
vectors therefore store equal integers, and dyadic refinement, subsequence
tests, multiplicity counts, parent tests and the two-scale coefficients
run on Python ints, which removes every tolerance question from the
parent/child bookkeeping. Knots read from input files convert exactly
(binary floats are rationals), so "equal as read" is literal. The
``Fraction`` values of the breakpoints and intervals are made on first
use for the mesh dumps, and those of the knots (``KnotVector.knots``,
``KnotVector.local``) for exact references outside the package.

Pointwise evaluation happens in float64 through :mod:`hiersplines.kernels`.
The convention is right-continuity in the interior of the domain and the
limit from the left at the right end, which makes partitions of unity hold
on the whole closed interval.

A :class:`KnotVector` owns every table derived from its knots, each a
``functools.cached_property``: its floats, the int64 index tables
``support_intervals``, ``first_functions`` and ``extension_intervals``,
and the two-scale and parent tables of the pairs it belongs to. Every
exact knot computation of the package happens here; other modules ask
for its results (:func:`common_knots`, :func:`interval_parents`,
``KnotVector.interval_lengths``).

The two-scale relation is computed in one form, :class:`TwoScaleTable`:
integer numerators over one denominator per coarse/fine pair. Its
coefficients do not change under increasing affine maps of the knots, so
the exact recurrence runs once per degree and reduced integer knot
pattern in the process (:func:`_oslo_run`), whichever pair or level
sequence the pattern comes from; :func:`children_table` reads the table
as Fractions.

Every exact integer array of the package takes its format from one rule
here: :func:`exact_dtype` gives int64 for a stated bound on the
magnitudes below 2**63 and Python ints beyond, and :func:`nearest_floats`
turns numerators over q into the floats nearest n/q.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import KnotVectorError, RefinementMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_knot(value) -> Fraction:
    """Convert a number or string ("0.3", "1/3") to an exact Fraction.

    Booleans are refused although they are ints, and so are NaN, the
    infinities and strings that name no rational.
    """
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise KnotVectorError(f"cannot interpret {value!r} as a knot")


def exact_dtype(bound: int):
    """The dtype of exact integers of magnitude at most ``bound``: int64
    below 2**63, Python ints (object) from there on."""
    return np.int64 if bound < 2 ** 63 else object


def nearest_floats(numerators: np.ndarray, q: int) -> np.ndarray:
    """The floats nearest n/q for numerators n of magnitude at most q.

    int64 true division rounds once, correctly, while q < 2**53 (both
    operands are then exact floats); Python's int division always does.
    """
    if numerators.dtype == np.int64 and q < 2 ** 53:
        return numerators / q
    return np.array([n / q for n in numerators.tolist()], dtype=np.float64)


def _over(numerators: Sequence[int], d: int, e: int) -> np.ndarray:
    """Numerators over ``d`` as an array of numerators over ``e``, a
    multiple of ``d``, in the :func:`exact_dtype` of ``e``."""
    return np.array(numerators, dtype=exact_dtype(e)) * (e // d)


@dataclass(frozen=True)
class Breakpoints:
    """Distinct knot values with their multiplicities: the values as
    integer numerators over the knot vector's denominator, and as
    Fractions in ``values``, a view made on first use."""

    numerators: tuple[int, ...]
    multiplicities: tuple[int, ...]
    denominator: int

    def __len__(self) -> int:
        return len(self.numerators)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


@dataclass(frozen=True)
class IntervalCell:
    """One nonempty breakpoint interval of a knot vector.

    ``extension`` is the union of the supports of all basis functions that
    act on the interval.
    """

    index: int
    left: Fraction
    right: Fraction
    extension: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LocalKnotVector:
    """The p+2 consecutive knots that determine one B-spline.

    The knots are exact values: Fractions from :meth:`KnotVector.local`,
    or, where they are only ordered and counted (:func:`is_child_of`),
    integer numerators over one denominator. ``index`` is the position of
    the function in its owning basis when known; hand-built local vectors
    may leave it as None.
    """

    degree: int
    knots: tuple
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


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A p-open knot vector on [0, 1], knot i being
    ``knot_numerators[i] / knot_denominator``.

    Both end knots are repeated degree+1 times, internal multiplicities
    are at most degree+1, and at least degree+1 basis functions exist.
    The denominator is the lcm of the reduced knots' denominators, so the
    numerators share no factor with it, and equal knot vectors store
    equal integers.
    """

    degree: int
    knot_numerators: tuple[int, ...]
    knot_denominator: int

    def __hash__(self) -> int:
        # knot vectors key the table caches; the hash of a long tuple is
        # kept, and equality tries identity first
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.degree, self.knot_numerators, self.knot_denominator))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, KnotVector):
            return NotImplemented
        return (self.degree, self.knot_denominator, self.knot_numerators) \
            == (other.degree, other.knot_denominator, other.knot_numerators)

    def __post_init__(self):
        p, kn, d = self.degree, self.knot_numerators, self.knot_denominator
        if p < 0:
            raise KnotVectorError("degree must be nonnegative")
        if any(a > b for a, b in zip(kn, kn[1:])):
            raise KnotVectorError("knots must be nondecreasing")
        if len(kn) < 2 * p + 2:
            raise KnotVectorError(
                f"need at least {2 * p + 2} knots for degree {p}, got {len(kn)}")
        if kn[0] != 0 or kn[p] != 0:
            raise KnotVectorError("first degree+1 knots must equal 0")
        if kn[-1] != d or kn[-(p + 1)] != d:
            raise KnotVectorError("last degree+1 knots must equal 1")
        if math.gcd(*kn) != 1:
            raise KnotVectorError("the numerators and the denominator share a factor")
        bp = self.breakpoints
        for v, m in zip(bp.numerators[1:-1], bp.multiplicities[1:-1]):
            if m > p + 1:
                raise KnotVectorError(
                    f"internal knot {Fraction(v, d)} has multiplicity {m} > degree+1")

    # -- derived structure -------------------------------------------------

    @property
    def num_basis(self) -> int:
        return len(self.knot_numerators) - self.degree - 1

    @cached_property
    def breakpoints(self) -> Breakpoints:
        runs = [(k, len(list(g))) for k, g in itertools.groupby(self.knot_numerators)]
        return Breakpoints(*map(tuple, zip(*runs)), self.knot_denominator)

    # kept for exact references outside the package, such as a test's oracle
    @cached_property
    def knots(self) -> tuple[Fraction, ...]:
        """The knots as Fractions."""
        return tuple(Fraction(n, self.knot_denominator) for n in self.knot_numerators)

    @cached_property
    def intervals(self) -> tuple[IntervalCell, ...]:
        bp, (first, last) = self.breakpoints.values, self.extension_intervals
        return tuple(IntervalCell(index=j, left=bp[j], right=bp[j + 1],
                                  extension=(bp[a], bp[b + 1]))
                     for j, (a, b) in enumerate(zip(first.tolist(), last.tolist())))

    @cached_property
    def floats(self) -> np.ndarray:
        d = self.knot_denominator
        return nearest_floats(_over(self.knot_numerators, d, d), d)

    @cached_property
    def breakpoint_floats(self) -> np.ndarray:
        d = self.knot_denominator
        return nearest_floats(_over(self.breakpoints.numerators, d, d), d)

    @cached_property
    def support_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per function, the first and last interval of its support."""
        mults = self.breakpoints.multiplicities
        # per knot, its breakpoint; interval i runs from breakpoint i to i+1
        bpi = np.repeat(np.arange(len(mults), dtype=np.int64), mults)
        return bpi[:self.num_basis], bpi[self.degree + 1:] - 1

    @cached_property
    def first_functions(self) -> np.ndarray:
        """Per interval, the first of the degree+1 functions acting on it."""
        ends = np.cumsum(self.breakpoints.multiplicities[:-1], dtype=np.int64)
        return ends - 1 - self.degree

    @cached_property
    def extension_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per interval, the first and last interval of its support extension."""
        first, last = self.support_intervals
        k = self.first_functions
        return first[k], last[k + self.degree]

    @property
    def num_intervals(self) -> int:
        return len(self.breakpoints) - 1

    @cached_property
    def interval_lengths(self) -> tuple[np.ndarray, int]:
        """The intervals' lengths as integer numerators (Python ints) over
        the knot denominator, and that denominator."""
        bp = np.array(self.breakpoints.numerators, dtype=object)
        return bp[1:] - bp[:-1], self.knot_denominator

    @cached_property
    def max_interval_length(self) -> Fraction:
        lengths, d = self.interval_lengths
        return Fraction(max(lengths.tolist()), d)

    @property
    def quasi_uniformity(self) -> float:
        """Largest ratio of adjacent nonempty interval lengths (diagnostic)."""
        lengths, d = self.interval_lengths
        lengths = [n / d for n in lengths.tolist()]
        return max((max(la / lb, lb / la) for la, lb in zip(lengths, lengths[1:])), default=1.0)

    # -- functions ----------------------------------------------------------

    # kept for exact references outside the package, such as a test's oracle
    def local(self, j: int) -> LocalKnotVector:
        if not 0 <= j < self.num_basis:
            raise KnotVectorError(f"function index {j} out of range")
        return LocalKnotVector(self.degree, self.knots[j:j + self.degree + 2], index=j)

    def functions_on_interval(self, interval_index: int) -> range:
        """Indices of the degree+1 functions that are nonzero on the interval."""
        k = self.first_functions.item(interval_index)
        return range(k, k + self.degree + 1)

    # the tables of two_scale_table and its view children_table (this knot
    # vector coarse) and of parent_table (this one fine), keyed by the other one;
    # dict lookups try identity first, then the kept hashes and the integers

    @cached_property
    def _children_tables(self) -> dict:
        return {}

    @cached_property
    def _two_scale_tables(self) -> dict:
        return {}

    @cached_property
    def _parent_tables(self) -> dict:
        return {}

    def contains_as_subsequence(self, other: "KnotVector") -> bool:
        """True when every knot of ``other`` appears here at least as often.

        Then every reduced denominator of ``other`` divides this
        denominator, and so does their lcm, ``other``'s denominator.
        """
        d, e, bp, here = self.knot_denominator, other.knot_denominator, \
            other.breakpoints, self.knot_numerators
        return d % e == 0 and all(
            bisect.bisect_right(here, v) - bisect.bisect_left(here, v) >= m
            for v, m in zip(_over(bp.numerators, e, d).tolist(), bp.multiplicities))


def common_knots(*kvs: KnotVector) -> list[np.ndarray]:
    """The knots of the knot vectors as integer numerators over one
    denominator, the lcm of theirs, in its :func:`exact_dtype`."""
    d = math.lcm(*(kv.knot_denominator for kv in kvs))
    return [_over(kv.knot_numerators, kv.knot_denominator, d) for kv in kvs]


def interval_parents(coarse: KnotVector, fine: KnotVector) -> np.ndarray:
    """Per interval of ``fine``, a knot vector nesting ``coarse``, the
    coarse interval it lies in: the one its left end falls in, found by
    one searchsorted over the common denominator."""
    d = math.lcm(coarse.knot_denominator, fine.knot_denominator)
    rights = _over(coarse.breakpoints.numerators, coarse.knot_denominator, d)[1:]
    lefts = _over(fine.breakpoints.numerators, fine.knot_denominator, d)[:-1]
    return np.searchsorted(rights, lefts, side="right")


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
    # the lcm of the reduced breakpoints' denominators is that of the knots
    d = math.lcm(*(v.denominator for v in values))
    values = [v.numerator * (d // v.denominator) for v in values]
    if len(values) < 2:
        raise KnotVectorError("need at least two breakpoints")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise KnotVectorError("breakpoints must be strictly increasing")
    if values[0] != 0 or values[-1] != d:
        raise KnotVectorError("breakpoints must start at 0 and end at 1")
    if multiplicities is None:
        multiplicities = [degree + 1] + [1] * (len(values) - 2) + [degree + 1]
    multiplicities = list(multiplicities)
    if len(multiplicities) != len(values):
        raise KnotVectorError("one multiplicity per breakpoint required")
    if multiplicities[0] != degree + 1 or multiplicities[-1] != degree + 1:
        raise KnotVectorError("end multiplicities must equal degree+1")
    knots: list[int] = []
    for v, m in zip(values, multiplicities):
        if m < 1:
            raise KnotVectorError("multiplicities must be positive")
        knots.extend([v] * m)
    return KnotVector(degree, tuple(knots), d)


def uniform_open_knot_vector(degree: int, intervals: int) -> KnotVector:
    if isinstance(intervals, bool) or not isinstance(intervals, (int, np.integer)) \
            or intervals < 1:
        raise KnotVectorError(f"need a positive integer number of intervals, got {intervals!r}")
    values = [Fraction(i, intervals) for i in range(intervals + 1)]
    return make_open_knot_vector(degree, values)


def dyadic_refine(kv: KnotVector) -> KnotVector:
    """Insert the midpoint of every nonempty interval once, keeping all knots.

    Over twice the denominator, the knots' numerators double and the
    midpoint of breakpoints a and b is a + b. Some adjacent breakpoints
    differ in parity (0 is even, and not every numerator is), so some
    a + b is odd and twice the denominator is again the lcm.
    """
    bp = kv.breakpoints.numerators
    knots = sorted([2 * k for k in kv.knot_numerators] + [a + b for a, b in zip(bp, bp[1:])])
    return KnotVector(kv.degree, tuple(knots), 2 * kv.knot_denominator)


# ---------------------------------------------------------------------------
# two-scale machinery

def _children_run(p: int, tau: Sequence[int], t: Sequence[int]
                  ) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The children of the B-spline on the integer knots ``tau`` among the
    fine functions on the integer knots ``t``, on one scale: the fine index
    of the first function supported in the parent's support, and the run of
    :func:`_oslo_run` on their knot pattern.

    The pattern is the difference vector, from the parent's first knot and
    divided by its gcd, of the parent's p+2 knots and of the knots of the
    fine functions in its support; the coefficients do not change under
    increasing affine maps of the knots, so equal patterns have the same
    children relative to the first one, with equal coefficients.
    """
    # the fine functions supported in the parent's support: from the first
    # fine knot at the parent's first to the last one ending by its last
    first = bisect.bisect_left(t, tau[0])
    stop = min(bisect.bisect_right(t, tau[-1]) - p - 1, len(t) - p - 1)
    knots = (*tau, *t[first:stop + p + 1])
    base = knots[0]
    step = math.gcd(*(x - base for x in knots))
    return first, _oslo_run(p, tuple((x - base) // step for x in knots))


@lru_cache(maxsize=4096)
def _oslo_run(p: int, pattern: tuple[int, ...]
              ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The Oslo recurrence (Cohen, Lyche & Riesenfeld, 1980) on one knot
    pattern of :func:`_children_run`: the parent's p+2 knots, then the
    knots t of the fine functions in its support.

    The coefficient of fine function i is the discrete B-spline of the
    parent's knots at t_i, ..., t_{i+p}: degree-0 indicators at t_i,
    raised one degree at a time with t_{i+1}, ..., t_{i+p}. Returns the
    children with a positive coefficient as their offsets among the fine
    functions, their numerators and their common denominator, the lcm of
    the reduced coefficients' denominators.
    """
    tau, t = pattern[:p + 2], pattern[p + 2:]
    offsets, coefficients = [], []
    for i in range(len(t) - p - 1):
        alpha = [ONE if tau[j] <= t[i] < tau[j + 1] else ZERO for j in range(p + 1)]
        # a nonzero alpha[j] of degree k-1 has tau[j] < tau[j+k]: no divisor is zero
        for k in range(1, p + 1):
            x = t[i + k]
            alpha = [(Fraction(x - tau[j], tau[j + k] - tau[j]) * alpha[j] if alpha[j] else ZERO)
                     + (Fraction(tau[j + k + 1] - x, tau[j + k + 1] - tau[j + 1]) * alpha[j + 1]
                        if alpha[j + 1] else ZERO)
                     for j in range(p + 1 - k)]
        if alpha[0] > 0:
            offsets.append(i)
            coefficients.append(alpha[0])
    q = math.lcm(*(c.denominator for c in coefficients))
    return tuple(offsets), tuple(c.numerator * (q // c.denominator) for c in coefficients), q


def _nests(child: Sequence, parent: Sequence) -> bool:
    """The endpoint test of :func:`is_child_of` on two knot sequences of
    exact values on one scale."""
    if not (parent[0] <= child[0] and child[-1] <= parent[-1]):
        return False
    for endpoint in (parent[0], parent[-1]):
        mc = child.count(endpoint)
        if mc and mc > parent.count(endpoint):
            return False
    return True


def is_child_of(child: LocalKnotVector, parent: LocalKnotVector) -> bool:
    """Parent/child test by endpoint containment and endpoint multiplicities.

    This is an independent route from the Oslo recurrence of
    :func:`two_scale_table`; the two must agree on every pair.
    It only orders and counts knots, so any exact values on one scale do.
    """
    return _nests(child.knots, parent.knots)


def _parent_run(child: Sequence[int], tau: Sequence[int], p: int) -> list[int]:
    """The coarse functions, of degree p on the knots ``tau``, of which the
    B-spline on the knots ``child`` is a child, all integer numerators
    over one denominator. The candidates, coarse functions whose support
    contains the child's, form one run of indices found by bisection."""
    first = max(bisect.bisect_left(tau, child[-1]) - p - 1, 0)
    stop = min(bisect.bisect_right(tau, child[0]), len(tau) - p - 1)
    return [j for j in range(first, stop) if _nests(child, tau[j:j + p + 2])]


# kept while the benchmark's tracer wraps it
def children_table(coarse: KnotVector, fine: KnotVector
                   ) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Per coarse function: its children as (fine index, coefficient)
    pairs, a view of :func:`two_scale_table` kept with the coarse knots."""
    cache = coarse._children_tables
    hit = cache.get(fine)
    if hit is not None:
        return hit
    tab = two_scale_table(coarse, fine)
    q = tab.denominator
    table = tuple(tuple((i, Fraction(n, q)) for i, n in zip(index, numerator) if n)
                  for index, numerator in zip(tab.index.tolist(), tab.numerator.tolist()))
    cache[fine] = table
    return table


@dataclass(frozen=True, eq=False)
class TwoScaleTable:
    """The two-scale matrix of a coarse/fine pair as integer slot arrays.

    Row j holds the children of coarse function j, in fine index order:
    ``index[j, k]`` is the fine index of the k-th child and
    ``numerator[j, k] / denominator`` its coefficient. Rows with fewer
    children repeat their last child with numerator 0, so ``present``
    (numerator > 0) is the 0/1 pattern of the matrix and every slot of a
    row stays within its children.

    Every coefficient lies in (0, 1], so the numerators are at most the
    denominator, the bound their :func:`exact_dtype` is taken for.
    """

    denominator: int
    index: np.ndarray
    numerator: np.ndarray
    present: np.ndarray


def two_scale_table(coarse: KnotVector, fine: KnotVector) -> TwoScaleTable:
    """The two-scale matrix of a coarse/fine pair, filled from the runs of
    :func:`_oslo_run` on the coarse functions' knot patterns, over the lcm
    of the reduced coefficients' denominators."""
    cache = coarse._two_scale_tables
    hit = cache.get(fine)
    if hit is not None:
        return hit
    if not fine.contains_as_subsequence(coarse):
        raise RefinementMismatchError(
            "fine knot vector does not refine the coarse one")
    if coarse.degree != fine.degree:
        raise RefinementMismatchError(
            f"degree mismatch: parent {coarse.degree}, fine {fine.degree}")
    p = coarse.degree
    # the coarse knots are fine knots, so their denominator divides the fine one
    tau, t = (k.tolist() for k in common_knots(coarse, fine))
    runs = [_children_run(p, tau[j:j + p + 2], t) for j in range(coarse.num_basis)]
    q = math.lcm(*(r for _, (_, _, r) in runs))
    width = max(len(offsets) for _, (offsets, _, _) in runs)
    index = np.zeros((len(runs), width), dtype=np.int64)
    numerator = np.zeros((len(runs), width), dtype=exact_dtype(q))
    for j, (first, (offsets, numerators, r)) in enumerate(runs):
        index[j] = first + offsets[-1]
        index[j, :len(offsets)] = [first + i for i in offsets]
        numerator[j, :len(offsets)] = [n * (q // r) for n in numerators]
    table = TwoScaleTable(q, index, numerator, numerator > 0)
    cache[fine] = table
    return table


def parent_table(coarse: KnotVector, fine: KnotVector) -> tuple[tuple[int, ...], ...]:
    """Per fine function: indices of its coarse parents, by bisection and
    the endpoint tests on the knots over a common denominator."""
    cache = fine._parent_tables
    hit = cache.get(coarse)
    if hit is not None:
        return hit
    tau, t = (k.tolist() for k in common_knots(coarse, fine))
    p = fine.degree
    table = tuple(tuple(_parent_run(t[i:i + p + 2], tau, coarse.degree))
                  for i in range(fine.num_basis))
    cache[coarse] = table
    return table


def parent_slots(coarse: KnotVector, fine: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parent_table` padded to its widest row: ``index[i, s]`` is
    the s-th parent of fine function i where ``present[i, s]``, else 0."""
    table = parent_table(coarse, fine)
    width = max(map(len, table), default=0)
    present = np.arange(width) < np.array([len(row) for row in table])[:, None]
    index = np.zeros(present.shape, dtype=np.int64)
    # row by row, slot by slot: the order of the parents in the table
    index[present] = [j for row in table for j in row]
    return index, present
