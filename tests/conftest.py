from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hiersplines.fixtures import Fixture, load_fixture
from hiersplines.hierarchy import SubdomainHierarchy
from hiersplines.tensor import build_level_sequence, iter_box
from hiersplines.univariate import make_open_knot_vector, uniform_open_knot_vector

from .oracles import cell_descendant_ranges

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
# inputs kept out of the fixture set the golden files enumerate
DATA_DIR = Path(__file__).resolve().parent / "data"


def repo_fixture(name: str) -> Fixture:
    return load_fixture(FIXTURE_DIR / f"{name}.json")


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def cell_ids(level):
    """The cells of a level in canonical order."""
    return iter_box([range(n) for n in level.num_cells])


def make_levels(dim, degrees, intervals, depth):
    if isinstance(degrees, int):
        degrees = [degrees] * dim
    if isinstance(intervals, int):
        intervals = [intervals] * dim
    initial = [uniform_open_knot_vector(p, m) for p, m in zip(degrees, intervals)]
    return build_level_sequence(initial, depth)


def corner_hierarchy(levels, widths):
    """Nested corner blocks; widths[ell-1] counts cells per direction of
    subdomain ell at its own granularity."""
    dim = levels[0].dim
    subs = []
    for w in widths:
        subs.append([tuple(c) for c in iter_box([range(w)] * dim)])
    return SubdomainHierarchy.from_cells(subs)


def random_refinement(rng, kv):
    """A random knot vector nesting ``kv``: zero to two new knots per
    interval at sevenths of it, and internal multiplicities raised at
    random, up to degree+1."""
    p = kv.degree
    bp = kv.breakpoints
    values, mults = [], []
    for j, (v, m) in enumerate(zip(bp.values, bp.multiplicities)):
        if 0 < j < len(bp) - 1 and rng.random() < 0.3:
            m = int(rng.integers(m, p + 2))
        values.append(v)
        mults.append(m)
        if j == len(bp) - 1:
            break
        step = (bp.values[j + 1] - v) / 7
        for t in sorted(rng.choice(np.arange(1, 7), size=int(rng.integers(0, 3)),
                                   replace=False)):
            values.append(v + int(t) * step)
            mults.append(1 if rng.random() < 0.7 else int(rng.integers(1, p + 2)))
    return make_open_knot_vector(p, values, mults)


def random_explicit_levels(rng, initial, depth):
    """Explicit, non-uniform, non-dyadic and multiplicity-raising levels."""
    rule = []
    kvs = list(initial)
    for _ in range(depth - 1):
        kvs = [random_refinement(rng, kv) for kv in kvs]
        rule.append(kvs)
    return build_level_sequence(initial, depth, rule)


def random_hierarchy(rng, dim=None, depth=None, degrees=None, explicit=False, raised=False):
    """A valid random hierarchy over a dyadic level sequence, or over
    random explicit levels; with ``raised``, the initial breakpoints k/n,
    4 <= n <= 8, take random interior multiplicities from 1 to degree+1."""
    dim = dim if dim is not None else int(rng.integers(1, 3))
    depth = depth if depth is not None else int(rng.integers(2, 5))
    if degrees is None:
        degrees = [int(rng.integers(1, 4)) for _ in range(dim)]
    intervals = [int(rng.integers(4, 9) if raised else rng.integers(2, 5)) for _ in range(dim)]
    initial = [make_open_knot_vector(p, [Fraction(k, m) for k in range(m + 1)],
                                     [p + 1, *rng.integers(1, p + 2, size=m - 1).tolist(), p + 1])
               if raised else uniform_open_knot_vector(p, m) for p, m in zip(degrees, intervals)]
    if explicit:
        levels = random_explicit_levels(rng, initial, depth)
    else:
        levels = build_level_sequence(initial, depth)
    subs = []
    pool = [tuple(c) for c in cell_ids(levels[0])]
    for ell in range(1, depth):
        if not pool:
            break
        take = rng.random(len(pool)) < 0.6
        picked = [c for c, t in zip(pool, take) if t]
        if not picked and len(pool) > 0:
            picked = [pool[int(rng.integers(0, len(pool)))]]
        subs.append(picked)
        nxt = []
        for c in picked:
            nxt.extend(iter_box(cell_descendant_ranges(levels, ell - 1, ell, c)))
        pool = nxt
    h = SubdomainHierarchy.from_cells(subs)
    return levels, h


def random_enlargement(rng, levels, h):
    """Random additions keeping all constraints, sometimes a deeper level."""
    additions = {}
    enlarged = [set(s) for s in h.subdomains]
    for ell in range(1, h.depth):
        if ell == 1:
            pool = [tuple(c) for c in cell_ids(levels[0])]
        else:
            pool = []
            for c in enlarged[ell - 2]:
                pool.extend(iter_box(cell_descendant_ranges(levels, ell - 2, ell - 1, c)))
        fresh = [c for c in pool if c not in enlarged[ell - 1]]
        if fresh:
            take = rng.random(len(fresh)) < 0.25
            picked = [c for c, t in zip(fresh, take) if t]
            if picked:
                additions[ell] = picked
                enlarged[ell - 1].update(picked)
    new_deepest = None
    if rng.random() < 0.5:
        grain = h.depth - 1  # the new deepest subdomain lives on this level
        if h.depth == 1:
            pool = [tuple(c) for c in cell_ids(levels[0])]
        else:
            pool = []
            for c in enlarged[h.depth - 2]:
                pool.extend(iter_box(
                    cell_descendant_ranges(levels, grain - 1, grain, c)))
        if pool:
            take = rng.random(len(pool)) < 0.3
            picked = [c for c, t in zip(pool, take) if t]
            if picked:
                new_deepest = picked
    return additions, new_deepest
