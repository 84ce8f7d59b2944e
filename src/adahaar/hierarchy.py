"""Hierarchical partitions of the unit box [0,1]^d with exact rational geometry.

Endpoints and side lengths are `fractions.Fraction`, so tiling and nesting
identities hold bit-exactly and the validation layer never needs a float
tolerance. `Interval` and `refine_interval_level` compare endpoints as
integers: a reduced endpoint is its (numerator, denominator) pair, so equality
is equality of pairs and order is one cross-multiplication, and a level is
sorted by float first, with exact `Fraction`s only where floats tie. The
floats the transforms read (`leaf_measures` and the cascade's square roots
of split weights) come from integers: a block's measure is the pair
(product of its sides' length numerators, product of their denominators),
and a float is one correctly rounded integer division, bit for bit `float`
of the exact `Fraction`. Exact shares are `shares(parent)`, the integer
pairs; exact measures are built as `Fraction`s only for validation and JSON.
All objects are immutable after construction.

Two types share one interface, the methods `children_of`, `parent_of`,
`level`, `leaf_position`, `shares` and `vertex_cascade`, which are all the
restricted pipeline reads. `HierarchicalPartition` is explicit: a `Block`
per id and dicts over them; it is what `refine_interval_level` and `from_json`
return, and the only type of a 1-D factor. `tensor_partitions` returns a
`TensorPartition`, which holds only its factors and small per-factor,
per-level lists and answers by id arithmetic; it builds its explicit views
(`blocks`, `children`, `parent`, `level_of`, `leaf_index`, from `tensor_grid`)
on first read, which `to_json`, `validate_partition` and `==` against an
explicit partition do.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import gcd, prod
from operator import getitem, mul, truediv

import numpy as np

from .errors import DepthMismatch, GapOrOverlap, NotNested, ParseError, strict_int

ZERO = Fraction(0)
ONE = Fraction(1)
_EXACT = (Fraction, int)  # endpoint types compared as integer ratios


def as_fraction(x) -> Fraction:
    """Coerce ints, floats, strings or Fractions to Fraction; anything else is a TypeError.

    Floats convert via their exact binary expansion, so round-tripping is
    lossless; 0.3 is *not* 3/10.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _le(x, y) -> bool:
    """x <= y, compared on integers when both are ints or Fractions."""
    if type(x) in _EXACT and type(y) in _EXACT:
        (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
        return a * d <= c * b
    return x <= y


@dataclass(frozen=True)
class Interval:
    """Subinterval of [0,1] with rational endpoints and positive length."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) in _EXACT and type(hi) in _EXACT:  # on integers
            (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
            ok = 0 <= ln and ln * hd < hn * ld and hn <= hd
        else:
            ok = ZERO <= lo < hi <= ONE
        if not ok:
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")

    @cached_property
    def length_ratio(self) -> tuple:
        """hi - lo as a reduced (numerator, denominator) pair, computed on the endpoints'
        exact integer ratios, so float endpoints do not round it."""
        (hn, hd), (ln, ld) = self.hi.as_integer_ratio(), self.lo.as_integer_ratio()
        num, den = hn * ld - ln * hd, hd * ld
        g = gcd(num, den)
        return num // g, den // g

    @cached_property
    def length(self) -> Fraction:
        """hi - lo exactly: `as_fraction(hi) - as_fraction(lo)`, from `length_ratio`."""
        return Fraction(*self.length_ratio)

    def contains(self, other: "Interval") -> bool:
        return _le(self.lo, other.lo) and _le(other.hi, self.hi)

    def overlap(self, other: "Interval") -> Fraction:
        return max(ZERO, min(self.hi, other.hi) - max(self.lo, other.lo))


@dataclass(frozen=True)
class Block:
    """Axis-aligned box inside [0,1]^d, one Interval per dimension."""

    id: int
    sides: tuple

    def measure_ratio(self) -> tuple:
        """The measure as (numerator, denominator), the products of the sides' exact
        length numerators and denominators; not reduced."""
        num = den = 1
        for s in self.sides:
            n, d = s.length_ratio
            num *= n
            den *= d
        return num, den

    @cached_property
    def measure(self) -> Fraction:
        return Fraction(*self.measure_ratio())

    def contains(self, other: "Block") -> bool:
        return all(a.contains(b) for a, b in zip(self.sides, other.sides))

    def intersection_measure(self, other: "Block") -> Fraction:
        m = ONE
        for a, b in zip(self.sides, other.sides):
            ov = a.overlap(b)
            if ov == 0:
                return ZERO
            m *= ov
        return m


class HierarchicalPartition:
    """Nested block partition of [0,1]^d.

    `levels[j]` lists the block ids of level j in construction order,
    `children[id]` the ordered child ids of a non-leaf block. Level 0 is the
    single root block; every block is tiled exactly by its children.
    `leaf_index` (leaf id -> position) and the read-only float `leaf_measures`
    follow the order of `leaf_ids`; `leaf_measures`, `cascade` and `leaf_scale`
    are computed on first read. The pipeline reads the tree through the methods
    `children_of`, `parent_of`, `level`, `leaf_position`, `shares` and
    `vertex_cascade`, which `TensorPartition` answers without the dicts.
    Instances are immutable; builders and `from_json` are the only intended
    constructors.
    """

    def __init__(self, dimension, levels, blocks, children):
        self.dimension = int(dimension)
        self.levels = [tuple(level) for level in levels]
        self.blocks = dict(blocks)
        self.children = {b: tuple(children.get(b, ())) for b in self.blocks}
        self.parent = {}
        for p, kids in self.children.items():
            for c in kids:
                if c in self.parent:
                    raise ValueError(f"block {c} has two parents")
                self.parent[c] = p
        self.level_of = {}
        for j, level in enumerate(self.levels):
            for b in level:
                self.level_of[b] = j
        self.leaf_index = {b: i for i, b in enumerate(self.leaf_ids)}

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> int:
        return self.levels[0][0]

    @property
    def leaf_ids(self) -> tuple:
        return self.levels[-1]

    def children_of(self, b) -> tuple:
        """The ordered child ids of block b, () at a leaf; KeyError if b is no block."""
        return self.children[b]

    def parent_of(self, b):
        """The parent id of block b, None at the root; KeyError if b is no block."""
        return None if b == self.root else self.parent[b]

    def level(self, b) -> int:
        """The level of block b; KeyError if b is no block."""
        return self.level_of[b]

    def leaf_position(self, b) -> int:
        """The position of leaf b in `leaf_ids`; KeyError if b is no leaf."""
        return self.leaf_index[b]

    def shares(self, parent) -> list:
        """The shares |child| / |parent| of a parent's children, in child order, as
        unreduced (numerator, denominator) pairs of integers."""
        pn, pd = self.blocks[parent].measure_ratio()
        return [(cn * pd, cd * pn) for cn, cd in
                (self.blocks[c].measure_ratio() for c in self.children[parent])]

    @cached_property
    def leaf_measures(self) -> np.ndarray:
        """Read-only float measure of each leaf, in `leaf_ids` order (computed once)."""
        mu = np.array([num / den for num, den in
                       (self.blocks[b].measure_ratio() for b in self.leaf_ids)])
        mu.setflags(write=False)
        return mu

    @cached_property
    def cascade(self) -> tuple:
        """The whole tree as arrays for the framelet transforms: `cascade_over(levels)`."""
        return self.cascade_over(self.levels)

    def cascade_over(self, levels) -> tuple:
        """A subtree as arrays for the framelet transforms.

        `levels` lists the subtree's block ids level by level from the root; every
        block's parent is in the subtree, and a block's children are all in it or none
        are. Returns (block id -> position, each level's (start, stop) positions, parent
        positions with -1 at the root, float sqrt(split weight) with 1 at the root, and
        per level the parent positions less the start of the level above, the root's -1
        at level 0). Positions follow `levels`, so the whole tree's leaves come last, in
        `leaf_ids` order. Each split weight is one correctly rounded division of
        an integer share, bit for bit `float` of the exact `Fraction`.
        """
        pos = {b: i for i, b in enumerate(b for level in levels for b in level)}
        parent = [pos.get(self.parent.get(b), -1) for b in pos]
        kid_pos, shares = [], []
        for p in pos:
            kids = self.children[p]
            if kids and kids[0] in pos:
                kid_pos += [pos[c] for c in kids]
                shares += [num / den for num, den in self.shares(p)]
        sqrt_b = np.ones(len(pos))
        sqrt_b[kid_pos] = np.sqrt(shares)
        return _cascade(pos, [len(level) for level in levels], parent, sqrt_b)

    def vertex_cascade(self, leaf_ids) -> tuple:
        """(cascade, effective) of the given leaves. `effective` is the leaves and their
        ancestors: since children tile their parent, exactly the blocks that meet one of
        the leaves in positive measure. The cascade is `cascade_over` the effective
        blocks and the children of the effective non-leaf blocks, level by level in id
        order: the part of the tree on which a signal on the leaves is not zero."""
        parent, effective = self.parent, set()
        for b in leaf_ids:
            while b is not None and b not in effective:
                effective.add(b)
                b = parent.get(b)
        blocks = set(effective)
        for b in effective:
            blocks.update(self.children[b])
        levels = [[] for _ in self.levels]
        for b in sorted(blocks):
            levels[self.level_of[b]].append(b)
        return self.cascade_over(levels), frozenset(effective)

    @cached_property
    def leaf_scale(self) -> np.ndarray:
        """Read-only sqrt(leaf_measures): analysis multiplies leaf values by it, synthesis
        divides by it."""
        scale = np.sqrt(self.leaf_measures)
        scale.flags.writeable = False
        return scale

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HierarchicalPartition):
            return NotImplemented
        return (self.dimension == other.dimension
                and list(map(tuple, self.levels)) == list(map(tuple, other.levels))
                and self.children == other.children
                and self.blocks.keys() == other.blocks.keys()
                and all(self.blocks[b].sides == other.blocks[b].sides
                        for b in self.blocks))

    __hash__ = None

    def __repr__(self):
        sizes = "/".join(str(len(level)) for level in self.levels)
        return f"{type(self).__name__}(d={self.dimension}, depth={self.depth}, levels={sizes})"

    def to_json(self) -> dict:
        blocks = []
        for b in sorted(self.blocks):
            sides = [[*s.lo.as_integer_ratio(), *s.hi.as_integer_ratio()]
                     for s in self.blocks[b].sides]
            blocks.append({"id": b, "sides": sides})
        children = {str(p): list(kids) for p, kids in self.children.items() if kids}
        return {"dimension": self.dimension, "depth": self.depth,
                "blocks": blocks, "children": children}

    @classmethod
    def from_json(cls, obj) -> "HierarchicalPartition":
        """Read `to_json` output into a validated explicit `HierarchicalPartition`."""
        try:
            dim = strict_int(obj["dimension"], "partition JSON: dimension")
            depth = strict_int(obj["depth"], "partition JSON: depth")
            if dim < 1:
                raise ParseError(f"partition JSON: dimension {dim} is below 1")
            blocks = {}
            for rec in obj["blocks"]:
                bid = strict_int(rec["id"], "partition JSON: block id")
                sides = []
                for side in rec["sides"]:
                    a, b, c, d = (strict_int(x, "partition JSON: side endpoint") for x in side)
                    sides.append(Interval(Fraction(a, b), Fraction(c, d)))
                sides = tuple(sides)
                if len(sides) != dim:
                    raise ParseError(f"partition JSON: block {bid} has {len(sides)} sides, "
                                     f"not the declared dimension {dim}")
                blocks[bid] = Block(bid, sides)
            children = obj.get("children", {})
            if not isinstance(children, dict):
                raise ParseError("partition JSON: 'children' must be an object")
            children = {strict_int(p, "partition JSON: children key"):
                        [strict_int(c, "partition JSON: child id") for c in kids]
                        for p, kids in children.items()}
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"malformed partition JSON: {exc}") from exc
        if 0 not in blocks:
            raise ParseError("partition JSON must contain a root block with id 0")
        # levels by distance from root; ids are assigned level-by-level at
        # construction time, so ascending id order restores level order
        levels = [[0]]
        seen = {0}
        while True:
            nxt = sorted(c for p in levels[-1] for c in children.get(p, ()))
            if not nxt:
                break
            for c in nxt:
                if c not in blocks or c in seen:
                    raise ParseError(f"child id {c} missing or repeated")
                seen.add(c)
            levels.append(nxt)
        if len(seen) != len(blocks):
            raise ParseError("partition JSON contains unreachable blocks")
        if len(levels) - 1 != depth:
            raise ParseError(f"declared depth {depth} but found {len(levels) - 1} levels")
        part = HierarchicalPartition(dim, levels, blocks, children)
        report = validate_partition(part)
        if not report.ok:
            raise report.first_error()
        return part


def _cascade(pos, sizes, parent, sqrt_b) -> tuple:
    """The cascade tuple from block positions, level sizes, parent positions (a list
    or an int array) and sqrt(split weight) per position; every array read-only."""
    stops = np.cumsum(sizes).tolist()
    bounds = tuple(zip([0] + stops, stops))
    parent = np.array(parent, dtype=int)
    local = (parent[:1],) + tuple(parent[s:e] - ps
                                  for (s, e), (ps, _) in zip(bounds[1:], bounds))
    for x in (parent, sqrt_b, *local):
        x.flags.writeable = False
    return pos, bounds, parent, sqrt_b, local


@dataclass
class PartitionReport:
    """Outcome of validate_partition; empty lists and zero residuals mean valid."""

    level_residuals: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)
    not_nested: list = field(default_factory=list)
    bad_parents: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (all(r == 0 for r in self.level_residuals)
                and not self.overlaps and not self.not_nested and not self.bad_parents)

    def first_error(self):
        if self.not_nested:
            return NotNested(f"blocks outside their parent: {self.not_nested}")
        return GapOrOverlap(
            f"tiling residuals {self.level_residuals}, overlaps {self.overlaps}, "
            f"bad parents {self.bad_parents}")


def validate_partition(p: HierarchicalPartition) -> PartitionReport:
    """Check root tiling and nesting of every level; failures go in the report.

    Overlaps are sought among siblings only: while every child lies inside
    its parent, any two cousins lie inside a pair of sibling ancestors.
    """
    report = PartitionReport()
    for level in p.levels:
        total = sum((p.blocks[b].measure for b in level), ZERO)
        report.level_residuals.append(total - ONE)
    for child, par in p.parent.items():
        if not p.blocks[par].contains(p.blocks[child]):
            report.not_nested.append(child)
    for par, kids in p.children.items():
        for a, b in combinations(kids, 2):
            if p.blocks[a].intersection_measure(p.blocks[b]) > 0:
                report.overlaps.append((a, b))
        if not kids:
            continue
        diff = sum((p.blocks[c].measure for c in kids), ZERO) - p.blocks[par].measure
        if diff != 0:
            report.bad_parents.append((par, diff))
    return report


def make_dyadic_partition(dimension: int, depth: int) -> HierarchicalPartition:
    """Dyadic partition of [0,1]^dimension: each block splits into 2^d halves.

    The tensor power of the 1-D halving partition: level j holds 2^(j*d)
    congruent blocks, enumerated (within a level and within a parent) with
    the first coordinate varying fastest.
    """
    if dimension < 1 or depth < 0:
        raise ValueError("need dimension >= 1 and depth >= 0")
    halving = refine_interval_level(
        [[(Fraction(k, 2 ** j), Fraction(k + 1, 2 ** j)) for k in range(2 ** j)]
         for j in range(depth + 1)])
    return tensor_partitions(*[halving] * dimension)


def refine_interval_level(levels) -> HierarchicalPartition:
    """Validated 1-D partition from explicit per-level interval endpoint lists.

    Each level must tile [0,1] exactly (GapOrOverlap otherwise) and each
    interval must sit inside a single interval of the previous level
    (NotNested otherwise). Endpoints may be ints, floats, strings or
    Fractions; any other endpoint raises TypeError.

    The checks compare integers. Endpoints become reduced Fractions, so two
    are equal exactly when their (numerator, denominator) pairs are, and
    order is one cross-multiplication. A level is sorted by (float(lo), lo,
    hi): rounding to float is monotone, so this is the exact order, and
    Fractions are compared only where two floats tie. No level is put over a
    common denominator, which with float-weight chains would be thousands of
    bits long.
    """
    if not levels:
        raise GapOrOverlap("need at least the root level")
    norm = []  # per level, (lo, hi, lo numerator, lo denominator, hi numerator, hi denominator)
    for j, level in enumerate(levels):
        rows = [(lo, hi) + lo.as_integer_ratio() + hi.as_integer_ratio() for lo, hi in
                ((as_fraction(lo), as_fraction(hi)) for lo, hi in level)]
        try:  # by (float(lo), lo, hi)
            rows = [r for _, r in sorted([(r[2] / r[3], r) for r in rows])]
        except OverflowError:  # an endpoint beyond float range: sort exactly, then fail below
            rows.sort()
        for lo, hi, ln, ld, hn, hd in rows:
            if not ln * hd < hn * ld:
                raise GapOrOverlap(f"level {j}: empty interval [{lo}, {hi}]")
        if rows[0][2] != 0 or rows[-1][4:] != (1, 1):
            raise GapOrOverlap(f"level {j} does not span [0, 1]")
        for r1, r2 in zip(rows, rows[1:]):
            if r1[4:] != r2[2:4]:
                raise GapOrOverlap(f"level {j}: break at {r1[1]} vs {r2[0]}")
        norm.append(rows)
    if len(norm[0]) != 1:
        raise GapOrOverlap("level 0 must be the single interval [0, 1]")

    levels_ids, blocks, children = [], {}, {}
    for j, rows in enumerate(norm):
        ids = range(len(blocks), len(blocks) + len(rows))
        for b, (lo, hi, *_) in zip(ids, rows):
            blocks[b] = Block(b, (Interval(lo, hi),))
        if j > 0:
            # both levels tile [0, 1] in order, so a child starts inside the parent whose
            # end it has not reached, and nests exactly when it ends within that parent
            pi, (_, _, _, _, pn, pd) = 0, prev[0]
            for cid, (lo, hi, ln, ld, hn, hd) in zip(ids, rows):
                if (ln, ld) == (pn, pd):
                    pi += 1
                    _, _, _, _, pn, pd = prev[pi]
                if hn * pd > pn * hd:
                    raise NotNested(f"level {j}: [{lo}, {hi}] straddles level {j - 1}")
                children.setdefault(prev_ids[pi], []).append(cid)
        levels_ids.append(ids)
        prev_ids, prev = ids, rows
    return HierarchicalPartition(1, levels_ids, blocks, children)


def tensor_partitions(*factors: HierarchicalPartition) -> "TensorPartition":
    """Tensor one or more 1-D partitions of equal depth into a box partition.

    Level j is the full grid of products of the factors' level-j intervals;
    the children of a product block are the products of the factors'
    children. In both, the first factor varies fastest, and ids run level by
    level in that order, so one factor gives back its own partition. The
    result holds only its factors and answers by id arithmetic; see
    `TensorPartition`.
    """
    if not factors or any(p.dimension != 1 for p in factors):
        raise ValueError("tensor_partitions expects one or more 1-D partitions")
    if any(p.depth != factors[0].depth for p in factors):
        raise DepthMismatch("depths differ: " + " vs ".join(str(p.depth) for p in factors))
    return TensorPartition(factors)


def tensor_grid(*factors: HierarchicalPartition) -> HierarchicalPartition:
    """The explicit partition `tensor_partitions` stands for: every product `Block` and
    the dicts over them. `TensorPartition` builds its views from it."""
    levels, blocks, children = [], {}, {}
    offset = 0
    for j in range(factors[0].depth + 1):
        grid = [()]  # side tuples of the level's product blocks, in id order
        kids = [[offset]]  # child ids of the previous level's product blocks
        stride = 1
        for p in factors:
            level = p.levels[j]
            grid = [g + (p.blocks[b].sides[0],) for b in level for g in grid]
            if j > 0:
                pos = {b: k * stride for k, b in enumerate(level)}
                kids = [[a + pos[c] for c in p.children[b] for a in base]
                        for b in p.levels[j - 1] for base in kids]
            stride *= len(level)
        ids = range(offset, offset + stride)
        blocks.update((i, Block(i, sides)) for i, sides in zip(ids, grid))
        if j > 0:
            children.update(zip(levels[-1], kids))
        levels.append(ids)
        offset += stride
    return HierarchicalPartition(len(factors), levels, blocks, children)


def _view(name):
    """A dict view of `TensorPartition`, read off its explicit grid on first read."""
    return cached_property(lambda self: getattr(self._grid, name))


def _factor_tables(p, strides) -> tuple:
    """Lists per level of a 1-D partition, in position order: each block's parent
    position and share |block| / |parent| (numerator, denominator); and each block's
    children's positions times `strides` of their level, with their share numerators
    and share denominators."""
    par_pos, num, den, kid_off, kid_num, kid_den = [[-1]], [[1]], [[1]], [], [], []
    for j in range(1, p.depth + 1):
        at = {b: k for k, b in enumerate(p.levels[j])}
        par, n, d, offs, kn, kd = [0] * len(at), [0] * len(at), [0] * len(at), [], [], []
        for k, b in enumerate(p.levels[j - 1]):
            pn, pd = p.blocks[b].sides[0].length_ratio
            kids = p.children_of(b)
            for c in kids:
                cn, cd = p.blocks[c].sides[0].length_ratio
                par[at[c]], n[at[c]], d[at[c]] = k, cn * pd, cd * pn
            offs.append(tuple(at[c] * strides[j] for c in kids))
            kn.append(tuple(n[at[c]] for c in kids))
            kd.append(tuple(d[at[c]] for c in kids))
        for table, row in zip((par_pos, num, den, kid_off, kid_num, kid_den),
                              (par, n, d, offs, kn, kd)):
            table.append(row)
    return par_pos, num, den, kid_off, kid_num, kid_den


def _outer(rows, op) -> np.ndarray:
    """One value per block of a product level, in id order, from one row of values
    per factor (over the factor's level): `op` of the factors' values."""
    out = np.asarray(rows[0])
    for row in rows[1:]:
        out = op.outer(np.asarray(row), out).ravel()
    return out


def _divide(nums, dens) -> np.ndarray:
    """Float of (product of the factors' nums) / (product of their dens) per block of a
    product level: one correctly rounded division of Python integers each."""
    nums, dens = ([np.array(row, dtype=object) for row in rows] for rows in (nums, dens))
    return (_outer(nums, np.multiply) / _outer(dens, np.multiply)).astype(float)


class TensorPartition(HierarchicalPartition):
    """The product of 1-D partitions of equal depth, held as its factors.

    Block ids are numbered as `tensor_grid` numbers them: level j's ids start at the
    level's offset, and a block at factor positions (k_1, ..., k_d) within its factors'
    level-j lists has id offset + sum of k_i times the product of the earlier factors'
    level-j sizes (first factor fastest). Per factor and level the partition keeps
    small lists (`_factor_tables`) and answers `children_of` (memoized), `parent_of`,
    `level`, `leaf_position`, `shares` and `vertex_cascade` from them; a product's
    share is the product of its factors' shares, as unreduced integers. The whole
    tree's `cascade` and `leaf_measures` come from the factors too, one level at a
    time. `levels` are ranges. The explicit views `blocks`, `children`, `parent`,
    `level_of` and `leaf_index` are built on first read, by `to_json`,
    `validate_partition` or any other reader of those dicts.
    """

    blocks = _view("blocks")
    children = _view("children")
    parent = _view("parent")
    level_of = _view("level_of")
    leaf_index = _view("leaf_index")

    def __init__(self, factors):
        # a 1-D product stands for its factor: factors are always explicit
        self.factors = tuple(p.factors[0] if isinstance(p, TensorPartition) else p
                             for p in factors)
        self.dimension = len(self.factors)
        depth = self.factors[0].depth
        self._sizes = [tuple(len(p.levels[j]) for p in self.factors) for j in range(depth + 1)]
        self._strides = [tuple(accumulate(sizes[:-1], mul, initial=1)) for sizes in self._sizes]
        counts = [prod(sizes) for sizes in self._sizes]
        self._offsets = list(accumulate(counts, initial=0))
        self.levels = [range(o, o + c) for o, c in zip(self._offsets, counts)]
        tables = [_factor_tables(p, [s[f] for s in self._strides])
                  for f, p in enumerate(self.factors)]
        (self._par_pos, self._num, self._den,
         self._kid_off, self._kid_num, self._kid_den) = zip(*tables)
        self._kids = {}  # children_of's memo

    @cached_property
    def _grid(self) -> HierarchicalPartition:
        grid = tensor_grid(*self.factors)
        self._kids = grid.children  # every block's children: the memo is complete
        return grid

    @cached_property
    def cascade(self) -> tuple:
        """The whole tree's cascade, level by level from the factors: positions are ids,
        a parent is the product of its factors' parents, and a split weight is one
        integer division of the products of its factors' shares."""
        parent, shares = [np.array([-1])], [np.ones(1)]
        for j in range(1, self.depth + 1):
            parent.append(self._offsets[j - 1] + _outer(
                [np.array(par[j]) * s for par, s in zip(self._par_pos, self._strides[j - 1])],
                np.add))
            shares.append(_divide([num[j] for num in self._num], [den[j] for den in self._den]))
        n = self._offsets[-1]
        return _cascade(dict(zip(range(n), range(n))), [len(level) for level in self.levels],
                        np.concatenate(parent), np.sqrt(np.concatenate(shares)))

    @cached_property
    def leaf_measures(self) -> np.ndarray:
        """Read-only float measure of each leaf, in `leaf_ids` order, from the factors'
        leaf lengths (computed once)."""
        ratios = [[p.blocks[b].sides[0].length_ratio for b in p.leaf_ids] for p in self.factors]
        mu = _divide([[n for n, _ in r] for r in ratios], [[d for _, d in r] for r in ratios])
        mu.setflags(write=False)
        return mu

    def _coords(self, b) -> tuple:
        """(level, factor positions) of block b; KeyError if b is no block."""
        j = bisect_right(self._offsets, b) - 1
        if not 0 <= j <= self.depth:
            raise KeyError(b)
        r, ks = b - self._offsets[j], []
        for n in self._sizes[j]:
            r, k = divmod(r, n)
            ks.append(k)
        return j, tuple(ks)

    def _product(self, j, ks) -> tuple:
        """(child ids, share numerators, share denominators) of the level-j block at
        factor positions ks, in child order, first factor fastest; unreduced integers."""
        if j == self.depth:
            return [], [], []
        offs, nums, dens = self._kid_off, self._kid_num, self._kid_den
        k, first = ks[0], self._offsets[j + 1]
        ids, num, den = [first + o for o in offs[0][j][k]], nums[0][j][k], dens[0][j][k]
        for f in range(1, len(ks)):
            k = ks[f]
            ids = [a + o for o in offs[f][j][k] for a in ids]
            num = [a * b for b in nums[f][j][k] for a in num]
            den = [a * b for b in dens[f][j][k] for a in den]
        return ids, num, den

    def children_of(self, b) -> tuple:
        try:
            return self._kids[b]
        except KeyError:
            kids = self._kids[b] = tuple(self._product(*self._coords(b))[0])
            return kids

    def parent_of(self, b):
        j, ks = self._coords(b)
        if j == 0:
            return None
        return self._offsets[j - 1] + sum(
            par[j][k] * stride for par, k, stride in zip(self._par_pos, ks, self._strides[j - 1]))

    def level(self, b) -> int:
        return self._coords(b)[0]

    def leaf_position(self, b) -> int:
        first = self._offsets[-2]
        if not first <= b < self._offsets[-1]:
            raise KeyError(b)
        return b - first

    def shares(self, parent) -> list:
        _, num, den = self._product(*self._coords(parent))
        return list(zip(num, den))

    def vertex_cascade(self, leaf_ids) -> tuple:
        """`HierarchicalPartition.vertex_cascade`, level by level from the leaves' factor
        positions: effective level j - 1 is the parents of effective level j, and cascade
        level j + 1 is the children of effective level j, in id order. A share is one
        integer division of the products of the factors' numerators and denominators.
        KeyError if one of the ids is no leaf."""
        offsets, depth = self._offsets, self.depth
        level = {}  # id -> factor positions
        for b in leaf_ids:
            j, level[b] = self._coords(b)
            if j != depth:
                raise KeyError(f"block {b} is not a leaf")
        effective = [level]
        for j in range(depth, 0, -1):
            pars, strides, up = [par[j] for par in self._par_pos], self._strides[j - 1], {}
            for ks in level.values():
                ks = tuple(map(getitem, pars, ks))
                up[offsets[j - 1] + sum(map(mul, ks, strides))] = ks
            level = up
            effective.append(level)
        pos, parent, shares, sizes = {0: 0}, [-1], [1.0], [1]
        for j, level in enumerate(reversed(effective[1:])):
            ids, ats, nums, dens = [], [], [], []
            for p in sorted(level):
                kids, num, den = self._product(j, level[p])
                self._kids.setdefault(p, tuple(kids))
                ids += kids
                ats += [pos[p]] * len(kids)
                nums += num
                dens += den
            ids, ats, bs = zip(*sorted(zip(ids, ats, map(truediv, nums, dens))))
            pos.update(zip(ids, range(len(pos), len(pos) + len(ids))))
            parent += ats
            shares += bs
            sizes.append(len(ids))
        cascade = _cascade(pos, sizes, parent, np.sqrt(shares))
        return cascade, frozenset(b for level in effective for b in level)

    def __eq__(self, other):
        if self is other or isinstance(other, TensorPartition) and self.factors == other.factors:
            return True
        return super().__eq__(other)
