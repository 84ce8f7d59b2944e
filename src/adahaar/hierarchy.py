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
of the exact `Fraction`. Exact measures and split weights
are built as `Fraction`s only for validation, `split_weights` and JSON.
All objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

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
    def length(self) -> Fraction:
        return self.hi - self.lo

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
            n, d = s.length.as_integer_ratio()
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
    follow the order of `leaf_ids`; `leaf_measures`, `split_weights`, `cascade`
    and `leaf_scale` are computed on first read.
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

    def _shares(self, parent) -> list:
        """The shares |child| / |parent| of a parent's children, in child order, as
        unreduced (numerator, denominator) pairs of integers."""
        pn, pd = self.blocks[parent].measure_ratio()
        return [(cn * pd, cd * pn) for cn, cd in
                (self.blocks[c].measure_ratio() for c in self.children[parent])]

    @cached_property
    def split_weights(self) -> dict:
        """Parent id -> exact shares |child| / |parent|, in child order (computed once)."""
        return {p: tuple(Fraction(num, den) for num, den in self._shares(p))
                for p, kids in self.children.items() if kids}

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
        `leaf_ids` order. The split weights are taken from the integer shares, bit for
        bit `float` of `split_weights`, which stays unbuilt.
        """
        pos = {b: i for i, b in enumerate(b for level in levels for b in level)}
        stops = np.cumsum([len(level) for level in levels]).tolist()
        bounds = tuple(zip([0] + stops, stops))
        parent = np.array([pos.get(self.parent.get(b), -1) for b in pos])
        kid_pos, shares = [], []
        for p in pos:
            kids = self.children[p]
            if kids and kids[0] in pos:
                kid_pos += [pos[c] for c in kids]
                shares += [num / den for num, den in self._shares(p)]
        sqrt_b = np.ones(len(pos))
        sqrt_b[kid_pos] = np.sqrt(shares)
        local = (parent[:1],) + tuple(parent[s:e] - ps
                                      for (s, e), (ps, _) in zip(bounds[1:], bounds))
        for x in (parent, sqrt_b, *local):
            x.flags.writeable = False
        return pos, bounds, parent, sqrt_b, local

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
                and self.levels == other.levels
                and self.children == other.children
                and self.blocks.keys() == other.blocks.keys()
                and all(self.blocks[b].sides == other.blocks[b].sides
                        for b in self.blocks))

    __hash__ = None

    def __repr__(self):
        sizes = "/".join(str(len(level)) for level in self.levels)
        return f"HierarchicalPartition(d={self.dimension}, depth={self.depth}, levels={sizes})"

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
        part = cls(dim, levels, blocks, children)
        report = validate_partition(part)
        if not report.ok:
            raise report.first_error()
        return part


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


def tensor_partitions(*factors: HierarchicalPartition) -> HierarchicalPartition:
    """Tensor one or more 1-D partitions of equal depth into a box partition.

    Level j is the full grid of products of the factors' level-j intervals;
    the children of a product block are the products of the factors'
    children. In both, the first factor varies fastest, and ids run level by
    level in that order, so one factor gives back its own partition.
    """
    if not factors or any(p.dimension != 1 for p in factors):
        raise ValueError("tensor_partitions expects one or more 1-D partitions")
    if any(p.depth != factors[0].depth for p in factors):
        raise DepthMismatch("depths differ: " + " vs ".join(str(p.depth) for p in factors))
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
