"""Hierarchical partitions of the unit box [0,1]^d with exact rational geometry.

Endpoints and measures are `fractions.Fraction`, so tiling and nesting
identities hold bit-exactly and the validation layer never needs a float
tolerance. All objects are immutable after construction.
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


@dataclass(frozen=True)
class Interval:
    """Subinterval of [0,1] with rational endpoints and positive length."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (ZERO <= self.lo < self.hi <= ONE):
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]")

    @cached_property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlap(self, other: "Interval") -> Fraction:
        return max(ZERO, min(self.hi, other.hi) - max(self.lo, other.lo))


@dataclass(frozen=True)
class Block:
    """Axis-aligned box inside [0,1]^d, one Interval per dimension."""

    id: int
    sides: tuple

    @cached_property
    def measure(self) -> Fraction:
        m = ONE
        for s in self.sides:
            m *= s.length
        return m

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
    follow the order of `leaf_ids`; `split_weights` and `cascade` are computed
    on first read.
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
        self.leaf_measures = np.array([float(self.blocks[b].measure) for b in self.leaf_ids])
        self.leaf_measures.setflags(write=False)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> int:
        return self.levels[0][0]

    @property
    def leaf_ids(self) -> tuple:
        return self.levels[-1]

    @cached_property
    def split_weights(self) -> dict:
        """Parent id -> exact shares |child| / |parent|, in child order (computed once)."""
        return {p: tuple(self.blocks[c].measure / self.blocks[p].measure for c in kids)
                for p, kids in self.children.items() if kids}

    @cached_property
    def cascade(self) -> tuple:
        """The tree as arrays for the framelet transforms: (block id -> position, each level's
        (start, stop) positions, parent positions with -1 at the root, float sqrt(split
        weight) with 1 at the root). Positions run level by level in `levels` order, so
        the leaves come last, in `leaf_ids` order."""
        pos = {b: i for i, b in enumerate(b for level in self.levels for b in level)}
        stops = np.cumsum([len(level) for level in self.levels]).tolist()
        parent = np.array([pos.get(self.parent.get(b), -1) for b in pos])
        sqrt_b = np.ones(len(pos))
        for p, b in self.split_weights.items():
            sqrt_b[[pos[c] for c in self.children[p]]] = np.sqrt([float(x) for x in b])
        parent.flags.writeable = sqrt_b.flags.writeable = False
        return pos, tuple(zip([0] + stops, stops)), parent, sqrt_b

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
            sides = [[s.lo.numerator, s.lo.denominator, s.hi.numerator, s.hi.denominator]
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
    """
    if not levels:
        raise GapOrOverlap("need at least the root level")
    norm = []
    for j, level in enumerate(levels):
        ivs = sorted((as_fraction(lo), as_fraction(hi)) for lo, hi in level)
        for lo, hi in ivs:
            if not lo < hi:
                raise GapOrOverlap(f"level {j}: empty interval [{lo}, {hi}]")
        if ivs[0][0] != 0 or ivs[-1][1] != 1:
            raise GapOrOverlap(f"level {j} does not span [0, 1]")
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            if h1 != l2:
                raise GapOrOverlap(f"level {j}: break at {h1} vs {l2}")
        norm.append(ivs)
    if len(norm[0]) != 1:
        raise GapOrOverlap("level 0 must be the single interval [0, 1]")

    levels_ids, blocks, children = [], {}, {}
    next_id = 0
    ids_prev = []
    for j, ivs in enumerate(norm):
        ids = []
        for lo, hi in ivs:
            blocks[next_id] = Block(next_id, (Interval(lo, hi),))
            ids.append(next_id)
            next_id += 1
        if j > 0:
            pi = 0
            for cid in ids:
                child = blocks[cid].sides[0]
                while pi < len(ids_prev) and blocks[ids_prev[pi]].sides[0].hi <= child.lo:
                    pi += 1
                if pi == len(ids_prev) or not blocks[ids_prev[pi]].sides[0].contains(child):
                    raise NotNested(
                        f"level {j}: [{child.lo}, {child.hi}] straddles level {j - 1}")
                children.setdefault(ids_prev[pi], []).append(cid)
        levels_ids.append(ids)
        ids_prev = ids
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
