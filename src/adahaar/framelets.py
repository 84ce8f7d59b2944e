"""Haar-type tight framelet systems on hierarchical partitions.

Every parent block with c >= 2 children contributes one generator per
unordered child pair: the signed combination of the two normalized child
indicators that integrates to zero. Together with the normalized root
indicator these form a tight frame for the span of the finest-level
indicators; when every split is binary the system is an orthonormal basis.

A function is one read-only vector of values on the finest-level blocks,
in the partition's `leaf_ids` order. An atom is its key (level, parent, l1,
l2): a parent block and two of its children, whose values follow from the
partition. With c_B = (integral of f over B) / sqrt|B|, analysis is one
bottom-up pass, c_P = sum_i sqrt(b_i) c_Bi with b = `partition.shares(P)`,
up to the root's c, the scaling coefficient; the pair (l1, l2) gets
sqrt(b_l2) c_B1 - sqrt(b_l1) c_B2, a row of `refinement_matrix(b)` in the
pair order `_pairs` gives the keys. Synthesis is the transpose, run top down.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .errors import (BadPair, BadWeights, IndexMismatch, ParseError,
                     PartitionMismatch, ValidationError, strict_int)
from .hierarchy import HierarchicalPartition

RANK_TOL = 1e-10


@cache
def _pairs(m) -> tuple:
    """The child pairs (l1, l2), 1 <= l1 < l2 <= m, in rank order."""
    return tuple(combinations(range(1, m + 1), 2))


def refinement_matrix(b) -> np.ndarray:
    """Column-orthogonal matrix coupling a parent split to its detail pairs.

    For m positive weights b summing to 1 the matrix has shape
    (1 + m(m-1)/2, m): row 0 is sqrt(b), and row r, the r-th pair (i1, i2) in
    the order `generator_keys` lists a parent's pairs, holds sqrt(b[i2]) at
    column i1 and -sqrt(b[i1]) at column i2. Its transpose is
    a left inverse, which is what makes the generated systems tight.
    """
    b = np.asarray(b, dtype=float)
    m = b.size
    if m < 1 or np.any(b <= 0.0):
        raise BadWeights("weights must be positive")
    if abs(b.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {b.sum()!r}, not 1")
    A = np.zeros((1 + m * (m - 1) // 2, m))
    A[0] = np.sqrt(b)
    for r, (i1, i2) in enumerate(_pairs(m), start=1):
        A[r, i1 - 1] = math.sqrt(b[i2 - 1])
        A[r, i2 - 1] = -math.sqrt(b[i1 - 1])
    return A


@dataclass(frozen=True, eq=False)
class PwcFunction:
    """Piecewise-constant function: a read-only copy of one value per leaf, in leaf_ids order."""

    partition: HierarchicalPartition
    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=float)
        if vec.shape != (len(self.partition.leaf_ids),):
            raise ValueError(f"need {len(self.partition.leaf_ids)} leaf values, got shape {vec.shape}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)


def inner_product(f: PwcFunction, g: PwcFunction) -> float:
    """L2 inner product: correctly rounded sum over leaves of f*g weighted by leaf measure."""
    if f.partition != g.partition:
        raise PartitionMismatch("functions live on different partitions")
    terms = f.vector * g.vector * f.partition.leaf_measures
    return math.fsum(terms[terms != 0.0].tolist())  # zeros add nothing; fsum is slow per term


def _sum_rows(index, rows, size) -> np.ndarray:
    """`rows` summed by `index`: a vector (n,) into (size,), or the rows of an (n x k)
    array into (size x k) through one flat index. Each sum adds in row order, so a
    column comes out with the bits of the same column summed alone."""
    if rows.ndim == 1:
        return np.bincount(index, rows, size)
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, rows.ravel(), minlength=size * k).reshape(size, k)


def cascade_pairs(cascade, partition, keys) -> tuple:
    """(pos1, pos2, w1, w2, pos12, w12): function k's coefficient is
    w1[k] c[pos1[k]] - w2[k] c[pos2[k]] on the `cascade` of a partition or subtree.

    Scaling first, as the root twice with weights 1 and 0; the atom (level, p, l1, l2)
    has the cascade positions of p's children l1 and l2, sqrt(b_l2) and sqrt(b_l1). The
    synthesis scatters through pos12 = (pos1, pos2) with weights w12 = (w1, -w2).
    """
    pos, _, _, sqrt_b, _ = cascade
    children_of, pos1, pos2 = partition.children_of, [0], [0]
    for _, p, l1, l2 in keys:
        kids = children_of(p)
        pos1.append(pos[kids[l1 - 1]])
        pos2.append(pos[kids[l2 - 1]])
    pos1, pos2 = np.array(pos1), np.array(pos2)
    w1, w2 = sqrt_b[pos2], sqrt_b[pos1]
    w2[0] = 0.0
    pairs = (pos1, pos2, w1, w2, np.concatenate((pos1, pos2)), np.concatenate((w1, -w2)))
    for x in pairs:
        x.flags.writeable = False
    return pairs


def cascade_analysis(cascade, pairs, c) -> np.ndarray:
    """Coefficients of every function from c, one row per cascade position: a vector
    for one signal, or one column per signal (blocks x k).

    The rows of blocks without children in the cascade hold their values on input;
    one bottom-up pass overwrites every other row with c_P = sum_i sqrt(b_i) c_Bi,
    and each function then takes w1 c[pos1] - w2 c[pos2]. The weights are broadcast
    against c once per call.
    """
    _, bounds, _, sqrt_b, local = cascade
    pos1, pos2, w1, w2 = pairs[:4]
    if c.ndim == 2:  # one column per signal: column views of the weights
        sqrt_b, w1, w2 = sqrt_b[:, None], w1[:, None], w2[:, None]
    for (s, e), (ps, pe), lp in zip(bounds[:0:-1], bounds[-2::-1], local[:0:-1]):
        c[ps:pe] = _sum_rows(lp, sqrt_b[s:e] * c[s:e], pe - ps)
    out = c[pos1]
    out *= w1
    second = c[pos2]
    second *= w2
    out -= second
    return out


def generator_keys(partition, parents) -> list:
    """The key of every generator of the given (level, parent id) pairs, in their order
    and, within a parent, in pair rank order."""
    children_of = partition.children_of
    return [(j, p, l1, l2) for j, p in parents for l1, l2 in _pairs(len(children_of(p)))]


class FrameletSystem:
    """The normalized root indicator plus generators for levels 0..depth-1.

    A system is its partition, its depth and `keys`, one (level, parent, l1, l2)
    int tuple per atom in atom order, which fixes the coefficient indexing used
    for serialization. Without `keys` it is the full system (`full` is true),
    whose keys are listed on first read in (level, parent id, pair rank) order
    and whose file is the tag `{"depth": d, "full": true}`. Immutable; `subset`
    derives restricted systems on the same partition.
    """

    def __init__(self, partition, depth, keys=None):
        self.partition = partition
        self.depth = depth
        self.full = keys is None
        if keys is not None:
            self.keys = tuple(keys)

    @cached_property
    def keys(self) -> tuple:
        """The full system's keys: every generator below `depth`, listed on first read."""
        levels = self.partition.levels
        return tuple(generator_keys(self.partition,
                                    ((j, p) for j in range(self.depth) for p in levels[j])))

    @property
    def atoms(self) -> tuple:
        """`keys` under its old name, kept only because the benchmark in `perfbench/`
        reads it; the library and the tests read `keys`."""
        return self.keys

    def __len__(self):
        """1 + the atom count; a full system's is Σ m(m-1)/2 over its parents' child
        counts m, with no key listed."""
        if not self.full:
            return 1 + len(self.keys)
        counts = (self.partition.child_counts(j) for j in range(self.depth))
        return 1 + sum(int((m * (m - 1) // 2).sum()) for m in counts)

    @cached_property
    def pairs(self) -> tuple:
        """`cascade_pairs` of the keys on the partition's cascade (computed once)."""
        return cascade_pairs(self.partition.cascade, self.partition, self.keys)

    def analysis(self, X) -> np.ndarray:
        """Inner products of leaf values X with every function, scaling first: one
        bottom-up pass. X is a vector for one signal (one value per leaf) or has one
        column per signal (leaves x k); the result has the same shape, one row per
        function."""
        cascade, scale = self.partition.cascade, self.partition.leaf_scale
        _, bounds, parent, _, _ = cascade
        c = np.empty((len(parent),) + X.shape[1:])
        c[bounds[-1][0]:] = X * (scale if X.ndim == 1 else scale[:, None])
        return cascade_analysis(cascade, self.pairs, c)

    def synthesis(self, A) -> np.ndarray:
        """Leaf values of the sum of the functions weighted by A (one row per function,
        scaling first): one top-down pass, the transpose of `analysis`. A is a vector
        for one signal or has one column per signal; the result has the same shape."""
        _, bounds, parent, sqrt_b, _ = self.partition.cascade
        pos12, w12 = self.pairs[4:]
        scale = self.partition.leaf_scale
        if A.ndim == 2:  # one column per signal: column views of the weights
            sqrt_b, w12, scale = sqrt_b[:, None], w12[:, None], scale[:, None]
        d = _sum_rows(pos12, w12 * np.concatenate((A, A)), len(parent))
        for s, e in bounds[1:]:
            d[s:e] += sqrt_b[s:e] * d[parent[s:e]]
        return d[bounds[-1][0]:] / scale

    def counts_by_level(self) -> list:
        counts = [0] * self.depth
        for level, *_ in self.keys:
            counts[level] += 1
        return counts

    def subset(self, keys) -> "FrameletSystem":
        """The system of the given keys, on the same partition and depth."""
        return FrameletSystem(self.partition, self.depth, keys)

    def moments(self) -> tuple:
        """(integral, squared norm, cross-scale value) of every function, scaling first, from
        the cascade in O(blocks). The cross-scale value of an atom is the largest |inner
        product| with a function of a coarser level (0 for the scaling function).

        With N[B] the squared norm of the synthesis of block B's unit vector (1 at the
        leaves, sum of s_c^2 N[c] over B's children, s = sqrt(b)) and M[B] the largest
        |value| a function of a level above B's takes at B, an atom with blocks B1, B2
        under P has squared norm w1^2 N[B1] + w2^2 N[B2] and cross-scale value
        M[P] |w1 s_B1 N[B1] - w2 s_B2 N[B2]|: sibling syntheses have disjoint supports.
        """
        _, bounds, parent, sqrt_b, local = self.partition.cascade
        pos1, pos2, w1, w2 = self.pairs[:4]
        integrals = self.analysis(np.ones(len(self.partition.leaf_ids)))
        N = np.ones(len(parent))
        for (s, e), (ps, pe), lp in zip(bounds[:0:-1], bounds[-2::-1], local[:0:-1]):
            N[ps:pe] = np.bincount(lp, sqrt_b[s:e] ** 2 * N[s:e], pe - ps)
        M = np.zeros(len(parent))
        np.maximum.at(M, pos1, np.abs(w1))
        np.maximum.at(M, pos2, np.abs(w2))
        for s, e in bounds[1:]:
            M[s:e] = np.maximum(M[s:e], sqrt_b[s:e] * M[parent[s:e]])
        norms = w1 ** 2 * N[pos1] + w2 ** 2 * N[pos2]
        cross = np.abs(w1 * sqrt_b[pos1] * N[pos1] - w2 * sqrt_b[pos2] * N[pos2])
        cross[1:] *= M[parent[pos1[1:]]]
        cross[0] = 0.0  # the scaling function has no coarser partner
        return integrals, norms, cross

    def to_json(self) -> dict:
        """The full system as its tag, any other system as its listed keys."""
        if self.full:
            return {"depth": self.depth, "full": True}
        return {"depth": self.depth,
                "atoms": [list(k) for k in self.keys]}

    @classmethod
    def from_json(cls, partition, obj) -> "FrameletSystem":
        """Read `to_json` output: the full-system tag, whose `full` must be true and which
        lists no atoms, or atom keys that must each be a distinct generator of the
        partition."""
        try:
            depth = strict_int(obj["depth"], "system JSON: depth")
            full = "full" in obj
            if full and obj["full"] is not True:
                raise ParseError(f"system JSON: 'full' must be true, got {obj['full']!r}")
            if full and "atoms" in obj:
                raise ParseError("system JSON: a full system lists no 'atoms'")
            keys = [] if full else [
                tuple(strict_int(x, "system JSON: atom field") for x in (j, p, l1, l2))
                for j, p, l1, l2 in obj["atoms"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed system JSON: {exc}") from exc
        if not 0 <= depth <= partition.depth:
            raise ValidationError(
                f"system depth {depth} is outside 0..{partition.depth}, the partition's depth")
        if full:
            return cls(partition, depth)
        seen = set()
        for key in keys:
            level, parent = key[:2]
            if key in seen:
                raise ValidationError(f"atom {key} appears more than once")
            try:
                at = partition.level(parent)
            except KeyError:
                raise ValidationError(f"atom {key}: the partition has no block {parent}") from None
            if level != at:
                raise ValidationError(f"atom {key}: block {parent} is at level {at}")
            if level >= depth:
                raise ValidationError(f"atom {key}: level {level} is not below depth {depth}")
            seen.add(key)
        for _, parent, l1, l2 in keys:
            m = len(partition.children_of(parent))
            if not 1 <= l1 < l2 <= m:
                raise BadPair(f"pair ({l1}, {l2}) out of range for parent {parent} with {m} children")
        return cls(partition, depth, keys)


def build_system(partition, depth=None) -> FrameletSystem:
    """Cut-off framelet system on the partition, generators for levels < depth.

    Its keys are listed when first read."""
    if depth is None:
        depth = partition.depth
    if depth > partition.depth:
        raise ValueError(f"system depth {depth} exceeds partition depth {partition.depth}")
    return FrameletSystem(partition, depth)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Analysis coefficients: scaling coefficient plus one value per atom."""

    system: FrameletSystem
    c0: float
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != (len(self.system.keys),):
            raise IndexMismatch("coefficient count does not match the system")

    def energy(self) -> float:
        c = self.coefficients  # einsum, not np.dot: no BLAS threads for one dot product
        return self.c0 ** 2 + float(np.einsum("i,i", c, c))


def analyze(system: FrameletSystem, f: PwcFunction) -> CoefficientVector:
    """Inner products of f against every system function, by `FrameletSystem.analysis`."""
    if f.partition != system.partition:
        raise PartitionMismatch("signal lives on a different partition")
    c = system.analysis(f.vector)
    return CoefficientVector(system, float(c[0]), c[1:])


def synthesize(system: FrameletSystem, cv: CoefficientVector) -> PwcFunction:
    """Coefficient-weighted sum of the system functions, by `FrameletSystem.synthesis`."""
    if cv.system is not system:
        if cv.system.partition != system.partition:
            raise PartitionMismatch("coefficients come from a system on a different partition")
        if (cv.system.depth, cv.system.keys) != (system.depth, system.keys):
            raise IndexMismatch("coefficients indexed by a different system")
    vec = system.synthesis(np.concatenate(([cv.c0], cv.coefficients)))
    return PwcFunction(system.partition, vec)


SCALING_KEY = (-1, 0, 0, 0)  # the coefficient CSV's row for the scaling function


def coefficients_to_csv(cv: CoefficientVector, fh) -> None:
    """Rows (level, parent, l1, l2, value); the scaling row is (-1, 0, 0, 0, c0)."""
    w = csv.writer(fh)
    w.writerow(["level", "parent", "l1", "l2", "value"])
    w.writerow([*SCALING_KEY, "%.17g" % cv.c0])
    for key, c in zip(cv.system.keys, cv.coefficients):
        w.writerow([*key, "%.17g" % c])


def coefficients_from_csv(system: FrameletSystem, fh) -> CoefficientVector:
    """Read the rows coefficients_to_csv writes; a malformed or repeated row, or a level -1
    row other than the scaling row, is a ParseError, and a missing row an IndexMismatch."""
    reader = csv.reader(fh)
    got = {}
    for row in reader:
        if not row or (row[0] == "level" and not got):  # blank or header
            continue
        where = f"line {reader.line_num}"
        if len(row) != 5:
            raise ParseError(f"{where}: expected 5 fields (level, parent, l1, l2, value), "
                             f"got {len(row)}")
        try:
            key = tuple(int(x) for x in row[:4])
            value = float(row[4])
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{where}: value {row[4]!r} is not finite")
        if key[0] == -1 and key != SCALING_KEY:
            raise ParseError(f"{where}: a level -1 row is the scaling row {SCALING_KEY}, "
                             f"got {key}")
        if key in got:
            raise ParseError(f"{where}: coefficient {key} appears more than once")
        got[key] = value
    if SCALING_KEY not in got:
        raise IndexMismatch(f"coefficient rows have no scaling row {SCALING_KEY}")
    c0 = got.pop(SCALING_KEY)
    keys = system.keys
    if set(got) != set(keys):
        raise IndexMismatch("coefficient rows do not match the system's atoms")
    return CoefficientVector(system, c0, np.array([got[k] for k in keys]))
