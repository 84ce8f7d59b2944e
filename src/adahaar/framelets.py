"""Haar-type tight framelet systems on hierarchical partitions.

Every parent block with c >= 2 children contributes one generator per
unordered child pair: the signed combination of the two normalized child
indicators that integrates to zero. Together with the normalized root
indicator these form a tight frame for the span of the finest-level
indicators; when every split is binary the system is an orthonormal basis.

An atom is a key, a parent block and a pair of its children: its heights
(from the split weights), its leaf values, the scaling function and the leaf
measures come from the partition. Inner products sum over weighted leaves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (BadPair, BadWeights, DegenerateSpan, IndexMismatch,
                     ParseError, PartitionMismatch, ValidationError, strict_int)
from .hierarchy import HierarchicalPartition

RANK_TOL = 1e-10


def pair_to_flat(i1: int, i2: int, m: int) -> int:
    """Rank of the pair (i1, i2), 1 <= i1 < i2 <= m, in lexicographic order.

    Bijection onto 1..m(m-1)/2; see flat_to_pair for the inverse.
    """
    if not (1 <= i1 < i2 <= m):
        raise BadPair(f"need 1 <= i1 < i2 <= m, got ({i1}, {i2}) with m={m}")
    return (2 * m - i1) * (i1 - 1) // 2 + i2 - i1


def flat_to_pair(i: int, m: int) -> tuple:
    """Inverse of pair_to_flat."""
    n = m * (m - 1) // 2
    if not (1 <= i <= n):
        raise BadPair(f"flat index {i} out of range 1..{n}")
    i1 = 1
    while (2 * m - i1) * (i1 - 1) // 2 + (m - i1) < i:
        i1 += 1
    i2 = i - (2 * m - i1) * (i1 - 1) // 2 + i1
    return i1, i2


def refinement_matrix(b) -> np.ndarray:
    """Column-orthogonal matrix coupling a parent split to its detail pairs.

    For m positive weights b summing to 1 the matrix has shape
    (1 + m(m-1)/2, m): row 0 is sqrt(b), and the row of pair (i1, i2) holds
    sqrt(b[i2]) at column i1 and -sqrt(b[i1]) at column i2. Its transpose is
    a left inverse, which is what makes the generated systems tight.
    """
    b = np.asarray(b, dtype=float)
    m = b.size
    if m < 1 or np.any(b <= 0.0):
        raise BadWeights("weights must be positive")
    if abs(b.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {b.sum()!r}, not 1")
    n = m * (m - 1) // 2
    A = np.zeros((n + 1, m))
    A[0] = np.sqrt(b)
    for i1, i2 in combinations(range(1, m + 1), 2):
        r = pair_to_flat(i1, i2, m)
        A[r, i1 - 1] = math.sqrt(b[i2 - 1])
        A[r, i2 - 1] = -math.sqrt(b[i1 - 1])
    return A


@dataclass(frozen=True, eq=False)
class PwcFunction:
    """Piecewise-constant function as values on finest-level blocks (absent = 0)."""

    partition: HierarchicalPartition
    values: dict

    def __post_init__(self):
        bad = [k for k in self.values if k not in self.partition.leaf_index]
        if bad:
            raise ValueError(f"values keyed by non-leaf blocks: {bad[:5]}")

    def to_vector(self) -> np.ndarray:
        return np.array([self.values.get(b, 0.0) for b in self.partition.leaf_ids])

    @classmethod
    def from_vector(cls, partition, vec) -> "PwcFunction":
        return cls(partition, dict(zip(partition.leaf_ids, map(float, vec))))


def inner_product(f: PwcFunction, g: PwcFunction) -> float:
    """L2 inner product: sum over leaves of f*g weighted by leaf measure."""
    if f.partition != g.partition:
        raise PartitionMismatch("functions live on different partitions")
    if len(g.values) < len(f.values):
        f, g = g, f
    mu, pos = f.partition.leaf_measures, f.partition.leaf_index
    return math.fsum(v * g.values.get(k, 0.0) * mu[pos[k]] for k, v in f.values.items())


def norm2(f: PwcFunction) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


@dataclass(frozen=True, eq=False)
class FrameletAtom:
    """One generator: supported on two sibling blocks, zero integral.

    l1 < l2 are 1-based positions within the parent's child list; block1 and
    block2 are the corresponding block ids, where `heights` gives its values.
    """

    partition: HierarchicalPartition
    level: int
    parent: int
    l1: int
    l2: int
    block1: int
    block2: int

    @property
    def key(self) -> tuple:
        return (self.level, self.parent, self.l1, self.l2)

    @property
    def heights(self) -> tuple:
        """+-sqrt(sibling's split weight / own measure) on block1, block2; exact before the sqrt."""
        b, blocks = self.partition.split_weights[self.parent], self.partition.blocks
        return (math.sqrt(float(b[self.l2 - 1] / blocks[self.block1].measure)),
                -math.sqrt(float(b[self.l1 - 1] / blocks[self.block2].measure)))

    @property
    def function(self) -> PwcFunction:
        h1, h2 = self.heights
        values = {leaf: h1 for leaf in self.partition.leaves_under(self.block1)}
        values.update({leaf: h2 for leaf in self.partition.leaves_under(self.block2)})
        return PwcFunction(self.partition, values)


def make_atom(partition, level, parent, l1, l2) -> FrameletAtom:
    kids = partition.children[parent]
    m = len(kids)
    if not (1 <= l1 < l2 <= m):
        raise BadPair(f"pair ({l1}, {l2}) out of range for parent {parent} with {m} children")
    return FrameletAtom(partition, level, parent, l1, l2, kids[l1 - 1], kids[l2 - 1])


def build_generators(partition, parent) -> list:
    """All child-pair generators of one parent block, in flat pair order."""
    level = partition.level_of[parent]
    m = len(partition.children[parent])
    return [make_atom(partition, level, parent, l1, l2)
            for l1, l2 in combinations(range(1, m + 1), 2)]


class FrameletSystem:
    """The normalized root indicator plus generators for levels 0..depth-1.

    Immutable; `subset` derives restricted systems on the same partition.
    Atom order is (level, parent id, pair rank), which fixes the
    coefficient indexing used for serialization.
    """

    def __init__(self, partition, depth, atoms):
        self.partition = partition
        self.depth = depth
        self.atoms = tuple(atoms)
        self._matrix = None

    def __len__(self):
        return 1 + len(self.atoms)

    @property
    def scaling(self) -> PwcFunction:
        """The normalized indicator of the root block."""
        v = 1.0 / math.sqrt(float(self.partition.measure))
        return PwcFunction(self.partition, {leaf: v for leaf in self.partition.leaf_ids})

    def functions(self):
        """The scaling function followed by every atom function."""
        yield self.scaling
        for a in self.atoms:
            yield a.function

    def counts_by_level(self) -> list:
        counts = [0] * self.depth
        for a in self.atoms:
            counts[a.level] += 1
        return counts

    def subset(self, atoms) -> "FrameletSystem":
        return FrameletSystem(self.partition, self.depth, atoms)

    def function_matrix(self) -> np.ndarray:
        """Row per function, column per leaf of the partition (cached)."""
        if self._matrix is None:
            self._matrix = np.vstack([f.to_vector() for f in self.functions()])
            self._matrix.setflags(write=False)
        return self._matrix

    def to_json(self) -> dict:
        return {"depth": self.depth,
                "atoms": [[a.level, a.parent, a.l1, a.l2] for a in self.atoms]}

    @classmethod
    def from_json(cls, partition, obj) -> "FrameletSystem":
        """Read `to_json` output; each atom key must be a distinct generator of the partition."""
        try:
            depth = strict_int(obj["depth"], "system JSON: depth")
            keys = [tuple(strict_int(x, "system JSON: atom field") for x in (j, p, l1, l2))
                    for j, p, l1, l2 in obj["atoms"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed system JSON: {exc}") from exc
        if not 0 <= depth <= partition.depth:
            raise ValidationError(
                f"system depth {depth} is outside 0..{partition.depth}, the partition's depth")
        seen = set()
        for key in keys:
            level, parent = key[:2]
            if key in seen:
                raise ValidationError(f"atom {key} appears more than once")
            if parent not in partition.level_of:
                raise ValidationError(f"atom {key}: the partition has no block {parent}")
            if level != partition.level_of[parent]:
                raise ValidationError(
                    f"atom {key}: block {parent} is at level {partition.level_of[parent]}")
            if level >= depth:
                raise ValidationError(f"atom {key}: level {level} is not below depth {depth}")
            seen.add(key)
        return cls(partition, depth, [make_atom(partition, *key) for key in keys])


def build_system(partition, depth=None) -> FrameletSystem:
    """Cut-off framelet system on the partition, generators for levels < depth."""
    if depth is None:
        depth = partition.depth
    if depth > partition.depth:
        raise ValueError(f"system depth {depth} exceeds partition depth {partition.depth}")
    atoms = []
    for j in range(depth):
        for parent in partition.levels[j]:
            atoms.extend(build_generators(partition, parent))
    return FrameletSystem(partition, depth, atoms)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Analysis coefficients: scaling coefficient plus one value per atom."""

    system: FrameletSystem
    c0: float
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != (len(self.system.atoms),):
            raise IndexMismatch("coefficient count does not match the system")

    def energy(self) -> float:
        return self.c0 ** 2 + float(np.dot(self.coefficients, self.coefficients))


def analyze(system: FrameletSystem, f: PwcFunction) -> CoefficientVector:
    """Inner products of f against every system function."""
    if f.partition != system.partition:
        raise PartitionMismatch("signal lives on a different partition")
    weighted = system.function_matrix() * system.partition.leaf_measures
    c = weighted @ f.to_vector()
    return CoefficientVector(system, float(c[0]), c[1:])


def synthesize(system: FrameletSystem, cv: CoefficientVector) -> PwcFunction:
    """Coefficient-weighted sum of the system functions."""
    if cv.system is not system and cv.system.to_json() != system.to_json():
        raise IndexMismatch("coefficients indexed by a different system")
    if cv.coefficients.shape != (len(system.atoms),):
        raise IndexMismatch("coefficient count does not match the system")
    vec = np.concatenate(([cv.c0], cv.coefficients)) @ system.function_matrix()
    return PwcFunction.from_vector(system.partition, vec)


def gram_matrix(system: FrameletSystem) -> np.ndarray:
    """Pairwise inner products of all system functions (scaling first)."""
    F = system.function_matrix()
    return (F * system.partition.leaf_measures) @ F.T


def frame_bounds(functions, space) -> tuple:
    """Extreme eigenvalues of the frame operator restricted to span(space).

    `functions` and `space` are PwcFunctions on one partition. The span
    basis is whitened through its Gram matrix first; a numerically rank
    deficient basis raises DegenerateSpan. Both bounds equal 1 exactly when
    the functions form a tight frame for the span.
    """
    if not functions or not space:
        raise ValueError("need non-empty function and span lists")
    part = space[0].partition
    for g in list(functions) + list(space):
        if g.partition != part:
            raise PartitionMismatch("all functions must share one partition")
    mu = part.leaf_measures
    S = np.vstack([g.to_vector() for g in space])
    F = np.vstack([f.to_vector() for f in functions])
    G = (S * mu) @ S.T
    w, U = np.linalg.eigh(G)
    if w[-1] <= 0 or w[0] < RANK_TOL * w[-1]:
        raise DegenerateSpan("span basis is numerically rank deficient")
    onb = (U / np.sqrt(w)).T @ S          # rows: orthonormal basis of the span
    T = (F * mu) @ onb.T                  # projections of each function
    ev = np.linalg.eigvalsh(T.T @ T)
    return float(ev[0]), float(ev[-1])


SCALING_KEY = (-1, 0, 0, 0)  # the coefficient CSV's row for the scaling function


def coefficients_to_csv(cv: CoefficientVector, fh) -> None:
    """Rows (level, parent, l1, l2, value); the scaling row is (-1, 0, 0, 0, c0)."""
    w = csv.writer(fh)
    w.writerow(["level", "parent", "l1", "l2", "value"])
    w.writerow([*SCALING_KEY, "%.17g" % cv.c0])
    for a, c in zip(cv.system.atoms, cv.coefficients):
        w.writerow([a.level, a.parent, a.l1, a.l2, "%.17g" % c])


def coefficients_from_csv(system: FrameletSystem, fh) -> CoefficientVector:
    """Read the rows coefficients_to_csv writes; a malformed or repeated row is a ParseError."""
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
        if key[0] == -1:
            key = SCALING_KEY
        if key in got:
            raise ParseError(f"{where}: coefficient {key} appears more than once")
        got[key] = value
    c0 = got.pop(SCALING_KEY, 0.0)
    keys = [a.key for a in system.atoms]
    if set(got) != set(keys):
        raise IndexMismatch("coefficient rows do not match the system's atoms")
    return CoefficientVector(system, c0, np.array([got[k] for k in keys]))
