"""Digraph-to-unit-square embeddings and system restriction/pruning.

A coarse-grained chain turns into a hierarchical partition of [0,1]: each
node's interval is split among its children proportionally to their
degrees, children ordered by smallest original vertex. Two chains tensor
into a 2-D partition, each vertex lands on one finest-level block, and the
framelet system can then be restricted to the atoms that actually see a
vertex block and further thinned at the finest level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (DepthMismatch, ParseError, PartitionMismatch, UnknownVertex,
                     ValidationError, ZeroDegreeCluster, strict_int)
from .framelets import (RANK_TOL, FrameletSystem, PwcFunction, cascade_analysis,
                        cascade_pairs, generator_keys)
from .graphs import Chain, Graph
from .hierarchy import HierarchicalPartition, refine_interval_level, tensor_partitions


@dataclass(frozen=True, eq=False)
class IntervalEmbedding:
    """1-D partition of a chain plus, per level, the node -> block id map.

    node_blocks[j][k] is the interval block at partition level j carrying
    node k of the chain's graph at coarsening level j (level 0 = root).
    """

    partition: HierarchicalPartition
    node_blocks: tuple

    def leaf_block(self, vertex) -> int:
        return self.node_blocks[-1][vertex]


def chain_to_intervals(chain: Chain) -> IntervalEmbedding:
    """Degree-proportional interval embedding of a coarse-grained chain.

    Endpoints are exact rationals computed on integers: each level's float
    degrees are integers over the level's common power-of-two denominator
    (their exact binary expansions), and a child's right endpoint is one
    `Fraction` a + (b - a) * (prefix sum of degrees) / (total degree) of its
    parent's [a, b]. Children are laid out in tree order, which is the order
    of their intervals, so block ids follow positions. `refine_interval_level`
    validates every level. A cluster whose children have zero total degree
    raises ZeroDegreeCluster, and so, after that check, does any node below
    the coarsest level with zero degree, as in `Chain.validate`.
    """
    if chain.graphs[-1].n != 1:
        raise ValueError("chain must end in a single-node graph")
    # bottom up: each node's children, ordered by their smallest original vertex
    first = list(range(chain.graphs[0].n))  # smallest original vertex of each node
    kids_of = []
    for pmap, coarse in zip(chain.parents, chain.graphs[1:]):
        kids, pmap = [[] for _ in range(coarse.n)], pmap.tolist()
        for u in sorted(range(len(first)), key=first.__getitem__):
            kids[pmap[u]].append(u)
        first = [first[ks[0]] if ks else len(pmap) for ks in kids]  # empty: raises below
        kids_of.append(kids)
    # top down: each node's interval splits among its children by degree; a level is
    # its nodes in tree order and the cut points between their intervals
    order, cuts = [0], [Fraction(0), Fraction(1)]
    orders, levels = [order], [list(zip(cuts, cuts[1:]))]
    zero_degree = False
    for j, kids in enumerate(reversed(kids_of), start=1):
        degs = _integer_degrees(chain.graphs[-1 - j].degrees())
        totals = [sum(degs[u] for u in ks) for ks in kids]
        if 0 in totals:
            raise ZeroDegreeCluster(f"children of node {totals.index(0)} at level {j - 1} "
                                    f"have zero total degree")
        zero_degree = zero_degree or 0 in degs
        next_order, next_cuts = [], [cuts[0]]
        for k, a, b in zip(order, cuts, cuts[1:]):
            # a + (b - a) * s / total over the common denominator of a, b and total
            ks, total = kids[k], totals[k]
            base = a.numerator * b.denominator * total
            scale = b.numerator * a.denominator - a.numerator * b.denominator
            den = a.denominator * b.denominator * total
            s = 0
            for u in ks[:-1]:
                s += degs[u]
                next_cuts.append(Fraction(base + scale * s, den))
            next_cuts.append(b)
            next_order += ks
        order, cuts = next_order, next_cuts
        orders.append(order)
        levels.append(list(zip(cuts, cuts[1:])))
    if zero_degree:
        chain.check_degrees()  # raises: some node got an empty interval
    partition = refine_interval_level(levels)  # ids run through each level in tree order
    node_blocks = []
    for nodes, ids in zip(orders, partition.levels):
        block_of = [0] * len(nodes)
        for k, b in zip(nodes, ids):
            block_of[k] = b
        node_blocks.append(tuple(block_of))
    return IntervalEmbedding(partition, tuple(node_blocks))


def _integer_degrees(degrees) -> list:
    """Non-negative float degrees as integers over their common power-of-two denominator."""
    ratios = [d.as_integer_ratio() for d in degrees.tolist()]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


@dataclass(frozen=True, eq=False)
class VertexBlockMap:
    """Vertex -> finest-level block of the 2-D tensor partition."""

    partition: HierarchicalPartition
    labels: tuple
    blocks: tuple

    @cached_property
    def leaf_positions(self) -> np.ndarray:
        """Read-only position in the partition's `leaf_ids` of each vertex block, in
        `labels` order (computed once)."""
        leaf_position = self.partition.leaf_position
        pos = np.array([leaf_position(b) for b in self.blocks], dtype=np.intp)
        pos.flags.writeable = False
        return pos

    @cached_property
    def effective(self) -> frozenset:
        """The vertex blocks and their ancestors: since children tile their parent, these
        are exactly the blocks that meet a vertex block in positive measure."""
        return self._vertex_cascade[1]

    @cached_property
    def cascade(self) -> tuple:
        """The cascade of the effective blocks and the children of the effective non-leaf
        blocks, level by level in id order: the part of the tree on which a vertex signal
        or a restricted atom is not zero."""
        return self._vertex_cascade[0]

    @cached_property
    def _vertex_cascade(self) -> tuple:
        return self.partition.vertex_cascade(self.blocks)

    def block_of(self, label) -> int:
        try:
            return self.blocks[self.labels.index(label)]
        except ValueError:
            raise UnknownVertex(f"no vertex labelled {label!r}") from None

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "blocks": {lab: b for lab, b in zip(self.labels, self.blocks)}}

    @classmethod
    def from_json(cls, partition, obj) -> "VertexBlockMap":
        try:
            labels = tuple(str(x) for x in obj["labels"])
            blocks = tuple(strict_int(obj["blocks"][lab], f"vertex block map JSON: block of {lab!r}")
                           for lab in labels)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed vertex block map JSON: {exc}") from exc
        repeated = sorted(lab for lab, k in Counter(labels).items() if k > 1)
        if repeated:
            raise ValidationError(f"vertex labels appear more than once: {repeated}")
        counts = Counter(blocks)
        bad = sorted(b for b in counts if not _is_leaf(partition, b))
        if bad:
            raise ValidationError(f"vertex blocks are not leaves of the partition: {bad}")
        repeated = sorted(b for b, k in counts.items() if k > 1)
        if repeated:
            raise ValidationError(f"vertex blocks shared by several labels: {repeated}")
        return cls(partition, labels, blocks)


def _is_leaf(partition, b) -> bool:
    try:
        partition.leaf_position(b)
    except KeyError:
        return False
    return True


def digraph_embedding(g: Graph, chain_x: Chain, chain_y: Chain) -> tuple:
    """Tensor the two chain embeddings and locate every vertex block.

    The chains must already be padded to a common depth and share the
    digraph's vertex set.
    """
    if chain_x.depth != chain_y.depth:
        raise DepthMismatch(
            f"chain depths differ: {chain_x.depth} vs {chain_y.depth}; pad first")
    if (chain_x.finest.labels != tuple(g.labels)
            or chain_y.finest.labels != tuple(g.labels)):
        raise ValueError("chains do not cover the digraph's vertex set")
    ex = chain_to_intervals(chain_x)
    ey = chain_to_intervals(chain_y)
    tensor = tensor_partitions(ex.partition, ey.partition)
    nx = len(ex.partition.leaf_ids)
    blocks = []
    for v in range(g.n):
        kx = ex.partition.leaf_position(ex.leaf_block(v))
        ky = ey.partition.leaf_position(ey.leaf_block(v))
        blocks.append(tensor.leaf_ids[ky * nx + kx])
    return tensor, VertexBlockMap(tensor, tuple(g.labels), tuple(blocks))


def signal_to_function(signal, vbm: VertexBlockMap) -> PwcFunction:
    """Embed vertex values as a piecewise-constant function on the square.

    `signal` is a mapping label -> value or an iterable in vertex order; it
    must cover every vertex and name no unknown ones. An entry of an iterable
    is one number or anything holding exactly one.
    """
    if isinstance(signal, dict):
        unknown = set(signal) - set(vbm.labels)
        if unknown:
            raise UnknownVertex(f"unknown vertex labels: {sorted(unknown)}")
        missing = set(vbm.labels) - set(signal)
        if missing:
            raise UnknownVertex(f"signal misses vertices: {sorted(missing)}")
        values = [float(signal[lab]) for lab in vbm.labels]
    else:
        values = _entry_values(signal)
        if len(values) != len(vbm.labels):
            raise UnknownVertex(
                f"signal has {len(values)} entries for {len(vbm.labels)} vertices")
    vec = np.zeros(len(vbm.partition.leaf_ids))
    vec[vbm.leaf_positions] = values
    return PwcFunction(vbm.partition, vec)


def _entry_values(signal) -> np.ndarray:
    """One float per entry of a sequence, array or iterator: numeric arrays convert at once,
    anything else goes through `float()` entry by entry, with its errors."""
    entries = signal if isinstance(signal, np.ndarray) else list(signal)
    try:
        values = np.asarray(entries)
    except ValueError:  # ragged entries
        values = None
    if values is None or values.dtype.kind not in "biuf" or values.size != len(entries):
        values = [float(x) for x in entries]
    return np.asarray(values, dtype=float).reshape(len(entries))


def function_to_signal(f: PwcFunction, vbm: VertexBlockMap) -> dict:
    """Read a function back at the vertex blocks, label -> value."""
    if f.partition != vbm.partition:
        raise PartitionMismatch("function and vertex block map live on different partitions")
    return dict(zip(vbm.labels, f.vector[vbm.leaf_positions].tolist()))


def restrict_system(system: FrameletSystem, vbm: VertexBlockMap) -> FrameletSystem:
    """Keep the scaling function and each atom whose support meets a vertex block.

    A block meets a vertex block exactly when it is that block or one of its
    ancestors, so the kept atoms are those of effective parents (`vbm.effective`)
    with an effective child, in (level, parent id, pair rank) order. Of a full
    system only the effective parents' keys are listed. The result is still a
    tight frame for the span of the vertex indicators, since every dropped atom
    is orthogonal to it.
    """
    part, effective = system.partition, vbm.effective
    if system.full:
        parents = ((part.level(b), b) for b in effective)
        keys = generator_keys(part, sorted(jb for jb in parents if jb[0] < system.depth))
    else:
        keys = sorted(k for k in system.keys if k[1] in effective)
    kept = []
    for k in keys:
        kids = part.children_of(k[1])
        if kids[k[2] - 1] in effective or kids[k[3] - 1] in effective:
            kept.append(k)
    return FrameletSystem(part, system.depth, kept)


def prune_redundant(system: FrameletSystem, vbm: VertexBlockMap) -> tuple:
    """Thin a restricted system at its finest generator level.

    For each parent of finest-level atoms, keep the atoms whose two
    children both meet a vertex block, plus the pairings with the
    lowest-indexed ineffective child (one witness sibling), so a parent
    with a single effective child keeps exactly one atom. Coarser levels
    are left untouched; atoms come out grouped by (level, parent), each
    parent's in the input's order. Returns the thinned system and a report
    with its frame bounds and rank on the span of the vertex indicators.
    """
    children_of, effective = system.partition.children_of, vbm.effective
    finest = system.depth - 1
    allowed = {}  # finest parent -> the child positions its kept atoms pair
    for level, p, _, _ in system.keys:
        if level == finest and p not in allowed:
            kids = children_of(p)
            ok = {pos for pos, cid in enumerate(kids, start=1) if cid in effective}
            witness = next((pos for pos in range(1, len(kids) + 1) if pos not in ok), None)
            allowed[p] = ok if witness is None else ok | {witness}
    kept = sorted((k for k in system.keys
                   if k[0] != finest or (k[2] in allowed[k[1]] and k[3] in allowed[k[1]])),
                  key=lambda k: k[:2])
    pruned = FrameletSystem(system.partition, system.depth, kept)
    lo, hi, rank = vertex_span_bounds(pruned, vbm)
    report = {"frame_bounds": [lo, hi], "rank": rank,
              "counts": {"input": len(system), "pruned": len(pruned)}}
    return pruned, report


def vertex_span_bounds(system: FrameletSystem, vbm: VertexBlockMap) -> tuple:
    """Frame bounds and rank of a system on the span of the vertex indicators.

    The normalized vertex indicators are orthonormal (vertex blocks are
    disjoint), so the frame operator compresses to M^T M, with column v of
    M the analysis of indicator_v / sqrt(measure_v). That analysis runs on
    `vbm.cascade` from a unit value at each vertex leaf. An atom whose parent
    is not effective has both blocks outside that cascade; its row of M is
    zero, as on the whole tree, so it is left out.
    """
    cascade, effective = vbm.cascade, vbm.effective
    pos = cascade[0]
    pairs = cascade_pairs(cascade, system.partition, [k for k in system.keys if k[1] in effective])
    n = len(vbm.blocks)
    c = np.zeros((len(pos), n))
    c[[pos[b] for b in vbm.blocks], range(n)] = 1.0
    M = cascade_analysis(cascade, pairs, c)
    ev = np.linalg.eigvalsh(M.T @ M)
    rank = int((ev > RANK_TOL * max(ev[-1], 1e-300)).sum())
    return float(ev[0]), float(ev[-1]), rank
