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

import numpy as np

from .errors import (DepthMismatch, ParseError, PartitionMismatch, UnknownVertex,
                     ValidationError, ZeroDegreeCluster, strict_int)
from .framelets import RANK_TOL, FrameletSystem, PwcFunction
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

    Endpoints are exact rationals (float degrees convert via their binary
    expansion, integer degrees stay integers). A cluster whose children
    have zero total degree raises ZeroDegreeCluster.
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
    # top down: each node's interval splits among its children by degree
    node_iv = [[(Fraction(0), Fraction(1))]]
    for j, kids in enumerate(reversed(kids_of), start=1):
        degs = [Fraction(float(d)) for d in chain.graphs[-1 - j].degrees()]
        intervals = [None] * len(degs)
        for k, ((a, b), ks) in enumerate(zip(node_iv[-1], kids)):
            total = sum((degs[u] for u in ks), Fraction(0))
            if total == 0:
                raise ZeroDegreeCluster(
                    f"children of node {k} at level {j - 1} have zero total degree")
            cur = a
            for u in ks:
                width = (b - a) * degs[u] / total
                intervals[u] = (cur, cur + width)
                cur += width
        node_iv.append(intervals)
    levels = [sorted(level) for level in node_iv]
    partition = refine_interval_level(levels)  # ids run through each level in sorted order
    node_blocks = []
    for ivs, ids, level in zip(levels, partition.levels, node_iv):
        block_of = dict(zip(ivs, ids))
        node_blocks.append(tuple(block_of[iv] for iv in level))
    return IntervalEmbedding(partition, tuple(node_blocks))


@dataclass(frozen=True, eq=False)
class VertexBlockMap:
    """Vertex -> finest-level block of the 2-D tensor partition."""

    partition: HierarchicalPartition
    labels: tuple
    blocks: tuple

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
        bad = sorted(b for b in counts if b not in partition.leaf_index)
        if bad:
            raise ValidationError(f"vertex blocks are not leaves of the partition: {bad}")
        repeated = sorted(b for b, k in counts.items() if k > 1)
        if repeated:
            raise ValidationError(f"vertex blocks shared by several labels: {repeated}")
        return cls(partition, labels, blocks)


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
        kx = ex.partition.leaf_index[ex.leaf_block(v)]
        ky = ey.partition.leaf_index[ey.leaf_block(v)]
        blocks.append(tensor.leaf_ids[ky * nx + kx])
    return tensor, VertexBlockMap(tensor, tuple(g.labels), tuple(blocks))


def signal_to_function(signal, vbm: VertexBlockMap) -> PwcFunction:
    """Embed vertex values as a piecewise-constant function on the square.

    `signal` is a mapping label -> value or a sequence in vertex order; it
    must cover every vertex and name no unknown ones.
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
        values = [float(x) for x in signal]
        if len(values) != len(vbm.labels):
            raise UnknownVertex(
                f"signal has {len(values)} entries for {len(vbm.labels)} vertices")
    vec = np.zeros(len(vbm.partition.leaf_ids))
    vec[[vbm.partition.leaf_index[b] for b in vbm.blocks]] = values
    return PwcFunction(vbm.partition, vec)


def function_to_signal(f: PwcFunction, vbm: VertexBlockMap) -> dict:
    """Read a function back at the vertex blocks, label -> value."""
    if f.partition != vbm.partition:
        raise PartitionMismatch("function and vertex block map live on different partitions")
    pos = f.partition.leaf_index
    return {lab: float(f.vector[pos[b]]) for lab, b in zip(vbm.labels, vbm.blocks)}


def _effective_blocks(partition, vertex_blocks) -> set:
    """The vertex blocks and their ancestors: since children tile their parent,
    these are exactly the blocks that meet a vertex block in positive measure."""
    seen = set()
    for b in vertex_blocks:
        while b is not None and b not in seen:
            seen.add(b)
            b = partition.parent.get(b)
    return seen


def restrict_system(system: FrameletSystem, vbm: VertexBlockMap) -> FrameletSystem:
    """Keep the scaling function and each atom whose support meets a vertex block.

    A block meets a vertex block exactly when it is that block or one of its
    ancestors. The result is still a tight frame for the span of the vertex
    indicators, since every dropped atom is orthogonal to it.
    """
    effective = _effective_blocks(system.partition, vbm.blocks)
    return system.subset(a for a in system.atoms
                         if a.block1 in effective or a.block2 in effective)


def prune_redundant(system: FrameletSystem, vbm: VertexBlockMap) -> tuple:
    """Thin a restricted system at its finest generator level.

    For each parent of finest-level atoms, keep the atoms whose two
    children both meet a vertex block, plus the pairings with the
    lowest-indexed ineffective child (one witness sibling), so a parent
    with a single effective child keeps exactly one atom. Coarser levels
    are left untouched. Returns the thinned system and a report with its
    frame bounds and rank on the span of the vertex indicators.
    """
    part = system.partition
    effective = _effective_blocks(part, vbm.blocks)
    finest = system.depth - 1
    kept = []
    by_parent = {}
    for a in system.atoms:
        by_parent.setdefault((a.level, a.parent), []).append(a)
    for (level, parent), atoms in sorted(by_parent.items()):
        if level != finest:
            kept.extend(atoms)
            continue
        kids = part.children[parent]
        allowed = {pos for pos, cid in enumerate(kids, start=1) if cid in effective}
        witness = next((pos for pos, cid in enumerate(kids, start=1)
                        if pos not in allowed), None)
        if witness is not None:
            allowed.add(witness)
        kept.extend(a for a in atoms if a.l1 in allowed and a.l2 in allowed)
    pruned = system.subset(kept)
    lo, hi, rank = vertex_span_bounds(pruned, vbm)
    report = {"frame_bounds": [lo, hi], "rank": rank,
              "counts": {"input": len(system), "pruned": len(pruned)}}
    return pruned, report


def vertex_span_bounds(system: FrameletSystem, vbm: VertexBlockMap) -> tuple:
    """Frame bounds and rank of a system on the span of the vertex indicators.

    The normalized vertex indicators are orthonormal (vertex blocks are
    disjoint), so the frame operator compresses to M^T M, with column v of
    M the analysis of indicator_v / sqrt(measure_v).
    """
    part = system.partition
    cols = [part.leaf_index[b] for b in vbm.blocks]
    X = np.zeros((len(part.leaf_ids), len(cols)))
    X[cols, range(len(cols))] = 1.0 / np.sqrt(part.leaf_measures[cols])
    M = system.analysis(X)
    ev = np.linalg.eigvalsh(M.T @ M)
    rank = int((ev > RANK_TOL * max(ev[-1], 1e-300)).sum())
    return float(ev[0]), float(ev[-1]), rank
