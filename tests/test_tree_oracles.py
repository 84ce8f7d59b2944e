"""Tree-local validation, restriction and chain embedding against their oracles.

The library decides "do these blocks overlap?" among siblings only and
"does this block meet a vertex?" by ancestry. The functions below are the
exact-geometry versions that compare every pair of blocks on a level and
every block against every vertex block; they are kept here as oracles.
`chain_to_intervals` takes children from one inverse parent map per level;
the oracle scans every fine node per coarse node and orders children by the
member sets `Chain.members` rebuilds.
"""

from fractions import Fraction
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah
from adahaar import Chain, IntervalEmbedding, ZeroDegreeCluster, refine_interval_level
from adahaar.hierarchy import Block, HierarchicalPartition, Interval, PartitionReport, ZERO, ONE

from conftest import random_digraph, random_interval_levels
from oracles import atom_blocks


def pairwise_validate(p):
    """validate_partition comparing every pair of blocks on each level."""
    report = PartitionReport()
    for level in p.levels:
        total = sum((p.blocks[b].measure for b in level), ZERO)
        report.level_residuals.append(total - ONE)
        for a, b in combinations(level, 2):
            if p.blocks[a].intersection_measure(p.blocks[b]) > 0:
                report.overlaps.append((a, b))
    for child, par in p.parent.items():
        if not p.blocks[par].contains(p.blocks[child]):
            report.not_nested.append(child)
    for par, kids in p.children.items():
        if not kids:
            continue
        diff = sum((p.blocks[c].measure for c in kids), ZERO) - p.blocks[par].measure
        if diff != 0:
            report.bad_parents.append((par, diff))
    return report


def touches_vertices(partition, block_id, vbm):
    blk = partition.blocks[block_id]
    return any(blk.intersection_measure(partition.blocks[v]) > 0 for v in vbm.blocks)


def geometric_restrict_keys(system, vbm):
    part = system.partition
    return [key for key in system.keys
            if any(touches_vertices(part, b, vbm) for b in atom_blocks(part, key))]


def geometric_prune_keys(system, vbm):
    part = system.partition
    finest = system.depth - 1
    by_parent = {}
    for key in system.keys:
        by_parent.setdefault(key[:2], []).append(key)
    kept = []
    for (level, parent), keys in sorted(by_parent.items()):
        if level != finest:
            kept.extend(keys)
            continue
        kids = part.children[parent]
        allowed = {pos for pos, cid in enumerate(kids, start=1)
                   if touches_vertices(part, cid, vbm)}
        witness = next((pos for pos in range(1, len(kids) + 1) if pos not in allowed), None)
        if witness is not None:
            allowed.add(witness)
        kept.extend(k for k in keys if k[2] in allowed and k[3] in allowed)
    return kept


def chain_to_intervals_by_members(chain: Chain) -> IntervalEmbedding:
    """Degree-proportional interval embedding of a coarse-grained chain.

    Endpoints are exact rationals (float degrees convert via their binary
    expansion, integer degrees stay integers). A cluster whose children
    have zero total degree raises ZeroDegreeCluster.
    """
    J = chain.depth
    if chain.graphs[-1].n != 1:
        raise ValueError("chain must end in a single-node graph")
    node_iv = [[(Fraction(0), Fraction(1))]]
    for j in range(1, J + 1):
        fine = chain.graphs[J - j]
        coarse = chain.graphs[J - j + 1]
        pmap = chain.parents[J - j]
        members = chain.members(J - j)
        degs = [Fraction(float(d)) for d in fine.degrees()]
        intervals = [None] * fine.n
        for k in range(coarse.n):
            kids = sorted((u for u in range(fine.n) if pmap[u] == k),
                          key=lambda u: min(members[u]))
            total = sum((degs[u] for u in kids), Fraction(0))
            if total == 0:
                raise ZeroDegreeCluster(
                    f"children of node {k} at level {j - 1} have zero total degree")
            a, b = node_iv[j - 1][k]
            cur = a
            for u in kids:
                width = (b - a) * degs[u] / total
                intervals[u] = (cur, cur + width)
                cur += width
        node_iv.append(intervals)
    partition = refine_interval_level([sorted(level) for level in node_iv])
    node_blocks = []
    for j, level in enumerate(node_iv):
        lookup = {(blk.sides[0].lo, blk.sides[0].hi): bid
                  for bid in partition.levels[j]
                  for blk in [partition.blocks[bid]]}
        node_blocks.append(tuple(lookup[iv] for iv in level))
    return IntervalEmbedding(partition, tuple(node_blocks))


def assert_same_embedding(chain):
    got, expect = ah.chain_to_intervals(chain), chain_to_intervals_by_members(chain)
    assert got.partition.to_json() == expect.partition.to_json()
    assert got.node_blocks == expect.node_blocks


def renumbered(chain, rng):
    """The same chain with the nodes of every coarse level numbered at random,
    so that node order and smallest-vertex order differ."""
    graphs, parents = [chain.graphs[0]], []
    new_of = np.arange(chain.graphs[0].n)  # old node -> new node, previous level
    for pmap, g in zip(chain.parents, chain.graphs[1:]):
        perm = rng.permutation(g.n)
        new_pmap = np.empty_like(pmap)
        new_pmap[new_of] = perm[pmap]
        old = np.argsort(perm)
        graphs.append(ah.Graph(g.weights[np.ix_(old, old)], [g.labels[i] for i in old]))
        parents.append(new_pmap)
        new_of = perm
    out = Chain(graphs, parents)
    out.validate()
    return out


def test_toy_chain_embeddings_match_member_oracle(chain_x, chain_y):
    rng = np.random.default_rng(1)
    for chain in (chain_x, chain_y, ah.pad_chain(chain_x, 5)):
        assert_same_embedding(chain)
        assert_same_embedding(renumbered(chain, rng))


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [4, 5, 8, 13, 21, 34, 48])
def test_chain_embeddings_match_member_oracle(n, float_weights):
    g = random_digraph(np.random.default_rng([n, int(float_weights), 5]), n, float_weights)
    rng = np.random.default_rng([n, int(float_weights), 6])
    for sym in ah.symmetrize(g):
        chain = ah.build_chain(sym)
        assert_same_embedding(chain)
        assert_same_embedding(ah.pad_chain(chain, chain.depth + 2))
        shuffled = renumbered(chain, rng)
        assert_same_embedding(shuffled)
        if not float_weights:  # float degrees of a permuted matrix may differ in the last bit
            assert (ah.chain_to_intervals(shuffled).partition.to_json()
                    == ah.chain_to_intervals(chain).partition.to_json())
        # a coarse graph that is not its finer graph's coarse-graining still
        # embeds by its own degrees
        coarse = chain.graphs[-2]
        W = np.array(coarse.weights)
        W[0, 0] += 1.0
        chain.graphs[-2] = ah.Graph(W, coarse.labels)
        assert_same_embedding(chain)


def wide_range_graph(rng, n):
    """Connected undirected graph whose float weights span 1e-150..1e150, both ends
    included, so one level's degrees share a denominator of about 2^550."""
    adj = rng.random((n, n)) < 0.3
    path = rng.permutation(n)
    adj[path[:-1], path[1:]] = True
    W = np.triu(np.where(adj | adj.T, 10.0 ** rng.uniform(-150, 150, (n, n)), 0.0), 1)
    W += W.T
    for u, v, w in [(path[0], path[1], 1e-150), (path[1], path[2], 1e150)]:
        W[u, v] = W[v, u] = w
    return ah.Graph(W, [f"v{k}" for k in range(n)])


@pytest.mark.parametrize("n", [5, 12, 30])
def test_wide_range_float_weights_match_member_oracle(n):
    rng = np.random.default_rng([n, 150])
    chain = ah.build_chain(wide_range_graph(rng, n))
    chain.validate()
    assert_same_embedding(chain)
    assert_same_embedding(ah.pad_chain(chain, chain.depth + 1))
    part = ah.chain_to_intervals(chain).partition
    assert max(blk.sides[0].length.denominator.bit_length()
               for blk in part.blocks.values()) > 500


def chain_of(g, assignments):
    """The unvalidated chain of `g` coarse-grained by each assignment in turn."""
    graphs = [g]
    for assign in assignments:
        graphs.append(ah.coarse_grain(graphs[-1], ah.Clustering(assign)))
    return Chain(graphs, assignments)


def path_with_isolated(weights, isolated):
    """A weighted path followed by `isolated` vertices with no edges."""
    n = len(weights) + 1 + isolated
    W = np.zeros((n, n))
    for k, w in enumerate(weights):
        W[k, k + 1] = W[k + 1, k] = w
    return ah.Graph(W)


def pairing_chain(rng, m, isolated):
    """A random path on m vertices and `isolated` vertices without edges, merged
    pairwise at random, each group on its own, until both groups are one node; then
    the two merge. The isolated group is a cluster with zero total degree."""
    g = path_with_isolated(rng.uniform(0.1, 1.0, m - 1).round(3).tolist(), isolated)
    groups = [list(range(m)), list(range(m, m + isolated))]
    assignments = []
    while max(len(grp) for grp in groups) > 1:
        assign, new_groups, nxt = [0] * g.n, [], 0
        for grp in groups:
            perm = rng.permutation(grp).tolist()
            new = []
            for k in range(0, len(perm), 2):
                for u in perm[k:k + 2]:
                    assign[u] = nxt
                new.append(nxt)
                nxt += 1
            new_groups.append(new)
        assignments.append(assign[:sum(len(grp) for grp in groups)])  # group after group
        groups = new_groups
    assignments.append([0, 0])
    return chain_of(g, assignments)


def zero_total_chains():
    yield "all-zero-pair", chain_of(ah.Graph(np.zeros((2, 2))), [[0, 0]])
    # a zero-degree node (2 at level 1) in a positive cluster, then a zero-total cluster
    yield "zero-node-then-zero-cluster", chain_of(
        path_with_isolated([1.0, 2.0, 1.0], 2), [[0, 0, 1, 1, 2, 2], [0, 0, 0]])
    # a zero-degree vertex beside a zero-total cluster on the same level
    yield "zero-vertex-beside-zero-cluster", chain_of(
        path_with_isolated([1.0], 3), [[0, 1, 0, 2, 2], [0, 0, 0]])
    for seed in range(4):
        rng = np.random.default_rng([seed, 151])
        yield f"pairing-{seed}", pairing_chain(rng, int(rng.integers(2, 9)),
                                               int(rng.integers(1, 5)))


ZERO_TOTAL_CHAINS = dict(zero_total_chains())


@pytest.mark.parametrize("chain", ZERO_TOTAL_CHAINS.values(), ids=ZERO_TOTAL_CHAINS)
def test_zero_total_clusters_raise_the_oracle_error(chain):
    with pytest.raises(ZeroDegreeCluster) as got:
        ah.chain_to_intervals(chain)
    with pytest.raises(ZeroDegreeCluster) as expect:
        chain_to_intervals_by_members(chain)
    assert str(got.value) == str(expect.value)
    assert "zero total degree" in str(got.value)


def _shift_endpoint(draw, p, blocks, children):
    bid = draw(st.sampled_from(sorted(set(p.blocks) - {p.root})))
    k = draw(st.integers(0, p.dimension - 1))
    side = p.blocks[bid].sides[k]
    t = F(draw(st.integers(0, 6)), 7)
    if draw(st.booleans()):
        moved = Interval(side.lo, side.lo + (ONE - side.lo) * (1 - t))
    else:
        moved = Interval(side.hi * t, side.hi)
    sides = list(p.blocks[bid].sides)
    sides[k] = moved
    blocks[bid] = Block(bid, tuple(sides))


def _reattach_child(draw, p, blocks, children):
    # a block two or more levels down moves to a cousin's parent
    movable = [c for level in p.levels[2:] for c in level
               if len(p.levels[p.level_of[c] - 1]) > 1]
    if not movable:
        return
    c = draw(st.sampled_from(movable))
    old = p.parent[c]
    new = draw(st.sampled_from([q for q in p.levels[p.level_of[old]] if q != old]))
    children[old] = [x for x in children[old] if x != c]
    pos = draw(st.integers(0, len(children[new])))
    children[new] = children[new][:pos] + [c] + children[new][pos:]


@st.composite
def partitions(draw):
    """Random nested interval or tensor partitions, some corrupted on purpose."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        depth = draw(st.integers(1, 2))
        px, py = (ah.refine_interval_level(random_interval_levels(rng, depth))
                  for _ in range(2))
        p = ah.tensor_partitions(px, py)
    else:
        p = ah.refine_interval_level(random_interval_levels(rng, draw(st.integers(1, 3))))
    blocks = dict(p.blocks)
    children = {b: list(kids) for b, kids in p.children.items()}
    corrupt = draw(st.sampled_from([None, _shift_endpoint, _reattach_child]))
    if corrupt is not None:
        corrupt(draw, p, blocks, children)
    return HierarchicalPartition(p.dimension, p.levels, blocks, children), corrupt is None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(partitions())
def test_local_validation_agrees_with_pairwise(case):
    p, clean = case
    local, pairwise = ah.validate_partition(p), pairwise_validate(p)
    assert local.ok == pairwise.ok
    assert type(local.first_error()) is type(pairwise.first_error())
    assert set(local.overlaps) <= set(pairwise.overlaps)
    if not local.not_nested:
        assert bool(local.overlaps) == bool(pairwise.overlaps)
    if clean:
        assert local.ok


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", range(4, 13))
def test_restrict_and_prune_match_geometric_oracle(n, float_weights):
    g = random_digraph(np.random.default_rng([n, int(float_weights)]), n, float_weights)
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    partition, vbm = ah.digraph_embedding(g, ah.pad_chain(cx, depth), ah.pad_chain(cy, depth))
    assert vbm.effective == {b for b in partition.blocks if touches_vertices(partition, b, vbm)}
    system = ah.build_system(partition)
    restricted = ah.restrict_system(system, vbm)
    assert list(restricted.keys) == geometric_restrict_keys(system, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    assert list(pruned.keys) == geometric_prune_keys(restricted, vbm)
