"""Atoms as keys: function rows, split weights, leaf measures and leaf positions
against exact oracles.

An atom stores its key and its two child blocks; its heights come from the
partition's split weights, and its leaf vector, the scaling function and the
leaf measures from the partition. The dense rows below are built from exact
Fraction measures the way atoms once stored them: every leaf under a child
carries that child's height.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah
from conftest import random_digraph


def exact_measure(block):
    return math.prod((s.hi - s.lo for s in block.sides), start=F(1))


def dense_rows(system):
    """Scaling row, then one row per atom, each read off the atom's key."""
    part = system.partition
    pos = {b: i for i, b in enumerate(part.leaf_ids)}
    rows = np.zeros((len(system), len(part.leaf_ids)))
    rows[0] = 1.0 / math.sqrt(float(exact_measure(part.blocks[part.root])))
    for r, a in enumerate(system.atoms, start=1):
        kids = part.children[a.parent]
        b1, b2 = kids[a.l1 - 1], kids[a.l2 - 1]
        assert (a.block1, a.block2) == (b1, b2)
        pm = exact_measure(part.blocks[a.parent])
        m1, m2 = exact_measure(part.blocks[b1]), exact_measure(part.blocks[b2])
        for leaf in part.leaves_under(b1):
            rows[r, pos[leaf]] = math.sqrt(float((m2 / pm) / m1))
        for leaf in part.leaves_under(b2):
            rows[r, pos[leaf]] = -math.sqrt(float((m1 / pm) / m2))
    return rows


def check_system(system):
    Fm = system.function_matrix()
    assert np.array_equal(Fm, dense_rows(system))
    assert np.array_equal(system.scaling.vector, Fm[0])
    for row, a in zip(Fm[1:], system.atoms):
        assert np.array_equal(a.function.vector, row)
        assert not any(isinstance(v, (dict, ah.PwcFunction)) for v in vars(a).values())
        assert set(vars(a)) == {"partition", "level", "parent", "l1", "l2", "block1", "block2"}
    check_inner_products(system)


def check_inner_products(system):
    """inner_product is exactly the correctly rounded sum over an atom's support
    leaves, which is what the functions' dict form once summed."""
    part = system.partition
    mu = part.leaf_measures
    signal = ah.PwcFunction(part, np.random.default_rng(len(mu)).standard_normal(len(mu)))
    for a in system.atoms:
        f = a.function
        support = [part.leaf_index[leaf]
                   for b in (a.block1, a.block2) for leaf in part.leaves_under(b)]
        for g in (f, signal, system.scaling):
            expect = math.fsum(f.vector[i] * g.vector[i] * mu[i] for i in support)
            assert ah.inner_product(f, g) == expect
            assert ah.inner_product(g, f) == expect


def check_split_weights(part):
    """One exact share per child, |child| / |parent|, summing to exactly 1."""
    weights = part.split_weights
    assert weights is part.split_weights  # computed once
    assert set(weights) == {p for p, kids in part.children.items() if kids}
    for p, b in weights.items():
        pm = exact_measure(part.blocks[p])
        assert b == tuple(exact_measure(part.blocks[c]) / pm for c in part.children[p])
        assert all(isinstance(x, F) for x in b)
        assert sum(b) == 1


def check_partition(part):
    leaves = part.leaf_ids
    assert {i: b for b, i in part.leaf_index.items()} == dict(enumerate(leaves))
    mu = part.leaf_measures
    assert mu.shape == (len(leaves),)
    assert all(mu[i] == float(exact_measure(part.blocks[b])) for i, b in enumerate(leaves))
    assert not mu.flags.writeable
    with pytest.raises(ValueError):
        mu[0] = 0.0
    for blk in part.blocks.values():
        assert blk.measure == exact_measure(blk)
        assert blk.measure is blk.measure  # computed once per block


def systems_of(partition, vbm):
    full = ah.build_system(partition)
    restricted = ah.restrict_system(full, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    return full, restricted, pruned


def test_toy_systems_match_exact_rows(toy_embedding, interval_system):
    partition, vbm = toy_embedding
    check_partition(partition)
    for system in systems_of(partition, vbm):
        check_system(system)
    check_split_weights(partition)
    check_partition(interval_system.partition)
    check_system(interval_system)
    check_split_weights(interval_system.partition)


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_random_digraph_systems_match_exact_rows(n, float_weights):
    g = random_digraph(np.random.default_rng([n, int(float_weights), 3]), n, float_weights)
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    partition, vbm = ah.digraph_embedding(g, ah.pad_chain(cx, depth), ah.pad_chain(cy, depth))
    check_partition(partition)
    for system in systems_of(partition, vbm):
        check_system(system)
    check_split_weights(partition)


def test_split_weights_wait_for_the_first_height(chain_x):
    """Building or loading atoms does no measure arithmetic; only heights read split weights."""
    part = ah.chain_to_intervals(chain_x).partition
    system = ah.build_system(part)
    loaded = ah.FrameletSystem.from_json(part, system.to_json())
    assert [a.key for a in loaded.atoms] == [a.key for a in system.atoms]
    assert "split_weights" not in vars(part)
    h1, h2 = system.atoms[0].heights
    assert "split_weights" in vars(part)
    assert h1 > 0 > h2
