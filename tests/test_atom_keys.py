"""Atoms as keys: function rows, split weights, leaf measures and leaf positions
against exact oracles.

An atom stores its key and its two child blocks; its values follow from the
partition's split weights. The dense rows of `oracles.dense_matrix` are built
from exact Fraction measures the way atoms once stored them: every leaf
under a child carries that child's height. The function matrix is the
cascade's synthesis of the unit coefficient vectors, so it matches those
rows to within 1e-14 of each row's largest entry, not bit for bit.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah
from conftest import random_digraph
from oracles import atom_vector, dense_matrix, exact_measure, leaves_under, scaling_vector


def check_system(system):
    part = system.partition
    Fm, rows = system.function_matrix(), dense_matrix(system)
    assert np.all(np.abs(Fm - rows).max(axis=1) <= 1e-14 * np.abs(rows).max(axis=1))
    for a in system.atoms:
        kids = part.children[a.parent]
        assert (a.block1, a.block2) == (kids[a.l1 - 1], kids[a.l2 - 1])
        assert not any(isinstance(v, (dict, ah.PwcFunction)) for v in vars(a).values())
        assert set(vars(a)) == {"partition", "level", "parent", "l1", "l2", "block1", "block2"}
    check_inner_products(system)


def check_inner_products(system):
    """inner_product is exactly the correctly rounded sum over an atom's support
    leaves, which is what the functions' dict form once summed."""
    part = system.partition
    mu = part.leaf_measures
    signal = ah.PwcFunction(part, np.random.default_rng(len(mu)).standard_normal(len(mu)))
    scaling = ah.PwcFunction(part, scaling_vector(part))
    for a in system.atoms:
        f = ah.PwcFunction(part, atom_vector(a))
        support = [part.leaf_index[leaf]
                   for b in (a.block1, a.block2) for leaf in leaves_under(part, b)]
        for g in (f, signal, scaling):
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
    """Building or loading atoms does no measure arithmetic; the first transform reads
    the split weights, through the atoms' cascade weights."""
    part = ah.chain_to_intervals(chain_x).partition
    system = ah.build_system(part)
    loaded = ah.FrameletSystem.from_json(part, system.to_json())
    assert [a.key for a in loaded.atoms] == [a.key for a in system.atoms]
    assert "split_weights" not in vars(part)
    _, _, w1, w2 = system.pairs
    assert "split_weights" in vars(part)
    assert np.all(w1 > 0) and w2[0] == 0 and np.all(w2[1:] > 0)
