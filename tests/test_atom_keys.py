"""Atoms as keys: function rows, split weights, leaf measures and leaf positions
against exact oracles.

A system is its keys, one (level, parent, l1, l2) int tuple per atom; an
atom's blocks are children l1 and l2 of its parent, and its values follow
from the parent's split weights, `partition.shares(parent)`. The dense rows
of `oracles.dense_matrix` are built from exact Fraction measures the way
atoms once stored them: every leaf under a child carries that child's
height. The function matrix is the cascade's synthesis of the unit
coefficient vectors, so it matches those rows to within 1e-14 of each row's
largest entry, not bit for bit.
"""

import io
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah
from adahaar.cli import _verify_checks
from adahaar.framelets import coefficients_from_csv, coefficients_to_csv
from conftest import random_digraph
from oracles import (atom_blocks, atom_vector, dense_matrix, exact_measure, function_matrix,
                     leaves_under, scaling_vector)
from test_cascade import embed


def check_system(system):
    part = system.partition
    Fm, rows = function_matrix(system), dense_matrix(system)
    assert np.all(np.abs(Fm - rows).max(axis=1) <= 1e-14 * np.abs(rows).max(axis=1))
    assert system.atoms is system.keys  # the old name, for the benchmark only
    for key in system.keys:
        assert type(key) is tuple and len(key) == 4 and all(type(x) is int for x in key)
        level, parent, l1, l2 = key
        assert part.level(parent) == level and 1 <= l1 < l2 <= len(part.children[parent])
    check_inner_products(system)


def check_inner_products(system):
    """inner_product is exactly the correctly rounded sum over an atom's support
    leaves, which is what the functions' dict form once summed."""
    part = system.partition
    mu = part.leaf_measures
    signal = ah.PwcFunction(part, np.random.default_rng(len(mu)).standard_normal(len(mu)))
    scaling = ah.PwcFunction(part, scaling_vector(part))
    for key in system.keys:
        f = ah.PwcFunction(part, atom_vector(part, key))
        support = [part.leaf_index[leaf]
                   for b in atom_blocks(part, key) for leaf in leaves_under(part, b)]
        for g in (f, signal, scaling):
            expect = math.fsum(f.vector[i] * g.vector[i] * mu[i] for i in support)
            assert ah.inner_product(f, g) == expect
            assert ah.inner_product(g, f) == expect


def check_split_weights(part):
    """One exact share per child, |child| / |parent| as a pair of integers, summing
    to exactly 1."""
    for p, kids in part.children.items():
        if not kids:
            continue
        shares = part.shares(p)
        assert all(type(x) is int for pair in shares for x in pair)
        b = tuple(F(num, den) for num, den in shares)
        pm = exact_measure(part.blocks[p])
        assert b == tuple(exact_measure(part.blocks[c]) / pm for c in kids)
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
    """Building or loading a system does no measure arithmetic. The first transform
    builds the cascade, whose weights come from integer shares, and still no exact
    `Fraction` measure of a block: those wait for a caller that reads them."""
    part = ah.chain_to_intervals(chain_x).partition
    system = ah.build_system(part)
    loaded = ah.FrameletSystem.from_json(part, system.to_json())
    assert loaded.keys == system.keys
    assert "cascade" not in vars(part)
    w1, w2 = system.pairs[2:4]
    assert "cascade" in vars(part)
    assert not any("measure" in vars(blk) for blk in part.blocks.values())
    assert np.all(w1 > 0) and w2[0] == 0 and np.all(w2[1:] > 0)


def test_the_pipeline_reads_keys_and_builds_no_atom():
    """Build, restrict, prune, the JSON and coefficient CSV round trips, both transforms
    and verify's checks read each system's keys, the one form of its atoms, and agree
    bit for bit between a system and its file-read copy."""
    n = 12
    partition, vbm = embed(random_digraph(np.random.default_rng([n, 1, 97]), n, True))
    rng = np.random.default_rng(97)
    for system in systems_of(partition, vbm):
        loaded = ah.FrameletSystem.from_json(partition, json.loads(json.dumps(system.to_json())))
        assert loaded.keys == system.keys and loaded.counts_by_level() == system.counts_by_level()
        cv = ah.analyze(loaded, ah.signal_to_function(rng.standard_normal(n), vbm))
        buf = io.StringIO()
        coefficients_to_csv(cv, buf)
        buf.seek(0)
        back = coefficients_from_csv(system, buf)
        assert back.coefficients.tobytes() == cv.coefficients.tobytes()
        g1, g2 = ah.synthesize(loaded, back), ah.synthesize(system, back)
        assert g1.vector.tobytes() == g2.vector.tobytes()
        checks = list(_verify_checks(loaded, vbm, np.random.default_rng(0), 2))
        assert len(checks) == 6
