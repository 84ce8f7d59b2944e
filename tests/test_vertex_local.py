"""Restriction, pruning and span bounds from the blocks that meet a vertex.

`restrict_system` keeps the keys of the effective parents (the vertex blocks
and their ancestors, `vbm.effective`) with an effective child and lists no
other key; `vertex_span_bounds` runs on `vbm.cascade`, the subtree
of the effective blocks and their children. Here the restricted keys are
held to the filter over the materialized full system, whose effective set
comes from the leaves under each block, and the span bounds of systems read
from JSON, with atoms anywhere in the tree, to the dense rows of
`oracles.dense_matrix`.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah

from conftest import random_digraph
from oracles import atom_blocks, dense_matrix, leaves_under
from test_cascade import embed, oracle_bounds, systems_of
from test_pipeline_properties import digraphs

TOL = 1e-14


def meets_a_vertex(partition, vbm):
    """The blocks with a vertex block among the leaves under them."""
    vertex_blocks = set(vbm.blocks)
    return {b for b in partition.blocks if vertex_blocks & set(leaves_under(partition, b))}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs(), st.integers(0, 6))
def test_lazy_restriction_equals_the_filter_over_the_full_system(g, cut):
    partition, vbm = embed(g)
    depth = min(cut, partition.depth)
    lazy = ah.build_system(partition, depth)
    restricted = ah.restrict_system(lazy, vbm)
    assert "keys" not in vars(lazy)  # only the effective parents' keys were listed
    effective = meets_a_vertex(partition, vbm)
    assert vbm.effective == effective
    full = ah.build_system(partition, depth).keys
    want = [k for k in full if effective & set(atom_blocks(partition, k))]
    assert list(restricted.keys) == want
    # a system with explicit keys keeps only its own: here every other full atom
    explicit = ah.FrameletSystem(partition, depth, full[::2])
    keep = set(full[::2])
    assert list(ah.restrict_system(explicit, vbm).keys) == [k for k in want if k in keep]
    # a file-read system in shuffled order comes back in (level, parent id, pair rank) order
    order = np.random.default_rng([cut, len(full)]).permutation(len(full))
    shuffled = ah.FrameletSystem.from_json(
        partition, {"depth": depth, "atoms": [list(full[k]) for k in order]})
    assert ah.restrict_system(shuffled, vbm).keys == tuple(want)


def test_the_full_system_answers_membership_without_its_atoms(toy_embedding):
    """The full system's keys are exactly the generators below its depth."""
    partition, vbm = toy_embedding
    full = ah.build_system(partition, 2)
    keys = set(ah.build_system(partition, 2).keys)
    parent = partition.levels[1][0]
    wrong = {(0, parent, 1, 2), (1, parent, 0, 1), (1, parent, 2, 2), (1, parent, 1, 99),
             (0, 999, 1, 2)}  # wrong level, pair out of range, no such block
    candidates = keys | wrong | {(2, b, 1, 2) for b in partition.levels[2]}  # below depth
    assert candidates & set(full.keys) == keys
    assert len(full) == 1 + len(keys) and len(full.keys) == len(keys)


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [6, 11, 16])
def test_span_bounds_of_a_file_read_system_match_the_dense_oracle(n, float_weights):
    """Systems read from JSON hold atoms whose parent is not effective, atoms of effective
    parents with no effective child, and some but not all restricted atoms, in shuffled
    order; their span bounds and rank still match the dense rows."""
    g = random_digraph(np.random.default_rng([n, int(float_weights), 73]), n, float_weights)
    partition, vbm = embed(g)
    rng = np.random.default_rng(n)
    full = ah.build_system(partition).keys
    outside = [k for k in full if k[1] not in vbm.effective]
    idle = [k for k in full if k[1] in vbm.effective
            and not vbm.effective & set(atom_blocks(partition, k))]
    restricted = ah.restrict_system(ah.build_system(partition), vbm).keys
    assert outside and idle
    picks = [outside + idle + list(restricted),
             outside[::3] + list(restricted[1::2]),
             idle + list(restricted[::2])]
    for keys in picks:
        keys = [keys[k] for k in rng.permutation(len(keys))]
        obj = json.loads(json.dumps({"depth": partition.depth,
                                     "atoms": [list(k) for k in keys]}))
        system = ah.FrameletSystem.from_json(partition, obj)
        lo, hi, rank = ah.vertex_span_bounds(system, vbm)
        want = oracle_bounds(dense_matrix(system), partition, vbm)
        assert abs(lo - want[0]) <= TOL * want[1] and abs(hi - want[1]) <= TOL * want[1]
        assert rank == want[2]


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [5, 13, 24])
def test_the_vertex_cascade_is_the_tree_cascade_on_its_blocks(n, float_weights):
    """`vbm.cascade` holds the effective blocks and their children, closed under parent,
    level by level, with the whole tree's square roots of split weights bit for bit."""
    g = random_digraph(np.random.default_rng([n, int(float_weights), 79]), n, float_weights)
    partition, vbm = embed(g)
    pos, bounds, parent, sqrt_b, local = vbm.cascade
    kids = {c for b in vbm.effective for c in partition.children[b]}
    assert set(pos) == vbm.effective | kids
    tree_pos, _, _, tree_sqrt_b, _ = partition.cascade
    ids = list(pos)
    assert sqrt_b.tobytes() == tree_sqrt_b[[tree_pos[b] for b in ids]].tobytes()
    assert parent[0] == -1 and all(ids[parent[i]] == partition.parent[b]
                                   for i, b in enumerate(ids) if i)
    for j, ((s, e), lp) in enumerate(zip(bounds, local)):
        assert {partition.level_of[b] for b in ids[s:e]} == {j}
        if j:
            assert lp.tolist() == (parent[s:e] - bounds[j - 1][0]).tolist()
    for x in (parent, sqrt_b, *local):
        with pytest.raises(ValueError):
            x[0] = 0


def test_restriction_and_pruning_build_nothing_for_the_whole_tree():
    """No full key list, no tree cascade, no leaf measures: only the vertex map's
    effective set and its cascade, each built once. Leaf measures, when read, are
    the eager per-leaf integer divisions bit for bit."""
    partition, vbm = embed(random_digraph(np.random.default_rng([9, 1, 89]), 9, True))
    full, restricted, pruned = systems_of(partition, vbm)
    assert "keys" not in vars(full)
    assert not {"cascade", "leaf_measures", "leaf_scale"} & set(vars(partition))
    assert {"effective", "cascade"} <= set(vars(vbm))
    assert vbm.effective is vbm.effective and vbm.cascade is vbm.cascade
    eager = np.array([num / den for num, den in
                      (partition.blocks[b].measure_ratio() for b in partition.leaf_ids)])
    assert partition.leaf_measures.tobytes() == eager.tobytes()
    assert partition.leaf_measures is partition.leaf_measures
    with pytest.raises(ValueError):
        partition.leaf_measures[0] = 0


def test_span_bounds_at_n128_stay_small():
    """The bounds read the effective subtree, not leaves x n and blocks x n arrays: a
    128-vertex digraph's restricted system, vertex cascade included, peaks under 20 MB
    traced (about 74 MB when the whole tree's arrays were analyzed)."""
    g = random_digraph(np.random.default_rng([128, 0, 83]), 128, False)
    partition, vbm = embed(g)
    restricted = ah.restrict_system(ah.build_system(partition), vbm)
    assert "cascade" not in vars(vbm)
    tracemalloc.start()
    try:
        lo, hi, rank = ah.vertex_span_bounds(restricted, vbm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
    assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10 and rank == 128
