"""The factored tensor partition against the explicit one.

`tensor_partitions` returns a `TensorPartition`, which holds only its 1-D
factors and small per-factor, per-level lists and answers the partition
methods by id arithmetic. `tensor_grid` builds the explicit partition, every
product `Block` and the dicts over them, as `tensor_partitions` once did; it
is also what the factored partition's views are read from. Here the two are
held to each other method by method, on the vertex cascade bit for bit and
on their JSON, for digraph embeddings with integer and float weights (n <= 32),
random factor tuples of one to three factors and dyadic cubes; and the
restricted pipeline, reading system files, the transforms and verify's checks
are held to building none of the views.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah
from adahaar.cli import _verify_checks
from adahaar.hierarchy import TensorPartition, tensor_grid

from conftest import random_digraph, random_interval_levels
from test_cascade import embed, systems_of
from test_pipeline_properties import digraphs

VIEWS = {"blocks", "children", "parent", "level_of", "leaf_index"}


def assert_same_cascade(got, want):
    """Equal positions, bounds and arrays, dtype and bytes."""
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]
    for x, y in zip((got[2], got[3], *got[4]), (want[2], want[3], *want[4])):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert len(got[4]) == len(want[4])


def assert_matches_explicit(part, leaf_sets=()):
    """`part` answers every method as `tensor_grid` of its factors does, and builds no
    view doing so; then its JSON and equality agree too."""
    assert isinstance(part, TensorPartition)
    explicit = tensor_grid(*part.factors)
    assert [tuple(level) for level in part.levels] == explicit.levels
    for b in explicit.blocks:
        assert part.children_of(b) == explicit.children_of(b)
        assert part.parent_of(b) == explicit.parent_of(b)
        assert part.level(b) == explicit.level(b)
        assert part.shares(b) == explicit.shares(b)
    for b in explicit.leaf_ids:
        assert part.leaf_position(b) == explicit.leaf_position(b)
    for b in (-1, len(explicit.blocks)):
        with pytest.raises(KeyError):
            part.level(b)
    if explicit.depth:
        with pytest.raises(KeyError):
            part.leaf_position(explicit.root)
        with pytest.raises(KeyError):
            part.vertex_cascade([explicit.root])
    for leaves in (explicit.leaf_ids, *leaf_sets):
        cascade, effective = part.vertex_cascade(leaves)
        want, want_effective = explicit.vertex_cascade(leaves)
        assert effective == want_effective
        assert_same_cascade(cascade, want)
    assert not VIEWS & set(vars(part))
    assert_same_cascade(part.cascade, explicit.cascade)
    assert part.leaf_measures.tobytes() == explicit.leaf_measures.tobytes()
    assert not VIEWS & set(vars(part))
    assert part.to_json() == explicit.to_json()
    assert part == explicit and explicit == part
    assert part == ah.tensor_partitions(*part.factors)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs(max_n=32), st.randoms(use_true_random=False))
def test_digraph_embeddings_match_the_explicit_partition(g, rnd):
    partition, vbm = embed(g)
    leaves = list(partition.leaf_ids)
    some = rnd.sample(leaves, rnd.randint(1, len(leaves)))
    assert_matches_explicit(partition, [vbm.blocks, some])


@st.composite
def factor_tuples(draw):
    """One to three random 1-D partitions of a common depth, with exact rational cuts."""
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 3 if k < 3 else 2))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=k, max_size=k))
    return [ah.refine_interval_level(random_interval_levels(np.random.default_rng(s), depth))
            for s in seeds]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factor_tuples(), st.randoms(use_true_random=False))
def test_random_factor_tuples_match_the_explicit_partition(factors, rnd):
    part = ah.tensor_partitions(*factors)
    leaves = list(part.leaf_ids)
    assert_matches_explicit(part, [rnd.sample(leaves, rnd.randint(1, len(leaves)))])
    if len(factors) == 1:
        assert part == factors[0] and part.to_json() == factors[0].to_json()


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [7, 32])
def test_seeded_float_and_integer_embeddings_match(n, float_weights):
    partition, vbm = embed(random_digraph(np.random.default_rng([n, int(float_weights), 113]),
                                          n, float_weights))
    assert_matches_explicit(partition, [vbm.blocks])


@pytest.mark.parametrize("d, J", [(1, 3), (3, 0), (3, 1), (3, 2)])
def test_dyadic_cubes_match(d, J):
    part = ah.make_dyadic_partition(d, J)
    assert len(part.factors) == d
    assert_matches_explicit(part, [part.leaf_ids[::3]])


def test_a_product_of_products_keeps_explicit_factors():
    """A 1-D product stands for its factor: the factors of a product stay explicit."""
    halving = ah.make_dyadic_partition(1, 2)
    square = ah.tensor_partitions(halving, halving)
    assert all(type(p) is ah.HierarchicalPartition for p in square.factors)
    assert square == ah.make_dyadic_partition(2, 2)
    assert square != ah.make_dyadic_partition(2, 1)


def test_the_restricted_pipeline_builds_no_grid():
    """Embedding, build, restriction and pruning read the partition's methods: none of
    the five views is built, and at n=256 the pipeline holds about 2 MB traced (38 MB
    when every product block and the dicts over them were built)."""
    g = random_digraph(np.random.default_rng([256, 0, 101]), 256, False)
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    cx, cy = ah.pad_chain(cx, depth), ah.pad_chain(cy, depth)
    tracemalloc.start()
    try:
        partition, vbm = ah.digraph_embedding(g, cx, cy)
        full, restricted, pruned = systems_of(partition, vbm)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not VIEWS & set(vars(partition))
    assert held < 6 * 2 ** 20, f"{held / 2 ** 20:.1f} MB"
    lo, hi, rank = ah.vertex_span_bounds(restricted, vbm)
    assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10 and rank == 256
    assert not VIEWS & set(vars(partition))


def test_transforms_round_trips_and_checks_build_no_grid():
    """Reading a system file, both transforms and verify's checks read the methods and
    the factored whole-tree cascade: a product partition builds none of its views."""
    partition, vbm = embed(random_digraph(np.random.default_rng([12, 1, 127]), 12, True))
    rng = np.random.default_rng(127)
    for system in systems_of(partition, vbm):
        loaded = ah.FrameletSystem.from_json(partition, system.to_json())
        f = ah.signal_to_function(rng.standard_normal(12), vbm)
        ah.function_to_signal(ah.synthesize(loaded, ah.analyze(loaded, f)), vbm)
        for v in (vbm, None):
            assert len(list(_verify_checks(partition, loaded, v, rng, 2))) == 6
    assert not VIEWS & set(vars(partition))
