"""The refinement cascade against the dense oracle.

`analyze`, `synthesize`, `vertex_span_bounds` and `function_matrix` run on
the partition tree and never build an atoms x leaves array; here each is held
to the dense rows of `oracles.dense_matrix` within 1e-14 relative to the
norm, on the toy fixtures, on seeded digraphs with integer and float weights
and on random digraphs from the pipeline property test, for the full,
restricted and pruned systems.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import adahaar as ah

from conftest import random_digraph
from oracles import dense_matrix
from test_pipeline_properties import digraphs

TOL = 1e-14


def assert_close(got, want):
    """Each row of `want` (each entry of a vector) matched within TOL of its norm."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= TOL * np.linalg.norm(want, axis=-1)), err.max()


def embed(g):
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    return ah.digraph_embedding(g, ah.pad_chain(cx, depth), ah.pad_chain(cy, depth))


def systems_of(partition, vbm):
    full = ah.build_system(partition)
    restricted = ah.restrict_system(full, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    return full, restricted, pruned


def oracle_bounds(D, part, vbm):
    cols = [part.leaf_index[b] for b in vbm.blocks]
    M = D[:, cols] * np.sqrt(part.leaf_measures[cols])
    ev = np.linalg.eigvalsh(M.T @ M)
    return ev[0], ev[-1], int((ev > ah.framelets.RANK_TOL * max(ev[-1], 1e-300)).sum())


def check_cascade(system, vbm, rng, signals=4):
    part = system.partition
    mu = part.leaf_measures
    D = dense_matrix(system)
    F = system.function_matrix()
    assert_close(F, D)
    assert F is not system.function_matrix()  # not cached
    leaf_signals = rng.standard_normal((signals, len(part.leaf_ids)))
    vertex_signals = [ah.signal_to_function(rng.standard_normal(len(vbm.labels)), vbm).vector
                      for _ in range(signals)]
    X = np.vstack([leaf_signals, vertex_signals])
    for x in X:
        cv = ah.analyze(system, ah.PwcFunction(part, x))
        assert_close(np.r_[cv.c0, cv.coefficients], (D * mu) @ x)
    assert_close(system.analysis(X.T).T, X @ (D * mu).T)
    A = rng.standard_normal((2 * signals, len(system)))
    for a in A:
        f = ah.synthesize(system, ah.CoefficientVector(system, a[0], a[1:]))
        assert_close(f.vector, a @ D)
    assert_close(system.synthesis(A.T).T, A @ D)
    lo, hi, rank = ah.vertex_span_bounds(system, vbm)
    want = oracle_bounds(D, part, vbm)
    assert abs(lo - want[0]) <= TOL * want[1] and abs(hi - want[1]) <= TOL * want[1]
    assert rank == want[2]


def test_toy_systems_match_the_dense_oracle(toy_embedding, interval_system):
    partition, vbm = toy_embedding
    rng = np.random.default_rng(23)
    for system in systems_of(partition, vbm):
        check_cascade(system, vbm, rng)
    part = interval_system.partition
    line = ah.VertexBlockMap(part, tuple("abcdef"), part.leaf_ids)
    check_cascade(interval_system, line, rng)


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [4, 8, 13, 16, 24])
def test_seeded_digraph_systems_match_the_dense_oracle(n, float_weights):
    g = random_digraph(np.random.default_rng([n, int(float_weights), 29]), n, float_weights)
    partition, vbm = embed(g)
    rng = np.random.default_rng(n)
    for system in systems_of(partition, vbm):
        check_cascade(system, vbm, rng, signals=2)


def test_a_truncated_system_matches_the_dense_oracle(toy_embedding):
    partition, vbm = toy_embedding
    rng = np.random.default_rng(31)
    for depth in range(partition.depth):
        check_cascade(ah.build_system(partition, depth), vbm, rng)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs())
def test_random_digraph_systems_match_the_dense_oracle(g):
    partition, vbm = embed(g)
    rng = np.random.default_rng(g.n)
    for system in systems_of(partition, vbm):
        check_cascade(system, vbm, rng, signals=1)


def test_building_computes_no_split_weights_and_no_cascade(toy_digraph, chain_x):
    part = ah.chain_to_intervals(chain_x).partition
    system = ah.build_system(part)
    loaded = ah.FrameletSystem.from_json(part, system.to_json())
    square, vbm = ah.digraph_embedding(toy_digraph, chain_x, chain_x)
    restricted = ah.restrict_system(ah.build_system(square), vbm)
    for p in (part, square):
        assert not {"split_weights", "cascade"} & set(vars(p))
    for s in (system, loaded, restricted):
        assert "pairs" not in vars(s)
    ah.analyze(restricted, ah.signal_to_function(np.ones(len(vbm.labels)), vbm))
    assert {"split_weights", "cascade"} <= set(vars(square))
    assert "pairs" in vars(restricted)
    assert square.cascade is square.cascade and restricted.pairs is restricted.pairs
