"""The refinement cascade against the dense oracle.

`analyze`, `synthesize`, `vertex_span_bounds` and `FrameletSystem.moments`
run on the partition tree and never build an atoms x leaves array; here each
is held to the dense rows of `oracles.dense_matrix`, as is the synthesis of
every unit coefficient vector, on the toy fixtures, on seeded digraphs with
integer and float weights and on random digraphs from the pipeline property
test, for the full, restricted and pruned systems. Transforms agree within
1e-14 relative to the norm, moments within 1e-14 absolute.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import adahaar as ah

from conftest import random_digraph
from oracles import dense_matrix, dense_moments, exact_measure, function_matrix
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


def check_moments(system, D):
    """Integrals, squared norms and largest cross-level |inner product| of every function."""
    for got, want in zip(system.moments(), dense_moments(system, D)):
        assert got.shape == want.shape == (len(system),)
        assert np.abs(got - want).max() <= TOL


def check_cascade(system, vbm, rng, signals=4):
    part = system.partition
    mu = part.leaf_measures
    D = dense_matrix(system)
    assert_close(function_matrix(system), D)  # the synthesis of every unit vector
    check_moments(system, D)
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


def test_dyadic_cube_moments_match_the_dense_oracle():
    part = ah.make_dyadic_partition(3, 2)
    for depth in range(part.depth + 1):
        system = ah.build_system(part, depth)
        check_moments(system, dense_matrix(system))


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
        assert not {"cascade", "leaf_scale"} & set(vars(p))
    for s in (system, loaded, restricted):
        assert "pairs" not in vars(s)
    assert "leaf_positions" not in vars(vbm)
    ah.analyze(restricted, ah.signal_to_function(np.ones(len(vbm.labels)), vbm))
    assert {"cascade", "leaf_scale"} <= set(vars(square))
    assert "pairs" in vars(restricted) and "leaf_positions" in vars(vbm)
    assert square.cascade is square.cascade and restricted.pairs is restricted.pairs
    assert square.leaf_scale is square.leaf_scale and vbm.leaf_positions is vbm.leaf_positions
    for cached in (square.leaf_scale, vbm.leaf_positions):
        with pytest.raises(ValueError):
            cached[0] = 0


@pytest.mark.parametrize("float_weights", [False, True])
@pytest.mark.parametrize("n", [8, 16])
def test_one_column_transforms_equal_a_column_of_three(n, float_weights):
    """A 1-D call (one signal as a vector) and a one-column call each give the bits of
    the matching column of a three-column call, in both directions, and `analyze` gives
    those of a column of the batched analysis."""
    g = random_digraph(np.random.default_rng([n, int(float_weights), 61]), n, float_weights)
    partition, vbm = embed(g)
    rng = np.random.default_rng(n)
    for system in systems_of(partition, vbm):
        X = rng.standard_normal((len(partition.leaf_ids), 3))
        A = rng.standard_normal((len(system), 3))
        for transform, Y in ((system.analysis, X), (system.synthesis, A)):
            together = transform(Y)
            for j in range(3):
                column = transform(Y[:, j:j + 1])
                assert column.shape == (len(together), 1)
                assert column.tobytes() == together[:, j].tobytes()
                vector = transform(Y[:, j])
                assert vector.shape == (len(together),)
                assert vector.tobytes() == together[:, j].tobytes()
        batched = system.analysis(X)
        for j in range(3):
            cv = ah.analyze(system, ah.PwcFunction(partition, X[:, j]))
            assert cv.coefficients.tobytes() == batched[1:, j].tobytes()
            assert np.float64(cv.c0).tobytes() == batched[0, j].tobytes()


def exact_floats(part):
    """leaf_measures and cascade weights rounded from the exact Block.measure and
    shares, which must equal the oracle's products of side lengths."""
    pos = part.cascade[0]
    for blk in part.blocks.values():
        assert blk.measure == exact_measure(blk)
    mu = np.array([float(part.blocks[b].measure) for b in part.leaf_ids])
    sqrt_b = np.ones(len(pos))
    for p, kids in part.children.items():
        if not kids:
            continue
        b = tuple(F(num, den) for num, den in part.shares(p))
        assert b == tuple(part.blocks[c].measure / part.blocks[p].measure for c in kids)
        sqrt_b[[pos[c] for c in kids]] = np.sqrt([float(x) for x in b])
    return mu, sqrt_b


@pytest.mark.parametrize("case", ["int5", "float5", "int13", "float13", "float24", "dyadic"])
def test_integer_floats_equal_the_rounded_exact_values(case):
    """The floats taken from integer side lengths are bit for bit float() of the exact
    Fractions, on seeded digraph embeddings, on the dyadic cube make_dyadic_partition(3, 2)
    and after a JSON round trip, where blocks stop sharing Interval objects."""
    if case == "dyadic":
        part = ah.make_dyadic_partition(3, 2)
    else:
        float_weights, n = case.startswith("float"), int(case.strip("intfloat"))
        g = random_digraph(np.random.default_rng([n, int(float_weights), 41]), n, float_weights)
        part = embed(g)[0]
    loaded = ah.HierarchicalPartition.from_json(part.to_json())
    shared, distinct = ([id(s) for blk in p.blocks.values() for s in blk.sides]
                        for p in (part, loaded))
    assert len(set(shared)) < len(shared) and len(set(distinct)) == len(distinct)
    for p in (part, loaded):
        mu, sqrt_b = exact_floats(p)
        assert p.leaf_measures.tobytes() == mu.tobytes()
        assert p.cascade[3].tobytes() == sqrt_b.tobytes()
    assert loaded.leaf_measures.tobytes() == part.leaf_measures.tobytes()
