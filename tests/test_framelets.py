import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

import adahaar as ah
from adahaar import BadPair, BadWeights, DegenerateSpan, IndexMismatch, PartitionMismatch

from conftest import functions, indicator, random_interval_levels
from oracles import (atom_vector, frame_bounds, function_matrix, gram_matrix, leaves_under,
                     scaling_vector)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# ---------------------------------------------------------------- matrix

def test_refinement_matrix_binary():
    A = ah.refinement_matrix([0.5, 0.5])
    r = math.sqrt(0.5)
    assert np.allclose(A, [[r, r], [r, -r]], atol=1e-15)


def test_refinement_matrix_quarters_orthogonal():
    A = ah.refinement_matrix([0.25] * 4)
    assert A.shape == (7, 4)
    # explicit multiplication, no shortcuts
    P = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            P[i, j] = sum(A[r, i] * A[r, j] for r in range(7))
    assert np.abs(P - np.eye(4)).max() <= 1e-12


def test_refinement_matrix_rejects_bad_weights():
    with pytest.raises(BadWeights):
        ah.refinement_matrix([0.3, 0.8])
    with pytest.raises(BadWeights):
        ah.refinement_matrix([1.2, -0.2])


def test_refinement_matrix_random_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 21))
        b = rng.random(m) + 0.05
        b /= b.sum()
        A = ah.refinement_matrix(b)
        assert np.abs(A.T @ A - np.eye(m)).max() <= 1e-12


def test_pair_rank_matches_enumeration():
    # oracle: lexicographic enumeration of all pairs
    for m in range(2, 9):
        for rank, (i1, i2) in enumerate(combinations(range(1, m + 1), 2), start=1):
            assert ah.pair_to_flat(i1, i2, m) == rank
    assert ah.pair_to_flat(1, 2, 4) == 1
    assert ah.pair_to_flat(3, 4, 4) == 6
    assert ah.pair_to_flat(2, 4, 5) == 6


def test_pair_rank_rejects_bad_pairs():
    for bad in [(2, 2, 4), (3, 2, 4), (0, 1, 4), (1, 5, 4)]:
        with pytest.raises(BadPair):
            ah.pair_to_flat(*bad)


# ---------------------------------------------------------------- generators

def leaf_interval(partition, leaf):
    s = partition.blocks[leaf].sides[0]
    return (s.lo, s.hi)


def atom_by_key(system, level, parent_interval):
    out = [a for a in system.atoms if a.level == level]
    return out


def test_toy_atom_values(interval_system):
    # depth-3 system on the 1-D toy embedding: 7 functions in total
    sys_ = interval_system
    assert len(sys_) == 7
    part = sys_.partition
    atoms = sys_.atoms
    rows = function_matrix(sys_)[1:]
    assert [a.level for a in atoms] == [0, 1, 2, 2, 2, 2]

    a0 = atoms[0]  # root split [0,1/4) vs [1/4,1]
    for leaf in leaves_under(part, a0.block1):
        assert abs(rows[0][part.leaf_index[leaf]] - SQ3) <= 1e-12
    for leaf in leaves_under(part, a0.block2):
        assert abs(rows[0][part.leaf_index[leaf]] + 1 / SQ3) <= 1e-12

    a5 = atoms[5]  # ternary split, last pair: equal halves of [7/12, 11/12)
    v = math.sqrt(1.5)
    assert leaf_interval(part, a5.block1) == (F(7, 12), F(3, 4))
    assert leaf_interval(part, a5.block2) == (F(3, 4), F(11, 12))
    assert abs(rows[5][part.leaf_index[a5.block1]] - v) <= 1e-12
    assert abs(rows[5][part.leaf_index[a5.block2]] + v) <= 1e-12


def test_toy_atom_rational_oracle(interval_system):
    """Independent exact check: every atom value squares to a known rational.

    The value on the first child is sqrt(b2 / |child1|) and on the second
    -sqrt(b1 / |child2|), with b the sibling measure ratios; both ratios are
    exact fractions, so the squared float must agree to one rounding.
    """
    sys_ = interval_system
    part = sys_.partition
    for a, row in zip(sys_.atoms, function_matrix(sys_)[1:]):
        pm = part.blocks[a.parent].measure
        m1 = part.blocks[a.block1].measure
        m2 = part.blocks[a.block2].measure
        sq1 = (m2 / pm) / m1
        sq2 = (m1 / pm) / m2
        v1 = row[part.leaf_index[leaves_under(part, a.block1)[0]]]
        v2 = row[part.leaf_index[leaves_under(part, a.block2)[0]]]
        assert v1 > 0 > v2
        assert abs(v1 * v1 - float(sq1)) <= 1e-14 * max(1.0, float(sq1))
        assert abs(v2 * v2 - float(sq2)) <= 1e-14 * max(1.0, float(sq2))


def test_toy_second_atom_printed_coefficients(interval_system):
    # the level-1 atom has values 1/sqrt(6) and -8/sqrt(6): squares 1/6, 32/3
    part = interval_system.partition
    a1 = interval_system.atoms[1]
    assert leaf_interval(part, a1.block1) == (F(1, 4), F(11, 12))
    assert leaf_interval(part, a1.block2) == (F(11, 12), F(1))
    pm = part.blocks[a1.parent].measure
    assert (part.blocks[a1.block2].measure / pm) / part.blocks[a1.block1].measure == F(1, 6)
    assert (part.blocks[a1.block1].measure / pm) / part.blocks[a1.block2].measure == F(32, 3)
    leaf1 = leaves_under(part, a1.block1)[0]
    leaf2 = leaves_under(part, a1.block2)[0]
    row = function_matrix(interval_system)[2]
    assert abs(row[part.leaf_index[leaf1]] - 1 / math.sqrt(6)) <= 1e-12
    assert abs(row[part.leaf_index[leaf2]] + 8 / math.sqrt(6)) <= 1e-12


def generator_keys(partition, parent):
    """The keys of one parent's child-pair generators, in pair order."""
    m = len(partition.children[parent])
    return [(partition.level_of[parent], parent, l1, l2)
            for l1, l2 in combinations(range(1, m + 1), 2)]


def test_generators_dyadic_square():
    # equal quarter split: six generators with values exactly +-1
    p = ah.make_dyadic_partition(2, 1)
    system = ah.FrameletSystem(p, 1, generator_keys(p, p.root))
    atoms = system.atoms
    assert len(atoms) == 6
    assert [(a.l1, a.l2) for a in atoms] == list(combinations(range(1, 5), 2))
    for a, row in zip(atoms, function_matrix(system)[1:]):
        assert abs(row[p.leaf_index[a.block1]] - 1.0) <= 1e-15
        assert abs(row[p.leaf_index[a.block2]] + 1.0) <= 1e-15


def test_build_system_sizes(toy_system, interval_system):
    assert len(toy_system) == 95
    assert toy_system.counts_by_level() == [6, 8, 80]
    assert len(interval_system) == 7
    for J in range(5):
        assert len(ah.build_system(ah.make_dyadic_partition(1, J))) == 2 ** J


def test_single_child_parent_contributes_nothing():
    p = ah.refine_interval_level([[(0, 1)], [(0, 1)], [(0, F(1, 2)), (F(1, 2), 1)]])
    sys_ = ah.build_system(p)
    assert sys_.counts_by_level() == [0, 1]


# ---------------------------------------------------------------- inner products

def test_inner_product_basics(interval_system):
    part = interval_system.partition
    phi, a0, a1 = functions(interval_system)[:3]
    assert abs(ah.inner_product(phi, phi) - 1.0) <= 1e-14
    assert abs(ah.inner_product(a0, a1)) <= 1e-14
    quarter = indicator(part, part.leaf_ids[:2])
    unit = indicator(part, part.leaf_ids)
    assert abs(ah.inner_product(quarter, unit) - 0.25) <= 1e-14


def test_inner_product_partition_mismatch():
    p1 = ah.make_dyadic_partition(1, 1)
    p2 = ah.make_dyadic_partition(1, 2)
    f = indicator(p1, p1.leaf_ids[:1])
    g = indicator(p2, p2.leaf_ids[:1])
    with pytest.raises(PartitionMismatch):
        ah.inner_product(f, g)


def test_pwc_function_is_a_read_only_copy_of_one_value_per_leaf():
    p = ah.make_dyadic_partition(1, 2)
    for bad in ([1.0, 2.0, 3.0], np.ones(5), np.ones((4, 1)), 1.0):
        with pytest.raises(ValueError):
            ah.PwcFunction(p, bad)
    given = np.arange(4.0)
    f = ah.PwcFunction(p, given)
    assert np.array_equal(f.vector, given) and f.vector.dtype == float
    assert not f.vector.flags.writeable
    with pytest.raises(ValueError):
        f.vector[0] = 9.0
    given[0] = 9.0  # the caller's array stays writable and unaliased
    assert f.vector[0] == 0.0
    assert np.array_equal(ah.PwcFunction(p, [0, 1, 2, 3]).vector, np.arange(4.0))


def test_analyze_scaling_function(toy_system):
    cv = ah.analyze(toy_system, ah.PwcFunction(toy_system.partition,
                                               scaling_vector(toy_system.partition)))
    assert abs(cv.c0 - 1.0) <= 1e-12
    assert np.abs(cv.coefficients).max() <= 1e-12


def test_analyze_single_atom_of_binary_level(interval_system):
    f = ah.PwcFunction(interval_system.partition,
                       atom_vector(interval_system.atoms[0]))  # the only level-0 atom, unit norm
    cv = ah.analyze(interval_system, f)
    assert abs(cv.c0) <= 1e-12
    assert abs(cv.coefficients[0] - 1.0) <= 1e-12
    assert np.abs(cv.coefficients[1:]).max() <= 1e-12


def test_parseval_and_reconstruction_random(toy_system):
    rng = np.random.default_rng(5)
    part = toy_system.partition
    for _ in range(20):
        f = ah.PwcFunction(part, rng.standard_normal(len(part.leaf_ids)))
        n2 = ah.inner_product(f, f)
        cv = ah.analyze(toy_system, f)
        assert abs(cv.energy() - n2) <= 1e-10 * n2
        g = ah.synthesize(toy_system, cv)
        diff = ah.PwcFunction(part, f.vector - g.vector)
        err = math.sqrt(ah.inner_product(diff, diff))
        assert err <= 1e-10 * math.sqrt(n2)


def test_synthesize_trivial_cases(toy_system):
    zero = ah.synthesize(toy_system, ah.CoefficientVector(
        toy_system, 0.0, np.zeros(len(toy_system.atoms))))
    assert np.abs(zero.vector).max() == 0.0
    phi = ah.synthesize(toy_system, ah.CoefficientVector(
        toy_system, 1.0, np.zeros(len(toy_system.atoms))))
    assert np.allclose(phi.vector, scaling_vector(toy_system.partition), atol=1e-15)


def test_synthesize_index_mismatch(toy_system):
    with pytest.raises(IndexMismatch):
        ah.CoefficientVector(toy_system, 0.0, np.zeros(3))


def test_synthesize_rejects_coefficients_from_another_partition():
    """The dyadic square and the tensor square of the cuts 1/6, 1/3, 2/3 have the same
    tree, so their systems have the same depth and atom keys, but not the same functions."""
    dyadic = ah.make_dyadic_partition(2, 2)
    line = ah.refine_interval_level([[(0, 1)], [(0, F(1, 3)), (F(1, 3), 1)],
                                     [(0, F(1, 6)), (F(1, 6), F(1, 3)),
                                      (F(1, 3), F(2, 3)), (F(2, 3), 1)]])
    s1, s2 = ah.build_system(dyadic), ah.build_system(ah.tensor_partitions(line, line))
    assert s1.to_json() == s2.to_json()
    cv = ah.analyze(s1, indicator(dyadic, dyadic.leaf_ids[:3]))
    with pytest.raises(PartitionMismatch):
        ah.synthesize(s2, cv)
    twin = ah.FrameletSystem.from_json(dyadic, s1.to_json())
    assert ah.synthesize(twin, cv).vector.tobytes() == ah.synthesize(s1, cv).vector.tobytes()
    with pytest.raises(IndexMismatch):
        ah.synthesize(s1.subset(s1.atoms[1:]), cv)


# ---------------------------------------------------------------- linear structure

def test_child_indicators_recoverable_from_parent_and_atoms(interval_system):
    # the transpose of the refinement matrix maps (parent, details) back to
    # the normalized child indicators
    part = interval_system.partition
    for parent in part.levels[2]:
        kids = part.children[parent]
        if len(kids) < 2:
            continue
        pm = part.blocks[parent].measure
        b = [float(part.blocks[c].measure / pm) for c in kids]
        A = ah.refinement_matrix(b)
        keys = generator_keys(part, parent)
        parent_indicator = np.zeros(len(part.leaf_ids))
        pos = {leaf: i for i, leaf in enumerate(part.leaf_ids)}
        for leaf in leaves_under(part, parent):
            parent_indicator[pos[leaf]] = 1.0 / math.sqrt(float(pm))
        rows = function_matrix(ah.FrameletSystem(part, 3, keys))[1:]
        stack = [parent_indicator] + list(rows)
        for col, child in enumerate(kids):
            recon = sum(A[r, col] * stack[r] for r in range(len(stack)))
            expect = np.zeros(len(part.leaf_ids))
            for leaf in leaves_under(part, child):
                expect[pos[leaf]] = 1.0 / math.sqrt(float(part.blocks[child].measure))
            assert np.abs(recon - expect).max() <= 1e-10


def test_atoms_reproduce_their_span(interval_system):
    # random combinations of one parent's atoms reproduce themselves through
    # the frame sums, even for non-orthogonal (c > 2) generator sets
    rng = np.random.default_rng(9)
    cases = [(ah.make_dyadic_partition(2, 1), None)]
    cases += [(interval_system.partition, parent)
              for parent in interval_system.partition.levels[2]]
    for p, parent in cases:
        keys = generator_keys(p, parent if parent is not None else p.root)
        if not keys:
            continue
        vectors = function_matrix(ah.FrameletSystem(p, p.depth, keys))[1:]
        mu = np.array([float(p.blocks[b].measure) for b in p.leaf_ids])
        for _ in range(10):
            g = rng.standard_normal(len(keys)) @ vectors
            coeffs = (vectors * mu) @ g
            recon = coeffs @ vectors
            assert np.abs(recon - g).max() <= 1e-10 * max(1.0, np.abs(g).max())


def test_cross_scale_orthogonality_and_moments(toy_system):
    G = gram_matrix(toy_system)
    levels = [-1] + [a.level for a in toy_system.atoms]
    n = len(levels)
    for i in range(n):
        for j in range(i + 1, n):
            if levels[i] != levels[j]:
                assert abs(G[i, j]) <= 1e-12
    mu = np.array([float(toy_system.partition.blocks[b].measure)
                   for b in toy_system.partition.leaf_ids])
    for row in function_matrix(toy_system)[1:]:
        assert abs(row @ mu) <= 1e-12


def test_atom_norm_equals_weight_sum(toy_system):
    part = toy_system.partition
    for a, f in zip(toy_system.atoms, functions(toy_system)[1:]):
        pm = part.blocks[a.parent].measure
        expect = (part.blocks[a.block1].measure + part.blocks[a.block2].measure) / pm
        assert abs(ah.inner_product(f, f) - float(expect)) <= 1e-12


# ---------------------------------------------------------------- gram / bounds

def test_gram_identity_for_binary_partitions():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = ah.refine_interval_level(random_interval_levels(rng, depth=3, max_children=2))
        sys_ = ah.build_system(p)
        G = gram_matrix(sys_)
        assert np.abs(G - np.eye(len(sys_))).max() <= 1e-12


def test_gram_toy_structure(interval_system):
    # only the ternary split's three atoms interact; their hand-computed
    # inner products are 1/4 and -+sqrt(2)/4
    G = gram_matrix(interval_system)
    assert G.shape == (7, 7)
    expected_diag = [1, 1, 1, 1, 0.75, 0.75, 0.5]
    assert np.abs(np.diag(G) - expected_diag).max() <= 1e-12
    block = {4, 5, 6}
    for i in range(7):
        for j in range(i + 1, 7):
            if i in block and j in block:
                continue
            assert abs(G[i, j]) <= 1e-12
    assert abs(G[4, 5] - 0.25) <= 1e-12
    assert abs(G[4, 6] + SQ2 / 4) <= 1e-12
    assert abs(G[5, 6] - SQ2 / 4) <= 1e-12


def test_gram_dyadic_square_overlap_structure():
    # directional generators interact exactly when they share a quarter
    p = ah.make_dyadic_partition(2, 1)
    sys_ = ah.build_system(p)
    G = gram_matrix(sys_)
    pairs = list(combinations(range(1, 5), 2))
    for i, pi in enumerate(pairs):
        for j, pj in enumerate(pairs):
            if i >= j:
                continue
            shared = set(pi) & set(pj)
            if shared:
                assert abs(abs(G[1 + i, 1 + j]) - 0.25) <= 1e-12
            else:
                assert abs(G[1 + i, 1 + j]) <= 1e-12


def test_frame_bounds_tight_on_leaf_span():
    p = ah.make_dyadic_partition(2, 2)
    sys_ = ah.build_system(p)
    space = [indicator(p, [b]) for b in p.leaf_ids]
    lo, hi = frame_bounds(functions(sys_), space)
    assert abs(lo - 1.0) <= 1e-9 and abs(hi - 1.0) <= 1e-9


def test_frame_bounds_drop_below_one_without_an_atom(interval_system):
    part = interval_system.partition
    space = [indicator(part, [b]) for b in part.leaf_ids]
    crippled = interval_system.subset(interval_system.atoms[1:])  # drop the unit-norm one
    lo, _ = frame_bounds(functions(crippled), space)
    assert lo < 1.0 - 1e-6


def test_frame_bounds_degenerate_span(interval_system):
    part = interval_system.partition
    f = indicator(part, part.leaf_ids[:1])
    with pytest.raises(DegenerateSpan):
        frame_bounds(functions(interval_system)[:1], [f, f])


# ---------------------------------------------------------------- serialization

def test_system_json_roundtrip(toy_system):
    back = ah.FrameletSystem.from_json(toy_system.partition, toy_system.to_json())
    assert back.to_json() == toy_system.to_json()
    assert [a.key for a in back.atoms] == [a.key for a in toy_system.atoms]


def test_coefficient_csv_roundtrip(toy_system, tmp_path):
    rng = np.random.default_rng(17)
    part = toy_system.partition
    f = ah.PwcFunction(part, rng.standard_normal(len(part.leaf_ids)))
    cv = ah.analyze(toy_system, f)
    path = tmp_path / "coeffs.csv"
    with open(path, "w", newline="") as fh:
        ah.framelets.coefficients_to_csv(cv, fh)
    with open(path) as fh:
        back = ah.framelets.coefficients_from_csv(toy_system, fh)
    assert back.c0 == cv.c0
    assert np.array_equal(back.coefficients, cv.coefficients)


@pytest.mark.parametrize("edit, message", [
    (lambda o: o.__setitem__("depth", 2.0), "depth must be an integer, got 2.0"),
    (lambda o: o["atoms"][3].__setitem__(1, 1.5), "atom field must be an integer, got 1.5"),
    (lambda o: o["atoms"][3].__setitem__(0, False), "atom field must be an integer, got False"),
], ids=["depth_float", "parent_float", "level_bool"])
def test_system_json_rejects_non_integer_fields(toy_system, edit, message):
    obj = toy_system.to_json()
    edit(obj)
    with pytest.raises(ah.ParseError, match=f"system JSON: {message}"):
        ah.FrameletSystem.from_json(toy_system.partition, obj)
