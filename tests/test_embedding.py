import math
from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah
from adahaar import (DepthMismatch, PartitionMismatch, UnknownVertex, ValidationError,
                     ZeroDegreeCluster)

from conftest import GX_LEAVES, GY_LEAVES, VERTICES, functions, indicator
from oracles import frame_bounds


def interval_of(partition, block_id):
    s = partition.blocks[block_id].sides[0]
    return (s.lo, s.hi)


def box_of(partition, block_id):
    return tuple((s.lo, s.hi) for s in partition.blocks[block_id].sides)


def test_chain_to_intervals_first_graph(chain_x):
    emb = ah.chain_to_intervals(chain_x)
    got = [interval_of(emb.partition, emb.leaf_block(v)) for v in range(6)]
    assert got == GX_LEAVES
    # interior levels too
    level2 = [interval_of(emb.partition, b) for b in emb.node_blocks[2]]
    assert level2 == [(F(0), F(1, 4)), (F(1, 4), F(11, 12)), (F(11, 12), F(1))]
    level1 = [interval_of(emb.partition, b) for b in emb.node_blocks[1]]
    assert level1 == [(F(0), F(1, 4)), (F(1, 4), F(1))]


def test_chain_to_intervals_second_graph(chain_y):
    emb = ah.chain_to_intervals(chain_y)
    got = [interval_of(emb.partition, emb.leaf_block(v)) for v in range(6)]
    assert got == GY_LEAVES
    level2 = [interval_of(emb.partition, b) for b in emb.node_blocks[2]]
    assert level2 == [(F(0), F(1, 2)), (F(1, 2), F(5, 6)), (F(5, 6), F(1))]


def test_chain_to_intervals_one_node():
    chain = ah.build_chain(ah.Graph([[0.0]], ["a"]))
    emb = ah.chain_to_intervals(chain)
    assert emb.partition.depth == 0
    assert interval_of(emb.partition, emb.leaf_block(0)) == (F(0), F(1))


def test_zero_degree_cluster_rejected():
    g = ah.Graph(np.zeros((2, 2)), ["a", "b"])
    chain = ah.Chain([g, ah.coarse_grain(g, ah.Clustering([0, 0]))], [[0, 0]])
    with pytest.raises(ZeroDegreeCluster):
        ah.chain_to_intervals(chain)
    # an unvalidated chain whose middle level has a node with no children
    g0 = ah.Graph(np.ones((3, 3)) - np.eye(3))
    chain = ah.Chain([g0, ah.Graph(np.ones((3, 3))), ah.Graph([[1.0]])], [[0, 0, 1], [0, 0, 0]])
    with pytest.raises(ZeroDegreeCluster):
        ah.chain_to_intervals(chain)


def test_zero_degree_node_is_named_by_validate_and_embedding():
    # a and b joined, c alone, all merged into one node
    g = ah.Graph([[0, 1, 0], [1, 0, 0], [0, 0, 0]], ["a", "b", "c"])
    chain = ah.Chain([g, ah.coarse_grain(g, ah.Clustering([0, 0, 0]))], [[0, 0, 0]])
    with pytest.raises(ZeroDegreeCluster, match=r"node 'c' at chain level 0 ") as valid:
        chain.validate()
    with pytest.raises(ZeroDegreeCluster) as embed:
        ah.chain_to_intervals(chain)
    assert str(embed.value) == str(valid.value)


def test_zero_degree_coarse_node_of_an_unvalidated_chain_is_named():
    path = ah.Graph([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], list("abcd"))
    coarse = ah.Graph([[2.0, 0.0], [0.0, 0.0]], ["ab", "cd"])  # not path's coarse-graining
    chain = ah.Chain([path, coarse, ah.Graph([[2.0]], ["all"])], [[0, 0, 1, 1], [0, 0]])
    with pytest.raises(ZeroDegreeCluster, match=r"node 'cd' at chain level 1 "):
        ah.chain_to_intervals(chain)


def test_one_zero_degree_node_is_a_valid_chain():
    chain = ah.build_chain(ah.Graph([[0.0]], ["a"]))
    chain.validate()
    assert chain.depth == 0 and ah.chain_to_intervals(chain).partition.depth == 0


def test_degree_proportional_splits_are_exact(chain_x):
    emb = ah.chain_to_intervals(chain_x)
    part = emb.partition
    for j in range(1, part.depth + 1):
        fine = chain_x.graphs[chain_x.depth - j]
        degs = [F(float(d)) for d in fine.degrees()]
        for node, bid in enumerate(emb.node_blocks[j]):
            parent = part.parent[bid]
            siblings = part.children[parent]
            sib_nodes = [u for u in range(fine.n) if emb.node_blocks[j][u] in siblings]
            total = sum(degs[u] for u in sib_nodes)
            plen = part.blocks[parent].sides[0].length
            # length * total degree == parent length * node degree, exactly
            assert part.blocks[bid].sides[0].length * total == plen * degs[node]


def test_vertex_blocks_golden(toy_embedding):
    partition, vbm = toy_embedding
    assert vbm.labels == tuple(VERTICES)
    expected = {
        "a": ((F(0), F(1, 6)), (F(0), F(2, 9))),
        "b": ((F(1, 6), F(1, 4)), (F(2, 9), F(5, 18))),
        "c": ((F(1, 4), F(7, 12)), (F(1, 2), F(13, 18))),
        "d": ((F(7, 12), F(3, 4)), (F(5, 18), F(1, 2))),
        "e": ((F(3, 4), F(11, 12)), (F(13, 18), F(5, 6))),
        "f": ((F(11, 12), F(1)), (F(5, 6), F(1))),
    }
    for lab in VERTICES:
        assert box_of(partition, vbm.block_of(lab)) == expected[lab]
    # each vertex block is a finest-level block
    leaf_set = set(partition.leaf_ids)
    assert all(b in leaf_set for b in vbm.blocks)


def test_vertex_blocks_pairwise_disjoint(toy_embedding):
    partition, vbm = toy_embedding
    blocks = [partition.blocks[b] for b in vbm.blocks]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert blocks[i].intersection_measure(blocks[j]) == 0


def test_single_vertex_digraph_embedding():
    g = ah.Graph([[0.0]], ["a"], directed=True)
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    partition, vbm = ah.digraph_embedding(g, cx, cy)
    assert box_of(partition, vbm.block_of("a")) == ((F(0), F(1)), (F(0), F(1)))


def test_embedding_depth_mismatch(toy_digraph, chain_x, chain_y):
    with pytest.raises(DepthMismatch):
        ah.digraph_embedding(toy_digraph, ah.pad_chain(chain_x, 4), chain_y)


def test_signal_embedding(toy_embedding):
    partition, vbm = toy_embedding
    ind = ah.signal_to_function({lab: 1.0 if lab == "a" else 0.0 for lab in VERTICES}, vbm)
    assert {partition.leaf_ids[i] for i in np.flatnonzero(ind.vector)} == {vbm.block_of("a")}
    const = ah.signal_to_function([1.0] * 6, vbm)
    expect = sum(float(partition.blocks[b].measure) for b in vbm.blocks)
    assert abs(ah.inner_product(const, const) - expect) <= 1e-14
    assert ah.function_to_signal(const, vbm) == dict.fromkeys(VERTICES, 1.0)
    other = ah.make_dyadic_partition(2, 1)
    with pytest.raises(PartitionMismatch):
        ah.function_to_signal(indicator(other, other.leaf_ids), vbm)
    zero = ah.signal_to_function([0.0] * 6, vbm)
    assert ah.inner_product(zero, zero) == 0.0


def test_signal_unknown_vertex(toy_embedding):
    _, vbm = toy_embedding
    with pytest.raises(UnknownVertex, match=r"^unknown vertex labels: \['z'\]$"):
        ah.signal_to_function({"z": 1.0}, vbm)
    with pytest.raises(UnknownVertex, match=r"^signal misses vertices: \['b', 'c', 'd', 'e', 'f'\]$"):
        ah.signal_to_function({"a": 1.0}, vbm)
    for short in ([1.0] * 5, np.ones(5), (x for x in [1.0] * 5)):
        with pytest.raises(UnknownVertex, match=r"^signal has 5 entries for 6 vertices$"):
            ah.signal_to_function(short, vbm)


def test_signal_forms_match_a_leaf_index_reference(toy_embedding):
    """A mapping in any key order, a list, a tuple, an ndarray and a generator embed the
    same values at the vertex blocks, through a map built in memory or read from JSON."""
    partition, built = toy_embedding
    loaded = ah.VertexBlockMap.from_json(partition, built.to_json())
    values = np.random.default_rng(67).standard_normal(6)
    want = np.zeros(len(partition.leaf_ids))
    for b, v in zip(built.blocks, values):
        want[partition.leaf_index[b]] = v
    for vbm in (built, loaded):
        forms = [dict(zip(vbm.labels[::-1], values[::-1])), values.tolist(), tuple(values),
                 values, (v for v in values)]
        for signal in forms:
            f = ah.signal_to_function(signal, vbm)
            assert f.vector.tobytes() == want.tobytes()
        assert ah.function_to_signal(f, vbm) == dict(zip(VERTICES, values.tolist()))


def test_signal_entries_of_one_value(toy_embedding):
    """Entries holding one value each (a column, nested lists, one-element arrays) and
    entries that float() reads (numpy scalars, ints, strings) embed like the flat signal;
    an entry of another size or kind raises float()'s TypeError; a wrong count raises
    UnknownVertex in every form."""
    _, vbm = toy_embedding
    values = np.random.default_rng(71).standard_normal(6)
    want = ah.signal_to_function(values, vbm).vector
    forms = [values[:, None], values[:, None, None], [[v] for v in values],
             [np.array([v]) for v in values], [np.array(v) for v in values],
             list(values), [repr(v) for v in values.tolist()]]
    for signal in forms:
        assert ah.signal_to_function(signal, vbm).vector.tobytes() == want.tobytes()
    ints = ah.signal_to_function(np.arange(6), vbm).vector
    floats = ah.signal_to_function([float(k) for k in range(6)], vbm).vector
    assert ints.tobytes() == floats.tobytes()
    for bad in (np.ones((6, 2)), [[1.0, 2.0]] * 6, [None] * 6, [1j] * 6, np.ones((6, 0))):
        with pytest.raises(TypeError):
            ah.signal_to_function(bad, vbm)
    for short in (np.ones((5, 1)), [[1.0]] * 7, [np.array([1.0])] * 5, ["1"] * 5):
        with pytest.raises(UnknownVertex, match=rf"^signal has {len(short)} entries for 6 "
                                                r"vertices$"):
            ah.signal_to_function(short, vbm)


def test_restrict_counts(toy_system, toy_embedding):
    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    assert len(restricted) == 39
    assert restricted.counts_by_level() == [6, 6, 26]


def test_restrict_keeps_everything_when_vertices_cover_leaves():
    p = ah.make_dyadic_partition(2, 1)
    vbm = ah.VertexBlockMap(p, ("p", "q", "r", "s"), tuple(p.leaf_ids))
    sys_ = ah.build_system(p)
    restricted = ah.restrict_system(sys_, vbm)
    assert [a.key for a in restricted.atoms] == [a.key for a in sys_.atoms]
    pruned, report = ah.prune_redundant(restricted, vbm)
    assert [a.key for a in pruned.atoms] == [a.key for a in restricted.atoms]
    assert report["rank"] == 4


def test_restricted_parseval_on_vertex_signals(toy_system, toy_embedding):
    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    rng = np.random.default_rng(29)
    for _ in range(20):
        f = ah.signal_to_function(rng.standard_normal(6), vbm)
        n2 = ah.inner_product(f, f)
        cv = ah.analyze(restricted, f)
        assert abs(cv.energy() - n2) <= 1e-10 * n2
        g = ah.synthesize(restricted, cv)
        diff = f.vector - g.vector
        mu = np.array([float(toy_system.partition.blocks[b].measure)
                       for b in toy_system.partition.leaf_ids])
        assert math.sqrt(float(diff @ (mu * diff))) <= 1e-10 * math.sqrt(n2)


def test_restricted_bounds_tight(toy_system, toy_embedding):
    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    lo, hi, rank = ah.vertex_span_bounds(restricted, vbm)
    assert abs(lo - 1.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10
    assert rank == 6


def test_prune_counts_and_rank(toy_system, toy_embedding):
    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    pruned, report = ah.prune_redundant(restricted, vbm)
    assert len(pruned) == 20
    assert pruned.counts_by_level() == [6, 6, 7]
    assert report["rank"] == 6
    lo, hi = report["frame_bounds"]
    assert lo > 0.0 and hi >= lo
    # kept finest atoms all touch an effective child
    part = toy_system.partition
    vblocks = [part.blocks[b] for b in vbm.blocks]
    for a in pruned.atoms:
        if a.level == pruned.depth - 1:
            support = [part.blocks[a.block1], part.blocks[a.block2]]
            assert any(s.intersection_measure(v) > 0 for s in support for v in vblocks)


def test_pruned_least_squares_spans_vertex_space(toy_system, toy_embedding):
    # normal-equations oracle: the 20 restricted functions reproduce any
    # vertex signal in least squares with negligible residual
    partition, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    mu = np.array([float(partition.blocks[b].measure) for b in vbm.blocks])
    pos = {b: i for i, b in enumerate(partition.leaf_ids)}
    cols = [pos[b] for b in vbm.blocks]
    R = np.vstack([f.vector[cols] for f in functions(pruned)]).T  # vertex x function
    Rw = R * np.sqrt(mu)[:, None]
    assert np.linalg.matrix_rank(Rw) == 6
    rng = np.random.default_rng(31)
    for _ in range(10):
        target = rng.standard_normal(6)
        coef, *_ = np.linalg.lstsq(Rw, target * np.sqrt(mu), rcond=None)
        residual = np.linalg.norm(Rw @ coef - target * np.sqrt(mu))
        assert residual <= 1e-9


def test_prune_report_counts(toy_system, toy_embedding):
    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    _, report = ah.prune_redundant(restricted, vbm)
    assert report["counts"] == {"input": 39, "pruned": 20}


def test_vbm_json_roundtrip(toy_embedding):
    partition, vbm = toy_embedding
    back = ah.VertexBlockMap.from_json(partition, vbm.to_json())
    assert back.labels == vbm.labels and back.blocks == vbm.blocks


def test_vbm_json_rejects_shared_and_non_leaf_blocks(toy_embedding):
    partition, vbm = toy_embedding
    obj = vbm.to_json()
    obj["blocks"]["f"] = obj["blocks"]["a"]
    with pytest.raises(ValidationError, match="shared"):
        ah.VertexBlockMap.from_json(partition, obj)
    obj = vbm.to_json()
    obj["blocks"]["f"] = partition.root
    with pytest.raises(ValidationError, match="not leaves"):
        ah.VertexBlockMap.from_json(partition, obj)


def test_vertex_span_bounds_agree_with_general_frame_bounds(toy_system, toy_embedding):
    # dual route: the specialized vertex-span computation must agree with the
    # generic whitened-Gram one
    partition, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    space = [indicator(partition, [b]) for b in vbm.blocks]
    for system in (restricted, pruned):
        lo1, hi1, _ = ah.vertex_span_bounds(system, vbm)
        lo2, hi2 = frame_bounds(functions(system), space)
        assert abs(lo1 - lo2) <= 1e-9 and abs(hi1 - hi2) <= 1e-9


def test_vbm_json_rejects_repeated_label(toy_embedding):
    partition, vbm = toy_embedding
    obj = vbm.to_json()
    obj["labels"][1] = "a"  # ["a", "a", "c", ...]
    with pytest.raises(ValidationError, match=r"labels appear more than once: \['a'\]"):
        ah.VertexBlockMap.from_json(partition, obj)


@pytest.mark.parametrize("block", [1.5, True, "7.0"])
def test_vbm_json_rejects_non_integer_block_id(toy_embedding, block):
    partition, vbm = toy_embedding
    obj = vbm.to_json()
    obj["blocks"]["c"] = block
    with pytest.raises(ah.ParseError, match="vertex block map JSON: block of 'c' must be "
                                            "an integer"):
        ah.VertexBlockMap.from_json(partition, obj)
