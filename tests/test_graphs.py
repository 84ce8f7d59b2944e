import re

import numpy as np
import pytest

import adahaar as ah
from adahaar import BadClustering, ClustererStalled, ParseError, ValidationError

from conftest import GX_W, GY_W, VERTICES, chain_from_sets
from test_tree_oracles import renumbered, wide_range_graph


def test_degree_row_sum(toy_gx):
    assert toy_gx.degree(2) == 4.0  # vertex c
    assert list(toy_gx.degrees()) == [2, 1, 4, 2, 2, 1]
    isolated = ah.Graph(np.zeros((2, 2)))
    assert isolated.degree(0) == 0.0


def test_cluster_degree_in_coarse_graph(toy_gx):
    c = ah.Clustering.from_sets([{0, 1}, {2, 3, 4, 5}], 6)
    g1 = ah.coarse_grain(toy_gx, c)
    assert g1.degree(1) == 9.0  # the big cluster, self-loop counted once
    assert g1.degree(0) == 3.0


def test_weak_connectivity(toy_digraph):
    assert ah.is_weakly_connected(toy_digraph)
    assert not ah.is_weakly_connected(ah.Graph(np.zeros((2, 2))))
    assert ah.is_weakly_connected(ah.Graph(np.zeros((1, 1))))


def test_symmetrize_golden(toy_digraph):
    gx, gy = ah.symmetrize(toy_digraph)
    assert np.array_equal(gx.weights, np.array(GX_W, float))
    assert np.array_equal(gy.weights, np.array(GY_W, float))
    assert gx.labels == tuple(VERTICES) and gy.labels == tuple(VERTICES)
    assert not gx.directed and not gy.directed
    assert np.all(np.diag(gx.weights) == 0) and np.all(np.diag(gy.weights) == 0)


def test_symmetrize_single_vertex():
    g = ah.Graph([[0.0]], ["a"], directed=True)
    gx, gy = ah.symmetrize(g)
    assert gx.weights.sum() == 0 and gy.weights.sum() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_weights(bad):
    W = np.ones((3, 3))
    W[2, 0] = bad
    with pytest.raises(ValidationError, match=r"finite.*\(2, 0\)"):
        ah.Graph(W, directed=True)


def test_symmetrize_transpose_swaps_pair(toy_digraph):
    gx, gy = ah.symmetrize(toy_digraph)
    rx, ry = ah.symmetrize(ah.Graph(toy_digraph.weights.T, VERTICES, directed=True))
    assert np.array_equal(rx.weights, gy.weights)
    assert np.array_equal(ry.weights, gx.weights)


def test_symmetrize_warns_when_disconnected():
    g = ah.Graph(np.zeros((2, 2)), directed=True)
    with pytest.warns(UserWarning, match=r"\(2 components\)"):
        ah.symmetrize(g)


def test_symmetrize_keeps_connectivity_random():
    # random weakly connected digraphs: both outputs stay connected
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        W = np.zeros((n, n))
        for v in range(1, n):  # random arborescence, random arc direction
            u = int(rng.integers(0, v))
            if rng.random() < 0.5:
                W[u, v] = 1.0
            else:
                W[v, u] = 1.0
        extra = int(rng.integers(0, n))
        for _ in range(extra):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                W[u, v] = float(rng.integers(1, 4))
        g = ah.Graph(W, directed=True)
        assert ah.is_weakly_connected(g)
        gx, gy = ah.symmetrize(g)
        assert ah.is_weakly_connected(gx) and ah.is_weakly_connected(gy)
        assert np.array_equal(gx.weights, gx.weights.T)
        assert np.array_equal(gy.weights, gy.weights.T)


def test_coarse_grain_golden_self_loops(toy_gx):
    g2 = ah.coarse_grain(toy_gx, ah.Clustering.from_sets([{0, 1}, {2, 3, 4}, {5}], 6))
    expected = np.array([[2, 1, 0], [1, 6, 1], [0, 1, 0]], float)
    assert np.array_equal(g2.weights, expected)
    assert g2.labels == ("a+b", "c+d+e", "f")


def test_coarse_grain_identity_and_all_in_one(toy_gx):
    singleton = ah.coarse_grain(toy_gx, ah.Clustering(range(6)))
    assert np.array_equal(singleton.weights, toy_gx.weights)
    lump = ah.coarse_grain(toy_gx, ah.Clustering([0] * 6))
    assert lump.n == 1
    assert lump.weights[0, 0] == toy_gx.weights.sum()


def brute_coarse(W, members):
    m = len(members)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = sum(W[u, v] for u in members[i] for v in members[j])
    return out


def test_coarse_grain_matches_brute_force_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 31))
        W = rng.integers(0, 5, size=(n, n))
        W = np.triu(W, 1)
        W = (W + W.T).astype(float)
        g = ah.Graph(W)
        m = int(rng.integers(1, n + 1))
        clustering = ah.Clustering(rng.integers(0, m, size=n))
        coarse = ah.coarse_grain(g, clustering)
        assert np.array_equal(coarse.weights, brute_coarse(W, clustering.members))
        assert coarse.weights.sum() == W.sum()  # total weight conserved
        # degree of a cluster equals the sum of its members' degrees
        for cid, grp in enumerate(clustering.members):
            assert coarse.degree(cid) == sum(g.degree(v) for v in grp)


def test_coarse_grain_rejects_short_assignment(toy_gx):
    with pytest.raises(BadClustering):
        ah.coarse_grain(toy_gx, ah.Clustering([0, 0, 1]))


def test_clustering_from_sets_must_partition():
    with pytest.raises(BadClustering):
        ah.Clustering.from_sets([{0, 1}, {1, 2}], 3)
    with pytest.raises(BadClustering):
        ah.Clustering.from_sets([{0, 1}], 3)


def test_explicit_chains_validate(chain_x, chain_y):
    assert chain_x.depth == 3 and chain_y.depth == 3
    assert chain_x.graphs[-1].n == 1
    # coarse weights along the first chain match the hand-computed sums
    assert np.array_equal(chain_x.graphs[1].weights,
                          np.array([[2, 1, 0], [1, 6, 1], [0, 1, 0]], float))
    assert np.array_equal(chain_x.graphs[2].weights, np.array([[2, 1], [1, 8]], float))
    assert np.array_equal(chain_y.graphs[1].weights,
                          np.array([[4, 3, 2], [3, 2, 1], [2, 1, 0]], float))


def test_chain_members(chain_x):
    members = chain_x.members(1)
    assert members == [frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5})]
    assert chain_x.members(3) == [frozenset(range(6))]


def test_chain_levels_match_brute_force(chain_x, chain_y, toy_gx):
    # re-derive every coarse weight by double summation over member sets
    chains = [chain_x, chain_y, ah.build_chain(toy_gx)]
    for chain in chains:
        W0 = chain.graphs[0].weights
        for i in range(1, len(chain.graphs)):
            members = chain.members(i)
            coarse = chain.graphs[i].weights
            for p, gp in enumerate(members):
                for q, gq in enumerate(members):
                    assert coarse[p, q] == sum(W0[u, v] for u in gp for v in gq)


def test_build_chain_single_vertex():
    g = ah.Graph([[0.0]], ["a"])
    chain = ah.build_chain(g)
    assert chain.depth == 0 and len(chain.graphs) == 1


def test_build_chain_path_graph_validates():
    W = np.zeros((5, 5))
    for i in range(4):
        W[i, i + 1] = W[i + 1, i] = 1.0
    chain = ah.build_chain(ah.Graph(W))
    chain.validate()
    assert chain.graphs[-1].n == 1
    # every level's total weight equals the original
    assert all(g.weights.sum() == W.sum() for g in chain.graphs)


def test_build_chain_respects_targets(toy_gx):
    chain = ah.build_chain(toy_gx, targets=[3, 2, 1])
    assert [g.n for g in chain.graphs] == [6, 3, 2, 1]
    chain.validate()


def test_build_chain_stalls_on_lazy_clusterer(toy_gx):
    def lazy(g, target=None):
        return ah.Clustering(range(g.n))

    with pytest.raises(ClustererStalled):
        ah.build_chain(toy_gx, clusterer=lazy)


def test_build_chain_appends_root_at_max_depth(toy_gx):
    chain = ah.build_chain(toy_gx, max_depth=1)
    assert chain.graphs[-1].n == 1
    chain.validate()


def test_build_chain_rejects_a_negative_depth(toy_gx):
    with pytest.raises(ValueError, match="max_depth must be 0 or more, got -3"):
        ah.build_chain(toy_gx, max_depth=-3)
    assert ah.build_chain(toy_gx, max_depth=0).depth == 1  # one all-in-one step


@pytest.mark.parametrize("targets, message", [
    ([6], "step 0: target 6 clusters is not in 1..5 for 6 nodes"),
    ([10], "step 0: target 10 clusters is not in 1..5 for 6 nodes"),
    ([0], "step 0: target 0 clusters is not in 1..5 for 6 nodes"),
    ([3, 3], "step 1: target 3 clusters is not in 1..2 for 3 nodes"),
    ([3, -2], "step 1: target -2 clusters is not in 1..2 for 3 nodes"),
])
def test_build_chain_rejects_targets_out_of_range(toy_gx, targets, message):
    with pytest.raises(ValueError) as info:
        ah.build_chain(toy_gx, targets=targets)
    assert type(info.value) is ValueError and str(info.value) == message


def test_pad_chain(chain_x):
    padded = ah.pad_chain(chain_x, 5)
    assert padded.depth == 5
    assert padded.graphs[0] is chain_x.graphs[0] and padded.graphs[1] is chain_x.graphs[0]
    assert np.array_equal(padded.parents[0], np.arange(6))
    padded.validate()
    assert ah.pad_chain(chain_x, 3) is chain_x
    with pytest.raises(ValueError):
        ah.pad_chain(chain_x, 2)


def test_default_cluster_pair_to_one():
    g = ah.Graph([[0, 1], [1, 0]])
    c = ah.default_cluster(g, target=1)
    assert c.m == 1 and c.members == [(0, 1)]


def test_default_cluster_star_first_merge():
    # star with center 0: the first merge must pair the center with leaf 1
    n = 5
    W = np.zeros((n, n))
    W[0, 1:] = W[1:, 0] = 1.0
    g = ah.Graph(W)
    c = ah.default_cluster(g, target=n - 1)
    assert (0, 1) in c.members
    c2 = ah.default_cluster(g, target=2)
    assert c2.m == 2
    assert any(len(grp) == 1 for grp in c2.members)


def test_default_cluster_deterministic(toy_gx):
    a = ah.default_cluster(toy_gx, target=3)
    b = ah.default_cluster(toy_gx, target=3)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.m == 3


def test_chain_json_roundtrip(chain_x):
    back = ah.Chain.from_json(chain_x.to_json())
    assert back.depth == chain_x.depth
    assert all(np.array_equal(p, q) for p, q in zip(back.parents, chain_x.parents))
    assert all(np.array_equal(g.weights, h.weights)
               for g, h in zip(back.graphs, chain_x.graphs))


def test_chain_json_tampered_fails(chain_x):
    obj = chain_x.to_json()
    obj["graphs"][1]["edges"][0][2] += 1.0  # corrupt one coarse weight
    with pytest.raises(ValidationError):
        ah.Chain.from_json(obj)


def test_graph_json_roundtrip(toy_digraph, toy_gx):
    for g in (toy_digraph, toy_gx):
        back = ah.Graph.from_json(g.to_json())
        assert np.array_equal(back.weights, g.weights)
        assert back.labels == g.labels and back.directed == g.directed


def test_graph_json_malformed():
    with pytest.raises(ParseError):
        ah.Graph.from_json({"labels": ["a"]})


def test_graph_rejects_bad_matrices():
    with pytest.raises(ValueError):
        ah.Graph([[0, 1], [2, 0]])  # asymmetric but undirected
    with pytest.raises(ValueError):
        ah.Graph([[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        ah.Graph(np.zeros((2, 3)))


@pytest.mark.parametrize("index", [2**63, -2**63 - 1, 10**30])
def test_chain_json_parent_beyond_int64_is_parse_error(chain_x, index):
    obj = chain_x.to_json()
    obj["parents"][0][2] = index
    with pytest.raises(ParseError, match="malformed chain JSON"):
        ah.Chain.from_json(obj)


@pytest.mark.parametrize("endpoint", [1.9, 1.0, True, [1]])
def test_graph_json_rejects_non_integer_edge_endpoint(endpoint):
    obj = {"labels": ["a", "b", "c"], "directed": True, "edges": [[0, endpoint, 2.0]]}
    with pytest.raises(ParseError, match="graph JSON: edge endpoint must be an integer"):
        ah.Graph.from_json(obj)


@pytest.mark.parametrize("edge", [[-1, 0, 2.0], [0, 3, 2.0], ["a", -3, 1.0]])
def test_graph_json_rejects_edge_endpoint_out_of_range(edge):
    obj = {"labels": ["a", "b", "c"], "directed": True, "edges": [[0, 1, 1.0], edge]}
    with pytest.raises(ParseError, match=rf"edge {re.escape(str(edge))} has an endpoint "
                                         r"outside 0\.\.2"):
        ah.Graph.from_json(obj)


@pytest.mark.parametrize("parents", [[0.0, 0.7], [0, True], [0, "1.0"]])
def test_chain_json_rejects_non_integer_parent_index(parents):
    g = ah.Graph([[0, 1], [1, 0]])
    obj = ah.build_chain(g).to_json()
    assert obj["parents"] == [[0, 0]]
    obj["parents"][0] = parents
    with pytest.raises(ParseError, match="chain JSON: parent index must be an integer"):
        ah.Chain.from_json(obj)


@pytest.mark.parametrize("field, value", [("directed", "false"), ("directed", 0),
                                          ("directed", None), ("labels", "abc"),
                                          ("labels", {"a": 0, "b": 1, "c": 2})])
def test_graph_json_rejects_field_of_wrong_type(field, value):
    obj = {"labels": ["a", "b", "c"], "directed": True, "edges": [[0, 1, 1.0]]}
    obj[field] = value
    with pytest.raises(ParseError, match=f"graph JSON: {field} must be"):
        ah.Graph.from_json(obj)


def large_integer_digraph(rng, n=16):
    """Weakly connected digraph with integer weights in 1e7..1e8. Its symmetrized
    weights reach about 1e16, so level totals pass 2**53, where float sums round."""
    adj = rng.random((n, n)) < 0.2
    order = rng.permutation(n)
    adj[order[:-1], order[1:]] = True
    np.fill_diagonal(adj, False)
    W = np.where(adj, rng.integers(10 ** 7, 10 ** 8, size=(n, n)), 0).astype(float)
    return ah.Graph(W, [f"v{k}" for k in range(n)], directed=True)


def with_weight(chain, level, i, j, w):
    """The chain with the weight of edge (i, j) of one level set to w."""
    graphs = list(chain.graphs)
    W = np.array(graphs[level].weights)
    W[i, j] = W[j, i] = w
    graphs[level] = ah.Graph(W, graphs[level].labels)
    return ah.Chain(graphs, chain.parents)


@pytest.mark.parametrize("seed", range(10))
def test_chain_validate_accepts_integer_sums_beyond_2_53(seed):
    """Integer sums above 2**53 are compared within WEIGHT_TOL relative, not exactly; a
    coarse weight off by 1e-9 relative, or a missing one, is still caught."""
    for g in ah.symmetrize(large_integer_digraph(np.random.default_rng([seed, 61]))):
        chain = ah.build_chain(g)
        assert g.weights.sum() >= 2 ** 53
        chain.validate()
        for level, coarse in enumerate(chain.graphs[1:], 1):
            W = coarse.weights
            for i, j in {np.unravel_index(np.argmax(W), W.shape),
                         np.unravel_index(np.argmin(np.where(W > 0, W, np.inf)), W.shape)}:
                with pytest.raises(ValidationError, match=f"level {level} weights"):
                    with_weight(chain, level, i, j, W[i, j] * (1 + 1e-9)).validate()
            zero = np.argwhere(W == 0)
            if zero.size:
                with pytest.raises(ValidationError, match=f"level {level} weights"):
                    with_weight(chain, level, *zero[0], 1.0).validate()


def test_chain_validate_accepts_renumbered_wide_range_chain():
    """Weights spanning 1e-150..1e150 summed in another node order differ in the last
    bits, which at 1e150 is far above any absolute tolerance."""
    rng = np.random.default_rng([30, 150])
    chain = ah.build_chain(wide_range_graph(rng, 30))
    renumbered(chain, np.random.default_rng(67)).validate()
    coarse = chain.graphs[1].weights
    i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
    with pytest.raises(ValidationError, match="level 1 weights"):
        with_weight(chain, 1, i, j, coarse[i, j] * (1 + 1e-9)).validate()
