"""Shared fixtures: the two worked toy graphs, their chains and embeddings."""

from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah

VERTICES = list("abcdef")

# 6-vertex digraph whose symmetrization yields the undirected toy pair
DIGRAPH_W = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]

# out-profile of the digraph; also the undirected toy graph on its own
GX_W = [
    [0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
]

# in-profile of the digraph
GY_W = [
    [0, 1, 1, 1, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 1],
    [0, 0, 1, 1, 0, 0],
    [1, 0, 1, 1, 0, 0],
]

# hand-picked clusterings reproducing the reference coarsening of each graph
GX_CLUSTER_SETS = [[{0, 1}, {2, 3, 4}, {5}], [{0}, {1, 2}], [{0, 1}]]
GY_CLUSTER_SETS = [[{0, 1, 3}, {2, 4}, {5}], [{0}, {1, 2}], [{0, 1}]]

# expected finest-level intervals, in vertex order a..f
GX_LEAVES = [(F(0), F(1, 6)), (F(1, 6), F(1, 4)), (F(1, 4), F(7, 12)),
             (F(7, 12), F(3, 4)), (F(3, 4), F(11, 12)), (F(11, 12), F(1))]
GY_LEAVES = [(F(0), F(2, 9)), (F(2, 9), F(5, 18)), (F(1, 2), F(13, 18)),
             (F(5, 18), F(1, 2)), (F(13, 18), F(5, 6)), (F(5, 6), F(1))]


def chain_from_sets(graph, sets_list):
    """Explicit chain: apply the given clusterings finest to coarsest."""
    graphs, parents = [graph], []
    current = graph
    for sets in sets_list:
        clustering = ah.Clustering.from_sets(sets, current.n)
        current = ah.coarse_grain(current, clustering)
        parents.append(clustering.assignment)
        graphs.append(current)
    return ah.Chain(graphs, parents)


def random_interval_levels(rng, depth, max_children=3, denominators=(2, 3, 4, 5)):
    """Random nested interval levels with exact rational cut points."""
    levels = [[(F(0), F(1))]]
    for _ in range(depth):
        nxt = []
        for lo, hi in levels[-1]:
            c = int(rng.integers(1, max_children + 1))
            if c == 1:
                nxt.append((lo, hi))
                continue
            q = int(rng.choice(denominators)) * c
            ks = sorted(rng.choice(np.arange(1, q), size=c - 1, replace=False).tolist())
            pts = [lo] + [lo + (hi - lo) * F(int(k), q) for k in ks] + [hi]
            nxt.extend(zip(pts, pts[1:]))
        levels.append(nxt)
    return levels


def indicator(part, leaves):
    """The function that is 1 on the given leaves of `part` and 0 elsewhere."""
    vec = np.zeros(len(part.leaf_ids))
    vec[[part.leaf_index[b] for b in leaves]] = 1.0
    return ah.PwcFunction(part, vec)


def functions(system):
    """The system's functions, scaling first, as the rows of its function matrix."""
    return [ah.PwcFunction(system.partition, row) for row in system.function_matrix()]


def random_digraph(rng, n, float_weights):
    """Weakly connected random digraph: a random Hamiltonian path plus edges
    with probability 0.2; weights in {1, 2, 3} or three-decimal floats."""
    adj = rng.random((n, n)) < 0.2
    order = rng.permutation(n)
    adj[order[:-1], order[1:]] = True
    np.fill_diagonal(adj, False)
    if float_weights:
        W = np.where(adj, rng.integers(101, 1001, size=(n, n)) / 1000, 0.0)
    else:
        W = np.where(adj, rng.integers(1, 4, size=(n, n)), 0).astype(float)
    return ah.Graph(W, [f"v{k}" for k in range(n)], directed=True)


@pytest.fixture(scope="session")
def toy_digraph():
    return ah.Graph(DIGRAPH_W, VERTICES, directed=True)


@pytest.fixture(scope="session")
def toy_gx():
    return ah.Graph(GX_W, VERTICES)


@pytest.fixture(scope="session")
def toy_gy():
    return ah.Graph(GY_W, VERTICES)


@pytest.fixture(scope="session")
def chain_x(toy_gx):
    chain = chain_from_sets(toy_gx, GX_CLUSTER_SETS)
    chain.validate()
    return chain


@pytest.fixture(scope="session")
def chain_y(toy_gy):
    chain = chain_from_sets(toy_gy, GY_CLUSTER_SETS)
    chain.validate()
    return chain


@pytest.fixture(scope="session")
def toy_embedding(toy_digraph, chain_x, chain_y):
    """(tensor partition, vertex block map) of the toy digraph."""
    return ah.digraph_embedding(toy_digraph, chain_x, chain_y)


@pytest.fixture(scope="session")
def toy_system(toy_embedding):
    partition, _ = toy_embedding
    return ah.build_system(partition)


@pytest.fixture(scope="session")
def interval_system(chain_x):
    """Depth-3 system on the 1-D embedding of the undirected toy graph."""
    return ah.build_system(ah.chain_to_intervals(chain_x).partition)
