"""The incremental greedy clusterer against the pair-by-pair clusterer it replaced.

`oracle_default_cluster` is the earlier `default_cluster`, kept verbatim: it
sums every cluster pair afresh on every merge. The fast clusterer must give
the same assignment for every graph and target, ties included, and so the
same chains.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah
from adahaar import Clustering, Graph
from conftest import random_digraph


def oracle_default_cluster(g: Graph, target=None) -> Clustering:
    """Deterministic greedy merge down to `target` clusters (default ceil(n/2)).

    Each step merges the cluster pair maximizing inter-cluster weight
    divided by the product of the clusters' degree sums; ties go to the
    lexicographically smallest pair of smallest member ids.
    """
    if g.directed:
        raise ValueError("default_cluster expects an undirected graph")
    n = g.n
    if target is None:
        target = (n + 1) // 2
    target = max(1, int(target))
    deg = g.degrees()
    clusters = {v: [v] for v in range(n)}
    while len(clusters) > target:
        best = None
        keys = sorted(clusters)  # key == smallest member, so pair order is the tie-break
        for a_pos, a in enumerate(keys):
            for b in keys[a_pos + 1:]:
                inter = float(g.weights[np.ix_(clusters[a], clusters[b])].sum())
                if inter <= 0:
                    continue
                score = inter / (deg[clusters[a]].sum() * deg[clusters[b]].sum())
                if best is None or score > best[0]:
                    best = (score, a, b)
        if best is None:
            break  # nothing mergeable; disconnected input
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    assignment = [0] * n
    for key, grp in clusters.items():
        for v in grp:
            assignment[v] = key
    return Clustering(assignment)


@st.composite
def graphs_and_targets(draw, max_n=14):
    """A random symmetric graph, self-loops allowed, and a target of None, 1,
    anything in 1..n, or n and above. Weights are zero or one of: integers
    1-3, where exact ties are common; three-decimal floats from a few values,
    where ties hold in exact arithmetic but float sums in different orders
    differ in the last bit; or three-decimal floats in [0.101, 1]."""
    n = draw(st.integers(1, max_n))
    nonzero = draw(st.sampled_from([
        st.sampled_from([1.0, 2.0, 3.0]),
        st.sampled_from([0.001, 0.002, 0.003, 0.1, 0.2, 0.3]),
        st.integers(101, 1000).map(lambda k: k / 1000),
    ]))
    weight = st.one_of(st.just(0.0), nonzero)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            W[i, j] = W[j, i] = draw(weight)
    target = draw(st.one_of(st.none(), st.just(1), st.integers(1, n), st.integers(n, n + 3)))
    return Graph(W), target


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_targets())
def test_default_cluster_matches_oracle(case):
    g, target = case
    got = ah.default_cluster(g, target).assignment
    want = oracle_default_cluster(g, target).assignment
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("target", [0, -5, 2.7, 2.0, "3", True])
def test_default_cluster_rejects_a_target_that_is_no_cluster_count(target):
    """A target below 1, or one that is not an integer, is a ValueError that names it,
    where 0 and -5 once gave one cluster and 2.7 two; a target of n or more merges
    nothing, and a numpy integer is a count."""
    W = np.diag(np.ones(5), 1)
    g = Graph(W + W.T)
    with pytest.raises(ValueError, match=f"got {target!r}"):
        ah.default_cluster(g, target)
    assert ah.default_cluster(g, 6).m == ah.default_cluster(g, 10).m == 6
    assert ah.default_cluster(g, np.int64(2)).m == 2


@pytest.mark.parametrize("W, want", [
    # (0, 1) and (1, 2) both score 1/2: the lexicographically first pair merges
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [0, 0, 1]),
    # (0, 2) and (1, 2) both score 2.5 in exact arithmetic, but
    # 0.3 / (0.3 * 0.4) rounds above 0.1 / (0.1 * 0.4), so (1, 2) merges
    ([[0, 0, 0.1], [0, 0, 0.3], [0.1, 0.3, 0]], [0, 1, 1]),
], ids=["exact_tie", "tie_broken_by_rounding"])
def test_default_cluster_ties_match_oracle(W, want):
    g = Graph(W)
    assert ah.default_cluster(g).assignment.tolist() == want
    assert oracle_default_cluster(g).assignment.tolist() == want


@pytest.mark.parametrize("weight", [1e308, 1e-170], ids=["sums_overflow", "scores_overflow"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_default_cluster_matches_oracle_on_extreme_weights(weight):
    W = np.full((5, 5), weight)
    np.fill_diagonal(W, 0)
    W[0, 4] = W[4, 0] = 0
    g = Graph(W)
    for target in (None, 1):
        got = ah.default_cluster(g, target).assignment.tolist()
        assert got == oracle_default_cluster(g, target).assignment.tolist()


def test_build_chain_matches_oracle_on_seeded_digraphs():
    compared = 0
    for n in (8, 16, 40, 64):
        for float_weights in (False, True):
            g = random_digraph(np.random.default_rng([n, int(float_weights), 10]), n,
                               float_weights)
            for h in ah.symmetrize(g):
                got = json.dumps(ah.build_chain(h).to_json())
                want = json.dumps(ah.build_chain(h, clusterer=oracle_default_cluster).to_json())
                assert got == want, (n, float_weights)
                compared += 1
    assert compared == 16
