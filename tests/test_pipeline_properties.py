"""Property tests of the whole pipeline over random weakly connected digraphs.

For every digraph the restricted system must be tight on the span of the
vertex indicators, the pruned system must keep full rank there, and the
partition, system and vertex block map JSON must round-trip exactly.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah


@st.composite
def digraphs(draw, max_n=10):
    """A random path through every vertex plus random extra edges, so the
    digraph is weakly connected; weights in {1, 2, 3} or three-decimal floats."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        weight = st.integers(101, 1000).map(lambda k: k / 1000)
    else:
        weight = st.integers(1, 3).map(float)
    order = draw(st.permutations(range(n)))
    W = np.zeros((n, n))
    for u, v in zip(order, order[1:]):
        W[u, v] = draw(weight)
    vertex = st.integers(0, n - 1)
    for u, v, w in draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * n)):
        if u != v:
            W[u, v] = w
    return ah.Graph(W, [f"v{k}" for k in range(n)], directed=True)


def json_round_trip(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs())
def test_pipeline_is_tight_full_rank_and_round_trips(g):
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    partition, vbm = ah.digraph_embedding(g, ah.pad_chain(cx, depth), ah.pad_chain(cy, depth))
    restricted = ah.restrict_system(ah.build_system(partition), vbm)
    lo, hi, rank = ah.vertex_span_bounds(restricted, vbm)
    assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10
    assert rank == g.n
    pruned, report = ah.prune_redundant(restricted, vbm)
    assert report["rank"] == g.n

    part_obj = json_round_trip(partition.to_json())
    loaded = ah.HierarchicalPartition.from_json(part_obj)
    assert loaded == partition and loaded.to_json() == part_obj
    for system in (restricted, pruned):
        obj = json_round_trip(system.to_json())
        back = ah.FrameletSystem.from_json(loaded, obj)
        assert back.to_json() == obj
        assert [a.key for a in back.atoms] == [a.key for a in system.atoms]
    vbm_obj = json_round_trip(vbm.to_json())
    vbm_back = ah.VertexBlockMap.from_json(loaded, vbm_obj)
    assert vbm_back.to_json() == vbm_obj
    assert (vbm_back.labels, vbm_back.blocks) == (vbm.labels, vbm.blocks)
