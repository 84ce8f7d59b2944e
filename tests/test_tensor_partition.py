"""The factored tensor partition against the explicit one.

`tensor_partitions` returns a `TensorPartition`, which holds only its 1-D
factors and small per-factor, per-level lists and answers the partition
methods by id arithmetic. `tensor_grid` builds the explicit partition, every
product `Block` and the dicts over them, as `tensor_partitions` once did; it
is also what the factored partition's views are read from. Here the two are
held to each other method by method, on the vertex cascade bit for bit and
on their JSON round trips, for digraph embeddings with integer and float
weights (n <= 32), random factor tuples of one to three factors and dyadic
cubes; validating the factors is held to validating their grid, on valid and
corrupted factors; and the restricted pipeline, writing and reading every
file, the transforms, verify's checks and every CLI step are held to
building none of the views, and the full system's count to listing no key.
"""

import argparse
import json
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah
from adahaar import cli
from adahaar.cli import _load_bundle, _verify_checks
from adahaar.errors import GapOrOverlap, NotNested
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
    view doing so, nor in a JSON round trip; then equality agrees too."""
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
    memo = dict(part._kids)
    for j in range(part.depth + 1):
        assert part.child_counts(j).tolist() == explicit.child_counts(j).tolist()
    assert part._kids == memo and not VIEWS & set(vars(part))
    assert_same_cascade(part.cascade, explicit.cascade)
    assert part.leaf_measures.tobytes() == explicit.leaf_measures.tobytes()
    assert not VIEWS & set(vars(part))
    back = ah.HierarchicalPartition.from_json(json.loads(json.dumps(part.to_json())))
    assert type(back) is TensorPartition and back == part
    assert not VIEWS & (set(vars(part)) | set(vars(back)))
    assert tensor_grid(*back.factors).to_json() == explicit.to_json()
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
        assert part == factors[0] and tensor_grid(*part.factors).to_json() == factors[0].to_json()


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


def corrupted(rng, factor, how):
    """An explicit copy of a 1-D factor with one endpoint of one block shifted by a
    third of its length, or one child re-attached to another block of its parent's
    level; None when the factor has no such other block."""
    blocks, children = dict(factor.blocks), {p: list(k) for p, k in factor.children.items()}
    if how == "shift":
        b = int(rng.choice(list(blocks)))
        lo, hi = blocks[b].sides[0].lo, blocks[b].sides[0].hi
        delta = (hi - lo) / 3
        moves = [(lo, hi - delta), (lo + delta, hi)]
        moves += [(lo, hi + delta)] * (hi + delta <= 1) + [(lo - delta, hi)] * (lo - delta >= 0)
        blocks[b] = ah.Block(b, (ah.Interval(*moves[rng.integers(len(moves))]),))
    else:
        levels = [j for j in range(1, factor.depth + 1) if len(factor.levels[j - 1]) > 1]
        if not levels:
            return None
        j = int(rng.choice(levels))
        c = int(rng.choice(list(factor.levels[j])))
        old = factor.parent[c]
        new = int(rng.choice([p for p in factor.levels[j - 1] if p != old]))
        children[old].remove(c)
        children[new].append(c)
    return ah.HierarchicalPartition(1, factor.levels, blocks, children)


def verdict(report):
    return report.ok, None if report.ok else type(report.first_error())


@pytest.mark.parametrize("how, seed", [(None, 211), ("shift", 212), ("reattach", 213)])
def test_validating_the_factors_validates_their_grid(how, seed):
    """What `from_json` relies on: on random factor tuples with at most 32 leaves, valid
    or with one factor corrupted, `validate_partition` of the grid and of the factors
    agree on `ok` and on the class of `first_error()`."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(60):
        factors = None
        while factors is None or prod(len(p.leaf_ids) for p in factors) > 32:
            k, depth = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            factors = [ah.refine_interval_level(random_interval_levels(rng, depth))
                       for _ in range(k)]
        if how is not None:
            f = int(rng.integers(len(factors)))
            factors[f] = corrupted(rng, factors[f], how)
            if factors[f] is None:
                continue
        reports = [ah.validate_partition(p) for p in factors]
        want = next((verdict(r) for r in reports if not r.ok), (True, None))
        assert verdict(ah.validate_partition(tensor_grid(*factors))) == want
        seen.add(want)
    assert seen == ({(True, None)} if how is None
                    else {(False, GapOrOverlap), (False, NotNested)} if how == "shift"
                    else {(False, NotNested)})


def test_a_product_of_products_keeps_explicit_factors():
    """A 1-D product stands for its factor: the factors of a product stay explicit."""
    halving = ah.make_dyadic_partition(1, 2)
    square = ah.tensor_partitions(halving, halving)
    assert all(type(p) is ah.HierarchicalPartition for p in square.factors)
    assert square == ah.make_dyadic_partition(2, 2)
    assert square != ah.make_dyadic_partition(2, 1)


def test_the_restricted_pipeline_builds_no_grid(tmp_path):
    """Embedding, build, restriction and pruning read the partition's methods, and so do
    `build`'s writes and the loads of every CLI step after it: none of the five views is
    built, and the full system is counted with no key listed and no child list asked
    for. At n=256 the pipeline holds about 2 MB traced (38 MB when every product block
    and the dicts over them were built)."""
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
    memo = dict(partition._kids)
    count = len(full)
    assert "keys" not in vars(full) and partition._kids == memo
    files = {"partition": partition, "vbm": vbm, "system_full": full,
             "system_restricted": restricted, "system_pruned": pruned}
    for name, obj in files.items():
        cli._write_json(tmp_path / f"{name}.json", obj.to_json())
    assert (tmp_path / "partition.json").stat().st_size < 2 ** 20
    for name in ("system_full", "system_restricted", "system_pruned"):
        args = argparse.Namespace(partition=tmp_path / "partition.json",
                                  system=tmp_path / f"{name}.json", vbm=tmp_path / "vbm.json")
        loaded, system, loaded_vbm = _load_bundle(args)
        assert type(loaded) is TensorPartition and loaded == partition
        assert loaded_vbm.blocks == vbm.blocks and len(system) == len(files[name])
        assert system.full == (name == "system_full") == ("keys" not in vars(system))
        assert not VIEWS & set(vars(loaded))
    assert not VIEWS & set(vars(partition))
    lo, hi, rank = ah.vertex_span_bounds(restricted, vbm)
    assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10 and rank == 256
    assert not VIEWS & set(vars(partition))
    assert count == 1 + len(full.keys)


def test_transforms_round_trips_and_checks_build_no_grid(tmp_path, monkeypatch, capsys):
    """Reading a system file, both transforms and verify's checks read the methods and
    the factored whole-tree cascade: a product partition builds none of its views. Nor
    does any CLI step, run in process with the views made unreadable."""
    partition, vbm = embed(random_digraph(np.random.default_rng([12, 1, 127]), 12, True))
    rng = np.random.default_rng(127)
    for system in systems_of(partition, vbm):
        loaded = ah.FrameletSystem.from_json(partition, system.to_json())
        f = ah.signal_to_function(rng.standard_normal(12), vbm)
        ah.function_to_signal(ah.synthesize(loaded, ah.analyze(loaded, f)), vbm)
        for v in (vbm, None):
            assert len(list(_verify_checks(loaded, v, rng, 2))) == 6
    assert not VIEWS & set(vars(partition))
    g = random_digraph(np.random.default_rng([12, 1, 127]), 12, True)
    (tmp_path / "graph.json").write_text(json.dumps(g.to_json()))
    (tmp_path / "signal.csv").write_text(
        "".join("%s,%.17g\n" % row for row in zip(g.labels, rng.standard_normal(12))))
    monkeypatch.setattr(TensorPartition, "_grid",
                        property(lambda self: pytest.fail("a CLI step built the grid")))
    d = tmp_path
    bundle = ["--partition", d / "partition.json", "--vbm", d / "vbm.json"]
    restricted = ["--system", d / "system_restricted.json"]
    steps = [(["symmetrize", d / "graph.json", "--out", d], 0),
             (["chain", d / "gx.json", "--out", d / "chain_x.json"], 0),
             (["chain", d / "gy.json", "--out", d / "chain_y.json"], 0),
             (["build", "--chain-x", d / "chain_x.json", "--chain-y", d / "chain_y.json",
               "--out", d, "--prune"], 0),
             (["analyze", d / "signal.csv", *bundle, *restricted, "--out", d / "c.csv"], 0),
             (["synthesize", d / "c.csv", *bundle, *restricted, "--out", d / "back.csv"], 0)]
    steps += [(["verify", *bundle, "--system", d / f"system_{s}.json"], code)
              for s, code in (("full", 0), ("restricted", 0), ("pruned", 1))]
    for argv, code in steps:
        assert cli.main([str(a) for a in argv]) == code, (argv, capsys.readouterr())
    with pytest.raises(pytest.fail.Exception):  # the guard bites
        ah.make_dyadic_partition(2, 1).blocks
    assert json.loads((d / "system_full.json").read_text()) == {"depth": partition.depth,
                                                                 "full": True}
