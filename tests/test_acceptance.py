"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from fractions import Fraction as F
from itertools import combinations

import numpy as np

import adahaar as ah

from conftest import (GX_LEAVES, GY_LEAVES, VERTICES, chain_from_sets, functions,
                      random_interval_levels)
from oracles import atom_blocks, function_matrix, gram_matrix, leaves_under
from test_cli import run_cli, run_pipeline


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def rel_parseval_error(system, f):
    n2 = ah.inner_product(f, f)
    return abs(ah.analyze(system, f).energy() - n2) / n2


def rel_reconstruction_error(system, f):
    g = ah.synthesize(system, ah.analyze(system, f))
    part = system.partition
    diff = ah.PwcFunction(part, f.vector - g.vector)
    return math.sqrt(ah.inner_product(diff, diff)) / math.sqrt(ah.inner_product(f, f))


def test_criterion_1_refinement_orthogonality():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 21))
        b = rng.random(m) + 1e-3
        b /= b.sum()
        A = ah.refinement_matrix(b)
        worst = max(worst, float(np.abs(A.T @ A - np.eye(m)).max()))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (split matrix orthogonality, 1000 draws)",
           worst <= 1e-12 and elapsed < 1.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_interval_system_golden(chain_x):
    emb = ah.chain_to_intervals(chain_x)
    part = emb.partition
    got = [(part.blocks[emb.leaf_block(v)].sides[0].lo,
            part.blocks[emb.leaf_block(v)].sides[0].hi) for v in range(6)]
    endpoints_ok = got == GX_LEAVES

    system = ah.build_system(part)
    size_ok = len(system) == 7

    rows = function_matrix(system)[1:]
    b1, b2 = atom_blocks(part, system.keys[0])
    first_leaf = leaves_under(part, b1)[0]
    last_leaf = leaves_under(part, b2)[0]
    atom0_ok = (abs(rows[0][part.leaf_index[first_leaf]] - math.sqrt(3)) <= 1e-12
               and abs(rows[0][part.leaf_index[last_leaf]] + 1 / math.sqrt(3)) <= 1e-12)

    # second atom recomputed through the exact rational oracle: the squared
    # values must be the sibling/child measure ratios, independent of any
    # printed coefficients
    key = system.keys[1]
    b1, b2 = atom_blocks(part, key)
    pm = part.blocks[key[1]].measure
    sq1 = (part.blocks[b2].measure / pm) / part.blocks[b1].measure
    sq2 = (part.blocks[b1].measure / pm) / part.blocks[b2].measure
    v1 = rows[1][part.leaf_index[leaves_under(part, b1)[0]]]
    v2 = rows[1][part.leaf_index[leaves_under(part, b2)[0]]]
    atom1_ok = (v1 > 0 > v2
               and abs(v1 * v1 - float(sq1)) <= 1e-14
               and abs(v2 * v2 - float(sq2)) <= 1e-13 * float(sq2)
               and sq1 == F(1, 6) and sq2 == F(32, 3))

    rng = np.random.default_rng(102)
    parseval_ok = all(
        rel_parseval_error(system, ah.PwcFunction(
            part, rng.standard_normal(6))) <= 1e-10
        for _ in range(20))

    report("criterion 2 (undirected toy golden)",
           endpoints_ok and size_ok and atom0_ok and atom1_ok and parseval_ok,
           f"endpoints={endpoints_ok} size={size_ok} atom0={atom0_ok} "
           f"atom1={atom1_ok} parseval={parseval_ok}")


def test_criterion_3_digraph_golden(toy_digraph, toy_gx, toy_gy, chain_x, chain_y):
    t0 = time.perf_counter()
    gx, gy = ah.symmetrize(toy_digraph)
    sym_ok = (np.array_equal(gx.weights, toy_gx.weights)
              and np.array_equal(gy.weights, toy_gy.weights))

    emb_y = ah.chain_to_intervals(chain_y)
    py = emb_y.partition
    got = [(py.blocks[emb_y.leaf_block(v)].sides[0].lo,
            py.blocks[emb_y.leaf_block(v)].sides[0].hi) for v in range(6)]
    y_ok = got == GY_LEAVES

    partition, vbm = ah.digraph_embedding(toy_digraph, chain_x, chain_y)
    expected_blocks = {
        "a": ((F(0), F(1, 6)), (F(0), F(2, 9))),
        "b": ((F(1, 6), F(1, 4)), (F(2, 9), F(5, 18))),
        "c": ((F(1, 4), F(7, 12)), (F(1, 2), F(13, 18))),
        "d": ((F(7, 12), F(3, 4)), (F(5, 18), F(1, 2))),
        "e": ((F(3, 4), F(11, 12)), (F(13, 18), F(5, 6))),
        "f": ((F(11, 12), F(1)), (F(5, 6), F(1))),
    }
    blocks_ok = all(
        tuple((s.lo, s.hi) for s in partition.blocks[vbm.block_of(lab)].sides)
        == expected_blocks[lab] for lab in VERTICES)

    system = ah.build_system(partition)
    restricted = ah.restrict_system(system, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    counts_ok = (system.counts_by_level() == [6, 8, 80]
                 and len(system) == 95
                 and len(restricted) == 39
                 and len(pruned) == 20)
    elapsed = time.perf_counter() - t0
    report("criterion 3 (digraph toy golden)",
           sym_ok and y_ok and blocks_ok and counts_ok and elapsed < 1.0,
           f"symmetrize={sym_ok} intervals={y_ok} blocks={blocks_ok} "
           f"counts={counts_ok} {elapsed:.2f}s")


def test_criterion_4_parseval_reconstruction(toy_system, toy_embedding):
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_p = worst_r = 0.0

    cases = [ah.build_system(ah.make_dyadic_partition(1, 4)),
             ah.build_system(ah.make_dyadic_partition(2, 3)),
             toy_system]
    for system in cases:
        nleaf = len(system.partition.leaf_ids)
        for _ in range(100):
            f = ah.PwcFunction(system.partition, rng.standard_normal(nleaf))
            worst_p = max(worst_p, rel_parseval_error(system, f))
            worst_r = max(worst_r, rel_reconstruction_error(system, f))

    _, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    for _ in range(100):
        f = ah.signal_to_function(rng.standard_normal(6), vbm)
        worst_p = max(worst_p, rel_parseval_error(restricted, f))
        worst_r = max(worst_r, rel_reconstruction_error(restricted, f))
    elapsed = time.perf_counter() - t0
    report("criterion 4 (tightness on four systems, 100 signals each)",
           worst_p <= 1e-10 and worst_r <= 1e-10 and elapsed < 10.0,
           f"parseval {worst_p:.2e}, reconstruction {worst_r:.2e}, {elapsed:.2f}s")


def test_criterion_5_orthonormal_for_binary_splits():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        depth = int(rng.integers(1, 5))
        p = ah.refine_interval_level(random_interval_levels(rng, depth, max_children=2))
        system = ah.build_system(p)
        G = gram_matrix(system)
        worst = max(worst, float(np.abs(G - np.eye(len(system))).max()))
    report("criterion 5 (binary splits give an orthonormal basis, 50 draws)",
           worst <= 1e-12, f"max Gram deviation {worst:.2e}")


def test_criterion_6_structural_invariants(toy_system, interval_system):
    worst_int = worst_cross = 0.0
    support_ok = True
    for system in (toy_system, interval_system,
                   ah.build_system(ah.make_dyadic_partition(2, 2))):
        part = system.partition
        mu = np.array([float(part.blocks[b].measure) for b in part.leaf_ids])
        for key, row in zip(system.keys, function_matrix(system)[1:]):
            worst_int = max(worst_int, abs(float(row @ mu)))
            b1, b2 = atom_blocks(part, key)
            expected = set(leaves_under(part, b1)) | set(leaves_under(part, b2))
            got = {part.leaf_ids[i] for i in np.flatnonzero(row != 0.0)}
            siblings = part.parent[b1] == key[1] == part.parent[b2] and b1 != b2
            support_ok = support_ok and got == expected and siblings
        G = gram_matrix(system)
        levels = [-1] + [key[0] for key in system.keys]
        for i in range(len(levels)):
            for j in range(i + 1, len(levels)):
                if levels[i] != levels[j]:
                    worst_cross = max(worst_cross, abs(G[i, j]))
    report("criterion 6 (vanishing moments, sibling support, cross-scale orthogonality)",
           worst_int <= 1e-12 and support_ok and worst_cross <= 1e-12,
           f"max integral {worst_int:.2e}, max cross product {worst_cross:.2e}")


def test_criterion_7_coarse_graining_oracle():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        W = rng.integers(0, 4, size=(n, n))
        W = (np.triu(W, 1) + np.triu(W, 1).T + np.diag(rng.integers(0, 3, size=n))).astype(float)
        g = ah.Graph(W)
        clustering = ah.Clustering(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
        coarse = ah.coarse_grain(g, clustering)
        brute = np.zeros((clustering.m, clustering.m))
        for i, gi in enumerate(clustering.members):
            for j, gj in enumerate(clustering.members):
                brute[i, j] = sum(W[u, v] for u in gi for v in gj)
        ok = ok and np.array_equal(coarse.weights, brute) and coarse.weights.sum() == W.sum()
    report("criterion 7 (coarse graining matches brute force, 100 graphs)", ok)


def test_criterion_8_pruned_spanning(toy_system, toy_embedding):
    partition, vbm = toy_embedding
    restricted = ah.restrict_system(toy_system, vbm)
    pruned, rep = ah.prune_redundant(restricted, vbm)
    rank_ok = rep["rank"] == 6
    lo, hi = rep["frame_bounds"]
    bounds_ok = lo > 0.0 and hi >= lo

    # least-squares oracle via the normal equations on the vertex span
    mu = np.sqrt([float(partition.blocks[b].measure) for b in vbm.blocks])
    pos = {b: i for i, b in enumerate(partition.leaf_ids)}
    cols = [pos[b] for b in vbm.blocks]
    R = np.vstack([f.vector[cols] for f in functions(pruned)]).T * mu[:, None]
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        target = rng.standard_normal(6) * mu
        coef, *_ = np.linalg.lstsq(R, target, rcond=None)
        worst = max(worst, float(np.linalg.norm(R @ coef - target)))
    report("criterion 8 (pruned 20-function set spans the vertex space)",
           len(pruned) == 20 and rank_ok and bounds_ok and worst <= 1e-9,
           f"count={len(pruned)} rank={rep['rank']} bounds=({lo:.3f}, {hi:.3f}) "
           f"residual {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path, toy_digraph, chain_x, chain_y):
    import json

    d = tmp_path
    (d / "digraph.json").write_text(json.dumps(toy_digraph.to_json()))
    (d / "chain_x.json").write_text(json.dumps(chain_x.to_json()))
    (d / "chain_y.json").write_text(json.dumps(chain_y.to_json()))
    (d / "signal.csv").write_text(
        "\n".join(f"{lab},{v}" for lab, v in zip(VERTICES, range(6))) + "\n")
    out1 = run_pipeline(d, d / "run1")
    out2 = run_pipeline(d, d / "run2")
    identical = all((out1 / p.name).read_bytes() == (out2 / p.name).read_bytes()
                    for p in sorted(out1.iterdir()))

    verify_ok = run_cli("verify", "--partition", out1 / "partition.json",
                        "--system", out1 / "system_full.json",
                        "--vbm", out1 / "vbm.json").returncode == 0
    system = json.loads((out1 / "system_full.json").read_text())
    del system["atoms"][0]
    (out1 / "broken.json").write_text(json.dumps(system))
    verify_fails = run_cli("verify", "--partition", out1 / "partition.json",
                           "--system", out1 / "broken.json",
                           "--vbm", out1 / "vbm.json").returncode == 1
    report("criterion 9 (CLI byte-determinism and verify exit codes)",
           identical and verify_ok and verify_fails,
           f"identical={identical} verify0={verify_ok} verify1={verify_fails}")
