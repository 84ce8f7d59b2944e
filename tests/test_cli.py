import copy
import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import adahaar as ah
from adahaar import cli
from adahaar.cli import _verify_checks
from adahaar.hierarchy import tensor_grid
from conftest import (DIGRAPH_W, GX_CLUSTER_SETS, GY_CLUSTER_SETS, VERTICES, chain_from_sets,
                      random_digraph, random_interval_levels)
from oracles import dense_moments, function_matrix, gram_matrix
from test_cascade import embed


SRC = str(Path(ah.__file__).resolve().parent.parent)


def run_cli(*args, env=None):
    """Run the CLI in a child interpreter that imports the same adahaar as the tests."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "adahaar", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture()
def workdir(tmp_path, toy_digraph, chain_x, chain_y):
    d = tmp_path
    (d / "digraph.json").write_text(json.dumps(toy_digraph.to_json()))
    (d / "chain_x.json").write_text(json.dumps(chain_x.to_json()))
    (d / "chain_y.json").write_text(json.dumps(chain_y.to_json()))
    signal = "\n".join(f"{lab},{val}" for lab, val in
                       zip(VERTICES, [1.5, -2.0, 0.25, 3.0, 0.0, -1.0]))
    (d / "signal.csv").write_text(signal + "\n")
    return d


def run_pipeline(d, out):
    out = Path(out)
    r = run_cli("symmetrize", d / "digraph.json", "--out", out)
    assert r.returncode == 0, r.stderr
    assert "weakly_connected: true" in r.stdout
    for name in ("chain_x", "chain_y"):
        r = run_cli("chain", "--explicit", d / f"{name}.json", "--out", out / f"{name}.json")
        assert r.returncode == 0, r.stderr
    r = run_cli("build", "--chain-x", out / "chain_x.json", "--chain-y", out / "chain_y.json",
                "--out", out, "--prune")
    assert r.returncode == 0, r.stderr
    r = run_cli("analyze", d / "signal.csv", "--partition", out / "partition.json",
                "--system", out / "system_full.json", "--vbm", out / "vbm.json",
                "--out", out / "coeffs.csv")
    assert r.returncode == 0, r.stderr
    r = run_cli("synthesize", out / "coeffs.csv", "--partition", out / "partition.json",
                "--system", out / "system_full.json", "--vbm", out / "vbm.json",
                "--out", out / "signal_out.csv")
    assert r.returncode == 0, r.stderr
    r = run_cli("verify", "--partition", out / "partition.json",
                "--system", out / "system_full.json", "--vbm", out / "vbm.json")
    assert r.returncode == 0, r.stdout + r.stderr
    return out


def listed_full_system(out):
    """The full system's file with every key listed, as `build` wrote it before the
    full-system tag: `FrameletSystem(p, d, full.keys).to_json()`."""
    partition, full = (json.loads((out / name).read_text())
                       for name in ("partition.json", "system_full.json"))
    partition = ah.HierarchicalPartition.from_json(partition)
    full = ah.FrameletSystem.from_json(partition, full)
    assert full.full
    return ah.FrameletSystem(partition, full.depth, full.keys).to_json()


def test_pipeline_counts_and_roundtrip(workdir):
    out = run_pipeline(workdir, workdir / "run")
    report = json.loads((out / "report.json").read_text())
    assert report["counts"] == {"full": 95, "restricted": 39, "pruned": 20}
    assert report["rank"]["restricted"] == 6 and report["rank"]["pruned"] == 6
    lo, hi = report["frame_bounds"]["restricted"]
    assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10
    # synthesize inverted analyze at the vertices
    expect = {lab: val for lab, val in
              zip(VERTICES, [1.5, -2.0, 0.25, 3.0, 0.0, -1.0])}
    for line in (out / "signal_out.csv").read_text().splitlines():
        lab, val = line.split(",")
        assert abs(float(val) - expect[lab]) <= 1e-10


def test_pipeline_byte_identical(workdir):
    out1 = run_pipeline(workdir, workdir / "run1")
    out2 = run_pipeline(workdir, workdir / "run2")
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_symmetrize_golden_output(workdir, toy_gx, toy_gy):
    out = workdir / "sym"
    r = run_cli("symmetrize", workdir / "digraph.json", "--out", out)
    assert r.returncode == 0
    gx = ah.Graph.from_json(json.loads((out / "gx.json").read_text()))
    gy = ah.Graph.from_json(json.loads((out / "gy.json").read_text()))
    assert np.array_equal(gx.weights, toy_gx.weights)
    assert np.array_equal(gy.weights, toy_gy.weights)


def test_single_vertex_symmetrize(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"labels": ["a"], "directed": True, "edges": []}))
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 0
    gx = json.loads((tmp_path / "gx.json").read_text())
    assert gx["edges"] == []


def test_chain_builds_from_graph(workdir):
    out = workdir / "sym"
    run_cli("symmetrize", workdir / "digraph.json", "--out", out)
    r = run_cli("chain", out / "gx.json", "--target-per-level", "3,2,1",
                "--out", out / "built_chain.json")
    assert r.returncode == 0, r.stderr
    chain = ah.Chain.from_json(json.loads((out / "built_chain.json").read_text()))
    assert [g.n for g in chain.graphs] == [6, 3, 2, 1]


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{不 valid json")
    assert run_cli("symmetrize", bad, "--out", tmp_path).returncode == 2
    missing = tmp_path / "missing_fields.json"
    missing.write_text(json.dumps({"labels": ["a"]}))
    assert run_cli("symmetrize", missing, "--out", tmp_path).returncode == 2


def test_tampered_chain_exit_3(workdir):
    obj = json.loads((workdir / "chain_x.json").read_text())
    obj["graphs"][1]["edges"][0][2] = 99.0
    bad = workdir / "tampered.json"
    bad.write_text(json.dumps(obj))
    r = run_cli("chain", "--explicit", bad, "--out", workdir / "never.json")
    assert r.returncode == 3
    assert not (workdir / "never.json").exists()


def test_verify_fails_after_deleting_an_atom(workdir):
    out = run_pipeline(workdir, workdir / "run")
    system = listed_full_system(out)
    del system["atoms"][10]
    (out / "system_broken.json").write_text(json.dumps(system))
    r = run_cli("verify", "--partition", out / "partition.json",
                "--system", out / "system_broken.json", "--vbm", out / "vbm.json")
    assert r.returncode == 1
    assert "FAIL parseval" in r.stdout


def test_verify_restricted_system(workdir):
    out = run_pipeline(workdir, workdir / "run")
    r = run_cli("verify", "--partition", out / "partition.json",
                "--system", out / "system_restricted.json", "--vbm", out / "vbm.json")
    assert r.returncode == 0, r.stdout


def test_depth_zero_build_yields_scaling_only(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"labels": ["a"], "directed": True, "edges": []}))
    run_cli("symmetrize", path, "--out", tmp_path)
    for axis in ("gx", "gy"):
        r = run_cli("chain", tmp_path / f"{axis}.json", "--out", tmp_path / f"c{axis}.json")
        assert r.returncode == 0, r.stderr
    r = run_cli("build", "--chain-x", tmp_path / "cgx.json", "--chain-y", tmp_path / "cgy.json",
                "--out", tmp_path / "build", "--prune")
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "build" / "report.json").read_text())
    assert report["counts"] == {"full": 1, "restricted": 1, "pruned": 1}


def test_zero_degree_vertex_named_at_chain_and_build_exit_3(tmp_path):
    g = ah.Graph([[0, 1, 0], [1, 0, 0], [0, 0, 0]], ["a", "b", "c"])
    chain = ah.Chain([g, ah.coarse_grain(g, ah.Clustering([0, 0, 0]))], [[0, 0, 0]])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain.to_json()))
    message = "node 'c' at chain level 0 (0 = finest) has zero degree"
    r = run_cli("chain", "--explicit", path, "--out", tmp_path / "out.json")
    assert r.returncode == 3 and message in r.stderr, r.stderr
    assert not (tmp_path / "out.json").exists()
    r = run_cli("build", "--chain-x", path, "--chain-y", path, "--out", tmp_path / "build")
    assert r.returncode == 3 and message in r.stderr, r.stderr


def test_stalled_clusterer_exit_3(workdir):
    out = workdir / "sym"
    run_cli("symmetrize", workdir / "digraph.json", "--out", out)
    r = run_cli("chain", out / "gx.json", "--target-per-level", "6",
                "--out", out / "stall.json")
    assert r.returncode == 3
    assert "merged nothing" in r.stderr or "clusters" in r.stderr


@pytest.mark.parametrize("value", ["x", "-1", "1.5", ""])
def test_bad_adahaar_seed_exit_2(workdir, value, monkeypatch, capsys):
    out = build_only(workdir)
    monkeypatch.setenv("ADAHAAR_SEED", value)
    assert cli.main(["verify", *map(str, bundle_args(out, out / "vbm.json"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ADAHAAR_SEED") and repr(value) in err, err


def test_accepted_adahaar_seeds_keep_their_results(workdir, monkeypatch, capsys):
    out = build_only(workdir)
    args = ["verify", *map(str, bundle_args(out, out / "vbm.json"))]
    results = {}
    for value in [None, "0", "7", " 7\n", "+07", "7_0", "70"]:
        if value is None:
            monkeypatch.delenv("ADAHAAR_SEED", raising=False)
        else:
            monkeypatch.setenv("ADAHAAR_SEED", value)
        results[value] = (cli.main(args), capsys.readouterr().out)
    assert all(code == 0 for code, _ in results.values())
    assert results[None] == results["0"]
    assert results["7"] == results[" 7\n"] == results["+07"]
    assert results["7_0"] == results["70"]


def test_unknown_signal_vertex_exit_3(workdir):
    out = run_pipeline(workdir, workdir / "run")
    (workdir / "bad_signal.csv").write_text("z,1.0\n")
    r = run_cli("analyze", workdir / "bad_signal.csv", "--partition", out / "partition.json",
                "--system", out / "system_full.json", "--vbm", out / "vbm.json",
                "--out", out / "nope.csv")
    assert r.returncode == 3


def test_graph_json_dense_matrix_accepted(tmp_path, toy_digraph):
    obj = {"labels": list(VERTICES), "directed": True,
           "matrix": toy_digraph.weights.tolist()}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(obj))
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 0
    gx = ah.Graph.from_json(json.loads((tmp_path / "gx.json").read_text()))
    assert gx.weights.sum() == 12.0


def build_only(d):
    out = d / "built"
    r = run_cli("build", "--chain-x", d / "chain_x.json", "--chain-y", d / "chain_y.json",
                "--out", out)
    assert r.returncode == 0, r.stderr
    return out


def bundle_args(out, vbm):
    return ("--partition", out / "partition.json", "--system", out / "system_full.json",
            "--vbm", vbm)


@pytest.mark.parametrize("corrupt", ["shared_block", "not_a_leaf"])
def test_bad_vertex_block_map_exit_3(workdir, corrupt):
    out = build_only(workdir)
    vbm = json.loads((out / "vbm.json").read_text())
    vbm["blocks"]["a"] = vbm["blocks"]["b"] if corrupt == "shared_block" else 0
    bad = out / "bad_vbm.json"
    bad.write_text(json.dumps(vbm))
    runs = [run_cli("analyze", workdir / "signal.csv", *bundle_args(out, bad),
                    "--out", out / "coeffs.csv"),
            run_cli("synthesize", out / "coeffs.csv", *bundle_args(out, bad),
                    "--out", out / "back.csv"),
            run_cli("verify", *bundle_args(out, bad))]
    for r in runs:
        assert r.returncode == 3, r.stdout + r.stderr
        assert "vertex blocks" in r.stderr
    assert not (out / "coeffs.csv").exists()


@pytest.mark.parametrize("weight", ["NaN", "Infinity"])
def test_non_finite_weight_exit_3(tmp_path, weight):
    path = tmp_path / "digraph.json"
    path.write_text('{"labels": ["a", "b", "c"], "directed": true, '
                    '"edges": [["a", "b", 1.0], ["b", "c", %s]]}' % weight)
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 3
    assert "finite" in r.stderr and "(1, 2)" in r.stderr
    assert not (tmp_path / "gx.json").exists()


def test_duplicate_signal_label_exit_2(workdir):
    out = build_only(workdir)
    (workdir / "dup.csv").write_text("a,1\nb,2\na,5\n")
    r = run_cli("analyze", workdir / "dup.csv", *bundle_args(out, out / "vbm.json"),
                "--out", out / "coeffs.csv")
    assert r.returncode == 2
    assert "'a'" in r.stderr
    assert not (out / "coeffs.csv").exists()


def corrupted(system, position, factor):
    """The system on a copy of its partition whose cascade has its sqrt(b) at `position`
    scaled by `factor`; the exact split weights stay as they are."""
    part = copy.copy(system.partition)
    pos, bounds, parent, sqrt_b, local = system.partition.cascade
    sqrt_b = sqrt_b.copy()
    sqrt_b[position] *= factor
    vars(part)["cascade"] = (pos, bounds, parent, sqrt_b, local)
    return ah.FrameletSystem(part, system.depth, system.keys)


def corruptions(system, rng, count):
    """`count` seeded non-root positions, each scaled up by 1e-6 and down by 1e-4."""
    blocks = len(system.partition.cascade[2])
    positions = rng.choice(np.arange(1, blocks), count, replace=False)
    return [corrupted(system, int(p), f) for p in positions for f in (1 + 1e-6, 1 - 1e-4)]


CHECK_TOL = 1e-12


def agree(got, want):
    """Both pass, or both fail with residuals within 1e-8 relative."""
    if want <= CHECK_TOL:
        return got <= CHECK_TOL
    return abs(got - want) <= 1e-8 * want


def residuals(system, integrals, norms, cross):
    """The residuals of verify's vanishing_moments, atom_norms and cross_scale_orthogonality,
    from integrals, squared norms and cross-scale values."""
    shares = system.partition.shares
    expect = [float(F(*shares(p)[l1 - 1]) + F(*shares(p)[l2 - 1]))
              for _, p, l1, l2 in system.keys]
    return {"vanishing_moments": float(np.abs(integrals[1:]).max(initial=0.0)),
            "atom_norms": float(np.abs(norms[1:] - expect).max(initial=0.0)),
            "cross_scale_orthogonality": float(cross.max())}


def moment_checks(system):
    """verify's (ok, detail) for the three checks computed from `system.moments()`."""
    checks = itertools.islice(_verify_checks(system, None, np.random.default_rng(0)), 4)
    return {name: (ok, detail) for name, ok, detail in checks
            if name != "refinement_orthogonality"}


def test_cross_scale_check_matches_pairwise_loop(toy_system, toy_embedding):
    _, vbm = toy_embedding
    rng = np.random.default_rng(47)
    systems = [toy_system, ah.restrict_system(toy_system, vbm)]
    failed = 0
    for system in systems + [bad for s in systems for bad in corruptions(s, rng, 3)]:
        G = gram_matrix(system)
        levels = [-1] + [key[0] for key in system.keys]
        worst = 0.0
        for i in range(len(levels)):
            for k in range(i + 1, len(levels)):
                if levels[i] != levels[k]:
                    worst = max(worst, abs(G[i, k]))
        assert agree(system.moments()[2].max(), worst)
        ok, _ = moment_checks(system)["cross_scale_orthogonality"]
        assert ok == (worst <= CHECK_TOL)
        failed += not ok
    assert failed > 0


def test_moment_checks_fail_exactly_when_the_dense_checks_do():
    """On cascades with one sqrt(b) off by 1e-6 or 1e-4, each check computed from the
    moments passes or fails with the dense one, over the dyadic cube, three 1-D
    partitions with up to 6 children and the full system of a 32-vertex digraph."""
    rng = np.random.default_rng(53)
    parts = [ah.make_dyadic_partition(3, 2)]
    parts += [ah.refine_interval_level(random_interval_levels(rng, depth=3, max_children=6))
              for _ in range(3)]
    systems = [ah.build_system(p) for p in parts]
    g = random_digraph(np.random.default_rng([32, 0, 53]), 32, False)
    systems.append(ah.build_system(embed(g)[0]))
    cases = [(s, True) for s in systems]
    cases += [(bad, False) for s in systems
              for bad in corruptions(s, rng, 3 if len(s) < 500 else 2)]
    failed = set()
    for k, (system, clean) in enumerate(cases):
        got = residuals(system, *system.moments())
        want = residuals(system, *dense_moments(system, function_matrix(system)))
        for name, (ok, detail) in moment_checks(system).items():
            assert agree(got[name], want[name]), (k, name, got[name], want[name])
            assert ok == (want[name] <= CHECK_TOL), (k, name)
            assert detail.endswith(f" {got[name]:.3e}")
            assert ok or not clean
            if not ok:
                failed.add(name)
    assert failed == {"vanishing_moments", "atom_norms", "cross_scale_orthogonality"}


def test_verify_checks_build_no_dense_matrix():
    """At n=32 the full system has about 3000 functions on 1024 leaves, so its function
    matrix alone is about 25 MB and its Gram matrix about 80 MB."""
    g = random_digraph(np.random.default_rng([32, 0, 59]), 32, False)
    partition, vbm = embed(g)
    system = ah.build_system(partition)
    tracemalloc.start()
    try:
        oks = [ok for _, ok, _ in _verify_checks(system, vbm, np.random.default_rng(0))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(oks) and len(system) > 2500
    assert peak < 8 * 2 ** 20, peak


def split_checks(system, monkeypatch):
    """verify's checks on `system` with one signal, and the parent behind each
    refinement matrix they build with its residual, in build order."""
    partition, asked, built = system.partition, [], []
    monkeypatch.setattr(partition, "shares",
                        lambda p, shares=partition.shares: asked.append(p) or shares(p))

    def counted(b, build=cli.refinement_matrix):
        A = build(b)
        built.append((asked[-1], float(np.abs(A.T @ A - np.eye(len(b))).max())))
        return A

    monkeypatch.setattr(cli, "refinement_matrix", counted)
    checks = {name: (ok, detail) for name, ok, detail in
              _verify_checks(system, None, np.random.default_rng(0), 1)}
    monkeypatch.undo()
    return checks, built


def grid_split_residual(partition, depth):
    """The oracle for full systems: the split residual over every grid parent below the
    depth."""
    worst = 0.0
    for j in range(depth):
        for parent in partition.levels[j]:
            b = [num / den for num, den in partition.shares(parent)]
            if len(b) > 1:
                A = ah.refinement_matrix(b)
                worst = max(worst, float(np.abs(A.T @ A - np.eye(len(b))).max()))
    return worst


def test_split_check_builds_one_matrix_per_parent_of_the_keys(monkeypatch):
    """Restricted and pruned systems check the distinct parents of their keys, once
    each; the full system checks every grid parent below the depth with two or more
    children, and reports the grid-wide residual, on the dyadic cube too."""
    partition, vbm = embed(random_digraph(np.random.default_rng([32, 0, 61]), 32, False))
    full = ah.build_system(partition)
    restricted = ah.restrict_system(full, vbm)
    pruned, _ = ah.prune_redundant(restricted, vbm)
    for system in (restricted, pruned):
        checks, built = split_checks(system, monkeypatch)
        parents = [p for p, _ in built]
        assert len(parents) == len(set(parents)) == len({key[1] for key in system.keys})
        assert set(parents) == {key[1] for key in system.keys}
        assert checks["refinement_orthogonality"] == (
            True, f"max residual {max(r for _, r in built):.3e}")
    assert len(restricted) < len(full) // 5
    for system in (full, ah.build_system(ah.make_dyadic_partition(3, 2))):
        part = system.partition
        grid = {p for j in range(system.depth) for p in part.levels[j]
                if len(part.children_of(p)) >= 2}
        checks, built = split_checks(system, monkeypatch)
        assert sorted(p for p, _ in built) == sorted(grid)
        worst = grid_split_residual(part, system.depth)
        assert max(r for _, r in built) == worst
        assert checks["refinement_orthogonality"] == (True, f"max residual {worst:.3e}")


def test_split_check_fails_on_a_used_parent_that_is_not_tiled():
    """Parent 2 = [1/2, 1] has children [1/2, 3/4] and [3/4, 7/8], shares 1/2 and 1/4:
    a key under it makes the checks raise, as the grid-wide loop did."""
    ends = {0: (0, 1), 1: (0, F(1, 2)), 2: (F(1, 2), 1), 3: (0, F(1, 4)),
            4: (F(1, 4), F(1, 2)), 5: (F(1, 2), F(3, 4)), 6: (F(3, 4), F(7, 8))}
    blocks = {b: ah.Block(b, (ah.Interval(F(lo), F(hi)),)) for b, (lo, hi) in ends.items()}
    partition = ah.HierarchicalPartition(1, [(0,), (1, 2), (3, 4, 5, 6)], blocks,
                                         {0: (1, 2), 1: (3, 4), 2: (5, 6)})
    assert not ah.validate_partition(partition).ok
    system = ah.FrameletSystem(partition, 2, [(0, 0, 1, 2), (1, 2, 1, 2)])
    with pytest.raises(ah.BadWeights, match="0.75"):
        list(_verify_checks(system, None, np.random.default_rng(0), 1))


@pytest.mark.parametrize("field, value", [("directed", "false"), ("labels", "abcdef")])
def test_graph_field_of_wrong_type_exit_2(tmp_path, toy_gx, field, value):
    obj = toy_gx.to_json()
    obj[field] = value
    (tmp_path / "gx.json").write_text(json.dumps(obj))
    r = run_cli("chain", tmp_path / "gx.json", "--out", tmp_path / "chain.json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert f"{field} must be" in r.stderr
    assert not (tmp_path / "chain.json").exists()


def test_label_with_comma_round_trips(tmp_path):
    labels = ["a", "x,y", 'say "hi"', "d e", "e", "f"]
    (tmp_path / "digraph.json").write_text(
        json.dumps(ah.Graph(DIGRAPH_W, labels, directed=True).to_json()))
    values = [1.5, -2.0, 0.25, 3.0, 0.0, -1.0]
    with open(tmp_path / "signal.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(zip(labels, values))
    w = tmp_path / "w"
    assert run_cli("symmetrize", tmp_path / "digraph.json", "--out", w).returncode == 0
    for name in ("gx", "gy"):
        r = run_cli("chain", w / f"{name}.json", "--out", w / f"chain_{name}.json")
        assert r.returncode == 0, r.stderr
    r = run_cli("build", "--chain-x", w / "chain_gx.json", "--chain-y", w / "chain_gy.json",
                "--out", w)
    assert r.returncode == 0, r.stderr
    args = bundle_args(w, w / "vbm.json")
    r = run_cli("analyze", tmp_path / "signal.csv", *args, "--out", w / "coeffs.csv")
    assert r.returncode == 0, r.stderr
    r = run_cli("synthesize", w / "coeffs.csv", *args, "--out", w / "back.csv")
    assert r.returncode == 0, r.stderr
    with open(w / "back.csv", newline="") as fh:
        back = {lab: float(val) for lab, val in csv.reader(fh)}
    text = (w / "back.csv").read_text()
    assert text.splitlines()[0] == "a,%.17g" % back["a"]  # plain labels stay unquoted
    assert '"x,y",' in text and '"say ""hi""",' in text
    assert list(back) == labels
    assert all(abs(back[lab] - val) <= 1e-10 for lab, val in zip(labels, values))
    # what synthesize writes, analyze reads
    r = run_cli("analyze", w / "back.csv", *args, "--out", w / "coeffs2.csv")
    assert r.returncode == 0, r.stderr


def test_signal_row_with_wrong_field_count_exit_2(workdir):
    out = build_only(workdir)
    (workdir / "bad.csv").write_text("label,value\na,1\nb,2,3\n")
    r = run_cli("analyze", workdir / "bad.csv", *bundle_args(out, out / "vbm.json"),
                "--out", out / "coeffs.csv")
    assert r.returncode == 2
    assert "bad.csv: line 3" in r.stderr and "got 3" in r.stderr
    assert not (out / "coeffs.csv").exists()


@pytest.fixture()
def coefficients(workdir):
    """(build directory, rows of a valid full-system coefficient CSV)."""
    out = build_only(workdir)
    r = run_cli("analyze", workdir / "signal.csv", *bundle_args(out, out / "vbm.json"),
                "--out", out / "coeffs.csv")
    assert r.returncode == 0, r.stderr
    return out, (out / "coeffs.csv").read_text().splitlines()


def synthesize_rows(out, name, rows):
    path = out / name
    if rows is not None:
        path.write_text("\n".join(rows) + "\n")
    return run_cli("synthesize", path, *bundle_args(out, out / "vbm.json"),
                   "--out", out / "back.csv")


def test_missing_coefficient_file_exit_2(coefficients):
    out, _ = coefficients
    r = synthesize_rows(out, "missing.csv", None)
    assert r.returncode == 2
    assert "missing.csv" in r.stderr and "Traceback" not in r.stderr


def test_coefficient_row_with_wrong_field_count_exit_2(coefficients):
    out, rows = coefficients
    rows[3] = ",".join(rows[3].split(",")[:3])
    r = synthesize_rows(out, "short.csv", rows)
    assert r.returncode == 2
    assert "short.csv: line 4" in r.stderr and "expected 5 fields" in r.stderr


def test_coefficient_field_not_a_number_exit_2(coefficients):
    out, rows = coefficients
    rows[2] = rows[2].rsplit(",", 1)[0] + ",abc"
    r = synthesize_rows(out, "nan.csv", rows)
    assert r.returncode == 2
    assert "nan.csv: line 3" in r.stderr and "'abc'" in r.stderr


def test_repeated_coefficient_key_exit_2(coefficients):
    out, rows = coefficients
    rows.append(rows[2])
    r = synthesize_rows(out, "dup.csv", rows)
    assert r.returncode == 2
    assert f"dup.csv: line {len(rows)}" in r.stderr and "more than once" in r.stderr
    assert not (out / "back.csv").exists()


def test_level_minus_one_row_off_the_scaling_key_exit_2(coefficients):
    """Only (-1, 0, 0, 0) is the scaling row; another level -1 key is not read as it."""
    out, rows = coefficients
    assert rows[1].startswith("-1,0,0,0,")
    rows[1] = "-1,4,1,2," + rows[1].rsplit(",", 1)[1]
    r = synthesize_rows(out, "scaling.csv", rows)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "scaling.csv: line 2" in r.stderr and "(-1, 4, 1, 2)" in r.stderr
    assert not (out / "back.csv").exists()


def test_missing_scaling_row_exit_3(coefficients):
    out, rows = coefficients
    assert rows[1].startswith("-1,0,0,0,")
    del rows[1]
    r = synthesize_rows(out, "noscaling.csv", rows)
    assert r.returncode == 3, r.stdout + r.stderr
    assert "no scaling row (-1, 0, 0, 0)" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "back.csv").exists()


def test_label_with_surrounding_whitespace_exit_3(tmp_path):
    """Signal CSVs strip labels, so a graph must not carry a label they cannot read back."""
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({"labels": [" a", "b"], "directed": True,
                                "edges": [[" a", "b", 1.0]]}))
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 3, r.stdout + r.stderr
    assert "whitespace" in r.stderr and "' a'" in r.stderr
    assert not (tmp_path / "gx.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_signal_value_exit_2(workdir, value):
    out = build_only(workdir)
    (workdir / "bad.csv").write_text(f"a,1\nb,{value}\nc,0\nd,0\ne,0\nf,0\n")
    r = run_cli("analyze", workdir / "bad.csv", *bundle_args(out, out / "vbm.json"),
                "--out", out / "coeffs.csv")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "bad.csv: line 2" in r.stderr and "not finite" in r.stderr
    assert "Warning" not in r.stderr
    assert not (out / "coeffs.csv").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_coefficient_exit_2(coefficients, value):
    out, rows = coefficients
    rows[2] = rows[2].rsplit(",", 1)[0] + "," + value
    r = synthesize_rows(out, "inf.csv", rows)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "inf.csv: line 3" in r.stderr and "not finite" in r.stderr
    assert not (out / "back.csv").exists()


def corrupt_system(obj, case):
    atoms = obj["atoms"]
    if case == "repeated_atom":
        atoms.append(atoms[3])
    elif case == "wrong_level":
        atoms[0][0] += 1  # the root's atoms sit at level 0
    elif case == "depth_above_partition":
        obj["depth"] += 1
    elif case == "level_not_below_depth":
        obj["depth"] -= 1
    elif case == "unknown_parent":
        atoms[0][1] = 999
    elif case == "pair_out_of_range":
        atoms[0][3] = 99


@pytest.mark.parametrize("case, message", [
    ("repeated_atom", "appears more than once"),
    ("wrong_level", "block 0 is at level 0"),
    ("depth_above_partition", "system depth 4 is outside 0..3"),
    ("level_not_below_depth", "is not below depth 2"),
    ("unknown_parent", "the partition has no block 999"),
    ("pair_out_of_range", "out of range for parent"),
])
def test_system_keys_checked_against_partition_exit_3(workdir, case, message):
    out = build_only(workdir)
    obj = listed_full_system(out)
    corrupt_system(obj, case)
    bad = out / "bad_system.json"
    bad.write_text(json.dumps(obj))
    args = ("--partition", out / "partition.json", "--system", bad, "--vbm", out / "vbm.json")
    runs = [run_cli("analyze", workdir / "signal.csv", *args, "--out", out / "coeffs.csv"),
            run_cli("verify", *args)]
    for r in runs:
        assert r.returncode == 3, r.stdout + r.stderr
        assert message in r.stderr and "Traceback" not in r.stderr
    if case not in ("depth_above_partition", "pair_out_of_range"):
        assert "atom (" in runs[0].stderr
    assert not (out / "coeffs.csv").exists()


def test_non_integer_target_per_level_exit_2(workdir):
    out = workdir / "sym"
    run_cli("symmetrize", workdir / "digraph.json", "--out", out)
    r = run_cli("chain", out / "gx.json", "--target-per-level", "a,b",
                "--out", out / "chain.json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "--target-per-level" in r.stderr and "'a,b'" in r.stderr
    assert not (out / "chain.json").exists()


@pytest.mark.parametrize("flag, value", [("--depth", "-3"), ("--target-per-level", "0,1"),
                                         ("--target-per-level", "-2")])
def test_chain_counts_below_range_exit_2(workdir, capsys, flag, value):
    """A negative depth or a cluster count below 1 is a parse error that names the
    flag, not a depth-1 chain."""
    out = workdir / "sym"
    assert cli.main(["symmetrize", str(workdir / "digraph.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["chain", str(out / "gx.json"), flag, value,
                     "--out", str(out / "chain.json")]) == 2
    err = capsys.readouterr().err
    assert flag in err and value in err, err
    assert not (out / "chain.json").exists()


def test_chain_target_not_below_the_node_count_exit_3(workdir, capsys):
    """A target of 10 clusters for the 6 nodes of the finest graph names the step,
    the target and the node count, not a clusterer that returned too many clusters."""
    out = workdir / "sym"
    assert cli.main(["symmetrize", str(workdir / "digraph.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["chain", str(out / "gx.json"), "--target-per-level", "10",
                     "--out", str(out / "chain.json")]) == 3
    err = capsys.readouterr().err
    assert "step 0: target 10 clusters" in err and "for 6 nodes" in err, err
    assert "clusterer returned" not in err
    assert not (out / "chain.json").exists()


def test_disconnected_graph_chain_names_components_exit_3(tmp_path):
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c", "d"], "directed": True,
                                "edges": [["a", "b", 1.0], ["c", "d", 1.0]]}))
    assert run_cli("symmetrize", path, "--out", tmp_path).returncode == 0
    r = run_cli("chain", tmp_path / "gx.json", "--out", tmp_path / "chain.json")
    assert r.returncode == 3, r.stdout + r.stderr
    assert "disconnected" in r.stderr and "2 connected components" in r.stderr
    assert not (tmp_path / "chain.json").exists()


def test_symmetrize_disconnected_prints_one_warning_line(tmp_path):
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c", "d", "e"], "directed": True,
                                "edges": [["a", "b", 1.0], ["c", "d", 1.0]]}))
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "weakly_connected: false"
    assert r.stderr.splitlines() == [
        "warning: input digraph is not weakly connected (3 components); "
        "the symmetrized pair will be disconnected too"]
    assert (tmp_path / "gx.json").exists() and (tmp_path / "gy.json").exists()


@pytest.mark.parametrize("case", ["dimension_3", "leaf_missing_a_side",
                                  "factor_leaf_with_2_sides"])
def test_verify_rejects_side_count_off_the_dimension_exit_2(workdir, case):
    """The explicit cases edit the explicit file of the same partition, the factor case
    the tensor file `build` writes."""
    out = build_only(workdir)
    obj = json.loads((out / "partition.json").read_text())
    explicit = tensor_grid(*ah.HierarchicalPartition.from_json(obj).factors).to_json()
    if case == "dimension_3":
        obj = explicit
        obj["dimension"] = 3
        expect = "block 0 has 2 sides, not the declared dimension 3"
    elif case == "leaf_missing_a_side":
        obj = explicit
        leaf = obj["blocks"][-1]
        leaf["sides"].pop()
        expect = f"block {leaf['id']} has 1 sides, not the declared dimension 2"
    else:
        leaf = obj["factors"][1]["blocks"][-1]
        leaf["sides"].append(leaf["sides"][0])
        expect = (f"factor 1: partition JSON: block {leaf['id']} has 2 sides, "
                  f"not the declared dimension 1")
    (out / "bad_partition.json").write_text(json.dumps(obj))
    r = run_cli("verify", "--partition", out / "bad_partition.json",
                "--system", out / "system_full.json", "--vbm", out / "vbm.json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert expect in r.stderr and "Traceback" not in r.stderr


FUZZ_VALUES = (0, -1, 1.5, "x", None, [], {}, 10**30, True, float("inf"))


def fuzz_paths(obj, *chosen):
    """Each top-level field of obj, then each chosen field and every field below it."""
    paths = [(key,) for key in obj]

    def walk(path, node):
        paths.append(path)
        if isinstance(node, (dict, list)):
            for k in node if isinstance(node, dict) else range(len(node)):
                walk(path + (k,), node[k])

    for path in chosen:
        node = obj
        for k in path:
            node = node[k]
        walk(path, node)
    return paths


def test_cli_fuzz_exits_0_to_3_without_raising(workdir, tmp_path):
    """Every malformed input file ends in an exit code, never in an exception."""
    from adahaar.cli import main

    d = workdir
    out = d / "built"
    assert main([str(a) for a in ("build", "--chain-x", d / "chain_x.json",
                                  "--chain-y", d / "chain_y.json", "--out", out)]) == 0
    bad = tmp_path / "bad.json"
    bundle = {"partition": out / "partition.json", "system": out / "system_full.json",
              "vbm": out / "vbm.json"}

    def analyze_with(name):
        files = dict(bundle, **{name: bad})
        return ["analyze", d / "signal.csv", "--partition", files["partition"],
                "--system", files["system"], "--vbm", files["vbm"], "--out", tmp_path / "c.csv"]

    partition = json.loads(bundle["partition"].read_text())
    explicit = tensor_grid(*ah.HierarchicalPartition.from_json(partition).factors).to_json()
    (out / "explicit_partition.json").write_text(json.dumps(explicit))
    (out / "listed_system.json").write_text(json.dumps(listed_full_system(out)))
    last_block = len(explicit["blocks"]) - 1
    last_factor_block = len(partition["factors"][1]["blocks"]) - 1
    cases = [
        (d / "digraph.json", ["symmetrize", bad, "--out", tmp_path / "sym"],
         [("labels", 1), ("edges", 0)]),
        (d / "chain_x.json", ["build", "--chain-x", bad, "--chain-y", d / "chain_y.json",
                              "--out", tmp_path / "b"],
         [("parents", 0), ("graphs", 1, "edges", 0)]),
        (out / "explicit_partition.json", analyze_with("partition"),
         [("blocks", 0), ("blocks", 5), ("blocks", last_block), ("children", "0")]),
        (bundle["partition"], analyze_with("partition"),
         [("factors", 0), ("factors", 1, "blocks", last_factor_block),
          ("factors", 1, "children")]),
        (bundle["system"], analyze_with("system"), []),
        (out / "listed_system.json", analyze_with("system"), [("atoms", 0), ("atoms", 40)]),
        (bundle["vbm"], analyze_with("vbm"), [("labels", 0), ("blocks", "a")]),
    ]
    failures, runs = [], 0
    for path, argv, chosen in cases:
        text = path.read_text()
        for field_path in fuzz_paths(json.loads(text), *chosen):
            for value in FUZZ_VALUES:
                obj = json.loads(text)
                node = obj
                for k in field_path[:-1]:
                    node = node[k]
                node[field_path[-1]] = value
                bad.write_text(json.dumps(obj))
                runs += 1
                try:
                    code = main([str(a) for a in argv])
                except Exception as exc:  # the test's subject: nothing may escape main
                    failures.append((path.name, field_path, value, repr(exc)))
                    continue
                if code not in (0, 1, 2, 3):
                    failures.append((path.name, field_path, value, code))
    assert runs > 500, runs
    assert not failures, failures


def test_symmetrize_negative_edge_endpoint_exit_2(tmp_path):
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "directed": True,
                                "edges": [[-1, 0, 2.0], [0, 1, 1.0]]}))
    r = run_cli("symmetrize", path, "--out", tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "edge [-1, 0, 2.0] has an endpoint outside 0..2" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "gx.json").exists()


def test_import_loads_no_scipy():
    """Every CLI step and benchmark set-up pays for `import adahaar` in a fresh interpreter."""
    code = "import sys, adahaar; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
