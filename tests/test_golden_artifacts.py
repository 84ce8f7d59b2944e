"""Golden CLI artifacts: the sha256 of every exact file the pipeline writes.

`cli.main` runs in process on two seeded integer-weighted digraphs through
symmetrize, chain (x and y), build --prune and verify on each system. The
pinned files are gx/gy, both chains, the partition, the vertex block map and
the three system files. Their contents are integers and exact rationals, so
their bytes do not depend on the platform or the BLAS. `report.json` and the
coefficient and signal CSVs are left out: their last digits do.

A change that alters one of these artifacts on purpose (a new partition or
chain format, say) updates the hash here and says in CHANGES.md which
artifact changed and why.
"""

import hashlib
import json

import numpy as np
import pytest

import adahaar as ah
from adahaar import cli

from conftest import random_digraph

ARTIFACTS = ["gx.json", "gy.json", "chain_x.json", "chain_y.json", "partition.json",
             "vbm.json", "system_full.json", "system_restricted.json", "system_pruned.json"]

# verify exits 1 on the pruned system: it has full rank but is not tight
EXIT_CODES = {"symmetrize": 0, "chain_x": 0, "chain_y": 0, "build": 0,
              "verify_full": 0, "verify_restricted": 0, "verify_pruned": 1}

# recorded at commit 6d0cb8f; the artifacts have not changed since
GOLDEN = {
    6: {
        "gx.json": "c24b4e7c301861cd4c2dd9fa0eac992661d1abc2e2526b0b39b0f596177606ed",
        "gy.json": "0894410cc409b286274f491d711b142f7b4bfb4b5ddb5a65dad9460b31862539",
        "chain_x.json": "77c4afddb0356b096bbeadb47209cf6fd18d97548d01725a4e452259f34862fb",
        "chain_y.json": "e407518a83130964d7b8d6eae96f2a26e256816d039b1c245d776a0035dcc2b7",
        "partition.json": "52c93b67a596f7810a90705eae3f5c218912a0ddd9ed82a7ea506541810675b9",
        "vbm.json": "b4df4146746f670ca82ee819566491da53738f69c538a75529892f59e2d5299c",
        "system_full.json": "1bcf4c6260bcdc9bbae0f14e2903dabec03aecefe82d90eb097f747b90738273",
        "system_restricted.json": "f8364401b7ca616b50422588561fef5f60c65aac5c01d3b32529ed884160f3a1",
        "system_pruned.json": "a17810dfa0eda24a48e2088fc3c4e4eed07bb79127508d883b3dbddb66dd927c",
    },
    16: {
        "gx.json": "6de7245ace5e3765e960822858d34fd46a82ee1e968065cc3330b65a682a4db6",
        "gy.json": "773c15c29d882dc801a57b941f038117cfb6935fbafed1d23576b4443666118c",
        "chain_x.json": "f23d9e240547cd3172e97a81d52719e43c5e32392f7f9629e5e147e98dd9d44a",
        "chain_y.json": "4ad04c78b51584aae18166f8dacd7e6a8d241e8e404ad6ed3707d133492374ba",
        "partition.json": "e75f8044849a8a190649fbb97de3d848d50964700d97685470fc4046f7fcf2fa",
        "vbm.json": "2f3878a1a0ee4dc45370337d94d891f08f11874931382ade9a7cb93ceb7c40dd",
        "system_full.json": "a291b2ed2c6cf7cfe39523b10fdbea0666ca8c18c4ba03b2794d66c05b1d8dea",
        "system_restricted.json": "41a21b21ee2beb1f838f9444e605bf4652e43e733130fdcc5ae516712afd682b",
        "system_pruned.json": "b538969a0bdf9f107e80c9801848d2a29e9d40c6275e72e365b302826a097cc6",
    },
}


def run_pipeline(d, n):
    g = random_digraph(np.random.default_rng([n, 0, 13]), n, False)
    (d / "graph.json").write_text(json.dumps(g.to_json()))
    steps = {"symmetrize": ["symmetrize", d / "graph.json", "--out", d],
             "chain_x": ["chain", d / "gx.json", "--out", d / "chain_x.json"],
             "chain_y": ["chain", d / "gy.json", "--out", d / "chain_y.json"],
             "build": ["build", "--chain-x", d / "chain_x.json", "--chain-y", d / "chain_y.json",
                       "--out", d, "--prune"]}
    for s in ("full", "restricted", "pruned"):
        steps[f"verify_{s}"] = ["verify", "--partition", d / "partition.json",
                                "--system", d / f"system_{s}.json", "--vbm", d / "vbm.json"]
    codes = {name: cli.main([str(a) for a in args]) for name, args in steps.items()}
    hashes = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    return codes, hashes


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_cli_artifacts_match_golden_hashes(n, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADAHAAR_SEED", raising=False)
    codes, hashes = run_pipeline(tmp_path, n)
    capsys.readouterr()
    assert codes == EXIT_CODES
    assert hashes == GOLDEN[n]
