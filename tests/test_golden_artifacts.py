"""Golden CLI artifacts: the sha256 of every exact file the pipeline writes.

`cli.main` runs in process on two seeded integer-weighted digraphs and one
seeded digraph with three-decimal float weights (whose exact geometry goes
through binary expansions and long denominators) through symmetrize, chain
(x and y), build --prune, analyze and synthesize on the restricted system,
and verify on each system. The pinned files are gx/gy, both chains, the
partition, the vertex block map and the three system files. For integer
weights their contents are integers and exact rationals, so their bytes do
not depend on the platform or the BLAS. The float-weighted digraph's graphs
are float sums taken by matrix products in `symmetrize` and `coarse_grain`,
so a BLAS that sums them in another order could change its hashes; they were
recorded with numpy's bundled OpenBLAS (0.3.31, x86-64). `report.json` and
the coefficient and signal CSVs are left out, since their last digits
depend on the platform everywhere; of those, only the coefficient CSV's
four integer key columns are pinned, the synthesized signal must equal the
analyzed one within 1e-12, and each verify line is pinned by its PASS/FAIL
word and check name, without the digits.

A change that alters one of these artifacts on purpose (a new partition or
chain format, say) updates the hash here and says in CHANGES.md which
artifact changed and why.
"""

import csv
import hashlib
import json
import re

import numpy as np
import pytest

import adahaar as ah
from adahaar import cli

from conftest import random_digraph

ARTIFACTS = ["gx.json", "gy.json", "chain_x.json", "chain_y.json", "partition.json",
             "vbm.json", "system_full.json", "system_restricted.json", "system_pruned.json"]

# verify exits 1 on the pruned system: it has full rank but is not tight
EXIT_CODES = {"symmetrize": 0, "chain_x": 0, "chain_y": 0, "build": 0, "analyze": 0,
              "synthesize": 0, "verify_full": 0, "verify_restricted": 0, "verify_pruned": 1}

CHECKS = ["refinement_orthogonality", "vanishing_moments", "atom_norms",
          "cross_scale_orthogonality", "parseval", "reconstruction"]
VERIFY_LINES = {
    "verify_full": [("PASS", c) for c in CHECKS],
    "verify_restricted": [("PASS", c) for c in CHECKS],
    "verify_pruned": [("PASS", c) for c in CHECKS[:4]] + [("FAIL", c) for c in CHECKS[4:]],
}

# sha256 of the coefficient CSV's level,parent,l1,l2 columns (header and
# scaling row included), one row per line; recorded at commit 0cb5090
COEFFICIENT_KEYS = {
    6: "65a4fb88739fcbe7bf6fb1ed81eb3ee758163e7cc016f05dc1ddc95de4d018e6",
    16: "cde82eebb1c6e441de89ff224e891adb5bc4992290fc5d645e6fa4c18e3f145a",
}

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

# the n=16 digraph with three-decimal float weights; recorded at commit 9783e24
GOLDEN_FLOAT_16 = {
    "gx.json": "b79844b02b62ab87105e5106e3d46aec3cee90e6b11433f67537d7d7a47549fb",
    "gy.json": "d4eda9acbb93dedc2906656ce5a75c88b941236a6b200f0f29449e77a93ae1a0",
    "chain_x.json": "fcb495922ba753d0f4e6e1ca998e28ecb101192931693c65bae95e184110745c",
    "chain_y.json": "cde1b4eb2773d3f0dd018086e6488930a9728e9fd4180c605b283d7be5ba43e4",
    "partition.json": "6ef02bf5c7dbf28bfa9d45ba9b999dcd51c144e994f8c10c702c41e6d38b0629",
    "vbm.json": "fb34fc1a76defe47b1b6a6d4ce95da8a4e586a289c7c384441a61e5fcf8ebba7",
    "system_full.json": "c29a1164178c57eb30db3488440cf1eecb165388e0516bb3ce2cbab2ea6b47b9",
    "system_restricted.json": "895e5b7dce5da3d3315cdda39a1c7603c8aef0b0e4aa61987198710dfb058361",
    "system_pruned.json": "b2c6b26ee7136d82f23020ea7dac12e85f666a89aa63d51c3f96530e674d3728",
    "coefficient keys": "f1b4e5d176e24c68b253087d5fb9d5d8193cafd1f9e855e3659b2a81c91cc40c",
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_pipeline(d, n, capsys, float_weights=False):
    """Exit codes, artifact hashes and the verify lines (word, check name) per step."""
    rng = np.random.default_rng([n, int(float_weights), 13])
    g = random_digraph(rng, n, float_weights)
    (d / "graph.json").write_text(json.dumps(g.to_json()))
    signal = {lab: float(x) for lab, x in zip(g.labels, rng.standard_normal(n))}
    (d / "signal.csv").write_text("".join(f"{lab},{x!r}\n" for lab, x in signal.items()))
    bundle = ["--partition", d / "partition.json", "--vbm", d / "vbm.json"]
    restricted = ["--system", d / "system_restricted.json"]
    steps = {"symmetrize": ["symmetrize", d / "graph.json", "--out", d],
             "chain_x": ["chain", d / "gx.json", "--out", d / "chain_x.json"],
             "chain_y": ["chain", d / "gy.json", "--out", d / "chain_y.json"],
             "build": ["build", "--chain-x", d / "chain_x.json", "--chain-y", d / "chain_y.json",
                       "--out", d, "--prune"],
             "analyze": ["analyze", d / "signal.csv", *bundle, *restricted,
                         "--out", d / "coefficients.csv"],
             "synthesize": ["synthesize", d / "coefficients.csv", *bundle, *restricted,
                            "--out", d / "back.csv"]}
    for s in ("full", "restricted", "pruned"):
        steps[f"verify_{s}"] = ["verify", *bundle, "--system", d / f"system_{s}.json"]
    codes, lines = {}, {}
    for name, args in steps.items():
        codes[name] = cli.main([str(a) for a in args])
        out = capsys.readouterr().out
        if name.startswith("verify"):
            lines[name] = re.findall(r"^(PASS|FAIL) (\w+): ", out, re.M)
    hashes = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    back = {lab: float(x) for lab, x in read_rows(d / "back.csv")}
    assert list(back) == list(signal)
    worst = max(abs(back[lab] - x) for lab, x in signal.items())
    assert worst <= 1e-12 * max(abs(x) for x in signal.values()), worst
    keys = "".join(",".join(row[:4]) + "\n" for row in read_rows(d / "coefficients.csv"))
    hashes["coefficient keys"] = hashlib.sha256(keys.encode()).hexdigest()
    return codes, hashes, lines


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_cli_artifacts_match_golden_hashes(n, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADAHAAR_SEED", raising=False)
    codes, hashes, lines = run_pipeline(tmp_path, n, capsys)
    assert codes == EXIT_CODES
    assert hashes == {**GOLDEN[n], "coefficient keys": COEFFICIENT_KEYS[n]}
    assert lines == VERIFY_LINES


def test_float_weighted_cli_artifacts_match_golden_hashes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADAHAAR_SEED", raising=False)
    codes, hashes, lines = run_pipeline(tmp_path, 16, capsys, float_weights=True)
    assert codes == EXIT_CODES
    assert hashes == GOLDEN_FLOAT_16
    assert lines == VERIFY_LINES
