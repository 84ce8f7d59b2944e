"""File-driven pipeline: symmetrize -> chain -> build -> analyze/synthesize/verify.

Every command is deterministic given its input files; JSON is written with
sorted keys and floats are formatted with 17 significant digits, so
repeated runs produce byte-identical artifacts. Exit codes: 0 success,
1 verification failure, 2 parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .embedding import (VertexBlockMap, digraph_embedding, function_to_signal,
                        prune_redundant, restrict_system, signal_to_function,
                        vertex_span_bounds)
from .errors import AdahaarError, ParseError
from .framelets import (FrameletSystem, PwcFunction, analyze, build_system,
                        coefficients_from_csv, coefficients_to_csv,
                        inner_product, refinement_matrix, synthesize)
from .graphs import Chain, Graph, build_chain, is_weakly_connected, pad_chain, symmetrize
from .hierarchy import HierarchicalPartition


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_signal_csv(path):
    """label,value rows (csv quoting); blank lines and a `label,value` header are skipped."""
    signal = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if not "".join(row).strip():
                    continue
                if len(row) != 2:
                    raise ParseError(f"{where}: expected 2 fields (label,value), got {len(row)}")
                label, value = row[0].strip(), row[1].strip()
                if value == "value" and not signal:  # header
                    continue
                if label in signal:
                    raise ParseError(f"{where}: label {label!r} appears more than once")
                try:
                    signal[label] = float(value)
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from exc
                if not math.isfinite(signal[label]):
                    raise ParseError(f"{where}: value {value!r} is not finite")
    except (OSError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return signal


def _write_signal_csv(path, signal, labels):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for lab in labels:
            w.writerow([lab, "%.17g" % signal[lab]])


def _read_coefficients(path, system):
    try:
        with open(path, newline="") as fh:
            return coefficients_from_csv(system, fh)
    except (OSError, csv.Error, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_bundle(args):
    partition = HierarchicalPartition.from_json(_load_json(args.partition))
    system = FrameletSystem.from_json(partition, _load_json(args.system))
    vbm = None
    if getattr(args, "vbm", None):
        vbm = VertexBlockMap.from_json(partition, _load_json(args.vbm))
    return partition, system, vbm


def cmd_symmetrize(args) -> int:
    g = Graph.from_json(_load_json(args.graph))
    connected = is_weakly_connected(g)
    print(f"weakly_connected: {str(connected).lower()}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gx, gy = symmetrize(g)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    out = Path(args.out)
    _write_json(out / "gx.json", gx.to_json())
    _write_json(out / "gy.json", gy.to_json())
    print(f"wrote {out / 'gx.json'} and {out / 'gy.json'}")
    return 0


def cmd_chain(args) -> int:
    if args.explicit:
        chain = Chain.from_json(_load_json(args.explicit))  # validates
    else:
        if not args.graph:
            raise ParseError("chain needs a graph file or --explicit")
        g = Graph.from_json(_load_json(args.graph))
        targets = None
        if args.target_per_level:
            try:
                targets = [int(t) for t in args.target_per_level.split(",")]
            except ValueError:
                raise ParseError(f"--target-per-level needs comma-separated integers, "
                                 f"got {args.target_per_level!r}") from None
        chain = build_chain(g, max_depth=args.depth, targets=targets)
        chain.validate()
    _write_json(args.out, chain.to_json())
    print(f"chain of depth {chain.depth} written to {args.out}")
    return 0


def cmd_build(args) -> int:
    cx = Chain.from_json(_load_json(args.chain_x))
    cy = Chain.from_json(_load_json(args.chain_y))
    depth = max(cx.depth, cy.depth)
    cx, cy = pad_chain(cx, depth), pad_chain(cy, depth)
    partition, vbm = digraph_embedding(cx.finest, cx, cy)
    system = build_system(partition)
    restricted = restrict_system(system, vbm)
    out = Path(args.out)
    _write_json(out / "partition.json", partition.to_json())
    _write_json(out / "vbm.json", vbm.to_json())
    _write_json(out / "system_full.json", system.to_json())
    _write_json(out / "system_restricted.json", restricted.to_json())
    rlo, rhi, rrank = vertex_span_bounds(restricted, vbm)
    report = {"counts": {"full": len(system), "restricted": len(restricted)},
              "frame_bounds": {"restricted": [rlo, rhi]},
              "rank": {"restricted": rrank}}
    if args.prune:
        pruned, preport = prune_redundant(restricted, vbm)
        _write_json(out / "system_pruned.json", pruned.to_json())
        report["counts"]["pruned"] = len(pruned)
        report["frame_bounds"]["pruned"] = preport["frame_bounds"]
        report["rank"]["pruned"] = preport["rank"]
    _write_json(out / "report.json", report)
    print("counts:", json.dumps(report["counts"], sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    partition, system, vbm = _load_bundle(args)
    if vbm is None:
        raise ParseError("analyze needs --vbm to embed the vertex signal")
    f = signal_to_function(_read_signal_csv(args.signal), vbm)
    cv = analyze(system, f)
    with open(args.out, "w", newline="") as fh:
        coefficients_to_csv(cv, fh)
    print(f"{1 + len(cv.coefficients)} coefficients written to {args.out}")
    return 0


def cmd_synthesize(args) -> int:
    partition, system, vbm = _load_bundle(args)
    if vbm is None:
        raise ParseError("synthesize needs --vbm to read the result at the vertices")
    f = synthesize(system, _read_coefficients(args.coefficients, system))
    _write_signal_csv(args.out, function_to_signal(f, vbm), vbm.labels)
    print(f"signal written to {args.out}")
    return 0


def _verify_checks(partition, system, vbm, rng, n_signals=20):
    """Yield (name, ok, detail) for each verification suite."""
    # column orthogonality of every parent's refinement matrix
    worst = 0.0
    for j in range(system.depth):
        for parent in partition.levels[j]:
            b = [num / den for num, den in partition.shares(parent)]
            if len(b) > 1:
                A = refinement_matrix(b)
                worst = max(worst, float(np.abs(A.T @ A - np.eye(len(b))).max()))
    yield "refinement_orthogonality", worst <= 1e-12, f"max residual {worst:.3e}"

    integrals, norms, cross = system.moments()
    worst = float(np.abs(integrals[1:]).max(initial=0.0))
    yield "vanishing_moments", worst <= 1e-12, f"max |integral| {worst:.3e}"

    shares = {}  # parent -> its integer shares; b_l1 + b_l2 is one rounded division
    expect = []
    for _, p, l1, l2 in system.keys:
        if p not in shares:
            shares[p] = partition.shares(p)
        (n1, d1), (n2, d2) = shares[p][l1 - 1], shares[p][l2 - 1]
        expect.append((n1 * d2 + n2 * d1) / (d1 * d2))
    worst = float(np.abs(norms[1:] - expect).max(initial=0.0))
    yield "atom_norms", worst <= 1e-12, f"max norm error {worst:.3e}"

    worst = float(cross.max())
    yield "cross_scale_orthogonality", worst <= 1e-12, f"max inner product {worst:.3e}"

    mu = partition.leaf_measures
    worst_p, worst_r = 0.0, 0.0
    for _ in range(n_signals):
        if vbm is not None:
            values = rng.standard_normal(len(vbm.labels))
            f = signal_to_function(values, vbm)
        else:
            vec = rng.standard_normal(len(partition.leaf_ids))
            f = PwcFunction(partition, vec)
        nrm = inner_product(f, f)
        cv = analyze(system, f)
        worst_p = max(worst_p, abs(cv.energy() - nrm) / nrm)
        g = synthesize(system, cv)
        diff = f.vector - g.vector
        worst_r = max(worst_r, math.sqrt(float(diff @ (mu * diff)) / nrm))
    yield "parseval", worst_p <= 1e-10, f"max relative error {worst_p:.3e}"
    yield "reconstruction", worst_r <= 1e-10, f"max relative error {worst_r:.3e}"


def _seed_from_env() -> int:
    """The test-signal seed from ADAHAAR_SEED (default 0): a non-negative integer."""
    raw = os.environ.get("ADAHAAR_SEED", "0")
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ParseError(f"ADAHAAR_SEED must be a non-negative integer, got {raw!r}")


def cmd_verify(args) -> int:
    rng = np.random.default_rng(_seed_from_env())
    partition, system, vbm = _load_bundle(args)
    failed = 0
    for name, ok, detail in _verify_checks(partition, system, vbm, rng):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adahaar",
        description="Adaptive Haar-type tight framelets for digraph signals")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("symmetrize", help="digraph -> undirected pair gx, gy")
    s.add_argument("graph")
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_symmetrize)

    s = sub.add_parser("chain", help="coarse-grain a graph, or validate an explicit chain")
    s.add_argument("graph", nargs="?")
    s.add_argument("--explicit", help="chain JSON to validate and canonicalize")
    s.add_argument("--target-per-level", help="comma-separated cluster counts")
    s.add_argument("--depth", type=int, default=64, help="maximum coarsening steps")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_chain)

    s = sub.add_parser("build", help="tensor partition, framelet systems and reports")
    s.add_argument("--chain-x", required=True)
    s.add_argument("--chain-y", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--prune", action="store_true")
    s.set_defaults(func=cmd_build)

    s = sub.add_parser("analyze", help="signal CSV -> coefficient CSV")
    s.add_argument("signal")
    s.add_argument("--partition", required=True)
    s.add_argument("--system", required=True)
    s.add_argument("--vbm", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("synthesize", help="coefficient CSV -> signal CSV")
    s.add_argument("coefficients")
    s.add_argument("--partition", required=True)
    s.add_argument("--system", required=True)
    s.add_argument("--vbm", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synthesize)

    s = sub.add_parser("verify", help="run the identity suites on a system file")
    s.add_argument("--partition", required=True)
    s.add_argument("--system", required=True)
    s.add_argument("--vbm")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (AdahaarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
