"""The four workloads: seeded inputs, one timed op each, and its correctness check.

Op `i` of a run with seed `s` always gets the same input, drawn from
`default_rng([s, i])`, whatever the timing; set-up draws from
`default_rng([s, SETUP_STREAM])`. A check raises `CheckFailed`; it runs
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import adahaar as ah

SETUP_STREAM = 1_000_003
TOL = 1e-10
SUBPROCESS_TIMEOUT_S = 170


class CheckFailed(Exception):
    pass


def random_digraph(rng, n, p=0.15, float_weights=False) -> ah.Graph:
    """Edges with probability p plus a random Hamiltonian path, so it is weakly connected.

    Weights are 1, or with `float_weights` three-decimal values in (0.1, 1].
    """
    adj = rng.random((n, n)) < p
    order = rng.permutation(n)
    adj[order[:-1], order[1:]] = True
    np.fill_diagonal(adj, False)
    if float_weights:
        W = np.where(adj, rng.integers(101, 1001, size=(n, n)) / 1000, 0.0)
    else:
        W = adj.astype(float)
    return ah.Graph(W, [f"v{k}" for k in range(n)], directed=True)


def build_chains(g):
    gx, gy = ah.symmetrize(g)
    cx, cy = ah.build_chain(gx), ah.build_chain(gy)
    depth = max(cx.depth, cy.depth)
    return ah.pad_chain(cx, depth), ah.pad_chain(cy, depth)


def python_env() -> dict:
    """The environment of a child interpreter that imports adahaar from this `src/`."""
    src = Path(ah.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env.pop("ADAHAAR_SEED", None)
    return env


def run_python(args, env):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)


def interpreter_start(env) -> float:
    """Wall time of a fresh interpreter that only imports adahaar."""
    t0 = time.perf_counter()
    proc = run_python(["-c", "import adahaar"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"import adahaar failed: {proc.stderr}")
    return time.perf_counter() - t0


def relative_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class Workload:
    """Set-up, op and check of one workload; `perturb` corrupts each op's result."""

    name = ""
    sizes = {}         # n at full size and at the self-test's tiny size
    trace_ops = 1      # ops in a traced run, a fixed number so its counts repeat
    setup_repeats = 3  # set-up runs per run; setup_s is their median
    runs_cli = False   # ops run the CLI in child processes

    def __init__(self, seed, tiny=False, perturb=False, work_dir=None):
        self.seed = seed
        self.n = self.sizes["tiny" if tiny else "full"]
        self.perturb = perturb
        self.work_dir = work_dir

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def setup(self):
        pass

    def op(self, i, tracer=None):
        raise NotImplementedError

    def check(self, i, result):
        pass


WARM_UP_N = 6


class BuildN16(Workload):
    name = "build_n16"
    sizes = {"full": 16, "tiny": 8}
    trace_ops = 10

    def setup(self):
        # the op's own path on a tiny graph, so first-call costs stay out of op 0
        self.pipeline(random_digraph(self.rng(SETUP_STREAM), WARM_UP_N))

    def op(self, i, tracer=None):
        return self.pipeline(random_digraph(self.rng(i), self.n))

    def pipeline(self, g):
        cx, cy = build_chains(g)
        part, vbm = ah.digraph_embedding(g, cx, cy)
        full = ah.build_system(part)
        restricted = ah.restrict_system(full, vbm)
        pruned, report = ah.prune_redundant(restricted, vbm)
        return restricted, vbm, report

    def check(self, i, result):
        restricted, vbm, report = result
        if self.perturb:
            restricted = restricted.subset(restricted.atoms[:-1])
        lo, hi, _ = ah.vertex_span_bounds(restricted, vbm)
        if abs(lo - 1) > TOL or abs(hi - 1) > TOL:
            raise CheckFailed(f"restricted frame bounds [{lo!r}, {hi!r}] are not 1")
        if report["rank"] != self.n:
            raise CheckFailed(f"pruned rank {report['rank']} != n = {self.n}")


class SignalsN32(Workload):
    name = "signals_n32"
    sizes = {"full": 32, "tiny": 8}
    trace_ops = 3
    batch = 16  # signals per op, so an op lasts a few tenths of a second

    def setup(self):
        g = random_digraph(self.rng(SETUP_STREAM), self.n)
        cx, cy = build_chains(g)
        part, vbm = ah.digraph_embedding(g, cx, cy)
        system = ah.restrict_system(ah.build_system(part), vbm)
        ah.analyze(system, ah.signal_to_function(np.ones(self.n), vbm))  # fills the matrix cache
        self.system, self.vbm = system, vbm
        self.vertex_measure = np.array([float(part.blocks[b].measure) for b in vbm.blocks])

    def op(self, i, tracer=None):
        out = []
        for x in self.rng(i).standard_normal((self.batch, self.n)):
            f = ah.signal_to_function(x, self.vbm)
            cv = ah.analyze(self.system, f)
            if self.perturb:
                coeffs = cv.coefficients.copy()
                coeffs[len(coeffs) // 2] += 1e-3
                cv = ah.CoefficientVector(self.system, cv.c0, coeffs)
            back = ah.function_to_signal(ah.synthesize(self.system, cv), self.vbm)
            out.append((x, cv.energy(), back))
        return out

    def check(self, i, result):
        for x, energy, back in result:
            norm2 = float(np.dot(x * x, self.vertex_measure))
            parseval = abs(energy - norm2) / norm2
            if parseval > TOL:
                raise CheckFailed(f"relative Parseval error {parseval:.3e}")
            recon = relative_error([back[lab] for lab in self.vbm.labels], x)
            if recon > TOL:
                raise CheckFailed(f"relative reconstruction error {recon:.3e}")


class CoarsenN40(Workload):
    name = "coarsen_n40"
    sizes = {"full": 40, "tiny": 12}
    trace_ops = 5

    def setup(self):
        self.pipeline(random_digraph(self.rng(SETUP_STREAM), WARM_UP_N))

    def op(self, i, tracer=None):
        return self.pipeline(random_digraph(self.rng(i), self.n), self.perturb)

    def pipeline(self, g, perturb=False):
        cx, cy = build_chains(g)
        if perturb:
            coarse = cx.graphs[-2]
            W = np.array(coarse.weights)
            W[0, 0] += 1.0
            cx.graphs[-2] = ah.Graph(W, coarse.labels)
        embeddings = [ah.chain_to_intervals(cx), ah.chain_to_intervals(cy)]
        for chain in (cx, cy):
            try:
                chain.validate()
            except ah.ValidationError as exc:
                raise CheckFailed(f"Chain.validate: {exc}") from exc
        return embeddings

    def check(self, i, result):
        for emb in result:
            if len(emb.partition.leaf_ids) != self.n:
                raise CheckFailed(f"{len(emb.partition.leaf_ids)} leaf intervals for n = {self.n}")


# (step, arguments) of one CLI op; {d} is the op's directory.
CLI_STEPS = [
    ("symmetrize", ["symmetrize", "{d}/graph.json", "--out", "{d}"]),
    ("chain", ["chain", "{d}/gx.json", "--out", "{d}/chain_x.json"]),
    ("chain", ["chain", "{d}/gy.json", "--out", "{d}/chain_y.json"]),
    ("build", ["build", "--chain-x", "{d}/chain_x.json", "--chain-y", "{d}/chain_y.json",
               "--out", "{d}", "--prune"]),
    ("analyze", ["analyze", "{d}/signal.csv", "--partition", "{d}/partition.json",
                 "--system", "{d}/system_restricted.json", "--vbm", "{d}/vbm.json",
                 "--out", "{d}/coeffs.csv"]),
    ("synthesize", ["synthesize", "{d}/coeffs.csv", "--partition", "{d}/partition.json",
                    "--system", "{d}/system_restricted.json", "--vbm", "{d}/vbm.json",
                    "--out", "{d}/signal_back.csv"]),
    ("verify_restricted", ["verify", "--partition", "{d}/partition.json",
                           "--system", "{d}/system_restricted.json", "--vbm", "{d}/vbm.json"]),
    ("verify_full", ["verify", "--partition", "{d}/partition.json",
                     "--system", "{d}/system_full.json", "--vbm", "{d}/vbm.json"]),
]
CLI_STEP_NAMES = list(dict.fromkeys(step for step, _ in CLI_STEPS))


def _json_files(args, out_dir, before):
    """(read, written) JSON files of one step, from its arguments and new directory entries."""
    read = [a for a in args if a.endswith(".json") and os.path.exists(a)]
    written = [p for p in out_dir.glob("*.json") if p.name not in before]
    return read, written


class CliN16(Workload):
    name = "cli_n16"
    sizes = {"full": 16, "tiny": 6}
    trace_ops = 1
    runs_cli = True

    def __init__(self, seed, tiny=False, perturb=False, work_dir=None):
        super().__init__(seed, tiny, perturb, work_dir)
        self.env = python_env()
        self.launcher = str(Path(__file__).resolve().parent / "launcher.py")

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def write_inputs(self, i, d):
        rng = self.rng(i)
        g = random_digraph(rng, self.n, float_weights=True)
        W = g.weights
        edges = [[g.labels[u], g.labels[v], float(W[u, v])] for u, v in zip(*np.nonzero(W))]
        (d / "graph.json").write_text(json.dumps(
            {"labels": list(g.labels), "directed": True, "edges": edges}))
        x = rng.standard_normal(self.n)
        (d / "signal.csv").write_text(
            "".join("%s,%.17g\n" % (lab, v) for lab, v in zip(g.labels, x)))
        return dict(zip(g.labels, x))

    def op(self, i, tracer=None):
        d = self.work_dir / f"op{i}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        signal = self.write_inputs(i, d)
        wall = dict.fromkeys(CLI_STEP_NAMES, 0.0)
        read_bytes = write_bytes = 0
        verify_out = []
        for step, template in CLI_STEPS:
            args = [a.format(d=d) for a in template]
            before = {p.name for p in d.glob("*.json")}
            t0 = time.perf_counter()
            if tracer is None:
                proc = run_python(["-m", "adahaar", *args], self.env)
            else:
                dump = d / f"spans_{step}.trace"
                proc = run_python([self.launcher, str(dump), step, *args], self.env)
            wall[step] += time.perf_counter() - t0
            if proc.returncode != 0:
                raise CheckFailed(f"{step} exited {proc.returncode}: {proc.stderr.strip()}")
            if tracer is not None:
                tracer.merge(json.loads(dump.read_text()), tracer.op)
                dump.unlink()
            read, written = _json_files(args, d, before)
            read_bytes += sum(os.path.getsize(p) for p in read)
            write_bytes += sum(p.stat().st_size for p in written)
            if step.startswith("verify"):
                verify_out.append(proc.stdout)
            if step == "analyze" and self.perturb:
                _perturb_coefficient(d / "coeffs.csv")
        back = {}
        for line in (d / "signal_back.csv").read_text().splitlines():
            lab, _, val = line.partition(",")
            back[lab] = float(val)
        digest = hashlib.sha256()
        for p in sorted(d.iterdir()):
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        return {"signal": signal, "back": back, "verify": verify_out, "wall": wall,
                "json_read_bytes": read_bytes, "json_write_bytes": write_bytes,
                "partition_json_bytes": (d / "partition.json").stat().st_size,
                "digest": digest.hexdigest()}

    def check(self, i, result):
        for out in result["verify"]:
            lines = out.splitlines()
            if not lines or not all(line.startswith("PASS") for line in lines):
                raise CheckFailed(f"verify reported:\n{out}")
        labels = list(result["signal"])
        if set(result["back"]) != set(labels):
            raise CheckFailed("round-tripped signal has other vertices")
        err = relative_error([result["back"][lab] for lab in labels],
                             [result["signal"][lab] for lab in labels])
        if err > TOL:
            raise CheckFailed(f"round-trip relative error {err:.3e}")


def _perturb_coefficient(path):
    rows = path.read_text().splitlines()
    k = len(rows) // 2  # a detail row, past the header and the scaling row
    head, _, value = rows[k].rpartition(",")
    rows[k] = f"{head},{float(value) + 1e-3!r}"
    path.write_text("\n".join(rows) + "\n")


WORKLOADS = {w.name: w for w in (BuildN16, SignalsN32, CliN16, CoarsenN40)}
