"""Benchmark of the adahaar pipeline: one workload per run, results as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `adahaar` from its
`src/`. A closed loop runs one op at a time, each on fresh inputs drawn
from the seed, for S seconds of op time; each op's result is checked
outside the timed region. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1` the
same set-up and a fixed number of ops run with spans around every call
into the library's modules, and the object carries the per-layer metrics.
Every metric is also printed on its own line, with its unit, before it.
See README.md in this directory for the workloads and what each metric
should move.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one op in flight, and no BLAS thread pool: the machine has
# two cores and the numbers must not depend on what else runs beside us.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("graphs.symmetrize_s", "s"),
    ("graphs.build_chain_s", "s"),
    ("graphs.default_cluster_s", "s"),
    ("graphs.default_cluster_calls", "count"),
    ("graphs.coarse_grain_s", "s"),
    ("graphs.chain_validate_s", "s"),
    ("graphs.chain_from_json_s", "s"),
    ("graphs.chain_depth", "count"),
    ("hierarchy.refine_interval_level_s", "s"),
    ("hierarchy.tensor_partitions_s", "s"),
    ("hierarchy.validate_partition_s", "s"),
    ("hierarchy.validate_partition_calls", "count"),
    ("hierarchy.intersection_tests", "count"),
    ("hierarchy.partition_from_json_s", "s"),
    ("hierarchy.partition_to_json_s", "s"),
    ("hierarchy.leaves", "count"),
    ("hierarchy.blocks", "count"),
    ("hierarchy.denominator_bits_max", "bits"),
    ("embedding.chain_to_intervals_s", "s"),
    ("embedding.digraph_embedding_s", "s"),
    ("embedding.restrict_system_s", "s"),
    ("embedding.prune_redundant_s", "s"),
    ("embedding.vertex_span_bounds_s", "s"),
    ("embedding.signal_to_function_s", "s"),
    ("embedding.function_to_signal_s", "s"),
    ("embedding.vbm_from_json_s", "s"),
    ("framelets.build_system_s", "s"),
    ("framelets.make_atom_s", "s"),
    ("framelets.make_atom_calls", "count"),
    ("framelets.system_from_json_s", "s"),
    ("framelets.function_matrix_s", "s"),
    ("framelets.function_matrix_bytes", "bytes"),
    ("framelets.leaf_measures_s", "s"),
    ("framelets.leaf_measures_calls", "count"),
    ("framelets.analyze_s", "s"),
    ("framelets.synthesize_s", "s"),
    ("framelets.inner_product_calls", "count"),
    ("framelets.atoms_full", "count"),
    ("framelets.atoms_restricted", "count"),
    ("framelets.atoms_pruned", "count"),
    ("cli.interpreter_start_s", "s"),
    ("cli.symmetrize_s", "s"),
    ("cli.chain_s", "s"),
    ("cli.build_s", "s"),
    ("cli.analyze_s", "s"),
    ("cli.synthesize_s", "s"),
    ("cli.verify_restricted_s", "s"),
    ("cli.verify_full_s", "s"),
    ("cli.symmetrize_self_s", "s"),
    ("cli.chain_self_s", "s"),
    ("cli.build_self_s", "s"),
    ("cli.analyze_self_s", "s"),
    ("cli.synthesize_self_s", "s"),
    ("cli.verify_restricted_self_s", "s"),
    ("cli.verify_full_self_s", "s"),
    ("cli.json_read_bytes", "bytes"),
    ("cli.json_write_bytes", "bytes"),
    ("cli.partition_json_bytes", "bytes"),
    ("bench.untraced_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test size: a few vertices per graph")
    p.add_argument("--perturb", action="store_true",
                   help="self-test: corrupt every op's result so its check must fail")
    return p.parse_args(argv)


def run_op(w, i, tracer, log):
    """Time op i (wrappers installed only while it runs), then check it untimed."""
    if tracer is not None:
        tracer.op = i
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = w.op(i, tracer)
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        log.append(f"op {i} raised:\n{traceback.format_exc()}")
        result = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if result is None:
        return dt, None
    try:
        w.check(i, result)
    except Exception:
        log.append(f"op {i} failed its check:\n{traceback.format_exc()}")
        return dt, None
    return dt, result


def tail(durations):
    """Highest percentile with at least 10 samples beyond it, else the maximum.

    Below 20 samples that percentile would sit under the median, so the
    slowest op is reported instead.
    """
    s = sorted(durations)
    if len(s) < 20:
        return s[-1], "max (fewer than 20 samples)"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.1f}"


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_untraced(w, seconds, import_s, log):
    from workloads import interpreter_start, python_env

    env = python_env()
    setups, durations, failed, cli_results = [], [], 0, []
    for k in range(w.setup_repeats):
        # One set-up is what a user waits for before the first op: a fresh
        # interpreter importing adahaar, then the workload's own set-up. The
        # import is timed in a child, so it can be repeated like the rest.
        t0 = time.perf_counter()
        interpreter_start(env)
        w.setup()
        setups.append(time.perf_counter() - t0)
        # The host's speed drifts over tens of seconds. Giving each set-up its
        # share of the timed ops samples set-up at three points of the run.
        share = seconds * (k + 1) / w.setup_repeats
        while not durations or sum(durations) < share:
            dt, result = run_op(w, len(durations), None, log)
            durations.append(dt)
            failed += result is None
            if w.runs_cli:  # small summaries; other results are dropped at once
                cli_results.append(result)
    tail_s, tail_label = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(w.runs_cli),
    }
    info = {"samples": len(durations), "op_tail_percentile": tail_label,
            "failed_ratio": failed / len(durations),
            "import_s": import_s, "setup_runs_s": setups}
    ok = [r for r in cli_results if r is not None]
    if ok:
        for step in ok[0]["wall"]:
            info[f"cli_{step}_s"] = statistics.median(r["wall"][step] for r in ok)
        info["artifacts_sha256_op0"] = cli_results[0]["digest"] if cli_results[0] else None
    return metrics, END_TO_END, len(durations), failed, info


def run_traced(w, log):
    from spans import Tracer, self_times, top_level_time

    # Set-up gets a tracer of its own: its spans go to the spans file and its
    # sizes count, but times and calls are those of the ops alone.
    setup_tracer = Tracer()
    setup_tracer.op = "setup"
    setup_tracer.install()
    try:
        w.setup()
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    extra = {}
    if w.runs_cli:
        from workloads import interpreter_start
        extra["cli.interpreter_start_s"] = statistics.median(
            interpreter_start(w.env) for _ in range(3))

    traced, replayed, failed = [], [], 0
    results = []
    for i in range(w.trace_ops):
        dt, result = run_op(w, i, tracer, log)
        traced.append(dt)
        failed += result is None
        results.append(result)
    # The same ops again with nothing installed: the tracing overhead, and
    # for the CLI a second run of the same inputs whose artifacts must match.
    for i in range(w.trace_ops):
        dt, result = run_op(w, i, None, log)
        replayed.append(dt)
        failed += result is None
        if w.runs_cli and result is not None and results[i] is not None:
            if result["digest"] != results[i]["digest"]:
                log.append(f"op {i}: artifacts differ between two runs of the same input")
                failed += 1
            for step, secs in result["wall"].items():
                extra[f"cli.{step}_s"] = extra.get(f"cli.{step}_s", 0.0) + secs
        if w.runs_cli and results[i] is not None:
            for key in ("json_read_bytes", "json_write_bytes", "partition_json_bytes"):
                extra[f"cli.{key}"] = extra.get(f"cli.{key}", 0) + results[i][key]

    values = {name: max(tracer.gauges.get(name, 0), setup_tracer.gauges.get(name, 0))
              for name in set(tracer.gauges) | set(setup_tracer.gauges)}
    for name, secs in self_times(tracer.spans).items():
        values[f"{name}_self_s" if name.startswith("cli.") else f"{name}_s"] = secs
    for name, calls in tracer.counts.items():
        values[f"{name}_calls"] = calls
    values["hierarchy.intersection_tests"] = tracer.counts["hierarchy.intersection_measure"]
    values["bench.untraced_s"] = sum(traced[i] - top_level_time(tracer.spans, i)
                                     for i in range(w.trace_ops))
    values["bench.trace_overhead_ratio"] = sum(replayed) / sum(traced)
    values.update(extra)
    metrics = {name: values.get(name, 0) for name, _ in PER_LAYER}

    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans_{w.name}_seed{w.seed}.json"
    spans_file.write_text(json.dumps({"setup": setup_tracer.dump(), "ops": tracer.dump()}))
    info = {"traced_ops": w.trace_ops, "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, PER_LAYER, 2 * w.trace_ops, failed, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        import adahaar
    except ImportError as exc:
        print(f"cannot import adahaar from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(adahaar.__file__).resolve().is_relative_to(SRC):
        print(f"adahaar was imported from {adahaar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    work_dir = WORK / f"{args.workload}_seed{args.seed}_pid{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, tiny=args.tiny, perturb=args.perturb,
                                 work_dir=work_dir)
    log = []
    try:
        if args.trace:
            metrics, units, attempted, failed, info = run_traced(w, log)
        else:
            metrics, units, attempted, failed, info = run_untraced(w, args.seconds, import_s, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in log:
        print(line, file=sys.stderr)
    print(f"workload {w.name} seed {args.seed} n {w.n} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    units = dict(units)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
