"""Self-test of the benchmark at a tiny size; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks, for every workload: a run of a few ops prints each metric named in
BENCHMARK.json with its unit and fails no op; a traced run reports every
per-layer metric, and its counts repeat exactly on a second run; a run that
perturbs each op's result (a coefficient, an atom or a weight) fails its
ops. It also checks that the CLI artifacts of one seed hash the same in two
runs, and that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and this directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = {"count", "bytes", "bits"}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(workload, trace, failures):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result, lines = result_of(run(workload, trace))
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        failures.append(f"{workload} trace={trace}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        failures.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                        "differ from BENCHMARK.json or carry another unit")
    for name, unit in want.items():
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
            failures.append(f"{workload} trace={trace}: {name} not printed with unit {unit}")
    return result


def main() -> int:
    failures = []
    for w in WORKLOADS:
        check_metrics(w, 0, failures)
        first = check_metrics(w, 1, failures)
        second, _ = result_of(run(w, 1))
        for name, m in first["metrics"].items():
            if m["unit"] in EXACT_UNITS and m["value"] != second["metrics"][name]["value"]:
                failures.append(f"{w}: count {name} is {m['value']} then "
                                f"{second['metrics'][name]['value']}")
        perturbed, _ = result_of(run(w, 0, "--perturb"))
        if perturbed["failed"] == 0 or perturbed["correct"]:
            failures.append(f"{w}: a perturbed result passed its check")
        print(f"{w}: checked")

    cli = next(w for w in WORKLOADS if w.startswith("cli"))
    digests = [line for proc in (run(cli, 0), run(cli, 0))
               for line in result_of(proc)[1] if "artifacts_sha256" in line]
    if len(digests) != 2 or digests[0] != digests[1]:
        failures.append(f"CLI artifacts of one seed differ between runs: {digests}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("without src/ the benchmark still printed a result or exited 0")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
