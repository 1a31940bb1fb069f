"""Self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

It makes one short untraced run and, for every workload, two short
traced runs with one seed; each must pass its output checks and report
exactly the metrics BENCHMARK.json names, and the two traced runs must
report identical work counts.  It then copies the benchmark without
the package sources into bench/out/bare and asserts that a run there
fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# counts that must repeat exactly for a seed
EXACT = ("problems.blocks", "relax.block_solves", "relax.sweeps",
         "relax.solves", "scanner.guesses", "oracles.calls", "cli.calls")


def bench(root: Path, workload: str, seed: int, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess, names: list[str]) -> dict:
    """The run's JSON result; it must pass and report exactly names."""
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0 and result["correct"], done.stdout
    assert sorted(result["metrics"]) == sorted(names), sorted(result["metrics"])
    return result


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    result_of(bench(ROOT, workloads[-1], seed=7, trace=0), end_to_end)
    print("selftest: an untraced run reports every end-to-end metric")
    for workload in workloads:
        counts = []
        for _ in range(2):
            result = result_of(bench(ROOT, workload, seed=7), per_layer)
            counts.append({k: result["metrics"][k]["value"] for k in EXACT})
        assert counts[0] == counts[1], f"{workload}: counts differ {counts}"
        assert counts[0]["problems.blocks"] > 0, f"{workload}: nothing assembled"
        print(f"selftest: {workload} counts repeat: {counts[0]}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(bare, workloads[0], seed=7)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    shutil.rmtree(bare)
    print("selftest: a checkout without sources fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
