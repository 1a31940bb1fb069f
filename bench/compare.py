"""Compare the relaxed energies and sweep counts of two run records.

    python3 bench/compare.py bench/baseline/solve-fine-seed11.json \
        bench/out/solve-fine-seed11-trace0.json

Both records must come from the same workload and seed.  Calls are
matched by pass and label over the passes both runs completed; the
exit status is 1 when any energy differs by more than RTOL (relative)
or any sweep count differs.
"""

from __future__ import annotations

import argparse
import json
import sys

RTOL = 1e-12


def energies(call: dict) -> list[float]:
    if "energies" in call:
        return call["energies"]
    return [call["energy"]] if "energy" in call else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    with open(args.reference) as fh:
        ref = json.load(fh)
    with open(args.candidate) as fh:
        new = json.load(fh)
    if (ref["workload"], ref["seed"]) != (new["workload"], new["seed"]):
        sys.exit("compare: records are from different workloads or seeds")

    def calls(record):
        return {(p["pass"], c["call"]): c for p in record["passes"]
                if not p["traced"] for c in p["calls"]}

    old_calls, new_calls = calls(ref), calls(new)
    shared = sorted(old_calls.keys() & new_calls.keys())
    worst, bad = 0.0, []
    for key in shared:
        a, b = old_calls[key], new_calls[key]
        for x, y in zip(energies(a), energies(b)):
            if x != x and y != y:       # both NaN: both failed to converge
                continue
            rel = abs(x - y) / max(abs(x), 1e-300)
            worst = max(worst, rel)
            if not rel <= RTOL:
                bad.append(f"pass {key[0]} {key[1]}: energy {x!r} vs {y!r}")
        if a.get("sweeps") != b.get("sweeps"):
            bad.append(f"pass {key[0]} {key[1]}: sweeps {a.get('sweeps')} vs {b.get('sweeps')}")
    for line in bad[:20]:
        print(f"compare: {line}")
    print(f"compare: {len(shared)} calls, worst relative energy gap {worst:.3e}, "
          f"{len(bad)} mismatches")
    return 1 if bad or not shared else 0


if __name__ == "__main__":
    sys.exit(main())
