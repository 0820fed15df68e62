"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload main-char --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    first, _, last = args.seeds.partition("-")
    values: dict[str, list[float]] = {}
    for seed in range(int(first), int(last or first) + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{out.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4f}"
                                           for n, m in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:<14} median {med:10.4f} {m['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f} "
              f"spread {(q3 - q1) / med:.4f} bound {m['bound']} (n={len(v)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
