"""Print every end-to-end metric of every workload, with its unit, and the
outcome of the output checks.

    python3 perfbench/report.py [--seed 1]

Runs ``perfbench/run.py --trace 0`` once per workload for BENCHMARK.json's
``run_seconds``, each in its own process (peak memory is per process), from
the root of the checkout.  Exits 1 when any workload's checks fail.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", "0"]
        print(f"== {name}", flush=True)
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = res.stdout.strip().splitlines()
        # every line but the JSON result: metrics with units, checks, environment
        for line in lines[:-1]:
            print(f"   {line}")
        if res.returncode != 0 or not lines:
            print(f"   run.py exited with {res.returncode}: {res.stderr.strip()}")
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
