#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 gombench/selftest.py [--seconds 2]

For every workload it runs one untraced and one traced short run and checks
that the result line has exactly the keys correct/attempted/failed/metrics,
that no operation failed, and that every metric BENCHMARK.json names is
emitted with its declared unit. Short runs are too short for the sample-count
check on tail percentiles, so that check alone may fail; any other failed
check fails the self-test. Finally it plants one wrong expected value in the
oracle and requires the run to count failed operations and report
correct = false. Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, seconds, trace, corrupt=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-oracle")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {r.returncode}\n{r.stderr}")
    objs = [json.loads(line) for line in lines if line.startswith("{")]
    violations = next((o["violations"] for o in objs if "violations" in o),
                      None)
    return objs[-1], violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, violations = run(name, args.seconds, trace)
            tag = f"{name} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
                continue
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append(f"{tag}: attempted {res['attempted']}, "
                                f"failed {res['failed']}")
            if violations is None:
                problems.append(f"{tag}: no violations line")
            else:
                for v in violations:
                    if "samples beyond it" not in v:
                        problems.append(f"{tag}: {v}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}")
            for m, unit in want.items():
                if m in got and got[m].get("unit") != unit:
                    problems.append(f"{tag}: {m} has unit "
                                    f"{got[m].get('unit')}, want {unit}")
            print(f"ok {tag}: {res['attempted']} ops", flush=True)
    bad, _ = run(spec["workloads"][0]["name"], args.seconds, 0, corrupt=True)
    if bad["failed"] < 1 or bad["correct"]:
        problems.append(f"planted oracle error not caught: {bad}")
    else:
        print(f"ok planted oracle error: {bad['failed']} failed ops")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
