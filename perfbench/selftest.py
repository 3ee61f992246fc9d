"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Every workload runs end to end, untraced
and traced, and must print every metric ``BENCHMARK.json`` names with no
failed op.  Then every workload runs against a reference with one racy
variable removed, and must count failed ops: that shows the correctness
check catches a wrong answer.  Exits 0 when all of this holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "3"


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
         "--size", "tiny", *extra],
        stdout=subprocess.PIPE, timeout=180, check=True,
    )
    return json.loads(done.stdout.decode().splitlines()[-1])


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: [entry["name"] for entry in spec["end_to_end"]],
        1: [entry["name"] for entry in spec["per_layer"]],
    }
    problems = []
    workloads = [entry["name"] for entry in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            result = run(workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload}: result keys {sorted(result)}")
            missing = set(names[trace]) - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace {trace}: no {missing}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: failed ops")
            if result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: no ops")
            for key, entry in result["metrics"].items():
                print(f"{workload:<14s} {key:<32s} "
                      f"{entry['value']:>14.6g} {entry['unit']}")
        wrong = run(workload, 0, "--drop-racy")
        print(f"{workload}: with a racy variable dropped from the reference, "
              f"{wrong['failed']} of {wrong['attempted']} ops failed")
        if wrong["failed"] == 0 or wrong["correct"]:
            problems.append(f"{workload}: a wrong reference went unnoticed")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
