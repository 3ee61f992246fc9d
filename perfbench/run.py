"""The repository benchmark: cold check, sharded check and a service mix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seconds S] [--seed N]

Run from the root of a checkout.  The first form runs one workload and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``failed``
counts every op that did not return a right answer (errors, timeouts and
wrong answers); ``correct`` is false when any op returned a wrong one.
``--report`` runs every workload both ways and prints every metric with
its unit.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

#: The workloads, metric names and units a run reports.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

def _with_units(spec: dict, measured: dict, traced: bool) -> dict:
    """Every metric ``BENCHMARK.json`` lists for this mode, with its unit.

    A traced run reads 0 for a layer its workload does not run; an
    untraced run must measure every end-to-end metric.
    """
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    unknown = set(measured) - {entry["name"] for entry in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        entry["name"]: harness.metric(
            measured.get(entry["name"], 0.0) if traced
            else measured[entry["name"]],
            entry["unit"])
        for entry in listed
    }


def _workloads(spec: dict) -> list:
    return [entry["name"] for entry in spec["workloads"]]


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 traced: bool, size: str = "full",
                 drop_racy: bool = False) -> dict:
    root = os.getcwd()
    began = time.monotonic()
    checkout = harness.Checkout(root, f"{name}-{os.getpid()}")
    sys.path.insert(0, checkout.src)
    try:
        if name == "service-mix":
            import service_mix

            workload = service_mix.ServiceMix(
                checkout, seed, size, drop_racy, seconds)
        else:
            import cli_workloads

            workload = cli_workloads.CliWorkload(
                name, checkout, seed, size, drop_racy)
        harness.say(f"{name}: input {json.dumps(workload.properties)}; "
                    f"made in {time.monotonic() - began:.1f} s")
        try:
            setup_s = workload.setup()
            # Write the generated inputs and the warm-up's files back now,
            # so that their writeback does not land in the timed window.
            os.sync()
            harness.say(f"{name}: set up at {time.monotonic() - began:.1f} s")
            if traced:
                result = workload.measure_traced(seconds)
            else:
                result = workload.measure(seconds, setup_s)
            result["metrics"] = _with_units(spec, result["metrics"], traced)
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()
        result["properties"] = workload.properties
        result["wrong"] = workload.wrong
        return result
    finally:
        cleanup = time.monotonic()
        shutil.rmtree(checkout.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(checkout.work))
        except OSError:
            pass
        harness.say(f"{name}: removed the work area in "
                    f"{time.monotonic() - cleanup:.1f} s; run took "
                    f"{time.monotonic() - began:.1f} s")


def _report(spec: dict, seed: int, seconds: float, size: str) -> int:
    """Every workload, untraced then traced, every metric with its unit."""
    failed = 0
    for name in _workloads(spec):
        for traced in (False, True):
            result = run_workload(spec, name, seed, seconds, traced, size)
            failed += result["failed"]
            mode = "per layer (traced)" if traced else "end to end"
            print(f"\n{name} — {mode}: {result['attempted']} ops, "
                  f"{result['failed']} failed")
            rows = dict(result["metrics"])
            if not traced:
                rows["error_rate"] = {
                    "value": result["extra"]["error_rate"], "unit": "share"}
            for key, entry in rows.items():
                print(f"  {key:<34s} {entry['value']:>16.6g} {entry['unit']}")
            for key, value in result.get("extra", {}).items():
                if key != "error_rate":
                    print(f"  ({key} = {value:.6g})")
            if not traced:
                for key, value in result["properties"].items():
                    print(f"  (input {key} = {value:.6g})")
    return 1 if failed else 0


def main(argv=None) -> int:
    with open(SPEC_PATH, encoding="utf-8") as stream:
        spec = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=_workloads(spec))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload both ways; print a table")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--drop-racy", action="store_true",
                        help="remove one racy variable from the reference "
                        "(self-test of the correctness check)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("error: run from the root of a repro checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    if args.report:
        return _report(spec, args.seed, args.seconds, args.size)
    if args.workload is None:
        parser.error("--workload is required without --report")
    result = run_workload(spec, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size, args.drop_racy)
    for key, value in result.get("extra", {}).items():
        print(f"{key}: {value}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
