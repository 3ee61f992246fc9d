"""Seeded trace files, their measured properties, and the oracle reference.

    python perfbench/inputs.py KIND SCALE OUT_DIR SEED...

writes ``OUT_DIR/KIND-SEED.trace`` for each seed and prints one JSON line
per file: its path, its properties and the oracle's racy variables (as
``repr`` strings).  The benchmark runs this in a child process: the oracle
keeps an ancestor bitset per event (about 4 GB on the full eclipse-import
trace), and that memory must neither stay in the benchmark process nor be
inherited by the processes it measures.

Every input is generated from the benchmark's ``--seed``; the program
under test sees only the files.  The reference answer is the
happens-before oracle's racy-variable set, which shares no code with the
detectors it checks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence, Set

#: Full-size inputs as the benchmark defines them, and the tiny ones the
#: self-test uses.  eclipse-import at 8500: ~204k events, 48% lock ops.
#: crypt at 700: ~97k events, no locks, a source site on every line.
SCALES = {
    "full": {"eclipse": 8500, "crypt": 700},
    "tiny": {"eclipse": 60, "crypt": 20},
}

_TID = re.compile(r"^[a-z_]+\((\d+)")
_PLAIN_WARNING = re.compile(r"^  \S+ race on (.*): thread \d+ \(event #")


def generate(kind: str, scale: int, out_dir: str, seeds: Sequence[int],
             env: Dict[str, str]) -> List[Dict]:
    """Write the traces in a child process; return one record per seed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), kind, str(scale),
         out_dir, *map(str, seeds)],
        env=env, check=True, stdout=subprocess.PIPE,
    )
    records = [json.loads(line) for line in done.stdout.splitlines()]
    for record in records:
        record["racy"] = {ast.literal_eval(text) for text in record["racy"]}
    return records


def write_eclipse(path: str, scale: int, seed: int) -> None:
    """The Section 5.3 Eclipse import operation, scheduled by ``seed``."""
    from repro.bench.eclipse import import_program
    from repro.runtime.scheduler import run_program
    from repro.trace import serialize

    trace = run_program(import_program(scale), seed=seed)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(serialize.dumps(trace))


def write_crypt(path: str, scale: int, seed: int) -> None:
    """The JGF crypt kernel, as ``repro record crypt`` writes it."""
    from repro.bench.workload import WORKLOADS
    from repro.trace import serialize

    trace = WORKLOADS["crypt"].trace(scale=scale, seed=seed)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(serialize.dumps(trace))


def oracle_racy(path: str) -> Set:
    """The racy variables of the trace file, by the happens-before oracle."""
    from repro.trace import serialize
    from repro.trace.happens_before import racy_variables

    with open(path, "r", encoding="utf-8") as stream:
        return set(racy_variables(serialize.loads(stream.read())))


def properties(path: str) -> Dict:
    """Events, bytes, threads, lock-op share and line-repeat share."""
    events = 0
    locks = 0
    threads = set()
    seen = set()
    repeats = 0
    size = 0
    with open(path, "rb") as stream:
        for raw in stream:
            size += len(raw)
            line = raw.strip()
            if not line or line.startswith(b"#"):
                continue
            events += 1
            if line.startswith((b"acq(", b"rel(")):
                locks += 1
            match = _TID.match(line.decode("utf-8"))
            if match:
                threads.add(int(match.group(1)))
            if line in seen:
                repeats += 1
            else:
                seen.add(line)
    return {
        "events": events,
        "bytes": size,
        "threads": len(threads),
        "lock_op_share": locks / events if events else 0.0,
        "repeat_line_share": repeats / events if events else 0.0,
    }


def json_warned(document: bytes) -> Set:
    """Warned variables of a single-tool ``repro.result/1`` document."""
    from repro.report import warning_from_json

    return {
        warning_from_json(record).var
        for record in json.loads(document.decode("utf-8"))["warnings"]
    }


def plain_warned(output: bytes) -> Set:
    """Warned variables of plain ``repro check`` output."""
    warned = set()
    for line in output.decode("utf-8").splitlines():
        match = _PLAIN_WARNING.match(line)
        if match:
            warned.add(ast.literal_eval(match.group(1)))
    return warned


def _main(kind: str, scale: str, out_dir: str, *seeds: str) -> None:
    write = {"eclipse": write_eclipse, "crypt": write_crypt}[kind]
    for seed in seeds:
        path = os.path.join(out_dir, f"{kind}-{seed}.trace")
        write(path, int(scale), int(seed))
        record = {
            "path": path,
            "properties": properties(path),
            "racy": sorted(map(repr, oracle_racy(path))),
        }
        print(json.dumps(record), flush=True)


def drop_one(racy: Iterable) -> Set:
    """The reference with one racy variable removed (self-test only)."""
    remaining: List = sorted(racy, key=repr)
    if not remaining:
        raise ValueError("the trace has no racy variable to remove")
    return set(remaining[1:])


if __name__ == "__main__":
    _main(*sys.argv[1:])
