"""Run one ``repro`` CLI command in this fresh interpreter, with layer spans.

    python perfbench/traced_op.py SPAN_DIR REPRO_ARGS...

It installs the wrappers of :mod:`layers`, calls ``repro.cli.main`` exactly
as ``python -m repro`` would, writes ``SPAN_DIR/main.json`` and exits with
main's code.  ``PYTHONPATH`` must already point at the checkout's ``src``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def run(span_dir, argv):
    tracer = layers.install(span_dir)
    import repro.cli

    main_started = time.monotonic()
    code = repro.cli.main(argv)
    main_ended = time.monotonic()
    record = {
        "pid": os.getpid(),
        "main_started": main_started,
        "main_ended": main_ended,
        "self_s": tracer.self_s,
        "counts": tracer.counts,
        "submitted": tracer.submitted,
    }
    with open(os.path.join(span_dir, "main.json"), "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
