"""The in-memory ``repro check`` is the 1-shard case of the sharded one.

Both cases share one tool loop, one rendering pass and one analysis
routine (:func:`repro.kernels.analyze`), so on a feasible trace the
in-memory check and ``--shards 1`` print the same bytes to stdout and
stderr and exit with the same status.
"""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"
TRACES = sorted(path.name for path in DATA.glob("*.trace"))
FLAG_SETS = {
    "json": ["--json"],
    "all-tools-json": ["--all-tools", "--json"],
    "all-tools-verbose": ["--all-tools", "-v"],
    "generic": ["--kernel", "generic"],
}


def test_every_trace_is_covered():
    assert len(TRACES) >= 14


@pytest.mark.parametrize("flags", list(FLAG_SETS.values()), ids=list(FLAG_SETS))
@pytest.mark.parametrize("name", TRACES)
def test_in_memory_equals_one_shard(name, flags, capsys):
    trace = str(DATA / name)
    runs = []
    for extra in ([], ["--shards", "1"]):
        code = main(["check", trace, *flags, *extra])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1)
