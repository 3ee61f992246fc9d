"""Chaos suite for the engine: every fault plan must end in one of two
outcomes, with nothing in between.

The differential invariant (docs/ROBUSTNESS.md): for any fault plan,
``repro check --json`` either

* produces output **byte-identical** to the fault-free run (the engine
  healed: retries, pool rebuilds, kernel fallback, torn-checkpoint
  recompute), or
* exits 4 with an explicit ``degraded`` block naming exactly which
  shards were quarantined — never a silently wrong or fabricated clean
  result.

Every injection point the engine owns is exercised here: worker.crash
(raise and hard exit), worker.hang (against the shard watchdog),
checkpoint.write (torn), kernel.run, trace.read.  The service-side
points (http.request, store.write) live in test_chaos_service.py.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import cli, engine, faults
from repro.engine.checkpoint import Workdir
from repro.engine.supervise import RetryPolicy, backoff_delay

DATA = Path(__file__).parent / "data"
TRACE = str(DATA / "tsp_small.trace")


@pytest.fixture(autouse=True)
def _clean_faults():
    """Fault plans are process-global; never leak one between tests."""
    faults.clear()
    yield
    faults.clear()


def _plan_file(tmp_path, fault_records, seed=7):
    document = {
        "schema": "repro.faults/1",
        "seed": seed,
        "faults": fault_records,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    return str(path)


def _check(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["check", *argv])
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def baseline():
    """The fault-free ``repro check --json`` bytes for the chaos config."""
    code, output = _check([TRACE, "--shards", "4", "--json"])
    assert code in (0, 1)
    return code, output


# -- plan validation ----------------------------------------------------------


def test_plan_rejects_bad_schema():
    with pytest.raises(faults.FaultPlanError, match="schema"):
        faults.parse_plan('{"schema": "nope/9", "faults": [{}]}')


def test_plan_rejects_unknown_point():
    with pytest.raises(faults.FaultPlanError, match="unknown point"):
        faults.parse_plan(
            '{"schema": "repro.faults/1",'
            ' "faults": [{"point": "warp.core"}]}'
        )


def test_plan_rejects_unsupported_action():
    with pytest.raises(faults.FaultPlanError, match="does not support"):
        faults.parse_plan(
            '{"schema": "repro.faults/1",'
            ' "faults": [{"point": "kernel.run", "action": "torn"}]}'
        )


def test_plan_rejects_unknown_keys():
    with pytest.raises(faults.FaultPlanError, match="unknown keys"):
        faults.parse_plan(
            '{"schema": "repro.faults/1",'
            ' "faults": [{"point": "worker.crash", "shard": 1}]}'
        )


def test_cli_rejects_bad_plan_with_exit_2(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"schema": "repro.faults/1", "faults": []}')
    code, _ = _check([TRACE, "--faults", str(path), "--json"])
    assert code == 2


def test_probability_draws_are_deterministic():
    def plan():
        return faults.parse_plan(json.dumps({
            "schema": "repro.faults/1",
            "seed": 99,
            "faults": [{
                "point": "worker.crash", "prob": 0.5, "times": 1000,
            }],
        }))

    def firing_pattern(p):
        pattern = []
        for _ in range(32):
            try:
                fired = p.fire("worker.crash", {"shard": 0}) is not None
            except faults.FaultInjected:
                fired = True
            pattern.append(fired)
        return pattern

    assert firing_pattern(plan()) == firing_pattern(plan())


def test_match_after_times_semantics():
    plan = faults.parse_plan(json.dumps({
        "schema": "repro.faults/1",
        "faults": [{
            "point": "checkpoint.write", "action": "torn",
            "match": {"shard": 2}, "after": 1, "times": 1,
        }],
    }))
    assert plan.fire("checkpoint.write", {"shard": 0}) is None  # no match
    assert plan.fire("checkpoint.write", {"shard": 2}) is None  # after-skip
    fired = plan.fire("checkpoint.write", {"shard": 2})
    assert fired is not None and fired.action == "torn"
    assert plan.fire("checkpoint.write", {"shard": 2}) is None  # times cap
    report = plan.report()
    assert report[0]["hits"] == 3 and report[0]["fired"] == 1


def test_env_round_trip(tmp_path):
    import os

    plan = faults.parse_plan(json.dumps({
        "schema": "repro.faults/1",
        "faults": [{"point": "kernel.run"}],
    }))
    faults.install(plan)
    assert os.environ.get(faults.ENV_VAR, "").startswith("{")
    faults.clear()
    assert faults.ENV_VAR not in os.environ
    assert not faults.active()
    # A cleared process re-adopts an env plan exactly once.
    os.environ[faults.ENV_VAR] = json.dumps(plan.document)
    try:
        faults.load_from_env_once()
        assert faults.active()
    finally:
        faults.clear()


def test_backoff_is_seeded_and_capped():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5, seed=3)
    first = backoff_delay(policy, shard=2, attempt=1)
    again = backoff_delay(policy, shard=2, attempt=1)
    other = backoff_delay(policy, shard=3, attempt=1)
    assert first == again  # same (seed, shard, attempt) => same jitter
    assert first != other
    assert 0.0 < first <= 0.5 * 1.5  # cap * max jitter factor


# -- the differential invariant: heal to byte-identical -----------------------


def test_transient_worker_crash_heals_bit_identical(tmp_path, baseline):
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "match": {"shard": 1, "attempt": 0}},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


def test_worker_crash_all_first_attempts_heals(tmp_path, baseline):
    # Every shard dies once; every retry succeeds.  4 distinct failures,
    # one clean result.
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "match": {"attempt": 0}, "times": 4},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


def test_worker_oserror_heals_bit_identical(tmp_path, baseline):
    # A real OSError (ENOSPC), not a test double, through the same path.
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "error": "oserror",
         "match": {"shard": 0, "attempt": 0}},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


def test_worker_hard_exit_rebuilds_pool(tmp_path, baseline):
    # os._exit(70) in a pool worker: the pool breaks, the supervisor
    # reconciles from disk checkpoints, rebuilds, and finishes clean.
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "action": "exit",
         "match": {"shard": 0, "attempt": 0}},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--jobs", "2", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


def test_hung_shard_is_killed_and_retried(tmp_path, baseline):
    # Shard 2 stalls well past the watchdog deadline on its first
    # attempt; the watchdog kills it and the retry completes.
    plan = _plan_file(tmp_path, [
        {"point": "worker.hang", "action": "hang", "delay_s": 2.0,
         "match": {"shard": 2, "attempt": 0}},
    ])
    code, output = _check([
        TRACE, "--shards", "4", "--jobs", "2", "--json",
        "--shard-timeout", "0.3", "--faults", plan,
    ])
    assert (code, output) == baseline


def test_torn_checkpoint_is_quarantined_and_recomputed(tmp_path, baseline):
    plan = _plan_file(tmp_path, [
        {"point": "checkpoint.write", "action": "torn",
         "match": {"shard": 3}},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


def test_kernel_fault_falls_back_to_generic_path(tmp_path, baseline):
    # The fused kernel blows up on every shard; each falls back to the
    # generic object path, which is bit-identical by the equivalence
    # contract.
    plan = _plan_file(tmp_path, [
        {"point": "kernel.run", "times": 99},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert (code, output) == baseline


# -- the differential invariant: degrade explicitly, never lie ----------------


def test_poison_shard_quarantined_with_degraded_block(tmp_path, baseline):
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "match": {"shard": 2}, "times": 99},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert code == 4
    document = json.loads(output)
    degraded = document["degraded"]
    assert degraded["quarantined_shards"] == [2]
    assert degraded["shards_total"] == 4
    (failure,) = degraded["failures"]
    assert failure["shard"] == 2
    assert failure["attempts"] == 3  # the full retry budget was spent
    assert "injected fault" in failure["error"]
    # The surviving shards' results are exact: strip the degraded block
    # and every top-level field must be a subset of the clean document's
    # schema (same keys, same types) — the quarantined shard's variables
    # are missing, not guessed at.
    clean = json.loads(baseline[1])
    assert set(document) == set(clean) | {"degraded"}
    assert document["schema"] == clean["schema"]
    assert document["warning_count"] <= clean["warning_count"]


def test_all_shards_poisoned_fails_explicitly(tmp_path):
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "times": 9999},
    ])
    code, output = _check(
        [TRACE, "--shards", "4", "--json", "--faults", plan]
    )
    assert code == 4
    assert output == ""  # no fabricated result document


# -- scratch workdir lifecycle: the scratch root must end empty --------------


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Point the engine's scratch root at a fresh directory.

    Returns ``(root, consulted)``: ``consulted`` counts the engine's
    lookups, so each test can tell its run really used the root.
    """
    root = tmp_path / "scratch"
    root.mkdir()
    consulted = []

    def scratch_root():
        consulted.append(root)
        return str(root)

    monkeypatch.setattr(engine, "scratch_root", scratch_root)
    return root, consulted


def _leftovers(root):
    return sorted(
        entry.name for entry in root.iterdir()
        if entry.name.startswith("repro-engine-")
    )


def test_clean_run_leaves_no_scratch_dir(scratch, baseline):
    # The result bytes do not depend on where the workdir lives, and the
    # engine's teardown removes the throwaway workdir it created.
    root, consulted = scratch
    code, output = _check([TRACE, "--shards", "4", "--json"])
    assert (code, output) == baseline
    assert consulted
    assert _leftovers(root) == []


def test_kill_storm_leaves_no_scratch_dir(tmp_path, scratch, baseline):
    # A storm of hard worker exits (os._exit mid-shard, pool rebuilds)
    # plus one permanently poisoned shard: whatever the run's verdict —
    # healed clean or explicitly degraded — no workdir survives.  Workers
    # only map shard files read-only and the parent owns the directory,
    # so no worker death path can leak one (docs/ENGINE.md).
    root, consulted = scratch
    plan = _plan_file(tmp_path, [
        {"point": "worker.crash", "action": "exit",
         "match": {"attempt": 0}, "times": 4},
        {"point": "worker.crash", "match": {"shard": 2}, "times": 99},
    ])
    code, output = _check([
        TRACE, "--shards", "4", "--jobs", "2", "--json", "--faults", plan,
    ])
    assert code in (0, 1, 4)  # healed or explicitly degraded, never wedged
    if code == 4 and output:
        assert json.loads(output)["degraded"]["shards_total"] == 4
    assert consulted
    assert _leftovers(root) == []


def test_torn_checkpoint_storm_leaves_no_scratch_dir(
    tmp_path, scratch, baseline
):
    # Torn checkpoints force quarantine-and-recompute churn over live
    # shard mappings; the teardown still runs on the way out.
    root, consulted = scratch
    plan = _plan_file(tmp_path, [
        {"point": "checkpoint.write", "action": "torn",
         "match": {"attempt": 0}, "times": 4},
    ])
    code, output = _check([
        TRACE, "--shards", "4", "--json", "--faults", plan,
    ])
    assert (code, output) == baseline
    assert consulted
    assert _leftovers(root) == []


def test_corrupt_trace_bytes_exit_2(tmp_path, capsys):
    # The corrupt line must surface as a clean parse error (exit 2 with
    # the line number), never a traceback from deep inside the engine.
    plan = _plan_file(tmp_path, [
        {"point": "trace.read", "action": "corrupt", "match": {"lineno": 5}},
    ])
    code = cli.main(
        ["check", TRACE, "--shards", "2", "--json", "--faults", plan]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "line 5" in captured.err
    assert captured.out == ""


def test_trace_read_raise_surfaces_errno(tmp_path):
    plan = _plan_file(tmp_path, [
        {"point": "trace.read", "action": "raise", "error": "oserror",
         "match": {"lineno": 3}},
    ])
    code, _ = _check([TRACE, "--shards", "2", "--json", "--faults", plan])
    assert code == 2


# -- checkpoint-directory edge cases (no fault plan needed) -------------------


class TestCheckpointEdgeCases:
    def _workdir(self, tmp_path):
        return Workdir(str(tmp_path / "wd"))

    def test_zero_byte_checkpoint_is_quarantined(self, tmp_path):
        wd = self._workdir(tmp_path)
        wd.write_result("FastTrack", 0, {"shard": 0})
        path = wd.result_path("FastTrack", 1)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text("")  # a zero-byte file from a torn write
        assert wd.completed_shards("FastTrack", 2) == [0]
        assert not Path(path).exists()
        assert Path(path + ".corrupt").exists()

    def test_truncated_checkpoint_is_quarantined(self, tmp_path):
        wd = self._workdir(tmp_path)
        full = json.dumps({"shard": 0, "warnings": [], "stats": {}})
        path = wd.result_path("FastTrack", 0)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(full[: len(full) // 2])
        assert wd.completed_shards("FastTrack", 1) == []
        assert Path(path + ".corrupt").exists()

    def test_wrong_shard_number_is_quarantined(self, tmp_path):
        wd = self._workdir(tmp_path)
        path = wd.result_path("FastTrack", 4)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"shard": 0}))
        assert wd.completed_shards("FastTrack", 5) == []
        assert Path(path + ".corrupt").exists()

    def test_clear_results_sweeps_corrupt_files(self, tmp_path):
        wd = self._workdir(tmp_path)
        path = wd.result_path("FastTrack", 0)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text("not json")
        assert not wd.valid_result("FastTrack", 0)
        wd.clear_results("FastTrack")
        assert not Path(path + ".corrupt").exists()

    def test_poisoned_resume_directory_recomputes(self, tmp_path, baseline):
        # A full engine run against a resume directory whose previous
        # run left a truncated checkpoint: the shard is quarantined and
        # recomputed, and the output is byte-identical to clean.
        workdir = tmp_path / "resume"
        code, output = _check(
            [TRACE, "--shards", "4", "--json", "--resume", str(workdir)]
        )
        assert (code, output) == baseline
        wd = Workdir(str(workdir))
        path = Path(wd.result_path("FastTrack", 1))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # tear it
        code, output = _check(
            [TRACE, "--shards", "4", "--json", "--resume", str(workdir)]
        )
        assert (code, output) == baseline
