"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q hostbench/test_hostbench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from layers import METRICS, SPANS  # noqa: E402


def _output_digest(wl, out) -> str:
    """A byte-exact digest of one op's output (and the state it left)."""
    if isinstance(wl, W.PaperSweep):
        return hashlib.sha256(out[1].encode()).hexdigest()
    if isinstance(wl, W.PmemTx):
        return hashlib.sha256(b"".join(
            v.tobytes() for v in wl.sp._views())).hexdigest()
    if isinstance(wl, W.PmemRecords):
        state = b"".join(bytes(wl.pool.direct(o)) for o in wl.oids)
        return hashlib.sha256(b"".join(out) + state).hexdigest()
    if isinstance(wl, W.TieringPolicies):
        return wl.digest(out)
    return W.doc_digest(out)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    cls = W.WORKLOADS[name]
    plain = cls(7)
    want = _output_digest(plain, plain.op(plain.inputs(0)))
    rec = spans.Recorder()
    rec.install()
    try:
        traced = cls(7)
        with rec.root(0):
            out = traced.op(traced.inputs(0))
    finally:
        rec.uninstall()
    assert _output_digest(traced, out) == want
    traced.check(traced.inputs(0), out)
    assert any(s[spans.OP] == 0 and s[spans.PARENT] >= 0 for s in rec.spans)


def test_uninstall_restores_every_target():
    import importlib

    def snapshot():
        found = {}
        for target, _, _ in SPANS:
            module, _, path = target.partition(":")
            obj = importlib.import_module(module)
            head, _, rest = path.partition(".")
            if head.endswith("[*]"):
                for key, value in getattr(obj, head[:-3]).items():
                    found[(target, key)] = (getattr(value, rest) if rest
                                            else value)
                continue
            for part in path.split("."):
                obj = getattr(obj, part)
            found[target] = obj
        return found

    before = snapshot()
    rec = spans.Recorder()
    rec.install()
    assert snapshot() != before
    rec.uninstall()
    assert snapshot() == before


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_changes_only_seeded_inputs(name):
    cls = W.WORKLOADS[name]
    a, b, again = cls(1), cls(2), cls(1)
    assert a.inputs(0) == again.inputs(0)
    assert a.inputs(3) == again.inputs(3)
    if cls.SEEDED:
        assert a.inputs(0) != b.inputs(0)
    else:
        assert a.inputs(0) == b.inputs(0)


def test_corrupted_output_is_a_failed_op():
    wl = W.PaperSweep(0)
    loop = worker.Loop(wl)
    timed: list[float] = []
    bad = loop.run_op(timed, corrupt=lambda out: (
        out[0], out[1].replace("1", "2", 1), out[2]))
    assert bad is None and loop.failed == 1 and timed == []
    assert loop.run_op(timed) == timed[0]
    assert loop.attempted == 2 and loop.failed == 1 and len(timed) == 1
    assert "sha256" in loop.errors[0]


def test_ticks_are_taken_off_the_op_and_scale_it():
    loop = worker.Loop(W.PaperSweep(0))
    before = signal.getsignal(signal.SIGVTALRM)
    timed: list[float] = []
    with speed.Ticker() as ticker:
        dt = loop.run_op(timed, ticker=ticker)
        # the op spans several ticks; their seconds are not the op's
        assert ticker.spent > 0 and ticker.factor > 0
        assert dt == timed[0] > 0
        assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) == before


def test_corrupted_read_fails_the_measured_run():
    wl = W.PmemRecords(0)

    def corrupt(reads):
        return [b"\xff" + r[1:] for r in reads]

    res = worker.measure(wl, 0.05, corrupt=corrupt)
    # every op failed; the final whole-state audit (one more checked
    # unit) passed, since only the returned reads were corrupted
    assert res["failed"] == res["attempted"] - 1 > 0
    assert res["times"] == [] and res["scaled"] == []


def test_oracle_rejects_a_wrong_final_record():
    wl = W.PmemRecords(0)
    inp = wl.inputs(0)
    wl.check(inp, wl.op(inp))
    wl.check_all()
    wl.pool.write(wl.oids[0], b"\x01" * wl.RECORD_BYTES)
    with pytest.raises(W.OracleError):
        wl.check_all()


def test_every_layer_metric_emitted_or_absent():
    table = [{"span": "memsim.plan.build", "calls_per_op": 178,
              "total_s_per_op": 0.02, "self_s_per_op": 0.02,
              "setup_self_s": 0.0}]
    counts = {"memsim.plan.hits": 702, "memsim.plan.misses": 178}
    values, absent = spans.layer_metrics(
        table, counts, {"total_s": 0.4, "repro_modules": 80},
        {"trace_overhead": 1.05, "layer_coverage": 0.99})
    assert set(values) == set(METRICS)
    assert values["memsim.plan.builds"] == 178
    assert values["memsim.plan.hit_ratio"] == pytest.approx(702 / 880)
    for name, value in values.items():
        assert isinstance(value, (int, float))
        assert value != 0 or name in absent, name


def test_self_metrics_split_ops_from_set_up():
    table = [{"span": "core.region.persist", "calls_per_op": 40,
              "total_s_per_op": 0.002, "self_s_per_op": 0.002,
              "setup_self_s": 0.5},
             {"span": "pmdk.pool_create", "calls_per_op": 0,
              "total_s_per_op": 0.0, "self_s_per_op": 0.0,
              "setup_self_s": 0.001}]
    values, absent = spans.layer_metrics(table, {}, {}, {
        "trace_overhead": 1.0, "layer_coverage": 1.0})
    assert values["core.region.persist_s"] == 0.002
    assert values["pmdk.pool_create_s"] == 0.001
    assert "core.namespace_create_s" in absent


def test_measuring_processes_start_on_other_drill_seeds():
    cycle = W.KvDrill.INPUT_CYCLE
    starts = [i % cycle for i in run.first_ops(W.KvDrill)]
    gap = cycle // run.MEASURE_PROCS
    assert all(b - a >= gap for a, b in zip(starts, starts[1:]))


def test_traced_run_emits_every_layer_metric_with_exact_counts():
    res = worker.trace(W.PmemRecords, 5, 0.2)
    assert res["failed"] == 0 and res["count_mismatches"] == []
    assert res["counts"]["pmdk.tx.commits"] == W.PmemRecords.BATCH // 2
    values, absent = spans.layer_metrics(
        res["table"], res["counts"], {},
        {"trace_overhead": 1.0, "layer_coverage": res["layer_coverage"]})
    assert set(values) == set(METRICS)
    assert "pmdk.tx.write_s" not in absent
    assert values["core.region.flushes"] > 0
    assert 0.5 < res["layer_coverage"] <= 1.0


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(n, u, b) for n, (u, b, _, _) in METRICS.items()]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
    # capped at p90 once more than ten samples lie beyond it
    assert run.tail([float(i) for i in range(1, 401)]) == (360.0, 90.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
