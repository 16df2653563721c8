"""The reproduction's host-time benchmark: one command, five workloads.

Run from the repository root::

    python3 hostbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, per-op
median and tail, peak RSS, work per second) with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer
metrics and the self-time table.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report and the run's metadata.

Every op's output is checked by its workload's oracle
(``workloads.py``); an op that raises or fails its oracle counts in
``failed`` and is never timed.  Traced runs write their spans, the
``repro.obs`` snapshot and the self-time table to
``hostbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402  (this directory's modules import only stdlib)
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import METRICS  # noqa: E402

#: fresh interpreters the measured seconds are split over, so one
#: process's memory layout does not decide a run's figures
MEASURE_PROCS = 3
#: set-up-only interpreters before, between and after the measuring
#: processes (whose own set-ups are timed too)
PROBES_PER_GAP = 2
#: op-index stride between the measuring processes
OPS_PER_PROC = 100_000
#: cold interpreters profiled with -X importtime in a traced run
IMPORT_PROFILES = 3
#: fewest samples beyond the reported tail percentile
TAIL_BEYOND = 10
#: highest tail percentile reported: above it, the few ops a brief host
#: stall hits between two speed readings decide the figure (resampling
#: the ops of one paper_sweep run spread its p90 0.02, its p94 0.03)
TAIL_MAX_PCT = 90

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "work_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # the compiled tier caches its kernels here instead of in $HOME
    env["REPRO_JIT_CACHE"] = str(OUT / "jit")
    # one string-hash layout for every run: dict and set layouts, and so
    # the host time of the same code, do not change from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_NO_COMPILED", None)
    return env


def _stderr_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text().splitlines()[-lines:])
    except OSError:
        return ""


def launch(mode: str, workload: str, seed: int, seconds: float,
           first_op: int = 0) -> tuple[float, float, dict | None]:
    """Run ``worker.py`` in a fresh interpreter.

    Returns ``(the child's CPU seconds from launch to READY, mean
    host-speed reading over that set-up, result or None)``.
    """
    err_path = OUT / f"{workload}-{mode}.stderr"
    cmd = [sys.executable, "-u", str(BENCH / "worker.py"), mode, workload,
           str(seed), str(seconds), str(first_op)]
    with open(err_path, "w") as err, speed.Sampler() as sampler:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 90)
            line = proc.stdout.readline() if ready else ""
            sampler.stop()
            word, _, ready_s = line.strip().partition(" ")
            if word != "READY":
                raise BenchError(
                    f"{workload} {mode}: set-up did not finish "
                    f"(exit {proc.poll()}):\n{_stderr_tail(err_path)}")
            rest, _ = proc.communicate(timeout=seconds + 120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: exit {proc.returncode}:\n"
                         f"{_stderr_tail(err_path)}")
    if mode == "probe":
        return float(ready_s), sampler.mean(), None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode}: no result line")
    return float(ready_s), sampler.mean(), json.loads(lines[-1])


def import_profile(entry: tuple[str, ...]) -> dict[str, float]:
    """Median ``-X importtime`` figures over cold interpreters.

    ``total_s`` sums the top-level imports the entry statement adds to
    a bare interpreter's; ``repro_modules`` counts loaded ``repro*``
    modules; every other key is the cumulative seconds of that module
    at its first import.
    """
    stmt = "; ".join(f"import {m}" for m in entry)

    def profile(code: str) -> list[tuple[int, float, float, str]]:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
            env=_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import of {entry} failed:\n"
                             f"{proc.stderr[-2000:]}")
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, float(self_us), float(cum_us), name.strip()))
        return rows

    baseline = {r[3] for r in profile("pass")}
    runs = []
    for _ in range(IMPORT_PROFILES):
        rows = profile(stmt)
        fig: dict[str, float] = {
            "total_s": sum(c for d, _, c, n in rows
                           if d == 0 and n not in baseline) / 1e6,
            "repro_modules": sum(1 for r in rows
                                 if r[3] == "repro"
                                 or r[3].startswith("repro.")),
        }
        for _, _, cum, name in rows:
            if name == "numpy" or (name.startswith("repro.")
                                   and name.count(".") == 1):
                fig.setdefault(name, cum / 1e6)
        runs.append(fig)
    keys = set().union(*runs)
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in keys}


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _src_sha256() -> str:
    """Digest of every file under ``src/`` (identifies the program even
    where no git metadata exists)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_meta(args, child_meta: dict, samples: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "src_sha256": _src_sha256(),
            **child_meta, "samples": samples}


# ---------------------------------------------------------------------------
# the two runs
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile, up to
    :data:`TAIL_MAX_PCT`, with at least :data:`TAIL_BEYOND` samples
    beyond it (the maximum when there are too few samples for that)."""
    ordered = sorted(times)
    n = len(ordered)
    k = min(n - TAIL_BEYOND, n * TAIL_MAX_PCT // 100)
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / n


def _timings(setups: list[float], times: list[float], work: int) -> dict:
    """The end-to-end time metrics from one set of samples."""
    if not times:
        return {"setup_s": statistics.median(setups), "op_p50_s": 0.0,
                "op_tail_s": 0.0, "work_per_s": 0.0}
    return {"setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail(times)[0],
            "work_per_s": work / sum(times)}


def first_ops(cls) -> list[int]:
    """The op index each measuring process starts at, so each runs
    other generated inputs.  Where a workload's inputs repeat every
    ``INPUT_CYCLE`` ops, the starts are spread evenly over the cycle."""
    cycle = getattr(cls, "INPUT_CYCLE", None)
    if cycle:
        return [k * cycle // MEASURE_PROCS for k in range(MEASURE_PROCS)]
    return [k * OPS_PER_PROC for k in range(MEASURE_PROCS)]


def measured_run(args) -> tuple[dict, list[str]]:
    # set-ups are timed all through the run, so that one slow window of
    # the host does not decide setup_s
    def probes() -> list[tuple[float, float]]:
        return [launch("probe", args.workload, args.seed, 0)[:2]
                for _ in range(PROBES_PER_GAP)]

    setups = probes()
    parts = []
    for first_op in first_ops(workloads.WORKLOADS[args.workload]):
        ready_s, mean_reading, part = launch(
            "measure", args.workload, args.seed,
            args.seconds / MEASURE_PROCS, first_op)
        setups.append((ready_s, mean_reading))
        parts.append(part)
        setups += probes()
    # each set-up is scaled by the mean of the readings the parent took
    # while it ran: a set-up spans many fast/slow flips of the host, so
    # one reading beside it says little, but their mean tracks how slow
    # the host was on the whole (under a sustained 2-3x slowdown the raw
    # median doubled while the scaled one stayed within a third of its
    # value on the quiet host)
    raw_setups = [s for s, _ in setups]
    scaled_setups = [s * speed.REFERENCE_S / r for s, r in setups]
    res = {key: sum((p[key] for p in parts), [])
           for key in ("times", "scaled", "errors")}
    for key in ("work", "attempted", "failed", "wall_s"):
        res[key] = sum(p[key] for p in parts)
    res["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in parts)
    res["meta"] = parts[0]["meta"]
    times = res["scaled"]
    ok = bool(times) and res["failed"] == 0
    values = _timings(scaled_setups, times, res["work"])
    values["peak_rss_mb"] = res["peak_rss_mb"]
    raw = _timings(raw_setups, res["times"], res["work"])
    n = len(times)
    tail_pct = tail(times)[1] if times else 0.0
    work_name = f"{workloads.WORKLOADS[args.workload].UNIT}_per_s"
    notes = {
        "setup_s": (len(setups), "median CPU s, launch to first op ready, "
                                 "spread over the run"),
        "op_p50_s": (n, "median per op"),
        "op_tail_s": (n, f"p{tail_pct:.1f}, "
                         f"{round(n * (1 - tail_pct / 100))} samples beyond"),
        "peak_rss_mb": (MEASURE_PROCS, "median of the measuring processes"),
        "work_per_s": (n, f"= {work_name}"),
    }
    wall_share = res["wall_s"] / sum(res["times"]) if times else 0.0
    report = [f"{'metric':<14}{'value':>14}{'raw host':>14}  {'unit':<6}"
              f"{'samples':>8}  note",
              "(value: CPU seconds scaled to the reference host speed, "
              "see speed.py; raw host: CPU seconds as timed; the ops took "
              f"{wall_share:.3f}x their CPU seconds in wall time)"]
    for name in END_TO_END_UNITS:
        count, note = notes[name]
        report.append(f"{name:<14}{values[name]:>14.6g}"
                      f"{raw.get(name, values[name]):>14.6g}  "
                      f"{END_TO_END_UNITS[name]:<6}{count:>8}  {note}")
    rate = res["failed"] / res["attempted"]
    report.append(f"{'error_rate':<14}{rate:>14.6g}{rate:>14.6g}  "
                  f"{'ratio':<6}{res['attempted']:>8}  {res['failed']} "
                  f"failed of {res['attempted']} attempted")
    report.extend(f"error: {e}" for e in res["errors"])
    meta = run_meta(args, res["meta"], {
        "setup": len(setups), "op": n, "tail_percentile": tail_pct,
        "error_rate": rate, "measure_processes": MEASURE_PROCS,
        "raw_host": raw, "op_wall_over_cpu": wall_share,
        "speed_reference_s": speed.REFERENCE_S,
        "tick_reference_s": speed.REFERENCE_TICK_S})
    result = {"correct": ok, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in END_TO_END_UNITS.items()}}
    return {"result": result, "meta": meta}, report


def traced_run(args) -> tuple[dict, list[str]]:
    imports = import_profile(workloads.WORKLOADS[args.workload].ENTRY)
    _, _, res = launch("trace", args.workload, args.seed, args.seconds)
    untraced = res["untraced_p50_s"]
    extra = {"trace_overhead": res["traced_p50_s"] / untraced
             if untraced else 0.0,
             "layer_coverage": res["layer_coverage"]}
    values, absent = spans.layer_metrics(res["table"], res["counts"],
                                         imports, extra)
    mism = res["count_mismatches"]
    ok = res["failed"] == 0 and not mism
    report = [f"self-time table ({res['samples']['traced']} traced ops; "
              f"s per op, set-up s once):",
              f"{'span':<30}{'calls/op':>10}{'self s/op':>12}"
              f"{'total s/op':>12}{'setup self s':>14}"]
    for row in sorted(res["table"], key=lambda r: -r["self_s_per_op"]):
        report.append(f"{row['span']:<30}{row['calls_per_op']:>10g}"
                      f"{row['self_s_per_op']:>12.6f}"
                      f"{row['total_s_per_op']:>12.6f}"
                      f"{row['setup_self_s']:>14.6f}")
    report.append("")
    report.append(f"{'per-layer metric':<34}{'value':>14}  {'unit':<7}moves")
    for name, v in values.items():
        unit, _, _, moves = METRICS[name]
        note = f"absent: {absent[name]}" if name in absent else moves
        report.append(f"{name:<34}{v:>14.6g}  {unit:<7}{note}")
    if mism:
        report.append(f"error: exact counters differ between the two "
                      f"traced passes: {', '.join(mism)}")
    report.extend(f"error: {e}" for e in res["errors"])
    meta = run_meta(args, res["meta"], dict(res["samples"],
                                            import_profiles=IMPORT_PROFILES))
    meta["absent"] = absent
    result = {"correct": ok, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": METRICS[k][0]}
                          for k, v in values.items()}}
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(dump, "w") as fh:
        json.dump({"meta": meta, "per_layer": result["metrics"],
                   "imports": imports, "exact_counts": res["counts"],
                   "self_time_table": res["table"],
                   "obs_snapshot": res["obs_snapshot"],
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": res["spans"]}, fh)
    report.append(f"wrote {dump.relative_to(ROOT)}")
    return {"result": result, "meta": meta}, report


def run_one(args) -> dict:
    print(f"hostbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    doc, report = (traced_run if args.trace else measured_run)(args)
    print("\n".join(report))
    print("meta: " + json.dumps(doc["meta"], sort_keys=True))
    return doc["result"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_one(args)
            print()
    except BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
