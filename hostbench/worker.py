"""One workload process: set up, signal ready, then measure or trace.

Started by ``run.py`` in a fresh interpreter::

    python3 hostbench/worker.py <probe|measure|trace> <workload> <seed> <seconds> [first op]

It prints ``READY <CPU seconds>`` once set-up is done (the main thread's
CPU seconds from launch to that line are its set-up time) and, unless
probing, one JSON result line at the end.  Only the standard library is
imported before set-up, so the entry module's imports fall inside the
set-up window.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

import speed
import workloads

#: fewest successful samples a timing loop collects, whatever the time:
#: the tail percentile needs ten samples beyond it
MIN_SAMPLES = 11
#: ops per pass of the traced run's exact-counter self-check
EXACT_OPS = 2


class Loop:
    """Closed-loop runner: one op at a time, each checked by its oracle.

    A failed op (raised, or rejected by the oracle) is counted and never
    timed as a success.
    """

    def __init__(self, wl, first_op: int = 0) -> None:
        self.wl = wl
        self.i = first_op
        self.attempted = 0
        self.failed = 0
        self.work = 0
        #: wall seconds of the timed ops, beside their CPU seconds
        self.wall_s = 0.0
        self.errors: list[str] = []

    def run_op(self, timed: list[float] | None = None, corrupt=None,
               wrap=None, ticker: speed.Ticker | None = None
               ) -> float | None:
        """Run op ``self.i``; return its CPU seconds (:data:`speed.CLOCK`)
        if it succeeded.

        A successful op's seconds are also appended to ``timed``.
        ``wrap`` is a context-manager factory around the timed call (the
        traced run's root span); ``corrupt`` rewrites the output before
        the oracle sees it (the benchmark's own tests use it); ``ticker``
        reads the host's speed during the op, and its readings' own
        seconds are taken off the op's.
        """
        inp = self.wl.inputs(self.i)
        self.i += 1
        self.attempted += 1
        try:
            with wrap(self.i - 1) if wrap else contextlib.nullcontext():
                if ticker is not None:
                    ticker.start()
                try:
                    t0, w0 = speed.CLOCK(), time.perf_counter()
                    out = self.wl.op(inp)
                    dt, wall = speed.CLOCK() - t0, time.perf_counter() - w0
                finally:
                    if ticker is not None:
                        ticker.stop()
        except Exception as exc:      # noqa: BLE001 — every failure counts
            return self._fail(exc)
        if ticker is not None:
            dt -= ticker.spent
            wall -= ticker.spent
        try:
            if corrupt is not None:
                out = corrupt(out)
            work = self.wl.check(inp, out)
        except Exception as exc:      # noqa: BLE001 — every failure counts
            return self._fail(exc)
        self.work += work
        if timed is not None:
            timed.append(dt)
            self.wall_s += wall
        return dt

    def _fail(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("".join(
                traceback.format_exception_only(type(exc), exc)).strip())

    def finish(self) -> None:
        """Whole-state oracle after the loop, where a workload has one;
        it counts as one more checked (untimed) op."""
        check_all = getattr(self.wl, "check_all", None)
        if check_all is None:
            return
        self.attempted += 1
        try:
            check_all()
        except workloads.OracleError as exc:
            self.failed += 1
            self.errors.append(f"final state: {exc}")


def measure(wl, seconds: float, corrupt=None, first_op: int = 0) -> dict:
    """One untimed warm-up op, then timed ops for ``seconds``.

    Each op's CPU seconds are also reported scaled to the reference host
    speed by the readings :class:`speed.Ticker` takes during that op.
    """
    loop = Loop(wl, first_op)
    loop.run_op(corrupt=corrupt)
    times: list[float] = []
    scaled: list[float] = []
    work_before = loop.work
    deadline = time.perf_counter() + seconds
    with speed.Ticker() as ticker:
        while time.perf_counter() < deadline or (
                len(times) < MIN_SAMPLES
                and loop.attempted < 4 * MIN_SAMPLES):
            dt = loop.run_op(times, corrupt, ticker=ticker)
            if dt is not None:
                scaled.append(dt * ticker.factor)
    loop.finish()
    return {"times": times, "scaled": scaled, "wall_s": loop.wall_s,
            "work": loop.work - work_before,
            "attempted": loop.attempted, "failed": loop.failed,
            "errors": loop.errors,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(cls, seed: int, seconds: float) -> dict:
    """The traced run: per-layer spans, exact counters, overhead.

    1. Two passes, each from a fresh traced set-up, run ops
       ``0..EXACT_OPS-1`` traced with ``repro.obs`` counters on; their
       exact counters must be identical.
    2. Then ops alternate untraced / traced until ``seconds`` run out,
       giving ``obs.trace_overhead`` as a paired ratio of medians.

    The self-time table folds every traced op; the spans returned are
    those of the two passes (set-ups included).
    """
    from repro import obs
    from repro.memsim import plan

    import spans

    rec = spans.Recorder()

    def traced(fn):
        rec.install()
        obs.enable(metrics=True, trace=False)
        try:
            return fn()
        finally:
            obs.disable()
            rec.uninstall()

    def setup():
        with rec.root(f"setup{len(loops)}"):
            return cls(seed)

    def exact_pass() -> dict:
        loop = Loop(traced(setup))
        loops.append(loop)
        obs.reset()
        rec.counts.clear()
        before = plan.plan_cache_stats()
        for _ in range(EXACT_OPS):
            traced(lambda: loop.run_op(wrap=rec.root))
        after = plan.plan_cache_stats()
        counts = {name: doc["value"]
                  for name, doc in obs.metrics_snapshot().items()
                  if doc["kind"] == "counter"}
        counts.update(rec.counts)
        for key in ("hits", "misses"):
            if after[key] > before[key]:
                counts[f"memsim.plan.{key}"] = after[key] - before[key]
        return {k: v / EXACT_OPS for k, v in counts.items()}

    loops: list[Loop] = []
    first, second = exact_pass(), exact_pass()
    pass_spans = len(rec.spans)

    loop = loops[-1]
    untraced_times: list[float] = []
    traced_times: list[float] = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(untraced_times) < 5) \
            and loop.attempted < 400:
        loop.run_op(untraced_times)
        traced(lambda: loop.run_op(traced_times, wrap=rec.root))
    snapshot = obs.metrics_snapshot()
    for lp in loops:
        lp.finish()

    mismatched = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
    cov = spans.coverage(rec.spans)
    return {
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "errors": [e for lp in loops for e in lp.errors],
        "spans": rec.spans[:pass_spans],
        "table": spans.self_time_table(spans.fold(rec.spans)),
        "counts": {k: v for k, v in first.items() if k not in mismatched},
        "count_mismatches": mismatched,
        "obs_snapshot": snapshot,
        "untraced_p50_s": statistics.median(untraced_times)
        if untraced_times else 0.0,
        "traced_p50_s": statistics.median(traced_times)
        if traced_times else 0.0,
        "samples": {"untraced": len(untraced_times),
                    "traced": len(traced_times), "setups": 2},
        "layer_coverage": statistics.median(cov) if cov else 0.0,
    }


def meta() -> dict:
    """Host and program facts recorded with every result."""
    import os
    import platform

    import numpy

    from repro import compiled

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "compiled_providers": compiled.warmup()}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    first_op = int(argv[4]) if len(argv) > 4 else 0
    cls = workloads.WORKLOADS[name]
    if mode == "trace":
        # the traced run times its own set-ups; READY marks only launch
        print(f"READY {speed.CLOCK()!r}", flush=True)
        result = trace(cls, seed, seconds)
    else:
        wl = cls(seed)
        print(f"READY {speed.CLOCK()!r}", flush=True)
        if mode == "probe":
            return 0
        result = measure(wl, seconds, first_op=first_op)
    result["meta"] = meta()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
