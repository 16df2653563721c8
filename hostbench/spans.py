"""Spans around the layers' public functions, and their folding.

The traced run wraps each function of :data:`layers.SPANS` where its
caller looks it up, records one span per call (name, start, end, parent
span, op id) in memory, and folds the spans into per-op self times: a
span's duration minus the time its child spans cover.

Wrapping is installed only around traced ops; the measured (untraced)
ops run the program's own functions, with ``repro.obs`` on its disabled
no-op path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from time import perf_counter

from layers import METRICS, SPANS

_MISSING = object()

# span rows: [name, start, end, parent index, op id]
NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """Holds the spans of one traced run and the wrappers that make them.

    Spans are recorded only inside a root opened with :meth:`root`
    (an op or a set-up); calls outside any root, such as the oracle's
    own checks, pass straight through.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}   # result probes
        self._stack: list[int] = []
        self._op: str | int | None = None
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, probe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._op is None:
                return fn(*args, **kwargs)
            stack = rec._stack
            span = [name, perf_counter(), 0.0, stack[-1], rec._op]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if probe is not None:
                counter, measure = probe
                rec.counts[counter] = rec.counts.get(counter, 0) + measure(out)
            return out
        return wrapper

    def _patch_attr(self, owner, attr: str, name: str, probe) -> None:
        # the raw entry, not getattr's bound method or inherited function
        raw = vars(owner).get(attr, _MISSING)
        self._patches.append(("attr", owner, attr, raw))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, probe))

    def install(self) -> None:
        """Wrap every target of :data:`layers.SPANS` (idempotent)."""
        if self._patches:
            return
        for target, name, probe in SPANS:
            module, _, path = target.partition(":")
            obj = importlib.import_module(module)
            parts = path.split(".")
            if parts[0].endswith("[*]"):
                table = getattr(obj, parts[0][:-3])
                for key, value in list(table.items()):
                    if len(parts) == 1:
                        self._patches.append(("item", table, key, value))
                        table[key] = self._wrap(value, name, probe)
                    else:
                        self._patch_attr(value, parts[1], name, probe)
                continue
            for part in parts[:-1]:
                obj = getattr(obj, part)
            self._patch_attr(obj, parts[-1], name, probe)

    def uninstall(self) -> None:
        """Put every wrapped function back as it was."""
        for kind, owner, key, raw in reversed(self._patches):
            if kind == "item":
                owner[key] = raw
            elif raw is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, raw)
        self._patches.clear()

    # -- roots -------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, op_id: str | int):
        """One op (or a set-up, ``op_id="setup<k>"``) as the root span."""
        span = ["setup" if is_setup(op_id) else "op", perf_counter(), 0.0,
                -1, op_id]
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._op = None
            self._stack = []


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def is_setup(op_id: str | int) -> bool:
    """Whether a root's op id names a set-up rather than an op."""
    return isinstance(op_id, str) and op_id.startswith("setup")


def fold(spans: list[list]) -> dict:
    """Per root: ``{root op id: {span name: [calls, total_s, self_s]}}``.

    Self time is a span's duration minus its children's durations
    (calls are nested on one thread, so children never overlap).
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        row = out.setdefault(s[OP], {}).setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s[i]
    return out


def coverage(spans: list[list]) -> list[float]:
    """Per op: the share of the op's wall time inside layer spans."""
    covered: dict[int, float] = {}
    for s in spans:
        if s[PARENT] >= 0 and spans[s[PARENT]][PARENT] < 0:
            covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + s[END] - s[START]
    return [covered.get(i, 0.0) / (s[END] - s[START])
            for i, s in enumerate(spans)
            if s[PARENT] < 0 and s[NAME] == "op" and s[END] > s[START]]


def self_time_table(folded: dict) -> list[dict]:
    """Median per-op calls, total and self seconds per span name, plus
    the median self seconds of one set-up."""
    ops = [rows for op, rows in folded.items() if not is_setup(op)]
    setups = [rows for op, rows in folded.items() if is_setup(op)]
    names = sorted({n for rows in folded.values() for n in rows})
    table = []
    for name in names:
        per_op = [rows.get(name, [0, 0.0, 0.0]) for rows in ops]
        table.append({
            "span": name,
            "calls_per_op": statistics.median(r[0] for r in per_op)
            if per_op else 0,
            "total_s_per_op": statistics.median(r[1] for r in per_op)
            if per_op else 0.0,
            "self_s_per_op": statistics.median(r[2] for r in per_op)
            if per_op else 0.0,
            "setup_self_s": statistics.median(
                rows.get(name, [0, 0.0, 0.0])[2] for rows in setups)
            if setups else 0.0,
        })
    return table


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: span-derived metric sources and the self-time table field they read
_SPAN_FIELDS = {"self": "self_s_per_op", "setup": "setup_self_s",
                "calls": "calls_per_op"}


def layer_metrics(table: list[dict], counts: dict[str, float],
                  imports: dict[str, float], extra: dict[str, float]
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Evaluate every entry of :data:`layers.METRICS`.

    ``counts`` are exact per-op counters, ``imports`` the import-profile
    figures, ``extra`` the ``obs:`` figures.  Returns ``(values,
    absent)``: a metric whose layer never ran here reads 0 and gets a
    reason in ``absent``.
    """
    rows = {r["span"]: r for r in table}
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for name, (_unit, _better, source, _moves) in METRICS.items():
        kind, _, arg = source.partition(":")
        if kind in _SPAN_FIELDS:
            row = rows.get(arg)
            values[name] = row[_SPAN_FIELDS[kind]] if row else 0
            if not values[name]:
                where = "in set-up" if kind == "setup" else "in an op"
                absent[name] = f"span {arg} never ran {where} on this workload"
        elif kind == "count":
            keys = arg.split("+")
            values[name] = sum(counts.get(k, 0) for k in keys)
            if not any(k in counts for k in keys):
                absent[name] = f"counter {arg} never moved on this workload"
        elif kind == "ratio":
            num, _, den = arg.partition("/")
            denom = sum(counts.get(k, 0) for k in den.split("+"))
            values[name] = counts.get(num, 0) / denom if denom else 0
            if not denom:
                absent[name] = f"no {den} on this workload"
        elif kind == "import":
            values[name] = imports.get(arg, 0)
            if arg not in imports:
                absent[name] = f"{arg} is not imported by the entry module"
        else:
            values[name] = extra[arg]
    return values, absent
