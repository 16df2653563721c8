"""Host-speed yardsticks: fixed pieces of work timed beside the program.

On a shared host the same code runs up to ~80 % slower from one moment
to the next: the host flips between a fast and a slow state within a
fraction of a second (readings ~60 ms apart barely correlate), and the
share of slow time drifts from minute to minute.  The benchmark times a
fixed piece of work while the program runs and scales the program's
seconds by ``reference seconds / yardstick seconds``: the result is the
program's time on a host where the yardstick takes its reference time.

* Ops: :class:`Ticker` interrupts the op every :data:`TICK_S` of CPU and
  times :func:`_tick_work` (~25 us) in the interrupt, so the readings
  sample the host's state all through the op, not around it.  Readings
  taken between ops see the op's own slowdown only in part: in runs
  alternating the two on one host, ``paper_sweep``'s scaled ``op_p50_s``
  spread 0.067 from run to run with readings between ops, 0.021 with
  the ticks.
* Set-ups run in another process, so :class:`Sampler` takes
  :func:`reading` (~1.5 ms) every 20 ms from a thread of ``run.py``
  while a set-up runs.

Everything is timed in CPU seconds of the calling thread (:data:`CLOCK`),
not wall seconds.  The ops do no I/O and never wait, so on an idle host
the two agree (the report prints both); but when other processes share
the vCPUs, wall time also counts the slices the scheduler gives them,
which hit a few ops at random.

A reading must see the host's state, not the state the op left in its
process, or a change to the program would move the scale that is meant
to cancel only the host: so a reading allocates nothing, and times its
work only after one untimed pass has brought its data back into the
caches the op evicted it from.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
import time
import zlib

#: yardstick seconds on the reference host (2-vCPU x86 cloud VM,
#: Python 3.11, fast state); only scale factors
REFERENCE_S = 0.0015
REFERENCE_TICK_S = 2.2e-05
#: CPU seconds of the calling thread; the workloads run on one thread.
#: (The process's CPU clock is no use here: while an interval timer is
#: armed, Linux advances it only at the scheduler tick, every few ms.)
CLOCK = time.thread_time
#: CPU seconds of an op between two ticks (the kernel rounds it up to
#: its scheduler tick, 4 ms on the reference host)
TICK_S = 0.004

_SRC = bytes(range(256)) * 8192        # 2 MiB
_DST = bytearray(len(_SRC))
_TABLE: dict[int, tuple[int, int]] = {}
_TICK_TABLE: dict[int, int] = {}
#: timed passes per reading; their mean counts (the fastest of two
#: picks the host's fast moments)
_PASSES = 4


def _tick_work() -> int:
    table = _TICK_TABLE
    acc = 0
    for i in range(200):
        key = (i * 7919) & 63
        acc += table.get(key, 0)
        table[key] = i
    return acc


def _work() -> int:
    table = _TABLE
    acc = 0
    for i in range(2000):
        key = (i * 7919) & 511
        prev = table.get(key, (0, 0))
        table[key] = (prev[1], i)
        acc += prev[0] ^ len(table)
    _DST[:] = _SRC
    return acc ^ zlib.crc32(_DST)


def reading() -> float:
    """CPU seconds the yardstick takes right now (mean of
    :data:`_PASSES` timed passes after one untimed warm-up pass)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = CLOCK()
        for _ in range(_PASSES):
            _work()
        return (CLOCK() - t0) / _PASSES
    finally:
        if was_enabled:
            gc.enable()


def tick_reading() -> float:
    """CPU seconds :func:`_tick_work` takes right now (one timed pass
    after one untimed pass)."""
    _tick_work()
    t0 = CLOCK()
    _tick_work()
    return CLOCK() - t0


class Ticker:
    """Host-speed readings taken inside each op.

    Between :meth:`start` and :meth:`stop`, a virtual-time interval timer
    interrupts the op every :data:`TICK_S` of CPU and the handler takes a
    :func:`tick_reading` (~1.5 % of the op's time).  :meth:`stop` leaves
    the CPU seconds the handler took in :attr:`spent`, for the caller to
    take off the op's time, and the op's scale factor in :attr:`factor`:
    ``REFERENCE_TICK_S`` over the mean reading.  An op shorter than a tick
    gets one reading right after it.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.factor = 1.0
        self._sum = 0.0
        self._n = 0
        self._prev_handler = None

    def _on_tick(self, signum, frame) -> None:
        t0 = CLOCK()
        self._sum += tick_reading()
        self._n += 1
        self.spent += CLOCK() - t0

    def __enter__(self) -> "Ticker":
        self._prev_handler = signal.signal(signal.SIGVTALRM, self._on_tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._prev_handler)

    def start(self) -> None:
        self.spent = self._sum = 0.0
        self._n = 0
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        mean = self._sum / self._n if self._n else tick_reading()
        self.factor = REFERENCE_TICK_S / mean


class Sampler:
    """Readings every ``interval`` seconds from a thread while the
    ``with`` block runs: the host's speed during work that another
    process does, as a set-up is.  The reading process runs no program
    code, so only the host moves the readings."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.readings: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.readings.append(reading())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the readings (idempotent)."""
        self._stop.set()
        self._thread.join()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mean(self) -> float:
        """Mean reading (work that spans many fast/slow flips of the host
        is slowed by their mean); one fresh reading if none was taken."""
        return statistics.mean(self.readings) if self.readings else reading()
