"""The benchmark's five workloads: inputs, the timed op, and its oracle.

Every workload is one class with the same shape:

* ``ENTRY`` — the modules a user imports to reach the op (set-up time
  includes importing them in a fresh interpreter);
* ``__init__(seed)`` — set-up: imports plus the testbeds, pools and
  inputs the first op needs.  Nothing here is timed as an op;
* ``inputs(i)`` — the generated inputs of op ``i``, a pure function of
  ``(seed, i)`` (built outside the timed region);
* ``op(inp)`` — the calls a user makes into the layers' public
  functions; its return value is the op's output;
* ``check(inp, out)`` — the oracle: raises :class:`OracleError` unless
  the output is correct; returns the op's work in ``UNIT``\\ s.

Module-level code imports nothing from the program, so a set-up probe
pays the entry-module imports inside its own measured window.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class OracleError(Exception):
    """An op's output differs from what the oracle allows."""


def _reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def doc_digest(doc) -> str:
    """sha256 of a JSON document with sorted keys (floats by repr)."""
    return _sha256(json.dumps(doc, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# paper_sweep — `streamer run --no-cache` then `compare`
# ---------------------------------------------------------------------------

class PaperSweep:
    """All groups x 4 kernels on fresh testbeds, CSV, paper claims."""

    NAME = "paper_sweep"
    UNIT = "sim_points"
    ENTRY = ("repro.streamer.cli",)
    SEEDED = False
    CLAIMS = 12

    def __init__(self, seed: int) -> None:
        import repro.streamer.cli  # noqa: F401  (the user's entry module)
        from repro.streamer import compare, runner

        self.seed = seed
        self._runner_mod = runner
        self._compare_mod = compare
        self.csv_sha256 = _reference()["paper_sweep"]["csv_sha256"]

    def inputs(self, i: int) -> dict:
        # the paper's fixed configuration: the seed has no effect
        return {"config": "paper", "kernels": "all", "compare": "triad"}

    def op(self, inp: dict):
        # fresh runner = fresh testbeds, so the plan and placement caches
        # start cold exactly as in every `streamer run` invocation
        results = self._runner_mod.StreamerRunner().run_all()
        csv = results.to_csv()
        checks = self._compare_mod.compare_to_paper(results, "triad")
        return results, csv, checks

    def check(self, inp: dict, out) -> int:
        results, csv, checks = out
        got = _sha256(csv)
        if got != self.csv_sha256:
            raise OracleError(f"sweep CSV sha256 {got[:16]} differs from "
                              f"the reference {self.csv_sha256[:16]}")
        passed = sum(c.passed for c in checks)
        if len(checks) != self.CLAIMS or passed != self.CLAIMS:
            raise OracleError(f"{passed}/{len(checks)} paper claims pass, "
                              f"expected {self.CLAIMS}/{self.CLAIMS}")
        return len(results)


# ---------------------------------------------------------------------------
# shared pmem set-up: a cxl:// namespace on setup1's cxl0
# ---------------------------------------------------------------------------

def _cxl_pool(name: str, size: int, log_size: int):
    """A pmemobj pool on a fresh namespace of setup1's ``cxl0``."""
    from repro.core.runtime import CxlPmemRuntime
    from repro.machine.presets import setup1
    from repro.pmdk.pool import PmemObjPool

    runtime = CxlPmemRuntime(setup1().host_bridges)
    ns = runtime.create_namespace("cxl0", name, size)
    return PmemObjPool.create(ns.region(), layout=name, log_size=log_size)


# ---------------------------------------------------------------------------
# pmem_tx — transactional STREAM-PMem on cxl://
# ---------------------------------------------------------------------------

class PmemTx:
    """``StreamPmem.run_transactional()``: 40 undo-logged kernel txs."""

    NAME = "pmem_tx"
    UNIT = "tx"
    ENTRY = ("repro.stream.pmem_stream", "repro.core.runtime")
    SEEDED = False
    ARRAY_ELEMENTS = 200_000

    def __init__(self, seed: int) -> None:
        from repro.pmdk.tx import undo_bytes_needed
        from repro.stream.config import StreamConfig
        from repro.stream.pmem_stream import StreamPmem, pool_size_for

        self.seed = seed
        self.config = StreamConfig(array_size=self.ARRAY_ELEMENTS)
        log_size = undo_bytes_needed(self.config.array_bytes) + (64 << 10)
        pool = _cxl_pool("stream-pmem", pool_size_for(self.config) + log_size,
                         log_size)
        # Listing 2: allocate + initiate a, b, c inside the pool
        self.sp = StreamPmem(pool, self.config, backend=pool.region.backend)
        self.sp._allocate()
        self.array_sha256 = _reference()["pmem_tx"]["array_sha256"]

    def inputs(self, i: int) -> dict:
        # STREAM's fixed init values: the seed has no effect
        return {"array_size": self.config.array_size,
                "ntimes": self.config.ntimes}

    def op(self, inp: dict):
        return self.sp.run_transactional(validate=True)

    def check(self, inp: dict, out) -> int:
        from repro.stream.validation import check_stream_results

        a, b, c = self.sp._views()
        try:
            check_stream_results(a, b, c, self.config)
        except Exception as exc:   # ValidationError: report as a bad output
            raise OracleError(f"STREAM validation failed: {exc}") from exc
        got = _sha256(a.tobytes() + b.tobytes() + c.tobytes())
        if got != self.array_sha256:
            raise OracleError(f"array checksum {got[:16]} differs from "
                              f"the reference {self.array_sha256[:16]}")
        if not out.persistent or out.backend != "cxl":
            raise OracleError("run did not land on a persistent cxl pool")
        return self.config.ntimes * 4       # one committed tx per kernel


# ---------------------------------------------------------------------------
# pmem_records — small durable record updates and reads
# ---------------------------------------------------------------------------

class PmemRecords:
    """Seeded batch: half ``pool.read``, half one-record ``tx_write``."""

    NAME = "pmem_records"
    UNIT = "tx"
    ENTRY = ("repro.stream.pmem_stream", "repro.core.runtime")
    SEEDED = True
    RECORDS = 4096
    RECORD_BYTES = 64
    BATCH = 1024                 # ops per batch: BATCH // 2 reads, writes

    def __init__(self, seed: int) -> None:
        import repro.stream.pmem_stream  # noqa: F401  (entry module)

        self.seed = seed
        self.pool = _cxl_pool("records", 8 << 20, 256 << 10)
        self.oids = self.pool.alloc_many(self.RECORDS, self.RECORD_BYTES)
        # the oracle: a plain bytearray replaying the same ops
        self.model = bytearray(self.RECORDS * self.RECORD_BYTES)

    def inputs(self, i: int) -> list[tuple]:
        rng = random.Random(f"pmem_records:{self.seed}:{i}")
        kinds = ["r"] * (self.BATCH // 2) + ["w"] * (self.BATCH // 2)
        rng.shuffle(kinds)
        ops: list[tuple] = []
        for kind in kinds:
            rec = rng.randrange(self.RECORDS)
            if kind == "r":
                ops.append(("r", rec))
            else:
                off = rng.randrange(0, self.RECORD_BYTES, 8)
                n = rng.randint(1, self.RECORD_BYTES - off)
                ops.append(("w", rec, off, rng.randbytes(n)))
        return ops

    def op(self, inp: list[tuple]) -> list[bytes]:
        pool, oids = self.pool, self.oids
        reads: list[bytes] = []
        for o in inp:
            if o[0] == "r":
                reads.append(pool.read(oids[o[1]]))
            else:
                with pool.transaction() as tx:
                    pool.tx_write(tx, oids[o[1]], o[3], o[2])
        return reads

    def check(self, inp: list[tuple], out: list[bytes]) -> int:
        # replay the whole batch even past a bad read, so the model stays
        # in step with the writes the pool did apply
        model, size = self.model, self.RECORD_BYTES
        reads = iter(out)
        touched: set[int] = set()
        bad: list[str] = []
        for o in inp:
            rec = o[1]
            if o[0] == "r":
                if next(reads, None) != bytes(model[rec * size:
                                                    (rec + 1) * size]):
                    bad.append(f"read of record {rec}")
            else:
                start = rec * size + o[2]
                model[start:start + len(o[3])] = o[3]
                touched.add(rec)
        if next(reads, None) is not None:
            bad.append("an extra read")
        bad.extend(f"record {rec}" for rec in sorted(touched)
                   if bytes(self.pool.direct(self.oids[rec]))
                   != bytes(model[rec * size:(rec + 1) * size]))
        if bad:
            raise OracleError(f"{len(bad)} outputs differ from the bytearray "
                              f"model, first: {bad[0]}")
        return sum(o[0] == "w" for o in inp)

    def check_all(self) -> None:
        """Every record equals the model (run once after the loop)."""
        size = self.RECORD_BYTES
        for rec, oid in enumerate(self.oids):
            if bytes(self.pool.direct(oid)) != \
                    bytes(self.model[rec * size:(rec + 1) * size]):
                raise OracleError(f"record {rec} differs from the model")


# ---------------------------------------------------------------------------
# tiering_policies — `streamer run --tiering-policy`'s engine
# ---------------------------------------------------------------------------

class TieringPolicies:
    """``compare_policies`` for the zipf and mixed traces on setup1."""

    NAME = "tiering_policies"
    UNIT = "sim_accesses"
    ENTRY = ("repro.streamer.cli",)
    SEEDED = True
    TRACES = ("zipf", "mixed")

    def __init__(self, seed: int) -> None:
        import repro.streamer.cli  # noqa: F401  (the user's entry module)
        from repro.machine.presets import setup1
        from repro.tiering import evaluate

        self.seed = seed
        self._evaluate = evaluate
        self.machine = setup1().machine
        self.reference = _reference()["tiering_policies"].get(str(seed))
        self._first: str | None = None

    def inputs(self, i: int) -> list:
        return [self._evaluate.TieringSpec(trace=t, seed=self.seed)
                for t in self.TRACES]

    def op(self, inp: list) -> dict:
        return {spec.trace: self._evaluate.compare_policies(
                    spec, machine=self.machine)
                for spec in inp}

    @staticmethod
    def digest(out: dict) -> str:
        return doc_digest({trace: {p: r.to_doc() for p, r in res.items()}
                           for trace, res in out.items()})

    def check(self, inp: list, out: dict) -> int:
        accesses = 0
        for spec in inp:
            res = out.get(spec.trace, {})
            if sorted(res) != sorted(self._evaluate.POLICIES):
                raise OracleError(f"{spec.trace}: policies {sorted(res)}")
            for name, r in res.items():
                want = spec.epochs * spec.epoch_accesses
                moved = (r.promotions + r.demotions) * spec.page_bytes
                if (r.total_accesses != want
                        or r.migration_bytes != moved
                        or not 0.0 <= r.near_access_fraction <= 1.0
                        or r.final_near_pages > spec.near_capacity_pages):
                    raise OracleError(f"{spec.trace}/{name}: result breaks "
                                      f"the tiering invariants")
                accesses += r.total_accesses
        got = self.digest(out)
        if self.reference is not None and got != self.reference:
            raise OracleError(f"per-policy results {got[:16]} differ from "
                              f"the reference {self.reference[:16]}")
        if self._first is None:
            self._first = got
        elif got != self._first:
            raise OracleError("per-policy results changed between ops")
        return accesses


# ---------------------------------------------------------------------------
# kv_drill — `streamer kvcache` (kill-worker drill)
# ---------------------------------------------------------------------------

class KvDrill:
    """``kill_worker_drill``: clean, pooled-recovery and re-prefill runs.

    Op ``i`` runs the drill with ``spec.seed = (seed + i) % INPUT_CYCLE``:
    the drill's cost differs by about 12 % from one drill seed to the
    next, so each run covers many of them, and every op's report has a
    pinned reference digest.
    """

    NAME = "kv_drill"
    UNIT = "decode_tokens"
    ENTRY = ("repro.streamer.cli",)
    SEEDED = True
    RUNS = 3                     # clean, pooled, reprefill
    INPUT_CYCLE = 64             # drill seeds

    def __init__(self, seed: int) -> None:
        import repro.streamer.cli  # noqa: F401  (the user's entry module)
        from repro.workloads import kvcache

        self.seed = seed
        self._kvcache = kvcache
        self.reference = _reference()["kv_drill"]

    def inputs(self, i: int):
        return self._kvcache.KvWorkloadSpec(
            n_groups=8, seqs_per_group=4, prompt_tokens=256,
            shared_prefix_tokens=128, decode_tokens=64,
            slots_per_host=1024, seed=(self.seed + i) % self.INPUT_CYCLE)

    def op(self, inp) -> dict:
        return self._kvcache.kill_worker_drill(inp)

    def check(self, inp, out: dict) -> int:
        if out.get("ok") is not True:
            raise OracleError(
                f"drill failed: digests_identical={out.get('digests_identical')}"
                f" zero_prefix={out.get('zero_prefix_reprefill')}"
                f" speedup={out.get('recovery_speedup')}")
        want = self.reference[str(inp.seed)]
        got = doc_digest(out)
        if got != want:
            raise OracleError(f"drill report {got[:16]} differs from the "
                              f"reference {want[:16]} (drill seed {inp.seed})")
        return self.RUNS * inp.n_groups * inp.seqs_per_group * inp.decode_tokens


WORKLOADS = {w.NAME: w for w in (PaperSweep, PmemTx, PmemRecords,
                                 TieringPolicies, KvDrill)}
