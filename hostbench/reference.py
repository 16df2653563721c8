"""Regenerate ``reference.json``, the oracles' expected outputs.

The committed file was produced at the commit that introduced this
benchmark; its digests pin the modelled outputs byte for byte.  Rerun
this only on a commit whose modelled outputs are known to be right::

    PYTHONPATH=src python3 hostbench/reference.py

``tiering_policies`` gets one digest per seed in ``SEEDS`` (a run with a
seed outside the table still checks that every op repeats the first op's
output, and the invariants); ``kv_drill`` one per drill seed.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads as W

#: tiering seeds with a pinned digest (plus the spec's own default)
SEEDS = tuple(range(32)) + (1234,)


def _stub() -> dict:
    return {"paper_sweep": {"csv_sha256": ""},
            "pmem_tx": {"array_sha256": ""},
            "tiering_policies": {}, "kv_drill": {}}


def build() -> dict:
    ref = _stub()
    sweep = W.PaperSweep(0)
    _, csv, _ = sweep.op(sweep.inputs(0))
    ref["paper_sweep"]["csv_sha256"] = hashlib.sha256(csv.encode()).hexdigest()

    tx = W.PmemTx(0)
    tx.op(tx.inputs(0))
    a, b, c = tx.sp._views()
    ref["pmem_tx"]["array_sha256"] = hashlib.sha256(
        a.tobytes() + b.tobytes() + c.tobytes()).hexdigest()

    for seed in SEEDS:
        tier = W.TieringPolicies(seed)
        ref["tiering_policies"][str(seed)] = tier.digest(
            tier.op(tier.inputs(0)))
    kv = W.KvDrill(0)
    for i in range(W.KvDrill.INPUT_CYCLE):
        spec = kv.inputs(i)
        drill = kv.op(spec)
        if drill["ok"] is not True:
            raise SystemExit(f"kv drill fails its gates at seed {spec.seed}")
        ref["kv_drill"][str(spec.seed)] = W.doc_digest(drill)
    return ref


def main() -> int:
    # the workloads read the reference at set-up: start from empty digests
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(_stub(), fh)
    ref = build()
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
