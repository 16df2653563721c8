"""What the traced run wraps, and which per-layer metrics it derives.

``SPANS`` lists the public functions the traced run wraps, each where
its caller looks it up (a module global, a class attribute or a dict
entry), with the span name it records.  ``METRICS`` lists every
per-layer metric: its unit, which way is better, how it is derived and
which end-to-end metric it should move on which workload.

How a metric is derived (``source``):

* ``self:<span>`` — wall seconds of the span minus its child spans,
  the median over traced ops (a span's clock must be cheap to read, and
  the process's CPU clock is a system call);
* ``setup:<span>`` — the same self seconds in one set-up (the median
  over the traced run's set-ups);
* ``calls:<span>`` — span calls per op;
* ``count:<a>[+<b>...]`` — exact counters per op: ``repro.obs``
  counters, span result probes and the plan-cache statistics;
* ``ratio:<a>/<b>[+<c>...]`` — counter ``a`` over the sum of the rest;
* ``import:<key>`` — from ``python -X importtime`` of the entry module;
* ``obs:<key>`` — the traced run's own overhead and coverage.

Counts are exact: the traced run measures them twice from a fresh
set-up and fails when the two passes differ.
"""

from __future__ import annotations

#: (target, span name, result probe) — target is ``module:attribute``;
#: ``DICT[*]`` wraps every value of a dict, ``DICT[*].meth`` the method
#: of every class in it.  A result probe ``(counter, fn)`` adds
#: ``fn(return value)`` to ``counter``.
SPANS: tuple[tuple[str, str, tuple | None], ...] = (
    # machine
    ("repro.machine.presets:setup1", "machine.testbeds", None),
    ("repro.machine.presets:setup2", "machine.testbeds", None),
    ("repro.machine.presets:multihost_cxl", "machine.testbeds", None),
    ("repro.streamer.runner:setup1", "machine.testbeds", None),
    ("repro.streamer.runner:setup2", "machine.testbeds", None),
    ("repro.stream.simulated:place_threads_cached", "machine.place_threads",
     None),
    # streamer
    ("repro.streamer.runner:StreamerRunner.run_all", "streamer.run_all",
     None),
    ("repro.streamer.results:ResultSet.to_csv", "streamer.to_csv",
     ("streamer.csv_bytes", len)),
    ("repro.streamer.compare:compare_to_paper", "streamer.compare", None),
    # stream
    ("repro.streamer.runner:simulate_sweep", "stream.simulate_sweep", None),
    ("repro.stream.kernels:KERNELS[*]", "stream.kernel", None),
    ("repro.stream.validation:check_stream_results", "stream.validate",
     None),
    ("repro.stream.pmem_stream:StreamPmem.run_transactional",
     "stream.run_tx", None),
    # memsim
    ("repro.stream.simulated:simulate_stream", "memsim.simulate_stream",
     None),
    ("repro.memsim.plan:SimulationPlan.__init__", "memsim.plan.build", None),
    ("repro.memsim.plan:solve_max_min", "memsim.solve", None),
    # tiering
    ("repro.tiering.evaluate:evaluate_policy", "tiering.evaluate_policy",
     None),
    ("repro.tiering.evaluate:TraceGen.epoch", "tiering.trace_gen", None),
    ("repro.tiering.heat:HeatTracker.record", "tiering.heat.record", None),
    ("repro.tiering.heat:HeatTracker.end_epoch", "tiering.heat.end_epoch",
     None),
    ("repro.tiering.policy:POLICIES[*].decide", "tiering.policy.decide",
     None),
    ("repro.tiering.migrate:MigrationEngine.apply", "tiering.migrate.apply",
     None),
    ("repro.tiering.migrate:TierState.check_conservation",
     "tiering.check_conservation", None),
    # pmdk
    ("repro.pmdk.pool:PmemObjPool.create", "pmdk.pool_create", None),
    ("repro.pmdk.pool:PmemObjPool.read", "pmdk.pool.read", None),
    ("repro.pmdk.pool:PmemObjPool.tx_write", "pmdk.tx.write", None),
    ("repro.pmdk.tx:Transaction.begin", "pmdk.tx.begin", None),
    ("repro.pmdk.tx:Transaction.add_ranges", "pmdk.tx.snapshot", None),
    ("repro.pmdk.tx:Transaction.commit", "pmdk.tx.commit", None),
    # core
    ("repro.core.runtime:CxlPmemRuntime.create_namespace",
     "core.namespace_create", None),
    ("repro.core.namespace:CxlRegion.persist", "core.region.persist", None),
    # kvserve
    ("repro.kvserve.engine:KvServeEngine.run", "kvserve.engine.run", None),
    ("repro.kvserve.blocks:KvBlockStore.offload", "kvserve.blocks.offload",
     None),
    ("repro.kvserve.blocks:KvBlockStore.read_pooled",
     "kvserve.blocks.read_pooled", None),
    ("repro.kvserve.blocks:KvBlockStore.evict_cold",
     "kvserve.blocks.evict_cold", None),
    ("repro.kvserve.routing:Router.place", "kvserve.router.place", None),
    # fabric / cxl
    ("repro.fabric.manager:FabricManager.build", "fabric.build", None),
    ("repro.fabric.manager:FabricManager.allocate", "fabric.allocate", None),
    ("repro.cxl.host:CxlMemPort.read", "cxl.port.read", None),
    ("repro.cxl.host:CxlMemPort.write", "cxl.port.write", None),
)

#: name -> (unit, better, source, the end-to-end metric it should move)
METRICS: dict[str, tuple[str, str, str, str]] = {
    # import (cold interpreter, -X importtime of the entry module)
    "import.total_s": ("s", "lower", "import:total_s",
                       "setup_s on every workload"),
    "import.repro_modules": ("count", "lower", "import:repro_modules",
                             "setup_s on every workload"),
    "import.numpy_s": ("s", "lower", "import:numpy",
                       "setup_s on every workload"),
    **{f"import.repro.{pkg}_s": ("s", "lower", f"import:repro.{pkg}",
                                 "setup_s; lazy imports show on paper_sweep")
       for pkg in ("streamer", "memsim", "pmdk", "cxl", "core", "tiering",
                   "fabric", "kvserve", "serve", "obs")},
    # machine
    "machine.testbeds_s": ("s", "lower", "setup:machine.testbeds",
                           "setup_s on the pmem and tiering workloads"),
    "machine.place_threads_s": ("s", "lower", "self:machine.place_threads",
                                "paper_sweep op_p50_s"),
    "machine.place_threads.calls": ("count", "lower",
                                    "calls:machine.place_threads",
                                    "paper_sweep op_p50_s"),
    # streamer
    "streamer.run_all.self_s": ("s", "lower", "self:streamer.run_all",
                                "paper_sweep op_p50_s, sim_points_per_s"),
    "streamer.to_csv_s": ("s", "lower", "self:streamer.to_csv",
                          "paper_sweep op_p50_s, sim_points_per_s"),
    "streamer.csv_bytes": ("bytes", "lower", "count:streamer.csv_bytes",
                           "paper_sweep op_p50_s, sim_points_per_s"),
    "streamer.compare_s": ("s", "lower", "self:streamer.compare",
                           "paper_sweep op_p50_s, sim_points_per_s"),
    # stream
    "stream.simulate_sweep.self_s": ("s", "lower",
                                     "self:stream.simulate_sweep",
                                     "paper_sweep op_p50_s"),
    "stream.simulate_sweep.calls": ("count", "lower",
                                    "calls:stream.simulate_sweep",
                                    "paper_sweep op_p50_s"),
    "stream.kernel_s": ("s", "lower", "self:stream.kernel",
                        "pmem_tx op_p50_s, tx_per_s"),
    "stream.validate_s": ("s", "lower", "self:stream.validate",
                          "pmem_tx op_p50_s, tx_per_s"),
    "stream.run_tx.self_s": ("s", "lower", "self:stream.run_tx",
                             "pmem_tx op_p50_s, tx_per_s"),
    # memsim (no change predicted on the other four workloads)
    "memsim.simulate_stream.self_s": ("s", "lower",
                                      "self:memsim.simulate_stream",
                                      "paper_sweep op_p50_s, "
                                      "sim_points_per_s"),
    "memsim.simulate_stream.calls": ("count", "lower",
                                     "calls:memsim.simulate_stream",
                                     "paper_sweep sim_points_per_s"),
    "memsim.plan.build_s": ("s", "lower", "self:memsim.plan.build",
                            "paper_sweep op_p50_s, sim_points_per_s"),
    "memsim.plan.builds": ("count", "lower", "calls:memsim.plan.build",
                           "paper_sweep op_p50_s, sim_points_per_s"),
    "memsim.plan.hit_ratio": ("ratio", "higher",
                              "ratio:memsim.plan.hits/memsim.plan.hits"
                              "+memsim.plan.misses",
                              "paper_sweep op_p50_s, sim_points_per_s"),
    "memsim.solve_s": ("s", "lower", "self:memsim.solve",
                       "paper_sweep op_p50_s, sim_points_per_s"),
    "memsim.solve.calls": ("count", "lower", "calls:memsim.solve",
                           "paper_sweep op_p50_s, sim_points_per_s"),
    # tiering
    **{name: ("s", "lower", f"self:{span}",
              "tiering_policies op_p50_s, sim_accesses_per_s")
       for name, span in (
           ("tiering.evaluate_policy.self_s", "tiering.evaluate_policy"),
           ("tiering.trace_gen_s", "tiering.trace_gen"),
           ("tiering.heat.record_s", "tiering.heat.record"),
           ("tiering.heat.end_epoch_s", "tiering.heat.end_epoch"),
           ("tiering.policy.decide_s", "tiering.policy.decide"),
           ("tiering.migrate.apply_s", "tiering.migrate.apply"),
           ("tiering.check_conservation_s", "tiering.check_conservation"))},
    "tiering.promotions": ("count", "lower", "count:tiering.promotions",
                           "tiering_policies op_p50_s"),
    "tiering.demotions": ("count", "lower", "count:tiering.demotions",
                          "tiering_policies op_p50_s"),
    "tiering.migration_bytes": ("bytes", "lower",
                                "count:tiering.migration_bytes",
                                "tiering_policies op_p50_s"),
    # pmdk
    "pmdk.pool_create_s": ("s", "lower", "setup:pmdk.pool_create",
                           "setup_s on the pmem workloads"),
    "pmdk.tx.snapshot_s": ("s", "lower", "self:pmdk.tx.snapshot",
                           "pmem_tx op_p50_s, tx_per_s"),
    "pmdk.tx.begin_s": ("s", "lower", "self:pmdk.tx.begin",
                        "pmem_records op_p50_s, tx_per_s"),
    "pmdk.tx.write_s": ("s", "lower", "self:pmdk.tx.write",
                        "pmem_records op_p50_s, tx_per_s"),
    "pmdk.tx.commit_s": ("s", "lower", "self:pmdk.tx.commit",
                         "pmem_records op_p50_s, tx_per_s"),
    "pmdk.pool.read_s": ("s", "lower", "self:pmdk.pool.read",
                         "pmem_records op_p50_s"),
    "pmdk.tx.commits": ("count", "lower", "count:pmdk.tx.commits",
                        "both pmem workloads' op_p50_s, tx_per_s"),
    "pmdk.tx.undo_bytes": ("bytes", "lower", "count:pmdk.tx.undo_bytes",
                           "both pmem workloads' op_p50_s, tx_per_s"),
    "pmdk.flush_lines": ("count", "lower", "count:pmdk.flush_lines",
                         "both pmem workloads' op_p50_s, tx_per_s"),
    "pmdk.persist_calls": ("count", "lower", "count:pmdk.persist_calls",
                           "both pmem workloads' op_p50_s, tx_per_s"),
    "pmdk.tx.coalesce_ratio": ("ratio", "lower",
                               "ratio:pmdk.tx.coalesce_spans_out"
                               "/pmdk.tx.coalesce_ranges_in",
                               "both pmem workloads' op_p50_s, tx_per_s"),
    # core
    "core.namespace_create_s": ("s", "lower",
                                "setup:core.namespace_create",
                                "setup_s on the pmem workloads"),
    "core.region.persist_s": ("s", "lower", "self:core.region.persist",
                              "both pmem workloads' op_p50_s"),
    "core.region.flushes": ("count", "lower", "calls:core.region.persist",
                            "both pmem workloads' op_p50_s"),
    # kvserve
    **{name: ("s", "lower", f"self:{span}",
              "kv_drill op_p50_s, decode_tokens_per_s")
       for name, span in (
           ("kvserve.engine.run.self_s", "kvserve.engine.run"),
           ("kvserve.blocks.offload_s", "kvserve.blocks.offload"),
           ("kvserve.blocks.read_pooled_s", "kvserve.blocks.read_pooled"),
           ("kvserve.blocks.evict_cold_s", "kvserve.blocks.evict_cold"),
           ("kvserve.router.place_s", "kvserve.router.place"))},
    "kvserve.blocks.offloaded": ("count", "lower",
                                 "count:kvserve.blocks.offloaded",
                                 "kv_drill op_p50_s"),
    "kvserve.blocks.shared": ("count", "higher",
                              "count:kvserve.blocks.shared",
                              "kv_drill op_p50_s"),
    "kvserve.blocks.evicted": ("count", "lower",
                               "count:kvserve.blocks.evicted",
                               "kv_drill op_p50_s"),
    "kvserve.prefetch.hit_ratio": ("ratio", "higher",
                                   "ratio:kvserve.prefetch.hits"
                                   "/kvserve.prefetch.hits"
                                   "+kvserve.prefetch.misses",
                                   "kv_drill decode_tokens_per_s"),
    # fabric / cxl
    "fabric.build_s": ("s", "lower", "self:fabric.build",
                       "kv_drill op_p50_s"),
    "fabric.allocate_s": ("s", "lower", "self:fabric.allocate",
                          "kv_drill op_p50_s"),
    "fabric.allocate.calls": ("count", "lower", "calls:fabric.allocate",
                              "kv_drill op_p50_s"),
    "cxl.port.read_s": ("s", "lower", "self:cxl.port.read",
                        "kv_drill op_p50_s"),
    "cxl.port.write_s": ("s", "lower", "self:cxl.port.write",
                         "kv_drill op_p50_s"),
    "cxl.reads": ("count", "lower", "count:cxl.reads", "kv_drill op_p50_s"),
    "cxl.writes": ("count", "lower", "count:cxl.writes",
                   "kv_drill op_p50_s"),
    "cxl.port.wire_bytes": ("bytes", "lower",
                            "count:cxl.wire_bytes.m2s+cxl.wire_bytes.s2m",
                            "kv_drill op_p50_s"),
    # faults
    "faults.injected.worker_kill": ("count", "higher",
                                    "count:faults.injected.worker_kill",
                                    "kv_drill (the drill's kills landed)"),
    # obs
    "obs.trace_overhead": ("ratio", "lower", "obs:trace_overhead",
                           "every workload: traced / untraced op_p50_s"),
    "obs.layer_coverage": ("ratio", "higher", "obs:layer_coverage",
                           "every workload: op time under layer spans"),
}
