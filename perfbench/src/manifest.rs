//! The metrics the result line carries, by name and unit, in the order
//! `BENCHMARK.json` lists them (a test keeps the two in step).

/// Reported by every workload in an end-to-end run (`--trace 0`).
/// `work_per_s` counts the workload's unit of work: sections
/// (`uncontended`), LOW commits (`inversion`), grid cells (`paper-grid`)
/// or program verdicts (`explore-corpus`); the latencies are those of
/// one such unit (for `inversion`, a HIGH request from its due time).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
];

/// Reported by every workload in a traced run (`--trace 1`). A count,
/// ratio or rate of a layer the workload does not call reads 0; every
/// time (here only `latency_p99_us`) is measured on every workload.
/// Layer costs are shares of the traced time the benchmark's spans
/// attribute to a layer call; the per-call nanoseconds behind them are
/// printed above the result line.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("locks.acquire_share", "ratio"),
    ("locks.write_share", "ratio"),
    ("locks.release_share", "ratio"),
    ("locks.commit_ratio", "ratio"),
    ("locks.rollbacks", "count"),
    ("locks.entries_rolled_back", "count"),
    ("locks.thin_frac", "ratio"),
    ("locks.inflations", "count"),
    ("locks.deflations", "count"),
    ("locks.phase.inflate.count", "count"),
    ("locks.phase.inflate.share", "ratio"),
    ("locks.phase.signal-victim.count", "count"),
    ("locks.phase.signal-victim.share", "ratio"),
    ("locks.phase.undo-walk.count", "count"),
    ("locks.phase.undo-walk.share", "ratio"),
    ("locks.phase.restore.count", "count"),
    ("locks.phase.restore.share", "ratio"),
    ("locks.phase.requeue.count", "count"),
    ("locks.phase.requeue.share", "ratio"),
    ("locks.phase.deflate.count", "count"),
    ("locks.phase.deflate.share", "ratio"),
    ("locks.unattributed_frac", "ratio"),
    ("obs.recorded", "count"),
    ("obs.dropped", "count"),
    ("obs.drop_frac", "ratio"),
    ("obs.record_share", "ratio"),
    ("obs.collector_epochs", "count"),
    ("obs.max_batch", "count"),
    ("vm.new_share", "ratio"),
    ("vm.run_share", "ratio"),
    ("vm.fingerprint_share", "ratio"),
    ("vm.instr_per_s", "1/s"),
    ("vm.instructions", "count"),
    ("vm.context_switches", "count"),
    ("vm.barrier_slow_paths", "count"),
    ("vm.log_entries", "count"),
    ("vm.revocations_requested", "count"),
    ("vm.rollbacks", "count"),
    ("vm.entries_rolled_back", "count"),
    ("vm.sim_high_ratio", "ratio"),
    ("vm.sim_overall_ratio", "ratio"),
    ("explore.schedules", "count"),
    ("explore.decision_points", "count"),
    ("explore.pruned_visited", "count"),
    ("explore.pruned_preemption", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.schedules_per_s", "1/s"),
    ("explore.check_share", "ratio"),
    ("explore.unattributed_frac", "ratio"),
    ("latency_p99_us", "us"),
    ("bench.trace_overhead", "ratio"),
    ("bench.gen_lag_p99_frac", "ratio"),
];
