//! What a run reports: metrics with units, output checks with failure
//! accounting, provenance, and the metric groups two workloads share.

use crate::trace::Spans;
use revmon_locks::StatsSnapshot;
use revmon_obs::{prof, Phase};
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations the workload issued.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the last holding `wanted`
    /// (name, unit) in that order. A per-layer count, ratio or rate of a
    /// layer the workload does not call reads 0; a time the run did not
    /// measure is an error, so no time is ever reported that was not
    /// measured.
    pub fn json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut m = String::new();
        for (i, &(name, unit)) in wanted.iter().enumerate() {
            let found = self.metrics.iter().find(|x| x.name == name);
            let value = match found {
                Some(x) if x.unit == unit => x.value,
                Some(x) => return Err(format!("metric {name} is in {}, not {unit}", x.unit)),
                None if TIME_UNITS.contains(&unit) => {
                    return Err(format!("metric {name} ({unit}) was not measured"))
                }
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }

    /// The metrics every workload reports about its unit of work (a
    /// section, a LOW commit, a grid cell, a program's verdict): units
    /// completed per second and the latency of one unit. `latency_p99_us`
    /// goes on the traced run's result line, without a bound.
    pub fn end_to_end(&mut self, work_per_s: f64, p50_us: f64, p90_us: f64, p99_us: f64) {
        self.metric("work_per_s", work_per_s, "1/s");
        self.metric("latency_p50_us", p50_us, "us");
        self.metric("latency_p90_us", p90_us, "us");
        self.metric("latency_p99_us", p99_us, "us");
    }
}

/// Units that are times: never reported unless measured.
const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "ns"];

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` directly; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The locks runtime's slow-path phases, as the phase timers name them.
pub const LOCK_PHASES: [Phase; 6] = [
    Phase::Inflate,
    Phase::SignalVictim,
    Phase::UndoWalk,
    Phase::Restore,
    Phase::Requeue,
    Phase::Deflate,
];

/// Phase-timer `(count, total ns)` per locks phase, read before a run
/// so the run's own share can be taken as a difference.
pub fn phase_totals() -> Vec<(u64, u64)> {
    LOCK_PHASES
        .iter()
        .map(|&p| {
            let h = prof::timers().hist(p);
            (h.count(), (h.mean() * h.count() as f64).round() as u64)
        })
        .collect()
}

/// Phase metrics since `before`: p50 (process-wide histogram), the
/// run's count per phase and each phase's share of `blocked_ns`, the
/// time HIGH requests spent acquiring; then `locks.unattributed_frac`,
/// the share of that time no phase timer accounts for. Returns the run's
/// total phase time in ns.
pub fn phase_metrics(out: &mut Outcome, before: &[(u64, u64)], blocked_ns: u64) -> u64 {
    let mut total_ns = 0;
    for ((&p, &(c0, t0)), (c1, t1)) in LOCK_PHASES.iter().zip(before).zip(phase_totals()) {
        let h = prof::timers().hist(p);
        let ns = t1.saturating_sub(t0);
        out.metric(format!("locks.phase.{}.p50_ns", p.name()), h.percentile(50.0) as f64, "ns");
        out.metric(format!("locks.phase.{}.count", p.name()), (c1 - c0) as f64, "count");
        out.metric(
            format!("locks.phase.{}.share", p.name()),
            ratio(ns as f64, blocked_ns as f64),
            "ratio",
        );
        total_ns += ns;
    }
    out.metric(
        "locks.unattributed_frac",
        ratio(blocked_ns as f64 - total_ns as f64, blocked_ns as f64),
        "ratio",
    );
    total_ns
}

/// Section counts one workload thread kept itself: closure runs and
/// returns of `enter`.
#[derive(Clone, Copy, Default)]
pub struct SectionCounts {
    pub attempts: u64,
    pub commits: u64,
}

/// The `locks.*` metrics shared by `uncontended` and `inversion`.
/// `stats` is the run's share of the monitor counters; spans carry
/// `locks.acquire`, `locks.release` and `locks.writes`, the last over
/// `writes_per_span` updates, recorded over `traced_ns` of wall time;
/// each of the three is also reported as its share of that time.
pub fn locks_metrics(
    out: &mut Outcome,
    stats: &StatsSnapshot,
    counts: SectionCounts,
    spans: &Spans,
    writes_per_span: usize,
    traced_ns: f64,
) {
    for (span, share) in [
        ("locks.acquire", "locks.acquire_share"),
        ("locks.writes", "locks.write_share"),
        ("locks.release", "locks.release_share"),
    ] {
        out.metric(share, ratio(spans.total_ns(span) as f64, traced_ns), "ratio");
    }
    out.metric("locks.acquire_ns.p50", spans.pct_ns("locks.acquire", 50.0), "ns");
    out.metric("locks.acquire_ns.p99", spans.pct_ns("locks.acquire", 99.0), "ns");
    out.metric("locks.release_ns.p50", spans.pct_ns("locks.release", 50.0), "ns");
    out.metric("locks.write_ns", spans.mean_ns("locks.writes") / writes_per_span as f64, "ns");
    out.metric("locks.attempts", counts.attempts as f64, "count");
    out.metric("locks.commits", counts.commits as f64, "count");
    out.metric("locks.commit_ratio", ratio(counts.commits as f64, counts.attempts as f64), "ratio");
    out.metric("locks.rollbacks", stats.rollbacks as f64, "count");
    out.metric("locks.entries_rolled_back", stats.entries_rolled_back as f64, "count");
    out.metric(
        "locks.thin_frac",
        ratio(stats.thin_acquires as f64, stats.acquires as f64),
        "ratio",
    );
    out.metric("locks.inflations", stats.inflations as f64, "count");
    out.metric("locks.deflations", stats.deflations as f64, "count");
}

/// Counter difference `after − before` for the fields the benchmark
/// reports.
pub fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        acquires: after.acquires - before.acquires,
        thin_acquires: after.thin_acquires - before.thin_acquires,
        inflations: after.inflations - before.inflations,
        deflations: after.deflations - before.deflations,
        rollbacks: after.rollbacks - before.rollbacks,
        entries_rolled_back: after.entries_rolled_back - before.entries_rolled_back,
        ..*after
    }
}

/// The simulated counts of the VM runs a workload made, `field` summing
/// one `Metrics` field over them. They depend only on the program and
/// the seed: a change that only speeds the simulator up leaves them all
/// unchanged.
pub fn vm_counts(out: &mut Outcome, field: impl Fn(&str) -> u64) {
    for name in [
        "instructions",
        "context_switches",
        "barrier_slow_paths",
        "log_entries",
        "revocations_requested",
        "rollbacks",
        "entries_rolled_back",
    ] {
        out.metric(format!("vm.{name}"), field(name) as f64, "count");
    }
}
