//! Spans the traced run records from the benchmark's own code, around
//! each call into a layer's public functions. Spans are aggregated in
//! memory per name (exact count and total, sampled durations) and
//! printed when the run ends.

use revmon_perfbench::stats::Reservoir;
use std::collections::BTreeMap;
use std::time::Instant;

/// Durations kept per span name for percentiles.
const SAMPLE_CAP: usize = 1 << 16;

/// One span name's aggregate.
struct SpanAgg {
    parent: &'static str,
    durs: Reservoir,
}

/// The spans of one thread of a traced run.
#[derive(Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, SpanAgg>,
}

impl Spans {
    /// Record the span from `start` to `end` under `parent` (the span
    /// that caused it).
    pub fn between(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.by_name
            .entry(name)
            .or_insert_with(|| SpanAgg { parent, durs: Reservoir::new(SAMPLE_CAP) })
            .durs
            .add(end.duration_since(start).as_nanos() as u64);
    }

    /// Fold in spans recorded elsewhere (another thread, another
    /// program).
    pub fn merge(&mut self, other: Spans) {
        for (name, agg) in other.by_name {
            match self.by_name.get_mut(name) {
                Some(mine) => mine.durs.merge(&agg.durs),
                None => {
                    self.by_name.insert(name, agg);
                }
            }
        }
    }

    /// Total ns of the spans recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |a| a.durs.sum)
    }

    /// Mean ns of `name` (0 when absent).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |a| a.durs.mean())
    }

    /// Percentile `p` of `name`'s durations in ns (0 when absent).
    pub fn pct_ns(&self, name: &str, p: f64) -> f64 {
        self.by_name.get(name).map_or(0.0, |a| a.durs.percentile(p))
    }

    /// Print every span: count, total, self time (total minus the
    /// totals of the spans that name it as parent), p50 and p99.
    pub fn print(&self) {
        println!(
            "{:<26} {:<18} {:>10} {:>11} {:>11} {:>11} {:>11}",
            "span", "parent", "count", "total_ms", "self_ms", "p50_ns", "p99_ns"
        );
        for (name, agg) in &self.by_name {
            let children: u64 =
                self.by_name.values().filter(|c| c.parent == *name).map(|c| c.durs.sum).sum();
            println!(
                "{:<26} {:<18} {:>10} {:>11.3} {:>11.3} {:>11.0} {:>11.0}",
                name,
                agg.parent,
                agg.durs.count,
                agg.durs.sum as f64 / 1e6,
                agg.durs.sum.saturating_sub(children) as f64 / 1e6,
                agg.durs.percentile(50.0),
                agg.durs.percentile(99.0),
            );
        }
    }
}
