//! `uncontended`: one thread runs a closed loop of short `NORM` sections
//! on monitors drawn with a seeded, skewed pattern from an arena much
//! larger than L2, with product telemetry on as `revmon demo
//! --trace-out` configures it. The thin-lock fast path and the obs
//! record path do most of the work here.

use crate::report::{self, Outcome, SectionCounts};
use crate::trace::Spans;
use crate::{overhead, repeated_setup, Opts};
use revmon_locks::{MonitorArena, Priority, TCell};
use revmon_obs::{Collector, CollectorConfig, EventSink, RunMeta, StreamSet, TraceStream, TsUnit};
use revmon_perfbench::stats::{
    fastest, highest, median, percentile, rel_spread, sorted, SplitMix64,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 4 Mi monitors: 32 MiB of lock words, eight times the 4 MiB L2 of
/// the machine the benchmark was sized on.
const MONITORS: usize = 4 << 20;
/// Precomputed monitor draws, replayed cyclically.
const PATTERN_LEN: usize = 1 << 20;
/// Shared cells the sections update.
const CELLS: usize = 4096;
/// `Tx::update`s per section.
const UPDATES: usize = 4;
/// Telemetry events one uncontended section records: Acquire, Commit,
/// Release.
const EVENTS_PER_SECTION: u64 = 3;
/// Sections between clock reads.
const BATCH: usize = 256;
/// Measuring window. A window holds over 100 000 sections and two
/// collector epochs, so its rate is exact for the work it did; other
/// tenants of a shared host slow windows down and never speed them up,
/// so the run reports its fastest window: the program's own speed, which
/// a median over windows would mix with how busy the host was.
const WINDOW: Duration = Duration::from_millis(100);

struct Setup {
    arena: MonitorArena,
    cells: Vec<TCell<i64>>,
    pattern: Vec<u32>,
    sink: Arc<EventSink>,
    collector: Collector,
}

/// Monitor index with a power-law skew (half of all draws land on the
/// lowest 1/16 of ranks), scattered over the arena by an odd-multiplier
/// bijection so hot monitors do not share cache lines.
fn skewed(rng: &mut SplitMix64) -> u32 {
    let rank = (rng.next_f64().powi(4) * MONITORS as f64) as u64;
    (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (MONITORS as u64 - 1)) as u32
}

fn set_up(seed: u64) -> Setup {
    let mut rng = SplitMix64::new(seed, 1);
    let pattern = (0..PATTERN_LEN).map(|_| skewed(&mut rng)).collect();
    let arena = MonitorArena::new(MONITORS);
    let cells = (0..CELLS).map(|_| TCell::new(0i64)).collect();
    // The telemetry `revmon demo --trace-out` starts: a wall-clock sink
    // installed in the locks runtime, drained by a collector on a 50 ms
    // epoch that retains 100 000 events and streams JSONL (here into a
    // null writer, so the disk is not measured).
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    revmon_locks::obs::install(Arc::clone(&sink));
    let meta = RunMeta { scheduler: Some("os".into()), ..RunMeta::default() };
    let jsonl = TraceStream::new(Box::new(std::io::sink()) as Box<_>, sink.ts_unit(), &meta)
        .expect("writing to a null sink cannot fail");
    let collector = Collector::start(
        Arc::clone(&sink),
        CollectorConfig { epoch: Duration::from_millis(50), retain: Some(100_000) },
        StreamSet { jsonl: Some(jsonl), chrome: None },
    );
    Setup { arena, cells, pattern, sink, collector }
}

/// Stop telemetry and return the sink it fed.
fn tear_down(s: Setup) -> Arc<EventSink> {
    s.collector.stop(&BTreeMap::new(), &RunMeta::default()).expect("collector stops cleanly");
    revmon_locks::obs::uninstall();
    s.sink
}

pub fn run(opts: &Opts) -> Outcome {
    let (s, setup_times) = repeated_setup(|| set_up(opts.seed), |s| drop(tear_down(s)));
    let mut counts = SectionCounts::default();
    let mut spans = Spans::default();
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Per untraced window: p50 and p90 of the mean section latency of
    // each batch, in us; and every batch's, for the tail.
    let mut window_p50 = Vec::new();
    let mut window_p90 = Vec::new();
    let mut batch_us = Vec::new();
    let mut traced_ns = 0.0;
    let mut pos = 0usize;
    let stats0 = s.arena.stats();
    let phases0 = report::phase_totals();

    let start = Instant::now();
    let end = start + opts.duration();
    let mut window = 0;
    // Only whole windows: a short last one would miss a collector epoch.
    while Instant::now() + WINDOW <= end {
        let traced = opts.traced_window(window);
        let w0 = Instant::now();
        let w_end = w0 + WINDOW;
        let mut n = 0u64;
        let mut batches = Vec::new();
        let mut b0 = w0;
        while b0 < w_end {
            for _ in 0..BATCH {
                let m = s.pattern[pos] as usize;
                pos = (pos + 1) % PATTERN_LEN;
                let first = m * UPDATES % CELLS;
                if traced {
                    let t0 = Instant::now();
                    let (mut t1, mut t2) = (t0, t0);
                    s.arena.get(m).enter(Priority::NORM, |tx| {
                        counts.attempts += 1;
                        t1 = Instant::now();
                        for k in 0..UPDATES {
                            tx.update(&s.cells[(first + k) % CELLS], |v| v + 1);
                        }
                        t2 = Instant::now();
                    });
                    let t3 = Instant::now();
                    spans.between("locks.enter", "bench.section", t0, t3);
                    spans.between("locks.acquire", "locks.enter", t0, t1);
                    spans.between("locks.writes", "locks.enter", t1, t2);
                    spans.between("locks.release", "locks.enter", t2, t3);
                } else {
                    s.arena.get(m).enter(Priority::NORM, |tx| {
                        counts.attempts += 1;
                        for k in 0..UPDATES {
                            tx.update(&s.cells[(first + k) % CELLS], |v| v + 1);
                        }
                    });
                }
                counts.commits += 1;
            }
            n += BATCH as u64;
            let b1 = Instant::now();
            batches.push(b1.duration_since(b0).as_nanos() as f64 / 1e3 / BATCH as f64);
            b0 = b1;
        }
        let secs = w0.elapsed().as_secs_f64();
        rates[traced as usize].push(n as f64 / secs);
        if traced {
            traced_ns += secs * 1e9;
        } else {
            let b = sorted(&batches);
            window_p50.push(percentile(&b, 50.0));
            window_p90.push(percentile(&b, 90.0));
            batch_us.extend(batches);
        }
        window += 1;
    }
    let run_ns = start.elapsed().as_nanos() as f64;

    let stats = report::stats_delta(&s.arena.stats(), &stats0);
    let total: i64 = s.cells.iter().map(|c| c.read_unsynchronized()).sum();
    let arena_commits = stats.acquires - stats.rollbacks;
    // Collector gauges while it still runs; counters once it drained.
    let live = s.sink.pipeline_stats();
    let p = tear_down(s).pipeline_stats();

    let mut out = Outcome { attempted: counts.commits, ..Outcome::default() };
    let expected = counts.commits * UPDATES as u64;
    // A lost or duplicated section shows as a sum off by its updates.
    out.failed = (total as u64).abs_diff(expected).div_ceil(UPDATES as u64);
    out.check(
        format!("sum of cells {total} == sections x {UPDATES} = {expected}"),
        total as u64 == expected,
    );
    out.check(
        format!("arena commits {arena_commits} == sections {}", counts.commits),
        arena_commits == counts.commits,
    );
    let attempted_events = counts.commits * EVENTS_PER_SECTION;
    out.check(
        format!(
            "obs attempted {attempted_events} == recorded {} + dropped {} + sampled out {}",
            p.recorded, p.dropped, p.sampled_out
        ),
        attempted_events == p.recorded + p.dropped + p.sampled_out,
    );
    println!(
        "uncontended: {} sections in {} windows; window rate spread {:.4}",
        counts.commits,
        rates[0].len() + rates[1].len(),
        rel_spread(&rates[0])
    );
    println!(
        "uncontended: {} untraced {} s windows, fastest / median: sections/s {:.0} / {:.0}; \
         section p50 (us) {:.4} / {:.4}; section p90 (us) {:.4} / {:.4}",
        rates[0].len(),
        WINDOW.as_secs_f64(),
        highest(&rates[0]),
        median(&rates[0]),
        fastest(&window_p50),
        median(&window_p50),
        fastest(&window_p90),
        median(&window_p90)
    );

    let drop_frac = report::ratio(p.dropped as f64, attempted_events as f64);
    out.metric("setup_s", median(&setup_times), "s");
    out.end_to_end(
        highest(&rates[0]),
        fastest(&window_p50),
        fastest(&window_p90),
        percentile(&sorted(&batch_us), 99.0),
    );
    out.metric("sections_per_s", highest(&rates[0]), "1/s");
    out.metric("trace_drop_frac", drop_frac, "ratio");

    if opts.trace {
        report::locks_metrics(&mut out, &stats, counts, &spans, UPDATES, traced_ns);
        report::phase_metrics(&mut out, &phases0, 0);
        out.metric("obs.recorded", p.recorded as f64, "count");
        out.metric("obs.dropped", p.dropped as f64, "count");
        out.metric("obs.drop_frac", drop_frac, "ratio");
        out.metric("obs.record_self_ns.p50", p.self_cost_ns.1 as f64, "ns");
        out.metric("obs.record_self_ns.p99", p.self_cost_ns.2 as f64, "ns");
        // Every event paid `record()`'s self-cost, sampled at its p50.
        out.metric(
            "obs.record_share",
            report::ratio(attempted_events as f64 * p.self_cost_ns.1 as f64, run_ns),
            "ratio",
        );
        out.metric("obs.collector_epochs", live.epochs as f64, "count");
        out.metric("obs.max_batch", live.max_batch as f64, "count");
        out.metric("obs.last_pass_ns", live.last_pass_ns as f64, "ns");
        // Rates are work per second; their inverse is cost.
        let inv = |v: &[f64]| v.iter().map(|r| 1.0 / r).collect::<Vec<_>>();
        out.metric("bench.trace_overhead", overhead(&inv(&rates[0]), &inv(&rates[1])), "ratio");
        spans.print();
    }
    out
}
