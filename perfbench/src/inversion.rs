//! `inversion`: the paper's Figure 1 on real threads. One LOW thread runs
//! long revocable sections in a closed loop; one HIGH thread issues
//! short sections on the same monitor on a seeded open-loop Poisson
//! schedule, each timed from its due time. Telemetry is off, so the
//! revocation slow path (inflate, signal-victim, undo-walk, requeue,
//! deflate) does most of the work.

use crate::report::{self, Outcome, SectionCounts};
use crate::trace::Spans;
use crate::{overhead, repeated_setup, Opts};
use revmon_locks::{Priority, RevocableMonitor, TCell};
use revmon_perfbench::stats::{
    calm, highest_resolvable_percentile, median, percentile, poisson_schedule, sorted, Request,
    SplitMix64,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// HIGH requests per second.
const RATE_PER_S: f64 = 500.0;
/// Updates per LOW section, one cell each.
const LOW_WRITES: usize = 2000;
/// LOW sections also poll at an explicit checkpoint every this many
/// writes.
const CHECKPOINT_EVERY: usize = 4;
/// Updates per HIGH section, on the first cells LOW writes too.
const HIGH_WRITES: usize = 16;
/// Uncontended LOW sections run during set-up, so undo-log pools and
/// section contexts are warm before timing.
const WARM_SECTIONS: u64 = 50;
/// Requests are grouped into windows of this length; a traced run
/// traces every other one.
const WINDOW_NS: u64 = 1_000_000_000;
/// Time between the schedule's start and its first possible due time.
const LEAD_IN: Duration = Duration::from_millis(20);
/// A percentile needs this many samples beyond it to be reported.
const MIN_BEYOND: usize = 10;

struct Setup {
    monitor: RevocableMonitor,
    cells: Vec<TCell<i64>>,
    due: Vec<u64>,
}

/// One LOW section; returns when its committed attempt's writes began
/// and ended (two clock reads against a section of ~100 us).
fn low_section(
    m: &RevocableMonitor,
    cells: &[TCell<i64>],
    attempts: &mut u64,
) -> (Instant, Instant) {
    m.enter(Priority::LOW, |tx| {
        *attempts += 1;
        let start = Instant::now();
        for (i, c) in cells.iter().enumerate() {
            tx.update(c, |v| v + 1);
            if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                tx.checkpoint();
            }
        }
        (start, Instant::now())
    })
}

fn set_up(seed: u64, seconds: u64) -> Setup {
    let due = poisson_schedule(&mut SplitMix64::new(seed, 2), RATE_PER_S, seconds * 1_000_000_000);
    let monitor = RevocableMonitor::new();
    let cells: Vec<TCell<i64>> = (0..LOW_WRITES).map(|_| TCell::new(0)).collect();
    let mut attempts = 0;
    for _ in 0..WARM_SECTIONS {
        low_section(&monitor, &cells, &mut attempts);
    }
    Setup { monitor, cells, due }
}

/// Spin until `t`. The generator never sleeps: waking a sleeping thread
/// on a virtual machine can take milliseconds when the host is busy,
/// and that lateness would be the generator's, not the monitor's.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let (s, setup_times) = repeated_setup(|| set_up(opts.seed, opts.seconds), drop);
    let stats0 = s.monitor.stats();
    let phases0 = report::phase_totals();
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let low_commits = AtomicU64::new(0);

    let mut requests: Vec<Request> = Vec::with_capacity(s.due.len());
    let mut blocked_ns = 0u64;
    let mut high_spans = Spans::default();
    let mut span_s = 0.0;
    // (window, seconds since the schedule's start, LOW commits) at the
    // first request of every window, and once more at the end.
    let mut marks: Vec<(u64, f64, u64)> = Vec::new();
    let (low_spans, low_counts) = std::thread::scope(|scope| {
        let low = scope.spawn(|| {
            let mut spans = Spans::default();
            let mut counts = SectionCounts::default();
            while !stop.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let body = low_section(&s.monitor, &s.cells, &mut counts.attempts);
                if tracing.load(Ordering::Relaxed) {
                    spans.between("locks.low_enter", "bench.low_loop", t0, Instant::now());
                    spans.between("locks.writes", "locks.low_enter", body.0, body.1);
                }
                counts.commits += 1;
                low_commits.fetch_add(1, Ordering::Relaxed);
            }
            (spans, counts)
        });

        let base = Instant::now() + LEAD_IN;
        let ns = |t: Instant| t.duration_since(base).as_nanos() as u64;
        wait_until(base);
        let now_s = || base.elapsed().as_secs_f64();
        for &due_ns in &s.due {
            let window = due_ns / WINDOW_NS;
            let traced = opts.traced_window(window as usize);
            tracing.store(traced, Ordering::Relaxed);
            wait_until(base + Duration::from_nanos(due_ns));
            if marks.last().is_none_or(|m| m.0 != window) {
                marks.push((window, now_s(), low_commits.load(Ordering::Relaxed)));
            }
            let sent = Instant::now();
            let mut entered = sent;
            let mut body_end = sent;
            s.monitor.enter(Priority::HIGH, |tx| {
                entered = Instant::now();
                for c in &s.cells[..HIGH_WRITES] {
                    tx.update(c, |v| v + 1);
                }
                body_end = Instant::now();
            });
            let done = Instant::now();
            blocked_ns += entered.duration_since(sent).as_nanos() as u64;
            if traced {
                high_spans.between("locks.enter", "bench.request", sent, done);
                high_spans.between("locks.acquire", "locks.enter", sent, entered);
                high_spans.between("locks.high_writes", "locks.enter", entered, body_end);
                high_spans.between("locks.release", "locks.enter", body_end, done);
            }
            requests.push(Request { due_ns, sent_ns: ns(sent), done_ns: ns(done) });
        }
        span_s = now_s();
        marks.push((u64::MAX, span_s, low_commits.load(Ordering::Relaxed)));
        stop.store(true, Ordering::Release);
        low.join().expect("LOW thread panicked")
    });

    let stats = report::stats_delta(&s.monitor.stats(), &stats0);
    let total: i64 = s.cells.iter().map(|c| c.read_unsynchronized()).sum();
    let warm = WARM_SECTIONS;
    let expected = (warm + low_counts.commits) * LOW_WRITES as u64
        + requests.len() as u64 * HIGH_WRITES as u64;

    let mut out = Outcome { attempted: s.due.len() as u64, ..Outcome::default() };
    out.failed = s.due.len() as u64 - requests.len() as u64;
    out.check(
        format!(
            "sum of cells {total} == LOW commits {} x {LOW_WRITES} + HIGH completions {} x {HIGH_WRITES}",
            warm + low_counts.commits,
            requests.len()
        ),
        total as u64 == expected,
    );
    out.check(
        format!("{} HIGH requests >= 1000 (ten samples beyond p99)", requests.len()),
        requests.len() >= 1000,
    );

    let us = |f: fn(&Request) -> u64| -> Vec<f64> {
        sorted(&requests.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let all = us(Request::latency_ns);
    let lag = us(Request::lag_ns);
    // Per-window figures, split by whether the window was traced. The
    // end-to-end figures are read at the calm quartile of the windows
    // (`stats::calm`), so seconds in which other tenants slow the host
    // move them little. The tail is read at p90: on a shared virtual
    // machine p98 and up sit on a millisecond mode, the host descheduling
    // a vCPU, that comes and goes with the host's load (p99 is reported
    // by the traced run).
    let mut by_window: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in &requests {
        by_window.entry(r.due_ns / WINDOW_NS).or_default().push(r.latency_ns() as f64 / 1e3);
    }
    let mut window_p50: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut window_p90: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (w, v) in &by_window {
        let v = sorted(v);
        let traced = opts.traced_window(*w as usize) as usize;
        window_p50[traced].push(percentile(&v, 50.0));
        window_p90[traced].push(percentile(&v, 90.0));
    }
    let mut low_rate: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for m in marks.windows(2) {
        let rate = (m[1].2 - m[0].2) as f64 / (m[1].1 - m[0].1);
        low_rate[opts.traced_window(m[0].0 as usize) as usize].push(rate);
    }
    let top = highest_resolvable_percentile(all.len(), MIN_BEYOND).unwrap_or(50.0);
    let ladder: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
        .into_iter()
        .filter(|&p| p <= top)
        .map(|p| format!("p{p} {:.1}", percentile(&all, p)))
        .collect();
    println!(
        "inversion: {} HIGH requests over {span_s:.2} s; latency from due (us): {} (highest percentile \
         with {MIN_BEYOND} samples beyond: p{top}); generator lag p50 {:.1} us p99 {:.1} us; {} LOW \
         commits of {} attempts",
        all.len(),
        ladder.join(", "),
        percentile(&lag, 50.0),
        percentile(&lag, 99.0),
        low_counts.commits,
        low_counts.attempts,
    );
    println!(
        "inversion: per {} s window: HIGH p50 (us) {:.1?}; HIGH p90 (us) {:.1?}; LOW sections/s {:.0?}",
        WINDOW_NS / 1_000_000_000,
        window_p50[0],
        window_p90[0],
        low_rate[0]
    );

    out.metric("setup_s", median(&setup_times), "s");
    out.end_to_end(
        calm(&low_rate[0], false),
        calm(&window_p50[0], true),
        calm(&window_p90[0], true),
        percentile(&all, 99.0),
    );
    out.metric("inv_high_p50_us", calm(&window_p50[0], true), "us");
    out.metric("inv_high_p90_us", calm(&window_p90[0], true), "us");
    out.metric("inv_high_p99_us", percentile(&all, 99.0), "us");
    out.metric("inv_low_sections_per_s", calm(&low_rate[0], false), "1/s");

    if opts.trace {
        let mut spans = high_spans;
        spans.merge(low_spans);
        let traced_s: f64 = marks
            .windows(2)
            .filter(|m| opts.traced_window(m[0].0 as usize))
            .map(|m| m[1].1 - m[0].1)
            .sum();
        report::locks_metrics(&mut out, &stats, low_counts, &spans, LOW_WRITES, traced_s * 1e9);
        let phase_ns = report::phase_metrics(&mut out, &phases0, blocked_ns);
        println!(
            "reconciliation: HIGH blocked {:.3} ms in total; slow-path phase timers {:.3} ms; \
             unattributed {:.3} ms ({:.1} %)",
            blocked_ns as f64 / 1e6,
            phase_ns as f64 / 1e6,
            (blocked_ns as f64 - phase_ns as f64) / 1e6,
            report::ratio(blocked_ns as f64 - phase_ns as f64, blocked_ns as f64) * 100.0
        );
        out.metric("bench.gen_lag_p50_us", percentile(&lag, 50.0), "us");
        out.metric("bench.gen_lag_p99_us", percentile(&lag, 99.0), "us");
        out.metric(
            "bench.gen_lag_p99_frac",
            report::ratio(percentile(&lag, 99.0), percentile(&all, 99.0)),
            "ratio",
        );
        out.metric("bench.trace_overhead", overhead(&window_p50[0], &window_p50[1]), "ratio");
        spans.print();
    }
    out
}
