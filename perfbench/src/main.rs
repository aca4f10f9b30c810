//! The revmon benchmark: one in-process command over the library crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uncontended|inversion|paper-grid|explore-corpus> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run that alternates
//! untraced and traced windows, and reports the tracing overhead. See
//! `perfbench/README.md` for the workloads and the metric map.

mod corpus;
mod grid;
mod inversion;
mod report;
mod trace;
mod uncontended;

use report::Outcome;
use revmon_perfbench::manifest::{END_TO_END, PER_LAYER};
use revmon_perfbench::stats;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by the names later issues cite them with.
const WORKLOADS: [&str; 4] = ["uncontended", "inversion", "paper-grid", "explore-corpus"];

/// Set-ups before measuring; the median set-up time is `setup_s`.
pub const SETUPS: usize = 25;

/// Least time spent setting up. A set-up of a fraction of a millisecond
/// repeated 25 times would sample one instant of a shared host; half a
/// second of them spans its short stalls, as the measured runs do.
pub const SETUP_TIME: Duration = Duration::from_millis(500);

/// Parsed command line.
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts { workload: "", seed: 1, seconds: 30, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
            match flag.as_str() {
                "--workload" => {
                    opts.workload =
                        WORKLOADS.into_iter().find(|w| w == value).ok_or_else(|| {
                            format!("unknown workload `{value}` (one of {WORKLOADS:?})")
                        })?;
                }
                "--seed" => opts.seed = num()?,
                "--seconds" => opts.seconds = num()?.max(1),
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if opts.workload.is_empty() {
            return Err(format!("--workload is required (one of {WORKLOADS:?})"));
        }
        Ok(opts)
    }

    /// Measured run length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Whether window `i` of a run records spans: none in an end-to-end
    /// run; every other one in a traced run, so the untraced windows
    /// between them measure what tracing costs.
    pub fn traced_window(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// Set up at least [`SETUPS`] times and for at least [`SETUP_TIME`],
/// tearing all but the last down, and return the last with every
/// set-up's time in seconds.
pub fn repeated_setup<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUPS || start.elapsed() < SETUP_TIME {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        kept = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Run `pass(traced)` repeatedly while another pass should still end
/// within the run length (at least once; twice in a traced run, so one
/// pass of each kind exists). Returns the seconds each pass took,
/// untraced then traced.
pub fn passes(opts: &Opts, mut pass: impl FnMut(bool)) -> [Vec<f64>; 2] {
    let start = Instant::now();
    let mut every = Vec::new();
    let mut by_kind = [Vec::new(), Vec::new()];
    let min_passes = 1 + opts.trace as usize;
    while every.len() < min_passes
        || start.elapsed().as_secs_f64() + stats::median(&every) <= opts.seconds as f64
    {
        let traced = opts.traced_window(every.len());
        let t0 = Instant::now();
        pass(traced);
        let secs = t0.elapsed().as_secs_f64();
        by_kind[traced as usize].push(secs);
        every.push(secs);
    }
    by_kind
}

/// Tracing overhead: median cost of traced windows over untraced ones.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    stats::median(traced) / stats::median(untraced)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("programs").is_dir() {
        eprintln!("perfbench: run from the repository root (no `programs/` here)");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if opts.trace { "traced" } else { "end-to-end" };
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let provenance = format!(
        "{{\"workload\": \"{}\", \"mode\": \"{mode}\", \"profile\": \"{profile}\", \"nproc\": {nproc}, \
         \"git_revision\": \"{}\", \"seed\": {}, \"seconds\": {}}}",
        opts.workload,
        report::git_revision(),
        opts.seed,
        opts.seconds
    );
    println!("provenance {provenance}");

    let mut out: Outcome = match opts.workload {
        "uncontended" => uncontended::run(&opts),
        "inversion" => inversion::run(&opts),
        "paper-grid" => grid::run(&opts),
        _ => corpus::run(&opts),
    };
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");

    for (name, ok) in &out.checks {
        println!("check {:<52} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    for m in &out.metrics {
        println!("metric {:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("operations: {} attempted, {} failed", out.attempted, out.failed);
    println!("provenance {provenance}");
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    match out.json(wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
