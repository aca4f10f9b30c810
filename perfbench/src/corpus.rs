//! `explore-corpus`: the bounded model checker over the program corpus
//! (`explore()` at 2 preemptions, one core). Thousands of short VM runs,
//! each rebuilt from scratch and checked every round, so set-up,
//! fingerprinting and invariant checks dominate.
//!
//! `delegation_storm.rvm` is left out (the delegation policy may be
//! deleted), and so are several cores (that search does not branch
//! yet; making it branch will rightly multiply the schedules).

use crate::report::{self, ratio, Outcome};
use crate::trace::Spans;
use crate::{overhead, passes, repeated_setup, Opts};
use revmon_explore::{check_state, check_terminal, explore, Bounds, ExploreReport, Oracle, Runner};
use revmon_locks::Priority;
use revmon_perfbench::stats::{fastest, median, percentile, sorted};
use revmon_vm::{assemble, verify_program, RoundOutcome, RunReport, Scripted, Vm, VmConfig};
use std::time::Instant;

/// Corpus programs with the number of distinct terminal states their
/// bounded search reaches.
const PROGRAMS: [(&str, usize); 7] = [
    ("counter", 3),
    ("deadlock", 6),
    ("nested_wait_revoke", 7),
    ("priority_inversion", 13),
    ("producer_consumer", 4),
    ("repeat_revocation", 25),
    ("volatile_revoke", 15),
];
const BOUNDS: Bounds = Bounds { max_preemptions: 2, max_schedules: 0, stop_on_first_failure: true };
/// Timed default-schedule runs per program in a traced run.
const DIAG_RUNS: usize = 5;

/// Read, assemble and verify every program. The corpus is the input:
/// the searches are exhaustive and deterministic, so this workload does
/// not depend on the seed.
fn load() -> Vec<(&'static str, usize, Runner)> {
    PROGRAMS
        .into_iter()
        .map(|(name, terminals)| {
            let path = format!("programs/{name}.rvm");
            let src =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
            let program = assemble(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
            if let Err(errors) = verify_program(&program) {
                panic!("{path}: {} verification errors", errors.len());
            }
            let runner =
                Runner::new(program, "main", VmConfig::modified()).expect("corpus entry is main");
            (name, terminals, runner)
        })
        .collect()
}

/// Per-call costs of one program's default schedule, driven here the
/// way `Runner::run` drives it, so each layer call can be timed.
#[derive(Default)]
struct Drive {
    rounds: u64,
    fingerprints: u64,
    report: Option<RunReport>,
}

fn drive_default(runner: &Runner, spans: &mut Spans) -> Drive {
    let t0 = Instant::now();
    let mut vm = Vm::new(runner.program().clone(), *runner.config());
    let (policy, _log) = Scripted::new(Vec::new());
    vm.set_schedule_policy(Box::new(policy));
    let (oracle, _state) = Oracle::new();
    vm.attach_probe(Box::new(oracle));
    let entry = runner.program().method_by_name(runner.entry_name()).expect("entry exists");
    vm.spawn(runner.entry_name(), entry, vec![], Priority::NORM);
    spans.between("explore.vm_new", "explore.default_run", t0, Instant::now());
    let mut d = Drive::default();
    loop {
        if vm.run_queue_len() >= 2 {
            let t = Instant::now();
            std::hint::black_box(vm.state_fingerprint());
            spans.between("explore.fingerprint", "explore.default_run", t, Instant::now());
            d.fingerprints += 1;
        }
        let t = Instant::now();
        let outcome = vm.run_round().expect("default schedule completes");
        spans.between("explore.round", "explore.default_run", t, Instant::now());
        if outcome == RoundOutcome::Done {
            break;
        }
        let t = Instant::now();
        assert!(check_state(&vm).is_empty(), "default schedule violates a state invariant");
        spans.between("explore.check_state", "explore.default_run", t, Instant::now());
        d.rounds += 1;
    }
    let t = Instant::now();
    assert!(check_terminal(&vm).is_empty(), "default schedule violates a terminal invariant");
    spans.between("explore.check_terminal", "explore.default_run", t, Instant::now());
    spans.between("explore.default_run", "bench.diagnose", t0, Instant::now());
    d.report = Some(vm.report());
    d
}

pub fn run(opts: &Opts) -> Outcome {
    let (corpus, setup_times) = repeated_setup(load, drop);
    let mut out = Outcome::default();
    let mut first: Option<Vec<ExploreReport>> = None;
    let mut spans = Spans::default();
    // Seconds each program's search took: per untraced pass, and summed
    // over traced passes.
    let mut program_s: Vec<Vec<f64>> = vec![Vec::new(); corpus.len()];
    let mut explore_s = vec![0.0; corpus.len()];
    let pass_s = passes(opts, |traced| {
        let reports: Vec<ExploreReport> = corpus
            .iter()
            .enumerate()
            .map(|(i, (_, _, runner))| {
                let t = Instant::now();
                let r = explore(runner, BOUNDS);
                let secs = t.elapsed().as_secs_f64();
                if traced {
                    explore_s[i] += secs;
                } else {
                    program_s[i].push(secs);
                }
                r
            })
            .collect();
        for (i, ((name, terminals, _), r)) in corpus.iter().zip(&reports).enumerate() {
            let same = first.as_ref().is_none_or(|f| {
                let s = (&f[i].stats, &r.stats);
                (s.0.schedules, s.0.decision_points, &f[i].terminal_states)
                    == (s.1.schedules, s.1.decision_points, &r.terminal_states)
            });
            let ok = r.clean() && !r.stats.capped && r.terminal_states.len() == *terminals && same;
            out.attempted += 1;
            if !ok {
                out.failed += 1;
                println!(
                    "{name}: clean {}, capped {}, {} terminal states (recorded {terminals}), same as first pass {same}",
                    r.clean(),
                    r.stats.capped,
                    r.terminal_states.len()
                );
            }
        }
        first.get_or_insert(reports);
    });
    let pass = pass_s[0].len() + pass_s[1].len();
    let reports = first.expect("at least one pass");
    out.check(
        format!(
            "{} searches: clean, not capped, terminal-state counts as recorded, passes agree",
            out.attempted
        ),
        out.failed == 0,
    );
    let total = |f: fn(&ExploreReport) -> u64| reports.iter().map(f).sum::<u64>();
    let schedules = total(|r| r.stats.schedules);
    // Every pass repeats identical deterministic work, so a search's
    // fastest repetition is its least-disturbed one: other tenants of
    // the host slow single passes by up to half (see the README).
    let corpus_s: f64 = program_s.iter().map(|t| fastest(t)).sum();
    let corpus_median_s: f64 = program_s.iter().map(|t| median(t)).sum();
    println!(
        "explore-corpus: {pass} passes over {} programs, {schedules} schedules each; pass seconds \
         {pass_s:.3?}; per-program fastest summed {corpus_s:.3}, medians summed {corpus_median_s:.3}",
        corpus.len()
    );

    let program_us = sorted(&program_s.iter().map(|t| fastest(t) * 1e6).collect::<Vec<_>>());
    out.metric("setup_s", median(&setup_times), "s");
    out.end_to_end(
        corpus.len() as f64 / corpus_s,
        percentile(&program_us, 50.0),
        percentile(&program_us, 90.0),
        percentile(&program_us, 99.0),
    );
    out.metric("explore_s", corpus_s, "s");

    if opts.trace {
        let traced_passes = pass_s[1].len() as f64;
        // Attributed seconds per pass: `Vm::new`, `Vm::run_round`,
        // `Vm::state_fingerprint`, and the invariant checks.
        let mut attributed = [0.0f64; 4];
        let mut defaults: Vec<RunReport> = Vec::new();
        println!(
            "{:<20} {:>10} {:>12} {:>12} {:>9}",
            "reconciliation", "schedules", "explore_ms", "attributed", "remainder"
        );
        for (i, ((name, _, runner), r)) in corpus.iter().zip(&reports).enumerate() {
            let mut p = Spans::default();
            let mut d = Drive::default();
            for _ in 0..DIAG_RUNS {
                d = drive_default(runner, &mut p);
                let t = Instant::now();
                std::hint::black_box(runner.run(&[]));
                p.between("explore.runner_run", "bench.diagnose", t, Instant::now());
            }
            // Per-call cost x calls per schedule (as on the default
            // schedule) x schedules searched.
            let per_schedule_ns = [
                p.mean_ns("explore.vm_new"),
                d.rounds as f64 * p.mean_ns("explore.round"),
                d.fingerprints as f64 * p.mean_ns("explore.fingerprint"),
                d.rounds as f64 * p.mean_ns("explore.check_state")
                    + p.mean_ns("explore.check_terminal"),
            ];
            let mut program_attributed = 0.0;
            for (sum, ns) in attributed.iter_mut().zip(per_schedule_ns) {
                let secs = ns * r.stats.schedules as f64 / 1e9;
                *sum += secs;
                program_attributed += secs;
            }
            let measured = explore_s[i] / traced_passes;
            println!(
                "{name:<20} {:>10} {:>12.3} {:>12.3} {:>8.1}%",
                r.stats.schedules,
                measured * 1e3,
                program_attributed * 1e3,
                (1.0 - ratio(program_attributed, measured)) * 100.0
            );
            defaults.extend(d.report);
            spans.merge(p);
        }
        let explore_total_s = explore_s.iter().sum::<f64>() / traced_passes;
        let attributed_s: f64 = attributed.iter().sum();
        let unattributed = ratio(explore_total_s - attributed_s, explore_total_s);
        println!(
            "reconciliation: explore {:.3} s per pass; per-call cost x count {:.3} s; unattributed {:.1} %",
            explore_total_s,
            attributed_s,
            unattributed * 100.0
        );
        out.metric("explore.schedules", schedules as f64, "count");
        out.metric("explore.decision_points", total(|r| r.stats.decision_points) as f64, "count");
        out.metric("explore.pruned_visited", total(|r| r.stats.pruned_visited) as f64, "count");
        out.metric(
            "explore.pruned_preemption",
            total(|r| r.stats.pruned_preemption) as f64,
            "count",
        );
        out.metric(
            "explore.dedup_ratio",
            ratio(
                total(|r| r.stats.pruned_visited) as f64,
                total(|r| r.stats.decision_points) as f64,
            ),
            "ratio",
        );
        out.metric("explore.schedules_per_s", schedules as f64 / explore_total_s, "1/s");
        out.metric("explore.run_ms.p50", spans.pct_ns("explore.runner_run", 50.0) / 1e6, "ms");
        out.metric("explore.round_ns", spans.mean_ns("explore.round"), "ns");
        out.metric("explore.fingerprint_ns", spans.mean_ns("explore.fingerprint"), "ns");
        out.metric("explore.check_state_ns", spans.mean_ns("explore.check_state"), "ns");
        out.metric("explore.check_terminal_ns", spans.mean_ns("explore.check_terminal"), "ns");
        out.metric("explore.vm_new_us", spans.mean_ns("explore.vm_new") / 1e3, "us");
        out.metric("vm.new_share", attributed[0] / explore_total_s, "ratio");
        out.metric("vm.run_share", attributed[1] / explore_total_s, "ratio");
        out.metric("vm.fingerprint_share", attributed[2] / explore_total_s, "ratio");
        out.metric("explore.check_share", attributed[3] / explore_total_s, "ratio");
        out.metric("explore.unattributed_frac", unattributed, "ratio");
        // The VM's own counts, over each program's default schedule.
        let default_instructions: u64 = defaults.iter().map(|r| r.global.instructions).sum();
        out.metric(
            "vm.instr_per_s",
            ratio(
                (default_instructions * DIAG_RUNS as u64) as f64,
                spans.total_ns("explore.round") as f64 / 1e9,
            ),
            "1/s",
        );
        report::vm_counts(&mut out, |f| {
            defaults.iter().map(|r| r.global.field(f).expect("a Metrics field")).sum()
        });
        out.metric("bench.trace_overhead", overhead(&pass_s[0], &pass_s[1]), "ratio");
        spans.print();
    }
    out
}
