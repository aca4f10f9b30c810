//! Differential test of the explorer's cut: a schedule that reaches an
//! already-expanded choice point stops there and takes over the verdict
//! of the schedule that expanded it. That must change nothing the
//! search reports, so `explore()` is compared here with a reference
//! explorer that re-executes every schedule in full.

use revmon_explore::{explore, testprogs, Bounds, ExploreReport, RunOutcome, Runner, Terminal};
use revmon_vm::VmConfig;
use std::collections::HashSet;

/// Everything the cut must preserve, from either explorer.
#[derive(Debug, PartialEq)]
struct Observed {
    schedules: u64,
    pruned_preemption: u64,
    stalls: u64,
    budget_exhausted: u64,
    terminal_states: Vec<u64>,
    failures: Vec<(Vec<u32>, Vec<&'static str>)>,
}

fn failure(out: &RunOutcome) -> (Vec<u32>, Vec<&'static str>) {
    (out.choices(), out.violations.iter().map(|v| v.invariant).collect())
}

impl Observed {
    fn of(report: &ExploreReport) -> Self {
        let s = &report.stats;
        assert!(!s.capped);
        Observed {
            schedules: s.schedules,
            pruned_preemption: s.pruned_preemption,
            stalls: s.stalls,
            budget_exhausted: s.budget_exhausted,
            terminal_states: report.terminal_states.clone(),
            failures: report.failures.iter().map(|f| failure(&f.outcome)).collect(),
        }
    }
}

/// The explorer without the cut: every schedule runs to its end, then
/// expands the siblings of each new choice point past its prefix.
fn reference(runner: &Runner, max_preemptions: u32) -> Observed {
    let mut seen = Observed {
        schedules: 0,
        pruned_preemption: 0,
        stalls: 0,
        budget_exhausted: 0,
        terminal_states: Vec::new(),
        failures: Vec::new(),
    };
    let mut terminals: HashSet<u64> = HashSet::new();
    let mut expanded: HashSet<(u64, u32)> = HashSet::new();
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        let out = runner.run(&prefix);
        seen.schedules += 1;
        match out.terminal {
            Terminal::Stalled => seen.stalls += 1,
            Terminal::Budget => seen.budget_exhausted += 1,
            Terminal::Completed => {
                terminals.insert(out.fingerprint);
            }
            _ => {}
        }
        let mut spent = 0u32;
        for (d, dp) in out.decisions.iter().enumerate() {
            if d >= prefix.len() && expanded.insert((dp.fingerprint, spent)) {
                for alt in (0..dp.record.n_candidates).filter(|&alt| alt != dp.record.chosen) {
                    if spent + (alt != 0) as u32 > max_preemptions {
                        seen.pruned_preemption += 1;
                        continue;
                    }
                    let mut next: Vec<u32> = out.choices()[..d].to_vec();
                    next.push(alt);
                    frontier.push(next);
                }
            }
            spent += dp.record.is_preemption() as u32;
        }
        if !out.violations.is_empty() {
            seen.failures.push(failure(&out));
        }
    }
    seen.terminal_states = terminals.into_iter().collect();
    seen.terminal_states.sort_unstable();
    seen
}

fn corpus(name: &str, cores: usize) -> Runner {
    let path = format!("{}/programs/{name}.rvm", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let program = testprogs::assemble_corpus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut cfg = VmConfig::modified().with_cores(cores);
    if name.starts_with("delegation") {
        cfg.policy = revmon::core::InversionPolicy::Delegation;
        cfg.barriers = false;
    }
    Runner::new(program, "main", cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn faulty(cores: usize) -> Runner {
    let base = testprogs::faulty_inversion_pair(1_000_000);
    let cfg = base.config().with_cores(cores);
    Runner::new(base.program().clone(), base.entry_name(), cfg).expect("valid program")
}

#[test]
fn cut_search_matches_full_re_execution() {
    let names = [
        "counter",
        "nested_wait_revoke",
        "volatile_revoke",
        "producer_consumer",
        "delegation_storm",
    ];
    let mut truncated = 0;
    let mut failures = 0;
    for cores in [1, 2] {
        let mut runners: Vec<(String, Runner, u32)> =
            names.iter().map(|&n| (n.to_string(), corpus(n, cores), 2)).collect();
        runners.push(("faulty_inversion_pair".into(), faulty(cores), 2));
        // `priority_inversion` passes decision points without a
        // fingerprint (a sleeper wakes inside the round), and the cut
        // must never match on one. One core and bound 1 keep it short.
        if cores == 1 {
            runners.push(("priority_inversion".into(), corpus("priority_inversion", cores), 1));
        }
        for (name, runner, max_bound) in &runners {
            for max_preemptions in 0..=*max_bound {
                let bounds =
                    Bounds { max_preemptions, max_schedules: 0, stop_on_first_failure: false };
                let report = explore(runner, bounds);
                assert_eq!(
                    Observed::of(&report),
                    reference(runner, max_preemptions),
                    "{name} at bound {max_preemptions} on {cores} cores"
                );
                truncated += report.stats.truncated;
                failures += report.failures.len();
            }
        }
    }
    assert!(truncated > 0, "no schedule was cut: the comparison proves nothing");
    assert!(failures > 0, "the injected fault must surface");
}
