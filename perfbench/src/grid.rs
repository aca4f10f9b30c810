//! `paper-grid`: the §4.1 microbenchmark on the VM, both VMs across the
//! three thread mixes and six write ratios (the cells of Figures 5 and
//! 7), at the default scale and one seed. The VM interpreter, write
//! barrier and rollback do all the work, on long steady-state runs.

use crate::report::{self, Outcome};
use crate::trace::Spans;
use crate::{overhead, passes, repeated_setup, Opts};
use revmon_bench::workload::{benchmark_program, ARRAY_LEN};
use revmon_bench::{BenchParams, CellResult, Scale, MIXES, WRITE_PCTS};
use revmon_locks::Priority;
use revmon_perfbench::stats::{fastest, median, percentile, sorted};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};
use std::time::Instant;

/// Every cell of one grid pass: mix × write ratio × (unmodified,
/// modified), the pair for one (mix, ratio) adjacent.
fn cells(seed: u64) -> Vec<BenchParams> {
    let scale = Scale::default_scale();
    let mut v = Vec::new();
    for (high, low) in MIXES {
        for write_pct in WRITE_PCTS {
            for modified in [false, true] {
                v.push(BenchParams {
                    high_threads: high,
                    low_threads: low,
                    high_iters: scale.high_iters_small,
                    low_iters: scale.low_iters,
                    sections: scale.sections,
                    write_pct,
                    modified,
                    seed,
                    quantum: scale.quantum,
                });
            }
        }
    }
    v
}

/// A cell's VM, ready to run: the steps of `revmon_bench::run_cell` up
/// to `Vm::run`, with spans around program build, `Vm::new` and `spawn`
/// when `spans` is given.
fn prepare(p: &BenchParams, spans: Option<&mut Spans>) -> Vm {
    let t0 = Instant::now();
    let (program, run) = benchmark_program();
    let t1 = Instant::now();
    let cfg = if p.modified { VmConfig::modified() } else { VmConfig::unmodified() };
    let mut cfg = cfg.with_seed(p.seed);
    cfg.cost.quantum = p.quantum;
    let pause_bound = 2 * cfg.cost.quantum as i64;
    let mut vm = Vm::new(program, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    let arr = vm.heap_mut().alloc_array(ARRAY_LEN);
    let t2 = Instant::now();
    let args = |iters: i64| {
        vec![
            Value::Ref(lock),
            Value::Ref(arr),
            Value::Int(iters),
            Value::Int(p.write_pct),
            Value::Int(p.sections),
            Value::Int(pause_bound),
        ]
    };
    for i in 0..p.low_threads.max(p.high_threads) {
        if i < p.high_threads {
            vm.spawn(&format!("high{i}"), run, args(p.high_iters), Priority::HIGH);
        }
        if i < p.low_threads {
            vm.spawn(&format!("low{i}"), run, args(p.low_iters), Priority::LOW);
        }
    }
    if let Some(s) = spans {
        let t3 = Instant::now();
        s.between("vm.prepare", "bench.cell", t0, t3);
        s.between("vm.build_program", "vm.prepare", t0, t1);
        s.between("vm.new", "vm.prepare", t1, t2);
        s.between("vm.spawn", "vm.prepare", t2, t3);
    }
    vm
}

/// Run one cell, as `revmon_bench::run_cell` does.
fn run_cell(p: &BenchParams, mut spans: Option<&mut Spans>) -> CellResult {
    let mut vm = prepare(p, spans.as_deref_mut());
    let t0 = Instant::now();
    let report = vm.run().expect("benchmark run");
    if let Some(s) = spans {
        s.between("vm.run", "bench.cell", t0, Instant::now());
    }
    CellResult {
        high_elapsed: report.elapsed_for(Priority::HIGH),
        overall_elapsed: report.overall_elapsed(),
        metrics: report.global,
    }
}

/// Geometric mean over (mix, ratio) pairs of modified / unmodified.
fn geomean_ratio(results: &[CellResult], f: impl Fn(&CellResult) -> u64) -> f64 {
    let logs: Vec<f64> =
        results.chunks(2).map(|p| (f(&p[1]) as f64 / f(&p[0]) as f64).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

pub fn run(opts: &Opts) -> Outcome {
    let cells = cells(opts.seed);
    let build_all = || {
        for p in &cells {
            drop(prepare(p, None));
        }
    };
    let ((), setup_times) = repeated_setup(build_all, drop);

    let mut out = Outcome::default();
    let mut first: Option<Vec<CellResult>> = None;
    let mut spans = Spans::default();
    // Host seconds per cell, over untraced passes.
    let mut cell_s: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let pass_s = passes(opts, |traced| {
        let results: Vec<CellResult> = cells
            .iter()
            .zip(&mut cell_s)
            .map(|(p, times)| {
                let t = Instant::now();
                let r = run_cell(p, traced.then_some(&mut spans));
                if !traced {
                    times.push(t.elapsed().as_secs_f64());
                }
                r
            })
            .collect();
        for (i, (p, r)) in cells.iter().zip(&results).enumerate() {
            let threads = (p.high_threads + p.low_threads) as u64;
            let commits_ok = r.metrics.sections_committed == threads * p.sections as u64;
            let rollbacks_ok = p.modified || r.metrics.rollbacks == 0;
            let same = first.as_ref().is_none_or(|f| {
                (f[i].high_elapsed, f[i].overall_elapsed, f[i].metrics)
                    == (r.high_elapsed, r.overall_elapsed, r.metrics)
            });
            out.attempted += 1;
            if !(commits_ok && rollbacks_ok && same) {
                out.failed += 1;
                println!(
                    "cell {}+{} w{} {}: commits ok {commits_ok}, no unmodified rollbacks {rollbacks_ok}, \
                     same as first pass {same}",
                    p.high_threads,
                    p.low_threads,
                    p.write_pct,
                    if p.modified { "modified" } else { "unmodified" }
                );
            }
        }
        first.get_or_insert(results);
    });
    let pass = pass_s[0].len() + pass_s[1].len();
    let results = first.expect("at least one pass");
    out.check(
        format!("{} cells: each commits threads x sections; unmodified VM never rolls back; passes agree", out.attempted),
        out.failed == 0,
    );
    let sim_high = geomean_ratio(&results, |c| c.high_elapsed);
    let sim_overall = geomean_ratio(&results, |c| c.overall_elapsed);
    // Every pass repeats identical deterministic work, so a cell's
    // fastest repetition is its least-disturbed one (see corpus.rs).
    let grid_s: f64 = cell_s.iter().map(|t| fastest(t)).sum();
    let grid_median_s: f64 = cell_s.iter().map(|t| median(t)).sum();
    println!(
        "paper-grid: pass seconds {pass_s:.3?}; per-cell fastest summed {grid_s:.3}, medians summed \
         {grid_median_s:.3}"
    );
    println!(
        "paper-grid: {pass} passes of {} cells; simulated modified/unmodified geomean: high {sim_high:.4}, \
         overall {sim_overall:.4}",
        cells.len()
    );

    let cell_us = sorted(&cell_s.iter().map(|t| fastest(t) * 1e6).collect::<Vec<_>>());
    out.metric("setup_s", median(&setup_times), "s");
    out.end_to_end(
        cells.len() as f64 / grid_s,
        percentile(&cell_us, 50.0),
        percentile(&cell_us, 90.0),
        percentile(&cell_us, 99.0),
    );
    out.metric("grid_s", grid_s, "s");
    out.metric("sim_high_ratio", sim_high, "ratio");
    out.metric("sim_overall_ratio", sim_overall, "ratio");

    if opts.trace {
        let traced_ns: f64 = pass_s[1].iter().sum::<f64>() * 1e9;
        let traced_passes = pass_s[1].len() as f64;
        let run_s = spans.total_ns("vm.run") as f64 / 1e9 / traced_passes;
        let instructions: u64 = results.iter().map(|c| c.metrics.instructions).sum();
        out.metric("vm.build_us", spans.pct_ns("vm.prepare", 50.0) / 1e3, "us");
        out.metric("vm.run_ms", run_s * 1e3, "ms");
        out.metric("vm.new_share", spans.total_ns("vm.prepare") as f64 / traced_ns, "ratio");
        out.metric("vm.run_share", spans.total_ns("vm.run") as f64 / traced_ns, "ratio");
        out.metric("vm.instr_per_s", instructions as f64 / run_s, "1/s");
        report::vm_counts(&mut out, |f| {
            results.iter().map(|c| c.metrics.field(f).expect("a Metrics field")).sum()
        });
        out.metric("vm.sim_high_ratio", sim_high, "ratio");
        out.metric("vm.sim_overall_ratio", sim_overall, "ratio");
        out.metric("bench.trace_overhead", overhead(&pass_s[0], &pass_s[1]), "ratio");
        spans.print();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_cell_matches_run_cell() {
        let scale = Scale::smoke();
        for modified in [false, true] {
            let p = BenchParams {
                high_threads: 2,
                low_threads: 3,
                high_iters: scale.high_iters_small,
                low_iters: scale.low_iters,
                sections: scale.sections,
                write_pct: 60,
                modified,
                seed: 11,
                quantum: scale.quantum,
            };
            let a = run_cell(&p, Some(&mut Spans::default()));
            let b = revmon_bench::run_cell(&p);
            assert_eq!(
                (a.high_elapsed, a.overall_elapsed, a.metrics),
                (b.high_elapsed, b.overall_elapsed, b.metrics)
            );
        }
    }
}
