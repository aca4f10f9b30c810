//! Deterministic execution of one program under one decision script.
//!
//! The runner is the explorer's execution substrate. A run starts from a
//! snapshot: a forked VM parked just before a scheduling round, together
//! with a clone of the invariant [`Oracle`]'s shadow state and the
//! choice points, violations and round count accumulated up to that
//! round. The runner builds the program's root snapshot — the VM right
//! after spawning the entry thread — once, on first use, and every
//! [`Runner::run`] resumes from it, so no run rebuilds or re-verifies
//! the program. The explorer also resumes runs from snapshots taken
//! inside earlier runs instead of replaying their prefixes.
//!
//! Each run installs a [`Scripted`] policy for the rest of its script,
//! then drives [`Vm::run_round`] one scheduling round at a time. Before
//! each round with ≥ 2 queued threads it fingerprints the machine; if
//! the round consumed a scheduling decision, that fingerprint
//! identifies the choice point for deduplication. A round entered with
//! fewer queued threads can still consume a decision (a sleeper woken
//! inside the round joins the queue), and such a point is recorded with
//! fingerprint `0`: it has no identity.
//!
//! The explorer steers its runs with hooks: consulted before every
//! fingerprinted round, they may ask for a snapshot of the machine there
//! (kept if the round consumes a decision, and handed back with the
//! outcome); consulted after every recorded choice point, they may end
//! the run there with [`Terminal::Cut`]. It uses them to share one
//! snapshot among all siblings of a choice point and to stop a schedule
//! once it reaches a choice point whose default future it has already
//! executed. [`Runner::run`] takes no snapshots and never stops early.

use crate::invariants::{check_state, check_terminal, Oracle, OracleState, Violation};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{
    DecisionRecord, RoundOutcome, SchedulePolicy, SchedulerKind, Scripted, Vm, VmConfig, VmError,
};
use std::cell::OnceCell;
use std::rc::Rc;

/// How a scripted run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Every thread terminated.
    Completed,
    /// No thread could make progress (undetected/unbroken deadlock or a
    /// lost wakeup). A distinct terminal class, not automatically a bug.
    Stalled,
    /// The round budget ran out before termination.
    Budget,
    /// A state-invariant violation stopped the run early.
    CheckFailed,
    /// The VM faulted.
    Fault(String),
    /// The explorer's stop hook ended the run at its last recorded
    /// choice point; the final-state fields describe the machine just
    /// after that point's round.
    Cut,
}

/// One multi-candidate choice point passed during a run.
#[derive(Clone, Copy, Debug)]
pub struct DecisionPoint {
    /// State fingerprint immediately before the scheduling round that
    /// consumed this decision.
    pub fingerprint: u64,
    /// What was decided.
    pub record: DecisionRecord,
    /// Scheduling rounds completed before the round that consumed this
    /// decision.
    pub round: u64,
}

/// Everything observable about one scripted run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Choice points in execution order.
    pub decisions: Vec<DecisionPoint>,
    /// How the run ended.
    pub terminal: Terminal,
    /// Fingerprint of the final state.
    pub fingerprint: u64,
    /// Values emitted via the `Emit` native.
    pub output: Vec<Value>,
    /// Final static-slot values (the committed shared state).
    pub statics: Vec<Value>,
    /// Every invariant violation (state checks + oracle).
    pub violations: Vec<Violation>,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Rollbacks the oracle verified.
    pub rollbacks: u64,
    /// Final virtual-clock value.
    pub clock: u64,
    /// Hash of the terminal heap alone (objects + statics). Unlike
    /// `fingerprint` it excludes scheduling state and the clock, so for
    /// data-race-free programs it is identical across schedules *and*
    /// core counts — the cross-core differential property.
    pub heap_fingerprint: u64,
    /// Cross-core revocation IPIs `(posted, acked, stale)` — all zero on
    /// a single core.
    pub ipis: (u64, u64, u64),
}

impl RunOutcome {
    /// The decision indices actually taken — feeding these back as the
    /// script reproduces this run bit-for-bit.
    pub fn choices(&self) -> Vec<u32> {
        self.decisions.iter().map(|d| d.record.chosen).collect()
    }

    /// Forced deviations from the fair default schedule (what the
    /// explorer's context bound counts) in this run.
    pub fn preemptions(&self) -> u32 {
        self.decisions.iter().filter(|d| d.record.is_preemption()).count() as u32
    }

    /// Whether any violation carries the given invariant name.
    pub fn violates(&self, invariant: &str) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }
}

/// A machine state a run can resume from: the VM parked just before a
/// scheduling round, the oracle's shadow state at that instant, and what
/// the drive loop had accumulated by then. Immutable once taken; runs
/// resuming from it fork its VM, except the last holder of an
/// [`Rc`]-shared snapshot, which takes it over.
pub(crate) struct Snapshot {
    vm: Vm,
    oracle: OracleState,
    /// The choice points passed before this round are the first
    /// `decided` of `history` (shared by every snapshot of one run).
    history: Rc<[DecisionPoint]>,
    decided: usize,
    violations: Vec<Violation>,
    rounds: u64,
}

impl Snapshot {
    /// An independent copy, for a run to resume from while others still
    /// hold this one.
    fn duplicate(&self) -> Snapshot {
        Snapshot {
            vm: self.vm.fork(parked(), None),
            oracle: self.oracle.clone(),
            history: Rc::clone(&self.history),
            decided: self.decided,
            violations: self.violations.clone(),
            rounds: self.rounds,
        }
    }

    /// Choice points passed before the round this snapshot precedes —
    /// the length of script a run resuming here skips.
    pub(crate) fn decided(&self) -> usize {
        self.decided
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("decided", &self.decided)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

/// The policy a snapshot's VM holds until a run resumes it under its
/// own script.
fn parked() -> Box<dyn SchedulePolicy> {
    SchedulerKind::RoundRobin.policy()
}

/// Steering for one run (see the module docs).
pub(crate) trait Hooks {
    /// Before a round entered with ≥ 2 queued threads whose machine
    /// fingerprints to `fingerprint`: whether to snapshot the machine
    /// here, for runs that take a different decision in this round.
    fn snapshot(&mut self, fingerprint: u64) -> bool;

    /// After a choice point is recorded: whether to end the run there.
    fn stop(&mut self, point: &DecisionPoint) -> bool;
}

/// [`Hooks`] of a plain run: no snapshot, no early stop.
struct Unsteered;

impl Hooks for Unsteered {
    fn snapshot(&mut self, _fingerprint: u64) -> bool {
        false
    }
    fn stop(&mut self, _point: &DecisionPoint) -> bool {
        false
    }
}

/// A reusable harness: program + entry + base configuration.
#[derive(Clone, Debug)]
pub struct Runner {
    program: Program,
    entry: MethodId,
    entry_name: String,
    config: VmConfig,
    /// The machine right after spawning the entry thread, built on
    /// first use. It depends on nothing but the fields above.
    root: OnceCell<Rc<Snapshot>>,
    /// Hard cap on scheduling rounds per run (0 = unlimited). Guards the
    /// explorer against schedules that diverge.
    pub max_rounds: u64,
    /// Run the (cheap) state invariants between every round, not just at
    /// the end. Default true; the CLI disables it for large corpora.
    pub check_every_round: bool,
}

impl Runner {
    /// A runner executing `entry` of `program` under `config`.
    ///
    /// The scheduler named in `config` is ignored — every run is driven
    /// by a [`Scripted`] policy — but everything else (inversion policy,
    /// cost model, seed, fault injection) applies as configured.
    pub fn new(program: Program, entry_name: &str, config: VmConfig) -> Result<Self, String> {
        let entry = program
            .method_by_name(entry_name)
            .ok_or_else(|| format!("no method named `{entry_name}`"))?;
        if program.method(entry).params != 0 {
            return Err(format!("entry method `{entry_name}` must take no parameters"));
        }
        Ok(Runner {
            program,
            entry,
            entry_name: entry_name.to_string(),
            config,
            root: OnceCell::new(),
            max_rounds: 1_000_000,
            check_every_round: true,
        })
    }

    /// The VM configuration runs execute under.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The entry method name.
    pub fn entry_name(&self) -> &str {
        &self.entry_name
    }

    /// The program this runner executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The snapshot every run from the start resumes from: the VM built
    /// (rewritten, verified) with the entry thread spawned, before its
    /// first round.
    pub(crate) fn root(&self) -> Rc<Snapshot> {
        Rc::clone(self.root.get_or_init(|| {
            let mut vm = Vm::new(self.program.clone(), self.config);
            vm.spawn(&self.entry_name, self.entry, vec![], revmon_core::Priority::NORM);
            Rc::new(Snapshot {
                vm,
                oracle: OracleState::default(),
                history: Rc::new([]),
                decided: 0,
                violations: Vec::new(),
                rounds: 0,
            })
        }))
    }

    /// Execute the program once under `script`, collecting decisions,
    /// fingerprints and violations.
    pub fn run(&self, script: &[u32]) -> RunOutcome {
        self.resume(self.root(), script, &mut Unsteered).0
    }

    /// Run `script` starting from `from`, whose first
    /// [`decided`](Snapshot::decided) choice points must be the script's
    /// own (they are skipped, not replayed). The outcome is the one
    /// a run from the root would give; alongside it come the
    /// snapshots `hooks` asked for, each with the index of the choice
    /// point whose round it precedes, in run order. If `from` is its
    /// last holder the run takes its machine over instead of forking it.
    pub(crate) fn resume(
        &self,
        from: Rc<Snapshot>,
        script: &[u32],
        hooks: &mut impl Hooks,
    ) -> (RunOutcome, Vec<(usize, Rc<Snapshot>)>) {
        debug_assert!(
            from.history[..from.decided]
                .iter()
                .map(|d| d.record.chosen)
                .eq(script.iter().copied().take(from.decided)),
            "the snapshot's decisions must be the script's prefix"
        );
        let (policy, log) = Scripted::new(script.get(from.decided..).unwrap_or(&[]).to_vec());
        let Snapshot { mut vm, oracle, history, decided, mut violations, mut rounds } =
            Rc::try_unwrap(from).unwrap_or_else(|shared| shared.duplicate());
        let (oracle, oracle_state) = Oracle::with_state(oracle);
        vm.set_schedule_policy(Box::new(policy));
        vm.attach_probe(Box::new(oracle));
        let mut decisions = history[..decided].to_vec();

        // Snapshots taken so far, still waiting for the run's history.
        let mut taken: Vec<(usize, Snapshot)> = Vec::new();
        let terminal = loop {
            // A round can only consume a decision when ≥ 2 threads are
            // queued; skip the (expensive) fingerprint otherwise.
            let fingerprint = if vm.run_queue_len() >= 2 { vm.state_fingerprint() } else { 0 };
            let snapshot = (fingerprint != 0 && hooks.snapshot(fingerprint)).then(|| Snapshot {
                vm: vm.fork(parked(), None),
                oracle: oracle_state.lock().expect("oracle state").clone(),
                history: Rc::new([]), // the run's, once it ends
                decided: decisions.len(),
                violations: violations.clone(),
                rounds,
            });
            let consumed_before = log.lock().expect("script log").len();
            match vm.run_round() {
                Ok(RoundOutcome::Done) => break Terminal::Completed,
                Ok(_) => {}
                Err(VmError::Stalled(_)) => break Terminal::Stalled,
                Err(e) => break Terminal::Fault(e.to_string()),
            }
            let decided = {
                let recs = log.lock().expect("script log");
                debug_assert!(recs.len() <= consumed_before + 1);
                recs.get(consumed_before).map(|&record| DecisionPoint {
                    fingerprint,
                    record,
                    round: rounds,
                })
            };
            if let Some(dp) = decided {
                // A snapshot is only worth keeping before a round that
                // decided something: other runs decide differently here.
                taken.extend(snapshot.map(|s| (decisions.len(), s)));
                decisions.push(dp);
            }
            if self.check_every_round {
                let vs = check_state(&vm);
                if !vs.is_empty() {
                    violations.extend(vs);
                    break Terminal::CheckFailed;
                }
            }
            rounds += 1;
            if decided.is_some_and(|dp| hooks.stop(&dp)) {
                break Terminal::Cut;
            }
            if self.max_rounds != 0 && rounds >= self.max_rounds {
                break Terminal::Budget;
            }
        };

        if terminal == Terminal::Completed {
            violations.extend(check_terminal(&vm));
        } else if !self.check_every_round {
            violations.extend(check_state(&vm));
        }
        let st = oracle_state.lock().expect("oracle state");
        violations.extend(st.violations.iter().cloned());

        let history: Rc<[DecisionPoint]> = Rc::from(&decisions[..]);
        let snapshots = taken
            .into_iter()
            .map(|(at, snap)| (at, Rc::new(Snapshot { history: Rc::clone(&history), ..snap })))
            .collect();
        let statics = (0..vm.heap().static_count())
            .map(|i| {
                vm.heap().read(revmon_vm::heap::Location::Static(i as u32)).unwrap_or(Value::Null)
            })
            .collect();
        let outcome = RunOutcome {
            decisions,
            terminal,
            fingerprint: vm.state_fingerprint(),
            output: vm.output().to_vec(),
            statics,
            violations,
            rounds,
            rollbacks: st.rollbacks_checked,
            clock: vm.clock(),
            heap_fingerprint: vm.heap_fingerprint(),
            ipis: (vm.ipis_posted(), vm.ipis_acked(), vm.ipis_stale()),
        };
        (outcome, snapshots)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    #[test]
    fn empty_script_is_the_preemption_free_run() {
        let runner = testprogs::two_incrementers(1);
        let out = runner.run(&[]);
        assert_eq!(out.terminal, Terminal::Completed);
        assert_eq!(out.preemptions(), 0);
        assert!(out.violations.is_empty(), "violations: {:?}", out.violations);
    }

    #[test]
    fn replaying_recorded_choices_reproduces_the_run() {
        let runner = testprogs::two_incrementers(1);
        let a = runner.run(&[1]);
        let b = runner.run(&a.choices());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.output, b.output);
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.choices(), b.choices());
    }

    #[test]
    fn different_choices_reach_different_intermediate_schedules() {
        let runner = testprogs::two_incrementers(1);
        let a = runner.run(&[]);
        // Deviate from the baseline at its first decision point.
        let first = a.decisions.first().expect("baseline has decisions").record;
        let alt = (0..first.n_candidates).find(|&c| c != first.chosen).expect(">= 2 candidates");
        let b = runner.run(&[alt]);
        // Same program, same final committed state (DRF counter), but the
        // schedules must actually differ somewhere.
        assert_eq!(a.statics, b.statics);
        assert_ne!(a.choices(), b.choices());
    }
}
