//! The invariant catalog and the rollback oracle.
//!
//! Two layers of checking run during exploration:
//!
//! * **State invariants** ([`check_state`] / [`check_terminal`]) inspect
//!   the VM between scheduling rounds: monitor-header legality,
//!   prioritized entry-queue well-formedness, priority-boost sanity, and
//!   — at terminal states — that every undo log has been drained and no
//!   speculative write survives.
//! * **The [`Oracle`]** rides along as an execution [`Probe`], mirroring
//!   the write barrier: it snapshots the first-overwritten value of every
//!   location logged under each active section and, when a rollback
//!   completes, verifies the heap actually reads those pre-section values
//!   again (the paper's §3.1.2 claim that the undo log restores *"the
//!   (old) value itself"*). It also mirrors the speculative-write map to
//!   prove the JMM guard's soundness end to end: a value observed by
//!   another thread must never be rolled back (§2.2, Figs. 2–3).
//!
//! Every violated check becomes a [`Violation`] with a stable name, so
//! schedule artifacts can assert "this schedule reproduces *that* bug".

use revmon_core::fx::FxMap;
use revmon_core::ThreadId;
use revmon_vm::heap::Location;
use revmon_vm::thread::ThreadState;
use revmon_vm::value::{ObjRef, Value};
use revmon_vm::{Probe, Vm};
use std::sync::{Arc, Mutex};

/// A broken invariant, with a stable machine-readable name and a
/// human-readable account of what was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (e.g. `rollback-restoration`).
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Invariants checkable on any reachable state (between rounds).
pub fn check_state(vm: &Vm) -> Vec<Violation> {
    let mut v = Vec::new();
    let threads = vm.vm_threads();

    // No lost IPI: every cross-core revocation request ever posted is
    // either already acknowledged or still sitting in exactly one core
    // mailbox awaiting delivery. A posted-but-neither state would mean a
    // revocation request silently vanished in the revoker→victim
    // handshake.
    if vm.ipis_posted() != vm.ipis_acked() + vm.ipis_pending() as u64 {
        v.push(Violation {
            invariant: "no-lost-ipi",
            detail: format!(
                "{} IPIs posted but {} acked + {} pending",
                vm.ipis_posted(),
                vm.ipis_acked(),
                vm.ipis_pending()
            ),
        });
    }

    // Bounded revocation (no livelock by repeat-revocation): under an
    // enabled governor with retry budget `k`, no `(monitor, holder)`
    // pair's consecutive-revocation streak may ever exceed `k` — the
    // consult that would start revocation `k + 1` must have answered
    // `Fallback`, sending the contender to the prioritized entry queue.
    let gov = vm.config().governor;
    if gov.enabled() {
        let streak = vm.governor().max_streak();
        if streak > gov.k {
            v.push(Violation {
                invariant: "bounded-revocation",
                detail: format!(
                    "revocation streak {streak} exceeds the governor budget k={}",
                    gov.k
                ),
            });
        }
    }

    for (obj, m) in vm.monitor_table().iter() {
        // Monitor-header state machine: owner and recursion move together.
        match m.owner {
            None => {
                if m.recursion != 0 {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: unowned but recursion={}", m.recursion),
                    });
                }
            }
            Some(owner) => {
                if m.recursion == 0 {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owned by {owner:?} with recursion=0"),
                    });
                }
                let t = &threads[owner.index()];
                if !t.held.contains(obj) {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owner {owner:?} does not list it as held"),
                    });
                }
                if matches!(t.state, ThreadState::BlockedEnter(b) if b == *obj) {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owner {owner:?} is blocked entering it"),
                    });
                }
            }
        }

        // Entry-queue well-formedness: internal order intact, no queued
        // owner, every queued thread really is suspended on this monitor.
        if !m.queue.is_well_formed() {
            v.push(Violation {
                invariant: "entry-queue",
                detail: format!("{obj}: arrival sequence numbers out of order"),
            });
        }
        for (&tid, _prio) in m.queue.iter_entries() {
            if m.owner == Some(tid) {
                v.push(Violation {
                    invariant: "entry-queue",
                    detail: format!("{obj}: owner {tid:?} is also queued"),
                });
            }
            let ok = matches!(
                threads[tid.index()].state,
                ThreadState::BlockedEnter(b) | ThreadState::BlockedReacquire(b) if b == *obj
            );
            if !ok {
                v.push(Violation {
                    invariant: "entry-queue",
                    detail: format!(
                        "{obj}: queued thread {tid:?} is in state {:?}",
                        threads[tid.index()].state
                    ),
                });
            }
        }
        for &tid in &m.wait_set {
            if !matches!(threads[tid.index()].state, ThreadState::Waiting(w) if w == *obj) {
                v.push(Violation {
                    invariant: "wait-set",
                    detail: format!(
                        "{obj}: wait-set thread {tid:?} is in state {:?}",
                        threads[tid.index()].state
                    ),
                });
            }
        }

        // Combiner queue: submissions exist only while someone holds the
        // monitor — every release drains (or hands the queue to a
        // granted waiter, which sets the owner synchronously), so an
        // unowned monitor with queued submissions is a stranded one.
        if !m.submissions.is_empty() && m.owner.is_none() {
            v.push(Violation {
                invariant: "combiner-queue",
                detail: format!(
                    "{obj}: {} submissions queued with no owner to drain them",
                    m.submissions.len()
                ),
            });
        }
    }

    for t in threads {
        // A thread parked on a delegation token must await a minted one.
        if let ThreadState::AwaitingDelegation(tok) = t.state {
            if tok >= vm.delegation_tokens() {
                v.push(Violation {
                    invariant: "combiner-queue",
                    detail: format!("{:?} awaits unminted delegation token {tok}", t.id),
                });
            }
        }
        // Priority boosts only ever raise a thread above its base.
        if t.effective_priority < t.base_priority {
            v.push(Violation {
                invariant: "priority-boost",
                detail: format!(
                    "{:?}: effective {:?} below base {:?}",
                    t.id, t.effective_priority, t.base_priority
                ),
            });
        }
        // Every held monitor agrees it is held.
        for &obj in &t.held {
            if vm.monitor_table().get(obj).map(|m| m.owner) != Some(Some(t.id)) {
                v.push(Violation {
                    invariant: "monitor-header",
                    detail: format!("{:?} lists {obj} as held but is not its owner", t.id),
                });
            }
        }
        // Sections and undo logs exist only while the thread is alive.
        if t.is_terminated() && (!t.sections.is_empty() || !t.undo.is_empty()) {
            v.push(Violation {
                invariant: "undo-drained",
                detail: format!(
                    "{:?} terminated with {} live sections, {} undo entries",
                    t.id,
                    t.sections.len(),
                    t.undo.len()
                ),
            });
        }
    }
    v
}

/// Invariants that must hold once every thread has terminated: all
/// shared-state speculation fully resolved.
pub fn check_terminal(vm: &Vm) -> Vec<Violation> {
    let mut v = check_state(vm);
    for t in vm.vm_threads() {
        if !t.is_terminated() {
            return v; // not a terminal state; only the general checks apply
        }
    }
    if !vm.jmm_guard().is_empty() {
        v.push(Violation {
            invariant: "jmm-drained",
            detail: format!(
                "{} speculative writes live after all threads terminated: {:?}",
                vm.jmm_guard().len(),
                vm.jmm_guard().entries()
            ),
        });
    }
    for (obj, m) in vm.monitor_table().iter() {
        if m.owner.is_some() || !m.queue.is_empty() || !m.wait_set.is_empty() {
            v.push(Violation {
                invariant: "monitor-drained",
                detail: format!(
                    "{obj}: owner {:?}, {} queued, {} waiting at termination",
                    m.owner,
                    m.queue.len(),
                    m.wait_set.len()
                ),
            });
        }
    }
    // Revoke-ack liveness: every posted IPI has been delivered and
    // acknowledged by the time all threads terminate — no request may be
    // stranded in a core mailbox. (The VM only declares a run done after
    // a full core scan, which drains every mailbox first, so a pending
    // IPI here means the handshake lost liveness.)
    if vm.ipis_pending() != 0 {
        v.push(Violation {
            invariant: "revoke-ack-liveness",
            detail: format!(
                "{} IPIs still undelivered after all threads terminated",
                vm.ipis_pending()
            ),
        });
    }
    // Exactly-once liveness: every submitted section has executed by the
    // time all threads terminate — no submission may be stranded in a
    // combiner queue.
    if vm.delegations_pending() != 0 {
        v.push(Violation {
            invariant: "delegation-drained",
            detail: format!(
                "{} delegated submissions still queued after all threads terminated",
                vm.delegations_pending()
            ),
        });
    }
    v
}

/// One mirrored section layer: the undo-log length at entry and the
/// first-overwritten (pre-section) value of every location logged while
/// it was the innermost *recorded* layer.
#[derive(Clone, Debug)]
struct Layer {
    mark_len: usize,
    expected: FxMap<Location, Value>,
}

/// Shared oracle state, read by the runner after the VM run finishes.
/// The shadow maps are touched on every logged heap write, so they are
/// keyed through the Fx hasher rather than SipHash. A clone taken
/// between rounds, together with a fork of the VM, lets a run resume
/// from that point with the rollback checks intact.
#[derive(Clone, Debug, Default)]
pub struct OracleState {
    /// Violations detected by the probe hooks.
    pub violations: Vec<Violation>,
    /// Rollbacks the oracle verified.
    pub rollbacks_checked: u64,
    /// Commits observed.
    pub commits: u64,
    /// Per-thread mirror of active section layers.
    layers: FxMap<ThreadId, Vec<Layer>>,
    /// Mirror of the speculative-write map: location → (writer, value),
    /// plus whether a *different* thread has observed the value.
    speculative: FxMap<Location, (ThreadId, Value, bool)>,
}

/// The execution probe that mirrors the write barrier and verifies
/// rollbacks. Construct with [`Oracle::new`]; hand the probe to
/// [`Vm::attach_probe`] and keep the state handle.
#[derive(Debug)]
pub struct Oracle {
    state: Arc<Mutex<OracleState>>,
}

impl Oracle {
    /// A fresh oracle and its shared state handle.
    pub fn new() -> (Self, Arc<Mutex<OracleState>>) {
        Self::with_state(OracleState::default())
    }

    /// An oracle continuing from `state` (a clone taken when the VM it
    /// checks was forked), and its shared state handle.
    pub(crate) fn with_state(state: OracleState) -> (Self, Arc<Mutex<OracleState>>) {
        let state = Arc::new(Mutex::new(state));
        (Oracle { state: state.clone() }, state)
    }
}

impl Probe for Oracle {
    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let mut st = self.state.lock().expect("oracle state");
        let mark_len = vm.vm_threads()[tid.index()].undo.len();
        st.layers.entry(tid).or_default().push(Layer { mark_len, expected: FxMap::default() });
    }

    fn on_heap_write(
        &mut self,
        _vm: &Vm,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
        if !logged {
            // Unlogged writes happen only outside synchronized sections,
            // where the writer cannot have live speculative entries.
            return;
        }
        let mut st = self.state.lock().expect("oracle state");
        let st = &mut *st;
        if let Some(top) = st.layers.get_mut(&tid).and_then(|layers| layers.last_mut()) {
            top.expected.entry(loc).or_insert(old);
        }
        st.speculative.insert(loc, (tid, new, false));
    }

    fn on_heap_read(&mut self, _vm: &Vm, tid: ThreadId, loc: Location, value: Value) {
        let mut st = self.state.lock().expect("oracle state");
        if let Some(entry) = st.speculative.get_mut(&loc) {
            if entry.0 != tid && entry.1 == value {
                entry.2 = true; // a foreign thread observed the speculation
            }
        }
    }

    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let mut st = self.state.lock().expect("oracle state");
        st.commits += 1;
        st.layers.remove(&tid);
        st.speculative.retain(|_, &mut (w, _, _)| w != tid);
        // The VM retired the whole log at outermost exit; double-check.
        if !vm.vm_threads()[tid.index()].undo.is_empty() {
            st.violations.push(Violation {
                invariant: "undo-drained",
                detail: format!("{tid:?}: undo log not empty after outermost commit"),
            });
        }
    }

    fn on_rollback(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef, _entries: u64) {
        let mut st = self.state.lock().expect("oracle state");
        let st = &mut *st;
        st.rollbacks_checked += 1;
        // Everything past the post-rollback log length was undone.
        let restored_to = vm.vm_threads()[tid.index()].undo.len();
        let layers = st.layers.remove(&tid).unwrap_or_default();
        let (kept, undone): (Vec<Layer>, Vec<Layer>) =
            layers.into_iter().partition(|l| l.mark_len < restored_to);

        // Merge expectations outermost-first: the value a location must
        // read after rollback is the *oldest* logged pre-value.
        let mut expected: FxMap<Location, Value> = FxMap::default();
        for layer in &undone {
            for (&loc, &old) in &layer.expected {
                expected.entry(loc).or_insert(old);
            }
        }
        for (loc, want) in &expected {
            match vm.heap().read(*loc) {
                Ok(got) if got == *want => {}
                Ok(got) => st.violations.push(Violation {
                    invariant: "rollback-restoration",
                    detail: format!(
                        "{tid:?} rolled back {monitor}: {loc:?} reads {got}, expected pre-section value {want}"
                    ),
                }),
                Err(e) => st.violations.push(Violation {
                    invariant: "rollback-restoration",
                    detail: format!("{tid:?} rolled back {monitor}: {loc:?} unreadable: {e}"),
                }),
            }
        }

        // JMM soundness: none of the undone writes may have been observed
        // by another thread while speculative.
        for (loc, &(w, val, seen)) in st.speculative.iter() {
            if w == tid && seen && expected.contains_key(loc) {
                st.violations.push(Violation {
                    invariant: "jmm-observed-write-revoked",
                    detail: format!(
                        "{tid:?} rolled back {monitor}: speculative value {val} at {loc:?} had been observed by another thread"
                    ),
                });
            }
        }
        st.speculative.retain(|loc, &mut (w, _, _)| !(w == tid && expected.contains_key(loc)));

        // The surviving (post-wait restart) section, if any, starts a
        // fresh expectation layer at the restored log length.
        let mut layers = kept;
        let live_sections = vm.vm_threads()[tid.index()].sections.len();
        while layers.len() < live_sections {
            layers.push(Layer { mark_len: restored_to, expected: FxMap::default() });
        }
        if !layers.is_empty() {
            st.layers.insert(tid, layers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmon_core::Priority;
    use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
    use revmon_vm::VmConfig;

    fn run_with_oracle(fault_skip: u32) -> (Arc<Mutex<OracleState>>, Vm) {
        // A low thread holds the lock through long work; a high thread
        // arrives and revokes it. The section bumps two statics so a
        // skipped restore is observable.
        let mut pb = ProgramBuilder::new();
        pb.statics(2);
        let worker = pb.declare_method("worker", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.get_static(0);
            b.const_i(1);
            b.add();
            b.put_static(0);
            b.get_static(1);
            b.const_i(10);
            b.add();
            b.put_static(1);
            b.const_i(60_000);
            b.work();
        });
        b.ret_void();
        pb.implement(worker, b);
        let program = pb.finish();

        let mut cfg = VmConfig::modified();
        cfg.fault_skip_undo = fault_skip;
        let mut vm = Vm::new(program, cfg);
        let lock = vm.heap_mut().alloc(0, 0);
        vm.spawn("low", worker, vec![Value::Ref(lock)], Priority::LOW);
        vm.spawn("high", worker, vec![Value::Ref(lock)], Priority::HIGH);
        let (oracle, state) = Oracle::new();
        vm.attach_probe(Box::new(oracle));
        vm.run().expect("run completes");
        (state, vm)
    }

    #[test]
    fn correct_rollback_passes_the_oracle() {
        let (state, vm) = run_with_oracle(0);
        let st = state.lock().unwrap();
        assert!(st.rollbacks_checked > 0, "scenario must actually revoke");
        assert!(st.violations.is_empty(), "violations: {:?}", st.violations);
        assert!(check_terminal(&vm).is_empty());
    }

    #[test]
    fn injected_rollback_fault_is_caught() {
        let (state, _vm) = run_with_oracle(1);
        let st = state.lock().unwrap();
        assert!(
            st.violations.iter().any(|v| v.invariant == "rollback-restoration"),
            "fault not caught: {:?}",
            st.violations
        );
    }

    #[test]
    fn clean_vm_state_has_no_violations() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let main = pb.declare_method("main", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.const_i(1);
        b.put_static(0);
        b.ret_void();
        pb.implement(main, b);
        let mut vm = Vm::new(pb.finish(), VmConfig::modified());
        vm.spawn("main", main, vec![], Priority::NORM);
        assert!(check_state(&vm).is_empty());
        vm.run().unwrap();
        assert!(check_terminal(&vm).is_empty());
    }
}
