//! Green threads: frames, synchronized-section records, undo logs.
//!
//! Threads in this VM are *pseudo-preemptive* exactly as in Jikes RVM
//! (§3.1, footnote 4): context switches happen only at yield points
//! (explicit `Yield`, taken backward branches, method entries, and
//! monitor operations), which is also where pending revocations are acted
//! upon.

use crate::bytecode::MethodId;
use crate::heap::Location;
use crate::value::{ObjRef, Value};
use revmon_core::{LogMark, Metrics, Priority, ThreadId, UndoLog};

/// One logged update: where and what the old value was. Matches the
/// paper's log record ("object or array reference, value offset and the
/// (old) value itself"; statics: "offset of the static variable in the
/// global symbol table and the old value").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndoEntry {
    /// Overwritten location.
    pub loc: Location,
    /// Value to restore on rollback.
    pub old: Value,
}

/// An activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Executing method.
    pub method: MethodId,
    /// Next instruction index.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Set when this frame executes a *delegated* critical section on
    /// behalf of a submitter (see [`DelegatedFrame`]): its return
    /// completes the submission's token instead of pushing a value onto
    /// the caller's stack.
    pub delegated: Option<DelegatedFrame>,
}

impl Frame {
    /// A fresh ordinary (non-delegated) frame.
    pub fn new(method: MethodId, locals: Vec<Value>) -> Self {
        Frame { method, pc: 0, locals, stack: Vec::new(), delegated: None }
    }
}

/// Combiner bookkeeping attached to a frame executing a delegated
/// critical section (`Insn::Delegate` submissions drained by the
/// monitor's current holder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegatedFrame {
    /// Completion token of the submission this frame executes.
    pub token: u32,
    /// The combiner's monitor.
    pub monitor: ObjRef,
    /// The thread that submitted the section (event attribution).
    pub submitter: ThreadId,
    /// Whether the executor acquired the monitor *solely* to combine
    /// (a `Delegate` on a free monitor): its return drains further
    /// submissions and then releases. Holders draining at `MonitorExit`
    /// leave this false — control returns to the pending exit instead.
    pub release_on_return: bool,
}

/// Saved frame state for re-execution (the paper's injected
/// "save the values on the operand stack just before each rollback-scope's
/// monitorenter" plus local variables, §3.1.1).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Saved locals.
    pub locals: Vec<Value>,
    /// Saved operand stack (monitor reference on top, so re-execution
    /// re-runs `MonitorEnter` itself).
    pub stack: Vec<Value>,
    /// pc to resume at (the `SaveState` instruction, or the instruction
    /// after `Wait` for post-wait restart points).
    pub resume_pc: u32,
    /// Whether resuming requires re-acquiring the monitor first (post-wait
    /// restart): the snapshot resumes *inside* the section rather than at
    /// its `MonitorEnter`.
    pub after_wait: bool,
}

/// An active synchronized-section record, pushed at `MonitorEnter` and
/// popped at `MonitorExit` or by rollback.
#[derive(Clone, Debug)]
pub struct Section {
    /// The monitor object.
    pub monitor: ObjRef,
    /// Globally unique acquisition id — the rollback exception's target
    /// identity (§3.1.1: the handler "checks if it corresponds to the
    /// synchronized section that is to be re-executed").
    pub acq_id: u64,
    /// Undo-log mark taken at entry.
    pub mark: LogMark,
    /// Index of the frame executing the section.
    pub frame_depth: usize,
    /// Saved state for re-execution; `None` when the section was entered
    /// through unrewritten code (unmodified VM) and can never roll back.
    pub snapshot: Option<Snapshot>,
    /// Cleared when the JMM-consistency guard, a native call, or a nested
    /// `wait` forbids revocation of this execution (§2.2).
    pub revocable: bool,
    /// Static extent `[enter_pc, exit_pc)` of the region in its method's
    /// code, when known (structured `sync_on_local` blocks / rewritten
    /// regions). Used to release monitors correctly while unwinding user
    /// exceptions. `None` (raw unstructured enter) pessimistically covers
    /// the whole method.
    pub region: Option<(u32, u32)>,
    /// Virtual-clock tick at which this execution entered the section.
    /// A rollback discards `now − entered_at` ticks of section work; the
    /// revocation governor accounts them against the monitor.
    pub entered_at: u64,
    /// Under the delegation policy, the submission token assigned when
    /// this section's thread blocked on a contended `MonitorEnter`: the
    /// section *is* the submitted continuation, and popping it emits the
    /// matching `DelegateComplete`. `None` for uncontended entries and
    /// all other policies.
    pub delegated: Option<u32>,
}

impl Section {
    /// Whether this execution can currently be revoked.
    pub fn can_revoke(&self) -> bool {
        self.revocable && self.snapshot.is_some()
    }
}

/// Scheduling state of a green thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting for the scheduler.
    Ready,
    /// Currently executing.
    Running,
    /// Queued on a monitor's entry queue (contended `MonitorEnter`).
    BlockedEnter(ObjRef),
    /// In a monitor's wait set (`Object.wait`).
    Waiting(ObjRef),
    /// Notified (or rolled back to a post-wait restart): queued to
    /// re-acquire the monitor before resuming.
    BlockedReacquire(ObjRef),
    /// Asleep until the given virtual-clock tick.
    Sleeping(u64),
    /// Blocked in `Join` until the given thread terminates.
    BlockedJoin(ThreadId),
    /// Blocked in `Await` until the delegated call with this token
    /// completes.
    AwaitingDelegation(u32),
    /// Finished.
    Terminated,
}

/// A green thread.
#[derive(Clone, Debug)]
pub struct VmThread {
    /// Identity.
    pub id: ThreadId,
    /// Diagnostic name.
    pub name: String,
    /// Base (programmer-assigned) priority.
    pub base_priority: Priority,
    /// Effective priority (base, possibly boosted by priority
    /// inheritance or a ceiling while holding monitors).
    pub effective_priority: Priority,
    /// Activation stack.
    pub frames: Vec<Frame>,
    /// Active synchronized sections, innermost last.
    pub sections: Vec<Section>,
    /// Sequential undo buffer.
    pub undo: UndoLog<UndoEntry>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Pending revocation: acquisition id of the section to roll back,
    /// set by a higher-priority contender (or the deadlock breaker) and
    /// honoured at the next yield point.
    pub pending_revoke: Option<u64>,
    /// Monitors currently held (one entry per first acquisition, with
    /// recursion counted in the monitor itself). Used to recompute
    /// effective priority when inheritance boosts expire.
    pub held: Vec<ObjRef>,
    /// Virtual time when the thread first ran (`run()` entry timestamp).
    pub start_time: Option<u64>,
    /// Virtual time when the thread terminated.
    pub end_time: Option<u64>,
    /// Per-thread counters.
    pub metrics: Metrics,
    /// Saved wait-set recursion count while in `Object.wait` (the monitor
    /// is fully released and re-acquired to this depth).
    pub wait_recursion: u32,
    /// Consecutive revocations of the current section execution without an
    /// intervening commit — the livelock guard consults this.
    pub consecutive_revocations: u32,
    /// Snapshot produced by the last `SaveState`, consumed by the next
    /// `MonitorEnter` (possibly after blocking on the entry queue).
    pub pending_snapshot: Option<Snapshot>,
    /// Under the delegation policy, the token minted when this thread
    /// blocked on a contended `MonitorEnter` (its continuation became the
    /// submission); consumed by `grant` to stamp the granted section.
    pub pending_delegation_token: Option<u32>,
    /// Class tag of an uncaught exception that terminated the thread.
    pub uncaught: Option<u32>,
    /// Simulated core this thread is pinned to (`id % cores`, assigned
    /// at spawn). Always 0 in single-core configurations.
    pub core: usize,
}

impl VmThread {
    /// A fresh thread about to execute `method` with `args`.
    pub fn new(
        id: ThreadId,
        name: String,
        priority: Priority,
        method: MethodId,
        locals: u16,
        args: Vec<Value>,
    ) -> Self {
        let mut l = args;
        l.resize(locals as usize, Value::Null);
        VmThread {
            id,
            name,
            base_priority: priority,
            effective_priority: priority,
            frames: vec![Frame::new(method, l)],
            sections: Vec::new(),
            undo: UndoLog::new(),
            state: ThreadState::Ready,
            pending_revoke: None,
            held: Vec::new(),
            start_time: None,
            end_time: None,
            metrics: Metrics::new(),
            wait_recursion: 0,
            consecutive_revocations: 0,
            pending_snapshot: None,
            pending_delegation_token: None,
            uncaught: None,
            core: 0,
        }
    }

    /// The current (top) frame.
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frames")
    }

    /// The current frame, mutably.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frames")
    }

    /// Innermost active section, if any. The write-barrier fast path is
    /// exactly `!self.in_section()`.
    pub fn in_section(&self) -> bool {
        !self.sections.is_empty()
    }

    /// Index of the *outermost* section on `monitor`, if held.
    pub fn outermost_section_on(&self, monitor: ObjRef) -> Option<usize> {
        self.sections.iter().position(|s| s.monitor == monitor)
    }

    /// Index of the section with acquisition id `acq`, if still active.
    pub fn section_by_acq(&self, acq: u64) -> Option<usize> {
        self.sections.iter().position(|s| s.acq_id == acq)
    }

    /// Mark every active section enclosing log position `pos`
    /// non-revocable; returns how many flipped. Used by the JMM guard.
    pub fn mark_nonrevocable_enclosing(&mut self, pos: usize) -> u64 {
        let mut flipped = 0;
        for s in &mut self.sections {
            if s.mark.position() <= pos && s.revocable {
                s.revocable = false;
                flipped += 1;
            }
        }
        flipped
    }

    /// Mark every active section non-revocable (native call, nested
    /// `wait`); returns how many flipped.
    pub fn mark_all_nonrevocable(&mut self) -> u64 {
        let mut flipped = 0;
        for s in &mut self.sections {
            if s.revocable {
                s.revocable = false;
                flipped += 1;
            }
        }
        flipped
    }

    /// Whether the thread has terminated.
    pub fn is_terminated(&self) -> bool {
        self.state == ThreadState::Terminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> VmThread {
        VmThread::new(ThreadId(0), "t".into(), Priority::LOW, MethodId(0), 3, vec![Value::Int(7)])
    }

    #[test]
    fn args_become_locals_padded_with_null() {
        let t = thread();
        assert_eq!(t.frame().locals, vec![Value::Int(7), Value::Null, Value::Null]);
        assert_eq!(t.frame().pc, 0);
    }

    #[test]
    fn section_lookup_by_monitor_finds_outermost() {
        let mut t = thread();
        let m = ObjRef(5);
        for acq in 0..3u64 {
            t.sections.push(Section {
                monitor: m,
                acq_id: acq,
                mark: t.undo.mark(),
                frame_depth: 0,
                snapshot: None,
                revocable: true,
                region: None,
                entered_at: 0,
                delegated: None,
            });
        }
        assert_eq!(t.outermost_section_on(m), Some(0));
        assert_eq!(t.section_by_acq(2), Some(2));
        assert_eq!(t.outermost_section_on(ObjRef(9)), None);
    }

    #[test]
    fn nonrevocable_marking_respects_positions() {
        let mut t = thread();
        t.undo.push(UndoEntry { loc: Location::Static(0), old: Value::Null });
        let outer_mark = revmon_core::undo::UndoLog::<UndoEntry>::new().mark(); // pos 0
        t.sections.push(Section {
            monitor: ObjRef(1),
            acq_id: 1,
            mark: outer_mark,
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
            entered_at: 0,
            delegated: None,
        });
        t.undo.push(UndoEntry { loc: Location::Static(1), old: Value::Null });
        let inner_mark = t.undo.mark(); // pos 2
        t.sections.push(Section {
            monitor: ObjRef(2),
            acq_id: 2,
            mark: inner_mark,
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
            entered_at: 0,
            delegated: None,
        });
        // A write at log position 1 is enclosed only by the outer section.
        let flipped = t.mark_nonrevocable_enclosing(1);
        assert_eq!(flipped, 1);
        assert!(!t.sections[0].revocable);
        assert!(t.sections[1].revocable);
    }

    #[test]
    fn mark_all_nonrevocable_counts_only_flips() {
        let mut t = thread();
        for acq in 0..2 {
            t.sections.push(Section {
                monitor: ObjRef(acq as u32),
                acq_id: acq,
                mark: t.undo.mark(),
                frame_depth: 0,
                snapshot: None,
                revocable: true,
                region: None,
                entered_at: 0,
                delegated: None,
            });
        }
        assert_eq!(t.mark_all_nonrevocable(), 2);
        assert_eq!(t.mark_all_nonrevocable(), 0);
    }

    #[test]
    fn can_revoke_requires_snapshot_and_flag() {
        let mut s = Section {
            monitor: ObjRef(0),
            acq_id: 0,
            mark: UndoLog::<UndoEntry>::new().mark(),
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
            entered_at: 0,
            delegated: None,
        };
        assert!(!s.can_revoke());
        s.snapshot =
            Some(Snapshot { locals: vec![], stack: vec![], resume_pc: 0, after_wait: false });
        assert!(s.can_revoke());
        s.revocable = false;
        assert!(!s.can_revoke());
    }
}
