//! The JMM-consistency guard (§2.1–2.2).
//!
//! Rolling back a synchronized section is only legal if no other thread
//! has observed its speculative updates; otherwise a value another thread
//! already used would retroactively appear "out of thin air" (Figs. 2–3).
//! The paper's remedy: *"disable the revocability of monitors whose
//! rollback could create inconsistencies with respect to the JMM. […] We
//! mark a monitor M non-revocable when a read-write dependency is created
//! between a write performed within M and a read performed by another
//! thread."*
//!
//! The guard keeps a map from heap location to the latest *speculative*
//! write (one performed inside a still-active synchronized section).
//! Entries are added by the write-barrier slow path, and removed when the
//! writer's outermost section commits or when the entries are rolled
//! back. A read by a different thread that hits a live entry marks every
//! enclosing active section of the writer non-revocable.
//!
//! This single rule covers both problem cases in the paper:
//!
//! * **Fig. 2 (nesting):** T writes `v` under `inner` nested in `outer`,
//!   exits `inner` (entries stay live — `outer` is still active), then T′
//!   reads `v` under `inner`. The read hits the live entry and `outer`
//!   becomes non-revocable.
//! * **Fig. 3 (volatile):** volatile reads take the same read-barrier
//!   path, so an unmonitored volatile read of a speculative volatile
//!   write flags the writer's sections identically.
//!
//! Reads by the writer itself never flag anything (a thread may always
//! observe its own speculative state), and reads of committed data find
//! no entry — so the common "same data guarded by the same monitor"
//! discipline never forfeits revocability, matching the paper's
//! intuition.

use crate::heap::Location;
use revmon_core::ThreadId;
use std::collections::HashMap;

/// Information about the latest speculative write to a location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculativeWrite {
    /// Writing thread.
    pub writer: ThreadId,
    /// Undo-log position of the write in the writer's log: every active
    /// section of the writer whose mark is ≤ this position encloses the
    /// write.
    pub log_pos: usize,
}

/// The read-barrier map.
#[derive(Clone, Debug, Default)]
pub struct JmmGuard {
    map: HashMap<Location, SpeculativeWrite>,
}

impl JmmGuard {
    /// Empty guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a speculative write by `writer` at log position `log_pos`.
    /// A later write to the same location supersedes the entry (sections
    /// enclosing the earlier write necessarily enclose the later one,
    /// since marks only grow).
    #[inline]
    pub fn record_write(&mut self, loc: Location, writer: ThreadId, log_pos: usize) {
        self.map.insert(loc, SpeculativeWrite { writer, log_pos });
    }

    /// Read-barrier check: does `reader`'s read of `loc` observe another
    /// thread's speculative write? Returns the write if so; the caller
    /// must then mark the writer's enclosing sections non-revocable.
    #[inline]
    pub fn check_read(&self, loc: Location, reader: ThreadId) -> Option<SpeculativeWrite> {
        if self.map.is_empty() {
            return None; // fast path: nothing speculative anywhere
        }
        match self.map.get(&loc) {
            Some(w) if w.writer != reader => Some(*w),
            _ => None,
        }
    }

    /// Remove the entry for `loc` if it belongs to `writer` — called for
    /// each log entry when the writer commits (outermost `MonitorExit`)
    /// or rolls the entry back.
    #[inline]
    pub fn clear(&mut self, loc: Location, writer: ThreadId) {
        if let Some(w) = self.map.get(&loc) {
            if w.writer == writer {
                self.map.remove(&loc);
            }
        }
    }

    /// All live speculative writes, sorted by location — a deterministic
    /// view for invariant checking and state fingerprinting.
    pub fn entries(&self) -> Vec<(Location, SpeculativeWrite)> {
        let mut v: Vec<(Location, SpeculativeWrite)> =
            self.map.iter().map(|(&l, &w)| (l, w)).collect();
        v.sort_by_key(|&(l, _)| l);
        v
    }

    /// Number of live speculative entries (diagnostics).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no speculative write is live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ObjRef;

    fn loc(i: u32) -> Location {
        Location::Obj(ObjRef(0), i)
    }

    #[test]
    fn own_reads_never_flag() {
        let mut g = JmmGuard::new();
        g.record_write(loc(0), ThreadId(1), 0);
        assert_eq!(g.check_read(loc(0), ThreadId(1)), None);
    }

    #[test]
    fn cross_thread_read_flags() {
        let mut g = JmmGuard::new();
        g.record_write(loc(0), ThreadId(1), 7);
        let w = g.check_read(loc(0), ThreadId(2)).expect("flagged");
        assert_eq!(w.writer, ThreadId(1));
        assert_eq!(w.log_pos, 7);
    }

    #[test]
    fn committed_entries_no_longer_flag() {
        let mut g = JmmGuard::new();
        g.record_write(loc(0), ThreadId(1), 0);
        g.clear(loc(0), ThreadId(1));
        assert_eq!(g.check_read(loc(0), ThreadId(2)), None);
        assert!(g.is_empty());
    }

    #[test]
    fn clear_ignores_entries_superseded_by_another_writer() {
        let mut g = JmmGuard::new();
        g.record_write(loc(0), ThreadId(1), 0);
        // Thread 2 later writes the same location speculatively (it could
        // do so after thread 1 committed but before 1's per-entry clears
        // run — clears must not wipe 2's entry).
        g.record_write(loc(0), ThreadId(2), 3);
        g.clear(loc(0), ThreadId(1));
        assert_eq!(
            g.check_read(loc(0), ThreadId(1)),
            Some(SpeculativeWrite { writer: ThreadId(2), log_pos: 3 })
        );
    }

    #[test]
    fn later_write_supersedes_position() {
        let mut g = JmmGuard::new();
        g.record_write(loc(0), ThreadId(1), 2);
        g.record_write(loc(0), ThreadId(1), 9);
        assert_eq!(g.check_read(loc(0), ThreadId(2)).unwrap().log_pos, 9);
    }

    #[test]
    fn distinct_locations_tracked_independently() {
        let mut g = JmmGuard::new();
        g.record_write(Location::Static(0), ThreadId(1), 0);
        g.record_write(loc(1), ThreadId(1), 1);
        assert!(g.check_read(Location::Static(0), ThreadId(2)).is_some());
        assert!(g.check_read(loc(2), ThreadId(2)).is_none());
        assert_eq!(g.len(), 2);
    }
}
