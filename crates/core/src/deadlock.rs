//! Waits-for graph: deadlock detection and victim selection.
//!
//! §1.1: *"the same technique can also be used to detect and resolve
//! deadlock. […] Using our techniques, such deadlocks can be detected and
//! resolved automatically, permitting the application to make progress."*
//!
//! The graph records, for each blocked thread, the monitor it waits on and
//! that monitor's owner. A cycle in the thread→thread relation is a
//! deadlock. Resolution revokes a *victim*: the lowest-priority thread in
//! the cycle (ties broken by highest thread id, i.e. youngest), provided
//! its blocking section is revocable. The paper notes that repeated
//! revocation can livelock; callers guard against that by rotating victims
//! or bounding revocations (see `revmon-vm::deadlock`).

use crate::priority::{MonitorId, Priority, ThreadId};
use std::collections::HashMap;

/// One waits-for edge: `waiter` is blocked acquiring `monitor`, currently
/// owned by `owner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The blocked thread.
    pub waiter: ThreadId,
    /// The monitor it is trying to acquire.
    pub monitor: MonitorId,
    /// The thread currently holding `monitor`.
    pub owner: ThreadId,
}

/// A deadlock victim: which thread to revoke and the monitor whose
/// acquisition it is blocked on (its revocation target is the section in
/// which it blocked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Thread chosen for revocation.
    pub thread: ThreadId,
    /// Monitor the victim is blocked on (edge that closes the cycle).
    pub blocked_on: MonitorId,
    /// All threads participating in the detected cycle, in cycle order
    /// starting at `thread`. Bounded copy for diagnostics.
    pub cycle_len: usize,
}

/// Waits-for graph over blocked threads.
///
/// ```
/// use revmon_core::{MonitorId, ThreadId, WaitsForGraph};
///
/// let mut g = WaitsForGraph::new();
/// g.add_wait(ThreadId(1), MonitorId(2), ThreadId(2)); // T1 waits on T2
/// g.add_wait(ThreadId(2), MonitorId(1), ThreadId(1)); // T2 waits on T1
/// let cycle = g.find_any_cycle().expect("deadlock");
/// assert_eq!(cycle.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WaitsForGraph {
    /// waiter -> (monitor, owner)
    edges: HashMap<ThreadId, (MonitorId, ThreadId)>,
}

impl WaitsForGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `waiter` blocked acquiring `monitor` held by `owner`.
    /// A thread can wait on at most one monitor, so this replaces any
    /// previous edge for `waiter`.
    pub fn add_wait(&mut self, waiter: ThreadId, monitor: MonitorId, owner: ThreadId) {
        self.edges.insert(waiter, (monitor, owner));
    }

    /// Remove `waiter`'s edge (it acquired the monitor, was revoked, or
    /// stopped waiting).
    pub fn remove_wait(&mut self, waiter: ThreadId) {
        self.edges.remove(&waiter);
    }

    /// Current number of blocked threads.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no thread is blocked.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The monitor `waiter` is blocked on, if any.
    pub fn waiting_on(&self, waiter: ThreadId) -> Option<MonitorId> {
        self.edges.get(&waiter).map(|&(m, _)| m)
    }

    /// The full edge for `waiter`, if blocked.
    pub fn edge_of(&self, waiter: ThreadId) -> Option<Edge> {
        self.edges.get(&waiter).map(|&(monitor, owner)| Edge { waiter, monitor, owner })
    }

    /// Every blocking edge, in unspecified order (observability
    /// snapshots sort on their side).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().map(|(&waiter, &(monitor, owner))| Edge { waiter, monitor, owner })
    }

    /// Re-point every edge on `monitor` at a new owner — called when
    /// monitor ownership transfers while other threads stay queued, so
    /// cycle detection never follows a stale owner.
    pub fn retarget_monitor(&mut self, monitor: MonitorId, new_owner: ThreadId) {
        for (waiter, (m, owner)) in self.edges.iter_mut() {
            if *m == monitor && *waiter != new_owner {
                *owner = new_owner;
            }
        }
        // The new owner itself no longer waits on this monitor.
        if self.edges.get(&new_owner).map(|&(m, _)| m) == Some(monitor) {
            self.edges.remove(&new_owner);
        }
    }

    /// Find the cycle (if any) reachable from `start` by following
    /// waiter→owner edges. Returns the threads in the cycle, in order.
    ///
    /// Since each thread has at most one outgoing edge the walk is a
    /// simple chase: O(n) with a visited set.
    pub fn find_cycle_from(&self, start: ThreadId) -> Option<Vec<ThreadId>> {
        let mut path: Vec<ThreadId> = Vec::new();
        let mut cur = start;
        loop {
            if let Some(pos) = path.iter().position(|&t| t == cur) {
                return Some(path[pos..].to_vec());
            }
            path.push(cur);
            match self.edges.get(&cur) {
                Some(&(_, owner)) => cur = owner,
                None => return None, // chain ends at a runnable thread
            }
        }
    }

    /// Detect any deadlock cycle in the whole graph.
    pub fn find_any_cycle(&self) -> Option<Vec<ThreadId>> {
        let mut keys: Vec<ThreadId> = self.edges.keys().copied().collect();
        keys.sort_unstable(); // deterministic iteration
        for &t in &keys {
            if let Some(c) = self.find_cycle_from(t) {
                return Some(c);
            }
        }
        None
    }

    /// Choose a victim for a detected cycle: the lowest-priority member
    /// whose section is revocable (per `revocable`), ties broken by the
    /// *highest* thread id (youngest thread has done the least work).
    /// Returns `None` if no member is revocable — the deadlock cannot be
    /// broken (all sections non-revocable), matching the paper's fallback
    /// to unresolvable cases.
    pub fn choose_victim(
        &self,
        cycle: &[ThreadId],
        priority_of: impl Fn(ThreadId) -> Priority,
        revocable: impl Fn(ThreadId) -> bool,
    ) -> Option<Victim> {
        let mut best: Option<(Priority, ThreadId)> = None;
        for &t in cycle {
            if !revocable(t) {
                continue;
            }
            let p = priority_of(t);
            best = match best {
                None => Some((p, t)),
                Some((bp, bt)) => {
                    if p < bp || (p == bp && t > bt) {
                        Some((p, t))
                    } else {
                        Some((bp, bt))
                    }
                }
            };
        }
        best.map(|(_, t)| Victim {
            thread: t,
            blocked_on: self.edges[&t].0,
            cycle_len: cycle.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId(i)
    }
    fn m(i: u32) -> MonitorId {
        MonitorId(i)
    }

    #[test]
    fn two_thread_cycle_detected() {
        // T1 holds M1 waits M2; T2 holds M2 waits M1.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let c = g.find_cycle_from(t(1)).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        // T1 waits on T2; T2 runnable.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(9), t(2));
        assert!(g.find_cycle_from(t(1)).is_none());
        assert!(g.find_any_cycle().is_none());
    }

    #[test]
    fn three_thread_cycle_detected_from_any_entry() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(3), t(3));
        g.add_wait(t(3), m(1), t(1));
        for start in [1, 2, 3] {
            let c = g.find_cycle_from(t(start)).expect("cycle");
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn tail_leading_into_cycle_excluded_from_cycle() {
        // T0 -> T1 -> T2 -> T1 : cycle is {T1, T2}.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(0), m(1), t(1));
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(3), t(1));
        let c = g.find_cycle_from(t(0)).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&t(0)));
    }

    #[test]
    fn victim_is_lowest_priority_revocable() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let cycle = g.find_any_cycle().unwrap();
        let v = g
            .choose_victim(
                &cycle,
                |th| if th == t(1) { Priority::HIGH } else { Priority::LOW },
                |_| true,
            )
            .unwrap();
        assert_eq!(v.thread, t(2));
        assert_eq!(v.blocked_on, m(1));
        assert_eq!(v.cycle_len, 2);
    }

    #[test]
    fn victim_skips_non_revocable_members() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let cycle = g.find_any_cycle().unwrap();
        let v = g.choose_victim(&cycle, |_| Priority::LOW, |th| th == t(1)).unwrap();
        assert_eq!(v.thread, t(1));
    }

    #[test]
    fn no_victim_when_all_non_revocable() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let cycle = g.find_any_cycle().unwrap();
        assert!(g.choose_victim(&cycle, |_| Priority::LOW, |_| false).is_none());
    }

    #[test]
    fn equal_priority_tie_breaks_to_youngest() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let cycle = g.find_any_cycle().unwrap();
        let v = g.choose_victim(&cycle, |_| Priority::NORM, |_| true).unwrap();
        assert_eq!(v.thread, t(2));
    }

    #[test]
    fn retarget_monitor_follows_ownership_transfer() {
        let mut g = WaitsForGraph::new();
        // T1 and T2 wait on M5 owned by T3.
        g.add_wait(t(1), m(5), t(3));
        g.add_wait(t(2), m(5), t(3));
        // T3 releases; M5 transfers to T1.
        g.retarget_monitor(m(5), t(1));
        // T1 no longer waits; T2 now waits on T1.
        assert_eq!(g.waiting_on(t(1)), None);
        assert_eq!(g.edge_of(t(2)).unwrap().owner, t(1));
        // A fresh cycle through the new owner is detectable.
        g.add_wait(t(1), m(9), t(2));
        assert!(g.find_cycle_from(t(1)).is_some());
    }

    #[test]
    fn retarget_leaves_other_monitors_alone() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(5), t(3));
        g.add_wait(t(2), m(6), t(3));
        g.retarget_monitor(m(5), t(7));
        assert_eq!(g.edge_of(t(1)).unwrap().owner, t(7));
        assert_eq!(g.edge_of(t(2)).unwrap().owner, t(3), "edge on m6 untouched");
    }

    #[test]
    fn remove_wait_clears_edge() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        assert_eq!(g.waiting_on(t(1)), Some(m(2)));
        g.remove_wait(t(1));
        assert!(g.is_empty());
        assert_eq!(g.waiting_on(t(1)), None);
    }
}
