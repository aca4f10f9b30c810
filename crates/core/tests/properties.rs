//! Property-based tests for the core data structures, checked against
//! straightforward reference models.

use proptest::prelude::*;
use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline, ThreadId, UndoLog, WaitsForGraph};
use std::collections::HashMap;

// ---------------------------------------------------------------- UndoLog

proptest! {
    /// Rolling back to a mark restores exactly the suffix, newest first.
    #[test]
    fn undo_rollback_is_reverse_suffix(
        prefix in proptest::collection::vec(any::<u32>(), 0..50),
        suffix in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let mut log = UndoLog::new();
        for &e in &prefix { log.push(e); }
        let mark = log.mark();
        for &e in &suffix { log.push(e); }
        let mut restored = Vec::new();
        log.rollback_to(mark, |e| restored.push(e));
        let mut expect = suffix.clone();
        expect.reverse();
        prop_assert_eq!(restored, expect);
        prop_assert_eq!(log.len(), prefix.len());
    }

    /// Applying logged old-values in reverse restores an array to its
    /// initial state no matter the write sequence — the paper's §3.1.2
    /// invariant.
    #[test]
    fn logged_writes_invert_exactly(
        initial in proptest::collection::vec(-100i64..100, 1..20),
        writes in proptest::collection::vec((0usize..20, -100i64..100), 0..200),
    ) {
        let mut state = initial.clone();
        let mut log = UndoLog::new();
        let mark = log.mark();
        for &(i, v) in &writes {
            let i = i % state.len();
            log.push((i, state[i])); // log the OLD value
            state[i] = v;
        }
        log.rollback_to(mark, |(i, old)| state[i] = old);
        prop_assert_eq!(state, initial);
    }

    /// Nested marks compose: rolling back inner then outer equals rolling
    /// back outer directly.
    #[test]
    fn nested_rollback_composes(
        a in proptest::collection::vec((0usize..8, -50i64..50), 0..40),
        b in proptest::collection::vec((0usize..8, -50i64..50), 0..40),
    ) {
        let initial = vec![0i64; 8];
        // Path 1: rollback inner then outer.
        let mut s1 = initial.clone();
        let mut l1 = UndoLog::new();
        let outer = l1.mark();
        for &(i, v) in &a { l1.push((i, s1[i])); s1[i] = v; }
        let inner = l1.mark();
        for &(i, v) in &b { l1.push((i, s1[i])); s1[i] = v; }
        l1.rollback_to(inner, |(i, old)| s1[i] = old);
        l1.rollback_to(outer, |(i, old)| s1[i] = old);
        // Path 2: rollback outer directly.
        let mut s2 = initial.clone();
        let mut l2 = UndoLog::new();
        let outer2 = l2.mark();
        for &(i, v) in &a { l2.push((i, s2[i])); s2[i] = v; }
        for &(i, v) in &b { l2.push((i, s2[i])); s2[i] = v; }
        l2.rollback_to(outer2, |(i, old)| s2[i] = old);
        prop_assert_eq!(&s1, &initial);
        prop_assert_eq!(&s2, &initial);
    }
}

/// The chunked log against a plain `Vec` model: one operation per
/// `(op, arg)` pair, with long pushes so runs cross chunk boundaries.
/// `marks` are positions taken by `mark()` on both sides.
struct LogModel {
    log: UndoLog<u32>,
    model: Vec<u32>,
    peak: usize,
    marks: Vec<revmon_core::LogMark>,
    next: u32,
}

impl LogModel {
    fn new() -> Self {
        LogModel { log: UndoLog::new(), model: Vec::new(), peak: 0, marks: Vec::new(), next: 0 }
    }

    fn fork(&self) -> Self {
        LogModel {
            log: self.log.clone(),
            model: self.model.clone(),
            peak: self.peak,
            marks: self.marks.clone(),
            // Distinct values on each side of a fork.
            next: self.next + 1_000_000,
        }
    }

    fn mark_at(&self, arg: usize) -> Option<revmon_core::LogMark> {
        (!self.marks.is_empty()).then(|| self.marks[arg % self.marks.len()])
    }

    fn apply(&mut self, op: u8, arg: usize) {
        let chunk = UndoLog::<u32>::CHUNK;
        match op {
            // Push a run of up to 1.5 chunks.
            0 | 1 => {
                for _ in 0..arg % (chunk + chunk / 2) {
                    self.log.push(self.next);
                    self.model.push(self.next);
                    self.next += 1;
                }
                self.peak = self.peak.max(self.model.len());
            }
            2 => {
                let m = self.log.mark();
                prop_assert_eq!(m.position(), self.model.len());
                self.marks.push(m);
            }
            3 => {
                if let Some(m) = self.mark_at(arg) {
                    let cut = m.position().min(self.model.len());
                    let mut restored = Vec::new();
                    self.log.rollback_to(m, |e| restored.push(e));
                    let mut expect = self.model.split_off(cut);
                    expect.reverse();
                    prop_assert_eq!(restored, expect);
                }
            }
            4 => {
                if let Some(m) = self.mark_at(arg) {
                    self.log.commit_to(m);
                    self.model.truncate(m.position().min(self.model.len()));
                }
            }
            _ => {
                if let Some(m) = self.mark_at(arg) {
                    let since: Vec<u32> = self.log.since(m).copied().collect();
                    prop_assert_eq!(&since[..], &self.model[m.position().min(self.model.len())..]);
                }
            }
        }
        self.check();
    }

    fn check(&self) {
        prop_assert_eq!(self.log.len(), self.model.len());
        prop_assert_eq!(self.log.is_empty(), self.model.is_empty());
        prop_assert_eq!(self.log.peak(), self.peak);
        let all: Vec<u32> = self.log.since(UndoLog::<u32>::new().mark()).copied().collect();
        prop_assert_eq!(&all, &self.model);
    }
}

type Ops = Vec<(u8, usize)>;

fn ops() -> impl Strategy<Value = Ops> {
    proptest::collection::vec((0u8..6, 0usize..1000), 0..24)
}

proptest! {
    /// The chunked log behaves exactly like a plain vector under any
    /// sequence of push / mark / rollback / commit / since, across chunk
    /// boundaries; and a clone is independent: after a fork both sides
    /// run different operations (thawing and truncating the chunks they
    /// share) and each still matches its own model.
    #[test]
    fn undo_log_matches_vec_model_across_clones(
        before in ops(),
        left in ops(),
        right in ops(),
    ) {
        let mut a = LogModel::new();
        for &(op, arg) in &before { a.apply(op, arg); }
        let mut b = a.fork();
        // Interleave so each side mutates while the other still holds
        // the shared chunks.
        for i in 0..left.len().max(right.len()) {
            if let Some(&(op, arg)) = left.get(i) { a.apply(op, arg); }
            if let Some(&(op, arg)) = right.get(i) { b.apply(op, arg); }
        }
        a.check();
        b.check();
    }
}

// ---------------------------------------------------- PrioritizedQueue

proptest! {
    /// Under the priority discipline, pops are sorted by (priority desc,
    /// arrival asc).
    #[test]
    fn priority_queue_pop_order(
        items in proptest::collection::vec(1u8..=10, 1..60),
    ) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        let mut popped = Vec::new();
        while let Some(x) = q.pop() { popped.push(x); }
        // reference: stable sort by priority desc
        let mut expect: Vec<usize> = (0..items.len()).collect();
        expect.sort_by_key(|&i| std::cmp::Reverse(items[i]));
        // stable sort keeps arrival order within a class
        prop_assert_eq!(popped, expect);
    }

    /// FIFO discipline ignores priorities entirely.
    #[test]
    fn fifo_queue_pop_order(items in proptest::collection::vec(1u8..=10, 0..40)) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        let mut popped = Vec::new();
        while let Some(x) = q.pop() { popped.push(x); }
        let expect: Vec<usize> = (0..items.len()).collect();
        prop_assert_eq!(popped, expect);
    }

    /// next_priority always agrees with what pop would deliver.
    #[test]
    fn next_priority_matches_pop(
        items in proptest::collection::vec(1u8..=10, 1..40),
    ) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        while !q.is_empty() {
            let announced = q.next_priority().unwrap();
            let popped = q.pop().unwrap();
            prop_assert_eq!(announced, Priority::new(items[popped]));
        }
    }
}

// ---------------------------------------------------- WaitsForGraph

/// Reference cycle detector: brute-force walk from every node.
fn has_cycle_reference(edges: &HashMap<u32, u32>) -> bool {
    for &start in edges.keys() {
        let mut seen = vec![start];
        let mut cur = start;
        while let Some(&next) = edges.get(&cur) {
            if seen.contains(&next) {
                return true;
            }
            seen.push(next);
            cur = next;
        }
    }
    false
}

proptest! {
    /// Graph cycle detection agrees with the brute-force reference on
    /// random functional graphs (each waiter has one outgoing edge).
    #[test]
    fn cycle_detection_matches_reference(
        raw_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..12),
    ) {
        let mut g = WaitsForGraph::new();
        let mut edges: HashMap<u32, u32> = HashMap::new();
        for &(w, o) in &raw_edges {
            if w == o { continue; } // a thread cannot wait on itself here
            edges.insert(w, o);
            g.add_wait(ThreadId(w), revmon_core::MonitorId(w), ThreadId(o));
        }
        let expect = has_cycle_reference(&edges);
        prop_assert_eq!(g.find_any_cycle().is_some(), expect);
    }

    /// Every reported cycle is a real cycle: following edges from any
    /// member returns to it.
    #[test]
    fn reported_cycles_are_genuine(
        raw_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..10),
    ) {
        let mut g = WaitsForGraph::new();
        let mut edges: HashMap<u32, u32> = HashMap::new();
        for &(w, o) in &raw_edges {
            if w == o { continue; }
            edges.insert(w, o);
            g.add_wait(ThreadId(w), revmon_core::MonitorId(w), ThreadId(o));
        }
        if let Some(cycle) = g.find_any_cycle() {
            prop_assert!(cycle.len() >= 2);
            // each member's edge points at the next member (cyclically)
            for (i, &t) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                prop_assert_eq!(edges.get(&t.0).copied(), Some(next.0));
            }
        }
    }
}

// ---------------------------------------------------- statistics helpers

proptest! {
    /// CI half-width is nonnegative and zero for constant samples.
    #[test]
    fn ci_halfwidth_sane(xs in proptest::collection::vec(-1e6f64..1e6, 2..30)) {
        let hw = revmon_core::metrics::ci90_half_width(&xs);
        prop_assert!(hw >= 0.0);
    }

    /// Mean lies within [min, max].
    #[test]
    fn mean_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let m = revmon_core::metrics::mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }
}
