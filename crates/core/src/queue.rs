//! Prioritized monitor entry queues.
//!
//! §4: *"we implemented prioritized monitor queues. […] When a thread
//! releases a monitor, another thread is scheduled from the queue. If it
//! is a high-priority thread, it is allowed to acquire the monitor. If it
//! is a low-priority thread, it is allowed to run only if there are no
//! other waiting high-priority threads."*
//!
//! [`PrioritizedQueue`] generalizes this to the full priority range:
//! highest priority class first, FIFO within a class. A [`QueueDiscipline`]
//! switch turns it into a plain FIFO for the ablation benches.
//!
//! # Constant-time operations
//!
//! The queue is a fixed array of per-priority-class intrusive
//! doubly-linked lists (one per Java priority level 1..=10) threaded
//! through a slab of nodes, plus a **class bitmap** — a `u16` with bit
//! *p* set exactly when class *p* has waiters. Every node is also linked
//! into a global *arrival list*, so the FIFO discipline and arrival-order
//! iteration need no sorting. This gives:
//!
//! * `push` — append to the class tail and the arrival tail: **O(1)**;
//! * `pop` — highest set bit of the bitmap → head of that class list
//!   (or the arrival head under FIFO): **O(1)**;
//! * `peek` / [`next_priority`](PrioritizedQueue::next_priority) /
//!   [`max_waiting_priority`](PrioritizedQueue::max_waiting_priority) —
//!   one leading-zeros instruction on the bitmap: **O(1)**;
//! * `remove` — unlink from both lists: **O(1)** once located (the
//!   predicate-based [`remove_where`](PrioritizedQueue::remove_where)
//!   still scans to *find* the waiter);
//! * `reprioritize` — unlink from the old class list and splice into the
//!   new one at its arrival rank: **O(1)** plus a (typically empty)
//!   tail-backward walk of the destination class.
//!
//! Freed slots are chained into a free list, so a queue's footprint is
//! bounded by its *high-water* waiter count and steady-state churn does
//! not allocate. The seed implementation scanned a `VecDeque` on every
//! `pop`/`next_priority` — O(n) in the number of waiters, which falls
//! over at server scale (see `benches/scale.rs` for the two curves).

use crate::policy::QueueDiscipline;
use crate::priority::Priority;

/// Null link.
const NIL: u32 = u32::MAX;
/// Class array size: Java priorities 1..=10 index slots 1..=10 directly
/// (slot 0 is unused, keeping `level == class index`).
const CLASSES: usize = 11;

/// A slab node: the queued item plus the priority it queued at, an
/// arrival sequence number (FIFO-within-class and stable-FIFO witness),
/// and intrusive links for the class list and the arrival list.
#[derive(Debug, Clone)]
struct Node<T> {
    /// `Some` while queued; taken on removal (the slot then sits on the
    /// free chain, linked through `next`).
    item: Option<T>,
    priority: Priority,
    seq: u64,
    /// Class-list links (FIFO within one priority class).
    prev: u32,
    next: u32,
    /// Arrival-list links (global FIFO across classes).
    aprev: u32,
    anext: u32,
}

/// Head/tail of one intrusive list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Default for Ends {
    fn default() -> Self {
        Ends { head: NIL, tail: NIL }
    }
}

/// A monitor entry queue honouring a [`QueueDiscipline`].
///
/// ```
/// use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline};
///
/// let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
/// q.push("low", Priority::LOW);
/// q.push("high", Priority::HIGH);
/// assert_eq!(q.pop(), Some("high")); // high-priority waiters first
/// assert_eq!(q.pop(), Some("low"));
/// ```
#[derive(Debug, Clone)]
pub struct PrioritizedQueue<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free-slot chain (through `next`).
    free: u32,
    /// Per-priority-class list ends; only meaningful where `mask` is set.
    classes: [Ends; CLASSES],
    /// Bit `p` set ⇔ class `p` is non-empty. `u16::leading_zeros` on
    /// this is the whole "find the best waiter" computation.
    mask: u16,
    /// Global arrival-order list.
    arrival: Ends,
    len: usize,
    discipline: QueueDiscipline,
    next_seq: u64,
}

impl<T> Default for PrioritizedQueue<T> {
    /// An empty queue under the default discipline
    /// ([`QueueDiscipline::Priority`]).
    fn default() -> Self {
        PrioritizedQueue::new(QueueDiscipline::default())
    }
}

/// Priority class of a queued-at priority. `Priority::new` clamps into
/// 1..=10, so for every priority the runtimes can produce this is just
/// the raw level; a hand-rolled out-of-range `Priority` is classified by
/// its clamped level.
#[inline]
fn class_of(p: Priority) -> usize {
    p.level().clamp(1, 10) as usize
}

impl<T> PrioritizedQueue<T> {
    /// An empty queue under the given discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        PrioritizedQueue {
            nodes: Vec::new(),
            free: NIL,
            classes: [Ends::default(); CLASSES],
            mask: 0,
            arrival: Ends::default(),
            len: 0,
            discipline,
            next_seq: 0,
        }
    }

    /// Highest non-empty class, if any (one `leading_zeros`).
    #[inline]
    fn top_class(&self) -> Option<usize> {
        if self.mask == 0 {
            None
        } else {
            Some(15 - self.mask.leading_zeros() as usize)
        }
    }

    /// Slab index of the waiter [`pop`](Self::pop) would return.
    #[inline]
    fn pop_index(&self) -> u32 {
        match self.discipline {
            QueueDiscipline::Fifo => self.arrival.head,
            QueueDiscipline::Priority => match self.top_class() {
                Some(c) => self.classes[c].head,
                None => NIL,
            },
        }
    }

    /// Enqueue `item` waiting at `priority`. O(1).
    pub fn push(&mut self, item: T, priority: Priority) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            n.item = Some(item);
            n.priority = priority;
            n.seq = seq;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                item: Some(item),
                priority,
                seq,
                prev: NIL,
                next: NIL,
                aprev: NIL,
                anext: NIL,
            });
            idx
        };
        self.link_class_tail(idx, class_of(priority));
        self.link_arrival_tail(idx);
        self.len += 1;
    }

    /// Dequeue the next waiter according to the discipline: under
    /// [`QueueDiscipline::Priority`], the earliest-arrived waiter of the
    /// highest waiting priority class; under [`QueueDiscipline::Fifo`],
    /// the earliest-arrived waiter outright. O(1).
    pub fn pop(&mut self) -> Option<T> {
        let idx = self.pop_index();
        if idx == NIL {
            return None;
        }
        Some(self.take(idx))
    }

    /// The waiter [`pop`](Self::pop) would return, with its queued-at
    /// priority, without dequeuing it. O(1).
    pub fn peek(&self) -> Option<(&T, Priority)> {
        let idx = self.pop_index();
        if idx == NIL {
            return None;
        }
        let n = &self.nodes[idx as usize];
        Some((n.item.as_ref().expect("queued node holds an item"), n.priority))
    }

    /// Peek at the priority of the waiter [`pop`](Self::pop) would
    /// return. O(1).
    ///
    /// Derived from the *same* waiter selection as `pop` (head of the
    /// highest non-empty class under the priority discipline, arrival
    /// head under FIFO), so its answer always describes exactly the
    /// waiter `pop` delivers — including the FIFO-within-class tiebreak.
    /// The seed implementation computed `max()` over priorities instead,
    /// which names the right *value* but not necessarily the same
    /// *waiter*.
    pub fn next_priority(&self) -> Option<Priority> {
        self.peek().map(|(_, p)| p)
    }

    /// Highest priority currently waiting (regardless of discipline).
    /// Used by priority inheritance to compute the boost. O(1).
    pub fn max_waiting_priority(&self) -> Option<Priority> {
        let c = self.top_class()?;
        // Within a class the head's queued-at priority is the class
        // level itself (classification is the clamped level, and the
        // runtimes only produce clamped priorities).
        let head = self.classes[c].head;
        Some(self.nodes[head as usize].priority)
    }

    /// Remove a specific waiter (e.g. a thread killed while queued).
    /// Returns true if it was present. The unlink is O(1); locating the
    /// waiter scans arrival order (callers that hold a slab index can
    /// avoid even that, but every current caller keys by identity).
    pub fn remove_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> bool {
        let mut idx = self.arrival.head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if pred(n.item.as_ref().expect("queued node holds an item")) {
                self.take(idx);
                return true;
            }
            idx = n.anext;
        }
        false
    }

    /// Change the queued-at priority of an already-waiting item *in
    /// place*, preserving its arrival order. Priority inheritance must
    /// use this rather than remove + re-push: a re-push assigns a fresh
    /// arrival sequence, which silently demotes the boosted waiter
    /// behind later arrivals of the same priority class. Returns true
    /// if a matching waiter was found.
    pub fn reprioritize(&mut self, mut pred: impl FnMut(&T) -> bool, priority: Priority) -> bool {
        let mut idx = self.arrival.head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if pred(n.item.as_ref().expect("queued node holds an item")) {
                let (old, seq) = (class_of(n.priority), n.seq);
                let new = class_of(priority);
                self.nodes[idx as usize].priority = priority;
                if old != new {
                    self.unlink_class(idx, old);
                    self.link_class_by_seq(idx, new, seq);
                }
                return true;
            }
            idx = n.anext;
        }
        false
    }

    /// Number of waiters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over queued items in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_entries().map(|(t, _)| t)
    }

    /// Iterate over `(item, queued-at priority)` pairs in arrival order
    /// (invariant checking and state fingerprinting).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&T, Priority)> {
        let mut idx = self.arrival.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let n = &self.nodes[idx as usize];
            idx = n.anext;
            Some((n.item.as_ref().expect("queued node holds an item"), n.priority))
        })
    }

    /// The discipline this queue dequeues under.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Slab capacity (high-water waiter count): the number of nodes ever
    /// allocated, free or in use. Exposed for footprint accounting.
    pub fn slab_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Internal-consistency check: arrival sequence numbers must be
    /// strictly increasing front-to-back, every class list must be
    /// seq-increasing and hold only its own class, the class bitmap must
    /// mirror list emptiness, and the free chain plus the two link
    /// structures must account for every slab node exactly once.
    pub fn is_well_formed(&self) -> bool {
        // Arrival list: seq strictly increasing, links consistent.
        let mut count = 0usize;
        let mut last_seq = None;
        let mut idx = self.arrival.head;
        let mut prev = NIL;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.item.is_none() || n.aprev != prev || n.seq >= self.next_seq {
                return false;
            }
            if let Some(s) = last_seq {
                if n.seq <= s {
                    return false;
                }
            }
            last_seq = Some(n.seq);
            count += 1;
            prev = idx;
            idx = n.anext;
        }
        if self.arrival.tail != prev || count != self.len {
            return false;
        }
        // Class lists: seq increasing, class membership, mask mirror.
        let mut class_count = 0usize;
        for c in 0..CLASSES {
            let ends = self.classes[c];
            let bit_set = c < 16 && self.mask & (1 << c) != 0;
            if (ends.head == NIL) == bit_set {
                return false;
            }
            let mut idx = ends.head;
            let mut prev = NIL;
            let mut last_seq = None;
            while idx != NIL {
                let n = &self.nodes[idx as usize];
                if n.item.is_none() || n.prev != prev || class_of(n.priority) != c {
                    return false;
                }
                if let Some(s) = last_seq {
                    if n.seq <= s {
                        return false;
                    }
                }
                last_seq = Some(n.seq);
                class_count += 1;
                prev = idx;
                idx = n.next;
            }
            if ends.tail != prev {
                return false;
            }
        }
        if class_count != self.len {
            return false;
        }
        // Free chain: every remaining slab node, each exactly once.
        let mut free_count = 0usize;
        let mut idx = self.free;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.item.is_some() {
                return false;
            }
            free_count += 1;
            if free_count > self.nodes.len() {
                return false; // cycle
            }
            idx = n.next;
        }
        free_count + self.len == self.nodes.len()
    }

    // ------------------------------------------------------------ links

    fn link_arrival_tail(&mut self, idx: u32) {
        let tail = self.arrival.tail;
        {
            let n = &mut self.nodes[idx as usize];
            n.aprev = tail;
            n.anext = NIL;
        }
        if tail == NIL {
            self.arrival.head = idx;
        } else {
            self.nodes[tail as usize].anext = idx;
        }
        self.arrival.tail = idx;
    }

    fn unlink_arrival(&mut self, idx: u32) {
        let (aprev, anext) = {
            let n = &self.nodes[idx as usize];
            (n.aprev, n.anext)
        };
        if aprev == NIL {
            self.arrival.head = anext;
        } else {
            self.nodes[aprev as usize].anext = anext;
        }
        if anext == NIL {
            self.arrival.tail = aprev;
        } else {
            self.nodes[anext as usize].aprev = aprev;
        }
    }

    fn link_class_tail(&mut self, idx: u32, class: usize) {
        let tail = self.classes[class].tail;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = tail;
            n.next = NIL;
        }
        if tail == NIL {
            self.classes[class].head = idx;
            self.mask |= 1 << class;
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.classes[class].tail = idx;
    }

    /// Splice `idx` into `class` at its arrival rank: walk tail-backward
    /// past younger waiters (in the common boost case the destination
    /// class is empty or the boosted waiter is its oldest, so the walk
    /// is a step or two).
    fn link_class_by_seq(&mut self, idx: u32, class: usize, seq: u64) {
        let mut succ = NIL;
        let mut cur = self.classes[class].tail;
        while cur != NIL && self.nodes[cur as usize].seq > seq {
            succ = cur;
            cur = self.nodes[cur as usize].prev;
        }
        // Insert between `cur` (older or NIL) and `succ` (younger or NIL).
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = cur;
            n.next = succ;
        }
        if cur == NIL {
            self.classes[class].head = idx;
            self.mask |= 1 << class;
        } else {
            self.nodes[cur as usize].next = idx;
        }
        if succ == NIL {
            self.classes[class].tail = idx;
            self.mask |= 1 << class;
        } else {
            self.nodes[succ as usize].prev = idx;
        }
    }

    fn unlink_class(&mut self, idx: u32, class: usize) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.classes[class].head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.classes[class].tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        if self.classes[class].head == NIL {
            self.mask &= !(1 << class);
        }
    }

    /// Unlink `idx` from both lists, chain its slot onto the free list,
    /// and return the item.
    fn take(&mut self, idx: u32) -> T {
        let class = class_of(self.nodes[idx as usize].priority);
        self.unlink_class(idx, class);
        self.unlink_arrival(idx);
        let n = &mut self.nodes[idx as usize];
        let item = n.item.take().expect("queued node holds an item");
        n.next = self.free;
        self.free = idx;
        self.len -= 1;
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_discipline_pops_high_first() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("low1", Priority::LOW);
        q.push("high1", Priority::HIGH);
        q.push("low2", Priority::LOW);
        q.push("high2", Priority::HIGH);
        assert_eq!(q.pop(), Some("high1"));
        assert_eq!(q.pop(), Some("high2"));
        assert_eq!(q.pop(), Some("low1"));
        assert_eq!(q.pop(), Some("low2"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_discipline_ignores_priority() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        q.push("low", Priority::LOW);
        q.push("high", Priority::HIGH);
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), Some("high"));
    }

    #[test]
    fn next_priority_matches_pop_order() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push(1, Priority::LOW);
        assert_eq!(q.next_priority(), Some(Priority::LOW));
        q.push(2, Priority::HIGH);
        assert_eq!(q.next_priority(), Some(Priority::HIGH));
    }

    /// The satellite fix: `next_priority` (and `peek`) must describe the
    /// exact waiter `pop` returns — the FIFO-within-class head of the top
    /// class — not merely the maximum priority value.
    #[test]
    fn peek_names_the_exact_waiter_pop_returns() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("h1", Priority::HIGH);
        q.push("h2", Priority::HIGH);
        q.push("l", Priority::LOW);
        assert_eq!(q.peek(), Some((&"h1", Priority::HIGH)));
        assert_eq!(q.next_priority(), Some(Priority::HIGH));
        assert_eq!(q.pop(), Some("h1"), "peek and pop agree on the waiter");
        assert_eq!(q.peek(), Some((&"h2", Priority::HIGH)));
        q.pop();
        assert_eq!(q.peek(), Some((&"l", Priority::LOW)));
        // Under FIFO the announced waiter is the arrival head.
        let mut f = PrioritizedQueue::new(QueueDiscipline::Fifo);
        f.push("first", Priority::LOW);
        f.push("second", Priority::HIGH);
        assert_eq!(f.peek(), Some((&"first", Priority::LOW)));
        assert_eq!(f.next_priority(), Some(Priority::LOW));
        assert_eq!(f.pop(), Some("first"));
    }

    #[test]
    fn max_waiting_priority_independent_of_discipline() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        q.push(1, Priority::LOW);
        q.push(2, Priority::MAX);
        q.push(3, Priority::NORM);
        assert_eq!(q.max_waiting_priority(), Some(Priority::MAX));
    }

    #[test]
    fn remove_where_extracts_matching_waiter() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push(1, Priority::LOW);
        q.push(2, Priority::HIGH);
        assert!(q.remove_where(|&x| x == 2));
        assert!(!q.remove_where(|&x| x == 2));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn three_priority_classes_ordered() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("n", Priority::NORM);
        q.push("l", Priority::MIN);
        q.push("h", Priority::MAX);
        assert_eq!(q.pop(), Some("h"));
        assert_eq!(q.pop(), Some("n"));
        assert_eq!(q.pop(), Some("l"));
    }

    #[test]
    fn reprioritize_preserves_arrival_order_within_class() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("a", Priority::LOW);
        q.push("b", Priority::HIGH);
        q.push("c", Priority::HIGH);
        // Boost "a" to HIGH in place: it arrived first, so it must now
        // be served before both b and c. A remove + re-push would have
        // pushed it behind c.
        assert!(q.reprioritize(|&x| x == "a", Priority::HIGH));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        // Missing items report false without disturbing the queue.
        assert!(!q.reprioritize(|&x| x == "zzz", Priority::MAX));
    }

    #[test]
    fn reprioritize_splices_between_class_members() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("h1", Priority::HIGH);
        q.push("mid", Priority::LOW);
        q.push("h2", Priority::HIGH);
        // Boost "mid" between h1 and h2 by arrival order.
        assert!(q.reprioritize(|&x| x == "mid", Priority::HIGH));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("h1"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("h2"));
        // And demotion out of a class keeps both lists consistent.
        q.push("x", Priority::HIGH);
        q.push("y", Priority::HIGH);
        assert!(q.reprioritize(|&x| x == "x", Priority::MIN));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("y"));
        assert_eq!(q.pop(), Some("x"));
    }

    #[test]
    fn slab_slots_are_reused_under_churn() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for round in 0..100u64 {
            q.push(round, Priority::new((1 + round % 10) as u8));
            q.push(round + 1000, Priority::HIGH);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slab_capacity() <= 2,
            "churn must recycle slots, not grow the slab (capacity {})",
            q.slab_capacity()
        );
        assert!(q.is_well_formed());
    }

    /// Property test: over randomized interleavings of push / pop /
    /// reprioritize, same-priority waiters always come out in arrival
    /// order. Uses a deterministic LCG so failures are reproducible.
    #[test]
    fn fifo_within_class_holds_under_random_operations() {
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut next = |bound: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        for _round in 0..200 {
            let mut q: PrioritizedQueue<u64> = PrioritizedQueue::new(QueueDiscipline::Priority);
            // Model: per item, (priority, arrival stamp).
            let mut model: Vec<(u64, Priority, u64)> = Vec::new();
            let mut stamp = 0u64;
            let mut next_item = 0u64;
            for _op in 0..64 {
                match next(4) {
                    0 | 1 => {
                        let p = Priority::new(1 + next(3) as u8);
                        let item = next_item;
                        next_item += 1;
                        q.push(item, p);
                        model.push((item, p, stamp));
                        stamp += 1;
                    }
                    2 if !model.is_empty() => {
                        // Reprioritize a random queued item in place:
                        // priority changes, arrival stamp must not.
                        let i = next(model.len() as u64) as usize;
                        let p = Priority::new(1 + next(3) as u8);
                        let (item, _, s) = model[i];
                        assert!(q.reprioritize(|&x| x == item, p));
                        model[i] = (item, p, s);
                    }
                    _ => {
                        let expect = model
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &(_, p, s))| (p, std::cmp::Reverse(s)))
                            .map(|(i, _)| i);
                        let got = q.pop();
                        match expect {
                            Some(i) => {
                                let (item, _, _) = model.remove(i);
                                assert_eq!(got, Some(item), "pop violated FIFO-within-class");
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                }
                assert!(q.is_well_formed());
            }
            // Drain: remaining items must come out priority-major,
            // arrival-minor.
            while let Some(got) = q.pop() {
                let i = model
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(_, p, s))| (p, std::cmp::Reverse(s)))
                    .map(|(i, _)| i)
                    .expect("queue had more items than the model");
                let (item, _, _) = model.remove(i);
                assert_eq!(got, item, "drain violated FIFO-within-class");
            }
            assert!(model.is_empty());
        }
    }
}
