//! The sequential undo log.
//!
//! §3.1.2: *"We implemented the log as a sequential buffer. […] If the
//! execution of a synchronized section is interrupted and needs to be
//! re-executed then the log is processed in reverse to restore modified
//! locations to their original values."*
//!
//! The log is generic over the entry type: the VM logs
//! `(location, old word)` pairs, the real-thread library logs boxed
//! restore closures. Marks ([`LogMark`]) are taken at `monitorenter` so a
//! rollback of a (possibly nested) section can truncate exactly the
//! entries made since that section began — entries of sections nested
//! *inside* the rolled-back one are naturally included, which is required
//! because the rollback re-executes the inner sections too.

use std::sync::Arc;

/// A position in an [`UndoLog`], taken at `monitorenter`.
///
/// Ordering follows log positions: a mark taken earlier is `<` a mark
/// taken later, so nested-section marks compare greater than their
/// enclosing section's mark.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LogMark(usize);

impl LogMark {
    /// Log position of this mark (number of entries preceding it).
    pub fn position(self) -> usize {
        self.0
    }
}

/// A sequential undo buffer with O(1) append and reverse drain.
///
/// The buffer is a list of frozen, reference-counted chunks of
/// [`CHUNK`](Self::CHUNK) entries plus a private tail holding the newest
/// entries (always fewer than `CHUNK` between calls). Appending touches
/// only the tail; when it fills it is frozen onto the chunk list.
/// Cloning a log therefore shares every frozen chunk and copies at most
/// one chunk's worth of tail — what lets the schedule explorer snapshot
/// a machine in the middle of a long section without copying its whole
/// log. A chunk is copied again only when one side of a clone rolls back
/// or commits into it while the other side still holds it.
///
/// ```
/// use revmon_core::UndoLog;
///
/// let mut log = UndoLog::new();
/// let section = log.mark();            // taken at monitorenter
/// log.push(("x", 1));                  // write barrier logs old values
/// log.push(("y", 2));
/// let mut restored = Vec::new();
/// log.rollback_to(section, |e| restored.push(e));
/// assert_eq!(restored, vec![("y", 2), ("x", 1)]); // newest first
/// ```
#[derive(Debug)]
pub struct UndoLog<E> {
    /// Full chunks, oldest first, each exactly `CHUNK` entries long.
    chunks: Vec<Arc<Vec<E>>>,
    /// The newest `len % CHUNK` entries, owned by this log alone.
    tail: Vec<E>,
    /// An emptied chunk buffer kept for the next freeze, so a log that
    /// repeatedly grows and drains across chunk boundaries reuses its
    /// buffers instead of reallocating them.
    spare: Vec<E>,
    /// High-water mark as of the last shrink; [`peak`](Self::peak)
    /// folds in the current length, so `push` need not track it.
    peak: usize,
}

impl<E> Default for UndoLog<E> {
    fn default() -> Self {
        UndoLog { chunks: Vec::new(), tail: Vec::new(), spare: Vec::new(), peak: 0 }
    }
}

impl<E: Clone> Clone for UndoLog<E> {
    /// Shares the frozen chunks; copies only the tail.
    fn clone(&self) -> Self {
        UndoLog {
            chunks: self.chunks.clone(),
            tail: self.tail.clone(),
            spare: Vec::new(),
            peak: self.peak,
        }
    }
}

impl<E> UndoLog<E> {
    /// Entries per frozen chunk: the most a clone copies.
    pub const CHUNK: usize = 256;

    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one update. Called from the write-barrier slow path.
    #[inline]
    pub fn push(&mut self, entry: E) {
        self.tail.push(entry);
        if self.tail.len() == Self::CHUNK {
            self.freeze();
        }
    }

    /// Move the full tail onto the chunk list.
    #[cold]
    #[inline(never)]
    fn freeze(&mut self) {
        let mut next = std::mem::take(&mut self.spare);
        next.reserve_exact(Self::CHUNK);
        let full = std::mem::replace(&mut self.tail, next);
        self.chunks.push(Arc::new(full));
    }

    /// Take a mark at the current position (at `monitorenter`).
    pub fn mark(&self) -> LogMark {
        LogMark(self.len())
    }

    /// Number of entries currently in the log.
    pub fn len(&self) -> usize {
        self.chunks.len() * Self::CHUNK + self.tail.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.tail.is_empty()
    }

    /// Largest size the log ever reached.
    pub fn peak(&self) -> usize {
        self.peak.max(self.len())
    }

    /// Entries recorded since `mark`, in log order.
    pub fn since(&self, mark: LogMark) -> impl Iterator<Item = &E> + '_ {
        let start = mark.0.min(self.len());
        self.chunks[start / Self::CHUNK..]
            .iter()
            .map(|c| c.as_slice())
            .chain(std::iter::once(self.tail.as_slice()))
            .flatten()
            .skip(start % Self::CHUNK)
    }

    /// Drop everything (thread termination).
    pub fn clear(&mut self) {
        self.peak = self.peak();
        self.chunks.clear();
        self.tail.clear();
    }
}

impl<E: Clone> UndoLog<E> {
    /// Roll back to `mark`: invoke `restore` on each entry **newest
    /// first** (the paper processes the log in reverse), removing them.
    pub fn rollback_to(&mut self, mark: LogMark, mut restore: impl FnMut(E)) {
        self.peak = self.peak();
        let cut = mark.0.min(self.len());
        while self.len() > cut {
            if self.tail.is_empty() {
                let chunk = self.chunks.pop().expect("entries beyond the tail are frozen");
                self.thaw(chunk, Self::CHUNK);
            }
            let keep = self.tail.len().saturating_sub(self.len() - cut);
            for e in self.tail.drain(keep..).rev() {
                restore(e);
            }
        }
    }

    /// Commit (discard) entries since `mark` without restoring — called at
    /// a successful `monitorexit` of an *outermost* section. Nested
    /// sections keep their entries: only when the outermost monitor exits
    /// can the updates no longer be revoked.
    pub fn commit_to(&mut self, mark: LogMark) {
        self.peak = self.peak();
        let cut = mark.0.min(self.len());
        let (whole, rest) = (cut / Self::CHUNK, cut % Self::CHUNK);
        if whole == self.chunks.len() {
            self.tail.truncate(rest);
            return;
        }
        // The cut falls inside a frozen chunk: drop the chunks above it
        // and make the part of that chunk below the cut the tail.
        self.chunks.truncate(whole + 1);
        let chunk = self.chunks.pop().expect("whole < chunks.len()");
        self.thaw(chunk, rest);
    }

    /// Make the first `keep` entries of a frozen chunk the tail: the
    /// chunk's own buffer when no clone shares it, else a copy. The old
    /// tail's buffer becomes the spare.
    fn thaw(&mut self, chunk: Arc<Vec<E>>, keep: usize) {
        let tail = match Arc::try_unwrap(chunk) {
            Ok(mut v) => {
                v.truncate(keep);
                v
            }
            Err(shared) => {
                let mut v = std::mem::take(&mut self.spare);
                v.reserve_exact(Self::CHUNK);
                v.extend_from_slice(&shared[..keep]);
                v
            }
        };
        let mut old = std::mem::replace(&mut self.tail, tail);
        old.clear();
        if self.spare.capacity() == 0 {
            self.spare = old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_in_reverse_order() {
        let mut log = UndoLog::new();
        let m = log.mark();
        log.push(1);
        log.push(2);
        log.push(3);
        let mut seen = Vec::new();
        log.rollback_to(m, |e| seen.push(e));
        assert_eq!(seen, vec![3, 2, 1]);
        assert!(log.is_empty());
    }

    #[test]
    fn nested_marks_rollback_only_inner() {
        let mut log = UndoLog::new();
        let outer = log.mark();
        log.push("a");
        let inner = log.mark();
        log.push("b");
        log.push("c");
        let mut seen = Vec::new();
        log.rollback_to(inner, |e| seen.push(e));
        assert_eq!(seen, vec!["c", "b"]);
        assert_eq!(log.len(), 1);
        // Rolling back the outer section also covers what inner re-added.
        log.push("d");
        seen.clear();
        log.rollback_to(outer, |e| seen.push(e));
        assert_eq!(seen, vec!["d", "a"]);
    }

    #[test]
    fn outer_rollback_covers_committed_inner_sections() {
        // An inner section that exited successfully commits nothing until
        // the outermost exit; its entries must still be present for an
        // outer rollback.
        let mut log = UndoLog::new();
        let outer = log.mark();
        log.push(10);
        let inner = log.mark();
        log.push(20);
        // inner exits while outer is still active: no commit of a nested
        // section — caller only calls commit_to at outermost exit.
        let _ = inner;
        let mut seen = Vec::new();
        log.rollback_to(outer, |e| seen.push(e));
        assert_eq!(seen, vec![20, 10]);
    }

    #[test]
    fn commit_discards_without_restoring() {
        let mut log = UndoLog::new();
        let m = log.mark();
        log.push(5);
        log.push(6);
        log.commit_to(m);
        assert!(log.is_empty());
        assert_eq!(log.peak(), 2);
    }

    #[test]
    fn since_exposes_entries_in_log_order() {
        let mut log = UndoLog::new();
        log.push(1);
        let m = log.mark();
        log.push(2);
        log.push(3);
        assert_eq!(log.since(m).copied().collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn rollback_to_stale_mark_beyond_len_is_noop() {
        let mut log: UndoLog<u32> = UndoLog::new();
        log.push(1);
        let m = log.mark(); // position 1
        log.commit_to(LogMark(0));
        // mark now exceeds len; rollback must not panic or restore anything
        let mut seen = Vec::new();
        log.rollback_to(m, |e| seen.push(e));
        assert!(seen.is_empty());
    }
}
