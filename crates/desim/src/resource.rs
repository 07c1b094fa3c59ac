//! Exclusive resources with FIFO wait queues.
//!
//! A resource models one drawing implement: at most one holder at a time,
//! strict first-come-first-served granting, and an optional *hand-off
//! latency* — the real-world seconds it takes to pass a marker from one
//! student to another, which the paper's scenario 4 makes painfully
//! visible ("this requires handing off the markers").

use crate::engine::ProcId;
use crate::time::SimDuration;

/// Inline capacity of a [`ProcList`] — sized for a classroom team.
const INLINE_PROCS: usize = 8;

/// An ordered list of process ids with inline storage for the first
/// [`INLINE_PROCS`] entries, spilling to the heap only beyond that.
/// Holder sets and FIFO wait queues are classroom-sized (a handful of
/// students), so the common case adds zero allocations to a run.
#[derive(Debug)]
pub(crate) enum ProcList {
    Inline { len: u8, buf: [ProcId; INLINE_PROCS] },
    Heap(Vec<ProcId>),
}

impl ProcList {
    pub(crate) fn new() -> Self {
        ProcList::Inline {
            len: 0,
            buf: [ProcId(0); INLINE_PROCS],
        }
    }

    /// Append at the back (FIFO enqueue).
    pub(crate) fn push(&mut self, pid: ProcId) {
        match self {
            ProcList::Inline { len, buf } => {
                let l = *len as usize;
                if l < INLINE_PROCS {
                    buf[l] = pid;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_PROCS * 2);
                    v.extend_from_slice(buf);
                    v.push(pid);
                    *self = ProcList::Heap(v);
                }
            }
            ProcList::Heap(v) => v.push(pid),
        }
    }

    /// Remove the entry at `i`, replacing it with the last entry.
    /// Panics if `i` is out of bounds, like [`Vec::swap_remove`].
    pub(crate) fn swap_remove(&mut self, i: usize) -> ProcId {
        match self {
            ProcList::Inline { len, buf } => {
                let l = *len as usize;
                assert!(i < l, "swap_remove index {i} out of bounds (len {l})");
                let out = buf[i];
                buf[i] = buf[l - 1];
                *len -= 1;
                out
            }
            ProcList::Heap(v) => v.swap_remove(i),
        }
    }

    /// Remove the entry at `i`, shifting later entries down — the
    /// order-preserving sibling of [`ProcList::swap_remove`], used when a
    /// schedule policy grants to a waiter mid-queue (the rest of the FIFO
    /// queue must keep its order). Returns `None` if `i` is out of bounds.
    pub(crate) fn remove(&mut self, i: usize) -> Option<ProcId> {
        match self {
            ProcList::Inline { len, buf } => {
                let l = *len as usize;
                if i >= l {
                    return None;
                }
                let out = buf[i];
                buf.copy_within(i + 1..l, i);
                *len -= 1;
                Some(out)
            }
            ProcList::Heap(v) => {
                if i >= v.len() {
                    None
                } else {
                    Some(v.remove(i))
                }
            }
        }
    }

    /// Remove and return the front entry (FIFO dequeue).
    pub(crate) fn pop_front(&mut self) -> Option<ProcId> {
        match self {
            ProcList::Inline { len, buf } => {
                if *len == 0 {
                    return None;
                }
                let out = buf[0];
                let l = *len as usize;
                buf.copy_within(1..l, 0);
                *len -= 1;
                Some(out)
            }
            ProcList::Heap(v) => {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            }
        }
    }
}

impl std::ops::Deref for ProcList {
    type Target = [ProcId];

    fn deref(&self) -> &[ProcId] {
        match self {
            ProcList::Inline { len, buf } => &buf[..*len as usize],
            ProcList::Heap(v) => v,
        }
    }
}

/// Identifies a resource within an [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build from a raw index — for reconstructing a [`Trace`](crate::Trace)
    /// from an external source (e.g. re-parsing an exported Chrome
    /// trace). Ids built this way are only meaningful against a trace
    /// whose `resources` table uses the same indexing.
    pub const fn from_index(index: usize) -> ResourceId {
        ResourceId(index as u32)
    }
}

/// Internal state of one resource (capacity ≥ 1 interchangeable units —
/// capacity 1 is the classic single marker; the paper notes "having extra
/// resources would reduce the contention").
#[derive(Debug)]
pub(crate) struct ResourceState {
    pub(crate) label: String,
    pub(crate) capacity: usize,
    pub(crate) holders: ProcList,
    pub(crate) waiters: ProcList,
    pub(crate) handoff: SimDuration,
    pub(crate) stats: ResourceStats,
}

/// Contention statistics for one resource, reported in the [`Trace`](crate::Trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Times the resource was granted (with or without waiting).
    pub acquisitions: u64,
    /// Grants that had to wait in the queue first.
    pub contended_acquisitions: u64,
    /// Grants that involved a hand-off from another process.
    pub handoffs: u64,
    /// Total time processes spent blocked on this resource (ms): queue
    /// time **plus** the hand-off transit that follows each contended
    /// grant. Use [`ResourceStats::queue_wait`] for the pure queue
    /// component and [`ResourceStats::handoff_time`] for the transit.
    pub total_wait: SimDuration,
    /// The hand-off-transit portion of [`ResourceStats::total_wait`]
    /// (ms): time grants spent in flight between releaser and waiter.
    pub handoff_time: SimDuration,
    /// Longest the queue ever got.
    pub max_queue_len: usize,
}

impl ResourceStats {
    /// Time processes spent queued, excluding hand-off transit (ms).
    pub fn queue_wait(&self) -> SimDuration {
        SimDuration(self.total_wait.millis().saturating_sub(self.handoff_time.millis()))
    }
}

impl ResourceState {
    pub(crate) fn new(label: String, capacity: usize, handoff: SimDuration) -> Self {
        assert!(capacity > 0, "resource capacity must be nonzero");
        ResourceState {
            label,
            capacity,
            holders: ProcList::new(),
            waiters: ProcList::new(),
            handoff,
            stats: ResourceStats::default(),
        }
    }

    /// Whether another unit can be granted right now.
    pub(crate) fn has_free_unit(&self) -> bool {
        self.holders.len() < self.capacity
    }

    /// Whether `pid` currently holds a unit.
    pub(crate) fn holds(&self, pid: ProcId) -> bool {
        self.holders.contains(&pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_resource_is_free() {
        let r = ResourceState::new("red marker".into(), 1, SimDuration::from_millis(500));
        assert!(r.has_free_unit());
        assert_eq!(r.stats, ResourceStats::default());
        assert!(r.waiters.is_empty());
        assert!(!r.holds(ProcId(0)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = ResourceState::new("none".into(), 0, SimDuration::ZERO);
    }

    #[test]
    fn remove_preserves_queue_order() {
        let mut list = ProcList::new();
        for i in 0..4 {
            list.push(ProcId(i));
        }
        assert_eq!(list.remove(1), Some(ProcId(1)));
        assert_eq!(&list[..], &[ProcId(0), ProcId(2), ProcId(3)]);
        assert_eq!(list.remove(9), None);
        // Spill to the heap and remove there too.
        for i in 4..12 {
            list.push(ProcId(i));
        }
        assert_eq!(list.remove(0), Some(ProcId(0)));
        assert_eq!(list[0], ProcId(2));
        assert_eq!(list.len(), 10);
    }
}
