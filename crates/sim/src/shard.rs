//! Event shards for the sharded DES kernel.
//!
//! The executor partitions scheduled events into *shards* — one per
//! checkpoint group in the intended use — each with its own timer heap.
//! Every event still carries a sequence number drawn from one global
//! counter, so the merged firing order is the exact total order
//! `(deadline, schedule-sequence)` regardless of how events are assigned
//! to shards. Sharding therefore changes *where* an event waits, never
//! *when* it fires: digests are bit-identical across shard counts by
//! construction.
//!
//! The merge is driven by a conservative window: at each clock advance the
//! executor compares the head `(at, seq)` of every shard. If no other
//! shard holds an event at the winning instant, the whole instant is
//! drained from the winning shard alone — its heap already yields entries
//! in sequence order, so no cross-shard sort is needed. Group boundaries
//! make this the common case: intra-group traffic lands in the sender's
//! own shard, and only cross-group deliveries can force the slow
//! same-instant merge.
//!
//! A shard's heap holds *instant runs*, not single events. A run is a FIFO
//! of event slots sharing one deadline, linked through `EventSlot::next`;
//! it sits in the heap once, keyed by the `(at, seq)` of its head. A push
//! at the deadline of the run most recently pushed onto the heap (the
//! shard's `open` run) is appended to that run without touching the heap,
//! which is how a lockstep instant is scheduled. Popping a head re-keys
//! its run in place to the next slot, so the heap orders runs by their
//! current heads and events still fire in exact `(at, seq)` order. A run
//! of length one is a plain heap entry.
//!
//! Events live in an arena owned by the executor core (`EventSlot`);
//! heaps store only 24-byte `HeapEntry` keys. Slot lifetime rules are
//! documented on `EventSlot`.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::task::Waker;

use crate::time::SimTime;

/// What an event does when its deadline is reached.
pub(crate) enum EventKind {
    /// Wake a parked task (classic timer semantics).
    Wake(Waker),
    /// Run a closure on the executor — the arena-allocated replacement for
    /// spawning a short-lived "in-flight" task per message.
    Call(Box<dyn FnOnce()>),
}

/// [`EventSlot::next`] of the last slot in an instant run.
pub(crate) const RUN_END: u32 = u32::MAX;

/// Arena slot for a scheduled event.
///
/// Lifetime rules:
/// * A slot is allocated when the event is scheduled and holds
///   `kind: Some(_)` until the event is consumed.
/// * `Wake` slots are freed at fire time — the waker is extracted while
///   the heap entry is popped.
/// * `Call` slots outlive their heap entry: firing only enqueues the run
///   on the ready FIFO, and the closure is taken (and the slot freed) when
///   that FIFO entry drains. This mirrors the poll-after-wake lifecycle of
///   the task-per-message scheme it replaces, which is what keeps
///   same-instant ordering bit-identical.
/// * Slots are reused only after being freed, and a slot is freed only
///   after it has been popped; each slot sits in at most one run and has
///   at most one pending ready-FIFO reference at a time, so no generation
///   counter is needed.
pub(crate) struct EventSlot {
    /// Global schedule sequence number (the heap key when this slot heads
    /// its run).
    pub(crate) seq: u64,
    /// Next slot of the same instant run, or [`RUN_END`].
    pub(crate) next: u32,
    /// Owning shard index (attribution only — never affects order).
    pub(crate) shard: u32,
    /// Payload; `None` once consumed (slot is free or about to be).
    pub(crate) kind: Option<EventKind>,
}

// The arena's cost per pending event: adding a field must not grow it.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<EventSlot>() == 40);

/// Key stored in a shard's timer heap, ordered by `(at, seq)`; `seq` is
/// unique, so `slot` never decides.
///
/// `seq` comes from the executor's single global counter, so comparing
/// entries from *different* shards is meaningful: the minimum over all
/// shard heads is the globally next event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct HeapEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

/// One event shard: a min-heap of instant runs.
pub(crate) struct Shard {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Instant and tail slot of the run most recently pushed onto the
    /// heap. Cleared when that tail pops: the run is gone from the heap
    /// and the slot is about to be freed and reused.
    open: Option<(SimTime, u32)>,
    /// Pending events over all runs.
    pending: usize,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard {
            heap: BinaryHeap::new(),
            open: None,
            pending: 0,
        }
    }

    /// The `(at, seq)` key of the earliest pending event, if any.
    pub(crate) fn head(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    /// Push an entry whose slot is allocated in `events` with `next` set
    /// to [`RUN_END`]. Entries must arrive in increasing `seq`, which the
    /// global counter guarantees, so appending keeps every run sorted.
    pub(crate) fn push(&mut self, entry: HeapEntry, events: &mut [EventSlot]) {
        self.pending += 1;
        if let Some((at, tail)) = self.open {
            if at == entry.at {
                if let Some(t) = events.get_mut(tail as usize) {
                    t.next = entry.slot;
                    self.open = Some((at, entry.slot));
                    return;
                }
            }
        }
        self.heap.push(Reverse(entry));
        self.open = Some((entry.at, entry.slot));
    }

    /// Pop the earliest entry if its deadline is exactly `at`.
    pub(crate) fn pop_at(&mut self, at: SimTime, events: &[EventSlot]) -> Option<HeapEntry> {
        let mut root = self.heap.peek_mut()?;
        let head = root.0;
        if head.at != at {
            return None;
        }
        let next = events.get(head.slot as usize).map_or(RUN_END, |e| e.next);
        match events.get(next as usize).filter(|_| next != RUN_END) {
            Some(n) => {
                root.0 = HeapEntry {
                    at,
                    seq: n.seq,
                    slot: next,
                }
            }
            None => {
                PeekMut::pop(root);
                if self.open.is_some_and(|(_, tail)| tail == head.slot) {
                    self.open = None;
                }
            }
        }
        self.pending = self.pending.saturating_sub(1);
        Some(head)
    }

    /// Number of pending events in this shard (events, not runs).
    pub(crate) fn len(&self) -> usize {
        self.pending
    }
}

/// Snapshot of executor counters, for benchmarks and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of event shards.
    pub shard_count: usize,
    /// Task polls performed.
    pub polls: u64,
    /// Events fired off the shard heaps (wakes and calls).
    pub events_fired: u64,
    /// Scheduled closures run (arena-allocated in-flight work).
    pub calls_run: u64,
    /// Clock advances (cross-shard merge decisions).
    pub merges: u64,
    /// Merge decisions that needed the slow same-instant cross-shard path.
    pub window_batches: u64,
    /// Events drained through the slow same-instant path.
    pub window_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// A shard plus the slice of the executor it needs: the event arena
    /// with a LIFO free list (so a freed slot is the next one reused) and
    /// the global sequence counter.
    struct Fixture {
        sh: Shard,
        events: Vec<EventSlot>,
        free: Vec<u32>,
        seq: u64,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                sh: Shard::new(),
                events: Vec::new(),
                free: Vec::new(),
                seq: 0,
            }
        }

        /// Schedule one event at `at_ms`; returns its `(at, seq, slot)`.
        fn push(&mut self, at_ms: u64) -> HeapEntry {
            let ev = EventSlot {
                seq: self.seq,
                next: RUN_END,
                shard: 0,
                kind: None,
            };
            let slot = match self.free.pop() {
                Some(s) => {
                    self.events[s as usize] = ev;
                    s
                }
                None => {
                    self.events.push(ev);
                    (self.events.len() - 1) as u32
                }
            };
            let entry = HeapEntry {
                at: SimTime::from_millis(at_ms),
                seq: self.seq,
                slot,
            };
            self.seq += 1;
            self.sh.push(entry, &mut self.events);
            entry
        }

        /// Pop at `at_ms` and free the slot at once, as a wake does.
        fn pop(&mut self, at_ms: u64) -> Option<HeapEntry> {
            let e = self.sh.pop_at(SimTime::from_millis(at_ms), &self.events)?;
            self.free.push(e.slot);
            Some(e)
        }
    }

    #[test]
    fn heap_entries_order_by_time_then_seq() {
        let mut b = Fixture::new();
        let first5 = b.push(5);
        let early = b.push(2);
        let second5 = b.push(5);
        assert_eq!(b.sh.head(), Some((SimTime::from_millis(2), early.seq)));
        assert_eq!(b.pop(2).map(|x| x.slot), Some(early.slot));
        // Same instant drains in seq order.
        assert_eq!(b.pop(5).map(|x| x.seq), Some(first5.seq));
        assert_eq!(b.pop(5).map(|x| x.seq), Some(second5.seq));
        assert_eq!(b.pop(5), None);
        assert_eq!(b.sh.len(), 0);
    }

    #[test]
    fn pop_at_refuses_other_instants() {
        let mut b = Fixture::new();
        b.push(10);
        b.push(10);
        assert_eq!(b.pop(9), None);
        assert_eq!(b.sh.len(), 2);
        assert_eq!(b.sh.heap.len(), 1);
    }

    #[test]
    fn same_instant_pushes_share_one_heap_entry() {
        const N: u64 = 26;
        let mut b = Fixture::new();
        let pushed: Vec<u64> = (0..N).map(|_| b.push(7).seq).collect();
        assert_eq!(b.sh.heap.len(), 1);
        assert_eq!(b.sh.len(), N as usize);
        let drained: Vec<u64> = std::iter::from_fn(|| b.pop(7).map(|e| e.seq)).collect();
        assert_eq!(drained, pushed);
        assert_eq!(b.sh.len(), 0);
        assert!(b.sh.heap.is_empty());
    }

    /// Differential check against a sorted `(at, seq)` reference. Pushes
    /// alternate over three instants from the one being drained, so every
    /// instant holds several runs, and pops free their slot at once, so
    /// the next push reuses it while runs are open. After every step the
    /// shard's head key must be the reference minimum: a run left keyed by
    /// a slot it has already fired, or a push appended to a run whose tail
    /// has popped, shows up as a stale head or a lost event.
    #[test]
    fn runs_fire_in_exact_time_then_seq_order() {
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            let mut b = Fixture::new();
            let mut reference: Vec<HeapEntry> = Vec::new();
            let mut now = 0u64;
            let mut fired = 0;
            for _ in 0..600 {
                if reference.is_empty() || rng.chance(0.55) {
                    let at = now + rng.range_u64(0, 3);
                    let e = b.push(at);
                    reference.push(e);
                    reference.sort_unstable();
                } else {
                    let want = reference.remove(0);
                    now = want.at.as_nanos() / 1_000_000;
                    if now > 0 {
                        assert_eq!(b.pop(now - 1), None, "seed {seed}: popped early");
                    }
                    assert_eq!(b.pop(now), Some(want), "seed {seed}: wrong event");
                    fired += 1;
                }
                assert_eq!(b.sh.len(), reference.len(), "seed {seed}: len");
                assert_eq!(
                    b.sh.head(),
                    reference.first().map(|e| (e.at, e.seq)),
                    "seed {seed}: head key"
                );
            }
            while let Some(want) = reference.first().copied() {
                reference.remove(0);
                assert_eq!(b.pop(want.at.as_nanos() / 1_000_000), Some(want));
                fired += 1;
            }
            assert_eq!(b.sh.len(), 0);
            assert!(fired > 300, "seed {seed}: only {fired} events fired");
        }
    }
}
