//! The priority queue behind both engine queues: one named ordering
//! key and one binary heap over small entries.
//!
//! The wake schedule and the event scheduler are both a [`Queue`]
//! keyed by [`OrderKey`], so the tie-break policy is written down
//! exactly once. The heap holds only `(key, slot)` pairs, 32 bytes
//! each; payloads sit in a slab beside it and never move while the
//! heap sifts. The engine's queues are bounded by the run's horizon:
//! an entry due after it could never pop, so it is never stored.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The total order every engine queue pops in: **time, then causal
/// round, then global node order, then per-node sequence**
/// (lexicographic, via the derived `Ord`).
///
/// * `at` — absolute firing time; earlier fires first.
/// * `round` — the causal depth *within* one instant: entries
///   scheduled for a future instant carry round 0; an entry created
///   by a handler for the **same** instant it runs at carries the
///   triggering entry's round plus one. This reproduces, without any
///   global counter, the old engine's scheduling-order tie-break:
///   everything already pending at an instant is processed before
///   anything spawned *during* that instant (e.g. a strobe's `TxDone`
///   fires before the receiver's same-instant early-ack `AirStart`
///   reaches the transmitter). Round is intrinsic causal depth, not
///   an insertion counter.
/// * `node` — the *global* index of the owning node: the woken node
///   for wake entries, the scheduling node for events. Breaking time
///   ties on the global node index (never on a queue-global insertion
///   counter) makes the order a function of per-node state alone.
/// * `seq` — a per-node monotone sequence (the wake token for wakes,
///   the node's event counter for events), ordering a node's
///   same-instant insertions among themselves.
///
/// Keys are unique within a queue by construction (`seq` never
/// repeats for a `node`), so the order is total and the queue needs no
/// stability guarantee beyond it. The one re-use — the engine handing
/// an interrupted `AirEnd` receiver walk back under the key it just
/// popped — keeps that: the popped entry is gone by then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// Absolute firing time.
    pub at: SimTime,
    /// Same-instant causal depth (first tie-break).
    pub round: u32,
    /// Global index of the owning node (second tie-break).
    pub node: u32,
    /// Per-node monotone sequence number (last tie-break).
    pub seq: u64,
}

/// A deterministic min-queue over unique [`OrderKey`]s: a
/// `BinaryHeap` of `(key, slot)` entries plus a payload slab.
///
/// `schedule` parks the payload in a free slab slot (reusing one that
/// a pop released, else growing the slab) and pushes the 32-byte
/// heap entry; `pop` removes the minimum entry and releases its slot.
/// Because keys are unique, the slot index never decides the order: the
/// queue pops in exactly [`OrderKey`]'s total order, whatever the
/// insertion order. With a zero-sized payload (the engine's wake
/// queue, `Queue<()>`) the slab and its free list are skipped.
///
/// A queue built with [`Queue::until`] drops every entry due after its
/// horizon at `schedule`. The engine fires nothing after the run's
/// end, so those entries could never pop; leaving them out keeps the
/// heap to the entries that can. On the 100 000-node disk of
/// `tests/scale.rs` that is every node's next traffic sample, an hour
/// out: half of LMAC's pending events and nearly all of X-MAC's.
#[derive(Debug)]
pub struct Queue<T> {
    heap: BinaryHeap<Reverse<(OrderKey, u32)>>,
    slots: Vec<T>,
    /// Slab slots whose payload has been popped.
    free: Vec<u32>,
    /// The most entries ever pending at once.
    peak: usize,
    /// Entries due after this instant are dropped.
    horizon: SimTime,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Queue::until(SimTime::from_nanos(u64::MAX))
    }
}

impl<T> Queue<T> {
    /// An empty queue.
    pub fn new() -> Queue<T> {
        Queue::default()
    }

    /// An empty queue that drops entries due after `horizon` (entries
    /// due exactly at it are kept).
    pub fn until(horizon: SimTime) -> Queue<T> {
        Queue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            peak: 0,
            horizon,
        }
    }
}

impl<T: Copy> Queue<T> {
    /// Payloads that carry no data need no slab.
    const ZERO_SIZED: bool = std::mem::size_of::<T>() == 0;

    /// Inserts `item` under `key`, or drops it if `key` is due after
    /// the horizon.
    pub fn schedule(&mut self, key: OrderKey, item: T) {
        if key.at > self.horizon {
            return;
        }
        let slot = if Self::ZERO_SIZED {
            // A zero-sized slab is a length count: no memory, no slots.
            self.slots.push(item);
            0
        } else if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = item;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending entries");
            self.slots.push(item);
            slot
        };
        self.heap.push(Reverse((key, slot)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the minimum-key entry, if any.
    pub fn pop(&mut self) -> Option<(OrderKey, T)> {
        let Reverse((key, slot)) = self.heap.pop()?;
        if Self::ZERO_SIZED {
            return self.slots.pop().map(|item| (key, item));
        }
        self.free.push(slot);
        Some((key, self.slots[slot as usize]))
    }

    /// The minimum pending key, if any.
    pub fn peek_key(&self) -> Option<OrderKey> {
        self.heap.peek().map(|Reverse((key, _))| *key)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most entries that were ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ns: u64, node: u32, seq: u64) -> OrderKey {
        OrderKey {
            at: SimTime::from_nanos(ns),
            round: 0,
            node,
            seq,
        }
    }

    /// The pending set as a plain vector: its minimum is the next pop.
    #[derive(Default)]
    struct Oracle(Vec<(OrderKey, u64)>);

    impl Oracle {
        fn pop(&mut self) -> Option<(OrderKey, u64)> {
            let (i, _) = self.0.iter().enumerate().min_by_key(|(_, (k, _))| *k)?;
            Some(self.0.swap_remove(i))
        }
    }

    #[test]
    fn order_key_is_time_then_round_then_node_then_seq() {
        assert!(key(1, 9, 9) < key(2, 0, 0));
        assert!(key(5, 1, 9) < key(5, 2, 0));
        assert!(key(5, 1, 1) < key(5, 1, 2));
        // A same-instant causal child sorts after every entry that was
        // already pending, regardless of node order.
        let spawned = OrderKey {
            round: 1,
            ..key(5, 0, 0)
        };
        assert!(key(5, 9, 9) < spawned);
    }

    #[test]
    fn pops_sorted() {
        let mut q = Queue::new();
        for (i, ns) in [30u64, 10, 20, 10, 10_000_000_000, 25].iter().enumerate() {
            q.schedule(key(*ns, i as u32, 0), i);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = q.pop() {
            keys.push(k);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_sort_oracle_on_interleaved_drain() {
        let mut q = Queue::new();
        let mut oracle = Oracle::default();
        // A deterministic pseudo-random schedule with same-time ties,
        // inserts during drain, and a horizon-clamped cluster.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut seq = 0u64;
        let mut insert = |q: &mut Queue<u64>, oracle: &mut Oracle, ns: u64| {
            seq += 1;
            let k = OrderKey {
                round: (seq % 3) as u32,
                ..key(ns, (seq % 7) as u32, seq)
            };
            q.schedule(k, seq);
            oracle.0.push((k, seq));
        };
        for _ in 0..200 {
            let ns = step() % 1_000_000;
            insert(&mut q, &mut oracle, ns);
        }
        for _ in 0..50 {
            insert(&mut q, &mut oracle, 600_000_000_000); // clamped at one horizon
        }
        for round in 0..100 {
            let popped = q.pop();
            assert_eq!(popped, oracle.pop(), "divergence at drain step {round}");
            // Queue more *during* the drain, at and after the floor.
            let base = popped.map(|(k, _)| k.at.as_nanos()).unwrap_or(0);
            insert(&mut q, &mut oracle, base + step() % 10_000);
        }
        while !q.is_empty() || !oracle.0.is_empty() {
            assert_eq!(q.pop(), oracle.pop());
        }
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q = Queue::new();
        q.schedule(key(500, 2, 1), "b");
        q.schedule(key(500, 1, 1), "a");
        assert_eq!(q.peek_key(), Some(key(500, 1, 1)));
        assert_eq!(q.pop(), Some((key(500, 1, 1), "a")));
        assert_eq!(q.peek_key(), Some(key(500, 2, 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn growth_keeps_order() {
        let mut q = Queue::new();
        // Hundreds of entries spread over 10 s, far past the heap's and
        // the slab's first allocations.
        for i in 0..500u64 {
            q.schedule(key((i * 7919) % 10_000_000_000, (i % 11) as u32, i), i);
        }
        let mut last = None;
        let mut n = 0;
        while let Some((k, seq)) = q.pop() {
            if let Some(prev) = last {
                assert!(prev < k, "out of order after growth: {prev:?} then {k:?}");
            }
            assert_eq!(k.seq, seq, "payload left its key");
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn released_slots_are_reused_and_payloads_keep_their_keys() {
        let mut q = Queue::new();
        for i in 0..8u64 {
            q.schedule(key(100 + i, 0, i), i);
        }
        // Pop the four earliest, then refill earlier than everything
        // left: the new entries land in the released slots.
        for i in 0..4u64 {
            assert_eq!(q.pop(), Some((key(100 + i, 0, i), i)));
        }
        for i in 8..12u64 {
            q.schedule(key(i, 1, i), i);
        }
        assert_eq!(q.slots.len(), 8, "refill reused released slots");
        assert_eq!(q.peak_len(), 8);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expected: Vec<_> = (8..12u64)
            .map(|i| (key(i, 1, i), i))
            .chain((4..8u64).map(|i| (key(100 + i, 0, i), i)))
            .collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn entries_after_the_horizon_are_dropped() {
        let mut q = Queue::until(SimTime::from_nanos(1_000));
        q.schedule(key(1_001, 0, 0), 'x');
        q.schedule(key(1_000, 1, 1), 'b');
        q.schedule(key(1_000, 0, 2), 'a');
        q.schedule(key(u64::MAX, 0, 3), 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.pop(), Some((key(1_000, 0, 2), 'a')));
        assert_eq!(q.pop(), Some((key(1_000, 1, 1), 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_sized_payloads_need_no_slab() {
        let mut q: Queue<()> = Queue::new();
        for i in 0..3u64 {
            q.schedule(key(10 - i, 0, i), ());
        }
        assert_eq!(q.pop(), Some((key(8, 0, 2), ())));
        q.schedule(key(9, 1, 3), ());
        assert!(q.free.is_empty());
        assert_eq!(q.peak_len(), 3);
        let keys: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(k, _)| k).collect();
        assert_eq!(keys, [key(9, 0, 1), key(9, 1, 3), key(10, 0, 0)]);
        assert_eq!(q.pop(), None);
    }
}
