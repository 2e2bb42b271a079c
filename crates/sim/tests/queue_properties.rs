//! Property tests pinning the engine's queue to a sort oracle: on any
//! schedule — same-instant ties across round, node and sequence,
//! inserts interleaved with drains, horizon-clamped far-future
//! clusters, entries past the horizon — the queue must pop the pending
//! entries in sorted [`OrderKey`] order, each payload with its own key,
//! and never an entry due after its horizon.
//!
//! Both engine queues (the wake schedule and the event scheduler) are
//! the same `Queue` type, so this single harness covers them both. A
//! `u64` payload equal to the entry's sequence number lets every pop
//! check that the slab handed back the payload that was scheduled
//! under that key, however often its slot was reused.

use edmac_sim::queue::{OrderKey, Queue};
use edmac_sim::SimTime;
use proptest::prelude::*;

/// One simulated horizon in nanoseconds (10 minutes) — the value the
/// engine clamps far-future wakes to, producing a same-time pileup.
const HORIZON_NS: u64 = 600_000_000_000;

/// The queue the engine runs: bounded by the horizon.
fn bounded<T>() -> Queue<T> {
    Queue::until(SimTime::from_nanos(HORIZON_NS))
}

/// A queue operation: schedule under a (partially generated) key, or
/// pop the minimum.
#[derive(Debug, Clone)]
enum Op {
    Schedule { ns: u64, round: u32, node: u32 },
    Pop,
}

fn schedule_op() -> impl Strategy<Value = Op> {
    let time = prop_oneof![
        // Few instants: most entries tie on time and fall through to
        // round, node and sequence.
        0u64..4,
        // Dense cluster.
        0u64..2_000,
        // Spread over seconds.
        0u64..5_000_000_000,
        // Horizon-clamped: the far-future pileup.
        Just(HORIZON_NS),
        // Past the horizon: dropped, never popped.
        HORIZON_NS + 1..HORIZON_NS + 1_000,
    ];
    (time, 0u32..3, 0u32..8).prop_map(|(ns, round, node)| Op::Schedule { ns, round, node })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Two schedule arms to one pop: queues keep net growth, so drains
    // exercise non-trivial occupancy and reuse released slots.
    let op = prop_oneof![schedule_op(), schedule_op(), Just(Op::Pop)];
    prop::collection::vec(op, 1..400)
}

/// The oracle: the pending entries, kept sorted; the next pop is the
/// first.
#[derive(Default)]
struct Sorted(Vec<(OrderKey, u64)>);

impl Sorted {
    /// Records an entry, unless it is due after the horizon.
    fn insert(&mut self, key: OrderKey, item: u64) {
        if key.at.as_nanos() > HORIZON_NS {
            return;
        }
        let at = self.0.partition_point(|(k, _)| *k < key);
        self.0.insert(at, (key, item));
    }

    fn pop(&mut self) -> Option<(OrderKey, u64)> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }
}

/// Replays `program` against the queue and the sorted oracle in
/// lockstep, asserting every intermediate `peek_key`/`pop`/`len`
/// agrees, the peak matches the oracle's high-water mark, and the
/// final drain produces the identical sequence.
fn assert_lockstep(program: Vec<Op>) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut queue: Queue<u64> = bounded();
    let mut oracle = Sorted::default();
    let mut peak = 0;
    for (i, op) in program.into_iter().enumerate() {
        match op {
            Op::Schedule { ns, round, node } => {
                // `seq` = op index: keys are unique per node by
                // construction, exactly the engine's guarantee.
                let key = OrderKey {
                    at: SimTime::from_nanos(ns),
                    round,
                    node,
                    seq: i as u64,
                };
                queue.schedule(key, i as u64);
                oracle.insert(key, i as u64);
                peak = peak.max(oracle.0.len());
            }
            Op::Pop => {
                prop_assert_eq!(queue.pop(), oracle.pop(), "pop diverged at op {}", i);
            }
        }
        prop_assert_eq!(
            queue.peek_key(),
            oracle.0.first().map(|(k, _)| *k),
            "peek diverged at op {}",
            i
        );
        prop_assert_eq!(queue.len(), oracle.0.len(), "len diverged at op {}", i);
    }
    prop_assert_eq!(queue.peak_len(), peak, "peak diverged");
    while !queue.is_empty() || !oracle.0.is_empty() {
        prop_assert_eq!(queue.pop(), oracle.pop(), "final drain diverged");
    }
    Ok(())
}

proptest! {
    #[test]
    fn queue_pops_in_sorted_order(program in ops()) {
        assert_lockstep(program)?;
    }

    /// The engine's actual usage pattern: a monotone drain (every new
    /// key at or after the last popped time) with growth pressure —
    /// the heap and the slab both grow well past their first
    /// allocations while released slots are reused.
    #[test]
    fn monotone_drain_survives_growth(
        deltas in prop::collection::vec((0u64..50_000_000, 0u32..3, 0u32..8), 100..600),
    ) {
        let mut queue: Queue<u64> = bounded();
        let mut oracle = Sorted::default();
        let mut floor = 0u64;
        for (i, (delta, round, node)) in deltas.iter().enumerate() {
            let key = OrderKey {
                at: SimTime::from_nanos(floor + delta),
                round: *round,
                node: *node,
                seq: i as u64,
            };
            queue.schedule(key, i as u64);
            oracle.insert(key, i as u64);
            // Drain every third insert, advancing the floor like the
            // event loop does.
            if i % 3 == 2 {
                let popped = queue.pop();
                prop_assert_eq!(popped, oracle.pop(), "monotone pop diverged at step {}", i);
                if let Some((k, _)) = popped {
                    floor = k.at.as_nanos();
                }
            }
        }
        while !queue.is_empty() || !oracle.0.is_empty() {
            prop_assert_eq!(queue.pop(), oracle.pop(), "monotone final drain diverged");
        }
    }

    /// A zero-sized payload (the wake queue's `Queue<()>`) pops in the
    /// same order as a carried one.
    #[test]
    fn zero_sized_payload_pops_in_sorted_order(program in ops()) {
        let mut queue: Queue<()> = bounded();
        let mut oracle = Sorted::default();
        for (i, op) in program.into_iter().enumerate() {
            match op {
                Op::Schedule { ns, round, node } => {
                    let key = OrderKey {
                        at: SimTime::from_nanos(ns),
                        round,
                        node,
                        seq: i as u64,
                    };
                    queue.schedule(key, ());
                    oracle.insert(key, 0);
                }
                Op::Pop => {
                    let expected = oracle.pop().map(|(k, _)| (k, ()));
                    prop_assert_eq!(queue.pop(), expected, "pop diverged at op {}", i);
                }
            }
        }
        while let Some((k, _)) = oracle.pop() {
            prop_assert_eq!(queue.pop(), Some((k, ())), "final drain diverged");
        }
        prop_assert!(queue.is_empty());
    }
}
