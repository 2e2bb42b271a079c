//! Property tests pinning the calendar queue to the binary-heap
//! reference: on any schedule — same-time ties, inserts interleaved
//! with drains, horizon-clamped far-future clusters — both
//! [`EventQueue`] implementations must pop the exact same total order.
//!
//! Both engine queues (the wake schedule and the air-event scheduler) are instances of the same trait, so this single generic
//! harness covers them both: the wake queue is `CalendarQueue<()>`
//! keyed by wake tokens, the event queue is `CalendarQueue<Event>`
//! keyed by per-node event counters. Payloads never influence the
//! order, so a `u64` payload stands in for either.

use edmac_sim::queue::{CalendarQueue, EventQueue, HeapQueue, OrderKey};
use edmac_sim::SimTime;
use proptest::prelude::*;

/// One simulated horizon in nanoseconds (10 minutes) — the value the
/// engine clamps far-future wakes to, producing a same-time pileup in
/// one calendar bucket.
const HORIZON_NS: u64 = 600_000_000_000;

/// A queue operation: schedule under a (partially generated) key, or
/// pop the minimum.
#[derive(Debug, Clone)]
enum Op {
    Schedule { ns: u64, round: u32, node: u32 },
    Pop,
}

fn schedule_op() -> impl Strategy<Value = Op> {
    let time = prop_oneof![
        // Dense cluster: forces same-time and same-bucket ties.
        0u64..2_000,
        // Spread over seconds: many calendar days apart.
        0u64..5_000_000_000,
        // Horizon-clamped: the degenerate far-future pileup.
        Just(HORIZON_NS),
    ];
    (time, 0u32..3, 0u32..8).prop_map(|(ns, round, node)| Op::Schedule { ns, round, node })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Two schedule arms to one pop: queues keep net growth, so drains
    // exercise non-trivial occupancy.
    let op = prop_oneof![schedule_op(), schedule_op(), Just(Op::Pop)];
    prop::collection::vec(op, 1..400)
}

/// Replays `program` against the calendar queue and the heap oracle in
/// lockstep, asserting every intermediate `peek_key`/`pop` agrees and
/// the final drain produces the identical sequence.
fn assert_lockstep(program: Vec<Op>) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
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
                cal.schedule(key, i as u64);
                heap.schedule(key, i as u64);
            }
            Op::Pop => {
                prop_assert_eq!(cal.pop(), heap.pop(), "pop diverged at op {}", i);
            }
        }
        prop_assert_eq!(cal.peek_key(), heap.peek_key(), "peek diverged at op {}", i);
        prop_assert_eq!(cal.len(), heap.len(), "len diverged at op {}", i);
    }
    while !cal.is_empty() || !heap.is_empty() {
        prop_assert_eq!(cal.pop(), heap.pop(), "final drain diverged");
    }
    Ok(())
}

proptest! {
    #[test]
    fn calendar_queue_pops_in_heap_order(program in ops()) {
        assert_lockstep(program)?;
    }

    /// The engine's actual usage pattern: a monotone drain (every new
    /// key at or after the last popped time) with growth pressure —
    /// enough entries to force several `grow()` retunes mid-run.
    #[test]
    fn monotone_drain_survives_growth(
        deltas in prop::collection::vec((0u64..50_000_000, 0u32..3, 0u32..8), 100..600),
    ) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut floor = 0u64;
        for (i, (delta, round, node)) in deltas.iter().enumerate() {
            let key = OrderKey {
                at: SimTime::from_nanos(floor + delta),
                round: *round,
                node: *node,
                seq: i as u64,
            };
            cal.schedule(key, i as u64);
            heap.schedule(key, i as u64);
            // Drain every third insert, advancing the floor like the
            // event loop does.
            if i % 3 == 2 {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b, "monotone pop diverged at step {}", i);
                if let Some((k, _)) = a {
                    floor = k.at.as_nanos();
                }
            }
        }
        while !cal.is_empty() || !heap.is_empty() {
            prop_assert_eq!(cal.pop(), heap.pop(), "monotone final drain diverged");
        }
    }
}
