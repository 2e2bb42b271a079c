//! The simulation's event vocabulary.
//!
//! Scheduling itself lives in [`crate::queue`]: both the air-event
//! scheduler and the wake schedule are [`CalendarQueue`]s keyed by
//! [`OrderKey`]'s documented `(time, node order, sequence)` ordering,
//! so there is exactly one tie-break rule in the engine.
//!
//! [`CalendarQueue`]: crate::queue::CalendarQueue
//! [`OrderKey`]: crate::queue::OrderKey

use crate::frame::Frame;
use edmac_net::NodeId;

/// Everything that can happen in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// A node's application layer samples a new packet.
    Generate { node: NodeId },
    /// A protocol timer fires at `node`.
    Timer { node: NodeId, id: u64, tag: u32 },
    /// The radio of `node` finishes its startup transition; `token`
    /// invalidates events from startups aborted by a `sleep()`.
    RadioReady { node: NodeId, token: u64 },
    /// A frame's first bit arrives at `node` (propagation is treated as
    /// instantaneous at these ranges). `power_mw` is the received power
    /// over this directed link (1 mW on the unit disk).
    AirStart {
        node: NodeId,
        tx_seq: u64,
        frame: Frame,
        power_mw: f64,
    },
    /// A frame's last bit leaves the air at `node`.
    AirEnd {
        node: NodeId,
        tx_seq: u64,
        frame: Frame,
        power_mw: f64,
    },
    /// `node` finishes transmitting its current frame.
    TxDone { node: NodeId },
}
