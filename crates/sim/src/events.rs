//! The simulation's event vocabulary.
//!
//! Scheduling itself lives in [`crate::queue`]: both the event
//! scheduler and the wake schedule are a [`Queue`] keyed by
//! [`OrderKey`]'s documented `(time, round, node, sequence)` ordering,
//! so there is exactly one tie-break rule in the engine. An `Event` is
//! the payload: it waits in the queue's slab, while the heap sifts only
//! its key and slot index.
//!
//! A transmission is one queue entry per edge of the frame's life, not
//! one per receiver: `AirStart` and `AirEnd` carry the frame, and the
//! engine walks the sender's air receivers inline when it dispatches
//! them.
//!
//! [`Queue`]: crate::queue::Queue
//! [`OrderKey`]: crate::queue::OrderKey

use crate::frame::Frame;
use edmac_net::NodeId;

/// Everything that can happen in the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// A node's application layer samples a new packet.
    Generate { node: NodeId },
    /// A protocol timer fires at `node`.
    Timer { node: NodeId, id: u64, tag: u32 },
    /// The radio of `node` finishes its startup transition; `token`
    /// invalidates events from startups aborted by a `sleep()`.
    RadioReady { node: NodeId, token: u64 },
    /// A frame's first bit arrives at every air receiver of its sender
    /// `frame.src` (propagation is treated as instantaneous at these
    /// ranges); each receiver hears it at its own link's received
    /// power.
    AirStart { tx_seq: u64, frame: Frame },
    /// A frame's last bit leaves the air at the sender's air receivers
    /// from index `from` on, in ascending id order. `from` is 0 except
    /// on a walk resumed after a wake that a receiver's `on_frame`
    /// registered for the same instant.
    AirEnd {
        tx_seq: u64,
        frame: Frame,
        from: u32,
    },
    /// `node` finishes transmitting its current frame.
    TxDone { node: NodeId },
}
