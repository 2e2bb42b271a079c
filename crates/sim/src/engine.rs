//! The simulation engine: event loop, radio state machine, the
//! channel's decode rule, timers and energy accounting.
//!
//! # Execution
//!
//! The engine is a read-only [`Shared`] world plus one [`RunState`]:
//! an arena of per-node state indexed by [`NodeId::index`], an event
//! scheduler and a wake schedule (each a binary-heap [`Queue`] with a
//! payload slab), driven by one sequential loop. Every piece of
//! mutable run state — RNG stream, timer ids, transmit sequence
//! numbers, packet ids, event sequence numbers, packet records — is
//! per-node, and every queue tie-break is on the global `(time, round,
//! node, sequence)` key ([`crate::OrderKey`]), so a node's evolution
//! is a function of the seed, its own index and the events it
//! receives — never of a run-global counter. Both queues hold only
//! entries due by the horizon, and every build asserts that pops never
//! go back in order.
//!
//! # One decode path
//!
//! Every build realizes a [`LinkField`] — per-directed-link received
//! powers — and every reception is judged by one SINR rule against the
//! receiver's [`InterferenceTally`]. A unit disk is the special case of
//! 1 mW links with capture off: the first arrival locks and any
//! overlap destroys.
//!
//! # One air event per transmission
//!
//! [`Ctx::send`] queues three entries per frame — `AirStart`, `AirEnd`
//! and the sender's `TxDone` — and dispatching an air event walks the
//! sender's air receivers in ascending id order. The walk is the order
//! per-receiver entries would pop in: they would share `(time, round,
//! node)` with consecutive sequence numbers, so nothing queued can
//! come between them. Only a wake can: wakes win ties, and a
//! receiver's `on_frame` may register one for the current instant. An
//! `AirEnd` walk that sees such a wake due hands its remainder back to
//! the queue under its own key and resumes after the wake has fired.

use crate::events::Event;
use crate::frame::{Frame, FrameKind, Packet, PacketId};
use crate::protocol::SimProtocol;
pub use crate::protocols::MacNode;
use crate::queue::{OrderKey, Queue};
use crate::report::{EngineStats, NodeStats, PacketRecord, SimReport};
use crate::time::SimTime;
use edmac_net::{Graph, NetError, NodeId, RoutingTree, Topology};
use edmac_phy::{ChannelModel, InterferenceTally, LinkField, SinrParams, UnitDisk};
use edmac_radio::{Cause, EnergyLedger, FrameSizes, Mode, Radio};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the engine schedules protocol clock ticks.
///
/// Both modes produce byte-identical [`SimReport`]s (asserted by the
/// `wake_equivalence` golden tests). `Coarse` is a request: the engine
/// hands protocols `Coarse` only where the realized channel proves the
/// replay exact (every node's air neighbors are its same-network decode
/// neighbors and, under capture, a lone frame on a decode link clears
/// capture against noise alone) and `Dense` otherwise. Setting `Dense`
/// forces the reference schedule — the executable side of the
/// equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeMode {
    /// Event-coarse scheduling where the channel allows it: nodes wake
    /// only for slots where they transmit, may receive from a
    /// schedule-known neighbor, or must sample the channel; elided
    /// idle ticks are replayed into the energy ledger arithmetically
    /// ([`Ctx::replay_idle_wake`]).
    #[default]
    Coarse,
    /// The reference schedule: every protocol tick becomes a wake-up,
    /// exactly like the pre-coarsening engine.
    Dense,
}

/// Run-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// Application sampling period (`1/Fs`) of every non-sink node.
    pub sample_period: Seconds,
    /// Packets created before this instant are excluded from latency
    /// statistics (cold-start transient).
    pub warmup: Seconds,
    /// RNG seed; equal seeds reproduce runs exactly. Each node derives
    /// its own decorrelated stream from `(seed, node index)`, so the
    /// draws a node sees do not depend on event interleaving.
    pub seed: u64,
    /// Wake scheduling mode (default [`WakeMode::Coarse`], which the
    /// engine lowers to `Dense` wherever the realized channel makes the
    /// coarse replay inexact; `Dense` forces the test reference).
    pub scheduling: WakeMode,
}

impl Default for SimConfig {
    /// 600 simulated seconds, one sample per 60 s, 30 s warmup.
    fn default() -> SimConfig {
        SimConfig {
            duration: Seconds::new(600.0),
            sample_period: Seconds::new(60.0),
            warmup: Seconds::new(30.0),
            seed: 0,
            scheduling: WakeMode::Coarse,
        }
    }
}

/// Synchronized high-rate windows layered over the base sampling
/// periods (event-driven sensing: a detected event makes a region
/// report faster for a while).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindows {
    /// Interval between burst onsets (the first starts at `t = every`).
    pub every: Seconds,
    /// Length of each burst window.
    pub duration: Seconds,
    /// Sampling-rate multiplier inside a window (periods divide by it).
    pub factor: f64,
}

impl BurstWindows {
    /// Returns `true` if `now` falls inside a burst window.
    fn active(&self, now: SimTime) -> bool {
        let every = self.every.value();
        if every <= 0.0 {
            return false;
        }
        let t = now.as_seconds().value() % every;
        // Bursts start at each multiple of `every` (skipping t = 0 so
        // cold-start traffic stays nominal).
        now.as_seconds().value() >= every && t < self.duration.value()
    }
}

/// Per-node application traffic: mean sampling periods (the sink's
/// entry is ignored) plus optional burst windows. The engine's default
/// — every node at [`SimConfig::sample_period`], no bursts — is
/// `TrafficProfile::uniform`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Mean sampling period per node, indexed by node id.
    pub periods: Vec<Seconds>,
    /// Optional synchronized burst windows.
    pub burst: Option<BurstWindows>,
}

impl TrafficProfile {
    /// Every node samples at `period`, no bursts.
    pub fn uniform(n: usize, period: Seconds) -> TrafficProfile {
        TrafficProfile {
            periods: vec![period; n],
            burst: None,
        }
    }

    /// Layers burst windows over the profile.
    #[must_use]
    pub fn with_bursts(mut self, burst: BurstWindows) -> TrafficProfile {
        self.burst = Some(burst);
        self
    }
}

/// Placeholder swapped in while a real node is being called (the engine
/// cannot hold two mutable borrows).
#[derive(Debug)]
struct NullNode;

impl MacNode for NullNode {
    fn start(&mut self, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u32, _: u64) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

/// Per-node radio bookkeeping. `mode` leads so that it lands in
/// [`NodeState`]'s first cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct RadioState {
    mode: Mode,
    cause: Cause,
    since: SimTime,
    /// Invalidates in-flight `RadioReady` events after `sleep()`.
    startup_token: u64,
}

/// An in-progress reception.
#[derive(Debug, Clone)]
struct ActiveRx {
    tx_seq: u64,
    corrupted: bool,
    /// Received power of the locked frame (mW).
    signal_mw: f64,
    /// Worst SINR the locked frame saw while on the air (read only by
    /// the SINR diagnostic).
    min_sinr: f64,
    /// `true` if an interferer overlapped the locked frame and SINR
    /// capture rode it out — a decode under this flag is a *capture*.
    overlapped: bool,
}

impl ActiveRx {
    fn lock(tx_seq: u64, signal_mw: f64, sinr: f64, overlapped: bool) -> ActiveRx {
        ActiveRx {
            tx_seq,
            corrupted: false,
            signal_mw,
            min_sinr: sinr,
            overlapped,
        }
    }
}

/// The decode rule of a channel whose [`ChannelModel::sinr`] is `None`
/// (the unit disk): no sensitivity floor, so every air link locks, and
/// capture off, so any overlap destroys a locked frame.
const DISK_DECODE: SinrParams = SinrParams {
    noise_mw: 0.0,
    sensitivity_mw: 0.0,
    capture: None,
};

/// Decorrelates per-node RNG streams: two rounds of splitmix64 over
/// `(seed, node)`.
fn node_stream(seed: u64, node: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(node as u64 ^ 0x0005_DEEC_E66D))
}

/// All mutable state of one node, stored in the run's arena.
///
/// Everything that could be a run-global counter (timer ids, tx
/// sequence numbers, packet ids, the event sequence, the RNG) lives
/// here, keyed or seeded by the node's global index, so what a node
/// draws and mints never depends on how its events interleave with
/// other nodes'.
///
/// Layout: a frame's receiver walk visits every air neighbor, most of
/// them asleep, and reads or writes only the tally, the locked
/// reception and the radio mode. Those lead a cache-line-aligned
/// record, so a visit costs one cache line; on the 100 000-node LMAC
/// disk of `tests/scale.rs` that took the median wall from 7.9 s to
/// 7.2 s on a shared 2-core machine.
#[derive(Debug)]
#[repr(C, align(64))]
struct NodeState {
    /// Frames on the air at this receiver and their summed power; the
    /// count is what the CCA primitive reads.
    tally: InterferenceTally,
    active_rx: Option<ActiveRx>,
    radio: RadioState,
    ledger: EnergyLedger,
    /// Sum of per-decode SINRs in dB and the number of decodes behind
    /// it (SINR models only) — feeds `NodeStats::mean_sinr_db`.
    sinr_db_sum: f64,
    sinr_decoded: u64,
    counters: crate::frame::FrameCounters,
    rng: StdRng,
    /// The currently registered wake `(time, token)`; queue entries
    /// that no longer match are stale and skipped on pop.
    wake_current: Option<(SimTime, u64)>,
    wake_token: u64,
    next_timer: u64,
    next_tx: u64,
    next_packet: u64,
    next_event_seq: u64,
    /// Ids of pending timers that were cancelled. A node has at most
    /// a couple at a time, so a linear scan beats hashing.
    cancelled_timers: Vec<u64>,
    /// Records of packets *originating* here, in creation order: the
    /// `k`-th record carries the node's `k`-th packet id.
    records: Vec<PacketRecord>,
}

// The walk's fields share the first cache line.
const _: () = assert!(std::mem::offset_of!(NodeState, radio) + std::mem::size_of::<Mode>() <= 64);

impl NodeState {
    fn new(radio: &Radio, seed: u64, node: usize) -> NodeState {
        NodeState {
            tally: InterferenceTally::new(),
            active_rx: None,
            radio: RadioState {
                mode: Mode::Sleep,
                cause: Cause::Sleep,
                since: SimTime::ZERO,
                startup_token: 0,
            },
            ledger: EnergyLedger::new(radio.power),
            sinr_db_sum: 0.0,
            sinr_decoded: 0,
            counters: crate::frame::FrameCounters::default(),
            rng: StdRng::seed_from_u64(node_stream(seed, node)),
            wake_current: None,
            wake_token: 0,
            next_timer: 0,
            next_tx: 0,
            next_packet: 0,
            next_event_seq: 0,
            cancelled_timers: Vec::new(),
            records: Vec::new(),
        }
    }

    fn charge_current(&mut self, now: SimTime) {
        let state = self.radio;
        let elapsed = now.since(state.since);
        let cause = if state.mode == Mode::Sleep {
            Cause::Sleep
        } else {
            state.cause
        };
        self.ledger.charge(state.mode, cause, elapsed);
    }

    fn set_mode(&mut self, now: SimTime, mode: Mode, cause: Cause) {
        self.charge_current(now);
        self.radio.mode = mode;
        self.radio.since = now;
        self.radio.cause = cause;
    }

    /// The first bit of `frame` reaches this node (`me`) at `power_mw`:
    /// it joins the interference tally, and either corrupts the locked
    /// reception or, at a listening radio, may become the lock.
    fn air_start(
        &mut self,
        params: &SinrParams,
        now: SimTime,
        me: NodeId,
        tx_seq: u64,
        frame: &Frame,
        power_mw: f64,
    ) {
        self.tally.add(power_mw);
        if let Some(rx) = &mut self.active_rx {
            // An interferer arrived over a locked frame: with capture
            // on, the lock survives while its SINR clears the
            // threshold; with capture off, any overlap destroys it.
            // Corruption latches — a strong frame that once dipped
            // below threshold stays lost even if the interferer ends
            // first.
            match params.capture {
                Some(c) => {
                    let sinr = self.tally.sinr(rx.signal_mw, params.noise_mw);
                    rx.overlapped = true;
                    rx.min_sinr = rx.min_sinr.min(sinr);
                    if sinr < c {
                        rx.corrupted = true;
                    }
                }
                None => rx.corrupted = true,
            }
        } else if self.radio.mode == Mode::Listen {
            if power_mw < params.sensitivity_mw {
                // Audible energy, undecodable signal: the radio never
                // syncs on it.
                self.counters.record_below_noise();
            } else {
                let sinr = self.tally.sinr(power_mw, params.noise_mw);
                let interference = self.tally.power_mw() - power_mw;
                let (locks, overlapped) = match params.capture {
                    // Capture decides the lock against the ongoing
                    // interference.
                    Some(c) => (sinr >= c, interference > 0.0),
                    // Capture off: first arrival locks unconditionally
                    // (a node waking into an ongoing frame's tail still
                    // locks the next arrival cleanly).
                    None => (true, false),
                };
                if locks {
                    let cause = frame.kind.rx_cause(frame.addressed_to(me));
                    self.set_mode(now, Mode::Rx, cause);
                    self.active_rx = Some(ActiveRx::lock(tx_seq, power_mw, sinr, overlapped));
                }
            }
        }
    }

    /// The last bit of frame `tx_seq` leaves the air at this node: it
    /// leaves the tally, and if it was the locked reception the radio
    /// drops back to listening and counts it. Returns `true` iff the
    /// frame decoded intact.
    fn air_end(
        &mut self,
        sample_sinr: bool,
        now: SimTime,
        tx_seq: u64,
        kind: FrameKind,
        power_mw: f64,
    ) -> bool {
        self.tally.remove(power_mw);
        let Some(rx) = self.active_rx.take_if(|rx| rx.tx_seq == tx_seq) else {
            return false;
        };
        // Back to plain listening; the node decides what happens next.
        self.set_mode(now, Mode::Listen, Cause::CarrierSense);
        if rx.corrupted {
            self.counters.record_collision();
            return false;
        }
        self.counters.record_rx(kind);
        if rx.overlapped {
            self.counters.record_captured();
        }
        if sample_sinr {
            self.sinr_db_sum += 10.0 * rx.min_sinr.log10();
            self.sinr_decoded += 1;
        }
        true
    }
}

/// The read-only world of a run: topology, routing, radio hardware
/// and configuration.
#[derive(Debug)]
struct Shared {
    end: SimTime,
    radio_hw: Radio,
    frames: FrameSizes,
    /// The realized channel: its receivers are the *air* adjacency
    /// every air event walks (a superset of the decode graph routing
    /// was built over).
    field: LinkField,
    /// The decode rule every reception is judged by.
    decode: SinrParams,
    /// Whether decodes sample their SINR into `mean_sinr_db` (models
    /// with their own [`SinrParams`] only; the unit disk reports none).
    sample_sinr: bool,
    parent: Vec<Option<NodeId>>,
    depth: Vec<usize>,
    /// The network each node belongs to (all 0 outside coexistence
    /// builds). Frames decode across networks — the radio cannot know
    /// better — but `on_frame` only fires for same-network traffic,
    /// the PAN-filter every real MAC applies before its state machine.
    network_of: Vec<u32>,
    /// One sink per network, indexed by network id.
    sinks: Vec<NodeId>,
    /// Each network's deepest hop distance, indexed by network id.
    max_depths: Vec<usize>,
    config: SimConfig,
    /// Per-node traffic overriding [`SimConfig::sample_period`].
    traffic: Option<TrafficProfile>,
}

impl Shared {
    /// The mean sampling period of `node` at `now`.
    fn sample_period(&self, now: SimTime, node: NodeId) -> Seconds {
        let base = match &self.traffic {
            Some(profile) => profile.periods[node.index()],
            None => self.config.sample_period,
        };
        match self.traffic.as_ref().and_then(|p| p.burst) {
            Some(burst) if burst.active(now) => Seconds::new(base.value() / burst.factor),
            _ => base,
        }
    }

    /// The network `node` belongs to (0 outside coexistence builds).
    fn network(&self, node: NodeId) -> usize {
        self.network_of[node.index()] as usize
    }

    /// Whether `node` is the sink of its own network.
    fn is_sink(&self, node: NodeId) -> bool {
        self.sinks[self.network(node)] == node
    }
}

/// The complete mutable state of a run: the node arena (indexed by
/// [`NodeId::index`]), the event and wake queues, and the clock.
#[derive(Debug)]
struct RunState {
    now: SimTime,
    events: Queue<Event>,
    wakes: Queue<()>,
    nodes: Vec<NodeState>,
    machines: Vec<Box<dyn MacNode>>,
    stats: EngineStats,
}

impl RunState {
    /// Mints the next ordering key of `node`. `round` is the
    /// same-instant causal depth ([`OrderKey::round`]); entries for
    /// future instants always pass 0.
    fn key_for(&mut self, node: NodeId, at: SimTime, round: u32) -> OrderKey {
        let st = &mut self.nodes[node.index()];
        let seq = st.next_event_seq;
        st.next_event_seq += 1;
        OrderKey {
            at,
            round,
            node: node.index() as u32,
            seq,
        }
    }

    /// Registers (or supersedes) the single pending wake of a node.
    fn register_wake(&mut self, node: NodeId, want: Option<SimTime>) {
        let st = &mut self.nodes[node.index()];
        match (want, st.wake_current) {
            (Some(t), Some((current, _))) if current == t => {}
            (Some(t), _) => {
                st.wake_token += 1;
                st.wake_current = Some((t, st.wake_token));
                self.wakes.schedule(
                    OrderKey {
                        at: t,
                        round: 0,
                        node: node.index() as u32,
                        seq: st.wake_token,
                    },
                    (),
                );
            }
            (None, Some(_)) => st.wake_current = None,
            (None, None) => {}
        }
    }

    /// The earliest valid pending wake, dropping stale entries.
    fn peek_wake(&mut self) -> Option<OrderKey> {
        while let Some(key) = self.wakes.peek_key() {
            if self.nodes[key.node as usize].wake_current == Some((key.at, key.seq)) {
                return Some(key);
            }
            self.wakes.pop();
            self.stats.stale_wakes += 1;
        }
        None
    }
}

/// The node-facing API: everything a [`MacNode`] may do to the world.
#[derive(Debug)]
pub struct Ctx<'a> {
    shared: &'a Shared,
    run: &'a mut RunState,
    node: NodeId,
    /// Causal round assigned to entries this handler schedules for the
    /// *current* instant: the triggering entry's round plus one.
    round: u32,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.run.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Returns `true` if this node is the sink (of its own network, in
    /// coexistence builds).
    pub fn is_sink(&self) -> bool {
        self.shared.is_sink(self.node)
    }

    /// The next hop toward the sink (`None` at the sink).
    pub fn parent(&self) -> Option<NodeId> {
        self.shared.parent[self.node.index()]
    }

    /// This node's hop distance from the sink.
    pub fn depth(&self) -> usize {
        self.shared.depth[self.node.index()]
    }

    /// The deepest hop distance in this node's network (`D`).
    pub fn max_depth(&self) -> usize {
        self.shared.max_depths[self.shared.network(self.node)]
    }

    /// The airtime of a frame of `kind` on this deployment's radio.
    pub fn airtime(&self, kind: FrameKind) -> Seconds {
        self.shared.radio_hw.airtime(kind.size(&self.shared.frames))
    }

    /// The radio's startup latency.
    pub fn startup_delay(&self) -> Seconds {
        self.shared.radio_hw.timings.startup
    }

    /// Returns `true` if any in-range transmission is currently on the
    /// air (the CCA primitive).
    pub fn channel_busy(&self) -> bool {
        self.run.nodes[self.node.index()].tally.count() > 0
    }

    /// Returns `true` if the radio is currently locked onto a frame.
    pub fn is_receiving(&self) -> bool {
        self.run.nodes[self.node.index()].active_rx.is_some()
    }

    /// The radio's current mode.
    pub fn mode(&self) -> Mode {
        self.run.nodes[self.node.index()].radio.mode
    }

    /// Mints this node's next event ordering key for time `at`.
    /// Same-instant entries inherit this handler's causal round.
    fn next_key(&mut self, at: SimTime) -> OrderKey {
        let round = if at == self.run.now { self.round } else { 0 };
        self.run.key_for(self.node, at, round)
    }

    /// Schedules a timer `delay` from now; returns its id.
    pub fn set_timer(&mut self, delay: Seconds, tag: u32) -> u64 {
        let st = &mut self.run.nodes[self.node.index()];
        let id = ((self.node.index() as u64) << 32) | st.next_timer;
        st.next_timer += 1;
        let at = self.run.now.after(delay);
        let key = self.next_key(at);
        self.run.events.schedule(
            key,
            Event::Timer {
                node: self.node,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer (firing becomes a no-op).
    pub fn cancel_timer(&mut self, id: u64) {
        let cancelled = &mut self.run.nodes[self.node.index()].cancelled_timers;
        if !cancelled.contains(&id) {
            cancelled.push(id);
        }
    }

    /// Uniform random sample in `[lo, hi)` from this node's seeded
    /// stream (derived from the run seed and the node's global index,
    /// so draws are independent of event interleaving across nodes).
    pub fn random_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.run.nodes[self.node.index()].rng.gen_range(lo..hi)
    }

    /// Starts the radio from sleep; [`MacNode::on_radio_ready`] fires
    /// after the startup delay. No-op unless sleeping.
    ///
    /// `cause` is charged for the startup period (poll startups are
    /// carrier-sense, schedule wake-ups are sync, ...).
    pub fn wake(&mut self, cause: Cause) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        if st.radio.mode != Mode::Sleep {
            return;
        }
        st.set_mode(now, Mode::Startup, cause);
        st.radio.startup_token += 1;
        let token = st.radio.startup_token;
        let at = now.after(self.shared.radio_hw.timings.startup);
        let key = self.next_key(at);
        self.run.events.schedule(
            key,
            Event::RadioReady {
                node: self.node,
                token,
            },
        );
    }

    /// Puts the radio to sleep immediately, aborting any reception in
    /// progress and invalidating a pending startup.
    ///
    /// # Panics
    ///
    /// Panics if called mid-transmission — a protocol must never
    /// abandon its own frame on the air.
    pub fn sleep(&mut self) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        assert!(
            st.radio.mode != Mode::Tx,
            "node {} tried to sleep while transmitting",
            self.node
        );
        st.active_rx = None;
        st.radio.startup_token += 1;
        st.set_mode(now, Mode::Sleep, Cause::Sleep);
    }

    /// Re-labels the cause charged for the current listening period
    /// (e.g. a poll that turned into an exchange).
    pub fn relabel_listen(&mut self, cause: Cause) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        if st.radio.mode == Mode::Listen {
            st.set_mode(now, Mode::Listen, cause);
        }
    }

    /// Transmits a frame; [`MacNode::on_tx_done`] fires when it leaves
    /// the antenna. The radio must be listening (awake and not mid-
    /// exchange).
    ///
    /// # Panics
    ///
    /// Panics if the radio is not in listen mode — protocols must
    /// sequence their own transmissions.
    pub fn send(&mut self, kind: FrameKind, dst: Option<NodeId>, packet: Option<Packet>) {
        let now = self.run.now;
        assert_eq!(
            self.run.nodes[self.node.index()].radio.mode,
            Mode::Listen,
            "node {} tried to send {kind:?} while not listening",
            self.node
        );
        // Transmitting tears down any half-received frame.
        self.run.nodes[self.node.index()].active_rx = None;

        let frame = Frame {
            kind,
            src: self.node,
            dst,
            packet,
        };
        let duration = self.airtime(kind);
        let st = &mut self.run.nodes[self.node.index()];
        let tx_seq = ((self.node.index() as u64) << 32) | st.next_tx;
        st.next_tx += 1;
        st.counters.record_tx(kind);
        st.set_mode(now, Mode::Tx, kind.tx_cause());

        let end = now.after(duration);
        // A zero airtime would put the frame's end in the same round
        // as its start and break the walk's pop-order argument.
        debug_assert!(end > now, "{kind:?} has no airtime");
        let k = self.next_key(now);
        self.run
            .events
            .schedule(k, Event::AirStart { tx_seq, frame });
        let k = self.next_key(end);
        self.run.events.schedule(
            k,
            Event::AirEnd {
                tx_seq,
                frame,
                from: 0,
            },
        );
        let k = self.next_key(end);
        self.run
            .events
            .schedule(k, Event::TxDone { node: self.node });
    }

    /// Replays, straight into the energy ledger, one idle wake-up that
    /// the event-coarse scheduler elided: sleep up to `wake_at`, a
    /// radio startup charged to `cause`, then `listen` seconds of
    /// silent listening, after which the node went back to sleep.
    ///
    /// The charge sequence (piece boundaries, rounding, order) is
    /// exactly what the dense scheduler produces for a wake that hears
    /// nothing, so coarse and dense runs stay bit-identical; pieces
    /// crossing the horizon are clamped the way the dense end-of-run
    /// flush clamps them. A replay is only valid for a slot in which no
    /// in-range transmission can occur — the caller's schedule
    /// knowledge, not the engine's.
    ///
    /// No-op if the node was not asleep across `wake_at` (the dense
    /// scheduler skips busy boundaries without charging them).
    pub fn replay_idle_wake(&mut self, wake_at: SimTime, cause: Cause, listen: Seconds) {
        let st = &mut self.run.nodes[self.node.index()];
        let state = st.radio;
        if state.mode != Mode::Sleep || wake_at < state.since {
            return;
        }
        let end = self.shared.end;
        let startup = self.shared.radio_hw.timings.startup;
        let woke = wake_at.min(end);
        let listening = wake_at.after(startup).min(end);
        let slept = wake_at.after(startup).after(listen).min(end);
        st.ledger
            .charge(Mode::Sleep, Cause::Sleep, woke.since(state.since));
        st.ledger
            .charge(Mode::Startup, cause, listening.since(woke));
        st.ledger
            .charge(Mode::Listen, cause, slept.since(listening));
        st.radio.since = slept;
    }

    /// Replays a wake in which this node deterministically received one
    /// control section from the single in-range owner of the slot,
    /// then went back to sleep: sleep up to `wake_at`, startup, and one
    /// control airtime of reception, all charged to the sync buckets;
    /// the reception is counted iff its last bit lands inside the
    /// horizon, exactly as the dense scheduler's `AirEnd` would.
    ///
    /// Only valid where the schedule proves the exchange: exactly one
    /// in-range owner (distance-2 slot reuse), an unconditional control
    /// transmission, and an addressee other than this node. LMAC's
    /// non-child neighbor slots satisfy all three.
    pub fn replay_heard_control(&mut self, wake_at: SimTime) {
        let t_ctl = self
            .shared
            .radio_hw
            .airtime(FrameKind::Control.size(&self.shared.frames));
        let st = &mut self.run.nodes[self.node.index()];
        let state = st.radio;
        if state.mode != Mode::Sleep || wake_at < state.since {
            return;
        }
        let end = self.shared.end;
        let startup = self.shared.radio_hw.timings.startup;
        // The owner's control starts the instant this node's radio is
        // up (all nodes share the per-slot wake lead), so no listen
        // time elapses before the lock.
        let woke = wake_at.min(end);
        let locked = wake_at.after(startup).min(end);
        let heard = wake_at.after(startup).after(t_ctl);
        let slept = heard.min(end);
        st.ledger
            .charge(Mode::Sleep, Cause::Sleep, woke.since(state.since));
        st.ledger
            .charge(Mode::Startup, Cause::SyncRx, locked.since(woke));
        st.ledger
            .charge(Mode::Rx, Cause::SyncRx, slept.since(locked));
        if heard <= end {
            st.counters.record_rx(FrameKind::Control);
        }
        st.radio.since = slept;
    }

    /// Records the final delivery of `packet` at the sink; the first
    /// delivery of a packet wins.
    pub fn deliver(&mut self, packet: Packet) {
        // Packet ids are `(origin index << 32) | k`, and the origin's
        // `k`-th record carries exactly that id.
        let id = packet.id.0;
        let record = self
            .run
            .nodes
            .get_mut((id >> 32) as usize)
            .and_then(|st| st.records.get_mut((id & 0xFFFF_FFFF) as usize))
            .filter(|r| r.id == packet.id && r.delivered.is_none());
        if let Some(r) = record {
            r.delivered = Some(self.run.now);
            r.hops = packet.hops;
        }
    }
}

/// Runs a node callback with the engine's lending pattern, then
/// re-queries and re-registers the node's wake. `round` is the causal
/// round the handler's same-instant scheduling inherits (the
/// triggering entry's round plus one).
fn with_node<F>(shared: &Shared, run: &mut RunState, node: NodeId, round: u32, f: F)
where
    F: FnOnce(&mut Box<dyn MacNode>, &mut Ctx<'_>),
{
    let mut taken: Box<dyn MacNode> =
        std::mem::replace(&mut run.machines[node.index()], Box::new(NullNode));
    let want = {
        let mut ctx = Ctx {
            shared,
            run,
            node,
            round,
        };
        f(&mut taken, &mut ctx);
        taken.next_activity(&mut ctx)
    };
    run.machines[node.index()] = taken;
    run.register_wake(node, want);
}

/// Delivers one event, popped under `key`, to its destination nodes'
/// state and machines. Same-instant follow-ups land in the event's own
/// round plus one.
fn dispatch(shared: &Shared, run: &mut RunState, key: OrderKey, event: Event) {
    let round = key.round + 1;
    match event {
        Event::Generate { node } => {
            let now = run.now;
            let st = &mut run.nodes[node.index()];
            let id = PacketId(((node.index() as u64) << 32) | st.next_packet);
            st.next_packet += 1;
            let packet = Packet {
                id,
                origin: node,
                created: now,
                hops: 0,
            };
            st.records.push(PacketRecord {
                id,
                origin: node,
                origin_depth: shared.depth[node.index()],
                created: now,
                delivered: None,
                hops: 0,
            });
            // Schedule the next sample before handing over. The
            // interval is jittered within ±half a period (mean rate
            // preserved): strictly periodic sampling phase-locks
            // against frame and ladder schedules, which biases delay
            // medians in ways the analytical models' uniform-arrival
            // assumption excludes.
            let jitter = st.rng.gen_range(0.5..1.5);
            let next = now.after(shared.sample_period(now, node) * jitter);
            let r = if next == now { round } else { 0 };
            let key = run.key_for(node, next, r);
            run.events.schedule(key, Event::Generate { node });
            with_node(shared, run, node, round, |n, ctx| {
                n.on_generate(ctx, packet)
            });
        }
        Event::Timer { node, id, tag } => {
            let cancelled = &mut run.nodes[node.index()].cancelled_timers;
            if let Some(i) = cancelled.iter().position(|&c| c == id) {
                cancelled.swap_remove(i);
                return;
            }
            with_node(shared, run, node, round, |n, ctx| n.on_timer(ctx, tag, id));
        }
        Event::RadioReady { node, token } => {
            let now = run.now;
            let st = &mut run.nodes[node.index()];
            if st.radio.startup_token != token || st.radio.mode != Mode::Startup {
                return; // stale: the node went back to sleep
            }
            let cause = st.radio.cause;
            st.set_mode(now, Mode::Listen, cause);
            with_node(shared, run, node, round, |n, ctx| n.on_radio_ready(ctx));
        }
        Event::AirStart { tx_seq, frame } => {
            // No MAC code runs here, so nothing can come between two
            // receivers of the walk.
            for &(node, power_mw) in shared.field.receivers(frame.src) {
                let st = &mut run.nodes[node.index()];
                st.air_start(&shared.decode, run.now, node, tx_seq, &frame, power_mw);
            }
        }
        Event::AirEnd {
            tx_seq,
            frame,
            from,
        } => {
            let receivers = shared.field.receivers(frame.src);
            for (i, &(node, power_mw)) in receivers.iter().enumerate().skip(from as usize) {
                let st = &mut run.nodes[node.index()];
                if !st.air_end(shared.sample_sinr, run.now, tx_seq, frame.kind, power_mw) {
                    continue;
                }
                // Cross-network frames decode at the radio but never
                // reach the MAC state machine (PAN filter).
                if shared.network(frame.src) != shared.network(node) {
                    continue;
                }
                with_node(shared, run, node, round, |n, ctx| n.on_frame(ctx, &frame));
                // A wake the handler made due at this instant wins the
                // tie against the rest of the walk: hand the remainder
                // back under this entry's key, which still sorts first
                // among queued events once the wake has fired.
                let rest = i + 1;
                if rest < receivers.len() && run.peek_wake().is_some_and(|w| w.at <= run.now) {
                    run.stats.air_end_resumed += 1;
                    let from = rest as u32;
                    run.events.schedule(
                        key,
                        Event::AirEnd {
                            tx_seq,
                            frame,
                            from,
                        },
                    );
                    return;
                }
            }
        }
        Event::TxDone { node } => {
            let now = run.now;
            let st = &mut run.nodes[node.index()];
            debug_assert_eq!(st.radio.mode, Mode::Tx);
            st.set_mode(now, Mode::Listen, Cause::CarrierSense);
            with_node(shared, run, node, round, |n, ctx| n.on_tx_done(ctx));
        }
    }
}

/// Runs the event loop to the horizon, interleaving queued events with
/// the per-node wake schedule: ties go to wakes (the dense scheduler's
/// boundary timers always carried the earliest sequence numbers),
/// simultaneous wakes fire in node order, and nothing past the horizon
/// fires: both queues drop such entries ([`Queue::until`]), so the loop
/// runs until they are empty.
///
/// Event pops never go back in [`OrderKey`] order (a resumed `AirEnd`
/// walk pops under the key it was handed back with, so equal keys
/// repeat) and wake pops never go back in time; every build asserts
/// both, at one key compare per pop.
fn run_to_horizon(shared: &Shared, run: &mut RunState) {
    let mut last_event: Option<OrderKey> = None;
    let mut last_wake = SimTime::ZERO;
    loop {
        let wake = run.peek_wake();
        let event = run.events.peek_key();
        let fire_wake = match (wake, event) {
            (Some(w), Some(e)) => w.at <= e.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if fire_wake {
            let key = wake.expect("chosen branch has a wake");
            run.wakes.pop();
            assert!(key.at >= last_wake, "wake popped back in time");
            last_wake = key.at;
            run.stats.wakes += 1;
            let node = NodeId::new(key.node as usize);
            run.nodes[node.index()].wake_current = None;
            run.now = key.at;
            // Wakes carry round 0 and all fire before any event at the
            // same instant, so their same-instant follow-ups land in
            // round 1 — after every already-pending event.
            with_node(shared, run, node, 1, |n, ctx| n.on_wake(ctx));
        } else {
            let key = event.expect("chosen branch has an event");
            let (_, ev) = run.events.pop().expect("peeked event exists");
            assert!(
                last_event.is_none_or(|last| last <= key),
                "event popped out of OrderKey order"
            );
            last_event = Some(key);
            run.stats.record(&ev);
            run.now = key.at;
            dispatch(shared, run, key, ev);
        }
    }
}

/// Seeds periodic traffic (random initial phases from each node's own
/// stream) and starts every node.
fn seed_and_start(shared: &Shared, run: &mut RunState) {
    for i in 0..run.nodes.len() {
        let node = NodeId::new(i);
        if shared.is_sink(node) {
            continue;
        }
        let period = shared.sample_period(SimTime::ZERO, node);
        let phase = run.nodes[i].rng.gen_range(0.0..period.value());
        let at = SimTime::from_seconds(Seconds::new(phase));
        let key = run.key_for(node, at, 0);
        run.events.schedule(key, Event::Generate { node });
    }
    for i in 0..run.nodes.len() {
        with_node(shared, run, NodeId::new(i), 1, |n, ctx| n.start(ctx));
    }
}

/// Horizon phase: let schedule-coarsening nodes replay idle wakes that
/// were still pending, then flush residual mode time.
fn finish(shared: &Shared, run: &mut RunState) {
    run.now = shared.end;
    for i in 0..run.nodes.len() {
        with_node(shared, run, NodeId::new(i), 1, |n, ctx| n.on_horizon(ctx));
    }
    for st in &mut run.nodes {
        st.charge_current(shared.end);
        st.radio.since = shared.end;
    }
}

/// A fully built simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    shared: Shared,
    machines: Vec<Box<dyn MacNode>>,
    /// Per-network protocol names, indexed by network id (one entry
    /// outside coexistence builds).
    network_names: Vec<&'static str>,
}

/// The per-node factory of a scripted build.
type MakeNode<'a> = &'a mut dyn FnMut(NodeId, &RoutingTree) -> Box<dyn MacNode>;

/// Where one network of an assembly gets its state machines.
enum Machines<'a> {
    /// A protocol configuration's [`SimProtocol::build_nodes`].
    Protocol(&'a dyn SimProtocol),
    /// A scripted per-node factory under a display name.
    Scripted(&'static str, MakeNode<'a>),
}

/// One network of an assembly.
struct Member<'a> {
    /// Node positions and sink, in the shared coordinate plane.
    topology: &'a Topology,
    /// The seed the network's `build_nodes` sees.
    seed: u64,
    machines: Machines<'a>,
}

/// Whether coarse wake replay is exact over a realized field: every
/// node's air neighbors are exactly its decode neighbors, all in its
/// own network — so no energy outside the schedule ever reaches a
/// receiver — and every air link decodes a lone frame against noise
/// alone, so a scheduled frame always locks under capture.
fn replay_is_exact(
    field: &LinkField,
    decode: &Graph,
    network_of: &[u32],
    params: &SinrParams,
) -> bool {
    decode.nodes().all(|u| {
        let air = field.receivers(u);
        let net = network_of[u.index()];
        air.len() == decode.degree(u)
            && air
                .iter()
                .zip(decode.neighbors(u))
                .all(|(&(v, power_mw), &w)| {
                    v == w && network_of[v.index()] == net && params.decodable(power_mw, 0.0)
                })
    })
}

impl Simulation {
    /// Builds a simulation over an explicit topology on the unit disk
    /// ([`UnitDisk`]).
    ///
    /// The protocol is any [`SimProtocol`] configuration — the four
    /// built-in ones ([`XmacSim`](crate::XmacSim),
    /// [`DmacSim`](crate::DmacSim), [`LmacSim`](crate::LmacSim),
    /// [`ScpSim`](crate::ScpSim)) or a downstream implementation.
    ///
    /// # Errors
    ///
    /// * [`NetError::Disconnected`] if some node cannot reach the sink.
    /// * [`NetError::InvalidParameter`] if the configuration cannot
    ///   cover the topology (e.g. an LMAC frame with fewer slots than
    ///   the distance-2 coloring needs).
    pub fn build(
        topology: &Topology,
        radio: Radio,
        frames: FrameSizes,
        protocol: &dyn SimProtocol,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        Simulation::build_with_channel(topology, radio, frames, protocol, config, &UnitDisk)
    }

    /// Builds a simulation over the paper's ring topology (a geometric
    /// realization seeded from `config.seed`).
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::ring_model`] and [`Simulation::build`]
    /// errors.
    pub fn ring(
        depth: usize,
        density: usize,
        protocol: &dyn SimProtocol,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topology = Topology::ring_model(depth, density, &mut rng)?;
        Simulation::build(
            &topology,
            Radio::cc2420(),
            FrameSizes::default(),
            protocol,
            config,
        )
    }

    /// Builds a simulation with *custom* per-node state machines on the
    /// unit disk — the extension point for experimenting with new MAC
    /// protocols on the same channel, radio and traffic substrate.
    ///
    /// `make` is called once per node with its id and the routing tree.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if some node cannot reach the
    /// sink.
    ///
    /// # Examples
    ///
    /// See `tests/engine_channel.rs` for scripted-node usage.
    pub fn with_nodes<F>(
        topology: &Topology,
        radio: Radio,
        frames: FrameSizes,
        config: SimConfig,
        protocol_name: &'static str,
        make: F,
    ) -> Result<Simulation, NetError>
    where
        F: FnMut(NodeId, &RoutingTree) -> Box<dyn MacNode>,
    {
        Simulation::with_nodes_and_channel(
            topology,
            radio,
            frames,
            config,
            protocol_name,
            &UnitDisk,
            make,
        )
    }

    /// Builds a simulation over an explicit [`ChannelModel`]: routing
    /// runs over the model's decode graph, while air events reach the
    /// wider interference adjacency with per-directed-link received
    /// powers. [`Simulation::build`] is this over
    /// [`UnitDisk`].
    ///
    /// # Errors
    ///
    /// As [`Simulation::build`]; under heavy shadowing the realized
    /// decode graph may additionally come out
    /// [`Disconnected`](NetError::Disconnected).
    pub fn build_with_channel(
        topology: &Topology,
        radio: Radio,
        frames: FrameSizes,
        protocol: &dyn SimProtocol,
        config: SimConfig,
        channel: &dyn ChannelModel,
    ) -> Result<Simulation, NetError> {
        let member = Member {
            topology,
            seed: config.seed,
            machines: Machines::Protocol(protocol),
        };
        Simulation::compose(vec![member], radio, frames, channel, config)
    }

    /// [`Simulation::with_nodes`] over an explicit [`ChannelModel`]:
    /// scripted per-node state machines on a realized field. Routing
    /// (and the node ids `make` sees) follows the channel's *decode*
    /// graph; interference-only links still deliver air events.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the realized decode graph
    /// leaves some node unable to reach the sink.
    pub fn with_nodes_and_channel<F>(
        topology: &Topology,
        radio: Radio,
        frames: FrameSizes,
        config: SimConfig,
        protocol_name: &'static str,
        channel: &dyn ChannelModel,
        mut make: F,
    ) -> Result<Simulation, NetError>
    where
        F: FnMut(NodeId, &RoutingTree) -> Box<dyn MacNode>,
    {
        let member = Member {
            topology,
            seed: config.seed,
            machines: Machines::Scripted(protocol_name, &mut make),
        };
        Simulation::compose(vec![member], radio, frames, channel, config)
    }

    /// Number of nodes, sink included.
    pub fn node_count(&self) -> usize {
        self.machines.len()
    }

    /// Compatibility no-op: the argument is ignored and the
    /// simulation is returned unchanged. There is one sequential
    /// engine, and the report never depended on this value.
    #[doc(hidden)]
    #[must_use]
    pub fn with_shards(self, _shards: usize) -> Simulation {
        self
    }

    /// Installs a per-node traffic profile (hotspots, bursts) in place
    /// of the uniform [`SimConfig::sample_period`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if the profile does not
    /// cover every node, contains a non-positive period (the sink's
    /// entry is ignored, as documented on [`TrafficProfile`]), or
    /// carries degenerate burst windows (a non-positive factor or
    /// onset interval would run simulated time backwards).
    pub fn with_traffic(mut self, traffic: TrafficProfile) -> Result<Simulation, NetError> {
        if traffic.periods.len() != self.machines.len() {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!(
                    "profile covers {} nodes but the simulation has {}",
                    traffic.periods.len(),
                    self.machines.len()
                ),
            });
        }
        if let Some(bad) = traffic
            .periods
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.shared.is_sink(NodeId::new(i)))
            .map(|(_, p)| p)
            .find(|p| !(p.is_finite() && p.value() > 0.0))
        {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!("sampling periods must be positive and finite, got {bad}"),
            });
        }
        if let Some(burst) = traffic.burst {
            let factor_ok = burst.factor.is_finite() && burst.factor > 0.0;
            let every_ok = burst.every.is_finite() && burst.every.value() > 0.0;
            let duration_ok = burst.duration.is_finite() && burst.duration.value() >= 0.0;
            if !(factor_ok && every_ok && duration_ok) {
                return Err(NetError::InvalidParameter {
                    name: "burst",
                    reason: format!(
                        "burst windows need a positive finite factor and onset interval \
                         and a non-negative duration, got factor {}, every {}, duration {}",
                        burst.factor, burst.every, burst.duration
                    ),
                });
            }
        }
        self.shared.traffic = Some(traffic);
        Ok(self)
    }

    /// Builds a multi-network coexistence simulation: each network
    /// brings its own topology (sink at its local node 0), routing
    /// tree, protocol and derived seed, but all of them share one
    /// channel realized by `channel` over the union of their node
    /// positions — so a frame sent in one network is interference (or,
    /// on the unit disk, a collision source) in every other.
    ///
    /// Global node ids are assigned contiguously in network order.
    /// Cross-network frames are decoded by the radio (energy and
    /// counters are charged) but filtered before the MAC state machine,
    /// like a PAN-id check. [`run_coexistence`](Simulation::run_coexistence)
    /// returns one [`SimReport`] per network.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidParameter`] if `networks` is empty.
    /// * [`NetError::Disconnected`] if any network's decode graph
    ///   cannot reach its sink under the realized channel.
    /// * Whatever the per-network `build_nodes` return.
    pub fn coexistence(
        networks: &[CoexNetwork<'_>],
        radio: Radio,
        frames: FrameSizes,
        channel: &dyn ChannelModel,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        let members = networks
            .iter()
            .enumerate()
            .map(|(k, net)| Member {
                topology: net.topology,
                // Each network runs under its own decorrelated seed, so
                // e.g. LMAC's slot-assignment RNG differs per network.
                seed: node_stream(config.seed ^ 0x0C0E_715E, k),
                machines: Machines::Protocol(net.protocol),
            })
            .collect();
        Simulation::compose(members, radio, frames, channel, config)
    }

    /// The one assembly behind every builder: realizes `channel` over
    /// the union of the members' positions (global ids contiguous in
    /// member order), routes each member over its own decode graph,
    /// derives the wake mode from the field, and builds the machines.
    fn compose(
        members: Vec<Member<'_>>,
        radio: Radio,
        frames: FrameSizes,
        channel: &dyn ChannelModel,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        if members.is_empty() {
            return Err(NetError::InvalidParameter {
                name: "networks",
                reason: "a coexistence simulation needs at least one network".to_string(),
            });
        }
        let mut positions = Vec::new();
        let mut network_of = Vec::new();
        for (k, member) in members.iter().enumerate() {
            positions.extend_from_slice(member.topology.positions());
            network_of.resize(positions.len(), k as u32);
        }
        let n = positions.len();
        let field = channel.realize(&positions, config.seed);
        let decode = field.decode_graph();
        let sinr = channel.sinr();
        let params = sinr.unwrap_or(DISK_DECODE);
        let scheduling = if config.scheduling == WakeMode::Coarse
            && replay_is_exact(&field, &decode, &network_of, &params)
        {
            WakeMode::Coarse
        } else {
            WakeMode::Dense
        };

        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![0usize; n];
        let mut sinks = Vec::with_capacity(members.len());
        let mut max_depths = Vec::with_capacity(members.len());
        let mut network_names = Vec::with_capacity(members.len());
        let mut machines: Vec<Box<dyn MacNode>> = Vec::with_capacity(n);
        let mut off = 0;
        for member in members {
            let nk = member.topology.len();
            // The member's own decode graph: the field's edges
            // restricted to its nodes, shifted to local ids. Neighbor
            // lists keep their ascending order, so builders that
            // iterate adjacency (LMAC's coloring) see exactly what a
            // standalone realization would give them.
            let mut local = Graph::with_nodes(nk);
            for u in 0..nk {
                for &v in decode.neighbors(NodeId::new(off + u)) {
                    let vi = v.index();
                    if vi > off + u && vi < off + nk {
                        local.add_edge(NodeId::new(u), NodeId::new(vi - off));
                    }
                }
            }
            let tree = RoutingTree::shortest_path(&local, member.topology.sink())?;
            let (name, built) = match member.machines {
                Machines::Protocol(protocol) => {
                    let net_config = SimConfig {
                        seed: member.seed,
                        scheduling,
                        ..config
                    };
                    let built = protocol.build_nodes(&local, &tree, &net_config)?;
                    (protocol.name(), built)
                }
                Machines::Scripted(name, make) => {
                    (name, local.nodes().map(|u| make(u, &tree)).collect())
                }
            };
            machines.extend(built);
            for u in 0..nk {
                let lu = NodeId::new(u);
                parent[off + u] = tree.parent(lu).map(|p| NodeId::new(off + p.index()));
                depth[off + u] = tree.depth(lu);
            }
            sinks.push(NodeId::new(off + member.topology.sink().index()));
            max_depths.push(tree.max_depth());
            network_names.push(name);
            off += nk;
        }

        let shared = Shared {
            end: SimTime::from_seconds(config.duration),
            radio_hw: radio,
            frames,
            field,
            decode: params,
            sample_sinr: sinr.is_some(),
            parent,
            depth,
            network_of,
            sinks,
            max_depths,
            config,
            traffic: None,
        };
        Ok(Simulation {
            shared,
            machines,
            network_names,
        })
    }

    /// Runs to completion, returning the world and its final state.
    fn execute(self) -> (Shared, RunState) {
        let Simulation {
            shared, machines, ..
        } = self;
        let nodes = (0..machines.len())
            .map(|u| NodeState::new(&shared.radio_hw, shared.config.seed, u))
            .collect();
        let mut run = RunState {
            now: SimTime::ZERO,
            events: Queue::until(shared.end),
            wakes: Queue::until(shared.end),
            nodes,
            machines,
            stats: EngineStats::default(),
        };
        seed_and_start(&shared, &mut run);
        run_to_horizon(&shared, &mut run);
        finish(&shared, &mut run);
        run.stats.peak_events = run.events.peak_len() as u64;
        run.stats.peak_wakes = run.wakes.peak_len() as u64;
        (shared, run)
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> SimReport {
        let protocol = self.network_names[0];
        let (shared, run) = self.execute();
        let stats = run.stats;
        let (per_node, records) = collect_results(&shared, run);
        SimReport::new(
            protocol,
            shared.config,
            shared.sinks[0],
            per_node,
            records,
            stats,
        )
    }

    /// Runs a coexistence simulation to completion and returns one
    /// report per network, in network order: each carries its own
    /// protocol name, sink, node stats and packet records (with global
    /// node ids), so the single-network accessors — bottleneck energy
    /// excluding the own sink, per-depth delay stats, delivery ratio —
    /// apply per network unchanged.
    ///
    /// On a single-network build this returns `vec![self.run()]`.
    pub fn run_coexistence(self) -> Vec<SimReport> {
        let names = self.network_names.clone();
        let (shared, run) = self.execute();
        let stats = run.stats;
        let (per_node, records) = collect_results(&shared, run);
        names
            .iter()
            .enumerate()
            .map(|(k, &name)| {
                let nodes: Vec<NodeStats> = per_node
                    .iter()
                    .filter(|s| shared.network_of[s.node.index()] == k as u32)
                    .cloned()
                    .collect();
                let recs: Vec<PacketRecord> = records
                    .iter()
                    .filter(|r| shared.network_of[r.origin.index()] == k as u32)
                    .cloned()
                    .collect();
                SimReport::new(name, shared.config, shared.sinks[k], nodes, recs, stats)
            })
            .collect()
    }
}

/// One network participating in a [`Simulation::coexistence`] build:
/// a topology in the *shared* coordinate plane (inter-network spacing
/// is expressed by the positions themselves) plus the protocol its
/// nodes run.
#[derive(Debug, Clone, Copy)]
pub struct CoexNetwork<'a> {
    /// Node positions and sink of this network, in shared coordinates.
    pub topology: &'a Topology,
    /// The MAC protocol every node of this network runs.
    pub protocol: &'a dyn SimProtocol,
}

/// Extracts the results in canonical order: node stats in node order,
/// packet records sorted by `(created, packet id)`.
fn collect_results(shared: &Shared, run: RunState) -> (Vec<NodeStats>, Vec<PacketRecord>) {
    let mut per_node = Vec::with_capacity(run.nodes.len());
    let mut records: Vec<PacketRecord> = Vec::new();
    for (i, st) in run.nodes.into_iter().enumerate() {
        let node = NodeId::new(i);
        per_node.push(NodeStats {
            node,
            depth: shared.depth[i],
            breakdown: st.ledger.breakdown(),
            busy: st.ledger.busy_time(),
            counters: st.counters,
            mean_sinr_db: (st.sinr_decoded > 0).then(|| st.sinr_db_sum / st.sinr_decoded as f64),
        });
        records.extend(st.records);
    }
    // Creation order with ties in node order: same-instant Generates
    // fire in node order, and ids sort by (origin, per-origin counter).
    records.sort_by_key(|r| (r.created, r.id.0));
    (per_node, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LmacSim, XmacSim};
    use edmac_phy::SinrChannel;

    fn tiny_config() -> SimConfig {
        SimConfig {
            duration: Seconds::new(60.0),
            sample_period: Seconds::new(10.0),
            warmup: Seconds::ZERO,
            seed: 1,
            scheduling: WakeMode::Coarse,
        }
    }

    #[test]
    fn ring_builder_counts_nodes() {
        let sim = Simulation::ring(
            2,
            4,
            &XmacSim::new(Seconds::from_millis(100.0)),
            tiny_config(),
        )
        .unwrap();
        assert_eq!(sim.node_count(), 1 + 4 * 4);
    }

    #[test]
    fn with_traffic_validates_profiles() {
        let build = || {
            Simulation::ring(
                2,
                4,
                &XmacSim::new(Seconds::from_millis(100.0)),
                tiny_config(),
            )
            .unwrap()
        };
        let n = build().node_count();
        // Wrong length.
        assert!(build()
            .with_traffic(TrafficProfile::uniform(n - 1, Seconds::new(10.0)))
            .is_err());
        // Non-positive period at a non-sink node.
        let mut bad = TrafficProfile::uniform(n, Seconds::new(10.0));
        bad.periods[1] = Seconds::ZERO;
        assert!(build().with_traffic(bad).is_err());
        // The sink's entry is ignored, as documented.
        let mut sink_zero = TrafficProfile::uniform(n, Seconds::new(10.0));
        sink_zero.periods[0] = Seconds::ZERO;
        assert!(build().with_traffic(sink_zero).is_ok());
        // ... and so is every network's sink entry in a coexistence build.
        let mut rng = StdRng::seed_from_u64(3);
        let a = Topology::ring_model(2, 4, &mut rng).unwrap();
        let b = Topology::ring_model(2, 4, &mut rng)
            .unwrap()
            .translated(10.0, 0.0);
        let xmac = XmacSim::new(Seconds::from_millis(100.0));
        let networks = [
            CoexNetwork {
                topology: &a,
                protocol: &xmac,
            },
            CoexNetwork {
                topology: &b,
                protocol: &xmac,
            },
        ];
        let coex = Simulation::coexistence(
            &networks,
            Radio::cc2420(),
            FrameSizes::default(),
            &UnitDisk,
            tiny_config(),
        )
        .unwrap();
        let mut sinks_zero = TrafficProfile::uniform(coex.node_count(), Seconds::new(10.0));
        sinks_zero.periods[a.sink().index()] = Seconds::ZERO;
        sinks_zero.periods[a.len() + b.sink().index()] = Seconds::ZERO;
        assert!(coex.with_traffic(sinks_zero).is_ok());
        // Degenerate burst windows must be rejected, valid ones kept.
        for factor in [0.0, -2.0, f64::NAN] {
            let burst = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
                every: Seconds::new(30.0),
                duration: Seconds::new(5.0),
                factor,
            });
            assert!(build().with_traffic(burst).is_err(), "factor {factor}");
        }
        let ok = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
            every: Seconds::new(30.0),
            duration: Seconds::new(5.0),
            factor: 4.0,
        });
        assert!(build().with_traffic(ok).is_ok());
    }

    #[test]
    fn coarse_replay_is_derived_from_the_realized_field() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = Topology::ring_model(2, 4, &mut rng).unwrap();
        let exact = |channel: &dyn ChannelModel, network_of: &[u32]| {
            let field = channel.realize(topo.positions(), 5);
            let params = channel.sinr().unwrap_or(DISK_DECODE);
            replay_is_exact(&field, &field.decode_graph(), network_of, &params)
        };
        let one = vec![0; topo.len()];
        assert!(exact(&UnitDisk, &one));
        assert!(exact(&SinrChannel::degenerate(), &one));
        let flat = SinrChannel {
            shadowing_sigma_db: 0.0,
            ..SinrChannel::default()
        };
        assert!(!exact(&flat, &one), "interference past the decode range");
        let short = SinrChannel {
            interference_floor_dbm: flat.sensitivity_dbm,
            ..flat
        };
        assert!(exact(&short, &one));
        let deaf = SinrChannel {
            capture_db: Some(25.0),
            ..short
        };
        assert!(!exact(&deaf, &one), "a lone frame must clear capture");
        let mut two = one.clone();
        two[1] = 1;
        assert!(!exact(&UnitDisk, &two), "another network in earshot");
    }

    #[test]
    fn lmac_rejects_undersized_frames() {
        let cfg = tiny_config();
        let protocol = LmacSim {
            slot: Seconds::from_millis(10.0),
            frame_slots: 2, // far below any 2-hop neighborhood
        };
        assert!(matches!(
            Simulation::ring(2, 4, &protocol, cfg),
            Err(NetError::InvalidParameter { .. })
        ));
    }

    fn xmac_ring(seed: u64) -> SimReport {
        let cfg = SimConfig {
            seed,
            ..tiny_config()
        };
        Simulation::ring(2, 4, &XmacSim::new(Seconds::from_millis(80.0)), cfg)
            .unwrap()
            .run()
    }

    fn energies(report: &SimReport) -> Vec<f64> {
        report
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect()
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let (a, b) = (xmac_ring(42), xmac_ring(42));
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        assert_eq!(a.delivered_count(), b.delivered_count());
        assert_eq!(
            energies(&a),
            energies(&b),
            "energy accounting must be bit-identical"
        );
    }

    #[test]
    fn different_seeds_differ() {
        // Phases differ, so per-node energies will not be identical.
        assert_ne!(energies(&xmac_ring(1)), energies(&xmac_ring(2)));
    }

    #[test]
    fn energy_is_conserved_over_the_horizon() {
        // Every node's charged time (busy + sleep) must equal the run
        // duration exactly.
        let cfg = tiny_config();
        let report = Simulation::ring(2, 4, &XmacSim::new(Seconds::from_millis(100.0)), cfg)
            .unwrap()
            .run();
        for stats in report.per_node() {
            let sleep_time = stats.breakdown.sleep.value() / Radio::cc2420().power.sleep.value();
            let total = stats.busy.value() + sleep_time;
            assert!(
                (total - cfg.duration.value()).abs() < 1e-6,
                "node {} accounted {total} s of {} s",
                stats.node,
                cfg.duration.value()
            );
        }
    }
}
