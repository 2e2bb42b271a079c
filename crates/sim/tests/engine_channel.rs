//! Deterministic engine-level tests of the channel, radio and timer
//! semantics, using scripted nodes through [`Simulation::with_nodes`].

use edmac_net::{NodeId, Point2, Topology};
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{Ctx, Frame, FrameKind, MacNode, Packet, SimConfig, SimTime, Simulation, WakeMode};
use edmac_units::Seconds;
use std::sync::{Arc, Mutex};

/// A node that wakes shortly before `tx_at` and transmits one data
/// frame to `dst` at exactly that time; otherwise it sleeps.
#[derive(Debug)]
struct Talker {
    tx_at: Seconds,
    dst: NodeId,
}

impl MacNode for Talker {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let wake_at = self.tx_at - ctx.startup_delay();
        ctx.set_timer(wake_at, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, _id: u64) {
        if tag == 1 {
            ctx.wake(Cause::DataTx);
        }
    }
    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        let packet = Packet {
            id: edmac_sim::PacketId(999),
            origin: ctx.me(),
            created: ctx.now(),
            hops: 0,
        };
        ctx.send(FrameKind::Data, Some(self.dst), Some(packet));
    }
    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        ctx.sleep();
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
}

/// A node that listens from `from` onward (forever).
#[derive(Debug)]
struct Listener {
    from: Seconds,
}

impl MacNode for Listener {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.from, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, _id: u64) {
        if tag == 1 {
            ctx.wake(Cause::CarrierSense);
        }
    }
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
}

/// A node that does nothing at all (stays asleep).
#[derive(Debug)]
struct Mute;

impl MacNode for Mute {
    fn start(&mut self, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u32, _: u64) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

/// Hidden-terminal triangle: talkers at the ends, listener in the
/// middle. `positions[0]` (a talker) doubles as the sink so the tree is
/// valid; no traffic is generated (huge sample period).
fn hidden_pair() -> Topology {
    Topology::from_positions(vec![
        Point2::new(-0.7, 0.0), // node 0: talker A (and sink)
        Point2::new(0.0, 0.0),  // node 1: listener
        Point2::new(0.7, 0.0),  // node 2: talker B (1.4 from A: hidden)
    ])
    .unwrap()
}

fn quiet_config() -> SimConfig {
    SimConfig {
        duration: Seconds::new(5.0),
        sample_period: Seconds::new(1_000.0), // no generated traffic
        warmup: Seconds::ZERO,
        seed: 0,
        scheduling: WakeMode::Coarse,
    }
}

fn build(
    topo: &Topology,
    make: impl FnMut(NodeId, &edmac_net::RoutingTree) -> Box<dyn MacNode>,
) -> Simulation {
    Simulation::with_nodes(
        topo,
        Radio::cc2420(),
        FrameSizes::default(),
        quiet_config(),
        "scripted",
        make,
    )
    .unwrap()
}

#[test]
fn single_transmission_is_received_intact() {
    let topo = hidden_pair();
    let sim = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        1 => Box::new(Listener {
            from: Seconds::new(0.5),
        }),
        _ => Box::new(Mute),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 1);
    assert_eq!(listener.counters.collisions(), 0);
    // The talker's antenna saw exactly one frame out.
    assert_eq!(report.per_node()[0].counters.tx(FrameKind::Data), 1);
}

#[test]
fn overlapping_hidden_transmissions_collide() {
    let topo = hidden_pair();
    // Both talkers transmit at exactly t = 1.0 s; they cannot hear each
    // other but the listener hears both.
    let sim = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        2 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Listener {
            from: Seconds::new(0.5),
        }),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(
        listener.counters.rx(FrameKind::Data),
        0,
        "a collision must destroy both frames"
    );
    assert!(listener.counters.collisions() >= 1);
}

#[test]
fn staggered_transmissions_both_arrive() {
    let topo = hidden_pair();
    // 50-byte data at 250 kbps lasts 1.6 ms; 10 ms of stagger separates
    // the frames completely.
    let sim = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        2 => Box::new(Talker {
            tx_at: Seconds::new(1.01),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Listener {
            from: Seconds::new(0.5),
        }),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 2);
    assert_eq!(listener.counters.collisions(), 0);
}

#[test]
fn sleeping_listeners_hear_nothing() {
    let topo = hidden_pair();
    let sim = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Mute), // listener never wakes
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx_total(), 0);
    assert_eq!(listener.counters.collisions(), 0);
    // And it spent the whole run at the sleep floor.
    assert_eq!(listener.busy.value(), 0.0);
}

#[test]
fn late_wakeup_misses_a_frame_mid_air() {
    let topo = hidden_pair();
    // The listener's radio becomes ready mid-frame: reception cannot
    // lock on (the preamble was missed), so nothing is received.
    let t_tx = 1.0;
    let startup = Radio::cc2420().timings.startup.value();
    let sim = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(t_tx),
            dst: NodeId::new(1),
        }),
        // Ready at ~t_tx + 0.5 ms, inside the 1.6 ms frame.
        1 => Box::new(Listener {
            from: Seconds::new(t_tx + 0.0005 - startup),
        }),
        _ => Box::new(Mute),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(
        listener.counters.rx(FrameKind::Data),
        0,
        "mid-frame wake-ups must not produce phantom receptions"
    );
}

#[test]
fn energy_ledger_charges_the_scripted_activity() {
    let topo = hidden_pair();
    let report = build(&topo, |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        1 => Box::new(Listener {
            from: Seconds::new(0.5),
        }),
        _ => Box::new(Mute),
    })
    .run();
    let radio = Radio::cc2420();
    // Talker: one startup (charged to the tx cause it woke for) plus
    // one 1.6 ms data frame, rest asleep.
    let talker = &report.per_node()[0];
    let t_data = radio.airtime(FrameSizes::default().data);
    let expected_tx =
        (radio.power.tx * t_data).value() + (radio.power.startup * radio.timings.startup).value();
    assert!(
        (talker.breakdown.tx.value() - expected_tx).abs() < 1e-9,
        "tx bucket {} vs expected {expected_tx}",
        talker.breakdown.tx.value()
    );
    // Listener: ~4.5 s of listening dominates its ledger.
    let listener = &report.per_node()[1];
    let listen_j = listener.breakdown.carrier_sense.value();
    let expected_listen = radio.power.listen.value() * 4.5;
    assert!(
        (listen_j - expected_listen).abs() < 0.05 * expected_listen,
        "listener charged {listen_j} J, expected about {expected_listen} J"
    );
}

/// A star: the talker (and sink) at the centre, `k` listeners on a
/// circle of radius 0.5 around it.
fn star(k: usize) -> Topology {
    let mut positions = vec![Point2::new(0.0, 0.0)];
    positions.extend((0..k).map(|i| {
        let angle = std::f64::consts::TAU * i as f64 / k as f64;
        Point2::new(0.5 * angle.cos(), 0.5 * angle.sin())
    }));
    Topology::from_positions(positions).unwrap()
}

#[test]
fn one_frame_costs_one_air_start_and_one_air_end_entry() {
    for k in [1, 8] {
        let report = build(&star(k), |id, _| match id.index() {
            0 => Box::new(Talker {
                tx_at: Seconds::new(1.0),
                dst: NodeId::new(1),
            }),
            _ => Box::new(Listener {
                from: Seconds::new(0.5),
            }),
        })
        .run();
        for listener in &report.per_node()[1..] {
            assert_eq!(listener.counters.rx(FrameKind::Data), 1, "star of {k}");
        }
        let stats = report.engine_stats();
        assert_eq!(stats.air_start, 1, "star of {k}: {stats:?}");
        assert_eq!(stats.air_end, 1, "star of {k}: {stats:?}");
        assert_eq!(stats.tx_done, 1, "star of {k}: {stats:?}");
        assert_eq!(stats.air_end_resumed, 0, "star of {k}: {stats:?}");
    }
}

/// A listener that appends its callbacks to a shared log; with
/// `wake_on_frame`, receiving a frame asks for a wake at that very
/// instant.
#[derive(Debug)]
struct LoggingListener {
    log: Arc<Mutex<Vec<String>>>,
    wake_on_frame: bool,
    wake_due: bool,
}

impl MacNode for LoggingListener {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Seconds::new(0.5), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u32, _: u64) {
        ctx.wake(Cause::CarrierSense);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _: &Frame) {
        self.log
            .lock()
            .unwrap()
            .push(format!("frame {}", ctx.me().index()));
        self.wake_due = self.wake_on_frame;
    }
    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        self.wake_due.then(|| ctx.now())
    }
    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        self.log
            .lock()
            .unwrap()
            .push(format!("wake {}", ctx.me().index()));
        self.wake_due = false;
    }
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

#[test]
fn a_same_instant_wake_fires_between_receivers_of_one_frame() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = build(&star(3), |id, _| match id.index() {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        i => Box::new(LoggingListener {
            log: Arc::clone(&log),
            wake_on_frame: i == 1,
            wake_due: false,
        }),
    })
    .run();
    let order = log.lock().unwrap().clone();
    assert_eq!(order, ["frame 1", "wake 1", "frame 2", "frame 3"]);
    // The wake split the frame's receiver walk once.
    let stats = report.engine_stats();
    assert_eq!(stats.air_end_resumed, 1, "{stats:?}");
    assert_eq!(stats.air_end, 2, "{stats:?}");
    assert_eq!(stats.wakes, 1, "{stats:?}");
}

/// A node that only steers its wake request with timers: it asks for
/// a far wake at 4.8 s, moves it forward to 3.0 s at t = 1 s (the 4.8 s
/// entry goes stale), asks for 4.5 s at t = 3.5 s and withdraws that
/// at t = 4 s. That is three wake entries queued, one fired and two
/// stale.
#[derive(Debug, Default)]
struct WakeSteerer {
    want: Option<SimTime>,
}

impl MacNode for WakeSteerer {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Seconds::new(1.0), 1);
        ctx.set_timer(Seconds::new(3.5), 2);
        ctx.set_timer(Seconds::new(4.0), 3);
        self.want = Some(SimTime::from_seconds(Seconds::new(4.8)));
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, tag: u32, _: u64) {
        self.want = match tag {
            1 => Some(SimTime::from_seconds(Seconds::new(3.0))),
            2 => Some(SimTime::from_seconds(Seconds::new(4.5))),
            _ => None,
        };
    }
    fn next_activity(&mut self, _: &mut Ctx<'_>) -> Option<SimTime> {
        self.want
    }
    fn on_wake(&mut self, _: &mut Ctx<'_>) {
        self.want = None;
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

#[test]
fn engine_stats_count_queue_peaks_and_stale_wakes() {
    let report = build(&hidden_pair(), |_, _| Box::<WakeSteerer>::default()).run();
    let stats = report.engine_stats();
    // Three nodes, three wake entries each, all due before the horizon.
    let pushed = 3 * 3;
    assert_eq!(stats.wakes, 3, "{stats:?}");
    assert_eq!(stats.stale_wakes, 6, "{stats:?}");
    assert_eq!(stats.wakes + stats.stale_wakes, pushed, "{stats:?}");
    // At t = 1 s every node's 4.8 s entry is still queued behind its
    // 3.0 s one.
    assert_eq!(stats.peak_wakes, 6, "{stats:?}");
    // At start: three timers per node; nothing queued later
    // outnumbers them. The two non-sink nodes' first traffic samples
    // fall after the 5 s horizon, so they are never queued.
    assert_eq!(stats.peak_events, 3 * 3, "{stats:?}");
    assert_eq!(stats.timer, 9, "{stats:?}");
    assert_eq!(stats.generate, 0, "{stats:?}");
}
