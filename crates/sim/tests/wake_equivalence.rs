//! The golden contract of event-coarse wake scheduling: for every
//! protocol, topology and seed, [`WakeMode::Coarse`] must produce a
//! [`SimReport`] that is *bit-identical* to [`WakeMode::Dense`] (the
//! reference schedule that wakes every node at every protocol tick,
//! like the pre-coarsening engine did).
//!
//! "Bit-identical" is meant literally: every f64 in every per-node
//! energy breakdown, every busy time, every frame counter and every
//! packet record timestamp. The coarse scheduler is an optimization of
//! the event loop, not of the simulated physics — any drift here is a
//! bug in the skip/replay logic, not a tolerance question.
//!
//! Over an SINR channel the engine only honors a `Coarse` request when
//! the realized field proves the replay exact; the channel inputs below
//! pin that derivation, including fields (interference beyond the
//! decode range) on which LMAC's coarse replay would otherwise diverge.

use edmac_net::Topology;
use edmac_phy::{ChannelModel, SinrChannel};
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{
    DmacSim, LmacSim, ScpSim, SimConfig, SimProtocol, SimReport, Simulation, WakeMode, XmacSim,
};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(seed: u64, scheduling: WakeMode) -> SimConfig {
    SimConfig {
        duration: Seconds::new(120.0),
        sample_period: Seconds::new(25.0),
        warmup: Seconds::new(20.0),
        seed,
        scheduling,
    }
}

fn protocols() -> [Box<dyn SimProtocol>; 4] {
    [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim::new(Seconds::from_millis(10.0))),
        Box::new(ScpSim::new(Seconds::from_millis(250.0))),
    ]
}

/// Asserts bitwise equality of two reports, field by field.
fn assert_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.protocol(), b.protocol(), "{label}: protocol");
    assert_eq!(
        a.per_node().len(),
        b.per_node().len(),
        "{label}: node count"
    );
    for (sa, sb) in a.per_node().iter().zip(b.per_node()) {
        assert_eq!(sa.node, sb.node, "{label}");
        assert_eq!(sa.depth, sb.depth, "{label}: node {}", sa.node);
        assert_eq!(sa.counters, sb.counters, "{label}: node {}", sa.node);
        assert_eq!(
            sa.busy.value().to_bits(),
            sb.busy.value().to_bits(),
            "{label}: node {} busy {} vs {}",
            sa.node,
            sa.busy,
            sb.busy
        );
        for cause in Cause::ALL {
            assert_eq!(
                sa.breakdown.get(cause).value().to_bits(),
                sb.breakdown.get(cause).value().to_bits(),
                "{label}: node {} {cause} energy {} vs {}",
                sa.node,
                sa.breakdown.get(cause),
                sb.breakdown.get(cause)
            );
        }
    }
    assert_eq!(a.records().len(), b.records().len(), "{label}: records");
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(ra, rb, "{label}: packet record");
    }
}

#[test]
fn coarse_equals_dense_on_rings() {
    for protocol in &protocols() {
        for seed in [7, 42] {
            let run = |mode| {
                Simulation::ring(4, 4, protocol.as_ref(), config(seed, mode))
                    .expect("buildable ring")
                    .run()
            };
            assert_identical(
                &run(WakeMode::Coarse),
                &run(WakeMode::Dense),
                &format!("{} ring seed {seed}", protocol.name()),
            );
        }
    }
}

#[test]
fn coarse_equals_dense_on_uniform_disks() {
    let mut rng = StdRng::seed_from_u64(191);
    let topo = Topology::uniform_disk(60, 2.5, &mut rng).expect("connected disk");
    for protocol in &protocols() {
        let run = |mode| {
            Simulation::build(
                &topo,
                Radio::cc2420(),
                FrameSizes::default(),
                protocol.as_ref(),
                config(11, mode),
            )
            .expect("buildable disk")
            .run()
        };
        assert_identical(
            &run(WakeMode::Coarse),
            &run(WakeMode::Dense),
            &format!("{} disk", protocol.name()),
        );
    }
}

#[test]
fn coarse_equals_dense_on_lines() {
    // Chains maximize depth (worst case for ladder and frame schedules)
    // and give every interior node exactly two neighbors, so LMAC's
    // silent-slot skipping is at its most aggressive here.
    let topo = Topology::line(7, 0.9).expect("chain");
    for protocol in &protocols() {
        let run = |mode| {
            Simulation::build(
                &topo,
                Radio::cc2420(),
                FrameSizes::default(),
                protocol.as_ref(),
                config(5, mode),
            )
            .expect("buildable line")
            .run()
        };
        assert_identical(
            &run(WakeMode::Coarse),
            &run(WakeMode::Dense),
            &format!("{} line", protocol.name()),
        );
    }
}

/// The SINR inputs: σ = 0 with capture on (interference reaches past
/// the decode range), the same with capture off, the degenerate
/// unit-disk twin, and capture on with the interference floor at the
/// sensitivity threshold (air links ≡ decode links, so coarse replay
/// runs under capture).
fn sinr_channels() -> [(&'static str, SinrChannel); 4] {
    let flat = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    [
        ("capture", flat),
        (
            "no-capture",
            SinrChannel {
                capture_db: None,
                ..flat
            },
        ),
        ("degenerate", SinrChannel::degenerate()),
        (
            "capture-short-floor",
            SinrChannel {
                interference_floor_dbm: flat.sensitivity_dbm,
                ..flat
            },
        ),
    ]
}

fn run_on_channel(
    protocol: &dyn SimProtocol,
    channel: &dyn ChannelModel,
    seed: u64,
    mode: WakeMode,
) -> SimReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::ring_model(3, 4, &mut rng).expect("buildable ring");
    let cfg = SimConfig {
        duration: Seconds::new(30.0),
        ..config(seed, mode)
    };
    Simulation::build_with_channel(
        &topo,
        Radio::cc2420(),
        FrameSizes::default(),
        protocol,
        cfg,
        channel,
    )
    .expect("σ = 0 keeps the ring connected")
    .run()
}

#[test]
fn coarse_equals_dense_for_lmac_where_interference_outreaches_decode() {
    // The first two inputs put energy past the decode range, which
    // LMAC's schedule cannot see: a `Coarse` request must run dense.
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    for (label, channel) in &sinr_channels()[..2] {
        assert_identical(
            &run_on_channel(&lmac, channel, 7, WakeMode::Coarse),
            &run_on_channel(&lmac, channel, 7, WakeMode::Dense),
            &format!("LMAC {label}"),
        );
    }
}

#[test]
fn coarse_equals_dense_on_sinr_fields_that_allow_coarse_replay() {
    // The two inputs whose air links are exactly their decode links:
    // here a `Coarse` request really runs coarse, capture on or off.
    for (label, channel) in &sinr_channels()[2..] {
        for protocol in &protocols() {
            assert_identical(
                &run_on_channel(protocol.as_ref(), channel, 11, WakeMode::Coarse),
                &run_on_channel(protocol.as_ref(), channel, 11, WakeMode::Dense),
                &format!("{} {label}", protocol.name()),
            );
        }
    }
}

#[test]
fn same_seed_reproduces_byte_identical_reports() {
    // Determinism regression (distinct from coarse-vs-dense): two runs
    // of the same configuration must agree bit-for-bit, per protocol,
    // on both ring and disk topologies.
    let mut rng = StdRng::seed_from_u64(33);
    let disk = Topology::uniform_disk(40, 2.0, &mut rng).expect("connected disk");
    for protocol in &protocols() {
        let ring_run = || {
            Simulation::ring(3, 4, protocol.as_ref(), config(17, WakeMode::Coarse))
                .expect("buildable ring")
                .run()
        };
        assert_identical(
            &ring_run(),
            &ring_run(),
            &format!("{} ring determinism", protocol.name()),
        );
        let disk_run = || {
            Simulation::build(
                &disk,
                Radio::cc2420(),
                FrameSizes::default(),
                protocol.as_ref(),
                config(23, WakeMode::Coarse),
            )
            .expect("buildable disk")
            .run()
        };
        assert_identical(
            &disk_run(),
            &disk_run(),
            &format!("{} disk determinism", protocol.name()),
        );
    }
}
