//! The headline scale run: a 100 000-node uniform disk, simulated
//! whole by the sequential engine.
//!
//! Two protocol cells, because they stress opposite ends of the event
//! spectrum:
//!
//! * **LMAC** (TDMA): no preamble strobes, so the event rate is set by
//!   slot wakes and actual frames. This is the cell that must beat
//!   real time, on any machine.
//! * **X-MAC** (LPL): every hop is a strobe train heard by every
//!   neighbor; its wall time is printed for the record, not asserted.
//!
//! Each cell also prints the engine's counts (queue entries popped per
//! event kind, wakes fired and skipped as stale, peak queue depths), so
//! the share of air events in the load is a printed number rather than
//! an estimate.
//!
//! The workload is an hourly-telemetry deployment (3600 s sample
//! period, 500 ms LPL / 20 ms slots), a realistic operating point for
//! a network this size. Slow tier (`cargo test --release --
//! --ignored`): pure CPU work, meaningless under a debug build, so the
//! timing assertion only arms in release.

use edmac_net::Topology;
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{LmacSim, SimConfig, SimProtocol, SimReport, Simulation, WakeMode, XmacSim};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const NODES: usize = 100_000;
/// Simulated horizon: long enough to amortize setup, short enough for
/// the slow tier.
const HORIZON_S: f64 = 10.0;

fn config() -> SimConfig {
    SimConfig {
        duration: Seconds::new(HORIZON_S),
        sample_period: Seconds::new(3600.0),
        warmup: Seconds::ZERO,
        seed: 5,
        scheduling: WakeMode::Coarse,
    }
}

#[test]
#[ignore = "slow tier: 100k-node scale run (release only)"]
fn hundred_thousand_node_disk_outpaces_real_time() {
    // Density 5 nodes per unit area: expected degree ~15.7, comfortably
    // above the ~ln n ≈ 11.5 connectivity threshold, while keeping each
    // transmission's neighborhood fan-out bounded.
    let radius = (NODES as f64 / 5.0 / std::f64::consts::PI).sqrt();
    let build_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(9);
    let topo = Topology::uniform_disk(NODES, radius, &mut rng).expect("connected disk");
    eprintln!(
        "topology: {NODES} nodes, radius {radius:.1}, built in {:.2?} (spatial-hash graph)",
        build_start.elapsed()
    );
    let build = |protocol: &dyn SimProtocol| {
        Simulation::build(
            &topo,
            Radio::cc2420(),
            FrameSizes::default(),
            protocol,
            config(),
        )
        .expect("buildable disk")
    };
    let release = !cfg!(debug_assertions);
    let real_time = Duration::from_secs_f64(HORIZON_S);

    // TDMA cell: sequential faster than real time, unconditionally.
    // 20 ms slots x 128: enough slots for the distance-2 coloring at
    // this density, and a frame rate that leaves the real-time bound a
    // ~2x margin against machine variance.
    let lmac = LmacSim {
        slot: Seconds::from_millis(20.0),
        frame_slots: 128,
    };
    let t = Instant::now();
    let report = build(&lmac).run();
    let lmac_wall = t.elapsed();
    eprintln!(
        "lmac sequential: {lmac_wall:.2?} for {HORIZON_S}s simulated ({:.1}x real time)",
        HORIZON_S / lmac_wall.as_secs_f64()
    );
    print_engine_stats("lmac", &report);
    if release {
        assert!(
            lmac_wall < real_time,
            "sequential 100k-node LMAC run slower than real time: {lmac_wall:.2?}"
        );
    }

    // LPL cell: the strobe-storm workload, timed for the record.
    let xmac = XmacSim::new(Seconds::from_millis(500.0));
    let t = Instant::now();
    let report = build(&xmac).run();
    eprintln!(
        "xmac sequential: {:.2?} for {HORIZON_S}s simulated, {} packets delivered",
        t.elapsed(),
        report.delivered_count()
    );
    print_engine_stats("xmac", &report);
}

/// Prints one cell's event-loop work: entries popped per kind, their
/// total, the air events' share of it, wakes fired and skipped as
/// stale, and each queue's peak occupancy.
fn print_engine_stats(cell: &str, report: &SimReport) {
    let s = report.engine_stats();
    let events = s.events();
    let air = s.air_start + s.air_end;
    eprintln!(
        "{cell} engine: {events} queue entries (generate {}, timer {}, radio_ready {}, \
         air_start {}, air_end {}, tx_done {}; air {:.1}%), {} wakes, \
         {} stale wakes ({:.2}%), peak {} events / {} wakes pending",
        s.generate,
        s.timer,
        s.radio_ready,
        s.air_start,
        s.air_end,
        s.tx_done,
        100.0 * air as f64 / events.max(1) as f64,
        s.wakes,
        s.stale_wakes,
        100.0 * s.stale_wakes as f64 / (s.wakes + s.stale_wakes).max(1) as f64,
        s.peak_events,
        s.peak_wakes
    );
}
