//! Simulator throughput: short packet-level runs per protocol on the
//! validation-scale ring (65 nodes), plus one two-network coexistence
//! run on the shared SINR channel — the wide fan-out path, where every
//! frame reaches ~20 receivers — and the engine's queue alone under the
//! classic "hold" model.

use criterion::{criterion_group, criterion_main, Criterion};
use edmac_core::CoexistenceScenario;
use edmac_phy::SinrChannel;
use edmac_sim::queue::{OrderKey, Queue};
use edmac_sim::{DmacSim, LmacSim, SimConfig, SimProtocol, SimTime, Simulation, WakeMode, XmacSim};
use edmac_study::CoexistenceConfig;
use edmac_units::Seconds;
use std::hint::black_box;

fn short_config(seed: u64) -> SimConfig {
    SimConfig {
        duration: Seconds::new(60.0),
        sample_period: Seconds::new(20.0),
        warmup: Seconds::new(10.0),
        seed,
        scheduling: WakeMode::Coarse,
    }
}

fn protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_60s_65nodes");
    group.sample_size(10);
    let cases: [Box<dyn SimProtocol>; 3] = [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim::new(Seconds::from_millis(10.0))),
    ];
    for protocol in &cases {
        group.bench_function(protocol.name(), |b| {
            b.iter(|| {
                let sim = Simulation::ring(4, 4, black_box(protocol.as_ref()), short_config(7))
                    .expect("constructible ring");
                let report = sim.run();
                assert!(report.delivery_ratio() > 0.5);
                report
            })
        });
    }
    group.finish();
}

fn build_only(c: &mut Criterion) {
    // Topology + tree + coloring construction cost, isolated from the
    // event loop.
    let mut group = c.benchmark_group("build");
    group.bench_function("ring_4x4_lmac", |b| {
        b.iter(|| {
            Simulation::ring(
                4,
                4,
                &LmacSim::new(Seconds::from_millis(10.0)),
                short_config(9),
            )
            .expect("constructible ring")
        })
    });
    group.finish();
}

fn coexistence(c: &mut Criterion) {
    // The coexistence smoke geometry (two networks 2.5 range units
    // apart), X-MAC next to LMAC at their reference operating points,
    // on the study's flat (unshadowed) SINR channel.
    let cfg = CoexistenceConfig::smoke();
    let mut scenario = CoexistenceScenario::preset(cfg.networks, cfg.separation);
    scenario.sample_period = cfg.sample_period;
    let xmac = XmacSim::new(Seconds::from_millis(100.0));
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    let protocols: [&dyn SimProtocol; 2] = [&xmac, &lmac];
    let channel = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    let config = short_config(cfg.seed);
    let mut group = c.benchmark_group("coexist_60s");
    group.sample_size(10);
    group.bench_function("smoke_xmac_lmac_sinr_flat", |b| {
        b.iter(|| {
            let sim = scenario
                .simulation(black_box(&protocols), &channel, config)
                .expect("realizable coexistence scenario");
            let reports = sim.run_coexistence();
            assert_eq!(reports.len(), 2);
            reports
        })
    });
    group.finish();
}

/// Hold operations timed per iteration.
const HOLDS: usize = 10_000;

fn queue_hold(c: &mut Criterion) {
    // The hold model: at a steady pending size, pop the minimum and
    // push one entry a random gap (uniform, mean 1 ms) after it. The
    // payload is 88 bytes, the size of an engine event; one iteration
    // is `HOLDS` holds. 256 pending is the order of a validation cell's
    // queue, 100 000 that of the 100k-node scale run.
    let mut group = c.benchmark_group("queue_hold");
    for pending in [256u64, 100_000] {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut gap_ns = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 2_000_000
        };
        let mut seq = 0u64;
        let mut key_at = move |ns: u64| {
            seq += 1;
            OrderKey {
                at: SimTime::from_nanos(ns),
                round: 0,
                node: (seq % 1024) as u32,
                seq,
            }
        };
        let mut queue: Queue<[u64; 11]> = Queue::new();
        for i in 0..pending {
            queue.schedule(key_at(gap_ns()), [i; 11]);
        }
        group.bench_function(format!("{pending}_pending"), |b| {
            b.iter(|| {
                for _ in 0..HOLDS {
                    let (key, item) = queue.pop().expect("steady-state queue");
                    queue.schedule(key_at(key.at.as_nanos() + gap_ns()), black_box(item));
                }
                queue.len()
            })
        });
    }
    group.finish();
}

criterion_group!(simulator, protocols, build_only, coexistence, queue_hold);
criterion_main!(simulator);
