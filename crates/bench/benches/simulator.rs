//! Simulator throughput: short packet-level runs per protocol on the
//! validation-scale ring (65 nodes).

use criterion::{criterion_group, criterion_main, Criterion};
use edmac_sim::{DmacSim, LmacSim, SimConfig, SimProtocol, Simulation, WakeMode, XmacSim};
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

criterion_group!(simulator, protocols, build_only);
criterion_main!(simulator);
