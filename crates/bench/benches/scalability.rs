//! The paper's scalability claim, measured: "the proposed framework is
//! scalable with the increase in the number of nodes, as the players
//! represent the optimization metrics instead of nodes."
//!
//! A nodes-as-players formulation would grow with `C·D²` (the node
//! count). Here the game stays two-player regardless; the only size
//! dependence left is the ring loop inside each model evaluation
//! (linear in `D`, the hop depth — not in the node count). The
//! `density` group makes the point sharply: quadrupling `C` multiplies
//! the node count by four and must leave solve time flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edmac_core::{AppRequirements, TradeoffAnalysis};
use edmac_mac::{Deployment, Xmac};
use edmac_net::RingModel;
use edmac_units::{Joules, Seconds};
use std::hint::black_box;

fn reqs() -> AppRequirements {
    AppRequirements::new(Joules::new(0.2), Seconds::new(8.0)).expect("static requirements")
}

fn depth_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbs_vs_depth");
    group.sample_size(10);
    for depth in [5usize, 10, 20, 40] {
        let env =
            Deployment::reference().with_network(RingModel::new(depth, 4).expect("valid ring"));
        let nodes = env.traffic.sources();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("D{depth}_{nodes}nodes")),
            &env,
            |b, env| {
                let xmac = Xmac::default();
                let analysis = TradeoffAnalysis::new(&xmac, env, reqs());
                b.iter(|| black_box(&analysis).bargain().unwrap())
            },
        );
    }
    group.finish();
}

fn density_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbs_vs_density");
    group.sample_size(10);
    for density in [2usize, 4, 8, 16] {
        let env =
            Deployment::reference().with_network(RingModel::new(10, density).expect("valid ring"));
        let nodes = env.traffic.sources();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("C{density}_{nodes}nodes")),
            &env,
            |b, env| {
                let xmac = Xmac::default();
                let analysis = TradeoffAnalysis::new(&xmac, env, reqs());
                b.iter(|| black_box(&analysis).bargain().unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(scalability, depth_scaling, density_scaling);
criterion_main!(scalability);
