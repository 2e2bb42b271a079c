//! Regression for the ROADMAP's "burst latency folding is the weak
//! model link" item: on high-duty burst cells the workload-aware model
//! must (a) keep the latency validation error under the folded model's
//! historical 52% band and (b) beat the burst-blind (folded) model
//! evaluated at the *same* operating point against the same simulation.

use edmac_core::{AppRequirements, PresetKind, StudyGrid};
use edmac_proto::ProtocolRegistry;
use edmac_study::{solve_cell, validate_cell};
use edmac_units::{Joules, Seconds};

#[test]
fn burst_cell_latency_band_tightens() {
    let cell = StudyGrid::full()
        .cells()
        .into_iter()
        .find(|c| c.preset == PresetKind::BurstDisk && c.nodes == 50 && c.burst_duty == 0.5)
        .expect("the full grid has a 50-node duty-0.5 burst cell");
    let reqs = AppRequirements::new(Joules::new(0.5), Seconds::new(30.0)).unwrap();
    // DMAC: the ladder is the protocol most sensitive to in-window
    // load.
    let suite = ProtocolRegistry::builtin().suite("DMAC").unwrap();
    let model = suite.model();
    let out = solve_cell(&cell, model.as_ref(), reqs);
    assert!(out.solved(), "{:?}", out.infeasible);
    let v = validate_cell(&cell, &out, suite.as_ref(), Seconds::new(600.0))
        .expect("solved cell validates");

    assert!(
        v.err_l < 0.52,
        "burst-aware latency error {:.3} must stay under the folded model's historical band",
        v.err_l
    );

    // The folded comparison: strip the burst regime (keeping the same
    // time-averaged flows) and re-evaluate the model at the exact
    // parameters the validation simulated.
    let topo = cell.scenario.topology.realize(cell.seed).unwrap();
    let env = cell.scenario.deployment_from(&topo).unwrap();
    assert!(env.traffic.burst().is_some(), "burst cells carry a regime");
    let folded = env.clone().with_traffic(env.traffic.flows().clone());
    let folded_l = model
        .performance(&v.params, &folded)
        .unwrap()
        .latency
        .value();
    let folded_err = ((v.sim_l - folded_l) / folded_l).abs();
    assert!(
        v.err_l <= folded_err + 1e-9,
        "window-conditional latency (err {:.3}) must not be worse than the folded \
         closed form (err {:.3}) against the same packets",
        v.err_l,
        folded_err
    );
}
