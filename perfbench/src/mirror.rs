//! Traced copies of the study's per-item pipelines.
//!
//! `edmac_study::solve_cell`, `validate_cell` and
//! `run_coexistence_study` are single calls; to time the crates they
//! call, the traced run repeats their steps here, calling the same
//! public functions in the same order with a span around each.
//!
//! The benchmark checks that these copies reproduce the library's
//! outputs byte for byte, and that a traced pass takes within a factor
//! of two of an untraced one. Neither check sees a change that keeps
//! the outputs but changes the steps, such as skipping a call or
//! reusing a result. So any change to the steps of `solve_cell`,
//! `validate_cell` or `run_coexistence_study` must update this file in
//! the same change.

use crate::trace::{leaf, span};
use edmac_core::{
    sample_frontier, AppRequirements, CoexistenceScenario, GridCell, PresetKind, Scenario,
    TradeoffAnalysis, TradeoffReport,
};
use edmac_game::{standard_concepts, BargainingProblem, CostPoint, SolutionConcept, WeightedSum};
use edmac_mac::{Deployment, MacError, MacModel, MacPerformance, ProtocolConfig};
use edmac_net::Point2;
use edmac_optim::Bounds;
use edmac_phy::{ChannelModel, LinkField, SinrChannel, SinrParams};
use edmac_proto::ProtocolSuite;
use edmac_sim::{FrameKind, SimConfig, SimProtocol, SimReport, WakeMode};
use edmac_study::{
    weight_grid, CellOutcome, CoexistenceConfig, ConceptOutcome, JointCell, NetworkMeasure,
    ValidationOutcome, WeightSweep, VALIDATION_SAMPLE_FLOOR,
};
use edmac_units::Seconds;
use std::sync::Arc;

/// Frontier resolution of the study's concept panel.
const FRONTIER_SAMPLES: usize = 96;

/// Epoch the coexistence study normalizes bottleneck energy to.
const ENERGY_EPOCH: Seconds = Seconds::new(10.0);

/// A [`MacModel`] that counts and times every `performance` call of
/// the model it wraps, and otherwise delegates unchanged.
pub struct Counted<'a>(pub &'a dyn MacModel);

impl MacModel for Counted<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn parameter_names(&self) -> &'static [&'static str] {
        self.0.parameter_names()
    }
    fn bounds(&self, env: &Deployment) -> Bounds {
        self.0.bounds(env)
    }
    fn configure(&self, env: &Deployment) -> ProtocolConfig {
        self.0.configure(env)
    }
    fn performance(&self, x: &[f64], env: &Deployment) -> Result<MacPerformance, MacError> {
        leaf("mac.performance", || self.0.performance(x, env))
    }
    fn utilization_cap(&self) -> f64 {
        self.0.utilization_cap()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
}

/// A [`ChannelModel`] that times field realization.
#[derive(Debug)]
pub struct TimedChannel<'a>(pub &'a dyn ChannelModel);

impl ChannelModel for TimedChannel<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn realize(&self, positions: &[Point2], seed: u64) -> LinkField {
        span("phy.field", || self.0.realize(positions, seed))
    }
    fn sinr(&self) -> Option<SinrParams> {
        self.0.sinr()
    }
}

/// Exact counts summed from simulator reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    /// Simulation runs.
    pub runs: u64,
    /// Frames transmitted, all kinds.
    pub frames_tx: u64,
    /// Frames received intact, all kinds.
    pub frames_rx: u64,
    /// Receptions destroyed by overlap.
    pub collisions: u64,
    /// Receptions that survived an overlap by SINR capture.
    pub captured: u64,
    /// Receptions lost below the noise floor.
    pub below_noise: u64,
    /// Node-seconds simulated (nodes × horizon, summed over runs).
    pub node_seconds: f64,
}

impl SimCounts {
    /// Adds one report's frame counters.
    pub fn add_report(&mut self, report: &SimReport, horizon: Seconds) {
        self.runs += 1;
        self.node_seconds += report.per_node().len() as f64 * horizon.value();
        for node in report.per_node() {
            let c = &node.counters;
            for kind in FrameKind::ALL {
                self.frames_tx += c.tx(kind);
                self.frames_rx += c.rx(kind);
            }
            self.collisions += c.collisions();
            self.captured += c.captured();
            self.below_noise += c.below_noise();
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &SimCounts) {
        self.runs += other.runs;
        self.frames_tx += other.frames_tx;
        self.frames_rx += other.frames_rx;
        self.collisions += other.collisions;
        self.captured += other.captured;
        self.below_noise += other.below_noise;
        self.node_seconds += other.node_seconds;
    }
}

fn degree_irregularity(topology: &edmac_net::Topology) -> f64 {
    let graph = topology.graph();
    let n = graph.len();
    if n == 0 {
        return 0.0;
    }
    let degrees: Vec<f64> = graph.nodes().map(|u| graph.degree(u) as f64).collect();
    let mean = degrees.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = degrees.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
    var.sqrt() / mean
}

fn failed_concept(key: String, strategic: bool) -> ConceptOutcome {
    ConceptOutcome {
        key,
        strategic,
        solved: false,
        energy_j: f64::NAN,
        latency_s: f64::NAN,
        gain_e: f64::NAN,
        gain_l: f64::NAN,
        nash_product: f64::NAN,
        min_gain_norm: f64::NAN,
    }
}

/// The steps of `edmac_study::solve_cell`, each in a span.
pub fn solve_cell(cell: &GridCell, model: &dyn MacModel, reqs: AppRequirements) -> CellOutcome {
    let counted = Counted(model);
    let mut outcome = CellOutcome {
        cell: cell.clone(),
        protocol: model.name(),
        infeasible: None,
        realized_nodes: 0,
        realized_depth: 0,
        irregularity: f64::NAN,
        config: None,
        anchors: None,
        nbs: None,
        fairness_gap: f64::NAN,
        concepts: Vec::new(),
        weight_sweep: None,
        drift_nash: f64::NAN,
        validation: None,
    };
    let topology = match span("net.realize", || cell.scenario.topology.realize(cell.seed)) {
        Ok(t) => t,
        Err(e) => {
            outcome.infeasible = Some(format!("topology: {e}"));
            return outcome;
        }
    };
    outcome.realized_nodes = topology.len();
    outcome.irregularity = span("net.graph", || degree_irregularity(&topology));
    let env = match span("core.deployment", || {
        cell.scenario.deployment_from(&topology)
    }) {
        Ok(env) => env,
        Err(e) => {
            outcome.infeasible = Some(format!("deployment: {e}"));
            return outcome;
        }
    };
    outcome.realized_depth = env.traffic.depth();
    outcome.config = Some(span("mac.configure", || model.configure(&env)));
    let report = match span("core.bargain", || {
        TradeoffAnalysis::new(&counted, &env, reqs).bargain()
    }) {
        Ok(r) => r,
        Err(e) => {
            outcome.infeasible = Some(e.to_string());
            return outcome;
        }
    };
    outcome.anchors = Some((
        report.e_best(),
        report.l_worst(),
        report.e_worst(),
        report.l_best(),
    ));
    outcome.nbs = Some((report.e_star(), report.l_star(), report.nbs.params.clone()));
    outcome.fairness_gap = report.fairness_gap();
    let (concepts, weight_sweep) = concept_panel(&counted, &env, &report, reqs);
    outcome.concepts = concepts;
    outcome.weight_sweep = weight_sweep;
    outcome
}

fn concept_panel(
    model: &dyn MacModel,
    env: &Deployment,
    report: &TradeoffReport,
    reqs: AppRequirements,
) -> (Vec<ConceptOutcome>, Option<WeightSweep>) {
    let v = CostPoint::new(report.e_worst(), report.l_worst());
    let frontier = span("core.frontier", || {
        sample_frontier(model, env, FRONTIER_SAMPLES)
    });
    span("game.concepts", || {
        let feasible: Vec<CostPoint> = frontier
            .into_iter()
            .map(|p| CostPoint::new(p.energy.value(), p.latency.value()))
            .filter(|c| c.x <= reqs.energy_budget().value() && c.y <= reqs.latency_bound().value())
            .collect();
        let ideal_e = feasible.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let ideal_l = feasible.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let span_e = (v.x - ideal_e).max(f64::MIN_POSITIVE);
        let span_l = (v.y - ideal_l).max(f64::MIN_POSITIVE);
        let Ok(problem) = BargainingProblem::new(feasible, v) else {
            let failed = standard_concepts()
                .iter()
                .map(|c| failed_concept(c.key(), c.is_strategic()))
                .collect();
            return (failed, None);
        };
        let concepts: Vec<ConceptOutcome> = standard_concepts()
            .iter()
            .map(|concept| match concept.solve(&problem) {
                Ok(bargain) => {
                    let (gain_e, gain_l) = bargain.point.gains_from(v);
                    ConceptOutcome {
                        key: concept.key(),
                        strategic: concept.is_strategic(),
                        solved: true,
                        energy_j: bargain.point.x,
                        latency_s: bargain.point.y,
                        gain_e,
                        gain_l,
                        nash_product: bargain.nash_product,
                        min_gain_norm: (gain_e / span_e).min(gain_l / span_l),
                    }
                }
                Err(_) => failed_concept(concept.key(), concept.is_strategic()),
            })
            .collect();
        let sweep = weight_sweep(&problem, &concepts, (span_e, span_l));
        (concepts, sweep)
    })
}

fn weight_sweep(
    problem: &BargainingProblem,
    concepts: &[ConceptOutcome],
    spans: (f64, f64),
) -> Option<WeightSweep> {
    let nash = concepts.iter().find(|c| c.key == "nash" && c.solved)?;
    let (nx, ny) = nash.profile(spans);
    let v = problem.disagreement();
    let mut samples = Vec::with_capacity(19);
    let mut best: Option<(f64, f64)> = None;
    for w in weight_grid() {
        let distance = match (WeightedSum { energy_weight: w }).solve(problem) {
            Ok(bargain) => {
                let (gain_e, gain_l) = bargain.point.gains_from(v);
                let (px, py) = (gain_e / spans.0, gain_l / spans.1);
                ((px - nx).powi(2) + (py - ny).powi(2)).sqrt()
            }
            Err(_) => f64::NAN,
        };
        samples.push((w, distance));
        if distance.is_finite() && best.is_none_or(|(_, d)| distance < d) {
            best = Some((w, distance));
        }
    }
    let (best_w, best_distance) = best?;
    Some(WeightSweep {
        samples,
        best_w,
        best_distance,
    })
}

/// The steps of `edmac_study::validate_cell` (one shard), each in a
/// span, plus the run's frame counts.
pub fn validate_cell(
    cell: &GridCell,
    outcome: &CellOutcome,
    suite: &dyn ProtocolSuite,
    sim_horizon: Seconds,
    counts: &mut SimCounts,
) -> Option<ValidationOutcome> {
    let (model_e, model_l, params) = outcome.nbs.clone()?;
    let protocol = span("proto.simulator", || {
        outcome
            .config
            .as_ref()
            .map(|config| suite.simulator(config, &params))
    })?;
    let config = SimConfig {
        duration: sim_horizon,
        sample_period: cell.scenario.traffic.sample_period(),
        warmup: Seconds::new(sim_horizon.value() / 10.0),
        seed: cell.seed,
        scheduling: WakeMode::Coarse,
    };
    let sim = span("sim.build", || {
        cell.scenario.simulation(protocol.as_ref(), config)
    })
    .ok()?;
    let report = span("sim.run", || sim.with_shards(1).run());
    counts.add_report(&report, sim_horizon);
    span("sim.report", || {
        let deepest = report.per_node().iter().map(|s| s.depth).max().unwrap_or(0);
        let sim_e = report.bottleneck_energy(Seconds::new(10.0)).value();
        let chosen = if cell.preset == PresetKind::Ring {
            report.depth_delay_stats(deepest)
        } else {
            let classes = report.delay_stats_by_depth();
            let worst = |stats: &[edmac_sim::DepthDelayStats]| {
                stats
                    .iter()
                    .copied()
                    .max_by(|a, b| a.p50.value().total_cmp(&b.p50.value()))
            };
            let eligible: Vec<edmac_sim::DepthDelayStats> = classes
                .iter()
                .copied()
                .filter(|s| s.samples >= VALIDATION_SAMPLE_FLOOR)
                .collect();
            worst(&eligible).or_else(|| worst(&classes))
        };
        let (sim_l, sim_l_samples, sim_l_p95, sim_l_max) = match chosen {
            Some(s) => (s.p50.value(), s.samples, s.p95.value(), s.max.value()),
            None => (f64::NAN, 0, f64::NAN, f64::NAN),
        };
        Some(ValidationOutcome {
            seed: cell.seed,
            params,
            model_e,
            sim_e,
            err_e: ((sim_e - model_e) / model_e).abs(),
            model_l,
            sim_l,
            sim_l_samples,
            sim_l_p95,
            sim_l_max,
            err_l: ((sim_l - model_l) / model_l).abs(),
            delivery: report.delivery_ratio(),
        })
    })
}

/// `run_study`'s post-pass drift column: each solved cell's Nash
/// concession profile against its protocol's mean ring profile.
pub fn fill_drift(outcomes: &mut [CellOutcome]) {
    let mut baselines: Vec<(&'static str, (f64, f64), usize)> = Vec::new();
    for o in outcomes.iter() {
        if o.cell.preset != PresetKind::Ring || !o.solved() {
            continue;
        }
        if let Some(nash) = o.concept("nash") {
            let p = nash.profile(o.spans());
            match baselines
                .iter_mut()
                .find(|(name, _, _)| *name == o.protocol)
            {
                Some((_, sum, n)) => {
                    sum.0 += p.0;
                    sum.1 += p.1;
                    *n += 1;
                }
                None => baselines.push((o.protocol, p, 1)),
            }
        }
    }
    for (_, sum, n) in baselines.iter_mut() {
        sum.0 /= *n as f64;
        sum.1 /= *n as f64;
    }
    for o in outcomes.iter_mut() {
        let Some(&(_, base, _)) = baselines.iter().find(|(name, _, _)| *name == o.protocol) else {
            continue;
        };
        if let Some(nash) = o.concept("nash") {
            let p = nash.profile(o.spans());
            o.drift_nash = ((p.0 - base.0).powi(2) + (p.1 - base.1).powi(2)).sqrt();
        }
    }
}

fn utility(reqs: &AppRequirements, energy_j: f64, latency_s: f64) -> f64 {
    let e_head = reqs.energy_budget().value() - energy_j;
    let l_head = reqs.latency_bound().value() - latency_s;
    if !(e_head.is_finite() && l_head.is_finite()) || e_head <= 0.0 || l_head <= 0.0 {
        return 0.0;
    }
    e_head * l_head
}

fn measure(report: &SimReport, reqs: &AppRequirements) -> NetworkMeasure {
    let energy_j = report.bottleneck_energy(ENERGY_EPOCH).value();
    let deepest = report.per_node().iter().map(|s| s.depth).max().unwrap_or(0);
    let latency_s = report
        .depth_delay_stats(deepest)
        .map(|s| s.p50.value())
        .unwrap_or(f64::NAN);
    NetworkMeasure {
        energy_j,
        latency_s,
        delivery: report.delivery_ratio(),
        utility: utility(reqs, energy_j, latency_s),
    }
}

/// Phases 1 and 2 of `run_coexistence_study` — per-network plans and
/// the joint payoff table on the shared SINR channel — each step in a
/// span. Returns the table's cells in profile order.
///
/// # Errors
///
/// As the library's study, with a message.
pub fn coexistence_cells(
    cfg: &CoexistenceConfig,
    counts: &mut SimCounts,
) -> Result<Vec<JointCell>, String> {
    let k = cfg.networks;
    let mut scenario = CoexistenceScenario::preset(k, cfg.separation);
    scenario.sample_period = cfg.sample_period;
    let topologies =
        span("net.realize", || scenario.realize(cfg.seed)).map_err(|e| e.to_string())?;
    let ring = Scenario::ring(2, 3, cfg.sample_period);
    let registry = edmac_proto::ProtocolRegistry::builtin();
    let mut plans: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut suites: Vec<Arc<dyn ProtocolSuite>> = Vec::with_capacity(k);
    let mut configs = Vec::with_capacity(k);
    for (net, name) in cfg.protocols.iter().enumerate() {
        let suite = registry.suite(name).map_err(|e| e.to_string())?;
        let model = suite.model();
        let env = span("core.deployment", || ring.deployment_from(&topologies[net]))
            .map_err(|e| e.to_string())?;
        configs.push(span("mac.configure", || model.configure(&env)));
        let counted = Counted(model.as_ref());
        let report = span("core.bargain", || {
            TradeoffAnalysis::new(&counted, &env, cfg.requirements).bargain()
        })
        .map_err(|e| e.to_string())?;
        plans.push(report.nbs.params.clone());
        suites.push(suite);
    }
    let channel = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    let timed = TimedChannel(&channel);
    let sim_config = SimConfig {
        duration: cfg.sim_horizon,
        sample_period: cfg.sample_period,
        warmup: Seconds::new(cfg.sim_horizon.value() / 10.0),
        seed: cfg.seed,
        scheduling: WakeMode::Dense,
    };
    let scales = cfg.scales.len();
    let mut cells = Vec::new();
    for flat in 0..scales.pow(k as u32) {
        // Lexicographic profile order: network 0 varies slowest.
        let mut profile = vec![0usize; k];
        let mut rest = flat;
        for slot in profile.iter_mut().rev() {
            *slot = rest % scales;
            rest /= scales;
        }
        let sims: Vec<Box<dyn SimProtocol>> = span("proto.simulator", || {
            (0..k)
                .map(|net| {
                    let scale = cfg.scales[profile[net]];
                    let params: Vec<f64> = plans[net].iter().map(|p| p * scale).collect();
                    suites[net].simulator(&configs[net], &params)
                })
                .collect()
        });
        let refs: Vec<&dyn SimProtocol> = sims.iter().map(|b| b.as_ref()).collect();
        let sim = span("sim.build", || {
            scenario.simulation(&refs, &timed, sim_config)
        })
        .map_err(|e| format!("profile {profile:?}: {e}"))?;
        let reports = span("sim.run", || sim.with_shards(1).run_coexistence());
        let networks: Vec<NetworkMeasure> = span("sim.report", || {
            reports
                .iter()
                .map(|r| measure(r, &cfg.requirements))
                .collect()
        });
        for r in &reports {
            counts.add_report(r, cfg.sim_horizon);
        }
        let welfare = networks.iter().map(|m| m.utility).sum();
        cells.push(JointCell {
            profile,
            networks,
            welfare,
        });
    }
    Ok(cells)
}
