//! Solving one study cell: a (scenario, protocol) pair taken through
//! the full concept panel and, optionally, packet-level validation.

use edmac_core::{sample_frontier, AppRequirements, GridCell, TradeoffAnalysis, TradeoffReport};
use edmac_game::{standard_concepts, BargainingProblem, CostPoint, SolutionConcept, WeightedSum};
use edmac_mac::{Deployment, MacModel};
use edmac_proto::{ProtocolSuite, PAPER_TRIO};
use edmac_sim::{SimConfig, WakeMode};
use edmac_units::Seconds;

/// Frontier sample resolution per cell (one-dimensional models: this
/// many candidate operating points feed the discrete concept panel).
const FRONTIER_SAMPLES: usize = 96;

/// The default protocol panel for one cell: the paper's trio, resolved
/// through [`edmac_proto::ProtocolRegistry::builtin`]. Per-deployment
/// structure
/// (LMAC's frame from the realized distance-2 chromatic need, DMAC's
/// stagger depth) is derived per cell by [`MacModel::configure`], and
/// the simulated side reads the same record through each suite's
/// [`ProtocolSuite::simulator`] — the hand-written mac↔sim match
/// bridge this module used to carry is gone.
pub fn models_for() -> Vec<Box<dyn MacModel>> {
    edmac_proto::paper_trio_models()
}

/// Number of protocols in the default (paper-trio) panel.
pub const PROTOCOLS: usize = PAPER_TRIO.len();

/// Minimum delivered-packet count before an off-ring depth class may
/// drive the latency comparator in [`validate_cell`]: the deepest
/// class of an irregular disk can hold one or two nodes, whose handful
/// of packets is small-sample noise rather than hop cost.
pub const VALIDATION_SAMPLE_FLOOR: usize = 20;

/// One concept's agreement on a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptOutcome {
    /// Concept key (`nash`, `wnash_0.25`, `ks`, `egal`, `wsum_0.50`, …).
    pub key: String,
    /// Whether the concept consulted the disagreement point.
    pub strategic: bool,
    /// `false` when the concept failed (no gain region): the numeric
    /// fields are then NaN.
    pub solved: bool,
    /// Agreement energy (J per epoch).
    pub energy_j: f64,
    /// Agreement latency (s).
    pub latency_s: f64,
    /// Energy player's gain over the disagreement point (J).
    pub gain_e: f64,
    /// Latency player's gain over the disagreement point (s).
    pub gain_l: f64,
    /// Nash product of gains (common comparison scale).
    pub nash_product: f64,
    /// The smaller ideal-normalized gain, in `[0, 1]` inside the gain
    /// region — the fairness coordinate of the study.
    pub min_gain_norm: f64,
}

impl ConceptOutcome {
    fn failed(key: String, strategic: bool) -> ConceptOutcome {
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

    /// The ideal-normalized concession profile `(gain_e/span_e,
    /// gain_l/span_l)` — scale-free, so agreements on wildly different
    /// deployments compare (the drift metric's coordinates).
    pub fn profile(&self, spans: (f64, f64)) -> (f64, f64) {
        (self.gain_e / spans.0, self.gain_l / spans.1)
    }
}

/// Tolerance (normalized profile distance) under which a weighted-sum
/// agreement counts as *reproducing* the Nash agreement.
pub const WEIGHT_MATCH_TOL: f64 = 0.02;

/// The weight grid the per-cell scalarization sweep samples:
/// `w ∈ {0.05, 0.10, …, 0.95}`.
pub fn weight_grid() -> impl Iterator<Item = f64> {
    (1..20).map(|k| k as f64 * 0.05)
}

/// The per-cell weighted-sum weight sweep: for every `w` on
/// [`weight_grid`], the normalized profile distance between the
/// `w`-scalarization's pick and the Nash agreement — the full
/// scalarization frontier the ROADMAP's "weight sweep" item asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSweep {
    /// `(w, distance)` samples in grid order; `NaN` distance when the
    /// scalarization failed at that weight.
    pub samples: Vec<(f64, f64)>,
    /// The weight with the smallest distance.
    pub best_w: f64,
    /// That smallest distance.
    pub best_distance: f64,
}

impl WeightSweep {
    /// Whether some static weight reproduces the Nash agreement on this
    /// cell (within [`WEIGHT_MATCH_TOL`]).
    pub fn matched(&self) -> bool {
        self.best_distance <= WEIGHT_MATCH_TOL
    }
}

/// The model-vs-simulation cross-check at the cell's NBS parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// Simulation seed (equal to the cell seed: same topology draw as
    /// the analytic side).
    pub seed: u64,
    /// The simulated parameter vector (the continuous NBS agreement).
    pub params: Vec<f64>,
    /// Analytic bottleneck energy per epoch (J).
    pub model_e: f64,
    /// Simulated bottleneck energy per epoch (J).
    pub sim_e: f64,
    /// Relative energy error `|sim − model| / model`.
    pub err_e: f64,
    /// Analytic worst end-to-end latency (s).
    pub model_l: f64,
    /// Simulated worst per-depth median delay (s) — the packet-level
    /// counterpart of the model's `max_d L_d`. Off-ring, only depth
    /// classes with at least [`VALIDATION_SAMPLE_FLOOR`] delivered
    /// packets compete (falling back to all classes when none
    /// qualify).
    pub sim_l: f64,
    /// Delivered-packet count of the depth class behind `sim_l`.
    pub sim_l_samples: usize,
    /// 95th-percentile delay of that class (s).
    pub sim_l_p95: f64,
    /// Worst delay of that class (s).
    pub sim_l_max: f64,
    /// Relative latency error `|sim − model| / model`.
    pub err_l: f64,
    /// Simulated delivery ratio.
    pub delivery: f64,
}

/// Everything one (scenario, protocol) cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The grid coordinates.
    pub cell: GridCell,
    /// Protocol name.
    pub protocol: &'static str,
    /// `None` when solved; otherwise why the cell was infeasible.
    pub infeasible: Option<String>,
    /// Realized node count (equals the nominal count today; kept
    /// explicit so empirical realizations can diverge).
    pub realized_nodes: usize,
    /// Realized routing depth (rings: the depth axis; disks:
    /// empirical).
    pub realized_depth: usize,
    /// Topology irregularity: coefficient of variation of node degree
    /// (0 ≈ perfectly regular).
    pub irregularity: f64,
    /// The model's derived per-deployment structural configuration
    /// (`None` only when the deployment itself failed to build).
    pub config: Option<edmac_mac::ProtocolConfig>,
    /// `(Ebest, Lworst, Eworst, Lbest)` anchors from (P1)/(P2).
    pub anchors: Option<(f64, f64, f64, f64)>,
    /// The continuous NBS agreement `(E*, L*, params)`.
    pub nbs: Option<(f64, f64, Vec<f64>)>,
    /// Proportional-fairness gap at the continuous NBS.
    pub fairness_gap: f64,
    /// The discrete concept panel.
    pub concepts: Vec<ConceptOutcome>,
    /// The weighted-sum weight sweep against the Nash agreement
    /// (`None` when the cell or its Nash concept failed).
    pub weight_sweep: Option<WeightSweep>,
    /// Nash-concept drift from the same-protocol ring baseline
    /// (filled by the runner once ring baselines exist; NaN before).
    pub drift_nash: f64,
    /// Packet-level validation, when this cell was in the validated
    /// subset.
    pub validation: Option<ValidationOutcome>,
}

impl CellOutcome {
    /// Whether the analytic solve succeeded.
    pub fn solved(&self) -> bool {
        self.infeasible.is_none()
    }

    /// Ideal-normalized gain spans `(span_e, span_l)` for this cell:
    /// disagreement minus the frontier ideal, floored away from zero.
    pub fn spans(&self) -> (f64, f64) {
        self.anchors
            .map(|(e_best, l_worst, e_worst, l_best)| {
                (
                    (e_worst - e_best).max(f64::MIN_POSITIVE),
                    (l_worst - l_best).max(f64::MIN_POSITIVE),
                )
            })
            .unwrap_or((f64::MIN_POSITIVE, f64::MIN_POSITIVE))
    }

    /// The named concept's outcome, if it solved.
    pub fn concept(&self, key: &str) -> Option<&ConceptOutcome> {
        self.concepts.iter().find(|c| c.key == key && c.solved)
    }
}

/// Degree coefficient of variation of the realized topology — the
/// study's irregularity axis (rings sit near the low end, sparse disks
/// high).
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

/// Solves one cell for one protocol: (P1)/(P2)/continuous NBS, then
/// the discrete concept panel on the sampled frontier.
pub fn solve_cell(cell: &GridCell, model: &dyn MacModel, reqs: AppRequirements) -> CellOutcome {
    let protocol = model.name();
    let mut outcome = CellOutcome {
        cell: cell.clone(),
        protocol,
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

    let topology = match cell.scenario.topology.realize(cell.seed) {
        Ok(t) => t,
        Err(e) => {
            outcome.infeasible = Some(format!("topology: {e}"));
            return outcome;
        }
    };
    outcome.realized_nodes = topology.len();
    outcome.irregularity = degree_irregularity(&topology);

    let env = match cell.scenario.deployment_from(&topology) {
        Ok(env) => env,
        Err(e) => {
            outcome.infeasible = Some(format!("deployment: {e}"));
            return outcome;
        }
    };
    outcome.realized_depth = env.traffic.depth();
    outcome.config = Some(model.configure(&env));

    let analysis = TradeoffAnalysis::new(model, &env, reqs);
    let report = match analysis.bargain() {
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
    let (concepts, weight_sweep) = concept_panel(model, &env, &report, reqs);
    outcome.concepts = concepts;
    outcome.weight_sweep = weight_sweep;
    outcome
}

/// Runs the full concept panel on the cell's sampled frontier, plus
/// the weighted-sum weight sweep against the panel's Nash agreement.
fn concept_panel(
    model: &dyn MacModel,
    env: &Deployment,
    report: &TradeoffReport,
    reqs: AppRequirements,
) -> (Vec<ConceptOutcome>, Option<WeightSweep>) {
    let v = CostPoint::new(report.e_worst(), report.l_worst());
    let feasible: Vec<CostPoint> = sample_frontier(model, env, FRONTIER_SAMPLES)
        .into_iter()
        .map(|p| CostPoint::new(p.energy.value(), p.latency.value()))
        .filter(|c| c.x <= reqs.energy_budget().value() && c.y <= reqs.latency_bound().value())
        .collect();
    let ideal_e = feasible.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
    let ideal_l = feasible.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
    let span_e = (v.x - ideal_e).max(f64::MIN_POSITIVE);
    let span_l = (v.y - ideal_l).max(f64::MIN_POSITIVE);
    let problem = match BargainingProblem::new(feasible, v) {
        Ok(p) => p,
        Err(_) => {
            let failed = standard_concepts()
                .iter()
                .map(|c| ConceptOutcome::failed(c.key(), c.is_strategic()))
                .collect();
            return (failed, None);
        }
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
            Err(_) => ConceptOutcome::failed(concept.key(), concept.is_strategic()),
        })
        .collect();
    let sweep = weight_sweep(&problem, &concepts, (span_e, span_l));
    (concepts, sweep)
}

/// Sweeps the weighted-sum aggregate's weight over [`weight_grid`] and
/// measures, per weight, how far the scalarization's pick lands from
/// the Nash agreement in normalized concession-profile space.
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

/// Cross-validates a solved cell packet-by-packet: simulate the
/// scenario at the NBS parameters (through the suite's simulator
/// factory, fed the same structural record the analytic side derived)
/// and compare the model's energy and latency against the simulated
/// bottleneck energy and worst per-depth median delay.
pub fn validate_cell(
    cell: &GridCell,
    outcome: &CellOutcome,
    suite: &dyn ProtocolSuite,
    sim_horizon: Seconds,
) -> Option<ValidationOutcome> {
    let (model_e, model_l, params) = outcome.nbs.clone()?;
    let protocol = suite.simulator(outcome.config.as_ref()?, &params);
    let config = SimConfig {
        duration: sim_horizon,
        sample_period: cell.scenario.traffic.sample_period(),
        warmup: Seconds::new(sim_horizon.value() / 10.0),
        seed: cell.seed,
        scheduling: WakeMode::Coarse,
    };
    let report = cell
        .scenario
        .simulation(protocol.as_ref(), config)
        .ok()?
        .run();
    let deepest = report.per_node().iter().map(|s| s.depth).max().unwrap_or(0);
    let sim_e = report.bottleneck_energy(Seconds::new(10.0)).value();
    // The model predicts `L = max_d L_d`. On rings every depth class is
    // densely populated and the deepest median is the stable worst
    // case (the PR 3 comparator). On irregular disks the worst
    // per-depth median is the faithful packet-level counterpart of the
    // model's max — but only classes with enough delivered packets may
    // compete ([`VALIDATION_SAMPLE_FLOOR`]): a 1–2-node deepest class
    // is noise, not hop cost. When no class qualifies, all compete.
    let chosen = if cell.preset == edmac_core::PresetKind::Ring {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_core::StudyGrid;
    use edmac_proto::ProtocolRegistry;
    use edmac_units::Joules;

    fn reqs() -> AppRequirements {
        AppRequirements::new(Joules::new(0.5), Seconds::new(30.0)).unwrap()
    }

    #[test]
    fn smoke_ring_cell_solves_all_concepts() {
        let cells = StudyGrid::smoke().cells();
        let ring = &cells[0];
        for model in models_for() {
            let out = solve_cell(ring, model.as_ref(), reqs());
            assert!(out.solved(), "{}: {:?}", model.name(), out.infeasible);
            assert_eq!(out.concepts.len(), standard_concepts().len());
            assert!(
                out.concepts.iter().filter(|c| c.solved).count() >= 4,
                "{}: panel mostly failed",
                model.name()
            );
            assert!(out.realized_depth >= 1);
            assert!(out.irregularity.is_finite());
        }
    }

    #[test]
    fn solving_is_deterministic() {
        let cells = StudyGrid::smoke().cells();
        let cell = &cells[2]; // the hotspot cell: random topology
        let model = models_for().remove(0);
        let a = solve_cell(cell, model.as_ref(), reqs());
        let b = solve_cell(cell, model.as_ref(), reqs());
        // Debug strings: NaN placeholders compare equal, unlike the
        // IEEE `PartialEq` they would fail under.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn validation_reports_finite_error_bands() {
        let cells = StudyGrid::smoke().cells();
        let ring = &cells[0];
        let suite = ProtocolRegistry::builtin().suite("X-MAC").unwrap();
        let out = solve_cell(ring, suite.model().as_ref(), reqs());
        let v = validate_cell(ring, &out, suite.as_ref(), Seconds::new(600.0))
            .expect("solved cell validates");
        assert!(
            v.err_e.is_finite() && v.err_e < 3.0,
            "energy error {}",
            v.err_e
        );
        assert!(v.delivery > 0.5, "delivery collapsed: {}", v.delivery);
        // Ring depth classes are dense: the percentile columns carry a
        // real sample and order sanely.
        assert!(v.sim_l_samples >= VALIDATION_SAMPLE_FLOOR);
        assert!(v.sim_l <= v.sim_l_p95 && v.sim_l_p95 <= v.sim_l_max);
    }

    #[test]
    fn infeasible_requirements_are_recorded_not_fatal() {
        let cells = StudyGrid::smoke().cells();
        let tight = AppRequirements::new(Joules::new(1e-9), Seconds::new(30.0)).unwrap();
        let model = models_for().remove(0);
        let out = solve_cell(&cells[0], model.as_ref(), tight);
        assert!(!out.solved());
        assert!(out.concepts.is_empty());
        assert!(out.nbs.is_none());
    }
}
