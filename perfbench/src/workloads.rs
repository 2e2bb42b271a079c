//! The four workloads. Each builds its inputs from the workload seed,
//! times passes through the crates' public entry points with tracing
//! off, and — in a traced run — adds one pass through the traced
//! copies in [`crate::mirror`], whose outputs must match.

use crate::mirror::{self, SimCounts};
use crate::trace::{self, ThreadTrace};
use crate::util::{digest, splitmix64, threads};
use edmac_core::{AppRequirements, CoexistenceScenario, GridCell, StudyGrid};
use edmac_proto::{ProtocolRegistry, ProtocolSuite};
use edmac_serve::{Client, Request, Response, ServeConfig, Server, SolveRequest, Tier};
use edmac_study::{
    cells_csv, coexistence_cells_csv, coexistence_summary_json, item_key, render_entry,
    run_coexistence_study, run_study, solve_cell, summarize, summary_json, validation_csv,
    validation_intent, CellCache, CellOutcome, CoexistenceConfig, RunOptions, SchemaVersions,
    StudyConfig,
};
use edmac_units::{Joules, Seconds};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-up probes per untraced run: fresh processes that only set up,
/// started between passes, so `setup_s` is a median of several cold
/// set-ups spread over the run.
const SETUP_PROBES: usize = 6;

/// Seed bases of the planning sweep (216 items each).
const PLAN_GRIDS: u64 = 20;

/// Seed bases of the serve replay's key space (216 keys each).
const SERVE_GRIDS: u64 = 4;

/// Requests per serve replay pass.
const SERVE_REQUESTS: usize = 4000;

/// Zipf exponent of the serve replay's key popularity. The service has
/// no request log to fit; Breslau et al. (INFOCOM 1999) found web
/// request popularity Zipf-like with exponents 0.64–0.83, and this
/// takes the upper end of that range.
const SERVE_ZIPF: f64 = 0.8;

/// A traced pass must take between `1 / MIRROR_FACTOR` and
/// `MIRROR_FACTOR` times the median untraced pass, so a traced copy in
/// [`crate::mirror`] that no longer does the library's work shows.
const MIRROR_FACTOR: f64 = 2.0;

/// Where runs keep scratch files (serve cache directories and traces),
/// relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// When the process started; set-up runs from here to the first
    /// timed item.
    pub started: Instant,
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Set up, run no pass and report only the set-up time (a probe
    /// started by an untraced run).
    pub setup_only: bool,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items that failed or mismatched.
    pub failed: u64,
    /// Human-readable failure causes.
    pub problems: Vec<String>,
    /// Time from process start to the first timed item: this
    /// process's, then its set-up probes'.
    pub setup_s: Vec<f64>,
    /// One value per untraced pass.
    pub pass_wall_s: Vec<f64>,
    /// Item latencies of all untraced passes.
    pub items_ms: Vec<f64>,
    /// Digests and exact counts that must repeat for this seed.
    pub record: BTreeMap<String, String>,
    /// Per-layer metrics (traced run only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Traces of the traced pass's threads.
    pub traces: Vec<ThreadTrace>,
    /// Wall time of the traced pass.
    pub traced_wall_s: f64,
}

impl Run {
    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records `value` under `key`, failing when an earlier pass of
    /// this run recorded a different value.
    pub fn expect(&mut self, key: &str, value: String) {
        match self.record.get(key) {
            Some(old) if *old != value => {
                let problem = format!("{key}: {old} then {value} within one run");
                self.fail(problem);
            }
            Some(_) => {}
            None => {
                self.record.insert(key.to_string(), value);
            }
        }
    }

    /// Keeps the set-up times [`passes`] measured, failing on probes
    /// that did not report one.
    fn set_up(&mut self, times: Vec<Result<f64, String>>) {
        for time in times {
            match time {
                Ok(s) => self.setup_s.push(s),
                Err(problem) => self.fail(problem),
            }
        }
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Fills the per-layer metrics every traced workload shares from
    /// the traced pass: self times per span, sim counts, busy and idle
    /// time, and the tracing overhead, which must stay within
    /// [`MIRROR_FACTOR`].
    fn finish_traced(
        &mut self,
        traces: Vec<ThreadTrace>,
        workers: usize,
        wall_s: f64,
        sim: &SimCounts,
    ) {
        let totals = trace::merge(&traces);
        let ms = |name: &str| trace::get(&totals, name).self_ns as f64 / 1e6;
        for (metric, span) in [
            ("net.realize_ms", "net.realize"),
            ("core.deployment_ms", "core.deployment"),
            ("core.bargain_ms", "core.bargain"),
            ("core.frontier_ms", "core.frontier"),
            ("mac.performance_ms", "mac.performance"),
            ("game.concepts_ms", "game.concepts"),
            ("sim.build_ms", "sim.build"),
            ("phy.field_ms", "phy.field"),
            ("sim.run_ms", "sim.run"),
            ("study.artifact_ms", "study.artifact"),
        ] {
            self.layer(metric, ms(span));
        }
        self.layer(
            "mac.performance_calls",
            trace::get(&totals, "mac.performance").calls as f64,
        );
        let run = trace::get(&totals, "sim.run");
        self.layer("sim.run_max_ms", run.max_ns as f64 / 1e6);
        self.layer("sim.frames_tx", sim.frames_tx as f64);
        self.layer("sim.frames_rx", sim.frames_rx as f64);
        self.layer("sim.collisions", sim.collisions as f64);
        self.layer("sim.captured", sim.captured as f64);
        self.layer("sim.below_noise", sim.below_noise as f64);
        let per_frame = if sim.frames_tx > 0 {
            run.self_ns as f64 / sim.frames_tx as f64
        } else {
            0.0
        };
        self.layer("sim.ns_per_frame", per_frame);
        let node_rate = if run.self_ns > 0 {
            sim.node_seconds / (run.self_ns as f64 / 1e9)
        } else {
            0.0
        };
        self.layer("sim.node_s_per_host_s", node_rate);
        let busy_ns: u64 = traces
            .iter()
            .filter(|t| t.thread < workers)
            .map(|t| t.wall_ns)
            .sum();
        let busy_ms = busy_ns as f64 / 1e6;
        self.layer("study.busy_ms", busy_ms);
        self.layer(
            "study.idle_ms",
            (workers as f64 * wall_s * 1e3 - busy_ms).max(0.0),
        );
        for (layer, self_ns) in trace::layer_self_ns(&totals) {
            let name: &'static str = match layer.as_str() {
                "bench" => "layer.bench_ms",
                "net" => "layer.net_ms",
                "core" => "layer.core_ms",
                "mac" => "layer.mac_ms",
                "game" => "layer.game_ms",
                "proto" => "layer.proto_ms",
                "sim" => "layer.sim_ms",
                "phy" => "layer.phy_ms",
                "study" => "layer.study_ms",
                "serve" => "layer.serve_ms",
                other => {
                    self.fail(format!("span layer '{other}' has no metric"));
                    continue;
                }
            };
            self.layer(name, self_ns as f64 / 1e6);
        }
        let coverage = traces
            .iter()
            .map(trace::coverage)
            .fold(f64::INFINITY, f64::min);
        self.layer("trace.coverage_min", coverage);
        for t in &traces {
            let c = trace::coverage(t);
            if (c - 1.0).abs() > 0.05 {
                self.fail(format!(
                    "traced thread {}: layer self times sum to {:.1}% of its wall time (need 100 ± 5%)",
                    t.thread,
                    c * 100.0
                ));
            }
        }
        self.traced_wall_s = wall_s;
        let untraced = crate::util::median(&self.pass_wall_s);
        self.layer("trace.overhead_s", wall_s - untraced);
        let ratio = wall_s / untraced;
        if !(1.0 / MIRROR_FACTOR..=MIRROR_FACTOR).contains(&ratio) {
            self.fail(format!(
                "traced pass took {ratio:.2}x the untraced pass (need 1/{MIRROR_FACTOR} to {MIRROR_FACTOR}x): the traced copies no longer do the library's work"
            ));
        }
        if sim.runs > 0 {
            self.expect_counts(sim);
        }
        self.traces = traces;
    }

    fn expect_counts(&mut self, sim: &SimCounts) {
        for (key, value) in [
            ("count.sim.runs", sim.runs),
            ("count.sim.frames_tx", sim.frames_tx),
            ("count.sim.frames_rx", sim.frames_rx),
            ("count.sim.collisions", sim.collisions),
            ("count.sim.captured", sim.captured),
            ("count.sim.below_noise", sim.below_noise),
        ] {
            self.expect(key, value.to_string());
        }
    }
}

/// Runs `job` for every index below `n` on `workers` threads pulling
/// from a shared counter; results come back in index order. Traced
/// pools record one [`ThreadTrace`] per worker (threads `0..workers`).
fn pool<T: Send>(
    n: usize,
    workers: usize,
    traced: Option<Instant>,
    job: &(dyn Fn(usize) -> T + Sync),
) -> (Vec<T>, Vec<ThreadTrace>) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let traces: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for thread in 0..workers {
            let (next, done, traces) = (&next, &done, &traces);
            scope.spawn(move || {
                if let Some(epoch) = traced {
                    trace::begin(thread, epoch);
                }
                let mut local = Vec::new();
                loop {
                    let work = next.fetch_add(1, Ordering::Relaxed);
                    if work >= n {
                        break;
                    }
                    trace::set_item(work as u64);
                    local.push((work, job(work)));
                }
                if traced.is_some() {
                    traces.lock().expect("trace list lock").push(trace::end());
                }
                done.lock().expect("result list lock").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("workers joined");
    done.sort_by_key(|(work, _)| *work);
    let mut traces = traces.into_inner().expect("workers joined");
    traces.sort_by_key(|t| t.thread);
    (done.into_iter().map(|(_, t)| t).collect(), traces)
}

/// Runs `f` as traced benchmark thread `thread` (the calling thread).
fn traced_on_this_thread<R>(
    thread: usize,
    epoch: Instant,
    f: impl FnOnce() -> R,
) -> (R, ThreadTrace) {
    trace::begin(thread, epoch);
    let out = f();
    (out, trace::end())
}

/// Untraced passes until the time budget is spent (at least one). A
/// traced run spends half its budget here and the rest on one traced
/// pass. Returns the set-up times: this process's (its start to the
/// first pass) and, in an untraced run, those of [`SETUP_PROBES`]
/// probes. The probes are spread evenly over the budget, so their
/// median sees the same stretch of machine drift as the passes.
fn passes(params: &Params, mut pass: impl FnMut()) -> Vec<Result<f64, String>> {
    let mut setup = vec![Ok(params.started.elapsed().as_secs_f64())];
    if params.setup_only {
        return setup;
    }
    let probes = if params.traced { 0 } else { SETUP_PROBES };
    let budget = if params.traced {
        params.seconds / 2.0
    } else {
        params.seconds
    };
    let start = Instant::now();
    loop {
        pass();
        let due = budget * setup.len() as f64 / (probes + 1) as f64;
        if setup.len() <= probes && start.elapsed().as_secs_f64() >= due {
            setup.push(probe_setup(params));
        }
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    while setup.len() <= probes {
        setup.push(probe_setup(params));
    }
    setup
}

/// Runs this benchmark as a set-up probe for the same workload and
/// seed, waits for it to exit, and returns its set-up time.
fn probe_setup(params: &Params) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            params.workload,
            "--seed",
            &params.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() && s.is_finite() => Ok(s),
        _ => Err(format!("set-up probe failed ({}): {stdout}", out.status)),
    }
}

fn requirements() -> AppRequirements {
    AppRequirements::new(Joules::new(0.5), Seconds::new(30.0))
        .expect("static requirements are valid")
}

/// Seed base of sub-grid `j` for workload seed `seed`: the canonical
/// seed 0 makes sub-grid 0 the study's own grid (`StudyGrid::full()`).
fn grid_for(seed: u64, j: u64) -> StudyGrid {
    let mut grid = StudyGrid::full();
    grid.seed_base ^= seed ^ (j << 32);
    grid
}

fn mean_err_pct(outcomes: &[CellOutcome]) -> (f64, f64, usize) {
    let v: Vec<_> = outcomes
        .iter()
        .filter_map(|o| o.validation.as_ref())
        .collect();
    let n = v.len().max(1) as f64;
    (
        v.iter().map(|x| x.err_e).sum::<f64>() / n * 100.0,
        v.iter().map(|x| x.err_l).sum::<f64>() / n * 100.0,
        v.len(),
    )
}

/// Records the digests of the study's three artifacts (cells CSV,
/// validation CSV, summary JSON).
fn expect_study_artifacts(run: &mut Run, artifacts: &(String, String, String)) {
    run.expect("digest.study_cells_csv", digest(artifacts.0.as_bytes()));
    run.expect(
        "digest.study_validation_csv",
        digest(artifacts.1.as_bytes()),
    );
    run.expect("digest.study_summary_json", digest(artifacts.2.as_bytes()));
}

/// `grid-validate`: the full study with validation through `run_study`.
pub fn grid_validate(params: &Params) -> Run {
    let mut run = Run::default();
    let mut config = StudyConfig::full();
    config.grid = grid_for(params.seed, 0);
    config.threads = threads();
    let cells = config.grid.cells();
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .expect("the paper trio is registered");
    let items = cells.len() * suites.len();
    let mut last = None;
    let setup = passes(params, || {
        let t = Instant::now();
        let result = run_study(&config, &RunOptions::default()).map(|r| {
            let artifacts = (
                cells_csv(&r.outcomes),
                validation_csv(&r.outcomes),
                summary_json(&r.summary),
            );
            (r, artifacts)
        });
        let wall = t.elapsed().as_secs_f64();
        run.pass_wall_s.push(wall);
        run.items_ms.push(wall * 1e3);
        run.attempted += items as u64;
        match result {
            Ok((report, artifacts)) => {
                if report.completed_items != items {
                    run.fail(format!(
                        "{} of {items} items completed",
                        report.completed_items
                    ));
                }
                expect_study_artifacts(&mut run, &artifacts);
                let (e, l, n) = mean_err_pct(&report.outcomes);
                run.expect("count.validated", n.to_string());
                last = Some((e, l));
            }
            Err(e) => run.fail(format!("run_study: {e}")),
        }
    });
    run.set_up(setup);
    if let Some((e, l)) = last {
        run.layer("study.energy_err_pct", e);
        run.layer("study.latency_err_pct", l);
    }
    if params.traced {
        let workers = config.threads;
        let epoch = Instant::now();
        let panel = suites.len();
        let reqs = config.requirements;
        let (results, mut traces) = pool(items, workers, Some(epoch), &|work| {
            let cell = &cells[work / panel];
            let suite = suites[work % panel].as_ref();
            let mut counts = SimCounts::default();
            let model = suite.model();
            let mut outcome = mirror::solve_cell(cell, model.as_ref(), reqs);
            let grid_work = cell.index * panel + work % panel;
            if validation_intent(&config, grid_work).is_some() && outcome.solved() {
                outcome.validation =
                    mirror::validate_cell(cell, &outcome, suite, config.sim_horizon, &mut counts);
            }
            (outcome, counts)
        });
        let mut sim = SimCounts::default();
        let mut outcomes = Vec::with_capacity(results.len());
        for (outcome, counts) in results {
            sim.merge(&counts);
            outcomes.push(outcome);
        }
        let (artifacts, finish) = traced_on_this_thread(workers, epoch, || {
            let summary = trace::span("study.summary", || summarize(&outcomes));
            trace::span("study.drift", || mirror::fill_drift(&mut outcomes));
            trace::span("study.artifact", || {
                (
                    cells_csv(&outcomes),
                    validation_csv(&outcomes),
                    summary_json(&summary),
                )
            })
        });
        let wall = epoch.elapsed().as_secs_f64();
        traces.push(finish);
        expect_study_artifacts(&mut run, &artifacts);
        run.finish_traced(traces, workers, wall, &sim);
    }
    run
}

/// `plan-sweep`: one `solve_cell` per item over [`PLAN_GRIDS`] seed
/// bases, validation off.
pub fn plan_sweep(params: &Params) -> Run {
    let mut run = Run::default();
    let reqs = requirements();
    let cells: Vec<GridCell> = (0..PLAN_GRIDS)
        .flat_map(|j| grid_for(params.seed, j).cells())
        .collect();
    let suites = ProtocolRegistry::builtin()
        .select(&edmac_proto::PAPER_TRIO)
        .expect("the paper trio is registered");
    let panel = suites.len();
    let items = cells.len() * panel;
    let workers = threads();
    let setup = passes(params, || {
        let t = Instant::now();
        let (results, _) = pool(items, workers, None, &|work| {
            let model = suites[work % panel].model();
            let t = Instant::now();
            let outcome = solve_cell(&cells[work / panel], model.as_ref(), reqs);
            (outcome, t.elapsed())
        });
        run.pass_wall_s.push(t.elapsed().as_secs_f64());
        run.attempted += items as u64;
        let mut outcomes = Vec::with_capacity(items);
        for (outcome, latency) in results {
            run.items_ms.push(latency.as_secs_f64() * 1e3);
            outcomes.push(outcome);
        }
        run.expect(
            "digest.plan_cells_csv",
            digest(cells_csv(&outcomes).as_bytes()),
        );
        let solved = outcomes.iter().filter(|o| o.solved()).count();
        run.expect("count.solved", solved.to_string());
    });
    run.set_up(setup);
    if params.traced {
        let epoch = Instant::now();
        let (outcomes, traces) = pool(items, workers, Some(epoch), &|work| {
            let model = suites[work % panel].model();
            mirror::solve_cell(&cells[work / panel], model.as_ref(), reqs)
        });
        let wall = epoch.elapsed().as_secs_f64();
        run.expect(
            "digest.plan_cells_csv",
            digest(cells_csv(&outcomes).as_bytes()),
        );
        run.finish_traced(traces, workers, wall, &SimCounts::default());
    }
    run
}

/// One request of the serve replay.
struct Query {
    line: String,
    key: usize,
}

/// The replay's inputs: its distinct keys and a Zipf-skewed request
/// stream over them.
struct Replay {
    keys: Vec<(GridCell, usize)>,
    stream: Vec<Query>,
}

fn replay_inputs(seed: u64, suites: &[Arc<dyn ProtocolSuite>]) -> Replay {
    let reqs = requirements();
    let mut keys = Vec::new();
    let mut lines = Vec::new();
    for j in 0..SERVE_GRIDS {
        let grid = grid_for(seed, j);
        for cell in grid.cells() {
            for (s, suite) in suites.iter().enumerate() {
                let query = SolveRequest::for_cell(&cell, &grid, suite.name(), reqs, None);
                lines.push(Request::Solve(query).render());
                keys.push((cell.clone(), s));
            }
        }
    }
    // Every request is a Zipf draw. Popularity ranks map to keys
    // through a seeded shuffle, so popular keys are spread over presets
    // and seed bases.
    let n = keys.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = splitmix64(seed ^ 0x5e21e);
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(SERVE_ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut draw = splitmix64(seed ^ 0x21f);
    let stream = (0..SERVE_REQUESTS)
        .map(|_| {
            draw = splitmix64(draw);
            let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
            order[cdf.partition_point(|&c| c < u).min(n - 1)]
        })
        .map(|key| Query {
            line: lines[key].clone(),
            key,
        })
        .collect();
    Replay { keys, stream }
}

struct Live {
    server: Server,
    client: Client,
    dir: PathBuf,
}

fn start_server(dir: &Path) -> std::io::Result<Live> {
    let _ = std::fs::remove_dir_all(dir);
    let config = ServeConfig {
        cache_dir: dir.to_path_buf(),
        workers: threads(),
        ..ServeConfig::default()
    };
    let server = Server::start(&config, Arc::new(AtomicBool::new(false)))?;
    let client = Client::connect(server.local_addr())?;
    Ok(Live {
        server,
        client,
        dir: dir.to_path_buf(),
    })
}

impl Live {
    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one replay pass observed.
#[derive(Default)]
struct ReplayPass {
    wall_s: f64,
    /// Round trip of every request, in stream order.
    round_trip_us: Vec<f64>,
    /// Tier, server-side `elapsed_us` and round trip of every answer.
    tiers: Vec<(Tier, u64, f64)>,
    payloads: BTreeMap<usize, (String, String)>,
    stats: String,
}

fn replay_pass(live: &mut Live, replay: &Replay, run: &mut Run) -> ReplayPass {
    let mut out = ReplayPass::default();
    let mut lines = Vec::with_capacity(replay.stream.len());
    let t = Instant::now();
    for q in &replay.stream {
        let sent = Instant::now();
        let line = trace::span("serve.request", || live.client.exchange_line(&q.line));
        lines.push((sent.elapsed(), line));
    }
    out.wall_s = t.elapsed().as_secs_f64();
    // The load generator parses and checks responses after the timed
    // loop, so its own cost does not slow the offered load.
    for (q, (rtt, line)) in replay.stream.iter().zip(lines) {
        run.attempted += 1;
        let rtt_us = rtt.as_secs_f64() * 1e6;
        out.round_trip_us.push(rtt_us);
        let response = match line {
            Ok(line) => trace::span("serve.parse", || Response::parse(&line)),
            Err(e) => Err(format!("transport: {e}")),
        };
        match response {
            Ok(Response::Outcome {
                tier,
                digest,
                elapsed_us,
                outcome,
            }) => {
                out.tiers.push((tier, elapsed_us, rtt_us));
                match out.payloads.get(&q.key) {
                    Some((d, text)) if *d != digest || *text != outcome => {
                        run.fail(format!("key {}: payload changed between requests", q.key));
                    }
                    Some(_) => {}
                    None => {
                        out.payloads.insert(q.key, (digest, outcome));
                    }
                }
            }
            Ok(other) => run.fail(format!("key {}: {}", q.key, other.render())),
            Err(e) => run.fail(format!("key {}: {e}", q.key)),
        }
    }
    out.stats = match live.client.request(&Request::Stats) {
        Ok(Response::Stats(json)) => json.render(),
        other => {
            run.fail(format!("stats verb: {other:?}"));
            String::new()
        }
    };
    out
}

fn tier_count(pass: &ReplayPass, tier: Tier) -> u64 {
    pass.tiers.iter().filter(|(t, _, _)| *t == tier).count() as u64
}

/// Records the pass's answer count per tier; every pass of a seed,
/// traced or not, must give the same counts.
fn expect_tiers(run: &mut Run, pass: &ReplayPass) {
    for tier in [Tier::Hot, Tier::Disk, Tier::Solve] {
        run.expect(
            &format!("count.serve.{}", tier.label()),
            tier_count(pass, tier).to_string(),
        );
    }
}

/// `serve-replay`: a closed-loop client replays a skewed request
/// stream against an in-process server on an empty cache directory.
pub fn serve_replay(params: &Params) -> Run {
    let mut run = Run::default();
    let out_dir = Path::new(OUT_DIR);
    let cache_dir = out_dir.join(format!("serve-cache-{}", std::process::id()));
    let suites = ProtocolRegistry::builtin()
        .select(&edmac_proto::PAPER_TRIO)
        .expect("the paper trio is registered");
    // Set-up generates the stream and starts the first pass's server.
    let replay = replay_inputs(params.seed, &suites);
    let mut pending = start_server(&cache_dir).ok();
    let mut first: Option<ReplayPass> = None;
    let mut check = |run: &mut Run, pass: ReplayPass| {
        expect_tiers(run, &pass);
        if let Some(f) = &first {
            if f.payloads != pass.payloads {
                run.fail("served payloads differ between passes".into());
            }
        } else {
            first = Some(pass);
        }
    };
    let setup = passes(params, || {
        let live = pending.take().or_else(|| start_server(&cache_dir).ok());
        let Some(mut live) = live else {
            run.fail("server failed to start".into());
            return;
        };
        let pass = replay_pass(&mut live, &replay, &mut run);
        live.stop();
        run.pass_wall_s.push(pass.wall_s);
        run.items_ms
            .extend(pass.round_trip_us.iter().map(|us| us / 1e3));
        check(&mut run, pass);
    });
    run.set_up(setup);
    // Only a set-up probe, which runs no pass, still holds its server.
    match pending.take() {
        Some(live) => live.stop(),
        None if params.setup_only => run.fail("server failed to start".into()),
        None => {}
    }
    let Some(first) = first else {
        if !params.setup_only {
            run.fail("no replay pass completed".into());
        }
        return run;
    };
    run.expect("count.serve.distinct", first.payloads.len().to_string());
    // Offline oracle, outside timing: every served payload must be the
    // entry the study itself renders for that key.
    let schema = SchemaVersions::current();
    let reqs = requirements();
    let mut expected: BTreeMap<usize, (edmac_study::CacheKey, CellOutcome)> = BTreeMap::new();
    for (&key, (served_digest, served)) in &first.payloads {
        let (cell, s) = &replay.keys[key];
        let suite = suites[*s].as_ref();
        let cache_key = item_key(&schema, cell, suite, reqs, None);
        let outcome = solve_cell(cell, suite.model().as_ref(), reqs);
        if cache_key.digest_hex() != *served_digest || render_entry(&cache_key, &outcome) != *served
        {
            run.fail(format!(
                "key {key}: served payload differs from the offline solve"
            ));
        }
        expected.insert(key, (cache_key, outcome));
    }
    let all: String = first.payloads.values().map(|(_, p)| p.as_str()).collect();
    run.expect("digest.serve_payloads", digest(all.as_bytes()));
    let hot = tier_count(&first, Tier::Hot);
    if !first.stats.contains(&format!("\"hot\":{{\"hits\":{hot},")) {
        run.fail(format!(
            "stats verb disagrees with {hot} hot answers: {}",
            first.stats
        ));
    }
    if params.traced {
        let epoch = Instant::now();
        let Ok(mut live) = start_server(&cache_dir) else {
            run.fail("server failed to start".into());
            return run;
        };
        let (pass, client_trace) =
            traced_on_this_thread(0, epoch, || replay_pass(&mut live, &replay, &mut run));
        live.stop();
        expect_tiers(&mut run, &pass);
        if pass.payloads != first.payloads {
            run.fail("traced replay served different payloads".into());
        }
        // The study-layer calls the server makes per key, timed
        // directly: key derivation, a write-through store with fsync,
        // and a disk-tier load.
        let probe_dir = out_dir.join(format!("serve-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&probe_dir);
        let cache = CellCache::open(&probe_dir);
        let (_, probe_trace) = traced_on_this_thread(1, epoch, || {
            let Ok(cache) = &cache else { return };
            for (&key, (_, outcome)) in &expected {
                let (cell, s) = &replay.keys[key];
                let suite = suites[*s].as_ref();
                let k = trace::span("study.key", || item_key(&schema, cell, suite, reqs, None));
                if trace::span("study.store", || cache.store(&k, outcome)).is_err() {
                    return;
                }
                let _ = trace::span("study.load", || cache.load(&k, cell, suite.name()));
            }
        });
        let _ = std::fs::remove_dir_all(&probe_dir);
        if cache.is_err() {
            run.fail("probe cache directory failed to open".into());
        }
        let wall = pass.wall_s;
        let traces = vec![client_trace, probe_trace];
        let totals = trace::merge(&traces);
        let per_call_us = |name: &str| {
            let t = trace::get(&totals, name);
            t.self_ns as f64 / t.calls.max(1) as f64 / 1e3
        };
        run.layer("study.key_us", per_call_us("study.key"));
        run.layer("study.load_us", per_call_us("study.load"));
        run.layer("study.store_ms", per_call_us("study.store") / 1e3);
        let hot = tier_count(&pass, Tier::Hot) as f64;
        run.layer("serve.hot_hits", hot);
        run.layer("serve.disk_hits", tier_count(&pass, Tier::Disk) as f64);
        run.layer("serve.solves", tier_count(&pass, Tier::Solve) as f64);
        run.layer("serve.hot_hit_ratio", hot / pass.tiers.len().max(1) as f64);
        let p50 = |tier: Tier| {
            let v: Vec<f64> = pass
                .tiers
                .iter()
                .filter(|(t, _, _)| *t == tier)
                .map(|(_, us, _)| *us as f64)
                .collect();
            crate::util::median(&v)
        };
        run.layer("serve.hot_p50_us", p50(Tier::Hot));
        run.layer("serve.disk_p50_us", p50(Tier::Disk));
        run.layer("serve.solve_p50_ms", p50(Tier::Solve) / 1e3);
        let wire: Vec<f64> = pass
            .tiers
            .iter()
            .map(|(_, us, rtt)| rtt - *us as f64)
            .collect();
        run.layer("serve.wire_p50_us", crate::util::median(&wire));
        run.finish_traced(traces, 1, wall, &SimCounts::default());
    }
    run
}

/// `coexist`: the full coexistence study on the shared SINR channel.
pub fn coexist(params: &Params) -> Run {
    let mut run = Run::default();
    // Set-up derives the config and realizes its networks once, so a
    // seed whose deployment cannot be realized fails before timing.
    let mut config = CoexistenceConfig::full();
    config.seed ^= params.seed;
    config.shards = 1;
    let mut scenario = CoexistenceScenario::preset(config.networks, config.separation);
    scenario.sample_period = config.sample_period;
    if let Err(e) = scenario.realize(config.seed) {
        run.fail(format!("coexistence scenario: {e}"));
        return run;
    }
    if let Err(e) = ProtocolRegistry::builtin().select(&config.protocols) {
        run.fail(format!("coexistence protocols: {e}"));
        return run;
    }
    let cells = config.scales.len().pow(config.networks as u32) as u64;
    let mut last = None;
    let setup = passes(params, || {
        let t = Instant::now();
        let result = run_coexistence_study(&config).map(|o| {
            let artifacts = (coexistence_cells_csv(&o), coexistence_summary_json(&o));
            (o, artifacts)
        });
        let wall = t.elapsed().as_secs_f64();
        run.pass_wall_s.push(wall);
        run.items_ms.push(wall * 1e3);
        run.attempted += cells;
        match result {
            Ok((outcome, (csv, summary))) => {
                run.expect("digest.coexistence_cells_csv", digest(csv.as_bytes()));
                run.expect(
                    "digest.coexistence_summary_json",
                    digest(summary.as_bytes()),
                );
                last = Some(outcome);
            }
            Err(e) => run.fail(format!("run_coexistence_study: {e}")),
        }
    });
    run.set_up(setup);
    let Some(outcome) = last else {
        return run;
    };
    // Model-vs-sim error at the all-neutral profile, where every
    // network runs its own isolated NBS plan.
    let neutral = config
        .scales
        .iter()
        .position(|s| (*s - 1.0).abs() < 1e-12)
        .unwrap_or(0);
    if let Some(cell) = outcome
        .cells
        .iter()
        .find(|c| c.profile.iter().all(|&s| s == neutral))
    {
        let n = cell.networks.len().max(1) as f64;
        let errs = cell.networks.iter().zip(&outcome.plans);
        let (e, l) = errs.fold((0.0, 0.0), |(e, l), (m, p)| {
            (
                e + ((m.energy_j - p.model_e) / p.model_e).abs(),
                l + ((m.latency_s - p.model_l) / p.model_l).abs(),
            )
        });
        run.layer("study.energy_err_pct", e / n * 100.0);
        run.layer("study.latency_err_pct", l / n * 100.0);
    }
    if params.traced {
        let epoch = Instant::now();
        let mut sim = SimCounts::default();
        let (cells, t) =
            traced_on_this_thread(0, epoch, || mirror::coexistence_cells(&config, &mut sim));
        let wall = epoch.elapsed().as_secs_f64();
        match cells {
            Ok(cells) if format!("{cells:?}") == format!("{:?}", outcome.cells) => {}
            Ok(_) => run.fail("traced joint table differs from run_coexistence_study".into()),
            Err(e) => run.fail(format!("traced coexistence: {e}")),
        }
        run.finish_traced(vec![t], 1, wall, &sim);
    }
    run
}
