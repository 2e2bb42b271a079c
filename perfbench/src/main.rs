//! The edmac benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid-validate|plan-sweep|serve-replay|coexist> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints every metric as a
//! `name = value unit` line, then one JSON object as the last line of
//! standard output; exits non-zero when a correctness or determinism
//! check fails. See `perfbench/README.md`.

mod mirror;
mod trace;
mod util;
mod workloads;

use edmac_study::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Params, Run, OUT_DIR};

/// The canonical and held-out seeds, and the digests and exact counts
/// at each.
const EXPECTED: &str = include_str!("../expected.json");

/// The end-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by the traced run of every
/// workload (0 where a workload does not reach the layer).
const PER_LAYER: [(&str, &str); 48] = [
    ("net.realize_ms", "ms"),
    ("core.deployment_ms", "ms"),
    ("core.bargain_ms", "ms"),
    ("core.frontier_ms", "ms"),
    ("mac.performance_calls", "count"),
    ("mac.performance_ms", "ms"),
    ("game.concepts_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("phy.field_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.run_max_ms", "ms"),
    ("sim.frames_tx", "count"),
    ("sim.frames_rx", "count"),
    ("sim.collisions", "count"),
    ("sim.captured", "count"),
    ("sim.below_noise", "count"),
    ("sim.ns_per_frame", "ns"),
    ("sim.node_s_per_host_s", "node-s/s"),
    ("study.busy_ms", "ms"),
    ("study.idle_ms", "ms"),
    ("study.artifact_ms", "ms"),
    ("study.key_us", "us"),
    ("study.load_us", "us"),
    ("study.store_ms", "ms"),
    ("study.energy_err_pct", "%"),
    ("study.latency_err_pct", "%"),
    ("serve.hot_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.solves", "count"),
    ("serve.hot_hit_ratio", "ratio"),
    ("serve.hot_p50_us", "us"),
    ("serve.disk_p50_us", "us"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.wire_p50_us", "us"),
    ("layer.bench_ms", "ms"),
    ("layer.net_ms", "ms"),
    ("layer.core_ms", "ms"),
    ("layer.mac_ms", "ms"),
    ("layer.game_ms", "ms"),
    ("layer.proto_ms", "ms"),
    ("layer.sim_ms", "ms"),
    ("layer.phy_ms", "ms"),
    ("layer.study_ms", "ms"),
    ("layer.serve_ms", "ms"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 4] = ["grid-validate", "plan-sweep", "serve-replay", "coexist"];

fn parse_args(started: Instant) -> Result<Params, String> {
    let mut workload = None;
    let mut params = Params {
        started,
        workload: "",
        seed: 0,
        seconds: 10.0,
        traced: false,
        setup_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload '{value}' (one of {WORKLOADS:?})")
                    })?);
            }
            "--seed" => params.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                params.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(params.seconds.is_finite() && params.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                };
                if flag == "--trace" {
                    params.traced = on;
                } else {
                    params.setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    params.workload = workload.ok_or("--workload is required")?;
    Ok(params)
}

fn flat_strings(json: &Json) -> BTreeMap<String, String> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Str(s) => Some((k.clone(), s.clone())),
                _ => None,
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// At the canonical and the held-out seed, checks the run's digests and
/// exact counts against `expected.json`: every pinned digest must be
/// produced, and every pinned key the run produced must agree. (Sim
/// counts come from the traced pass only.)
fn check_expected(workload: &str, params: &Params, run: &mut Run) {
    let doc = match Json::parse(EXPECTED) {
        Ok(doc) => doc,
        Err(e) => return run.fail(format!("expected.json: {e}")),
    };
    let pinned = if doc.u64_("canonical_seed") == Ok(params.seed) {
        "expected"
    } else if doc.u64_("held_out_seed") == Ok(params.seed) {
        "held_out"
    } else {
        return;
    };
    let want = doc
        .get(pinned)
        .and_then(|e| e.get(workload))
        .map(flat_strings)
        .unwrap_or_default();
    if !want.keys().any(|k| k.starts_with("digest.")) {
        run.fail(format!("expected.json pins no digests for {workload}"));
    }
    for (key, want) in &want {
        match run.record.get(key).cloned() {
            Some(got) if got == *want => {}
            Some(got) => run.fail(format!("{key}: {got}, but expected.json has {want}")),
            None if key.starts_with("digest.") => {
                run.fail(format!("{key}: pinned in expected.json, not produced"));
            }
            None => {}
        }
    }
}

fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let params = match parse_args(started) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let workload = params.workload;
    let mut run = match workload {
        "grid-validate" => workloads::grid_validate(&params),
        "plan-sweep" => workloads::plan_sweep(&params),
        "serve-replay" => workloads::serve_replay(&params),
        _ => workloads::coexist(&params),
    };
    if params.setup_only {
        // A set-up probe: its parent reads the last line.
        for problem in &run.problems {
            println!("FAILED: {problem}");
        }
        println!("{:?}", run.setup_s.first().copied().unwrap_or(f64::NAN));
        return if run.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    check_expected(workload, &params, &mut run);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload}  seed {}  trace {}  threads {}  passes {}  elapsed {:.1} s",
        params.seed,
        u8::from(params.traced),
        util::threads(),
        run.pass_wall_s.len(),
        started.elapsed().as_secs_f64()
    );
    let _ = writeln!(
        out,
        "pass walls (s): {}",
        run.pass_wall_s
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // Item latencies are pooled over all passes, so a stall in any
    // pass shows in the tail.
    let samples = run.items_ms.len();
    let passes = run.pass_wall_s.len();
    let tail = util::tail(&run.items_ms, samples / passes.max(1));
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", util::median(&run.setup_s)),
        ("wall_s", util::median(&run.pass_wall_s)),
        ("item_p50_ms", util::median(&run.items_ms)),
        ("item_tail_ms", tail.value),
        ("peak_rss_mb", util::peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    let notes = [
        format!(
            "median of {} processes, each from its start to the first timed item",
            run.setup_s.len()
        ),
        format!("median of {passes} passes"),
        format!("p50 of {samples} items from {passes} passes"),
        format!(
            "p{} of {samples} items from {passes} passes",
            tail.percentile
        ),
        "VmHWM".to_string(),
    ];
    for ((name, unit), note) in END_TO_END.iter().zip(&notes) {
        let _ = writeln!(out, "{name} = {:.6} {unit}  ({note})", e2e[name]);
    }
    let _ = writeln!(
        out,
        "fail_ratio = {:.6}  ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    let loc = util::loc_per_crate(Path::new("."));
    let _ = writeln!(
        out,
        "loc {}  (total {})",
        loc.iter()
            .map(|(c, n)| format!("{c}={n}"))
            .collect::<Vec<_>>()
            .join(" "),
        loc.iter().map(|(_, n)| n).sum::<usize>()
    );
    let metrics: Vec<(&str, f64, &str)> = if params.traced {
        let spans: usize = run.traces.iter().map(|t| t.spans.len()).sum();
        run.layers.insert("trace.wall_s", run.traced_wall_s);
        run.layers.insert("trace.spans", spans as f64);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e[name], unit))
            .collect()
    };
    if params.traced {
        for (name, value, unit) in &metrics {
            let _ = writeln!(out, "{name} = {value:.6} {unit}");
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{}.jsonl", params.seed));
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace::render_spans(&run.traces)))
        {
            Ok(()) => {
                let _ = writeln!(out, "spans written to {}", path.display());
            }
            Err(e) => run.fail(format!("writing {}: {e}", path.display())),
        }
    }
    for problem in &run.problems {
        let _ = writeln!(out, "FAILED: {problem}");
    }
    let correct = run.failed == 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(", ")
    );
    print!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
