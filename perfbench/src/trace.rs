//! In-memory span recorder for the traced run.
//!
//! Each benchmark thread that takes part in a traced pass installs a
//! recorder with [`begin`], which opens the thread's root span
//! ([`ROOT`], the benchmark's own glue). Calls into the workspace
//! crates are wrapped in [`span`] (recorded one by one) or [`leaf`]
//! (high-frequency calls, aggregated only). Self time — a span's
//! duration minus the part its children cover — is folded per span
//! name as each span closes; [`end`] closes the root and hands back the
//! thread's spans and totals. A thread without a recorder pays one
//! thread-local lookup per wrapped call and records nothing.

use std::cell::RefCell;
use std::time::Instant;

/// Name of each traced thread's root span: benchmark glue between
/// calls into the workspace crates.
pub const ROOT: &str = "bench.glue";

/// One recorded span. Times are nanoseconds since the pass epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<operation>`.
    pub name: &'static str,
    /// Benchmark thread index.
    pub thread: usize,
    /// Work item the span belongs to (spans of one item share it).
    pub item: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Per-name aggregate over one thread or one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Closed spans of this name.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Longest single inclusive duration.
    pub max_ns: u64,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Benchmark thread index.
    pub thread: usize,
    /// Duration of the thread's root span.
    pub wall_ns: u64,
    /// Recorded spans (leaf calls excluded), root first.
    pub spans: Vec<Span>,
    /// Aggregates per span name, root and leaf calls included.
    pub totals: Vec<(&'static str, Totals)>,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: Option<usize>,
    /// Calls this timed frame stands for (sampled leaf calls).
    weight: u64,
}

struct Recorder {
    thread: usize,
    epoch: Instant,
    item: u64,
    frames: Vec<Frame>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, Totals)>,
    /// Exact call counts of [`leaf`] names.
    leaf_calls: Vec<(&'static str, u64)>,
}

/// A [`leaf`] call is timed once per this many calls; the timed call
/// stands for all of them.
const LEAF_SAMPLE: u64 = 16;

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Installs a recorder on this thread and opens its root span.
pub fn begin(thread: usize, epoch: Instant) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            thread,
            epoch,
            item: 0,
            frames: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
            leaf_calls: Vec::new(),
        });
    });
    enter(ROOT, true, 1);
}

/// Closes the root span and removes this thread's recorder.
///
/// # Panics
///
/// Panics when no recorder is installed or a span is still open.
pub fn end() -> ThreadTrace {
    exit();
    let mut rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("trace::end without trace::begin");
    assert!(rec.frames.is_empty(), "span left open at trace::end");
    for (name, calls) in &rec.leaf_calls {
        match rec.totals.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => t.calls = *calls,
            None => rec.totals.push((
                name,
                Totals {
                    calls: *calls,
                    ..Totals::default()
                },
            )),
        }
    }
    ThreadTrace {
        thread: rec.thread,
        wall_ns: rec.spans[0].end_ns - rec.spans[0].start_ns,
        spans: rec.spans,
        totals: rec.totals,
    }
}

/// Tags the spans that follow on this thread with work item `item`.
pub fn set_item(item: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.item = item;
        }
    });
}

fn enter(name: &'static str, record: bool, weight: u64) -> bool {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        let start = Instant::now();
        let record = record.then(|| {
            let parent = rec.frames.iter().rev().find_map(|f| f.record);
            rec.spans.push(Span {
                name,
                thread: rec.thread,
                item: rec.item,
                parent,
                start_ns: ns(start - rec.epoch),
                end_ns: 0,
            });
            rec.spans.len() - 1
        });
        rec.frames.push(Frame {
            name,
            start,
            child_ns: 0,
            record,
            weight,
        });
        true
    })
}

fn exit() {
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("trace exit without a recorder");
        let frame = rec.frames.pop().expect("trace exit without an open span");
        let measured = ns(end - frame.start);
        if let Some(idx) = frame.record {
            rec.spans[idx].end_ns = ns(end - rec.epoch);
        }
        let dur = measured * frame.weight;
        if let Some(parent) = rec.frames.last_mut() {
            parent.child_ns += dur;
        }
        let own = Totals {
            calls: 1,
            self_ns: dur.saturating_sub(frame.child_ns),
            max_ns: measured,
        };
        match rec.totals.iter_mut().find(|(n, _)| *n == frame.name) {
            Some((_, t)) => t.add(&own),
            None => rec.totals.push((frame.name, own)),
        }
    });
}

/// Runs `f` inside a recorded span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = enter(name, true, 1);
    let out = f();
    if on {
        exit();
    }
    out
}

/// Runs `f` as a counted, sampled call for names called thousands of
/// times per item: every call is counted exactly, one in
/// [`LEAF_SAMPLE`] is timed and stands for the calls since the last
/// sample (its time scaled up in the totals and subtracted from the
/// parent's self time). Leaf calls are not kept as [`Span`]s.
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let sampled = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let calls = match rec.leaf_calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => c,
            None => {
                rec.leaf_calls.push((name, 0));
                &mut rec.leaf_calls.last_mut().expect("just pushed").1
            }
        };
        *calls += 1;
        Some(*calls % LEAF_SAMPLE == 0)
    });
    let on = sampled == Some(true) && enter(name, false, LEAF_SAMPLE);
    let out = f();
    if on {
        exit();
    }
    out
}

/// Sums per-name totals over several threads.
pub fn merge(traces: &[ThreadTrace]) -> Vec<(&'static str, Totals)> {
    let mut out: Vec<(&'static str, Totals)> = Vec::new();
    for t in traces {
        for (name, tot) in &t.totals {
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => acc.add(tot),
                None => out.push((name, *tot)),
            }
        }
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Totals of `name` (zero when it never ran).
pub fn get(totals: &[(&'static str, Totals)], name: &str) -> Totals {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .unwrap_or_default()
}

/// Self time summed per layer (the span-name prefix before the first
/// `.`), in name order.
pub fn layer_self_ns(totals: &[(&'static str, Totals)]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (name, t) in totals {
        let layer = name.split('.').next().unwrap_or(name).to_string();
        match out.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, ns)) => *ns += t.self_ns,
            None => out.push((layer, t.self_ns)),
        }
    }
    out.sort();
    out
}

/// Share of a thread's wall time that its non-root spans' self times
/// cover: the traced part of the thread's work.
pub fn coverage(trace: &ThreadTrace) -> f64 {
    if trace.wall_ns == 0 {
        return 1.0;
    }
    let layers: u64 = trace
        .totals
        .iter()
        .filter(|(n, _)| *n != ROOT)
        .map(|(_, t)| t.self_ns)
        .sum();
    layers as f64 / trace.wall_ns as f64
}

/// Renders every span of `traces` as JSON lines.
pub fn render_spans(traces: &[ThreadTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in traces {
        for s in &t.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"item\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.item, parent, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_times_of_nested_spans_sum_to_the_thread_wall() {
        begin(0, Instant::now());
        span("core.outer", || {
            busy(300);
            span("mac.inner", || busy(300));
            for _ in 0..40 {
                leaf("mac.leaf", || busy(5));
            }
        });
        let t = end();
        let calls = get(&t.totals, "mac.leaf").calls;
        assert_eq!(calls, 40, "leaf calls are counted exactly");
        assert_eq!(
            t.spans.len(),
            3,
            "root and two spans; leaf calls are not kept"
        );
        let sum: u64 = t.totals.iter().map(|(_, x)| x.self_ns).sum();
        let wall = t.wall_ns as f64;
        assert!((sum as f64 - wall).abs() / wall < 0.05, "{sum} vs {wall}");
        assert!(coverage(&t) > 0.9);
    }

    #[test]
    fn untraced_threads_record_nothing() {
        assert_eq!(span("core.x", || 7), 7);
        assert_eq!(leaf("mac.y", || 8), 8);
    }
}
