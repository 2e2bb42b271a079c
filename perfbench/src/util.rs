//! Small helpers: order statistics, digests, seeds, process memory and
//! source size.

use std::path::Path;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `sorted`.
fn rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[idx]
}

/// A tail latency: the highest percentile of the ladder 90, 99, 99.9,
/// 99.99 that leaves at least ten of one pass's samples beyond it,
/// taken over the samples of all passes. Choosing it by one pass keeps
/// the percentile fixed however many passes a run fits. Passes of
/// fewer than 100 samples resolve no tail, and the median (`p50`)
/// stands in.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Which percentile was used.
    pub percentile: f64,
}

/// See [`Tail`]; `v` holds all passes' samples, `per_pass` of them each.
pub fn tail(v: &[f64], per_pass: usize) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| per_pass as f64 * (1.0 - p / 100.0) >= 10.0)
    {
        Some(percentile) => Tail {
            value: rank(&s, percentile),
            percentile,
        },
        None => Tail {
            value: median(&s),
            percentile: 50.0,
        },
    }
}

/// FNV-1a over `bytes`, as 16 hex digits: a change detector for
/// artifacts and payloads, not a cryptographic hash.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// SplitMix64 step: derives well-spread sub-seeds from the workload seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: the machine's cores, at most two.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Lines of Rust under each `crates/<name>/src`, by crate name.
pub fn loc_per_crate(root: &Path) -> Vec<(String, usize)> {
    fn count(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |t| t.lines().count())
                } else {
                    0
                }
            })
            .sum()
    }
    let mut out: Vec<(String, usize)> = std::fs::read_dir(root.join("crates"))
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().join("src").is_dir())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, count(&e.path().join("src")))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_percentile_one_pass_resolves() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 1000);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        let passes = tail(&v, 250);
        assert_eq!(passes.percentile, 90.0);
        assert_eq!(passes.value, 900.0);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few, 1).percentile, 50.0);
        assert_eq!(tail(&few, 1).value, 8.0);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
