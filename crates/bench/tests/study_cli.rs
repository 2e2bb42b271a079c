//! The `study` binary refuses flags it does not know, on every
//! subcommand, before doing any work: a stale or misspelled flag must
//! fail loudly instead of being silently ignored.

use std::process::Command;

/// Runs `study` with `args`; returns its exit code and stderr.
fn study(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_study"))
        .args(args)
        .output()
        .expect("study binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_refused(args: &[&str], flag: &str) {
    let (code, stderr) = study(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag '{flag}'")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn removed_shards_flag_is_refused() {
    assert_refused(&["--smoke", "--shards", "2"], "--shards");
    assert_refused(&["coexistence", "--smoke", "--shards", "2"], "--shards");
    assert_refused(&["--resume", "manifest.json", "--shards", "2"], "--shards");
}

#[test]
fn misspelled_flags_are_refused_on_every_subcommand() {
    assert_refused(&["--smoke", "--validate-evry", "0"], "--validate-evry");
    assert_refused(&["--resume", "manifest.json", "--job", "2"], "--job");
    assert_refused(&["coexistence", "--smoke", "--sed", "3"], "--sed");
    assert_refused(&["serve", "--adr", "127.0.0.1:0"], "--adr");
    assert_refused(&["query", "--smoke", "--stat"], "--stat");
    assert_refused(&["cache-stats", "--smoke", "--jsn"], "--jsn");
}
