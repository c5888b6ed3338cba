//! A spec the seed `shadowfax-server` does not survive is refused, and with
//! the refusal switched off it ends in a reported failure: never a hang,
//! never a process left behind.
//!
//! These tests run the real command (which builds the release server on
//! first use) from the repository root.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// `run_workload`'s own deadline is 150 s; the command must end well
/// inside the 180 s the driver allows.
const MUST_END_WITHIN: Duration = Duration::from_secs(170);

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Runs `benchmark run ...` with a marker in the environment that every
/// process it starts inherits.
fn run(marker: &str, args: &[&str]) -> (Output, Duration) {
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("run")
        .args(args)
        .args(["--seed", "7", "--trace", "0"])
        .current_dir(repo_root())
        .env("SHADOWFAX_BENCHMARK_TEST", marker)
        .output()
        .expect("start the benchmark");
    (output, started.elapsed())
}

/// Pids of live processes carrying `marker` in their environment.
fn survivors(marker: &str) -> Vec<u32> {
    let needle = format!("SHADOWFAX_BENCHMARK_TEST={marker}");
    std::fs::read_dir("/proc")
        .expect("/proc")
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| *pid != std::process::id())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/environ"))
                .map(|env| env.split(|b| *b == 0).any(|var| var == needle.as_bytes()))
                .unwrap_or(false)
        })
        .collect()
}

fn assert_refused(marker: &str, args: &[&str], limit: &str) {
    let (output, _) = run(marker, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("refused") && stderr.contains(limit),
        "{stderr}"
    );
    assert!(output.stdout.is_empty(), "a refused spec prints no result");
    assert_eq!(survivors(marker), [] as [u32; 0]);
}

/// With the guard off the server's dispatch thread panics mid-run; the
/// command must say so in its result line and leave nothing running.
fn assert_reported_failure(marker: &str, args: &[&str]) {
    let mut args = args.to_vec();
    args.push("--no-limit-guard");
    let (output, took) = run(marker, &args);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(took < MUST_END_WITHIN, "took {took:?}\n{stderr}");
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    assert!(!line.contains("\"failed\":0,"), "{line}");
    assert!(
        stderr.contains("run failed")
            && (stderr.contains("panicked") || stderr.contains("vanished")),
        "the reason is printed: {stderr}"
    );
    assert_eq!(survivors(marker), [] as [u32; 0]);
}

#[test]
fn thirty_thousand_keys_end_in_a_refusal_or_a_reported_failure() {
    let spec = repo_root().join("benchmark/out/test-30000-keys.json");
    std::fs::create_dir_all(spec.parent().expect("out dir")).expect("create benchmark/out");
    let shipped = include_str!("../workloads.json");
    assert!(shipped.contains("\"keys\": 20000"));
    std::fs::write(&spec, shipped.replace("\"keys\": 20000", "\"keys\": 30000"))
        .expect("write the oversize spec");
    let spec = spec.to_str().expect("utf-8 path");
    let args = [
        "--workload",
        "rmw-zipf-mem",
        "--seconds",
        "2",
        "--spec",
        spec,
    ];
    assert_refused("keys-guarded", &args, "max_keys");
    assert_reported_failure("keys-unguarded", &args);
}

/// About 15 s with a release harness, minutes with a debug one:
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "appends 1 GiB; run with --release"]
fn four_million_ingest_operations_end_in_a_refusal_or_a_reported_failure() {
    // 120,000 operations per window second: 4.08M.
    let args = ["--workload", "ingest-upsert-spill", "--seconds", "34"];
    assert_refused("ingest-guarded", &args, "max_appended_mib_per_server");
    assert_reported_failure("ingest-unguarded", &args);
}
