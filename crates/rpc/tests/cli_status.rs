//! `shadowfax-cli` exit codes: scripts must be able to distinguish "in
//! flight / complete" (0) from "unknown migration" (1), "cancelled" (4),
//! "wait deadline expired" (5), and a usage error (64) without parsing
//! output.  Exercises the noun-verb command tree (`migrate status`,
//! `tier stats`, `cluster layout`, ...) and checks that the flat verbs it
//! replaced (`status`, `tier-stats`, `ownership`, ...) are usage errors.
//!
//! The cluster runs in-process behind a real `RpcServer`; the CLI binary is
//! spawned as a separate OS process against it.  The first cancellation is
//! driven over the wire with the CLI's own `migrate cancel` verb; a later
//! one is recorded directly at the metadata store to exercise the status
//! path in isolation.

use std::process::Command;
use std::sync::Arc;

use shadowfax::{Cluster, ClusterConfig, ServerId};
use shadowfax_rpc::{ControlPlane, RpcServer, RpcServerConfig};

fn cli(addr: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_shadowfax-cli"))
        .args(["--addr", addr])
        .args(args)
        .output()
        .expect("run shadowfax-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).trim().to_string(),
        String::from_utf8_lossy(&out.stderr).trim().to_string(),
    )
}

fn cli_status(addr: &str, id: &str) -> (Option<i32>, String, String) {
    cli(addr, &["migrate", "status", id])
}

#[test]
fn status_exit_codes_distinguish_unknown_cancelled_and_live() {
    let cluster = Arc::new(Cluster::start(ClusterConfig::two_server_test()));
    let rpc = RpcServer::serve(
        ControlPlane::new(Arc::clone(&cluster)),
        RpcServerConfig::default(),
    )
    .expect("bind rpc server");
    let addr = rpc.local_addr().to_string();

    // Unknown migration id: server-side error, exit 1.
    let (code, _, stderr) = cli_status(&addr, "999");
    assert_eq!(code, Some(1), "unknown id should exit 1; stderr: {stderr}");
    assert!(
        stderr.contains("unknown migration"),
        "unexpected stderr: {stderr}"
    );

    // An in-flight migration (recorded at the metadata store): exit 0.
    let moving = cluster
        .meta()
        .snapshot()
        .server(ServerId(0))
        .expect("server 0 registered")
        .owned
        .ranges()[0]
        .take_fraction(0.1);
    let (id, ..) = cluster
        .meta()
        .transfer_ownership(ServerId(0), ServerId(1), &[moving])
        .expect("record migration");
    let id_str = id.to_string();
    let (code, stdout, _) = cli_status(&addr, &id_str);
    assert_eq!(code, Some(0), "in-flight status should exit 0");
    assert!(stdout.contains("in flight"), "unexpected stdout: {stdout}");

    // Waiting on a migration that never settles: the typed Timeout exit
    // code (5), distinct from hard errors — the fix for `wait` wedging
    // forever on a dead peer.
    let (code, _, stderr) = cli(&addr, &["migrate", "wait", &id_str, "--timeout", "1"]);
    assert_eq!(
        code,
        Some(5),
        "an expired wait deadline should exit 5; stderr: {stderr}"
    );
    assert!(stderr.contains("timed out"), "unexpected stderr: {stderr}");

    // Cancel over the wire with the CLI's own verb: exit 0, and the
    // cancellation counters become visible (`migrate stats` sums them from
    // a namespaced metrics query).
    let (code, stdout, stderr) = cli(&addr, &["migrate", "cancel", &id_str]);
    assert_eq!(code, Some(0), "cancel should exit 0; stderr: {stderr}");
    assert!(stdout.contains("cancelled"), "unexpected stdout: {stdout}");
    let (code, stdout, _) = cli(&addr, &["migrate", "stats"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("migrations cancelled: 1"),
        "unexpected migrate stats: {stdout}"
    );

    // Status and wait both report the cancellation with exit 4.
    let (code, stdout, _) = cli_status(&addr, &id_str);
    assert_eq!(code, Some(4), "cancelled status should exit 4");
    assert!(stdout.contains("cancelled"), "unexpected stdout: {stdout}");
    let (code, stdout, _) = cli(&addr, &["migrate", "wait", &id_str, "--timeout", "5"]);
    assert_eq!(code, Some(4), "waiting on a cancelled migration exits 4");
    assert!(stdout.contains("cancelled"), "unexpected stdout: {stdout}");

    // Cancelling an unknown migration is a hard error (exit 1).
    let (code, _, stderr) = cli(&addr, &["migrate", "cancel", "999"]);
    assert_eq!(code, Some(1), "unknown cancel should exit 1: {stderr}");

    // `metrics` pulls the full registry snapshot over GET_METRICS: exit 0,
    // text exposition carries the cancellation counter family and the
    // migration-phase timeline with a cancelled terminal event.
    let (code, stdout, stderr) = cli(&addr, &["metrics"]);
    assert_eq!(code, Some(0), "metrics should exit 0; stderr: {stderr}");
    assert!(
        stdout.contains("counter sv0.migration.cancelled 1"),
        "metrics text missing cancellation counter: {stdout}"
    );
    assert!(
        stdout.contains("name=migration.phase label=cancelled"),
        "metrics text missing cancelled timeline event: {stdout}"
    );

    // `metrics --json` emits one versioned JSON object.
    let (code, stdout, stderr) = cli(&addr, &["metrics", "--json"]);
    assert_eq!(
        code,
        Some(0),
        "metrics --json should exit 0; stderr: {stderr}"
    );
    assert!(
        stdout.starts_with("{\"version\":1,"),
        "unexpected json head: {stdout}"
    );
    assert!(
        stdout.contains("\"sv0.migration.cancelled\":1"),
        "json missing cancellation counter: {stdout}"
    );

    // Namespaced metrics keep only the requested prefix.
    let (code, stdout, stderr) = cli(&addr, &["metrics", "--ns", "sv0.migration."]);
    assert_eq!(
        code,
        Some(0),
        "metrics --ns should exit 0; stderr: {stderr}"
    );
    assert!(
        stdout.contains("counter sv0.migration.cancelled 1"),
        "namespaced metrics missing the family: {stdout}"
    );
    assert!(
        !stdout.contains("tier.chain.served"),
        "namespaced metrics leaked another namespace: {stdout}"
    );

    // The remaining control-plane nouns answer through the tree.
    let (code, stdout, _) = cli(&addr, &["tier", "stats"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("chain fetches served"), "{stdout}");
    let (code, stdout, _) = cli(&addr, &["cluster", "layout"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("server 0"), "{stdout}");
    // No coordinator runs in this single-process test: solo role.
    let (code, stdout, _) = cli(&addr, &["cluster", "status"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("role: solo"), "{stdout}");
    assert!(stdout.contains("epoch:"), "{stdout}");

    // Usage errors exit 64 (EX_USAGE): unknown flags, unknown commands,
    // and unknown subcommands of a noun.
    let (code, _, _) = cli(&addr, &["metrics", "--bogus"]);
    assert_eq!(code, Some(64), "unknown metrics flag should exit 64");
    let (code, _, _) = cli(&addr, &["frobnicate"]);
    assert_eq!(code, Some(64), "unknown command should exit 64");
    let (code, _, _) = cli(&addr, &["migrate", "bogus"]);
    assert_eq!(code, Some(64), "unknown migrate verb should exit 64");
    let (code, _, _) = cli(&addr, &["cluster"]);
    assert_eq!(code, Some(64), "bare noun should exit 64");
    // The flat verbs the tree replaced are gone, not hidden.
    for flat in [
        &["status", id_str.as_str()][..],
        &["wait", id_str.as_str()],
        &["cancel", id_str.as_str()],
        &["cancel-stats"],
        &["tier-stats"],
        &["ownership"],
        &["migrate", "0", "1", "0.5"],
    ] {
        let (code, stdout, stderr) = cli(&addr, flat);
        assert_eq!(code, Some(64), "{flat:?} should be a usage error: {stdout}");
        assert!(stderr.contains("usage:"), "{flat:?}: {stderr}");
    }

    // Completed (dependency garbage collected): exit 0.
    let moving2 = cluster
        .meta()
        .snapshot()
        .server(ServerId(0))
        .expect("server 0 registered")
        .owned
        .ranges()[0]
        .take_fraction(0.1);
    let (id2, ..) = cluster
        .meta()
        .transfer_ownership(ServerId(0), ServerId(1), &[moving2])
        .expect("record migration");
    cluster
        .meta()
        .mark_complete(id2, ServerId(0))
        .expect("source done");
    cluster
        .meta()
        .mark_complete(id2, ServerId(1))
        .expect("target done");
    let (code, stdout, _) = cli_status(&addr, &id2.to_string());
    assert_eq!(code, Some(0), "completed status should exit 0");
    assert!(stdout.contains("complete"), "unexpected stdout: {stdout}");

    rpc.shutdown();
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced after rpc shutdown"),
    }
}
