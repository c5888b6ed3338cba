//! End-to-end test with real OS processes: spawns two `shadowfax-server`
//! processes (one server each), then drives them with the `shadowfax-cli`
//! binary over loopback TCP — the acceptance path for the serving
//! binaries.  The CLI's migration from server 0 to server 1 crosses TCP.
//!
//! After the drive it pushes a pipelined burst through a `RemoteClient`
//! and pulls process 0's metrics snapshot over GET_METRICS: the
//! serving-path latency histograms must have recorded it.

use std::process::Command;
use std::time::Duration;

use shadowfax_net::{KvRequest, SessionConfig};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig};

mod util;
use util::ClusterSpec;

fn cli(addr: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_shadowfax-cli"))
        .arg("--addr")
        .arg(addr)
        .args(args)
        .output()
        .expect("run shadowfax-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).trim().to_string(),
        String::from_utf8_lossy(&out.stderr).trim().to_string(),
    )
}

#[test]
fn server_and_cli_as_separate_processes() {
    // Two one-server processes under the scale-out layout (server 0 owns
    // everything, server 1 idles); the CLI talks to process 0.
    let cluster = ClusterSpec::n_processes("process_loopback", "scale-out", 2).spawn();
    let addr = cluster.addr(0).to_string();

    // Liveness.
    let (ok, stdout, stderr) = cli(&addr, &["ping"]);
    assert!(ok, "ping failed: {stderr}");
    assert!(stdout.contains("PONG"), "unexpected ping output: {stdout}");

    // Upsert / read / delete through a separate process.
    let (ok, stdout, stderr) = cli(&addr, &["put", "42", "forty-two"]);
    assert!(ok, "put failed: {stderr}");
    assert_eq!(stdout, "OK");

    let (ok, stdout, stderr) = cli(&addr, &["get", "42"]);
    assert!(ok, "get failed: {stderr}");
    assert_eq!(stdout, "forty-two");

    let (ok, stdout, _) = cli(&addr, &["rmw", "9000", "5"]);
    assert!(ok);
    assert_eq!(stdout, "5");

    let (ok, stdout, stderr) = cli(&addr, &["del", "42"]);
    assert!(ok, "del failed: {stderr}");
    assert_eq!(stdout, "DELETED");

    // A deleted key reads back as nil (distinct exit code).
    let (ok, _, _) = cli(&addr, &["get", "42"]);
    assert!(!ok, "get of a deleted key should exit non-zero");

    // Ownership map names both servers.
    let (ok, stdout, _) = cli(&addr, &["cluster", "layout"]);
    assert!(ok);
    assert!(stdout.contains("server 0"), "{stdout}");
    assert!(stdout.contains("server 1"), "{stdout}");

    // Migrate half the space to the idle server in the other process, then
    // keep serving reads.
    let (ok, stdout, stderr) = cli(&addr, &["migrate", "start", "0", "1", "0.5"]);
    assert!(ok, "migrate failed: {stderr}");
    assert!(stdout.contains("migration"), "{stdout}");

    // The migration runs asynchronously; data stays readable throughout.
    let (ok, stdout, stderr) = cli(&addr, &["put", "77", "post-migration"]);
    assert!(ok, "put after migrate failed: {stderr}");
    assert_eq!(stdout, "OK");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (ok, stdout, stderr) = cli(&addr, &["get", "77"]);
        if ok && stdout == "post-migration" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "get after migration never succeeded: ok={ok} out={stdout} err={stderr}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    // The target is the other process: it owns half the space once the
    // records have crossed the TCP migration link.
    let mut ctrl1 = CtrlClient::connect(cluster.addr(1), Duration::from_secs(5)).expect("ctrl 1");
    loop {
        let ownership = ctrl1.ownership().expect("ownership at process 1");
        let sv1 = ownership
            .servers
            .iter()
            .find(|s| s.id == 1)
            .expect("server 1");
        if !sv1.ranges.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "process 1 never took ownership: {ownership:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A short pipelined burst over the real socket: alternating upserts
    // and reads, several batches in flight.
    let mut config = RemoteClientConfig::new(&addr);
    config.session = SessionConfig {
        max_batch_ops: 32,
        ..SessionConfig::default()
    };
    let mut client = RemoteClient::connect(config).expect("connect load client");
    for i in 0..5_000u64 {
        let key = i % 500;
        let req = if i % 2 == 0 {
            KvRequest::Upsert {
                key,
                value: vec![0x5A; 64],
            }
        } else {
            KvRequest::Read { key }
        };
        client.issue(req, Box::new(|_| {}));
    }
    assert!(
        client.drain(Duration::from_secs(60)).expect("burst"),
        "the pipelined burst did not drain"
    );
    assert_eq!(client.stats().completed, 5_000);

    // The CLI `metrics` verb round-trips against a live process.
    let (ok, stdout, stderr) = cli(&addr, &["metrics", "--json"]);
    assert!(ok, "metrics --json failed: {stderr}");
    assert!(stdout.starts_with("{\"version\":1,"), "{stdout}");

    // The burst above pushed thousands of pipelined reads and upserts
    // through the serving path, so the latency histograms must be populated
    // with sane quantiles.
    let mut ctrl = CtrlClient::connect(&addr, Duration::from_secs(5)).expect("ctrl connect");
    let snap = ctrl.metrics().expect("metrics snapshot");
    assert_eq!(snap.version, 1, "unexpected snapshot version");
    for name in ["rpc.latency.read", "rpc.latency.upsert"] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} histogram missing: {:?}", snap.histograms));
        assert!(h.count > 0, "{name} recorded nothing under load");
        assert!(h.p50_ns() > 0, "{name} p50 is zero: {h:?}");
        assert!(h.p99_ns() >= h.p50_ns(), "{name} quantiles inverted: {h:?}");
    }
    assert!(
        snap.counter_family(".store.upserts") > 0,
        "store counter family missing from the registry: {:?}",
        snap.counters
    );
}
