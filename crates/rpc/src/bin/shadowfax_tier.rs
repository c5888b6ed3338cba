//! `shadowfax-tier`: the cluster's shared blob tier daemon.
//!
//! ```text
//! shadowfax-tier [--listen ADDR] [--log-capacity BYTES] [--metrics-log-secs S]
//! ```
//!
//! Serves `TIER_LEASE` / `TIER_APPEND` / `TIER_READ` / `GET_TIER_STATUS`
//! frames (plus the standard ping and metrics frames) over the
//! length-prefixed wire codec.  Serving processes mirror their spilled
//! chains here so any process can read any log's chains, nested
//! indirections included, even while the log's owner is down.
//!
//! Prints `LISTENING <addr>` once ready (scripts and tests parse this),
//! then serves until killed.

use shadowfax_rpc::{TierDaemon, TierDaemonConfig};

/// Exit code for malformed flags (`EX_USAGE`), distinct from runtime
/// failures (1).
const EXIT_USAGE: i32 = 64;

const USAGE: &str =
    "usage: shadowfax-tier [--listen ADDR] [--log-capacity BYTES] [--metrics-log-secs S]";

/// Reports a configuration error: the detail, then the usage text, then
/// exit [`EXIT_USAGE`].
fn bad_args(detail: &str) -> ! {
    eprintln!("shadowfax-tier: {detail}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE)
}

fn parse_args() -> Result<(TierDaemonConfig, u64), String> {
    let mut config = TierDaemonConfig {
        listen: "127.0.0.1:4900".into(),
        ..TierDaemonConfig::default()
    };
    let mut metrics_log_secs = 30u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parse_num = |name: &str, v: String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{name} must be an unsigned integer, got {v:?}"))
        };
        match flag.as_str() {
            "--listen" => config.listen = value("--listen")?,
            "--log-capacity" => {
                config.per_log_capacity = parse_num("--log-capacity", value("--log-capacity")?)?;
            }
            "--metrics-log-secs" => {
                metrics_log_secs = parse_num("--metrics-log-secs", value("--metrics-log-secs")?)?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if config.per_log_capacity == 0 {
        return Err("--log-capacity must be at least 1".into());
    }
    Ok((config, metrics_log_secs))
}

fn main() {
    let (config, metrics_log_secs) = parse_args().unwrap_or_else(|detail| bad_args(&detail));
    // Every serving process parks a mirroring connection here; don't let
    // the default 1024-fd soft limit cap the cluster size.
    let _ = shadowfax_net::raise_nofile_limit();
    let listen = config.listen.clone();
    let daemon = TierDaemon::serve(config).unwrap_or_else(|e| {
        eprintln!("failed to bind {listen}: {e}");
        std::process::exit(1);
    });

    // Scripts and the integration harness parse this line.
    println!("LISTENING {}", daemon.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "shadowfax-tier: serving shared blob tier on {}",
        daemon.local_addr()
    );

    // Serve until killed, periodically logging the per-log extents so a
    // killed daemon leaves its final shape behind in the log.
    let interval = if metrics_log_secs == 0 {
        std::time::Duration::from_secs(3600)
    } else {
        std::time::Duration::from_secs(metrics_log_secs)
    };
    loop {
        std::thread::sleep(interval);
        if metrics_log_secs > 0 {
            let status = daemon.status();
            eprintln!(
                "TIER_SNAPSHOT appends={} reads={} rejected_stale_lease={} logs={}",
                status.appends,
                status.reads,
                status.rejected_stale_lease,
                status.logs.len()
            );
        }
    }
}
