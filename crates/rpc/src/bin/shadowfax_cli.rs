//! `shadowfax-cli`: a command-line client speaking the Shadowfax wire
//! protocol.
//!
//! Commands form a noun-verb tree, one spelling per operation:
//!
//! ```text
//! shadowfax-cli --addr HOST:PORT <command> [args]
//!
//! commands:
//!   ping                         liveness probe
//!   get KEY                      read a key
//!   put KEY VALUE                upsert a key (VALUE is UTF-8)
//!   del KEY                      delete a key
//!   rmw KEY DELTA                increment the counter at KEY by DELTA
//!
//!   migrate start FROM TO FRACTION [--no-wait] [--timeout SECS]
//!                                move FRACTION of FROM's first range to TO;
//!                                waits for the migration to settle unless
//!                                --no-wait is given.  Any process of the
//!                                cluster can originate the migration; one
//!                                that does not host FROM relays it.
//!   migrate wait ID [--timeout SECS]
//!                                wait until migration ID settles (completes
//!                                on both sides, or is cancelled)
//!   migrate status ID            print the state of migration ID
//!   migrate cancel ID            cancel migration ID: ownership of the
//!                                migrating ranges rolls back to the source
//!                                and both servers drop their in-flight state
//!   migrate stats                print the process's migration-cancellation
//!                                counters (heartbeats missed, migrations
//!                                cancelled, records rolled back)
//!
//!   tier stats                   print the process's peer log reads: those
//!                                it answered and refused, and those it
//!                                issued
//!   tier status                  dial a `shadowfax-tier` daemon (give its
//!                                address as --addr) and print its served
//!                                counters plus every log's extent and lease
//!
//!   cluster status               print the process's coordinator role
//!                                (solo/broker/follower), the broker address,
//!                                the cluster epoch, each peer's acked epoch
//!                                and reachability, the shared tier endpoint
//!                                when one is configured, and a warning when
//!                                cancellation relays have been escalated
//!   cluster layout               print the cluster's ownership map
//!
//!   metrics [--json] [--ns PREFIX]
//!                                pull the process's metrics snapshot: every
//!                                counter family, gauge, serving-path latency
//!                                histogram, and the migration-phase event
//!                                timeline; --json emits one JSON object;
//!                                --ns keeps only instruments under PREFIX
//!                                (e.g. broker.)
//! ```
//!
//! Exit codes (shared by every verb so scripts never parse text):
//!   0   success / migration complete or in flight (status)
//!   1   error (unknown migration id, unreachable server, ...)
//!   3   `get` found no value
//!   4   the migration was cancelled and rolled back
//!   5   the wait deadline expired while the migration was still in flight
//!   64  usage error (unknown command/flag, malformed argument)

use std::time::Duration;

use shadowfax_net::SessionConfig;
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig, RpcError};

/// Exit code for malformed invocations (`EX_USAGE`), distinct from
/// runtime failures (1).
const EXIT_USAGE: i32 = 64;
/// Exit code for a wait deadline that expired with the migration still in
/// flight (documented next to 1 = unknown/error and 4 = cancelled).
const EXIT_TIMEOUT: i32 = 5;
/// Exit code for a migration that was cancelled and rolled back.
const EXIT_CANCELLED: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: shadowfax-cli --addr HOST:PORT \
         (ping | get K | put K V | del K | rmw K D | \
         migrate (start FROM TO FRACTION | wait ID | status ID | cancel ID | stats) | \
         tier (stats | status) | cluster (status | layout) | \
         metrics [--json] [--ns PREFIX])"
    );
    std::process::exit(EXIT_USAGE)
}

fn fail(e: RpcError) -> ! {
    eprintln!("error: {e}");
    match e {
        RpcError::Timeout(_) => std::process::exit(EXIT_TIMEOUT),
        _ => std::process::exit(1),
    }
}

/// Reports a settled migration: exit 0 when complete, [`EXIT_CANCELLED`]
/// when it was cancelled and rolled back.
fn report_settled(id: u64, state: &shadowfax_rpc::WireMigrationState) -> ! {
    if state.cancelled {
        println!("migration {id} cancelled and rolled back");
        std::process::exit(EXIT_CANCELLED);
    }
    println!("migration {id} complete");
    std::process::exit(0);
}

fn parse_u64(s: &str, what: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{what} must be an unsigned integer, got {s:?}");
        usage()
    })
}

fn client_for(addr: &str, session: SessionConfig) -> RemoteClient {
    let mut config = RemoteClientConfig::new(addr);
    config.session = session;
    RemoteClient::connect(config).unwrap_or_else(|e| fail(e))
}

fn ctrl_for(addr: &str) -> CtrlClient {
    CtrlClient::connect(addr, Duration::from_secs(5)).unwrap_or_else(|e| fail(e))
}

/// Maps the command tree onto the dispatch keys of `main`; anything that
/// is not a spelling documented above is a usage error.
fn canonicalize(mut rest: Vec<String>) -> (&'static str, Vec<String>) {
    const LEAVES: [&str; 6] = ["ping", "get", "put", "del", "rmw", "metrics"];
    let noun = rest.remove(0);
    if let Some(leaf) = LEAVES.iter().find(|leaf| **leaf == noun) {
        return (leaf, rest);
    }
    if rest.is_empty() {
        usage()
    }
    let verb = rest.remove(0);
    let command = match (noun.as_str(), verb.as_str()) {
        ("migrate", "start") => "migrate-start",
        ("migrate", "wait") => "migrate-wait",
        ("migrate", "status") => "migrate-status",
        ("migrate", "cancel") => "migrate-cancel",
        ("migrate", "stats") => "migrate-stats",
        ("tier", "stats") => "tier-stats",
        ("tier", "status") => "tier-status",
        ("cluster", "status") => "cluster-status",
        ("cluster", "layout") => "cluster-layout",
        _ => usage(),
    };
    (command, rest)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            addr = it.next();
        } else {
            rest.push(a);
        }
    }
    let Some(addr) = addr else { usage() };
    if rest.is_empty() {
        usage()
    }
    let (command, rest) = canonicalize(rest);

    // Point operations complete one at a time; flush immediately.
    let point_session = SessionConfig {
        max_batch_ops: 1,
        ..SessionConfig::default()
    };

    match command {
        "ping" => {
            let mut ctrl = ctrl_for(&addr);
            ctrl.ping().unwrap_or_else(|e| fail(e));
            println!("PONG from {addr}");
        }
        "cluster-layout" => {
            let mut ctrl = ctrl_for(&addr);
            let own = ctrl.ownership().unwrap_or_else(|e| fail(e));
            for s in &own.servers {
                println!(
                    "server {} ({}, {} threads) view {} owns {} range(s):",
                    s.id,
                    s.address,
                    s.threads,
                    s.view,
                    s.ranges.len()
                );
                for (start, end) in &s.ranges {
                    println!("  [{start:#018x}, {end:#018x})");
                }
            }
        }
        "cluster-status" => {
            let mut ctrl = ctrl_for(&addr);
            let status = ctrl.broker_status().unwrap_or_else(|e| fail(e));
            println!("role: {}", status.role.name());
            if !status.broker_addr.is_empty() {
                println!("broker: {}", status.broker_addr);
            }
            println!("epoch: {}", status.epoch);
            if !status.tier_addr.is_empty() {
                println!(
                    "tier: {} ({})",
                    status.tier_addr,
                    if status.tier_reachable {
                        "reachable"
                    } else {
                        "UNREACHABLE, reading foreign logs from their owners"
                    }
                );
            }
            for peer in &status.peers {
                println!(
                    "peer {}: acked epoch {}, {}",
                    peer.addr,
                    peer.acked_epoch,
                    if peer.reachable {
                        "reachable"
                    } else {
                        "unreachable"
                    }
                );
            }
            if status.cancel_escalated > 0 {
                println!(
                    "warning: {} cancellation relay(s) escalated after the retry cap \
                     (peer presumed permanently dead)",
                    status.cancel_escalated
                );
            }
        }
        "get" => {
            let key = parse_u64(
                rest.first().map(String::as_str).unwrap_or_else(|| usage()),
                "KEY",
            );
            let mut client = client_for(&addr, point_session);
            match client.get(key).unwrap_or_else(|e| fail(e)) {
                Some(value) => match std::str::from_utf8(&value) {
                    Ok(s) => println!("{s}"),
                    Err(_) => println!("{}", hex(&value)),
                },
                None => {
                    eprintln!("(nil)");
                    std::process::exit(3);
                }
            }
        }
        "put" => {
            if rest.len() < 2 {
                usage()
            }
            let key = parse_u64(&rest[0], "KEY");
            let value = rest[1].clone().into_bytes();
            let mut client = client_for(&addr, point_session);
            client.put(key, value).unwrap_or_else(|e| fail(e));
            println!("OK");
        }
        "del" => {
            let key = parse_u64(
                rest.first().map(String::as_str).unwrap_or_else(|| usage()),
                "KEY",
            );
            let mut client = client_for(&addr, point_session);
            let existed = client.delete(key).unwrap_or_else(|e| fail(e));
            println!("{}", if existed { "DELETED" } else { "NOT_FOUND" });
        }
        "rmw" => {
            if rest.len() < 2 {
                usage()
            }
            let key = parse_u64(&rest[0], "KEY");
            let delta = parse_u64(&rest[1], "DELTA");
            let mut client = client_for(&addr, point_session);
            let counter = client.rmw_add(key, delta).unwrap_or_else(|e| fail(e));
            println!("{counter}");
        }
        "migrate-start" => {
            if rest.len() < 3 {
                usage()
            }
            let from = parse_u64(&rest[0], "FROM") as u32;
            let to = parse_u64(&rest[1], "TO") as u32;
            let fraction: f64 = rest[2].parse().unwrap_or_else(|_| {
                eprintln!("FRACTION must be a float in [0, 1], got {:?}", rest[2]);
                usage()
            });
            let mut wait = true;
            let mut timeout = Duration::from_secs(60);
            let mut it = rest.into_iter().skip(3);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--no-wait" => wait = false,
                    "--timeout" => {
                        let secs = it.next().unwrap_or_else(|| {
                            eprintln!("missing value for --timeout");
                            usage()
                        });
                        timeout = Duration::from_secs(parse_u64(&secs, "--timeout"));
                    }
                    other => {
                        eprintln!("unknown migrate flag {other}");
                        usage()
                    }
                }
            }
            let mut ctrl = ctrl_for(&addr);
            let id = ctrl
                .migrate_fraction(from, to, fraction)
                .unwrap_or_else(|e| fail(e));
            println!("migration {id} started: {fraction} of server {from} -> server {to}");
            if wait {
                let state = ctrl
                    .wait_for_migration(id, timeout)
                    .unwrap_or_else(|e| fail(e));
                report_settled(id, &state);
            }
        }
        "migrate-wait" => {
            let id = parse_u64(
                rest.first().map(String::as_str).unwrap_or_else(|| usage()),
                "ID",
            );
            let mut timeout = Duration::from_secs(60);
            let mut it = rest.into_iter().skip(1);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--timeout" => {
                        let secs = it.next().unwrap_or_else(|| {
                            eprintln!("missing value for --timeout");
                            usage()
                        });
                        timeout = Duration::from_secs(parse_u64(&secs, "--timeout"));
                    }
                    other => {
                        eprintln!("unknown wait flag {other}");
                        usage()
                    }
                }
            }
            let mut ctrl = ctrl_for(&addr);
            let state = ctrl
                .wait_for_migration(id, timeout)
                .unwrap_or_else(|e| fail(e));
            report_settled(id, &state);
        }
        "migrate-cancel" => {
            let id = parse_u64(
                rest.first().map(String::as_str).unwrap_or_else(|| usage()),
                "ID",
            );
            let mut ctrl = ctrl_for(&addr);
            ctrl.cancel_migration(id).unwrap_or_else(|e| fail(e));
            println!("migration {id} cancelled: ownership rolled back to the source");
        }
        "migrate-status" => {
            let id = parse_u64(
                rest.first().map(String::as_str).unwrap_or_else(|| usage()),
                "ID",
            );
            let mut ctrl = ctrl_for(&addr);
            // An unknown migration id surfaces as a server error and exits 1
            // via `fail`; a known-but-cancelled migration gets its own
            // nonzero code so scripts can tell the outcomes apart.
            let state = ctrl.migration_status(id).unwrap_or_else(|e| fail(e));
            println!(
                "migration {id}: {} (source_complete={}, target_complete={})",
                if state.cancelled {
                    "cancelled"
                } else if state.complete {
                    "complete"
                } else {
                    "in flight"
                },
                state.source_complete,
                state.target_complete
            );
            if state.cancelled {
                std::process::exit(EXIT_CANCELLED);
            }
        }
        "tier-stats" => {
            // `TIER_READ`s of this process's log answered for peers, and
            // those it sent to the processes hosting other logs.
            let mut ctrl = ctrl_for(&addr);
            let peer = ctrl.metrics_ns("tier.peer.").unwrap_or_else(|e| fail(e));
            let count = |name: &str| peer.counter(&format!("tier.peer.{name}")).unwrap_or(0);
            println!(
                "peer reads served: {} ({} refused)",
                count("reads_served"),
                count("reads_refused")
            );
            println!("peer reads issued: {}", count("reads_issued"));
        }
        "tier-status" => {
            let mut ctrl = ctrl_for(&addr);
            let status = ctrl.tier_status().unwrap_or_else(|e| fail(e));
            println!(
                "appends: {} ({} rejected stale-lease)",
                status.appends, status.rejected_stale_lease
            );
            println!("reads: {}", status.reads);
            println!("logs: {}", status.logs.len());
            for log in &status.logs {
                println!(
                    "  log {}: {} bytes, lease {} (holder {})",
                    log.log, log.extent, log.lease, log.holder
                );
            }
        }
        "migrate-stats" => {
            // Summed over the per-server `sv<id>.migration.*` families.
            let mut ctrl = ctrl_for(&addr);
            let snap = ctrl.metrics_ns("sv").unwrap_or_else(|e| fail(e));
            let total = |name: &str| snap.counter_family(&format!(".migration.{name}"));
            println!("migrations cancelled: {}", total("cancelled"));
            println!("records rolled back: {}", total("records_rolled_back"));
            println!("heartbeats missed: {}", total("heartbeats_missed"));
        }
        "metrics" => {
            let mut json = false;
            let mut ns: Option<String> = None;
            let mut it = rest.into_iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => json = true,
                    "--ns" => {
                        ns = Some(it.next().unwrap_or_else(|| {
                            eprintln!("missing value for --ns");
                            usage()
                        }));
                    }
                    other => {
                        eprintln!("unknown metrics flag {other}");
                        usage()
                    }
                }
            }
            let mut ctrl = ctrl_for(&addr);
            let snap = match ns {
                Some(prefix) => ctrl.metrics_ns(&prefix).unwrap_or_else(|e| fail(e)),
                None => ctrl.metrics().unwrap_or_else(|e| fail(e)),
            };
            if json {
                println!("{}", snap.to_json());
            } else {
                print!("{}", snap.render_text());
            }
        }
        _ => usage(),
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 + bytes.len() * 2);
    out.push_str("0x");
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}
