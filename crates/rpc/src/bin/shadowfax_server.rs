//! `shadowfax-server`: hosts a Shadowfax cluster behind a real TCP socket.
//!
//! ```text
//! shadowfax-server [--listen ADDR] [--servers N] [--threads T]
//!                  [--io-threads I] [--layout SPEC] [--base-id B]
//!                  [--memory-pages P] [--sampling-ms MS]
//!                  [--metrics-log-secs S] [--coordinator auto|on|off]
//!                  [--tier ADDR] [--peer SPEC]...
//! ```
//!
//! Starts `N` logical Shadowfax servers (each with `T` dispatch threads over
//! a shared FASTER instance) and serves them over `ADDR`: every client data
//! connection is owned and served by the dispatch thread its HELLO names,
//! while `I` control I/O threads answer control frames, all speaking the
//! length-prefixed wire protocol.
//!
//! `--layout` assigns the initial ownership across the cluster's *global*
//! server ids (the local servers plus every `--peer`):
//!
//! * `scale-out` (default) — server 0 owns the whole hash space, everyone
//!   else idles as a scale-out target (move load with `shadowfax-cli
//!   migrate`),
//! * `partitioned` — the space is split evenly across all registered ids,
//! * an explicit assignment list, e.g.
//!   `0=0x0-0x8000000000000000,1=0x8000000000000000-0xffffffffffffffff`
//!   (multiple ranges per id joined with `+`).
//!
//! Multi-process clusters: give each process a distinct `--base-id`, pass
//! every process the **same** `--layout`, and register the servers hosted
//! by the other processes with repeated
//! `--peer id=1,addr=127.0.0.1:4871,threads=2` flags.  A peer's `owns=`
//! field defaults to `auto` (the layout assigns its ranges); `full`,
//! `none`, or an explicit `+`-joined range list
//! (`owns=0x0-0x7fff+0xc000-0xffff`) pin them instead.  Migrations to a
//! peer flow over dedicated TCP migration connections, and clients dial
//! peers directly for data traffic.
//!
//! `--coordinator` controls metadata replication across processes: `auto`
//! (default) runs the broker/coordinator loop whenever socket-addressed
//! peers are registered, `on` forces it, `off` disables it.  The process
//! hosting the lowest global server id acts as broker: it merges every
//! process's metadata replica, fans the result back out, and retries
//! cancellation relays to partitioned peers until their replicas
//! converge (watch `shadowfax-cli cluster status` and the `broker.*`
//! metrics namespace).
//!
//! `--tier` points the process at a `shadowfax-tier` blob tier daemon:
//! spill writes are mirrored there under a per-log lease and foreign logs'
//! chains — nested indirections included — are resolved against it
//! directly, with the peer chain-fetch path demoted to a fallback for tier
//! outages (watch the `tier.remote.*` metrics namespace and
//! `shadowfax-cli tier status`).  Without the flag, chain fetches go to
//! the owning peer as before.
//!
//! Malformed flag values and invalid layouts (overlaps, coverage gaps, id
//! collisions) print the offending detail plus this usage text and exit
//! with code 64 (`EX_USAGE`), distinct from runtime failures (1).
//!
//! Prints `LISTENING <addr>` once ready (scripts and tests parse this),
//! then serves until killed.

use std::sync::Arc;

use shadowfax::{parse_peer_spec, Cluster, ClusterConfig, ClusterLayout, PeerServer};
use shadowfax_rpc::{
    ControlPlane, Coordinator, CoordinatorConfig, RemoteSharedTier, RemoteTierService, RpcServer,
    RpcServerConfig, TcpMigrationConnector, TcpTransport,
};

/// When the metadata broker/coordinator loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoordinatorMode {
    /// Run it iff socket-addressed peers are registered (the default).
    Auto,
    /// Always run it (a solo coordinator answers `BROKER_STATUS` too).
    On,
    /// Never run it.
    Off,
}

/// Exit code for malformed flags or an invalid layout (`EX_USAGE`),
/// distinct from runtime failures (1).
const EXIT_USAGE: i32 = 64;

const USAGE: &str = "usage: shadowfax-server [--listen ADDR] [--servers N] [--threads T] \
     [--io-threads I] [--layout scale-out|partitioned|ID=RANGES,...] [--base-id B] \
     [--memory-pages P] [--sampling-ms MS] [--metrics-log-secs S] \
     [--coordinator auto|on|off] [--tier HOST:PORT] \
     [--peer id=I,addr=HOST:PORT[,threads=T][,owns=auto|full|none|RANGES]]...
RANGES is a +-joined list of hex ranges, e.g. 0x0-0x7fff+0xc000-0xffff";

struct Args {
    listen: String,
    servers: usize,
    threads: usize,
    io_threads: usize,
    layout: ClusterLayout,
    base_id: u32,
    memory_pages: Option<u64>,
    sampling_ms: Option<u64>,
    metrics_log_secs: u64,
    coordinator: CoordinatorMode,
    tier: Option<String>,
    peers: Vec<PeerServer>,
}

/// Reports a configuration error: the detail, then the usage text, then
/// exit [`EXIT_USAGE`].
fn bad_args(detail: &str) -> ! {
    eprintln!("shadowfax-server: {detail}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:4870".to_string(),
        servers: 2,
        threads: 2,
        io_threads: 2,
        layout: ClusterLayout::ScaleOut,
        base_id: 0,
        memory_pages: None,
        sampling_ms: None,
        metrics_log_secs: 30,
        coordinator: CoordinatorMode::Auto,
        tier: None,
        peers: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parse_num = |name: &str, v: String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{name} must be an unsigned integer, got {v:?}"))
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--servers" => args.servers = parse_num("--servers", value("--servers")?)? as usize,
            "--threads" => args.threads = parse_num("--threads", value("--threads")?)? as usize,
            "--io-threads" => {
                args.io_threads = parse_num("--io-threads", value("--io-threads")?)? as usize
            }
            "--layout" => {
                let spec = value("--layout")?;
                args.layout = ClusterLayout::from_spec(&spec).map_err(|e| e.to_string())?;
            }
            "--base-id" => {
                let v = parse_num("--base-id", value("--base-id")?)?;
                args.base_id = u32::try_from(v)
                    .map_err(|_| format!("--base-id must fit in 32 bits, got {v}"))?;
            }
            "--memory-pages" => {
                args.memory_pages = Some(parse_num("--memory-pages", value("--memory-pages")?)?)
            }
            // Migration sampling-phase duration; tests stretch it so a kill
            // or a cancellation lands deterministically mid-migration.
            "--sampling-ms" => {
                args.sampling_ms = Some(parse_num("--sampling-ms", value("--sampling-ms")?)?)
            }
            // Cadence of the METRICS_SNAPSHOT stderr log line; 0 disables.
            "--metrics-log-secs" => {
                args.metrics_log_secs =
                    parse_num("--metrics-log-secs", value("--metrics-log-secs")?)?
            }
            "--coordinator" => {
                args.coordinator = match value("--coordinator")?.as_str() {
                    "auto" => CoordinatorMode::Auto,
                    "on" => CoordinatorMode::On,
                    "off" => CoordinatorMode::Off,
                    other => {
                        return Err(format!("--coordinator must be auto|on|off, got {other:?}"))
                    }
                };
            }
            "--tier" => {
                let addr = value("--tier")?;
                if !addr.contains(':') {
                    return Err(format!("--tier must be HOST:PORT, got {addr:?}"));
                }
                args.tier = Some(addr);
            }
            "--peer" => {
                let spec = value("--peer")?;
                args.peers
                    .push(parse_peer_spec(&spec).map_err(|e| e.to_string())?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.servers == 0 || args.threads == 0 {
        return Err("--servers and --threads must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|detail| bad_args(&detail));

    // The serving path is built to hold tens of thousands of connections;
    // the default 1024-fd soft limit would undercut it immediately.
    let _ = shadowfax_net::raise_nofile_limit();

    let mut config = ClusterConfig::two_server_test();
    config.servers = args.servers;
    config.server_template.threads = args.threads;
    config.layout = args.layout;
    config.base_id = args.base_id;
    config.peers = args.peers.clone();
    if let Some(pages) = args.memory_pages {
        config.server_template.faster.log.memory_pages = pages;
        config.server_template.faster.log.mutable_pages = (pages / 2).max(1);
    }
    if let Some(ms) = args.sampling_ms {
        config.server_template.migration.sampling_duration = std::time::Duration::from_millis(ms);
    }

    // An invalid layout (overlap, gap, id collision) is a configuration
    // error, same as a malformed flag.
    let cluster = match Cluster::try_start(config) {
        Ok(cluster) => Arc::new(cluster),
        Err(e) => bad_args(&format!("invalid cluster layout: {e}")),
    };
    // Route outgoing migrations either onto the in-process fabric (peers in
    // this process) or over dedicated TCP migration connections (peers
    // registered with socket addresses).
    cluster.set_migration_connector(TcpMigrationConnector::new(
        Arc::clone(cluster.migration_network()),
        TcpTransport::default(),
    ));
    // Resolve indirection records whose chains live in peer processes.
    // With `--tier`, spill writes mirror to the shared blob tier daemon and
    // foreign chains are read straight from it (peer chain-fetch demoted to
    // the outage fallback); without it, chains are fetched from the owning
    // peer over TCP.  Local logs keep the in-memory read path either way.
    let remote_tier = args.tier.as_ref().map(|addr| {
        let tier = RemoteSharedTier::new(
            addr.clone(),
            Arc::clone(cluster.shared_tier()),
            Arc::clone(cluster.meta()),
            args.base_id as u64,
            cluster.metrics(),
        );
        cluster.shared_tier().set_sink(Arc::clone(&tier) as _);
        cluster.set_tier_service(Arc::clone(&tier) as _);
        tier
    });
    if remote_tier.is_none() {
        cluster.set_tier_service(Arc::new(RemoteTierService::new(
            Arc::clone(cluster.shared_tier()),
            Arc::clone(cluster.meta()),
        )));
    }
    // One coordinator candidate per peer *process*: socket-addressed peer
    // servers grouped by address, ranked by the lowest id the process
    // hosts (this process's rank is its base id).
    let mut peer_ranks: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
    for peer in &args.peers {
        if peer.address.contains(':') {
            let rank = peer_ranks.entry(peer.address.clone()).or_insert(peer.id.0);
            *rank = (*rank).min(peer.id.0);
        }
    }
    let run_coordinator = match args.coordinator {
        CoordinatorMode::On => true,
        CoordinatorMode::Off => false,
        CoordinatorMode::Auto => !peer_ranks.is_empty(),
    };
    let coordinator = run_coordinator.then(|| {
        let mut config = CoordinatorConfig::new(args.listen.clone(), args.base_id);
        config.peers = peer_ranks.into_iter().collect();
        Coordinator::spawn(Arc::clone(&cluster), config)
    });
    // BROKER_STATUS replies carry the coordinator's role and the tier
    // endpoint with its reachability, so `shadowfax-cli cluster status`
    // surfaces both; the coordinator also gates operator mutations.
    let rpc = RpcServer::serve(
        ControlPlane {
            cluster: Arc::clone(&cluster),
            coordinator,
            tier: remote_tier,
        },
        RpcServerConfig {
            listen: args.listen.clone(),
            io_threads: args.io_threads,
            ..RpcServerConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to bind {}: {e}", args.listen);
        std::process::exit(1);
    });

    // Scripts and the process-level integration test parse this line.
    println!("LISTENING {}", rpc.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "shadowfax-server: {} logical servers x {} dispatch threads, {} control i/o threads on {}",
        args.servers,
        args.threads,
        args.io_threads,
        rpc.local_addr()
    );
    // The resolved layout, one line per global id (local and peers alike).
    let snapshot = cluster.meta().snapshot();
    let mut ids: Vec<_> = snapshot.servers.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let meta = &snapshot.servers[&id];
        eprintln!(
            "layout: server {} ({}) owns {}",
            id.0,
            meta.address,
            shadowfax::format_ranges_spec(&meta.owned)
        );
    }

    // Serve until killed, periodically logging the full registry snapshot
    // so a crashed or killed process leaves its perf trajectory behind in
    // the log (one `METRICS_SNAPSHOT {json}` line per interval).
    let interval = if args.metrics_log_secs == 0 {
        std::time::Duration::from_secs(3600)
    } else {
        std::time::Duration::from_secs(args.metrics_log_secs)
    };
    loop {
        std::thread::sleep(interval);
        if args.metrics_log_secs > 0 {
            eprintln!(
                "METRICS_SNAPSHOT {}",
                cluster.metrics().snapshot().to_json()
            );
        }
    }
}
