//! `shadowfax-server`: hosts one Shadowfax server behind a real TCP socket.
//!
//! ```text
//! shadowfax-server [--listen ADDR] [--servers 1] [--threads T]
//!                  [--io-threads I] [--layout SPEC] [--base-id ID]
//!                  [--memory-pages P] [--sampling-ms MS]
//!                  [--metrics-log-secs S] [--tier ADDR] [--peer SPEC]...
//! ```
//!
//! One process is one server, as one VM is in the paper: the server with id
//! `ID` (`--base-id`, default 0) runs `T` dispatch threads over one FASTER
//! instance and is served over `ADDR`: every client data connection is
//! owned and served by the dispatch thread its HELLO names, while `I`
//! control I/O threads answer control frames, all speaking the
//! length-prefixed wire protocol.  `--servers` is accepted for
//! compatibility and must be 1; a cluster grows by starting more processes.
//!
//! Every other process of the cluster is a `--peer
//! id=1,addr=127.0.0.1:4871,threads=2` (a key given twice, or two peers at
//! one address, is a usage error).  Clients dial peers directly for data
//! traffic, and migrations to a peer flow over dedicated TCP migration
//! connections.
//!
//! `--layout` assigns the initial ownership across the cluster's server ids
//! (this process's and every peer's); give every process the **same**
//! `--layout`:
//!
//! * `scale-out` (default) — server 0 owns the whole hash space, everyone
//!   else idles as a scale-out target (move load with `shadowfax-cli
//!   migrate`); with no peers, this server owns everything,
//! * `partitioned` — the space is split evenly across all ids,
//! * an explicit assignment list, e.g.
//!   `0=0x0-0x8000000000000000,1=0x8000000000000000-0xffffffffffffffff`
//!   (multiple ranges per id joined with `+`; `none` marks an id idle).
//!
//! With peers, the process runs the metadata broker/coordinator loop.  The
//! live process with the lowest server id acts as broker: it merges every
//! process's metadata replica, fans the result back out, and retries
//! cancellation relays to partitioned peers until their replicas converge
//! (watch `shadowfax-cli cluster status` and the `broker.*` metrics
//! namespace).
//!
//! `--tier` points the process at a `shadowfax-tier` blob tier daemon:
//! spill writes are mirrored there under a per-log lease, and a foreign
//! log's chains (nested indirections included) are read off it, or from
//! the process hosting the log while the daemon cannot serve it (watch the
//! `tier.remote.*` and `tier.peer.*` metrics namespaces and
//! `shadowfax-cli tier status`).  Without the flag, foreign logs are read
//! from the processes hosting them.  Either way the process answers
//! `TIER_READ` for the log it hosts.
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
    RpcServerConfig, TcpTransport,
};

/// Exit code for malformed flags or an invalid layout (`EX_USAGE`),
/// distinct from runtime failures (1).
const EXIT_USAGE: i32 = 64;

const USAGE: &str = "usage: shadowfax-server [--listen ADDR] [--servers 1] [--threads T] \
     [--io-threads I] [--layout scale-out|partitioned|ID=RANGES,...] [--base-id ID] \
     [--memory-pages P] [--sampling-ms MS] [--metrics-log-secs S] [--tier HOST:PORT] \
     [--peer id=I,addr=HOST:PORT[,threads=T]]...
One process hosts one server: --base-id is its id, and each --peer is another process.
RANGES is a +-joined list of hex ranges, e.g. 0x0-0x7fff+0xc000-0xffff";

struct Args {
    listen: String,
    threads: usize,
    io_threads: usize,
    layout: ClusterLayout,
    /// The id of the one server this process hosts.
    base_id: u32,
    memory_pages: Option<u64>,
    sampling_ms: Option<u64>,
    metrics_log_secs: u64,
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
        threads: 2,
        io_threads: 2,
        layout: ClusterLayout::ScaleOut,
        base_id: 0,
        memory_pages: None,
        sampling_ms: None,
        metrics_log_secs: 30,
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
            "--servers" => {
                let n = parse_num("--servers", value("--servers")?)?;
                if n != 1 {
                    return Err(format!(
                        "--servers must be 1, got {n}: one process hosts one server \
                         (start one process per server and name the others with --peer)"
                    ));
                }
            }
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
            "--tier" => {
                let addr = value("--tier")?;
                if !addr.contains(':') {
                    return Err(format!("--tier must be HOST:PORT, got {addr:?}"));
                }
                args.tier = Some(addr);
            }
            "--peer" => {
                let peer = parse_peer_spec(&value("--peer")?).map_err(|e| e.to_string())?;
                // One process hosts one server: two peers at one address
                // would be two servers in one process.
                if args.peers.iter().any(|p| p.address == peer.address) {
                    return Err(format!(
                        "--peer addr {} named twice: one process hosts one server",
                        peer.address
                    ));
                }
                args.peers.push(peer);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|detail| bad_args(&detail));

    // The serving path is built to hold tens of thousands of connections;
    // the default 1024-fd soft limit would undercut it immediately.
    let _ = shadowfax_net::raise_nofile_limit();

    let mut config = ClusterConfig::two_server_test();
    config.servers = 1;
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
    // Every migration target is a peer process: dial it over a dedicated
    // TCP migration connection.
    cluster.set_migration_connector(Arc::new(TcpTransport::default()));
    // Read the chains of logs that peer processes host.  With `--tier`,
    // spill writes mirror to the shared blob tier daemon and foreign logs
    // are read off it, or from their owners while it cannot serve them;
    // without it, from their owners over TCP.  The local log keeps the
    // in-memory read path either way.
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
            args.base_id as u64,
            cluster.metrics(),
        )));
    }
    // With peers, replicate metadata: every peer is one process, ranked
    // for election by its server id (this process's rank is its own id).
    let coordinator = (!args.peers.is_empty()).then(|| {
        let mut config = CoordinatorConfig::new(args.listen.clone(), args.base_id);
        config.peers = args
            .peers
            .iter()
            .map(|p| (p.address.clone(), p.id.0))
            .collect();
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
        "shadowfax-server: server {} x {} dispatch threads, {} control i/o threads on {}",
        args.base_id,
        args.threads,
        args.io_threads,
        rpc.local_addr()
    );
    // The resolved layout, one line per server id (this one and peers alike).
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
