//! Shared process-lifecycle harness for the multi-process integration
//! tests.
//!
//! Three layers:
//!
//! * [`ServerSpawn`] — one `shadowfax-server` process, which hosts one
//!   server: builds the command line, spawns, parses the `LISTENING`
//!   banner, and kills the process on drop (which is what the CI
//!   leaked-process assert relies on).
//! * [`TierSpawn`] — one `shadowfax-tier` blob tier daemon, same banner
//!   protocol and kill-on-drop discipline.
//! * [`ClusterSpec`] / [`ProcessCluster`] — an N-process cluster with a
//!   declared [`ClusterLayout`](`--layout`) spec: allocates one port per
//!   process, gives process `i` server id `i`, registers every process as a
//!   `--peer` of all the others, optionally spawns a shared tier daemon and points every
//!   process at it with `--tier`, spawns them in order, waits for every
//!   readiness banner, and captures each process's stderr to its own log
//!   file under `target/test-logs/`.
//!
//! One copy — fixes to spawn/kill ordering and peer wiring apply to every
//! test.

#![allow(dead_code)]

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// `target/test-logs`, next to the test binary's target directory; server
/// stderr goes here so CI can attach it to failed runs.
pub fn log_dir() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    // .../target/<profile>/deps/<bin> -> .../target
    dir.pop();
    dir.pop();
    dir.pop();
    dir.push("test-logs");
    std::fs::create_dir_all(&dir).expect("create test-logs dir");
    dir
}

/// Binds and drops an ephemeral port so a server can be given a port number
/// other processes know in advance.
pub fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    listener.local_addr().unwrap().port()
}

/// Options for one `shadowfax-server` process.
pub struct ServerSpawn {
    /// Log file suffix under `target/test-logs`; empty discards stderr.
    pub log_name: String,
    /// Port to listen on (0 picks an ephemeral one).
    pub listen_port: u16,
    /// `--threads`.
    pub threads: usize,
    /// `--io-threads` (`None` keeps the server's default).
    pub io_threads: Option<usize>,
    /// `--base-id`: the id of the process's one server.
    pub base_id: u32,
    /// `--layout` spec (`None` keeps the server's scale-out default).
    pub layout: Option<String>,
    /// `--memory-pages`, when a test needs the log to spill.
    pub memory_pages: Option<u64>,
    /// `--sampling-ms`, when a test needs the migration to stay in its
    /// sampling phase long enough to interfere with it deterministically.
    pub sampling_ms: Option<u64>,
    /// `--tier` address of a shared blob tier daemon.
    pub tier: Option<String>,
    /// `--peer` specs registering the other processes.
    pub peers: Vec<String>,
}

impl Default for ServerSpawn {
    fn default() -> Self {
        ServerSpawn {
            log_name: String::new(),
            listen_port: 0,
            threads: 2,
            io_threads: None,
            base_id: 0,
            layout: None,
            memory_pages: None,
            sampling_ms: None,
            tier: None,
            peers: Vec::new(),
        }
    }
}

impl ServerSpawn {
    /// Spawns the server and waits for its `LISTENING <addr>` banner.
    pub fn spawn(self) -> ServerProcess {
        let stderr = if self.log_name.is_empty() {
            Stdio::null()
        } else {
            Stdio::from(
                File::create(log_dir().join(format!("{}.log", self.log_name)))
                    .expect("create server log file"),
            )
        };
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_shadowfax-server"));
        cmd.args([
            "--listen",
            &format!("127.0.0.1:{}", self.listen_port),
            "--threads",
            &self.threads.to_string(),
            "--base-id",
            &self.base_id.to_string(),
        ]);
        if let Some(io) = self.io_threads {
            cmd.args(["--io-threads", &io.to_string()]);
        }
        if let Some(layout) = &self.layout {
            cmd.args(["--layout", layout]);
        }
        if let Some(pages) = self.memory_pages {
            cmd.args(["--memory-pages", &pages.to_string()]);
        }
        if let Some(ms) = self.sampling_ms {
            cmd.args(["--sampling-ms", &ms.to_string()]);
        }
        if let Some(tier) = &self.tier {
            cmd.args(["--tier", tier]);
        }
        for peer in &self.peers {
            cmd.args(["--peer", peer]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn shadowfax-server");
        let stdout = child.stdout.take().expect("server stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        let addr = first
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected server banner: {first:?}"))
            .to_string();
        ServerProcess { child, addr }
    }
}

/// A running `shadowfax-server` process, killed (and reaped) on drop.
pub struct ServerProcess {
    child: Child,
    /// The socket address the server announced.
    pub addr: String,
}

impl ServerProcess {
    /// The process id (the connscale bench reads its per-thread CPU
    /// accounting out of `/proc/<pid>/task`).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process now (used by tests that need a dead peer).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Options for one `shadowfax-tier` blob tier daemon.
#[derive(Default)]
pub struct TierSpawn {
    /// Log file suffix under `target/test-logs`; empty discards stderr.
    pub log_name: String,
    /// Port to listen on (0 picks an ephemeral one).
    pub listen_port: u16,
}

impl TierSpawn {
    /// Spawns the tier daemon and waits for its `LISTENING <addr>` banner.
    pub fn spawn(self) -> TierProcess {
        let stderr = if self.log_name.is_empty() {
            Stdio::null()
        } else {
            Stdio::from(
                File::create(log_dir().join(format!("{}.log", self.log_name)))
                    .expect("create tier log file"),
            )
        };
        let mut child = Command::new(env!("CARGO_BIN_EXE_shadowfax-tier"))
            .args(["--listen", &format!("127.0.0.1:{}", self.listen_port)])
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn shadowfax-tier");
        let stdout = child.stdout.take().expect("tier stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("tier daemon exited before announcing its address")
            .expect("read tier stdout");
        let addr = first
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected tier banner: {first:?}"))
            .to_string();
        TierProcess { child, addr }
    }
}

/// A running `shadowfax-tier` daemon, killed (and reaped) on drop.
pub struct TierProcess {
    child: Child,
    /// The socket address the daemon announced.
    pub addr: String,
}

impl TierProcess {
    /// Kills the daemon now (tier-outage scenarios).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for TierProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One process of a declarative [`ClusterSpec`]; process `i` hosts server
/// `i`.
pub struct ProcessSpec {
    /// `--threads`.
    pub threads: usize,
    /// `--memory-pages` override.
    pub memory_pages: Option<u64>,
    /// `--sampling-ms` override.
    pub sampling_ms: Option<u64>,
}

impl Default for ProcessSpec {
    fn default() -> Self {
        ProcessSpec {
            threads: 2,
            memory_pages: None,
            sampling_ms: None,
        }
    }
}

/// A declarative N-process cluster: every process gets the same `--layout`
/// and a `--peer` registration for every other process, so each process's
/// metadata store resolves the identical ownership map.
pub struct ClusterSpec {
    /// Log-file prefix; process `i` logs to `target/test-logs/{name}_p{i}.log`.
    pub name: &'static str,
    /// The `--layout` spec passed to every process
    /// (`"scale-out"`, `"partitioned"`, or an explicit assignment list).
    pub layout: &'static str,
    /// The processes, in server-id order.
    pub processes: Vec<ProcessSpec>,
    /// Spawn a `shadowfax-tier` daemon and point every process at it with
    /// `--tier` (the shared blob tier path; off reads foreign logs from
    /// their owners).
    pub tier: bool,
}

impl ClusterSpec {
    /// A spec with `n` default processes.
    pub fn n_processes(name: &'static str, layout: &'static str, n: usize) -> Self {
        ClusterSpec {
            name,
            layout,
            processes: (0..n).map(|_| ProcessSpec::default()).collect(),
            tier: false,
        }
    }

    /// Spawns every process (and the tier daemon, when asked for) and
    /// waits for all readiness banners.
    pub fn spawn(self) -> ProcessCluster {
        assert!(!self.processes.is_empty(), "a cluster needs processes");
        let tier = self.tier.then(|| {
            TierSpawn {
                log_name: format!("{}_tier", self.name),
                listen_port: 0,
            }
            .spawn()
        });
        let ports: Vec<u16> = self.processes.iter().map(|_| free_port()).collect();
        let mut procs = Vec::with_capacity(self.processes.len());
        for (i, p) in self.processes.iter().enumerate() {
            // Every *other* process is a peer.
            let peers = self
                .processes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, other)| {
                    format!(
                        "id={j},addr=127.0.0.1:{},threads={}",
                        ports[j], other.threads
                    )
                })
                .collect();
            procs.push(
                ServerSpawn {
                    log_name: format!("{}_p{i}", self.name),
                    listen_port: ports[i],
                    threads: p.threads,
                    io_threads: None,
                    base_id: i as u32,
                    layout: Some(self.layout.to_string()),
                    memory_pages: p.memory_pages,
                    sampling_ms: p.sampling_ms,
                    tier: tier.as_ref().map(|t| t.addr.clone()),
                    peers,
                }
                .spawn(),
            );
        }
        ProcessCluster { procs, tier }
    }
}

/// A running N-process cluster: process `i` hosts server `i`.  Every
/// process is killed on drop.
pub struct ProcessCluster {
    procs: Vec<ServerProcess>,
    tier: Option<TierProcess>,
}

impl ProcessCluster {
    /// The socket address process `i` announced.
    pub fn addr(&self, i: usize) -> &str {
        &self.procs[i].addr
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Kills process `i` now (dead-peer scenarios); the remaining
    /// processes keep running.
    pub fn kill(&mut self, i: usize) {
        self.procs[i].kill();
    }

    /// The shared tier daemon's address, when the spec asked for one.
    pub fn tier_addr(&self) -> Option<&str> {
        self.tier.as_ref().map(|t| t.addr.as_str())
    }

    /// Kills the tier daemon now (tier-outage scenarios); the serving
    /// processes keep running and read foreign logs from their owners.
    pub fn kill_tier(&mut self) {
        if let Some(tier) = &mut self.tier {
            tier.kill();
        }
    }
}
