//! Building and supervising the real `shadowfax-server` processes.
//!
//! Every child is pinned before it executes, dies with the harness, is
//! killed and reaped when its handle drops, and is watched while it runs:
//! a panicked or vanished dispatch thread leaves the socket accepting, so
//! the only way to notice is from outside.

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::sys;

/// Where the harness keeps logs, traces and result files.
pub const OUT_DIR: &str = "benchmark/out";

/// Builds the release `shadowfax-server` from the repository the harness
/// was started in and returns the binary's path and the build time.
pub fn build_server() -> Result<(PathBuf, f64), String> {
    if !Path::new("crates/rpc/Cargo.toml").exists() {
        return Err("run from the repository root (crates/rpc/Cargo.toml not found)".into());
    }
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "shadowfax-rpc", "--bin", "shadowfax-server"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of shadowfax-server failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release/shadowfax-server");
    if !bin.exists() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok((bin, started.elapsed().as_secs_f64()))
}

/// Binds and drops an ephemeral port so two processes can be told each
/// other's address before either starts.
pub fn free_port() -> Result<u16, String> {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("allocate a port: {e}"))
}

/// One running `shadowfax-server`.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    pub pid: u32,
    stderr_log: PathBuf,
    /// `sv*-t*` threads seen when the process became ready.
    dispatch_threads: usize,
}

fn dispatch_thread_count(pid: u32) -> usize {
    sys::tasks(pid)
        .iter()
        .filter(|t| is_dispatch_thread(&t.name))
        .count()
}

/// Dispatch threads are named `sv<id>-t<n>` by `crates/core`.
pub fn is_dispatch_thread(name: &str) -> bool {
    name.starts_with("sv") && name.contains("-t")
}

/// I/O threads are named `shadowfax-rpc-io-<n>` (the kernel keeps 15 bytes).
pub fn is_io_thread(name: &str) -> bool {
    name.starts_with("shadowfax-rpc-i")
}

impl ServerProc {
    /// Spawns `bin args...` pinned to `cpus`, logging to
    /// `benchmark/out/<tag>.{out,err}`, and waits for `LISTENING <addr>`.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        cpus: &[usize],
        tag: &str,
        ready_timeout: Duration,
    ) -> Result<ServerProc, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let out_path = Path::new(OUT_DIR).join(format!("{tag}.out"));
        let err_path = Path::new(OUT_DIR).join(format!("{tag}.err"));
        let open = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        let cpus = cpus.to_vec();
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(open(&out_path)?)
            .stderr(open(&err_path)?);
        // SAFETY: the closure runs between fork and exec and makes two
        // syscalls (prctl, sched_setaffinity) on data it owns; it takes no
        // lock and allocates nothing.
        unsafe {
            cmd.pre_exec(move || {
                sys::die_with_parent(sys::SIGKILL);
                sys::pin_current_thread(&cpus)
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            pid: child.id(),
            child,
            addr: String::new(),
            stderr_log: err_path,
            dispatch_threads: 0,
        };
        let deadline = Instant::now() + ready_timeout;
        loop {
            let banner = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = banner
                .lines()
                .find_map(|l| l.strip_prefix("LISTENING "))
                .filter(|_| banner.ends_with('\n'))
            {
                server.addr = addr.trim().to_string();
                break;
            }
            server.check_alive()?;
            if Instant::now() >= deadline {
                return Err(format!(
                    "server {tag} printed no LISTENING line within {ready_timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.dispatch_threads = dispatch_thread_count(server.pid);
        if server.dispatch_threads == 0 {
            return Err(format!("server {tag} has no sv*-t* dispatch thread"));
        }
        Ok(server)
    }

    fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server pid {} exited: {status}", self.pid)),
            Err(e) => Err(format!("server pid {}: {e}", self.pid)),
        }
    }

    /// What the server itself logged about `what`, for a failure's reason.
    pub fn logged(&self, what: &str) -> Vec<String> {
        let log = std::fs::read_to_string(&self.stderr_log).unwrap_or_default();
        log.lines()
            .filter(|l| l.contains(what))
            .map(|l| format!("pid {}: {}", self.pid, l.trim()))
            .collect()
    }

    /// `Err(reason)` if the process exited, logged a panic, or lost a
    /// dispatch thread.
    pub fn health(&mut self) -> Result<(), String> {
        self.check_alive()?;
        let log = std::fs::read_to_string(&self.stderr_log).unwrap_or_default();
        if let Some(line) = log.lines().find(|l| l.contains("panicked")) {
            let detail = log
                .lines()
                .skip_while(|l| !l.contains("panicked"))
                .nth(1)
                .unwrap_or("");
            return Err(format!(
                "server pid {} panicked: {} {}",
                self.pid,
                line.trim(),
                detail.trim()
            ));
        }
        let now = dispatch_thread_count(self.pid);
        if now < self.dispatch_threads {
            return Err(format!(
                "server pid {}: {} of {} dispatch threads vanished",
                self.pid,
                self.dispatch_threads - now,
                self.dispatch_threads
            ));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
