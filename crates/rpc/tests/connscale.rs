//! Connection-scaling bench: the proof behind the parked serving path.
//!
//! Two phases:
//!
//! 1. **Idle scaling** — `CONNSCALE_IDLE` (default 10 000) connections are
//!    opened, each bound by its HELLO to a dispatch thread, and left
//!    quiet.  The *whole server process* — every thread, summed from
//!    `/proc/<pid>/stat` — must use under 2% of one core over a quiet
//!    window: the sockets sit in their dispatch threads' epoll interest
//!    lists, the dispatch threads are parked in `epoll_wait`, nobody scans
//!    or spins.
//! 2. **Active load** — 64 concurrent client threads run a pipelined
//!    workload; the aggregate ops/s is reported.
//!
//! Prints a `CONNSCALE ...` line the CI job publishes in its summary.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax_net::{KvRequest, SessionConfig};
use shadowfax_rpc::{encode_frame, WireMsg};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig};

mod util;
use util::{ServerProcess, ServerSpawn};

/// Environment override for the idle-connection count; CI's smoke run
/// sets it to 1000, the full bench default is 10 000.
const IDLE_ENV: &str = "CONNSCALE_IDLE";

/// Active-phase client threads (one connection-set each).
const ACTIVE_CLIENTS: usize = 64;

/// Operations each active client issues.
const OPS_PER_CLIENT: u64 = 6_000;

/// Dispatch threads of the server under test; parked connections are
/// bound to them round-robin.
const DISPATCH_THREADS: usize = 2;

fn idle_target() -> usize {
    std::env::var(IDLE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// utime+stime clock ticks of the whole server process: every thread it
/// has, the dispatch threads included.
fn process_ticks(pid: u32) -> u64 {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command field may contain spaces; fields are counted after its
    // closing parenthesis: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime ...
    let close = stat.rfind(')').expect("stat line has a command field");
    let fields: Vec<&str> = stat[close + 2..].split(' ').collect();
    let ticks = |i: usize| -> u64 { fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0) };
    ticks(11) + ticks(12)
}

/// CPU% (of one core) the server process used over a quiet window of
/// `window` (USER_HZ is 100 on Linux; 1 tick = 10ms).
fn measure_idle_cpu_pct(pid: u32, window: Duration) -> f64 {
    let before = process_ticks(pid);
    std::thread::sleep(window);
    let after = process_ticks(pid);
    ((after - before) as f64 * 0.01) / window.as_secs_f64() * 100.0
}

/// Opens `n` connections, binds each to a dispatch thread with a HELLO,
/// and parks them (the streams are the return value; dropping them closes
/// the set).
fn park_connections(addr: &str, n: usize) -> Vec<TcpStream> {
    let mut conns = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(120);
    while conns.len() < n {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                let hello = WireMsg::Hello {
                    fabric_addr: format!("sv0/t{}", conns.len() % DISPATCH_THREADS),
                };
                stream.write_all(&encode_frame(&hello)).expect("send HELLO");
                conns.push(stream);
            }
            Err(e) => {
                // Backlog pressure during the connect storm; give the
                // acceptor a beat and retry.
                assert!(
                    Instant::now() < deadline,
                    "connect storm stalled at {}/{n}: {e}",
                    conns.len()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    conns
}

fn spawn_server(name: &str) -> ServerProcess {
    ServerSpawn {
        log_name: format!("connscale_{name}"),
        threads: DISPATCH_THREADS,
        io_threads: Some(2),
        ..ServerSpawn::default()
    }
    .spawn()
}

/// Aggregate ops/s of `ACTIVE_CLIENTS` concurrent pipelined clients.
fn active_load_ops_per_sec(addr: &str) -> f64 {
    let completed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut threads = Vec::new();
    for c in 0..ACTIVE_CLIENTS {
        let addr = addr.to_string();
        let completed = Arc::clone(&completed);
        threads.push(std::thread::spawn(move || {
            let mut config = RemoteClientConfig::new(addr);
            config.session = SessionConfig {
                max_batch_ops: 32,
                max_inflight_batches: 4,
                ..SessionConfig::default()
            };
            config.timeout = Duration::from_secs(30);
            let mut client = RemoteClient::connect(config).expect("connect active client");
            let value = vec![0x42u8; 128];
            for i in 0..OPS_PER_CLIENT {
                let key = (c as u64) << 32 | (i % 512);
                let req = if i % 2 == 0 {
                    KvRequest::Read { key }
                } else {
                    KvRequest::Upsert {
                        key,
                        value: value.clone(),
                    }
                };
                let completed = Arc::clone(&completed);
                client.issue(
                    req,
                    Box::new(move |_| {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                if i % 256 == 255 {
                    client.flush();
                    client.poll().expect("client poll");
                }
            }
            assert!(
                client.drain(Duration::from_secs(60)).expect("drain"),
                "active client {c} did not drain"
            );
        }));
    }
    for t in threads {
        t.join().expect("active client thread");
    }
    let elapsed = start.elapsed();
    completed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
}

#[test]
fn idle_connections_are_free_and_active_throughput_holds() {
    // The test process holds the client side of every parked connection.
    let _ = shadowfax_net::raise_nofile_limit();
    let idle = idle_target();

    // ---- Phase 1: idle scaling ----
    let idle_srv = spawn_server("idle");
    let parked = park_connections(&idle_srv.addr, idle);
    let mut ctrl =
        CtrlClient::connect(&idle_srv.addr, Duration::from_secs(10)).expect("ctrl connect");
    // Every parked connection is accepted before the quiet window (the
    // hand-off to its dispatch thread follows within the same pass).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = ctrl.metrics_ns("rpc.conns").expect("conn metrics");
        let open = snap.gauge("rpc.conns.open").unwrap_or(0);
        if open >= idle as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open}/{idle} connections registered"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // No traffic at all during the measurement window (the ctrl
    // connection stays parked like the rest).
    std::thread::sleep(Duration::from_millis(300));
    let idle_cpu = measure_idle_cpu_pct(idle_srv.pid(), Duration::from_secs(2));

    let snap_idle = ctrl.metrics().expect("idle snapshot");
    assert!(
        snap_idle.gauge("rpc.conns.open").unwrap_or(0) >= idle as u64,
        "parked connections disappeared during the window"
    );
    let parks = snap_idle.counter("sv0.dispatch.parks").unwrap_or(0);
    drop(ctrl);
    drop(parked);
    drop(idle_srv);

    // The headline claim: idle connections, and the idle dispatch threads
    // that own them, cost (nearly) nothing.  The typical reading is 0.0.
    assert!(
        idle_cpu < 2.0,
        "the server process burned {idle_cpu:.2}% of a core with {idle} idle connections"
    );
    assert!(parks > 0, "no dispatch thread ever parked");

    // ---- Phase 2: active load at 64 connections ----
    let active_srv = spawn_server("active");
    let active_ops = active_load_ops_per_sec(&active_srv.addr);
    let mut ctrl =
        CtrlClient::connect(&active_srv.addr, Duration::from_secs(10)).expect("ctrl connect");
    let snap_active = ctrl.metrics().expect("active snapshot");
    assert!(
        snap_active.counter("rpc.conns.accepted").unwrap_or(0) >= ACTIVE_CLIENTS as u64,
        "the active run accepted fewer connections than clients"
    );
    drop(ctrl);
    drop(active_srv);

    // ---- Report ----
    println!(
        "CONNSCALE idle_conns={idle} idle_cpu_pct={idle_cpu:.2} \
         active_clients={ACTIVE_CLIENTS} active_ops_per_sec={active_ops:.0}"
    );
    let _ = std::io::stdout().flush();
}
