//! The `shadowfax-tier` daemon: the cluster's one genuinely shared blob
//! tier, served over the length-prefixed wire codec.
//!
//! The paper's architecture (§3.3.2) assumes a shared remote tier any
//! server can read spilled chains from directly.  Without this daemon each
//! process holds only its own [`SharedBlobTier`] log, so a foreign log can
//! be read only from the process hosting it, and only while that process
//! is up.  The daemon makes the tier real: every serving process mirrors
//! its spill writes here ([`WireMsg::TierAppend`]), and any process reads
//! any log back ([`WireMsg::TierRead`]), even one whose owner is gone.
//! Both answer a `TIER_READ` with the one handler of this module,
//! `serve_tier_read`.
//!
//! Writes are guarded by per-log *leases* ([`WireMsg::TierLease`]): one
//! writer per log at a time, the invariant the log-structured spill format
//! already assumes.  A lease is granted (or taken over) to whoever asks —
//! ownership policy lives with the metadata broker, not here — but every
//! grant bumps the lease id, so a superseded writer's appends are refused
//! with [`StatusCode::StaleView`] instead of silently interleaving.
//!
//! The daemon is deliberately dumb: no replication, no ownership map, no
//! record parsing.  It stores bytes, enforces leases, reports per-log
//! extents ([`WireMsg::GetTierStatus`]), and answers the standard metrics
//! frames from its own registry (`tierd.*`, plus the `rpc.conns.*`
//! accounting of the loop it is served by).  This module holds only that
//! state and its frame handler; sockets, readiness, fairness bounds and
//! the slow-reader drop are the shared control I/O loop's
//! ([`crate::io_loop`]).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shadowfax::wire::{WireMsg, WireTierLog, WireTierStatus, MAX_FRAME_BYTES};
use shadowfax_net::StatusCode;
use shadowfax_obs::MetricsRegistry;
use shadowfax_storage::{LogId, SharedBlobTier};

use crate::io_loop::{IoLoops, Served};

/// Hard cap on one [`WireMsg::TierRead`]'s length: well under
/// [`MAX_FRAME_BYTES`] so a reply frame can never exceed the codec limit.
pub const MAX_TIER_READ_BYTES: u32 = 4 * 1024 * 1024;

/// Answers one [`WireMsg::TierRead`] out of `tier`: the
/// [`WireMsg::TierData`] reply, or the status and message it is refused
/// with.  A read longer than [`MAX_TIER_READ_BYTES`], of a log `tier` does
/// not hold, or past the log's written extent is refused with
/// [`StatusCode::OutOfRange`].  The tier daemon answers every log with it,
/// and a serving process the logs it hosts.
pub(crate) fn serve_tier_read(
    tier: &SharedBlobTier,
    log: u64,
    offset: u64,
    len: u32,
) -> Result<WireMsg, (StatusCode, String)> {
    if len > MAX_TIER_READ_BYTES {
        return Err((
            StatusCode::OutOfRange,
            format!("read of {len} bytes exceeds the {MAX_TIER_READ_BYTES}-byte cap"),
        ));
    }
    let Ok(extent) = tier.written_extent_of(LogId(log)) else {
        return Err((StatusCode::OutOfRange, format!("unknown tier log {log}")));
    };
    if offset.saturating_add(len as u64) > extent {
        return Err((
            StatusCode::OutOfRange,
            format!("read [{offset}, +{len}) beyond log {log}'s written extent {extent}"),
        ));
    }
    let mut data = vec![0u8; len as usize];
    match tier.read_log(LogId(log), offset, &mut data) {
        Ok(()) => Ok(WireMsg::TierData { log, offset, data }),
        Err(e) => Err((
            StatusCode::ControlFailed,
            format!("read of log {log} at {offset} failed: {e}"),
        )),
    }
}

/// Tuning for a [`TierDaemon`].
#[derive(Debug, Clone)]
pub struct TierDaemonConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Capacity of each hosted log in bytes.
    pub per_log_capacity: u64,
}

impl Default for TierDaemonConfig {
    fn default() -> Self {
        TierDaemonConfig {
            listen: "127.0.0.1:0".into(),
            per_log_capacity: 1 << 30,
        }
    }
}

struct LeaseEntry {
    lease: u64,
    holder: u64,
}

/// What the daemon serves frames from.
struct TierState {
    tier: Arc<SharedBlobTier>,
    leases: Mutex<HashMap<u64, LeaseEntry>>,
    next_lease: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    appends: shadowfax_obs::Counter,
    append_bytes: shadowfax_obs::Counter,
    reads: shadowfax_obs::Counter,
    read_bytes: shadowfax_obs::Counter,
    lease_grants: shadowfax_obs::Counter,
    rejected_stale_lease: shadowfax_obs::Counter,
    rejected_out_of_range: shadowfax_obs::Counter,
}

impl TierState {
    fn new(per_log_capacity: u64) -> Arc<Self> {
        let metrics = Arc::new(MetricsRegistry::new());
        Arc::new(TierState {
            tier: SharedBlobTier::new(per_log_capacity),
            leases: Mutex::new(HashMap::new()),
            next_lease: AtomicU64::new(0),
            appends: metrics.counter("tierd.appends"),
            append_bytes: metrics.counter("tierd.append_bytes"),
            reads: metrics.counter("tierd.reads"),
            read_bytes: metrics.counter("tierd.read_bytes"),
            lease_grants: metrics.counter("tierd.lease_grants"),
            rejected_stale_lease: metrics.counter("tierd.rejected_stale_lease"),
            rejected_out_of_range: metrics.counter("tierd.rejected_out_of_range"),
            metrics,
        })
    }

    fn grant_lease(&self, log: u64, holder: u64) -> u64 {
        // Create the log eagerly so `tier status` lists it (and reads of a
        // leased-but-never-written log answer OutOfRange, not UnknownLog).
        self.tier.handle(LogId(log));
        let lease = self.next_lease.fetch_add(1, Ordering::SeqCst) + 1;
        self.leases
            .lock()
            .expect("tier leases")
            .insert(log, LeaseEntry { lease, holder });
        self.lease_grants.inc();
        lease
    }

    fn answer(&self, msg: WireMsg) -> WireMsg {
        match msg {
            WireMsg::TierLease { log, holder } => WireMsg::CtrlOk {
                value: self.grant_lease(log, holder),
            },
            WireMsg::TierAppend {
                log,
                lease,
                offset,
                data,
            } => {
                let current = {
                    let leases = self.leases.lock().expect("tier leases");
                    leases.get(&log).map(|e| e.lease)
                };
                if current != Some(lease) {
                    self.rejected_stale_lease.inc();
                    return WireMsg::CtrlErr {
                        status: StatusCode::StaleView,
                        message: format!(
                            "lease {lease} on log {log} superseded (current {})",
                            current.unwrap_or(0)
                        ),
                    };
                }
                match self.tier.write_log(LogId(log), offset, &data) {
                    Ok(()) => {
                        self.appends.inc();
                        self.append_bytes.add(data.len() as u64);
                        WireMsg::CtrlOk {
                            value: self.tier.written_extent_of(LogId(log)).unwrap_or(0),
                        }
                    }
                    Err(e) => WireMsg::CtrlErr {
                        status: StatusCode::ControlFailed,
                        message: format!("append to log {log} at {offset} failed: {e}"),
                    },
                }
            }
            WireMsg::TierRead { log, offset, len } => {
                match serve_tier_read(&self.tier, log, offset, len) {
                    Ok(data) => {
                        self.reads.inc();
                        self.read_bytes.add(len as u64);
                        data
                    }
                    Err((status, message)) => {
                        if status == StatusCode::OutOfRange {
                            self.rejected_out_of_range.inc();
                        }
                        WireMsg::CtrlErr { status, message }
                    }
                }
            }
            WireMsg::GetTierStatus => {
                let leases = self.leases.lock().expect("tier leases");
                let logs = self
                    .tier
                    .logs()
                    .into_iter()
                    .map(|log| WireTierLog {
                        log: log.0,
                        extent: self.tier.written_extent_of(log).unwrap_or(0),
                        lease: leases.get(&log.0).map(|e| e.lease).unwrap_or(0),
                        holder: leases.get(&log.0).map(|e| e.holder).unwrap_or(0),
                    })
                    .collect();
                WireMsg::TierStatus(WireTierStatus {
                    appends: self.appends.value(),
                    reads: self.reads.value(),
                    rejected_stale_lease: self.rejected_stale_lease.value(),
                    logs,
                })
            }
            WireMsg::GetMetrics => WireMsg::Metrics(self.metrics.snapshot()),
            WireMsg::GetMetricsNs { prefix } => {
                WireMsg::Metrics(self.metrics.snapshot().filtered(&prefix))
            }
            WireMsg::Ping(token) => WireMsg::Pong(token),
            other => WireMsg::CtrlErr {
                status: StatusCode::Malformed,
                message: format!("unexpected frame at the tier daemon: {other:?}"),
            },
        }
    }
}

/// Handle to a running tier daemon; call [`TierDaemonHandle::shutdown`] to
/// stop it (dropping the handle does not).
pub struct TierDaemonHandle {
    local_addr: SocketAddr,
    state: Arc<TierState>,
    io_loop: IoLoops,
}

impl TierDaemonHandle {
    /// The daemon's bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The daemon's current per-log status (same answer as the
    /// `GET_TIER_STATUS` frame; used by in-process tests).
    pub fn status(&self) -> WireTierStatus {
        match self.state.answer(WireMsg::GetTierStatus) {
            WireMsg::TierStatus(status) => status,
            _ => unreachable!("GetTierStatus always answers TierStatus"),
        }
    }

    /// Stops the I/O loop (waking it if it is blocked) and joins it; every
    /// connection closes with the loop.
    pub fn shutdown(&self) {
        self.io_loop.stop();
    }
}

/// The daemon itself.  Construct with [`TierDaemon::serve`].
pub struct TierDaemon;

impl TierDaemon {
    /// Binds `config.listen` and starts serving.
    ///
    /// The daemon runs one copy of the control I/O loop the RPC server's
    /// I/O threads run (`io_loop.rs`) with `TierState::answer` as
    /// its frame handler, instead of a thread per connection: the listener
    /// and every connection register edge-triggered interest with one
    /// reactor, so an idle daemon (even with thousands of mirroring
    /// connections parked on it) costs no CPU, and a client that stops
    /// reading its replies is dropped at the outbound budget and counted
    /// under `rpc.conns.*` in the daemon's own registry.
    pub fn serve(config: TierDaemonConfig) -> std::io::Result<Arc<TierDaemonHandle>> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        let state = TierState::new(config.per_log_capacity);
        let (serving, metrics) = (Arc::clone(&state), Arc::clone(&state.metrics));
        let io_loop = IoLoops::spawn(
            listener,
            1,
            |_| "shadowfax-tier-loop".into(),
            MAX_FRAME_BYTES,
            &metrics,
            move |msg| Served::Reply(serving.answer(msg)),
        )?;
        Ok(Arc::new(TierDaemonHandle {
            local_addr,
            state,
            io_loop,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::CtrlClient;
    use crate::{RpcError, OUTBOUND_BUDGET_BYTES};
    use shadowfax::wire::{decode_frame, encode_frame};
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn daemon() -> (Arc<TierDaemonHandle>, CtrlClient) {
        let handle = TierDaemon::serve(TierDaemonConfig {
            listen: "127.0.0.1:0".into(),
            per_log_capacity: 1 << 20,
        })
        .expect("bind tier daemon");
        let client = CtrlClient::connect(&handle.local_addr().to_string(), Duration::from_secs(5))
            .expect("connect tier client");
        (handle, client)
    }

    #[test]
    fn lease_append_read_roundtrip() {
        let (daemon, mut client) = daemon();
        let lease = client.tier_lease(3, 0).expect("lease");
        assert!(lease > 0);
        let extent = client
            .tier_append(3, lease, 0, &[0xAB; 128])
            .expect("append");
        assert!(extent >= 128);
        let data = client.tier_read(3, 0, 128).expect("read");
        assert!(data.iter().all(|&b| b == 0xAB));
        let status = client.tier_status().expect("status");
        assert_eq!(status.appends, 1);
        assert_eq!(status.reads, 1);
        assert_eq!(status.logs.len(), 1);
        assert_eq!(status.logs[0].log, 3);
        assert_eq!(status.logs[0].lease, lease);
        daemon.shutdown();
    }

    #[test]
    fn superseded_lease_is_refused_and_reads_beyond_extent_are_out_of_range() {
        let (daemon, mut client) = daemon();
        let old = client.tier_lease(1, 0).expect("first lease");
        let new = client.tier_lease(1, 7).expect("takeover lease");
        assert!(new > old);
        match client.tier_append(1, old, 0, &[1; 8]) {
            Err(RpcError::Remote { status, .. }) => {
                assert_eq!(status, StatusCode::StaleView)
            }
            other => panic!("stale-lease append was not refused: {other:?}"),
        }
        client
            .tier_append(1, new, 0, &[2; 8])
            .expect("fresh append");
        // The connection survived the typed rejection.
        match client.tier_read(1, 1 << 19, 64) {
            Err(RpcError::Remote { status, .. }) => {
                assert_eq!(status, StatusCode::OutOfRange)
            }
            other => panic!("beyond-extent read was not refused: {other:?}"),
        }
        match client.tier_read(99, 0, 8) {
            Err(RpcError::Remote { status, .. }) => {
                assert_eq!(status, StatusCode::OutOfRange)
            }
            other => panic!("unknown-log read was not refused: {other:?}"),
        }
        let status = client.tier_status().expect("status");
        assert_eq!(status.rejected_stale_lease, 1);
        daemon.shutdown();
    }

    #[test]
    fn concurrent_clients_see_each_others_writes() {
        let (daemon, mut a) = daemon();
        let mut b = CtrlClient::connect(&daemon.local_addr().to_string(), Duration::from_secs(5))
            .expect("second client");
        let lease = a.tier_lease(0, 0).expect("lease");
        a.tier_append(0, lease, 256, &[0x5A; 64]).expect("append");
        let data = b.tier_read(0, 256, 64).expect("cross-client read");
        assert!(data.iter().all(|&b| b == 0x5A));
        daemon.shutdown();
    }

    /// The daemon on the shared loop has the slow-reader policy: a client
    /// that stops reading its `TIER_DATA` replies is dropped once its
    /// outbound buffer passes `OUTBOUND_BUDGET_BYTES` — counted in the
    /// daemon's own registry — while a sibling keeps round-tripping.
    #[test]
    fn a_client_that_stops_reading_is_dropped_without_stalling_a_sibling() {
        const CHUNK: u32 = 512 * 1024;
        let (daemon, mut sibling) = daemon();
        let lease = sibling.tier_lease(5, 0).expect("lease");
        sibling
            .tier_append(5, lease, 0, &vec![0x7E; CHUNK as usize])
            .expect("append");

        // The victim asks for the same half-megabyte again and again and
        // never reads a byte.  A full kernel buffer (`WouldBlock`) must not
        // end the flood; only a hard error means the daemon let go.
        let victim = TcpStream::connect(daemon.local_addr()).expect("connect victim");
        victim.set_nonblocking(true).expect("victim nonblocking");
        let request = encode_frame(&WireMsg::TierRead {
            log: 5,
            offset: 0,
            len: CHUNK,
        });
        let asks = 2 * OUTBOUND_BUDGET_BYTES / CHUNK as usize;
        let burst: Vec<u8> = request
            .iter()
            .copied()
            .cycle()
            .take(request.len() * asks)
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut sent = 0usize;
        let dropped_slow_reader = loop {
            if sent < burst.len() {
                match (&victim).write(&burst[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => sent = burst.len(), // dropped by the daemon
                }
            }
            // The sibling shares the daemon's one loop with the victim.
            let started = Instant::now();
            assert_eq!(sibling.tier_read(5, 0, 64).expect("sibling read").len(), 64);
            assert!(
                started.elapsed() < Duration::from_secs(3),
                "the sibling stalled behind the slow reader"
            );
            let conns = sibling
                .metrics_ns("rpc.conns")
                .expect("daemon conn metrics");
            let dropped = conns.counter("rpc.conns.dropped_slow_reader").unwrap_or(0);
            if dropped >= 1 {
                break conns;
            }
            assert!(
                Instant::now() < deadline,
                "the slow reader was never dropped: {conns:?}"
            );
        };
        assert!(
            dropped_slow_reader
                .gauge("rpc.conns.outbuf_hwm_bytes")
                .unwrap_or(0)
                > OUTBOUND_BUDGET_BYTES as u64 / 2,
            "the outbound buffer never absorbed replies: {dropped_slow_reader:?}"
        );
        assert_eq!(dropped_slow_reader.gauge("rpc.conns.open"), Some(1));
        daemon.shutdown();
    }

    #[test]
    fn garbage_gets_one_typed_error_and_a_close_and_the_daemon_keeps_serving() {
        let (daemon, mut client) = daemon();
        let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("send garbage");
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).expect("answer, then EOF");
        match decode_frame(&answer, MAX_FRAME_BYTES).expect("one frame") {
            (WireMsg::CtrlErr { status, .. }, consumed) => {
                assert_eq!(status, StatusCode::Oversized);
                assert_eq!(consumed, answer.len(), "nothing behind the error");
            }
            other => panic!("unexpected answer to garbage: {other:?}"),
        }
        client.ping().expect("the daemon keeps serving");
        daemon.shutdown();
    }
}
