//! The blocking control-plane client.
//!
//! A control connection is an ordinary TCP connection to the serving process
//! that never sends a HELLO: it speaks request/response control frames
//! (ownership snapshots, migration triggers, liveness probes).  This is the
//! out-of-process stand-in for talking to the metadata store directly, which
//! in-process clients do via `shadowfax::MetadataStore`.
//!
//! Every typed method is one line over the generic [`CtrlClient::call`]
//! helper: encode the request, read exactly one reply frame, surface
//! `CTRL_ERR` as [`RpcError::Remote`], and reject any other unexpected
//! frame as [`RpcError::Protocol`].

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use shadowfax::wire::{
    encode_frame, CodecError, FrameDecoder, WireBrokerStatus, WireMigrationState, WireMsg,
    WireOwnership, WireTierStatus, MAX_FRAME_BYTES,
};
use shadowfax::{MetaError, MetaReplica};
use shadowfax_net::StatusCode;
use shadowfax_obs::MetricsSnapshot;

/// Errors from RPC client operations.
///
/// Non-exhaustive so new failure modes can be added without breaking
/// downstream matches; Display phrasing is lowercase-first with no
/// trailing period (audited by this crate's error-surface test).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RpcError {
    /// A socket-level failure.
    Io(String),
    /// The peer sent bytes that failed to decode.
    Codec(CodecError),
    /// The server reported a typed failure.
    Remote {
        /// The wire status code.
        status: StatusCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The peer violated the request/response protocol.
    Protocol(String),
    /// A waiting operation did not reach its goal within its deadline.  A
    /// typed variant (rather than a generic I/O error) so callers — the CLI
    /// in particular — can map "still in flight, gave up waiting" to its
    /// own exit code, distinct from hard failures.
    Timeout(String),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Io(msg) => write!(f, "i/o error: {msg}"),
            RpcError::Codec(e) => write!(f, "codec error: {e}"),
            RpcError::Remote { status, message } => {
                write!(f, "server error ({status}): {message}")
            }
            RpcError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            RpcError::Timeout(msg) => write!(f, "timed out: {msg}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e.to_string())
    }
}

impl From<CodecError> for RpcError {
    fn from(e: CodecError) -> Self {
        RpcError::Codec(e)
    }
}

/// A metadata failure maps onto the same shape a remote control plane
/// reports it with (`CTRL_ERR` + [`StatusCode::ControlFailed`]), so
/// callers handle a locally-detected and a relayed failure identically
/// instead of string-matching.
impl From<MetaError> for RpcError {
    fn from(e: MetaError) -> Self {
        RpcError::Remote {
            status: StatusCode::ControlFailed,
            message: e.to_string(),
        }
    }
}

/// A blocking request/response connection to a serving process's control
/// plane.
pub struct CtrlClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    label: String,
}

impl std::fmt::Debug for CtrlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrlClient")
            .field("peer", &self.label)
            .finish()
    }
}

impl CtrlClient {
    /// Connects to the serving process at `sock_addr` (e.g.
    /// `"127.0.0.1:4870"`).
    pub fn connect(sock_addr: &str, timeout: Duration) -> Result<Self, RpcError> {
        let target = sock_addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| RpcError::Io(format!("unresolvable address {sock_addr:?}")))?;
        let stream = TcpStream::connect_timeout(&target, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(CtrlClient {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            label: sock_addr.to_string(),
        })
    }

    fn roundtrip(&mut self, request: &WireMsg) -> Result<WireMsg, RpcError> {
        self.stream.write_all(&encode_frame(request))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(msg) = self.decoder.next_msg()? {
                if let WireMsg::CtrlErr { status, message } = msg {
                    return Err(RpcError::Remote { status, message });
                }
                return Ok(msg);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(RpcError::Io("server closed the control connection".into())),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The one generic request/response call every typed method is built
    /// on: sends `request`, reads one reply frame, and narrows it with
    /// `extract` (return `Err(frame)` to reject; the frame is folded into
    /// the [`RpcError::Protocol`] message alongside `expected`).
    pub fn call<Resp>(
        &mut self,
        request: &WireMsg,
        expected: &'static str,
        extract: impl FnOnce(WireMsg) -> Result<Resp, WireMsg>,
    ) -> Result<Resp, RpcError> {
        extract(self.roundtrip(request)?)
            .map_err(|other| RpcError::Protocol(format!("expected {expected}, got {other:?}")))
    }

    /// Fetches the current ownership snapshot.
    pub fn ownership(&mut self) -> Result<WireOwnership, RpcError> {
        self.call(&WireMsg::GetOwnership, "Ownership", |m| match m {
            WireMsg::Ownership(own) => Ok(own),
            other => Err(other),
        })
    }

    /// Triggers a migration; returns the migration id.  The contacted
    /// process need not host the source server: a process that only knows
    /// the source from its replicated metadata relays the request to the
    /// hosting process and returns the same id.
    pub fn migrate_fraction(
        &mut self,
        source: u32,
        target: u32,
        fraction: f64,
    ) -> Result<u64, RpcError> {
        let req = WireMsg::Migrate {
            source,
            target,
            fraction,
        };
        self.call(&req, "CtrlOk", |m| match m {
            WireMsg::CtrlOk { value } => Ok(value),
            other => Err(other),
        })
    }

    /// Queries the state of a migration by id.
    pub fn migration_status(&mut self, migration_id: u64) -> Result<WireMigrationState, RpcError> {
        let req = WireMsg::MigrationStatus { migration_id };
        self.call(&req, "MigrationState", |m| match m {
            WireMsg::MigrationState(state) if state.migration_id == migration_id => Ok(state),
            other => Err(other),
        })
    }

    /// Polls [`CtrlClient::migration_status`] until the migration *settles*
    /// — completes on both sides, or is cancelled — or `timeout` expires.
    ///
    /// Cancellation is a settled outcome, not an error: the returned
    /// state's `cancelled` flag distinguishes it (a dead peer mid-migration
    /// resolves as cancelled, it no longer blocks the waiter forever).  An
    /// expired deadline returns the typed [`RpcError::Timeout`].
    pub fn wait_for_migration(
        &mut self,
        migration_id: u64,
        timeout: Duration,
    ) -> Result<WireMigrationState, RpcError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let state = self.migration_status(migration_id)?;
            if state.complete || state.cancelled {
                return Ok(state);
            }
            if std::time::Instant::now() >= deadline {
                return Err(RpcError::Timeout(format!(
                    "migration {migration_id} did not settle within {timeout:?} \
                     (source_complete={}, target_complete={})",
                    state.source_complete, state.target_complete
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Cancels an in-flight migration; the serving process rolls every
    /// involved local server back and the dependency is cancelled at the
    /// metadata store.  Idempotent on an already-cancelled migration.
    pub fn cancel_migration(&mut self, migration_id: u64) -> Result<(), RpcError> {
        let req = WireMsg::CancelMigration { migration_id };
        self.call(&req, "CtrlOk for cancel", |m| match m {
            WireMsg::CtrlOk { value } if value == migration_id => Ok(()),
            other => Err(other),
        })
    }

    /// Fetches the peer process's full metrics snapshot: every counter
    /// family, gauge, latency histogram, and the migration-phase event
    /// timeline in one versioned frame.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, RpcError> {
        self.call(&WireMsg::GetMetrics, "Metrics", |m| match m {
            WireMsg::Metrics(snap) => Ok(snap),
            other => Err(other),
        })
    }

    /// Fetches the slice of the peer's metrics whose instrument names
    /// start with `prefix` (e.g. `"broker."`, `"tier.peer."`).
    pub fn metrics_ns(&mut self, prefix: &str) -> Result<MetricsSnapshot, RpcError> {
        let req = WireMsg::GetMetricsNs {
            prefix: prefix.to_string(),
        };
        self.call(&req, "Metrics", |m| match m {
            WireMsg::Metrics(snap) => Ok(snap),
            other => Err(other),
        })
    }

    /// Exports the peer's epoch-tagged metadata replica.
    pub fn meta_replica(&mut self) -> Result<MetaReplica, RpcError> {
        self.call(&WireMsg::GetMetaReplica, "MetaReplica", |m| match m {
            WireMsg::MetaReplicaMsg(replica) => Ok(replica),
            other => Err(other),
        })
    }

    /// Pushes a merged replica into the peer's store; returns the peer's
    /// post-merge `(epoch, changed)` acknowledgement.
    pub fn merge_meta(&mut self, replica: &MetaReplica) -> Result<(u64, bool), RpcError> {
        let req = WireMsg::MetaMerge(replica.clone());
        self.call(&req, "MetaAck", |m| match m {
            WireMsg::MetaAck { epoch, changed } => Ok((epoch, changed)),
            other => Err(other),
        })
    }

    /// Queries the peer's coordinator role, broker address, epoch, and
    /// per-peer convergence state.
    pub fn broker_status(&mut self) -> Result<WireBrokerStatus, RpcError> {
        self.call(&WireMsg::GetBrokerStatus, "BrokerStatus", |m| match m {
            WireMsg::BrokerStatus(status) => Ok(status),
            other => Err(other),
        })
    }

    /// Acquires (or takes over) the write lease on tier log `log` from a
    /// `shadowfax-tier` daemon; returns the granted lease id.
    pub fn tier_lease(&mut self, log: u64, holder: u64) -> Result<u64, RpcError> {
        let req = WireMsg::TierLease { log, holder };
        self.call(&req, "CtrlOk for tier lease", |m| match m {
            WireMsg::CtrlOk { value } => Ok(value),
            other => Err(other),
        })
    }

    /// Appends `data` at `offset` of tier log `log` under `lease`; returns
    /// the log's post-append written extent.  A superseded lease surfaces
    /// as [`RpcError::Remote`] with [`StatusCode::StaleView`].
    pub fn tier_append(
        &mut self,
        log: u64,
        lease: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, RpcError> {
        let req = WireMsg::TierAppend {
            log,
            lease,
            offset,
            data: data.to_vec(),
        };
        self.call(&req, "CtrlOk for tier append", |m| match m {
            WireMsg::CtrlOk { value } => Ok(value),
            other => Err(other),
        })
    }

    /// Reads `len` bytes at `offset` of tier log `log` from a
    /// `shadowfax-tier` daemon, or from the serving process hosting the
    /// log.  Unknown logs, reads beyond the written extent and reads over
    /// the per-read cap surface as [`RpcError::Remote`] with
    /// [`StatusCode::OutOfRange`].
    pub fn tier_read(&mut self, log: u64, offset: u64, len: u32) -> Result<Vec<u8>, RpcError> {
        let req = WireMsg::TierRead { log, offset, len };
        self.call(&req, "TierData", |m| match m {
            WireMsg::TierData {
                log: l,
                offset: o,
                data,
            } if l == log && o == offset => Ok(data),
            other => Err(other),
        })
    }

    /// Queries a `shadowfax-tier` daemon's per-log status (extents, lease
    /// holders, serving counters).
    pub fn tier_status(&mut self) -> Result<WireTierStatus, RpcError> {
        self.call(&WireMsg::GetTierStatus, "TierStatus", |m| match m {
            WireMsg::TierStatus(status) => Ok(status),
            other => Err(other),
        })
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), RpcError> {
        let token = 0x005A_D0FA;
        self.call(&WireMsg::Ping(token), "matching Pong", |m| match m {
            WireMsg::Pong(t) if t == token => Ok(()),
            other => Err(other),
        })
    }
}

/// One persistent control connection to a peer that may come and go.
///
/// The cached [`CtrlClient`] is taken out for the duration of a call (so
/// concurrent callers briefly dial an extra connection instead of
/// serializing on a lock held across I/O) and put back unless the
/// transport failed.  A transport failure starts a backoff window during
/// which calls fail at once, which keeps an unreachable peer from stalling
/// dispatch threads on every retry.  A typed [`RpcError::Remote`]
/// rejection is an answer: the connection is kept and the peer counts as
/// up.
pub(crate) struct PersistentCtrl {
    addr: String,
    /// Dial / I/O timeout.
    timeout: Duration,
    /// How long to avoid re-dialling after a transport failure.
    backoff: Duration,
    conn: Mutex<Option<CtrlClient>>,
    down_until: Mutex<Option<Instant>>,
}

impl PersistentCtrl {
    pub(crate) fn new(addr: &str, timeout: Duration, backoff: Duration) -> Self {
        PersistentCtrl {
            addr: addr.to_string(),
            timeout,
            backoff,
            conn: Mutex::new(None),
            down_until: Mutex::new(None),
        }
    }

    /// Inside the backoff window after a transport failure.
    pub(crate) fn is_backing_off(&self) -> bool {
        matches!(*self.down_until.lock(), Some(until) if Instant::now() < until)
    }

    /// Whether the peer answered: a typed rejection is an answer, any
    /// other error means the transport failed (or was not tried).
    pub(crate) fn answered<R>(result: &Result<R, RpcError>) -> bool {
        matches!(result, Ok(_) | Err(RpcError::Remote { .. }))
    }

    /// Runs `op` — one round trip, or several — over the connection,
    /// dialling first if none is cached.
    pub(crate) fn call<R>(
        &self,
        op: impl FnOnce(&mut CtrlClient) -> Result<R, RpcError>,
    ) -> Result<R, RpcError> {
        if self.is_backing_off() {
            return Err(RpcError::Io(format!("peer {} is backing off", self.addr)));
        }
        let cached = self.conn.lock().take();
        let result = cached
            .map_or_else(|| CtrlClient::connect(&self.addr, self.timeout), Ok)
            .and_then(|mut conn| {
                let result = op(&mut conn);
                if Self::answered(&result) {
                    *self.conn.lock() = Some(conn);
                }
                result
            });
        *self.down_until.lock() = (!Self::answered(&result)).then(|| Instant::now() + self.backoff);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax::{HashRange, LayoutError, ServerId};

    /// Satellite of the control-plane redesign: every error the binaries
    /// can print follows one Display convention — starts lowercase (it is
    /// embedded after an `error:` prefix), no trailing period, non-empty —
    /// so scripts that scrape stderr see uniform phrasing and the typed
    /// `From` conversions stay the only way errors cross layers.
    #[test]
    fn error_display_phrasing_is_uniform() {
        let range = HashRange::new(0, 100);
        let meta: Vec<MetaError> = vec![
            MetaError::UnknownServer(ServerId(3)),
            MetaError::AlreadyRegistered(ServerId(3)),
            MetaError::UnknownMigration(42),
            MetaError::NotOwned {
                server: ServerId(1),
                range,
            },
            MetaError::OwnershipOverlap {
                server: ServerId(1),
                other: ServerId(2),
                range,
            },
            MetaError::ConflictingMigration {
                conflicting: 7,
                range,
            },
            MetaError::CoordinatorUnavailable {
                detail: "broker 127.0.0.1:1 unreachable".into(),
            },
        ];
        let layout: Vec<LayoutError> = vec![
            LayoutError::DuplicateServer(ServerId(0)),
            LayoutError::UnknownServer(ServerId(9)),
            LayoutError::ConflictingAssignment(ServerId(1)),
            LayoutError::Overlap {
                a: ServerId(0),
                b: ServerId(1),
                range,
            },
            LayoutError::Gap { start: 5, end: 10 },
            LayoutError::NoServers,
            LayoutError::Spec {
                context: "--peer",
                input: "garbage".into(),
            },
        ];
        let rpc: Vec<RpcError> = vec![
            RpcError::Io("socket reset".into()),
            RpcError::Remote {
                status: StatusCode::ControlFailed,
                message: "detail".into(),
            },
            RpcError::Protocol("expected Pong, got Ping".into()),
            RpcError::Timeout("migration 9 did not settle".into()),
            MetaError::UnknownMigration(9).into(),
        ];
        let all: Vec<String> = meta
            .iter()
            .map(|e| e.to_string())
            .chain(layout.iter().map(|e| e.to_string()))
            .chain(rpc.iter().map(|e| e.to_string()))
            .collect();
        for msg in &all {
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(
                first.is_ascii_lowercase(),
                "error Display must start lowercase: {msg:?}"
            );
            assert!(
                !msg.ends_with('.'),
                "error Display must not end with a period: {msg:?}"
            );
        }
    }

    #[test]
    fn meta_errors_convert_to_typed_remote_failures() {
        let err: RpcError = MetaError::CoordinatorUnavailable {
            detail: "no broker".into(),
        }
        .into();
        match err {
            RpcError::Remote { status, message } => {
                assert_eq!(status, StatusCode::ControlFailed);
                assert!(message.contains("no broker"));
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }
}
