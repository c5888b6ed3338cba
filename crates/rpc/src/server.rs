//! The TCP front end of a serving process.
//!
//! [`RpcServer::serve`] binds a listening socket and runs N copies of the
//! control I/O loop ([`crate::io_loop`]) on it, each blocked in its own
//! epoll reactor and accepting inline.  What the loop does with a decoded
//! frame is [`ControlPlane::serve`]:
//!
//! * `HELLO <fabric addr>` makes it a **data connection**.  The socket
//!   itself — the [`Framed`](shadowfax::wire::Framed) stream, decoder with whatever bytes are
//!   already buffered behind the HELLO, outbound buffer — is handed to the
//!   dispatch thread the address names
//!   ([`DispatchHandle::adopt_kv`](shadowfax::DispatchHandle::adopt_kv)),
//!   which serves it exactly as it serves an in-process sim pipe.  From
//!   then on that thread alone polls the socket, decodes, validates the
//!   view, executes, encodes and writes the reply: the paper's deployment
//!   shape (§3.1: partitioned client sessions terminate on server dispatch
//!   threads; no request or reply crosses threads once bound).
//! * `MIG_HELLO <server> <thread>` hands the socket over the same way
//!   ([`DispatchHandle::adopt_migration`](shadowfax::DispatchHandle::adopt_migration))
//!   for the migration protocol between serving processes.
//! * Anything else is a **control frame**, answered on the I/O thread
//!   straight from the [`Cluster`]: ownership snapshots, migration
//!   triggers and status, metrics, metadata replication, `TIER_READ`s of
//!   the logs this process hosts (answered as the tier daemon answers
//!   them), pings.
//!
//! [`ControlPlane`] is one concrete object: the cluster plus the two things
//! a deployment may or may not have, a metadata coordinator and a tier
//! daemon.  The coordinator also gates the two operator mutations served
//! here (`Migrate`, `CancelMigration`): a follower whose broker failed its
//! last probe and is not yet declared dead refuses them.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::wire::{
    Role, WireBrokerStatus, WireMigrationState, WireMsg, WireOwnership, WireServerInfo,
    MAX_FRAME_BYTES,
};
use shadowfax::{Cluster, MigrationDep, OwnershipSnapshot, ServerId};
use shadowfax_net::{StatusCode, TransportError};
use shadowfax_obs::{Counter, Histogram, MetricsRegistry};

use crate::broker::{broker_status, CoordinatorHandle};
use crate::ctrl::{CtrlClient, RpcError};
use crate::io_loop::{IoLoops, Served};
use crate::tier::RemoteSharedTier;
use crate::tierd::serve_tier_read;

/// Budget for relaying a control operation (migrate / cancel) to the peer
/// process that hosts the relevant source server.  Bounded so a
/// partitioned peer cannot wedge the I/O thread serving the relay.
const RELAY_TIMEOUT: Duration = Duration::from_secs(3);

/// What the TCP front end serves: the cluster, and the two per-deployment
/// options that `BROKER_STATUS` answers and the mutation gate need.
pub struct ControlPlane {
    /// The cluster every frame is answered from.
    pub cluster: Arc<Cluster>,
    /// The metadata coordinator, when this process runs one; without it
    /// the process answers `solo` and gates nothing.
    pub coordinator: Option<Arc<CoordinatorHandle>>,
    /// The `shadowfax-tier` daemon this process mirrors to, when one is
    /// configured: `BROKER_STATUS` then carries its address and current
    /// reachability, so `shadowfax-cli cluster status` shows the tier next
    /// to the broker without a second round trip.
    pub tier: Option<Arc<RemoteSharedTier>>,
}

/// The snapshot clients route on, in wire form.
fn wire_ownership(snapshot: &OwnershipSnapshot) -> WireOwnership {
    let mut servers: Vec<WireServerInfo> = snapshot
        .servers
        .iter()
        .map(|(id, meta)| WireServerInfo {
            id: id.0,
            address: meta.address.clone(),
            threads: meta.threads as u32,
            view: meta.view,
            ranges: meta
                .owned
                .ranges()
                .iter()
                .map(|r| (r.start, r.end))
                .collect(),
        })
        .collect();
    servers.sort_by_key(|s| s.id);
    WireOwnership { servers }
}

/// A migration's state in wire form.
fn wire_migration_state(migration_id: u64, dep: Option<MigrationDep>) -> WireMigrationState {
    match dep {
        // Both sides completed: the dependency has been garbage
        // collected from the metadata store.
        None => WireMigrationState {
            migration_id,
            complete: true,
            source_complete: true,
            target_complete: true,
            cancelled: false,
        },
        Some(dep) => WireMigrationState {
            migration_id,
            complete: dep.is_complete(),
            source_complete: dep.source_complete,
            target_complete: dep.target_complete,
            cancelled: dep.cancelled,
        },
    }
}

/// A control operation's outcome as its reply frame.
fn ctrl_reply(result: Result<WireMsg, String>) -> Served {
    Served::Reply(result.unwrap_or_else(|message| WireMsg::CtrlErr {
        status: StatusCode::ControlFailed,
        message,
    }))
}

/// A hand-off the named thread cannot take: tell the peer, then close.
fn refuse(error: TransportError) -> Served {
    Served::Fail(error.status_code(), error.to_string())
}

impl ControlPlane {
    /// A control plane over `cluster` alone: no coordinator, no tier.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        ControlPlane {
            cluster,
            coordinator: None,
            tier: None,
        }
    }

    /// The coordinator's role and convergence state (`solo` at the current
    /// metadata epoch without one), stamped with the tier endpoint.
    fn broker_status(&self) -> WireBrokerStatus {
        let mut status = match &self.coordinator {
            Some(coordinator) => coordinator.status(),
            None => broker_status(&self.cluster, Role::Solo, String::new(), Vec::new()),
        };
        if let Some(tier) = &self.tier {
            status.tier_addr = tier.addr().to_string();
            status.tier_reachable = tier.is_reachable();
        }
        status
    }

    /// The gate on operator mutations: refused, before any relay, while
    /// this process is a follower whose broker is silent but not yet
    /// declared dead.  Servers' own `mark_complete` and liveness-triggered
    /// cancellations go straight to the metadata store and are deliberately
    /// *not* gated — that would wedge an in-flight migration on a broker
    /// blip.
    fn require_broker(&self) -> Result<(), String> {
        match &self.coordinator {
            Some(coordinator) => coordinator.require_broker().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// Relays an operator mutation to the process hosting its source
    /// server (any process can originate one, the hosting process drives
    /// it), then pulls that process's metadata replica and merges it here,
    /// so the outcome is visible on *this* process at once instead of a
    /// broker round later.
    fn relay<R>(
        &self,
        addr: &str,
        op: impl FnOnce(&mut CtrlClient) -> Result<R, RpcError>,
    ) -> Result<R, String> {
        let context = |e: RpcError| format!("relay to source process {addr}: {e}");
        let mut peer = CtrlClient::connect(addr, RELAY_TIMEOUT).map_err(context)?;
        let value = op(&mut peer).map_err(context)?;
        if let Ok(replica) = peer.meta_replica() {
            self.cluster.merge_meta_replica(&replica);
        }
        Ok(value)
    }

    /// Serves one decoded frame of a connection still on a control I/O
    /// thread.
    fn serve(&self, msg: WireMsg, lat: &ServingInstruments) -> Served {
        let cluster = &self.cluster;
        match msg {
            WireMsg::Hello { fabric_addr } => match cluster.dispatch_thread(&fabric_addr) {
                Some(thread) => Served::HandOff(Box::new(move |io| thread.adopt_kv(io))),
                None => refuse(TransportError::ConnectionRefused { addr: fabric_addr }),
            },
            WireMsg::MigHello { server, thread } => {
                match cluster.migration_thread(ServerId(server), thread as usize) {
                    Some(handle) => Served::HandOff(Box::new(move |io| {
                        handle.adopt_migration(io, format!("sv{server}/m{thread} (accepted)"))
                    })),
                    None => refuse(TransportError::ConnectionRefused {
                        addr: format!("sv{server} (not hosted in this process)"),
                    }),
                }
            }
            WireMsg::MigrationStatus { migration_id } => {
                let start = Instant::now();
                let result = cluster.meta().migration_state(migration_id);
                lat.migrate_ctrl.record(start.elapsed());
                ctrl_reply(
                    result
                        .map(|dep| WireMsg::MigrationState(wire_migration_state(migration_id, dep)))
                        .map_err(|e| e.to_string()),
                )
            }
            WireMsg::CancelMigration { migration_id } => {
                // Like Migrate: treat a panic below as a failed control
                // operation, never as a downed I/O thread.  A migration
                // whose source lives in another process is relayed there
                // (that process drives the rollback); if the relay fails
                // the cancellation still lands in the local replica, and
                // the coordinator retries the relay until the peer's acked
                // epoch converges.
                let start = Instant::now();
                let result = self.require_broker().and_then(|()| {
                    let relayed = cluster
                        .remote_addr_for_migration(migration_id)
                        .map(|addr| self.relay(&addr, |peer| peer.cancel_migration(migration_id)));
                    match relayed {
                        Some(Ok(())) => Ok(()),
                        _ => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cluster.cancel_migration(migration_id)
                        }))
                        .unwrap_or_else(|_| Err("migration cancellation panicked".to_string())),
                    }
                });
                lat.migrate_ctrl.record(start.elapsed());
                ctrl_reply(result.map(|()| WireMsg::CtrlOk {
                    value: migration_id,
                }))
            }
            WireMsg::TierRead { log, offset, len } => {
                // A refusal is an answer, not a framing violation: the
                // connection stays up for further reads.
                Served::Reply(
                    match serve_tier_read(cluster.shared_tier(), log, offset, len) {
                        Ok(data) => {
                            lat.peer_reads_served.inc();
                            data
                        }
                        Err((status, message)) => {
                            lat.peer_reads_refused.inc();
                            WireMsg::CtrlErr { status, message }
                        }
                    },
                )
            }
            WireMsg::GetMetrics => Served::Reply(WireMsg::Metrics(cluster.metrics().snapshot())),
            WireMsg::GetMetricsNs { prefix } => Served::Reply(WireMsg::Metrics(
                cluster.metrics().snapshot().filtered(&prefix),
            )),
            WireMsg::GetMetaReplica => {
                Served::Reply(WireMsg::MetaReplicaMsg(cluster.meta().replica()))
            }
            WireMsg::MetaMerge(replica) => ctrl_reply(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cluster.merge_meta_replica(&replica)
                }))
                .map(|outcome| WireMsg::MetaAck {
                    epoch: outcome.epoch,
                    changed: outcome.changed,
                })
                .map_err(|_| "metadata merge panicked".to_string()),
            ),
            WireMsg::GetBrokerStatus => Served::Reply(WireMsg::BrokerStatus(self.broker_status())),
            WireMsg::GetOwnership => Served::Reply(WireMsg::Ownership(wire_ownership(
                &cluster.meta().snapshot(),
            ))),
            WireMsg::Migrate {
                source,
                target,
                fraction,
            } => {
                // Validate wire input before it reaches cluster code whose
                // invariants are enforced with asserts, and treat any panic
                // below as a failed control operation: one bad request must
                // never take an I/O thread down.
                let start = Instant::now();
                let result = if !(0.0..=1.0).contains(&fraction) {
                    Err(format!("fraction {fraction} is outside [0, 1]"))
                } else if source == target {
                    Err(format!("source and target are both server {source}"))
                } else if let Err(unavailable) = self.require_broker() {
                    Err(unavailable)
                } else if let Some(addr) = cluster.remote_source_addr(ServerId(source)) {
                    self.relay(&addr, |peer| {
                        peer.migrate_fraction(source, target, fraction)
                    })
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cluster.migrate_fraction(ServerId(source), ServerId(target), fraction)
                    }))
                    .unwrap_or_else(|_| Err("migration setup panicked".to_string()))
                };
                lat.migrate_ctrl.record(start.elapsed());
                ctrl_reply(result.map(|value| WireMsg::CtrlOk { value }))
            }
            WireMsg::Ping(token) => Served::Reply(WireMsg::Pong(token)),
            other => Served::Fail(
                StatusCode::Malformed,
                format!("unexpected frame from a client: {other:?}"),
            ),
        }
    }
}

/// Control-path instruments: the migration-control latency histogram and
/// the `TIER_READ`s answered for peers.  (The data path's latencies,
/// `rpc.latency.{read,upsert}`, are recorded by the dispatch threads that
/// serve the handed-off connections.)  Handles are cheap clones of the
/// registry's instruments; recording is a relaxed atomic add into the
/// calling thread's shard.
struct ServingInstruments {
    migrate_ctrl: Histogram,
    peer_reads_served: Counter,
    peer_reads_refused: Counter,
}

impl ServingInstruments {
    fn new(metrics: &MetricsRegistry) -> Self {
        ServingInstruments {
            migrate_ctrl: metrics.histogram("rpc.latency.migrate_ctrl"),
            peer_reads_served: metrics.counter("tier.peer.reads_served"),
            peer_reads_refused: metrics.counter("tier.peer.reads_refused"),
        }
    }
}

/// Knobs for the TCP front end.
#[derive(Debug, Clone)]
pub struct RpcServerConfig {
    /// Socket address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Number of control I/O threads sharing the accepted connections.
    pub io_threads: usize,
    /// Per-frame size limit enforced on received frames.
    pub max_frame: usize,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            listen: "127.0.0.1:0".to_string(),
            io_threads: 2,
            max_frame: MAX_FRAME_BYTES,
        }
    }
}

/// The running TCP front end.
pub struct RpcServer;

/// Join handle for a running front end.
pub struct RpcServerHandle {
    local_addr: std::net::SocketAddr,
    loops: IoLoops,
}

impl std::fmt::Debug for RpcServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServerHandle")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl RpcServerHandle {
    /// The socket address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops the I/O threads and waits for them to exit.  Control
    /// connections are dropped; data connections already adopted by
    /// dispatch threads live as long as those threads do.
    pub fn shutdown(self) {
        self.loops.stop();
    }
}

impl Drop for RpcServerHandle {
    fn drop(&mut self) {
        self.loops.stop();
    }
}

impl RpcServer {
    /// Binds `config.listen` and starts serving `control` until the returned
    /// handle is shut down or dropped.
    pub fn serve(
        control: ControlPlane,
        config: RpcServerConfig,
    ) -> std::io::Result<RpcServerHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::clone(control.cluster.metrics());
        let latency = ServingInstruments::new(&metrics);
        let loops = IoLoops::spawn(
            listener,
            config.io_threads.max(1),
            |t| format!("shadowfax-rpc-io-{t}"),
            config.max_frame,
            &metrics,
            move |msg| control.serve(msg, &latency),
        )?;
        Ok(RpcServerHandle { local_addr, loops })
    }
}
