//! Reading the logs other processes host: the tier services of a
//! multi-process deployment.
//!
//! During migration the source ships *indirection records* naming a
//! `(log id, address)` location on the shared tier instead of reading its
//! own stable storage (paper §3.3.2).  The core walks the chain behind one
//! hop at a time with `TierService::read_log`; in process every log lives
//! in the one `SharedBlobTier`.  Across processes a log id is its server's
//! id, and a log is read from one of three places, in this order:
//!
//! 1. this process's own `SharedBlobTier`, which holds the log it hosts;
//! 2. the `shadowfax-tier` daemon, when one is configured
//!    ([`RemoteSharedTier`]), which every process mirrors its spills to;
//! 3. the process hosting the log, at its registered address
//!    ([`RemoteTierService`]): every `shadowfax-server` answers
//!    `TIER_READ` for the logs it hosts with the daemon's own handler.
//!
//! All three read log bytes; the walker above them applies the floors,
//! hop order and exact-key rule once.  A read that cannot be served right
//! now (daemon and owner down, read refused) is an error, which the core
//! turns into a *pending* operation, never a miss.  A short backoff per
//! peer keeps an unreachable one from stalling dispatch threads on every
//! retry.  A `TIER_READ` carries no view tag: log bytes below the tail
//! never change, and what a requester may keep of them is decided by its
//! own floors.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use shadowfax::{MetadataStore, ServerId};
use shadowfax_net::StatusCode;
use shadowfax_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use shadowfax_storage::{DeviceError, LogId, SharedBlobTier, TierService, TierSink};

use crate::ctrl::{CtrlClient, PersistentCtrl, RpcError};
use crate::tierd::MAX_TIER_READ_BYTES;

/// Dial / I/O timeout for peer and tier-daemon connections.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// How long reads avoid a peer after a connection failure.
const PEER_BACKOFF: Duration = Duration::from_millis(250);

/// Fills `buf` from `offset` of `log` with `TIER_READ`s of at most
/// [`MAX_TIER_READ_BYTES`] each, over one connection to the tier daemon or
/// to the process hosting the log.
fn read_chunked(
    conn: &mut CtrlClient,
    log: u64,
    offset: u64,
    buf: &mut [u8],
) -> Result<(), RpcError> {
    let mut at = offset;
    for chunk in buf.chunks_mut(MAX_TIER_READ_BYTES as usize) {
        let data = conn.tier_read(log, at, chunk.len() as u32)?;
        if data.len() != chunk.len() {
            return Err(RpcError::Protocol(format!(
                "TIER_READ of {} bytes answered with {}",
                chunk.len(),
                data.len()
            )));
        }
        chunk.copy_from_slice(&data);
        at += chunk.len() as u64;
    }
    Ok(())
}

/// A `TierService` that reads the process's own log from its shared tier
/// and every other log from the peer process hosting it
/// (`tier.peer.reads_issued` counts those reads).
pub struct RemoteTierService {
    local: Arc<SharedBlobTier>,
    meta: Arc<MetadataStore>,
    /// This process's server id, which is also its log id.
    own: u64,
    /// One persistent control connection per peer address.
    peers: Mutex<HashMap<String, Arc<PersistentCtrl>>>,
    reads_issued: Counter,
}

impl std::fmt::Debug for RemoteTierService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteTierService")
            .field("peers", &self.peers.lock().len())
            .finish()
    }
}

impl RemoteTierService {
    /// Creates a service over this process's shared tier and metadata store
    /// (whose peer registrations map log ids to socket addresses); `own` is
    /// the id of the server this process hosts.  Registers
    /// `tier.peer.reads_issued` on `registry`.
    pub fn new(
        local: Arc<SharedBlobTier>,
        meta: Arc<MetadataStore>,
        own: u64,
        registry: &MetricsRegistry,
    ) -> Self {
        RemoteTierService {
            local,
            meta,
            own,
            peers: Mutex::new(HashMap::new()),
            reads_issued: registry.counter("tier.peer.reads_issued"),
        }
    }

    /// Reads from the process registered for `log`: a peer that is down or
    /// backing off, or refuses the read, is an error, never a miss.
    fn read_owner(&self, log: LogId, offset: u64, buf: &mut [u8]) -> shadowfax_storage::Result<()> {
        let snapshot = self.meta.snapshot();
        let owner = u32::try_from(log.0)
            .ok()
            .and_then(|id| snapshot.server(ServerId(id)))
            .ok_or(DeviceError::UnknownLog(log.0))?;
        let peer = Arc::clone(
            self.peers
                .lock()
                .entry(owner.address.clone())
                .or_insert_with_key(|addr| {
                    Arc::new(PersistentCtrl::new(addr, PEER_TIMEOUT, PEER_BACKOFF))
                }),
        );
        self.reads_issued.inc();
        peer.call(|conn| read_chunked(conn, log.0, offset, buf))
            .map_err(|_| DeviceError::UnknownLog(log.0))
    }
}

impl TierService for RemoteTierService {
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> shadowfax_storage::Result<()> {
        // The log id is the owning server's cluster id: this process's own
        // log is read here, any other from its registered address.
        if log.0 == self.own {
            return self.local.read_log(log, offset, buf);
        }
        self.read_owner(log, offset, buf)
    }
}

/// Bytes a log's mirror queue may buffer while the daemon is unreachable
/// before the mirror is abandoned.  An abandoned mirror leaves the daemon's
/// copy truncated-but-ordered (never holed), so readers of the tail get
/// `OutOfRange` and read the log from its owner instead.
const MAX_MIRROR_QUEUE_BYTES: usize = 8 * 1024 * 1024;

/// Lease re-acquisitions attempted within one mirror drain before giving
/// the daemon time to settle (a live writer should never lose its lease
/// twice back to back).
const MAX_LEASE_RETRIES: u32 = 2;

/// One log's mirror towards the tier daemon: appends are queued in order
/// and drained front-first, so the daemon's copy of the log is always a
/// prefix of the local one — truncated at worst, never holed.
#[derive(Default)]
struct MirrorState {
    lease: Option<u64>,
    /// Pending appends: the tier's own page buffers, held, not copied.
    queue: VecDeque<(u64, Arc<[u8]>)>,
    queued_bytes: usize,
    abandoned: bool,
}

/// How long the tier daemon, or one log on it, is avoided after it failed
/// to answer (the daemon) or answered `OutOfRange` (the log).
const DAEMON_BACKOFF: Duration = Duration::from_millis(500);

/// The serving process's view of the `shadowfax-tier` daemon: a
/// `TierService` that reads *any* log off the genuinely shared tier, plus
/// the [`TierSink`] that keeps the daemon's copy of this process's own
/// spill log current.
///
/// Read path: the process's own [`SharedBlobTier`] first (it holds the log
/// this process hosts), then the daemon with `TIER_READ` frames
/// (`tier.remote.reads`), then the process hosting the log through the
/// wrapped [`RemoteTierService`] (`tier.peer.reads_issued`).
///
/// Outage semantics: a transport failure marks the daemon down for a short
/// backoff, and an `OutOfRange` answer marks one log down (its mirror is
/// behind); reads in the meantime go to the log's owner.  Spill appends
/// that cannot be mirrored are queued in order and replayed when the
/// daemon answers again; a queue that outgrows [`MAX_MIRROR_QUEUE_BYTES`]
/// abandons the mirror for that log (`tier.remote.mirror_abandoned`)
/// rather than hole the daemon's copy.
pub struct RemoteSharedTier {
    addr: String,
    local: Arc<SharedBlobTier>,
    owners: RemoteTierService,
    /// This process's server id: the lease holder id presented to the
    /// daemon.
    holder: u64,
    /// The persistent control connection to the daemon.
    daemon: PersistentCtrl,
    /// Logs whose daemon copy recently answered `OutOfRange` (mirror
    /// behind or abandoned): read from their owners until the deadline.
    log_down_until: Mutex<HashMap<u64, Instant>>,
    mirrors: Mutex<HashMap<u64, Arc<Mutex<MirrorState>>>>,
    reads: Counter,
    read_bytes: Counter,
    appends: Counter,
    append_bytes: Counter,
    lease_acquires: Counter,
    errors: Counter,
    mirror_abandoned: Counter,
    reachable: Gauge,
    read_latency: Histogram,
    append_latency: Histogram,
}

impl std::fmt::Debug for RemoteSharedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSharedTier")
            .field("addr", &self.addr)
            .field("reachable", &self.is_reachable())
            .finish()
    }
}

impl RemoteSharedTier {
    /// Creates the process's view of the daemon at `addr`, registering its
    /// `tier.remote.*` instruments on `registry`.  `holder` is the id of
    /// the server this process hosts: the lease holder id presented on
    /// appends, and the one log read locally.
    pub fn new(
        addr: String,
        local: Arc<SharedBlobTier>,
        meta: Arc<MetadataStore>,
        holder: u64,
        registry: &MetricsRegistry,
    ) -> Arc<Self> {
        let owners = RemoteTierService::new(Arc::clone(&local), meta, holder, registry);
        let reachable = registry.gauge("tier.remote.reachable");
        reachable.set(1);
        Arc::new(RemoteSharedTier {
            daemon: PersistentCtrl::new(&addr, PEER_TIMEOUT, DAEMON_BACKOFF),
            addr,
            local,
            owners,
            holder,
            log_down_until: Mutex::new(HashMap::new()),
            mirrors: Mutex::new(HashMap::new()),
            reads: registry.counter("tier.remote.reads"),
            read_bytes: registry.counter("tier.remote.read_bytes"),
            appends: registry.counter("tier.remote.appends"),
            append_bytes: registry.counter("tier.remote.append_bytes"),
            lease_acquires: registry.counter("tier.remote.lease_acquires"),
            errors: registry.counter("tier.remote.errors"),
            mirror_abandoned: registry.counter("tier.remote.mirror_abandoned"),
            reachable,
            read_latency: registry.histogram("tier.remote.latency.read"),
            append_latency: registry.histogram("tier.remote.latency.append"),
        })
    }

    /// The daemon's configured address (for `cluster status`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the daemon answered its most recent round trip.  Unlike
    /// [`Self::daemon_is_down`] this does not flip back after the retry
    /// backoff expires — a daemon that failed and has not answered since
    /// stays unreachable until a round trip succeeds.
    pub fn is_reachable(&self) -> bool {
        self.reachable.value() != 0
    }

    fn daemon_is_down(&self) -> bool {
        self.daemon.is_backing_off()
    }

    fn log_is_down(&self, log: u64) -> bool {
        match self.log_down_until.lock().get(&log) {
            Some(until) => Instant::now() < *until,
            None => false,
        }
    }

    fn mark_log_down(&self, log: u64) {
        self.log_down_until
            .lock()
            .insert(log, Instant::now() + DAEMON_BACKOFF);
    }

    /// Runs one round trip against the daemon.  The `reachable` gauge
    /// follows whether it answered: a typed rejection is an answer.
    fn with_daemon<R>(
        &self,
        op: impl FnOnce(&mut CtrlClient) -> Result<R, RpcError>,
    ) -> Result<R, RpcError> {
        let result = self.daemon.call(op);
        self.reachable.set(PersistentCtrl::answered(&result) as u64);
        result
    }

    fn mirror_entry(&self, log: u64) -> Arc<Mutex<MirrorState>> {
        Arc::clone(self.mirrors.lock().entry(log).or_default())
    }

    fn abandon(&self, state: &mut MirrorState) {
        state.abandoned = true;
        state.queue.clear();
        state.queued_bytes = 0;
        self.mirror_abandoned.inc();
        self.errors.inc();
    }

    /// Replays the log's queued appends front-first until the queue is
    /// empty or the daemon stops cooperating.  Order is the invariant:
    /// append N+1 is never sent before N lands, so the daemon's copy stays
    /// a clean prefix of the local log.
    fn drain_mirror(&self, log: u64, state: &mut MirrorState) {
        let mut lease_retries = 0;
        loop {
            if state.queue.is_empty() {
                return;
            }
            let lease = match state.lease {
                Some(lease) => lease,
                None => match self.with_daemon(|c| c.tier_lease(log, self.holder)) {
                    Ok(lease) => {
                        self.lease_acquires.inc();
                        state.lease = Some(lease);
                        lease
                    }
                    Err(_) => return,
                },
            };
            let Some(front) = state.queue.front() else {
                return;
            };
            let offset = front.0;
            let len = front.1.len();
            let start = Instant::now();
            let result = self.with_daemon(|c| c.tier_append(log, lease, offset, &front.1));
            match result {
                Ok(_) => {
                    self.append_latency.record(start.elapsed());
                    self.appends.inc();
                    self.append_bytes.add(len as u64);
                    state.queue.pop_front();
                    state.queued_bytes -= len;
                }
                Err(RpcError::Remote {
                    status: StatusCode::StaleView,
                    ..
                }) => {
                    // Superseded lease (daemon restarted, or a takeover):
                    // re-acquire and retry the same append.
                    state.lease = None;
                    lease_retries += 1;
                    if lease_retries > MAX_LEASE_RETRIES {
                        return;
                    }
                }
                Err(RpcError::Remote { .. }) => {
                    // Permanently refused (e.g. over capacity): replaying
                    // later cannot help, and skipping the append would hole
                    // the daemon's copy.  Abandon the mirror; readers of
                    // this log read it from this process instead.
                    self.abandon(state);
                    return;
                }
                // Transport failure, or the daemon is backing off: retry
                // on a later append.
                Err(_) => return,
            }
        }
    }

    /// Reads `buf.len()` bytes of a foreign log back from the daemon.
    fn daemon_read(
        &self,
        log: LogId,
        offset: u64,
        buf: &mut [u8],
    ) -> shadowfax_storage::Result<()> {
        if self.log_is_down(log.0) || self.daemon_is_down() {
            return Err(DeviceError::UnknownLog(log.0));
        }
        let start = Instant::now();
        match self.with_daemon(|c| read_chunked(c, log.0, offset, buf)) {
            Ok(()) => {
                self.reads.inc();
                self.read_bytes.add(buf.len() as u64);
                self.read_latency.record(start.elapsed());
                Ok(())
            }
            Err(e) => {
                self.errors.inc();
                if let RpcError::Remote {
                    status: StatusCode::OutOfRange,
                    ..
                } = e
                {
                    // The daemon's copy of this log is behind (or the
                    // address predates the mirror): read this log from its
                    // owner for a while.
                    self.mark_log_down(log.0);
                }
                Err(DeviceError::UnknownLog(log.0))
            }
        }
    }
}

impl TierSink for RemoteSharedTier {
    fn append(&self, log: LogId, offset: u64, data: Arc<[u8]>) {
        let entry = self.mirror_entry(log.0);
        let mut state = entry.lock();
        if state.abandoned {
            self.errors.inc();
            return;
        }
        state.queued_bytes += data.len();
        state.queue.push_back((offset, data));
        self.drain_mirror(log.0, &mut state);
        if !state.queue.is_empty() && state.queued_bytes > MAX_MIRROR_QUEUE_BYTES {
            self.abandon(&mut state);
        }
    }
}

impl TierService for RemoteSharedTier {
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> shadowfax_storage::Result<()> {
        // The log this process hosts is always read locally; only a log we
        // have no copy of goes to the daemon, then to its owner.  Local
        // errors other than UnknownLog (bad address, unwritten range) are
        // genuine and must not be retried remotely: the daemon mirrors the
        // same bytes.
        match self.local.read_log(log, offset, buf) {
            Err(DeviceError::UnknownLog(_)) => self
                .daemon_read(log, offset, buf)
                .or_else(|_| self.owners.read_log(log, offset, buf)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ControlPlane, RpcServer, RpcServerConfig, RpcServerHandle};
    use crate::tierd::{TierDaemon, TierDaemonConfig};
    use shadowfax::{Cluster, ClusterConfig};

    fn spawn_daemon(listen: &str) -> Arc<crate::tierd::TierDaemonHandle> {
        TierDaemon::serve(TierDaemonConfig {
            listen: listen.into(),
            per_log_capacity: 1 << 20,
        })
        .expect("bind tier daemon")
    }

    fn shared_view(
        addr: &str,
        holder: u64,
        registry: &MetricsRegistry,
    ) -> (Arc<SharedBlobTier>, Arc<RemoteSharedTier>) {
        let local = SharedBlobTier::new(1 << 20);
        let view = RemoteSharedTier::new(
            addr.to_string(),
            Arc::clone(&local),
            MetadataStore::new(),
            holder,
            registry,
        );
        (local, view)
    }

    #[test]
    fn mirrored_spill_is_readable_from_another_process_view() {
        let daemon = spawn_daemon("127.0.0.1:0");
        let addr = daemon.local_addr().to_string();

        // Process A spills to its local tier; the sink mirrors the bytes.
        let registry_a = MetricsRegistry::new();
        let (local_a, writer) = shared_view(&addr, 0, &registry_a);
        local_a.set_sink(writer);
        local_a.write_log(LogId(7), 0, &[0xC3; 256]).unwrap();
        assert_eq!(
            registry_a.snapshot().counter("tier.remote.appends"),
            Some(1)
        );

        // Process B has no local copy of log 7; the read goes to the daemon.
        let registry_b = MetricsRegistry::new();
        let (_local_b, reader) = shared_view(&addr, 1, &registry_b);
        let mut buf = [0u8; 256];
        reader.read_log(LogId(7), 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xC3));
        assert_eq!(registry_b.snapshot().counter("tier.remote.reads"), Some(1));
        daemon.shutdown();
    }

    #[test]
    fn appends_during_an_outage_queue_and_replay_in_order() {
        // Reserve a port, leave it unbound: the daemon is "down" at first.
        let addr = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let registry = MetricsRegistry::new();
        let (local, writer) = shared_view(&addr, 0, &registry);
        local.set_sink(writer);
        local.write_log(LogId(2), 0, &[1u8; 64]).unwrap();
        local.write_log(LogId(2), 64, &[2u8; 64]).unwrap();
        assert_eq!(
            registry.snapshot().counter("tier.remote.appends"),
            Some(0),
            "nothing mirrored while the daemon is down"
        );
        assert_eq!(registry.snapshot().gauge("tier.remote.reachable"), Some(0));

        // The daemon comes up; after the backoff the next spill drains the
        // queue front-first, so the daemon's copy is a clean prefix.
        let daemon = spawn_daemon(&addr);
        std::thread::sleep(Duration::from_millis(600));
        local.write_log(LogId(2), 128, &[3u8; 64]).unwrap();
        assert_eq!(registry.snapshot().counter("tier.remote.appends"), Some(3));
        assert_eq!(registry.snapshot().gauge("tier.remote.reachable"), Some(1));
        let status = daemon.status();
        assert_eq!(status.logs.len(), 1);
        assert!(status.logs[0].extent >= 192);

        let registry_b = MetricsRegistry::new();
        let (_local_b, reader) = shared_view(&addr, 1, &registry_b);
        let mut buf = [0u8; 192];
        reader.read_log(LogId(2), 0, &mut buf).unwrap();
        assert!(buf[..64].iter().all(|&b| b == 1));
        assert!(buf[64..128].iter().all(|&b| b == 2));
        assert!(buf[128..].iter().all(|&b| b == 3));
        daemon.shutdown();
    }

    /// A loopback address nothing listens on: a dial fails at once.
    fn dead_addr() -> String {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    }

    /// A serving process over an in-process cluster whose shared tier holds
    /// 32 bytes of 0xB4 at offset 64 of log 4.
    fn owner_process() -> (Arc<Cluster>, RpcServerHandle) {
        let cluster = Arc::new(Cluster::start(ClusterConfig::two_server_test()));
        cluster
            .shared_tier()
            .write_log(LogId(4), 64, &[0xB4; 32])
            .unwrap();
        let rpc = RpcServer::serve(
            ControlPlane::new(Arc::clone(&cluster)),
            RpcServerConfig::default(),
        )
        .expect("bind owner process");
        (cluster, rpc)
    }

    fn stop(cluster: Arc<Cluster>, rpc: RpcServerHandle) {
        rpc.shutdown();
        Arc::try_unwrap(cluster)
            .expect("cluster still referenced after rpc shutdown")
            .shutdown();
    }

    /// Locality is decided by server id, never by address syntax: this
    /// process's own server, registered under a socket address, still reads
    /// its log locally, and a foreign log is read from the process
    /// registered for it, which refuses a read past the log's extent.
    #[test]
    fn own_log_is_local_by_id_and_foreign_logs_are_read_from_their_owner() {
        let (owner, rpc) = owner_process();
        let meta = MetadataStore::new();
        meta.register_server(ServerId(3), dead_addr(), 2, shadowfax::RangeSet::full());
        let owner_addr = rpc.local_addr().to_string();
        meta.register_server(ServerId(4), owner_addr, 2, shadowfax::RangeSet::empty());
        meta.register_server(ServerId(5), dead_addr(), 2, shadowfax::RangeSet::empty());
        let local = SharedBlobTier::new(1 << 20);
        local.write_log(LogId(3), 64, &[0x3C; 32]).unwrap();
        let registry = MetricsRegistry::new();
        let service = RemoteTierService::new(local, meta, 3, &registry);
        let issued = || registry.snapshot().counter("tier.peer.reads_issued");
        let served = |name: &str| owner.metrics().snapshot().counter(name);

        let mut buf = [0u8; 32];
        service.read_log(LogId(3), 64, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x3C));
        assert_eq!(issued(), Some(0), "the own log went to a peer");

        service.read_log(LogId(4), 64, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xB4));
        assert_eq!(issued(), Some(1));
        assert_eq!(served("tier.peer.reads_served"), Some(1));

        assert!(service.read_log(LogId(4), 1 << 19, &mut buf).is_err());
        assert_eq!(served("tier.peer.reads_refused"), Some(1));
        assert!(
            service.read_log(LogId(5), 64, &mut buf).is_err(),
            "dead owner"
        );
        assert!(
            service.read_log(LogId(9), 64, &mut buf).is_err(),
            "no owner"
        );
        drop(service);
        stop(owner, rpc);
    }

    /// A log the daemon has no copy of is read from its owner, and stays
    /// with the owner for a while instead of asking the daemon again.
    #[test]
    fn a_log_the_daemon_lacks_is_read_from_its_owner() {
        let daemon = spawn_daemon("127.0.0.1:0");
        let (owner, rpc) = owner_process();
        let meta = MetadataStore::new();
        let owner_addr = rpc.local_addr().to_string();
        meta.register_server(ServerId(4), owner_addr, 2, shadowfax::RangeSet::empty());
        let registry = MetricsRegistry::new();
        let daemon_addr = daemon.local_addr().to_string();
        let local = SharedBlobTier::new(1 << 20);
        let view = RemoteSharedTier::new(daemon_addr, local, meta, 3, &registry);
        let counter = |name: &str| registry.snapshot().counter(name);

        let mut buf = [0u8; 32];
        for _ in 0..2 {
            view.read_log(LogId(4), 64, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0xB4));
        }
        assert_eq!(counter("tier.remote.reads"), Some(0));
        assert_eq!(
            counter("tier.remote.errors"),
            Some(1),
            "asked the daemon twice"
        );
        assert_eq!(counter("tier.peer.reads_issued"), Some(2));
        assert!(view.is_reachable(), "the daemon itself stays up");
        drop(view);
        stop(owner, rpc);
        daemon.shutdown();
    }

    #[test]
    fn unknown_daemon_log_demotes_that_log_not_the_daemon() {
        let daemon = spawn_daemon("127.0.0.1:0");
        let addr = daemon.local_addr().to_string();
        let registry = MetricsRegistry::new();
        let (_local, view) = shared_view(&addr, 0, &registry);
        let mut buf = [0u8; 16];
        assert!(view.read_log(LogId(42), 0, &mut buf).is_err());
        assert!(view.log_is_down(42), "the missing log backs off");
        assert!(view.is_reachable(), "the daemon itself stays up");
        daemon.shutdown();
    }
}
