//! The remote tier service: resolving spilled chains across OS processes.
//!
//! During migration the source ships *indirection records* naming a
//! `(log id, address)` location on the shared tier instead of reading its
//! own stable storage (paper §3.3.2).  In-process deployments resolve those
//! against the process-local `SharedBlobTier`.  [`RemoteTierService`] lifts
//! that to multi-process deployments: a log id is its server's id, so any
//! log but the process's own belongs to a peer process, and its fetch is
//! routed over TCP as a view-tagged `FetchChain` request; the peer's
//! `RpcServer` walks the chain out of its shared-tier log, returning the
//! records in one batch.
//!
//! Failure semantics matter here: a chain that cannot be fetched right now
//! (peer down, fetch rejected) is reported as
//! [`ChainFetch::Unavailable`], which the core read path turns into a
//! *pending* operation — never a miss.  A short per-peer backoff keeps an
//! unreachable peer from stalling dispatch threads on every retry.
//!
//! [`RemoteSharedTier`] supersedes that per-hop RPC path whenever a
//! `shadowfax-tier` daemon is configured: every spill write is mirrored to
//! the daemon (as a [`TierSink`]) under a per-log lease, and chain
//! resolution answers [`ChainFetch::Local`] so the core walker reads the
//! chain — every hop of it, across any number of source logs — straight
//! off the daemon with `TIER_READ` frames.  The RPC chain-fetch path above
//! is demoted to the *fallback* taken while the daemon (or one log's
//! mirror) is unavailable.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use shadowfax::{ChainFetchQuery, MetadataStore, ServerId};
use shadowfax_net::StatusCode;
use shadowfax_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use shadowfax_storage::{
    ChainFetch, ChainFetchRequest, DeviceError, LogId, SharedBlobTier, TierRecord, TierSink,
};

use crate::ctrl::{CtrlClient, PersistentCtrl, RpcError};
use crate::tierd::MAX_TIER_READ_BYTES;

/// Resume-address pages fetched per chain before giving up.  With the
/// default page size this bounds one resolution at tens of thousands of
/// records — far beyond any realistic bucket chain.
const MAX_PAGES: usize = 64;

/// Records requested per `FetchChain` page.
const RECORDS_PER_FETCH: u32 = 512;

/// Upper bound on value bytes accumulated across one chain resolution
/// before the fetch is reported unavailable instead (a chain this large is
/// pathological; buffering it unboundedly could exhaust memory).
const MAX_CHAIN_BYTES: usize = 32 * 1024 * 1024;

/// Dial / I/O timeout for chain-fetch and tier-daemon connections.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// How long chain fetches avoid a peer after a connection failure.
const FETCH_BACKOFF: Duration = Duration::from_millis(250);

/// A `TierService` that reads the process's own log from its shared tier
/// and fetches chains of every other log from the peer process hosting it.
pub struct RemoteTierService {
    local: Arc<SharedBlobTier>,
    meta: Arc<MetadataStore>,
    /// This process's server id, which is also its log id.
    own: u64,
    /// One persistent control connection per peer address.
    peers: Mutex<HashMap<String, Arc<PersistentCtrl>>>,
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
    /// the id of the server this process hosts.
    pub fn new(local: Arc<SharedBlobTier>, meta: Arc<MetadataStore>, own: u64) -> Self {
        RemoteTierService {
            local,
            meta,
            own,
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// Resolves the chain at the peer.  A chain that cannot be fetched
    /// right now — peer down or backing off, fetch rejected (stale view,
    /// out of range: the connection is still good, the fetch is not) — is
    /// `Unavailable`, never a miss.
    fn fetch_remote(&self, addr: &str, req: &ChainFetchRequest) -> ChainFetch {
        let peer = Arc::clone(
            self.peers
                .lock()
                .entry(addr.to_string())
                .or_insert_with(|| {
                    Arc::new(PersistentCtrl::new(addr, PEER_TIMEOUT, FETCH_BACKOFF))
                }),
        );
        match peer.call(|conn| page_chain(conn, addr, req)) {
            Ok(fetch) => fetch,
            Err(RpcError::Remote { status, message }) => ChainFetch::Unavailable(format!(
                "peer {addr} rejected the fetch ({status}): {message}"
            )),
            Err(e) => ChainFetch::Unavailable(format!("fetch from {addr}: {e}")),
        }
    }
}

/// Pages through the chain at the peer until the requested key shows up
/// or the chain is exhausted.  Records are deduplicated first-wins
/// across pages (the first occurrence is the newest version).
fn page_chain(
    conn: &mut CtrlClient,
    addr: &str,
    req: &ChainFetchRequest,
) -> Result<ChainFetch, RpcError> {
    let mut records: Vec<TierRecord> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut total_bytes = 0usize;
    let mut cursor = req.address;
    for _ in 0..MAX_PAGES {
        let reply = conn.fetch_chain(&ChainFetchQuery {
            requester: req.requester as u32,
            view: req.view,
            log: req.log.0,
            address: cursor,
            max_records: RECORDS_PER_FETCH,
        })?;
        let mut found = false;
        for rec in reply.records {
            if rec.key == req.key {
                found = true;
            }
            if seen.insert(rec.key) {
                total_bytes += rec.value.len();
                records.push(rec);
            }
        }
        if found || reply.next == 0 {
            return Ok(ChainFetch::Records(records));
        }
        if total_bytes > MAX_CHAIN_BYTES {
            return Ok(ChainFetch::Unavailable(format!(
                "chain at {addr} log {} exceeded {MAX_CHAIN_BYTES} buffered bytes",
                req.log
            )));
        }
        cursor = reply.next;
    }
    // The chain outlived the page budget without surfacing the key.
    // Returning the partial batch would read as "missing"; report the
    // fetch as unresolvable instead.
    Ok(ChainFetch::Unavailable(format!(
        "chain at {addr} log {} exceeded {MAX_PAGES} pages",
        req.log
    )))
}

impl shadowfax_storage::TierService for RemoteTierService {
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> shadowfax_storage::Result<()> {
        self.local.read_log(log, offset, buf)
    }

    fn fetch_chain(&self, req: &ChainFetchRequest) -> ChainFetch {
        // The log id is the owning server's cluster id: this process's own
        // log is read here, any other is fetched from its registered
        // address.
        if req.log.0 == self.own {
            return ChainFetch::Local;
        }
        let snapshot = self.meta.snapshot();
        let Some(owner) = snapshot.server(ServerId(req.log.0 as u32)) else {
            return ChainFetch::Unavailable(format!(
                "no server registered for log {} (owner deregistered?)",
                req.log
            ));
        };
        self.fetch_remote(&owner.address.clone(), req)
    }
}

/// Bytes a log's mirror queue may buffer while the daemon is unreachable
/// before the mirror is abandoned.  An abandoned mirror leaves the daemon's
/// copy truncated-but-ordered (never holed), so readers of the tail get
/// `OutOfRange` and demote to the chain-fetch fallback.
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
    queue: VecDeque<(u64, Vec<u8>)>,
    queued_bytes: usize,
    abandoned: bool,
}

/// How long the tier daemon, or one log on it, is avoided after it failed
/// to answer (the daemon) or answered `OutOfRange` (the log).
const DAEMON_BACKOFF: Duration = Duration::from_millis(500);

/// The serving process's view of the `shadowfax-tier` daemon: a
/// `TierService` that resolves *any* log's chains directly against the
/// genuinely shared tier, plus the [`TierSink`] that keeps the daemon's
/// copy of this process's own spill log current.
///
/// Read path: local logs are read from the process's own
/// [`SharedBlobTier`]; a log this process does not host is read back from
/// the daemon with `TIER_READ` frames.  Because reads work for every log,
/// [`RemoteSharedTier::fetch_chain`] answers [`ChainFetch::Local`] and
/// lets the core chain walker follow arbitrarily deep nested indirections
/// hop by hop — the capability the paper's shared tier provides and the
/// per-hop RPC chain fetch could not.
///
/// Outage semantics: a transport failure marks the daemon down for a short
/// backoff and subsequent resolutions demote to the wrapped
/// [`RemoteTierService`] chain-fetch fallback (`tier.remote.fallbacks`
/// counts them).  Spill appends that cannot be mirrored are queued in
/// order and replayed when the daemon answers again; a queue that outgrows
/// [`MAX_MIRROR_QUEUE_BYTES`] abandons the mirror for that log
/// (`tier.remote.mirror_abandoned`) rather than hole the daemon's copy.
pub struct RemoteSharedTier {
    addr: String,
    local: Arc<SharedBlobTier>,
    fallback: RemoteTierService,
    /// This process's server id: the lease holder id presented to the
    /// daemon, and the id of the one log this process hosts.
    holder: u64,
    /// The persistent control connection to the daemon.
    daemon: PersistentCtrl,
    /// Logs whose daemon copy recently answered `OutOfRange` (mirror
    /// behind or abandoned): resolved via the fallback until the deadline.
    log_down_until: Mutex<HashMap<u64, Instant>>,
    mirrors: Mutex<HashMap<u64, Arc<Mutex<MirrorState>>>>,
    reads: Counter,
    read_bytes: Counter,
    appends: Counter,
    append_bytes: Counter,
    lease_acquires: Counter,
    direct_chains: Counter,
    fallbacks: Counter,
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
    /// appends, and the one log resolved locally.
    pub fn new(
        addr: String,
        local: Arc<SharedBlobTier>,
        meta: Arc<MetadataStore>,
        holder: u64,
        registry: &MetricsRegistry,
    ) -> Arc<Self> {
        let fallback = RemoteTierService::new(Arc::clone(&local), meta, holder);
        let reachable = registry.gauge("tier.remote.reachable");
        reachable.set(1);
        Arc::new(RemoteSharedTier {
            daemon: PersistentCtrl::new(&addr, PEER_TIMEOUT, DAEMON_BACKOFF),
            addr,
            local,
            fallback,
            holder,
            log_down_until: Mutex::new(HashMap::new()),
            mirrors: Mutex::new(HashMap::new()),
            reads: registry.counter("tier.remote.reads"),
            read_bytes: registry.counter("tier.remote.read_bytes"),
            appends: registry.counter("tier.remote.appends"),
            append_bytes: registry.counter("tier.remote.append_bytes"),
            lease_acquires: registry.counter("tier.remote.lease_acquires"),
            direct_chains: registry.counter("tier.remote.direct_chains"),
            fallbacks: registry.counter("tier.remote.fallbacks"),
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
                    // this log demote to the chain-fetch fallback.
                    self.abandon(state);
                    return;
                }
                // Transport failure, or the daemon is backing off: retry
                // on a later append.
                Err(_) => return,
            }
        }
    }

    /// Reads `buf.len()` bytes of a foreign log back from the daemon,
    /// chunked under [`MAX_TIER_READ_BYTES`].
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
        let mut filled = 0usize;
        while filled < buf.len() {
            let len = (buf.len() - filled).min(MAX_TIER_READ_BYTES as usize) as u32;
            match self.with_daemon(|c| c.tier_read(log.0, offset + filled as u64, len)) {
                Ok(data) if data.len() == len as usize => {
                    buf[filled..filled + len as usize].copy_from_slice(&data);
                    filled += len as usize;
                }
                Ok(_) => {
                    self.errors.inc();
                    return Err(DeviceError::UnknownLog(log.0));
                }
                Err(RpcError::Remote {
                    status: StatusCode::OutOfRange,
                    ..
                }) => {
                    // The daemon's copy of this log is behind (or the
                    // address predates the mirror): demote this log to the
                    // fallback for a while.
                    self.errors.inc();
                    self.mark_log_down(log.0);
                    return Err(DeviceError::UnknownLog(log.0));
                }
                Err(_) => {
                    self.errors.inc();
                    return Err(DeviceError::UnknownLog(log.0));
                }
            }
        }
        self.reads.inc();
        self.read_bytes.add(buf.len() as u64);
        self.read_latency.record(start.elapsed());
        Ok(())
    }
}

impl TierSink for RemoteSharedTier {
    fn append(&self, log: LogId, offset: u64, data: &[u8]) {
        let entry = self.mirror_entry(log.0);
        let mut state = entry.lock();
        if state.abandoned {
            self.errors.inc();
            return;
        }
        state.queue.push_back((offset, data.to_vec()));
        state.queued_bytes += data.len();
        self.drain_mirror(log.0, &mut state);
        if !state.queue.is_empty() && state.queued_bytes > MAX_MIRROR_QUEUE_BYTES {
            self.abandon(&mut state);
        }
    }
}

impl shadowfax_storage::TierService for RemoteSharedTier {
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> shadowfax_storage::Result<()> {
        // Logs this process hosts are always served locally; only a log we
        // have no copy of goes to the daemon.  Local errors other than
        // UnknownLog (bad address, unwritten range) are genuine and must
        // not be retried remotely — the daemon mirrors the same bytes.
        match self.local.read_log(log, offset, buf) {
            Ok(()) => Ok(()),
            Err(DeviceError::UnknownLog(_)) => self.daemon_read(log, offset, buf),
            Err(e) => Err(e),
        }
    }

    fn fetch_chain(&self, req: &ChainFetchRequest) -> ChainFetch {
        // Any log but this process's own is remote, including one whose
        // owner was deregistered: the daemon can still serve its chain —
        // one of the capabilities a genuinely shared tier adds.
        if req.log.0 == self.holder {
            return ChainFetch::Local;
        }
        if !self.daemon_is_down() && !self.log_is_down(req.log.0) {
            // Answer Local so the core walker reads the chain straight off
            // the daemon — every hop, across any number of source logs.
            self.direct_chains.inc();
            return ChainFetch::Local;
        }
        self.fallbacks.inc();
        self.fallback.fetch_chain(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tierd::{TierDaemon, TierDaemonConfig};
    use shadowfax_storage::TierService;

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

    fn chain_of(log: u64) -> ChainFetchRequest {
        ChainFetchRequest {
            log: LogId(log),
            address: 64,
            key: 1,
            requester: 3,
            view: 1,
        }
    }

    /// Locality is decided by server id, never by address syntax: this
    /// process's own server, registered under a socket address, still
    /// resolves its log locally, and a foreign log takes the remote path.
    #[test]
    fn own_log_is_local_by_id_and_foreign_logs_are_remote() {
        let meta = MetadataStore::new();
        meta.register_server(ServerId(3), dead_addr(), 2, shadowfax::RangeSet::full());
        let peer = dead_addr();
        meta.register_server(ServerId(4), peer.clone(), 2, shadowfax::RangeSet::empty());
        let local = SharedBlobTier::new(1 << 20);

        let service = RemoteTierService::new(Arc::clone(&local), Arc::clone(&meta), 3);
        assert_eq!(service.fetch_chain(&chain_of(3)), ChainFetch::Local);
        match service.fetch_chain(&chain_of(4)) {
            ChainFetch::Unavailable(why) => assert!(why.contains(&peer), "{why}"),
            other => panic!("a foreign log must be fetched from its peer: {other:?}"),
        }

        // With a tier daemon configured, a foreign log is read off the
        // daemon (counted as a direct chain walk); the own log never is.
        let registry = MetricsRegistry::new();
        let shared = RemoteSharedTier::new(dead_addr(), local, meta, 3, &registry);
        assert_eq!(shared.fetch_chain(&chain_of(3)), ChainFetch::Local);
        let direct = || registry.snapshot().counter("tier.remote.direct_chains");
        assert_eq!(direct(), Some(0), "the own log went to the daemon");
        assert_eq!(shared.fetch_chain(&chain_of(4)), ChainFetch::Local);
        assert_eq!(direct(), Some(1), "a foreign log did not go to the daemon");
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
