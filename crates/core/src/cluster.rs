//! In-process cluster assembly.
//!
//! The paper's deployment is a set of Azure VMs, a ZooKeeper ensemble, and an
//! Azure blob storage account.  [`Cluster`] assembles the equivalent inside
//! one process: a metadata store, a simulated fabric of in-process byte
//! pipes (clients and migrating peers alike speak the wire codec over it),
//! a shared blob tier, and `n` servers whose dispatch threads run on real
//! OS threads.  Examples, integration tests and
//! the benchmark harness all build clusters through this type.

use std::sync::Arc;
use std::time::Duration;

use shadowfax_net::SimNetwork;
use shadowfax_obs::{Counter, MetricsRegistry};
use shadowfax_storage::{LogId, SharedBlobTier, TierRecord, TierService};

use crate::client::ShadowfaxClient;
use crate::config::{ClientConfig, ServerConfig};
use crate::dispatch::DispatchHandle;
use crate::hash_range::{HashRange, RangeSet};
use crate::layout::{ClusterLayout, LayoutError};
use crate::meta::{MergeOutcome, MetaReplica, MetadataStore};
use crate::server::{MigrationConnector, Server, ServerHandle};
use crate::ServerId;

/// One view-tagged request to read a spilled chain out of this process's
/// shared tier on behalf of a peer process (the serving half of the
/// cross-process chain-fetch protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainFetchQuery {
    /// Cluster-wide id of the server asking.
    pub requester: u32,
    /// The requester's current serving view.
    pub view: u64,
    /// The shared-tier log to read.
    pub log: u64,
    /// Byte offset of the chain's newest record.
    pub address: u64,
    /// Upper bound on records returned (the reply carries a resume address
    /// when the chain is longer).
    pub max_records: u32,
}

/// The record batch answering a [`ChainFetchQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFetchReply {
    /// The log that was read.
    pub log: u64,
    /// The address the walk started from (echoed).
    pub address: u64,
    /// Address to resume the walk from, or 0 when the chain is exhausted.
    pub next: u64,
    /// The chain's records, newest first, at most one per key.
    pub records: Vec<TierRecord>,
}

/// Why a chain fetch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainFetchError {
    /// The request's view tag is older than the view this process's metadata
    /// store records for the requester: the fetch is from a dead migration
    /// epoch.
    StaleView {
        /// The view the metadata store holds for the requester.
        expected: u64,
        /// The view the request carried.
        got: u64,
    },
    /// The address lies beyond everything the log has ever written.
    OutOfRange {
        /// The offending address.
        address: u64,
        /// The log's written extent.
        extent: u64,
    },
    /// The log does not exist on this process's shared tier.
    UnknownLog(u64),
    /// The requester is not registered at this process's metadata store.
    UnknownRequester(u32),
    /// The tier failed to read mid-walk; the chain is currently unreadable
    /// (as opposed to exhausted — the fetcher must keep the operation
    /// pending, not report a miss).
    Unreadable {
        /// The log being walked.
        log: u64,
        /// The address whose read failed.
        address: u64,
    },
}

impl std::fmt::Display for ChainFetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainFetchError::StaleView { expected, got } => {
                write!(f, "stale view {got} (requester is at view {expected})")
            }
            ChainFetchError::OutOfRange { address, extent } => {
                write!(f, "address {address} beyond written extent {extent}")
            }
            ChainFetchError::UnknownLog(log) => write!(f, "log {log} not on this tier"),
            ChainFetchError::UnknownRequester(id) => write!(f, "unknown requester server {id}"),
            ChainFetchError::Unreadable { log, address } => {
                write!(f, "log {log} unreadable at address {address}")
            }
        }
    }
}

/// Counters for the chain-fetch serving path (queried over the control
/// plane and published by CI alongside the bench numbers).
///
/// These are views over registry counters (`tier.chain.*`): the wire
/// snapshot and the `GET_METRICS` frame read the same cells, so the two
/// exposures can never disagree.
#[derive(Debug, Default)]
pub struct ChainFetchStats {
    served: Counter,
    records_served: Counter,
    rejected_stale_view: Counter,
    rejected_out_of_range: Counter,
}

/// A point-in-time copy of [`ChainFetchStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainFetchSnapshot {
    /// Fetches answered with a record batch.
    pub served: u64,
    /// Total records across all served batches.
    pub records_served: u64,
    /// Fetches rejected for carrying a stale view tag.
    pub rejected_stale_view: u64,
    /// Fetches rejected for an out-of-range address or unknown log.
    pub rejected_out_of_range: u64,
}

impl ChainFetchStats {
    /// Handles onto the registry's `tier.chain.*` counters.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        ChainFetchStats {
            served: metrics.counter("tier.chain.served"),
            records_served: metrics.counter("tier.chain.records_served"),
            rejected_stale_view: metrics.counter("tier.chain.rejected_stale_view"),
            rejected_out_of_range: metrics.counter("tier.chain.rejected_out_of_range"),
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ChainFetchSnapshot {
        ChainFetchSnapshot {
            served: self.served.value(),
            records_served: self.records_served.value(),
            rejected_stale_view: self.rejected_stale_view.value(),
            rejected_out_of_range: self.rejected_out_of_range.value(),
        }
    }
}

/// The one server another OS process hosts, registered with this process's
/// metadata store so local servers can route migrations (and clients can
/// route requests) to it.  Its initial ranges come from the cluster layout,
/// which every process resolves over the same membership.
#[derive(Debug, Clone)]
pub struct PeerServer {
    /// The peer's cluster-wide id.
    pub id: ServerId,
    /// The peer process's socket address (`"10.0.0.7:4871"`): where its
    /// control plane, data plane and migration listener are dialled.
    pub address: String,
    /// Number of dispatch threads the peer runs.
    pub threads: usize,
}

/// Options controlling cluster assembly.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-server configuration template (the id field is overwritten).
    pub server_template: ServerConfig,
    /// Number of servers to start.
    pub servers: usize,
    /// Id of the first local server; server `i` gets id `base_id + i`.
    /// A multi-process deployment runs one server per process, and
    /// `base_id` is that server's id.
    pub base_id: u32,
    /// The servers other OS processes host, one each, registered with this
    /// process's metadata store at startup.
    pub peers: Vec<PeerServer>,
    /// Capacity of each server's log space on the shared blob tier.
    pub shared_tier_capacity: u64,
    /// How initial ownership is assigned across the cluster's *global* ids
    /// (local servers plus peers; every process must be given the same): [`ClusterLayout::ScaleOut`] gives
    /// everything to server 0 (the Figure 10 experiments),
    /// [`ClusterLayout::Partitioned`] splits the space evenly, and
    /// [`ClusterLayout::Explicit`] spells per-id ranges out.
    pub layout: ClusterLayout,
}

impl ClusterConfig {
    /// A small two-server configuration used by tests and examples: server 0
    /// owns the whole hash space, server 1 is an idle scale-out target.
    pub fn two_server_test() -> Self {
        ClusterConfig {
            server_template: ServerConfig::small_for_tests(ServerId(0)),
            servers: 2,
            base_id: 0,
            peers: Vec::new(),
            shared_tier_capacity: 1 << 30,
            layout: ClusterLayout::ScaleOut,
        }
    }

    /// An `n`-server configuration with the hash space split evenly.
    pub fn balanced(n: usize) -> Self {
        ClusterConfig {
            server_template: ServerConfig::small_for_tests(ServerId(0)),
            servers: n,
            base_id: 0,
            peers: Vec::new(),
            shared_tier_capacity: 1 << 30,
            layout: ClusterLayout::Partitioned,
        }
    }
}

/// A running in-process cluster.
pub struct Cluster {
    meta: Arc<MetadataStore>,
    net: Arc<SimNetwork>,
    shared_tier: Arc<SharedBlobTier>,
    metrics: Arc<MetricsRegistry>,
    chain_stats: ChainFetchStats,
    handles: Vec<ServerHandle>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.handles.len())
            .finish()
    }
}

impl Cluster {
    /// Builds and starts a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the configured layout does not resolve to a valid
    /// partition of the hash space; use [`Cluster::try_start`] to handle
    /// the typed error instead.
    pub fn start(config: ClusterConfig) -> Self {
        Self::try_start(config).unwrap_or_else(|e| panic!("invalid cluster layout: {e}"))
    }

    /// Builds and starts a cluster, resolving and validating the configured
    /// [`ClusterLayout`] over the cluster's global membership (the local
    /// servers plus every registered peer).
    ///
    /// # Errors
    ///
    /// Returns a typed [`LayoutError`] when ids collide or the resolved map
    /// leaves a hole in (or overlaps) the hash space.  Nothing is spawned
    /// on error.
    pub fn try_start(config: ClusterConfig) -> Result<Self, LayoutError> {
        // The cluster's global membership: the servers this process hosts
        // and the peers other processes host.
        if config.servers == 0 {
            return Err(LayoutError::NoServers);
        }
        let members: Vec<ServerId> = (0..config.servers)
            .map(|i| ServerId(config.base_id + i as u32))
            .chain(config.peers.iter().map(|p| p.id))
            .collect();
        let mut assignment = config.layout.resolve(&members)?;

        let meta = MetadataStore::new();
        let net = SimNetwork::new();
        let shared_tier = SharedBlobTier::new(config.shared_tier_capacity);
        let metrics = Arc::new(MetricsRegistry::new());
        let chain_stats = ChainFetchStats::registered(&metrics);
        {
            let tier = Arc::clone(&shared_tier);
            metrics.register_source(
                "tier.shared",
                Box::new(move |out| {
                    let s = tier.counters().snapshot();
                    out.push(("tier.shared.reads".to_string(), s.reads));
                    out.push(("tier.shared.writes".to_string(), s.writes));
                    out.push(("tier.shared.bytes_read".to_string(), s.bytes_read));
                    out.push(("tier.shared.bytes_written".to_string(), s.bytes_written));
                }),
            );
        }

        // Servers in other processes are registered first so ownership
        // lookups and migration routing see them from the start.
        for peer in &config.peers {
            let ranges = assignment.remove(&peer.id).unwrap_or_default();
            meta.try_register_server(peer.id, peer.address.clone(), peer.threads, ranges)
                .map_err(|_| LayoutError::DuplicateServer(peer.id))?;
        }

        let mut handles = Vec::with_capacity(config.servers);
        for i in 0..config.servers {
            let mut server_config = config.server_template.clone();
            let global_id = ServerId(config.base_id + i as u32);
            server_config.id = global_id;
            let ranges = assignment.remove(&global_id).unwrap_or_default();
            let server = Server::new(
                server_config,
                ranges,
                Arc::clone(&meta),
                Arc::clone(&net),
                Arc::clone(&shared_tier),
                Arc::clone(&metrics),
            );
            handles.push(server.spawn_threads());
        }
        Ok(Cluster {
            meta,
            net,
            shared_tier,
            metrics,
            chain_stats,
            handles,
        })
    }

    /// The metadata store.
    pub fn meta(&self) -> &Arc<MetadataStore> {
        &self.meta
    }

    /// The control address of the *process* hosting `source`, when that
    /// server is not hosted here — i.e. where a migration originated at
    /// this process must be forwarded so the source's own process drives
    /// it.  `None` means the server is local (or unknown) and the operation
    /// runs here.
    pub fn remote_source_addr(&self, source: ServerId) -> Option<String> {
        if self.server(source).is_some() {
            return None;
        }
        Some(self.meta.snapshot().server(source)?.address.clone())
    }

    /// The control address of the process hosting the *source* of an
    /// in-flight migration, when it is not this process (cancellations
    /// originated elsewhere are forwarded there, since the source process
    /// drives the rollback and the relay to the target).
    pub fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String> {
        match self.meta.migration_state(migration_id) {
            Ok(Some(dep)) if !dep.cancelled => {
                // Prefer the source's process; if the source is local the
                // cancellation runs here.
                self.remote_source_addr(dep.source)
            }
            _ => None,
        }
    }

    /// Merges a metadata replica received from a peer process (the broker
    /// fan-out path), then repairs local state: any dependency that
    /// *became* cancelled through the merge has its involved local servers
    /// take their cancel edge and re-adopt the post-cancellation ownership
    /// map.
    pub fn merge_meta_replica(&self, replica: &MetaReplica) -> MergeOutcome {
        let outcome = self.meta.merge_replica(replica);
        for dep in &outcome.newly_cancelled {
            for id in [dep.source, dep.target] {
                if let Some(server) = self.server(id) {
                    server.cancel_migration_local(dep.id);
                    server.refresh_ownership_from_meta();
                }
            }
        }
        outcome
    }

    /// The dispatch thread listening at fabric address `fabric_addr`
    /// (`"sv0/t1"`), as the hand-off point for a client connection accepted
    /// by the TCP front end.  `None` if no local server has such a thread.
    pub fn dispatch_thread(&self, fabric_addr: &str) -> Option<DispatchHandle> {
        self.handles.iter().map(|h| h.server()).find_map(|s| {
            (0..s.config().threads)
                .find(|t| s.thread_address(*t) == fabric_addr)
                .map(|t| s.dispatch_handle(t))
        })
    }

    /// Dispatch thread `thread` of local server `server`, as the hand-off
    /// point for an incoming TCP migration connection.
    pub fn migration_thread(&self, server: ServerId, thread: usize) -> Option<DispatchHandle> {
        self.server(server).map(|s| s.dispatch_handle(thread))
    }

    /// The in-process fabric: clients dial dispatch threads at `…/t{n}`
    /// (used to build additional clients), peer servers at `…/m{n}`.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.net
    }

    /// The shared blob tier.
    pub fn shared_tier(&self) -> &Arc<SharedBlobTier> {
        &self.shared_tier
    }

    /// The process metrics registry: every local server's counter
    /// families, the chain-fetch serving-path counters, the shared-tier
    /// device counters, and the migration event timeline.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Installs a migration connector on every local server, replacing the
    /// default in-process fabric.  The RPC layer uses this to route
    /// migrations to peer servers over TCP.
    pub fn set_migration_connector(&self, connector: Arc<dyn MigrationConnector>) {
        for handle in &self.handles {
            handle
                .server()
                .set_migration_connector(Arc::clone(&connector));
        }
    }

    /// Installs a tier service on every local server, replacing the default
    /// (the process-local shared tier).  The RPC layer uses this to resolve
    /// indirection records whose chains live in peer processes.
    pub fn set_tier_service(&self, service: Arc<dyn TierService>) {
        for handle in &self.handles {
            handle.server().set_tier_service(Arc::clone(&service));
        }
    }

    /// Serves one cross-process chain fetch out of this process's shared
    /// tier: validates the request's view tag against the metadata store,
    /// range-checks the address, then walks the chain and returns its
    /// records (see [`ChainFetchReply`]).
    pub fn serve_chain_fetch(
        &self,
        query: &ChainFetchQuery,
    ) -> Result<ChainFetchReply, ChainFetchError> {
        match self.meta.view_of(ServerId(query.requester)) {
            None => {
                self.chain_stats.rejected_stale_view.inc();
                return Err(ChainFetchError::UnknownRequester(query.requester));
            }
            Some(expected) if query.view < expected => {
                self.chain_stats.rejected_stale_view.inc();
                return Err(ChainFetchError::StaleView {
                    expected,
                    got: query.view,
                });
            }
            Some(_) => {}
        }
        let log = LogId(query.log);
        let extent = match self.shared_tier.written_extent_of(log) {
            Ok(extent) => extent,
            Err(_) => {
                self.chain_stats.rejected_out_of_range.inc();
                return Err(ChainFetchError::UnknownLog(query.log));
            }
        };
        if query.address >= extent {
            self.chain_stats.rejected_out_of_range.inc();
            return Err(ChainFetchError::OutOfRange {
                address: query.address,
                extent,
            });
        }
        let max = (query.max_records as usize).clamp(1, 4096);
        // Byte budget per reply: well under the 16 MiB frame limit even
        // with per-record framing overhead, so a page of large values can
        // always be encoded and decoded.
        const MAX_CHAIN_REPLY_BYTES: usize = 4 * 1024 * 1024;
        let (records, next) = match crate::migration::read_chain_records(
            &self.shared_tier,
            log,
            shadowfax_faster::Address::new(query.address),
            max,
            MAX_CHAIN_REPLY_BYTES,
        ) {
            crate::migration::ChainWalk::Page(records, next) => (records, next),
            crate::migration::ChainWalk::Unreadable { address } => {
                return Err(ChainFetchError::Unreadable {
                    log: query.log,
                    address,
                });
            }
        };
        self.chain_stats.served.inc();
        self.chain_stats.records_served.add(records.len() as u64);
        Ok(ChainFetchReply {
            log: query.log,
            address: query.address,
            next,
            records,
        })
    }

    /// Counters for the chain-fetch serving path.
    pub fn chain_fetch_stats(&self) -> ChainFetchSnapshot {
        self.chain_stats.snapshot()
    }

    /// The running servers.
    pub fn servers(&self) -> Vec<Arc<Server>> {
        self.handles
            .iter()
            .map(|h| Arc::clone(h.server()))
            .collect()
    }

    /// One server by id.
    pub fn server(&self, id: ServerId) -> Option<Arc<Server>> {
        self.handles
            .iter()
            .map(|h| h.server())
            .find(|s| s.id() == id)
            .cloned()
    }

    /// Builds a client bound to this cluster.
    pub fn client(&self, config: ClientConfig) -> ShadowfaxClient {
        ShadowfaxClient::new(config, Arc::clone(&self.meta), Arc::clone(&self.net))
    }

    /// Total operations completed across every server.
    pub fn total_completed_ops(&self) -> u64 {
        self.handles
            .iter()
            .map(|h| h.server().completed_ops())
            .sum()
    }

    /// Starts migrating `fraction` of `source`'s first owned range to
    /// `target`.  Returns the migration id.
    pub fn migrate_fraction(
        &self,
        source: ServerId,
        target: ServerId,
        fraction: f64,
    ) -> Result<u64, String> {
        let src = self.server(source).ok_or("unknown source server")?;
        let owned = src.owned_ranges();
        let first = owned
            .ranges()
            .first()
            .copied()
            .ok_or("source owns no ranges")?;
        let moving = first.take_fraction(fraction);
        src.start_migration(vec![moving], target)
    }

    /// Starts migrating an explicit set of ranges.
    pub fn migrate_ranges(
        &self,
        source: ServerId,
        target: ServerId,
        ranges: Vec<HashRange>,
    ) -> Result<u64, String> {
        let src = self.server(source).ok_or("unknown source server")?;
        src.start_migration(ranges, target)
    }

    /// Cancels an in-flight migration (paper §3.3.1), the operator-driven
    /// path behind `shadowfax-cli cancel`: the dependency is cancelled at
    /// the metadata store (ownership of the migrating ranges rolls back to
    /// the source, both views advance), and every *local* server involved
    /// drops its in-flight state, checkpoints, and re-adopts the
    /// post-cancellation ownership map.  A source hosted here relays the
    /// cancellation to a remote target over the migration control link.
    ///
    /// Idempotent: cancelling an already-cancelled migration succeeds.
    ///
    /// # Errors
    ///
    /// Fails if the migration id was never issued, or if it has already
    /// completed on both sides (a durable migration cannot be rolled back).
    pub fn cancel_migration(&self, migration_id: u64) -> Result<(), String> {
        let dep = match self.meta.migration_state(migration_id) {
            Err(e) => return Err(e.to_string()),
            Ok(None) => {
                return Err(format!(
                    "migration {migration_id} already completed durably; it cannot be cancelled"
                ))
            }
            Ok(Some(dep)) => dep,
        };
        // An already-cancelled migration is not an early return: a retried
        // cancel is also the repair path for a server that missed the
        // cancellation (e.g. the peer's best-effort relay was lost) and
        // still holds in-flight state for the dead dependency.
        let already_cancelled = dep.cancelled;
        // Local servers drive their own rollback (their paths also cancel at
        // the metadata store, and a local source relays the cancellation to
        // its target over the migration control link).
        let mut cancelled_by_server = false;
        if let Some(src) = self.server(dep.source) {
            cancelled_by_server |= src.cancel_migration_local(migration_id);
        }
        if let Some(tgt) = self.server(dep.target) {
            cancelled_by_server |= tgt.cancel_migration_local(migration_id);
        }
        // No local server held in-flight state: cancel directly, and count
        // it against an involved local server so the cancellation counters
        // still reflect the operation.
        if !already_cancelled && !cancelled_by_server {
            self.meta
                .cancel_migration(migration_id)
                .map_err(|e| e.to_string())?;
            if let Some(server) = self.server(dep.source).or_else(|| self.server(dep.target)) {
                server.note_cancellation(
                    migration_id,
                    0,
                    0,
                    "operator request (no in-flight state held locally)",
                );
            }
        }
        // Whatever path ran, involved local servers adopt the
        // post-cancellation ownership map and views.
        for id in [dep.source, dep.target] {
            if let Some(server) = self.server(id) {
                server.refresh_ownership_from_meta();
            }
        }
        match self.meta.migration_state(migration_id) {
            Ok(Some(dep)) if dep.cancelled => Ok(()),
            other => Err(format!(
                "migration {migration_id} was not cancelled (state: {other:?})"
            )),
        }
    }

    /// Removes and returns the handle of server `id`, if it is running.
    /// Used by crash simulation ([`Cluster::crash_server`]) and scale-in.
    pub(crate) fn take_handle(&mut self, id: ServerId) -> Option<ServerHandle> {
        let pos = self.handles.iter().position(|h| h.server().id() == id)?;
        Some(self.handles.remove(pos))
    }

    /// Adds a newly started server to the cluster (used by crash recovery).
    pub(crate) fn push_handle(&mut self, handle: ServerHandle) {
        self.handles.push(handle);
    }

    /// Adds a brand-new, initially empty server to the running cluster — the
    /// "provision a new VM" half of elastic scale-out.  The server starts
    /// with no owned ranges; move load onto it with
    /// [`Cluster::migrate_fraction`] or [`Cluster::migrate_ranges`].
    pub fn add_server(&mut self, config: ServerConfig) -> Result<ServerId, String> {
        if self.server(config.id).is_some() {
            return Err(format!("server {} is already running", config.id));
        }
        let server = Server::new(
            config,
            RangeSet::empty(),
            Arc::clone(&self.meta),
            Arc::clone(&self.net),
            Arc::clone(&self.shared_tier),
            Arc::clone(&self.metrics),
        );
        let id = server.id();
        self.handles.push(server.spawn_threads());
        Ok(id)
    }

    /// Elastic scale-in: migrates every range `from` owns to `to`, waits for
    /// the migration to become durable, deregisters `from` from the metadata
    /// store, and stops its dispatch threads.
    ///
    /// # Errors
    ///
    /// Fails if either server is unknown, if the migration cannot start, or
    /// if it does not complete within `timeout` (in which case the server is
    /// left running and still registered).
    pub fn scale_in(
        &mut self,
        from: ServerId,
        to: ServerId,
        timeout: Duration,
    ) -> Result<(), String> {
        let src = self
            .server(from)
            .ok_or_else(|| format!("unknown server {from}"))?;
        self.server(to)
            .ok_or_else(|| format!("unknown server {to}"))?;
        let ranges = src.owned_ranges().ranges().to_vec();
        if !ranges.is_empty() {
            self.migrate_ranges(from, to, ranges)?;
            if !self.wait_for_migrations(timeout) {
                return Err(format!(
                    "scale-in migration from {from} to {to} did not complete within {timeout:?}"
                ));
            }
        }
        self.meta.deregister_server(from);
        let handle = self
            .take_handle(from)
            .ok_or_else(|| format!("unknown server {from}"))?;
        handle.shutdown();
        Ok(())
    }

    /// Waits until no server has a migration in flight (or the timeout
    /// expires).  Returns `true` if the cluster became quiescent.
    pub fn wait_for_migrations(&self, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        loop {
            let busy = self
                .handles
                .iter()
                .any(|h| h.server().migration_in_progress())
                || self.meta.pending_migrations() > 0;
            if !busy {
                return true;
            }
            if start.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops every server and waits for its threads to exit.
    pub fn shutdown(self) {
        for h in &self.handles {
            h.server().request_shutdown();
        }
        for h in self.handles {
            h.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax_hlog::{Address, RecordFlags, RecordHeader, RECORD_HEADER_BYTES};

    /// Writes one encoded record at `offset` of `log` on the shared tier and
    /// returns the offset (so chains can be built bottom-up).
    fn put_record(
        cluster: &Cluster,
        log: LogId,
        offset: u64,
        key: u64,
        prev: u64,
        flags: RecordFlags,
        value: &[u8],
    ) -> u64 {
        let header = RecordHeader {
            prev: Address::new(prev),
            flags,
            version: 1,
            value_len: value.len() as u32,
            key,
        };
        let mut buf = vec![0u8; RECORD_HEADER_BYTES + value.len()];
        header.encode_into(&mut buf);
        buf[RECORD_HEADER_BYTES..].copy_from_slice(value);
        cluster.shared_tier().write_log(log, offset, &buf).unwrap();
        offset
    }

    fn query(requester: u32, view: u64, log: u64, address: u64) -> ChainFetchQuery {
        ChainFetchQuery {
            requester,
            view,
            log,
            address,
            max_records: 64,
        }
    }

    #[test]
    fn serve_chain_fetch_walks_dedups_and_rejects() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let log = LogId(41);
        // Chain, oldest first: key 7 (old version) <- key 9 (tombstone)
        // <- key 7 (new version).  The walk must return the newest version
        // of 7 once and the tombstone of 9 with its flag intact.
        let a = put_record(&cluster, log, 64, 7, 0, RecordFlags::empty(), b"old-7");
        let b = put_record(&cluster, log, 256, 9, a, RecordFlags::TOMBSTONE, b"");
        let c = put_record(&cluster, log, 512, 7, b, RecordFlags::empty(), b"new-7");

        let reply = cluster
            .serve_chain_fetch(&query(0, 1, log.0, c))
            .expect("valid fetch");
        assert_eq!(reply.next, 0, "short chain must be exhausted in one page");
        assert_eq!(reply.records.len(), 2);
        assert_eq!(reply.records[0].key, 7);
        assert_eq!(reply.records[0].value, b"new-7");
        assert_eq!(reply.records[1].key, 9);
        assert!(RecordFlags::from_bits(reply.records[1].flags).contains(RecordFlags::TOMBSTONE));

        // Stale view: the metadata store has server 0 at view 1.
        assert!(matches!(
            cluster.serve_chain_fetch(&query(0, 0, log.0, c)),
            Err(ChainFetchError::StaleView {
                expected: 1,
                got: 0
            })
        ));
        // Unknown requester.
        assert!(matches!(
            cluster.serve_chain_fetch(&query(99, 1, log.0, c)),
            Err(ChainFetchError::UnknownRequester(99))
        ));
        // Out of range / unknown log.
        assert!(matches!(
            cluster.serve_chain_fetch(&query(0, 1, log.0, 1 << 40)),
            Err(ChainFetchError::OutOfRange { .. })
        ));
        assert!(matches!(
            cluster.serve_chain_fetch(&query(0, 1, 12345, c)),
            Err(ChainFetchError::UnknownLog(12345))
        ));

        // Every outcome above was counted.
        let stats = cluster.chain_fetch_stats();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.records_served, 2);
        assert_eq!(stats.rejected_stale_view, 2); // stale view + unknown requester
        assert_eq!(stats.rejected_out_of_range, 2); // out of range + unknown log
        cluster.shutdown();
    }

    #[test]
    fn serve_chain_fetch_pages_by_bytes_and_rejects_unreadable_chains() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let log = LogId(43);
        // Three records with 2 MiB values: the 4 MiB reply budget must cut
        // the page after two and hand back a resume address — never an
        // undecodable oversized frame.
        let big = vec![0xAB; 2 * 1024 * 1024];
        let mut prev = 0u64;
        for i in 0..3u64 {
            prev = put_record(
                &cluster,
                log,
                64 + i * (4 * 1024 * 1024),
                200 + i,
                prev,
                RecordFlags::empty(),
                &big,
            );
        }
        let reply = cluster
            .serve_chain_fetch(&query(0, 1, log.0, prev))
            .expect("byte-budgeted fetch");
        assert_eq!(reply.records.len(), 2, "byte budget did not cut the page");
        assert_ne!(reply.next, 0);
        let rest = cluster
            .serve_chain_fetch(&query(0, 1, log.0, reply.next))
            .expect("resumed fetch");
        assert_eq!(rest.records.len(), 1);
        assert_eq!(rest.next, 0);

        // A chain whose prev pointer lands in never-written space is
        // *unreadable*, not exhausted: reporting it exhausted would turn a
        // tier I/O error into an acknowledged "not found" at the fetcher.
        let broken = put_record(
            &cluster,
            log,
            16 * 1024 * 1024,
            777,
            13 * 1024 * 1024, // unwritten offset
            RecordFlags::empty(),
            b"x",
        );
        match cluster.serve_chain_fetch(&query(0, 1, log.0, broken)) {
            Err(ChainFetchError::Unreadable { address, .. }) => {
                assert_eq!(address, 13 * 1024 * 1024)
            }
            other => panic!("expected Unreadable, got {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn serve_chain_fetch_pages_long_chains() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let log = LogId(42);
        // 10 records, chained; ask for pages of 4.
        let mut prev = 0u64;
        let mut tops = Vec::new();
        for i in 0..10u64 {
            prev = put_record(
                &cluster,
                log,
                64 + i * 64,
                100 + i,
                prev,
                RecordFlags::empty(),
                b"v",
            );
            tops.push(prev);
        }
        let mut q = query(0, 1, log.0, *tops.last().unwrap());
        q.max_records = 4;
        let first = cluster.serve_chain_fetch(&q).expect("first page");
        assert_eq!(first.records.len(), 4);
        assert_ne!(first.next, 0, "long chain must return a resume address");
        q.address = first.next;
        let second = cluster.serve_chain_fetch(&q).expect("second page");
        assert_eq!(second.records.len(), 4);
        // Pages do not overlap: the resume address continues the walk.
        assert!(first
            .records
            .iter()
            .all(|r| second.records.iter().all(|s| s.key != r.key)));
        cluster.shutdown();
    }
}
