//! The Shadowfax server: per-thread dispatch loops over a shared FASTER
//! instance (paper §3.1, Figure 4).
//!
//! Each server runs one dispatch thread per (v)CPU.  A thread's loop polls
//! its own connections (in-process sim pipes and the sockets the TCP front
//! end handed it, served alike through the wire codec and `Framed`), drains
//! request batches from them, validates each batch's view with a single
//! integer comparison, executes the operations against the shared FASTER
//! instance, and replies on the same connection — no request or result
//! ever crosses threads.  Between batches the thread
//! refreshes its epoch slot (letting global cuts complete), retries pending
//! operations, and contributes its share of any in-flight migration (paper
//! §3.3: migration work is interleaved with request processing).  A thread
//! with nothing to do, nothing pended and no migration role parks in its
//! reactor (see [`crate::dispatch`]), once it has kept looking for
//! `LOOK_WINDOW` after its last pass that found work.  One that served a
//! socket looks again one tick after that pass began: `PASS_TICK` after a
//! pipeline, `SYNC_TICK` after a synchronous request, so what a session
//! gets is set by the clock and not by how two busy loops happen to
//! interleave.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use shadowfax_faster::{
    Checkpoint, Faster, FasterSession, KeyHash, ReadOutcome, RecordFlags, RmwOutcome,
};
use shadowfax_hlog::{RecordHeader, RECORD_HEADER_BYTES};
use shadowfax_net::{
    BatchReply, ByteStream, KvRequest, KvResponse, RequestBatch, SimNetwork, TransportError,
};
use shadowfax_obs::{Counter, EventTimeline, Gauge, MetricsRegistry};
use shadowfax_storage::{LogId, SharedBlobTier, TierService};

use crate::config::{OwnershipCheck, ServerConfig};
use crate::dispatch::{ConnId, ConnTable, DispatchHandle, Link, Mailbox, ParkInstruments};
use crate::hash_range::RangeSet;
use crate::indirection::IndirectionRecord;
use crate::meta::MetadataStore;
use crate::migration::{
    OutgoingMigration, PendMode, SourceThreadState, TargetEvent, TargetMachine,
};
use crate::wire::{
    Framed, KvLatency, PeerLink, ServedKvLink, MAX_FRAME_BYTES, MIGRATION_SEND_BUDGET,
};
use crate::ServerId;

/// Opens outgoing migration connections to peer servers.
///
/// Two implementations, one rule each: the in-process fabric (the default,
/// for clusters whose servers share one process) dials fabric names, and
/// `shadowfax-rpc`'s TCP transport, installed by `shadowfax-server`, dials
/// every peer's socket address over a dedicated migration connection.
/// Either way the server frames migration messages onto the stream itself.
pub trait MigrationConnector: Send + Sync {
    /// Opens a migration stream to dispatch thread `thread` of server
    /// `server`, whose address registered at the metadata store is
    /// `address`.
    fn connect_migration(
        &self,
        address: &str,
        server: ServerId,
        thread: usize,
    ) -> Option<Box<dyn ByteStream>>;
}

impl MigrationConnector for SimNetwork {
    fn connect_migration(
        &self,
        address: &str,
        _server: ServerId,
        thread: usize,
    ) -> Option<Box<dyn ByteStream>> {
        let conn = self.connect(&format!("{address}/m{thread}"))?;
        Some(Box::new(conn))
    }
}

/// A request batch whose reply is being withheld until every operation in it
/// can be completed (paper §3.3: the target "marks these requests pending,
/// and it processes them when it receives the corresponding record").
pub(crate) struct PendingBatch {
    pub(crate) conn: ConnId,
    pub(crate) seq: u64,
    pub(crate) results: Vec<Option<KvResponse>>,
    pub(crate) unresolved: Vec<(usize, KvRequest)>,
}

/// The per-server instrument handles on the process registry, created (or
/// re-adopted, after crash recovery) under the `sv{id}.` name prefix.
pub(crate) struct ServerInstruments {
    pub(crate) pending_gauge: Gauge,
    pub(crate) total_pended: Counter,
    pub(crate) indirection_fetches: Counter,
    pub(crate) migrations_cancelled: Counter,
    pub(crate) records_rolled_back: Counter,
    pub(crate) heartbeats_missed: Counter,
    pub(crate) migration_insert_failed: Counter,
    pub(crate) chain_insert_failed: Counter,
    pub(crate) park: ParkInstruments,
    pub(crate) kv_latency: KvLatency,
}

impl ServerInstruments {
    /// Creates the handles and registers the store/device counter source
    /// for server `id`.  Re-registering (crash recovery) re-adopts the
    /// existing named instruments and replaces the source closure, so the
    /// crashed incarnation's devices stop contributing.
    pub(crate) fn register(
        metrics: &MetricsRegistry,
        id: ServerId,
        store: &Arc<Faster>,
        ssd: &Arc<dyn shadowfax_storage::Device>,
    ) -> Self {
        let p = format!("sv{}", id.0);
        let instruments = ServerInstruments {
            pending_gauge: metrics.gauge(&format!("{p}.ops.pending")),
            total_pended: metrics.counter(&format!("{p}.ops.pended_total")),
            indirection_fetches: metrics.counter(&format!("{p}.indirection.fetches")),
            migrations_cancelled: metrics.counter(&format!("{p}.migration.cancelled")),
            records_rolled_back: metrics.counter(&format!("{p}.migration.records_rolled_back")),
            heartbeats_missed: metrics.counter(&format!("{p}.migration.heartbeats_missed")),
            migration_insert_failed: metrics.counter(&format!("{p}.migration.insert_failed")),
            chain_insert_failed: metrics.counter(&format!("{p}.chain.insert_failed")),
            park: ParkInstruments::register(metrics, &p),
            kv_latency: KvLatency::register(metrics),
        };
        // The FASTER store and the SSD already keep their own relaxed
        // atomics; contribute them at snapshot time instead of rewriting
        // their hot paths.
        let store = Arc::clone(store);
        let ssd = Arc::clone(ssd);
        let key = p.clone();
        metrics.register_source(
            &key,
            Box::new(move |out| {
                let s = store.stats().snapshot();
                out.push((format!("{p}.store.reads"), s.reads));
                out.push((format!("{p}.store.upserts"), s.upserts));
                out.push((format!("{p}.store.rmws"), s.rmws));
                out.push((format!("{p}.store.deletes"), s.deletes));
                out.push((format!("{p}.store.in_place_updates"), s.in_place_updates));
                out.push((format!("{p}.store.rcu_appends"), s.rcu_appends));
                out.push((format!("{p}.store.stable_reads"), s.stable_reads));
                out.push((format!("{p}.store.sampled_copies"), s.sampled_copies));
                let d = ssd.counters().snapshot();
                out.push((format!("{p}.ssd.reads"), d.reads));
                out.push((format!("{p}.ssd.writes"), d.writes));
                out.push((format!("{p}.ssd.bytes_read"), d.bytes_read));
                out.push((format!("{p}.ssd.bytes_written"), d.bytes_written));
            }),
        );
        instruments
    }
}

/// A running Shadowfax server.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) store: Arc<Faster>,
    pub(crate) meta: Arc<MetadataStore>,
    /// The in-process fabric: clients dial `…/t{n}`, peer servers `…/m{n}`.
    pub(crate) net: Arc<SimNetwork>,
    pub(crate) shared_tier: Arc<SharedBlobTier>,
    /// Reads the spilled record chains named by indirection records.
    /// Defaults to the process-local [`SharedBlobTier`]; the RPC layer
    /// installs one that also reads the logs other processes host.
    pub(crate) tier_service: RwLock<Arc<dyn TierService>>,
    /// The view number the server validates batches against.  Lags the
    /// metadata store's view until the appropriate migration phase flips it.
    pub(crate) serving_view: AtomicU64,
    /// The hash ranges this server currently considers itself responsible for.
    pub(crate) owned: RwLock<RangeSet>,
    /// Overrides how outgoing migration links are opened (installed by the
    /// RPC layer so migrations can cross OS processes); `None` uses
    /// [`Server::net`].
    pub(crate) mig_connector: RwLock<Option<Arc<dyn MigrationConnector>>>,
    /// The target side of the migration protocol.
    pub(crate) incoming: Mutex<TargetMachine>,
    /// Source-side state for an in-flight outgoing migration, until its
    /// machine reaches a terminal phase.
    pub(crate) outgoing: RwLock<Option<Arc<OutgoingMigration>>>,
    /// Fast-path flag: `true` while `incoming` holds an active migration, so
    /// the per-operation check avoids the mutex in the common case.
    pub(crate) incoming_active: AtomicBool,
    /// Bumped whenever in-flight migration state is dropped without
    /// completing (cancellation, crash-recovery abort).  Dispatch threads
    /// react by rejecting pended batches that reference hashes this server
    /// no longer owns, pushing their clients to the rolled-back owner.
    pub(crate) pend_flush_epoch: AtomicU64,
    /// The most recently completed migration's report (source or target role).
    pub(crate) completed_report: Mutex<Option<crate::migration::MigrationReport>>,
    /// The most recent checkpoint image, kept as the recovery point for this
    /// server (paper §3.3.1: migration completion checkpoints both ends so
    /// either can be recovered independently).  Updated by migration
    /// completion and by [`Server::checkpoint_now`].
    pub(crate) latest_checkpoint: Mutex<Option<Checkpoint>>,
    /// The registry every counter family below lives in (shared with the
    /// owning [`Cluster`](crate::Cluster) so one `GET_METRICS` pull sees
    /// the whole process).
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// The registry's migration-lifecycle timeline (phase transitions and
    /// cancellations are stamped here).
    pub(crate) timeline: Arc<EventTimeline>,
    /// Gauge: operations currently pending at this server (Figure 12).
    pub(crate) pending_gauge: Gauge,
    /// Cumulative count of operations that ever pended.
    pub(crate) total_pended: Counter,
    /// Count of records fetched from the shared tier to resolve indirection
    /// records during normal operation.
    pub(crate) indirection_fetches: Counter,
    /// Migrations this server cancelled (dead peer, operator request, or a
    /// peer-relayed cancellation), in either role.
    pub(crate) migrations_cancelled: Counter,
    /// Records whose shipment was undone by cancellations: items already
    /// pushed toward (or received from) the peer when the migration rolled
    /// back — they become unreachable duplicates on the dead epoch's log.
    pub(crate) records_rolled_back: Counter,
    /// Heartbeat intervals that elapsed without hearing from a migration
    /// peer (across all migrations; the liveness layer's miss counter).
    pub(crate) heartbeats_missed: Counter,
    /// Inserts made on a peer's behalf that the store refused: migrated and
    /// compaction-handed-off records (`migration.insert_failed`), and
    /// records fetched to resolve an indirection (`chain.insert_failed`).
    pub(crate) migration_insert_failed: Counter,
    pub(crate) chain_insert_failed: Counter,
    /// Per-dispatch-thread loop counters.  A thread increments its counter at
    /// the top of every loop iteration; migration uses them to wait until
    /// every thread has passed an operation-sequence boundary after the
    /// ownership-transfer cut (so no old-view batch is still executing when
    /// the hot set and migrated records are read).
    pub(crate) loop_generation: Box<[AtomicU64]>,
    /// One per dispatch thread: its reactor, and how other threads hand it
    /// connections and wake it.
    pub(crate) mailboxes: Box<[Arc<Mailbox>]>,
    /// `sv{id}.dispatch.*` parking counters and `sv{id}.ops.pended_dropped`.
    pub(crate) park: ParkInstruments,
    /// `rpc.latency.*` of the client data connections this server serves.
    pub(crate) kv_latency: KvLatency,
    pub(crate) shutdown: AtomicBool,
    pub(crate) threads_running: AtomicUsize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("id", &self.config.id)
            .field("view", &self.serving_view())
            .field("owned_ranges", &self.owned.read().len())
            .field("pending_ops", &self.pending_ops())
            .finish()
    }
}

impl Server {
    /// Creates a server, registers it with the metadata store as the owner of
    /// `initial_ranges`, and returns it (threads are started separately with
    /// [`Server::spawn_threads`]).
    pub fn new(
        config: ServerConfig,
        initial_ranges: RangeSet,
        meta: Arc<MetadataStore>,
        net: Arc<SimNetwork>,
        shared_tier: Arc<SharedBlobTier>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        config.validate();
        let epoch = Arc::new(shadowfax_epoch::EpochManager::new());
        let ssd = Arc::new(shadowfax_storage::SimSsd::new(
            config.faster.log.ssd_capacity,
        ));
        let shared_handle = shared_tier.handle(LogId(config.id.0 as u64));
        let store = Faster::new(
            config.faster,
            Arc::clone(&ssd) as Arc<dyn shadowfax_storage::Device>,
            Some(shared_handle),
            epoch,
        );
        meta.register_server(
            config.id,
            config.address(),
            config.threads,
            initial_ranges.clone(),
        );
        let view = meta.view_of(config.id).unwrap_or(1);
        let tier_service: Arc<dyn TierService> = Arc::clone(&shared_tier) as Arc<dyn TierService>;
        let instruments = ServerInstruments::register(
            &metrics,
            config.id,
            &store,
            &(Arc::clone(&ssd) as Arc<dyn shadowfax_storage::Device>),
        );
        let timeline = metrics.timeline();
        Arc::new(Server {
            store,
            meta,
            net,
            shared_tier,
            tier_service: RwLock::new(tier_service),
            serving_view: AtomicU64::new(view),
            owned: RwLock::new(initial_ranges),
            mig_connector: RwLock::new(None),
            incoming: Mutex::new(TargetMachine::new(config.migration.liveness)),
            outgoing: RwLock::new(None),
            incoming_active: AtomicBool::new(false),
            pend_flush_epoch: AtomicU64::new(0),
            completed_report: Mutex::new(None),
            latest_checkpoint: Mutex::new(None),
            metrics,
            timeline,
            pending_gauge: instruments.pending_gauge,
            total_pended: instruments.total_pended,
            indirection_fetches: instruments.indirection_fetches,
            migrations_cancelled: instruments.migrations_cancelled,
            records_rolled_back: instruments.records_rolled_back,
            heartbeats_missed: instruments.heartbeats_missed,
            migration_insert_failed: instruments.migration_insert_failed,
            chain_insert_failed: instruments.chain_insert_failed,
            loop_generation: (0..config.threads).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..config.threads).map(|_| Mailbox::new()).collect(),
            park: instruments.park,
            kv_latency: instruments.kv_latency,
            shutdown: AtomicBool::new(false),
            threads_running: AtomicUsize::new(0),
            config,
        })
    }

    /// The server's id.
    pub fn id(&self) -> ServerId {
        self.config.id
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared FASTER instance.
    pub fn store(&self) -> &Arc<Faster> {
        &self.store
    }

    /// The log id under which this server writes to the shared tier.
    pub fn log_id(&self) -> LogId {
        LogId(self.config.id.0 as u64)
    }

    /// The shared blob tier this server's log spills to.
    pub fn shared_tier(&self) -> &Arc<SharedBlobTier> {
        &self.shared_tier
    }

    /// The view number currently used to validate batches.
    pub fn serving_view(&self) -> u64 {
        self.serving_view.load(Ordering::SeqCst)
    }

    /// The hash ranges this server currently owns.
    pub fn owned_ranges(&self) -> RangeSet {
        self.owned.read().clone()
    }

    /// Overrides the owned range set without a migration (used by the
    /// Figure 15 experiment to install many hash splits).
    pub fn set_owned_ranges(&self, ranges: RangeSet) {
        *self.owned.write() = ranges;
    }

    /// Number of operations currently pending at this server (Figure 12).
    pub fn pending_ops(&self) -> u64 {
        self.pending_gauge.value()
    }

    /// Cumulative number of operations that ever pended.
    pub fn total_pended_ops(&self) -> u64 {
        self.total_pended.value()
    }

    /// Operations completed by this server since start (throughput sampling).
    pub fn completed_ops(&self) -> u64 {
        self.store.stats().completed_ops()
    }

    /// Records fetched from the shared tier to resolve indirection records.
    pub fn indirection_fetches(&self) -> u64 {
        self.indirection_fetches.value()
    }

    /// The process metrics registry this server's instruments live in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Cancels migration `migration_id` if this server is involved in it
    /// (either role).  Used by the operator control plane (`shadowfax-cli
    /// cancel`); liveness-triggered cancellation calls the role-specific
    /// paths directly from the dispatch loop.  Returns `true` if in-flight
    /// state was rolled back here.
    pub fn cancel_migration_local(self: &Arc<Self>, migration_id: u64) -> bool {
        let session = self.store.start_session();
        self.cancel_local_roles(Instant::now(), migration_id, "operator request", &session)
    }

    /// Takes the cancel edge of whichever machine holds `migration_id`: the
    /// source's (from any phase up to the final ack) or the target's.
    /// Returns `true` if any state was rolled back.
    pub(crate) fn cancel_local_roles(
        self: &Arc<Self>,
        now: Instant,
        migration_id: u64,
        reason: &str,
        session: &FasterSession,
    ) -> bool {
        let cancel = TargetEvent::Cancel(migration_id, reason.into());
        self.cancel_outgoing(now, migration_id, reason, session)
            || self.drive_target(now, cancel, None, session)
    }

    /// Replaces the service that reads the spilled chains named by
    /// indirection records.  The default reads the process-local
    /// [`SharedBlobTier`]; the RPC layer installs one that also reads the
    /// logs other processes host.
    pub fn set_tier_service(&self, service: Arc<dyn TierService>) {
        *self.tier_service.write() = service;
    }

    /// `true` while an outgoing (source-side) migration is in flight.
    pub fn migration_in_progress(&self) -> bool {
        self.outgoing.read().is_some() || self.incoming.lock().is_active()
    }

    /// Installs the connector used to open outgoing migration links,
    /// replacing the default (the in-process migration fabric).  The RPC
    /// layer installs a TCP-capable connector here so migrations can reach
    /// servers in other OS processes.
    pub fn set_migration_connector(&self, connector: Arc<dyn MigrationConnector>) {
        *self.mig_connector.write() = Some(connector);
    }

    /// Opens a migration link to dispatch thread `thread` of the server
    /// registered at `address`.
    pub(crate) fn connect_migration(
        &self,
        address: &str,
        server: ServerId,
        thread: usize,
    ) -> Option<PeerLink> {
        let connector = self.mig_connector.read().clone();
        let stream = match connector {
            Some(c) => c.connect_migration(address, server, thread),
            None => self.net.connect_migration(address, server, thread),
        }?;
        let label = format!("{address}/m{thread}");
        Some(PeerLink::new(stream, label, MIGRATION_SEND_BUDGET))
    }

    /// The network address of dispatch thread `t`.
    pub fn thread_address(&self, t: usize) -> String {
        format!(
            "{}/t{}",
            self.config.address(),
            t % self.config.threads.max(1)
        )
    }

    /// The migration-network address of dispatch thread `t`.
    pub fn migration_address(&self, t: usize) -> String {
        format!(
            "{}/m{}",
            self.config.address(),
            t % self.config.threads.max(1)
        )
    }

    /// Starts the server's dispatch threads.  Returns a handle used to stop
    /// them.
    pub fn spawn_threads(self: &Arc<Self>) -> ServerHandle {
        let mut joins = Vec::with_capacity(self.config.threads);
        for t in 0..self.config.threads {
            let server = Arc::clone(self);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("{}-t{}", self.config.address(), t))
                    .spawn(move || server.run_thread(t))
                    .expect("failed to spawn server thread"),
            );
        }
        // Wait until every thread has registered its listeners so clients can
        // connect immediately after this returns.
        while self.threads_running.load(Ordering::SeqCst) < self.config.threads {
            std::thread::yield_now();
        }
        ServerHandle {
            server: Arc::clone(self),
            joins,
        }
    }

    /// Requests shutdown of all dispatch threads.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Wakes every parked dispatch thread.  Call after publishing state
    /// they must act on (a migration role, a pend flush, shutdown).
    pub(crate) fn wake_all(&self) {
        for mailbox in self.mailboxes.iter() {
            mailbox.notify();
        }
    }

    /// Tells dispatch threads to re-check their pended batches against the
    /// ownership map (which the caller has already updated).
    pub(crate) fn bump_pend_flush(&self) {
        self.pend_flush_epoch.fetch_add(1, Ordering::SeqCst);
        self.wake_all();
    }

    /// The hand-off point for connections accepted elsewhere: dispatch
    /// thread `t` of this server.
    pub fn dispatch_handle(&self, t: usize) -> DispatchHandle {
        DispatchHandle {
            mailbox: Arc::clone(&self.mailboxes[t % self.mailboxes.len()]),
            lat: self.kv_latency.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch loop
    // ------------------------------------------------------------------

    fn run_thread(self: Arc<Self>, thread_id: usize) {
        let session = self.store.start_session();
        let mailbox = Arc::clone(&self.mailboxes[thread_id]);
        let mig_address = self.migration_address(thread_id);
        let kv_listener = self
            .net
            .listen_with_waker(&self.thread_address(thread_id), mailbox.waker());
        let mig_listener = self.net.listen_with_waker(&mig_address, mailbox.waker());
        self.threads_running.fetch_add(1, Ordering::SeqCst);

        let mut conns = ConnTable::new(Arc::clone(&mailbox));
        let mut pending: Vec<PendingBatch> = Vec::new();
        let mut source_state = SourceThreadState::new(thread_id);
        let mut pend_flush_seen = self.pend_flush_epoch.load(Ordering::SeqCst);
        let mut cadence = Cadence {
            last_work: Instant::now(),
            armed: false,
        };
        let mut unparked = UnparkedWatch::default();

        while !self.shutdown.load(Ordering::SeqCst) {
            // Mark an operation-sequence boundary for this thread: every batch
            // accepted in earlier iterations has fully completed by now.
            self.loop_generation[thread_id].fetch_add(1, Ordering::SeqCst);
            let pass_start = Instant::now();

            // New readiness and new connections.
            conns.poll(Some(Duration::ZERO));
            let mut did_work = conns.adopt_from_mailbox();
            for conn in kv_listener.accept_all() {
                did_work = true;
                let io = Framed::new(Box::new(conn), MAX_FRAME_BYTES, None);
                conns.insert(Link::Kv(ServedKvLink::new(io, self.kv_latency.clone())));
            }
            for conn in mig_listener.accept_all() {
                did_work = true;
                let io = Framed::new(Box::new(conn), MAX_FRAME_BYTES, None);
                let label = format!("{mig_address} (accepted)");
                conns.insert(Link::Mig(PeerLink::accepted(io, label)));
            }

            // Client request batches and migration messages from peers:
            // read, decode, execute and answer, connection by connection.
            let mut served_ops = 0;
            let (served, served_sockets) = conns.serve_ready(|id, link| match link {
                Link::Kv(link) => self.serve_kv(id, link, &mut pending, &session, &mut served_ops),
                Link::Mig(link) => self.serve_mig(pass_start, link, &session),
            });
            did_work |= served;

            // A cancelled incoming migration orphans batches that pended for
            // the (no longer owned) migrating ranges: reject them so their
            // clients re-route to the post-cancellation owner, instead of
            // answering from a store that only received part of the data.
            let flush_epoch = self.pend_flush_epoch.load(Ordering::SeqCst);
            if flush_epoch != pend_flush_seen {
                pend_flush_seen = flush_epoch;
                did_work |= self.reject_unowned_pending(&mut pending, &mut conns);
            }

            // Retry pending operations (bounded per iteration).
            did_work |= self.retry_pending(&mut pending, &mut conns, &session);

            // Contribute this thread's share of any outgoing migration; on
            // thread 0, step the source machine.
            did_work |= self.drive_outgoing(pass_start, &mut source_state, &session);
            // Thread 0 also gives the target machine its tick, which cancels
            // an incoming migration whose source has gone silent.
            if thread_id == 0 && self.incoming_active.load(Ordering::Relaxed) {
                did_work |= self.drive_target(pass_start, TargetEvent::Tick, None, &session);
            }

            // Connections that closed, failed or stopped reading this
            // iteration go, and take the batches pended on them along.
            for id in conns.reap() {
                pending.retain(|batch| {
                    let gone = batch.conn == id;
                    if gone {
                        self.pending_gauge.sub(batch.unresolved.len() as u64);
                        self.park.pended_dropped.inc();
                    }
                    !gone
                });
            }

            // Let global cuts (view changes, checkpoints, log maintenance)
            // make progress.  Ends unprotected, so a parked thread never
            // holds a cut up.
            session.refresh();

            // While a batch is pended or the server holds a migration role,
            // keep the spin-and-yield cadence: pends resolve, heartbeats go
            // out, liveness deadlines are checked and `loop_generation`
            // advances exactly as if the thread never parked.
            let blocker = self.park_blocker(pending.len());
            match &blocker {
                Some(why) if !did_work => unparked.observe(why, self.id(), thread_id),
                Some(_) => {}
                None => unparked = UnparkedWatch::default(),
            }
            // Passes that serve sockets start a tick apart (see `PASS_TICK`),
            // unless a per-pass bound left input behind.
            let paced = (served_sockets && !conns.has_backlog()).then_some(served_ops);
            let was_armed = cadence.armed;
            let next = cadence.after_pass(pass_start, did_work, paced, blocker.is_some());
            if was_armed && next != NextLook::Park {
                mailbox.set_parked(false);
            }
            match next {
                NextLook::Now => {}
                NextLook::WaitUntil(until) => {
                    self.park.paced.inc();
                    wait_until(until);
                }
                NextLook::Yield => std::thread::yield_now(),
                // Raise the flag, then look for work once more: whatever is
                // published from here on comes with a reactor wake.
                NextLook::Arm => mailbox.set_parked(true),
                NextLook::Park => {
                    // A cut whose last straggler was another thread's
                    // unprotect may have nobody left to run its action; we
                    // are unprotected now.
                    self.store.epoch().try_drain();
                    self.park.parks.inc();
                    let parked_at = Instant::now();
                    let (signalled, sockets) = conns.poll(None);
                    self.park.park_us.record(parked_at.elapsed());
                    mailbox.set_parked(false);
                    if signalled {
                        self.park.wakes_signal.inc();
                    }
                    if sockets > 0 {
                        self.park.wakes_socket.inc();
                    }
                }
            }
        }

        self.net.unlisten(&self.thread_address(thread_id));
        self.net.unlisten(&mig_address);
        self.threads_running.fetch_sub(1, Ordering::SeqCst);
    }

    /// Why this thread may not park right now, if anything.
    fn park_blocker(&self, pended: usize) -> Option<ParkBlocker> {
        let role = if self.outgoing.read().is_some() {
            Some("outgoing")
        } else if self.incoming_active.load(Ordering::SeqCst) {
            Some("incoming")
        } else {
            None
        };
        (pended > 0 || role.is_some()).then_some(ParkBlocker { pended, role })
    }

    /// One service pass over a client connection: every batch the link
    /// yields is executed and answered before the next is decoded.
    fn serve_kv(
        &self,
        id: ConnId,
        link: &mut ServedKvLink,
        pending: &mut Vec<PendingBatch>,
        session: &FasterSession,
        served_ops: &mut usize,
    ) -> Result<bool, ()> {
        link.begin_pass();
        let mut progressed = false;
        while let Some(batch) = link.try_recv_batch().map_err(|_| ())? {
            progressed = true;
            *served_ops += batch.ops.len();
            self.process_batch(batch, id, link, pending, session)
                .map_err(|_| ())?;
            // Each reply leaves as soon as it exists, so the client works on
            // it while the next batch executes.
            link.flush().map_err(|_| ())?;
        }
        Ok(progressed)
    }

    /// Drains one migration connection from a peer server.  Messages the
    /// peer sent before hanging up are handled before the close ends the
    /// connection.
    fn serve_mig(
        self: &Arc<Self>,
        now: Instant,
        link: &mut PeerLink,
        session: &FasterSession,
    ) -> Result<bool, ()> {
        let mut progressed = false;
        while let Some(msg) = link.recv_migration().map_err(|_| ())? {
            progressed = true;
            self.handle_migration_msg(now, msg, link, session);
        }
        Ok(progressed)
    }

    // ------------------------------------------------------------------
    // Batch processing
    // ------------------------------------------------------------------

    fn validate_batch(&self, batch: &RequestBatch) -> bool {
        match self.config.ownership_check {
            OwnershipCheck::ViewValidation => batch.view == self.serving_view(),
            OwnershipCheck::HashValidation => {
                // Per-key hash-range membership check (the costly baseline of
                // Figure 15).  The view is still consulted so that migration
                // cut-over remains correct.
                if batch.view != self.serving_view() {
                    return false;
                }
                let owned = self.owned.read();
                batch
                    .ops
                    .iter()
                    .all(|op| owned.contains(KeyHash::of(op.key()).raw()))
            }
        }
    }

    fn process_batch(
        &self,
        batch: RequestBatch,
        conn: ConnId,
        link: &mut ServedKvLink,
        pending: &mut Vec<PendingBatch>,
        session: &FasterSession,
    ) -> Result<(), TransportError> {
        if !self.validate_batch(&batch) {
            return link.send_reply(BatchReply::Rejected {
                seq: batch.seq,
                server_view: self.serving_view(),
            });
        }
        let mut results: Vec<Option<KvResponse>> = vec![None; batch.ops.len()];
        let mut unresolved: Vec<(usize, KvRequest)> = Vec::new();
        for (i, op) in batch.ops.into_iter().enumerate() {
            match self.execute_op(&op, false, session) {
                ExecOutcome::Done(resp) => results[i] = Some(resp),
                ExecOutcome::Pend => {
                    self.pending_gauge.add(1);
                    self.total_pended.inc();
                    unresolved.push((i, op));
                }
            }
        }
        if unresolved.is_empty() {
            return link.send_reply(BatchReply::Executed {
                seq: batch.seq,
                results: results.into_iter().map(|r| r.unwrap()).collect(),
            });
        }
        pending.push(PendingBatch {
            conn,
            seq: batch.seq,
            results,
            unresolved,
        });
        Ok(())
    }

    /// Answers a pended batch on the connection it came from; a batch whose
    /// connection is gone is dropped and counted.
    fn reply_pended(&self, conns: &mut ConnTable, conn: ConnId, reply: BatchReply) {
        if !conns.reply(conn, reply) {
            self.park.pended_dropped.inc();
        }
    }

    /// Retries pending operations; completes and replies to batches whose
    /// operations have all resolved.  Returns `true` if any progress was made.
    fn retry_pending(
        &self,
        pending: &mut Vec<PendingBatch>,
        conns: &mut ConnTable,
        session: &FasterSession,
    ) -> bool {
        if pending.is_empty() {
            return false;
        }
        let mut budget = self.config.migration.pending_retries_per_iteration;
        let mut progressed = false;
        for batch in pending.iter_mut() {
            if budget == 0 {
                break;
            }
            let mut still_unresolved = Vec::with_capacity(batch.unresolved.len());
            for (idx, op) in batch.unresolved.drain(..) {
                if budget == 0 {
                    still_unresolved.push((idx, op));
                    continue;
                }
                budget -= 1;
                match self.execute_op(&op, true, session) {
                    ExecOutcome::Done(resp) => {
                        batch.results[idx] = Some(resp);
                        self.pending_gauge.sub(1);
                        progressed = true;
                    }
                    ExecOutcome::Pend => still_unresolved.push((idx, op)),
                }
            }
            batch.unresolved = still_unresolved;
        }
        // Reply to fully resolved batches.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].unresolved.is_empty() {
                let done = pending.swap_remove(i);
                let results = done.results.into_iter().map(|r| r.unwrap()).collect();
                let seq = done.seq;
                self.reply_pended(conns, done.conn, BatchReply::Executed { seq, results });
                progressed = true;
            } else {
                i += 1;
            }
        }
        progressed
    }

    /// Fails over pending batches that reference hashes this server no
    /// longer owns (their migration was cancelled out from under them).
    /// Answering such a batch locally could serve a miss — or a partially
    /// migrated value — for a key the rolled-back owner still holds, so:
    ///
    /// * a batch with **no** executed operations gets a standard view
    ///   rejection — the client refreshes ownership and re-routes every
    ///   operation to the post-cancellation owner;
    /// * a batch where some operations **already executed** is kept — a
    ///   rejection would make the client re-issue the executed ones
    ///   (double-applying RMWs).  Only the orphaned operations complete,
    ///   with a typed error (their issuer retries explicitly); still-owned
    ///   pending operations keep pending and resolve normally.
    pub(crate) fn reject_unowned_pending(
        &self,
        pending: &mut Vec<PendingBatch>,
        conns: &mut ConnTable,
    ) -> bool {
        if pending.is_empty() {
            return false;
        }
        let view = self.serving_view();
        let owned = self.owned.read();
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            let batch = &mut pending[i];
            let has_orphan = batch
                .unresolved
                .iter()
                .any(|(_, op)| !owned.contains(KeyHash::of(op.key()).raw()));
            if !has_orphan {
                i += 1;
                continue;
            }
            if batch.results.iter().all(|r| r.is_none()) {
                let batch = pending.swap_remove(i);
                self.pending_gauge.sub(batch.unresolved.len() as u64);
                let rejected = BatchReply::Rejected {
                    seq: batch.seq,
                    server_view: view,
                };
                self.reply_pended(conns, batch.conn, rejected);
                progressed = true;
                continue;
            }
            // Partially executed: fail exactly the orphaned operations.
            let unresolved = std::mem::take(&mut batch.unresolved);
            for (idx, op) in unresolved {
                if owned.contains(KeyHash::of(op.key()).raw()) {
                    batch.unresolved.push((idx, op));
                } else {
                    batch.results[idx] = Some(KvResponse::Error(
                        "hash range no longer owned (migration cancelled); \
                         retry against the current owner"
                            .into(),
                    ));
                    self.pending_gauge.sub(1);
                    progressed = true;
                }
            }
            if batch.unresolved.is_empty() {
                let done = pending.swap_remove(i);
                let results = done.results.into_iter().map(|r| r.unwrap()).collect();
                let seq = done.seq;
                self.reply_pended(conns, done.conn, BatchReply::Executed { seq, results });
            } else {
                i += 1;
            }
        }
        progressed
    }

    /// Executes one operation.  `is_retry` permits slow work (shared-tier
    /// fetches) that the first attempt defers by pending the operation.
    fn execute_op(&self, op: &KvRequest, is_retry: bool, session: &FasterSession) -> ExecOutcome {
        let key = op.key();
        let hash = KeyHash::of(key).raw();

        // Target-side pending rules while an incoming migration is active.
        // The atomic flag keeps the common (no migration) case lock-free.
        let pend_mode = if self.incoming_active.load(Ordering::Relaxed) {
            self.incoming.lock().pend_mode(hash)
        } else {
            None
        };
        if let Some(PendMode::PendAll) = pend_mode {
            return ExecOutcome::Pend;
        }

        match op {
            KvRequest::Upsert { key, value } => match session.upsert(*key, value) {
                Ok(()) => ExecOutcome::Done(KvResponse::Ok),
                Err(e) => ExecOutcome::Done(KvResponse::Error(e.to_string())),
            },
            KvRequest::Delete { key } => match session.delete(*key) {
                Ok(existed) => ExecOutcome::Done(KvResponse::Deleted(existed)),
                Err(e) => ExecOutcome::Done(KvResponse::Error(e.to_string())),
            },
            KvRequest::Read { key } => {
                // The store's floors decide what is live: a version this
                // server kept from before it took the range reads as absent.
                let mut outcome = session.read_outcome(*key);
                let mut resolved = false;
                if let Ok(ReadOutcome::Found { record, .. }) = &outcome {
                    if record.is_indirection() {
                        if !is_retry {
                            // Defer the shared-tier access: the op pends and
                            // a later retry performs the fetch (paper
                            // §3.3.2).
                            return ExecOutcome::Pend;
                        }
                        outcome = match self.resolve_indirections(*key, session) {
                            Ok(IndirectionFetch::Resolved) => session.read_outcome(*key),
                            Ok(IndirectionFetch::Missing) => Ok(ReadOutcome::NotFound),
                            // A chain could not be read (its log is out of
                            // reach, or a read was refused): the record is
                            // not resolvable *yet*, which must never be
                            // reported as a miss.  Stay pending and retry.
                            Ok(IndirectionFetch::Unavailable) => return ExecOutcome::Pend,
                            Err(e) => Err(e),
                        };
                        resolved = true;
                    }
                }
                match outcome {
                    // The fetched record did not make it into the store.
                    Ok(ReadOutcome::Found { record, .. }) if record.is_indirection() => {
                        ExecOutcome::Pend
                    }
                    Ok(ReadOutcome::Found { record, .. }) => {
                        ExecOutcome::Done(KvResponse::Value(Some(record.value)))
                    }
                    // The record may simply not have been migrated yet.
                    Ok(ReadOutcome::NotFound)
                        if pend_mode == Some(PendMode::PendMissing) && !resolved =>
                    {
                        ExecOutcome::Pend
                    }
                    Ok(ReadOutcome::NotFound) => ExecOutcome::Done(KvResponse::Value(None)),
                    Err(e) => ExecOutcome::Done(KvResponse::Error(e.to_string())),
                }
            }
            KvRequest::RmwAdd { key, delta } => {
                let pend_missing = pend_mode == Some(PendMode::PendMissing);
                self.rmw_add(*key, *delta, pend_missing, is_retry, session)
            }
        }
    }

    /// Applies an RMW in one walk of the key's chain: to the live record if
    /// there is one, else to a zeroed 256-byte initial value (YCSB-F
    /// semantics).  A live indirection record is resolved first, as a read
    /// resolves it; an absent key pends while `pend_missing`, since its
    /// record may simply not have been migrated yet.
    fn rmw_add(
        &self,
        key: u64,
        delta: u64,
        pend_missing: bool,
        is_retry: bool,
        session: &FasterSession,
    ) -> ExecOutcome {
        const INITIAL: [u8; 256] = [0; 256];
        let initial = (!pend_missing).then_some(&INITIAL[..]);
        let mut outcome = session.rmw_add_outcome(key, delta, initial);
        if let Ok(RmwOutcome::Indirection) = outcome {
            if !is_retry {
                return ExecOutcome::Pend;
            }
            match self.resolve_indirections(key, session) {
                Ok(IndirectionFetch::Resolved) => {}
                // No chain holds the key: a tombstone says so, and the add
                // starts from the initial value above it.
                Ok(IndirectionFetch::Missing) => self.insert_fetched(key, &[], true, session),
                Ok(IndirectionFetch::Unavailable) => return ExecOutcome::Pend,
                Err(e) => return ExecOutcome::Done(KvResponse::Error(e.to_string())),
            }
            outcome = session.rmw_add_outcome(key, delta, Some(&INITIAL));
        }
        match outcome {
            Ok(RmwOutcome::Applied(counter)) => ExecOutcome::Done(KvResponse::Counter(counter)),
            // Absent while missing keys pend, or the fetched record did not
            // make it into the store.
            Ok(RmwOutcome::Absent | RmwOutcome::Indirection) => ExecOutcome::Pend,
            Err(e) => ExecOutcome::Done(KvResponse::Error(e.to_string())),
        }
    }

    /// Fetches the record for `key` through the indirection records covering
    /// it, reading their chains with the installed [`TierService`], and
    /// inserts what it finds, a tombstone too.  The chains are walked fewest
    /// [`IndirectionRecord::hops`] (newest data) first, the covering records
    /// and the nested ones met on their chains in one order: a record's
    /// place in a chain says nothing.  Each chain is walked down to its
    /// floor, and, as in the store, an exact-key record there beats the
    /// indirections on it.  A read the tier cannot serve leaves the key
    /// [`IndirectionFetch::Unavailable`], never missing.
    fn resolve_indirections(
        &self,
        key: u64,
        session: &FasterSession,
    ) -> shadowfax_faster::Result<IndirectionFetch> {
        let found = self.store.indirections_for(key, session)?;
        if found.is_empty() {
            // None covers the key any more: a live record of it arrived
            // since the first walk.
            return Ok(IndirectionFetch::Resolved);
        }
        let mut chains: Vec<IndirectionRecord> = found
            .iter()
            .filter_map(|r| IndirectionRecord::decode_value(r.value()))
            .collect();
        let tier = self.tier_service.read().clone();
        let hash = KeyHash::of(key).raw();
        let mut steps = 0;
        while let Some(next) = (0..chains.len()).min_by_key(|&i| chains[i].hops) {
            let chain = chains.swap_remove(next);
            let (log, mut addr) = (chain.source_log, chain.chain_address);
            while addr.is_valid() && addr >= chain.floor {
                steps += 1;
                let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
                if steps > 1_000_000 || tier.read_log(log, addr.raw(), &mut header_bytes).is_err() {
                    // A cycle, or a log that cannot be read now: the record
                    // may exist where the walk could not reach.
                    return Ok(IndirectionFetch::Unavailable);
                }
                let header = RecordHeader::decode(&header_bytes);
                if header.is_null() {
                    break;
                }
                let at = addr.raw() + RECORD_HEADER_BYTES as u64;
                addr = header.prev;
                let indirection = header.flags.contains(RecordFlags::INDIRECTION);
                let exact = header.key == key && !indirection;
                if header.flags.contains(RecordFlags::INVALID) || !(exact || indirection) {
                    continue;
                }
                let mut value = vec![0u8; header.value_len as usize];
                if !value.is_empty() && tier.read_log(log, at, &mut value).is_err() {
                    return Ok(IndirectionFetch::Unavailable);
                }
                if exact {
                    self.indirection_fetches.inc();
                    let tombstone = header.flags.contains(RecordFlags::TOMBSTONE);
                    self.insert_fetched(key, &value, tombstone, session);
                    return Ok(IndirectionFetch::Resolved);
                }
                // A nested record's hops count from the server whose log
                // holds it.
                let nested = IndirectionRecord::decode_value(&value);
                if let Some(nested) = nested.filter(|n| n.range.contains(hash)) {
                    let hops = chain.hops + nested.hops;
                    chains.push(IndirectionRecord { hops, ..nested });
                }
            }
        }
        Ok(IndirectionFetch::Missing)
    }

    /// Caches a version fetched through an indirection record, unless the
    /// key has a live local version ([`Faster::insert_unless_live`]).
    fn insert_fetched(&self, key: u64, value: &[u8], tombstone: bool, session: &FasterSession) {
        let flags = if tombstone {
            RecordFlags::TOMBSTONE
        } else {
            RecordFlags::empty()
        };
        let inserted = self.store.insert_unless_live(key, value, flags, session);
        self.check_insert(inserted, &self.chain_insert_failed, "fetched", key);
    }

    /// Counts, next to its siblings, and reports an insert made on a peer's
    /// behalf that the store refused.
    pub(crate) fn check_insert<T, E: std::fmt::Display>(
        &self,
        inserted: Result<T, E>,
        failed: &Counter,
        what: &str,
        key: u64,
    ) {
        if let Err(e) = inserted {
            failed.inc();
            eprintln!(
                "server {}: failed to insert {what} record for key {key} ({e})",
                self.id()
            );
        }
    }
}

/// How far apart a dispatch thread's looks at its sockets are while they
/// keep finding work: a pass serves everything that is ready, and if a
/// socket was among it the thread waits (on its CPU, yielding) until one
/// tick after the pass began before it looks again; the tick is
/// [`SYNC_TICK`] after a pass of at most [`SYNC_PASS_OPS`] operations.  A
/// pass that took longer than a tick, leaves input behind a per-pass bound,
/// runs under a pend or a migration role, or served only in-process pipes
/// (which have no hypervisor between them and their client) is followed by
/// the next at once.  An idle pass yields and looks again until
/// [`LOOK_WINDOW`] after the last pass that found work began, then parks.
///
/// This is a fixed interrupt-throttle rate (2,000 looks per second), and it
/// is there for steadiness, not speed.  Unpaced, the thread either parks
/// between the batches of a pipelined session, and then every batch pays a
/// vCPU halt and an IPI wake whose cost the hypervisor decides, or it polls
/// flat out, and then throughput is whatever two CPU-bound loops (client
/// and server) happen to sustain; both vary by 5-25% from one run to the
/// next on the 2-vCPU benchmark host, and more when the host is busy.
/// Paced, a session with a full pipeline gets exactly one pipeline served
/// per tick as long as client and server each finish their share inside
/// it, so its throughput is `ops in flight / PASS_TICK`, set by the clock
/// (8 x 64 operations in flight: at most 1.02M ops/s; the benchmark's
/// pipelined rows run at 0.81M-1.0M, 1-6% between quartiles).
/// The tick is sized for slack, which is what absorbs a slow phase of the
/// host, and the spilled rows have little of it.  On that host, serving
/// 8 x 64 in-memory reads and RMWs takes about 130 us of it.  A pass of
/// 8 x 64 reads of a spilled log averages 385-435 us, and 7-20% of them
/// overrun the tick.  One of 8 x 64 upserts into a spilling log averages
/// 400-450 us, 13-24% over; a quarter of it is page flushes, about 52 us
/// a page, most of it first-touch faults on the one buffer each page is
/// copied into.  (Timed pass start to end-of-pass decision, three 10 s
/// runs of each benchmark row; while every flushed page was copied three
/// times the upsert pass averaged 500-560 us and 40-53% overran.)  An
/// upsert's chain walk reads only headers and stops at the read-only
/// address; a walk that copied every record down into the stable region
/// made that pass 410-580 us on its own.  The price: a request that
/// arrives just after a pass waits up to one tick, and a session needs
/// `rate x PASS_TICK` operations in flight to reach `rate`.
const PASS_TICK: Duration = Duration::from_micros(500);

/// How long an idle dispatch thread keeps looking (yielding between looks)
/// after the last pass that found work began, before it parks.  Longer than
/// [`PASS_TICK`]: an open-loop client whose next batch is due a little
/// after a tick finds the thread still looking, not halted, and pays no
/// wake.  On the 2-vCPU benchmark host a 500 us window raised the p95 of
/// `rmw-zipf-rate` (150k ops/s, open loop) in 5 of 6 paired runs, median
/// 357 -> 579 us.  The price: up to 750 us of one core after each burst.
const LOOK_WINDOW: Duration = Duration::from_micros(750);

/// The tick after a pass that served at most [`SYNC_PASS_OPS`] operations,
/// which is what synchronous clients send.  Such a client's next request
/// comes one loopback round trip after the reply (13-20 us on the 2-vCPU
/// benchmark host), inside this tick, so it gets one round trip per tick,
/// set by the clock as a pipeline's throughput is by [`PASS_TICK`].  A
/// request that misses the look is served by the idle looks that follow.
const SYNC_TICK: Duration = Duration::from_micros(50);

/// The most operations a pass may serve and still be paced by
/// [`SYNC_TICK`]: a handful, whose service fits well inside that tick; a
/// pipelined batch holds more.
const SYNC_PASS_OPS: usize = 8;

/// What a dispatch thread does after a pass: look again at once, wait out
/// a tick and look, yield the CPU and look, raise the mailbox's parked flag
/// and look once more, or block in the reactor until a socket or a notify
/// wakes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextLook {
    Now,
    WaitUntil(Instant),
    Yield,
    Arm,
    Park,
}

/// What a dispatch thread's cadence remembers from pass to pass.
struct Cadence {
    /// When the last pass that did work began.
    last_work: Instant,
    /// The mailbox's parked flag is up and one more look for work is owed
    /// before blocking (see `dispatch` on lost wake-ups).
    armed: bool,
}

impl Cadence {
    /// The end-of-pass decision for a pass that began at `now`.  `paced`
    /// is the number of operations the pass served if it served a socket
    /// and left no input behind.  Work is followed at once while `blocked`
    /// (a pend, a migration role) or unpaced, else after its tick.  An idle
    /// pass yields while `blocked` or within [`LOOK_WINDOW`] of the last
    /// work, then arms, and the next idle pass parks.  Only `Arm` leaves
    /// the flag up.
    fn after_pass(
        &mut self,
        now: Instant,
        did_work: bool,
        paced: Option<usize>,
        blocked: bool,
    ) -> NextLook {
        if did_work {
            self.last_work = now;
        }
        let next = if blocked {
            if did_work {
                NextLook::Now
            } else {
                NextLook::Yield
            }
        } else if did_work {
            match paced {
                Some(ops) if ops <= SYNC_PASS_OPS => NextLook::WaitUntil(now + SYNC_TICK),
                Some(_) => NextLook::WaitUntil(now + PASS_TICK),
                None => NextLook::Now,
            }
        } else if now - self.last_work < LOOK_WINDOW {
            NextLook::Yield
        } else if self.armed {
            NextLook::Park
        } else {
            NextLook::Arm
        };
        self.armed = next == NextLook::Arm;
        next
    }
}

/// Waits until `until`.  Never sleeps: a timer wake of a halted vCPU is as
/// unsteady as the IPI wake the tick is there to avoid.  Yields, so
/// whatever else is runnable on this CPU (a control I/O thread, a sibling
/// server process) gets it meanwhile.
fn wait_until(until: Instant) {
    while Instant::now() < until {
        std::thread::yield_now();
    }
}

enum ExecOutcome {
    Done(KvResponse),
    Pend,
}

/// Why an idle dispatch thread keeps spinning instead of parking.
struct ParkBlocker {
    pended: usize,
    role: Option<&'static str>,
}

impl std::fmt::Display for ParkBlocker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.pended, self.role) {
            (0, Some(role)) => write!(f, "migration role: {role}"),
            (n, None) => write!(f, "{n} pended batches"),
            (n, Some(role)) => write!(f, "{n} pended batches, migration role: {role}"),
        }
    }
}

/// Logs once, at WARN, when an idle dispatch thread has been kept from
/// parking for longer than [`UnparkedWatch::LIMIT`].
#[derive(Default)]
struct UnparkedWatch {
    since: Option<Instant>,
    logged: bool,
}

impl UnparkedWatch {
    const LIMIT: Duration = Duration::from_secs(1);

    fn observe(&mut self, why: &ParkBlocker, server: ServerId, thread: usize) {
        let since = *self.since.get_or_insert_with(Instant::now);
        if !self.logged && since.elapsed() > Self::LIMIT {
            self.logged = true;
            eprintln!(
                "WARN sv{}-t{thread}: not parking for over {:?}: {why}",
                server.0,
                Self::LIMIT
            );
        }
    }
}

/// What resolving an indirection record produced.
enum IndirectionFetch {
    /// The key's record (a tombstone included) was fetched and inserted
    /// locally.
    Resolved,
    /// The chain holds no live record for the key.
    Missing,
    /// A chain could not be read right now (its log unreachable, or a read
    /// refused); the operation must stay pending.
    Unavailable,
}

/// Join handle for a server's dispatch threads.
pub struct ServerHandle {
    server: Arc<Server>,
    joins: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("server", &self.server.id())
            .field("threads", &self.joins.len())
            .finish()
    }
}

impl ServerHandle {
    /// The server being run.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stops the dispatch threads and waits for them to exit.
    pub fn shutdown(self) {
        self.server.request_shutdown();
        for j in self.joins {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::ClientConfig;
    use crate::hash_range::HashRange;
    use crate::ServerId;
    use shadowfax_faster::Address;
    use shadowfax_storage::DeviceError;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    /// A shared tier of real log bytes: each chain is written as the hybrid
    /// log writes it, header then value at the record's address, and reads
    /// of the logs in `failing` fail, as reads of a log out of reach do.
    /// Reads are traced by log, so a test sees which chains a walk visited.
    struct ByteTier {
        logs: Arc<SharedBlobTier>,
        failing: HashSet<u64>,
        visited: Mutex<Vec<u64>>,
    }

    /// One record of a chain: key, flags, value.
    type Rec = (u64, RecordFlags, Vec<u8>);

    impl ByteTier {
        fn new(failing: &[u64]) -> Arc<Self> {
            Arc::new(ByteTier {
                logs: SharedBlobTier::new(1 << 20),
                failing: failing.iter().copied().collect(),
                visited: Mutex::new(Vec::new()),
            })
        }

        /// Appends `records`, oldest first, to `log` as one chain and
        /// returns the address of its newest record.
        fn chain(&self, log: u64, records: &[Rec]) -> u64 {
            let log = LogId(log);
            let mut addr = self.logs.written_extent_of(log).unwrap_or(0).max(64);
            let mut prev = 0;
            for (key, flags, value) in records {
                let header = RecordHeader {
                    prev: Address::new(prev),
                    flags: *flags,
                    version: 1,
                    value_len: value.len() as u32,
                    key: *key,
                };
                let mut buf = vec![0u8; RECORD_HEADER_BYTES + value.len()];
                header.encode_into(&mut buf);
                buf[RECORD_HEADER_BYTES..].copy_from_slice(value);
                self.logs.write_log(log, addr, &buf).unwrap();
                prev = addr;
                addr += buf.len().next_multiple_of(64) as u64;
            }
            prev
        }

        /// The logs read so far, in order, a repeat of the one before not
        /// counted.
        fn visited(&self) -> Vec<u64> {
            self.visited.lock().clone()
        }
    }

    impl TierService for ByteTier {
        fn read_log(
            &self,
            log: LogId,
            offset: u64,
            buf: &mut [u8],
        ) -> shadowfax_storage::Result<()> {
            let mut visited = self.visited.lock();
            if visited.last() != Some(&log.0) {
                visited.push(log.0);
            }
            if self.failing.contains(&log.0) {
                return Err(DeviceError::UnknownLog(log.0));
            }
            self.logs.read_log(log, offset, buf)
        }
    }

    fn value(key: u64, value: &[u8]) -> Rec {
        (key, RecordFlags::empty(), value.to_vec())
    }

    /// An indirection record to the chain at `address` of `log`, covering
    /// every hash, down to the start of the log.
    fn pointer(log: u64, address: u64, hops: u64) -> IndirectionRecord {
        IndirectionRecord {
            range: HashRange::FULL,
            chain_address: Address::new(address),
            source_log: LogId(log),
            representative_hash: 0,
            floor: Address::new(0),
            hops,
        }
    }

    /// The indirection record as a chain holds it (under a placeholder key).
    fn nested(pointer: IndirectionRecord) -> Rec {
        (u64::MAX, RecordFlags::INDIRECTION, pointer.encode_value())
    }

    /// A two-server cluster that reads chains off `tier` and whose server 0
    /// holds `pointers`, oldest first, for each of `keys`.
    fn cluster_over(
        tier: &Arc<ByteTier>,
        keys: &[u64],
        pointers: &[IndirectionRecord],
    ) -> (Cluster, Arc<Server>) {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        cluster.set_tier_service(Arc::clone(tier) as Arc<dyn TierService>);
        let server = cluster.server(ServerId(0)).unwrap();
        let session = server.store().start_session();
        for &key in keys {
            for pointer in pointers {
                let payload = pointer.encode_value();
                let flags = RecordFlags::INDIRECTION;
                server
                    .store()
                    .insert_record(key, &payload, flags, &session)
                    .unwrap();
            }
        }
        (cluster, server)
    }

    /// A server holding two indirection records for one key (the chain its
    /// source wrote, and one the source forwarded from an earlier owner)
    /// resolves them fewest hops first, wherever each sits in its chain,
    /// and falls back to the next when one does not hold the key.
    #[test]
    fn covering_indirections_resolve_fewest_hops_first() {
        let (only_first_owner, both, only_source) = (1_001u64, 2_002u64, 3_003u64);
        // Log 51 holds the source's own writes (1 hop), log 50 the first
        // owner's (2 hops).
        let tier = ByteTier::new(&[]);
        let source = tier.chain(51, &[value(only_source, b"source"), value(both, b"newer")]);
        let first = tier.chain(
            50,
            &[value(both, b"older"), value(only_first_owner, b"first")],
        );
        // The 1-hop record sits *older* in the chain, as after a compaction
        // re-appended the 2-hop one.
        let pointers = [pointer(51, source, 1), pointer(50, first, 2)];
        let (cluster, _) = cluster_over(&tier, &[only_first_owner, both, only_source], &pointers);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(client.read(both), Some(b"newer".to_vec()));
        assert_eq!(client.read(only_first_owner), Some(b"first".to_vec()));
        assert_eq!(client.read(only_source), Some(b"source".to_vec()));
        cluster.shutdown();
    }

    /// Hop order is one order across every covering record: a nested record
    /// found on the 1-hop chain, 3 hops further on, comes after the 2-hop
    /// top-level record, so the old value behind it does not shadow the new
    /// one.
    #[test]
    fn hop_order_is_global_across_covering_records() {
        let key = 2_222u64;
        let tier = ByteTier::new(&[]);
        let old = tier.chain(70, &[value(key, b"old")]);
        let a = tier.chain(51, &[nested(pointer(70, old, 3))]);
        let b = tier.chain(50, &[value(key, b"new")]);
        let (cluster, _) = cluster_over(&tier, &[key], &[pointer(51, a, 1), pointer(50, b, 2)]);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(client.read(key), Some(b"new".to_vec()));
        assert_eq!(tier.visited(), vec![51, 50], "the 4-hop chain was read");
        cluster.shutdown();
    }

    /// An RMW on a key whose live version is an indirection record resolves
    /// it first, as a read does: it adds to the fetched counter, or, when
    /// the chain does not hold the key, starts from the zeroed value.  It
    /// never appends its own counter over the indirection unresolved.
    #[test]
    fn an_rmw_through_an_indirection_adds_to_the_fetched_counter() {
        let (held, missing) = (4_004u64, 5_005u64);
        let mut counter = vec![0u8; 256];
        counter[0..8].copy_from_slice(&40u64.to_le_bytes());
        let tier = ByteTier::new(&[]);
        let chain = tier.chain(60, &[value(held, &counter)]);
        let (cluster, _) = cluster_over(&tier, &[held, missing], &[pointer(60, chain, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(client.rmw_add(held, 2), Some(42));
        assert_eq!(client.rmw_add(held, 1), Some(43));
        assert_eq!(client.rmw_add(missing, 5), Some(5));
        assert_eq!(client.rmw_add(missing, 1), Some(6));
        let value = client.read(missing).expect("the counter was created");
        assert_eq!(value.len(), 256);
        assert_eq!(value[0..8], 6u64.to_le_bytes());
        cluster.shutdown();
    }

    /// A chain holding an indirection record (a three-process chain) is
    /// followed one nested hop on, to the log it names.
    #[test]
    fn nested_indirection_in_fetched_chain_is_followed_one_hop() {
        let key = 7_007u64;
        // The local store holds an indirection pointing at log 50; log 50's
        // chain holds only another indirection pointing at log 60, whose
        // chain holds the live record.
        let tier = ByteTier::new(&[]);
        let behind = tier.chain(60, &[value(key, b"behind-two-hops")]);
        let chain = tier.chain(50, &[nested(pointer(60, behind, 1))]);
        let (cluster, _) = cluster_over(&tier, &[key], &[pointer(50, chain, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(
            client.read(key),
            Some(b"behind-two-hops".to_vec()),
            "the nested hop was not followed"
        );
        assert_eq!(
            tier.visited(),
            vec![50, 60],
            "expected the walk to chase the nested indirection once"
        );
        cluster.shutdown();
    }

    /// The key's record below a nested indirection on the same chain is
    /// above the chain's floor, so it is live: the read returns it, and the
    /// nested chain, which does not hold the key, changes nothing.
    #[test]
    fn nested_hop_miss_falls_back_to_records_below_the_indirection() {
        let key = 8_008u64;
        let tier = ByteTier::new(&[]);
        // The nested chain has records, none for the key.
        let other = tier.chain(60, &[value(1, b"other")]);
        let chain = tier.chain(
            50,
            &[
                // Below (older than) the indirection on log 50's chain: the
                // key's newest surviving version.
                value(key, b"survivor-below"),
                nested(pointer(60, other, 1)),
            ],
        );
        let (cluster, _) = cluster_over(&tier, &[key], &[pointer(50, chain, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(client.read(key), Some(b"survivor-below".to_vec()));
        cluster.shutdown();
    }

    /// Two levels of nesting (a four-process chain) resolve by following
    /// both hops transitively instead of pending forever.
    #[test]
    fn doubly_nested_indirection_resolves_transitively() {
        let key = 9_009u64;
        let tier = ByteTier::new(&[]);
        let last = tier.chain(70, &[value(key, b"three-hops-away")]);
        let middle = tier.chain(60, &[nested(pointer(70, last, 1))]);
        let first = tier.chain(50, &[nested(pointer(60, middle, 1))]);
        let (cluster, server) = cluster_over(&tier, &[key], &[pointer(50, first, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(
            client.read(key),
            Some(b"three-hops-away".to_vec()),
            "a doubly nested chain must resolve, not pend"
        );
        assert_eq!(
            server.pending_ops(),
            0,
            "nothing should be parked in the pending set"
        );
        // Every hop of the chain was chased exactly once.
        let visited = tier.visited();
        assert_eq!(visited, vec![50, 60, 70], "walk trace: {visited:?}");
        cluster.shutdown();
    }

    /// A nested log that cannot be read keeps the operation pending: the
    /// key may live there, so the read never answers a miss.
    #[test]
    fn an_unreadable_nested_log_keeps_the_operation_pending() {
        let key = 9_119u64;
        let tier = ByteTier::new(&[60]);
        let behind = tier.chain(60, &[value(key, b"out-of-reach")]);
        let chain = tier.chain(50, &[nested(pointer(60, behind, 1))]);
        let (cluster, server) = cluster_over(&tier, &[key], &[pointer(50, chain, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        let completed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&completed);
        assert!(client.issue_read(key, Box::new(move |_| flag.store(true, Ordering::SeqCst))));
        client.flush();
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline {
            client.poll();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !completed.load(Ordering::SeqCst),
            "a read behind an unreadable log must pend, not complete"
        );
        assert!(
            server.pending_ops() > 0,
            "the read should be parked in the pending set"
        );
        assert!(tier.visited().contains(&60), "the nested log was not tried");
        cluster.shutdown();
    }

    /// A client that hangs up with a batch still pended takes the batch
    /// with it: the connection is reaped, the batch dropped and counted,
    /// and the pending gauge returns to zero instead of leaking.
    #[test]
    fn a_pended_batch_is_dropped_with_its_connection() {
        let key = 5_005u64;
        // An indirection whose chain no read can reach: the read pends
        // until the connection goes away.
        let tier = ByteTier::new(&[50]);
        let (cluster, server) = cluster_over(&tier, &[key], &[pointer(50, 64, 1)]);

        let mut client = cluster.client(ClientConfig::default());
        assert!(client.issue_read(key, Box::new(|_| {})));
        client.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.pending_ops() == 0 {
            assert!(Instant::now() < deadline, "the read never pended");
            std::thread::yield_now();
        }
        let dropped = cluster.metrics().counter("sv0.ops.pended_dropped");
        assert_eq!(dropped.value(), 0);

        drop(client);
        while dropped.value() == 0 {
            assert!(Instant::now() < deadline, "the pended batch was kept");
            std::thread::yield_now();
        }
        assert_eq!(server.pending_ops(), 0, "the pending gauge leaked");
        cluster.shutdown();
    }

    /// A nested chain whose newest record for the key is a tombstone keeps
    /// the key deleted.  The older live record on the outer chain lies
    /// below that chain's floor (its owner took the range back after
    /// writing it), so it must not be resurrected.
    #[test]
    fn nested_hop_tombstone_on_a_local_chain_is_not_resurrected() {
        let key = 6_006u64;
        let tier = ByteTier::new(&[]);
        let deleted = tier.chain(60, &[(key, RecordFlags::TOMBSTONE, Vec::new())]);
        let chain = tier.chain(
            50,
            &[
                // Older than the deletion behind the indirection.
                value(key, b"pre-delete"),
                nested(pointer(60, deleted, 1)),
            ],
        );
        let floor = Address::new(chain);
        let pointers = [IndirectionRecord {
            floor,
            ..pointer(50, chain, 1)
        }];
        let (cluster, _) = cluster_over(&tier, &[key], &pointers);

        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(
            client.read(key),
            None,
            "a deleted key must stay deleted, not resurrect its pre-delete value"
        );
        cluster.shutdown();
    }

    const US: Duration = Duration::from_micros(1);

    fn idle_since(t0: Instant) -> Cadence {
        Cadence {
            last_work: t0,
            armed: false,
        }
    }

    #[test]
    fn a_paced_pass_waits_out_the_tick_its_size_picks() {
        let t0 = Instant::now();
        let mut c = idle_since(t0);
        let sync = Some(SYNC_PASS_OPS);
        let pipeline = Some(SYNC_PASS_OPS + 1);
        assert_eq!(
            c.after_pass(t0, true, sync, false),
            NextLook::WaitUntil(t0 + SYNC_TICK)
        );
        assert_eq!(
            c.after_pass(t0, true, Some(1), false),
            NextLook::WaitUntil(t0 + SYNC_TICK)
        );
        assert_eq!(
            c.after_pass(t0, true, pipeline, false),
            NextLook::WaitUntil(t0 + PASS_TICK)
        );
        // Unpaced (in-process pipes only, or input left behind), or
        // blocked: the next look comes at once.
        assert_eq!(c.after_pass(t0, true, None, false), NextLook::Now);
        assert_eq!(c.after_pass(t0, true, pipeline, true), NextLook::Now);
        // Armed, then work: the flag comes down.
        let t1 = t0 + 20 * PASS_TICK;
        assert_eq!(c.after_pass(t1, false, None, false), NextLook::Arm);
        assert_eq!(c.after_pass(t1 + US, true, None, false), NextLook::Now);
        assert!(!c.armed);
    }

    #[test]
    fn an_idle_pass_yields_inside_the_tick_then_arms_then_parks() {
        let t0 = Instant::now();
        let mut c = idle_since(t0);
        let after_sync = t0 + SYNC_TICK;
        assert_eq!(
            c.after_pass(after_sync, false, None, false),
            NextLook::Yield
        );
        let last = t0 + LOOK_WINDOW - US;
        assert_eq!(c.after_pass(last, false, None, false), NextLook::Yield);
        assert!(!c.armed);
        // The first idle pass after the look window arms.
        assert_eq!(
            c.after_pass(t0 + LOOK_WINDOW, false, None, false),
            NextLook::Arm
        );
        assert!(c.armed);
        let spent = t0 + LOOK_WINDOW + US;
        assert_eq!(c.after_pass(spent, false, None, false), NextLook::Park);
        assert!(!c.armed);
        // Woken with nothing to do: the looking is still over.
        assert_eq!(c.after_pass(spent + US, false, None, false), NextLook::Arm);
    }

    #[test]
    fn a_blocker_yields_and_never_parks() {
        let t0 = Instant::now();
        let mut c = idle_since(t0);
        for k in 1..100u32 {
            let now = t0 + k * PASS_TICK;
            assert_eq!(c.after_pass(now, false, None, true), NextLook::Yield);
        }
        // An armed thread that picks up a blocker disarms instead of parking.
        let t1 = t0 + 200 * PASS_TICK;
        assert_eq!(c.after_pass(t1, false, None, false), NextLook::Arm);
        assert_eq!(c.after_pass(t1 + US, false, None, true), NextLook::Yield);
        assert!(!c.armed);
    }

    #[test]
    fn the_looking_restarts_after_each_pass_that_did_work() {
        let t0 = Instant::now();
        let mut c = idle_since(t0);
        let later = t0 + LOOK_WINDOW / 2;
        assert_eq!(
            c.after_pass(later, true, Some(1), false),
            NextLook::WaitUntil(later + SYNC_TICK)
        );
        // Past the window counted from `t0`, inside it counted from `later`.
        let idle = t0 + LOOK_WINDOW + US;
        assert_eq!(c.after_pass(idle, false, None, false), NextLook::Yield);
        let spent = later + LOOK_WINDOW;
        assert_eq!(c.after_pass(spent, false, None, false), NextLook::Arm);
    }

    #[test]
    fn after_a_paced_pass_the_looking_outlasts_the_tick() {
        let t0 = Instant::now();
        let mut c = idle_since(t0);
        let pipeline = Some(SYNC_PASS_OPS + 1);
        assert_eq!(
            c.after_pass(t0, true, pipeline, false),
            NextLook::WaitUntil(t0 + PASS_TICK)
        );
        // The tick is shorter than the look window: idle passes from the
        // end of the tick to the end of the window yield, and only then
        // does the thread arm.
        assert!(PASS_TICK < LOOK_WINDOW);
        let mut now = t0 + PASS_TICK;
        while now < t0 + LOOK_WINDOW {
            assert_eq!(c.after_pass(now, false, None, false), NextLook::Yield);
            now += 10 * US;
        }
        assert_eq!(
            c.after_pass(t0 + LOOK_WINDOW, false, None, false),
            NextLook::Arm
        );
    }
}
