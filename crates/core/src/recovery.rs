//! Crash recovery and migration cancellation (paper §3.3.1).
//!
//! A migration is durable only once both the source and the target have
//! checkpointed their post-migration state and marked their side complete at
//! the metadata store; until then a *migration dependency* links the two
//! servers.  If a server crashes while the dependency is unresolved, recovery
//! must involve both servers: the migration is cancelled at the metadata
//! store (ownership of the migrating ranges moves back to the source and both
//! views advance again), the surviving server takes its cancel edge and
//! adopts the post-cancellation ownership map, and the crashed
//! server is restarted from its latest checkpoint.
//!
//! Simulation notes (see DESIGN.md §1):
//!
//! * A "crash" stops the server's dispatch threads and discards the in-memory
//!   `Server`; the simulated SSD (and the shared blob tier) survive, exactly
//!   as physical devices would.
//! * The paper rolls *both* servers back to their pre-migration checkpoints
//!   and replays client requests over the recovery cut (client-assisted
//!   recovery, left as future work in the paper).  This reproduction restores
//!   only the crashed server from its checkpoint; the surviving peer keeps
//!   running and simply adopts the cancelled ownership map.  Records it had
//!   already received become unreachable duplicates on its log and are
//!   discarded by its next compaction, so no key is ever served by two owners
//!   — the property the cancellation protocol exists to protect.

use std::sync::Arc;

use shadowfax_faster::{recover_from_checkpoint, take_checkpoint, Checkpoint, Faster};
use shadowfax_net::SimNetwork;
use shadowfax_storage::{Device, LogId, SharedBlobTier};

use crate::cluster::Cluster;
use crate::config::ServerConfig;
use crate::hash_range::RangeSet;
use crate::meta::MetadataStore;
use crate::server::Server;
use crate::ServerId;

/// Everything that survives a server crash: the durable devices and the last
/// checkpoint image.  Produced by [`Cluster::crash_server`] and consumed by
/// [`Cluster::recover_server`].
pub struct CrashedServer {
    /// The crashed server's configuration (identity, threads, FASTER sizing).
    pub config: ServerConfig,
    /// The server's local SSD, which survives the crash.
    pub ssd: Arc<dyn Device>,
    /// The latest checkpoint taken before the crash, if any.
    pub checkpoint: Option<Checkpoint>,
}

impl std::fmt::Debug for CrashedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashedServer")
            .field("id", &self.config.id)
            .field("has_checkpoint", &self.checkpoint.is_some())
            .finish()
    }
}

/// What recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The migration that was cancelled because it was still in flight when
    /// the server crashed, if any.
    pub cancelled_migration: Option<u64>,
    /// The hash ranges the recovered server owns (read back from the metadata
    /// store after any cancellation).
    pub restored_ranges: RangeSet,
    /// The view number the recovered server serves in.
    pub view: u64,
    /// `true` if the server was restored from a checkpoint (otherwise it came
    /// back empty and relies on clients re-populating it).
    pub restored_from_checkpoint: bool,
}

impl Server {
    /// Takes a checkpoint of this server's store right now and keeps it as
    /// the server's recovery point.  Dispatch threads participate in the
    /// global cut from their normal loops; none of them stall.
    pub fn checkpoint_now(self: &Arc<Self>) -> Checkpoint {
        let session = self.store.start_session();
        let cp = take_checkpoint(&self.store, &session);
        *self.latest_checkpoint.lock() = Some(cp.clone());
        cp
    }

    /// The most recent checkpoint image (taken by [`Server::checkpoint_now`]
    /// or at migration completion), if any.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint> {
        self.latest_checkpoint.lock().clone()
    }

    /// Re-reads this server's view number and owned ranges from the metadata
    /// store.  Used after a migration involving this server was cancelled.
    pub fn refresh_ownership_from_meta(&self) {
        let snapshot = self.meta.snapshot();
        if let Some(m) = snapshot.server(self.id()) {
            self.serving_view
                .store(m.view, std::sync::atomic::Ordering::SeqCst);
            *self.owned.write() = m.owned.clone();
            // The ownership map changed: have dispatch threads re-check
            // their pended batches against it (a batch that pended for a
            // range this server just gave back must be rejected, not
            // answered).  Raised after `owned` is updated so the check can
            // never run against the stale map.
            self.bump_pend_flush();
        }
    }

    /// Rebuilds a server after a crash: a fresh FASTER instance is attached to
    /// the surviving SSD and shared-tier log, restored from `checkpoint` if
    /// one is available, and the server's view number and owned ranges are
    /// read back from the metadata store (which is authoritative after any
    /// migration cancellation).
    ///
    /// Unlike [`Server::new`], this does **not** register the server with the
    /// metadata store — the crashed server's registration is still there.
    // A rebuild necessarily threads every substrate handle the crashed
    // incarnation held plus the surviving SSD and checkpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        config: ServerConfig,
        meta: Arc<MetadataStore>,
        net: Arc<SimNetwork>,
        shared_tier: Arc<SharedBlobTier>,
        ssd: Arc<dyn Device>,
        checkpoint: Option<&Checkpoint>,
        metrics: Arc<shadowfax_obs::MetricsRegistry>,
    ) -> Arc<Self> {
        use parking_lot::{Mutex, RwLock};
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

        config.validate();
        let epoch = Arc::new(shadowfax_epoch::EpochManager::new());
        let shared_handle = shared_tier.handle(LogId(config.id.0 as u64));
        let store = Faster::new(config.faster, Arc::clone(&ssd), Some(shared_handle), epoch);
        if let Some(cp) = checkpoint {
            recover_from_checkpoint(&store, cp);
        }
        let snapshot = meta.snapshot();
        let (view, owned) = snapshot
            .server(config.id)
            .map(|m| (m.view, m.owned.clone()))
            .unwrap_or((1, RangeSet::empty()));
        let tier_service =
            RwLock::new(Arc::clone(&shared_tier) as Arc<dyn shadowfax_storage::TierService>);
        // Re-adopt the crashed incarnation's named instruments (cumulative
        // counters survive a crash within the process) and point the
        // store/device source at the rebuilt store.  Nothing pends in a
        // freshly recovered server, so the gauge restarts at zero.
        let instruments =
            crate::server::ServerInstruments::register(&metrics, config.id, &store, &ssd);
        instruments.pending_gauge.set(0);
        let timeline = metrics.timeline();
        Arc::new(Server {
            store,
            meta,
            net,
            shared_tier,
            tier_service,
            serving_view: AtomicU64::new(view),
            owned: RwLock::new(owned),
            mig_connector: RwLock::new(None),
            incoming: Mutex::new(crate::migration::TargetMachine::new(
                config.migration.liveness,
            )),
            outgoing: RwLock::new(None),
            incoming_active: AtomicBool::new(false),
            pend_flush_epoch: AtomicU64::new(0),
            completed_report: Mutex::new(None),
            latest_checkpoint: Mutex::new(checkpoint.cloned()),
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
            mailboxes: (0..config.threads)
                .map(|_| crate::dispatch::Mailbox::new())
                .collect(),
            park: instruments.park,
            kv_latency: instruments.kv_latency,
            shutdown: AtomicBool::new(false),
            threads_running: AtomicUsize::new(0),
            config,
        })
    }
}

impl Cluster {
    /// Simulates a crash of `id`: its dispatch threads stop, its in-memory
    /// state is discarded, and everything that would survive on real hardware
    /// — the SSD, the shared-tier log, and the last checkpoint — is returned
    /// so the server can later be brought back with
    /// [`Cluster::recover_server`].
    pub fn crash_server(&mut self, id: ServerId) -> Result<CrashedServer, String> {
        let handle = self
            .take_handle(id)
            .ok_or_else(|| format!("unknown server {id}"))?;
        let server = Arc::clone(handle.server());
        let config = server.config().clone();
        let ssd = Arc::clone(server.store().log().ssd());
        let checkpoint = server.latest_checkpoint();
        handle.shutdown();
        Ok(CrashedServer {
            config,
            ssd,
            checkpoint,
        })
    }

    /// Recovers a crashed server (paper §3.3.1).
    ///
    /// If the metadata store still holds an unresolved migration dependency
    /// involving the server, the migration is cancelled: ownership of the
    /// migrating ranges returns to the source, both views advance, and the
    /// surviving peer takes its cancel edge and adopts the post-cancellation
    /// ownership map.  The crashed server is then rebuilt
    /// from its surviving devices and checkpoint and its dispatch threads are
    /// restarted.
    pub fn recover_server(&mut self, crashed: CrashedServer) -> Result<RecoveryOutcome, String> {
        let id = crashed.config.id;
        // Step 1: cancel any migration the crash left unresolved.
        let cancelled_migration = match self.meta().pending_dependency_for(id) {
            Some(dep) => {
                let dep = self
                    .meta()
                    .cancel_migration(dep.id)
                    .map_err(|e| e.to_string())?;
                let peer = if dep.source == id {
                    dep.target
                } else {
                    dep.source
                };
                if let Some(peer) = self.server(peer) {
                    let session = peer.store().start_session();
                    let now = std::time::Instant::now();
                    peer.cancel_local_roles(now, dep.id, "peer crashed", &session);
                    peer.refresh_ownership_from_meta();
                }
                Some(dep.id)
            }
            None => None,
        };
        // Step 2: rebuild the server from its surviving devices + checkpoint.
        let restored_from_checkpoint = crashed.checkpoint.is_some();
        let server = Server::recover(
            crashed.config,
            Arc::clone(self.meta()),
            Arc::clone(self.network()),
            Arc::clone(self.shared_tier()),
            crashed.ssd,
            crashed.checkpoint.as_ref(),
            Arc::clone(self.metrics()),
        );
        let outcome = RecoveryOutcome {
            cancelled_migration,
            restored_ranges: server.owned_ranges(),
            view: server.serving_view(),
            restored_from_checkpoint,
        };
        self.push_handle(server.spawn_threads());
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::ClientConfig;

    /// Enough data to span multiple log pages, so recovery exercises both the
    /// restored-from-checkpoint frames and the fall-back-to-SSD read path for
    /// pages that were already durable when the checkpoint was taken.
    #[test]
    fn recovered_store_serves_data_from_restored_pages_and_from_the_ssd() {
        let mut cluster = Cluster::start(ClusterConfig::two_server_test());
        {
            let mut loader = cluster.client(ClientConfig::default());
            for key in 0..2000u64 {
                loader.issue_upsert(key, vec![7u8; 128], Box::new(|_| {}));
                if loader.outstanding_ops() > 2048 {
                    loader.poll();
                }
            }
            assert!(loader.drain(std::time::Duration::from_secs(60)));
        }
        let server = cluster.server(ServerId(0)).unwrap();
        let cp = server.checkpoint_now();
        assert!(cp.version >= 1);
        drop(server);

        let crashed = cluster.crash_server(ServerId(0)).unwrap();
        let outcome = cluster.recover_server(crashed).unwrap();
        assert!(outcome.restored_from_checkpoint);
        assert!(outcome.cancelled_migration.is_none());

        // Store-level reads (bypassing the network) and client-level reads
        // both see every record.
        let server = cluster.server(ServerId(0)).unwrap();
        let session = server.store().start_session();
        for key in (0..2000u64).step_by(131) {
            assert_eq!(
                session.read(key).unwrap(),
                Some(vec![7u8; 128]),
                "store-level read of key {key} failed after recovery"
            );
        }
        let mut client = cluster.client(ClientConfig::default());
        for key in (0..2000u64).step_by(173) {
            assert_eq!(client.read(key), Some(vec![7u8; 128]));
        }
        cluster.shutdown();
    }

    #[test]
    fn crash_without_checkpoint_comes_back_empty_but_owning_its_ranges() {
        let mut cluster = Cluster::start(ClusterConfig::two_server_test());
        {
            let mut client = cluster.client(ClientConfig::default());
            assert!(client.upsert(1, b"volatile".to_vec()));
        }
        let crashed = cluster.crash_server(ServerId(0)).unwrap();
        assert!(crashed.checkpoint.is_none());
        let outcome = cluster.recover_server(crashed).unwrap();
        assert!(!outcome.restored_from_checkpoint);
        assert!(!outcome.restored_ranges.is_empty());

        // The un-checkpointed write is gone, but the server serves again.
        let mut client = cluster.client(ClientConfig::default());
        assert_eq!(client.read(1), None);
        assert!(client.upsert(2, b"fresh".to_vec()));
        assert_eq!(client.read(2).as_deref(), Some(&b"fresh"[..]));
        cluster.shutdown();
    }

    #[test]
    fn crashing_an_unknown_server_is_an_error() {
        let mut cluster = Cluster::start(ClusterConfig::two_server_test());
        assert!(cluster.crash_server(ServerId(42)).is_err());
        cluster.shutdown();
    }
}
