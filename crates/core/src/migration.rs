//! The scale-out / migration protocol (paper §3.3).
//!
//! Migration moves ownership of a set of hash ranges from a *source* server
//! to a *target* server and then moves the records themselves.  It is driven
//! by the source as a sequence of phases — Sampling, Prepare, Transfer,
//! Migrate, Complete — whose transitions happen over asynchronous global cuts
//! (epoch bumps): no dispatch thread is ever stalled; each simply observes the
//! new phase between request batches.
//!
//! * **Sampling** — ownership is remapped at the metadata store (both views
//!   advance, a dependency is recorded), and the source starts copying
//!   accessed records in the migrating ranges to its log tail so a small hot
//!   set can be shipped with the ownership transfer.
//! * **Prepare** — the source tells the target that transfer is imminent
//!   (`PrepForTransfer`); the target starts pending requests for the ranges.
//! * **Transfer** — the source moves into its new view (it stops serving the
//!   ranges) and, once every thread has crossed that cut, sends
//!   `TakeOwnership` followed by `PushHotRecords` with the sampled hot
//!   records; the target starts serving the ranges immediately.
//! * **Migrate** — every source thread walks its own disjoint region of the
//!   hash table, shipping in-memory records and, for chains that extend onto
//!   the SSD, *indirection records* naming the shared-tier location
//!   (`MigrationMode::Shadowfax`), or — for the Rocksteady baseline — a
//!   single thread sequentially scans the on-SSD log afterwards.
//! * **Complete** — the source sends `CompleteMigration`, checkpoints, and
//!   marks its side complete at the metadata store; the target does the same
//!   once every shipped record has been inserted.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use shadowfax_faster::{
    take_checkpoint, Address, FasterSession, KeyHash, ReadOutcome, RecordFlags, RecordOwned,
};
use shadowfax_hlog::{LogScanner, RecordHeader, RECORD_HEADER_BYTES};
use shadowfax_net::PeerLiveness;
use shadowfax_storage::{LogId, SharedBlobTier, TierRecord, TierService};

use crate::config::MigrationMode;
use crate::hash_range::{HashRange, RangeSet};
use crate::indirection::IndirectionRecord;
use crate::messages::{MigratedItem, MigrationAckPhase, MigrationMsg};
use crate::server::{Server, ServerMigConn};
use crate::ServerId;

/// Source-side migration phases (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SourcePhase {
    /// Sampling hot records; still serving the old view.
    Sampling = 0,
    /// Told the target that transfer is imminent.
    Prepare = 1,
    /// Moved into the new view; ownership handed to the target.
    Transfer = 2,
    /// Threads are shipping records in parallel.
    Migrate = 3,
    /// (Rocksteady baseline only) a single thread is scanning the on-SSD log.
    DiskScan = 4,
    /// All records shipped; checkpointing and finishing up.
    Complete = 5,
}

impl SourcePhase {
    fn from_u8(v: u8) -> SourcePhase {
        match v {
            0 => SourcePhase::Sampling,
            1 => SourcePhase::Prepare,
            2 => SourcePhase::Transfer,
            3 => SourcePhase::Migrate,
            4 => SourcePhase::DiskScan,
            _ => SourcePhase::Complete,
        }
    }

    /// The label this phase is recorded under on the migration timeline.
    pub fn label(self) -> &'static str {
        match self {
            SourcePhase::Sampling => "sampling",
            SourcePhase::Prepare => "prepare",
            SourcePhase::Transfer => "transfer",
            SourcePhase::Migrate => "migrate",
            SourcePhase::DiskScan => "disk-scan",
            SourcePhase::Complete => "complete",
        }
    }
}

/// How the target treats requests in the migrating ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendMode {
    /// Ownership transfer is imminent but has not happened: pend everything
    /// (the target's Prepare phase).
    PendAll,
    /// The target owns the ranges; pend only operations whose record has not
    /// arrived yet (the target's Receive phase).
    PendMissing,
}

/// Target-side state for an incoming migration.
#[derive(Debug)]
pub struct IncomingMigration {
    /// Migration id assigned by the metadata store.
    pub migration_id: u64,
    /// The ranges being received.
    pub ranges: RangeSet,
    /// Current pending rule.
    pub mode: PendMode,
    /// The source server.
    pub source: ServerId,
    /// Items received so far (records + indirection records).
    pub items_received: u64,
    /// Total items the source reported in `CompleteMigration` (`None` until
    /// that message arrives).
    pub expected_items: Option<u64>,
    /// When the first migration message arrived.
    pub started: Instant,
    /// When the source was last heard from (any migration message for this
    /// id, heartbeats included).  The target declares the source dead — and
    /// cancels the migration — when this goes silent past twice the
    /// liveness deadline.
    pub last_source_msg: Instant,
}

/// A report describing a finished migration, kept for benchmarking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Migration id.
    pub migration_id: u64,
    /// Role of the reporting server.
    pub role: MigrationRole,
    /// Bytes of record data shipped out of (or into) main memory.
    pub bytes_from_memory: u64,
    /// Full records shipped.
    pub records_moved: u64,
    /// Indirection records shipped.
    pub indirection_records: u64,
    /// Bytes read from the SSD by the Rocksteady scan (0 for Shadowfax).
    pub ssd_bytes_scanned: u64,
    /// Wall-clock duration from start to completion, in milliseconds.
    pub duration_ms: u64,
}

/// Which side of a migration a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationRole {
    /// The server that gave up the ranges.
    Source,
    /// The server that received them.
    Target,
}

/// Cursor over the hash-table region one source thread is responsible for.
#[derive(Debug)]
pub(crate) struct RegionCursor {
    next_bucket: usize,
    end_bucket: usize,
}

/// Source-side migration state shared by all dispatch threads.
pub struct OutgoingMigration {
    pub(crate) migration_id: u64,
    pub(crate) target: ServerId,
    pub(crate) ranges: Vec<HashRange>,
    pub(crate) new_view: u64,
    /// The view the metadata store assigned the target; every source→target
    /// message is tagged with it.
    pub(crate) target_view: u64,
    pub(crate) mode: MigrationMode,
    pub(crate) phase: AtomicU8,
    pub(crate) started: Instant,
    /// Set once the epoch action advancing out of Sampling has been scheduled.
    pub(crate) prepare_scheduled: AtomicBool,
    pub(crate) prep_sent: AtomicBool,
    pub(crate) ownership_sent: AtomicBool,
    pub(crate) complete_sent: AtomicBool,
    /// Per-thread loop generations recorded when the serving view flipped;
    /// the hot set is read only after every thread has advanced past these.
    pub(crate) view_flip_generations: Mutex<Option<Vec<u64>>>,
    /// Per-thread hash-table regions.
    pub(crate) regions: Vec<Mutex<RegionCursor>>,
    pub(crate) regions_done: AtomicUsize,
    /// Control connection to the target (thread 0 of its migration fabric).
    pub(crate) control: Mutex<ServerMigConn>,
    /// Liveness of the target, observed on the control connection: any
    /// received message is proof of life; heartbeats guarantee traffic
    /// during quiet phases; transport errors declare death immediately.
    pub(crate) liveness: Mutex<PeerLiveness>,
    /// Rocksteady disk-scan cursor.
    pub(crate) disk_cursor: Mutex<Address>,
    // Accounting (Figure 13).
    pub(crate) bytes_from_memory: AtomicU64,
    pub(crate) records_sent: AtomicU64,
    pub(crate) indirections_sent: AtomicU64,
    pub(crate) ssd_bytes_scanned: AtomicU64,
    pub(crate) total_items: AtomicU64,
    /// The owning server's migration timeline; every phase transition is
    /// stamped here under `migration.phase` (Fig. 11 impact windows).
    pub(crate) timeline: Arc<shadowfax_obs::EventTimeline>,
}

impl std::fmt::Debug for OutgoingMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutgoingMigration")
            .field("id", &self.migration_id)
            .field("target", &self.target)
            .field("phase", &self.phase())
            .finish()
    }
}

impl OutgoingMigration {
    /// The current source phase.
    pub fn phase(&self) -> SourcePhase {
        SourcePhase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    fn set_phase(&self, p: SourcePhase) {
        self.phase.store(p as u8, Ordering::SeqCst);
        self.timeline
            .record("migration.phase", p.label(), self.migration_id);
    }
}

/// A completed outgoing migration still waiting for the target's final
/// acknowledgement (see [`Server::drive_finishing`]).
pub(crate) struct FinishingMigration {
    pub(crate) migration_id: u64,
    pub(crate) target: ServerId,
    /// Kept alive for its control connection.
    pub(crate) outgoing: Arc<OutgoingMigration>,
}

/// The result of pulling one step from a [`MigrationBatchIter`].
#[derive(Debug)]
pub enum BatchPull {
    /// A batch of records / indirection records ready to ship.
    Batch(Vec<MigratedItem>),
    /// A bounded slice of the region was scanned but a full batch has not
    /// accumulated yet; pull again.
    Pending,
    /// The thread's region is exhausted and every batch has been returned.
    Exhausted,
}

/// A pull-based iterator over the record batches one dispatch thread
/// contributes to the Migrate phase.
///
/// Each [`MigrationBatchIter::next_batch`] call scans at most
/// `buckets_per_iteration` hash-table buckets of the thread's region (so
/// migration work stays interleaved with request processing) and hands back
/// a batch once `records_per_batch` items have accumulated or the region is
/// done.  The dispatch loop pulls batches from this iterator and ships each
/// one over the thread's migration link — the transport underneath (the
/// in-process fabric or a TCP migration connection) never influences how
/// batches are produced.
pub struct MigrationBatchIter<'a> {
    server: &'a Arc<Server>,
    outgoing: &'a Arc<OutgoingMigration>,
    state: &'a mut SourceThreadState,
    session: &'a FasterSession,
}

impl<'a> MigrationBatchIter<'a> {
    pub(crate) fn new(
        server: &'a Arc<Server>,
        outgoing: &'a Arc<OutgoingMigration>,
        state: &'a mut SourceThreadState,
        session: &'a FasterSession,
    ) -> Self {
        MigrationBatchIter {
            server,
            outgoing,
            state,
            session,
        }
    }

    /// Pulls the next step: a full (or final partial) batch, a bounded
    /// amount of scanning progress, or region exhaustion.
    pub fn next_batch(&mut self) -> BatchPull {
        let thread_id = self.state.thread_id;
        let (start, end) = {
            let mut cursor = self.outgoing.regions[thread_id].lock();
            if cursor.next_bucket >= cursor.end_bucket {
                (cursor.end_bucket, cursor.end_bucket)
            } else {
                let start = cursor.next_bucket;
                let end = (start + self.server.config.migration.buckets_per_iteration)
                    .min(cursor.end_bucket);
                cursor.next_bucket = end;
                (start, end)
            }
        };
        if start < end {
            self.server
                .collect_region(self.outgoing, self.state, start..end, self.session);
        }
        let finished = {
            let cursor = self.outgoing.regions[thread_id].lock();
            cursor.next_bucket >= cursor.end_bucket
        };
        if self.state.batch.len() >= self.server.config.migration.records_per_batch
            || (finished && !self.state.batch.is_empty())
        {
            self.state.batch_bytes = 0;
            return BatchPull::Batch(std::mem::take(&mut self.state.batch));
        }
        if finished {
            BatchPull::Exhausted
        } else {
            BatchPull::Pending
        }
    }
}

/// Per-thread state used while contributing to an outgoing migration.
pub(crate) struct SourceThreadState {
    pub(crate) thread_id: usize,
    /// Lazily created connection to the target for record batches.
    pub(crate) records_conn: Option<ServerMigConn>,
    pub(crate) region_done_reported: bool,
    pub(crate) batch: Vec<MigratedItem>,
    pub(crate) batch_bytes: usize,
    /// The migration id the per-thread state belongs to (reset across
    /// migrations).
    pub(crate) migration_id: Option<u64>,
}

impl SourceThreadState {
    pub(crate) fn new(thread_id: usize) -> Self {
        SourceThreadState {
            thread_id,
            records_conn: None,
            region_done_reported: false,
            batch: Vec::new(),
            batch_bytes: 0,
            migration_id: None,
        }
    }

    fn reset_for(&mut self, migration_id: u64) {
        if self.migration_id != Some(migration_id) {
            self.migration_id = Some(migration_id);
            self.records_conn = None;
            self.region_done_reported = false;
            self.batch.clear();
            self.batch_bytes = 0;
        }
    }
}

impl Server {
    /// Starts migrating `ranges` from this server to `target` (the paper's
    /// `Migrate()` RPC, §3.3).  Returns the migration id.
    ///
    /// # Errors
    ///
    /// Fails if a migration is already in flight at this server, if the
    /// metadata store rejects the ownership transfer, or if the target cannot
    /// be reached.
    pub fn start_migration(
        self: &Arc<Self>,
        ranges: Vec<HashRange>,
        target: ServerId,
    ) -> Result<u64, String> {
        if self.outgoing.read().is_some() {
            return Err("a migration is already in progress at this server".into());
        }
        let snapshot = self.meta.snapshot();
        let target_meta = snapshot
            .server(target)
            .ok_or_else(|| format!("unknown target server {target:?}"))?
            .clone();
        // Step 1 (Sampling phase entry): atomically remap ownership, advance
        // both views, and record the recovery dependency.
        let (migration_id, new_source_view, new_target_view) = self
            .meta
            .transfer_ownership(self.id(), target, &ranges)
            .map_err(|e| e.to_string())?;
        // Step 2: start sampling hot records in the migrating ranges.
        if self.config.migration.ship_sampled_records {
            let filter_ranges = ranges.clone();
            self.store.begin_sampling(Box::new(move |hash| {
                filter_ranges.iter().any(|r| r.contains(hash))
            }));
        }
        // Control connection to the target's thread-0 migration endpoint.
        let control = match self.connect_migration(&target_meta.address, target, 0) {
            Some(control) => control,
            None => {
                // Ownership already transferred at the metadata store above;
                // cancel it, or the failed start would strand the ranges on
                // a target that never learned a migration existed.
                let _ = self.store.end_sampling();
                let _ = self.meta.cancel_migration(migration_id);
                self.refresh_ownership_from_meta();
                self.note_cancellation(migration_id, 0, 0, "target unreachable at start");
                return Err(format!(
                    "cannot connect to target {target} at {}/m0 \
                     (migration {migration_id} cancelled, ownership rolled back)",
                    target_meta.address
                ));
            }
        };

        let buckets = self.store.index().num_buckets();
        let threads = self.config.threads;
        let per = buckets.div_ceil(threads);
        let regions = (0..threads)
            .map(|t| {
                Mutex::new(RegionCursor {
                    next_bucket: t * per,
                    end_bucket: ((t + 1) * per).min(buckets),
                })
            })
            .collect();

        let outgoing = Arc::new(OutgoingMigration {
            migration_id,
            target,
            ranges,
            new_view: new_source_view,
            target_view: new_target_view,
            mode: self.config.migration.mode,
            phase: AtomicU8::new(SourcePhase::Sampling as u8),
            started: Instant::now(),
            prepare_scheduled: AtomicBool::new(false),
            prep_sent: AtomicBool::new(false),
            ownership_sent: AtomicBool::new(false),
            complete_sent: AtomicBool::new(false),
            view_flip_generations: Mutex::new(None),
            regions,
            regions_done: AtomicUsize::new(0),
            control: Mutex::new(control),
            liveness: Mutex::new(PeerLiveness::new(self.config.migration.liveness)),
            disk_cursor: Mutex::new(self.store.log().begin_address()),
            bytes_from_memory: AtomicU64::new(0),
            records_sent: AtomicU64::new(0),
            indirections_sent: AtomicU64::new(0),
            ssd_bytes_scanned: AtomicU64::new(0),
            total_items: AtomicU64::new(0),
            timeline: Arc::clone(&self.timeline),
        });
        self.timeline.record(
            "migration.phase",
            SourcePhase::Sampling.label(),
            migration_id,
        );
        *self.outgoing.write() = Some(outgoing);
        // Every dispatch thread has a share of the migration; parked ones
        // must come back to the spin cadence the protocol's cuts assume.
        self.wake_all();
        Ok(migration_id)
    }

    /// The last completed migration's report, if any (source side keeps it in
    /// the completed-report slot of the metadata-free server state).
    pub fn last_migration_report(&self) -> Option<MigrationReport> {
        self.completed_report.lock().clone()
    }

    /// Contributes this thread's share of the outgoing migration, if one is
    /// in flight.  Returns `true` if any work was done.
    pub(crate) fn drive_outgoing(
        self: &Arc<Self>,
        state: &mut SourceThreadState,
        session: &FasterSession,
    ) -> bool {
        let Some(outgoing) = self.outgoing.read().clone() else {
            return false;
        };
        state.reset_for(outgoing.migration_id);
        let is_driver = state.thread_id == 0;
        // Drain the control connection (acknowledgements, heartbeat echoes),
        // track the target's liveness, and heartbeat it.  A dead target
        // cancels the migration here — at whatever phase it was in — instead
        // of wedging the dependency at the metadata store forever.
        if is_driver && self.drive_source_liveness(&outgoing, session) {
            return true;
        }
        match outgoing.phase() {
            SourcePhase::Sampling => {
                if is_driver
                    && outgoing.started.elapsed() >= self.config.migration.sampling_duration
                    && !outgoing.prepare_scheduled.swap(true, Ordering::SeqCst)
                {
                    // Advance to Prepare over a global cut: the phase flips
                    // only after every dispatch thread has refreshed, i.e.
                    // completed its part of the Sampling phase.
                    let out = Arc::clone(&outgoing);
                    self.store.epoch().bump_with_action(move || {
                        out.set_phase(SourcePhase::Prepare);
                    });
                    return true;
                }
                false
            }
            SourcePhase::Prepare => {
                if is_driver && !outgoing.prep_sent.swap(true, Ordering::SeqCst) {
                    let target_view = outgoing.target_view;
                    let _ = outgoing
                        .control
                        .lock()
                        .send_msg(MigrationMsg::PrepForTransfer {
                            migration_id: outgoing.migration_id,
                            ranges: outgoing.ranges.clone(),
                            source: self.id(),
                            target_view,
                        });
                    // Transfer begins once every thread has completed Prepare.
                    let server = Arc::clone(self);
                    let out = Arc::clone(&outgoing);
                    self.store.epoch().bump_with_action(move || {
                        // The migration may have been cancelled (dead target)
                        // between scheduling this action and the cut
                        // completing; flipping the view for a dead migration
                        // would clobber the post-cancellation ownership map.
                        // The check synchronizes with the cancellation path
                        // on the `outgoing` slot lock: cancellation detaches
                        // the slot under the write lock before it touches
                        // the view, so whoever holds the slot wins.
                        let guard = server.outgoing.read();
                        if guard.as_ref().map(|o| o.migration_id) != Some(out.migration_id) {
                            return;
                        }
                        // Transfer-phase entry: move into the new view.  From
                        // this instant batches tagged with the old view are
                        // rejected, which pushes the cut out to clients over
                        // their sessions (paper §3.2.1).
                        server.serving_view.store(out.new_view, Ordering::SeqCst);
                        server.owned.write().remove(&out.ranges);
                        // Record each thread's position in its operation
                        // sequence; the hot set is shipped only after every
                        // thread has moved past it (the paper's global cut is
                        // taken at operation boundaries, §2.1/§3.2.1).
                        let generations = server
                            .loop_generation
                            .iter()
                            .map(|g| g.load(Ordering::SeqCst))
                            .collect();
                        *out.view_flip_generations.lock() = Some(generations);
                        out.set_phase(SourcePhase::Transfer);
                    });
                    return true;
                }
                false
            }
            SourcePhase::Transfer => {
                if !is_driver {
                    return false;
                }
                // Wait until every dispatch thread has crossed an operation
                // boundary after the view flip, so no batch accepted in the
                // old view is still applying updates.
                let cut_passed = {
                    let recorded = outgoing.view_flip_generations.lock();
                    match recorded.as_ref() {
                        Some(at_flip) => at_flip
                            .iter()
                            .enumerate()
                            .all(|(t, g)| self.loop_generation[t].load(Ordering::SeqCst) > *g),
                        None => false,
                    }
                };
                if !cut_passed {
                    return false;
                }
                if !outgoing.ownership_sent.swap(true, Ordering::SeqCst) {
                    // Read the hot set's current values now — after the cut —
                    // so every update acknowledged by the source is included.
                    let sampled = if self.config.migration.ship_sampled_records {
                        let keys = self.store.end_sampling();
                        let mut records = Vec::with_capacity(keys.len());
                        for key in keys {
                            if let Ok(ReadOutcome::Found { record, .. }) =
                                self.store.read_record_for(key, session)
                            {
                                if !record.is_indirection() && !record.is_tombstone() {
                                    records.push((key, record.value().to_vec()));
                                }
                            }
                        }
                        records
                    } else {
                        let _ = self.store.end_sampling();
                        Vec::new()
                    };
                    // The control link is ordered, so the target always sees
                    // the ownership flip before the hot set that follows it.
                    let control = outgoing.control.lock();
                    let _ = control.send_msg(MigrationMsg::TakeOwnership {
                        migration_id: outgoing.migration_id,
                        ranges: outgoing.ranges.clone(),
                        target_view: outgoing.target_view,
                    });
                    let _ = control.send_msg(MigrationMsg::PushHotRecords {
                        migration_id: outgoing.migration_id,
                        target_view: outgoing.target_view,
                        records: sampled,
                    });
                    drop(control);
                    outgoing.set_phase(SourcePhase::Migrate);
                    return true;
                }
                false
            }
            SourcePhase::Migrate => self.drive_migrate_phase(&outgoing, state, session),
            SourcePhase::DiskScan => {
                if is_driver {
                    self.drive_disk_scan(&outgoing, state, session)
                } else {
                    false
                }
            }
            SourcePhase::Complete => {
                if is_driver && !outgoing.complete_sent.swap(true, Ordering::SeqCst) {
                    let _ = outgoing
                        .control
                        .lock()
                        .send_msg(MigrationMsg::CompleteMigration {
                            migration_id: outgoing.migration_id,
                            target_view: outgoing.target_view,
                            total_items: outgoing.total_items.load(Ordering::SeqCst),
                        });
                    // Checkpoint so the post-migration state is independently
                    // recoverable, then mark our side complete (paper §3.3.1).
                    let cp = take_checkpoint(&self.store, session);
                    *self.latest_checkpoint.lock() = Some(cp);
                    let _ = self.meta.mark_complete(outgoing.migration_id, self.id());
                    let report = MigrationReport {
                        migration_id: outgoing.migration_id,
                        role: MigrationRole::Source,
                        bytes_from_memory: outgoing.bytes_from_memory.load(Ordering::Relaxed),
                        records_moved: outgoing.records_sent.load(Ordering::Relaxed),
                        indirection_records: outgoing.indirections_sent.load(Ordering::Relaxed),
                        ssd_bytes_scanned: outgoing.ssd_bytes_scanned.load(Ordering::Relaxed),
                        duration_ms: outgoing.started.elapsed().as_millis() as u64,
                    };
                    *self.completed_report.lock() = Some(report);
                    // Keep the control link alive until the target's final
                    // acknowledgement arrives: when the target runs in
                    // another OS process it cannot reach this process's
                    // metadata store, so the source marks the target side
                    // complete on its behalf (idempotent in-process, where
                    // the target already marked itself directly).
                    *self.finishing.lock() = Some(FinishingMigration {
                        migration_id: outgoing.migration_id,
                        target: outgoing.target,
                        outgoing: Arc::clone(&outgoing),
                    });
                    self.finishing_active.store(true, Ordering::SeqCst);
                    *self.outgoing.write() = None;
                    return true;
                }
                false
            }
        }
    }

    /// Collects the target's final `Ack { Completed }` for a migration whose
    /// source side already finished, then marks the target side complete at
    /// this process's metadata store.  A target that dies before finishing
    /// its side — detected by a transport error or heartbeat silence on the
    /// control link — cancels the migration instead of leaving the
    /// dependency pending forever.  Returns `true` if progress was made.
    pub(crate) fn drive_finishing(self: &Arc<Self>, session: &FasterSession) -> bool {
        // Fast path: no migration is waiting on its final ack.
        if !self.finishing_active.load(Ordering::Relaxed) {
            return false;
        }
        let mut slot = self.finishing.lock();
        let Some(fin) = slot.as_ref() else {
            return false;
        };
        let mut acked = false;
        let dead_reason = {
            let control = fin.outgoing.control.lock();
            let mut liveness = fin.outgoing.liveness.lock();
            let migration_id = fin.migration_id;
            self.poll_migration_control(migration_id, &control, &mut liveness, |msg| {
                if matches!(
                    msg,
                    MigrationMsg::Ack {
                        migration_id: id,
                        phase: MigrationAckPhase::Completed,
                    } if *id == migration_id
                ) {
                    acked = true;
                }
            })
        };
        if acked {
            let _ = self.meta.mark_complete(fin.migration_id, fin.target);
            *slot = None;
            self.finishing_active.store(false, Ordering::SeqCst);
            return true;
        }
        if let Some(reason) = dead_reason {
            let fin = slot.take().expect("finishing checked Some above");
            self.finishing_active.store(false, Ordering::SeqCst);
            drop(slot);
            self.cancel_finishing(fin, &reason, session);
            return true;
        }
        false
    }

    /// The shared control-link poll behind [`Server::drive_finishing`] and
    /// [`Server::drive_source_liveness`]: drains every available message
    /// (any receipt is proof of life, heartbeats are echoed here, everything
    /// else goes to `on_msg`), declares the peer dead on transport errors or
    /// a closed link, sends the next heartbeat when due, and returns the
    /// death reason if the peer is dead.
    ///
    /// Caller holds both the control and liveness locks (in that order).
    fn poll_migration_control(
        &self,
        migration_id: u64,
        control: &ServerMigConn,
        liveness: &mut PeerLiveness,
        mut on_msg: impl FnMut(&MigrationMsg),
    ) -> Option<String> {
        loop {
            match control.try_recv_msg() {
                Ok(Some(msg)) => {
                    liveness.record_recv();
                    if let MigrationMsg::Heartbeat { migration_id, .. } = msg {
                        let _ = control.send_msg(MigrationMsg::HeartbeatAck {
                            migration_id,
                            view: self.serving_view(),
                        });
                    } else {
                        on_msg(&msg);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    liveness.declare_dead(format!("control link receive failed: {e}"));
                    break;
                }
            }
        }
        if !control.is_open() {
            liveness.declare_dead("control link closed");
        }
        if liveness.heartbeat_due() {
            let probe = MigrationMsg::Heartbeat {
                migration_id,
                view: self.serving_view(),
            };
            if let Err(e) = control.send_msg(probe) {
                liveness.declare_dead(format!("control link send failed: {}", e.error));
            }
        }
        liveness.check_dead()
    }

    /// Cancels a migration whose source side completed but whose target died
    /// before finishing its own: the dependency is unresolved at the
    /// metadata store, so ownership of the ranges rolls back to this server
    /// (the records are all still on its log — migration never removes
    /// them).  A no-op if the dependency resolved concurrently (the final
    /// ack can also arrive on a per-thread records link).
    pub(crate) fn cancel_finishing(
        self: &Arc<Self>,
        fin: FinishingMigration,
        reason: &str,
        session: &FasterSession,
    ) {
        if self.meta.cancel_migration(fin.migration_id).is_err() {
            // Already resolved (completed or cancelled elsewhere).
            return;
        }
        // Best-effort: a half-open target that revives must roll back too.
        let _ = fin
            .outgoing
            .control
            .lock()
            .send_msg(MigrationMsg::CancelMigration {
                migration_id: fin.migration_id,
                view: fin.outgoing.target_view,
            });
        let cp = take_checkpoint(&self.store, session);
        *self.latest_checkpoint.lock() = Some(cp);
        self.refresh_ownership_from_meta();
        self.note_cancellation(
            fin.migration_id,
            fin.outgoing.records_sent.load(Ordering::Relaxed)
                + fin.outgoing.indirections_sent.load(Ordering::Relaxed),
            fin.outgoing.liveness.lock().heartbeats_missed(),
            reason,
        );
    }

    /// Drains the outgoing migration's control connection, tracking the
    /// target's liveness and heartbeating it; called by the driver thread
    /// every dispatch iteration.  Returns `true` if the migration was
    /// cancelled (dead target, or the target asked for cancellation).
    fn drive_source_liveness(
        self: &Arc<Self>,
        outgoing: &Arc<OutgoingMigration>,
        session: &FasterSession,
    ) -> bool {
        let mut peer_cancel = false;
        let dead_reason = {
            let control = outgoing.control.lock();
            let mut liveness = outgoing.liveness.lock();
            let migration_id = outgoing.migration_id;
            // Acknowledgements and heartbeat echoes are proof of life only;
            // the one message with a side effect is the target asking for
            // cancellation.
            self.poll_migration_control(migration_id, &control, &mut liveness, |msg| {
                if matches!(
                    msg,
                    MigrationMsg::CancelMigration { migration_id: id, .. } if *id == migration_id
                ) {
                    peer_cancel = true;
                }
            })
        };
        if peer_cancel {
            return self.cancel_outgoing_migration(
                outgoing.migration_id,
                "target requested cancellation",
                session,
            );
        }
        if let Some(reason) = dead_reason {
            let why = format!("target {} declared dead: {reason}", outgoing.target);
            return self.cancel_outgoing_migration(outgoing.migration_id, &why, session);
        }
        false
    }

    /// Cancels the in-flight *outgoing* migration `migration_id` at this
    /// server (the source role of the paper's §3.3.1 cancellation):
    /// the dependency is cancelled at the metadata store (ownership of the
    /// migrating ranges rolls back to this server, both views advance), the
    /// post-cancellation state is checkpointed as the new recovery point,
    /// and the server re-adopts the post-cancellation ownership map — which
    /// bumps its serving view, fencing any frame the (possibly revived)
    /// target later sends from the dead migration epoch.
    ///
    /// Returns `false` if no outgoing migration with that id is in flight.
    pub(crate) fn cancel_outgoing_migration(
        self: &Arc<Self>,
        migration_id: u64,
        reason: &str,
        session: &FasterSession,
    ) -> bool {
        // Atomically detach the outgoing state: only the detaching caller
        // runs the rollback, and the ownership-transfer epoch action (which
        // re-checks this slot) can no longer clobber the rolled-back view.
        let outgoing = {
            let mut slot = self.outgoing.write();
            match slot.as_ref() {
                Some(o) if o.migration_id == migration_id => slot.take().expect("checked Some"),
                _ => return false,
            }
        };
        // Sampling may still be active if the cancellation landed early.
        let _ = self.store.end_sampling();
        // Cancel at the metadata store: the migrating ranges return to this
        // server and both views advance again (paper §3.3.1).  The records
        // themselves never left this server's log, so re-owning the ranges
        // loses nothing — records already shipped become unreachable
        // duplicates at the dead target.
        let cancelled_at_store = self.meta.cancel_migration(migration_id).is_ok();
        // Best-effort: tell a still-reachable target to roll back too.  The
        // serving-view fence (see the CancelMigration handler) is offered
        // only when the cancel actually won at the store: a cancel that
        // lost the race to a concurrent resolution must not advance a
        // healthy target's view past its registration — that would wedge
        // it exactly the way the fence exists to prevent.
        let _ = outgoing
            .control
            .lock()
            .send_msg(MigrationMsg::CancelMigration {
                migration_id,
                view: if cancelled_at_store {
                    outgoing.target_view
                } else {
                    0
                },
            });
        // Checkpoint the post-cancellation state as the new recovery point,
        // then adopt the post-cancellation ownership map and view.
        let cp = take_checkpoint(&self.store, session);
        *self.latest_checkpoint.lock() = Some(cp);
        self.refresh_ownership_from_meta();
        self.note_cancellation(
            migration_id,
            outgoing.records_sent.load(Ordering::Relaxed)
                + outgoing.indirections_sent.load(Ordering::Relaxed),
            outgoing.liveness.lock().heartbeats_missed(),
            reason,
        );
        true
    }

    /// Cancels the in-flight *incoming* migration `migration_id` at this
    /// server (the target role): in-flight migration state is dropped, the
    /// migrating ranges are given back, and the serving view advances so
    /// record pushes from the dead migration epoch are rejected as
    /// stale-view.  Returns `false` if no such incoming migration exists.
    pub(crate) fn cancel_incoming_migration(
        self: &Arc<Self>,
        migration_id: u64,
        reason: &str,
        session: &FasterSession,
    ) -> bool {
        let incoming = {
            let mut slot = self.incoming.lock();
            match slot.as_ref() {
                Some(m) if m.migration_id == migration_id => slot.take().expect("checked Some"),
                _ => return false,
            }
        };
        self.incoming_active.store(false, Ordering::SeqCst);
        self.stray_migration_items.lock().remove(&migration_id);
        // Roll ownership back.  In-process (shared metadata store) the
        // cancellation there is authoritative; a cross-process target cannot
        // reach the coordinating store — it applies the identical state
        // transition locally: drop the ranges, advance the view.  Either
        // way the serving view ends at target_view + 1, exactly what the
        // authoritative store records, so both sides agree on the fence.
        match self.meta.cancel_migration(migration_id) {
            Ok(_) => self.refresh_ownership_from_meta(),
            Err(_) => {
                self.owned.write().remove(incoming.ranges.ranges());
                self.serving_view.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Batches that pended for the migrating ranges are orphaned now.
        // This must happen *after* the ownership rollback above: a dispatch
        // thread consumes the flush signal at most once per bump, so bumping
        // while `owned` still held the ranges would let it scan, reject
        // nothing, and later answer an orphaned batch from a store that only
        // received part of the data.
        self.bump_pend_flush();
        let cp = take_checkpoint(&self.store, session);
        *self.latest_checkpoint.lock() = Some(cp);
        self.note_cancellation(migration_id, incoming.items_received, 0, reason);
        true
    }

    /// Target-side liveness: cancels the incoming migration if the source
    /// has been silent past twice the liveness deadline (the factor of two
    /// lets the source — which also observes transport errors directly —
    /// win the race and cancel cleanly at the metadata store first).
    /// Driven by dispatch thread 0 every loop iteration.
    pub(crate) fn drive_incoming_liveness(self: &Arc<Self>, session: &FasterSession) -> bool {
        if !self.incoming_active.load(Ordering::Relaxed) {
            return false;
        }
        let deadline = self.config.migration.liveness.deadline() * 2;
        let stale = {
            let incoming = self.incoming.lock();
            match incoming.as_ref() {
                Some(m) if m.last_source_msg.elapsed() > deadline => {
                    Some((m.migration_id, m.source))
                }
                _ => None,
            }
        };
        let Some((migration_id, source)) = stale else {
            return false;
        };
        // Every heartbeat interval in the silent window counts as missed.
        let interval = self.config.migration.liveness.heartbeat_interval;
        let missed = (deadline.as_micros() / interval.as_micros().max(1)) as u64;
        self.heartbeats_missed.add(missed);
        let reason = format!("source silent for more than {deadline:?}");
        let cancelled = self.cancel_incoming_migration(migration_id, &reason, session);
        if cancelled {
            // Best-effort relay: a source that is merely stalled (not dead)
            // should cancel authoritatively at its metadata store right
            // away instead of waiting out its own silence budget.  If the
            // source is really gone the dial simply fails.  View 0: a
            // target does not know the view the source was assigned for
            // this migration, so it cannot offer a fence — the source
            // fences itself when it rolls back (see the CancelMigration
            // handler).
            let snapshot = self.meta.snapshot();
            if let Some(src) = snapshot.server(source) {
                if let Some(conn) = self.connect_migration(&src.address, source, 0) {
                    let _ = conn.send_msg(MigrationMsg::CancelMigration {
                        migration_id,
                        view: 0,
                    });
                }
            }
        }
        cancelled
    }

    /// Records a cancellation in the server's counters and on stderr (which
    /// multi-process tests capture into `target/test-logs/`).
    pub(crate) fn note_cancellation(
        &self,
        migration_id: u64,
        rolled_back: u64,
        missed: u64,
        reason: &str,
    ) {
        self.migrations_cancelled.inc();
        self.records_rolled_back.add(rolled_back);
        self.heartbeats_missed.add(missed);
        self.timeline
            .record("migration.phase", "cancelled", migration_id);
        eprintln!(
            "server {}: cancelled migration {migration_id} ({reason}); \
             {rolled_back} shipped records rolled back",
            self.id()
        );
    }

    /// The per-thread half of [`Server::drive_finishing`]: the target's
    /// final ack travels on whichever link delivered the finalizing message,
    /// which can be this thread's records link rather than the control link.
    pub(crate) fn drive_finishing_thread(&self, state: &SourceThreadState) -> bool {
        // Fast paths: nothing to wait for, or this thread has no link that
        // could carry the ack.  The atomic keeps the idle serving loop off
        // the shared mutex.
        if !self.finishing_active.load(Ordering::Relaxed) || state.records_conn.is_none() {
            return false;
        }
        let (id, target) = match self.finishing.lock().as_ref() {
            Some(fin) => (fin.migration_id, fin.target),
            None => return false,
        };
        if state.migration_id != Some(id) {
            return false;
        }
        let Some(conn) = &state.records_conn else {
            return false;
        };
        let mut acked = false;
        while let Ok(Some(msg)) = conn.try_recv_msg() {
            if matches!(
                msg,
                MigrationMsg::Ack {
                    migration_id,
                    phase: MigrationAckPhase::Completed,
                } if migration_id == id
            ) {
                acked = true;
            }
        }
        if acked {
            let _ = self.meta.mark_complete(id, target);
            *self.finishing.lock() = None;
            self.finishing_active.store(false, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// One iteration of this thread's share of the Migrate phase: pull the
    /// next record batch from the thread's [`MigrationBatchIter`] and ship
    /// it over the thread's migration link.
    fn drive_migrate_phase(
        self: &Arc<Self>,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        session: &FasterSession,
    ) -> bool {
        let thread_id = state.thread_id;
        if state.region_done_reported {
            // This thread is finished; thread 0 watches for global completion.
            if thread_id == 0 && outgoing.regions_done.load(Ordering::SeqCst) >= self.config.threads
            {
                let next = match outgoing.mode {
                    MigrationMode::Shadowfax => SourcePhase::Complete,
                    MigrationMode::Rocksteady => SourcePhase::DiskScan,
                };
                outgoing.set_phase(next);
                return true;
            }
            return false;
        }

        // Ensure this thread has its own migration connection to the target.
        if state.records_conn.is_none() {
            let snapshot = self.meta.snapshot();
            let Some(target_meta) = snapshot.server(outgoing.target).cloned() else {
                return false;
            };
            state.records_conn = self.connect_migration(
                &target_meta.address,
                outgoing.target,
                thread_id % target_meta.threads.max(1),
            );
        }

        match MigrationBatchIter::new(self, outgoing, state, session).next_batch() {
            BatchPull::Batch(items) => {
                self.ship_migration_items(outgoing, state, items);
                true
            }
            BatchPull::Pending => true,
            BatchPull::Exhausted => {
                state.region_done_reported = true;
                outgoing.regions_done.fetch_add(1, Ordering::SeqCst);
                true
            }
        }
    }

    /// Collects records for the migrating ranges from main-table buckets
    /// `region` and appends them to this thread's outgoing batch.
    fn collect_region(
        self: &Arc<Self>,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        region: std::ops::Range<usize>,
        session: &FasterSession,
    ) {
        let log = self.store.log();
        let head = log.head_address();
        let guard = session.thread().protect();
        for snap in self.store.index().scan_region(region) {
            let mut addr = snap.entry.address;
            let mut seen_keys: Vec<u64> = Vec::new();
            while addr.is_valid() && addr >= log.begin_address() {
                if addr < head {
                    // The rest of this chain lives on the SSD / shared tier.
                    match outgoing.mode {
                        MigrationMode::Shadowfax => {
                            let representative = representative_hash(
                                snap.bucket,
                                snap.entry.tag,
                                self.store.index().table_bits(),
                            );
                            let ind = IndirectionRecord {
                                range: enclosing_range(&outgoing.ranges, HashRange::FULL),
                                chain_address: addr,
                                source_log: self.log_id(),
                                representative_hash: representative,
                            };
                            let item = MigratedItem::Indirection {
                                representative_hash: representative,
                                payload: ind.encode_value(),
                            };
                            outgoing.indirections_sent.fetch_add(1, Ordering::Relaxed);
                            self.push_migration_item(outgoing, state, item);
                        }
                        MigrationMode::Rocksteady => {
                            // The disk-scan phase will pick these up.
                        }
                    }
                    break;
                }
                let Ok(record) = log.read_record(addr, &guard) else {
                    break;
                };
                let key = record.key();
                let hash = KeyHash::of(key).raw();
                let in_range = outgoing.ranges.iter().any(|r| r.contains(hash));
                let is_dup = seen_keys.contains(&key);
                if in_range
                    && !is_dup
                    && !record.is_tombstone()
                    && !record.header.flags.contains(RecordFlags::INDIRECTION)
                {
                    let item = MigratedItem::Record {
                        key,
                        value: record.value().to_vec(),
                    };
                    outgoing.records_sent.fetch_add(1, Ordering::Relaxed);
                    self.push_migration_item(outgoing, state, item);
                }
                if in_range {
                    seen_keys.push(key);
                }
                addr = record.header.prev;
            }
        }
        drop(guard);
    }

    fn push_migration_item(
        &self,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        item: MigratedItem,
    ) {
        let bytes = item.wire_size();
        outgoing
            .bytes_from_memory
            .fetch_add(bytes as u64, Ordering::Relaxed);
        outgoing.total_items.fetch_add(1, Ordering::Relaxed);
        state.batch_bytes += bytes;
        state.batch.push(item);
    }

    /// Ships one pulled batch on this thread's migration link, falling back
    /// to the control link if the thread's link is missing or fails.  If the
    /// target is unreachable on both, the batch is put back for retry:
    /// every item in it is already counted in `total_items`, so dropping it
    /// would leave the target waiting forever.  In the rare case a transport
    /// consumes a message it could not deliver, the count is rolled back
    /// instead, keeping the target's expected total honest.
    fn ship_migration_items(
        &self,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        items: Vec<MigratedItem>,
    ) {
        if items.is_empty() {
            return;
        }
        let count = items.len() as u64;
        let mut msg = MigrationMsg::PushRecordBatch {
            migration_id: outgoing.migration_id,
            target_view: outgoing.target_view,
            items,
        };
        if let Some(conn) = &state.records_conn {
            match conn.send_msg(msg) {
                Ok(()) => {
                    // Drain acknowledgements/noise so the channel never
                    // backs up.
                    while let Ok(Some(_)) = conn.try_recv_msg() {}
                    return;
                }
                Err(err) => {
                    // The link failed; drop it so the next iteration redials.
                    state.records_conn = None;
                    match err.msg {
                        Some(recovered) => msg = recovered,
                        None => {
                            outgoing.total_items.fetch_sub(count, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            }
        }
        match outgoing.control.lock().send_msg(msg) {
            Ok(()) => {}
            Err(err) => match err.msg {
                Some(MigrationMsg::PushRecordBatch { mut items, .. }) => {
                    items.append(&mut state.batch);
                    state.batch = items;
                }
                _ => {
                    outgoing.total_items.fetch_sub(count, Ordering::SeqCst);
                }
            },
        }
    }

    /// One bounded slice of the Rocksteady baseline's sequential SSD scan.
    ///
    /// The cursor always resumes from the scanner's own position (a record or
    /// page boundary), never from an arbitrary byte offset, so no record is
    /// ever skipped at a chunk boundary.
    fn drive_disk_scan(
        self: &Arc<Self>,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        session: &FasterSession,
    ) -> bool {
        let log = self.store.log();
        let head = log.head_address();
        let start = *outgoing.disk_cursor.lock();
        if start >= head {
            // Retry any batch a failed send put back before declaring the
            // scan complete — the items are counted in `total_items`, so
            // completing with them unshipped would wedge the target.
            let items = std::mem::take(&mut state.batch);
            state.batch_bytes = 0;
            self.ship_migration_items(outgoing, state, items);
            if state.batch.is_empty() {
                outgoing.set_phase(SourcePhase::Complete);
            }
            return true;
        }
        let budget = self.config.migration.disk_scan_bytes_per_iteration as u64;
        let mut records: Vec<(Address, RecordOwned)> = Vec::new();
        let mut scanner = LogScanner::new(log, start, head, session.thread());
        let mut exhausted = true;
        for (addr, record) in scanner.by_ref() {
            records.push((addr, record));
            if addr.raw().saturating_sub(start.raw()) >= budget {
                exhausted = false;
                break;
            }
        }
        let new_cursor = if exhausted { head } else { scanner.position() };
        for (addr, record) in records {
            let hash = KeyHash::of(record.key()).raw();
            if !outgoing.ranges.iter().any(|r| r.contains(hash)) || record.is_tombstone() {
                continue;
            }
            // Only ship records that are still the live (newest) version.
            let live = matches!(
                self.store.read_record_for(record.key(), session),
                Ok(ReadOutcome::Found { address, .. }) if address == addr
            );
            if !live {
                continue;
            }
            let item = MigratedItem::Record {
                key: record.key(),
                value: record.value().to_vec(),
            };
            outgoing.records_sent.fetch_add(1, Ordering::Relaxed);
            outgoing.total_items.fetch_add(1, Ordering::Relaxed);
            state.batch.push(item);
        }
        // The scan read this whole slice of the stable region sequentially.
        outgoing
            .ssd_bytes_scanned
            .fetch_add(new_cursor.raw() - start.raw(), Ordering::Relaxed);
        *outgoing.disk_cursor.lock() = new_cursor;
        let items = std::mem::take(&mut state.batch);
        state.batch_bytes = 0;
        self.ship_migration_items(outgoing, state, items);
        if new_cursor >= head && state.batch.is_empty() {
            outgoing.set_phase(SourcePhase::Complete);
        }
        true
    }

    // ------------------------------------------------------------------
    // Target side
    // ------------------------------------------------------------------

    /// Handles one migration message arriving from a peer server.
    pub(crate) fn handle_migration_msg(
        self: &Arc<Self>,
        msg: MigrationMsg,
        conn: &ServerMigConn,
        session: &FasterSession,
    ) {
        // Any message for the in-flight incoming migration is proof the
        // source is alive; the target's liveness deadline restarts.
        if let MigrationMsg::PrepForTransfer { migration_id, .. }
        | MigrationMsg::TakeOwnership { migration_id, .. }
        | MigrationMsg::PushHotRecords { migration_id, .. }
        | MigrationMsg::PushRecordBatch { migration_id, .. }
        | MigrationMsg::CompleteMigration { migration_id, .. }
        | MigrationMsg::Heartbeat { migration_id, .. }
        | MigrationMsg::HeartbeatAck { migration_id, .. } = &msg
        {
            self.touch_incoming(*migration_id);
        }
        match msg {
            MigrationMsg::PrepForTransfer {
                migration_id,
                ranges,
                source,
                target_view,
            } => {
                // A prepare tagged with a view older than the one we already
                // serve is from a dead migration epoch: ignore it.
                if target_view < self.serving_view() {
                    return;
                }
                // Record batches can beat this message over TCP (they travel
                // on different connections); fold any strays back in.  The
                // stray map is drained while the `incoming` lock is held —
                // the batch handler updates it under the same lock — so a
                // concurrent batch either landed in the map before this
                // drain or sees the installed migration and counts directly.
                // Stray counts for *other* migrations are from dead epochs
                // (a target receives one migration at a time) and dropped.
                let mut incoming = self.incoming.lock();
                let early_items = {
                    let mut stray = self.stray_migration_items.lock();
                    let early = stray.remove(&migration_id).unwrap_or(0);
                    stray.clear();
                    early
                };
                *incoming = Some(IncomingMigration {
                    migration_id,
                    ranges: RangeSet::from_ranges(ranges.iter().copied()),
                    mode: PendMode::PendAll,
                    source,
                    items_received: early_items,
                    expected_items: None,
                    started: Instant::now(),
                    last_source_msg: Instant::now(),
                });
                drop(incoming);
                self.incoming_active.store(true, Ordering::SeqCst);
                // The server holds a migration role now: sibling threads
                // stop parking until it is over.
                self.wake_all();
                // Adopt the view the metadata store assigned us at transfer
                // time and take responsibility for the ranges.
                self.serving_view.fetch_max(target_view, Ordering::SeqCst);
                self.owned.write().add(&ranges);
                let _ = conn.send_msg(MigrationMsg::Ack {
                    migration_id,
                    phase: MigrationAckPhase::Prepared,
                });
            }
            MigrationMsg::TakeOwnership {
                migration_id,
                ranges: _,
                target_view,
            } => {
                // The source has stopped serving the ranges; from here on
                // only records that have not arrived yet pend.
                self.serving_view.fetch_max(target_view, Ordering::SeqCst);
                if let Some(incoming) = self.incoming.lock().as_mut() {
                    if incoming.migration_id == migration_id {
                        incoming.mode = PendMode::PendMissing;
                    }
                }
                let _ = conn.send_msg(MigrationMsg::Ack {
                    migration_id,
                    phase: MigrationAckPhase::OwnershipReceived,
                });
            }
            MigrationMsg::PushHotRecords {
                migration_id,
                target_view: _,
                records,
            } => {
                // Only apply the hot set for the migration currently being
                // received — a delayed push from an earlier (cancelled)
                // migration must not resurrect stale values.  Dropping it is
                // always safe: the Migrate phase ships every live in-range
                // record again.
                let applies = self
                    .incoming
                    .lock()
                    .as_ref()
                    .map(|m| m.migration_id == migration_id)
                    .unwrap_or(false);
                if applies {
                    for (key, value) in &records {
                        self.insert_migrated_record(*key, value, session);
                    }
                }
            }
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items,
            } => {
                // A batch tagged with a view older than the one we already
                // serve is from a dead migration epoch: drop it.
                if target_view < self.serving_view() {
                    return;
                }
                let count = items.len() as u64;
                for item in items {
                    match item {
                        MigratedItem::Record { key, value } => {
                            self.insert_migrated_record(key, &value, session);
                        }
                        MigratedItem::Indirection {
                            representative_hash,
                            payload,
                        } => {
                            let _ = self.store.insert_record_at_hash(
                                representative_hash,
                                representative_hash,
                                &payload,
                                RecordFlags::INDIRECTION,
                                session,
                            );
                        }
                    }
                }
                {
                    // The stray map is updated while the `incoming` lock is
                    // held (same order as the PrepForTransfer handler), so
                    // this count can never slip between that handler's
                    // stray-drain and its install of the migration.
                    let mut incoming = self.incoming.lock();
                    match incoming.as_mut() {
                        Some(m) if m.migration_id == migration_id => {
                            m.items_received += count;
                        }
                        _ => {
                            // `PrepForTransfer` has not arrived yet; remember
                            // the count so the items stay in the tally.
                            *self
                                .stray_migration_items
                                .lock()
                                .entry(migration_id)
                                .or_insert(0) += count;
                        }
                    }
                }
                self.maybe_finalize_incoming(conn, session);
            }
            MigrationMsg::CompleteMigration {
                migration_id,
                target_view: _,
                total_items,
            } => {
                if let Some(incoming) = self.incoming.lock().as_mut() {
                    if incoming.migration_id == migration_id {
                        incoming.expected_items = Some(total_items);
                    }
                }
                // The Completed ack is sent by `maybe_finalize_incoming`
                // once every announced item has actually arrived — acking
                // here would let the source garbage-collect the recovery
                // dependency while record batches are still in flight.
                self.maybe_finalize_incoming(conn, session);
            }
            MigrationMsg::Ack { .. } => {
                // Control-plane acknowledgement; nothing to do.
            }
            MigrationMsg::CompactionHandoff { key, value } => {
                // Insert unless we already have a version for this key that is
                // not an indirection record (paper §3.3.3).  A local
                // tombstone counts as such a version.
                match self.store.read_record_for(key, session) {
                    Ok(ReadOutcome::Found { record, .. }) if !record.is_indirection() => {}
                    _ => {
                        let _ =
                            self.store
                                .insert_record(key, &value, RecordFlags::empty(), session);
                    }
                }
            }
            MigrationMsg::Heartbeat { migration_id, .. } => {
                let _ = conn.send_msg(MigrationMsg::HeartbeatAck {
                    migration_id,
                    view: self.serving_view(),
                });
            }
            MigrationMsg::HeartbeatAck { .. } => {
                // Proof of life only (already recorded above).
            }
            MigrationMsg::CancelMigration { migration_id, view } => {
                // The id match inside the role-specific cancel paths is the
                // gate: migration ids are never reused, so a replayed cancel
                // from a dead epoch matches no in-flight state and rolls
                // nothing back.  Deliberately no view comparison here — the
                // receiver's single per-server view can advance for an
                // unrelated concurrent migration, which must not mask a
                // legitimate cancel.
                let rolled_back =
                    self.cancel_local_roles(migration_id, "peer cancelled the migration", session);
                if !rolled_back && view > 0 {
                    // No local state: the migration was cancelled before this
                    // server ever heard of it (e.g. mid-sampling, before
                    // `PrepForTransfer` went out).  The authoritative store
                    // has still advanced this server's registered view past
                    // the dead epoch — adopt that fence, or every future
                    // batch stamped with the registered view would be
                    // rejected as stale forever.  `view` carries the view
                    // this server was assigned for the cancelled migration
                    // when the sender knows it (source -> target relays; a
                    // target -> source relay sends 0, the source fences
                    // itself); the post-cancellation registration is one
                    // past it.  fetch_max keeps a replayed cancel from an
                    // old epoch harmless.
                    self.serving_view.fetch_max(view + 1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Restarts the target-side liveness deadline for `migration_id`.
    fn touch_incoming(&self, migration_id: u64) {
        if !self.incoming_active.load(Ordering::Relaxed) {
            return;
        }
        if let Some(m) = self.incoming.lock().as_mut() {
            if m.migration_id == migration_id {
                m.last_source_msg = Instant::now();
            }
        }
    }

    /// Inserts a record that arrived via migration, unless a newer version
    /// already exists locally (a client may have written — or deleted — the
    /// key after ownership transferred; a local tombstone is a newer
    /// version too, and overwriting it would resurrect the key).
    fn insert_migrated_record(&self, key: u64, value: &[u8], session: &FasterSession) {
        match self.store.read_record_for(key, session) {
            Ok(ReadOutcome::Found { record, .. }) if !record.is_indirection() => {
                // Local version is newer; keep it.
            }
            _ => {
                let _ = self
                    .store
                    .insert_record(key, value, RecordFlags::empty(), session);
            }
        }
    }

    /// Finalizes the incoming migration once the source has declared
    /// completion and every announced item has been received: checkpoint,
    /// mark complete at the metadata store, stop pending, and send the
    /// final `Ack { Completed }` on the connection that delivered the
    /// finalizing message (the source watches all of its migration links
    /// for it).
    fn maybe_finalize_incoming(self: &Arc<Self>, conn: &ServerMigConn, session: &FasterSession) {
        let ready = {
            let incoming = self.incoming.lock();
            match incoming.as_ref() {
                Some(m) => m
                    .expected_items
                    .map(|expected| m.items_received >= expected)
                    .unwrap_or(false),
                None => false,
            }
        };
        if !ready {
            return;
        }
        let finished = self.incoming.lock().take();
        self.incoming_active.store(false, Ordering::SeqCst);
        if let Some(m) = finished {
            let cp = take_checkpoint(&self.store, session);
            *self.latest_checkpoint.lock() = Some(cp);
            let _ = self.meta.mark_complete(m.migration_id, self.id());
            self.stray_migration_items.lock().remove(&m.migration_id);
            *self.completed_report.lock() = Some(MigrationReport {
                migration_id: m.migration_id,
                role: MigrationRole::Target,
                bytes_from_memory: 0,
                records_moved: m.items_received,
                indirection_records: 0,
                ssd_bytes_scanned: 0,
                duration_ms: m.started.elapsed().as_millis() as u64,
            });
            let _ = conn.send_msg(MigrationMsg::Ack {
                migration_id: m.migration_id,
                phase: MigrationAckPhase::Completed,
            });
        }
    }
}

/// Builds a hash value that maps to the same bucket and tag as the given
/// source bucket entry, so the target (whose table is the same size) places
/// the indirection record in the equivalent chain.
pub(crate) fn representative_hash(bucket: usize, tag: u16, _table_bits: u32) -> u64 {
    ((tag as u64) << 48) | bucket as u64
}

/// The smallest single range enclosing all migrating ranges (indirection
/// records store one contiguous range; migrations in this reproduction and in
/// the paper's experiments move one contiguous range at a time).
fn enclosing_range(ranges: &[HashRange], default: HashRange) -> HashRange {
    if ranges.is_empty() {
        return default;
    }
    let start = ranges.iter().map(|r| r.start).min().unwrap();
    let end = ranges.iter().map(|r| r.end).max().unwrap();
    HashRange::new(start, end)
}

/// What a local chain walk produced.
#[derive(Debug)]
pub(crate) enum LocalChainFetch {
    /// The key's newest live record.
    Found(RecordOwned),
    /// The chain was fully walked and holds no record for the key at all.
    Missing,
    /// The key's newest record on the chain is a tombstone: the key was
    /// deleted.  Distinct from [`LocalChainFetch::Missing`] so the caller
    /// can cache the deletion locally — without it, a fallback path that
    /// treats "absent from this chain" as "older records elsewhere decide"
    /// would resurrect a pre-delete version.
    Tombstone,
    /// A read failed mid-walk (e.g. a nested indirection named a log this
    /// process cannot read).  The caller must keep the operation pending —
    /// the record may exist where the walk could not reach.
    Unreadable,
}

/// Follows a record chain stored on a *locally readable* shared-tier log
/// (the [`TierService`] answered `Local` for it) looking for `key`.
/// Indirection records on the chain whose range covers the key are followed
/// onto the named log — on an in-process tier every log is readable, so
/// multi-hop chains resolve transitively.
pub(crate) fn fetch_from_shared_chain(
    tier: &dyn TierService,
    source_log: LogId,
    addr: Address,
    key: u64,
) -> LocalChainFetch {
    let hash = shadowfax_faster::KeyHash::of(key).raw();
    // Chain positions still to visit, LIFO: when an indirection is followed
    // onto another log, that continuation is visited *before* the rest of
    // the current chain (it holds the newer versions of covered keys).
    let mut work: Vec<(LogId, Address)> = vec![(source_log, addr)];
    let mut hops = 0;
    while let Some((log, addr)) = work.pop() {
        if !addr.is_valid() {
            continue;
        }
        hops += 1;
        if hops > 1_000_000 {
            return LocalChainFetch::Unreadable;
        }
        let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
        if tier.read_log(log, addr.raw(), &mut header_bytes).is_err() {
            return LocalChainFetch::Unreadable;
        }
        let header = RecordHeader::decode(&header_bytes);
        if header.is_null() {
            continue;
        }
        if header.flags.contains(RecordFlags::INDIRECTION) {
            // The chain continues on another log; follow it if it can cover
            // the key (its payload carries the covered range).
            let mut payload = vec![0u8; header.value_len as usize];
            if tier
                .read_log(log, addr.raw() + RECORD_HEADER_BYTES as u64, &mut payload)
                .is_err()
            {
                return LocalChainFetch::Unreadable;
            }
            work.push((log, header.prev));
            if let Some(ind) = IndirectionRecord::decode_value(&payload) {
                if ind.range.contains(hash) {
                    work.push((ind.source_log, ind.chain_address));
                }
            }
            continue;
        }
        if header.key == key {
            let mut value = vec![0u8; header.value_len as usize];
            if !value.is_empty()
                && tier
                    .read_log(log, addr.raw() + RECORD_HEADER_BYTES as u64, &mut value)
                    .is_err()
            {
                return LocalChainFetch::Unreadable;
            }
            if header.flags.contains(RecordFlags::TOMBSTONE) {
                return LocalChainFetch::Tombstone;
            }
            return LocalChainFetch::Found(RecordOwned { header, value });
        }
        work.push((log, header.prev));
    }
    LocalChainFetch::Missing
}

/// The outcome of one serving-side chain walk page.
#[derive(Debug)]
pub(crate) enum ChainWalk {
    /// The walk progressed: the page's records plus the address to resume
    /// from (0 when the chain is exhausted).
    Page(Vec<TierRecord>, u64),
    /// The tier failed to read at `address` mid-walk.  The chain must be
    /// reported as *unreadable*, never as exhausted — a fetcher that takes
    /// a truncated walk for the full chain would turn a transient tier
    /// error into an acknowledged "not found".
    Unreadable {
        /// The address whose read failed.
        address: u64,
    },
}

/// Walks the chain rooted at `addr` in `source_log` on the local shared
/// tier, collecting records — newest first, one per key (the first
/// occurrence on the chain is the newest version), skipping records marked
/// invalid — until `max_records` or `max_bytes` of value payload is
/// reached (at least one record always makes progress).  Tombstones and
/// indirection records are included *with their flags* so the fetching side
/// can distinguish "deleted" from "never existed".
///
/// This is the serving half of the cross-process chain-fetch protocol: the
/// process hosting the log runs it on behalf of a peer that received an
/// indirection record during migration.
pub(crate) fn read_chain_records(
    tier: &SharedBlobTier,
    source_log: LogId,
    mut addr: Address,
    max_records: usize,
    max_bytes: usize,
) -> ChainWalk {
    let mut records = Vec::new();
    let mut seen_keys: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut bytes = 0usize;
    let mut hops = 0;
    while addr.is_valid() && hops < 1_000_000 {
        if records.len() >= max_records || bytes >= max_bytes {
            return ChainWalk::Page(records, addr.raw());
        }
        let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
        if tier
            .read_log(source_log, addr.raw(), &mut header_bytes)
            .is_err()
        {
            return ChainWalk::Unreadable {
                address: addr.raw(),
            };
        }
        let header = RecordHeader::decode(&header_bytes);
        if header.is_null() {
            // Zeroed space: the chain ran into never-written padding, which
            // only happens at the end of a chain.
            break;
        }
        let skip = header.flags.contains(RecordFlags::INVALID) || !seen_keys.insert(header.key);
        if !skip {
            let mut value = vec![0u8; header.value_len as usize];
            if !value.is_empty()
                && tier
                    .read_log(
                        source_log,
                        addr.raw() + RECORD_HEADER_BYTES as u64,
                        &mut value,
                    )
                    .is_err()
            {
                return ChainWalk::Unreadable {
                    address: addr.raw(),
                };
            }
            bytes += RECORD_HEADER_BYTES + value.len();
            records.push(TierRecord {
                key: header.key,
                flags: header.flags.bits(),
                value,
            });
        }
        addr = header.prev;
        hops += 1;
    }
    ChainWalk::Page(records, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_hash_lands_in_same_bucket_and_tag() {
        let table_bits = 12u32;
        let bucket = 1234usize;
        let tag = 0x2ABCu16 & 0x3FFF;
        let rep = representative_hash(bucket, tag, table_bits);
        let h = KeyHash(rep);
        assert_eq!(h.bucket(table_bits), bucket);
        assert_eq!(h.tag(), tag);
    }

    #[test]
    fn enclosing_range_spans_inputs() {
        let ranges = vec![HashRange::new(100, 200), HashRange::new(400, 500)];
        let e = enclosing_range(&ranges, HashRange::FULL);
        assert_eq!(e, HashRange::new(100, 500));
        assert_eq!(
            enclosing_range(&[], HashRange::new(1, 2)),
            HashRange::new(1, 2)
        );
    }

    #[test]
    fn source_phase_roundtrip() {
        for p in [
            SourcePhase::Sampling,
            SourcePhase::Prepare,
            SourcePhase::Transfer,
            SourcePhase::Migrate,
            SourcePhase::DiskScan,
            SourcePhase::Complete,
        ] {
            assert_eq!(SourcePhase::from_u8(p as u8), p);
        }
    }

    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::ClientConfig;
    use crate::server::ServerMigConn;
    use shadowfax_net::LivenessConfig;
    use std::time::Duration;

    /// Satellite of the cancellation work: after the target cancels an
    /// incoming migration, a revived source's frames from the dead epoch —
    /// record batches and hot-set pushes tagged with the old target view —
    /// are fenced by view and dropped.
    #[test]
    fn revived_peer_push_after_cancellation_is_fenced_by_view() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let target = cluster.server(crate::ServerId(1)).unwrap();
        let session = target.store().start_session();

        // The metadata-store half of a migration: 25% of server 0 moves to 1.
        let moving = cluster
            .meta()
            .snapshot()
            .server(crate::ServerId(0))
            .unwrap()
            .owned
            .ranges()[0]
            .take_fraction(0.25);
        let (migration_id, _source_view, target_view) = cluster
            .meta()
            .transfer_ownership(crate::ServerId(0), crate::ServerId(1), &[moving])
            .unwrap();

        // A loopback migration connection standing in for the source's
        // control link.
        let listener = cluster.migration_network().listen("unit-source");
        let conn: ServerMigConn =
            Box::new(cluster.migration_network().connect("unit-source").unwrap());
        let source_side = listener.try_accept().unwrap();

        target.handle_migration_msg(
            MigrationMsg::PrepForTransfer {
                migration_id,
                ranges: vec![moving],
                source: crate::ServerId(0),
                target_view,
            },
            &conn,
            &session,
        );
        assert_eq!(target.serving_view(), target_view);
        assert!(target.owned_ranges().contains(moving.start));

        // A batch in the live epoch applies.
        target.handle_migration_msg(
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items: vec![MigratedItem::Record {
                    key: 42,
                    value: b"live".to_vec(),
                }],
            },
            &conn,
            &session,
        );
        assert_eq!(session.read(42).unwrap(), Some(b"live".to_vec()));

        // The target declares the source dead and cancels: ownership rolls
        // back and the serving view advances past the dead epoch.
        assert!(target.cancel_incoming_migration(migration_id, "unit test", &session));
        assert_eq!(
            target.serving_view(),
            target_view + 1,
            "cancellation must advance the view to fence the dead epoch"
        );
        assert!(!target.owned_ranges().contains(moving.start));
        let dep = cluster
            .meta()
            .migration_state(migration_id)
            .unwrap()
            .unwrap();
        assert!(dep.cancelled);
        assert!(!target.cancel_incoming_migration(migration_id, "again", &session));

        // The revived source's post-cancellation frames are fenced by view.
        target.handle_migration_msg(
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items: vec![MigratedItem::Record {
                    key: 43,
                    value: b"stale".to_vec(),
                }],
            },
            &conn,
            &session,
        );
        assert_eq!(
            session.read(43).unwrap(),
            None,
            "a stale-view record batch must be dropped"
        );
        target.handle_migration_msg(
            MigrationMsg::PushHotRecords {
                migration_id,
                target_view,
                records: vec![(44, b"stale-hot".to_vec())],
            },
            &conn,
            &session,
        );
        assert_eq!(
            session.read(44).unwrap(),
            None,
            "a hot-set push for a cancelled migration must be dropped"
        );

        // The live phase of the protocol acked on the link.
        let acked = source_side.drain();
        assert!(acked.iter().any(|m| matches!(
            m,
            MigrationMsg::Ack {
                phase: MigrationAckPhase::Prepared,
                ..
            }
        )));

        drop(conn);
        cluster.shutdown();
    }

    /// A migration cancelled *before* `PrepForTransfer` ever reached the
    /// target: the authoritative store has advanced the target's registered
    /// view, so the cancel relay must fence the target's serving view even
    /// though it holds no in-flight state — otherwise every future batch
    /// stamped with the registered view is rejected as stale forever (the
    /// wedge the three-process partitioned-layout test first exposed).
    #[test]
    fn cancel_before_prep_fences_the_never_prepped_target() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let target = cluster.server(crate::ServerId(1)).unwrap();
        let session = target.store().start_session();
        assert_eq!(target.serving_view(), 1);

        // The metadata-store half of a migration the target never hears
        // about (cancelled mid-sampling, prep never sent) ...
        let moving = cluster
            .meta()
            .snapshot()
            .server(crate::ServerId(0))
            .unwrap()
            .owned
            .ranges()[0]
            .take_fraction(0.25);
        let (migration_id, _source_view, target_view) = cluster
            .meta()
            .transfer_ownership(crate::ServerId(0), crate::ServerId(1), &[moving])
            .unwrap();
        cluster.meta().cancel_migration(migration_id).unwrap();
        let registered = cluster.meta().view_of(crate::ServerId(1)).unwrap();
        assert_eq!(registered, target_view + 1);
        assert_eq!(target.serving_view(), 1, "no prep was ever delivered");

        let listener = cluster.migration_network().listen("unit-source-2");
        let conn: ServerMigConn = Box::new(
            cluster
                .migration_network()
                .connect("unit-source-2")
                .unwrap(),
        );
        let _source_side = listener.try_accept().unwrap();

        // A cancel for an *unknown* migration carrying no fence (view 0,
        // the target -> source relay form) must not move the view.
        target.handle_migration_msg(
            MigrationMsg::CancelMigration {
                migration_id: migration_id + 7,
                view: 0,
            },
            &conn,
            &session,
        );
        assert_eq!(target.serving_view(), 1);

        // The source's relay carries the target's assigned view: with no
        // local state to roll back, the target adopts the post-cancellation
        // fence and agrees with the authoritative registration.
        target.handle_migration_msg(
            MigrationMsg::CancelMigration {
                migration_id,
                view: target_view,
            },
            &conn,
            &session,
        );
        assert_eq!(target.serving_view(), registered);

        // A replayed cancel from the dead epoch is harmless.
        target.handle_migration_msg(
            MigrationMsg::CancelMigration {
                migration_id,
                view: target_view,
            },
            &conn,
            &session,
        );
        assert_eq!(target.serving_view(), registered);

        drop(conn);
        cluster.shutdown();
    }

    /// The tentpole's liveness-timeout path, in-process: a migration to a
    /// registered-but-unresponsive target (its migration endpoint accepts
    /// connections and then never answers — a hung process) is cancelled by
    /// heartbeat silence, ownership rolls back to the source, and every
    /// previously acknowledged record is still served.
    #[test]
    fn silent_target_triggers_liveness_cancellation_and_rollback() {
        let mut config = ClusterConfig::two_server_test();
        config.server_template.migration.liveness = LivenessConfig {
            heartbeat_interval: Duration::from_millis(10),
            miss_budget: 5,
        };
        let cluster = Cluster::start(config);
        {
            let mut client = cluster.client(ClientConfig::default());
            for key in 0..100u64 {
                assert!(client.upsert(key, format!("v{key}").into_bytes()));
            }
        }

        // A phantom peer: registered at the metadata store, listening on the
        // migration fabric, never answering.
        cluster
            .meta()
            .register_server(crate::ServerId(9), "phantom", 1, RangeSet::empty());
        let _phantom = cluster.migration_network().listen("phantom/m0");

        let migration_id = cluster
            .migrate_fraction(crate::ServerId(0), crate::ServerId(9), 0.5)
            .unwrap();

        // The silence budget expires and the source cancels.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match cluster.meta().migration_state(migration_id) {
                Ok(Some(dep)) if dep.cancelled => break,
                Ok(Some(_)) => {}
                other => panic!("dependency resolved without cancellation: {other:?}"),
            }
            assert!(
                Instant::now() < deadline,
                "liveness did not cancel the migration to the silent target"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // The source re-adopts the post-cancellation map (view + ranges).
        let source = cluster.server(crate::ServerId(0)).unwrap();
        let meta_view = cluster.meta().view_of(crate::ServerId(0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while source.serving_view() != meta_view || !source.owned_ranges().contains(0) {
            assert!(
                Instant::now() < deadline,
                "source never re-adopted the post-cancellation ownership map"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let stats = cluster.metrics().snapshot();
        assert_eq!(stats.counter_family(".migration.cancelled"), 1);
        assert!(
            stats.counter_family(".migration.heartbeats_missed") > 0,
            "silence-driven cancellation must count missed heartbeats"
        );

        // Zero acknowledged-write loss: everything reads back, including the
        // half whose ownership had been handed to the phantom.
        let mut client = cluster.client(ClientConfig::default());
        for key in 0..100u64 {
            assert_eq!(
                client.read(key),
                Some(format!("v{key}").into_bytes()),
                "key {key} lost across the cancelled migration"
            );
        }
        assert!(client.upsert(3, b"post-cancel".to_vec()));
        assert_eq!(client.read(3).as_deref(), Some(&b"post-cancel"[..]));
        cluster.shutdown();
    }

    /// A migration start whose target cannot be dialled must roll the
    /// already-recorded ownership transfer back — otherwise the ranges are
    /// stranded on a target that never learned a migration existed.
    #[test]
    fn failed_migration_start_rolls_back_the_ownership_transfer() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        // Registered at the metadata store, but nothing listens at its
        // migration endpoint.
        cluster
            .meta()
            .register_server(crate::ServerId(8), "unreachable", 1, RangeSet::empty());
        let err = cluster
            .migrate_fraction(crate::ServerId(0), crate::ServerId(8), 0.5)
            .unwrap_err();
        assert!(err.contains("cancelled"), "unexpected error: {err}");
        assert_eq!(cluster.meta().pending_migrations(), 0);
        let (owner, _) = cluster.meta().owner_of(0).unwrap();
        assert_eq!(owner, crate::ServerId(0), "ownership was stranded");
        let stats = cluster.metrics().snapshot();
        assert_eq!(stats.counter_family(".migration.cancelled"), 1);
        // The source is fully clean: a real migration still works.
        cluster
            .migrate_fraction(crate::ServerId(0), crate::ServerId(1), 0.25)
            .unwrap();
        assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
        cluster.shutdown();
    }

    /// Operator-driven cancellation (`shadowfax-cli cancel` bottoms out
    /// here): an in-flight migration rolls back cleanly and the pair can
    /// immediately run a fresh migration to completion.
    #[test]
    fn operator_cancellation_rolls_back_and_allows_a_fresh_migration() {
        let mut config = ClusterConfig::two_server_test();
        // A long sampling phase keeps migration 1 reliably in flight while
        // the operator cancels it.
        config.server_template.migration.sampling_duration = Duration::from_millis(500);
        let cluster = Cluster::start(config);
        {
            let mut client = cluster.client(ClientConfig::default());
            for key in 0..50u64 {
                assert!(client.upsert(key, vec![key as u8; 16]));
            }
        }

        let id = cluster
            .migrate_fraction(crate::ServerId(0), crate::ServerId(1), 0.5)
            .unwrap();
        cluster.cancel_migration(id).expect("cancel in-flight");
        cluster.cancel_migration(id).expect("cancel is idempotent");
        let dep = cluster.meta().migration_state(id).unwrap().unwrap();
        assert!(dep.cancelled);
        assert_eq!(cluster.meta().pending_migrations(), 0);
        assert!(
            cluster.cancel_migration(9999).is_err(),
            "unknown ids are an error"
        );

        // The cancellation left no residue: a fresh migration of the same
        // ranges completes durably.
        let id2 = cluster
            .migrate_fraction(crate::ServerId(0), crate::ServerId(1), 0.25)
            .unwrap();
        assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
        assert!(
            cluster.meta().migration_state(id2).unwrap().is_none(),
            "second migration should complete and be garbage collected"
        );
        assert!(
            cluster.cancel_migration(id2).is_err(),
            "a durably completed migration cannot be cancelled"
        );

        let mut client = cluster.client(ClientConfig::default());
        for key in 0..50u64 {
            assert_eq!(client.read(key), Some(vec![key as u8; 16]));
        }
        cluster.shutdown();
    }
}
