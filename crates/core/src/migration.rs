//! The scale-out / migration protocol (paper §3.3), and the [`Server`] that
//! drives it.
//!
//! Migration moves ownership of a set of hash ranges from a *source* server
//! to a *target* server and then moves the records themselves.  The
//! protocol — its phases, the epoch cuts between them, liveness and the one
//! cancel edge on each side — is two sans-I/O state machines in
//! [`protocol`].  This module is their driver: it turns what the dispatch
//! threads observe (messages, completed cuts, drained regions, the pass
//! clock) into events and executes the actions that come back, and it owns
//! everything with I/O in it — the links, the epoch cuts, the stores.
//!
//! * Dispatch thread 0 steps the source machine once per pass; every other
//!   thread reads the phase it publishes to run its share of the Migrate
//!   phase, walking its own region of the hash table through a
//!   [`MigrationBatchIter`] and shipping in-memory records and, for chains
//!   that extend onto the SSD, *indirection records* naming the
//!   shared-tier location (`MigrationMode::Shadowfax`).  The Rocksteady
//!   baseline instead has thread 0 scan the on-SSD log afterwards.
//! * The target machine is stepped, under the `incoming` lock, by whichever
//!   thread received a migration message, and by thread 0 once per pass to
//!   check the source's liveness.  No dispatch thread ever stalls on a
//!   phase change: each observes it between request batches.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use shadowfax_faster::{
    take_checkpoint, Address, FasterSession, KeyHash, ReadOutcome, RecordFlags, RecordOwned,
};
use shadowfax_hlog::{LogScanner, RecordHeader, RECORD_HEADER_BYTES};
use shadowfax_net::TransportError;
use shadowfax_storage::{LogId, SharedBlobTier, TierRecord, TierService};

use crate::config::MigrationMode;
use crate::hash_range::HashRange;
use crate::indirection::IndirectionRecord;
use crate::messages::{MigratedItem, MigrationMsg};
use crate::server::Server;
use crate::wire::PeerLink;
use crate::ServerId;

mod protocol;

pub(crate) use protocol::{PendMode, TargetEvent, TargetMachine};
use protocol::{SourceAction, SourceEvent, SourceMachine, SourcePhase, TargetAction};

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
pub(crate) struct OutgoingMigration {
    pub(crate) migration_id: u64,
    pub(crate) target: ServerId,
    pub(crate) ranges: Vec<HashRange>,
    pub(crate) new_view: u64,
    /// The view the metadata store assigned the target; every source→target
    /// message is tagged with it.
    pub(crate) target_view: u64,
    /// The protocol.  Dispatch thread 0 steps it every pass; a cancellation
    /// (operator, peer relay) steps it from whichever thread raised it.
    machine: Mutex<SourceMachine>,
    /// The machine's phase as the other dispatch threads read it
    /// (`SourcePhase as u8`).
    phase: AtomicU8,
    /// Events raised off thread 0 — completed epoch cuts, messages on other
    /// threads' records links — for thread 0 to step on its next pass.
    inbox: Mutex<Vec<SourceEvent>>,
    /// Per-thread loop generations recorded when the serving view flipped;
    /// the hot set is read only after every thread has advanced past these.
    view_flip_generations: Mutex<Option<Vec<u64>>>,
    /// Per-thread hash-table regions.
    pub(crate) regions: Vec<Mutex<RegionCursor>>,
    pub(crate) regions_done: AtomicUsize,
    /// Control connection to the target (thread 0 of its migration fabric).
    pub(crate) control: Mutex<PeerLink>,
    /// Rocksteady disk-scan cursor.
    pub(crate) disk_cursor: Mutex<Address>,
    // Accounting (Figure 13).
    pub(crate) bytes_from_memory: AtomicU64,
    pub(crate) records_sent: AtomicU64,
    pub(crate) indirections_sent: AtomicU64,
    pub(crate) ssd_bytes_scanned: AtomicU64,
    pub(crate) total_items: AtomicU64,
}

/// The result of pulling one step from a [`MigrationBatchIter`].
#[derive(Debug)]
pub(crate) enum BatchPull {
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
pub(crate) struct MigrationBatchIter<'a> {
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
    pub(crate) fn next_batch(&mut self) -> BatchPull {
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
    pub(crate) records_conn: Option<PeerLink>,
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
        if let Some(out) = self.outgoing.read().as_ref() {
            // A source still waiting for the final ack of a migration the
            // store already resolved (in-process, the target marks its own
            // side complete) no longer holds the slot.
            if !matches!(self.meta.migration_state(out.migration_id), Ok(None)) {
                return Err("a migration is already in progress at this server".into());
            }
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

        let machine = SourceMachine::new(
            Instant::now(),
            &self.config.migration,
            migration_id,
            self.id(),
            target,
            ranges.clone(),
            new_target_view,
        );
        let outgoing = Arc::new(OutgoingMigration {
            migration_id,
            target,
            ranges,
            new_view: new_source_view,
            target_view: new_target_view,
            machine: Mutex::new(machine),
            phase: AtomicU8::new(SourcePhase::Sampling as u8),
            inbox: Mutex::new(Vec::new()),
            view_flip_generations: Mutex::new(None),
            regions,
            regions_done: AtomicUsize::new(0),
            control: Mutex::new(control),
            disk_cursor: Mutex::new(self.store.log().begin_address()),
            bytes_from_memory: AtomicU64::new(0),
            records_sent: AtomicU64::new(0),
            indirections_sent: AtomicU64::new(0),
            ssd_bytes_scanned: AtomicU64::new(0),
            total_items: AtomicU64::new(0),
        });
        self.timeline
            .record("migration.phase", "sampling", migration_id);
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

    /// This thread's share of the outgoing migration, if one is in flight:
    /// its slice of the Migrate phase, forwarding what its records link
    /// carries, and — on thread 0 — stepping the source machine with this
    /// pass's events.  Returns `true` if any work was done.
    pub(crate) fn drive_outgoing(
        self: &Arc<Self>,
        now: Instant,
        state: &mut SourceThreadState,
        session: &FasterSession,
    ) -> bool {
        let Some(out) = self.outgoing.read().clone() else {
            return false;
        };
        state.reset_for(out.migration_id);
        let phase = out.phase.load(Ordering::SeqCst);
        let mut did_work = false;
        if phase == SourcePhase::Migrate as u8 {
            did_work |= self.drive_migrate_phase(&out, state, session);
        } else if let Some(conn) = &mut state.records_conn {
            // The target's final ack travels on whichever link delivered the
            // finalizing message, which can be this thread's records link.
            while let Ok(Some(msg)) = conn.recv_migration() {
                out.inbox.lock().push(SourceEvent::Received(msg));
            }
        }
        if state.thread_id != 0 {
            return did_work;
        }
        let mut events = std::mem::take(&mut *out.inbox.lock());
        let mut control = out.control.lock();
        let error = loop {
            match control.recv_migration() {
                Ok(Some(msg)) => events.push(SourceEvent::Received(msg)),
                Ok(None) => break None,
                Err(TransportError::PeerClosed) => break Some("control link closed".to_string()),
                Err(e) => break Some(format!("control link receive failed: {e}")),
            }
        };
        drop(control);
        events.extend(error.map(SourceEvent::LinkError));
        if phase == SourcePhase::Transfer as u8 {
            let at_flip = out.view_flip_generations.lock().clone().unwrap_or_default();
            let past =
                |(t, at): (usize, &u64)| self.loop_generation[t].load(Ordering::SeqCst) > *at;
            if !at_flip.is_empty() && at_flip.iter().enumerate().all(past) {
                events.push(SourceEvent::ViewFlipCrossed);
            }
        } else if phase == SourcePhase::Migrate as u8
            && out.regions_done.load(Ordering::SeqCst) >= self.config.threads
        {
            events.push(SourceEvent::RegionsDrained(
                out.total_items.load(Ordering::SeqCst),
            ));
        } else if phase == SourcePhase::DiskScan as u8 {
            did_work = true;
            if self.drive_disk_scan(&out, state, session) {
                events.push(SourceEvent::DiskScanDone(
                    out.total_items.load(Ordering::SeqCst),
                ));
            }
        }
        events.push(SourceEvent::Tick);
        for event in events {
            did_work |= self.step_source(&out, now, event, session);
        }
        did_work
    }

    /// Steps the source machine through `event` and every event its
    /// actions answer with, executing the actions outside the machine's
    /// lock.  Returns `true` if any action ran.
    fn step_source(
        self: &Arc<Self>,
        out: &Arc<OutgoingMigration>,
        now: Instant,
        event: SourceEvent,
        session: &FasterSession,
    ) -> bool {
        let mut next = Some(event);
        let mut acted = false;
        while let Some(event) = next.take() {
            let (actions, before, phase) = {
                let mut machine = out.machine.lock();
                let before = machine.phase();
                let actions = machine.step(now, event);
                (actions, before, machine.phase())
            };
            if phase >= SourcePhase::Done {
                // Detach before anything is rolled back: the ownership
                // transfer cut re-checks the slot, so a flip still in flight
                // can no longer clobber the rolled-back view.
                self.outgoing.write().take_if(|o| Arc::ptr_eq(o, out));
            }
            for action in actions {
                acted = true;
                if let Some(event) = self.execute_source(out, action, session) {
                    next = Some(event);
                }
            }
            // A new phase is published to the other dispatch threads, and
            // stamped on the timeline (Fig. 11 impact windows), once the
            // step's actions ran (Migrate once the hot set has shipped) —
            // unless a concurrent cancellation has moved the machine on.
            if phase == before {
                continue;
            }
            let machine = out.machine.lock();
            if machine.phase() == phase {
                out.phase.store(phase as u8, Ordering::SeqCst);
                if let Some(label) = phase.label() {
                    self.timeline
                        .record("migration.phase", label, out.migration_id);
                }
            }
        }
        acted
    }

    /// Executes one source action; returns the event that answers it, if
    /// any (a failed send on the control link is a link error).
    fn execute_source(
        self: &Arc<Self>,
        out: &Arc<OutgoingMigration>,
        action: SourceAction,
        session: &FasterSession,
    ) -> Option<SourceEvent> {
        let send = |msg| {
            let sent = out.control.lock().send_migration(msg);
            sent.err()
                .map(|(e, _)| SourceEvent::LinkError(format!("control link send failed: {e}")))
        };
        match action {
            SourceAction::Send(msg) => return send(msg),
            SourceAction::Heartbeat => {
                return send(MigrationMsg::Heartbeat {
                    migration_id: out.migration_id,
                    view: self.serving_view(),
                })
            }
            SourceAction::ShipHotSet => {
                // Read the hot set's current values now — after the cut — so
                // every update acknowledged by the source is included.
                let records = self
                    .store
                    .end_sampling()
                    .into_iter()
                    .filter_map(|key| match self.store.read_record_for(key, session) {
                        Ok(ReadOutcome::Found { record, .. })
                            if !record.is_indirection() && !record.is_tombstone() =>
                        {
                            Some((key, record.value().to_vec()))
                        }
                        _ => None,
                    })
                    .collect();
                return send(MigrationMsg::PushHotRecords {
                    migration_id: out.migration_id,
                    target_view: out.target_view,
                    records,
                });
            }
            SourceAction::ScheduleCut => self.schedule_cut(out, false),
            SourceAction::ScheduleViewFlip => self.schedule_cut(out, true),
            SourceAction::Checkpoint => self.checkpoint(session),
            SourceAction::MarkComplete(server) => {
                let _ = self.meta.mark_complete(out.migration_id, server);
            }
            SourceAction::RecordReport(duration) => {
                *self.completed_report.lock() = Some(MigrationReport {
                    migration_id: out.migration_id,
                    role: MigrationRole::Source,
                    bytes_from_memory: out.bytes_from_memory.load(Ordering::Relaxed),
                    records_moved: out.records_sent.load(Ordering::Relaxed),
                    indirection_records: out.indirections_sent.load(Ordering::Relaxed),
                    ssd_bytes_scanned: out.ssd_bytes_scanned.load(Ordering::Relaxed),
                    duration_ms: duration.as_millis() as u64,
                });
            }
            SourceAction::EndSampling => {
                let _ = self.store.end_sampling();
            }
            SourceAction::CancelAtStore => {
                let won = self.meta.cancel_migration(out.migration_id).is_ok();
                return Some(SourceEvent::StoreCancelled(won));
            }
            SourceAction::RefreshOwnership => self.refresh_ownership_from_meta(),
            SourceAction::NoteCancellation(reason, missed) => {
                let shipped = out.records_sent.load(Ordering::Relaxed)
                    + out.indirections_sent.load(Ordering::Relaxed);
                self.note_cancellation(out.migration_id, shipped, missed, &reason);
            }
        }
        None
    }

    /// Takes an epoch cut for the source machine, which hears of it on
    /// thread 0's next pass.  The ownership-transfer cut also moves the
    /// server into its new view.
    fn schedule_cut(self: &Arc<Self>, out: &Arc<OutgoingMigration>, flip_view: bool) {
        let server = Arc::clone(self);
        let out = Arc::clone(out);
        self.store.epoch().bump_with_action(move || {
            if flip_view {
                // The migration may have been cancelled (dead target)
                // between scheduling this action and the cut completing;
                // flipping the view for a dead migration would clobber the
                // post-cancellation ownership map.  The check synchronizes
                // with the cancel edge on the `outgoing` slot lock: its
                // driver detaches the slot under the write lock before it
                // touches the view, so whoever holds the slot wins.
                let guard = server.outgoing.read();
                if guard.as_ref().map(|o| o.migration_id) != Some(out.migration_id) {
                    return;
                }
                // Transfer-phase entry: move into the new view.  From this
                // instant batches tagged with the old view are rejected,
                // which pushes the cut out to clients over their sessions
                // (paper §3.2.1).
                server.serving_view.store(out.new_view, Ordering::SeqCst);
                server.owned.write().remove(&out.ranges);
                // Record each thread's position in its operation sequence;
                // the hot set is shipped only after every thread has moved
                // past it (the paper's global cut is taken at operation
                // boundaries, §2.1/§3.2.1).
                let generations = server
                    .loop_generation
                    .iter()
                    .map(|g| g.load(Ordering::SeqCst))
                    .collect();
                *out.view_flip_generations.lock() = Some(generations);
            }
            out.inbox.lock().push(SourceEvent::CutReached);
        });
    }

    /// Takes the source machine's cancel edge for `migration_id`, if this
    /// server is its source.  Returns `false` if no outgoing migration with
    /// that id is in flight.
    pub(crate) fn cancel_outgoing(
        self: &Arc<Self>,
        now: Instant,
        migration_id: u64,
        reason: &str,
        session: &FasterSession,
    ) -> bool {
        let out = self.outgoing.read().clone();
        let cancel = SourceEvent::Cancel(reason.into());
        out.filter(|out| out.migration_id == migration_id)
            .is_some_and(|out| self.step_source(&out, now, cancel, session))
    }

    /// Checkpoints the store as this server's new recovery point.
    fn checkpoint(&self, session: &FasterSession) {
        let cp = take_checkpoint(&self.store, session);
        *self.latest_checkpoint.lock() = Some(cp);
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

    /// One iteration of this thread's share of the Migrate phase: pull the
    /// next record batch from the thread's [`MigrationBatchIter`] and ship
    /// it over the thread's migration link.
    fn drive_migrate_phase(
        self: &Arc<Self>,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        session: &FasterSession,
    ) -> bool {
        if state.region_done_reported {
            // This thread is finished; thread 0 watches for global completion.
            return false;
        }
        let thread_id = state.thread_id;

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
                    match self.config.migration.mode {
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
    /// would leave the target waiting forever.
    fn ship_migration_items(
        &self,
        outgoing: &Arc<OutgoingMigration>,
        state: &mut SourceThreadState,
        items: Vec<MigratedItem>,
    ) {
        if items.is_empty() {
            return;
        }
        let mut msg = MigrationMsg::PushRecordBatch {
            migration_id: outgoing.migration_id,
            target_view: outgoing.target_view,
            items,
        };
        if let Some(conn) = &mut state.records_conn {
            match conn.send_migration(msg) {
                Ok(()) => {
                    // Drain acknowledgements/noise so the stream never
                    // backs up.
                    while let Ok(Some(_)) = conn.recv_migration() {}
                    return;
                }
                // The link failed; drop it so the next iteration redials.
                Err((_, unsent)) => {
                    state.records_conn = None;
                    msg = unsent;
                }
            }
        }
        let sent = outgoing.control.lock().send_migration(msg);
        if let Err((_, MigrationMsg::PushRecordBatch { mut items, .. })) = sent {
            items.append(&mut state.batch);
            state.batch = items;
        }
    }

    /// One bounded slice of the Rocksteady baseline's sequential SSD scan.
    ///
    /// The cursor always resumes from the scanner's own position (a record or
    /// page boundary), never from an arbitrary byte offset, so no record is
    /// ever skipped at a chunk boundary.  Returns `true` once the scan has
    /// reached the head and everything it found is shipped.
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
            return state.batch.is_empty();
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
        new_cursor >= head && state.batch.is_empty()
    }

    // ------------------------------------------------------------------
    // Target side
    // ------------------------------------------------------------------

    /// Handles one migration message arriving from a peer server.
    pub(crate) fn handle_migration_msg(
        self: &Arc<Self>,
        now: Instant,
        msg: MigrationMsg,
        conn: &mut PeerLink,
        session: &FasterSession,
    ) {
        let reason = "peer cancelled the migration";
        match msg {
            // Not part of a migration (paper §3.3.3): the sender compacted a
            // record of a range it no longer owns.  The new owner already
            // holds every live record of its ranges, so any local version
            // beats the hand-off's.
            MigrationMsg::CompactionHandoff { key, value } => {
                let item = MigratedItem::Record { key, value };
                self.insert_migrated(item, Address::new(0), session);
            }
            // A target relays a cancellation to its source here.
            MigrationMsg::CancelMigration { migration_id, .. }
                if self.cancel_outgoing(now, migration_id, reason, session) => {}
            msg => {
                let event = TargetEvent::Received(msg, self.serving_view());
                self.drive_target(now, event, Some(conn), session);
            }
        }
    }

    /// Steps the target machine through `event` and every event its actions
    /// answer with.  Steps run under the `incoming` lock, actions outside
    /// it; replies go back on `conn`.  Returns `true` if any action ran.
    pub(crate) fn drive_target(
        self: &Arc<Self>,
        now: Instant,
        event: TargetEvent,
        mut conn: Option<&mut PeerLink>,
        session: &FasterSession,
    ) -> bool {
        let mut next = Some(event);
        let mut acted = false;
        while let Some(event) = next.take() {
            let (actions, activated) = {
                let mut target = self.incoming.lock();
                let actions = target.step(now, event);
                let active = target.is_active();
                let was_active = self.incoming_active.swap(active, Ordering::SeqCst);
                (actions, active && !was_active)
            };
            if activated {
                // The server holds a migration role now: sibling threads
                // stop parking until it is over.
                self.wake_all();
            }
            for action in actions {
                acted = true;
                if let Some(event) = self.execute_target(action, conn.as_deref_mut(), session) {
                    next = Some(event);
                }
            }
        }
        acted
    }

    /// Executes one target action; returns the event that answers it, if
    /// any.
    fn execute_target(
        self: &Arc<Self>,
        action: TargetAction,
        conn: Option<&mut PeerLink>,
        session: &FasterSession,
    ) -> Option<TargetEvent> {
        match action {
            TargetAction::Reply(msg) => {
                if let Some(conn) = conn {
                    let _ = conn.send_migration(msg);
                }
            }
            TargetAction::AdoptRanges(ranges, view) => {
                let tail = self.store.log().tail_address().raw();
                self.incoming_floor.store(tail, Ordering::SeqCst);
                self.serving_view.fetch_max(view, Ordering::SeqCst);
                self.owned.write().add(&ranges);
            }
            TargetAction::AdoptView(view) => {
                self.serving_view.fetch_max(view, Ordering::SeqCst);
            }
            TargetAction::Insert(migration_id, items) => {
                let count = items.len() as u64;
                let floor = Address::new(self.incoming_floor.load(Ordering::SeqCst));
                for item in items {
                    self.insert_migrated(item, floor, session);
                }
                return Some(TargetEvent::Inserted(migration_id, count));
            }
            TargetAction::InsertHot(records) => {
                let floor = Address::new(self.incoming_floor.load(Ordering::SeqCst));
                for (key, value) in records {
                    self.insert_migrated(MigratedItem::Record { key, value }, floor, session);
                }
            }
            TargetAction::Checkpoint => self.checkpoint(session),
            TargetAction::MarkComplete(migration_id) => {
                let _ = self.meta.mark_complete(migration_id, self.id());
            }
            TargetAction::RecordReport(report) => *self.completed_report.lock() = Some(report),
            TargetAction::CancelAtStore(migration_id, ranges) => {
                match self.meta.cancel_migration(migration_id) {
                    Ok(_) => self.refresh_ownership_from_meta(),
                    Err(_) => {
                        self.owned.write().remove(ranges.ranges());
                        self.serving_view.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            TargetAction::BumpPendFlush => self.bump_pend_flush(),
            TargetAction::RelayCancel(source, migration_id) => {
                // If the source is really gone the dial simply fails.
                let address = self
                    .meta
                    .snapshot()
                    .server(source)
                    .map(|s| s.address.clone());
                if let Some(mut link) = address.and_then(|a| self.connect_migration(&a, source, 0))
                {
                    let _ = link.send_migration(MigrationMsg::CancelMigration {
                        migration_id,
                        view: 0,
                    });
                }
            }
            TargetAction::NoteCancellation {
                migration_id,
                reason,
                rolled_back,
                missed,
            } => self.note_cancellation(migration_id, rolled_back, missed, &reason),
        }
        None
    }

    /// Inserts an item a peer shipped (by migration or a compaction
    /// hand-off).  A record is skipped if a local version at or past
    /// `floor` exists (a client wrote — or deleted — the key after
    /// ownership transferred; a local tombstone is a newer version too, and
    /// overwriting it would resurrect the key).  A local version below
    /// `floor` predates the migration: the source's newer value wins.
    fn insert_migrated(&self, item: MigratedItem, floor: Address, session: &FasterSession) {
        let (hash, key, value, flags) = match item {
            MigratedItem::Record { key, value } => {
                if let Ok(ReadOutcome::Found { address, record }) =
                    self.store.read_record_for(key, session)
                {
                    if !record.is_indirection() && address >= floor {
                        return;
                    }
                }
                (KeyHash::of(key).raw(), key, value, RecordFlags::empty())
            }
            MigratedItem::Indirection {
                representative_hash: hash,
                payload,
            } => (hash, hash, payload, RecordFlags::INDIRECTION),
        };
        let inserted = self
            .store
            .insert_record_at_hash(hash, key, &value, flags, session);
        self.check_insert(inserted, &self.migration_insert_failed, "migrated", key);
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

    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::ClientConfig;
    use crate::hash_range::RangeSet;
    use crate::messages::MigrationAckPhase;
    use crate::wire::testing::FramedPeer;
    use crate::wire::{WireMsg, MIGRATION_SEND_BUDGET};
    use shadowfax_net::LivenessConfig;
    use std::time::Duration;

    /// A loopback migration connection standing in for a source's control
    /// link: the end the target replies on, and the far end the replies
    /// can be read from.
    fn loopback(cluster: &Cluster, addr: &str) -> (PeerLink, FramedPeer) {
        let listener = cluster.network().listen(addr);
        let stream = cluster.network().connect(addr).unwrap();
        let far = FramedPeer::new(listener.try_accept().unwrap());
        let link = PeerLink::new(Box::new(stream), addr.into(), MIGRATION_SEND_BUDGET);
        (link, far)
    }

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

        let (mut conn, mut source_side) = loopback(&cluster, "unit-source");

        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::PrepForTransfer {
                migration_id,
                ranges: vec![moving],
                source: crate::ServerId(0),
                target_view,
            },
            &mut conn,
            &session,
        );
        assert_eq!(target.serving_view(), target_view);
        assert!(target.owned_ranges().contains(moving.start));

        // A batch in the live epoch applies.
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items: vec![MigratedItem::Record {
                    key: 42,
                    value: b"live".to_vec(),
                }],
            },
            &mut conn,
            &session,
        );
        assert_eq!(session.read(42).unwrap(), Some(b"live".to_vec()));

        // The target declares the source dead and cancels: ownership rolls
        // back and the serving view advances past the dead epoch.
        assert!(target.cancel_local_roles(Instant::now(), migration_id, "unit test", &session));
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
        assert!(!target.cancel_local_roles(Instant::now(), migration_id, "again", &session));

        // The revived source's post-cancellation frames are fenced by view.
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items: vec![MigratedItem::Record {
                    key: 43,
                    value: b"stale".to_vec(),
                }],
            },
            &mut conn,
            &session,
        );
        assert_eq!(
            session.read(43).unwrap(),
            None,
            "a stale-view record batch must be dropped"
        );
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::PushHotRecords {
                migration_id,
                target_view,
                records: vec![(44, b"stale-hot".to_vec())],
            },
            &mut conn,
            &session,
        );
        assert_eq!(
            session.read(44).unwrap(),
            None,
            "a hot-set push for a cancelled migration must be dropped"
        );

        // The live phase of the protocol acked on the link.
        let acked = source_side.frames();
        assert!(acked.iter().any(|m| matches!(
            m,
            WireMsg::Migration(MigrationMsg::Ack {
                phase: MigrationAckPhase::Prepared,
                ..
            })
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

        let (mut conn, _source_side) = loopback(&cluster, "unit-source-2");

        // A cancel for an *unknown* migration carrying no fence (view 0,
        // the target -> source relay form) must not move the view.
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::CancelMigration {
                migration_id: migration_id + 7,
                view: 0,
            },
            &mut conn,
            &session,
        );
        assert_eq!(target.serving_view(), 1);

        // The source's relay carries the target's assigned view: with no
        // local state to roll back, the target adopts the post-cancellation
        // fence and agrees with the authoritative registration.
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::CancelMigration {
                migration_id,
                view: target_view,
            },
            &mut conn,
            &session,
        );
        assert_eq!(target.serving_view(), registered);

        // A replayed cancel from the dead epoch is harmless.
        target.handle_migration_msg(
            Instant::now(),
            MigrationMsg::CancelMigration {
                migration_id,
                view: target_view,
            },
            &mut conn,
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
        let _phantom = cluster.network().listen("phantom/m0");

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
