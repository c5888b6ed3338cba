//! Server-to-server messages used by the migration protocol (paper §3.3).
//!
//! Client/server traffic reuses the request/reply batch types from
//! `shadowfax-net`.  Migration traffic between the source and target flows
//! over dedicated migration links (the in-process fabric, or TCP via
//! `shadowfax-rpc`) using the messages defined here, mirroring the paper's
//! RPCs: `PrepForTransfer`, `TakeOwnership`, `PushHotRecords` (the sampled
//! hot set), `PushRecordBatch`, `CompleteMigration`, plus a compaction-time
//! hand-off message for records a server no longer owns (paper §3.3.3).
//!
//! Every source→target message is **view-tagged** with the view number the
//! metadata store assigned the target when ownership was remapped, so a
//! target can adopt the new view from whichever message arrives first and
//! reject traffic from a different migration epoch.

use crate::hash_range::HashRange;
use crate::ServerId;

/// One record being shipped from the source to the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigratedItem {
    /// A full record (key + value) that was resident in the source's memory.
    Record {
        /// The record key.
        key: u64,
        /// The record value.
        value: Vec<u8>,
    },
    /// An indirection record pointing at the remainder of a hash chain on the
    /// shared storage tier (encoded with
    /// [`IndirectionRecord::encode_value`](crate::IndirectionRecord::encode_value)).
    Indirection {
        /// Hash value identifying the bucket/tag chain the record belongs in.
        representative_hash: u64,
        /// Encoded indirection payload.
        payload: Vec<u8>,
    },
}

impl MigratedItem {
    /// Approximate wire footprint of this item.
    pub fn wire_size(&self) -> usize {
        match self {
            MigratedItem::Record { value, .. } => 16 + value.len(),
            MigratedItem::Indirection { payload, .. } => 16 + payload.len(),
        }
    }
}

/// Messages exchanged between the source and target of a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationMsg {
    /// Source → target: ownership transfer is imminent; start pending
    /// requests for the migrating ranges (target moves to its Prepare phase).
    PrepForTransfer {
        /// Migration id assigned by the metadata store.
        migration_id: u64,
        /// The ranges being migrated.
        ranges: Vec<HashRange>,
        /// The source server.
        source: ServerId,
        /// The view the target moved to when ownership was remapped.
        target_view: u64,
    },
    /// Source → target: the source has stopped serving the ranges; the target
    /// owns them now and may begin serving (its Receive phase).  A
    /// [`MigrationMsg::PushHotRecords`] with the sampled hot set follows
    /// immediately on the same (ordered) link.
    TakeOwnership {
        /// Migration id.
        migration_id: u64,
        /// The ranges being migrated.
        ranges: Vec<HashRange>,
        /// The view the metadata store assigned the target at transfer time.
        target_view: u64,
    },
    /// Source → target: the hot records sampled during the source's Sampling
    /// phase, read after the ownership cut so they include every update the
    /// source acknowledged.
    PushHotRecords {
        /// Migration id.
        migration_id: u64,
        /// The target's view for this migration.
        target_view: u64,
        /// Hot records sampled at the source (key, value).
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Source → target: a parallel batch of migrated records / indirection
    /// records collected from one source thread's hash-table region.
    PushRecordBatch {
        /// Migration id.
        migration_id: u64,
        /// The target's view for this migration.
        target_view: u64,
        /// Items in this batch.
        items: Vec<MigratedItem>,
    },
    /// Source → target: every record has been shipped; checkpoint and mark
    /// your side complete at the metadata store.
    CompleteMigration {
        /// Migration id.
        migration_id: u64,
        /// The target's view for this migration.
        target_view: u64,
        /// Total items (records + indirection records) the source sent across
        /// all of its threads' sessions; the target waits until it has
        /// received this many before finalizing.
        total_items: u64,
    },
    /// Target → source: acknowledgement of a control message (keeps the
    /// source's state machine purely asynchronous — it never blocks on these).
    Ack {
        /// Migration id.
        migration_id: u64,
        /// Which phase is being acknowledged.
        phase: MigrationAckPhase,
    },
    /// Compaction hand-off (either direction, outside migrations): the sender
    /// found a record during log compaction whose hash range it no longer
    /// owns; the receiver inserts it unless it already has a newer version
    /// (paper §3.3.3).
    CompactionHandoff {
        /// The record key.
        key: u64,
        /// The record value.
        value: Vec<u8>,
    },
    /// Liveness probe on a migration link (either direction).  The receiver
    /// echoes a [`MigrationMsg::HeartbeatAck`] on the same connection; any
    /// traffic counts as proof of life, heartbeats just guarantee there *is*
    /// traffic during quiet protocol phases.
    Heartbeat {
        /// Migration id the probe belongs to.
        migration_id: u64,
        /// The sender's current serving view (diagnostic; receivers do not
        /// adopt it).
        view: u64,
    },
    /// Echo of a [`MigrationMsg::Heartbeat`].
    HeartbeatAck {
        /// Migration id echoed back.
        migration_id: u64,
        /// The echoing server's current serving view.
        view: u64,
    },
    /// The sender cancelled `migration_id` (its peer died, or an operator
    /// asked): the receiver must drop its in-flight state for the migration,
    /// roll back to its checkpoint, and re-adopt the post-cancellation
    /// ownership map (paper §3.3.1).  The migration id — never reused — is
    /// the replay fence.
    CancelMigration {
        /// The cancelled migration.
        migration_id: u64,
        /// The view the *receiver* was assigned for the cancelled
        /// migration, when the sender knows it (a source relaying to its
        /// target sends the target's assigned view; a target relaying to
        /// its source sends 0).  A receiver holding no in-flight state for
        /// the migration — cancelled before it ever heard of it — adopts
        /// `view + 1` as its serving-view fence, matching the authoritative
        /// store's post-cancellation registration; receivers *with* state
        /// gate on the migration id alone, since their own view can
        /// advance for unrelated concurrent migrations.
        view: u64,
    },
}

/// Which control step an [`MigrationMsg::Ack`] acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationAckPhase {
    /// Acknowledges `PrepForTransfer`.
    Prepared,
    /// Acknowledges `TransferredOwnership`.
    OwnershipReceived,
    /// Acknowledges `CompleteMigration` (target finished inserting records).
    Completed,
}
