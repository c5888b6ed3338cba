//! The fault-tolerant external metadata store (paper §3: "a fault-tolerant,
//! external metadata store (e.g. ZooKeeper) durably maintains these view
//! numbers along with mappings from hash ranges to servers").
//!
//! The protocol only needs a handful of linearizable operations from the
//! store: register a server, atomically transfer ownership of a set of hash
//! ranges (incrementing both servers' view numbers and recording a migration
//! dependency), mark a migration role complete, cancel a migration, and read
//! back a consistent snapshot of the ownership map.  A mutex-protected map
//! provides exactly those semantics in-process; nothing in the rest of the
//! system can tell the difference from a real ZooKeeper ensemble, which is
//! why this substitution is sound (see DESIGN.md §1).
//!
//! Multi-process clusters replicate the store: every mutation bumps a
//! **cluster epoch**, and [`MetadataStore::replica`] /
//! [`MetadataStore::merge_replica`] export and merge epoch-tagged copies of
//! the whole store.  The merge is convergent — server entries are resolved
//! by view number (ties broken deterministically on content), migration
//! dependency flags only ever gain (`cancelled` / completion flags OR
//! together), and the epoch joins upward — so a broker that pulls every
//! peer's replica and fans the merged result back out drives all processes
//! to the same map.  Migration ids are namespaced by source server id so
//! ids minted by different processes never collide when replicas meet.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hash_range::{HashRange, RangeSet};
use crate::ServerId;

/// A migration dependency recorded while a migration is in flight
/// (paper §3.3.1): recovery of either server must consult it until both
/// completion flags are set, after which it is garbage collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationDep {
    /// Unique id of the migration.
    pub id: u64,
    /// Server losing the ranges.
    pub source: ServerId,
    /// Server gaining the ranges.
    pub target: ServerId,
    /// The ranges being moved.
    pub ranges: Vec<HashRange>,
    /// Set when the source has checkpointed and finished its role.
    pub source_complete: bool,
    /// Set when the target has checkpointed and finished its role.
    pub target_complete: bool,
    /// Set if the migration was cancelled (crash during migration).
    pub cancelled: bool,
}

impl MigrationDep {
    /// `true` once both sides have completed (the dependency can be GC'd).
    pub fn is_complete(&self) -> bool {
        self.source_complete && self.target_complete
    }
}

/// Per-server state kept by the metadata store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerMeta {
    /// The server's strictly increasing view number.
    pub view: u64,
    /// The hash ranges the server owns.
    pub owned: RangeSet,
    /// Base network address ("sv3"); thread `t` listens at `"sv3/t{t}"`.
    pub address: String,
    /// Number of dispatch threads the server runs (clients pick one).
    pub threads: usize,
}

/// A consistent snapshot of the cluster's ownership mappings, cached by
/// clients and refreshed on batch rejection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnershipSnapshot {
    /// Per-server view, ranges, address, and thread count.
    pub servers: HashMap<ServerId, ServerMeta>,
}

impl OwnershipSnapshot {
    /// The server owning `hash`, with its view number, if any.
    pub fn owner_of(&self, hash: u64) -> Option<(ServerId, u64)> {
        self.servers
            .iter()
            .find(|(_, m)| m.owned.contains(hash))
            .map(|(id, m)| (*id, m.view))
    }

    /// The metadata of one server.
    pub fn server(&self, id: ServerId) -> Option<&ServerMeta> {
        self.servers.get(&id)
    }
}

/// A full, epoch-tagged copy of the metadata store, exported for
/// replication.  Server entries are sorted by id and dependencies by
/// migration id so the encoding is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaReplica {
    /// The cluster epoch at the exporting store.
    pub epoch: u64,
    /// The exporting store's migration sequence counter (merged via max so
    /// a promoted broker keeps minting fresh ids).
    pub next_migration_seq: u64,
    /// Every registered server with its view, ownership, and address.
    pub servers: Vec<(ServerId, ServerMeta)>,
    /// In-flight migration dependencies.
    pub pending: Vec<MigrationDep>,
    /// Durably completed migrations (retained for status queries).
    pub completed: Vec<MigrationDep>,
    /// Cancelled migrations (retained for status queries).
    pub cancelled: Vec<MigrationDep>,
}

/// What [`MetadataStore::merge_replica`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Whether the merge changed any local state.
    pub changed: bool,
    /// The local epoch after the merge (joined upward, bumped when the
    /// merge changed content).
    pub epoch: u64,
    /// Dependencies that *became* cancelled through this merge — the hook
    /// the cluster uses to roll back involved local servers.
    pub newly_cancelled: Vec<MigrationDep>,
}

/// Migration ids are namespaced by the source server id (high bits) over a
/// per-store sequence (low bits), so ids minted concurrently by different
/// processes never collide once replicas merge.
const MIGRATION_SEQ_BITS: u32 = 40;

fn compose_migration_id(source: ServerId, seq: u64) -> u64 {
    ((source.0 as u64) << MIGRATION_SEQ_BITS) | (seq & ((1u64 << MIGRATION_SEQ_BITS) - 1))
}

#[derive(Debug, Default)]
struct MetaInner {
    servers: HashMap<ServerId, ServerMeta>,
    migrations: Vec<MigrationDep>,
    /// Completed migrations, retained so a status query for an id minted at
    /// *another* process (learned through replica merge) can still answer
    /// "complete" rather than "unknown".  Migrations are rare, so retention
    /// is unbounded, mirroring `cancelled`.
    completed: Vec<MigrationDep>,
    /// Cancelled migrations, retained so status queries can distinguish
    /// "completed" from "rolled back".  Cancellations are rare (crash
    /// recovery), so retention is unbounded — evicting one would make its
    /// status read as a success.
    cancelled: Vec<MigrationDep>,
    next_migration_seq: u64,
    /// The cluster epoch: bumped on every mutation, joined upward on
    /// replica merge.  Replication uses it to decide which peers still
    /// need a fan-out and when a cancellation has converged.
    epoch: u64,
}

impl MetaInner {
    /// Which retention list holds `id`, if any.
    fn find_dep(&self, id: u64) -> Option<(DepList, usize)> {
        if let Some(i) = self.migrations.iter().position(|d| d.id == id) {
            return Some((DepList::Pending, i));
        }
        if let Some(i) = self.completed.iter().position(|d| d.id == id) {
            return Some((DepList::Completed, i));
        }
        if let Some(i) = self.cancelled.iter().position(|d| d.id == id) {
            return Some((DepList::Cancelled, i));
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepList {
    Pending,
    Completed,
    Cancelled,
}

/// The retention list a dependency belongs in, derived from its flags.
fn dep_list_for(dep: &MigrationDep) -> DepList {
    if dep.cancelled {
        DepList::Cancelled
    } else if dep.is_complete() {
        DepList::Completed
    } else {
        DepList::Pending
    }
}

/// A deterministic total order on server-entry content, used only to break
/// equal-view conflicts during replica merge so every process converges on
/// the same winner.
fn merge_rank(m: &ServerMeta) -> (Vec<(u64, u64)>, String, usize, u64) {
    (
        m.owned.ranges().iter().map(|r| (r.start, r.end)).collect(),
        m.address.clone(),
        m.threads,
        m.view,
    )
}

/// The in-process metadata store.
#[derive(Debug, Default)]
pub struct MetadataStore {
    inner: Mutex<MetaInner>,
}

impl MetadataStore {
    /// Creates an empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers (or re-registers) a server with its initial ownership.
    pub fn register_server(
        &self,
        id: ServerId,
        address: impl Into<String>,
        threads: usize,
        owned: RangeSet,
    ) {
        let mut inner = self.inner.lock();
        inner.servers.insert(
            id,
            ServerMeta {
                view: 1,
                owned,
                address: address.into(),
                threads,
            },
        );
        inner.epoch += 1;
    }

    /// Registers a server like [`MetadataStore::register_server`], but
    /// validates the registration first: re-registering an id that is
    /// already present is rejected (typed error, not a silent overwrite),
    /// as is an ownership claim overlapping another server's ranges.  This
    /// is the registration path cluster assembly uses; the unchecked
    /// variant remains for crash recovery, which deliberately re-registers
    /// a rebooted server over its old entry.
    pub fn try_register_server(
        &self,
        id: ServerId,
        address: impl Into<String>,
        threads: usize,
        owned: RangeSet,
    ) -> Result<(), MetaError> {
        let mut inner = self.inner.lock();
        if inner.servers.contains_key(&id) {
            return Err(MetaError::AlreadyRegistered(id));
        }
        for (other, meta) in &inner.servers {
            for theirs in meta.owned.ranges() {
                for ours in owned.ranges() {
                    if ours.overlaps(theirs) {
                        return Err(MetaError::OwnershipOverlap {
                            server: id,
                            other: *other,
                            range: HashRange::new(
                                ours.start.max(theirs.start),
                                ours.end.min(theirs.end),
                            ),
                        });
                    }
                }
            }
        }
        inner.servers.insert(
            id,
            ServerMeta {
                view: 1,
                owned,
                address: address.into(),
                threads,
            },
        );
        inner.epoch += 1;
        Ok(())
    }

    /// Removes a server (scale-in after its ranges have been migrated away).
    pub fn deregister_server(&self, id: ServerId) {
        let mut inner = self.inner.lock();
        if inner.servers.remove(&id).is_some() {
            inner.epoch += 1;
        }
    }

    /// The cluster epoch: bumped on every mutation, joined upward on
    /// replica merge.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Explicitly advances the cluster epoch without changing content — a
    /// newly promoted broker uses this so its first fan-out is tagged with
    /// an epoch strictly later than anything the failed broker sent.
    pub fn bump_epoch(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.epoch
    }

    /// The current view number of `id`.
    pub fn view_of(&self, id: ServerId) -> Option<u64> {
        self.inner.lock().servers.get(&id).map(|m| m.view)
    }

    /// A consistent snapshot of all ownership mappings.
    pub fn snapshot(&self) -> OwnershipSnapshot {
        OwnershipSnapshot {
            servers: self.inner.lock().servers.clone(),
        }
    }

    /// The `(server, view)` owning `hash`, if any.
    pub fn owner_of(&self, hash: u64) -> Option<(ServerId, u64)> {
        let inner = self.inner.lock();
        inner
            .servers
            .iter()
            .find(|(_, m)| m.owned.contains(hash))
            .map(|(id, m)| (*id, m.view))
    }

    /// Atomically moves `ranges` from `source` to `target`: both servers'
    /// view numbers are incremented, the ownership mappings updated, and a
    /// migration dependency recorded (paper §3.3 "Sampling" step 1).
    ///
    /// Conflicting migrations are serialized here: a transfer whose ranges
    /// overlap an in-flight dependency (e.g. migrating onward ranges whose
    /// previous migration has not completed on both sides) is rejected with
    /// [`MetaError::ConflictingMigration`] until that dependency settles.
    ///
    /// Returns `(migration id, new source view, new target view)`.
    pub fn transfer_ownership(
        &self,
        source: ServerId,
        target: ServerId,
        ranges: &[HashRange],
    ) -> Result<(u64, u64, u64), MetaError> {
        let mut inner = self.inner.lock();
        {
            let src = inner
                .servers
                .get(&source)
                .ok_or(MetaError::UnknownServer(source))?;
            for r in ranges {
                if !r
                    .split(2)
                    .iter()
                    .all(|half| src.owned.contains(half.start) || half.width() == 0)
                {
                    return Err(MetaError::NotOwned {
                        server: source,
                        range: *r,
                    });
                }
            }
            inner
                .servers
                .get(&target)
                .ok_or(MetaError::UnknownServer(target))?;
            for dep in &inner.migrations {
                for theirs in &dep.ranges {
                    for ours in ranges {
                        if ours.overlaps(theirs) {
                            return Err(MetaError::ConflictingMigration {
                                conflicting: dep.id,
                                range: HashRange::new(
                                    ours.start.max(theirs.start),
                                    ours.end.min(theirs.end),
                                ),
                            });
                        }
                    }
                }
            }
        }
        let seq = inner.next_migration_seq;
        inner.next_migration_seq += 1;
        let id = compose_migration_id(source, seq);
        let src = inner.servers.get_mut(&source).unwrap();
        src.owned.remove(ranges);
        src.view += 1;
        let new_source_view = src.view;
        let tgt = inner.servers.get_mut(&target).unwrap();
        tgt.owned.add(ranges);
        tgt.view += 1;
        let new_target_view = tgt.view;
        inner.migrations.push(MigrationDep {
            id,
            source,
            target,
            ranges: ranges.to_vec(),
            source_complete: false,
            target_complete: false,
            cancelled: false,
        });
        inner.epoch += 1;
        Ok((id, new_source_view, new_target_view))
    }

    /// Marks one side of a migration complete.  Once both sides are complete
    /// the dependency moves to the completed-retention list (no longer
    /// consulted by recovery, but still answering status queries).  Returns
    /// `true` if the dependency is now fully resolved.
    pub fn mark_complete(&self, migration_id: u64, server: ServerId) -> Result<bool, MetaError> {
        let mut inner = self.inner.lock();
        let pos = inner
            .migrations
            .iter()
            .position(|d| d.id == migration_id)
            .ok_or(MetaError::UnknownMigration(migration_id))?;
        let dep = &mut inner.migrations[pos];
        if dep.source == server {
            dep.source_complete = true;
        } else if dep.target == server {
            dep.target_complete = true;
        } else {
            return Err(MetaError::UnknownServer(server));
        }
        let done = dep.is_complete();
        if done {
            let dep = inner.migrations.remove(pos);
            inner.completed.push(dep);
        }
        inner.epoch += 1;
        Ok(done)
    }

    /// Cancels an in-flight migration (paper §3.3.1): ownership of the ranges
    /// is transferred back to the source and both views advance again, so
    /// both servers can be rolled back to their pre-migration checkpoints.
    pub fn cancel_migration(&self, migration_id: u64) -> Result<MigrationDep, MetaError> {
        let mut inner = self.inner.lock();
        let pos = inner
            .migrations
            .iter()
            .position(|d| d.id == migration_id)
            .ok_or(MetaError::UnknownMigration(migration_id))?;
        let mut dep = inner.migrations.remove(pos);
        dep.cancelled = true;
        let ranges = dep.ranges.clone();
        if let Some(tgt) = inner.servers.get_mut(&dep.target) {
            tgt.owned.remove(&ranges);
            tgt.view += 1;
        }
        if let Some(src) = inner.servers.get_mut(&dep.source) {
            src.owned.add(&ranges);
            src.view += 1;
        }
        inner.cancelled.push(dep.clone());
        inner.epoch += 1;
        Ok(dep)
    }

    /// Any migration dependency involving `server` that has not completed
    /// (consulted during crash recovery).
    pub fn pending_dependency_for(&self, server: ServerId) -> Option<MigrationDep> {
        self.inner
            .lock()
            .migrations
            .iter()
            .find(|d| (d.source == server || d.target == server) && !d.is_complete())
            .cloned()
    }

    /// Number of unresolved migration dependencies.
    pub fn pending_migrations(&self) -> usize {
        self.inner.lock().migrations.len()
    }

    /// The state of migration `id`: `Ok(Some(dep))` while it is in flight
    /// or was cancelled (`dep.cancelled` distinguishes them), `Ok(None)`
    /// once both sides completed, and `Err` if no such migration was ever
    /// issued (or learned through replication).
    pub fn migration_state(&self, id: u64) -> Result<Option<MigrationDep>, MetaError> {
        let inner = self.inner.lock();
        match inner.find_dep(id) {
            Some((DepList::Pending, i)) => Ok(Some(inner.migrations[i].clone())),
            Some((DepList::Cancelled, i)) => Ok(Some(inner.cancelled[i].clone())),
            Some((DepList::Completed, _)) => Ok(None),
            None => Err(MetaError::UnknownMigration(id)),
        }
    }

    /// Every in-flight migration dependency (the broker's coordinator scans
    /// these for conflicts and unconverged cancellations).
    pub fn pending_deps(&self) -> Vec<MigrationDep> {
        self.inner.lock().migrations.clone()
    }

    /// Every cancelled migration dependency still retained.
    pub fn cancelled_deps(&self) -> Vec<MigrationDep> {
        self.inner.lock().cancelled.clone()
    }

    /// Exports a full, epoch-tagged copy of the store for replication.
    pub fn replica(&self) -> MetaReplica {
        let inner = self.inner.lock();
        let mut servers: Vec<(ServerId, ServerMeta)> = inner
            .servers
            .iter()
            .map(|(id, m)| (*id, m.clone()))
            .collect();
        servers.sort_by_key(|(id, _)| *id);
        let sorted = |v: &[MigrationDep]| {
            let mut v = v.to_vec();
            v.sort_by_key(|d| d.id);
            v
        };
        MetaReplica {
            epoch: inner.epoch,
            next_migration_seq: inner.next_migration_seq,
            servers,
            pending: sorted(&inner.migrations),
            completed: sorted(&inner.completed),
            cancelled: sorted(&inner.cancelled),
        }
    }

    /// Merges a replica exported by another process into this store.
    ///
    /// The merge is convergent and commutative over repeated application:
    ///
    /// * a server entry is adopted when the incoming view is newer (equal
    ///   views with different content break the tie deterministically on
    ///   content, so every process picks the same winner) — except its
    ///   *address*, which is never overwritten once locally registered
    ///   (see the pinning comment below),
    /// * dependency flags only ever gain — completion flags and
    ///   `cancelled` OR together, and the dependency settles into the
    ///   retention list its merged flags dictate,
    /// * the migration sequence counter and the epoch join upward; a merge
    ///   that changed content bumps the epoch past both inputs so the
    ///   change propagates on the next fan-out.
    ///
    /// Ownership rollback for a dependency that *became* cancelled through
    /// the merge is carried by the accompanying server entries (the
    /// cancelling store bumped both views); the ids are reported in
    /// [`MergeOutcome::newly_cancelled`] so the cluster can roll back any
    /// involved local server's in-flight state.
    pub fn merge_replica(&self, replica: &MetaReplica) -> MergeOutcome {
        let mut inner = self.inner.lock();
        let mut changed = false;
        let mut newly_cancelled = Vec::new();
        for (id, incoming) in &replica.servers {
            // Addresses are process-local routing facts, not replicated
            // state.  A process registers its own server under its fabric
            // name (`sv<id>`), which its dispatch threads listen on, and
            // every peer under the socket address it was told.  A client
            // bootstrapping from that process dials the address it used
            // itself plus the fabric name — right even when the process
            // listens on `0.0.0.0`, which a bound address registered after
            // `bind` would not be.  An adopted entry therefore keeps the
            // locally registered address; only a server unknown to this
            // store takes the exporter's address.
            let mut incoming = incoming.clone();
            if let Some(local) = inner.servers.get(id) {
                incoming.address = local.address.clone();
            }
            let adopt = match inner.servers.get(id) {
                None => true,
                Some(local) => {
                    incoming.view > local.view
                        || (incoming.view == local.view
                            && &incoming != local
                            && merge_rank(&incoming) > merge_rank(local))
                }
            };
            if adopt {
                inner.servers.insert(*id, incoming);
                changed = true;
            }
        }
        for incoming in replica
            .pending
            .iter()
            .chain(&replica.completed)
            .chain(&replica.cancelled)
        {
            let merged = match inner.find_dep(incoming.id) {
                Some((list, i)) => {
                    let local = match list {
                        DepList::Pending => inner.migrations.remove(i),
                        DepList::Completed => inner.completed.remove(i),
                        DepList::Cancelled => inner.cancelled.remove(i),
                    };
                    let mut merged = local.clone();
                    merged.source_complete |= incoming.source_complete;
                    merged.target_complete |= incoming.target_complete;
                    merged.cancelled |= incoming.cancelled;
                    if merged != local {
                        changed = true;
                        if merged.cancelled && !local.cancelled {
                            newly_cancelled.push(merged.clone());
                        }
                    }
                    merged
                }
                None => {
                    changed = true;
                    if incoming.cancelled {
                        newly_cancelled.push(incoming.clone());
                    }
                    incoming.clone()
                }
            };
            // `dep_list_for` checks `cancelled` first, so a cancelled
            // dependency stays in the cancelled list even if a laggard
            // replica delivered both completion flags.
            match dep_list_for(&merged) {
                DepList::Pending => inner.migrations.push(merged),
                DepList::Completed => inner.completed.push(merged),
                DepList::Cancelled => inner.cancelled.push(merged),
            }
        }
        if replica.next_migration_seq > inner.next_migration_seq {
            inner.next_migration_seq = replica.next_migration_seq;
            changed = true;
        }
        let joined = inner.epoch.max(replica.epoch);
        inner.epoch = if changed { joined + 1 } else { joined };
        MergeOutcome {
            changed,
            epoch: inner.epoch,
            newly_cancelled,
        }
    }
}

/// Errors returned by the metadata store.
///
/// `Display` phrasing is uniform across the public error surface
/// ([`MetaError`], [`crate::LayoutError`], and the RPC crate's `RpcError`):
/// lowercase, no trailing period, `detail: context` ordering — audited by a
/// unit test so scripts and logs can rely on it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetaError {
    /// The server is not registered.
    UnknownServer(ServerId),
    /// The server id is already registered (checked registration only).
    AlreadyRegistered(ServerId),
    /// The migration id does not exist.
    UnknownMigration(u64),
    /// The source does not own the requested range.
    NotOwned {
        /// The server that was asked to give up the range.
        server: ServerId,
        /// The range it does not own.
        range: HashRange,
    },
    /// A registration claimed ranges another server already owns (checked
    /// registration only).
    OwnershipOverlap {
        /// The server being registered.
        server: ServerId,
        /// The server whose ownership it collides with.
        other: ServerId,
        /// Where the claims collide.
        range: HashRange,
    },
    /// The requested transfer overlaps an in-flight migration; conflicting
    /// migrations are serialized, retry once the earlier one settles.
    ConflictingMigration {
        /// The in-flight migration it collides with.
        conflicting: u64,
        /// Where the range sets collide.
        range: HashRange,
    },
    /// No broker/coordinator is reachable to serve the mutation — the
    /// typed unavailability a replicated deployment reports between a
    /// broker failure and the next promotion.
    CoordinatorUnavailable {
        /// What was unreachable and why.
        detail: String,
    },
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::UnknownServer(s) => write!(f, "unknown server {s:?}"),
            MetaError::AlreadyRegistered(s) => write!(f, "server {s:?} already registered"),
            MetaError::UnknownMigration(id) => write!(f, "unknown migration {id}"),
            MetaError::NotOwned { server, range } => {
                write!(f, "server {server:?} does not own range {range}")
            }
            MetaError::OwnershipOverlap {
                server,
                other,
                range,
            } => write!(
                f,
                "registration of {server:?} overlaps {other:?} at {range}"
            ),
            MetaError::ConflictingMigration { conflicting, range } => write!(
                f,
                "transfer overlaps in-flight migration {conflicting} at {range}"
            ),
            MetaError::CoordinatorUnavailable { detail } => {
                write!(f, "metadata coordinator unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for MetaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_range::partition_space;

    fn two_server_store() -> Arc<MetadataStore> {
        let meta = MetadataStore::new();
        let parts = partition_space(2);
        meta.register_server(ServerId(0), "sv0", 2, RangeSet::from_ranges([parts[0]]));
        meta.register_server(ServerId(1), "sv1", 2, RangeSet::from_ranges([parts[1]]));
        meta
    }

    #[test]
    fn registration_and_ownership_lookup() {
        let meta = two_server_store();
        assert_eq!(meta.view_of(ServerId(0)), Some(1));
        let (owner, view) = meta.owner_of(0).unwrap();
        assert_eq!(owner, ServerId(0));
        assert_eq!(view, 1);
        let (owner, _) = meta.owner_of(u64::MAX).unwrap();
        assert_eq!(owner, ServerId(1));
    }

    #[test]
    fn transfer_increments_both_views_and_moves_ranges() {
        let meta = two_server_store();
        let moved = partition_space(2)[0].take_fraction(0.1);
        let (id, src_view, tgt_view) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        assert_eq!(src_view, 2);
        assert_eq!(tgt_view, 2);
        assert_eq!(meta.pending_migrations(), 1);
        // The moved hash now resolves to the target.
        let (owner, view) = meta.owner_of(moved.start).unwrap();
        assert_eq!(owner, ServerId(1));
        assert_eq!(view, 2);
        // The rest of server 0's range is untouched.
        let (owner, _) = meta.owner_of(moved.end + 1).unwrap();
        assert_eq!(owner, ServerId(0));
        // Completing both sides garbage-collects the dependency.
        assert!(!meta.mark_complete(id, ServerId(0)).unwrap());
        assert!(meta.mark_complete(id, ServerId(1)).unwrap());
        assert_eq!(meta.pending_migrations(), 0);
    }

    #[test]
    fn transfer_of_unowned_range_fails() {
        let meta = two_server_store();
        let not_owned = partition_space(2)[1];
        let err = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[not_owned])
            .unwrap_err();
        assert!(matches!(err, MetaError::NotOwned { .. }));
    }

    #[test]
    fn cancellation_returns_ranges_to_source() {
        let meta = two_server_store();
        let moved = partition_space(2)[0].take_fraction(0.25);
        let (id, ..) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        let dep = meta.cancel_migration(id).unwrap();
        assert!(dep.cancelled);
        let (owner, view) = meta.owner_of(moved.start).unwrap();
        assert_eq!(owner, ServerId(0));
        assert_eq!(view, 3, "cancellation advances the view again");
        assert_eq!(meta.pending_migrations(), 0);
    }

    #[test]
    fn pending_dependency_visible_until_both_complete() {
        let meta = two_server_store();
        let moved = partition_space(2)[0].take_fraction(0.1);
        let (id, ..) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        assert!(meta.pending_dependency_for(ServerId(0)).is_some());
        assert!(meta.pending_dependency_for(ServerId(1)).is_some());
        meta.mark_complete(id, ServerId(0)).unwrap();
        assert!(meta.pending_dependency_for(ServerId(1)).is_some());
        meta.mark_complete(id, ServerId(1)).unwrap();
        assert!(meta.pending_dependency_for(ServerId(0)).is_none());
    }

    #[test]
    fn snapshot_is_consistent_copy() {
        let meta = two_server_store();
        let snap = meta.snapshot();
        assert_eq!(snap.servers.len(), 2);
        assert_eq!(snap.owner_of(0).unwrap().0, ServerId(0));
        // Later changes do not affect the snapshot.
        let moved = partition_space(2)[0].take_fraction(0.5);
        meta.transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        assert_eq!(snap.owner_of(moved.start).unwrap().0, ServerId(0));
        assert_eq!(
            meta.snapshot().owner_of(moved.start).unwrap().0,
            ServerId(1)
        );
    }

    #[test]
    fn checked_registration_rejects_duplicates_and_overlap() {
        let meta = MetadataStore::new();
        let parts = partition_space(2);
        meta.try_register_server(ServerId(0), "sv0", 2, RangeSet::from_ranges([parts[0]]))
            .expect("first registration");
        assert_eq!(
            meta.try_register_server(ServerId(0), "sv0", 2, RangeSet::empty()),
            Err(MetaError::AlreadyRegistered(ServerId(0)))
        );
        // Overlapping claim: server 1 tries to own the whole space while
        // server 0 holds the bottom half.
        match meta.try_register_server(ServerId(1), "sv1", 2, RangeSet::full()) {
            Err(MetaError::OwnershipOverlap { server, other, .. }) => {
                assert_eq!(server, ServerId(1));
                assert_eq!(other, ServerId(0));
            }
            other => panic!("expected OwnershipOverlap, got {other:?}"),
        }
        // The rejected registration left no trace.
        assert_eq!(meta.view_of(ServerId(1)), None);
        // A disjoint claim goes through.
        meta.try_register_server(ServerId(1), "sv1", 2, RangeSet::from_ranges([parts[1]]))
            .expect("disjoint registration");
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let meta = MetadataStore::new();
        let e0 = meta.epoch();
        let parts = partition_space(2);
        meta.register_server(ServerId(0), "sv0", 2, RangeSet::from_ranges([parts[0]]));
        meta.register_server(ServerId(1), "sv1", 2, RangeSet::from_ranges([parts[1]]));
        let e1 = meta.epoch();
        assert!(e1 > e0, "registration must bump the epoch");
        let moved = parts[0].take_fraction(0.1);
        let (id, ..) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        let e2 = meta.epoch();
        assert!(e2 > e1, "transfer must bump the epoch");
        meta.cancel_migration(id).unwrap();
        assert!(meta.epoch() > e2, "cancellation must bump the epoch");
        let before = meta.epoch();
        assert_eq!(meta.bump_epoch(), before + 1);
    }

    #[test]
    fn migration_ids_are_namespaced_by_source() {
        let a = two_server_store();
        let b = two_server_store();
        let moved_a = partition_space(2)[0].take_fraction(0.1);
        let moved_b = partition_space(2)[1].take_fraction(0.1);
        let (id_a, ..) = a
            .transfer_ownership(ServerId(0), ServerId(1), &[moved_a])
            .unwrap();
        let (id_b, ..) = b
            .transfer_ownership(ServerId(1), ServerId(0), &[moved_b])
            .unwrap();
        // Both stores minted seq 0, but the source id keeps them distinct
        // once replicas meet.
        assert_ne!(id_a, id_b);
    }

    #[test]
    fn completed_migrations_keep_answering_status() {
        let meta = two_server_store();
        let moved = partition_space(2)[0].take_fraction(0.1);
        let (id, ..) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        meta.mark_complete(id, ServerId(0)).unwrap();
        meta.mark_complete(id, ServerId(1)).unwrap();
        assert_eq!(meta.pending_migrations(), 0);
        assert_eq!(meta.migration_state(id), Ok(None), "completed, not unknown");
        assert!(matches!(
            meta.migration_state(id + 999),
            Err(MetaError::UnknownMigration(_))
        ));
    }

    #[test]
    fn overlapping_transfer_is_serialized_behind_the_pending_one() {
        let meta = two_server_store();
        let moved = partition_space(2)[0].take_fraction(0.5);
        let (id, ..) = meta
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        // The target cannot migrate the in-flight ranges onward until the
        // first migration completes on both sides.
        let err = meta
            .transfer_ownership(ServerId(1), ServerId(0), &[moved])
            .unwrap_err();
        match err {
            MetaError::ConflictingMigration { conflicting, .. } => assert_eq!(conflicting, id),
            other => panic!("expected ConflictingMigration, got {other:?}"),
        }
        meta.mark_complete(id, ServerId(0)).unwrap();
        meta.mark_complete(id, ServerId(1)).unwrap();
        meta.transfer_ownership(ServerId(1), ServerId(0), &[moved])
            .expect("settled dependency no longer conflicts");
    }

    #[test]
    fn replica_merge_converges_two_divergent_stores() {
        let a = two_server_store();
        let b = two_server_store();
        // Store A migrates; store B knows nothing about it.
        let moved = partition_space(2)[0].take_fraction(0.25);
        let (id, ..) = a
            .transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        let out = b.merge_replica(&a.replica());
        assert!(out.changed);
        assert!(out.newly_cancelled.is_empty());
        assert_eq!(b.owner_of(moved.start).unwrap().0, ServerId(1));
        assert_eq!(
            b.migration_state(id).unwrap().map(|d| d.cancelled),
            Some(false)
        );
        // Merging the same replica again is a no-op at a stable epoch.
        let again = b.merge_replica(&a.replica());
        assert!(!again.changed, "second merge must be idempotent");
        // B cancels; merging B back into A reports the cancellation and
        // rolls ownership back by view.
        b.cancel_migration(id).unwrap();
        let out = a.merge_replica(&b.replica());
        assert!(out.changed);
        assert_eq!(out.newly_cancelled.len(), 1);
        assert_eq!(out.newly_cancelled[0].id, id);
        assert_eq!(a.owner_of(moved.start).unwrap().0, ServerId(0));
        // Cross-merge until quiescent: both sides settle on the same state.
        loop {
            let ab = a.merge_replica(&b.replica()).changed;
            let ba = b.merge_replica(&a.replica()).changed;
            if !ab && !ba {
                break;
            }
        }
        assert_eq!(a.replica(), b.replica(), "stores must converge");
    }

    #[test]
    fn merge_keeps_locally_registered_addresses() {
        // The same two servers as seen by two processes: each is a local
        // fabric name in its own process and a socket address in the other.
        let halves = partition_space(2);
        let a = MetadataStore::new();
        a.register_server(
            ServerId(0),
            "fabric-0",
            2,
            RangeSet::from_ranges([halves[0]]),
        );
        a.register_server(
            ServerId(1),
            "127.0.0.1:4871",
            2,
            RangeSet::from_ranges([halves[1]]),
        );
        let b = MetadataStore::new();
        b.register_server(
            ServerId(0),
            "127.0.0.1:4870",
            2,
            RangeSet::from_ranges([halves[0]]),
        );
        b.register_server(
            ServerId(1),
            "fabric-1",
            2,
            RangeSet::from_ranges([halves[1]]),
        );
        // A migration at A bumps both involved views, so B adopts A's
        // entries on merge — ranges and views, but never the addresses.
        let moved = halves[0].take_fraction(0.25);
        a.transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        b.merge_replica(&a.replica());
        assert_eq!(b.owner_of(moved.start).unwrap().0, ServerId(1));
        let snap = b.snapshot();
        assert_eq!(snap.server(ServerId(0)).unwrap().address, "127.0.0.1:4870");
        assert_eq!(snap.server(ServerId(1)).unwrap().address, "fabric-1");
        // Cross-merge to quiescence: the stores converge on everything
        // except the address column, which stays process-local.
        loop {
            let ab = a.merge_replica(&b.replica()).changed;
            let ba = b.merge_replica(&a.replica()).changed;
            if !ab && !ba {
                break;
            }
        }
        let a_snap = a.snapshot();
        assert_eq!(a_snap.server(ServerId(0)).unwrap().address, "fabric-0");
        assert_eq!(
            a_snap.server(ServerId(1)).unwrap().address,
            "127.0.0.1:4871"
        );
    }

    #[test]
    fn merge_never_downgrades_a_newer_view() {
        let a = two_server_store();
        let stale = a.replica();
        let moved = partition_space(2)[0].take_fraction(0.25);
        a.transfer_ownership(ServerId(0), ServerId(1), &[moved])
            .unwrap();
        let out = a.merge_replica(&stale);
        assert_eq!(a.owner_of(moved.start).unwrap().0, ServerId(1));
        assert!(out.newly_cancelled.is_empty());
    }

    #[test]
    fn unknown_server_errors() {
        let meta = MetadataStore::new();
        assert_eq!(meta.view_of(ServerId(9)), None);
        assert!(matches!(
            meta.transfer_ownership(ServerId(0), ServerId(1), &[HashRange::FULL]),
            Err(MetaError::UnknownServer(_))
        ));
        assert!(matches!(
            meta.mark_complete(0, ServerId(0)),
            Err(MetaError::UnknownMigration(0))
        ));
    }
}
