//! The FASTER store: sessions, read / upsert / read-modify-write / delete
//! operations over the shared hash index and HybridLog.
//!
//! The store is shared by every server thread (Shadowfax's "partitioned
//! sessions, shared data" design, paper §3.1): there is a single hash index
//! and a single log, and all cross-thread coordination is deferred either to
//! single-word compare-and-swaps on bucket entries or to hardware cache
//! coherence on the records themselves.  Each thread interacts with the store
//! through a [`FasterSession`], which carries the thread's epoch registration.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use shadowfax_epoch::{EpochManager, Guard, ThreadEpoch};
use shadowfax_hlog::{Address, HybridLog, LogError, RecordFlags, RecordHeader, RecordOwned};
use shadowfax_storage::{Device, SharedTierHandle};

use crate::config::FasterConfig;
use crate::floors::Floors;
use crate::hash_index::HashIndex;
use crate::key_hash::KeyHash;
use crate::stats::StoreStats;

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FasterError {
    /// The underlying log failed (device error, oversized record, ...).
    Log(LogError),
    /// The key's live version is an indirection record, which only the
    /// Shadowfax server can resolve; nothing was written.
    Indirection,
}

impl std::fmt::Display for FasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FasterError::Log(e) => write!(f, "log error: {e}"),
            FasterError::Indirection => write!(f, "the key's live version is an indirection"),
        }
    }
}

impl std::error::Error for FasterError {}

impl From<LogError> for FasterError {
    fn from(e: LogError) -> Self {
        FasterError::Log(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, FasterError>;

/// Outcome of a key lookup, exposing enough detail for Shadowfax to handle
/// indirection records and migrations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The key exists; the latest record is returned along with its address.
    Found {
        /// Log address of the returned record version.
        address: Address,
        /// The record (header flags included, so callers can detect
        /// indirection records).
        record: RecordOwned,
    },
    /// The key does not exist (never written, or latest version is a
    /// tombstone).
    NotFound,
}

/// What one read-modify-write did: its one walk of the key's chain decides
/// whether the add can be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOutcome {
    /// The add was applied; the new counter value.
    Applied(u64),
    /// The key's live version is an indirection record: nothing was
    /// written, and the caller must resolve the record first.
    Indirection,
    /// The key has no live version and no initial value was given: nothing
    /// was written.
    Absent,
}

/// Sampling state installed during a migration's Sampling phase
/// (paper §3.3): accessed records in the migrating hash ranges whose address
/// is below `below` are remembered as the migration's hot set.
struct SamplingState {
    /// Predicate over the 64-bit key hash: `true` for hashes being migrated.
    filter: Box<dyn Fn(u64) -> bool + Send + Sync>,
    /// Only records below this address (the tail at sampling start) are
    /// sampled, so each key is sampled at most once.
    below: Address,
    /// Keys sampled so far (their *current* values are read at ownership
    /// transfer time, after the global cut, so no source-side update is lost).
    sampled: Mutex<Vec<u64>>,
}

/// A FASTER key-value store instance.
pub struct Faster {
    config: FasterConfig,
    index: HashIndex,
    log: Arc<HybridLog>,
    epoch: Arc<EpochManager>,
    stats: StoreStats,
    /// CPR checkpoint version; bumped over a global cut by `checkpoint`.
    version: AtomicU32,
    sampling: RwLock<Option<SamplingState>>,
    /// Per-hash-range floors below which records are dead.
    pub(crate) floors: Floors,
}

impl std::fmt::Debug for Faster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Faster")
            .field("version", &self.current_version())
            .field("log", &self.log.stats())
            .finish()
    }
}

impl Faster {
    /// Creates a store backed by the given SSD device (and, optionally, a
    /// shared-tier handle for write-through of flushed pages).
    pub fn new(
        config: FasterConfig,
        ssd: Arc<dyn Device>,
        shared: Option<SharedTierHandle>,
        epoch: Arc<EpochManager>,
    ) -> Arc<Self> {
        config.validate();
        let log = HybridLog::new(config.log, ssd, shared, Arc::clone(&epoch));
        Arc::new(Faster {
            config,
            index: HashIndex::new(config.table_bits),
            log,
            epoch,
            stats: StoreStats::new(),
            version: AtomicU32::new(1),
            sampling: RwLock::new(None),
            floors: Floors::new(),
        })
    }

    /// Creates a store with a dedicated epoch manager (single-node use).
    pub fn standalone(config: FasterConfig, ssd: Arc<dyn Device>) -> Arc<Self> {
        Self::new(config, ssd, None, Arc::new(EpochManager::new()))
    }

    /// The store's configuration.
    pub fn config(&self) -> &FasterConfig {
        &self.config
    }

    /// The shared epoch manager.
    pub fn epoch(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// The hash index (exposed for migration and recovery).
    pub fn index(&self) -> &HashIndex {
        &self.index
    }

    /// The HybridLog (exposed for migration, compaction and recovery).
    pub fn log(&self) -> &Arc<HybridLog> {
        &self.log
    }

    /// Operation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Current CPR checkpoint version.
    pub fn current_version(&self) -> u32 {
        self.version.load(Ordering::SeqCst)
    }

    pub(crate) fn bump_version(&self) -> u32 {
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Starts a session for the calling thread.  Sessions are cheap; a server
    /// thread creates one at startup and reuses it for every request.
    pub fn start_session(self: &Arc<Self>) -> FasterSession {
        FasterSession {
            store: Arc::clone(self),
            thread: self.epoch.register(),
        }
    }

    // ------------------------------------------------------------------
    // Migration sampling hooks (used by the Shadowfax core crate)
    // ------------------------------------------------------------------

    /// Begins sampling hot records: any operation that touches a key whose
    /// hash satisfies `filter` and whose record lives below the current tail
    /// remembers that key as part of the migration's hot set.  Returns the
    /// tail address at activation (the paper's "copied once" bound).
    pub fn begin_sampling(&self, filter: Box<dyn Fn(u64) -> bool + Send + Sync>) -> Address {
        let below = self.log.tail_address();
        *self.sampling.write() = Some(SamplingState {
            filter,
            below,
            sampled: Mutex::new(Vec::new()),
        });
        below
    }

    /// Stops sampling and returns the sampled keys (deduplicated, in first-
    /// touch order).  The caller reads their values *after* the ownership
    /// transfer cut so the shipped hot set reflects every acknowledged update.
    pub fn end_sampling(&self) -> Vec<u64> {
        match self.sampling.write().take() {
            Some(state) => {
                let mut keys = state.sampled.into_inner();
                let mut seen = std::collections::HashSet::with_capacity(keys.len());
                keys.retain(|k| seen.insert(*k));
                keys
            }
            None => Vec::new(),
        }
    }

    /// `true` while a sampling phase is active.
    pub fn sampling_active(&self) -> bool {
        self.sampling.read().is_some()
    }

    fn maybe_sample(&self, hash: KeyHash, address: Address, key: u64) {
        let guard = self.sampling.read();
        if let Some(state) = guard.as_ref() {
            if address < state.below && (state.filter)(hash.raw()) {
                state.sampled.lock().push(key);
                self.stats.record_sampled_copy();
            }
        }
    }

    // ------------------------------------------------------------------
    // Core operation implementations (called via FasterSession)
    // ------------------------------------------------------------------

    /// Raises the floor of each `[start, end)` hash range (an `end` of
    /// `u64::MAX` runs to the top of the space) to the log tail, and returns
    /// it.  Every record of those ranges already in the log is dead from
    /// here on; a server calls this as it takes ranges (paper §3.3), before
    /// it serves them.  A walk that starts after this returns sees the floor.
    pub fn raise_floors(&self, ranges: &[(u64, u64)]) -> Address {
        let tail = self.log.tail_address();
        for &(start, end) in ranges {
            self.floors.raise(start, end, tail.raw());
        }
        tail
    }

    /// The floor of the hash range holding `hash`: records below it are
    /// dead.
    fn floor_of(&self, hash: u64) -> Address {
        Address::new(self.floors.floor_of(hash))
    }

    /// The `(start, end, floor)` pieces of the hash range `[start, end)`,
    /// one per floor it spans.
    pub fn floors_within(&self, start: u64, end: u64) -> Vec<(u64, u64, Address)> {
        let pieces = self.floors.within(start, end).into_iter();
        pieces.map(|(s, e, f)| (s, e, Address::new(f))).collect()
    }

    /// The pieces of the hash range `[start, end)` that a record at `addr`
    /// is live for: those whose floor is at or below it.  An indirection
    /// record at `addr` covering `[start, end)` still names the keys of
    /// these pieces, and only of these.
    pub fn live_pieces(&self, start: u64, end: u64, addr: Address) -> Vec<(u64, u64, Address)> {
        let mut pieces = self.floors_within(start, end);
        pieces.retain(|p| addr >= p.2);
        pieces
    }

    /// Walks the record chain starting at `addr` for the newest *live*
    /// record of `key`: one at or past the key's floor, which is the log's
    /// begin address raised per hash range ([`Faster::raise_floors`]).
    /// The walk stops at the floor; a record below it is dead and the key
    /// reads as absent.  The one rule every reader and writer of the store
    /// shares.
    ///
    /// A record carrying [`RecordFlags::INDIRECTION`] matches not by key but
    /// by *hash range*: its first 16 value bytes encode a `[start, end)` range
    /// of the 64-bit key-hash space (Shadowfax's indirection records, paper
    /// §3.3.2).  The newest one covering the key is returned, so the caller
    /// can resolve it against the shared storage tier, only if no exact-key
    /// record lies at or past the floor, wherever each sits in the chain: a
    /// migration ships a chain's in-memory records and the indirection for
    /// its spilled part in no fixed order, and the target's own writes are
    /// newer than both.  [`Faster::indirections_for`] lists every covering
    /// one.
    fn find_in_chain(
        &self,
        addr: Address,
        key: u64,
        guard: &Guard<'_>,
    ) -> Result<Option<(Address, RecordOwned)>> {
        let mut indirection = None;
        let exact = self.walk_chain(addr, key, Address::new(0), guard, |addr, record| {
            indirection.get_or_insert((addr, record));
        })?;
        match exact {
            Some((addr, header)) => {
                let value = self.log.read_value(addr, &header, guard)?;
                Ok(Some((addr, RecordOwned { header, value })))
            }
            None => Ok(indirection),
        }
    }

    /// The walk behind [`Faster::find_in_chain`]: returns the address and
    /// header of the newest live exact-key record of `key` at or past
    /// `bottom`, handing each live indirection record that covers the key
    /// to `covering` on the way, newest first.  It reads only the header of
    /// each hop, and the value only of an indirection record, whose range it
    /// must decode: the caller copies the value of the record it wants.
    #[inline]
    fn walk_chain(
        &self,
        mut addr: Address,
        key: u64,
        bottom: Address,
        guard: &Guard<'_>,
        mut covering: impl FnMut(Address, RecordOwned),
    ) -> Result<Option<(Address, RecordHeader)>> {
        let key_hash = KeyHash::of(key).raw();
        // `stop` starts at the highest floor of any range, and falls to the
        // key's own floor the first time the walk reaches it.
        let bottom = bottom.max(self.log.begin_address());
        let mut stop = bottom.max(Address::new(self.floors.highest()));
        let mut stop_is_exact = stop == bottom;
        let mut hops = 0usize;
        while addr.is_valid() {
            if addr < stop {
                if stop_is_exact {
                    break;
                }
                stop = bottom.max(self.floor_of(key_hash));
                stop_is_exact = true;
                if addr < stop {
                    break;
                }
            }
            let was_stable = addr < self.log.head_address();
            let header = match self.log.read_header(addr, guard) {
                Ok(h) => h,
                Err(LogError::Truncated(_)) => break,
                Err(e) => return Err(e.into()),
            };
            if was_stable {
                self.stats.record_stable_read();
            }
            if !header.flags.contains(RecordFlags::INVALID) {
                if header.flags.contains(RecordFlags::INDIRECTION) {
                    let value = self.log.read_value(addr, &header, guard)?;
                    if value.len() >= 16 {
                        let start = u64::from_le_bytes(value[0..8].try_into().unwrap());
                        let end = u64::from_le_bytes(value[8..16].try_into().unwrap());
                        if key_hash >= start && key_hash < end {
                            covering(addr, RecordOwned { header, value });
                        }
                    }
                } else if header.key == key {
                    return Ok(Some((addr, header)));
                }
            }
            addr = header.prev;
            hops += 1;
            debug_assert!(hops < 1_000_000, "hash chain cycle detected");
        }
        Ok(None)
    }

    fn read_impl(&self, key: u64, session: &FasterSession) -> Result<ReadOutcome> {
        let guard = session.thread.protect();
        let hash = KeyHash::of(key);
        let Some((_slot, entry)) = self.index.find_entry(hash) else {
            self.stats.record_read();
            return Ok(ReadOutcome::NotFound);
        };
        match self.find_in_chain(entry.address, key, &guard)? {
            Some((address, record)) => {
                self.stats.record_read();
                if record.is_tombstone() {
                    return Ok(ReadOutcome::NotFound);
                }
                self.maybe_sample(hash, address, key);
                Ok(ReadOutcome::Found { address, record })
            }
            None => {
                self.stats.record_read();
                Ok(ReadOutcome::NotFound)
            }
        }
    }

    fn upsert_impl(&self, key: u64, value: &[u8], session: &FasterSession) -> Result<()> {
        let hash = KeyHash::of(key);
        let version = self.current_version();
        loop {
            let guard = session.thread.protect();
            let (slot, entry) = self.index.find_or_create_entry(hash);
            // Fast path: in-place update of an existing same-size record in
            // the mutable region.  No version below it can be updated in
            // place, so the walk stops at the read-only address.
            if entry.address.is_valid() {
                let read_only = self.log.read_only_address();
                let live = self.walk_chain(entry.address, key, read_only, &guard, |_, _| {})?;
                if let Some((addr, header)) = live {
                    if !header.flags.contains(RecordFlags::TOMBSTONE)
                        && header.value_len as usize == value.len()
                        && self.log.try_update_in_place(addr, value, &guard)?
                    {
                        self.maybe_sample(hash, addr, key);
                        self.stats.record_in_place();
                        self.stats.record_upsert();
                        return Ok(());
                    }
                }
            }
            // Slow path: append a new version and CAS the bucket entry.
            let new_addr = self.log.append(
                key,
                value,
                entry.address,
                version,
                RecordFlags::empty(),
                &session.thread,
            )?;
            match self.index.try_update_entry(slot, entry, new_addr) {
                Ok(()) => {
                    self.maybe_sample(hash, new_addr, key);
                    self.stats.record_rcu();
                    self.stats.record_upsert();
                    return Ok(());
                }
                Err(_current) => {
                    // Another thread moved the chain head; the appended record
                    // is unreachable (it simply becomes garbage) — retry.
                    continue;
                }
            }
        }
    }

    /// Read-modify-write specialised for 8-byte counters (the paper's YCSB-F
    /// workload): adds `delta` to the first 8 bytes of the value, creating
    /// the record from `initial` if the key has no live version and
    /// `initial` is given.  One walk of the chain decides, and a key whose
    /// live version is an indirection record is left alone: the caller (the
    /// Shadowfax server) must first resolve it against the shared tier.
    fn rmw_add_impl(
        &self,
        key: u64,
        delta: u64,
        initial: Option<&[u8]>,
        session: &FasterSession,
    ) -> Result<RmwOutcome> {
        assert!(
            initial.is_none_or(|v| v.len() >= 8),
            "rmw_add requires at least an 8-byte value"
        );
        let hash = KeyHash::of(key);
        let version = self.current_version();
        loop {
            let guard = session.thread.protect();
            let (slot, entry) = self.index.find_or_create_entry(hash);
            let mut covered = false;
            let live = self.walk_chain(entry.address, key, Address::new(0), &guard, |_, _| {
                covered = true
            })?;
            let mut new_value = match live {
                Some((addr, header)) if !header.flags.contains(RecordFlags::TOMBSTONE) => {
                    // Fast path: atomic in-place add in the mutable region.
                    if let Some(prev) = self.log.try_rmw_add_in_place(addr, 0, delta, &guard)? {
                        self.maybe_sample(hash, addr, key);
                        self.stats.record_in_place();
                        self.stats.record_rmw();
                        return Ok(RmwOutcome::Applied(prev.wrapping_add(delta)));
                    }
                    // Slow path: read-copy-update.  Values shorter than the
                    // 8-byte counter (written by a plain upsert) are
                    // zero-extended so the counter always fits.
                    self.log.read_value(addr, &header, &guard)?
                }
                None if covered => return Ok(RmwOutcome::Indirection),
                // No live version: create the initial record with the delta
                // applied.
                _ => match initial {
                    Some(initial) => initial.to_vec(),
                    None => return Ok(RmwOutcome::Absent),
                },
            };
            if new_value.len() < 8 {
                new_value.resize(8, 0);
            }
            let prev = u64::from_le_bytes(new_value[0..8].try_into().unwrap());
            let next = prev.wrapping_add(delta);
            new_value[0..8].copy_from_slice(&next.to_le_bytes());
            let new_addr = self.log.append(
                key,
                &new_value,
                entry.address,
                version,
                RecordFlags::empty(),
                &session.thread,
            )?;
            if self.index.try_update_entry(slot, entry, new_addr).is_ok() {
                self.maybe_sample(hash, new_addr, key);
                self.stats.record_rcu();
                self.stats.record_rmw();
                return Ok(RmwOutcome::Applied(next));
            }
        }
    }

    /// General read-modify-write: applies `f` to the current value (or `None`)
    /// and writes the returned bytes as the new value.
    fn rmw_impl<F>(&self, key: u64, f: F, session: &FasterSession) -> Result<Vec<u8>>
    where
        F: Fn(Option<&[u8]>) -> Vec<u8>,
    {
        let hash = KeyHash::of(key);
        let version = self.current_version();
        loop {
            let guard = session.thread.protect();
            let (slot, entry) = self.index.find_or_create_entry(hash);
            let existing = if entry.address.is_valid() {
                self.find_in_chain(entry.address, key, &guard)?
            } else {
                None
            };
            let current = existing
                .as_ref()
                .filter(|(_, r)| !r.is_tombstone())
                .map(|(_, r)| r.value().to_vec());
            let new_value = f(current.as_deref());
            let new_addr = self.log.append(
                key,
                &new_value,
                entry.address,
                version,
                RecordFlags::empty(),
                &session.thread,
            )?;
            match self.index.try_update_entry(slot, entry, new_addr) {
                Ok(()) => {
                    self.maybe_sample(hash, new_addr, key);
                    self.stats.record_rcu();
                    self.stats.record_rmw();
                    return Ok(new_value);
                }
                Err(_) => continue,
            }
        }
    }

    fn delete_impl(&self, key: u64, session: &FasterSession) -> Result<bool> {
        let hash = KeyHash::of(key);
        let version = self.current_version();
        loop {
            let guard = session.thread.protect();
            let Some((slot, entry)) = self.index.find_entry(hash) else {
                self.stats.record_delete();
                return Ok(false);
            };
            let existed = matches!(
                self.find_in_chain(entry.address, key, &guard)?,
                Some((_, ref r)) if !r.is_tombstone()
            );
            if !existed {
                self.stats.record_delete();
                return Ok(false);
            }
            let new_addr = self.log.append(
                key,
                &[],
                entry.address,
                version,
                RecordFlags::TOMBSTONE,
                &session.thread,
            )?;
            match self.index.try_update_entry(slot, entry, new_addr) {
                Ok(()) => {
                    self.stats.record_delete();
                    return Ok(true);
                }
                Err(_) => continue,
            }
        }
    }

    /// Appends a record with explicit flags and links it into the index
    /// unconditionally.  Used by migration receive paths (inserting migrated
    /// records and indirection records) and by recovery.
    pub fn insert_record(
        &self,
        key: u64,
        value: &[u8],
        flags: RecordFlags,
        session: &FasterSession,
    ) -> Result<Address> {
        self.insert_record_at_hash(KeyHash::of(key).raw(), key, value, flags, session)
    }

    /// Like [`Faster::insert_record`], but places the record under an
    /// explicit raw hash instead of hashing the key.  Shadowfax uses this to
    /// insert indirection records into the bucket/tag chain named by the
    /// source server's hash entry (paper §3.3.2), where the stored "key" is
    /// only a placeholder.
    pub fn insert_record_at_hash(
        &self,
        raw_hash: u64,
        key: u64,
        value: &[u8],
        flags: RecordFlags,
        session: &FasterSession,
    ) -> Result<Address> {
        let hash = KeyHash(raw_hash);
        let version = self.current_version();
        loop {
            let _guard = session.thread.protect();
            let (slot, entry) = self.index.find_or_create_entry(hash);
            let new_addr =
                self.log
                    .append(key, value, entry.address, version, flags, &session.thread)?;
            match self.index.try_update_entry(slot, entry, new_addr) {
                Ok(()) => return Ok(new_addr),
                Err(_) => continue,
            }
        }
    }

    /// Appends `value` for `key` with `flags` unless the key has a live
    /// local version that is not an indirection record.  Returns whether it
    /// inserted.  This is how a version that arrives from elsewhere (a
    /// migration, a compaction hand-off, a chain read through an
    /// indirection) enters the store: a live local version, a tombstone
    /// included, was written here after this server took the range and is
    /// newer, while one below the range's floor is dead and loses.  The
    /// check and the append are one compare-and-swap on the bucket entry, so
    /// a client write that lands in between makes this retry, never lose.
    pub fn insert_unless_live(
        &self,
        key: u64,
        value: &[u8],
        flags: RecordFlags,
        session: &FasterSession,
    ) -> Result<bool> {
        let hash = KeyHash::of(key);
        let version = self.current_version();
        loop {
            let guard = session.thread.protect();
            let (slot, entry) = self.index.find_or_create_entry(hash);
            if entry.address.is_valid()
                && self
                    .walk_chain(entry.address, key, Address::new(0), &guard, |_, _| {})?
                    .is_some()
            {
                return Ok(false);
            }
            let new_addr =
                self.log
                    .append(key, value, entry.address, version, flags, &session.thread)?;
            if self.index.try_update_entry(slot, entry, new_addr).is_ok() {
                return Ok(true);
            }
        }
    }

    /// Looks up a key but, unlike [`FasterSession::read`], does not resolve
    /// tombstones or indirection records: it reports the newest live record
    /// (the same walk, stopping at the key's floor), with its flags intact.
    /// Shadowfax's server uses this to ship the hot set, and compaction and
    /// the Rocksteady disk scan use it to tell a record's live version.
    pub fn read_record_for(&self, key: u64, session: &FasterSession) -> Result<ReadOutcome> {
        let guard = session.thread.protect();
        let hash = KeyHash::of(key);
        let Some((_slot, entry)) = self.index.find_entry(hash) else {
            return Ok(ReadOutcome::NotFound);
        };
        match self.find_in_chain(entry.address, key, &guard)? {
            Some((address, record)) => Ok(ReadOutcome::Found { address, record }),
            None => Ok(ReadOutcome::NotFound),
        }
    }

    /// Every live indirection record covering `key`, newest first — empty
    /// if the key has a live record of its own, which beats them all.  A
    /// server that took a range holds one per chain a previous owner wrote
    /// and shipped; the caller decides which to resolve first.
    pub fn indirections_for(&self, key: u64, session: &FasterSession) -> Result<Vec<RecordOwned>> {
        let guard = session.thread.protect();
        let Some((_slot, entry)) = self.index.find_entry(KeyHash::of(key)) else {
            return Ok(Vec::new());
        };
        let mut found = Vec::new();
        let exact = self.walk_chain(entry.address, key, Address::new(0), &guard, |_, record| {
            found.push(record)
        })?;
        if exact.is_some() {
            found.clear();
        }
        Ok(found)
    }

    /// Number of live keys reachable from the index (linear scan; test/debug
    /// helper, not a hot-path operation).
    pub fn approximate_key_count(&self, session: &FasterSession) -> usize {
        let guard = session.thread.protect();
        let mut count = 0usize;
        for snap in self.index.scan_region(0..self.index.num_buckets()) {
            let mut addr = snap.entry.address;
            let mut seen = std::collections::HashSet::new();
            while addr.is_valid() && addr >= self.log.begin_address() {
                let Ok(rec) = self.log.read_record(addr, &guard) else {
                    break;
                };
                let live = addr >= self.floor_of(KeyHash::of(rec.key()).raw());
                if seen.insert(rec.key()) && live && !rec.is_tombstone() {
                    count += 1;
                }
                addr = rec.header.prev;
            }
        }
        count
    }
}

/// A per-thread handle onto a [`Faster`] store.
///
/// The session owns the thread's epoch registration; every operation
/// protects/refreshes it, which is what lets global cuts (checkpoints,
/// migration phases, log maintenance) complete without stalling any thread.
pub struct FasterSession {
    store: Arc<Faster>,
    thread: ThreadEpoch,
}

impl std::fmt::Debug for FasterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FasterSession")
            .field("thread", &self.thread.index())
            .finish()
    }
}

impl FasterSession {
    /// The store this session operates on.
    pub fn store(&self) -> &Arc<Faster> {
        &self.store
    }

    /// The thread's epoch registration (used by code that drives global cuts
    /// from this thread, e.g. migration workers).
    pub fn thread(&self) -> &ThreadEpoch {
        &self.thread
    }

    /// Refreshes this thread's view of the global epoch and runs any
    /// completed cut actions.  Server dispatch loops call this between
    /// request batches.
    pub fn refresh(&self) {
        self.thread.refresh();
        self.store.epoch.try_drain();
        self.thread.unprotect();
    }

    /// Reads the value for `key`, if present.
    pub fn read(&self, key: u64) -> Result<Option<Vec<u8>>> {
        match self.store.read_impl(key, self)? {
            ReadOutcome::Found { record, .. } => Ok(Some(record.value)),
            ReadOutcome::NotFound => Ok(None),
        }
    }

    /// Reads the newest record for `key` with full metadata.
    pub fn read_outcome(&self, key: u64) -> Result<ReadOutcome> {
        self.store.read_impl(key, self)
    }

    /// Blindly writes `value` for `key`.
    pub fn upsert(&self, key: u64, value: &[u8]) -> Result<()> {
        self.store.upsert_impl(key, value, self)
    }

    /// Adds `delta` to the 8-byte counter at the start of the record's value,
    /// creating it from `initial` if absent.  Returns the new counter value,
    /// or [`FasterError::Indirection`] if the key's live version is an
    /// indirection record.
    pub fn rmw_add(&self, key: u64, delta: u64, initial: &[u8]) -> Result<u64> {
        match self.store.rmw_add_impl(key, delta, Some(initial), self)? {
            RmwOutcome::Applied(counter) => Ok(counter),
            RmwOutcome::Indirection => Err(FasterError::Indirection),
            RmwOutcome::Absent => unreachable!("an RMW with an initial value creates the record"),
        }
    }

    /// Like [`FasterSession::rmw_add`], but reports an indirection record as
    /// an outcome, and with no `initial` leaves an absent key absent.
    pub fn rmw_add_outcome(
        &self,
        key: u64,
        delta: u64,
        initial: Option<&[u8]>,
    ) -> Result<RmwOutcome> {
        self.store.rmw_add_impl(key, delta, initial, self)
    }

    /// General read-modify-write with an arbitrary update function.
    pub fn rmw<F>(&self, key: u64, f: F) -> Result<Vec<u8>>
    where
        F: Fn(Option<&[u8]>) -> Vec<u8>,
    {
        self.store.rmw_impl(key, f, self)
    }

    /// Deletes `key`.  Returns `true` if it existed.
    pub fn delete(&self, key: u64) -> Result<bool> {
        self.store.delete_impl(key, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax_storage::SimSsd;

    fn store() -> Arc<Faster> {
        Faster::standalone(
            FasterConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 30)),
        )
    }

    #[test]
    fn read_missing_key_returns_none() {
        let s = store();
        let session = s.start_session();
        assert_eq!(session.read(1).unwrap(), None);
    }

    #[test]
    fn upsert_then_read() {
        let s = store();
        let session = s.start_session();
        session.upsert(1, b"hello").unwrap();
        assert_eq!(session.read(1).unwrap().as_deref(), Some(&b"hello"[..]));
        session.upsert(1, b"world").unwrap();
        assert_eq!(session.read(1).unwrap().as_deref(), Some(&b"world"[..]));
    }

    #[test]
    fn upsert_many_keys_and_read_back() {
        let s = store();
        let session = s.start_session();
        for k in 0..5000u64 {
            session.upsert(k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..5000u64 {
            let v = session.read(k).unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), k);
        }
    }

    #[test]
    fn rmw_add_counts() {
        let s = store();
        let session = s.start_session();
        assert_eq!(session.rmw_add(9, 1, &[0u8; 8]).unwrap(), 1);
        assert_eq!(session.rmw_add(9, 1, &[0u8; 8]).unwrap(), 2);
        assert_eq!(session.rmw_add(9, 5, &[0u8; 8]).unwrap(), 7);
        let v = session.read(9).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[0..8].try_into().unwrap()), 7);
    }

    #[test]
    fn general_rmw_appends_new_value() {
        let s = store();
        let session = s.start_session();
        let v = session
            .rmw(3, |cur| match cur {
                None => b"a".to_vec(),
                Some(bytes) => {
                    let mut v = bytes.to_vec();
                    v.push(b'a');
                    v
                }
            })
            .unwrap();
        assert_eq!(v, b"a");
        let v = session.rmw(3, |cur| [cur.unwrap(), b"b"].concat()).unwrap();
        assert_eq!(v, b"ab");
    }

    #[test]
    fn delete_hides_key() {
        let s = store();
        let session = s.start_session();
        session.upsert(4, b"x").unwrap();
        assert!(session.delete(4).unwrap());
        assert_eq!(session.read(4).unwrap(), None);
        assert!(!session.delete(4).unwrap());
        // A later upsert resurrects the key.
        session.upsert(4, b"y").unwrap();
        assert_eq!(session.read(4).unwrap().as_deref(), Some(&b"y"[..]));
    }

    #[test]
    fn values_survive_spill_to_ssd() {
        let s = store();
        let session = s.start_session();
        let value = vec![7u8; 256];
        for k in 0..4000u64 {
            session.upsert(k, &value).unwrap();
        }
        assert!(s.log().head_address() > Address::FIRST_VALID);
        // Keys written early now live on the simulated SSD but remain readable.
        for k in (0..4000u64).step_by(97) {
            assert_eq!(session.read(k).unwrap().unwrap(), value);
        }
        assert!(s.stats().snapshot().stable_reads > 0);
    }

    #[test]
    fn concurrent_rmw_adds_are_not_lost() {
        let s = store();
        let threads = 4;
        let adds_per_thread = 2000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let session = s.start_session();
                for i in 0..adds_per_thread {
                    session.rmw_add(i % 16, 1, &[0u8; 8]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let session = s.start_session();
        let total: u64 = (0..16u64)
            .map(|k| {
                let v = session.read(k).unwrap().unwrap();
                u64::from_le_bytes(v[0..8].try_into().unwrap())
            })
            .sum();
        assert_eq!(total, threads as u64 * adds_per_thread);
    }

    #[test]
    fn concurrent_disjoint_upserts_all_visible() {
        let s = store();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let session = s.start_session();
                for i in 0..1000u64 {
                    let key = t * 1_000_000 + i;
                    session.upsert(key, &key.to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let session = s.start_session();
        for t in 0..4u64 {
            for i in (0..1000u64).step_by(53) {
                let key = t * 1_000_000 + i;
                let v = session.read(key).unwrap().unwrap();
                assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), key);
            }
        }
    }

    #[test]
    fn sampling_copies_accessed_records_once() {
        let s = store();
        let session = s.start_session();
        let value = vec![1u8; 64];
        for k in 0..100u64 {
            session.upsert(k, &value).unwrap();
        }
        // Sample everything.
        s.begin_sampling(Box::new(|_| true));
        assert!(s.sampling_active());
        for k in 0..10u64 {
            session.read(k).unwrap();
        }
        let sampled = s.end_sampling();
        assert!(!s.sampling_active());
        assert_eq!(sampled.len(), 10);
        assert!(sampled.iter().all(|k| *k < 10));
        // Re-reading a sampled key after sampling ends still returns its value.
        assert_eq!(session.read(sampled[0]).unwrap().unwrap(), value);
    }

    #[test]
    fn indirection_records_match_by_hash_range() {
        let s = store();
        let session = s.start_session();
        // Indirection payload: [start_hash, end_hash, ...opaque pointer data].
        // Cover the whole hash space so any key in this chain matches.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(b"ptr-data");
        s.insert_record(5, &payload, RecordFlags::INDIRECTION, &session)
            .unwrap();
        match session.read_outcome(5).unwrap() {
            ReadOutcome::Found { record, .. } => {
                assert!(record.is_indirection());
                assert_eq!(&record.value()[16..], b"ptr-data");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // A key outside the covered range does not match the indirection record.
        let mut narrow = Vec::new();
        let h = KeyHash::of(77).raw();
        narrow.extend_from_slice(&h.to_le_bytes());
        narrow.extend_from_slice(&(h + 1).to_le_bytes());
        s.insert_record(77, &narrow, RecordFlags::INDIRECTION, &session)
            .unwrap();
        match session.read_outcome(77).unwrap() {
            ReadOutcome::Found { record, .. } => assert!(record.is_indirection()),
            other => panic!("unexpected outcome {other:?}"),
        }

        // An exact-key record at or past the floor beats a newer matching
        // indirection ...
        let value_of = |key| match s.read_record_for(key, &session).unwrap() {
            ReadOutcome::Found { record, .. } => record,
            ReadOutcome::NotFound => panic!("key {key} not found"),
        };
        raise_floor_of(&s, 6);
        session.upsert(6, b"written-after-the-floor").unwrap();
        s.insert_record(6, &payload, RecordFlags::INDIRECTION, &session)
            .unwrap();
        assert_eq!(value_of(6).value(), b"written-after-the-floor");
        // ... and the indirection is returned when the key's only record
        // lies below the floor.
        session.upsert(7, b"dead").unwrap();
        raise_floor_of(&s, 7);
        s.insert_record(7, &payload, RecordFlags::INDIRECTION, &session)
            .unwrap();
        assert!(value_of(7).is_indirection());

        // Every covering indirection past the floor is listed, newest
        // first; none once the key has a live record of its own.
        let mut second = payload.clone();
        second.extend_from_slice(b"-newer");
        s.insert_record(7, &second, RecordFlags::INDIRECTION, &session)
            .unwrap();
        let listed = s.indirections_for(7, &session).unwrap();
        let tails: Vec<&[u8]> = listed.iter().map(|r| &r.value()[16..]).collect();
        assert_eq!(tails, [&b"ptr-data-newer"[..], b"ptr-data"]);
        assert!(s.indirections_for(6, &session).unwrap().is_empty());
    }

    #[test]
    fn rmw_add_over_an_indirection_creates_no_record() {
        let s = store();
        let session = s.start_session();
        let mut payload = 0u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        s.insert_record(9, &payload, RecordFlags::INDIRECTION, &session)
            .unwrap();
        let tail = s.log().tail_address();
        assert_eq!(
            session.rmw_add(9, 1, &[0u8; 8]),
            Err(FasterError::Indirection)
        );
        assert_eq!(
            session.rmw_add_outcome(9, 1, Some(&[0u8; 8])).unwrap(),
            RmwOutcome::Indirection
        );
        assert_eq!(s.log().tail_address(), tail);
        match s.read_record_for(9, &session).unwrap() {
            ReadOutcome::Found { record, .. } => assert!(record.is_indirection()),
            other => panic!("unexpected outcome {other:?}"),
        }
        // With no initial value an absent key stays absent ...
        assert_eq!(
            session.rmw_add_outcome(10, 1, None).unwrap(),
            RmwOutcome::Absent
        );
        assert_eq!(s.log().tail_address(), tail);
        // ... and a record of the key's own beats the indirection.
        session.upsert(9, &[4u8, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        assert_eq!(
            session.rmw_add_outcome(9, 1, None).unwrap(),
            RmwOutcome::Applied(5)
        );
    }

    #[test]
    fn live_pieces_are_those_at_or_below_the_record() {
        let s = store();
        let floor = s.raise_floors(&[(100, 200)]);
        let below = Address::new(floor.raw() - 1);
        assert_eq!(
            s.live_pieces(50, 300, below),
            vec![(50, 100, Address::new(0)), (200, 300, Address::new(0))]
        );
        assert_eq!(s.live_pieces(50, 300, floor).len(), 3);
    }

    /// Raises the floor of the one-hash range holding `key`.
    fn raise_floor_of(s: &Faster, key: u64) -> Address {
        let h = KeyHash::of(key).raw();
        s.raise_floors(&[(h, h + 1)])
    }

    #[test]
    fn records_below_their_floor_are_dead_to_every_operation() {
        let s = store();
        let session = s.start_session();
        let (dead, live): (Vec<u64>, Vec<u64>) =
            (0..64u64).partition(|&k| KeyHash::of(k).raw() < u64::MAX / 2);
        for &k in dead.iter().chain(&live) {
            session.upsert(k, &[1u8; 8]).unwrap();
        }
        let floor = s.raise_floors(&[(0, u64::MAX / 2)]);
        let in_place = || s.stats().snapshot().in_place_updates;
        let before = in_place();
        let [read, record, upsert, rmw, delete, ..] = dead[..] else {
            panic!("too few keys below the split");
        };
        assert_eq!(session.read(read).unwrap(), None);
        assert_eq!(
            s.read_record_for(record, &session).unwrap(),
            ReadOutcome::NotFound
        );
        assert!(!session.delete(delete).unwrap());
        // A write goes to a new record past the floor, not in place.
        session.upsert(upsert, &[2u8; 8]).unwrap();
        assert_eq!(session.rmw_add(rmw, 5, &[0u8; 8]).unwrap(), 5);
        assert_eq!(in_place(), before);
        for key in [upsert, rmw] {
            match s.read_record_for(key, &session).unwrap() {
                ReadOutcome::Found { address, .. } => assert!(address >= floor),
                other => panic!("key {key}: {other:?}"),
            }
        }
        assert_eq!(session.read(upsert).unwrap(), Some(vec![2u8; 8]));
        // The neighbouring range keeps its records, in place included.
        for &k in &live {
            assert_eq!(session.read(k).unwrap(), Some(vec![1u8; 8]));
        }
        session.upsert(live[0], &[3u8; 8]).unwrap();
        assert_eq!(in_place(), before + 1);
        assert!(session.delete(live[1]).unwrap());
        assert_eq!(s.approximate_key_count(&session), live.len() + 1);
    }

    #[test]
    fn approximate_key_count_tracks_inserts() {
        let s = store();
        let session = s.start_session();
        for k in 0..200u64 {
            session.upsert(k, b"v").unwrap();
        }
        session.delete(7).unwrap();
        let count = s.approximate_key_count(&session);
        assert_eq!(count, 199);
    }

    #[test]
    fn rmw_add_on_short_value_zero_extends_the_counter() {
        // A plain upsert may have written fewer than 8 bytes; a later RMW
        // must not panic — it treats the short value as a zero-extended
        // little-endian counter.
        let s = store();
        let session = s.start_session();
        session.upsert(11, &[5u8, 0, 0]).unwrap();
        let next = session.rmw_add(11, 2, &[0u8; 8]).unwrap();
        assert_eq!(next, 7);
        let value = session.read(11).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(value[0..8].try_into().unwrap()), 7);

        // An empty value behaves like a zero counter.
        session.upsert(12, &[]).unwrap();
        assert_eq!(session.rmw_add(12, 9, &[0u8; 8]).unwrap(), 9);
    }
}
