//! A FASTER-style concurrent, larger-than-memory key-value store.
//!
//! This crate reimplements the single-node substrate Shadowfax is built on
//! (paper §2): a lock-free hash index whose cache-line-sized bucket entries
//! point at reverse-linked record chains on a [`HybridLog`] that spans memory
//! and a (simulated) SSD, epoch-protected access with asynchronous global
//! cuts, CPR-style checkpointing, and log compaction.
//!
//! The intended usage mirrors the paper's threading model: pin one thread per
//! core, give each a [`FasterSession`], and share a single [`Faster`] instance
//! between all of them.
//!
//! ```
//! use std::sync::Arc;
//! use shadowfax_faster::{Faster, FasterConfig};
//! use shadowfax_storage::SimSsd;
//!
//! let store = Faster::standalone(FasterConfig::small_for_tests(), Arc::new(SimSsd::new(1 << 26)));
//! let session = store.start_session();
//! session.upsert(1, b"one").unwrap();
//! assert_eq!(session.read(1).unwrap().as_deref(), Some(&b"one"[..]));
//! assert_eq!(session.rmw_add(100, 5, &[0u8; 8]).unwrap(), 5);
//! ```
//!
//! [`HybridLog`]: shadowfax_hlog::HybridLog

#![warn(missing_docs)]

mod checkpoint;
mod compaction;
mod config;
mod floors;
mod hash_index;
mod key_hash;
mod stats;
mod store;

pub use checkpoint::{recover_from_checkpoint, take_checkpoint, Checkpoint};
pub use compaction::{
    compact_all_keep, compact_until, record_is_foreign, CompactionStats, Disposition,
};
pub use config::FasterConfig;
pub use hash_index::{BucketEntry, EntrySnapshot, HashIndex, IndexSnapshot, ENTRIES_PER_BUCKET};
pub use key_hash::KeyHash;
pub use stats::{StatsSnapshot, StoreStats};
pub use store::{Faster, FasterError, FasterSession, ReadOutcome, Result, RmwOutcome};

// Re-export the log types most callers need alongside the store.
pub use shadowfax_hlog::{Address, RecordFlags, RecordOwned, INVALID_ADDRESS};
