//! Storage device abstractions for the Shadowfax reproduction.
//!
//! The paper's HybridLog spans three tiers: DRAM, a local NVMe SSD, and a
//! shared remote blob store (Azure page blobs).  Neither of the latter two is
//! available in this environment, so this crate provides *simulated* devices
//! that preserve the properties the system depends on:
//!
//! * [`SimSsd`] — an in-memory page store standing in for the local SSD.
//!   Every access costs a memcpy: the device models no latency, IOPS or
//!   bandwidth, so it checks what was written, not how long the paper's SSD
//!   would take (Table 1).
//! * [`SharedBlobTier`] — a shared object store standing in for the remote
//!   cloud tier.  Multiple server logs write to it under distinct log ids, and
//!   any server can read any log's pages — exactly the property indirection
//!   records rely on (paper §3.3.2).
//! * [`NullDevice`] — discards writes; used by tests and by purely in-memory
//!   configurations.
//!
//! All devices implement the [`Device`] trait, which the HybridLog uses for
//! page flushes and record reads.  Devices also keep [`DeviceCounters`] so
//! that benchmarks can report how many bytes/IOs each tier absorbed.

#![warn(missing_docs)]

mod counters;
mod device;
mod shared_tier;
mod sim_ssd;
mod tier_service;

pub use counters::{CounterSnapshot, DeviceCounters};
pub use device::{Device, DeviceError, NullDevice, Result};
pub use shared_tier::{LogId, SharedBlobTier, SharedTierHandle, TierSink};
pub use sim_ssd::SimSsd;
pub use tier_service::TierService;
