//! Shadowfax: a distributed, elastic, larger-than-memory key-value store.
//!
//! This crate is the reproduction of the paper's primary contribution
//! ("Achieving High Throughput and Elasticity in a Larger-than-Memory
//! Store", VLDB 2021): a distributed key-value store built over FASTER that
//! serves records spanning DRAM, SSD, and a shared cloud storage tier, and
//! that can shift load between servers with minimal disruption.
//!
//! The three design pillars from the paper map onto this crate as follows:
//!
//! * **Low-cost coordination via global cuts** — ownership transfer,
//!   migration phases, and checkpoints advance over asynchronous epoch cuts
//!   (`shadowfax-epoch`), never by stalling dispatch threads
//!   ([`MigrationReport`], [`Server`]).
//! * **End-to-end asynchronous clients** — [`ShadowfaxClient`] issues
//!   operations with completion callbacks and keeps pipelined batches in
//!   flight on every session.  It is the only client: generic over an
//!   [`OwnershipSource`] (this crate's [`MetadataStore`], or a serving
//!   process's control plane in `shadowfax-rpc`) and over the transport.
//! * **Partitioned sessions, shared data** — each [`Server`] dispatch thread
//!   owns its sessions outright while all threads share one FASTER instance;
//!   batches are validated with a single view-number comparison
//!   ([`OwnershipCheck::ViewValidation`]).
//!
//! # Quick start
//!
//! ```
//! use shadowfax::{Cluster, ClusterConfig, ClientConfig, ServerId};
//!
//! let cluster = Cluster::start(ClusterConfig::two_server_test());
//! let mut client = cluster.client(ClientConfig::default());
//! client.upsert(42, b"hello".to_vec());
//! assert_eq!(client.read(42).as_deref(), Some(&b"hello"[..]));
//!
//! // Elastically move 10% of server 0's hash space to the idle server 1.
//! cluster.migrate_fraction(ServerId(0), ServerId(1), 0.10).unwrap();
//! cluster.wait_for_migrations(std::time::Duration::from_secs(30));
//! assert_eq!(client.read(42).as_deref(), Some(&b"hello"[..]));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

mod client;
mod cluster;
mod compaction;
mod config;
mod dispatch;
mod hash_range;
mod indirection;
mod layout;
mod messages;
mod meta;
mod migration;
mod recovery;
mod server;
mod session;
pub mod wire;

pub use client::{ClientStats, OpCallback, OwnershipSource, ShadowfaxClient};
pub use cluster::{Cluster, ClusterConfig, PeerServer};
pub use compaction::CompactionOutcome;
pub use config::{ClientConfig, MigrationConfig, MigrationMode, OwnershipCheck, ServerConfig};
pub use dispatch::DispatchHandle;
pub use hash_range::{partition_space, partition_space_among, HashRange, RangeSet};
pub use indirection::{IndirectionRecord, INDIRECTION_VALUE_BYTES};
pub use layout::{
    format_ranges_spec, parse_peer_spec, validate_partition, ClusterLayout, LayoutError,
};
pub use messages::{MigratedItem, MigrationAckPhase, MigrationMsg};
pub use meta::{
    MergeOutcome, MetaError, MetaReplica, MetadataStore, MigrationDep, OwnershipSnapshot,
    ServerMeta,
};
pub use migration::{MigrationReport, MigrationRole};
pub use recovery::{CrashedServer, RecoveryOutcome};
pub use server::{MigrationConnector, Server, ServerHandle};
pub use session::SessionStats;

// Re-export the request/response types clients interact with.
pub use shadowfax_net::{KvRequest, KvResponse, SessionConfig};

/// Identifies one server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server-{}", self.0)
    }
}
