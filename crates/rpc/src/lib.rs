//! The real TCP serving path for Shadowfax.
//!
//! The core crates serve a cluster over an in-process simulated fabric; this
//! crate puts the same cluster behind real sockets:
//!
//! * [`codec`] — the length-prefixed binary wire format for
//!   [`RequestBatch`](shadowfax_net::RequestBatch)es, batch replies (with
//!   the view number used for ownership validation, paper §3.1.1/§3.2), and
//!   control frames.
//! * [`TcpTransport`] — a `shadowfax_net::Transport` implementation over
//!   non-blocking TCP, so `ClientSession`s pipeline batches over loopback or
//!   a LAN exactly as they do over the simulator.
//! * [`RpcServer`] — the TCP front end: an acceptor and N control I/O
//!   threads that hand each client data connection (and each peer
//!   migration connection) to the dispatch thread it names, which serves
//!   the socket itself from then on, plus a control plane (ownership
//!   snapshots, migration triggers) standing in for direct metadata-store
//!   access.
//! * [`RemoteClient`] — the out-of-process client: ownership-aware routing,
//!   pipelined sessions, stale-view handling, all over the wire.  Servers
//!   registered with socket addresses are dialled directly, so one client
//!   spans a multi-process cluster.
//! * [`TcpMigrationLink`] / [`TcpMigrationConnector`] — the migration data
//!   plane: dedicated TCP connections carrying the view-tagged migration
//!   protocol (`PrepForTransfer`, `TakeOwnership`, `PushHotRecords`,
//!   `PushRecordBatch`, `CompleteMigration`) between serving processes, so
//!   hash-range ownership and the records underneath it move between OS
//!   processes under live load.
//! * [`TierDaemon`] — the `shadowfax-tier` blob tier daemon: one genuinely
//!   shared tier process serving lease-guarded appends and open reads over
//!   `TIER_LEASE` / `TIER_APPEND` / `TIER_READ` frames.  Serving processes
//!   mirror their spill writes to it, so any process resolves any log's
//!   chains — including multi-hop nested indirections — directly.
//! * [`RemoteSharedTier`] — the serving process's view of that daemon: it
//!   mirrors spill appends under a per-log lease, reads foreign logs back
//!   with `TIER_READ`, and demotes to the [`RemoteTierService`] chain-fetch
//!   path when the daemon is unreachable.
//! * [`RemoteTierService`] — the chain-fetch fallback: indirection records
//!   naming a log another process hosts are resolved with view-tagged
//!   `FetchChain` requests; the hosting process walks the spilled chain out
//!   of its shared-tier log and returns the records in one batch (stale
//!   views and out-of-range addresses are rejected).
//! * [`bench`] — a loopback throughput micro-benchmark used by
//!   `shadowfax-cli bench` and the integration tests.
//!
//! Binaries: `shadowfax-server` hosts a cluster behind a listening socket;
//! `shadowfax-cli` speaks the wire protocol (get/put/delete/bench/migrate).

#![warn(missing_docs)]

pub mod bench;
mod broker;
mod client;
pub mod codec;
mod ctrl;
mod fabric;
mod server;
mod tcp;
mod tier;
mod tierd;

pub use bench::{run_bench, BenchOptions, BenchReport};
pub use broker::{
    CoordinatedControl, Coordinator, CoordinatorConfig, CoordinatorHandle, ReplicatedMetadata,
};
pub use client::{OpCallback, RemoteClient, RemoteClientConfig, RemoteClientStats};
pub use codec::{
    decode_frame, encode_frame, CodecError, FrameDecoder, Role, WireBrokerPeer, WireBrokerStatus,
    WireMigrationState, WireMsg, WireOwnership, WireServerInfo, WireTierLog, WireTierStatus,
    MAX_FRAME_BYTES,
};
pub use ctrl::{CtrlClient, RpcError};
pub use fabric::TcpMigrationConnector;
pub use server::{
    ClusterControl, RpcServer, RpcServerConfig, RpcServerHandle, TierAwareControl,
    OUTBOUND_BUDGET_BYTES,
};
pub use tcp::{TcpLink, TcpMigrationLink, TcpTransport};
pub use tier::{RemoteSharedTier, RemoteTierService};
pub use tierd::{TierDaemon, TierDaemonConfig, TierDaemonHandle, MAX_TIER_READ_BYTES};
