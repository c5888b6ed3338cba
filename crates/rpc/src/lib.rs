//! The real TCP serving path for Shadowfax.
//!
//! The core crate serves a cluster over an in-process fabric of byte pipes,
//! speaking its wire codec (`shadowfax::wire`: the length-prefixed frames
//! for request batches, batch replies with the view number used for
//! ownership validation, paper §3.1.1/§3.2, migration messages and control
//! frames; re-exported here).  This crate puts the same cluster behind real
//! sockets:
//!
//! * [`TcpTransport`] — the `shadowfax_net::Transport` that dials
//!   non-blocking TCP streams, so client sessions pipeline the same frames
//!   over loopback or a LAN as they do over the simulator.
//! * [`RpcServer`] — the TCP front end: N control I/O threads, each running
//!   the one readiness loop of this crate (`io_loop`: accept inline, serve
//!   `Framed` connections with per-pass fairness bounds and a bounded
//!   outbound buffer), that hand each client data connection (and each
//!   peer migration connection) to the dispatch thread it names, which
//!   serves the socket itself from then on.  Everything else on a
//!   connection is a control frame, answered from [`ControlPlane`]: one
//!   concrete object over the `Cluster` (ownership snapshots, migration
//!   triggers, metrics, metadata replication, chain fetches) standing in
//!   for direct metadata-store access.
//! * [`RemoteClient`] — the out-of-process client: `shadowfax`'s one
//!   client ([`shadowfax::ShadowfaxClient`]) with a serving process's
//!   control plane as its ownership source and [`TcpTransport`] links.
//!   Every other process's server is dialled directly, so one client spans
//!   a multi-process cluster.
//! * The migration data plane: [`TcpTransport`] is also the server's
//!   migration connector, dialling dedicated TCP connections that carry the
//!   view-tagged migration protocol (`PrepForTransfer`, `TakeOwnership`,
//!   `PushHotRecords`, `PushRecordBatch`, `CompleteMigration`) between
//!   serving processes, so hash-range ownership and the records underneath
//!   it move between OS processes under live load.
//! * [`TierDaemon`] — the `shadowfax-tier` blob tier daemon: one genuinely
//!   shared tier process serving lease-guarded appends and open reads over
//!   `TIER_LEASE` / `TIER_APPEND` / `TIER_READ` frames, on one copy of the
//!   same I/O loop.  Serving processes mirror their spill writes to it, so
//!   any process resolves any log's chains — including multi-hop nested
//!   indirections — directly.
//! * [`RemoteSharedTier`] — the serving process's view of that daemon: it
//!   mirrors spill appends under a per-log lease, reads foreign logs back
//!   with `TIER_READ`, and demotes to the [`RemoteTierService`] chain-fetch
//!   path when the daemon is unreachable.
//! * [`RemoteTierService`] — the chain-fetch fallback: indirection records
//!   naming a log another process hosts are resolved with view-tagged
//!   `FetchChain` requests; the hosting process walks the spilled chain out
//!   of its shared-tier log and returns the records in one batch (stale
//!   views and out-of-range addresses are rejected).
//! * [`Coordinator`] — metadata replication between serving processes:
//!   replica pull/merge/fan-out, deterministic broker election, relayed
//!   cancellations, and the gate that makes a follower refuse operator
//!   mutations while its broker is silent.
//!
//! Binaries: `shadowfax-server` hosts one server behind a listening socket
//! (a cluster is one process per server); `shadowfax-cli` speaks the wire
//! protocol (get/put/del/rmw/migrate/cluster/tier/metrics);
//! `shadowfax-tier` is the tier daemon.  Throughput and latency are
//! measured by the repository's `benchmark/` package, not from here.

#![warn(missing_docs)]

mod broker;
mod client;
mod ctrl;
mod io_loop;
mod server;
mod tcp;
mod tier;
mod tierd;

pub use broker::{Coordinator, CoordinatorConfig, CoordinatorHandle};
pub use client::{ControlPlaneOwnership, RemoteClient, RemoteClientConfig};
pub use ctrl::{CtrlClient, RpcError};
pub use server::{ControlPlane, RpcServer, RpcServerConfig, RpcServerHandle};
pub use shadowfax::wire::{
    decode_frame, encode_frame, CodecError, FrameDecoder, Role, WireBrokerPeer, WireBrokerStatus,
    WireMigrationState, WireMsg, WireOwnership, WireServerInfo, WireTierLog, WireTierStatus,
    MAX_FRAME_BYTES, OUTBOUND_BUDGET_BYTES,
};
pub use shadowfax::{ClientStats, OpCallback};
pub use tcp::TcpTransport;
pub use tier::{RemoteSharedTier, RemoteTierService};
pub use tierd::{TierDaemon, TierDaemonConfig, TierDaemonHandle, MAX_TIER_READ_BYTES};
