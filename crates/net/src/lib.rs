//! Networking substrate: wire messages, sessions with pipelined batches, a
//! pluggable transport layer, and a zero-cost in-process fabric.
//!
//! The paper's servers and clients communicate over ordinary Linux TCP
//! (§3.1).  This crate defines the messages, the client session, and the
//! seams real transports plug into:
//!
//! * **messages** — [`KvRequest`]s travel in [`RequestBatch`]es tagged with
//!   the client's cached view number; [`BatchReply`] either answers every
//!   operation or rejects the whole batch with the server's current view
//!   (paper §3.2).
//! * **sessions** — a [`ClientSession`] connects one client thread to one
//!   server thread, carrying pipelined batches of asynchronous requests with
//!   completion callbacks (paper §3.1.1, §3.2).
//! * **transports** — the [`Transport`] / [`KvLink`] traits decouple the
//!   session machinery from the bytes underneath:
//!
//!   | implementation | where | what it is |
//!   |---|---|---|
//!   | [`SimNetwork`] | this crate | in-process fabric: typed messages over channels, no cost model and no codec |
//!   | `TcpTransport` | `shadowfax-rpc` | real loopback/LAN TCP sockets speaking the length-prefixed wire codec |
//!
//!   A [`Transport`] opens [`KvLink`]s to string addresses.  Fabric
//!   addresses name a server dispatch thread (`"sv0/t3"`); the TCP transport
//!   prefixes the socket address (`"127.0.0.1:4870/sv0/t3"`).  Because
//!   [`ClientSession`] is written purely against `dyn KvLink`, the paper's
//!   client-side properties (batching, pipelining, view stamping, parking on
//!   rejection) hold identically over the simulator and over real sockets.
//! * **typed errors** — [`TransportError`] / [`SessionError`] replace the
//!   old ad-hoc `bool`/`Option` signalling, and carry a stable one-byte
//!   [`StatusCode`] so the RPC layer can put them on the wire.
//! * **liveness** — [`PeerLiveness`] / [`LivenessConfig`] track whether the
//!   peer on a long-lived link (a migration control connection) is still
//!   alive: heartbeats with a miss budget, plus explicit peer-death from
//!   transport errors.  The migration state machines use it to cancel a
//!   migration whose peer died instead of wedging forever.
//! * **reactor** — [`Reactor`] / [`Interest`] / [`Token`] wrap Linux
//!   `epoll` (direct syscall bindings, no external crates) with
//!   edge-triggered readiness and an `eventfd` wakeup channel.  The RPC
//!   server's I/O threads and the tier daemon's event loop are built on
//!   it, so idle connections cost no CPU.
//!
//! The simulated fabric remains generic over the message type; the Shadowfax
//! core crate instantiates it with its client/server and server/server
//! message enums.

#![warn(missing_docs)]

mod error;
mod liveness;
mod message;
pub mod reactor;
mod session;
mod sim;
mod transport;

pub use error::{SessionError, StatusCode, TransportError};
pub use liveness::{LivenessConfig, PeerLiveness};
pub use message::{BatchReply, KvRequest, KvResponse, RequestBatch};
pub use reactor::{raise_nofile_limit, Event, Interest, Reactor, Token};
pub use session::{Callback, ClientSession, SessionConfig, SessionStats};
pub use sim::{Connection, Listener, SimNetwork, Waker};
pub use transport::{KvLink, MigrationLink, MigrationSendError, ServerKvLink, Transport};
