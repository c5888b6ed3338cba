//! Networking substrate: wire messages, session knobs, the byte-stream
//! seam both fabrics implement, and a zero-cost in-process fabric.
//!
//! The paper's servers and clients communicate over ordinary Linux TCP
//! (§3.1).  This crate defines the messages, the session knobs, and the
//! seam real transports plug into:
//!
//! * **messages** — [`KvRequest`]s travel in [`RequestBatch`]es tagged with
//!   the client's cached view number; [`BatchReply`] either answers every
//!   operation or rejects the whole batch with the server's current view
//!   (paper §3.2).
//! * **sessions** — [`SessionConfig`] and [`Callback`]: the batching and
//!   pipelining knobs of a client session and its completion callback (the
//!   session itself lives in the core crate, paper §3.1, §3.2).
//! * **transports** — one seam, [`ByteStream`]: a non-blocking byte stream
//!   that a [`Transport`] dials.  Everything above it (codec, framing,
//!   sessions, serving) is written once against bytes:
//!
//!   | implementation | where | what it is |
//!   |---|---|---|
//!   | [`SimNetwork`] | this crate | in-process fabric: byte pipes with a waker, no cost model |
//!   | `TcpTransport` | `shadowfax-rpc` | real loopback/LAN TCP sockets |
//!
//!   Fabric addresses name a server dispatch thread (`"sv0/t3"`); the TCP
//!   transport prefixes the socket address (`"127.0.0.1:4870/sv0/t3"`).
//!   Because both fabrics carry the same frames, the paper's client-side
//!   properties (batching, pipelining, view stamping, parking on rejection)
//!   and the wire format they travel in hold identically over the
//!   simulator and over real sockets.
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
//! The simulated fabric carries bytes, not messages: the core crate's codec
//! frames client batches and migration messages onto it exactly as onto a
//! TCP socket.

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
pub use session::{Callback, SessionConfig};
pub use sim::{Connection, Listener, SimNetwork, Waker};
pub use transport::{ByteStream, Transport};
