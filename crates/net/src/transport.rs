//! The transport abstraction: two fabrics behind one session type.
//!
//! A [`Transport`] opens [`KvLink`]s — bidirectional, non-blocking,
//! batch-oriented links from one client thread to one server dispatch
//! thread.  [`ClientSession`](crate::ClientSession) is written purely
//! against `dyn KvLink`, so the same pipelined-batch machinery runs over:
//!
//! * the in-process [`SimNetwork`] fabric (zero-cost channels), and
//! * real TCP sockets (`TcpTransport` in the `shadowfax-rpc` crate, which
//!   frames batches with the length-prefixed wire codec).
//!
//! Addresses are strings.  The simulated fabric uses bare fabric addresses
//! (`"sv0/t3"`); the TCP transport prefixes a socket address
//! (`"127.0.0.1:4870/sv0/t3"`) and forwards the fabric part in its HELLO
//! frame so the serving process can bind the connection to a dispatch
//! thread.

use std::os::unix::io::RawFd;

use crate::error::TransportError;
use crate::message::{BatchReply, RequestBatch};
use crate::sim::{Connection, SimNetwork};

/// One end of a client-to-server link carrying request batches out and
/// batch replies back.  All methods are non-blocking; implementations are
/// internally synchronized so a link can be driven from a session while
/// diagnostics threads read its state.
pub trait KvLink: Send {
    /// Sends one request batch toward the server.
    fn send_batch(&self, batch: RequestBatch) -> Result<(), TransportError>;

    /// Receives one reply, if one is available, without blocking.
    fn try_recv_reply(&self) -> Result<Option<BatchReply>, TransportError>;

    /// `true` while the link can still carry traffic.
    fn is_open(&self) -> bool;

    /// A human-readable description of the remote endpoint.
    fn peer_label(&self) -> String {
        "<unknown peer>".to_string()
    }
}

/// The serving end of a [`KvLink`]: request batches in, batch replies out.
///
/// Owned and driven by exactly one server dispatch thread, which reads,
/// executes and answers on its own stack (paper §3.1: sessions are
/// partitioned across threads; no request or reply crosses threads).  The
/// in-process fabric ([`Connection<BatchReply, RequestBatch>`]) and real
/// sockets (`shadowfax-rpc`'s adopted data connections) both satisfy it.
pub trait ServerKvLink: Send {
    /// The socket to register (edge-triggered) with the owner's reactor, so
    /// traffic wakes an owner blocked in `poll`.  `None` for an in-process
    /// [`Connection`]: its peer runs the listener's [`Waker`](crate::Waker)
    /// after each send instead.
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    /// Starts one service pass: pulls what the transport has into the
    /// link, within its per-pass fairness bounds.
    fn begin_pass(&mut self) {}

    /// The next request batch of this pass.  `Ok(None)` ends the pass (no
    /// complete batch buffered, or the per-pass bound was reached); an
    /// error means the link is finished and must be dropped.
    fn try_recv_batch(&mut self) -> Result<Option<RequestBatch>, TransportError>;

    /// Hands one reply to the transport without blocking.  An error means
    /// the link is finished (peer gone, or it stopped reading and its
    /// bounded outbound buffer overflowed).
    fn send_reply(&mut self, reply: BatchReply) -> Result<(), TransportError>;

    /// Pushes buffered output toward the peer.  `Ok(true)` while bytes
    /// remain queued: the owner should subscribe to write-readiness.
    fn flush(&mut self) -> Result<bool, TransportError> {
        Ok(false)
    }

    /// Input a per-pass bound left behind.  Readiness will not announce it
    /// again, so the owner must run another pass before it blocks.
    fn has_deferred_input(&self) -> bool {
        false
    }
}

/// A client-side transport: a factory for [`KvLink`]s.
///
/// Implementations: [`SimNetwork`] (in-process fabric) and
/// `shadowfax_rpc::TcpTransport` (real sockets).
pub trait Transport: Send + Sync {
    /// Opens a link to the server dispatch thread at `addr`.
    fn connect_link(&self, addr: &str) -> Result<Box<dyn KvLink>, TransportError>;

    /// A short name for diagnostics ("sim", "tcp").
    fn transport_name(&self) -> &'static str;
}

/// A failed migration send, carrying the undelivered message back when the
/// transport could recover it, so record batches can be retried or re-routed
/// instead of silently lost.
#[derive(Debug)]
pub struct MigrationSendError<M> {
    /// What went wrong.
    pub error: TransportError,
    /// The undelivered message (`None` if the transport consumed it).
    pub msg: Option<M>,
}

/// One end of a server-to-server migration connection carrying symmetric
/// messages of type `M` (the core crate instantiates `M` with its migration
/// message enum).
///
/// This is the migration data plane's analogue of [`KvLink`]: all methods are
/// non-blocking, implementations are internally synchronized, and both the
/// in-process fabric ([`Connection<M, M>`]) and real sockets
/// (`shadowfax_rpc::TcpMigrationLink`) satisfy it, so the migration state
/// machines in the core crate never know which transport is underneath.
pub trait MigrationLink<M>: Send {
    /// Sends one migration message toward the peer.  On failure the message
    /// is handed back in the error whenever possible.
    fn send_msg(&self, msg: M) -> Result<(), MigrationSendError<M>>;

    /// Receives one migration message, if one is available, without blocking.
    fn try_recv_msg(&self) -> Result<Option<M>, TransportError>;

    /// `true` while the link can still carry traffic.
    fn is_open(&self) -> bool;

    /// A human-readable description of the remote endpoint.
    fn peer_label(&self) -> String {
        "<unknown peer>".to_string()
    }

    /// The socket a dispatch thread that adopted this link registers with
    /// its reactor (see [`ServerKvLink::raw_fd`]).
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }
}

impl<M: Send> MigrationLink<M> for Connection<M, M> {
    fn send_msg(&self, msg: M) -> Result<(), MigrationSendError<M>> {
        self.try_send(msg).map_err(|msg| MigrationSendError {
            error: TransportError::PeerClosed,
            msg: Some(msg),
        })
    }

    fn try_recv_msg(&self) -> Result<Option<M>, TransportError> {
        // The sim fabric cannot fail mid-stream; a dropped peer simply stops
        // producing messages, which `is_open` exposes.
        Ok(self.try_recv())
    }

    fn is_open(&self) -> bool {
        !self.peer_closed()
    }

    fn peer_label(&self) -> String {
        "sim".to_string()
    }
}

/// Most batches one in-process link hands out per service pass, as
/// `Framed` bounds a socket's frames: a client that keeps its pipeline full
/// would otherwise hold the dispatch thread in one pass for as long as it
/// keeps sending.
const BATCHES_PER_PASS: usize = 256;

impl ServerKvLink for Connection<BatchReply, RequestBatch> {
    fn begin_pass(&mut self) {
        self.served_this_pass = 0;
    }

    fn try_recv_batch(&mut self) -> Result<Option<RequestBatch>, TransportError> {
        if self.has_deferred_input() {
            return Ok(None);
        }
        // Sampled before the receive: a peer seen closed here can send
        // nothing more, so an empty receive after it really is the end.
        let closed = self.peer_closed();
        match self.try_recv() {
            Some(batch) => {
                self.served_this_pass += 1;
                Ok(Some(batch))
            }
            None if closed => Err(TransportError::PeerClosed),
            None => Ok(None),
        }
    }

    fn send_reply(&mut self, reply: BatchReply) -> Result<(), TransportError> {
        if self.send(reply) {
            Ok(())
        } else {
            Err(TransportError::PeerClosed)
        }
    }

    /// The pass reached its bound (possibly with nothing left behind, which
    /// costs one empty pass).
    fn has_deferred_input(&self) -> bool {
        self.served_this_pass == BATCHES_PER_PASS
    }
}

impl KvLink for Connection<RequestBatch, BatchReply> {
    fn send_batch(&self, batch: RequestBatch) -> Result<(), TransportError> {
        if self.send(batch) {
            Ok(())
        } else {
            Err(TransportError::PeerClosed)
        }
    }

    fn try_recv_reply(&self) -> Result<Option<BatchReply>, TransportError> {
        // The sim fabric cannot fail mid-stream; a dropped peer simply stops
        // producing replies, which `is_open` exposes.
        Ok(self.try_recv())
    }

    fn is_open(&self) -> bool {
        !self.peer_closed()
    }

    fn peer_label(&self) -> String {
        "sim".to_string()
    }
}

impl Transport for SimNetwork<RequestBatch, BatchReply> {
    fn connect_link(&self, addr: &str) -> Result<Box<dyn KvLink>, TransportError> {
        match self.connect(addr) {
            Some(conn) => Ok(Box::new(conn)),
            None => Err(TransportError::ConnectionRefused {
                addr: addr.to_string(),
            }),
        }
    }

    fn transport_name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Net = SimNetwork<RequestBatch, BatchReply>;

    #[test]
    fn sim_network_implements_transport() {
        let net: Arc<Net> = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let link = net.connect_link("sv0/t0").expect("listener registered");
        assert_eq!(net.transport_name(), "sim");
        assert!(link.is_open());

        let batch = RequestBatch {
            view: 1,
            seq: 7,
            ops: vec![],
        };
        link.send_batch(batch).unwrap();
        let server = listener.try_accept().unwrap();
        assert_eq!(server.drain().len(), 1);

        server.send(BatchReply::Rejected {
            seq: 7,
            server_view: 2,
        });
        let reply = link.try_recv_reply().unwrap().unwrap();
        assert_eq!(reply.seq(), 7);
        assert!(link.try_recv_reply().unwrap().is_none());
    }

    #[test]
    fn connect_link_to_unknown_address_is_typed() {
        let net: Arc<Net> = SimNetwork::new();
        match net.connect_link("nowhere") {
            Err(TransportError::ConnectionRefused { addr }) => assert_eq!(addr, "nowhere"),
            Err(other) => panic!("expected ConnectionRefused, got {other:?}"),
            Ok(_) => panic!("expected ConnectionRefused, got a link"),
        }
    }

    #[test]
    fn server_link_drains_buffered_batches_before_reporting_the_close() {
        let net: Arc<Net> = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let link = net.connect_link("sv0/t0").unwrap();
        let mut server: Box<dyn ServerKvLink> = Box::new(listener.try_accept().unwrap());
        assert_eq!(server.try_recv_batch(), Ok(None));
        for seq in [1, 2] {
            let ops = vec![];
            link.send_batch(RequestBatch { view: 1, seq, ops }).unwrap();
        }
        drop(link);
        assert_eq!(server.try_recv_batch().unwrap().unwrap().seq, 1);
        assert_eq!(server.try_recv_batch().unwrap().unwrap().seq, 2);
        assert_eq!(server.try_recv_batch(), Err(TransportError::PeerClosed));
    }

    #[test]
    fn migration_link_keeps_buffered_messages_after_the_peer_closes() {
        let net: Arc<SimNetwork<u64, u64>> = SimNetwork::new();
        let listener = net.listen("sv0/m0");
        let peer = net.connect("sv0/m0").unwrap();
        let link: Box<dyn MigrationLink<u64>> = Box::new(listener.try_accept().unwrap());
        assert_eq!(link.try_recv_msg(), Ok(None));
        for msg in [1, 2] {
            peer.send_msg(msg).unwrap();
        }
        drop(peer);
        // A peer's sends stay receivable after `is_open` turns false, which
        // is what lets `serve_mig` sample `is_open` before it drains.
        assert!(!link.is_open());
        assert_eq!(link.try_recv_msg(), Ok(Some(1)));
        assert_eq!(link.try_recv_msg(), Ok(Some(2)));
        assert_eq!(link.try_recv_msg(), Ok(None));
        assert!(!link.is_open());
    }

    #[test]
    fn each_pass_serves_at_most_its_bound_and_defers_the_rest() {
        let net: Arc<Net> = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let link = net.connect_link("sv0/t0").unwrap();
        let mut server: Box<dyn ServerKvLink> = Box::new(listener.try_accept().unwrap());
        let queued = 2_000;
        for seq in 0..queued as u64 {
            let ops = vec![];
            link.send_batch(RequestBatch { view: 1, seq, ops }).unwrap();
        }
        let mut served = 0;
        while served < queued {
            server.begin_pass();
            let pass = std::iter::from_fn(|| server.try_recv_batch().unwrap()).count();
            assert_eq!(pass, BATCHES_PER_PASS.min(queued - served));
            served += pass;
            // Input left behind must keep the thread from parking.
            assert_eq!(server.has_deferred_input(), served < queued);
        }
    }

    #[test]
    fn dropped_peer_closes_link() {
        let net: Arc<Net> = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let link = net.connect_link("sv0/t0").unwrap();
        let server = listener.try_accept().unwrap();
        drop(server);
        assert!(!link.is_open());
        let batch = RequestBatch {
            view: 1,
            seq: 1,
            ops: vec![],
        };
        assert_eq!(link.send_batch(batch), Err(TransportError::PeerClosed));
    }
}
