//! The two links over a framed byte stream, one per role:
//!
//! * [`PeerLink`] — the dialling end of a client data connection, and
//!   either end of a migration connection between servers: synchronous
//!   sends, receives that drain the stream until it would block.
//! * [`ServedKvLink`] — a client data connection as the dispatch thread
//!   that owns it serves it, through [`Framed`]'s per-pass bounds and
//!   bounded outbound buffer.
//!
//! Both run over any [`ByteStream`] — a TCP socket or an in-process sim
//! pipe — so an in-process cluster crosses the same codec and the same
//! framing as a production request.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

use shadowfax_net::{BatchReply, ByteStream, KvRequest, RequestBatch, StatusCode, TransportError};
use shadowfax_obs::{Counter, Histogram, MetricsRegistry};

use super::codec::{encode_frame, CodecError, FrameDecoder, WireMsg, MAX_FRAME_BYTES};
use super::framed::{drain_socket, ConnGuard, DrainStop, Framed};
use crate::messages::MigrationMsg;

/// How long a client's batch send may wait on a peer that is not reading.
pub(crate) const DATA_SEND_BUDGET: Duration = Duration::from_secs(30);

/// How long a migration send may wait: migration links are written from
/// dispatch threads that also serve client traffic, so a stalled peer
/// must not wedge them.
pub(crate) const MIGRATION_SEND_BUDGET: Duration = Duration::from_secs(5);

/// A codec failure as the transport error it ends a link with.
pub(crate) fn codec_err(e: CodecError) -> TransportError {
    match e {
        CodecError::Oversized { len, max } => TransportError::Oversized { len, max },
        other => TransportError::Malformed(other.to_string()),
    }
}

/// Writes all of `bytes` to a non-blocking stream, retrying `WouldBlock`
/// until `budget` elapses.  A peer that stops reading (full kernel buffer
/// for longer than the budget) fails the write instead of wedging the
/// calling thread.
fn write_all_nonblocking(
    stream: &mut dyn ByteStream,
    bytes: &[u8],
    budget: Duration,
) -> Result<(), TransportError> {
    let deadline = Instant::now() + budget;
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(TransportError::PeerClosed),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Io(format!(
                        "write stalled for {budget:?}: peer is not reading"
                    )));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset =>
            {
                return Err(TransportError::PeerClosed)
            }
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// One end of a framed connection to a peer: a client's data link to a
/// dispatch thread, or either end of a migration link between servers.
///
/// A send encodes one frame and writes it whole before returning (within
/// the link's budget); a failed send leaves a possibly partial frame on the
/// stream, so the link is closed for good.  A receive drains the stream
/// until it would block and hands out one decoded frame.  Frames that
/// arrived before the peer hung up are still delivered; after that, a
/// partial frame can never complete, and the link reports
/// [`TransportError::PeerClosed`].
pub(crate) struct PeerLink {
    stream: Box<dyn ByteStream>,
    decoder: FrameDecoder,
    open: bool,
    label: String,
    send_budget: Duration,
    /// An accepted TCP connection keeps the front end's `rpc.conns.*`
    /// accounting alive.
    _guard: ConnGuard,
}

impl std::fmt::Debug for PeerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerLink")
            .field("peer", &self.label)
            .field("open", &self.open)
            .finish()
    }
}

impl PeerLink {
    /// Wraps a freshly dialled stream to `label`.
    pub(crate) fn new(stream: Box<dyn ByteStream>, label: String, send_budget: Duration) -> Self {
        PeerLink {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            open: true,
            label,
            send_budget,
            _guard: ConnGuard::new(None),
        }
    }

    /// The accepting end of a migration connection: whatever the acceptor
    /// already buffered behind the MIG_HELLO stays in the decoder.
    pub(crate) fn accepted(io: Framed, label: String) -> Self {
        let Framed {
            stream,
            decoder,
            guard,
            ..
        } = io;
        PeerLink {
            stream,
            decoder,
            open: true,
            label,
            send_budget: MIGRATION_SEND_BUDGET,
            _guard: guard,
        }
    }

    /// `true` until a send failed or the peer was seen gone.
    #[cfg(test)]
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// The remote endpoint, for diagnostics.
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// The socket a dispatch thread that adopted this link registers with
    /// its reactor; `None` for a sim pipe.
    pub(crate) fn raw_fd(&self) -> Option<RawFd> {
        self.stream.raw_fd()
    }

    fn fail(&mut self, e: TransportError) -> TransportError {
        self.open = false;
        e
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::PeerClosed);
        }
        let frame = encode_frame(msg);
        write_all_nonblocking(self.stream.as_mut(), &frame, self.send_budget)
            .map_err(|e| self.fail(e))
    }

    /// Sends one request batch.
    pub(crate) fn send_batch(&mut self, batch: RequestBatch) -> Result<(), TransportError> {
        self.send(&WireMsg::Batch(batch))
    }

    /// Sends one migration message; on failure the message comes back for
    /// a retry on another link.
    pub(crate) fn send_migration(
        &mut self,
        msg: MigrationMsg,
    ) -> Result<(), (TransportError, MigrationMsg)> {
        let wire = WireMsg::Migration(msg);
        let sent = self.send(&wire);
        let WireMsg::Migration(msg) = wire else {
            unreachable!("built as a migration frame above")
        };
        sent.map_err(|e| (e, msg))
    }

    /// The next frame, if one is complete.  A `CtrlErr` from the peer (it
    /// refused the connection or a frame) ends the link.
    fn recv(&mut self) -> Result<Option<WireMsg>, TransportError> {
        let eof = match drain_socket(&mut self.stream, &mut self.decoder, |_, _| true) {
            Ok(stop) => matches!(stop, DrainStop::Eof),
            // A reset counts as the peer hanging up: frames that arrived
            // before it are still delivered.
            Err(e)
                if e.kind() == ErrorKind::ConnectionReset || e.kind() == ErrorKind::BrokenPipe =>
            {
                true
            }
            Err(e) => return Err(self.fail(TransportError::Io(e.to_string()))),
        };
        match self.decoder.next_msg() {
            Ok(Some(WireMsg::CtrlErr { status, message })) => {
                let err = match status {
                    StatusCode::UnknownAddress => TransportError::ConnectionRefused {
                        addr: self.label.clone(),
                    },
                    _ => TransportError::Malformed(format!("peer rejected a frame: {message}")),
                };
                Err(self.fail(err))
            }
            Ok(Some(msg)) => Ok(Some(msg)),
            // After EOF a partial frame can never complete.
            Ok(None) if eof => Err(self.fail(TransportError::PeerClosed)),
            Ok(None) => Ok(None),
            Err(e) => Err(self.fail(codec_err(e))),
        }
    }

    fn unexpected(&mut self, role: &str, msg: WireMsg) -> TransportError {
        self.fail(TransportError::Malformed(format!(
            "unexpected frame on a {role} connection: {msg:?}"
        )))
    }

    /// Receives one batch reply, if one has arrived.
    pub(crate) fn recv_reply(&mut self) -> Result<Option<BatchReply>, TransportError> {
        match self.recv()? {
            Some(WireMsg::Reply(reply)) => Ok(Some(reply)),
            Some(other) => Err(self.unexpected("data", other)),
            None => Ok(None),
        }
    }

    /// Receives one migration message, if one has arrived.
    pub(crate) fn recv_migration(&mut self) -> Result<Option<MigrationMsg>, TransportError> {
        match self.recv()? {
            Some(WireMsg::Migration(msg)) => Ok(Some(msg)),
            Some(other) => Err(self.unexpected("migration", other)),
            None => Ok(None),
        }
    }
}

/// Serving-path latency of client data connections, per op type, from
/// frame decoded to reply handed to the stream.
#[derive(Clone)]
pub(crate) struct KvLatency {
    read: Histogram,
    upsert: Histogram,
    /// Batch timing entries shed by the bounded in-flight table; their
    /// eventual replies go unmeasured, so the histograms under-sample —
    /// visibly, via this counter, instead of silently.
    timings_dropped: Counter,
}

impl KvLatency {
    pub(crate) fn register(metrics: &MetricsRegistry) -> Self {
        KvLatency {
            read: metrics.histogram("rpc.latency.read"),
            upsert: metrics.histogram("rpc.latency.upsert"),
            timings_dropped: metrics.counter("rpc.latency.timings_dropped"),
        }
    }
}

/// Most in-flight batch timings a connection retains for latency
/// measurement.  A client that never reads replies sheds the oldest
/// timings rather than growing without bound (each shed is counted in
/// `rpc.latency.timings_dropped`).
const MAX_INFLIGHT_TIMINGS: usize = 1024;

/// A client data connection as the one dispatch thread that owns it
/// serves it: request batches in, batch replies out, through [`Framed`].
/// `rpc.latency.{read,upsert}` are recorded here, per batch.
pub(crate) struct ServedKvLink {
    io: Framed,
    lat: KvLatency,
    /// `(seq, decoded at, reads, upserts)` for batches not answered yet.
    inflight: VecDeque<(u64, Instant, usize, usize)>,
}

impl ServedKvLink {
    pub(crate) fn new(io: Framed, lat: KvLatency) -> Self {
        ServedKvLink {
            io,
            lat,
            inflight: VecDeque::new(),
        }
    }

    /// Tells the peer why the connection is ending (best effort) and
    /// returns the error that ends it.
    fn reject(&mut self, error: TransportError) -> TransportError {
        self.io.queue(&WireMsg::CtrlErr {
            status: error.status_code(),
            message: error.to_string(),
        });
        self.io.flush_out();
        error
    }

    fn failure(&self) -> TransportError {
        if self.io.guard.slow_reader {
            TransportError::Io("outbound budget exhausted: peer is not reading".into())
        } else {
            TransportError::PeerClosed
        }
    }

    /// The socket to register (edge-triggered) with the owner's reactor;
    /// `None` for a sim pipe, whose writer runs the listener's waker.
    pub(crate) fn raw_fd(&self) -> Option<RawFd> {
        self.io.stream.raw_fd()
    }

    /// Starts one service pass: reads what the stream has, within
    /// [`Framed`]'s per-pass bounds.
    pub(crate) fn begin_pass(&mut self) {
        self.io.begin_pass();
    }

    /// The next request batch of this pass.  `Ok(None)` ends the pass (no
    /// complete batch buffered, or the per-pass bound was reached); an
    /// error means the link is finished and must be dropped.
    pub(crate) fn try_recv_batch(&mut self) -> Result<Option<RequestBatch>, TransportError> {
        let batch = match self.io.next_frame() {
            Ok(Some(WireMsg::Batch(batch))) => batch,
            Ok(Some(other)) => {
                return Err(self.reject(TransportError::Malformed(format!(
                    "unexpected frame on a data connection: {other:?}"
                ))))
            }
            Ok(None) if self.io.finished() || self.io.dead => return Err(self.failure()),
            Ok(None) => return Ok(None),
            Err(e) => return Err(self.reject(codec_err(e))),
        };
        let reads = batch
            .ops
            .iter()
            .filter(|op| matches!(op, KvRequest::Read { .. }))
            .count();
        if self.inflight.len() >= MAX_INFLIGHT_TIMINGS {
            // The shed entry's eventual reply will go unmeasured; count it
            // so the histograms' under-sampling is visible.
            self.inflight.pop_front();
            self.lat.timings_dropped.inc();
        }
        self.inflight
            .push_back((batch.seq, Instant::now(), reads, batch.ops.len() - reads));
        Ok(Some(batch))
    }

    /// Queues one reply without blocking.  An error means the link is
    /// finished (peer gone, or it stopped reading and the outbound budget
    /// ran out).
    pub(crate) fn send_reply(&mut self, reply: BatchReply) -> Result<(), TransportError> {
        // Once per op type the batch carried.
        if let Some(pos) = self.inflight.iter().position(|e| e.0 == reply.seq()) {
            let (_, start, reads, upserts) = self.inflight.remove(pos).unwrap();
            let elapsed = start.elapsed();
            if reads > 0 {
                self.lat.read.record(elapsed);
            }
            if upserts > 0 {
                self.lat.upsert.record(elapsed);
            }
        }
        self.io.queue(&WireMsg::Reply(reply));
        if self.io.dead {
            Err(self.failure())
        } else {
            Ok(())
        }
    }

    /// Pushes buffered output toward the peer.  `Ok(true)` while bytes
    /// remain queued: the owner should subscribe to write-readiness.
    pub(crate) fn flush(&mut self) -> Result<bool, TransportError> {
        self.io.flush_out();
        if self.io.dead {
            Err(self.failure())
        } else {
            Ok(!self.io.out.is_empty())
        }
    }

    /// Input a per-pass bound left behind.  Readiness will not announce it
    /// again, so the owner must run another pass before it blocks.
    pub(crate) fn has_deferred_input(&self) -> bool {
        self.io.has_deferred_input()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::{sim_pair, FramedPeer};
    use shadowfax_net::SimNetwork;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn reply(seq: u64) -> BatchReply {
        BatchReply::Rejected {
            seq,
            server_view: 2,
        }
    }

    fn empty_batch(seq: u64) -> RequestBatch {
        RequestBatch {
            view: 1,
            seq,
            ops: vec![],
        }
    }

    #[test]
    fn a_half_frame_then_a_close_ends_the_link_over_the_sim_pipe() {
        let (mut link, mut server) = sim_pair();
        let frame = encode_frame(&WireMsg::Reply(reply(1)));
        server.write_raw(&frame[..frame.len() / 2]);
        assert_eq!(link.recv_reply(), Ok(None), "half a frame is not a reply");
        drop(server);
        assert_eq!(link.recv_reply(), Err(TransportError::PeerClosed));
        assert!(!link.is_open());
    }

    #[test]
    fn a_half_frame_then_a_close_ends_the_link_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut link = PeerLink::new(Box::new(client), "tcp".into(), DATA_SEND_BUDGET);
        let (mut server, _) = listener.accept().unwrap();
        let frame = encode_frame(&WireMsg::Reply(reply(1)));
        server.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(server);
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match link.recv_reply() {
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(other) => panic!("expected PeerClosed, got {other:?} after 5 s"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::PeerClosed);
        assert!(!link.is_open());
    }

    #[test]
    fn a_dropped_peer_closes_the_link() {
        let (mut link, server) = sim_pair();
        drop(server);
        assert_eq!(
            link.send_batch(empty_batch(1)),
            Err(TransportError::PeerClosed)
        );
        assert!(!link.is_open());
        let (mut link, server) = sim_pair();
        drop(server);
        assert_eq!(link.recv_reply(), Err(TransportError::PeerClosed));
        assert!(!link.is_open());
    }

    #[test]
    fn a_migration_link_receives_what_the_peer_sent_before_the_close() {
        let net = SimNetwork::new();
        let listener = net.listen("sv0/m0");
        let dialled = net.connect("sv0/m0").unwrap();
        let mut peer = FramedPeer::new(listener.try_accept().unwrap());
        let mut link = PeerLink::new(Box::new(dialled), "sv0/m0".into(), MIGRATION_SEND_BUDGET);
        assert_eq!(link.recv_migration(), Ok(None));
        let heartbeat = |migration_id| MigrationMsg::Heartbeat {
            migration_id,
            view: 3,
        };
        for id in [1, 2] {
            assert!(peer.send(&WireMsg::Migration(heartbeat(id))));
        }
        drop(peer);
        assert_eq!(link.recv_migration(), Ok(Some(heartbeat(1))));
        assert_eq!(link.recv_migration(), Ok(Some(heartbeat(2))));
        assert_eq!(link.recv_migration(), Err(TransportError::PeerClosed));
        assert!(!link.is_open());
        // A send that cannot be delivered hands the message back.
        assert_eq!(
            link.send_migration(heartbeat(3)),
            Err((TransportError::PeerClosed, heartbeat(3)))
        );
    }

    #[test]
    fn a_served_link_answers_buffered_batches_before_reporting_the_close() {
        let net = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let mut client = PeerLink::new(
            Box::new(net.connect("sv0/t0").unwrap()),
            "sv0/t0".into(),
            DATA_SEND_BUDGET,
        );
        let io = Framed::new(
            Box::new(listener.try_accept().unwrap()),
            MAX_FRAME_BYTES,
            None,
        );
        let mut served = ServedKvLink::new(io, KvLatency::register(&MetricsRegistry::new()));
        served.begin_pass();
        assert_eq!(served.try_recv_batch(), Ok(None));
        for seq in [1, 2] {
            client.send_batch(empty_batch(seq)).unwrap();
        }
        drop(client);
        served.begin_pass();
        assert_eq!(served.try_recv_batch(), Ok(Some(empty_batch(1))));
        assert_eq!(served.try_recv_batch(), Ok(Some(empty_batch(2))));
        assert_eq!(served.try_recv_batch(), Err(TransportError::PeerClosed));
    }
}
