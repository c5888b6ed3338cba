//! One connection's framed I/O — the only server-side framed stream — and
//! the one non-blocking read loop every framed stream, peer links
//! included, drains with.
//!
//! A [`Framed`] is owned by exactly one thread at a time: a control I/O
//! loop (`shadowfax-rpc`'s `io_loop`, which the RPC front end and the tier
//! daemon both run), or, after a HELLO, the dispatch thread the HELLO
//! named.  A dispatch thread serves an in-process sim pipe through the same
//! type.  Whoever owns it gets the same discipline: edge-triggered reads
//! bounded per pass ([`DRAIN_CHUNKS_PER_PASS`], [`FRAMES_PER_PASS`],
//! [`INPUT_BACKLOG_BYTES`]) so one firehose cannot hold a thread, and a
//! bounded outbound buffer flushed on write-readiness — a peer that stops
//! reading is dropped when its buffer exceeds [`OUTBOUND_BUDGET_BYTES`]
//! (counted in `rpc.conns.dropped_slow_reader`) without stalling its
//! siblings.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

use shadowfax_net::ByteStream;
use shadowfax_obs::{Counter, Gauge, MetricsRegistry};

use super::codec::{encode_frame, CodecError, FrameDecoder, WireMsg, MAX_FRAME_BYTES};

/// Why [`drain_socket`] stopped reading.
pub(crate) enum DrainStop {
    /// The stream has nothing more for now.
    WouldBlock,
    /// The peer hung up.
    Eof,
    /// The caller's bound said stop; the stream may hold more.
    Bound,
}

/// Reads a non-blocking `stream` into `decoder`, 64 KiB at a time, until
/// the stream would block, the peer hangs up, or `may_read` — asked
/// before every read with the decoder and the chunks read so far —
/// declines.  Bounds and the meaning of a transport error are the
/// caller's.
pub(crate) fn drain_socket(
    stream: &mut impl Read,
    decoder: &mut FrameDecoder,
    mut may_read: impl FnMut(&FrameDecoder, usize) -> bool,
) -> std::io::Result<DrainStop> {
    let mut chunk = [0u8; 64 * 1024];
    let mut chunks = 0usize;
    loop {
        if !may_read(decoder, chunks) {
            return Ok(DrainStop::Bound);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(DrainStop::Eof),
            Ok(n) => {
                decoder.extend(&chunk[..n]);
                chunks += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(DrainStop::WouldBlock),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Per-process TCP connection observability (`rpc.conns.*`), shared by the
/// control I/O loops and the dispatch threads serving adopted
/// connections.  Visible via `shadowfax-cli metrics --ns rpc`.
#[derive(Clone)]
pub struct ConnMetrics {
    /// Connections currently open, wherever they are served.
    open: Gauge,
    /// Connections ever accepted.
    pub accepted: Counter,
    /// Connections dropped because the peer hung up or the transport
    /// failed.
    pub dropped_dead: Counter,
    /// Connections dropped because the peer stopped reading and its
    /// outbound budget ran out.
    dropped_slow_reader: Counter,
    /// High-water mark of any single connection's outbound buffer, in
    /// bytes the socket would not take.
    outbuf_hwm_bytes: Gauge,
}

impl ConnMetrics {
    /// Registers (or re-adopts) the `rpc.conns.*` instruments.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        ConnMetrics {
            open: metrics.gauge("rpc.conns.open"),
            accepted: metrics.counter("rpc.conns.accepted"),
            dropped_dead: metrics.counter("rpc.conns.dropped_dead"),
            dropped_slow_reader: metrics.counter("rpc.conns.dropped_slow_reader"),
            outbuf_hwm_bytes: metrics.gauge("rpc.conns.outbuf_hwm_bytes"),
        }
    }

    /// Raises the outbound high-water gauge to `bytes` if it grew.
    /// Racy across threads in the way gauges are; the high-water mark is
    /// advisory, not an invariant.
    fn note_outbuf(&self, bytes: u64) {
        if bytes > self.outbuf_hwm_bytes.value() {
            self.outbuf_hwm_bytes.set(bytes);
        }
    }
}

/// Keeps `rpc.conns.open` and the drop counters right for one connection
/// across whichever thread (or link type) ends up owning it: counted open
/// on creation, counted dropped — by cause — when the owner lets go.  An
/// in-process pipe is not counted (`conns` is `None`).
pub(crate) struct ConnGuard {
    conns: Option<ConnMetrics>,
    pub(crate) slow_reader: bool,
}

impl ConnGuard {
    pub(crate) fn new(conns: Option<ConnMetrics>) -> Self {
        if let Some(conns) = &conns {
            conns.open.add(1);
        }
        ConnGuard {
            conns,
            slow_reader: false,
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let Some(conns) = &self.conns else { return };
        conns.open.sub(1);
        if self.slow_reader {
            conns.dropped_slow_reader.inc();
        } else {
            conns.dropped_dead.inc();
        }
    }
}

/// Outbound-buffer budget per connection.  A reply queue growing past
/// this means the client has stopped reading (the kernel socket buffer is
/// already full underneath it): the connection is dropped and counted in
/// `rpc.conns.dropped_slow_reader`.  Must exceed [`MAX_FRAME_BYTES`] so one
/// maximum-size reply can always be queued.
pub const OUTBOUND_BUDGET_BYTES: usize = 2 * MAX_FRAME_BYTES;

/// Most 64 KiB read chunks one connection may drain per service pass.
/// Bounds how long a single firehose connection can hold its thread
/// inside `begin_pass`; `read_pending` carries the rest to the next
/// pass.
const DRAIN_CHUNKS_PER_PASS: usize = 8;

/// Most frames one connection may have handled per service pass.  A
/// connection that buffers thousands of tiny requests (a metrics
/// flooder, or a client keeping its pipeline full) would otherwise
/// monopolize the thread for the whole backlog while siblings wait;
/// `frames_pending` keeps it scheduled so the backlog drains round-robin
/// instead.
pub(crate) const FRAMES_PER_PASS: usize = 256;

/// Decoder-backlog ceiling: stop reading a socket whose buffered input
/// already exceeds this *and* holds at least one decodable frame.  Flow
/// control then happens in the kernel (the peer's writes block) instead
/// of in our memory.  The decodable-frame condition matters: a single
/// legitimate frame may be far larger than this ceiling, and gating on
/// raw bytes alone would stop reading mid-frame — a frame that can then
/// never complete (the backlog *is* the partial frame), wedging the
/// connection until the peer's write budget kills it.
pub(crate) const INPUT_BACKLOG_BYTES: usize = 1024 * 1024;

/// One served connection's framed I/O: bounded reads into a frame
/// decoder, a bounded outbound buffer.
pub struct Framed {
    /// The socket or sim pipe.
    pub(crate) stream: Box<dyn ByteStream>,
    pub(crate) decoder: FrameDecoder,
    /// The peer hung up (or the stream failed).
    pub eof: bool,
    /// The transport failed or the outbound budget ran out.
    pub dead: bool,
    /// Bytes queued toward the stream, flushed on write-readiness.
    pub out: VecDeque<u8>,
    /// `begin_pass` stopped at its per-pass bound before the socket ran
    /// dry.  Edge-triggered epoll will not re-announce the leftover bytes,
    /// so the owner must run another pass.
    read_pending: bool,
    /// `next_frame` stopped at its per-pass bound with (possibly) more
    /// complete frames still buffered.
    frames_pending: bool,
    /// Frames handed out this pass.
    handled: usize,
    pub(crate) guard: ConnGuard,
}

impl Framed {
    /// Frames `stream`, accepting frames up to `max_frame` bytes; a TCP
    /// connection is accounted in `conns`.
    pub fn new(stream: Box<dyn ByteStream>, max_frame: usize, conns: Option<ConnMetrics>) -> Self {
        Framed {
            stream,
            decoder: FrameDecoder::new(max_frame),
            eof: false,
            dead: false,
            out: VecDeque::new(),
            read_pending: false,
            frames_pending: false,
            handled: 0,
            guard: ConnGuard::new(conns),
        }
    }

    /// Starts a service pass: reads whatever the socket has without
    /// blocking, bounded (`DRAIN_CHUNKS_PER_PASS` chunks, and nothing while
    /// the decoder holds over `INPUT_BACKLOG_BYTES` of already-decodable
    /// frames) so one firehose cannot hold the thread.
    pub fn begin_pass(&mut self) {
        self.handled = 0;
        self.frames_pending = false;
        self.read_pending = false;
        if self.eof {
            return;
        }
        let stop = drain_socket(&mut self.stream, &mut self.decoder, |decoder, chunks| {
            let over_backlog =
                decoder.buffered() > INPUT_BACKLOG_BYTES && decoder.has_complete_frame();
            !over_backlog && chunks < DRAIN_CHUNKS_PER_PASS
        });
        match stop {
            Ok(DrainStop::WouldBlock) => {}
            Ok(DrainStop::Bound) => self.read_pending = true,
            Ok(DrainStop::Eof) | Err(_) => self.eof = true,
        }
    }

    /// The next buffered frame of this pass; `Ok(None)` when none is
    /// complete or `FRAMES_PER_PASS` have been handed out already.
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, CodecError> {
        if self.handled == FRAMES_PER_PASS {
            self.frames_pending = true;
            return Ok(None);
        }
        let msg = self.decoder.next_msg()?;
        self.handled += msg.is_some() as usize;
        Ok(msg)
    }

    /// A per-pass bound left input behind: another pass is owed.
    pub fn has_deferred_input(&self) -> bool {
        self.read_pending || self.frames_pending
    }

    /// The peer hung up, its backlog is handled and nothing is left to
    /// flush toward it.
    pub fn finished(&self) -> bool {
        self.eof && !self.frames_pending && self.out.is_empty()
    }

    /// Queues one frame.  A queue past the budget even after a flush means
    /// the peer stopped reading: the connection is marked dead.
    pub fn queue(&mut self, msg: &WireMsg) {
        if self.dead {
            return;
        }
        self.out.extend(encode_frame(msg));
        if self.out.len() > OUTBOUND_BUDGET_BYTES {
            self.flush_out();
            if self.out.len() > OUTBOUND_BUDGET_BYTES {
                self.guard.slow_reader = true;
                self.dead = true;
            }
        }
    }

    /// Writes buffered output until the socket would block.
    pub fn flush_out(&mut self) {
        while !self.out.is_empty() && !self.dead {
            let (front, _) = self.out.as_slices();
            match self.stream.write(front) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if let Some(conns) = &self.guard.conns {
            conns.note_outbuf(self.out.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax_net::{Connection, KvRequest, RequestBatch, SimNetwork};

    /// A served sim pipe, and the client's end of it.
    fn pipe() -> (Connection, Framed) {
        let net = SimNetwork::new();
        let listener = net.listen("srv");
        let client = net.connect("srv").unwrap();
        let served = listener.try_accept().unwrap();
        (client, Framed::new(Box::new(served), MAX_FRAME_BYTES, None))
    }

    fn batch(seq: u64, value_bytes: usize) -> WireMsg {
        let value = vec![7u8; value_bytes];
        let ops = vec![KvRequest::Upsert { key: seq, value }];
        WireMsg::Batch(RequestBatch { view: 1, seq, ops })
    }

    /// One service pass: every frame it hands out.
    fn pass(io: &mut Framed) -> Vec<WireMsg> {
        io.begin_pass();
        std::iter::from_fn(|| io.next_frame().unwrap()).collect()
    }

    #[test]
    fn frames_written_one_byte_at_a_time_each_decode_exactly_once() {
        let (mut client, mut io) = pipe();
        for seq in 0..3 {
            let frame = encode_frame(&batch(seq, 5));
            for (i, byte) in frame.iter().enumerate() {
                client.write_all(&[*byte]).unwrap();
                let got = pass(&mut io);
                if i + 1 < frame.len() {
                    assert!(got.is_empty(), "frame {seq} decoded at byte {i}");
                } else {
                    assert_eq!(got, vec![batch(seq, 5)]);
                }
            }
        }
        assert!(pass(&mut io).is_empty());
        assert!(!io.has_deferred_input());
    }

    #[test]
    fn each_pass_hands_out_at_most_its_bound_and_defers_the_rest() {
        let (mut client, mut io) = pipe();
        let queued = 2_000;
        for seq in 0..queued as u64 {
            client.write_all(&encode_frame(&batch(seq, 0))).unwrap();
        }
        let mut served = 0;
        while served < queued {
            let got = pass(&mut io).len();
            assert_eq!(got, FRAMES_PER_PASS.min(queued - served));
            served += got;
            // Input left behind must keep the owner from blocking.
            assert_eq!(io.has_deferred_input(), served < queued);
        }
    }

    #[test]
    fn a_frame_larger_than_the_backlog_ceiling_completes_over_several_passes() {
        let (mut client, mut io) = pipe();
        let big = batch(1, 3 * INPUT_BACKLOG_BYTES);
        client.write_all(&encode_frame(&big)).unwrap();
        client.write_all(&encode_frame(&batch(2, 0))).unwrap();
        let mut passes = 0;
        let got = loop {
            passes += 1;
            let got = pass(&mut io);
            if !got.is_empty() {
                break got;
            }
            // Mid-frame, the owner is told to come back: no readiness
            // event will announce bytes a bound left in the stream.
            assert!(
                io.has_deferred_input(),
                "stalled mid-frame at pass {passes}"
            );
            assert!(passes < 16, "the frame never completed");
        };
        assert!(passes > 1, "a bound should split a 3 MiB frame");
        assert_eq!(got, vec![big, batch(2, 0)]);
    }

    #[test]
    fn finished_only_after_the_backlog_is_handled() {
        let (mut client, mut io) = pipe();
        let queued = FRAMES_PER_PASS + 10;
        for seq in 0..queued as u64 {
            client.write_all(&encode_frame(&batch(seq, 0))).unwrap();
        }
        drop(client);
        assert_eq!(pass(&mut io).len(), FRAMES_PER_PASS);
        assert!(io.eof, "the whole stream was read in one pass");
        assert!(!io.finished(), "finished with a backlog left");
        assert_eq!(pass(&mut io).len(), 10);
        assert!(io.finished());
    }
}
