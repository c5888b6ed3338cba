//! The real-socket transport: [`TcpTransport`] opens [`TcpLink`]s that
//! implement `shadowfax_net::KvLink`, so a
//! [`ClientSession`](shadowfax_net::ClientSession) pipelines batches over
//! loopback/LAN TCP exactly as it does over the simulated fabric.
//!
//! Link addresses are `"<socket-addr>/<fabric-addr>"`, e.g.
//! `"127.0.0.1:4870/sv0/t1"`: the socket part names the serving process, the
//! fabric part names the dispatch thread inside it.  The first frame on a
//! data connection is a HELLO carrying the fabric part.
//!
//! Sockets run in non-blocking mode (the session API is non-blocking);
//! writes spin briefly on `WouldBlock`, which on loopback only happens when
//! the kernel buffer is momentarily full.

use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use shadowfax::{MigrationConnector, MigrationMsg, ServerId};
use shadowfax_net::{
    BatchReply, KvLink, MigrationLink, MigrationSendError, RequestBatch, StatusCode, Transport,
    TransportError,
};

use crate::codec::{encode_frame, CodecError, FrameDecoder, WireMsg, MAX_FRAME_BYTES};
use crate::framed::{drain_socket, ConnGuard, DrainStop, Framed};

/// Splits `"host:port/fabric/addr"` into the socket and fabric parts.
pub(crate) fn split_link_addr(addr: &str) -> Result<(&str, &str), TransportError> {
    match addr.split_once('/') {
        Some((sock, fabric)) if !sock.is_empty() && !fabric.is_empty() => Ok((sock, fabric)),
        _ => Err(TransportError::Malformed(format!(
            "link address {addr:?} is not of the form <socket-addr>/<fabric-addr>"
        ))),
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

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
pub(crate) fn write_all_nonblocking(
    stream: &mut TcpStream,
    bytes: &[u8],
    budget: Duration,
) -> Result<(), TransportError> {
    let deadline = std::time::Instant::now() + budget;
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(TransportError::PeerClosed),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if std::time::Instant::now() >= deadline {
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
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

/// A transport that opens real TCP connections to a serving process.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Per-frame size limit enforced on received frames.
    pub max_frame: usize,
    /// Dial timeout.
    pub connect_timeout: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            max_frame: MAX_FRAME_BYTES,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

impl TcpTransport {
    /// Opens a concrete [`TcpLink`] (the trait method boxes it).
    pub fn connect_tcp(&self, addr: &str) -> Result<TcpLink, TransportError> {
        let (sock, fabric) = split_link_addr(addr)?;
        let target = sock
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| TransportError::Malformed(format!("unresolvable address {sock:?}")))?;
        let mut stream =
            TcpStream::connect_timeout(&target, self.connect_timeout).map_err(|e| {
                if e.kind() == ErrorKind::ConnectionRefused {
                    TransportError::ConnectionRefused {
                        addr: addr.to_string(),
                    }
                } else {
                    io_err(e)
                }
            })?;
        stream.set_nodelay(true).map_err(io_err)?;
        // The HELLO goes out while the socket is still blocking, then the
        // link switches to the non-blocking regime the session API expects.
        stream
            .write_all(&encode_frame(&WireMsg::Hello {
                fabric_addr: fabric.to_string(),
            }))
            .map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        let reader = stream.try_clone().map_err(io_err)?;
        Ok(TcpLink {
            writer: Mutex::new(stream),
            reader: Mutex::new(ReadState {
                stream: reader,
                decoder: FrameDecoder::new(self.max_frame),
                eof: false,
            }),
            open: AtomicBool::new(true),
            label: addr.to_string(),
        })
    }
}

impl TcpTransport {
    /// Opens a dedicated migration connection to the serving process at
    /// `sock_addr`, bound (by its MIG_HELLO frame) to dispatch thread
    /// `thread` of logical server `server` inside that process.
    pub fn connect_migration(
        &self,
        sock_addr: &str,
        server: u32,
        thread: u32,
    ) -> Result<TcpMigrationLink, TransportError> {
        let target = sock_addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| {
                TransportError::Malformed(format!("unresolvable address {sock_addr:?}"))
            })?;
        let mut stream =
            TcpStream::connect_timeout(&target, self.connect_timeout).map_err(|e| {
                if e.kind() == ErrorKind::ConnectionRefused {
                    TransportError::ConnectionRefused {
                        addr: sock_addr.to_string(),
                    }
                } else {
                    io_err(e)
                }
            })?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .write_all(&encode_frame(&WireMsg::MigHello { server, thread }))
            .map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        let reader = stream.try_clone().map_err(io_err)?;
        Ok(TcpMigrationLink {
            writer: Mutex::new(stream),
            reader: Mutex::new(ReadState {
                stream: reader,
                decoder: FrameDecoder::new(self.max_frame),
                eof: false,
            }),
            open: AtomicBool::new(true),
            label: format!("{sock_addr}/sv{server}/m{thread}"),
            _guard: None,
        })
    }
}

/// The production migration routing rule: every peer is another serving
/// process, dialled at its registered socket address.
impl MigrationConnector for TcpTransport {
    fn connect_migration(
        &self,
        address: &str,
        server: ServerId,
        thread: usize,
    ) -> Option<Box<dyn MigrationLink<MigrationMsg>>> {
        TcpTransport::connect_migration(self, address, server.0, thread as u32)
            .ok()
            .map(|link| Box::new(link) as Box<dyn MigrationLink<MigrationMsg>>)
    }
}

impl Transport for TcpTransport {
    fn connect_link(&self, addr: &str) -> Result<Box<dyn KvLink>, TransportError> {
        Ok(Box::new(self.connect_tcp(addr)?))
    }

    fn transport_name(&self) -> &'static str {
        "tcp"
    }
}

/// The read half of a link: the socket drained, without blocking, into a
/// frame decoder.
struct ReadState {
    stream: TcpStream,
    decoder: FrameDecoder,
    eof: bool,
}

impl ReadState {
    /// Reads whatever the socket holds.  A reset counts as the peer
    /// hanging up: frames that arrived before it are still delivered.
    fn fill(&mut self) -> Result<(), TransportError> {
        if self.eof {
            return Ok(());
        }
        match drain_socket(&mut self.stream, &mut self.decoder, |_, _| true) {
            Ok(DrainStop::Eof) => self.eof = true,
            Ok(_) => {}
            Err(e)
                if e.kind() == ErrorKind::ConnectionReset || e.kind() == ErrorKind::BrokenPipe =>
            {
                self.eof = true
            }
            Err(e) => return Err(io_err(e)),
        }
        Ok(())
    }
}

/// One TCP connection from a client session to a server dispatch thread.
pub struct TcpLink {
    writer: Mutex<TcpStream>,
    reader: Mutex<ReadState>,
    open: AtomicBool,
    label: String,
}

impl std::fmt::Debug for TcpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpLink")
            .field("peer", &self.label)
            .field("open", &self.open.load(Ordering::Relaxed))
            .finish()
    }
}

impl TcpLink {
    fn fail(&self, e: TransportError) -> TransportError {
        self.open.store(false, Ordering::Relaxed);
        e
    }
}

impl KvLink for TcpLink {
    fn send_batch(&self, batch: RequestBatch) -> Result<(), TransportError> {
        if !self.open.load(Ordering::Relaxed) {
            return Err(TransportError::PeerClosed);
        }
        let frame = encode_frame(&WireMsg::Batch(batch));
        let mut stream = self.writer.lock();
        write_all_nonblocking(&mut stream, &frame, Duration::from_secs(30))
            .map_err(|e| self.fail(e))
    }

    fn try_recv_reply(&self) -> Result<Option<BatchReply>, TransportError> {
        let mut state = self.reader.lock();
        state.fill().map_err(|e| self.fail(e))?;
        // Surface at most one decoded message per call (the session loops).
        match state
            .decoder
            .next_msg()
            .map_err(|e| self.fail(codec_err(e)))?
        {
            Some(WireMsg::Reply(reply)) => return Ok(Some(reply)),
            Some(WireMsg::CtrlErr { status, message }) => {
                let err = match status {
                    StatusCode::Oversized => {
                        TransportError::Malformed(format!("peer rejected a frame: {message}"))
                    }
                    StatusCode::UnknownAddress => TransportError::ConnectionRefused {
                        addr: self.label.clone(),
                    },
                    _ => TransportError::Malformed(message),
                };
                return Err(self.fail(err));
            }
            Some(other) => {
                return Err(self.fail(TransportError::Malformed(format!(
                    "unexpected frame on a data connection: {other:?}"
                ))))
            }
            None => {}
        }
        if state.eof && state.decoder.buffered() == 0 {
            return Err(self.fail(TransportError::PeerClosed));
        }
        Ok(None)
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    fn peer_label(&self) -> String {
        format!("tcp:{}", self.label)
    }
}

/// One dedicated TCP migration connection between two serving processes.
///
/// Carries [`WireMsg::Migration`] frames in both directions; the core
/// migration state machines drive it through the
/// [`MigrationLink`](shadowfax_net::MigrationLink) trait exactly as they
/// drive in-process fabric connections.
pub struct TcpMigrationLink {
    writer: Mutex<TcpStream>,
    reader: Mutex<ReadState>,
    open: AtomicBool,
    label: String,
    /// Accepted links keep the front end's `rpc.conns.*` accounting alive.
    _guard: Option<ConnGuard>,
}

impl std::fmt::Debug for TcpMigrationLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMigrationLink")
            .field("peer", &self.label)
            .field("open", &self.open.load(Ordering::Relaxed))
            .finish()
    }
}

impl TcpMigrationLink {
    /// The accepting end: wraps a connection whose MIG_HELLO the front end
    /// already consumed (its decoder holds whatever arrived behind it), for
    /// the dispatch thread that adopts it.
    pub(crate) fn from_accepted(io: Framed, label: String) -> std::io::Result<Self> {
        let Framed {
            stream,
            decoder,
            guard,
            ..
        } = io;
        let reader = stream.try_clone()?;
        Ok(TcpMigrationLink {
            writer: Mutex::new(stream),
            reader: Mutex::new(ReadState {
                stream: reader,
                decoder,
                eof: false,
            }),
            open: AtomicBool::new(true),
            label,
            _guard: Some(guard),
        })
    }

    fn fail(&self, e: TransportError) -> TransportError {
        self.open.store(false, Ordering::Relaxed);
        e
    }
}

impl MigrationLink<MigrationMsg> for TcpMigrationLink {
    fn send_msg(&self, msg: MigrationMsg) -> Result<(), MigrationSendError<MigrationMsg>> {
        if !self.open.load(Ordering::Relaxed) {
            return Err(MigrationSendError {
                error: TransportError::PeerClosed,
                msg: Some(msg),
            });
        }
        let wire = WireMsg::Migration(msg);
        let frame = encode_frame(&wire);
        let mut stream = self.writer.lock();
        // A short budget: this is called from dispatch threads that also
        // serve client traffic, so a stalled target must not wedge them.
        // On failure the link is dead (a partial frame may be on the wire,
        // so it must never be reused) and the message is handed back for
        // the caller to retry on another link.
        match write_all_nonblocking(&mut stream, &frame, Duration::from_secs(5)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let error = self.fail(e);
                let WireMsg::Migration(msg) = wire else {
                    unreachable!("wire frame was built as Migration above")
                };
                Err(MigrationSendError {
                    error,
                    msg: Some(msg),
                })
            }
        }
    }

    fn try_recv_msg(&self) -> Result<Option<MigrationMsg>, TransportError> {
        let mut state = self.reader.lock();
        state.fill().map_err(|e| self.fail(e))?;
        match state
            .decoder
            .next_msg()
            .map_err(|e| self.fail(codec_err(e)))?
        {
            Some(WireMsg::Migration(msg)) => return Ok(Some(msg)),
            Some(WireMsg::CtrlErr { message, .. }) => {
                return Err(self.fail(TransportError::Malformed(format!(
                    "peer rejected a migration frame: {message}"
                ))));
            }
            Some(other) => {
                return Err(self.fail(TransportError::Malformed(format!(
                    "unexpected frame on a migration connection: {other:?}"
                ))))
            }
            None => {}
        }
        // After EOF a partial frame can never complete.
        if state.eof {
            return Err(self.fail(TransportError::PeerClosed));
        }
        Ok(None)
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    fn peer_label(&self) -> String {
        format!("tcp:{}", self.label)
    }

    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.writer.lock().as_raw_fd())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    #[test]
    fn link_addr_splitting() {
        let (sock, fabric) = split_link_addr("127.0.0.1:4870/sv0/t1").unwrap();
        assert_eq!(sock, "127.0.0.1:4870");
        assert_eq!(fabric, "sv0/t1");
        assert!(split_link_addr("no-slash").is_err());
        assert!(split_link_addr("/sv0").is_err());
        assert!(split_link_addr("1.2.3.4:1/").is_err());
    }

    #[test]
    fn connect_to_dead_port_is_refused() {
        let transport = TcpTransport {
            connect_timeout: Duration::from_millis(500),
            ..TcpTransport::default()
        };
        // Bind-then-drop to find a port with nothing listening.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = transport
            .connect_tcp(&format!("127.0.0.1:{port}/sv0/t0"))
            .unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::ConnectionRefused { .. } | TransportError::Io(_)
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn hello_then_batches_flow_and_replies_return() {
        use shadowfax_net::KvRequest;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
            let mut chunk = [0u8; 4096];
            let mut hello = None;
            let mut served = 0usize;
            while served < 2 {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up early");
                decoder.extend(&chunk[..n]);
                while let Some(msg) = decoder.next_msg().unwrap() {
                    match msg {
                        WireMsg::Hello { fabric_addr } => hello = Some(fabric_addr),
                        WireMsg::Batch(batch) => {
                            let reply = BatchReply::Rejected {
                                seq: batch.seq,
                                server_view: 99,
                            };
                            stream
                                .write_all(&encode_frame(&WireMsg::Reply(reply)))
                                .unwrap();
                            served += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            hello.expect("no hello observed")
        });

        let transport = TcpTransport::default();
        let link = transport.connect_tcp(&format!("{addr}/sv7/t0")).unwrap();
        for seq in 1..=2 {
            link.send_batch(RequestBatch {
                view: 1,
                seq,
                ops: vec![KvRequest::Read { key: seq }],
            })
            .unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 2 && Instant::now() < deadline {
            if let Some(reply) = link.try_recv_reply().unwrap() {
                got.push(reply.seq());
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(server.join().unwrap(), "sv7/t0");
    }

    #[test]
    fn server_hangup_surfaces_as_peer_closed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let transport = TcpTransport::default();
        let link = transport.connect_tcp(&format!("{addr}/sv0/t0")).unwrap();
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match link.try_recv_reply() {
                Err(TransportError::PeerClosed) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("expected PeerClosed, got {other:?}"),
            }
        }
        assert!(!link.is_open());
    }
}
