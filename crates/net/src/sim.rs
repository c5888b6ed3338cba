//! The simulated transport (see `transport` for the stream seam):
//! in-process byte pipes between client threads and server threads.
//!
//! A [`SimNetwork`] plays the role of the cloud fabric.  Server threads
//! register listeners under string addresses (e.g. `"sv0/t3"`), clients
//! connect to those addresses, and each side gets a [`Connection`]: one end
//! of a non-blocking byte pipe that reads and writes like a socket, so the
//! codec and framing that run over TCP run over it unchanged.  The fabric
//! is zero-cost: a write is readable as soon as it returns, a pipe has no
//! capacity limit (a write never blocks), and no clock is read.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Called after a connection or a write has been published toward a
/// listener's owner, so an owner that blocks when idle (a dispatch thread
/// parked in its reactor) learns about it.  Must be cheap when the owner
/// is busy: it runs on every client write.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// One direction of a pipe.
#[derive(Default)]
struct Half {
    bytes: Mutex<VecDeque<u8>>,
    /// The writing end was dropped: once `bytes` is drained, reads see EOF.
    writer_gone: AtomicBool,
    /// The reading end was dropped: writes fail with `BrokenPipe`.
    reader_gone: AtomicBool,
}

/// One end of a bidirectional in-process byte pipe.
///
/// A read copies out what is buffered, returns `WouldBlock` when nothing
/// is, and returns `Ok(0)` once the peer end is dropped and everything it
/// wrote has been read.  A write toward a dropped peer fails with
/// `BrokenPipe`.
pub struct Connection {
    tx: Arc<Half>,
    rx: Arc<Half>,
    /// Wakes the peer's owner after each write (client ends of connections
    /// to a listener registered with [`SimNetwork::listen_with_waker`]).
    peer_waker: Option<Waker>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer_closed", &self.rx.writer_gone.load(Ordering::SeqCst))
            .finish()
    }
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Sampled before the buffer: a peer seen gone here has written
        // everything it ever will, so an empty buffer after it is the end.
        let peer_gone = self.rx.writer_gone.load(Ordering::SeqCst);
        let mut bytes = self.rx.bytes.lock();
        if bytes.is_empty() && !buf.is_empty() {
            return if peer_gone {
                Ok(0)
            } else {
                Err(ErrorKind::WouldBlock.into())
            };
        }
        bytes.read(buf)
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.tx.reader_gone.load(Ordering::SeqCst) {
            return Err(ErrorKind::BrokenPipe.into());
        }
        self.tx.bytes.lock().extend(buf);
        // Published first, then the wake: a parked owner either sees the
        // bytes on its pre-park re-check or is woken by this call.
        if let Some(wake) = &self.peer_waker {
            wake();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.tx.writer_gone.store(true, Ordering::SeqCst);
        self.rx.reader_gone.store(true, Ordering::SeqCst);
    }
}

/// A listener registered under an address; yields the server-side endpoint
/// of each accepted connection.
pub struct Listener {
    incoming: Receiver<Connection>,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Listener")
    }
}

impl Listener {
    /// Accepts one pending connection, if any.
    pub fn try_accept(&self) -> Option<Connection> {
        self.incoming.try_recv().ok()
    }

    /// Accepts every pending connection.
    pub fn accept_all(&self) -> Vec<Connection> {
        std::iter::from_fn(|| self.incoming.try_recv().ok()).collect()
    }
}

/// The in-process fabric: a registry of listeners by address.
pub struct SimNetwork {
    listeners: Mutex<HashMap<String, ListenerEntry>>,
}

struct ListenerEntry {
    accept_tx: Sender<Connection>,
    waker: Option<Waker>,
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("listeners", &self.listeners.lock().len())
            .finish()
    }
}

impl SimNetwork {
    /// Creates an empty fabric.
    pub fn new() -> Arc<Self> {
        Arc::new(SimNetwork {
            listeners: Mutex::new(HashMap::new()),
        })
    }

    /// Registers a listener at `addr`.  Panics if the address is taken.
    pub fn listen(&self, addr: &str) -> Listener {
        self.register(addr, None)
    }

    /// Registers a listener whose owner blocks when idle: `waker` runs after
    /// every connect to `addr` and after every write a client makes on a
    /// connection accepted from it.
    pub fn listen_with_waker(&self, addr: &str, waker: Waker) -> Listener {
        self.register(addr, Some(waker))
    }

    fn register(&self, addr: &str, waker: Option<Waker>) -> Listener {
        let (accept_tx, rx) = unbounded();
        let entry = ListenerEntry { accept_tx, waker };
        let prev = self.listeners.lock().insert(addr.to_string(), entry);
        assert!(prev.is_none(), "address {addr} already has a listener");
        Listener { incoming: rx }
    }

    /// Removes the listener at `addr` (server shutdown).
    pub fn unlisten(&self, addr: &str) {
        self.listeners.lock().remove(addr);
    }

    /// Connects to the listener at `addr`.
    pub fn connect(&self, addr: &str) -> Option<Connection> {
        let (accept_tx, waker) = {
            let listeners = self.listeners.lock();
            let entry = listeners.get(addr)?;
            (entry.accept_tx.clone(), entry.waker.clone())
        };
        let (c2s, s2c) = (Arc::new(Half::default()), Arc::new(Half::default()));
        let client_end = Connection {
            tx: Arc::clone(&c2s),
            rx: Arc::clone(&s2c),
            peer_waker: waker.clone(),
        };
        let server_end = Connection {
            tx: s2c,
            rx: c2s,
            peer_waker: None,
        };
        accept_tx.send(server_end).ok()?;
        if let Some(wake) = waker {
            wake();
        }
        Some(client_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Everything `conn` holds right now, or the error a read ended with.
    fn read_now(conn: &mut Connection) -> io::Result<Vec<u8>> {
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf)?;
        Ok(buf[..n].to_vec())
    }

    #[test]
    fn bytes_flow_both_ways_in_order() {
        let net = SimNetwork::new();
        let listener = net.listen("server-0/0");
        let mut client = net.connect("server-0/0").unwrap();
        let mut server = listener.try_accept().unwrap();

        client.write_all(b"ab").unwrap();
        client.write_all(b"cd").unwrap();
        assert_eq!(read_now(&mut server).unwrap(), b"abcd");
        let err = read_now(&mut server).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::WouldBlock,
            "empty pipe must not block"
        );

        server.write_all(b"xyz").unwrap();
        let mut two = [0u8; 2];
        assert_eq!(client.read(&mut two).unwrap(), 2);
        assert_eq!(&two, b"xy");
        assert_eq!(read_now(&mut client).unwrap(), b"z");
    }

    #[test]
    fn connect_to_unknown_address_fails() {
        let net = SimNetwork::new();
        assert!(net.connect("nowhere").is_none());
    }

    #[test]
    fn waker_runs_after_connect_and_after_each_client_write() {
        let net = SimNetwork::new();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        let listener = net.listen_with_waker(
            "s",
            Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let mut client = net.connect("s").unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "connect did not wake");
        // The connection is already published when the waker runs.
        let mut server = listener.try_accept().unwrap();
        client.write_all(&[1]).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 2, "write did not wake");
        assert_eq!(read_now(&mut server).unwrap(), [1]);
        // Replies flow toward the client, whose owner polls: no wake.
        server.write_all(&[2]).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_dropped_peer_is_eof_after_its_bytes_and_refuses_writes() {
        let net = SimNetwork::new();
        let listener = net.listen("s");
        let mut client = net.connect("s").unwrap();
        let mut server = listener.try_accept().unwrap();
        server.write_all(b"last").unwrap();
        drop(server);
        assert_eq!(read_now(&mut client).unwrap(), b"last");
        assert_eq!(read_now(&mut client).unwrap(), b"", "EOF after the drain");
        let err = client.write(&[1]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn duplicate_listener_panics() {
        let net = SimNetwork::new();
        let _a = net.listen("dup");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.listen("dup")));
        assert!(result.is_err());
    }

    #[test]
    fn unlisten_frees_address() {
        let net = SimNetwork::new();
        let _a = net.listen("addr");
        net.unlisten("addr");
        let _b = net.listen("addr");
    }

    #[test]
    fn cross_thread_echo() {
        let net = SimNetwork::new();
        let listener = net.listen("s");
        let net2 = Arc::clone(&net);
        let client_thread = std::thread::spawn(move || {
            let mut client = net2.connect("s").unwrap();
            for i in 0..100u8 {
                client.write_all(&[i]).unwrap();
            }
            let mut echoed = Vec::new();
            while echoed.len() < 100 {
                if let Ok(bytes) = read_now(&mut client) {
                    echoed.extend(bytes);
                }
            }
            echoed
        });
        let mut server = loop {
            if let Some(c) = listener.try_accept() {
                break c;
            }
        };
        let mut echoed = 0;
        while echoed < 100 {
            if let Ok(bytes) = read_now(&mut server) {
                server.write_all(&bytes).unwrap();
                echoed += bytes.len();
            }
        }
        assert_eq!(client_thread.join().unwrap(), (0..100).collect::<Vec<u8>>());
    }
}
