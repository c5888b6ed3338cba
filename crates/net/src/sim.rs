//! The simulated transport (see `transport` for the trait layer): in-process
//! connections between client threads and server threads.
//!
//! A [`SimNetwork`] plays the role of the cloud fabric.  Server threads
//! register listeners under string addresses (e.g. `"server-0/thread-3"`),
//! clients connect to those addresses, and each side gets a [`Connection`]
//! carrying typed messages.  The fabric is zero-cost: a message is
//! deliverable as soon as it is sent, and no clock is read.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Called after a connection or a message has been published toward a
/// listener's owner, so an owner that blocks when idle (a dispatch thread
/// parked in its reactor) learns about it.  Must be cheap when the owner
/// is busy: it runs on every client send.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// One endpoint of a bidirectional connection that sends messages of type `S`
/// and receives messages of type `R`.
pub struct Connection<S, R> {
    tx: Sender<S>,
    rx: Receiver<R>,
    peer_closed_marker: Arc<()>,
    /// Wakes the peer's owner after each send (client ends of connections
    /// to a listener registered with [`SimNetwork::listen_with_waker`]).
    peer_waker: Option<Waker>,
    /// Messages handed out in the current service pass, when a dispatch
    /// thread serves this end (`ServerKvLink`).
    pub(crate) served_this_pass: usize,
}

impl<S, R> std::fmt::Debug for Connection<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer_closed", &self.peer_closed())
            .finish()
    }
}

impl<S, R> Connection<S, R> {
    /// Sends `msg` to the peer.  Returns `false` if the peer end has been
    /// dropped.
    pub fn send(&self, msg: S) -> bool {
        self.try_send(msg).is_ok()
    }

    /// Like [`Connection::send`], but hands the message back if the peer end
    /// has been dropped, so the caller can retry or re-route it.
    pub fn try_send(&self, msg: S) -> Result<(), S> {
        self.tx.send(msg).map_err(|e| e.0)?;
        // Published first, then the wake: a parked owner either sees the
        // message on its pre-park re-check or is woken by this call.
        if let Some(wake) = &self.peer_waker {
            wake();
        }
        Ok(())
    }

    /// Receives one message, if one is waiting.
    pub fn try_recv(&self) -> Option<R> {
        self.rx.try_recv().ok()
    }

    /// Drains every waiting message.
    pub fn drain(&self) -> Vec<R> {
        let mut out = Vec::new();
        while let Some(m) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// `true` once the peer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        // Two strong references exist while both ends are alive (one per end).
        Arc::strong_count(&self.peer_closed_marker) < 2
    }
}

/// A listener registered under an address; yields the server-side endpoint of
/// each accepted connection.  The server-side endpoint sends `S2C` messages
/// and receives `C2S` messages.
pub struct Listener<C2S, S2C> {
    incoming: Receiver<Connection<S2C, C2S>>,
}

impl<C2S, S2C> std::fmt::Debug for Listener<C2S, S2C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Listener")
    }
}

impl<C2S, S2C> Listener<C2S, S2C> {
    /// Accepts one pending connection, if any.
    pub fn try_accept(&self) -> Option<Connection<S2C, C2S>> {
        self.incoming.try_recv().ok()
    }

    /// Accepts every pending connection.
    pub fn accept_all(&self) -> Vec<Connection<S2C, C2S>> {
        let mut out = Vec::new();
        while let Ok(c) = self.incoming.try_recv() {
            out.push(c);
        }
        out
    }
}

/// The in-process fabric: a registry of listeners by address.
///
/// `C2S` is the client-to-server message type, `S2C` the server-to-client
/// message type.
pub struct SimNetwork<C2S, S2C> {
    listeners: Mutex<HashMap<String, ListenerEntry<C2S, S2C>>>,
}

struct ListenerEntry<C2S, S2C> {
    accept_tx: Sender<Connection<S2C, C2S>>,
    waker: Option<Waker>,
}

impl<C2S, S2C> std::fmt::Debug for SimNetwork<C2S, S2C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("listeners", &self.listeners.lock().len())
            .finish()
    }
}

impl<C2S, S2C> SimNetwork<C2S, S2C> {
    /// Creates an empty fabric.
    pub fn new() -> Arc<Self> {
        Arc::new(SimNetwork {
            listeners: Mutex::new(HashMap::new()),
        })
    }

    /// Registers a listener at `addr`.  Panics if the address is taken.
    pub fn listen(&self, addr: &str) -> Listener<C2S, S2C> {
        self.register(addr, None)
    }

    /// Registers a listener whose owner blocks when idle: `waker` runs after
    /// every connect to `addr` and after every message a client sends on a
    /// connection accepted from it.
    pub fn listen_with_waker(&self, addr: &str, waker: Waker) -> Listener<C2S, S2C> {
        self.register(addr, Some(waker))
    }

    fn register(&self, addr: &str, waker: Option<Waker>) -> Listener<C2S, S2C> {
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
    pub fn connect(&self, addr: &str) -> Option<Connection<C2S, S2C>> {
        let (accept_tx, waker) = {
            let listeners = self.listeners.lock();
            let entry = listeners.get(addr)?;
            (entry.accept_tx.clone(), entry.waker.clone())
        };
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        let marker = Arc::new(());
        let client_end = Connection {
            tx: c2s_tx,
            rx: s2c_rx,
            peer_closed_marker: Arc::clone(&marker),
            peer_waker: waker.clone(),
            served_this_pass: 0,
        };
        let server_end = Connection {
            tx: s2c_tx,
            rx: c2s_rx,
            peer_closed_marker: marker,
            peer_waker: None,
            served_this_pass: 0,
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
    use crate::message::{KvRequest, RequestBatch};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn batch(seq: u64) -> RequestBatch {
        RequestBatch {
            view: 1,
            seq,
            ops: vec![KvRequest::Read { key: seq }],
        }
    }

    #[test]
    fn connect_and_exchange_messages() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let listener = net.listen("server-0/0");
        let client = net.connect("server-0/0").unwrap();
        let server = listener.try_accept().unwrap();

        assert!(client.send(batch(1)));
        assert!(client.send(batch(2)));
        let got = server.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 2);

        assert!(server.send(batch(3)));
        assert_eq!(client.try_recv().unwrap().seq, 3);
        assert!(client.try_recv().is_none());
    }

    #[test]
    fn connect_to_unknown_address_fails() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        assert!(net.connect("nowhere").is_none());
    }

    #[test]
    fn waker_runs_after_connect_and_after_each_client_send() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        let listener = net.listen_with_waker(
            "s",
            Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let client = net.connect("s").unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "connect did not wake");
        // The connection is already published when the waker runs.
        let server = listener.try_accept().unwrap();
        client.send(batch(1));
        assert_eq!(wakes.load(Ordering::SeqCst), 2, "send did not wake");
        assert_eq!(server.try_recv().unwrap().seq, 1);
        // Replies flow toward the client, whose owner polls: no wake.
        server.send(batch(2));
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn peer_closed_detection() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let listener = net.listen("s");
        let client = net.connect("s").unwrap();
        let server = listener.try_accept().unwrap();
        assert!(!client.peer_closed());
        drop(server);
        assert!(client.peer_closed());
        assert!(!client.send(batch(1)), "send to a closed peer should fail");
    }

    #[test]
    fn duplicate_listener_panics() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let _a = net.listen("dup");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.listen("dup")));
        assert!(result.is_err());
    }

    #[test]
    fn unlisten_frees_address() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let _a = net.listen("addr");
        net.unlisten("addr");
        let _b = net.listen("addr");
    }

    #[test]
    fn cross_thread_usage() {
        let net: Arc<SimNetwork<RequestBatch, RequestBatch>> = SimNetwork::new();
        let listener = net.listen("s");
        let net2 = Arc::clone(&net);
        let client_thread = std::thread::spawn(move || {
            let client = net2.connect("s").unwrap();
            for i in 0..100 {
                client.send(batch(i));
            }
            // Wait for 100 acks.
            let mut acks = 0;
            while acks < 100 {
                if client.try_recv().is_some() {
                    acks += 1;
                }
            }
            acks
        });
        let server = loop {
            if let Some(c) = listener.try_accept() {
                break c;
            }
        };
        let mut echoed = 0;
        while echoed < 100 {
            if let Some(m) = server.try_recv() {
                server.send(m);
                echoed += 1;
            }
        }
        assert_eq!(client_thread.join().unwrap(), 100);
    }
}
