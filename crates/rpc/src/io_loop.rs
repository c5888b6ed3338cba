//! The control I/O loop: one readiness-driven loop over a listening socket
//! and the [`Framed`] connections it accepts, parameterised by what to do
//! with one decoded frame.
//!
//! `RpcServer` runs `io_threads` copies of it (the handler answers control
//! frames and hands HELLO / MIG_HELLO sockets to dispatch threads); the
//! tier daemon runs one (the handler is its `answer`).  Every copy has its
//! own epoll [`Reactor`] with the listener registered in it and accepts
//! inline until `WouldBlock`, so there is no acceptor thread and no
//! cross-thread hand-over of fresh sockets.  Connections register
//! edge-triggered read interest; the loop services only connections with
//! something to do (a readiness event, input a per-pass bound deferred)
//! and otherwise blocks in `epoll_wait`, so idle connections cost no CPU.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use shadowfax::wire::{ConnMetrics, Framed, WireMsg};
use shadowfax_net::{Interest, Reactor, StatusCode, Token};
use shadowfax_obs::MetricsRegistry;

/// How a dispatch thread takes a socket over from the loop.
pub(crate) type Adopt = Box<dyn FnOnce(Framed) + Send>;

/// What serving one decoded frame produced.
pub(crate) enum Served {
    /// An answer for the peer; the connection stays.
    Reply(WireMsg),
    /// A typed error for the peer, after which the connection closes.
    Fail(StatusCode, String),
    /// The frame named a dispatch thread: the socket — with whatever is
    /// buffered behind that frame — leaves the loop for the new owner.
    HandOff(Adopt),
}

/// The listener's fixed epoll token.  Connection tokens carry a slab
/// index in their low 32 bits, so this one (short of the reactor's
/// reserved wakeup token) would take four billion slots to collide with.
const LISTENER_TOKEN: Token = Token(u64::MAX - 1);

/// One connection in a loop's slab.
struct Conn {
    io: Framed,
    /// The socket under `io`, as registered with the reactor.
    fd: RawFd,
    /// Whether the reactor registration currently includes write
    /// interest (kept in sync with `io.out` by the loop).
    wants_write: bool,
    /// On the loop's active-service list.
    in_active: bool,
}

impl Conn {
    fn send(&mut self, msg: &WireMsg) {
        // Queue and opportunistically flush; the loop finishes the job on
        // write-readiness.  A client that stops reading exhausts its
        // bounded budget and is dropped — without ever stalling the loop.
        self.io.queue(msg);
        self.io.flush_out();
    }

    fn fail(&mut self, status: StatusCode, message: String) {
        self.send(&WireMsg::CtrlErr { status, message });
        self.io.dead = true;
    }

    /// Decodes and serves buffered frames, at most `FRAMES_PER_PASS` per
    /// call so a backlogged connection shares the thread fairly.  Returns
    /// the new owner's adoption when a frame handed the socket off; frames
    /// behind that one stay in the decoder for the adopting thread.
    fn serve_frames(&mut self, serve: &impl Fn(WireMsg) -> Served) -> Option<Adopt> {
        while !self.io.dead {
            let msg = match self.io.next_frame() {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                // The decoder cannot resynchronise after garbage.
                Err(e) => {
                    self.fail(e.status_code(), e.to_string());
                    break;
                }
            };
            match serve(msg) {
                Served::Reply(reply) => self.send(&reply),
                Served::Fail(status, message) => self.fail(status, message),
                Served::HandOff(adopt) => return Some(adopt),
            }
        }
        None
    }
}

/// One slot of a loop's connection slab.  The generation is folded into
/// the epoll token so a readiness event for a closed connection can never
/// touch the slot's next tenant.
struct ConnSlot {
    gen: u32,
    conn: Option<Conn>,
}

/// The threads serving one listener, each running [`run`] on a reactor of
/// its own.
pub(crate) struct IoLoops {
    shutdown: Arc<AtomicBool>,
    /// Every loop's reactor, woken at shutdown so blocked `epoll_wait`
    /// calls notice the flag.
    reactors: Vec<Arc<Reactor>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
}

impl IoLoops {
    /// Starts `threads` loops (named by `name`) accepting from `listener`
    /// and answering each decoded frame with `serve`; connections are
    /// accounted under `rpc.conns.*` in `metrics`.
    pub(crate) fn spawn(
        listener: TcpListener,
        threads: usize,
        name: impl Fn(usize) -> String,
        max_frame: usize,
        metrics: &MetricsRegistry,
        serve: impl Fn(WireMsg) -> Served + Send + Sync + 'static,
    ) -> std::io::Result<IoLoops> {
        listener.set_nonblocking(true)?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = ConnMetrics::new(metrics);
        let serve = Arc::new(serve);
        // Reactors are created (and the listener registered) here so fd
        // exhaustion surfaces from the caller's `serve` instead of inside
        // a thread.
        let mut reactors = Vec::with_capacity(threads);
        for _ in 0..threads {
            let reactor = Arc::new(Reactor::new()?);
            reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
            reactors.push(reactor);
        }
        let joins = reactors
            .iter()
            .enumerate()
            .map(|(t, reactor)| {
                let reactor = Arc::clone(reactor);
                let listener = Arc::clone(&listener);
                let shutdown = Arc::clone(&shutdown);
                let conns = conns.clone();
                let serve = Arc::clone(&serve);
                std::thread::Builder::new()
                    .name(name(t))
                    .spawn(move || run(&reactor, &listener, &shutdown, max_frame, conns, &*serve))
                    .expect("failed to spawn control i/o thread")
            })
            .collect();
        Ok(IoLoops {
            shutdown,
            reactors,
            joins: Mutex::new(joins),
        })
    }

    /// Stops every loop (waking it out of `epoll_wait`) and joins it; the
    /// connections the loops still hold close with them.  Idempotent.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for reactor in &self.reactors {
            reactor.wake();
        }
        for join in self.joins.lock().expect("i/o loop joins").drain(..) {
            let _ = join.join();
        }
    }
}

/// Accepts until `WouldBlock` (the listener is edge-triggered), handing
/// each fresh socket to `adopt`.
fn accept_ready(listener: &TcpListener, conns: &ConnMetrics, mut adopt: impl FnMut(TcpStream)) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.accepted.inc();
                let _ = stream.set_nodelay(true);
                // A socket left blocking would wedge the loop: drop it.
                if stream.set_nonblocking(true).is_ok() {
                    adopt(stream);
                } else {
                    conns.dropped_dead.inc();
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // `WouldBlock`, or a transient accept error (EMFILE under fd
            // pressure, an aborted handshake): back to `epoll_wait`; the
            // next connection's edge retries whatever is still queued.
            Err(_) => return,
        }
    }
}

/// One control I/O loop, until `shutdown` is set and the reactor woken.
fn run(
    reactor: &Reactor,
    listener: &TcpListener,
    shutdown: &AtomicBool,
    max_frame: usize,
    conn_metrics: ConnMetrics,
    serve: &impl Fn(WireMsg) -> Served,
) {
    let mut slots: Vec<ConnSlot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Indices of connections needing service this iteration.  Keeping
    // this list explicit is what makes the loop O(active), not
    // O(connections).
    let mut active: Vec<usize> = Vec::new();
    let mut events = Vec::new();

    while !shutdown.load(Ordering::SeqCst) {
        // Deferred input is the only work that arrives without an event.
        let timeout = (!active.is_empty()).then_some(Duration::ZERO);
        let _ = reactor.poll(&mut events, timeout);
        if shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Apply readiness transitions; the listener's is "accept".
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready(listener, &conn_metrics, |stream| {
                    let idx = free.pop().unwrap_or_else(|| {
                        slots.push(ConnSlot { gen: 0, conn: None });
                        slots.len() - 1
                    });
                    let token = Token::for_slot(idx as u32, slots[idx].gen);
                    let fd = stream.as_raw_fd();
                    if reactor.register(fd, token, Interest::READABLE).is_err() {
                        // Registration fails only under fd exhaustion; drop
                        // the connection rather than the thread.
                        conn_metrics.dropped_dead.inc();
                        free.push(idx);
                        return;
                    }
                    slots[idx].conn = Some(Conn {
                        io: Framed::new(Box::new(stream), max_frame, Some(conn_metrics.clone())),
                        fd,
                        wants_write: false,
                        in_active: true,
                    });
                    active.push(idx);
                });
                continue;
            }
            let (idx, gen) = ev.token.slot();
            let idx = idx as usize;
            let Some(slot) = slots.get_mut(idx) else {
                continue;
            };
            if slot.gen != gen {
                continue; // stale event for a previous tenant
            }
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            if ev.error {
                conn.io.eof = true;
            }
            if !conn.in_active {
                conn.in_active = true;
                active.push(idx);
            }
        }

        // Service the active set.
        let mut i = 0;
        while i < active.len() {
            let idx = active[i];
            let gen = slots[idx].gen;
            let Some(conn) = slots[idx].conn.as_mut() else {
                active.swap_remove(i);
                continue;
            };
            conn.io.begin_pass();
            let handoff = conn.serve_frames(serve);
            conn.io.flush_out();
            let gone = handoff.is_some() || conn.io.dead || conn.io.finished();
            if gone {
                let conn = slots[idx].conn.take().expect("checked Some above");
                let _ = reactor.deregister(conn.fd);
                slots[idx].gen = gen.wrapping_add(1);
                free.push(idx);
                active.swap_remove(i);
                if let Some(adopt) = handoff {
                    adopt(conn.io);
                }
                continue;
            }
            // Keep the epoll write interest in sync with buffered output.
            let want = !conn.io.out.is_empty();
            if want != conn.wants_write {
                conn.wants_write = want;
                let interest = if want {
                    Interest::READABLE_WRITABLE
                } else {
                    Interest::READABLE
                };
                if reactor
                    .reregister(conn.fd, Token::for_slot(idx as u32, gen), interest)
                    .is_err()
                {
                    conn.io.dead = true;
                    // Handled on the next service pass (stays active).
                    i += 1;
                    continue;
                }
            }
            if conn.io.has_deferred_input() {
                i += 1;
            } else {
                conn.in_active = false;
                active.swap_remove(i);
            }
        }
    }
}
