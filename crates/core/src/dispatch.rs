//! What a dispatch thread owns besides its store session: the reactor it
//! parks in, the mailbox other threads reach it through, and the table of
//! connections it serves.
//!
//! A data-plane request touches exactly one thread (paper §3.1,
//! "partitioned sessions, shared data"): the dispatch thread reads its own
//! connections — TCP sockets the front end handed over and in-process sim
//! pipes alike, both through [`Framed`] — decodes, validates the view,
//! executes against the shared store, encodes and writes the reply on one
//! stack.  When a loop iteration finds
//! nothing to do, nothing is pended and the server holds no migration role,
//! the thread blocks in [`Reactor::poll`] instead of spinning, once it has
//! kept looking for `PASS_TICK` (in `server.rs`) after its last iteration
//! that found work.  After an iteration that served a socket it waits out
//! the rest of a tick on the CPU before it looks again: `PASS_TICK` after
//! a pipeline, the much shorter `SYNC_TICK` after a handful of operations.
//!
//! **Wake-ups.**  Everything that can give a parked thread work from
//! another thread publishes its state first and then calls
//! [`Mailbox::notify`]; the owner raises [`Mailbox::parked`] and looks for
//! work once more before it blocks.  Both sides use sequentially consistent
//! accesses, so either the notifier sees the flag (and signals the
//! reactor's eventfd, which is level-triggered and therefore also catches a
//! `poll` that has not started yet) or the owner's last look sees the
//! published state.  A notify to a busy thread costs one atomic load.

use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use shadowfax_net::{BatchReply, Event, Interest, Reactor, Token, Waker};
use shadowfax_obs::{Counter, Histogram, MetricsRegistry};

use crate::wire::{Framed, KvLatency, PeerLink, ServedKvLink};

/// How other threads reach one dispatch thread.
pub(crate) struct Mailbox {
    pub(crate) reactor: Reactor,
    /// Raised by the owner before its last look for work ahead of blocking,
    /// cleared when it resumes.
    parked: AtomicBool,
    /// Connections handed over by other threads, not yet in the owner's
    /// table.
    adopted: Mutex<Vec<Link>>,
}

impl Mailbox {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Mailbox {
            reactor: Reactor::new().expect("failed to create a dispatch thread's reactor"),
            parked: AtomicBool::new(false),
            adopted: Mutex::new(Vec::new()),
        })
    }

    /// Wakes the owner if it is parked (or about to park).  Call *after*
    /// publishing whatever the owner should find.
    pub(crate) fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) {
            self.reactor.wake();
        }
    }

    fn adopt(&self, link: Link) {
        self.adopted.lock().push(link);
        self.notify();
    }

    /// [`Mailbox::notify`] as the sim fabric's listener waker.
    pub(crate) fn waker(self: &Arc<Self>) -> Waker {
        let mailbox = Arc::clone(self);
        Arc::new(move || mailbox.notify())
    }

    pub(crate) fn set_parked(&self, parked: bool) {
        self.parked.store(parked, Ordering::SeqCst);
    }
}

/// Hands connections accepted elsewhere (the TCP front end's acceptor) to
/// one dispatch thread, which owns them from then on.
#[derive(Clone)]
pub struct DispatchHandle {
    pub(crate) mailbox: Arc<Mailbox>,
    pub(crate) lat: KvLatency,
}

impl std::fmt::Debug for DispatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DispatchHandle")
    }
}

impl DispatchHandle {
    /// Gives the thread a client data connection (with whatever input its
    /// decoder already buffered behind the HELLO).
    pub fn adopt_kv(&self, io: Framed) {
        let link = ServedKvLink::new(io, self.lat.clone());
        self.mailbox.adopt(Link::Kv(link));
    }

    /// Gives the thread an incoming migration connection from a peer
    /// serving process (with whatever followed its MIG_HELLO); `label`
    /// names the peer in diagnostics.
    pub fn adopt_migration(&self, io: Framed, label: String) {
        self.mailbox.adopt(Link::Mig(PeerLink::accepted(io, label)));
    }
}

/// `sv{id}.dispatch.*`: why and for how long dispatch threads sit idle.
#[derive(Clone)]
pub(crate) struct ParkInstruments {
    /// Times a thread blocked in its reactor.
    pub(crate) parks: Counter,
    /// Parks ended by socket readiness.
    pub(crate) wakes_socket: Counter,
    /// Parks ended by a [`Mailbox::notify`].
    pub(crate) wakes_signal: Counter,
    /// How long each park lasted.
    pub(crate) park_us: Histogram,
    /// Passes that found work and then waited out the rest of their tick.
    pub(crate) paced: Counter,
    /// Pended batches dropped because their connection went away.
    pub(crate) pended_dropped: Counter,
}

impl ParkInstruments {
    pub(crate) fn register(metrics: &MetricsRegistry, prefix: &str) -> Self {
        ParkInstruments {
            parks: metrics.counter(&format!("{prefix}.dispatch.parks")),
            wakes_socket: metrics.counter(&format!("{prefix}.dispatch.wakes_socket")),
            wakes_signal: metrics.counter(&format!("{prefix}.dispatch.wakes_signal")),
            park_us: metrics.histogram(&format!("{prefix}.dispatch.park_us")),
            paced: metrics.counter(&format!("{prefix}.dispatch.paced")),
            pended_dropped: metrics.counter(&format!("{prefix}.ops.pended_dropped")),
        }
    }
}

/// Names one connection of a [`ConnTable`].  The generation makes an id
/// held across iterations (by a pended batch) miss once the connection is
/// gone, instead of reaching the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnId {
    idx: u32,
    gen: u32,
}

pub(crate) enum Link {
    Kv(ServedKvLink),
    Mig(PeerLink),
}

impl Link {
    /// Input a per-pass bound left behind.  Only data connections are
    /// read through `Framed`'s bounds; a migration link drains its stream.
    fn has_deferred_input(&self) -> bool {
        matches!(self, Link::Kv(l) if l.has_deferred_input())
    }
}

pub(crate) struct Conn {
    pub(crate) link: Link,
    fd: Option<RawFd>,
    /// The reactor registration currently includes write interest.
    wants_write: bool,
    /// On the active list (socket-backed connections only).
    in_active: bool,
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// The connections one dispatch thread serves: a generation-counted slab,
/// the list of in-process pipes (polled every iteration, as they have no
/// readiness to wait for) and the list of socket-backed connections with
/// something to do, so a pass costs O(active) with thousands parked.
pub(crate) struct ConnTable {
    mailbox: Arc<Mailbox>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    fdless: Vec<u32>,
    active: Vec<u32>,
    /// Connections that failed since the last [`ConnTable::reap`].
    dead: Vec<ConnId>,
    sockets: usize,
    events: Vec<Event>,
}

fn token_of(id: ConnId) -> Token {
    Token::for_slot(id.idx, id.gen)
}

impl ConnTable {
    pub(crate) fn new(mailbox: Arc<Mailbox>) -> Self {
        ConnTable {
            mailbox,
            slots: Vec::new(),
            free: Vec::new(),
            fdless: Vec::new(),
            active: Vec::new(),
            dead: Vec::new(),
            sockets: 0,
            events: Vec::new(),
        }
    }

    /// Adds a connection.  Socket-backed ones are registered with the
    /// reactor and scheduled for a first pass (their link may already hold
    /// buffered input that no readiness event will announce).
    pub(crate) fn insert(&mut self, link: Link) {
        let fd = match &link {
            Link::Kv(l) => l.raw_fd(),
            Link::Mig(l) => l.raw_fd(),
        };
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, conn: None });
            (self.slots.len() - 1) as u32
        });
        let id = ConnId {
            idx,
            gen: self.slots[idx as usize].gen,
        };
        if let Some(fd) = fd {
            let reactor = &self.mailbox.reactor;
            if reactor
                .register(fd, token_of(id), Interest::READABLE)
                .is_err()
            {
                // Only fd exhaustion gets here; drop the connection, not
                // the thread.
                self.free.push(idx);
                return;
            }
            self.sockets += 1;
            self.active.push(idx);
        } else {
            self.fdless.push(idx);
        }
        self.slots[idx as usize].conn = Some(Conn {
            link,
            fd,
            wants_write: false,
            in_active: fd.is_some(),
        });
    }

    /// Moves what other threads handed over into the table.  Returns
    /// whether anything arrived.
    pub(crate) fn adopt_from_mailbox(&mut self) -> bool {
        let adopted = std::mem::take(&mut *self.mailbox.adopted.lock());
        let any = !adopted.is_empty();
        for link in adopted {
            self.insert(link);
        }
        any
    }

    /// Harvests socket readiness.  `timeout` of zero while busy, `None` to
    /// park.  Returns `(woken by notify, number of sockets that became
    /// ready)`.
    pub(crate) fn poll(&mut self, timeout: Option<Duration>) -> (bool, usize) {
        let zero = timeout == Some(Duration::ZERO);
        if zero && self.sockets == 0 {
            return (false, 0);
        }
        let woken = self
            .mailbox
            .reactor
            .poll(&mut self.events, timeout)
            .unwrap_or(false);
        for ev in &self.events {
            let (idx, gen) = ev.token.slot();
            let Some(slot) = self.slots.get_mut(idx as usize) else {
                continue;
            };
            if slot.gen != gen {
                continue; // a previous tenant's event
            }
            if let Some(conn) = slot.conn.as_mut() {
                if !conn.in_active {
                    conn.in_active = true;
                    self.active.push(idx);
                }
            }
        }
        (woken, self.events.len())
    }

    /// Runs `serve` over every connection that may have input: all
    /// in-process pipes, and the socket-backed ones on the active list.
    /// `serve` returns `Ok(progressed)` or `Err(())` for a finished
    /// connection.  Returns whether anything progressed, and whether a
    /// socket-backed connection did.
    pub(crate) fn serve_ready(
        &mut self,
        mut serve: impl FnMut(ConnId, &mut Link) -> Result<bool, ()>,
    ) -> (bool, bool) {
        let mut progressed = false;
        for i in 0..self.fdless.len() {
            let idx = self.fdless[i];
            let slot = &mut self.slots[idx as usize];
            let id = ConnId { idx, gen: slot.gen };
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            match serve(id, &mut conn.link) {
                // A pipe has no readiness to announce input a per-pass
                // bound left behind (a frame longer than one pass reads):
                // it counts as work, so the thread does not park on it.
                Ok(p) => progressed |= p || conn.link.has_deferred_input(),
                Err(()) => self.dead.push(id),
            }
        }
        let in_process = progressed;
        progressed = false;
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let slot = &mut self.slots[idx as usize];
            let id = ConnId { idx, gen: slot.gen };
            let Some(conn) = slot.conn.as_mut() else {
                self.active.swap_remove(i);
                continue;
            };
            let mut keep = false;
            match serve(id, &mut conn.link) {
                Ok(p) => {
                    progressed |= p;
                    match Self::flush(&self.mailbox.reactor, id, conn) {
                        // Input a per-pass bound left behind keeps the
                        // connection scheduled; otherwise it waits for its
                        // next readiness event.
                        Ok(()) => keep = conn.link.has_deferred_input(),
                        Err(()) => self.dead.push(id),
                    }
                }
                Err(()) => self.dead.push(id),
            }
            if keep {
                progressed = true;
                i += 1;
            } else {
                conn.in_active = false;
                self.active.swap_remove(i);
            }
        }
        (in_process || progressed, progressed)
    }

    /// Whether a per-pass bound left input behind on some connection.
    pub(crate) fn has_backlog(&self) -> bool {
        !self.active.is_empty()
    }

    /// Pushes a connection's buffered output and keeps the reactor's write
    /// interest in step with what remains.
    fn flush(reactor: &Reactor, id: ConnId, conn: &mut Conn) -> Result<(), ()> {
        let Link::Kv(link) = &mut conn.link else {
            return Ok(());
        };
        let want = link.flush().map_err(|_| ())?;
        if let (Some(fd), true) = (conn.fd, want != conn.wants_write) {
            conn.wants_write = want;
            let interest = if want {
                Interest::READABLE_WRITABLE
            } else {
                Interest::READABLE
            };
            reactor
                .reregister(fd, token_of(id), interest)
                .map_err(|_| ())?;
        }
        Ok(())
    }

    /// Answers on connection `id` outside its own service pass (a pended
    /// batch completing).  Returns `false` if the connection is gone.
    pub(crate) fn reply(&mut self, id: ConnId, reply: BatchReply) -> bool {
        let Some(slot) = self.slots.get_mut(id.idx as usize) else {
            return false;
        };
        let Some(conn) = slot.conn.as_mut().filter(|_| slot.gen == id.gen) else {
            return false;
        };
        let Link::Kv(link) = &mut conn.link else {
            return false;
        };
        let sent = link.send_reply(reply).is_ok() && {
            let reactor = &self.mailbox.reactor;
            Self::flush(reactor, id, conn).is_ok()
        };
        if !sent {
            self.dead.push(id);
        }
        sent
    }

    /// Removes the connections that failed since the last call and returns
    /// their ids, so the caller can drop the batches pended on them.
    pub(crate) fn reap(&mut self) -> Vec<ConnId> {
        let mut reaped = std::mem::take(&mut self.dead);
        reaped.retain(|id| {
            let slot = &mut self.slots[id.idx as usize];
            if slot.gen != id.gen {
                return false; // reported twice in one iteration
            }
            let Some(conn) = slot.conn.take() else {
                return false;
            };
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(id.idx);
            match conn.fd {
                Some(fd) => {
                    let _ = self.mailbox.reactor.deregister(fd);
                    self.sockets -= 1;
                }
                None => self.fdless.retain(|idx| *idx != id.idx),
            }
            true
        });
        reaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::FramedPeer;
    use crate::wire::{WireMsg, MAX_FRAME_BYTES};
    use shadowfax_net::SimNetwork;

    /// A served data connection over a sim pipe, and the client's end of
    /// the pipe.
    fn sim_link(net: &SimNetwork, addr: &str) -> (FramedPeer, Link) {
        let listener = net.listen(addr);
        let client = net.connect(addr).unwrap();
        let served = listener.try_accept().unwrap();
        net.unlisten(addr);
        let io = Framed::new(Box::new(served), MAX_FRAME_BYTES, None);
        let lat = KvLatency::register(&MetricsRegistry::new());
        (
            FramedPeer::new(client),
            Link::Kv(ServedKvLink::new(io, lat)),
        )
    }

    #[test]
    fn a_reaped_connections_id_never_reaches_the_slots_next_tenant() {
        let net = SimNetwork::new();
        let mut table = ConnTable::new(Mailbox::new());
        let (first_client, first) = sim_link(&net, "a");
        table.insert(first);
        let mut ids = Vec::new();
        table.serve_ready(|id, _| {
            ids.push(id);
            Ok(false)
        });
        let old = ids[0];

        // The client hangs up: the next pass reports the close, reap frees
        // the slot.
        drop(first_client);
        table.serve_ready(|_, link| match link {
            Link::Kv(l) => {
                l.begin_pass();
                l.try_recv_batch().map(|b| b.is_some()).map_err(|_| ())
            }
            Link::Mig(_) => Ok(false),
        });
        assert_eq!(table.reap(), vec![old]);

        // A new connection takes the same slot under a new generation.
        let (mut second_client, second) = sim_link(&net, "b");
        table.insert(second);
        let reply = BatchReply::Rejected {
            seq: 1,
            server_view: 2,
        };
        assert!(
            !table.reply(old, reply.clone()),
            "stale id reached a tenant"
        );
        assert!(second_client.frames().is_empty());
        let mut now = Vec::new();
        table.serve_ready(|id, _| {
            now.push(id);
            Ok(false)
        });
        assert_eq!(now[0].idx, old.idx);
        assert_ne!(now[0], old);
        assert!(table.reply(now[0], reply.clone()));
        assert_eq!(second_client.frames(), vec![WireMsg::Reply(reply)]);
    }

    /// A sim pipe has no readiness event to announce what a per-pass bound
    /// left unread, so a pass that stops mid-frame must still count as
    /// work: a thread that parked on it would wait for a write that never
    /// comes (the client is waiting for the reply).
    #[test]
    fn a_pipe_with_input_left_behind_a_bound_keeps_the_thread_busy() {
        let net = SimNetwork::new();
        let mut table = ConnTable::new(Mailbox::new());
        let (mut client, link) = sim_link(&net, "a");
        table.insert(link);
        let value = vec![7u8; 2 << 20];
        let ops = vec![shadowfax_net::KvRequest::Upsert { key: 1, value }];
        let batch = shadowfax_net::RequestBatch {
            view: 1,
            seq: 1,
            ops,
        };
        assert!(client.send(&WireMsg::Batch(batch)));
        let mut passes = 0;
        loop {
            passes += 1;
            let mut got = false;
            let (progressed, _) = table.serve_ready(|_, link| match link {
                Link::Kv(l) => {
                    l.begin_pass();
                    got = l.try_recv_batch().map_err(|_| ())?.is_some();
                    Ok(got)
                }
                Link::Mig(_) => Ok(false),
            });
            if got {
                break;
            }
            assert!(
                progressed,
                "pass {passes} stopped mid-frame and looked idle"
            );
        }
        assert!(passes > 1, "a 2 MiB frame should take more than one pass");
    }
}
