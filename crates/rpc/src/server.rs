//! The TCP front end of a serving process.
//!
//! [`RpcServer::serve`] binds a listening socket and spawns an acceptor and
//! N control I/O threads, each blocked in its own epoll [`Reactor`].  An I/O
//! thread reads a new connection's first frames:
//!
//! * `HELLO <fabric addr>` makes it a **data connection**.  The socket
//!   itself — stream, [`FrameDecoder`] with whatever bytes are already
//!   buffered behind the HELLO, outbound buffer — is handed to the dispatch
//!   thread the address names ([`ServedKvLink`] via
//!   [`DispatchHandle::adopt_kv`]).  From then on that thread alone polls
//!   the socket, decodes, validates the view, executes, encodes and writes
//!   the reply: the paper's deployment shape (§3.1: partitioned client
//!   sessions terminate on server dispatch threads; no request or reply
//!   crosses threads once bound).
//! * `MIG_HELLO <server> <thread>` hands the socket over the same way as a
//!   [`TcpMigrationLink`] for the migration protocol between serving
//!   processes.
//! * Anything else is a **control connection**, served here: ownership
//!   snapshots, migration triggers and status, metrics, metadata
//!   replication, chain fetches, pings — request/response frames answered
//!   from the metadata store and the cluster.
//!
//! Both kinds of thread share the connection discipline in [`Framed`]:
//! edge-triggered reads bounded per pass ([`DRAIN_CHUNKS_PER_PASS`],
//! [`FRAMES_PER_PASS`], [`INPUT_BACKLOG_BYTES`]) so one firehose cannot
//! hold a thread, and a bounded outbound buffer flushed on write-readiness
//! — a client that stops reading is dropped when its buffer exceeds
//! [`OUTBOUND_BUDGET_BYTES`] (counted in `rpc.conns.dropped_slow_reader`)
//! without stalling its siblings.  A thread whose connections are all quiet
//! blocks in `epoll_wait`, so idle connections cost no CPU.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use shadowfax::{
    ChainFetchError, ChainFetchQuery, ChainFetchReply, Cluster, DispatchHandle, MetaReplica,
    ServerId,
};
use shadowfax_net::{
    BatchReply, Interest, KvRequest, Reactor, RequestBatch, ServerKvLink, StatusCode, Token,
    TransportError,
};
use shadowfax_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::codec::{
    encode_frame, FrameDecoder, Role, WireBrokerStatus, WireMigrationState, WireMsg, WireOwnership,
    WireServerInfo, MAX_FRAME_BYTES,
};
use crate::ctrl::CtrlClient;
use crate::tcp::{codec_err, TcpMigrationLink};

/// Budget for relaying a control operation (migrate / cancel) to the peer
/// process that hosts the relevant source server.  Bounded so a
/// partitioned peer cannot wedge the I/O thread serving the relay.
const RELAY_TIMEOUT: Duration = Duration::from_secs(3);

/// What the TCP front end needs from the cluster behind it.
///
/// Implemented by [`Cluster`]; tests can substitute their own.
pub trait ClusterControl: Send + Sync {
    /// A consistent ownership snapshot for clients.
    fn ownership(&self) -> WireOwnership;

    /// Starts a migration; returns the migration id.
    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String>;

    /// The state of migration `migration_id`.
    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String>;

    /// Cancels an in-flight migration: the dependency is cancelled at the
    /// metadata store and every local server involved rolls back to its
    /// checkpoint and re-adopts the post-cancellation ownership map.
    fn cancel_migration(&self, migration_id: u64) -> Result<(), String>;

    /// The dispatch thread at `fabric_addr`, which adopts a client data
    /// connection whose HELLO named it.
    fn dispatch_thread(&self, fabric_addr: &str) -> Result<DispatchHandle, TransportError>;

    /// Dispatch thread `thread` of the local server `server`, which adopts
    /// an incoming TCP migration connection.
    fn migration_thread(&self, server: u32, thread: u32) -> Result<DispatchHandle, TransportError>;

    /// Serves a view-tagged chain fetch out of this process's shared tier.
    /// The error carries the typed status reported back to the peer
    /// (`StaleView`, `OutOfRange`, ...).
    fn fetch_chain(&self, query: &ChainFetchQuery)
        -> Result<ChainFetchReply, (StatusCode, String)>;

    /// The process-wide metrics registry: the front end answers
    /// `GET_METRICS` frames from it and records its serving-path latency
    /// histograms into it.
    fn metrics(&self) -> Arc<MetricsRegistry>;

    /// The process's epoch-tagged metadata replica (broker pull path).
    fn meta_replica(&self) -> MetaReplica;

    /// Merges a replica pushed by a peer (broker fan-out path); returns
    /// the post-merge `(epoch, changed)` acknowledgement.
    fn merge_meta(&self, replica: &MetaReplica) -> (u64, bool);

    /// The coordinator's role and convergence state.  A process running
    /// no coordinator answers `solo` at its current metadata epoch.
    fn broker_status(&self) -> WireBrokerStatus;

    /// The control address of the process hosting `server`, when it is
    /// not hosted here (`None` means the operation runs locally).
    fn remote_source_addr(&self, server: u32) -> Option<String>;

    /// The control address of the process hosting the *source* of
    /// in-flight migration `migration_id`, when that is not this process.
    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String>;
}

impl ClusterControl for Cluster {
    fn ownership(&self) -> WireOwnership {
        let snapshot = self.meta().snapshot();
        let mut servers: Vec<WireServerInfo> = snapshot
            .servers
            .iter()
            .map(|(id, meta)| WireServerInfo {
                id: id.0,
                address: meta.address.clone(),
                threads: meta.threads as u32,
                view: meta.view,
                ranges: meta
                    .owned
                    .ranges()
                    .iter()
                    .map(|r| (r.start, r.end))
                    .collect(),
            })
            .collect();
        servers.sort_by_key(|s| s.id);
        WireOwnership { servers }
    }

    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String> {
        self.migrate_fraction(ServerId(source), ServerId(target), fraction)
    }

    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String> {
        match self.meta().migration_state(migration_id) {
            // Both sides completed: the dependency has been garbage
            // collected from the metadata store.
            Ok(None) => Ok(WireMigrationState {
                migration_id,
                complete: true,
                source_complete: true,
                target_complete: true,
                cancelled: false,
            }),
            Ok(Some(dep)) => Ok(WireMigrationState {
                migration_id,
                complete: dep.is_complete(),
                source_complete: dep.source_complete,
                target_complete: dep.target_complete,
                cancelled: dep.cancelled,
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    fn cancel_migration(&self, migration_id: u64) -> Result<(), String> {
        Cluster::cancel_migration(self, migration_id)
    }

    fn dispatch_thread(&self, fabric_addr: &str) -> Result<DispatchHandle, TransportError> {
        Cluster::dispatch_thread(self, fabric_addr).ok_or_else(|| {
            TransportError::ConnectionRefused {
                addr: fabric_addr.to_string(),
            }
        })
    }

    fn migration_thread(&self, server: u32, thread: u32) -> Result<DispatchHandle, TransportError> {
        Cluster::migration_thread(self, ServerId(server), thread as usize).ok_or_else(|| {
            TransportError::ConnectionRefused {
                addr: format!("sv{server} (not hosted in this process)"),
            }
        })
    }

    fn fetch_chain(
        &self,
        query: &ChainFetchQuery,
    ) -> Result<ChainFetchReply, (StatusCode, String)> {
        self.serve_chain_fetch(query).map_err(|e| {
            let status = match &e {
                ChainFetchError::StaleView { .. } | ChainFetchError::UnknownRequester(_) => {
                    StatusCode::StaleView
                }
                ChainFetchError::OutOfRange { .. } | ChainFetchError::UnknownLog(_) => {
                    StatusCode::OutOfRange
                }
                ChainFetchError::Unreadable { .. } => StatusCode::Io,
            };
            (status, e.to_string())
        })
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(Cluster::metrics(self))
    }

    fn meta_replica(&self) -> MetaReplica {
        self.meta().replica()
    }

    fn merge_meta(&self, replica: &MetaReplica) -> (u64, bool) {
        let outcome = self.merge_meta_replica(replica);
        (outcome.epoch, outcome.changed)
    }

    fn broker_status(&self) -> WireBrokerStatus {
        WireBrokerStatus {
            role: Role::Solo,
            broker_addr: String::new(),
            epoch: self.meta().epoch(),
            peers: Vec::new(),
            tier_addr: String::new(),
            tier_reachable: false,
            cancel_escalated: self.metrics().gauge("broker.cancel.escalated").value(),
        }
    }

    fn remote_source_addr(&self, server: u32) -> Option<String> {
        Cluster::remote_source_addr(self, ServerId(server))
    }

    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String> {
        Cluster::remote_addr_for_migration(self, migration_id)
    }
}

/// Decorates any [`ClusterControl`] with awareness of the configured
/// `shadowfax-tier` daemon: `broker_status` answers carry the daemon's
/// address and current reachability, so `shadowfax-cli cluster status`
/// shows the tier next to the broker without a second round trip.
pub struct TierAwareControl {
    inner: Arc<dyn ClusterControl>,
    tier: Arc<crate::tier::RemoteSharedTier>,
}

impl TierAwareControl {
    /// Wraps `inner`, stamping `tier`'s endpoint into broker status
    /// answers.
    pub fn new(inner: Arc<dyn ClusterControl>, tier: Arc<crate::tier::RemoteSharedTier>) -> Self {
        TierAwareControl { inner, tier }
    }
}

impl ClusterControl for TierAwareControl {
    fn ownership(&self) -> WireOwnership {
        self.inner.ownership()
    }

    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String> {
        self.inner.migrate(source, target, fraction)
    }

    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String> {
        self.inner.migration_status(migration_id)
    }

    fn cancel_migration(&self, migration_id: u64) -> Result<(), String> {
        self.inner.cancel_migration(migration_id)
    }

    fn dispatch_thread(&self, fabric_addr: &str) -> Result<DispatchHandle, TransportError> {
        self.inner.dispatch_thread(fabric_addr)
    }

    fn migration_thread(&self, server: u32, thread: u32) -> Result<DispatchHandle, TransportError> {
        self.inner.migration_thread(server, thread)
    }

    fn fetch_chain(
        &self,
        query: &ChainFetchQuery,
    ) -> Result<ChainFetchReply, (StatusCode, String)> {
        self.inner.fetch_chain(query)
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    fn meta_replica(&self) -> MetaReplica {
        self.inner.meta_replica()
    }

    fn merge_meta(&self, replica: &MetaReplica) -> (u64, bool) {
        self.inner.merge_meta(replica)
    }

    fn broker_status(&self) -> WireBrokerStatus {
        let mut status = self.inner.broker_status();
        status.tier_addr = self.tier.addr().to_string();
        status.tier_reachable = self.tier.is_reachable();
        status
    }

    fn remote_source_addr(&self, server: u32) -> Option<String> {
        self.inner.remote_source_addr(server)
    }

    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String> {
        self.inner.remote_addr_for_migration(migration_id)
    }
}

/// Relays a `Migrate` whose source server lives in another process, then
/// pulls that process's metadata replica and merges it here, so a status
/// query for the returned id on *this* process answers immediately
/// instead of waiting a broker round.
fn relay_migrate(
    control: &Arc<dyn ClusterControl>,
    addr: &str,
    source: u32,
    target: u32,
    fraction: f64,
) -> Result<u64, String> {
    let mut peer = CtrlClient::connect(addr, RELAY_TIMEOUT)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    let id = peer
        .migrate_fraction(source, target, fraction)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    if let Ok(replica) = peer.meta_replica() {
        control.merge_meta(&replica);
    }
    Ok(id)
}

/// Relays a `CancelMigration` to the process driving the migration (the
/// source's process), merging its replica back on success so the
/// cancelled dependency and rolled-back ownership land here at once.
fn relay_cancel(
    control: &Arc<dyn ClusterControl>,
    addr: &str,
    migration_id: u64,
) -> Result<(), String> {
    let mut peer = CtrlClient::connect(addr, RELAY_TIMEOUT)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    peer.cancel_migration(migration_id)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    if let Ok(replica) = peer.meta_replica() {
        control.merge_meta(&replica);
    }
    Ok(())
}

/// Serving-path latency histograms, one per op type.  Handles are cheap
/// clones of the registry's instruments; recording is a relaxed atomic add
/// into the calling thread's shard.
#[derive(Clone)]
struct ServingLatency {
    read: Histogram,
    upsert: Histogram,
    migrate_ctrl: Histogram,
    chain_fetch: Histogram,
    /// Batch timing entries shed by the bounded in-flight table; their
    /// eventual replies go unmeasured, so the histograms under-sample —
    /// visibly, via this counter, instead of silently.
    timings_dropped: Counter,
}

impl ServingLatency {
    fn new(metrics: &MetricsRegistry) -> Self {
        ServingLatency {
            read: metrics.histogram("rpc.latency.read"),
            upsert: metrics.histogram("rpc.latency.upsert"),
            migrate_ctrl: metrics.histogram("rpc.latency.migrate_ctrl"),
            chain_fetch: metrics.histogram("rpc.latency.chain_fetch"),
            timings_dropped: metrics.counter("rpc.latency.timings_dropped"),
        }
    }
}

/// Per-process connection observability (`rpc.conns.*`), shared by the
/// acceptor, the control I/O threads and the dispatch threads serving
/// adopted connections.  Visible via `shadowfax-cli metrics --ns rpc`.
#[derive(Clone)]
struct ConnMetrics {
    /// Connections currently open, wherever they are served.
    open: Gauge,
    /// Connections ever accepted.
    accepted: Counter,
    /// Connections dropped because the peer hung up or the transport
    /// failed.
    dropped_dead: Counter,
    /// Connections dropped because the peer stopped reading and its
    /// outbound budget ran out.
    dropped_slow_reader: Counter,
    /// High-water mark of any single connection's outbound buffer, in
    /// bytes the socket would not take.
    outbuf_hwm_bytes: Gauge,
}

impl ConnMetrics {
    fn new(metrics: &MetricsRegistry) -> Self {
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
/// on creation, counted dropped — by cause — when the owner lets go.
pub(crate) struct ConnGuard {
    conns: ConnMetrics,
    slow_reader: bool,
}

impl ConnGuard {
    fn new(conns: ConnMetrics) -> Self {
        conns.open.add(1);
        ConnGuard {
            conns,
            slow_reader: false,
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.conns.open.sub(1);
        if self.slow_reader {
            self.conns.dropped_slow_reader.inc();
        } else {
            self.conns.dropped_dead.inc();
        }
    }
}

/// Knobs for the TCP front end.
#[derive(Debug, Clone)]
pub struct RpcServerConfig {
    /// Socket address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Number of control I/O threads sharing the accepted connections.
    pub io_threads: usize,
    /// Per-frame size limit enforced on received frames.
    pub max_frame: usize,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            listen: "127.0.0.1:0".to_string(),
            io_threads: 2,
            max_frame: MAX_FRAME_BYTES,
        }
    }
}

/// The running TCP front end.
pub struct RpcServer;

/// Join handle for a running front end.
pub struct RpcServerHandle {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Every loop's reactor, woken at shutdown so blocked `epoll_wait`
    /// calls notice the flag.
    wakers: Vec<Arc<Reactor>>,
    joins: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RpcServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServerHandle")
            .field("local_addr", &self.local_addr)
            .field("threads", &self.joins.len())
            .finish()
    }
}

impl RpcServerHandle {
    /// The socket address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }

    /// Stops the acceptor and I/O threads and waits for them to exit.
    /// Control connections are dropped; data connections already adopted
    /// by dispatch threads live as long as those threads do.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for RpcServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl RpcServer {
    /// Binds `config.listen` and starts serving `control` until the returned
    /// handle is shut down or dropped.
    pub fn serve(
        control: Arc<dyn ClusterControl>,
        config: RpcServerConfig,
    ) -> std::io::Result<RpcServerHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let io_threads = config.io_threads.max(1);
        let metrics = control.metrics();
        let latency = ServingLatency::new(&metrics);
        let conns = ConnMetrics::new(&metrics);

        // One reactor per I/O thread plus one for the acceptor, created
        // (and the listener registered) here so fd exhaustion surfaces
        // from `serve` instead of inside a thread.
        let mut io_reactors: Vec<Arc<Reactor>> = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            io_reactors.push(Arc::new(Reactor::new()?));
        }
        let acceptor_reactor = Arc::new(Reactor::new()?);
        acceptor_reactor.register(listener.as_raw_fd(), Token(0), Interest::READABLE)?;
        let mut wakers = io_reactors.clone();
        wakers.push(Arc::clone(&acceptor_reactor));

        let mut joins = Vec::with_capacity(io_threads + 1);
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(io_threads);
        for (t, reactor) in io_reactors.iter().enumerate() {
            let (tx, rx) = unbounded::<TcpStream>();
            senders.push(tx);
            let reactor = Arc::clone(reactor);
            let control = Arc::clone(&control);
            let shutdown = Arc::clone(&shutdown);
            let max_frame = config.max_frame;
            let latency = latency.clone();
            let conns = conns.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("shadowfax-rpc-io-{t}"))
                    .spawn(move || {
                        io_thread(reactor, rx, control, shutdown, max_frame, latency, conns)
                    })
                    .expect("failed to spawn rpc i/o thread"),
            );
        }

        let shutdown_acceptor = Arc::clone(&shutdown);
        joins.push(
            std::thread::Builder::new()
                .name("shadowfax-rpc-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        acceptor_reactor,
                        listener,
                        senders,
                        io_reactors,
                        shutdown_acceptor,
                        conns,
                    )
                })
                .expect("failed to spawn rpc acceptor thread"),
        );

        Ok(RpcServerHandle {
            local_addr,
            shutdown,
            wakers,
            joins,
        })
    }
}

/// The acceptor: block on listener readiness, then accept until
/// `WouldBlock` (edge-triggered), waking the receiving I/O thread's
/// reactor for each handed-off connection.
fn accept_loop(
    reactor: Arc<Reactor>,
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    io_wakers: Vec<Arc<Reactor>>,
    shutdown: Arc<AtomicBool>,
    conns: ConnMetrics,
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        let _ = reactor.poll(&mut events, None);
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    conns.accepted.inc();
                    let t = next % senders.len();
                    next += 1;
                    if senders[t].send(stream).is_ok() {
                        io_wakers[t].wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE under fd pressure,
                // aborted handshakes): yield briefly and re-poll.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }
}

/// Most in-flight batch timings a connection retains for latency
/// measurement.  A client that never reads replies sheds the oldest
/// timings rather than growing without bound (each shed is counted in
/// `rpc.latency.timings_dropped`).
const MAX_INFLIGHT_TIMINGS: usize = 1024;

/// Outbound-buffer budget per connection.  A reply queue growing past
/// this means the client has stopped reading (the kernel socket buffer is
/// already full underneath it): the connection is dropped and counted in
/// `rpc.conns.dropped_slow_reader`.  Must exceed [`MAX_FRAME_BYTES`] so one
/// maximum-size reply can always be queued.
pub const OUTBOUND_BUDGET_BYTES: usize = 2 * MAX_FRAME_BYTES;

/// Most 64 KiB read chunks one connection may drain per service pass.
/// Bounds how long a single firehose connection can hold its thread
/// inside `drain_socket`; `read_pending` carries the rest to the next
/// pass.
const DRAIN_CHUNKS_PER_PASS: usize = 8;

/// Most frames one connection may have handled per service pass.  A
/// connection that buffers thousands of tiny requests (a metrics
/// flooder, say) would otherwise monopolize the thread for the whole
/// backlog while siblings wait; `frames_pending` keeps it scheduled so
/// the backlog drains round-robin instead.
const FRAMES_PER_PASS: usize = 256;

/// Decoder-backlog ceiling: stop reading a socket whose buffered input
/// already exceeds this *and* holds at least one decodable frame.  Flow
/// control then happens in the kernel (the peer's writes block) instead
/// of in our memory.  The decodable-frame condition matters: a single
/// legitimate frame may be far larger than this ceiling, and gating on
/// raw bytes alone would stop reading mid-frame — a frame that can then
/// never complete (the backlog *is* the partial frame), wedging the
/// connection until the peer's write budget kills it.
const INPUT_BACKLOG_BYTES: usize = 1024 * 1024;

/// One accepted TCP connection's framed I/O: bounded reads into a frame
/// decoder, a bounded outbound buffer.  Owned by exactly one thread at a
/// time — a control I/O thread, or (after a HELLO) a dispatch thread.
struct Framed {
    stream: TcpStream,
    decoder: FrameDecoder,
    eof: bool,
    /// The transport failed or the outbound budget ran out.
    dead: bool,
    /// Bytes queued toward the socket, flushed on write-readiness.
    out: VecDeque<u8>,
    /// `drain_socket` stopped at its per-pass bound before the socket ran
    /// dry.  Edge-triggered epoll will not re-announce the leftover bytes,
    /// so the owner must run another pass.
    read_pending: bool,
    /// `next_frame` stopped at its per-pass bound with (possibly) more
    /// complete frames still buffered.
    frames_pending: bool,
    /// Frames handed out this pass.
    handled: usize,
    guard: ConnGuard,
}

impl Framed {
    fn new(stream: TcpStream, max_frame: usize, conns: ConnMetrics) -> Self {
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
    fn begin_pass(&mut self) {
        self.handled = 0;
        self.frames_pending = false;
        self.read_pending = false;
        if self.eof {
            return;
        }
        let mut chunk = [0u8; 64 * 1024];
        let mut chunks = 0usize;
        loop {
            let over_backlog =
                self.decoder.buffered() > INPUT_BACKLOG_BYTES && self.decoder.has_complete_frame();
            if over_backlog || chunks == DRAIN_CHUNKS_PER_PASS {
                self.read_pending = true;
                return;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => {
                    self.decoder.extend(&chunk[..n]);
                    chunks += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    return;
                }
            }
        }
    }

    /// The next buffered frame of this pass; `Ok(None)` when none is
    /// complete or `FRAMES_PER_PASS` have been handed out already.
    fn next_frame(&mut self) -> Result<Option<WireMsg>, crate::codec::CodecError> {
        if self.handled == FRAMES_PER_PASS {
            self.frames_pending = true;
            return Ok(None);
        }
        let msg = self.decoder.next_msg()?;
        self.handled += msg.is_some() as usize;
        Ok(msg)
    }

    /// A per-pass bound left input behind: another pass is owed.
    fn has_deferred_input(&self) -> bool {
        self.read_pending || self.frames_pending
    }

    /// The peer hung up, its backlog is handled and nothing is left to
    /// flush toward it.
    fn finished(&self) -> bool {
        self.eof && !self.frames_pending && self.out.is_empty()
    }

    /// Queues one frame.  A queue past the budget even after a flush means
    /// the peer stopped reading: the connection is marked dead.
    fn queue(&mut self, msg: &WireMsg) {
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
    fn flush_out(&mut self) {
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
        self.guard.conns.note_outbuf(self.out.len() as u64);
    }
}

/// A client data connection after its HELLO: the socket as one dispatch
/// thread owns and serves it.  `rpc.latency.{read,upsert}` are recorded
/// here, per batch, from frame decoded to reply handed to the socket.
pub(crate) struct ServedKvLink {
    io: Framed,
    lat: ServingLatency,
    /// `(seq, decoded at, reads, upserts)` for batches not answered yet.
    inflight: VecDeque<(u64, Instant, usize, usize)>,
}

impl ServedKvLink {
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
}

impl ServerKvLink for ServedKvLink {
    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.io.stream.as_raw_fd())
    }

    fn begin_pass(&mut self) {
        self.io.begin_pass();
    }

    fn try_recv_batch(&mut self) -> Result<Option<RequestBatch>, TransportError> {
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

    fn send_reply(&mut self, reply: BatchReply) -> Result<(), TransportError> {
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

    fn flush(&mut self) -> Result<bool, TransportError> {
        self.io.flush_out();
        if self.io.dead {
            Err(self.failure())
        } else {
            Ok(!self.io.out.is_empty())
        }
    }

    fn has_deferred_input(&self) -> bool {
        self.io.has_deferred_input()
    }
}

/// Where a connection goes once its first frame has said what it is.
enum Handoff {
    /// HELLO: a client data connection, to the named dispatch thread.
    Kv(DispatchHandle),
    /// MIG_HELLO: a peer's migration connection, to `(server, thread)`.
    Migration(DispatchHandle, String),
}

/// One connection on a control I/O thread.
struct ServedConn {
    io: Framed,
    /// Whether the reactor registration currently includes write
    /// interest (kept in sync with `io.out` by the event loop).
    wants_write: bool,
    /// On the event loop's active-service list.
    in_active: bool,
    lat: ServingLatency,
}

impl ServedConn {
    fn send(&mut self, msg: &WireMsg) {
        // Queue and opportunistically flush; the event loop finishes the
        // job on write-readiness.  A client that stops reading exhausts
        // its bounded budget and is dropped — without ever stalling this
        // I/O thread.
        self.io.queue(msg);
        self.io.flush_out();
    }

    fn fail(&mut self, status: StatusCode, message: String) {
        self.send(&WireMsg::CtrlErr { status, message });
        self.io.dead = true;
    }

    /// Decodes and handles buffered frames, at most `FRAMES_PER_PASS` per
    /// call so a backlogged connection shares the thread fairly.  Returns
    /// whether any frame was handled, and — when a HELLO or MIG_HELLO
    /// arrived — where the connection must go; frames behind that one stay
    /// in the decoder for the adopting thread.
    fn process_frames(&mut self, control: &Arc<dyn ClusterControl>) -> (bool, Option<Handoff>) {
        let mut progressed = false;
        while !self.io.dead {
            let msg = match self.io.next_frame() {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                Err(e) => {
                    self.fail(e.status_code(), e.to_string());
                    break;
                }
            };
            progressed = true;
            match msg {
                WireMsg::Hello { fabric_addr } => match control.dispatch_thread(&fabric_addr) {
                    Ok(thread) => return (true, Some(Handoff::Kv(thread))),
                    Err(e) => self.fail(e.status_code(), e.to_string()),
                },
                WireMsg::MigHello { server, thread } => {
                    match control.migration_thread(server, thread) {
                        Ok(handle) => {
                            let label = format!("sv{server}/m{thread} (accepted)");
                            return (true, Some(Handoff::Migration(handle, label)));
                        }
                        Err(e) => self.fail(e.status_code(), e.to_string()),
                    }
                }
                WireMsg::MigrationStatus { migration_id } => {
                    let start = Instant::now();
                    let result = control.migration_status(migration_id);
                    self.lat.migrate_ctrl.record(start.elapsed());
                    match result {
                        Ok(state) => self.send(&WireMsg::MigrationState(state)),
                        Err(msg) => self.send(&WireMsg::CtrlErr {
                            status: StatusCode::ControlFailed,
                            message: msg,
                        }),
                    }
                }
                WireMsg::CancelMigration { migration_id } => {
                    // Like Migrate: treat a panic below as a failed control
                    // operation, never as a downed I/O thread.  A migration
                    // whose source lives in another process is relayed
                    // there (that process drives the rollback); if the
                    // relay fails the cancellation still lands in the
                    // local replica, and the coordinator retries the relay
                    // until the peer's acked epoch converges.
                    let start = Instant::now();
                    let relayed = control
                        .remote_addr_for_migration(migration_id)
                        .map(|addr| relay_cancel(control, &addr, migration_id));
                    let result = match relayed {
                        Some(Ok(())) => Ok(()),
                        _ => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            control.cancel_migration(migration_id)
                        }))
                        .unwrap_or_else(|_| Err("migration cancellation panicked".to_string())),
                    };
                    self.lat.migrate_ctrl.record(start.elapsed());
                    match result {
                        Ok(()) => self.send(&WireMsg::CtrlOk {
                            value: migration_id,
                        }),
                        Err(msg) => self.send(&WireMsg::CtrlErr {
                            status: StatusCode::ControlFailed,
                            message: msg,
                        }),
                    }
                }
                WireMsg::FetchChain(query) => {
                    let start = Instant::now();
                    let result = control.fetch_chain(&query);
                    self.lat.chain_fetch.record(start.elapsed());
                    match result {
                        Ok(reply) => self.send(&WireMsg::ChainRecords(reply)),
                        // A rejection is a protocol-level answer, not a
                        // framing violation: report the typed status and
                        // keep the connection alive for further fetches.
                        Err((status, message)) => self.send(&WireMsg::CtrlErr { status, message }),
                    }
                }
                WireMsg::GetMetrics => {
                    let snap = control.metrics().snapshot();
                    self.send(&WireMsg::Metrics(snap));
                }
                WireMsg::GetMetricsNs { prefix } => {
                    let snap = control.metrics().snapshot().filtered(&prefix);
                    self.send(&WireMsg::Metrics(snap));
                }
                WireMsg::GetMetaReplica => {
                    let replica = control.meta_replica();
                    self.send(&WireMsg::MetaReplicaMsg(replica));
                }
                WireMsg::MetaMerge(replica) => {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        control.merge_meta(&replica)
                    }));
                    match result {
                        Ok((epoch, changed)) => self.send(&WireMsg::MetaAck { epoch, changed }),
                        Err(_) => self.send(&WireMsg::CtrlErr {
                            status: StatusCode::ControlFailed,
                            message: "metadata merge panicked".to_string(),
                        }),
                    }
                }
                WireMsg::GetBrokerStatus => {
                    self.send(&WireMsg::BrokerStatus(control.broker_status()));
                }
                WireMsg::GetOwnership => {
                    let own = control.ownership();
                    self.send(&WireMsg::Ownership(own));
                }
                WireMsg::Migrate {
                    source,
                    target,
                    fraction,
                } => {
                    // Validate wire input before it reaches cluster code
                    // whose invariants are enforced with asserts, and treat
                    // any panic below as a failed control operation: one bad
                    // request must never take an I/O thread down.
                    let start = Instant::now();
                    let result = if !(0.0..=1.0).contains(&fraction) {
                        Err(format!("fraction {fraction} is outside [0, 1]"))
                    } else if source == target {
                        Err(format!("source and target are both server {source}"))
                    } else if let Some(addr) = control.remote_source_addr(source) {
                        // The source server lives in another process: any
                        // process can originate the migration, but the
                        // hosting process drives it, so relay and merge
                        // its replica back.
                        relay_migrate(control, &addr, source, target, fraction)
                    } else {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            control.migrate(source, target, fraction)
                        }))
                        .unwrap_or_else(|_| Err("migration setup panicked".to_string()))
                    };
                    self.lat.migrate_ctrl.record(start.elapsed());
                    match result {
                        Ok(id) => self.send(&WireMsg::CtrlOk { value: id }),
                        Err(msg) => self.send(&WireMsg::CtrlErr {
                            status: StatusCode::ControlFailed,
                            message: msg,
                        }),
                    }
                }
                WireMsg::Ping(token) => self.send(&WireMsg::Pong(token)),
                other => self.fail(
                    StatusCode::Malformed,
                    format!("unexpected frame from a client: {other:?}"),
                ),
            }
        }
        (progressed, None)
    }

    /// Gives the connection to the dispatch thread its first frame named.
    fn hand_off(self, to: Handoff) {
        match to {
            Handoff::Kv(thread) => thread.adopt_kv(Box::new(ServedKvLink {
                io: self.io,
                lat: self.lat,
                inflight: VecDeque::new(),
            })),
            Handoff::Migration(thread, label) => {
                let Framed {
                    stream,
                    decoder,
                    guard,
                    ..
                } = self.io;
                // A failed fd duplication drops the connection; the peer
                // sees the close and re-dials.
                if let Ok(link) = TcpMigrationLink::from_accepted(stream, decoder, label, guard) {
                    thread.adopt_migration(Box::new(link));
                }
            }
        }
    }
}

/// One slot of the I/O loop's connection slab.  The generation is folded
/// into the epoll token so a readiness event for a closed connection can
/// never touch the slot's next tenant.
struct ConnSlot {
    gen: u32,
    conn: Option<ServedConn>,
}

/// The control I/O loop: readiness-driven serving of request/response
/// control frames, and the first-frame triage that hands data and
/// migration connections to dispatch threads.
///
/// Connections register edge-triggered read interest; the loop services
/// only connections with something to do (a readiness event, input a
/// per-pass bound deferred) and otherwise blocks in `epoll_wait`.  New
/// connections arrive over `rx`, announced by a reactor wake from the
/// acceptor; shutdown is announced the same way.
fn io_thread(
    reactor: Arc<Reactor>,
    rx: Receiver<TcpStream>,
    control: Arc<dyn ClusterControl>,
    shutdown: Arc<AtomicBool>,
    max_frame: usize,
    latency: ServingLatency,
    conn_metrics: ConnMetrics,
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

        // Adopt connections handed over by the acceptor.
        while let Ok(stream) = rx.try_recv() {
            let idx = free.pop().unwrap_or_else(|| {
                slots.push(ConnSlot { gen: 0, conn: None });
                slots.len() - 1
            });
            let token = Token::for_slot(idx as u32, slots[idx].gen);
            if reactor
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                // Registration fails only under fd exhaustion; drop the
                // connection rather than the thread.
                conn_metrics.dropped_dead.inc();
                free.push(idx);
                continue;
            }
            slots[idx].conn = Some(ServedConn {
                io: Framed::new(stream, max_frame, conn_metrics.clone()),
                wants_write: false,
                in_active: true,
                lat: latency.clone(),
            });
            active.push(idx);
        }

        // Apply readiness transitions.
        for ev in &events {
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
            let (_, handoff) = conn.process_frames(&control);
            conn.io.flush_out();
            let gone = handoff.is_some() || conn.io.dead || conn.io.finished();
            if gone {
                let conn = slots[idx].conn.take().expect("checked Some above");
                let _ = reactor.deregister(conn.io.stream.as_raw_fd());
                slots[idx].gen = gen.wrapping_add(1);
                free.push(idx);
                active.swap_remove(i);
                if let Some(to) = handoff {
                    conn.hand_off(to);
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
                let fd = conn.io.stream.as_raw_fd();
                if reactor
                    .reregister(fd, Token::for_slot(idx as u32, gen), interest)
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
