//! The Shadowfax client library (paper §3.1.1), once for every client.
//!
//! Each client thread owns one [`ShadowfaxClient`].  It caches the cluster's
//! ownership mappings, keeps one pipelined `ClientSession` per server, and
//! issues fully asynchronous operations: [`ShadowfaxClient::issue`] buffers
//! the operation with a completion callback and returns immediately;
//! [`ShadowfaxClient::try_poll`] drains replies, runs callbacks, and
//! re-routes operations parked by view-mismatch rejections after refreshing
//! the cached ownership.
//!
//! The client is generic over where ownership comes from, its
//! [`OwnershipSource`]: the metadata store of an in-process cluster
//! (`Arc<MetadataStore>`, which cannot fail), or the control plane of a
//! serving process (`shadowfax_rpc::RemoteClient`, whose refreshes fail with
//! an RPC error).  Sessions run over any [`Transport`]: the simulated fabric
//! or TCP, both carrying the same frames.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shadowfax_faster::KeyHash;
use shadowfax_net::{KvRequest, KvResponse, SimNetwork, Transport};

use crate::config::ClientConfig;
use crate::meta::{MetadataStore, OwnershipSnapshot};
use crate::session::{ClientSession, SessionStats};
use crate::wire::{PeerLink, DATA_SEND_BUDGET};
use crate::ServerId;

/// Callback type used by the asynchronous operation API.
pub type OpCallback = Box<dyn FnOnce(KvResponse) + Send>;

/// How long the in-process client's synchronous helpers wait for a reply.
const SYNC_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a client's ownership snapshot comes from.
pub trait OwnershipSource {
    /// Why a fetch can fail.
    type Error;

    /// The cluster's current ownership.  Each server's `address` is the base
    /// its dispatch threads are dialled at: thread `t` listens at
    /// `"{address}/t{t}"` on the client's transport.
    fn fetch(&mut self) -> Result<OwnershipSnapshot, Self::Error>;
}

impl OwnershipSource for Arc<MetadataStore> {
    type Error = Infallible;

    fn fetch(&mut self) -> Result<OwnershipSnapshot, Infallible> {
        Ok(self.snapshot())
    }
}

/// Counters kept by a client instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Operations issued (a re-route is not a new operation).
    pub issued: u64,
    /// Operations completed (callback executed).
    pub completed: u64,
    /// Ownership-cache refreshes triggered by rejections, dead links or
    /// operations awaiting an owner.
    pub ownership_refreshes: u64,
    /// Operations re-routed after a rejection or a dead link.
    pub rerouted: u64,
    /// Batch rejections observed across the open sessions.
    pub batches_rejected: u64,
}

/// A per-thread Shadowfax client over the ownership source `O`.
pub struct ShadowfaxClient<O = Arc<MetadataStore>> {
    config: ClientConfig,
    source: O,
    transport: Arc<dyn Transport>,
    ownership: OwnershipSnapshot,
    sessions: HashMap<ServerId, ClientSession>,
    /// Operations awaiting a re-route: salvaged from a dead session, parked
    /// by a rejection, or with no owner or session at their last attempt.
    /// Retried on every poll so their callbacks are never silently dropped.
    pending_reroute: Vec<(KvRequest, OpCallback)>,
    stats: ClientStats,
}

impl<O> std::fmt::Debug for ShadowfaxClient<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowfaxClient")
            .field("thread", &self.config.thread_id)
            .field("sessions", &self.sessions.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ShadowfaxClient {
    /// Creates a client bound to the given metadata store and simulated
    /// fabric.
    pub fn new(config: ClientConfig, meta: Arc<MetadataStore>, net: Arc<SimNetwork>) -> Self {
        let Ok(client) = Self::with_source(config, meta, net);
        client
    }

    /// [`ShadowfaxClient::try_poll`]; the metadata store never fails.
    pub fn poll(&mut self) -> usize {
        let Ok(completed) = self.try_poll();
        completed
    }

    /// [`ShadowfaxClient::try_drain`]; the metadata store never fails.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let Ok(quiescent) = self.try_drain(timeout);
        quiescent
    }

    fn execute(&mut self, request: KvRequest) -> KvResponse {
        let Ok(response) = self.execute_sync(request, SYNC_TIMEOUT);
        response
    }

    /// Synchronously reads a key.
    pub fn read(&mut self, key: u64) -> Option<Vec<u8>> {
        match self.execute(KvRequest::Read { key }) {
            KvResponse::Value(v) => v,
            _ => None,
        }
    }

    /// Synchronously writes a key.
    pub fn upsert(&mut self, key: u64, value: Vec<u8>) -> bool {
        matches!(
            self.execute(KvRequest::Upsert { key, value }),
            KvResponse::Ok
        )
    }

    /// Synchronously increments a key's counter, returning the new value.
    pub fn rmw_add(&mut self, key: u64, delta: u64) -> Option<u64> {
        match self.execute(KvRequest::RmwAdd { key, delta }) {
            KvResponse::Counter(c) => Some(c),
            _ => None,
        }
    }
}

impl<O: OwnershipSource> ShadowfaxClient<O> {
    /// Creates a client over `source` and `transport`, fetching the first
    /// ownership snapshot.
    pub fn with_source(
        config: ClientConfig,
        mut source: O,
        transport: Arc<dyn Transport>,
    ) -> Result<Self, O::Error> {
        let ownership = source.fetch()?;
        Ok(ShadowfaxClient {
            config,
            source,
            transport,
            ownership,
            sessions: HashMap::new(),
            pending_reroute: Vec::new(),
            stats: ClientStats::default(),
        })
    }

    /// The ownership source.
    pub fn source(&self) -> &O {
        &self.source
    }

    /// The ownership source, mutably.
    pub fn source_mut(&mut self) -> &mut O {
        &mut self.source
    }

    /// Client counters.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            batches_rejected: self
                .sessions
                .values()
                .map(|s| s.stats().batches_rejected)
                .sum(),
            ..self.stats
        }
    }

    /// Per-session counters (batches sent, bytes, rejections).
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.values().map(|s| s.stats()).collect()
    }

    /// The largest number of batches currently in flight on any session
    /// (observable pipelining depth).
    pub fn max_inflight_batches(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.inflight_batches())
            .max()
            .unwrap_or(0)
    }

    /// Operations issued but not yet completed, including those awaiting a
    /// re-route.
    pub fn outstanding_ops(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.outstanding_ops())
            .sum::<usize>()
            + self.pending_reroute.len()
    }

    /// Re-fetches the ownership snapshot and restamps session views.
    pub fn refresh_ownership(&mut self) -> Result<(), O::Error> {
        self.ownership = self.source.fetch()?;
        self.stats.ownership_refreshes += 1;
        for (server, session) in self.sessions.iter_mut() {
            if let Some(meta) = self.ownership.server(*server) {
                session.set_view(meta.view);
            }
        }
        Ok(())
    }

    /// Issues an arbitrary request with a completion callback.  Returns
    /// `false`, dropping the callback, if no server currently owns the key's
    /// hash or its session cannot be opened.
    pub fn issue(&mut self, request: KvRequest, callback: OpCallback) -> bool {
        self.try_issue(request, callback).is_none()
    }

    /// Like [`ShadowfaxClient::issue`], but hands the operation back instead
    /// of dropping it when no route exists.
    fn try_issue(
        &mut self,
        request: KvRequest,
        callback: OpCallback,
    ) -> Option<(KvRequest, OpCallback)> {
        let hash = KeyHash::of(request.key()).raw();
        let Some((owner, _)) = self.ownership.owner_of(hash) else {
            return Some((request, callback));
        };
        let session = match self.sessions.entry(owner) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let Some(meta) = self.ownership.server(owner) else {
                    return Some((request, callback));
                };
                let thread = self.config.thread_id % meta.threads.max(1);
                let addr = format!("{}/t{}", meta.address, thread);
                let Ok(stream) = self.transport.connect_link(&addr) else {
                    return Some((request, callback));
                };
                let link = PeerLink::new(stream, addr, DATA_SEND_BUDGET);
                e.insert(ClientSession::new(link, meta.view, self.config.session))
            }
        };
        session.issue(request, callback);
        self.stats.issued += 1;
        None
    }

    /// Issues an asynchronous read.
    pub fn issue_read(&mut self, key: u64, callback: OpCallback) -> bool {
        self.issue(KvRequest::Read { key }, callback)
    }

    /// Issues an asynchronous upsert.
    pub fn issue_upsert(&mut self, key: u64, value: Vec<u8>, callback: OpCallback) -> bool {
        self.issue(KvRequest::Upsert { key, value }, callback)
    }

    /// Issues an asynchronous read-modify-write (counter increment).
    pub fn issue_rmw(&mut self, key: u64, delta: u64, callback: OpCallback) -> bool {
        self.issue(KvRequest::RmwAdd { key, delta }, callback)
    }

    /// Flushes partially filled batches on every session.  Transport
    /// failures are left recorded on the session and surface as dead links
    /// cleaned up by [`ShadowfaxClient::try_poll`].
    pub fn flush(&mut self) {
        for session in self.sessions.values_mut() {
            let _ = session.flush();
        }
    }

    /// Drains replies, runs callbacks, refreshes ownership after rejections,
    /// and re-routes parked operations.  Returns the number of operations
    /// completed by this call.
    ///
    /// A session whose link failed (a server process went away) is torn
    /// down.  What its server never saw, parked and unsent operations, joins
    /// the re-route queue *before* the refresh, so a failed refresh leaves it
    /// counted and retried on the next poll.  Batches in flight on the broken
    /// link have unknown outcomes and are lost with it.
    pub fn try_poll(&mut self) -> Result<usize, O::Error> {
        let mut completed = 0;
        let mut needs_refresh = !self.pending_reroute.is_empty();
        let mut dead: Vec<ServerId> = Vec::new();
        for (server, session) in self.sessions.iter_mut() {
            match session.poll() {
                Ok(n) => completed += n,
                Err(_) => dead.push(*server),
            }
            needs_refresh |= session.stale_view().is_some();
        }
        self.stats.completed += completed as u64;
        for server in dead {
            if let Some(mut session) = self.sessions.remove(&server) {
                self.queue_reroute(session.take_unsent());
                needs_refresh = true;
            }
        }
        if !needs_refresh {
            return Ok(completed);
        }
        self.refresh_ownership()?;
        // Ownership may have moved parked operations to another server.
        let parked: Vec<_> = self
            .sessions
            .values_mut()
            .flat_map(|s| s.take_parked())
            .collect();
        self.queue_reroute(parked);
        for (req, cb) in std::mem::take(&mut self.pending_reroute) {
            if let Some(op) = self.try_issue(req, cb) {
                // No owner or no session right now: retry on the next poll.
                self.pending_reroute.push(op);
            }
        }
        self.flush();
        Ok(completed)
    }

    /// Queues operations for a re-route, which re-issues them: not counted
    /// as issued twice.
    fn queue_reroute(&mut self, ops: Vec<(KvRequest, OpCallback)>) {
        let n = ops.len() as u64;
        self.stats.rerouted += n;
        self.stats.issued = self.stats.issued.saturating_sub(n);
        self.pending_reroute.extend(ops);
    }

    /// Waits until every outstanding operation has completed (or the timeout
    /// expires).  Returns `true` if the client became quiescent.
    pub fn try_drain(&mut self, timeout: Duration) -> Result<bool, O::Error> {
        let start = Instant::now();
        self.flush();
        while self.outstanding_ops() > 0 {
            self.try_poll()?;
            self.flush();
            if start.elapsed() > timeout {
                return Ok(false);
            }
            std::thread::yield_now();
        }
        Ok(true)
    }

    /// Issues an operation and polls until its reply arrives.  No owner for
    /// the key and no reply within `timeout` are answered with
    /// [`KvResponse::Error`].  Convenience for tools, tests, and load phases,
    /// not the hot path.
    pub fn execute_sync(
        &mut self,
        request: KvRequest,
        timeout: Duration,
    ) -> Result<KvResponse, O::Error> {
        let slot: Arc<Mutex<Option<KvResponse>>> = Arc::new(Mutex::new(None));
        let reply = Arc::clone(&slot);
        if !self.issue(request, Box::new(move |resp| *reply.lock() = Some(resp))) {
            return Ok(KvResponse::Error("no server owns the key's hash".into()));
        }
        self.flush();
        let start = Instant::now();
        loop {
            self.try_poll()?;
            if let Some(resp) = slot.lock().take() {
                return Ok(resp);
            }
            if start.elapsed() > timeout {
                return Ok(KvResponse::Error("timed out waiting for a reply".into()));
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use shadowfax_net::{BatchReply, Listener};

    use super::*;
    use crate::hash_range::RangeSet;
    use crate::meta::ServerMeta;
    use crate::wire::testing::FramedPeer;

    /// An ownership source that serves the snapshot a test installs and
    /// fails while it is down.
    #[derive(Clone, Default)]
    struct Scripted {
        snapshot: Arc<Mutex<OwnershipSnapshot>>,
        down: Arc<AtomicBool>,
    }

    impl OwnershipSource for Scripted {
        type Error = &'static str;

        fn fetch(&mut self) -> Result<OwnershipSnapshot, &'static str> {
            if self.down.load(Ordering::SeqCst) {
                return Err("source down");
            }
            Ok(self.snapshot.lock().clone())
        }
    }

    impl Scripted {
        /// Installs `(id, view, owns the whole space)` per server; server
        /// `id` listens at `sv{id}` with one thread.
        fn install(&self, servers: &[(u32, u64, bool)]) {
            let servers = servers.iter().map(|&(id, view, owns)| {
                let owned = if owns {
                    RangeSet::full()
                } else {
                    RangeSet::empty()
                };
                let address = format!("sv{id}");
                let meta = ServerMeta {
                    view,
                    owned,
                    address,
                    threads: 1,
                };
                (ServerId(id), meta)
            });
            *self.snapshot.lock() = OwnershipSnapshot {
                servers: servers.collect(),
            };
        }

        fn set_down(&self, down: bool) {
            self.down.store(down, Ordering::SeqCst);
        }
    }

    struct Fixture {
        net: Arc<SimNetwork>,
        source: Scripted,
        client: ShadowfaxClient<Scripted>,
        done: Arc<AtomicUsize>,
    }

    fn fixture(servers: &[(u32, u64, bool)]) -> Fixture {
        let net = SimNetwork::new();
        let source = Scripted::default();
        source.install(servers);
        let client = ShadowfaxClient::with_source(
            ClientConfig::default(),
            source.clone(),
            Arc::clone(&net) as Arc<dyn Transport>,
        )
        .unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        Fixture {
            net,
            source,
            client,
            done,
        }
    }

    impl Fixture {
        /// Issues `n` upserts whose callbacks count into `done`.
        fn issue(&mut self, n: u64) {
            for key in 0..n {
                let done = Arc::clone(&self.done);
                let value = vec![1];
                let cb = Box::new(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                assert!(self.client.issue(KvRequest::Upsert { key, value }, cb));
            }
        }

        fn done(&self) -> usize {
            self.done.load(Ordering::SeqCst)
        }
    }

    /// The server end of the next connection to `listener`.
    fn accept(listener: &Listener) -> FramedPeer {
        FramedPeer::new(listener.try_accept().expect("the client dialled"))
    }

    /// Executes every batch the server end holds; returns the operations.
    fn execute(server: &mut FramedPeer) -> usize {
        let mut ops = 0;
        for batch in server.batches() {
            ops += batch.ops.len();
            let results = vec![KvResponse::Ok; batch.ops.len()];
            server.reply(BatchReply::Executed {
                seq: batch.seq,
                results,
            });
        }
        ops
    }

    /// Rejects every batch the server end holds as stale.
    fn reject(server: &mut FramedPeer, server_view: u64) {
        for batch in server.batches() {
            let seq = batch.seq;
            server.reply(BatchReply::Rejected { seq, server_view });
        }
    }

    #[test]
    fn a_failed_refresh_keeps_a_dead_sessions_operations_counted_and_retried() {
        let mut f = fixture(&[(0, 1, true)]);
        let sv0 = f.net.listen("sv0/t0");
        f.issue(10);
        // The operations sit in the session's send buffer when the server
        // end goes away; the source serving ownership is down with it.
        drop(sv0.try_accept().unwrap());
        f.source.set_down(true);
        for _ in 0..2 {
            assert_eq!(f.client.try_poll(), Err("source down"));
            assert_eq!(f.client.outstanding_ops(), 10);
        }
        // The source recovers and names a live owner.
        let sv1 = f.net.listen("sv1/t0");
        f.source.install(&[(0, 2, false), (1, 1, true)]);
        f.source.set_down(false);
        assert_eq!(f.client.try_poll(), Ok(0));
        let mut sv1 = accept(&sv1);
        assert_eq!(execute(&mut sv1), 10);
        assert_eq!(f.client.try_poll(), Ok(10));
        assert_eq!((f.done(), f.client.outstanding_ops()), (10, 0));
        let stats = f.client.stats();
        assert_eq!((stats.issued, stats.rerouted), (10, 10));
    }

    #[test]
    fn a_stale_view_rejection_refreshes_once_and_reaches_the_new_owner() {
        let mut f = fixture(&[(0, 1, true), (1, 1, false)]);
        let (sv0, sv1) = (f.net.listen("sv0/t0"), f.net.listen("sv1/t0"));
        f.issue(10);
        f.client.flush();
        let mut sv0 = accept(&sv0);
        reject(&mut sv0, 2);
        f.source.install(&[(0, 2, false), (1, 2, true)]);
        assert_eq!(f.client.try_poll(), Ok(0));
        let mut sv1 = accept(&sv1);
        assert_eq!(execute(&mut sv1), 10);
        assert_eq!(f.client.try_poll(), Ok(10));
        assert_eq!((f.done(), f.client.outstanding_ops()), (10, 0));
        let stats = f.client.stats();
        assert_eq!(stats.ownership_refreshes, 1);
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!((stats.issued, stats.rerouted), (10, 10));
    }

    #[test]
    fn an_operation_with_no_owner_stays_counted_until_one_appears() {
        let mut f = fixture(&[(0, 1, true)]);
        let sv0 = f.net.listen("sv0/t0");
        f.issue(1);
        f.client.flush();
        let mut sv0 = accept(&sv0);
        reject(&mut sv0, 2);
        // The range left server 0, and no owner is registered yet.
        f.source.install(&[(0, 2, false)]);
        for _ in 0..3 {
            assert_eq!(f.client.try_poll(), Ok(0));
            assert_eq!((f.done(), f.client.outstanding_ops()), (0, 1));
        }
        let sv1 = f.net.listen("sv1/t0");
        f.source.install(&[(0, 2, false), (1, 1, true)]);
        assert_eq!(f.client.try_poll(), Ok(0));
        let mut sv1 = accept(&sv1);
        assert_eq!(execute(&mut sv1), 1);
        assert_eq!(f.client.try_poll(), Ok(1));
        assert_eq!((f.done(), f.client.outstanding_ops()), (1, 0));
        assert_eq!(f.client.stats().issued, 1);
    }
}
