//! The metadata broker/coordinator: replicated ownership metadata over
//! the control plane.
//!
//! Every serving process keeps its own [`shadowfax::MetadataStore`]; this
//! module keeps those stores convergent.  One process — the *broker*, the
//! live candidate with the lowest server id — owns the
//! authoritative copy: each tick it pulls every peer's epoch-tagged
//! replica (`GET_META_REPLICA`), merges them (views, dependency flags and
//! epochs only ever move forward, so the merge is a join), and fans the
//! merged replica back out (`META_MERGE`) to every peer whose
//! acknowledged epoch lags.  Any process therefore answers authoritative
//! ownership queries, and a migration can be originated against any
//! source through any process.
//!
//! The broker is also the cancellation *coordinator*: a cancelled
//! dependency whose involved process is partitioned is relayed an
//! idempotent `CANCEL_MIGRATION` until the peer's replica shows the
//! cancellation applied — the retry count and convergence count are
//! published as `broker.cancel.retries` / `broker.cancel.converged`.
//! Relays to a silent peer back off exponentially, and after
//! [`MAX_CANCEL_RELAY_ATTEMPTS`] failures the pair is *escalated*: the
//! broker stops spending a connection attempt on it every tick, counts it
//! on the `broker.cancel.escalated` gauge (surfaced as a `cluster status`
//! warning line), and relies on the regular replica fan-out to converge
//! the peer if it ever returns — a returning peer resets its relay state.
//!
//! Election is deterministic: a process hosts one server, candidates are
//! ranked by that server's id, and the lowest-ranked candidate that is
//! not silent past the liveness budget (reusing
//! [`shadowfax_net::PeerLiveness`]) is the broker.  A follower that
//! outlives every better-ranked candidate promotes itself and bumps the
//! cluster epoch, so replicas stamped by the old broker never win a merge
//! tie.  Between a broker failure and the next promotion — the follower's
//! broker failed its last probe but is not yet past the liveness budget —
//! the control plane refuses the two operator mutations it serves
//! (`Migrate`, `CancelMigration`) with the text of the typed
//! [`MetaError::CoordinatorUnavailable`]
//! ([`CoordinatorHandle::require_broker`]).  Servers' own completion
//! marks and liveness-triggered cancellations are not gated: they go
//! straight to the local [`shadowfax::MetadataStore`], so a broker blip
//! cannot wedge a migration already in flight.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shadowfax::wire::{encode_frame, Role, WireBrokerPeer, WireBrokerStatus, WireMsg};
use shadowfax::{Cluster, MetaError, MetaReplica};
use shadowfax_net::{LivenessConfig, PeerLiveness};

use crate::ctrl::CtrlClient;

/// Tuning for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// This process's control address (what peers dial).
    pub self_addr: String,
    /// This process's election rank: the id of the server it hosts.
    pub self_rank: u32,
    /// Peer control addresses with their election ranks (their server ids).
    pub peers: Vec<(String, u32)>,
    /// How often the coordinator loop runs.
    pub tick: Duration,
    /// Per-probe connect/read budget (kept well under `tick` x budget so a
    /// partitioned peer cannot stall the loop).
    pub probe_timeout: Duration,
    /// Silence budget before a candidate is considered dead for election.
    pub liveness: LivenessConfig,
}

impl CoordinatorConfig {
    /// Defaults sized for tests and LAN deployments: 150 ms ticks, dead
    /// after ~1.5 s of silence.
    pub fn new(self_addr: impl Into<String>, self_rank: u32) -> Self {
        CoordinatorConfig {
            self_addr: self_addr.into(),
            self_rank,
            peers: Vec::new(),
            tick: Duration::from_millis(150),
            probe_timeout: Duration::from_millis(400),
            liveness: LivenessConfig {
                heartbeat_interval: Duration::from_millis(150),
                miss_budget: 10,
            },
        }
    }
}

/// One tracked peer.
struct PeerTrack {
    addr: String,
    rank: u32,
    live: PeerLiveness,
    /// Did the most recent probe round-trip succeed?
    probe_ok: bool,
    /// Epoch the peer acknowledged after our last `META_MERGE` push.
    acked_epoch: u64,
    /// Content hash of the replica the peer last pulled or acked — the
    /// skip-if-current check for fan-out (epoch alone over-pushes: a
    /// broker-side epoch bump with identical content would re-ship the
    /// full store to every peer).
    content_seen: Option<u64>,
    /// Migration ids the peer's last-pulled replica showed as cancelled.
    cancelled_seen: HashSet<u64>,
    /// Persistent control connection; dropped and re-dialled on error.
    conn: Option<CtrlClient>,
}

/// Shared coordinator state: what `GET_BROKER_STATUS` answers and what
/// [`CoordinatorHandle::require_broker`] gates operator mutations on.
struct CoordState {
    role: Role,
    broker_addr: String,
    /// `false` on a follower exactly between the broker going silent and
    /// the next promotion (the typed-unavailability window).
    broker_reachable: bool,
    peers: Vec<(String, u64, bool)>,
}

/// Handle to a running coordinator loop; dropping it does **not** stop
/// the loop — call [`CoordinatorHandle::shutdown`].
pub struct CoordinatorHandle {
    cluster: Arc<Cluster>,
    state: Arc<Mutex<CoordState>>,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl CoordinatorHandle {
    /// The current role/epoch/convergence answer for `GET_BROKER_STATUS`.
    pub fn status(&self) -> WireBrokerStatus {
        let state = self.state.lock().expect("coordinator state");
        let peers = state
            .peers
            .iter()
            .map(|(addr, acked_epoch, reachable)| WireBrokerPeer {
                addr: addr.clone(),
                acked_epoch: *acked_epoch,
                reachable: *reachable,
            })
            .collect();
        broker_status(&self.cluster, state.role, state.broker_addr.clone(), peers)
    }

    /// Refuses an operator mutation while this process is a follower
    /// whose broker failed its last probe and is not yet declared dead;
    /// the error names the silent broker.
    pub(crate) fn require_broker(&self) -> Result<(), MetaError> {
        let state = self.state.lock().expect("coordinator state");
        if state.broker_reachable {
            Ok(())
        } else {
            Err(MetaError::CoordinatorUnavailable {
                detail: format!(
                    "broker {} unreachable, re-election pending",
                    state.broker_addr
                ),
            })
        }
    }

    /// Stops the loop and joins its thread.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.lock().expect("coordinator thread").take() {
            let _ = thread.join();
        }
    }
}

/// The one producer of a `BROKER_STATUS` answer: a coordinator's state, or
/// a solo process's (`Role::Solo`, no broker address, no peers).  The tier
/// endpoint is stamped in by the control plane when a daemon is configured.
pub(crate) fn broker_status(
    cluster: &Cluster,
    role: Role,
    broker_addr: String,
    peers: Vec<WireBrokerPeer>,
) -> WireBrokerStatus {
    WireBrokerStatus {
        role,
        broker_addr,
        epoch: cluster.meta().epoch(),
        peers,
        tier_addr: String::new(),
        tier_reachable: false,
        cancel_escalated: cluster.metrics().gauge("broker.cancel.escalated").value(),
    }
}

/// The coordinator loop.  Construct with [`Coordinator::spawn`].
pub struct Coordinator;

impl Coordinator {
    /// Starts the coordinator thread for `cluster` and returns its handle.
    pub fn spawn(cluster: Arc<Cluster>, config: CoordinatorConfig) -> Arc<CoordinatorHandle> {
        let initial_role = if config.peers.is_empty() {
            Role::Solo
        } else if config
            .peers
            .iter()
            .all(|(_, rank)| *rank > config.self_rank)
        {
            Role::Broker
        } else {
            Role::Follower
        };
        let state = Arc::new(Mutex::new(CoordState {
            role: initial_role,
            broker_addr: if initial_role == Role::Follower {
                initial_broker_addr(&config)
            } else {
                config.self_addr.clone()
            },
            broker_reachable: true,
            peers: config
                .peers
                .iter()
                .map(|(addr, _)| (addr.clone(), 0, true))
                .collect(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = Arc::new(CoordinatorHandle {
            cluster: Arc::clone(&cluster),
            state: Arc::clone(&state),
            stop: Arc::clone(&stop),
            thread: Mutex::new(None),
        });
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("shadowfax-coordinator".into())
                .spawn(move || {
                    let mut looper = CoordinatorLoop::new(cluster, config, state);
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(looper.config.tick);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        looper.tick();
                    }
                })
                .expect("spawn coordinator thread")
        };
        *handle.thread.lock().expect("coordinator thread") = Some(thread);
        handle
    }
}

fn initial_broker_addr(config: &CoordinatorConfig) -> String {
    config
        .peers
        .iter()
        .chain(std::iter::once(&(
            config.self_addr.clone(),
            config.self_rank,
        )))
        .min_by_key(|(_, rank)| *rank)
        .map(|(addr, _)| addr.clone())
        .unwrap_or_else(|| config.self_addr.clone())
}

/// Cancellation relays to one silent peer before the pair is escalated:
/// the broker stops relaying, raises `broker.cancel.escalated`, and leaves
/// convergence to the replica fan-out if the peer ever returns.
const MAX_CANCEL_RELAY_ATTEMPTS: u32 = 8;

/// Relay state for one `(cancelled migration, peer)` pair.
#[derive(Default)]
struct CancelRelay {
    /// Consecutive failed relays.
    attempts: u32,
    /// Tick sequence number before which no further relay is attempted
    /// (exponential backoff: 2, 4, 8, ... ticks between failures).
    next_tick: u64,
    /// Gave up after [`MAX_CANCEL_RELAY_ATTEMPTS`]; counted on the gauge.
    escalated: bool,
}

/// Per-tick working state of the loop thread.
struct CoordinatorLoop {
    cluster: Arc<Cluster>,
    config: CoordinatorConfig,
    state: Arc<Mutex<CoordState>>,
    peers: Vec<PeerTrack>,
    is_broker: bool,
    /// Cancelled migration ids already counted as converged.
    converged: HashSet<u64>,
    /// Monotonic tick counter (the backoff clock).
    tick_seq: u64,
    /// Relay state per `(cancelled migration, peer address)` pair.
    cancel_attempts: HashMap<(u64, String), CancelRelay>,
    metrics: BrokerMetrics,
}

/// The `broker.*` registry instruments.
struct BrokerMetrics {
    pulls: shadowfax_obs::Counter,
    pushes: shadowfax_obs::Counter,
    push_bytes: shadowfax_obs::Counter,
    elections: shadowfax_obs::Counter,
    cancel_retries: shadowfax_obs::Counter,
    cancel_converged: shadowfax_obs::Counter,
    cancel_escalated: shadowfax_obs::Gauge,
    epoch: shadowfax_obs::Gauge,
    peers_reachable: shadowfax_obs::Gauge,
    cluster_cancelled: shadowfax_obs::Gauge,
    cluster_rolled_back: shadowfax_obs::Gauge,
}

impl CoordinatorLoop {
    fn new(
        cluster: Arc<Cluster>,
        config: CoordinatorConfig,
        state: Arc<Mutex<CoordState>>,
    ) -> Self {
        let registry = Arc::clone(cluster.metrics());
        let metrics = BrokerMetrics {
            pulls: registry.counter("broker.merge.pulls"),
            pushes: registry.counter("broker.merge.pushes"),
            push_bytes: registry.counter("broker.merge.push_bytes"),
            elections: registry.counter("broker.elections"),
            cancel_retries: registry.counter("broker.cancel.retries"),
            cancel_converged: registry.counter("broker.cancel.converged"),
            cancel_escalated: registry.gauge("broker.cancel.escalated"),
            epoch: registry.gauge("broker.epoch"),
            peers_reachable: registry.gauge("broker.peers.reachable"),
            cluster_cancelled: registry.gauge("broker.cluster.migrations_cancelled"),
            cluster_rolled_back: registry.gauge("broker.cluster.records_rolled_back"),
        };
        let peers = config
            .peers
            .iter()
            .map(|(addr, rank)| PeerTrack {
                addr: addr.clone(),
                rank: *rank,
                live: PeerLiveness::new(config.liveness, Instant::now()),
                probe_ok: true,
                acked_epoch: 0,
                content_seen: None,
                cancelled_seen: HashSet::new(),
                conn: None,
            })
            .collect();
        let is_broker = config
            .peers
            .iter()
            .all(|(_, rank)| *rank > config.self_rank);
        CoordinatorLoop {
            cluster,
            config,
            state,
            peers,
            is_broker,
            converged: HashSet::new(),
            tick_seq: 0,
            cancel_attempts: HashMap::new(),
            metrics,
        }
    }

    fn tick(&mut self) {
        self.tick_seq += 1;
        self.pull_replicas();
        self.elect();
        if self.is_broker {
            self.push_replicas();
            self.converge_cancellations();
            self.aggregate_cluster_counters();
        }
        self.publish_state();
    }

    /// Pulls every peer's replica (doubling as the liveness probe) and
    /// merges it into the local store.
    fn pull_replicas(&mut self) {
        let timeout = self.config.probe_timeout;
        let liveness = self.config.liveness;
        let mut revived: Vec<String> = Vec::new();
        for peer in &mut self.peers {
            let pulled = with_conn(peer, timeout, |conn| conn.meta_replica());
            match pulled {
                Some(replica) => {
                    // A returning peer gets a fresh monitor: PeerLiveness
                    // death is sticky by design.
                    if peer.live.check_dead(Instant::now()).is_some() {
                        peer.live = PeerLiveness::new(liveness, Instant::now());
                        revived.push(peer.addr.clone());
                    }
                    peer.live.record_recv(Instant::now());
                    peer.probe_ok = true;
                    peer.content_seen = Some(replica_content_hash(&replica));
                    peer.cancelled_seen = replica.cancelled.iter().map(|d| d.id).collect();
                    self.metrics.pulls.inc();
                    self.cluster.merge_meta_replica(&replica);
                }
                None => peer.probe_ok = false,
            }
        }
        // A peer that came back from the dead restarts its cancellation
        // relays from scratch (including escalated ones).
        if !revived.is_empty() {
            self.cancel_attempts
                .retain(|(_, addr), _| !revived.contains(addr));
        }
    }

    /// Deterministic election: the lowest-ranked candidate not silent past
    /// the liveness budget is the broker.  Promotion bumps the cluster
    /// epoch so the new broker's merges win ties against the old one's.
    fn elect(&mut self) {
        let mut leader_rank = self.config.self_rank;
        for peer in &mut self.peers {
            if peer.rank < leader_rank && peer.live.check_dead(Instant::now()).is_none() {
                leader_rank = peer.rank;
            }
        }
        let now_broker = leader_rank == self.config.self_rank;
        if now_broker && !self.is_broker {
            self.cluster.meta().bump_epoch();
            self.metrics.elections.inc();
        }
        self.is_broker = now_broker;
    }

    /// Fans the merged replica out to every peer that does not already
    /// hold it.  Currency is judged by *content* (epoch-independent hash),
    /// not epoch alone: a peer whose pulled replica already matches the
    /// merged one is skipped even if its acked epoch trails, so a no-op
    /// tick sends zero `META_MERGE` bytes (`broker.merge.push_bytes`
    /// stands still).
    fn push_replicas(&mut self) {
        let local = self.cluster.meta().replica();
        let local_hash = replica_content_hash(&local);
        let timeout = self.config.probe_timeout;
        // The encoded frame length, computed once and only if some peer
        // actually needs the push.
        let mut frame_bytes: Option<u64> = None;
        for peer in &mut self.peers {
            if peer.acked_epoch >= local.epoch || peer.content_seen == Some(local_hash) {
                continue;
            }
            let bytes = *frame_bytes.get_or_insert_with(|| {
                encode_frame(&WireMsg::MetaMerge(local.clone())).len() as u64
            });
            if let Some((epoch, _changed)) =
                with_conn(peer, timeout, |conn| conn.merge_meta(&local))
            {
                peer.acked_epoch = epoch;
                peer.content_seen = Some(local_hash);
                peer.probe_ok = true;
                peer.live.record_recv(Instant::now());
                self.metrics.pushes.inc();
                self.metrics.push_bytes.add(bytes);
            }
        }
    }

    /// Relays an idempotent `CANCEL_MIGRATION` for every cancelled
    /// dependency a peer has not yet applied, until the peer's replica
    /// shows it cancelled — the coordinator's answer to a target
    /// partitioned away mid-cancellation.  A pair that keeps failing backs
    /// off exponentially and is escalated after
    /// [`MAX_CANCEL_RELAY_ATTEMPTS`]: the broker stops burning a dial per
    /// tick on a peer that is presumed permanently dead and raises the
    /// `broker.cancel.escalated` gauge instead (a returning peer clears it
    /// via [`CoordinatorLoop::pull_replicas`]).
    fn converge_cancellations(&mut self) {
        let cancelled = self.cluster.meta().replica().cancelled;
        let timeout = self.config.probe_timeout;
        let tick = self.tick_seq;
        for dep in &cancelled {
            let mut all_applied = true;
            for peer in &mut self.peers {
                if peer.cancelled_seen.contains(&dep.id) {
                    self.cancel_attempts.remove(&(dep.id, peer.addr.clone()));
                    continue;
                }
                all_applied = false;
                let relay = self
                    .cancel_attempts
                    .entry((dep.id, peer.addr.clone()))
                    .or_default();
                if relay.escalated || tick < relay.next_tick {
                    continue;
                }
                self.metrics.cancel_retries.inc();
                if with_conn(peer, timeout, |conn| conn.cancel_migration(dep.id)).is_some() {
                    // Applied at the peer; the next pull shows it in
                    // `cancelled_seen` and drops this entry.
                    relay.attempts = 0;
                    relay.next_tick = tick + 1;
                } else {
                    relay.attempts += 1;
                    if relay.attempts >= MAX_CANCEL_RELAY_ATTEMPTS {
                        relay.escalated = true;
                    } else {
                        relay.next_tick = tick + (1u64 << relay.attempts.min(6));
                    }
                }
            }
            if all_applied && self.converged.insert(dep.id) {
                self.metrics.cancel_converged.inc();
            }
        }
        // Relay state for dependencies no longer in the cancelled set
        // (garbage-collected) is dropped with them.
        let live: HashSet<u64> = cancelled.iter().map(|d| d.id).collect();
        self.cancel_attempts.retain(|(id, _), _| live.contains(id));
        self.metrics.cancel_escalated.set(
            self.cancel_attempts
                .values()
                .filter(|r| r.escalated)
                .count() as u64,
        );
    }

    /// Aggregates every process's cancellation counters into
    /// cluster-wide `broker.cluster.*` gauges.
    fn aggregate_cluster_counters(&mut self) {
        let local = self.cluster.metrics().snapshot();
        let mut cancelled = local.counter_family(".migration.cancelled");
        let mut rolled_back = local.counter_family(".migration.records_rolled_back");
        let timeout = self.config.probe_timeout;
        for peer in &mut self.peers {
            if !peer.probe_ok {
                continue;
            }
            if let Some(snap) = with_conn(peer, timeout, |conn| conn.metrics_ns("sv")) {
                cancelled += snap.counter_family(".migration.cancelled");
                rolled_back += snap.counter_family(".migration.records_rolled_back");
            }
        }
        self.metrics.cluster_cancelled.set(cancelled);
        self.metrics.cluster_rolled_back.set(rolled_back);
    }

    /// Publishes role / reachability / acked epochs for `BROKER_STATUS`
    /// and the [`CoordinatorHandle::require_broker`] gate.
    fn publish_state(&mut self) {
        self.metrics.epoch.set(self.cluster.meta().epoch());
        self.metrics
            .peers_reachable
            .set(self.peers.iter().filter(|p| p.probe_ok).count() as u64);
        let mut state = self.state.lock().expect("coordinator state");
        if self.peers.is_empty() {
            state.role = Role::Solo;
            state.broker_addr = self.config.self_addr.clone();
            state.broker_reachable = true;
        } else if self.is_broker {
            state.role = Role::Broker;
            state.broker_addr = self.config.self_addr.clone();
            state.broker_reachable = true;
        } else {
            state.role = Role::Follower;
            let leader = self
                .peers
                .iter()
                .filter(|p| p.rank < self.config.self_rank)
                .filter(|p| {
                    // check_dead needs &mut; use the probe result captured
                    // this tick, which tracks it one tick behind at most.
                    p.probe_ok
                })
                .min_by_key(|p| p.rank);
            match leader {
                Some(peer) => {
                    state.broker_addr = peer.addr.clone();
                    state.broker_reachable = true;
                }
                None => {
                    // Every better-ranked candidate failed its last probe
                    // but none is past the liveness budget yet: the typed
                    // unavailability window.
                    state.broker_reachable = false;
                }
            }
        }
        state.peers = self
            .peers
            .iter()
            .map(|p| (p.addr.clone(), p.acked_epoch, p.probe_ok))
            .collect();
    }
}

/// Epoch-independent content hash of a replica: FNV-1a over its wire
/// serialization with the epoch zeroed.  Two replicas with equal hashes
/// carry the same servers, views, ownership and dependency state, so a
/// fan-out push would be a no-op — the epoch is excluded exactly because
/// it can advance (election bump) without the content changing.
fn replica_content_hash(replica: &MetaReplica) -> u64 {
    let mut normalized = replica.clone();
    normalized.epoch = 0;
    let frame = encode_frame(&WireMsg::MetaMerge(normalized));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &frame {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Runs `op` over the peer's persistent control connection, dialling it
/// first if needed; any error drops the connection so the next tick
/// re-dials.  Returns `None` on failure.
fn with_conn<R>(
    peer: &mut PeerTrack,
    timeout: Duration,
    op: impl FnOnce(&mut CtrlClient) -> Result<R, crate::ctrl::RpcError>,
) -> Option<R> {
    if peer.conn.is_none() {
        peer.conn = CtrlClient::connect(&peer.addr, timeout).ok();
    }
    let conn = peer.conn.as_mut()?;
    match op(conn) {
        Ok(value) => Some(value),
        Err(_) => {
            peer.conn = None;
            None
        }
    }
}
