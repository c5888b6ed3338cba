//! The load generator: one thread, one `RemoteClient` (one data connection
//! per server process), every acknowledged result verified.
//!
//! Closed loops are *paced*: `issue()` is called only while fewer than
//! `batch x inflight` operations are outstanding, so the session's
//! `max_batch_ops` flush trigger produces batches of exactly the configured
//! size.  The open loop issues one batch per tick and times each operation
//! from the moment it was due.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use shadowfax_faster::KeyHash;
use shadowfax_net::{KvRequest, KvResponse, SessionConfig};
use shadowfax_rpc::{RemoteClient, RemoteClientConfig};
use shadowfax_workload::{Operation, WorkloadGenerator};

use crate::procs::ServerProc;
use crate::spec::{LoopKind, Spec, Workload};
use crate::sys::now_ns;
use crate::trace::Tracer;

/// A run that could not finish: the reason is printed and every operation
/// counts as failed.
pub type Res<T> = Result<T, String>;

/// How long a drain waits before what is still outstanding counts as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Value layout: `[0..8)` RMW counter, `[8..16)` sequence number of the
/// upsert that wrote it, `[16..)` the workload crate's key-derived pattern.
const PATTERN_FROM: usize = 16;

fn pattern_ok(key: u64, value: &[u8], value_bytes: usize) -> bool {
    value.len() == value_bytes
        && value
            .iter()
            .enumerate()
            .skip(PATTERN_FROM)
            .all(|(i, &b)| b == (key as u8).wrapping_add(i as u8))
}

fn u64_at(value: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(value[at..at + 8].try_into().expect("8-byte slice"))
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Read,
    Upsert {
        seq: u64,
    },
    Rmw,
    /// End-of-run read-back: the whole value must be the last acknowledged
    /// state of the key.
    Audit,
}

/// Everything callbacks record.  Shared behind a mutex only because
/// `OpCallback` must be `Send`; a single thread ever touches it.
pub struct Sink {
    value_bytes: usize,
    /// Acknowledged `RmwAdd`s per key since the load.
    acked_adds: Vec<u64>,
    /// Sequence number of the last acknowledged upsert per key.
    last_seq: Vec<u64>,
    pub completed: u64,
    /// Completions of measured operations at or before `window_end_ns`.
    in_window: u64,
    window_end_ns: u64,
    lat_ns: Vec<u64>,
    last_completion_ns: u64,
    stall_max_ns: u64,
    pub wrong: u64,
    pub refused: u64,
    pub audit_mismatches: u64,
    pub first_error: Option<String>,
    pub tracer: Option<Tracer>,
}

impl Sink {
    pub fn new(spec: &Spec) -> Arc<Mutex<Sink>> {
        Arc::new(Mutex::new(Sink {
            value_bytes: spec.common.value_bytes,
            acked_adds: vec![0; spec.common.keys as usize],
            last_seq: vec![0; spec.common.keys as usize],
            completed: 0,
            in_window: 0,
            window_end_ns: 0,
            lat_ns: Vec::new(),
            last_completion_ns: 0,
            stall_max_ns: 0,
            wrong: 0,
            refused: 0,
            audit_mismatches: 0,
            first_error: None,
            tracer: None,
        }))
    }

    fn note(&mut self, what: String) {
        self.first_error.get_or_insert(what);
    }

    fn complete(
        &mut self,
        key: u64,
        kind: OpKind,
        resp: KvResponse,
        issued_ns: Option<u64>,
        now: u64,
    ) {
        self.completed += 1;
        if let Some(issued_ns) = issued_ns {
            if now <= self.window_end_ns {
                self.in_window += 1;
            }
            self.lat_ns.push(now.saturating_sub(issued_ns));
            self.stall_max_ns = self.stall_max_ns.max(now - self.last_completion_ns);
            self.last_completion_ns = now;
        }
        let k = key as usize;
        match (kind, resp) {
            (OpKind::Read, KvResponse::Value(Some(v))) if pattern_ok(key, &v, self.value_bytes) => {
            }
            (OpKind::Upsert { seq }, KvResponse::Ok) => self.last_seq[k] = seq,
            (OpKind::Rmw, KvResponse::Counter(_)) => self.acked_adds[k] += 1,
            (OpKind::Audit, KvResponse::Value(Some(v)))
                if pattern_ok(key, &v, self.value_bytes)
                    && u64_at(&v, 0) == self.acked_adds[k]
                    && u64_at(&v, 8) == self.last_seq[k] => {}
            (OpKind::Audit, other) => {
                self.audit_mismatches += 1;
                let got = match &other {
                    KvResponse::Value(Some(v)) if v.len() >= 16 => {
                        format!("counter {} seq {}", u64_at(v, 0), u64_at(v, 8))
                    }
                    other => format!("{other:?}"),
                };
                self.note(format!(
                    "audit: key {key} holds {got}, acknowledged counter {} seq {}",
                    self.acked_adds[k], self.last_seq[k]
                ));
            }
            (_, KvResponse::Error(e)) => {
                self.refused += 1;
                self.note(format!("refused: key {key}: {e}"));
            }
            (kind, other) => {
                self.wrong += 1;
                self.note(format!("wrong: key {key} {kind:?} answered {other:?}"));
            }
        }
    }
}

/// Client-side counters, summed over sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounters {
    pub batches_sent: u64,
    pub bytes_sent: u64,
    pub batches_rejected: u64,
    pub rerouted: u64,
    pub ownership_refreshes: u64,
}

/// What one measured window observed from the client's side.
#[derive(Debug, Default)]
pub struct WindowStats {
    pub start_ns: u64,
    /// A closed loop on a timer: the planned end.  A fixed amount of work:
    /// its last completion.
    pub end_ns: u64,
    pub issued: u64,
    pub completed_in_window: u64,
    /// Latency samples, ascending.
    pub lat_ns: Vec<u64>,
    pub lost: u64,
    pub wrong: u64,
    pub refused: u64,
    /// Open loop: operations sent more than one tick after they were due.
    /// Their latency, timed from the due time, already includes the lag.
    pub sent_late: u64,
    pub stall_max_ns: u64,
    pub counters: ClientCounters,
}

impl WindowStats {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// How a window ends.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    Seconds(f64),
    Ops(u64),
}

/// Periodic health check of the servers under a wall-clock deadline.
pub struct Supervisor<'a> {
    pub servers: &'a mut [ServerProc],
    pub deadline_ns: u64,
    next_check_ns: u64,
}

impl<'a> Supervisor<'a> {
    pub fn new(servers: &'a mut [ServerProc], deadline_ns: u64) -> Self {
        Supervisor {
            servers,
            deadline_ns,
            next_check_ns: 0,
        }
    }

    /// Cheap unless 50 ms have passed since the last real check.
    pub fn check(&mut self) -> Res<()> {
        let now = now_ns();
        if now < self.next_check_ns {
            return Ok(());
        }
        self.next_check_ns = now + 50_000_000;
        for server in self.servers.iter_mut() {
            server.health()?;
        }
        if now > self.deadline_ns {
            return Err("wall-clock deadline exceeded".into());
        }
        Ok(())
    }
}

/// A batch being filled on one session while tracing.
struct OpenTrace {
    id: u64,
    start_ns: u64,
    ops: usize,
}

/// One connected client plus the operation stream it draws from.
pub struct Conn {
    client: RemoteClient,
    sink: Arc<Mutex<Sink>>,
    gen: WorkloadGenerator,
    next_seq: u64,
    batch: usize,
    cap: usize,
    /// One slot per server id; only used while tracing.
    open_traces: Vec<Option<OpenTrace>>,
    seen_rerouted: u64,
}

impl Conn {
    /// Connects to the process at `addr` with sessions of `batch` x
    /// `inflight`, drawing operations of `w`'s mix from `seed`.
    pub fn connect(
        addr: &str,
        spec: &Spec,
        w: &Workload,
        batch: usize,
        inflight: usize,
        seed: u64,
        sink: Arc<Mutex<Sink>>,
    ) -> Res<Conn> {
        let mut config = RemoteClientConfig::new(addr);
        config.session = SessionConfig {
            max_batch_ops: batch,
            max_batch_bytes: usize::MAX,
            max_inflight_batches: inflight,
        };
        let client = RemoteClient::connect(config).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            client,
            sink,
            gen: spec.generator(w, seed),
            next_seq: 1,
            batch,
            cap: batch * inflight,
            open_traces: (0..w.processes).map(|_| None).collect(),
            seen_rerouted: 0,
        })
    }

    pub fn counters(&self) -> ClientCounters {
        let stats = self.client.stats();
        let sessions = self.client.session_stats();
        ClientCounters {
            batches_sent: sessions.iter().map(|s| s.batches_sent).sum(),
            bytes_sent: sessions.iter().map(|s| s.bytes_sent).sum(),
            batches_rejected: stats.batches_rejected,
            rerouted: stats.rerouted,
            ownership_refreshes: stats.ownership_refreshes,
        }
    }

    fn issue(&mut self, req: KvRequest, kind: OpKind, issued_ns: Option<u64>, trace: u64) {
        let sink = Arc::clone(&self.sink);
        let key = req.key();
        let routed = self.client.issue(
            req,
            Box::new(move |resp| {
                let now = now_ns();
                let mut sink = sink.lock().expect("sink mutex");
                sink.complete(key, kind, resp, issued_ns, now);
                if trace != 0 {
                    if let Some(tracer) = sink.tracer.as_mut() {
                        tracer.callback(trace, now);
                    }
                }
            }),
        );
        if !routed {
            // The client dropped the callback; account for the operation here.
            let mut sink = self.sink.lock().expect("sink mutex");
            sink.completed += 1;
            sink.refused += 1;
            sink.note(format!("refused: no server owns key {key}"));
        }
    }

    /// Draws the next operation of the mix and issues it.  `due_ns` is the
    /// open loop's schedule time; the closed loop times from the call.
    fn issue_next(&mut self, measured: bool, due_ns: Option<u64>, traced: bool) {
        let built_ns = if traced { now_ns() } else { 0 };
        let (req, kind) = match self.gen.next_op() {
            Operation::Read { key } => (KvRequest::Read { key }, OpKind::Read),
            Operation::ReadModifyWrite { key, delta } => {
                (KvRequest::RmwAdd { key, delta }, OpKind::Rmw)
            }
            Operation::Upsert { key, mut value } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                value[8..16].copy_from_slice(&seq.to_le_bytes());
                (KvRequest::Upsert { key, value }, OpKind::Upsert { seq })
            }
        };
        if !traced {
            let issued_ns = measured.then(|| due_ns.unwrap_or_else(now_ns));
            return self.issue(req, kind, issued_ns, 0);
        }
        let slot = if self.open_traces.len() > 1 {
            let hash = KeyHash::of(req.key()).raw();
            self.client.ownership().owner_of(hash).map_or(0, |s| s.id) as usize
        } else {
            0
        };
        let slot = slot.min(self.open_traces.len() - 1);
        let (id, start_ns) = match &self.open_traces[slot] {
            Some(open) => (open.id, open.start_ns),
            None => {
                let mut sink = self.sink.lock().expect("sink mutex");
                let id = sink.tracer.as_mut().expect("tracing on").new_trace();
                (id, built_ns)
            }
        };
        let ops = self.open_traces[slot].as_ref().map_or(0, |o| o.ops) + 1;
        let call_ns = now_ns();
        self.issue(req, kind, Some(due_ns.unwrap_or(call_ns)), id);
        let returned_ns = now_ns();
        if ops == self.batch {
            // This call tripped the session's flush trigger.
            self.open_traces[slot] = None;
            let mut sink = self.sink.lock().expect("sink mutex");
            let tracer = sink.tracer.as_mut().expect("tracing on");
            tracer.batch_sent(id, ops as u32, start_ns, call_ns, returned_ns);
        } else {
            self.open_traces[slot] = Some(OpenTrace { id, start_ns, ops });
        }
    }

    fn poll(&mut self) -> Res<usize> {
        let completed = self
            .client
            .poll()
            .map_err(|e| format!("client poll: {e}"))?;
        if self.open_traces.len() > 1 {
            // A re-route flushes partial batches inside the client, so the
            // per-session operation counts kept for tracing start over.
            let rerouted = self.client.stats().rerouted;
            if rerouted != self.seen_rerouted {
                self.seen_rerouted = rerouted;
                self.open_traces.iter_mut().for_each(|slot| *slot = None);
            }
        }
        Ok(completed)
    }

    /// Flushes and polls until nothing is outstanding or [`DRAIN_TIMEOUT`]
    /// expires; returns what is still outstanding.
    fn drain(&mut self, sup: &mut Supervisor) -> Res<u64> {
        let deadline = now_ns() + DRAIN_TIMEOUT.as_nanos() as u64;
        self.client.flush();
        while self.client.outstanding_ops() > 0 {
            if self.poll()? == 0 {
                self.client.flush();
                std::thread::yield_now();
            }
            sup.check()?;
            if now_ns() > deadline {
                return Ok(self.client.outstanding_ops() as u64);
            }
        }
        Ok(0)
    }

    /// Runs `ops` operations through a paced closed loop without measuring
    /// them (load, warm-up, audit), then drains.
    fn unmeasured(
        &mut self,
        ops: u64,
        mut next: impl FnMut(&mut Conn),
        sup: &mut Supervisor,
    ) -> Res<()> {
        let mut issued = 0;
        while issued < ops {
            let room = self.cap.saturating_sub(self.client.outstanding_ops()) as u64;
            for _ in 0..room.min(ops - issued) {
                next(self);
                issued += 1;
            }
            if self.poll()? == 0 {
                std::thread::yield_now();
            }
            sup.check()?;
        }
        match self.drain(sup)? {
            0 => Ok(()),
            lost => Err(format!("{lost} unmeasured operations never completed")),
        }
    }

    /// Upserts every key once (sequence number 0).
    pub fn load(&mut self, sup: &mut Supervisor) -> Res<()> {
        let keys = self.gen.config().record_count;
        let mut key = 0;
        self.unmeasured(
            keys,
            |conn| {
                let mut value = conn.gen.make_value(key);
                value[8..16].fill(0);
                conn.issue(
                    KvRequest::Upsert { key, value },
                    OpKind::Upsert { seq: 0 },
                    None,
                    0,
                );
                key += 1;
            },
            sup,
        )
    }

    pub fn warm_up(&mut self, ops: u64, sup: &mut Supervisor) -> Res<()> {
        self.unmeasured(ops, |conn| conn.issue_next(false, None, false), sup)
    }

    /// Reads every key back and compares it with the last acknowledged
    /// state.  Returns the number of mismatching keys.
    pub fn audit(&mut self, sup: &mut Supervisor) -> Res<u64> {
        let keys = self.gen.config().record_count;
        let mut key = 0;
        self.unmeasured(
            keys,
            |conn| {
                conn.issue(KvRequest::Read { key }, OpKind::Audit, None, 0);
                key += 1;
            },
            sup,
        )?;
        Ok(self.sink.lock().expect("sink mutex").audit_mismatches)
    }

    /// One measured window.  Ends by draining for at most
    /// [`DRAIN_TIMEOUT`]; what is still unanswered then is lost.
    pub fn window(
        &mut self,
        w: &Workload,
        bound: Bound,
        traced: bool,
        sup: &mut Supervisor,
    ) -> Res<WindowStats> {
        let before = self.counters();
        let (wrong0, refused0, completed0) = {
            let mut sink = self.sink.lock().expect("sink mutex");
            sink.lat_ns = Vec::with_capacity(1 << 22);
            sink.in_window = 0;
            sink.stall_max_ns = 0;
            (sink.wrong, sink.refused, sink.completed)
        };
        let start_ns = now_ns();
        let (end_ns, max_ops) = match bound {
            Bound::Seconds(s) => (start_ns + (s * 1e9) as u64, u64::MAX),
            Bound::Ops(n) => (u64::MAX, n),
        };
        // A closed loop on a timer counts what completed before the timer
        // ran out.  A fixed amount of work (a count, or an open loop's
        // schedule) is divided by the time until its last answer.
        let fixed_work = matches!(bound, Bound::Ops(_)) || w.loop_kind != LoopKind::Closed;
        {
            let mut sink = self.sink.lock().expect("sink mutex");
            sink.window_end_ns = if fixed_work { u64::MAX } else { end_ns };
            sink.last_completion_ns = start_ns;
        }
        let mut stats = WindowStats {
            start_ns,
            ..WindowStats::default()
        };
        match w.loop_kind {
            LoopKind::Closed => {
                while stats.issued < max_ops && now_ns() < end_ns {
                    let room = self.cap.saturating_sub(self.client.outstanding_ops()) as u64;
                    for _ in 0..room.min(max_ops - stats.issued) {
                        self.issue_next(true, None, traced);
                        stats.issued += 1;
                    }
                    if self.poll()? == 0 {
                        std::thread::yield_now();
                    }
                    sup.check()?;
                }
            }
            LoopKind::Open { tick_us, .. } => {
                let tick_ns = tick_us * 1000;
                let mut due_ns = start_ns;
                while due_ns < end_ns {
                    let now = now_ns();
                    if now >= due_ns {
                        let behind = now - due_ns;
                        for _ in 0..self.batch {
                            self.issue_next(true, Some(due_ns), traced);
                        }
                        self.client.flush();
                        stats.issued += self.batch as u64;
                        if behind > tick_ns {
                            stats.sent_late += self.batch as u64;
                        }
                        due_ns += tick_ns;
                    }
                    if self.poll()? == 0 && now_ns() < due_ns {
                        std::thread::yield_now();
                    }
                    sup.check()?;
                }
            }
        }
        self.drain(sup)?;
        let after = self.counters();
        let mut sink = self.sink.lock().expect("sink mutex");
        stats.end_ns = if fixed_work {
            sink.last_completion_ns
        } else {
            end_ns
        };
        stats.completed_in_window = sink.in_window;
        stats.lat_ns = std::mem::take(&mut sink.lat_ns);
        stats.lat_ns.sort_unstable();
        stats.stall_max_ns = sink.stall_max_ns;
        stats.wrong = sink.wrong - wrong0;
        stats.refused = sink.refused - refused0;
        // Unanswered after the drain, or dropped with a broken session.
        // Saturating: answers to operations an earlier window gave up on
        // (and already counted as lost) may arrive during this one.
        stats.lost = stats.issued.saturating_sub(sink.completed - completed0);
        stats.counters = ClientCounters {
            batches_sent: after.batches_sent - before.batches_sent,
            bytes_sent: after.bytes_sent - before.bytes_sent,
            batches_rejected: after.batches_rejected - before.batches_rejected,
            rerouted: after.rerouted - before.rerouted,
            ownership_refreshes: after.ownership_refreshes - before.ownership_refreshes,
        };
        Ok(stats)
    }
}
