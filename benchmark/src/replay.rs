//! Per-layer replay: the workload's own first [`REPLAY_OPS`] generated
//! operations fed straight into each layer's public functions, sized like
//! the workload's server, timed from the harness.  No sockets, no server
//! process: what a layer costs on its own.
//!
//! Every measurement is also a span (`replay.*` under one `replay` trace).

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shadowfax::{ClientConfig, Cluster, ClusterConfig};
use shadowfax_epoch::EpochManager;
use shadowfax_faster::{Faster, FasterConfig, KeyHash};
use shadowfax_hlog::{Address, HybridLog, RecordFlags, INVALID_ADDRESS};
use shadowfax_net::{
    BatchReply, Interest, KvRequest, KvResponse, Reactor, RequestBatch, SessionConfig, Token,
};
use shadowfax_rpc::{encode_frame, FrameDecoder, WireMsg, MAX_FRAME_BYTES};
use shadowfax_storage::{Device, LogId, SharedBlobTier, SimSsd};
use shadowfax_workload::{Operation, WorkloadGenerator};

use crate::driver::Res;
use crate::run::{Ctx, Metrics};
use crate::spec::Workload;
use crate::sys::{self, now_ns};
use crate::trace::Tracer;

/// Heap allocations made by this process so far (see `main.rs`).
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

const ROOT: &str = "replay";
/// Operations of the workload's stream each layer is fed.
const REPLAY_OPS: usize = 200_000;
/// The seed server's fixed device size (`LogConfig::small_for_tests`),
/// which `shadowfax-server` cannot override.
const SSD_CAPACITY: u64 = 1 << 30;

struct Recorder<'a> {
    tracer: &'a mut Tracer,
    out: &'a mut Metrics,
}

impl Recorder<'_> {
    /// Times `work`, records it as a span and stores `elapsed / units`.
    fn time<T>(&mut self, metric: &'static str, units: f64, work: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let result = work();
        let end = now_ns();
        self.tracer.span(0, metric, Some(ROOT), start, end);
        self.out.insert(metric.into(), (end - start) as f64 / units);
        result
    }
}

fn to_request(op: &Operation) -> KvRequest {
    match op {
        Operation::Read { key } => KvRequest::Read { key: *key },
        Operation::Upsert { key, value } => KvRequest::Upsert {
            key: *key,
            value: value.clone(),
        },
        Operation::ReadModifyWrite { key, delta } => KvRequest::RmwAdd {
            key: *key,
            delta: *delta,
        },
    }
}

pub fn run(ctx: &Ctx, w: &Workload, seed: u64, tracer: &mut Tracer, out: &mut Metrics) -> Res<()> {
    let started = now_ns();
    let n = REPLAY_OPS;
    let keys = ctx.spec.common.keys;
    let value_bytes = ctx.spec.common.value_bytes;
    let mut rec = Recorder { tracer, out };

    // workload
    let mut gen = ctx.spec.generator(w, seed);
    let ops: Vec<Operation> = rec.time("workload.gen_ns_per_op", n as f64, || gen.batch(n));
    let op_keys: Vec<u64> = ops.iter().map(Operation::key).collect();
    let value = gen.make_value(0);

    codec(&mut rec, w, &ops, value_bytes)?;
    reactor(&mut rec)?;
    sim_cluster(&mut rec, ctx, w, &ops, &gen)?;
    faster(&mut rec, w, keys, &op_keys, &value)?;
    hlog(&mut rec, w, &op_keys, &value)?;
    epoch(&mut rec, n);
    storage(&mut rec, &op_keys)?;

    let hist = shadowfax_obs::Histogram::new();
    rec.time("obs.hist_record_ns", n as f64, || {
        for i in 0..n as u64 {
            hist.record_ns(1_000 + i % 50_000);
        }
    });
    black_box(hist.snapshot("replay"));
    tracer.span(0, ROOT, None, started, now_ns());
    Ok(())
}

/// rpc.codec: the workload's batch shape through `encode_frame` and
/// `FrameDecoder`, both directions, with allocations counted.
fn codec(rec: &mut Recorder, w: &Workload, ops: &[Operation], value_bytes: usize) -> Res<()> {
    let n = ops.len() as f64;
    let requests: Vec<WireMsg> = ops
        .chunks(w.batch)
        .enumerate()
        .map(|(seq, chunk)| {
            WireMsg::Batch(RequestBatch {
                view: 1,
                seq: seq as u64,
                ops: chunk.iter().map(to_request).collect(),
            })
        })
        .collect();
    let replies: Vec<WireMsg> = ops
        .chunks(w.batch)
        .enumerate()
        .map(|(seq, chunk)| {
            let results = chunk
                .iter()
                .map(|op| match op {
                    Operation::Read { .. } => KvResponse::Value(Some(vec![0; value_bytes])),
                    Operation::Upsert { .. } => KvResponse::Ok,
                    Operation::ReadModifyWrite { .. } => KvResponse::Counter(1),
                })
                .collect();
            WireMsg::Reply(BatchReply::Executed {
                seq: seq as u64,
                results,
            })
        })
        .collect();
    let user_bytes: usize = ops
        .iter()
        .map(|op| match op {
            Operation::Read { .. } => 8,
            Operation::Upsert { value, .. } => 8 + value.len(),
            Operation::ReadModifyWrite { .. } => 16,
        })
        .sum();

    let decode_all = |frames: &[Vec<u8>]| -> Res<()> {
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        for frame in frames {
            decoder.extend(frame);
            match decoder.next_msg() {
                Ok(Some(msg)) => drop(black_box(msg)),
                other => return Err(format!("replayed frame did not decode: {other:?}")),
            }
        }
        Ok(())
    };
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let request_frames: Vec<Vec<u8>> = rec.time("codec.encode_batch_ns_per_op", n, || {
        requests.iter().map(encode_frame).collect()
    });
    rec.time("codec.decode_batch_ns_per_op", n, || {
        decode_all(&request_frames)
    })?;
    let reply_frames: Vec<Vec<u8>> = rec.time("codec.encode_reply_ns_per_op", n, || {
        replies.iter().map(encode_frame).collect()
    });
    rec.time("codec.decode_reply_ns_per_op", n, || {
        decode_all(&reply_frames)
    })?;
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    rec.out
        .insert("codec.allocs_per_op".into(), allocs as f64 / n);
    let wire_bytes: usize = request_frames.iter().map(Vec::len).sum();
    rec.out.insert(
        "codec.frame_overhead_bytes".into(),
        (wire_bytes - user_bytes) as f64 / request_frames.len() as f64,
    );
    Ok(())
}

/// net.reactor: the wake path and a readiness harvest, on one thread.
fn reactor(rec: &mut Recorder) -> Res<()> {
    const ROUNDS: usize = 50_000;
    let io = |e: std::io::Error| format!("reactor replay: {e}");
    let reactor = Reactor::new().map_err(io)?;
    let mut events = Vec::new();
    rec.time("reactor.wake_to_poll_ns", ROUNDS as f64, || {
        for _ in 0..ROUNDS {
            reactor.wake();
            black_box(reactor.poll(&mut events, Some(Duration::ZERO)).ok());
        }
    });
    let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().map_err(io)?;
    rx.set_nonblocking(true).map_err(io)?;
    reactor
        .register(rx.as_raw_fd(), Token(1), Interest::READABLE)
        .map_err(io)?;
    let mut byte = [0u8; 1];
    let started = now_ns();
    let mut in_poll = 0;
    for _ in 0..ROUNDS {
        tx.write_all(&[1]).map_err(io)?;
        let t = now_ns();
        reactor
            .poll(&mut events, Some(Duration::ZERO))
            .map_err(io)?;
        in_poll += now_ns() - t;
        if events.len() != 1 {
            return Err(format!(
                "reactor replay: {} events for one ready socket",
                events.len()
            ));
        }
        rx.read_exact(&mut byte).map_err(io)?;
    }
    rec.tracer
        .span(0, "reactor.poll_ready_ns", Some(ROOT), started, now_ns());
    rec.out.insert(
        "reactor.poll_ready_ns".into(),
        in_poll as f64 / ROUNDS as f64,
    );
    Ok(())
}

/// core.server: session + view validation + dispatch + store through an
/// in-process cluster on the instant simulated network (no TCP, no codec).
/// The dispatch thread is pinned where the real servers run, the client
/// stays where the real client runs.
fn sim_cluster(
    rec: &mut Recorder,
    ctx: &Ctx,
    w: &Workload,
    ops: &[Operation],
    gen: &WorkloadGenerator,
) -> Res<()> {
    let mut config = ClusterConfig::two_server_test();
    config.servers = 1;
    config.server_template.threads = 1;
    config.server_template.faster.log = w.log_config();
    let pin = |cpus: &[usize]| sys::pin_current_thread(cpus).map_err(|e| format!("pin: {e}"));
    pin(&ctx.server_cpus)?;
    let cluster = Cluster::start(config);
    pin(&ctx.client_cpus)?;
    let mut client = cluster.client(ClientConfig::default().with_session(SessionConfig {
        max_batch_ops: w.batch,
        max_batch_bytes: usize::MAX,
        max_inflight_batches: w.inflight,
    }));
    let cap = w.batch * w.inflight;
    let mut drive = |requests: &mut dyn Iterator<Item = KvRequest>| -> Res<()> {
        let deadline = now_ns() + 60_000_000_000;
        let mut pending = requests.peekable();
        while pending.peek().is_some() || client.outstanding_ops() > 0 {
            while client.outstanding_ops() < cap {
                match pending.next() {
                    Some(req) => drop(client.issue(req, Box::new(|resp| drop(black_box(resp))))),
                    None => break,
                }
            }
            client.flush();
            if client.poll() == 0 {
                std::thread::yield_now();
            }
            if now_ns() > deadline {
                return Err("in-process cluster replay made no progress for 60 s".into());
            }
        }
        Ok(())
    };
    drive(
        &mut gen
            .load_phase()
            .map(|(key, value)| KvRequest::Upsert { key, value }),
    )?;
    rec.time("core_server.sim_ns_per_op", ops.len() as f64, || {
        drive(&mut ops.iter().map(to_request))
    })?;
    cluster.shutdown();
    Ok(())
}

/// faster: each operation kind on the workload's key stream, against a
/// standalone store sized like the workload's server.
fn faster(rec: &mut Recorder, w: &Workload, keys: u64, op_keys: &[u64], value: &[u8]) -> Res<()> {
    let store = Faster::standalone(
        FasterConfig {
            log: w.log_config(),
            ..FasterConfig::small_for_tests()
        },
        Arc::new(SimSsd::new(SSD_CAPACITY)),
    );
    let session = store.start_session();
    let err = |e: shadowfax_faster::FasterError| format!("faster replay: {e}");
    for key in 0..keys {
        session.upsert(key, value).map_err(err)?;
        session.refresh();
    }
    let n = op_keys.len() as f64;
    rec.time("faster.index_probe_ns", n, || {
        for &key in op_keys {
            black_box(store.index().find_entry(KeyHash::of(key)));
        }
    });
    // The dispatch loop refreshes its epoch between batches; so does this.
    let mut each = |metric, op: &dyn Fn(u64) -> Res<()>| {
        rec.time(metric, n, || {
            for (i, &key) in op_keys.iter().enumerate() {
                op(key)?;
                if i % w.batch == 0 {
                    session.refresh();
                }
            }
            Ok::<(), String>(())
        })
    };
    each("faster.read_ns", &|key| {
        session.read(key).map(|v| drop(black_box(v))).map_err(err)
    })?;
    each("faster.rmw_ns", &|key| {
        session
            .rmw_add(key, 1, value)
            .map(|c| _ = black_box(c))
            .map_err(err)
    })?;
    each("faster.upsert_ns", &|key| {
        session.upsert(key, value).map_err(err)
    })
}

/// hlog: tail allocation (with the page flushes it causes) and reads from
/// the in-memory and the stable region.
fn hlog(rec: &mut Recorder, w: &Workload, op_keys: &[u64], value: &[u8]) -> Res<()> {
    let epoch = Arc::new(EpochManager::new());
    let thread = epoch.register();
    let tier = SharedBlobTier::new(SSD_CAPACITY);
    let log = HybridLog::new(
        w.log_config(),
        Arc::new(SimSsd::new(SSD_CAPACITY)),
        Some(tier.handle(LogId(0))),
        Arc::clone(&epoch),
    );
    let n = op_keys.len() as f64;
    let addrs = rec.time("hlog.append_ns", n, || {
        op_keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                if i % w.batch == 0 {
                    thread.refresh();
                }
                log.append(
                    key,
                    value,
                    INVALID_ADDRESS,
                    1,
                    RecordFlags::empty(),
                    &thread,
                )
                .map_err(|e| format!("hlog replay: {e}"))
            })
            .collect::<Res<Vec<_>>>()
    })?;
    let head = log.head_address();
    let (stable, memory): (Vec<Address>, Vec<Address>) =
        addrs.iter().partition(|addr| **addr < head);
    for (metric, region) in [
        ("hlog.read_mem_ns", &memory),
        ("hlog.read_stable_ns", &stable),
    ] {
        const READS: usize = 50_000;
        if region.is_empty() {
            rec.out.insert(metric.into(), 0.0);
            continue;
        }
        rec.time(metric, READS as f64, || {
            for addr in region.iter().cycle().take(READS) {
                let guard = thread.protect();
                black_box(log.read_record(*addr, &guard).ok());
            }
        });
    }
    Ok(())
}

fn epoch(rec: &mut Recorder, n: usize) {
    let manager = Arc::new(EpochManager::new());
    let thread = manager.register();
    rec.time("epoch.protect_ns", n as f64, || {
        for _ in 0..n {
            drop(black_box(thread.protect()));
        }
    });
    // One global cut: protected at the old epoch, bump, observe the new one.
    let cuts = n / 10;
    rec.time("epoch.bump_drain_ns", cuts as f64, || {
        for _ in 0..cuts {
            thread.refresh();
            manager.bump_with_action(|| {});
            thread.refresh();
        }
    });
}

/// storage: the simulated SSD and the shared tier with page-sized writes
/// and record-sized reads (their latency models are `instant`: this is
/// memory-copy cost, not device time).
fn storage(rec: &mut Recorder, op_keys: &[u64]) -> Res<()> {
    const PAGE: usize = 64 * 1024;
    const PAGES: usize = 512;
    const RECORD: usize = 280;
    let err = |e: shadowfax_storage::DeviceError| format!("storage replay: {e}");
    let page = vec![0xA5u8; PAGE];
    let kib = (PAGES * PAGE / 1024) as f64;
    let ssd = SimSsd::new(SSD_CAPACITY);
    rec.time("storage.ssd_write_ns_per_kib", kib, || {
        (0..PAGES).try_for_each(|i| ssd.write((i * PAGE) as u64, &page))
    })
    .map_err(err)?;
    let records = (PAGES * PAGE / RECORD) as u64;
    let mut buf = [0u8; RECORD];
    rec.time("storage.ssd_read_ns", op_keys.len() as f64, || {
        op_keys
            .iter()
            .try_for_each(|key| ssd.read(key % records * RECORD as u64, &mut buf))
    })
    .map_err(err)?;
    let tier = SharedBlobTier::new(SSD_CAPACITY);
    rec.time("storage.tier_write_ns_per_kib", kib, || {
        (0..PAGES).try_for_each(|i| tier.write_log(LogId(0), (i * PAGE) as u64, &page))
    })
    .map_err(err)
}
