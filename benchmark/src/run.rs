//! One benchmark run of one workload: set-up, measured window(s), audit,
//! and the metrics computed from what was observed from outside the
//! server (client counters, control-plane scrapes, `/proc`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot};
use shadowfax_rpc::CtrlClient;

use crate::driver::{Bound, Conn, Res, Sink, Supervisor, WindowStats};
use crate::procs::{self, ServerProc};
use crate::spec::{Spec, Workload};
use crate::stats::{median, percentile};
use crate::sys::{self, now_ns};
use crate::trace::{self, Tracer};

/// Wall-clock budget of one run; past it the run is reported as failed.
const RUN_DEADLINE_S: u64 = 150;
/// Session shape of the load and audit phases, whatever the workload's
/// own shape (20,000 one-at-a-time round trips would take half a minute).
const BULK_BATCH: usize = 64;
const BULK_INFLIGHT: usize = 8;
/// A run fails when `client.ops_per_batch` is further than this share from
/// the workload's configured batch size.
const BATCH_SHAPE_TOLERANCE: f64 = 0.05;

/// What every run shares.
pub struct Ctx {
    pub spec: Spec,
    pub server_bin: PathBuf,
    pub build_s: f64,
    pub server_cpus: Vec<usize>,
    pub client_cpus: Vec<usize>,
}

pub type Metrics = BTreeMap<String, f64>;

/// The result of one run, as the last output line and the result file
/// report it.
pub struct RunOutput {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why operations failed or an assertion did not hold; empty when
    /// `correct`.
    pub reasons: Vec<String>,
    pub metrics: Metrics,
}

/// Servers, their control connections and the measured client.
struct Live {
    servers: Vec<ServerProc>,
    ctrls: Vec<CtrlClient>,
    conn: Conn,
    sink: Arc<Mutex<Sink>>,
    setup_s: f64,
}

fn server_args(w: &Workload, index: usize, ports: &[u16]) -> Vec<String> {
    let mut args: Vec<String> = [
        "--listen",
        &format!("127.0.0.1:{}", ports[index]),
        "--servers",
        "1",
        "--threads",
        "1",
        "--io-threads",
        "1",
        "--metrics-log-secs",
        "0",
        "--memory-pages",
        &w.memory_pages.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if ports.len() > 1 {
        args.extend(["--layout".into(), "scale-out".into()]);
        args.extend(["--base-id".into(), index.to_string()]);
        for (peer, port) in ports.iter().enumerate().filter(|(p, _)| *p != index) {
            args.push("--peer".into());
            args.push(format!("id={peer},addr=127.0.0.1:{port},threads=1"));
        }
    }
    args
}

/// spawn -> LISTENING -> load every key -> warm-up, timed as `setup_s`.
fn set_up(ctx: &Ctx, w: &Workload, seed: u64, deadline_ns: u64) -> Res<Live> {
    let started = now_ns();
    // One process listens on an ephemeral port; two must know each other's.
    let ports: Vec<u16> = if w.processes == 1 {
        vec![0]
    } else {
        (0..w.processes)
            .map(|_| procs::free_port())
            .collect::<Res<_>>()?
    };
    let mut servers = Vec::new();
    for index in 0..w.processes {
        servers.push(ServerProc::spawn(
            &ctx.server_bin,
            &server_args(w, index, &ports),
            &ctx.server_cpus,
            &format!("server-{}-p{index}", w.name),
            Duration::from_secs(10),
        )?);
    }
    let ctrls = servers
        .iter()
        .map(|s| {
            CtrlClient::connect(&s.addr, Duration::from_secs(5))
                .map_err(|e| format!("control connection to {}: {e}", s.addr))
        })
        .collect::<Res<Vec<_>>>()?;
    let sink = Sink::new(&ctx.spec);
    let addr = servers[0].addr.clone();
    let mut sup = Supervisor::new(&mut servers, deadline_ns);
    let connect = |batch, inflight| {
        Conn::connect(
            &addr,
            &ctx.spec,
            w,
            batch,
            inflight,
            seed,
            Arc::clone(&sink),
        )
    };
    connect(BULK_BATCH, BULK_INFLIGHT)?.load(&mut sup)?;
    let mut conn = connect(w.batch, w.inflight)?;
    conn.warm_up(w.warmup_ops, &mut sup)?;
    Ok(Live {
        servers,
        ctrls,
        conn,
        sink,
        setup_s: (now_ns() - started) as f64 / 1e9,
    })
}

/// `/proc` accounting of one server process at one instant.
struct ProcSample {
    cpu_s: f64,
    tasks: Vec<sys::TaskInfo>,
    peak_rss_mib: f64,
}

/// One live migration, as the control thread saw it.
struct MigrationObs {
    id: u64,
    ms: f64,
    cancelled: bool,
}

/// A window plus everything sampled around it.
struct Measured {
    win: WindowStats,
    sampled_s: f64,
    before: Vec<MetricsSnapshot>,
    after: Vec<MetricsSnapshot>,
    proc_before: Vec<ProcSample>,
    proc_after: Vec<ProcSample>,
    self_cpu_s: f64,
    migrations: Vec<MigrationObs>,
}

fn scrape(ctrls: &mut [CtrlClient]) -> Res<Vec<MetricsSnapshot>> {
    ctrls
        .iter_mut()
        .map(|c| c.metrics().map_err(|e| format!("metrics scrape: {e}")))
        .collect()
}

fn sample_procs(servers: &[ServerProc]) -> Res<Vec<ProcSample>> {
    servers
        .iter()
        .map(|s| {
            Some(ProcSample {
                cpu_s: sys::process_cpu_s(s.pid)?,
                tasks: sys::tasks(s.pid),
                peak_rss_mib: sys::process_peak_rss_mib(s.pid)?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "a server's /proc entry is gone".to_string())
}

/// Which of a server pair's planned migrations one window performs.
#[derive(Debug, Clone, Copy)]
struct ChurnPlan {
    first: u32,
    count: u32,
    /// Migrations planned over the servers' whole life.
    total: u32,
}

/// The mostly sleeping control thread of `migrate-churn`: `count` times,
/// evenly spread over the window, moves the next `1 / (total + 1)` of the
/// hash space from server 0 to server 1 (each command peels that share
/// off the front of what server 0 still owns), and times command sent ->
/// `MIG_STATE complete`.
///
/// Ownership only ever moves one way.  Handing a range *back* loses
/// acknowledged updates at the seed: the former owner still holds its old
/// copy of every record and `insert_migrated_record` keeps a local copy
/// over the shipped one, so the audit fails; see the README's findings.
fn churn(
    addrs: &[String],
    plan: ChurnPlan,
    start_ns: u64,
    window_s: f64,
) -> Res<Vec<MigrationObs>> {
    let mut ctrl = CtrlClient::connect(&addrs[0], Duration::from_secs(5))
        .map_err(|e| format!("control connection for migrations: {e}"))?;
    let period_ns = (window_s * 1e9) as u64 / u64::from(plan.count);
    let mut seen = Vec::new();
    for i in 0..plan.count {
        let due = start_ns + u64::from(i) * period_ns + period_ns / 4;
        std::thread::sleep(Duration::from_nanos(due.saturating_sub(now_ns())));
        let fraction = 1.0 / f64::from(plan.total + 1 - (plan.first + i));
        let sent = now_ns();
        let id = ctrl
            .migrate_fraction(0, 1, fraction)
            .map_err(|e| format!("migrate 0->1 {fraction:.3}: {e}"))?;
        let state = loop {
            let state = ctrl
                .migration_status(id)
                .map_err(|e| format!("migration {id} status: {e}"))?;
            if state.complete || state.cancelled {
                break state;
            }
            if now_ns() - sent > 10_000_000_000 {
                return Err(format!("migration {id} did not settle within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        seen.push(MigrationObs {
            id,
            ms: (now_ns() - sent) as f64 / 1e6,
            cancelled: state.cancelled,
        });
    }
    Ok(seen)
}

fn measure(
    w: &Workload,
    live: &mut Live,
    bound: Bound,
    traced: bool,
    churn_plan: ChurnPlan,
    deadline_ns: u64,
) -> Res<Measured> {
    let before = scrape(&mut live.ctrls)?;
    let proc_before = sample_procs(&live.servers)?;
    let self_cpu_before = sys::process_cpu_s(std::process::id()).unwrap_or(0.0);
    let sampled_from = now_ns();
    let addrs: Vec<String> = live.servers.iter().map(|s| s.addr.clone()).collect();
    let window_s = match bound {
        Bound::Seconds(s) => s,
        Bound::Ops(_) => w.nominal_seconds,
    };
    let mut sup = Supervisor::new(&mut live.servers, deadline_ns);
    let conn = &mut live.conn;
    let (win, migrations) = std::thread::scope(|scope| {
        let control = (churn_plan.count > 0)
            .then(|| scope.spawn(|| churn(&addrs, churn_plan, sampled_from, window_s)));
        let win = conn.window(w, bound, traced, &mut sup);
        let migrations = match control {
            Some(handle) => handle.join().map_err(|_| "control thread panicked")?,
            None => Ok(Vec::new()),
        };
        Ok::<_, String>((win?, migrations?))
    })?;
    let sampled_s = (now_ns() - sampled_from) as f64 / 1e9;
    let self_cpu_s = sys::process_cpu_s(std::process::id()).unwrap_or(0.0) - self_cpu_before;
    Ok(Measured {
        win,
        sampled_s,
        proc_after: sample_procs(&live.servers)?,
        after: scrape(&mut live.ctrls)?,
        before,
        proc_before,
        self_cpu_s,
        migrations,
    })
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Sum over processes of the growth of every counter ending in `suffix`.
fn counter_delta(m: &Measured, suffix: &str) -> f64 {
    let sum =
        |snaps: &[MetricsSnapshot]| -> u64 { snaps.iter().map(|s| s.counter_family(suffix)).sum() };
    sum(&m.after).saturating_sub(sum(&m.before)) as f64
}

/// Lower edge (ns) of bucket `idx`, asked of the obs crate itself so the
/// harness does not re-derive its log-linear layout.
fn bucket_floor_ns(idx: u32) -> f64 {
    HistogramSnapshot {
        count: 1,
        max_ns: u64::MAX,
        buckets: vec![(idx, 1)],
        ..HistogramSnapshot::default()
    }
    .percentile_ns(100.0) as f64
}

/// Percentile (ns) of the samples the `rpc.latency.{read,upsert}`
/// histograms gained during the window, all processes merged, interpolated
/// linearly inside the bucket the rank falls in.
fn service_percentile_ns(m: &Measured, p: f64) -> f64 {
    let mut buckets: BTreeMap<u32, i64> = BTreeMap::new();
    for (snaps, sign) in [(&m.after, 1), (&m.before, -1)] {
        for hist in snaps.iter().flat_map(|s| &s.histograms) {
            if hist.name == "rpc.latency.read" || hist.name == "rpc.latency.upsert" {
                for &(idx, count) in &hist.buckets {
                    *buckets.entry(idx).or_default() += sign * count as i64;
                }
            }
        }
    }
    let total: i64 = buckets.values().sum();
    let target = p / 100.0 * total as f64;
    let mut seen = 0.0;
    for (&idx, &count) in buckets.iter().filter(|(_, &c)| c > 0) {
        if seen + count as f64 >= target {
            let (lo, hi) = (bucket_floor_ns(idx), bucket_floor_ns(idx + 1));
            return lo + (hi - lo) * (target - seen) / count as f64;
        }
        seen += count as f64;
    }
    0.0
}

/// CPU seconds threads matching `pick` gained, summed over processes.
fn thread_cpu_s(m: &Measured, pick: fn(&str) -> bool) -> f64 {
    let sum = |samples: &[ProcSample]| -> f64 {
        samples
            .iter()
            .flat_map(|p| &p.tasks)
            .filter(|t| pick(&t.name))
            .map(|t| t.cpu_s)
            .sum()
    };
    sum(&m.proc_after) - sum(&m.proc_before)
}

/// Median duration (ms) from each migration's `from` phase event to its
/// `to` phase event on the servers' `migration.phase` timelines.
fn phase_ms(m: &Measured, from: &str, to: &str) -> f64 {
    let durations: Vec<f64> = m
        .migrations
        .iter()
        .filter_map(|mig| {
            m.after.iter().find_map(|snap| {
                let at = |label: &str| {
                    snap.events
                        .iter()
                        .find(|e| e.name == "migration.phase" && e.id == mig.id && e.label == label)
                        .map(|e| e.at_micros as f64)
                };
                Some((at(to)? - at(from)?) / 1e3)
            })
        })
        .collect();
    median(&durations)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric that one measured window yields.  Replay and span metrics
/// are added by the traced run.
fn window_metrics(ctx: &Ctx, w: &Workload, m: &Measured, setup_s: f64, out: &mut Metrics) {
    let win = &m.win;
    let answered = (win.issued - win.lost) as f64;
    let verified = (win.completed_in_window as f64 - (win.wrong + win.refused) as f64).max(0.0);
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("ops_per_s", verified / win.seconds());
    let lat_p50_us = percentile(&win.lat_ns, 50.0) / 1e3;
    put("lat_p50_us", lat_p50_us);
    put("lat_p95_us", percentile(&win.lat_ns, 95.0) / 1e3);
    put("lat_p99_us", percentile(&win.lat_ns, 99.0) / 1e3);
    put("lat_samples", win.lat_ns.len() as f64);
    let server_cpu_s: f64 = m
        .proc_after
        .iter()
        .zip(&m.proc_before)
        .map(|(a, b)| a.cpu_s - b.cpu_s)
        .sum();
    put("server_cpu_us_per_op", ratio(server_cpu_s * 1e6, answered));
    put(
        "server_rss_mb",
        m.proc_after
            .iter()
            .map(|p| p.peak_rss_mib)
            .fold(0.0, f64::max),
    );
    put("setup_s", setup_s);

    let migration_ms: Vec<f64> = m.migrations.iter().map(|mig| mig.ms).collect();
    put("migration_p50_ms", median(&migration_ms));

    let c = &win.counters;
    put(
        "client.ops_per_batch",
        ratio(win.issued as f64, c.batches_sent as f64),
    );
    put(
        "client.wire_bytes_per_op",
        ratio(c.bytes_sent as f64, win.issued as f64),
    );
    put("client.batches_rejected", c.batches_rejected as f64);
    put("client.rerouted", c.rerouted as f64);
    put("client.ownership_refreshes", c.ownership_refreshes as f64);
    put("client.stall_max_ms", win.stall_max_ns as f64 / 1e6);
    put(
        "client.late_share",
        ratio(win.sent_late as f64, win.issued as f64),
    );
    put("client.cpu_share", ratio(m.self_cpu_s, m.sampled_s));

    let service_p50_us = service_percentile_ns(m, 50.0) / 1e3;
    put("rpc_server.service_us_p50", service_p50_us);
    put(
        "rpc_server.service_us_p99",
        service_percentile_ns(m, 99.0) / 1e3,
    );
    put(
        "rpc_server.wire_and_handoff_us_p50",
        lat_p50_us - service_p50_us,
    );
    put(
        "rpc_server.io_cpu_share",
        ratio(thread_cpu_s(m, procs::is_io_thread), m.sampled_s),
    );
    let ctx_switches = |samples: &[ProcSample]| -> u64 {
        samples
            .iter()
            .flat_map(|p| &p.tasks)
            .map(|t| t.ctx_switches)
            .sum()
    };
    put(
        "rpc_server.ctxsw_per_kop",
        ratio(
            ctx_switches(&m.proc_after).saturating_sub(ctx_switches(&m.proc_before)) as f64 * 1e3,
            answered,
        ),
    );
    put(
        "rpc_server.dropped_slow_reader",
        counter_delta(m, "rpc.conns.dropped_slow_reader"),
    );
    put(
        "rpc_server.outbuf_hwm_bytes",
        m.after
            .iter()
            .filter_map(|s| s.gauge("rpc.conns.outbuf_hwm_bytes"))
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "rpc_server.timings_dropped",
        counter_delta(m, "rpc.latency.timings_dropped"),
    );

    put(
        "core_server.dispatch_cpu_share",
        ratio(thread_cpu_s(m, procs::is_dispatch_thread), m.sampled_s),
    );
    put(
        "core_server.pended_per_kop",
        ratio(counter_delta(m, ".ops.pended_total") * 1e3, answered),
    );

    put("migration.sampling_ms", phase_ms(m, "sampling", "prepare"));
    put("migration.prepare_ms", phase_ms(m, "prepare", "transfer"));
    put("migration.transfer_ms", phase_ms(m, "transfer", "migrate"));
    put("migration.migrate_ms", phase_ms(m, "migrate", "complete"));
    put(
        "migration.cmd_to_complete_max_ms",
        migration_ms.iter().copied().fold(0.0, f64::max),
    );
    put(
        "migration.cancelled",
        counter_delta(m, ".migration.cancelled"),
    );

    let in_place = counter_delta(m, ".store.in_place_updates");
    put(
        "faster.in_place_share",
        ratio(in_place, in_place + counter_delta(m, ".store.rcu_appends")),
    );
    put(
        "faster.stable_read_share",
        ratio(
            counter_delta(m, ".store.stable_reads"),
            counter_delta(m, ".store.reads"),
        ),
    );
    put(
        "hlog.appended_bytes_per_op",
        ratio(counter_delta(m, ".ssd.bytes_written"), answered),
    );
    put(
        "storage.ssd_reads_per_op",
        ratio(counter_delta(m, ".ssd.reads"), answered),
    );
    let user_bytes = answered * w.upsert * (8 + ctx.spec.common.value_bytes) as f64;
    put(
        "storage.tier_bytes_per_user_byte",
        ratio(counter_delta(m, "tier.shared.bytes_written"), user_bytes),
    );
}

/// The workload's discriminating assertions and the batch-shape check;
/// returns the reasons that did not hold.
fn check_expectations(w: &Workload, m: &Measured, metrics: &Metrics) -> Vec<String> {
    let mut reasons = Vec::new();
    let get = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let per_batch = get("client.ops_per_batch");
    // Re-routed operations go out again in partial batches, so the shape
    // is only asserted where ownership does not move.
    if w.migrations == 0 && (per_batch / w.batch as f64 - 1.0).abs() > BATCH_SHAPE_TOLERANCE {
        reasons.push(format!(
            "batch shape: {per_batch:.2} ops per batch, configured {}",
            w.batch
        ));
    }
    if get("rpc_server.dropped_slow_reader") > 0.0 {
        reasons.push("the server dropped the connection as a slow reader".into());
    }
    let ssd_writes = counter_delta(m, ".ssd.writes");
    if w.expect_no_ssd_writes && ssd_writes > 0.0 {
        reasons.push(format!("expected no SSD writes, saw {ssd_writes}"));
    }
    let ssd_reads = counter_delta(m, ".ssd.reads");
    if w.expect_no_ssd_reads && ssd_reads > 0.0 {
        reasons.push(format!(
            "expected the log to stay in memory, saw {ssd_reads} SSD reads"
        ));
    }
    if let Some(max) = w.expect_in_place_share_max {
        if get("faster.in_place_share") > max {
            reasons.push(format!(
                "faster.in_place_share {:.3} above {max}",
                get("faster.in_place_share")
            ));
        }
    }
    if let Some(min) = w.expect_stable_read_share_min {
        if get("faster.stable_read_share") < min {
            reasons.push(format!(
                "faster.stable_read_share {:.3} below {min}",
                get("faster.stable_read_share")
            ));
        }
    }
    reasons
}

/// A migration that did not complete fails the run; the servers say why.
fn cancelled_migrations(m: &Measured, servers: &[ServerProc]) -> Vec<String> {
    let cancelled = m.migrations.iter().filter(|mig| mig.cancelled).count();
    if cancelled == 0 && counter_delta(m, ".migration.cancelled") == 0.0 {
        return Vec::new();
    }
    let mut reasons = vec![format!(
        "{cancelled} of {} migrations cancelled",
        m.migrations.len()
    )];
    reasons.extend(servers.iter().flat_map(|s| s.logged("cancelled")));
    reasons
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

fn window_bound(ctx: &Ctx, w: &Workload, seconds: f64, share: f64) -> Bound {
    match ctx.spec.window_ops(w, seconds) {
        Some(ops) => Bound::Ops((ops as f64 * share) as u64),
        None => Bound::Seconds(seconds * share),
    }
}

/// Span-derived metrics of the traced window.
fn span_metrics(tracer: &Tracer, w: &Workload, out: &mut Metrics) {
    let issue = tracer.durations(trace::ISSUE);
    let flush = tracer.durations(trace::FLUSH);
    let mean = |d: &[u64]| ratio(d.iter().sum::<u64>() as f64, d.len() as f64);
    out.insert(
        "client.issue_ns_per_op".into(),
        mean(&issue) / w.batch as f64,
    );
    out.insert("client.flush_us_per_batch".into(), mean(&flush) / 1e3);
    out.insert(
        "client.wait_us_p50".into(),
        percentile(&tracer.durations(trace::WAIT), 50.0) / 1e3,
    );
    out.insert(
        "client.complete_us_p50".into(),
        percentile(&tracer.durations(trace::COMPLETE), 50.0) / 1e3,
    );
}

/// Adds one window's attempted and failed operations, with their causes.
fn tally(win: &WindowStats, into: &mut RunOutput) {
    into.attempted += win.issued;
    into.failed += win.lost + win.wrong + win.refused;
    for (count, cause) in [
        (win.lost, "lost (unanswered 10 s after the window)"),
        (win.wrong, "answered wrongly"),
        (win.refused, "refused"),
    ] {
        if count > 0 {
            into.reasons.push(format!("{count} operations {cause}"));
        }
    }
}

fn try_run(ctx: &Ctx, w: &Workload, out: &mut RunOutput) -> Res<()> {
    let (seed, seconds, traced) = (out.seed, out.seconds, out.traced);
    let deadline_ns = now_ns() + RUN_DEADLINE_S * 1_000_000_000;
    let mut live = set_up(ctx, w, seed, deadline_ns)?;
    let setup_s = live.setup_s;

    // Untraced window: all of `--seconds` and every migration, or the
    // first half of both when a traced window follows.
    let share = if traced { 0.5 } else { 1.0 };
    let bound = window_bound(ctx, w, seconds, share);
    let mut plan = ChurnPlan {
        first: 0,
        count: (f64::from(w.migrations) * share) as u32,
        total: w.migrations,
    };
    let plain = measure(w, &mut live, bound, false, plan, deadline_ns)?;
    tally(&plain.win, out);
    window_metrics(ctx, w, &plain, setup_s, &mut out.metrics);
    let unmet = check_expectations(w, &plain, &out.metrics);
    out.reasons.extend(unmet);
    out.reasons
        .extend(cancelled_migrations(&plain, &live.servers));

    if traced {
        live.sink.lock().expect("sink mutex").tracer = Some(Tracer::default());
        plan.first = plan.count;
        plan.count = w.migrations - plan.first;
        let traced_m = measure(w, &mut live, bound, true, plan, deadline_ns)?;
        tally(&traced_m.win, out);
        out.reasons
            .extend(cancelled_migrations(&traced_m, &live.servers));
        let traced_ops_per_s = traced_m.win.completed_in_window as f64 / traced_m.win.seconds();
        let overhead = 1.0 - ratio(traced_ops_per_s, out.metrics["ops_per_s"]);
        out.metrics.insert("trace.overhead_share".into(), overhead);
    }

    let mut sup = Supervisor::new(&mut live.servers, deadline_ns);
    let addr = sup.servers[0].addr.clone();
    let sink = Arc::clone(&live.sink);
    let mismatches = Conn::connect(&addr, &ctx.spec, w, BULK_BATCH, BULK_INFLIGHT, seed, sink)?
        .audit(&mut sup)?;
    if mismatches > 0 {
        out.failed += mismatches;
        out.reasons
            .push(format!("{mismatches} keys failed the read-back audit"));
    }
    if let Some(first) = live.sink.lock().expect("sink mutex").first_error.clone() {
        out.reasons.push(format!("first failure: {first}"));
    }
    let tracer = live.sink.lock().expect("sink mutex").tracer.take();
    drop(live);

    if let Some(mut tracer) = tracer {
        span_metrics(&tracer, w, &mut out.metrics);
        crate::replay::run(ctx, w, seed, &mut tracer, &mut out.metrics)?;
        let path = PathBuf::from(procs::OUT_DIR).join(format!("trace-{}.json", w.name));
        tracer.write(&path, crate::report::environment(ctx, w, seed, seconds))?;
    }
    Ok(())
}

/// Runs one workload once.  A run that cannot finish (server died,
/// deadline passed) is reported as failed in full, never left hanging.
pub fn run_workload(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let mut out = RunOutput {
        workload: w.name.clone(),
        seed,
        seconds,
        traced,
        attempted: 0,
        failed: 0,
        correct: false,
        reasons: Vec::new(),
        metrics: Metrics::new(),
    };
    if let Err(reason) = try_run(ctx, w, &mut out) {
        // failed_share = 1: nothing this run measured can be trusted.
        out.failed = out.attempted.max(1);
        out.reasons.insert(0, format!("run failed: {reason}"));
    }
    let leaked = sys::live_children();
    if !leaked.is_empty() {
        out.reasons
            .push(format!("leaked child processes: {leaked:?}"));
    }
    out.attempted = out.attempted.max(1);
    // Every window's lost, wrong and refused operations plus the keys that
    // failed the read-back audit, against every operation attempted.
    out.metrics.insert(
        "failed_share".into(),
        (out.failed as f64 / out.attempted as f64).min(1.0),
    );
    out.correct = out.reasons.is_empty();
    out
}
