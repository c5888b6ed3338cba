//! A globally-partitioned three-process cluster: the layout the paper's
//! deployments assume (every server owns a slice of the hash space from the
//! first request), with no "server 0 owns everything" bootstrap.
//!
//! Three `shadowfax-server` processes are spawned with `--layout
//! partitioned`; each hosts one server owning a third of the space.
//! Verified here:
//!
//! * every process resolves the **same** ownership map (thirds, disjoint,
//!   covering the space) — printed as `LAYOUT_SUMMARY ...` for the CI job
//!   summary,
//! * a mixed write load over the whole keyspace is routed correctly **from
//!   the first operation**: zero batch rejections, zero re-routes, and all
//!   three servers take traffic — no warm-up migration needed,
//! * a live migration between servers 1 and 2 — neither of which is the
//!   coordinator (server 0) that historically participated in every
//!   multi-process scenario — completes under load with the cut-over
//!   observed live, and
//! * a second migration between the same non-zero pair is **cancelled**
//!   mid-sampling from the control plane; ownership rolls back and serving
//!   resumes,
//! * **zero acknowledged-write loss** end to end: after the completed
//!   migration and the cancelled one, every key reads back at a generation
//!   at least as new as the last one the cluster acknowledged.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowfax_net::{KvRequest, KvResponse, SessionConfig};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig, WireOwnership};

mod util;
use util::{ClusterSpec, ProcessSpec};

const KEYS: u64 = 900;
const VALUE_PAD: usize = 64;

fn value_for(key: u64, gen: u64) -> Vec<u8> {
    let mut v = format!("k{key}:g{gen}").into_bytes();
    v.resize(VALUE_PAD, b' ');
    v
}

fn gen_of(key: u64, value: &[u8]) -> u64 {
    let s = std::str::from_utf8(value).expect("value is UTF-8");
    let s = s.trim_end();
    let prefix = format!("k{key}:g");
    s.strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("value for key {key} is malformed: {s:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("value for key {key} has a bad generation: {s:?}"))
}

/// The `(id, ranges)` pairs of a snapshot, normalized for comparison
/// (views differ between processes once a migration has run; the *ranges*
/// are what every process must agree on at startup).
fn range_map(own: &WireOwnership) -> Vec<(u32, Vec<(u64, u64)>)> {
    let mut map: Vec<(u32, Vec<(u64, u64)>)> = own
        .servers
        .iter()
        .map(|s| (s.id, s.ranges.clone()))
        .collect();
    map.sort();
    map
}

#[test]
fn three_process_partitioned_cluster_routes_migrates_and_cancels() {
    // One of the two CI proofs that the full multi-process serving path
    // (routing, migration, cancellation) holds with dispatch threads
    // owning their sockets and parking when idle.
    let cluster = ClusterSpec {
        name: "partitioned_layout",
        layout: "partitioned",
        tier: false,
        processes: vec![
            ProcessSpec {
                memory_pages: Some(128),
                ..ProcessSpec::default()
            },
            // Server 1 is the source of both migrations below; a long
            // sampling phase gives the cancellation a deterministic window
            // to land in.
            ProcessSpec {
                memory_pages: Some(128),
                sampling_ms: Some(1_500),
                ..ProcessSpec::default()
            },
            ProcessSpec {
                memory_pages: Some(128),
                ..ProcessSpec::default()
            },
        ],
    }
    .spawn();

    // Every process resolved the same balanced layout: three owners, each
    // with a nonempty slice, identical across all three metadata stores.
    let mut snapshots = Vec::new();
    for i in 0..cluster.len() {
        let mut ctrl =
            CtrlClient::connect(cluster.addr(i), Duration::from_secs(5)).expect("ctrl connect");
        snapshots.push(ctrl.ownership().expect("ownership snapshot"));
    }
    let reference = range_map(&snapshots[0]);
    assert_eq!(reference.len(), 3, "three global owners: {reference:?}");
    for (id, ranges) in &reference {
        assert!(
            !ranges.is_empty(),
            "server {id} owns nothing under the partitioned layout: {reference:?}"
        );
    }
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(
            range_map(snap),
            reference,
            "process {i} resolved a different layout"
        );
    }
    // Published in the CI job summary next to the migration counters.
    println!(
        "LAYOUT_SUMMARY {}",
        reference
            .iter()
            .map(|(id, ranges)| {
                let spec = ranges
                    .iter()
                    .map(|(s, e)| format!("{s:#x}-{e:#x}"))
                    .collect::<Vec<_>>()
                    .join("+");
                format!("{id}={spec}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The client bootstraps from process 1 (the upcoming migration source,
    // whose metadata store is authoritative for that migration).  Routing
    // must be correct from the very first operation: server 1 is reached
    // through the bootstrap process, servers 0 and 2 are dialled directly
    // at their registered socket addresses.
    let mut config = RemoteClientConfig::new(cluster.addr(1).to_string());
    config.session = SessionConfig {
        max_batch_ops: 16,
        max_inflight_batches: 4,
        ..SessionConfig::default()
    };
    config.timeout = Duration::from_secs(10);
    let mut client = RemoteClient::connect(config).expect("connect remote client");

    // Last generation the cluster acknowledged, per key.
    let acked: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));

    for key in 0..KEYS {
        let acked = Arc::clone(&acked);
        let ok = client.issue(
            KvRequest::Upsert {
                key,
                value: value_for(key, 1),
            },
            Box::new(move |resp| {
                assert!(matches!(resp, KvResponse::Ok), "preload failed: {resp:?}");
                let mut acked = acked.lock().unwrap();
                let e = acked.entry(key).or_insert(0);
                *e = (*e).max(1);
            }),
        );
        assert!(ok, "no owner for key {key} during preload");
    }
    assert!(
        client
            .drain(Duration::from_secs(30))
            .expect("preload drain"),
        "preload did not drain"
    );
    assert_eq!(acked.lock().unwrap().len(), KEYS as usize);

    // Zero misroutes: the balanced layout needed no warm-up migration, so
    // not a single batch was rejected or re-routed...
    let stats = client.stats();
    assert_eq!(
        stats.batches_rejected, 0,
        "preload hit stale-view rejections under a balanced layout: {stats:?}"
    );
    assert_eq!(
        stats.rerouted, 0,
        "preload operations were re-routed under a balanced layout: {stats:?}"
    );
    // ... and every server really took a share of the traffic.
    for (id, _) in &reference {
        let share = (0..KEYS)
            .filter(|k| {
                let hash = shadowfax_faster::KeyHash::of(*k).raw();
                snapshots[0]
                    .owner_of(hash)
                    .map(|s| s.id == *id)
                    .unwrap_or(false)
            })
            .count();
        assert!(share > 0, "no preload key hashed into server {id}'s third");
    }

    // Migrate half of server 1's range to server 2 — a pair that does not
    // include the coordinator — under live write load.
    let mut ctrl =
        CtrlClient::connect(cluster.addr(1), Duration::from_secs(5)).expect("ctrl connect");
    let migration_id = ctrl.migrate_fraction(1, 2, 0.5).expect("start migration");

    let mut gen = 2u64;
    let mut next_key = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let complete = loop {
        for _ in 0..8 {
            let key = next_key % KEYS;
            next_key += 7; // co-prime stride: touches every key over time
            let write_gen = gen;
            let acked = Arc::clone(&acked);
            client.issue(
                KvRequest::Upsert {
                    key,
                    value: value_for(key, write_gen),
                },
                Box::new(move |resp| {
                    if matches!(resp, KvResponse::Ok) {
                        let mut acked = acked.lock().unwrap();
                        let e = acked.entry(key).or_insert(0);
                        *e = (*e).max(write_gen);
                    }
                }),
            );
        }
        gen += 1;
        client.flush();
        client.poll().expect("client poll during migration");

        let state = ctrl.migration_status(migration_id).expect("status poll");
        if state.complete {
            break state;
        }
        assert!(
            Instant::now() < deadline,
            "migration {migration_id} did not complete; last state: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(complete.source_complete && complete.target_complete);
    assert!(
        client.drain(Duration::from_secs(60)).expect("final drain"),
        "writes issued during migration did not drain"
    );

    // The cut-over happened under load between the two non-zero servers.
    let stats = client.stats();
    assert!(
        stats.batches_rejected >= 1,
        "expected at least one stale-view rejection at the cut-over: {stats:?}"
    );
    assert!(
        stats.rerouted >= 1,
        "expected re-routed operations after the ownership flip: {stats:?}"
    );
    let own = ctrl.ownership().expect("post-migration ownership");
    let server2_after_migration = own.server(2).expect("server 2 registered").ranges.clone();
    assert_ne!(
        server2_after_migration, reference[2].1,
        "server 2 gained nothing from the migration: {own:?}"
    );
    assert_ne!(
        own.server(1).unwrap().ranges,
        reference[1].1,
        "server 1 gave nothing up in the migration: {own:?}"
    );

    // Second migration on the same non-zero pair, cancelled from the
    // control plane while the source is still sampling (the 1.5 s sampling
    // phase makes the window deterministic).  Ownership of the moving
    // ranges rolls back to server 1.
    let server1_before = ctrl.ownership().unwrap().server(1).unwrap().ranges.clone();
    let cancel_id = ctrl
        .migrate_fraction(1, 2, 0.5)
        .expect("start migration to cancel");
    ctrl.cancel_migration(cancel_id)
        .expect("cancel mid-sampling");
    let settled = ctrl
        .wait_for_migration(cancel_id, Duration::from_secs(10))
        .expect("cancelled migration settles");
    assert!(
        settled.cancelled,
        "migration was not cancelled: {settled:?}"
    );
    let rolled_back = ctrl.ownership().expect("post-cancel ownership");
    assert_eq!(
        rolled_back.server(1).unwrap().ranges,
        server1_before,
        "cancellation did not roll server 1's ownership back"
    );
    assert_eq!(
        rolled_back.server(2).unwrap().ranges,
        server2_after_migration,
        "cancellation disturbed server 2's post-migration ownership"
    );

    // Serving resumed after the rollback: more acknowledged writes across
    // the whole keyspace...
    let resume_gen = gen;
    for key in 0..KEYS {
        let acked = Arc::clone(&acked);
        client.issue(
            KvRequest::Upsert {
                key,
                value: value_for(key, resume_gen),
            },
            Box::new(move |resp| {
                if matches!(resp, KvResponse::Ok) {
                    let mut acked = acked.lock().unwrap();
                    let e = acked.entry(key).or_insert(0);
                    *e = (*e).max(resume_gen);
                }
            }),
        );
    }
    assert!(
        client
            .drain(Duration::from_secs(60))
            .expect("post-cancel drain"),
        "writes issued after the cancellation did not drain"
    );

    // ... and zero acknowledged-write loss across the completed migration
    // *and* the cancelled one: every key reads back at a generation at
    // least as new as the last one the cluster acknowledged.
    let acked = acked.lock().unwrap();
    for key in 0..KEYS {
        let value = client
            .get(key)
            .unwrap_or_else(|e| {
                let own = ctrl.ownership();
                let hash = shadowfax_faster::KeyHash::of(key).raw();
                panic!(
                    "read of key {key} failed: {e}\nhash {hash:#x}\nstats {:?}\nown {own:#?}",
                    client.stats()
                )
            })
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished"));
        let stored_gen = gen_of(key, &value);
        let acked_gen = acked.get(&key).copied().unwrap_or(0);
        assert!(
            stored_gen >= acked_gen,
            "key {key}: stored generation {stored_gen} is older than acknowledged {acked_gen}"
        );
    }
    drop(acked);

    // One versioned metrics snapshot per process, pulled over GET_METRICS.
    // Every process served reads and writes above, so each one's
    // serving-path latency histograms must be populated with nonzero
    // quantiles, and every migrated counter family must be present.
    let mut snaps = Vec::new();
    for i in 0..cluster.len() {
        let mut ctrl =
            CtrlClient::connect(cluster.addr(i), Duration::from_secs(5)).expect("ctrl connect");
        let snap = ctrl.metrics().expect("metrics snapshot");
        assert_eq!(snap.version, 1, "process {i}: unexpected snapshot version");
        for name in ["rpc.latency.read", "rpc.latency.upsert"] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("process {i}: {name} missing: {:?}", snap.histograms));
            assert!(h.count > 0, "process {i}: {name} recorded nothing");
            assert!(h.p50_ns() > 0, "process {i}: {name} p50 is zero: {h:?}");
            assert!(h.p99_ns() > 0, "process {i}: {name} p99 is zero: {h:?}");
            assert!(
                h.p99_ns() >= h.p50_ns(),
                "process {i}: {name} quantiles inverted: {h:?}"
            );
        }
        assert!(
            snap.counter_family(".store.upserts") > 0,
            "process {i}: store counter family missing: {:?}",
            snap.counters
        );
        assert!(
            snap.counter("tier.peer.reads_served").is_some(),
            "process {i}: shared-tier counter family missing: {:?}",
            snap.counters
        );
        assert!(
            snap.gauge(&format!("sv{i}.ops.pending")).is_some(),
            "process {i}: per-server gauge family missing: {:?}",
            snap.gauges
        );
        snaps.push(snap);
    }

    // Process 1 sourced both migrations: its timeline must carry the
    // complete lifecycle of the first (sampling through complete) and the
    // cancelled terminal phase of the second.
    let source_snap = &snaps[1];
    let labels_of = |id: u64| -> Vec<&str> {
        source_snap
            .events
            .iter()
            .filter(|e| e.name == "migration.phase" && e.id == id)
            .map(|e| e.label.as_str())
            .collect()
    };
    let completed = labels_of(migration_id);
    assert_eq!(
        completed.first().copied(),
        Some("sampling"),
        "first migration's timeline must start at sampling: {completed:?}"
    );
    assert_eq!(
        completed.last().copied(),
        Some("complete"),
        "first migration's timeline must end complete: {completed:?}"
    );
    let cancelled_phases = labels_of(cancel_id);
    assert_eq!(
        cancelled_phases.last().copied(),
        Some("cancelled"),
        "second migration's timeline must end cancelled: {cancelled_phases:?}"
    );
    assert_eq!(
        source_snap.counter_family(".migration.cancelled"),
        1,
        "source process must count exactly one cancellation: {:?}",
        source_snap.counters
    );
    let mig_ctrl = source_snap
        .histogram("rpc.latency.migrate_ctrl")
        .expect("migration-control latency histogram");
    assert!(
        mig_ctrl.count > 0,
        "status polls never hit the migrate_ctrl histogram"
    );

    // Published in the CI job summary; one line per process.
    for (i, snap) in snaps.iter().enumerate() {
        let read = snap.histogram("rpc.latency.read").unwrap();
        let upsert = snap.histogram("rpc.latency.upsert").unwrap();
        println!(
            "METRICS_SUMMARY p{i} uptime_s={} read_count={} read_p50_us={} read_p99_us={} \
             upsert_count={} upsert_p50_us={} upsert_p99_us={} cancelled={} events={}",
            snap.uptime_micros / 1_000_000,
            read.count,
            read.p50_ns() / 1_000,
            read.p99_ns() / 1_000,
            upsert.count,
            upsert.p50_ns() / 1_000,
            upsert.p99_ns() / 1_000,
            snap.counter_family(".migration.cancelled"),
            snap.events.len(),
        );
    }
}
