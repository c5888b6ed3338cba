//! Liveness-triggered migration cancellation across real OS processes
//! (paper §3.3.1).
//!
//! Until the cancellation work landed, this file *characterized* the bug:
//! a migration to a dead peer stalled forever with its recovery dependency
//! pending at the metadata store.  It is now the regression test of the
//! fix — the target process is killed mid-migration, under live client
//! load, and the source must:
//!
//! * declare the peer dead (transport EOF, or heartbeat silence past the
//!   miss budget) and cancel the migration at the metadata store,
//! * roll back: checkpoint the post-cancellation state as its recovery
//!   point and re-adopt the post-cancellation ownership map — it owns the
//!   full hash range again, at a bumped view that fences any frame a
//!   revived target could send from the dead epoch,
//! * keep serving with **zero acknowledged-write loss**: every write the
//!   cluster acked is readable afterwards, at least as new as the last
//!   acknowledged version of its key.
//!
//! The load starts only after the kill, so no write can have been acked by
//! the doomed target: the zero-loss assertion is airtight rather than a
//! race on where the kill lands in the migration protocol.
//!
//! The test prints a `CANCELLATION_COUNTERS` line that CI publishes in the
//! job summary.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowfax_net::{KvRequest, KvResponse, SessionConfig};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig};

mod util;
use util::{ClusterSpec, ProcessSpec};

const KEYS: u64 = 400;

fn value_for(key: u64, gen: u64) -> Vec<u8> {
    format!("k{key}:g{gen}").into_bytes()
}

fn gen_of(key: u64, value: &[u8]) -> u64 {
    let s = std::str::from_utf8(value).expect("value is UTF-8");
    let prefix = format!("k{key}:g");
    s.strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("value for key {key} is malformed: {s:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("value for key {key} has a bad generation: {s:?}"))
}

#[test]
fn dead_target_cancels_the_migration_and_the_source_serves_everything_again() {
    // Two single-server processes under the scale-out layout (server 0
    // owns everything, server 1 idles as the migration target).
    let mut cluster = ClusterSpec {
        name: "dead_peer",
        layout: "scale-out",
        tier: false,
        processes: vec![
            // A long sampling phase pins where in the protocol the kill
            // lands: the target dies while the source is still sampling,
            // well before ownership could have been taken over, so the
            // doomed process can never have acknowledged a write.
            // Detection does not wait for the phase: the control link is
            // heartbeated from the very start.
            ProcessSpec {
                sampling_ms: Some(3_000),
                ..ProcessSpec::default()
            },
            ProcessSpec::default(),
        ],
    }
    .spawn();

    // Preload generation 1 of every key (all acked by the source, which
    // still owns the full hash space).
    let mut config = RemoteClientConfig::new(cluster.addr(0).to_string());
    config.session = SessionConfig {
        max_batch_ops: 8,
        ..SessionConfig::default()
    };
    config.timeout = Duration::from_secs(10);
    let mut client = RemoteClient::connect(config).expect("connect client");
    let acked: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    for key in 0..KEYS {
        let acked = Arc::clone(&acked);
        assert!(client.issue(
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
        ));
    }
    assert!(
        client
            .drain(Duration::from_secs(30))
            .expect("preload drain"),
        "preload did not drain"
    );
    assert_eq!(acked.lock().unwrap().len(), KEYS as usize);

    // Start migrating 25% of the source's range to the target, then kill
    // the target immediately — before the live load below issues a single
    // write, so nothing is ever acked by the doomed process.
    let mut ctrl = CtrlClient::connect(cluster.addr(0), Duration::from_secs(5)).expect("ctrl");
    let migration_id = ctrl.migrate_fraction(0, 1, 0.25).expect("start migration");
    cluster.kill(1);

    // Live load over the whole keyspace while the source detects the death
    // and cancels.  Writes routed at the dead target are simply never
    // acknowledged (the dial fails); once the rollback lands, ownership
    // snapshots route everything back to the source and writes ack again.
    let detection_deadline = Instant::now() + Duration::from_secs(30);
    let mut gen = 2u64;
    let mut next_key = 0u64;
    let cancelled = loop {
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
        client.poll().expect("client poll during the dead window");

        let state = ctrl.migration_status(migration_id).expect("status poll");
        assert!(
            !state.complete && !state.target_complete,
            "a migration to a dead peer can never complete: {state:?}"
        );
        if state.cancelled {
            break state;
        }
        assert!(
            Instant::now() < detection_deadline,
            "the source never cancelled the migration to the dead target \
             (liveness budget blown); last state: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(cancelled.cancelled);

    // `wait_for_migration` settles on cancellation too (the old behaviour —
    // blocking until a timeout — is exactly the bug this file pins down).
    let settled = ctrl
        .wait_for_migration(migration_id, Duration::from_secs(5))
        .expect("wait settles instantly on a cancelled migration");
    assert!(settled.cancelled);

    // Rollback: the source owns the full hash range again, at a bumped
    // view, and the revived-target registration holds nothing.
    let own = ctrl.ownership().expect("ownership");
    let source_info = own.server(0).expect("source registered").clone();
    for key in 0..KEYS {
        let hash = shadowfax_faster::KeyHash::of(key).raw();
        assert!(
            source_info.owns_hash(hash),
            "hash of key {key} not owned by the source after rollback: {own:?}"
        );
    }
    assert!(
        source_info.view >= 3,
        "cancellation must advance the source past the transfer view: {source_info:?}"
    );
    if let Some(target_info) = own.server(1) {
        assert!(
            target_info.ranges.is_empty(),
            "the dead target still owns ranges after cancellation: {own:?}"
        );
    }

    // Let the live load finish against the rolled-back owner.
    assert!(
        client.drain(Duration::from_secs(60)).expect("final drain"),
        "writes issued across the cancellation did not drain"
    );

    // Zero acknowledged-write loss: every key reads back at a generation at
    // least as new as the last one the cluster acknowledged — including the
    // 25% whose ownership round-tripped through the dead target.
    let acked = acked.lock().unwrap();
    for key in 0..KEYS {
        let value = client
            .get(key)
            .unwrap_or_else(|e| panic!("read of key {key} failed after cancellation: {e}"))
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished after cancellation"));
        let stored_gen = gen_of(key, &value);
        let acked_gen = acked.get(&key).copied().unwrap_or(0);
        assert!(
            stored_gen >= acked_gen,
            "key {key}: stored generation {stored_gen} is older than acknowledged {acked_gen}"
        );
    }

    // Cancellation counters, published by CI in the job summary.
    let stats = ctrl.metrics_ns("sv").expect("per-server metrics");
    let total = |name: &str| stats.counter_family(&format!(".migration.{name}"));
    assert_eq!(
        total("cancelled"),
        1,
        "exactly one migration was cancelled: {:?}",
        stats.counters
    );
    println!(
        "CANCELLATION_COUNTERS migrations_cancelled={} records_rolled_back={} \
         heartbeats_missed={}",
        total("cancelled"),
        total("records_rolled_back"),
        total("heartbeats_missed")
    );

    // The source's migration-phase timeline, pulled over GET_METRICS, shows
    // the lifecycle ending in a `cancelled` terminal event with sane
    // monotonic timestamps: the migration started (sampling) strictly
    // before it was cancelled.
    let snap = ctrl.metrics().expect("metrics snapshot");
    let phases: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "migration.phase" && e.id == migration_id)
        .collect();
    assert!(
        !phases.is_empty(),
        "no timeline events for migration {migration_id}: {:?}",
        snap.events
    );
    let sampling = phases
        .iter()
        .find(|e| e.label == "sampling")
        .unwrap_or_else(|| panic!("timeline has no sampling event: {phases:?}"));
    let terminal = phases.last().unwrap();
    assert_eq!(
        terminal.label, "cancelled",
        "the timeline must end in the cancelled terminal phase: {phases:?}"
    );
    assert!(
        sampling.at_micros < terminal.at_micros,
        "cancellation must postdate the sampling phase: {phases:?}"
    );
    assert!(
        phases.iter().all(|e| e.label != "complete"),
        "a cancelled migration must never reach complete: {phases:?}"
    );
    assert_eq!(
        snap.counter("sv0.migration.cancelled"),
        Some(1),
        "the source is the server that counted the cancellation: {:?}",
        snap.counters
    );

    // Cancelling an already-cancelled migration is an idempotent no-op over
    // the wire, too.
    ctrl.cancel_migration(migration_id)
        .expect("cancel of a cancelled migration is idempotent");
}
