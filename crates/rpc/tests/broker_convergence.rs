//! The replicated metadata broker across three real OS processes — the
//! control-plane regression test for the broker/coordinator work.
//!
//! Three single-server processes under the scale-out layout (server 0 in
//! process 0 owns the whole hash space; servers 1 and 2 idle).  Process 0
//! hosts the lowest server id, so it is the broker.  The test drives:
//!
//! 1. **A migration originated via a non-source process, under live
//!    load.**  `migrate start 0 -> 1` is issued against process 2's
//!    control plane — which hosts neither the source nor the target — and
//!    is relayed to the source process; its completion is observed
//!    *through process 2's replica*, with a pipelined client writing the
//!    whole keyspace throughout.
//! 2. **A cancellation relayed until epochs converge.**  A second
//!    migration (0 -> 2) starts and its target process is killed
//!    mid-flight (the kill models a partition from the source: sampling
//!    is stretched so the target dies before ownership could move).  The
//!    source cancels on heartbeat silence; the broker then retries the
//!    `CANCEL_MIGRATION` relay against the dead peer every tick —
//!    `broker.cancel.retries` keeps climbing — until the peer returns
//!    (the partition heals) and its replica shows the cancellation
//!    applied, at which point `broker.cancel.converged` fires.
//! 3. **Cluster-wide rollback at a bumped epoch, zero acked-write
//!    loss.**  After cancellation, every surviving process's ownership
//!    map shows the full range back at the source, the broker's epoch
//!    has advanced past its pre-cancellation value, and every
//!    acknowledged write reads back at least as new as its last ack.
//!
//! Prints a `BROKER_CONVERGENCE` line that CI publishes in the job
//! summary.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowfax_net::{KvRequest, KvResponse, SessionConfig};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig, Role};

mod util;
use util::{ClusterSpec, ProcessSpec, ServerSpawn};

const KEYS: u64 = 400;
const CTRL_TIMEOUT: Duration = Duration::from_secs(5);

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

/// Polls `condition` until it returns `Some` or the deadline passes.
fn wait_for<T>(deadline: Duration, what: &str, mut condition: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + deadline;
    loop {
        if let Some(value) = condition() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn broker_replicates_relays_and_converges_cancellations() {
    // Process 0 (server 0, owns everything, broker) gets a stretched
    // sampling phase so the second migration's target dies while the
    // protocol is still sampling — ownership can never have moved.
    let mut cluster = ClusterSpec {
        name: "broker_convergence",
        layout: "scale-out",
        tier: false,
        processes: vec![
            ProcessSpec {
                sampling_ms: Some(2_000),
                ..ProcessSpec::default()
            },
            ProcessSpec::default(),
            ProcessSpec::default(),
        ],
    }
    .spawn();
    let addr0 = cluster.addr(0).to_string();
    let addr1 = cluster.addr(1).to_string();
    let addr2 = cluster.addr(2).to_string();

    // Every process runs a coordinator (it has peers); the lowest server
    // id makes process 0 the broker.
    let mut ctrl0 = CtrlClient::connect(&addr0, CTRL_TIMEOUT).expect("ctrl to process 0");
    let mut ctrl1 = CtrlClient::connect(&addr1, CTRL_TIMEOUT).expect("ctrl to process 1");
    let mut ctrl2 = CtrlClient::connect(&addr2, CTRL_TIMEOUT).expect("ctrl to process 2");
    let status = ctrl0.broker_status().expect("broker status");
    assert_eq!(status.role, Role::Broker, "{status:?}");
    assert_eq!(status.peers.len(), 2, "{status:?}");
    let status = ctrl1.broker_status().expect("follower status");
    assert_eq!(status.role, Role::Follower, "{status:?}");
    assert_eq!(status.broker_addr, addr0, "{status:?}");

    // Preload generation 1 of every key; the acked map records the last
    // generation the cluster acknowledged, per key.
    let mut config = RemoteClientConfig::new(addr0.clone());
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
                acked.lock().unwrap().insert(key, 1);
            }),
        ));
    }
    assert!(
        client
            .drain(Duration::from_secs(30))
            .expect("preload drain"),
        "preload did not drain"
    );

    // Phase 1: migration 0 -> 1, originated via process 2 — which hosts
    // neither side — and relayed to the source.  Completion is observed
    // through process 2's continuously merged replica, under live load.
    let first = ctrl2
        .migrate_fraction(0, 1, 0.5)
        .expect("migration relayed through a non-source process");
    let mut gen = 2u64;
    let mut next_key = 0u64;
    let mut load_round = |client: &mut RemoteClient, gen: u64| {
        for _ in 0..8 {
            let key = next_key % KEYS;
            next_key += 7; // co-prime stride: touches every key over time
            let acked = Arc::clone(&acked);
            client.issue(
                KvRequest::Upsert {
                    key,
                    value: value_for(key, gen),
                },
                Box::new(move |resp| {
                    if matches!(resp, KvResponse::Ok) {
                        let mut acked = acked.lock().unwrap();
                        let e = acked.entry(key).or_insert(0);
                        *e = (*e).max(gen);
                    }
                }),
            );
        }
        client.flush();
        client.poll().expect("client poll under load");
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        load_round(&mut client, gen);
        gen += 1;
        let state = ctrl2
            .migration_status(first)
            .expect("status through the originating process");
        if state.complete {
            break;
        }
        assert!(
            !state.cancelled,
            "first migration must not cancel: {state:?}"
        );
        assert!(
            Instant::now() < deadline,
            "migration {first} did not complete; last state: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The flip replicated everywhere: each process answers the same
    // authoritative split.
    for (name, ctrl) in [("p0", &mut ctrl0), ("p1", &mut ctrl1), ("p2", &mut ctrl2)] {
        wait_for(Duration::from_secs(15), "ownership convergence", || {
            let own = ctrl.ownership().ok()?;
            let target = own.server(1)?;
            (!target.ranges.is_empty()).then_some(())
        });
        let own = ctrl.ownership().expect("ownership snapshot");
        assert!(
            !own.server(1)
                .expect("server 1 registered")
                .ranges
                .is_empty(),
            "{name} still shows the target empty after replication: {own:?}"
        );
    }

    // Phase 2: migration 0 -> 2, then kill the target mid-sampling — the
    // partition.  The source cancels on heartbeat silence; the broker
    // keeps relaying the cancellation at the dead peer.
    let epoch_before = ctrl0.broker_status().expect("broker status").epoch;
    let second = ctrl1
        .migrate_fraction(0, 2, 0.5)
        .expect("second migration via another non-source process");
    cluster.kill(2);

    let cancelled_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        load_round(&mut client, gen);
        gen += 1;
        let state = ctrl0.migration_status(second).expect("status poll");
        assert!(
            !state.complete && !state.target_complete,
            "a migration to a dead target can never complete: {state:?}"
        );
        if state.cancelled {
            break;
        }
        assert!(
            Instant::now() < cancelled_deadline,
            "the source never cancelled the migration to the dead target; \
             last state: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The broker's coordinator is retrying the relay against the dead
    // peer: the retry counter keeps climbing and convergence has NOT
    // fired (one process still hasn't applied the cancellation).
    let retries_mid = wait_for(Duration::from_secs(15), "cancel retries", || {
        let snap = ctrl0.metrics_ns("broker.").ok()?;
        snap.counter("broker.cancel.retries").filter(|&r| r > 0)
    });
    let snap = ctrl0.metrics_ns("broker.").expect("broker metrics");
    assert_eq!(
        snap.counter("broker.cancel.converged"),
        Some(0),
        "cancellation cannot converge while the target is partitioned: {:?}",
        snap.counters
    );

    // Rollback is cluster-wide at a bumped epoch: both surviving
    // processes show server 2 owning nothing and the epoch advanced.
    for (name, ctrl) in [("p0", &mut ctrl0), ("p1", &mut ctrl1)] {
        wait_for(Duration::from_secs(15), "rollback replication", || {
            let own = ctrl.ownership().ok()?;
            match own.server(2) {
                Some(info) => info.ranges.is_empty().then_some(()),
                None => Some(()),
            }
        });
        let state = ctrl.migration_status(second).expect("replicated status");
        assert!(
            state.cancelled,
            "{name} does not show the cancellation: {state:?}"
        );
    }
    let epoch_after = ctrl0.broker_status().expect("broker status").epoch;
    assert!(
        epoch_after > epoch_before,
        "cancellation must advance the cluster epoch ({epoch_before} -> {epoch_after})"
    );

    // The partition heals: restart process 2 on its old port.  The broker
    // re-establishes the relay, the returned peer merges the cancelled
    // dependency, and convergence fires.
    let port2: u16 = addr2.rsplit(':').next().unwrap().parse().unwrap();
    let _revived = ServerSpawn {
        log_name: "broker_convergence_p2_revived".into(),
        listen_port: port2,
        threads: 2,
        base_id: 2,
        layout: Some("scale-out".into()),
        peers: vec![
            format!("id=0,addr={addr0},threads=2"),
            format!("id=1,addr={addr1},threads=2"),
        ],
        ..ServerSpawn::default()
    }
    .spawn();
    let converged = wait_for(Duration::from_secs(30), "cancel convergence", || {
        let snap = ctrl0.metrics_ns("broker.").ok()?;
        snap.counter("broker.cancel.converged").filter(|&c| c > 0)
    });
    // The revived process learned of a cancellation it never witnessed.
    let mut ctrl2b = CtrlClient::connect(&addr2, CTRL_TIMEOUT).expect("ctrl to revived process");
    wait_for(Duration::from_secs(15), "revived replica catch-up", || {
        ctrl2b
            .migration_status(second)
            .ok()
            .filter(|s| s.cancelled)
            .map(|_| ())
    });

    // Zero acknowledged-write loss across both migrations and the
    // rollback: every key reads back at least as new as its last ack.
    assert!(
        client.drain(Duration::from_secs(60)).expect("final drain"),
        "writes issued across the cancellation did not drain"
    );
    let acked = acked.lock().unwrap();
    for key in 0..KEYS {
        let value = client
            .get(key)
            .unwrap_or_else(|e| panic!("read of key {key} failed: {e}"))
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished"));
        let stored_gen = gen_of(key, &value);
        let acked_gen = acked.get(&key).copied().unwrap_or(0);
        assert!(
            stored_gen >= acked_gen,
            "key {key}: stored generation {stored_gen} is older than acknowledged {acked_gen}"
        );
    }

    // Convergence counters, published by CI in the job summary.
    let snap = ctrl0.metrics_ns("broker.").expect("broker metrics");
    let status = ctrl0.broker_status().expect("final broker status");
    println!(
        "BROKER_CONVERGENCE cancel_retries={retries_mid} cancel_converged={converged} \
         epoch={} merge_pulls={} merge_pushes={} cluster_migrations_cancelled={}",
        status.epoch,
        snap.counter("broker.merge.pulls").unwrap_or(0),
        snap.counter("broker.merge.pushes").unwrap_or(0),
        snap.gauge("broker.cluster.migrations_cancelled")
            .unwrap_or(0),
    );
}
