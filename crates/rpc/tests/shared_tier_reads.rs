//! Cross-process shared-tier reads: the migration data plane's last gap.
//!
//! Two `shadowfax-server` processes.  The source owns the whole hash space
//! and is given so little log memory that the preloaded records spill below
//! its head address — onto its SSD and (write-through) its shared-tier log.
//! Then 50% of the hash space migrates to the target process **after** the
//! spill, under live read load.  The records in the migrating ranges that
//! live below the head are shipped as *indirection records* naming the
//! source's shared-tier log; the target can only resolve them by dialling
//! the source with view-tagged `FetchChain` requests.
//!
//! Verified here:
//!
//! * **zero acknowledged-read misses** — every read the cluster acknowledges
//!   (during the migration and in a full post-migration sweep) returns the
//!   exact preloaded value; a `nil` for a preloaded key is a failure,
//! * stale-view chain fetches are rejected with `StatusCode::StaleView` and
//!   out-of-range addresses with `StatusCode::OutOfRange`,
//! * the chain-fetch counters on both sides show the reads actually crossed
//!   processes (printed as `CHAIN_FETCH_COUNTERS ...` for the CI summary).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowfax::ChainFetchQuery;
use shadowfax_net::{KvRequest, KvResponse, SessionConfig, StatusCode};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig, RpcError};

mod util;
use util::{ClusterSpec, ProcessSpec};

/// Preloaded keys: at ~280 bytes per record these overflow the source's
/// 8-page (512 KiB) in-memory log more than once over.
const KEYS: u64 = 3000;
/// Additional filler keys written after the preload to push every preloaded
/// record below the head address.
const FILLER: u64 = 2500;
const FILLER_BASE: u64 = 1 << 40;
const VALUE_PAD: usize = 256;

fn value_for(key: u64) -> Vec<u8> {
    let mut v = format!("spilled:k{key}").into_bytes();
    v.resize(VALUE_PAD, b' ');
    v
}

#[test]
fn spilled_chains_are_served_across_processes_under_live_reads() {
    // Two single-server processes under the scale-out layout (server 0
    // owns everything), with deliberately tiny in-memory logs (8 pages):
    // the preload *must* spill to the stable region / shared tier before
    // the migration.
    let cluster = ClusterSpec {
        name: "shared_tier",
        layout: "scale-out",
        tier: false,
        processes: vec![
            ProcessSpec {
                memory_pages: Some(8),
                ..ProcessSpec::default()
            },
            ProcessSpec {
                memory_pages: Some(8),
                ..ProcessSpec::default()
            },
        ],
    }
    .spawn();

    let mut config = RemoteClientConfig::new(cluster.addr(0).to_string());
    config.session = SessionConfig {
        max_batch_ops: 16,
        max_inflight_batches: 4,
        ..SessionConfig::default()
    };
    config.timeout = Duration::from_secs(10);
    let mut client = RemoteClient::connect(config).expect("connect remote client");

    // Preload every key, then filler traffic that pushes the preloaded
    // records below the source's head address (8 pages of 64 KiB hold far
    // fewer than KEYS + FILLER records of this size).
    for key in 0..KEYS {
        let ok = client.issue(
            KvRequest::Upsert {
                key,
                value: value_for(key),
            },
            Box::new(move |resp| {
                assert!(matches!(resp, KvResponse::Ok), "preload failed: {resp:?}");
            }),
        );
        assert!(ok, "no owner for key {key} during preload");
    }
    assert!(
        client
            .drain(Duration::from_secs(60))
            .expect("preload drain"),
        "preload did not drain"
    );
    for i in 0..FILLER {
        client.issue(
            KvRequest::Upsert {
                key: FILLER_BASE + i,
                value: value_for(FILLER_BASE + i),
            },
            Box::new(|resp| {
                assert!(matches!(resp, KvResponse::Ok), "filler failed: {resp:?}");
            }),
        );
    }
    assert!(
        client.drain(Duration::from_secs(60)).expect("filler drain"),
        "filler did not drain"
    );

    // Fault-injection probes against the chain-fetch protocol, before the
    // migration: a view tag of 0 is older than any registered view and must
    // be rejected as stale; an address beyond the log's written extent must
    // be rejected as out of range.  Neither may kill the connection.
    let mut probe =
        CtrlClient::connect(cluster.addr(0), Duration::from_secs(5)).expect("probe ctrl");
    match probe.fetch_chain(&ChainFetchQuery {
        requester: 1,
        view: 0,
        log: 0,
        address: 64,
        max_records: 16,
    }) {
        Err(RpcError::Remote { status, .. }) => assert_eq!(status, StatusCode::StaleView),
        other => panic!("stale-view fetch was not rejected: {other:?}"),
    }
    match probe.fetch_chain(&ChainFetchQuery {
        requester: 1,
        view: 1,
        log: 0,
        address: 1 << 40,
        max_records: 16,
    }) {
        Err(RpcError::Remote { status, .. }) => assert_eq!(status, StatusCode::OutOfRange),
        other => panic!("out-of-range fetch was not rejected: {other:?}"),
    }
    // The connection survived both rejections and serves a valid fetch.
    let reply = probe
        .fetch_chain(&ChainFetchQuery {
            requester: 1,
            view: 1,
            log: 0,
            address: 64,
            max_records: 4,
        })
        .expect("valid probe fetch after rejections");
    assert_eq!(reply.address, 64);

    // Migrate 50% of the hash space to the target process — *after* the
    // spill — while keeping a pipelined read load running.  Every read that
    // completes must return the exact preloaded value.
    let mut ctrl =
        CtrlClient::connect(cluster.addr(0), Duration::from_secs(5)).expect("ctrl connect");
    let migration_id = ctrl.migrate_fraction(0, 1, 0.5).expect("start migration");

    let misses: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut reads_issued = 0u64;
    let mut next_key = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let complete = loop {
        for _ in 0..8 {
            let key = next_key % KEYS;
            next_key += 13; // co-prime stride: sweeps the whole keyspace
            let misses = Arc::clone(&misses);
            let issued = client.issue(
                KvRequest::Read { key },
                Box::new(move |resp| match resp {
                    KvResponse::Value(Some(v)) if v == value_for(key) => {}
                    other => misses
                        .lock()
                        .unwrap()
                        .push(format!("key {key} read back {other:?}")),
                }),
            );
            if issued {
                reads_issued += 1;
            }
        }
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
        client.drain(Duration::from_secs(60)).expect("read drain"),
        "reads issued during migration did not drain"
    );
    assert!(reads_issued > 0, "the live load issued no reads");
    {
        let misses = misses.lock().unwrap();
        assert!(
            misses.is_empty(),
            "{} acknowledged-read misses under live load; first: {}",
            misses.len(),
            misses[0]
        );
    }

    // Ownership is split across the processes now.
    let own = client.ctrl().ownership().expect("ownership snapshot");
    let target_info = own.server(1).expect("target registered").clone();
    assert!(
        !target_info.ranges.is_empty(),
        "target owns nothing after migration: {own:?}"
    );

    // Full post-migration sweep: every preloaded key — including every one
    // that only exists as a spilled chain behind an indirection record —
    // reads back exactly.  The keys owned by the target can only be served
    // by fetching the chains from the source process over TCP.
    let mut migrated_spilled = 0u64;
    for key in 0..KEYS {
        let value = client
            .get(key)
            .unwrap_or_else(|e| panic!("read of key {key} failed after migration: {e}"))
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished after migration"));
        assert_eq!(
            value,
            value_for(key),
            "key {key} read back a different value after migration"
        );
        if target_info.owns_hash(shadowfax_faster::KeyHash::of(key).raw()) {
            migrated_spilled += 1;
        }
    }
    assert!(
        migrated_spilled > 0,
        "no preloaded key landed in the migrated half of the hash space"
    );

    // The reads really crossed processes: the source served chain fetches,
    // the target issued them, and the stale/out-of-range probes were
    // counted.  Printed for the CI job summary.
    let source_stats = ctrl.metrics_ns("tier.chain.").expect("source tier metrics");
    let served = |name: &str| {
        let counter = source_stats.counter(&format!("tier.chain.{name}"));
        counter.unwrap_or_else(|| panic!("no tier.chain.{name}: {:?}", source_stats.counters))
    };
    let mut target_ctrl =
        CtrlClient::connect(cluster.addr(1), Duration::from_secs(5)).expect("target ctrl");
    let target_stats = target_ctrl.metrics_ns("sv").expect("target metrics");
    let target_remote = target_stats.counter_family(".chain.remote_fetches");
    println!(
        "CHAIN_FETCH_COUNTERS source_served={} source_records={} target_remote={} \
         stale_rejected={} range_rejected={}",
        served("served"),
        served("records_served"),
        target_remote,
        served("rejected_stale_view"),
        served("rejected_out_of_range")
    );
    assert!(served("served") >= 1, "source served no chain fetches");
    assert!(
        served("records_served") >= 1,
        "source returned no chain records"
    );
    assert!(target_remote >= 1, "target resolved no chains remotely");
    assert_eq!(served("rejected_stale_view"), 1);
    assert_eq!(served("rejected_out_of_range"), 1);
}
