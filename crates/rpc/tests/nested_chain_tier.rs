//! Four-process double-nested indirection chains against the real shared
//! blob tier — the headline regression for the shared-tier service.
//!
//! Four `shadowfax-server` processes plus one `shadowfax-tier` daemon.
//! The load is staged so a key's chain crosses three hosts:
//!
//! 1. preload + filler at process 0 (tiny 8-page log: the preload spills
//!    below the head, onto tier log 0),
//! 2. migrate 50% of the space 0 → 1: spilled records ship as indirection
//!    records naming log 0,
//! 3. filler owned by server 1 (the adopted indirections spill below *its*
//!    head), then migrate all of it 1 → 2: the spilled indirections ship
//!    as indirections naming log 1 — nesting level one,
//! 4. filler owned by server 2, then migrate all of it 2 → 3: indirections
//!    naming log 2, whose chain holds indirections naming log 1, whose
//!    chain holds indirections naming log 0 — the double-nested chain.
//!
//! Verified:
//!
//! * **Phase A (tier up)** — every probed key resolves with the exact
//!   preloaded value and **zero stuck pends** (`sv3.ops.pending` drains
//!   to 0): server 3 walks the whole three-hop chain against the tier
//!   daemon (`tier.remote.reads` > 0) and reads no log from its owner
//!   (`tier.peer.reads_issued` stays 0).
//! * **Phase B (tier killed)** — a disjoint probe set still resolves with
//!   zero acknowledged-read misses: with the daemon gone, server 3 reads
//!   each hop's log from the process hosting it (`tier.peer.reads_issued`
//!   > 0), across all three nested hops.
//!
//! The `TIER_READ_COUNTERS` line is parsed into the CI job summary.

use std::time::Duration;

use shadowfax_net::{KvRequest, KvResponse, SessionConfig};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig, WireServerInfo};

mod util;
use util::{ClusterSpec, ProcessSpec};

/// Preloaded keys: at ~280 bytes per record these overflow an 8-page
/// (512 KiB) in-memory log more than once over.
const KEYS: u64 = 3000;
/// Filler records per stage, enough to push everything older below the
/// head address of the stage's 8-page log.
const FILLER: u64 = 2500;
const VALUE_PAD: usize = 256;

fn value_for(key: u64) -> Vec<u8> {
    let mut v = format!("nested:k{key}").into_bytes();
    v.resize(VALUE_PAD, b' ');
    v
}

/// The first `count` keys at or above `base` whose hash `info` owns.
fn keys_owned_by(info: &WireServerInfo, base: u64, count: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(count);
    let mut key = base;
    while keys.len() < count {
        assert!(
            key - base < 10_000_000,
            "scanned 10M candidates without finding {count} keys owned by \
             server {}: {:?}",
            info.id,
            info.ranges
        );
        if info.owns_hash(shadowfax_faster::KeyHash::of(key).raw()) {
            keys.push(key);
        }
        key += 1;
    }
    keys
}

/// Ownership info for `id`, polled until the queried process's replica
/// shows it owning at least one range (a just-settled migration may take
/// a few broker ticks to fan out to the process the client asks).
fn owning_server_info(client: &mut RemoteClient, id: u32) -> WireServerInfo {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let own = client.ctrl().ownership().expect("ownership snapshot");
        let info = own
            .server(id)
            .unwrap_or_else(|| panic!("server {id} not registered: {own:?}"))
            .clone();
        if !info.ranges.is_empty() {
            return info;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server {id} never showed owned ranges after its migration: {own:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn upsert_all(client: &mut RemoteClient, keys: impl Iterator<Item = u64>, what: &'static str) {
    for key in keys {
        let ok = client.issue(
            KvRequest::Upsert {
                key,
                value: value_for(key),
            },
            Box::new(move |resp| {
                assert!(matches!(resp, KvResponse::Ok), "{what} failed: {resp:?}");
            }),
        );
        assert!(ok, "no owner for key {key} during {what}");
    }
    assert!(
        client
            .drain(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{what} drain: {e}")),
        "{what} did not drain"
    );
}

/// Starts FROM → TO over `fraction` of FROM's first range and waits for
/// both sides to complete.  A just-settled previous migration may still
/// read as in-flight in this process's replica for a few broker ticks —
/// or the transferred ownership may not have fanned out to this replica
/// yet — so both transient rejections are retried briefly.  (A genuine
/// ownership mismatch stays wrong and trips the deadline.)
fn migrate(addr: &str, from: u32, to: u32, fraction: f64) {
    let mut ctrl = CtrlClient::connect(addr, Duration::from_secs(5)).expect("migration ctrl");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let id = loop {
        match ctrl.migrate_fraction(from, to, fraction) {
            Ok(id) => break id,
            Err(e)
                if (e.to_string().contains("overlaps in-flight")
                    || e.to_string().contains("does not own range"))
                    && std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("start migration {from}->{to}: {e}"),
        }
    };
    let state = ctrl
        .wait_for_migration(id, Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("migration {from}->{to} (id {id}) did not settle: {e}"));
    assert!(
        state.complete && !state.cancelled,
        "migration {from}->{to} (id {id}) ended badly: {state:?}"
    );
}

#[test]
fn double_nested_chains_resolve_via_the_tier_and_via_fallback() {
    // Alongside partitioned_layout this is the CI proof that spill, tier
    // mirroring, and chain reads hold on the run-to-completion serving
    // path (the tier daemon runs its own reactor event loop).
    let mut cluster = ClusterSpec {
        name: "nested_chain_tier",
        layout: "scale-out",
        tier: true,
        processes: (0..4)
            .map(|_| ProcessSpec {
                memory_pages: Some(8),
                ..ProcessSpec::default()
            })
            .collect(),
    }
    .spawn();
    let tier_addr = cluster
        .tier_addr()
        .expect("spec asked for a tier")
        .to_string();

    let mut config = RemoteClientConfig::new(cluster.addr(0).to_string());
    config.session = SessionConfig {
        max_batch_ops: 16,
        max_inflight_batches: 4,
        ..SessionConfig::default()
    };
    config.timeout = Duration::from_secs(10);
    let mut client = RemoteClient::connect(config).expect("connect remote client");

    // Stage 1: preload at server 0, then filler so every preloaded record
    // spills below its head (and, mirrored, onto tier log 0).
    upsert_all(&mut client, 0..KEYS, "preload");
    upsert_all(&mut client, (0..FILLER).map(|i| (1 << 40) + i), "filler-0");

    // Stage 2: half the space moves 0 -> 1; spilled preload ships as
    // indirection records naming log 0.
    migrate(cluster.addr(0), 0, 1, 0.5);

    // Stage 3: spill server 1's log (the adopted indirections sink below
    // its head), then move everything it owns 1 -> 2.
    let s1 = owning_server_info(&mut client, 1);
    upsert_all(
        &mut client,
        keys_owned_by(&s1, 1 << 41, FILLER as usize).into_iter(),
        "filler-1",
    );
    migrate(cluster.addr(1), 1, 2, 1.0);

    // Stage 4: same again at server 2, then 2 -> 3.  Server 3 now holds
    // indirections naming log 2, double-nested down to log 0.
    let s2 = owning_server_info(&mut client, 2);
    upsert_all(
        &mut client,
        keys_owned_by(&s2, 1 << 42, FILLER as usize).into_iter(),
        "filler-2",
    );
    migrate(cluster.addr(2), 2, 3, 1.0);

    let s3 = owning_server_info(&mut client, 3);

    // Phase A, tier up: every even preloaded key — including every one
    // behind the double-nested chains server 3 adopted — resolves exactly,
    // synchronously (zero pends), straight off the tier daemon.
    let mut probed_on_s3 = 0u64;
    for key in (0..KEYS).filter(|k| k % 2 == 0) {
        let value = client
            .get(key)
            .unwrap_or_else(|e| panic!("read of key {key} with the tier up failed: {e}"))
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished (tier up)"));
        assert_eq!(value, value_for(key), "key {key} read back wrong (tier up)");
        if s3.owns_hash(shadowfax_faster::KeyHash::of(key).raw()) {
            probed_on_s3 += 1;
        }
    }
    assert!(
        probed_on_s3 > 0,
        "no probed key landed on server 3's migrated half"
    );

    let mut ctrl3 = CtrlClient::connect(cluster.addr(3), Duration::from_secs(5)).expect("p3 ctrl");
    let sv3 = ctrl3.metrics_ns("sv3").expect("sv3 metrics");
    let tier_reads = ctrl3.metrics_ns("tier.").expect("tier metrics");
    let stuck_a = sv3.gauge("sv3.ops.pending").unwrap_or(0);
    let daemon_reads_a = tier_reads.counter("tier.remote.reads").unwrap_or(0);
    let peer_reads_a = tier_reads.counter("tier.peer.reads_issued").unwrap_or(0);
    assert!(
        daemon_reads_a > 0,
        "server 3 issued no TIER_READ traffic to the daemon: {tier_reads:?}"
    );
    assert_eq!(
        peer_reads_a, 0,
        "server 3 read logs from their owners while the tier was up"
    );
    // Ordinary below-head SSD reads may pend transiently; what the shared
    // tier guarantees is that no read *stays* pending.
    assert_eq!(
        stuck_a, 0,
        "reads are stuck pending at server 3 with the tier up"
    );

    // The daemon agrees it did the serving: every process mirrored spill
    // appends into its log, and the chain walks read them back.
    let mut tier_ctrl =
        CtrlClient::connect(&tier_addr, Duration::from_secs(5)).expect("tier daemon ctrl");
    let status = tier_ctrl.tier_status().expect("tier status");
    assert!(
        status.appends > 0 && status.reads > 0,
        "tier daemon saw no traffic: {status:?}"
    );
    assert!(
        status.logs.len() >= 2,
        "expected several mirrored tier logs: {status:?}"
    );
    drop(tier_ctrl);

    // Phase B, tier outage: kill the daemon mid-load and sweep the odd
    // keys (the even ones were materialized by Phase A's resolution).
    // Every read must still be answered exactly: server 3 reads each hop's
    // log from the process hosting it, across both nested hops.
    cluster.kill_tier();
    for key in (0..KEYS).filter(|k| k % 2 == 1) {
        let value = client
            .get(key)
            .unwrap_or_else(|e| panic!("read of key {key} after the tier died failed: {e}"))
            .unwrap_or_else(|| panic!("acknowledged key {key} vanished (tier down)"));
        assert_eq!(
            value,
            value_for(key),
            "key {key} read back wrong (tier down)"
        );
    }

    let tier_reads = ctrl3
        .metrics_ns("tier.")
        .expect("tier metrics after outage");
    let peer_reads_b = tier_reads.counter("tier.peer.reads_issued").unwrap_or(0);
    assert!(
        peer_reads_b > 0,
        "server 3 read no log from its owner after the tier died: {tier_reads:?}"
    );

    // One line for the CI job summary.
    println!(
        "TIER_READ_COUNTERS daemon_reads={} daemon_appends={} daemon_served={} \
         peer_reads_tier_up={} peer_reads_tier_down={} probed_on_s3={}",
        daemon_reads_a, status.appends, status.reads, peer_reads_a, peer_reads_b, probed_on_s3
    );
}
