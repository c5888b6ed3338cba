//! Cross-crate integration tests: basic cluster behaviour — reads, writes,
//! read-modify-writes, ownership validation, and client view refresh.

use std::time::Duration;

use shadowfax::{
    ClientConfig, Cluster, ClusterConfig, HashRange, KvRequest, KvResponse, OwnershipCheck,
    RangeSet, ServerConfig, ServerId, SessionConfig,
};

#[test]
fn reads_writes_and_counters_across_two_servers() {
    let cluster = Cluster::start(ClusterConfig::balanced(2));
    let mut client = cluster.client(ClientConfig::default());
    for key in 0..500u64 {
        assert!(client.upsert(key, key.to_le_bytes().to_vec()));
    }
    for key in (0..500u64).step_by(7) {
        let v = client.read(key).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), key);
    }
    // Counters accumulate regardless of which server owns the key.
    for _ in 0..5 {
        for key in 1000..1010u64 {
            client.rmw_add(key, 2);
        }
    }
    for key in 1000..1010u64 {
        let v = client.read(key).unwrap();
        assert_eq!(u64::from_le_bytes(v[0..8].try_into().unwrap()), 10);
    }
    // Both servers served some of the load (the hash space is split).
    for server in cluster.servers() {
        assert!(
            server.completed_ops() > 0,
            "{:?} served nothing",
            server.id()
        );
    }
    cluster.shutdown();
}

#[test]
fn missing_keys_and_deletes() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    let mut client = cluster.client(ClientConfig::default());
    assert_eq!(client.read(12345), None);
    client.upsert(1, b"x".to_vec());
    match client.execute_sync(KvRequest::Delete { key: 1 }, Duration::from_secs(30)) {
        Ok(KvResponse::Deleted(existed)) => assert!(existed),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(client.read(1), None);
    cluster.shutdown();
}

#[test]
fn stale_view_batches_are_rejected_and_rerouted() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    let mut client = cluster.client(ClientConfig::default());
    for key in 0..200u64 {
        client.upsert(key, vec![1u8; 32]);
    }
    // Move half the space away; the client still holds the old views.
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    // Operations issued with stale cached ownership are rejected by the
    // server, the client refreshes from the metadata store, re-routes, and
    // every operation still completes with the right answer.
    for key in (0..200u64).step_by(11) {
        let v = client.read(key).expect("key lost after ownership change");
        assert_eq!(v, vec![1u8; 32]);
    }
    assert!(client.stats().ownership_refreshes > 0 || client.stats().rerouted == 0);
    cluster.shutdown();
}

#[test]
fn hash_validation_mode_also_serves_correctly() {
    let mut template = ServerConfig::small_for_tests(ServerId(0));
    template.ownership_check = OwnershipCheck::HashValidation;
    let cluster = Cluster::start(ClusterConfig {
        server_template: template,
        ..ClusterConfig::balanced(2)
    });
    let mut client = cluster.client(ClientConfig::default());
    for key in 0..200u64 {
        client.upsert(key, vec![9u8; 16]);
    }
    for key in (0..200u64).step_by(13) {
        assert_eq!(client.read(key), Some(vec![9u8; 16]));
    }
    cluster.shutdown();
}

#[test]
fn many_hash_splits_still_route_correctly() {
    // Install alternating ownership of 16 splits across the two servers via
    // the metadata store, mirroring Figure 15's configuration.
    let cluster = Cluster::start(ClusterConfig::balanced(2));
    let splits = HashRange::FULL.split(16);
    let even: Vec<HashRange> = splits.iter().copied().step_by(2).collect();
    let odd: Vec<HashRange> = splits.iter().copied().skip(1).step_by(2).collect();
    let meta = cluster.meta();
    meta.register_server(ServerId(0), "sv0", 2, RangeSet::from_ranges(even.clone()));
    meta.register_server(ServerId(1), "sv1", 2, RangeSet::from_ranges(odd.clone()));
    cluster
        .server(ServerId(0))
        .unwrap()
        .set_owned_ranges(RangeSet::from_ranges(even));
    cluster
        .server(ServerId(1))
        .unwrap()
        .set_owned_ranges(RangeSet::from_ranges(odd));

    let mut client = cluster.client(ClientConfig::default());
    for key in 0..300u64 {
        assert!(client.upsert(key, key.to_le_bytes().to_vec()));
    }
    for key in (0..300u64).step_by(17) {
        let v = client.read(key).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), key);
    }
    cluster.shutdown();
}

#[test]
fn small_batches_flush_on_demand() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    let config = ClientConfig::default().with_session(SessionConfig {
        max_batch_ops: 1024,
        max_batch_bytes: 1 << 20,
        max_inflight_batches: 2,
    });
    let mut client = cluster.client(config);
    // A single op never fills a batch; execute_sync must flush explicitly.
    client.upsert(5, b"v".to_vec());
    assert_eq!(client.read(5), Some(b"v".to_vec()));
    cluster.shutdown();
}
