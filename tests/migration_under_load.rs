//! Cross-crate integration tests for the scale-out protocol: no lost updates
//! under concurrent load, sampled hot records, indirection records with a
//! constrained memory budget, and the Rocksteady baseline mode.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shadowfax::{
    ClientConfig, Cluster, ClusterConfig, MigrationMode, MigrationRole, ServerConfig, ServerId,
    SessionConfig, ShadowfaxClient,
};

fn constrained_template(mode: MigrationMode) -> ServerConfig {
    let mut template = ServerConfig::small_for_tests(ServerId(0));
    template.migration.mode = mode;
    template.migration.sampling_duration = Duration::from_millis(50);
    // Small memory budget so part of the dataset lives on the simulated SSD.
    template.faster.table_bits = 13;
    template.faster.log.page_bits = 16;
    template.faster.log.memory_pages = 8;
    template.faster.log.mutable_pages = 4;
    template
}

/// Every insert the target made on the source's behalf (and every record
/// fetched to resolve an indirection) went into the store.
fn assert_no_insert_failures(cluster: &Cluster) {
    let stats = cluster.metrics().snapshot();
    assert_eq!(stats.counter_family(".migration.insert_failed"), 0);
    assert_eq!(stats.counter_family(".chain.insert_failed"), 0);
}

fn preload(cluster: &Cluster, records: u64, value: &[u8]) {
    let mut loader = cluster.client(ClientConfig::default());
    for key in 0..records {
        loader.issue_upsert(key, value.to_vec(), Box::new(|_| {}));
        if loader.outstanding_ops() > 2048 {
            loader.poll();
        }
    }
    assert!(
        loader.drain(Duration::from_secs(120)),
        "preload did not finish"
    );
}

#[test]
fn counters_survive_migration_under_concurrent_load() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    let keys = 64u64;
    preload(&cluster, keys, &[0u8; 64]);

    // A background client hammers RMW increments while the migration runs.
    let stop = Arc::new(AtomicBool::new(false));
    let increments = Arc::new(AtomicU64::new(0));
    let loader = {
        let stop = Arc::clone(&stop);
        let increments = Arc::clone(&increments);
        let meta = Arc::clone(cluster.meta());
        let net = Arc::clone(cluster.network());
        std::thread::spawn(move || {
            let mut client = ShadowfaxClient::new(
                ClientConfig::default().with_session(SessionConfig {
                    max_batch_ops: 16,
                    max_batch_bytes: 8 * 1024,
                    max_inflight_batches: 2,
                }),
                meta,
                net,
            );
            let mut k = 0u64;
            while !stop.load(Ordering::SeqCst) {
                for _ in 0..16 {
                    k = (k + 1) % keys;
                    let increments = Arc::clone(&increments);
                    client.issue_rmw(
                        k,
                        1,
                        Box::new(move |_| {
                            increments.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                }
                client.flush();
                client.poll();
            }
            client.drain(Duration::from_secs(30));
        })
    };

    std::thread::sleep(Duration::from_millis(300));
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    loader.join().unwrap();

    // Every acknowledged increment must be present: the sum of the counters
    // equals the number of completed RMWs.
    let mut verifier = cluster.client(ClientConfig::default());
    let mut sum = 0u64;
    for key in 0..keys {
        let v = verifier.read(key).expect("key lost during migration");
        sum += u64::from_le_bytes(v[0..8].try_into().unwrap());
    }
    assert_eq!(
        sum,
        increments.load(Ordering::Relaxed),
        "lost or duplicated updates"
    );
    assert_no_insert_failures(&cluster);
    cluster.shutdown();
}

#[test]
fn migration_moves_ownership_and_reports_progress() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    preload(&cluster, 2_000, &[3u8; 128]);
    let migrated = cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.25)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
    let source = cluster.server(ServerId(0)).unwrap();
    let target = cluster.server(ServerId(1)).unwrap();
    let report = source
        .last_migration_report()
        .expect("source kept no report");
    assert_eq!(report.migration_id, migrated);
    assert_eq!(report.role, MigrationRole::Source);
    assert!(report.records_moved > 0, "no records were shipped");
    assert!(!target.owned_ranges().is_empty());
    assert_eq!(
        cluster.meta().pending_migrations(),
        0,
        "dependency not cleaned up"
    );

    // Keys in the moved range are served by the target afterwards.
    let mut client = cluster.client(ClientConfig::default());
    for key in (0..2_000u64).step_by(37) {
        assert_eq!(client.read(key), Some(vec![3u8; 128]));
    }
    assert!(target.completed_ops() > 0);
    assert_no_insert_failures(&cluster);
    cluster.shutdown();
}

#[test]
fn indirection_records_serve_cold_keys_from_shared_tier() {
    let cluster = Cluster::start(ClusterConfig {
        server_template: constrained_template(MigrationMode::Shadowfax),
        ..ClusterConfig::two_server_test()
    });
    // Enough 256-byte records to push most of the log onto the simulated SSD.
    preload(&cluster, 6_000, &vec![5u8; 256]);
    let source = cluster.server(ServerId(0)).unwrap();
    assert!(
        source.store().log().head_address() > shadowfax_faster::Address::FIRST_VALID,
        "dataset did not spill to the SSD; the test would not exercise indirection records"
    );

    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(180)));
    let report = source.last_migration_report().unwrap();
    assert!(
        report.indirection_records > 0,
        "a constrained-memory Shadowfax migration must ship indirection records"
    );
    assert_eq!(
        report.ssd_bytes_scanned, 0,
        "Shadowfax must not scan the source SSD"
    );

    // Cold keys in the migrated range resolve through the shared tier.
    let target = cluster.server(ServerId(1)).unwrap();
    let mut client = cluster.client(ClientConfig::default());
    let mut verified = 0;
    for key in (0..6_000u64).step_by(101) {
        assert_eq!(
            client.read(key),
            Some(vec![5u8; 256]),
            "key {key} unreadable"
        );
        verified += 1;
    }
    assert!(verified > 50);
    assert!(
        target.indirection_fetches() > 0,
        "no reads were resolved through indirection records"
    );
    assert_no_insert_failures(&cluster);
    cluster.shutdown();
}

#[test]
fn rocksteady_mode_scans_the_ssd_instead_of_shipping_indirections() {
    let cluster = Cluster::start(ClusterConfig {
        server_template: constrained_template(MigrationMode::Rocksteady),
        ..ClusterConfig::two_server_test()
    });
    preload(&cluster, 5_000, &vec![6u8; 256]);
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(180)));
    let report = cluster
        .server(ServerId(0))
        .unwrap()
        .last_migration_report()
        .unwrap();
    assert_eq!(report.indirection_records, 0);
    assert!(
        report.ssd_bytes_scanned > 0,
        "the Rocksteady baseline must scan the on-SSD log"
    );
    let mut client = cluster.client(ClientConfig::default());
    for key in (0..5_000u64).step_by(97) {
        assert_eq!(client.read(key), Some(vec![6u8; 256]));
    }
    assert_no_insert_failures(&cluster);
    cluster.shutdown();
}

#[test]
fn sampling_ships_hot_records_with_ownership_transfer() {
    let mut template = ServerConfig::small_for_tests(ServerId(0));
    template.migration.sampling_duration = Duration::from_millis(300);
    let cluster = Cluster::start(ClusterConfig {
        server_template: template,
        ..ClusterConfig::two_server_test()
    });
    preload(&cluster, 1_000, &[1u8; 64]);

    // Touch a small hot set continuously so the sampling phase sees it.
    let stop = Arc::new(AtomicBool::new(false));
    let toucher = {
        let stop = Arc::clone(&stop);
        let meta = Arc::clone(cluster.meta());
        let net = Arc::clone(cluster.network());
        std::thread::spawn(move || {
            let mut client = ShadowfaxClient::new(ClientConfig::default(), meta, net);
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                client.rmw_add(i % 50, 1);
                i += 1;
            }
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 1.0)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
    stop.store(true, Ordering::SeqCst);
    toucher.join().unwrap();
    let sampled = cluster
        .server(ServerId(0))
        .unwrap()
        .store()
        .stats()
        .snapshot()
        .sampled_copies;
    assert!(sampled > 0, "sampling never copied a hot record");
    assert_no_insert_failures(&cluster);
    cluster.shutdown();
}
