use shadowfax::{ClientConfig, Cluster, ClusterConfig, ServerId};
use std::time::Duration;

fn write_all(cluster: &Cluster, n: u64, v: u8) {
    let mut c = cluster.client(ClientConfig::default());
    for key in 0..n {
        c.issue_upsert(key, vec![v; 16], Box::new(|_| {}));
        if c.outstanding_ops() > 1024 {
            c.poll();
        }
    }
    assert!(c.drain(Duration::from_secs(60)));
}

#[test]
fn hand_back_keeps_overwrites() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    write_all(&cluster, 2_000, 1);
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    write_all(&cluster, 2_000, 2);
    let back = cluster.server(ServerId(1)).unwrap().owned_ranges();
    cluster
        .migrate_ranges(ServerId(1), ServerId(0), back.ranges().to_vec())
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    let mut c = cluster.client(ClientConfig::default());
    let stale = (0..2_000u64)
        .filter(|&k| c.read(k) != Some(vec![2u8; 16]))
        .count();
    assert_eq!(
        stale, 0,
        "{stale} of 2000 keys lost their acknowledged overwrite"
    );
}

/// While a hand-back still ships records, a read that reaches the old owner
/// must wait for the shipped record, not answer from the copy that owner
/// kept from before the first migration.
#[test]
fn reads_during_a_hand_back_never_see_the_pre_migration_copy() {
    let mut config = ClusterConfig::two_server_test();
    // One bucket per pass stretches the record-shipping phase over many
    // passes, so reads land while the old owner still lacks most records.
    config.server_template.migration.buckets_per_iteration = 1;
    let cluster = Cluster::start(config);
    write_all(&cluster, 2_000, 1);
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    write_all(&cluster, 2_000, 2);
    let back = cluster.server(ServerId(1)).unwrap().owned_ranges();
    cluster
        .migrate_ranges(ServerId(1), ServerId(0), back.ranges().to_vec())
        .unwrap();
    let mut c = cluster.client(ClientConfig::default());
    let mut stale = 0;
    let mut reads = 0;
    while !cluster.wait_for_migrations(Duration::ZERO) {
        for key in 0..2_000u64 {
            reads += 1;
            if c.read(key) == Some(vec![1u8; 16]) {
                stale += 1;
            }
        }
    }
    assert_eq!(
        stale, 0,
        "{stale} of {reads} reads during the hand-back saw the pre-migration copy"
    );
}
