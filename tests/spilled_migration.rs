use shadowfax::{ClientConfig, Cluster, ClusterConfig, KvRequest, ServerId};
use std::time::Duration;

fn apply(cluster: &Cluster, keys: impl Iterator<Item = u64>, op: impl Fn(u64) -> KvRequest) {
    let mut c = cluster.client(ClientConfig::default());
    for key in keys {
        c.issue(op(key), Box::new(|_| {}));
        if c.outstanding_ops() > 1024 {
            c.poll();
        }
    }
    assert!(c.drain(Duration::from_secs(60)));
}

fn put(v: u8) -> impl Fn(u64) -> KvRequest {
    move |key| KvRequest::Upsert {
        key,
        value: vec![v; 100],
    }
}

// 15,000 keys × 100 bytes spill `small_for_tests`' 8 × 64 KiB of memory.
#[test]
fn spilled_migration_keeps_overwrites() {
    let cluster = Cluster::start(ClusterConfig::two_server_test());
    apply(&cluster, 0..15_000, put(1));
    apply(
        &cluster,
        (0..15_000).filter(|k: &u64| k.is_multiple_of(3)),
        put(2),
    );
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    let mut c = cluster.client(ClientConfig::default());
    let want = |k: u64| vec![if k.is_multiple_of(3) { 2u8 } else { 1 }; 100];
    let bad = (0..15_000u64)
        .filter(|&k| c.read(k) != Some(want(k)))
        .count();
    assert_eq!(
        bad, 0,
        "{bad} of 15000 keys lost their acknowledged overwrite"
    );
}

#[test]
fn writes_during_a_spilled_migration_survive() {
    let mut config = ClusterConfig::two_server_test();
    config.server_template.migration.buckets_per_iteration = 1;
    let cluster = Cluster::start(config);
    let mut c = cluster.client(ClientConfig::default());
    for key in 0..15_000u64 {
        c.issue_upsert(key, vec![1; 100], Box::new(|_| {}));
        if c.outstanding_ops() > 1024 {
            c.poll();
        }
    }
    assert!(c.drain(Duration::from_secs(60)));
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    let (mut last, mut v) = (vec![1u8; 15_000], 2u8);
    while !cluster.wait_for_migrations(Duration::ZERO) && v < 200 {
        for key in 0..15_000u64 {
            if c.upsert(key, vec![v; 100]) {
                last[key as usize] = v;
            }
            if cluster.wait_for_migrations(Duration::ZERO) {
                break;
            }
        }
        v += 1;
    }
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    let mut c = cluster.client(ClientConfig::default());
    let bad = (0..15_000u64)
        .filter(|&k| c.read(k) != Some(vec![last[k as usize]; 100]))
        .count();
    assert_eq!(
        bad, 0,
        "{bad} of 15000 keys lost a write acknowledged during the migration"
    );
}

/// A second migration moves a range its source received spilled, with
/// client writes made during the first that spilled there too: the
/// source's own spilled writes and the indirection records it holds to the
/// first owner's chains both move on, and every key reads its last
/// acknowledged value through either hop.
#[test]
fn a_second_migration_keeps_both_hops() {
    let mut config = ClusterConfig::two_server_test();
    config.servers = 3;
    config.server_template.migration.buckets_per_iteration = 1;
    let cluster = Cluster::start(config);
    apply(&cluster, 0..15_000, put(1));
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.5)
        .unwrap();
    // 1 KiB values, so the writes made during the migration spill the
    // target's log while the indirection records it receives are new.
    let mut c = cluster.client(ClientConfig::default());
    let (mut last, mut v) = (vec![vec![1u8; 100]; 15_000], 2u8);
    while !cluster.wait_for_migrations(Duration::ZERO) && v < 200 {
        for key in (0..15_000u64).filter(|k| k.is_multiple_of(4)) {
            if c.upsert(key, vec![v; 1024]) {
                last[key as usize] = vec![v; 1024];
            }
            if cluster.wait_for_migrations(Duration::ZERO) {
                break;
            }
        }
        v += 1;
    }
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    cluster
        .migrate_fraction(ServerId(1), ServerId(2), 1.0)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(60)));
    let mut c = cluster.client(ClientConfig::default());
    let bad = (0..15_000u64)
        .filter(|&k| c.read(k).as_ref() != Some(&last[k as usize]))
        .count();
    assert_eq!(
        bad, 0,
        "{bad} of 15000 keys lost their value across two migrations"
    );
}
