//! Elastic scale-out under load: reproduce the paper's headline capability —
//! shifting 10% of a loaded server's hash space to an idle server while
//! clients keep issuing requests, then reporting how throughput and pending
//! operations behaved (a miniature of Figures 10–12).
//!
//! Run with: `cargo run --release --example elastic_scaleout`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{ClientConfig, Cluster, ClusterConfig, ServerId, SessionConfig};
use shadowfax_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let records = 20_000u64;
    let cluster = Cluster::start(ClusterConfig::two_server_test());

    // Preload.
    let mut loader = cluster.client(ClientConfig::default());
    let gen = WorkloadGenerator::new(WorkloadConfig::ycsb_f(records));
    for (key, value) in gen.load_phase() {
        loader.issue_upsert(key, value, Box::new(|_| {}));
        if loader.outstanding_ops() > 4096 {
            loader.poll();
        }
    }
    loader.drain(Duration::from_secs(60));
    println!("preloaded {records} records on server 0");

    // Background load.
    let stop = Arc::new(AtomicBool::new(false));
    let done_ops = Arc::new(AtomicU64::new(0));
    let load_thread = {
        let stop = Arc::clone(&stop);
        let done_ops = Arc::clone(&done_ops);
        let meta = Arc::clone(cluster.meta());
        let net = Arc::clone(cluster.network());
        std::thread::spawn(move || {
            let mut client = shadowfax::ShadowfaxClient::new(
                ClientConfig::default().with_session(SessionConfig {
                    max_batch_ops: 64,
                    max_batch_bytes: 16 * 1024,
                    max_inflight_batches: 4,
                }),
                meta,
                net,
            );
            let mut gen = WorkloadGenerator::new(WorkloadConfig::ycsb_f(records).with_seed(99));
            while !stop.load(Ordering::SeqCst) {
                for _ in 0..64 {
                    let key = gen.next_key();
                    let done_ops = Arc::clone(&done_ops);
                    client.issue_rmw(
                        key,
                        1,
                        Box::new(move |_| {
                            done_ops.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                }
                client.flush();
                client.poll();
            }
            client.drain(Duration::from_secs(10));
        })
    };

    // Let the load warm up, then migrate 10% of the hash space.
    std::thread::sleep(Duration::from_secs(2));
    let before = done_ops.load(Ordering::Relaxed);
    println!("starting migration of 10% of server 0's hash range to server 1...");
    let migration_start = Instant::now();
    cluster
        .migrate_fraction(ServerId(0), ServerId(1), 0.10)
        .unwrap();
    assert!(cluster.wait_for_migrations(Duration::from_secs(120)));
    let migration_secs = migration_start.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::SeqCst);
    load_thread.join().unwrap();

    let source = cluster.server(ServerId(0)).unwrap();
    let target = cluster.server(ServerId(1)).unwrap();
    println!("migration completed in {migration_secs:.1}s");
    if let Some(report) = source.last_migration_report() {
        println!(
            "  source shipped {} records + {} indirection records ({} KiB from memory)",
            report.records_moved,
            report.indirection_records,
            report.bytes_from_memory / 1024
        );
    }
    println!(
        "  ops completed during+after migration: {}",
        done_ops.load(Ordering::Relaxed) - before
    );
    println!(
        "  target served {} ops, {} ops ever pended there",
        target.completed_ops(),
        target.total_pended_ops()
    );
    println!(
        "  ownership: server 0 owns {} range(s), server 1 owns {} range(s)",
        source.owned_ranges().len(),
        target.owned_ranges().len()
    );
    cluster.shutdown();
}
