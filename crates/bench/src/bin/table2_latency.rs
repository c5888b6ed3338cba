//! Table 2: batch size, median latency, and queue depth at server saturation
//! for each transport (accelerated TCP, plain TCP, two-sided RDMA, TCP-IPoIB).
//!
//! The paper reports: TCP 130 Mops/s / 32 KB / 1.3 ms, w/o accel 75 Mops/s /
//! 2.2 ms, Infrc 126 Mops/s / 1 KB / 38.6 µs, TCP-IPoIB 125 Mops/s / 8 KB /
//! 260 µs.

use shadowfax_bench::calibrate::{calibrate, CalibrationConfig};
use shadowfax_bench::model::saturation_for_profile;
use shadowfax_bench::profile::NetworkProfile;
use shadowfax_bench::report::{banner, human_duration, mops, Table};

fn main() {
    banner(
        "Table 2 — latency and batch size at server saturation",
        "TCP: 130 Mops/s, 32 KB, 1.3 ms | Infrc: 126 Mops/s, 1 KB, 38.6 µs",
    );
    let calibration = calibrate(CalibrationConfig::default());
    // The RDMA-capable instances have 44 faster vCPUs (2.7 GHz vs 2.3 GHz).
    let rows = [
        (NetworkProfile::tcp_accelerated(), 64usize, 1.0f64),
        (NetworkProfile::tcp_no_accel(), 64, 1.0),
        (NetworkProfile::infrc(), 44, 2.7 / 2.3),
        (NetworkProfile::tcp_ipoib(), 44, 2.7 / 2.3),
    ];
    let mut table = Table::new(&[
        "transport",
        "throughput_mops",
        "batch_kb",
        "median_latency",
        "queue_depth",
    ]);
    for (profile, threads, speedup) in rows {
        let p = saturation_for_profile(&calibration, &profile, threads, speedup);
        table.row(&[
            p.transport.to_string(),
            mops(p.throughput_ops),
            format!("{:.1}", p.batch_bytes as f64 / 1024.0),
            human_duration(p.median_latency),
            p.queue_depth.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
