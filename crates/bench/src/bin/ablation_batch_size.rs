//! Ablation: client batch size versus saturation throughput and median
//! latency, per transport (the trade-off discussed in §4.3 of the paper and
//! summarized by Table 2's "batch size needed to saturate" column).
//!
//! Larger batches amortize the transport's per-batch CPU cost — which is what
//! lets plain TCP approach the accelerated path's throughput — but every
//! operation then waits for its batch to fill and be served, so median
//! latency grows roughly linearly with the batch.  Hardware acceleration and
//! RDMA shrink the batch needed to saturate, which is why their latencies in
//! Table 2 are so much lower.

use shadowfax_bench::calibrate::{calibrate, CalibrationConfig};
use shadowfax_bench::model::batch_size_sweep;
use shadowfax_bench::profile::NetworkProfile;
use shadowfax_bench::report::{banner, human_duration, mops, Table};

fn main() {
    banner(
        "Ablation — batch size vs. throughput and latency",
        "paper §4.3: 32 KB batches saturate accelerated TCP at 1.3 ms; 1 KB saturates RDMA at 38.6 µs",
    );
    let calibration = calibrate(CalibrationConfig::default());
    let sizes = [
        256usize,
        1024,
        4 * 1024,
        8 * 1024,
        16 * 1024,
        32 * 1024,
        64 * 1024,
        128 * 1024,
    ];
    let transports = [
        NetworkProfile::tcp_accelerated(),
        NetworkProfile::tcp_no_accel(),
        NetworkProfile::infrc(),
        NetworkProfile::tcp_ipoib(),
    ];
    let mut table = Table::new(&["transport", "batch_kb", "throughput_mops", "median_latency"]);
    for profile in transports {
        for point in batch_size_sweep(&calibration, &profile, 64, &sizes) {
            table.row(&[
                profile.name.to_string(),
                format!("{:.2}", point.batch_bytes as f64 / 1024.0),
                mops(point.throughput_ops),
                human_duration(point.median_latency),
            ]);
        }
    }
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
