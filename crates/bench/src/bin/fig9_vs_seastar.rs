//! Figure 9: Shadowfax versus a Seastar+memcached-style shared-nothing
//! baseline under uniformly distributed keys.
//!
//! The paper reports Seastar flat at ~10 Mops/s after 28 threads while
//! Shadowfax scales linearly to ~85 Mops/s at 64 threads (≥4× at 28 threads).

use shadowfax_bench::calibrate::{calibrate, CalibrationConfig};
use shadowfax_bench::model::{partitioned_scaling, shadowfax_scaling};
use shadowfax_bench::profile::NetworkProfile;
use shadowfax_bench::report::{banner, mops, Table};

fn main() {
    banner(
        "Figure 9 — Shadowfax vs Seastar (YCSB-F, uniform keys)",
        "Seastar ~10 Mops/s flat after 28 threads; Shadowfax ~85 Mops/s at 64 threads",
    );
    let calibration = calibrate(CalibrationConfig::default());
    println!(
        "calibrated costs: local shard op {:?}, cross-core forward {:?}, faster op (uniform) {:?}",
        calibration.partitioned_local_op,
        calibration.partitioned_forward,
        calibration.faster_op_uniform
    );
    let threads = [1usize, 4, 8, 16, 24, 28, 32, 40, 48, 56, 64];
    let shadowfax = shadowfax_scaling(
        &calibration,
        &NetworkProfile::tcp_accelerated(),
        &threads,
        false,
        false,
        32 * 1024,
    );
    let seastar = partitioned_scaling(&calibration, &threads);

    let mut table = Table::new(&["threads", "seastar_mops", "shadowfax_mops", "speedup"]);
    for i in 0..threads.len() {
        table.row(&[
            threads[i].to_string(),
            mops(seastar[i].throughput_ops),
            mops(shadowfax[i].throughput_ops),
            format!(
                "{:.1}x",
                shadowfax[i].throughput_ops / seastar[i].throughput_ops
            ),
        ]);
    }
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
