//! Figure 8: Shadowfax thread scalability under YCSB-F with Zipfian keys.
//!
//! Series: local FASTER (no networking), Shadowfax over accelerated TCP, and
//! Shadowfax with acceleration disabled.  The paper reports ~128 Mops/s for
//! FASTER, ~130 Mops/s for Shadowfax, and ~75 Mops/s without acceleration at
//! 64 threads; the reproduction predicts the curves from costs measured on
//! this machine (see DESIGN.md §1 for the substitution rationale).

use shadowfax_bench::calibrate::{calibrate, CalibrationConfig};
use shadowfax_bench::model::shadowfax_scaling;
use shadowfax_bench::profile::NetworkProfile;
use shadowfax_bench::report::{banner, mops, Table};

fn main() {
    banner(
        "Figure 8 — thread scalability (YCSB-F, Zipfian 0.99, in-memory)",
        "FASTER 128 Mops/s, Shadowfax 130 Mops/s, w/o accel 75 Mops/s at 64 threads",
    );
    let calibration = calibrate(CalibrationConfig::default());
    println!(
        "calibrated per-op cost (zipfian): {:?}",
        calibration.faster_op_zipfian
    );
    let threads = [1usize, 8, 16, 24, 32, 40, 48, 56, 64];
    let faster = shadowfax_scaling(
        &calibration,
        &NetworkProfile::instant(),
        &threads,
        true,
        true,
        32 * 1024,
    );
    let accel = shadowfax_scaling(
        &calibration,
        &NetworkProfile::tcp_accelerated(),
        &threads,
        true,
        false,
        32 * 1024,
    );
    let noaccel = shadowfax_scaling(
        &calibration,
        &NetworkProfile::tcp_no_accel(),
        &threads,
        true,
        false,
        32 * 1024,
    );

    let mut table = Table::new(&["threads", "faster_mops", "shadowfax_mops", "no_accel_mops"]);
    for i in 0..threads.len() {
        table.row(&[
            threads[i].to_string(),
            mops(faster[i].throughput_ops),
            mops(accel[i].throughput_ops),
            mops(noaccel[i].throughput_ops),
        ]);
    }
    println!("{}", table.render());
    let last = threads.len() - 1;
    println!(
        "Shadowfax/FASTER at 64 threads: {:.2}x   accel/no-accel: {:.2}x (paper: ~1.0x and ~1.7x)",
        accel[last].throughput_ops / faster[last].throughput_ops,
        accel[last].throughput_ops / noaccel[last].throughput_ops
    );
    println!("\nCSV:\n{}", table.to_csv());
}
