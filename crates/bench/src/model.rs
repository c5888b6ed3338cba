//! Analytical throughput and latency models.
//!
//! The evaluation machine exposes a single vCPU, so the paper's thread-count
//! sweeps (64-thread VMs, Figures 8–9, Table 2) cannot be observed directly.
//! Instead, these models combine costs *measured on real code* (see
//! [`crate::calibrate`]) with the transport cost profiles in
//! [`crate::profile`] to predict saturation throughput, required batch size, and
//! median latency per thread count — the same cost structure the paper's
//! analysis attributes the results to.  The headline shapes (linear scaling
//! for Shadowfax tracking local FASTER, ~1.7× loss without accelerated
//! networking, Seastar saturating an order of magnitude lower, RDMA's much
//! smaller batches and latency) follow from those costs, not from tuned
//! constants.

use std::time::Duration;

use crate::calibrate::Calibration;
use crate::profile::NetworkProfile;

/// Request/response sizes of one YCSB-F read-modify-write on the wire.
pub const RMW_REQUEST_BYTES: usize = 20;
/// Response bytes per operation (an 8-byte counter plus framing).
pub const RMW_RESPONSE_BYTES: usize = 9;

/// One point of a thread-scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Thread count.
    pub threads: usize,
    /// Predicted throughput in operations per second.
    pub throughput_ops: f64,
}

/// Predicted saturation behaviour of one transport (a row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationPoint {
    /// Transport name.
    pub transport: &'static str,
    /// Saturation throughput at `threads` threads (ops/s).
    pub throughput_ops: f64,
    /// Batch size (bytes) needed to reach within 5% of CPU-bound throughput.
    pub batch_bytes: usize,
    /// Predicted median latency at saturation.
    pub median_latency: Duration,
    /// Outstanding operations per session needed to keep the pipeline full.
    pub queue_depth: usize,
}

/// Per-core service time of one operation including its share of transport
/// CPU cost, for a given batch size in operations.
///
/// `cpu_scale` converts the transport costs (expressed for the paper's
/// machine, see [`crate::calibrate::PAPER_REFERENCE_OP`]) to this machine's
/// CPU speed so the transport-to-operation cost ratio is machine-independent.
fn per_op_cost(
    op: Duration,
    profile: &NetworkProfile,
    ops_per_batch: usize,
    cpu_scale: f64,
) -> Duration {
    let req_bytes = RMW_REQUEST_BYTES * ops_per_batch;
    let resp_bytes = RMW_RESPONSE_BYTES * ops_per_batch;
    // The server receives the request batch and sends the response batch.
    let batch_cpu = profile.recv_cost(req_bytes) + profile.send_cost(resp_bytes);
    let net_per_op = batch_cpu.as_nanos() as f64 * cpu_scale / ops_per_batch as f64;
    Duration::from_nanos(op.as_nanos() as u64 + net_per_op as u64)
}

/// Predicts Shadowfax server throughput versus thread count for one transport
/// profile (Figure 8).  `local` selects the FASTER-without-networking curve.
pub fn shadowfax_scaling(
    calibration: &Calibration,
    profile: &NetworkProfile,
    thread_counts: &[usize],
    zipfian: bool,
    local: bool,
    batch_bytes: usize,
) -> Vec<ScalingPoint> {
    let op = if zipfian {
        calibration.faster_op_zipfian
    } else {
        calibration.faster_op_uniform
    };
    let ops_per_batch = (batch_bytes / RMW_REQUEST_BYTES).max(1);
    let cost = if local {
        op
    } else {
        per_op_cost(op, profile, ops_per_batch, calibration.cpu_scale_vs_paper())
    };
    thread_counts
        .iter()
        .map(|&threads| {
            // Shared-data design: no software coordination between threads, so
            // throughput scales with the thread count; a mild contention factor
            // accounts for cache-coherence traffic on hot records under skew.
            let contention = if zipfian {
                1.0 + 0.002 * threads as f64
            } else {
                1.0
            };
            let per_thread = 1.0 / (cost.as_secs_f64() * contention);
            ScalingPoint {
                threads,
                throughput_ops: per_thread * threads as f64,
            }
        })
        .collect()
}

/// Predicts the Seastar-style shared-nothing baseline's throughput versus
/// thread count (Figure 9).  Every request that arrives on a non-owning core
/// pays a cross-core forward, and each core's poll loop must check the other
/// cores' queues, so per-operation cost grows with the core count — which is
/// what caps the curve.
pub fn partitioned_scaling(
    calibration: &Calibration,
    thread_counts: &[usize],
) -> Vec<ScalingPoint> {
    let local = calibration.partitioned_local_op.as_secs_f64();
    let forward = calibration.partitioned_forward.as_secs_f64();
    // Polling other cores' queues costs a small fraction of the forward cost
    // per peer per operation.
    let poll_per_peer = forward * 0.02;
    thread_counts
        .iter()
        .map(|&threads| {
            let n = threads as f64;
            let forwarded_fraction = (n - 1.0) / n;
            let per_op = local + forwarded_fraction * forward + poll_per_peer * (n - 1.0);
            ScalingPoint {
                threads,
                throughput_ops: n / per_op,
            }
        })
        .collect()
}

/// Predicts one Table 2 row: the batch size needed to saturate, the resulting
/// throughput, and the median latency at that operating point.
pub fn saturation_for_profile(
    calibration: &Calibration,
    profile: &NetworkProfile,
    threads: usize,
    cpu_speedup: f64,
) -> SaturationPoint {
    let op = Duration::from_nanos(
        (calibration.faster_op_zipfian.as_nanos() as f64 / cpu_speedup) as u64,
    );
    let cpu_scale = calibration.cpu_scale_vs_paper() / cpu_speedup;
    // Find the smallest batch (in ops) whose amortized transport CPU cost is
    // within 5% of the bare operation cost.  Per-byte cost never amortizes,
    // so cap the search at the 32 KB the paper uses (beyond that, "increased
    // batch size doesn't help", §4.3).
    let max_ops_per_batch = (32 * 1024) / RMW_REQUEST_BYTES;
    let mut ops_per_batch = 1usize;
    while ops_per_batch < max_ops_per_batch {
        let total = per_op_cost(op, profile, ops_per_batch, cpu_scale);
        if total.as_secs_f64() <= op.as_secs_f64() * 1.05 {
            break;
        }
        ops_per_batch *= 2;
    }
    let per_op = per_op_cost(op, profile, ops_per_batch, cpu_scale);
    let throughput = threads as f64 / per_op.as_secs_f64();
    let batch_bytes = ops_per_batch * RMW_REQUEST_BYTES;

    // Little's law over one client session: the session must keep enough
    // operations outstanding to cover the round trip plus the time to fill
    // and serve a batch.
    let per_session_rate = throughput / threads as f64;
    let batch_fill = Duration::from_secs_f64(ops_per_batch as f64 / per_session_rate);
    let service = Duration::from_secs_f64(ops_per_batch as f64 * per_op.as_secs_f64());
    let rtt = profile.propagation * 2;
    let residence = batch_fill + service + rtt;
    let queue_depth = (per_session_rate * residence.as_secs_f64()).ceil() as usize;
    SaturationPoint {
        transport: profile.name,
        throughput_ops: throughput,
        batch_bytes,
        median_latency: residence,
        queue_depth,
    }
}

/// One point of a batch-size ablation sweep (paper §4.3: batching amortizes
/// transport CPU, but every operation then waits for its batch to fill and be
/// served, so latency grows with the batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSweepPoint {
    /// Batch size in bytes.
    pub batch_bytes: usize,
    /// Predicted saturation throughput at this batch size (ops/s).
    pub throughput_ops: f64,
    /// Predicted median latency at this batch size.
    pub median_latency: Duration,
}

/// Ablation of the client batch size for one transport: how throughput and
/// median latency move as the batch grows.  This is the trade-off behind
/// Table 2's "batch size needed to saturate" column — the paper picks the
/// smallest batch that amortizes the transport's CPU cost.
pub fn batch_size_sweep(
    calibration: &Calibration,
    profile: &NetworkProfile,
    threads: usize,
    batch_sizes_bytes: &[usize],
) -> Vec<BatchSweepPoint> {
    let op = calibration.faster_op_zipfian;
    let cpu_scale = calibration.cpu_scale_vs_paper();
    batch_sizes_bytes
        .iter()
        .map(|&batch_bytes| {
            let ops_per_batch = (batch_bytes / RMW_REQUEST_BYTES).max(1);
            let per_op = per_op_cost(op, profile, ops_per_batch, cpu_scale);
            let throughput = threads as f64 / per_op.as_secs_f64();
            let per_session_rate = throughput / threads as f64;
            let batch_fill = Duration::from_secs_f64(ops_per_batch as f64 / per_session_rate);
            let service = Duration::from_secs_f64(ops_per_batch as f64 * per_op.as_secs_f64());
            let rtt = profile.propagation * 2;
            BatchSweepPoint {
                batch_bytes,
                throughput_ops: throughput,
                median_latency: batch_fill + service + rtt,
            }
        })
        .collect()
}

/// Predicts normal-case throughput under view validation versus per-key hash
/// validation for a number of hash splits (Figure 15).
pub fn validation_scaling(
    calibration: &Calibration,
    splits: &[usize],
    threads: usize,
    ops_per_batch: usize,
) -> Vec<(usize, f64, f64)> {
    let op = calibration.faster_op_zipfian.as_secs_f64();
    let view_per_op = calibration.view_validation_per_batch.as_secs_f64() / ops_per_batch as f64;
    splits
        .iter()
        .map(|&s| {
            // Binary search over the owned ranges: cost grows with log2(splits).
            let base = calibration.hash_validation_per_key_16_splits.as_secs_f64();
            let hash_per_op = base * (1.0 + ((s.max(2) as f64).log2() - 4.0).max(0.0) * 0.25);
            let view_tput = threads as f64 / (op + view_per_op);
            let hash_tput = threads as f64 / (op + hash_per_op);
            (s, view_tput, hash_tput)
        })
        .collect()
}

/// Predicts aggregate cluster throughput versus server count (the paper's
/// 8-server, 400 Mops/s CloudLab result): servers do not coordinate on the
/// data path, so the aggregate is the per-server saturation times the count.
pub fn cluster_scaling(per_server_ops: f64, servers: &[usize]) -> Vec<(usize, f64)> {
    servers
        .iter()
        .map(|&n| (n, per_server_ops * n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibrationConfig};
    use std::sync::OnceLock;

    /// Calibration is the expensive part of these tests (it runs hundreds of
    /// thousands of real FASTER operations), and every test needs the same
    /// numbers, so it is measured once and shared.
    fn test_calibration() -> Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        *CAL.get_or_init(|| calibrate(CalibrationConfig::quick()))
    }

    #[test]
    fn shadowfax_tracks_faster_and_scales_linearly() {
        let c = test_calibration();
        let threads = [1usize, 8, 16, 32, 64];
        let accel = shadowfax_scaling(
            &c,
            &NetworkProfile::tcp_accelerated(),
            &threads,
            true,
            false,
            32 * 1024,
        );
        let local = shadowfax_scaling(
            &c,
            &NetworkProfile::instant(),
            &threads,
            true,
            true,
            32 * 1024,
        );
        // Networked throughput stays within ~15% of local FASTER (Figure 8).
        for (a, l) in accel.iter().zip(local.iter()) {
            assert!(a.throughput_ops > 0.80 * l.throughput_ops);
        }
        // Roughly linear: 64 threads ≥ 50× one thread.
        assert!(accel[4].throughput_ops > 50.0 * accel[0].throughput_ops);
    }

    #[test]
    fn disabling_acceleration_costs_throughput() {
        let c = test_calibration();
        let threads = [64usize];
        let accel = shadowfax_scaling(
            &c,
            &NetworkProfile::tcp_accelerated(),
            &threads,
            true,
            false,
            32 * 1024,
        );
        let plain = shadowfax_scaling(
            &c,
            &NetworkProfile::tcp_no_accel(),
            &threads,
            true,
            false,
            32 * 1024,
        );
        let ratio = accel[0].throughput_ops / plain[0].throughput_ops;
        assert!(ratio > 1.1, "acceleration should matter, got ratio {ratio}");
    }

    #[test]
    fn partitioned_baseline_saturates_below_shadowfax() {
        let c = test_calibration();
        let threads = [1usize, 8, 16, 28, 32, 64];
        let seastar = partitioned_scaling(&c, &threads);
        let shadowfax = shadowfax_scaling(
            &c,
            &NetworkProfile::tcp_accelerated(),
            &threads,
            false,
            false,
            32 * 1024,
        );
        // At 28 threads Shadowfax is already far ahead (paper: ≥4×).
        let s28 = seastar.iter().find(|p| p.threads == 28).unwrap();
        let f28 = shadowfax.iter().find(|p| p.threads == 28).unwrap();
        assert!(f28.throughput_ops > 2.0 * s28.throughput_ops);
        // The shared-nothing curve flattens: 64 threads is not much better
        // than 28 (the paper reports it goes flat after 28).
        let s64 = seastar.iter().find(|p| p.threads == 64).unwrap();
        assert!(s64.throughput_ops < 1.8 * s28.throughput_ops);
    }

    #[test]
    fn rdma_needs_smaller_batches_and_has_lower_latency() {
        let c = test_calibration();
        let tcp = saturation_for_profile(&c, &NetworkProfile::tcp_accelerated(), 64, 1.0);
        let infrc = saturation_for_profile(&c, &NetworkProfile::infrc(), 44, 2.7 / 2.3);
        assert!(infrc.batch_bytes < tcp.batch_bytes);
        assert!(infrc.median_latency < tcp.median_latency);
        assert!(infrc.queue_depth < tcp.queue_depth);
    }

    #[test]
    fn view_validation_is_flat_hash_validation_degrades() {
        let c = test_calibration();
        let rows = validation_scaling(&c, &[1, 16, 512, 2048], 64, 64);
        let (_, view_1, hash_1) = rows[0];
        let (_, view_2048, hash_2048) = rows[3];
        // View validation is essentially flat across splits.
        assert!((view_1 - view_2048).abs() / view_1 < 0.01);
        // Hash validation loses throughput as splits grow.
        assert!(hash_2048 < hash_1);
        // And view validation is never worse than hash validation.
        assert!(view_2048 >= hash_2048);
    }

    #[test]
    fn cluster_scaling_is_linear() {
        let rows = cluster_scaling(50_000_000.0, &[1, 2, 4, 8]);
        assert_eq!(rows.last().unwrap().1, 400_000_000.0);
    }

    #[test]
    fn batch_sweep_trades_latency_for_throughput() {
        let c = test_calibration();
        let sizes = [256usize, 1024, 4 * 1024, 32 * 1024, 128 * 1024];
        let sweep = batch_size_sweep(&c, &NetworkProfile::tcp_accelerated(), 64, &sizes);
        assert_eq!(sweep.len(), sizes.len());
        // Larger batches amortize the per-batch transport cost: throughput is
        // non-decreasing across the sweep and clearly better than tiny batches.
        for pair in sweep.windows(2) {
            assert!(pair[1].throughput_ops >= pair[0].throughput_ops * 0.999);
        }
        assert!(sweep.last().unwrap().throughput_ops > 1.2 * sweep[0].throughput_ops);
        // But every operation waits for its batch: median latency grows.
        assert!(sweep.last().unwrap().median_latency > sweep[0].median_latency);
    }
}
