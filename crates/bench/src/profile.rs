//! Per-transport CPU cost and delay profiles: the input of [`crate::model`].
//!
//! The CPU cost of packet processing, not link bandwidth, sets how large
//! request batches must be to saturate a server, and hence the median
//! latency (paper §3.1.2, §4.2–4.3).  Accelerated TCP halves that cost
//! relative to plain TCP; RDMA (Infrc) nearly eliminates it.  No live
//! transport charges these costs: the in-process fabric is zero-cost.

use std::time::Duration;

/// CPU and delay costs of one transport option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Human-readable name (matches Table 2 row labels).
    pub name: &'static str,
    /// CPU nanoseconds consumed per batch on the send path (syscall, driver,
    /// protocol bookkeeping).
    pub send_batch_ns: u64,
    /// CPU nanoseconds per byte on the send path (copies, checksums).
    pub send_byte_ns: f64,
    /// CPU nanoseconds consumed per batch on the receive path.
    pub recv_batch_ns: u64,
    /// CPU nanoseconds per byte on the receive path.
    pub recv_byte_ns: f64,
    /// One-way propagation delay (fabric latency, independent of CPU).
    pub propagation: Duration,
}

impl NetworkProfile {
    /// A profile charging the same costs on the send and receive paths, as
    /// every preset does.
    const fn symmetric(name: &'static str, batch_ns: u64, byte_ns: f64, one_way_us: u64) -> Self {
        NetworkProfile {
            name,
            send_batch_ns: batch_ns,
            send_byte_ns: byte_ns,
            recv_batch_ns: batch_ns,
            recv_byte_ns: byte_ns,
            propagation: Duration::from_micros(one_way_us),
        }
    }

    /// Zero-cost profile: the model's "FASTER without networking" curve.
    pub const fn instant() -> Self {
        Self::symmetric("instant", 0, 0.0, 0)
    }

    /// Linux TCP with SmartNIC acceleration (the paper's default transport;
    /// Table 2 row "TCP").
    pub const fn tcp_accelerated() -> Self {
        Self::symmetric("TCP (accelerated)", 4_000, 0.45, 25)
    }

    /// Linux TCP without acceleration (Table 2 row "w/o Accel").  With the
    /// whole kernel TCP stack on the vCPU, per-byte processing (copies,
    /// checksums, segmentation) dominates: the paper measures the same
    /// workload dropping from 130 Mops/s to 75 Mops/s at 32 KB batches, which
    /// corresponds to roughly an extra 360 ns of CPU per 29-byte operation —
    /// i.e. ~12 ns/byte of un-offloaded protocol processing.
    pub const fn tcp_no_accel() -> Self {
        Self::symmetric("TCP (no accel)", 20_000, 12.0, 25)
    }

    /// Two-sided RDMA on HPC instances (Table 2 row "Infrc"): the stack is in
    /// hardware, so per-batch and per-byte CPU costs are tiny and the fabric
    /// delay is a few microseconds.
    pub const fn infrc() -> Self {
        Self::symmetric("Infrc (RDMA)", 400, 0.02, 3)
    }

    /// TCP over IPoIB on the RDMA instances (Table 2 row "TCP-IPoIB"):
    /// kernel TCP costs, but faster vCPUs and fabric.
    pub const fn tcp_ipoib() -> Self {
        Self::symmetric("TCP-IPoIB", 3_000, 0.35, 8)
    }

    /// CPU time charged on the send path for a message of `bytes`.
    pub fn send_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.send_batch_ns + (self.send_byte_ns * bytes as f64) as u64)
    }

    /// CPU time charged on the receive path for a message of `bytes`.
    pub fn recv_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.recv_batch_ns + (self.recv_byte_ns * bytes as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_profile_costs_nothing() {
        let p = NetworkProfile::instant();
        assert_eq!(p.send_cost(1 << 20), Duration::ZERO);
        assert_eq!(p.recv_cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn accelerated_tcp_is_cheaper_than_plain_tcp() {
        let accel = NetworkProfile::tcp_accelerated();
        let plain = NetworkProfile::tcp_no_accel();
        let batch = 32 * 1024;
        assert!(accel.send_cost(batch) < plain.send_cost(batch));
        assert!(accel.recv_cost(batch) < plain.recv_cost(batch));
    }

    #[test]
    fn rdma_is_cheapest_and_fastest() {
        let infrc = NetworkProfile::infrc();
        let others = [
            NetworkProfile::tcp_accelerated(),
            NetworkProfile::tcp_no_accel(),
            NetworkProfile::tcp_ipoib(),
        ];
        for p in others {
            assert!(infrc.send_cost(1024) < p.send_cost(1024));
            assert!(infrc.propagation <= p.propagation);
        }
    }
}
