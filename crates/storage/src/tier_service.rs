//! The [`TierService`] seam: how spilled record chains on the shared tier
//! are read, whether the log lives in this process or in another one.
//!
//! Indirection records shipped during migration name a `(log id, address)`
//! location on the cluster-shared storage tier (paper §3.3.2).  The layers
//! above walk such a chain themselves, one hop at a time, with
//! [`TierService::read_log`]; this seam only decides where the bytes come
//! from:
//!
//! * the local [`SharedBlobTier`](crate::SharedBlobTier) reads them from
//!   memory (every log of an in-process cluster lives there);
//! * the RPC layer reads a log another process hosts from a shared tier
//!   daemon, or from the process hosting it, with `TIER_READ` frames.
//!
//! This crate knows nothing about the record format.  A read that fails
//! means the bytes are not reachable right now, never that the record is
//! absent: callers keep the operation pending.

use crate::device::Result;
use crate::shared_tier::{LogId, SharedBlobTier};

/// Reads spilled record chains off the shared tier.
///
/// Implementations must be callable from any dispatch thread.
pub trait TierService: Send + Sync {
    /// Reads `buf.len()` bytes at `offset` of `log`.
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> Result<()>;
}

impl TierService for SharedBlobTier {
    fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> Result<()> {
        SharedBlobTier::read_log(self, log, offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_tier_is_a_local_service() {
        let tier = SharedBlobTier::new(1 << 20);
        crate::Device::write(&tier.handle(LogId(3)), 128, &[0xCD; 32]).unwrap();
        let svc: &dyn TierService = tier.as_ref();
        let mut buf = [0u8; 32];
        svc.read_log(LogId(3), 128, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xCD));
    }
}
