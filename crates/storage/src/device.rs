//! The [`Device`] trait: the interface the HybridLog uses to persist and read
//! back pages of record data.

use std::fmt;
use std::sync::Arc;

use crate::counters::DeviceCounters;

/// Errors reported by storage devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A read referenced an offset that has never been written.
    UnwrittenRange {
        /// Requested offset in bytes.
        offset: u64,
        /// Requested length in bytes.
        len: usize,
    },
    /// A read or write exceeded the device's configured capacity.
    OutOfCapacity {
        /// Requested end offset in bytes.
        end: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The referenced log id does not exist on the shared tier.
    UnknownLog(u64),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnwrittenRange { offset, len } => {
                write!(f, "read of unwritten range [{offset}, {offset}+{len})")
            }
            DeviceError::OutOfCapacity { end, capacity } => {
                write!(f, "access past device capacity ({end} > {capacity})")
            }
            DeviceError::UnknownLog(id) => write!(f, "unknown log id {id} on shared tier"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Convenience result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// A byte-addressable, append-friendly storage device.
///
/// The HybridLog writes whole pages at page-aligned offsets and reads back
/// arbitrary byte ranges (individual records or whole pages during recovery
/// and compaction).  Implementations must be safe to share across threads;
/// writes to disjoint ranges may proceed concurrently.
pub trait Device: Send + Sync {
    /// Writes `data` at byte `offset`.  Returns once the bytes are readable;
    /// no device models a service time, so the call costs what the copy
    /// costs.
    fn write(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Writes the whole of `page` at byte `offset` (the flush path).  The
    /// buffer is immutable once handed over: the caller never changes it,
    /// and a device may keep it, rather than a copy, for as long as it
    /// holds those bytes, so one flushed page can back several devices.
    /// The default copies through [`Device::write`].
    fn write_page(&self, offset: u64, page: Arc<[u8]>) -> Result<()> {
        self.write(offset, &page)
    }

    /// Reads `buf.len()` bytes starting at `offset` into `buf`.
    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Highest byte offset ever written plus one (i.e. the device's logical
    /// size).  Zero for an empty device.
    fn written_extent(&self) -> u64;

    /// Performance/usage counters for this device.
    fn counters(&self) -> &DeviceCounters;

    /// A short human-readable name ("sim-ssd", "shared-tier", ...).
    fn name(&self) -> &str;
}

/// A device that ignores writes and fails all reads.
///
/// Useful for configurations where the log never spills out of memory and for
/// unit tests that must prove no I/O was issued.
#[derive(Debug, Default)]
pub struct NullDevice {
    counters: DeviceCounters,
}

impl NullDevice {
    /// Creates a new null device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for NullDevice {
    fn write(&self, _offset: u64, data: &[u8]) -> Result<()> {
        self.counters.record_write(data.len());
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.counters.record_read(0);
        Err(DeviceError::UnwrittenRange {
            offset,
            len: buf.len(),
        })
    }

    fn written_extent(&self) -> u64 {
        0
    }

    fn counters(&self) -> &DeviceCounters {
        &self.counters
    }

    fn name(&self) -> &str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_device_accepts_writes_and_rejects_reads() {
        let dev = NullDevice::new();
        dev.write(0, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        let err = dev.read(0, &mut buf).unwrap_err();
        assert!(matches!(err, DeviceError::UnwrittenRange { .. }));
        assert_eq!(dev.counters().snapshot().bytes_written, 3);
        assert_eq!(dev.written_extent(), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DeviceError::OutOfCapacity {
            end: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("capacity"));
        let e = DeviceError::UnknownLog(7);
        assert!(e.to_string().contains('7'));
    }
}
