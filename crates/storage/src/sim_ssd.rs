//! An in-memory stand-in for the local NVMe SSD.

use parking_lot::RwLock;

use crate::counters::DeviceCounters;
use crate::device::{Device, DeviceError, Result};

/// Size of the internal storage chunks.  Writes may span chunks; this is an
/// implementation detail, not the HybridLog page size.
const CHUNK_SIZE: usize = 64 * 1024;

/// A simulated local SSD backed by RAM.
///
/// The device stores data in fixed-size chunks allocated lazily, so sparse
/// address spaces (the HybridLog only ever writes the stable region) do not
/// consume memory for unwritten ranges.  Accesses cost what the copy costs:
/// no latency, IOPS or bandwidth limit is modelled.
pub struct SimSsd {
    chunks: RwLock<Vec<Option<Box<[u8]>>>>,
    capacity: u64,
    counters: DeviceCounters,
    name: String,
}

impl std::fmt::Debug for SimSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSsd")
            .field("name", &self.name)
            .field("capacity", &self.capacity)
            .field("written_extent", &self.written_extent())
            .finish()
    }
}

impl SimSsd {
    /// Creates a device with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let n_chunks = (capacity as usize).div_ceil(CHUNK_SIZE);
        Self {
            chunks: RwLock::new((0..n_chunks).map(|_| None).collect()),
            capacity,
            counters: DeviceCounters::new(),
            name: "sim-ssd".to_string(),
        }
    }

    /// Renames the device (useful when several appear in one report).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_range(&self, offset: u64, len: usize) -> Result<()> {
        // Saturate so an offset near u64::MAX cannot wrap past the
        // capacity check (and then index off the end of the chunk table).
        let end = offset.saturating_add(len as u64);
        if end > self.capacity {
            return Err(DeviceError::OutOfCapacity {
                end,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

impl Device for SimSsd {
    fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_range(offset, data.len())?;
        let mut chunks = self.chunks.write();
        let mut remaining = data;
        let mut pos = offset as usize;
        while !remaining.is_empty() {
            let chunk_idx = pos / CHUNK_SIZE;
            let chunk_off = pos % CHUNK_SIZE;
            let n = remaining.len().min(CHUNK_SIZE - chunk_off);
            let chunk =
                chunks[chunk_idx].get_or_insert_with(|| vec![0u8; CHUNK_SIZE].into_boxed_slice());
            chunk[chunk_off..chunk_off + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            pos += n;
        }
        self.counters.record_write(data.len());
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_range(offset, buf.len())?;
        let chunks = self.chunks.read();
        let mut pos = offset as usize;
        let mut filled = 0usize;
        while filled < buf.len() {
            let chunk_idx = pos / CHUNK_SIZE;
            let chunk_off = pos % CHUNK_SIZE;
            let n = (buf.len() - filled).min(CHUNK_SIZE - chunk_off);
            match &chunks[chunk_idx] {
                Some(chunk) => {
                    buf[filled..filled + n].copy_from_slice(&chunk[chunk_off..chunk_off + n])
                }
                None => {
                    return Err(DeviceError::UnwrittenRange {
                        offset,
                        len: buf.len(),
                    })
                }
            }
            filled += n;
            pos += n;
        }
        self.counters.record_read(buf.len());
        Ok(())
    }

    fn written_extent(&self) -> u64 {
        let chunks = self.chunks.read();
        let last = chunks.iter().rposition(|c| c.is_some());
        match last {
            Some(idx) => ((idx + 1) * CHUNK_SIZE) as u64,
            None => 0,
        }
    }

    fn counters(&self) -> &DeviceCounters {
        &self.counters
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let dev = SimSsd::new(1 << 20);
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        dev.write(8192, &data).unwrap();
        let mut out = vec![0u8; 4096];
        dev.read(8192, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn write_spanning_chunks_roundtrips() {
        let dev = SimSsd::new(1 << 20);
        let data: Vec<u8> = (0..CHUNK_SIZE * 2 + 100).map(|i| (i % 199) as u8).collect();
        let off = (CHUNK_SIZE - 50) as u64;
        dev.write(off, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        dev.read(off, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn read_of_unwritten_range_fails() {
        let dev = SimSsd::new(1 << 20);
        let mut out = vec![0u8; 16];
        assert!(matches!(
            dev.read(0, &mut out),
            Err(DeviceError::UnwrittenRange { .. })
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let dev = SimSsd::new(1024);
        assert!(matches!(
            dev.write(1020, &[0u8; 16]),
            Err(DeviceError::OutOfCapacity { .. })
        ));
        let mut buf = [0u8; 16];
        assert!(matches!(
            dev.read(1020, &mut buf),
            Err(DeviceError::OutOfCapacity { .. })
        ));
    }

    #[test]
    fn counters_track_io() {
        let dev = SimSsd::new(1 << 20);
        dev.write(0, &[1u8; 100]).unwrap();
        let mut buf = [0u8; 100];
        dev.read(0, &mut buf).unwrap();
        let s = dev.counters().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 100);
    }

    #[test]
    fn written_extent_tracks_highest_chunk() {
        let dev = SimSsd::new(1 << 20);
        assert_eq!(dev.written_extent(), 0);
        dev.write((CHUNK_SIZE * 3) as u64, &[1u8; 10]).unwrap();
        assert_eq!(dev.written_extent(), (CHUNK_SIZE * 4) as u64);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let dev = Arc::new(SimSsd::new(1 << 22));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                let data = vec![t as u8 + 1; 4096];
                for i in 0..16u64 {
                    dev.write((t * 16 + i) * 4096, &data).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            let mut buf = vec![0u8; 4096];
            dev.read(t * 16 * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
    }
}
