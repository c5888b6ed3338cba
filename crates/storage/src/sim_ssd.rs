//! An in-memory stand-in for the local NVMe SSD.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::counters::DeviceCounters;
use crate::device::{Device, DeviceError, Result};

/// Size of the internal storage chunks.  Writes may span chunks; this is an
/// implementation detail, not the HybridLog page size.
const CHUNK_SIZE: usize = 64 * 1024;

/// One chunk slot's bytes.
enum Chunk {
    /// Bytes this device alone holds; byte writes land in place.
    Owned(Box<[u8]>),
    /// The `CHUNK_SIZE` window at `start` of a page handed over by
    /// [`Device::write_page`].  Other devices may hold the same buffer, so
    /// it is never written: a byte write copies the window first.
    Shared { page: Arc<[u8]>, start: usize },
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared { page, start } => &page[*start..*start + CHUNK_SIZE],
        }
    }

    /// The chunk's bytes for writing, copying a shared window into a chunk
    /// of this device's own first (copy-on-write).
    fn bytes_mut(&mut self) -> &mut [u8] {
        if let Chunk::Shared { .. } = self {
            *self = Chunk::Owned(self.bytes().into());
        }
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared { .. } => unreachable!("the window was just copied"),
        }
    }
}

/// A simulated local SSD backed by RAM.
///
/// The device stores data in fixed-size chunks allocated lazily, so sparse
/// address spaces (the HybridLog only ever writes the stable region) do not
/// consume memory for unwritten ranges; the chunk table itself grows only
/// as far as the highest chunk written.  A chunk-aligned page handed over
/// whole by [`Device::write_page`] is kept, not copied: its chunks are
/// windows into the one buffer, which the shared tier may hold too.
/// Accesses cost what the copy costs: no latency, IOPS or bandwidth limit
/// is modelled.
pub struct SimSsd {
    chunks: RwLock<Vec<Option<Chunk>>>,
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
        Self {
            chunks: RwLock::new(Vec::new()),
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

/// Grows the chunk table to cover `len` bytes at `offset` (already checked
/// against the capacity).
fn cover(chunks: &mut Vec<Option<Chunk>>, offset: u64, len: usize) {
    let end = (offset as usize + len).div_ceil(CHUNK_SIZE);
    if chunks.len() < end {
        chunks.resize_with(end, || None);
    }
}

impl Device for SimSsd {
    fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_range(offset, data.len())?;
        let mut chunks = self.chunks.write();
        cover(&mut chunks, offset, data.len());
        let mut remaining = data;
        let mut pos = offset as usize;
        while !remaining.is_empty() {
            let chunk_idx = pos / CHUNK_SIZE;
            let chunk_off = pos % CHUNK_SIZE;
            let n = remaining.len().min(CHUNK_SIZE - chunk_off);
            let chunk = chunks[chunk_idx]
                .get_or_insert_with(|| Chunk::Owned(vec![0u8; CHUNK_SIZE].into_boxed_slice()))
                .bytes_mut();
            chunk[chunk_off..chunk_off + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            pos += n;
        }
        self.counters.record_write(data.len());
        Ok(())
    }

    fn write_page(&self, offset: u64, page: Arc<[u8]>) -> Result<()> {
        let aligned =
            (offset as usize).is_multiple_of(CHUNK_SIZE) && page.len().is_multiple_of(CHUNK_SIZE);
        if !aligned {
            return self.write(offset, &page);
        }
        self.check_range(offset, page.len())?;
        let first = offset as usize / CHUNK_SIZE;
        let mut windows: Vec<Option<Chunk>> = (0..page.len() / CHUNK_SIZE)
            .map(|i| {
                Some(Chunk::Shared {
                    page: Arc::clone(&page),
                    start: i * CHUNK_SIZE,
                })
            })
            .collect();
        // Only pointers move under the lock; the chunks the page replaces
        // are freed after it is released.
        {
            let mut chunks = self.chunks.write();
            cover(&mut chunks, offset, page.len());
            for (slot, window) in chunks[first..].iter_mut().zip(windows.iter_mut()) {
                std::mem::swap(slot, window);
            }
        }
        self.counters.record_write(page.len());
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
            match chunks.get(chunk_idx).and_then(Option::as_ref) {
                Some(chunk) => buf[filled..filled + n]
                    .copy_from_slice(&chunk.bytes()[chunk_off..chunk_off + n]),
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
        let dev = SimSsd::new(1 << 30);
        assert_eq!(dev.written_extent(), 0);
        assert!(dev.chunks.read().is_empty(), "no table before a write");
        dev.write((CHUNK_SIZE * 3) as u64, &[1u8; 10]).unwrap();
        assert_eq!(dev.written_extent(), (CHUNK_SIZE * 4) as u64);
        assert_eq!(dev.chunks.read().len(), 4);
        let mut beyond = [0u8; 8];
        assert!(matches!(
            dev.read((CHUNK_SIZE * 9) as u64, &mut beyond),
            Err(DeviceError::UnwrittenRange { .. })
        ));
    }

    fn pattern_page(len: usize, seed: u8) -> Arc<[u8]> {
        (0..len).map(|i| (i % 251) as u8 ^ seed).collect()
    }

    fn read_back(dev: &SimSsd, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        dev.read(offset, &mut out).unwrap();
        out
    }

    fn dev_counters(dev: &SimSsd) -> (u64, u64) {
        let s = dev.counters().snapshot();
        (s.writes, s.bytes_written)
    }

    /// A whole page handed to two devices is held once, and a byte write
    /// over it on one device copies the window it lands in: the other
    /// device and the page buffer keep their bytes.  Checked for a
    /// one-window page and for a 1 MiB page spanning 16 windows.
    #[test]
    fn a_shared_page_is_held_once_and_copied_on_write() {
        for windows in [1usize, 16] {
            let len = windows * CHUNK_SIZE;
            let offset = (2 * CHUNK_SIZE) as u64;
            let page = pattern_page(len, 0x5A);
            let original = page.to_vec();
            let ssd = SimSsd::new(1 << 24);
            let tier = SimSsd::new(1 << 24);
            ssd.write_page(offset, Arc::clone(&page)).unwrap();
            tier.write_page(offset, Arc::clone(&page)).unwrap();
            assert_eq!(
                Arc::strong_count(&page),
                1 + 2 * windows,
                "each device holds one reference per window, and no copy"
            );
            for dev in [&ssd, &tier] {
                let chunks = dev.chunks.read();
                for (i, chunk) in chunks[2..2 + windows].iter().enumerate() {
                    let held = chunk.as_ref().unwrap().bytes().as_ptr();
                    assert!(std::ptr::eq(held, page[i * CHUNK_SIZE..].as_ptr()));
                }
            }
            assert!(read_back(&ssd, offset, len) == original);
            assert_eq!(dev_counters(&ssd), (1, len as u64));

            // A write straddling the first window's end: into the second
            // window of a 1 MiB page, past the end of a 64 KiB one.
            let patch_at = offset + CHUNK_SIZE as u64 - 100;
            ssd.write(patch_at, &[0xEE; 200]).unwrap();
            let mut expected = original.clone();
            expected[CHUNK_SIZE - 100..(CHUNK_SIZE + 100).min(len)].fill(0xEE);
            let copied = windows.min(2);
            assert!(read_back(&ssd, offset, len) == expected);
            assert!(
                read_back(&tier, offset, len) == original,
                "the other device changed"
            );
            assert!(page[..] == original[..], "the shared buffer changed");
            assert_eq!(Arc::strong_count(&page), 1 + 2 * windows - copied);

            // Writing the page again over the copied windows re-adopts it.
            ssd.write_page(offset, Arc::clone(&page)).unwrap();
            assert!(read_back(&ssd, offset, len) == original);
            assert_eq!(Arc::strong_count(&page), 1 + 2 * windows);
        }
    }

    #[test]
    fn an_unaligned_page_is_copied() {
        let dev = SimSsd::new(1 << 20);
        let page = pattern_page(CHUNK_SIZE, 3);
        dev.write_page(4096, Arc::clone(&page)).unwrap();
        assert_eq!(Arc::strong_count(&page), 1);
        assert_eq!(read_back(&dev, 4096, CHUNK_SIZE), page.to_vec());
        let short = pattern_page(4096, 9);
        dev.write_page(0, Arc::clone(&short)).unwrap();
        assert_eq!(Arc::strong_count(&short), 1);
        assert_eq!(read_back(&dev, 0, 4096), short.to_vec());
        assert_eq!(dev_counters(&dev), (2, (CHUNK_SIZE + 4096) as u64));
        assert!(matches!(
            dev.write_page(1 << 20, page),
            Err(DeviceError::OutOfCapacity { .. })
        ));
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
