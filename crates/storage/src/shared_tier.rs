//! The shared remote storage tier.
//!
//! Shadowfax extends FASTER's stable log region onto a blob store that every
//! server in the cluster can read (paper §3.3.2).  During migration the source
//! never reads its own SSD; instead it ships *indirection records* naming a
//! `(log id, address)` location on this shared tier, and the target fetches
//! the actual record lazily if and when a client asks for it.
//!
//! [`SharedBlobTier`] models that tier as a set of per-log byte spaces keyed
//! by [`LogId`].  Each server obtains a [`SharedTierHandle`] bound to its own
//! log id for writes, but may read any log's data — exactly the capability the
//! protocol needs.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::counters::DeviceCounters;
use crate::device::{Device, DeviceError, Result};
use crate::sim_ssd::SimSsd;

/// Identifies one server's log within the shared tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogId(pub u64);

impl std::fmt::Display for LogId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log-{}", self.0)
    }
}

/// A mirror target for tier writes: every byte written to a
/// [`SharedBlobTier`] log is also handed to the installed sink.
///
/// This is the seam the RPC layer uses to turn N per-process tiers into one
/// genuinely shared blob store: each serving process installs a sink that
/// forwards its spill writes to the `shadowfax-tier` daemon, so any other
/// process can read the chain straight off the daemon instead of dialling
/// the writer.  A sink must never fail the local write — delivery problems
/// are the sink's to absorb (buffer, retry, or mark the daemon down).
pub trait TierSink: Send + Sync {
    /// Mirrors `data` written at `offset` of `log`.
    fn append(&self, log: LogId, offset: u64, data: &[u8]);
}

/// The cluster-shared blob tier: a namespace of per-log byte spaces.
pub struct SharedBlobTier {
    logs: RwLock<HashMap<LogId, Arc<SimSsd>>>,
    per_log_capacity: u64,
    counters: DeviceCounters,
    sink: RwLock<Option<Arc<dyn TierSink>>>,
}

impl std::fmt::Debug for SharedBlobTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBlobTier")
            .field("logs", &self.logs.read().len())
            .field("per_log_capacity", &self.per_log_capacity)
            .finish()
    }
}

impl SharedBlobTier {
    /// Creates a tier where each log may hold up to `per_log_capacity` bytes.
    pub fn new(per_log_capacity: u64) -> Arc<Self> {
        Arc::new(Self {
            logs: RwLock::new(HashMap::new()),
            per_log_capacity,
            counters: DeviceCounters::new(),
            sink: RwLock::new(None),
        })
    }

    /// Installs `sink` as the mirror target for every subsequent write (see
    /// [`TierSink`]).  Replaces any previously installed sink.
    pub fn set_sink(&self, sink: Arc<dyn TierSink>) {
        *self.sink.write() = Some(sink);
    }

    /// Returns (creating if necessary) the write handle for `log`.
    pub fn handle(self: &Arc<Self>, log: LogId) -> SharedTierHandle {
        self.ensure_log(log);
        SharedTierHandle {
            tier: Arc::clone(self),
            log,
        }
    }

    fn ensure_log(&self, log: LogId) -> Arc<SimSsd> {
        if let Some(dev) = self.logs.read().get(&log) {
            return Arc::clone(dev);
        }
        let mut logs = self.logs.write();
        Arc::clone(logs.entry(log).or_insert_with(|| {
            Arc::new(SimSsd::new(self.per_log_capacity).named(format!("shared:{log}")))
        }))
    }

    fn log_device(&self, log: LogId) -> Result<Arc<SimSsd>> {
        self.logs
            .read()
            .get(&log)
            .cloned()
            .ok_or(DeviceError::UnknownLog(log.0))
    }

    /// Logs currently present on the tier.
    pub fn logs(&self) -> Vec<LogId> {
        let mut v: Vec<LogId> = self.logs.read().keys().copied().collect();
        v.sort();
        v
    }

    /// Writes `data` at `offset` within `log`'s space, mirroring the bytes
    /// to the installed [`TierSink`] (if any) after the local write lands.
    /// Only a write that lands is counted.
    pub fn write_log(&self, log: LogId, offset: u64, data: &[u8]) -> Result<()> {
        self.ensure_log(log).write(offset, data)?;
        self.counters.record_write(data.len());
        let sink = self.sink.read().clone();
        if let Some(sink) = sink {
            sink.append(log, offset, data);
        }
        Ok(())
    }

    /// Reads from `log`'s space.  Any server may read any log — this is the
    /// cross-server capability indirection records rely on.  Only a read
    /// that succeeds is counted.
    pub fn read_log(&self, log: LogId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.log_device(log)?.read(offset, buf)?;
        self.counters.record_read(buf.len());
        Ok(())
    }

    /// Highest byte offset ever written to `log` plus one (the log's logical
    /// size on the tier); used to refuse reads of bytes the log has never
    /// covered.
    pub fn written_extent_of(&self, log: LogId) -> Result<u64> {
        Ok(self.log_device(log)?.written_extent())
    }

    /// Bytes written across all logs.
    pub fn total_bytes(&self) -> u64 {
        self.counters.snapshot().bytes_written
    }

    /// Tier-wide counters (aggregated over all logs).
    pub fn counters(&self) -> &DeviceCounters {
        &self.counters
    }
}

/// A per-server handle onto the shared tier, bound to that server's [`LogId`].
///
/// Implements [`Device`] so a HybridLog can use the shared tier directly as a
/// flush target for its coldest region.
#[derive(Clone)]
pub struct SharedTierHandle {
    tier: Arc<SharedBlobTier>,
    log: LogId,
}

impl std::fmt::Debug for SharedTierHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTierHandle")
            .field("log", &self.log)
            .finish()
    }
}

impl SharedTierHandle {
    /// The log this handle writes to.
    pub fn log_id(&self) -> LogId {
        self.log
    }

    /// The underlying shared tier (for cross-log reads).
    pub fn tier(&self) -> &Arc<SharedBlobTier> {
        &self.tier
    }

    /// Reads from an arbitrary log on the tier (used when resolving another
    /// server's indirection record).
    pub fn read_other(&self, log: LogId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.tier.read_log(log, offset, buf)
    }
}

impl Device for SharedTierHandle {
    fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.tier.write_log(self.log, offset, data)
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.tier.read_log(self.log, offset, buf)
    }

    fn written_extent(&self) -> u64 {
        self.tier
            .log_device(self.log)
            .map(|d| d.written_extent())
            .unwrap_or(0)
    }

    fn counters(&self) -> &DeviceCounters {
        self.tier.counters()
    }

    fn name(&self) -> &str {
        "shared-tier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSnapshot;

    #[test]
    fn per_log_isolation() {
        let tier = SharedBlobTier::new(1 << 20);
        let a = tier.handle(LogId(1));
        let b = tier.handle(LogId(2));
        a.write(0, &[0xAA; 64]).unwrap();
        b.write(0, &[0xBB; 64]).unwrap();
        let mut buf = [0u8; 64];
        a.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAA));
        b.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn cross_log_reads_work() {
        let tier = SharedBlobTier::new(1 << 20);
        let source = tier.handle(LogId(10));
        let target = tier.handle(LogId(20));
        source.write(4096, &[7u8; 128]).unwrap();
        let mut buf = [0u8; 128];
        // The target resolves an indirection record pointing at the source's log.
        target.read_other(LogId(10), 4096, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
    }

    #[test]
    fn unknown_log_read_fails() {
        let tier = SharedBlobTier::new(1 << 20);
        let h = tier.handle(LogId(1));
        let mut buf = [0u8; 8];
        assert!(matches!(
            h.read_other(LogId(99), 0, &mut buf),
            Err(DeviceError::UnknownLog(99))
        ));
    }

    #[test]
    fn sink_mirrors_every_write_after_it_lands_locally() {
        struct Capture(std::sync::Mutex<Vec<(u64, u64, usize)>>);
        impl TierSink for Capture {
            fn append(&self, log: LogId, offset: u64, data: &[u8]) {
                self.0.lock().unwrap().push((log.0, offset, data.len()));
            }
        }
        let tier = SharedBlobTier::new(1 << 20);
        tier.write_log(LogId(1), 0, &[1u8; 32]).unwrap();
        let capture = Arc::new(Capture(std::sync::Mutex::new(Vec::new())));
        tier.set_sink(Arc::clone(&capture) as Arc<dyn TierSink>);
        tier.write_log(LogId(1), 64, &[2u8; 16]).unwrap();
        tier.write_log(LogId(3), 128, &[3u8; 8]).unwrap();
        // A failed local write must not reach the sink.
        assert!(tier.write_log(LogId(1), u64::MAX - 4, &[0u8; 8]).is_err());
        assert_eq!(
            *capture.0.lock().unwrap(),
            vec![(1, 64, 16), (3, 128, 8)],
            "the sink sees exactly the writes that landed after installation"
        );
    }

    #[test]
    fn refused_io_is_not_counted() {
        let tier = SharedBlobTier::new(1 << 16);
        let mut buf = [0u8; 8];
        assert!(tier.write_log(LogId(1), 1 << 16, &buf).is_err());
        assert!(tier.read_log(LogId(9), 0, &mut buf).is_err());
        assert!(tier.read_log(LogId(1), 4096, &mut buf).is_err());
        assert_eq!(tier.counters().snapshot(), CounterSnapshot::default());

        tier.write_log(LogId(1), 0, &[7u8; 8]).unwrap();
        tier.read_log(LogId(1), 0, &mut buf).unwrap();
        let counted = CounterSnapshot {
            reads: 1,
            writes: 1,
            bytes_read: 8,
            bytes_written: 8,
        };
        assert_eq!(tier.counters().snapshot(), counted);
    }

    #[test]
    fn logs_enumeration_sorted() {
        let tier = SharedBlobTier::new(1 << 16);
        tier.handle(LogId(3));
        tier.handle(LogId(1));
        tier.handle(LogId(2));
        assert_eq!(tier.logs(), vec![LogId(1), LogId(2), LogId(3)]);
    }

    #[test]
    fn tier_counters_aggregate_all_logs() {
        let tier = SharedBlobTier::new(1 << 16);
        tier.handle(LogId(1)).write(0, &[0u8; 100]).unwrap();
        tier.handle(LogId(2)).write(0, &[0u8; 50]).unwrap();
        assert_eq!(tier.total_bytes(), 150);
    }

    #[test]
    fn written_extent_tracks_each_log_separately() {
        let tier = SharedBlobTier::new(1 << 20);
        tier.handle(LogId(1)).write(0, &[1u8; 64]).unwrap();
        tier.handle(LogId(2)).write(4096, &[2u8; 64]).unwrap();
        assert!(tier.written_extent_of(LogId(1)).unwrap() >= 64);
        assert!(tier.written_extent_of(LogId(2)).unwrap() >= 4096 + 64);
        assert!(matches!(
            tier.written_extent_of(LogId(9)),
            Err(DeviceError::UnknownLog(9))
        ));
    }

    /// ≥4 writer threads appending to their own logs while every thread also
    /// reads the other logs: no torn reads (every record-sized block reads
    /// back as a single writer's pattern) and stable offsets (a block, once
    /// written, always reads back identically).
    #[test]
    fn concurrent_appends_and_cross_log_reads_are_untorn() {
        const THREADS: u64 = 4;
        const BLOCKS: u64 = 200;
        const BLOCK: usize = 128;

        let tier = SharedBlobTier::new(1 << 22);
        // Pre-create every log so readers never race log creation.
        for t in 0..THREADS {
            tier.handle(LogId(t));
        }
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let tier = Arc::clone(&tier);
            let barrier = std::sync::Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let my_log = LogId(t);
                barrier.wait();
                for i in 0..BLOCKS {
                    // Each block is filled with a byte identifying (log, block),
                    // so a torn read would mix two distinguishable patterns.
                    let fill = (t * BLOCKS + i) as u8;
                    let offset = i * BLOCK as u64;
                    tier.write_log(my_log, offset, &[fill; BLOCK]).unwrap();
                    // Immediately read back our own block (stable offsets)...
                    let mut buf = [0u8; BLOCK];
                    tier.read_log(my_log, offset, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == fill), "torn self-read");
                    // ...and probe a block another thread may be appending
                    // concurrently.  Whatever is there must be all one pattern
                    // or still unwritten — never a mix.
                    let other = LogId((t + 1) % THREADS);
                    let probe = (i / 2) * BLOCK as u64;
                    let mut peek = [0u8; BLOCK];
                    if tier.read_log(other, probe, &mut peek).is_ok() {
                        let first = peek[0];
                        assert!(
                            peek.iter().all(|&b| b == first),
                            "torn cross-log read at {other}:{probe}"
                        );
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Post-conditions: every block of every log is intact and extents are
        // exactly what the appends produced.
        for t in 0..THREADS {
            let log = LogId(t);
            // Extents are chunk-granular, so only a lower bound is exact.
            assert!(
                tier.written_extent_of(log).unwrap() >= BLOCKS * BLOCK as u64,
                "extent of {log} below what was appended"
            );
            for i in 0..BLOCKS {
                let fill = (t * BLOCKS + i) as u8;
                let mut buf = [0u8; BLOCK];
                tier.read_log(log, i * BLOCK as u64, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == fill),
                    "block {i} of {log} is not stable"
                );
            }
        }
    }
}
