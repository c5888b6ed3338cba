//! CPR-style checkpointing and recovery (paper §2.1, Figure 3).
//!
//! A checkpoint proceeds over an asynchronous global cut: the store's
//! checkpoint version is bumped from `v` to `v + 1`, an epoch action is
//! registered, and only once every registered thread has observed the new
//! version (i.e. refreshed past the bump) is version `v` captured.  No thread
//! is ever stalled; the cut boundary is exactly the set of per-thread points
//! at which each thread picked up the new version.
//!
//! The captured state is a *fold-over* image: the hash index, the log's
//! boundary addresses, the per-range log floors, and the in-memory pages
//! that have not yet been flushed to the SSD.  Together with the (simulated) SSD contents — which survive a
//! "crash" in this reproduction just as a real SSD would — this is sufficient
//! to reconstruct the store.  Shadowfax checkpoints both the source and the
//! target at the end of a migration so that either can be recovered
//! independently afterwards (paper §3.3.1).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shadowfax_hlog::Address;

use crate::hash_index::IndexSnapshot;
use crate::store::{Faster, FasterSession};

/// A completed checkpoint image.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The checkpoint version that was captured (`v` in the paper's protocol).
    pub version: u32,
    /// Log begin address at capture.
    pub begin: Address,
    /// Log head address at capture.
    pub head: Address,
    /// Log read-only address at capture.
    pub read_only: Address,
    /// Log tail address at capture.
    pub tail: Address,
    /// Serialized hash index.
    pub index: IndexSnapshot,
    /// The per-range floor table, as `(start, floor)` segments: a record
    /// below its range's floor stays dead after recovery.
    pub floors: Vec<(u64, u64)>,
    /// In-memory pages (page number, raw bytes) that were not yet durable on
    /// the SSD at capture time.
    pub memory_pages: Vec<(u64, Vec<u8>)>,
}

impl Checkpoint {
    /// Total bytes of page data captured in this checkpoint.
    pub fn page_bytes(&self) -> usize {
        self.memory_pages.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Takes a checkpoint of `store`.
///
/// The calling thread drives the protocol: it bumps the version, waits (by
/// refreshing its own epoch slot) for the global cut to complete, and then
/// captures the image.  Other threads participate implicitly by refreshing
/// their epoch slots during normal operation, exactly as in the paper.
pub fn take_checkpoint(store: &Arc<Faster>, session: &FasterSession) -> Checkpoint {
    let captured_version = store.current_version();
    // Step 1: move the system to version v+1 over a global cut.
    let cut_complete = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&cut_complete);
    store.bump_version();
    store.epoch().bump_with_action(move || {
        flag.store(true, Ordering::SeqCst);
    });
    // Step 2: wait for every thread to cross the cut.  Our own refresh is part
    // of the cut; other threads refresh from their operation loops.
    while !cut_complete.load(Ordering::SeqCst) {
        session.thread().refresh();
        store.epoch().try_drain();
        std::hint::spin_loop();
    }
    session.thread().unprotect();

    // Step 3: capture version v.  Flush complete pages so that the image only
    // needs to carry the residual in-memory tail.
    let log = store.log();
    log.flush_all_complete_pages(session.thread());
    let stats = log.stats();
    let page_bits = log.page_bits();
    let first_unflushed_page = stats.flushed_until.raw() >> page_bits;
    let last_page = stats.tail.raw() >> page_bits;
    // A floor raised since the tail was read lies past it: every record the
    // image holds of that range is below it, and so is the tail.  Saving it
    // at the tail keeps the image's records dead without also killing the
    // range's first writes after recovery.
    let tail = stats.tail.raw();
    let floors = store.floors.snapshot();
    let floors = floors.into_iter().map(|(s, f)| (s, f.min(tail))).collect();
    let mut memory_pages = Vec::new();
    for page in first_unflushed_page..=last_page {
        if let Some(bytes) = log.page_bytes(page) {
            memory_pages.push((page, bytes));
        }
    }
    Checkpoint {
        version: captured_version,
        begin: stats.begin,
        head: stats.head,
        read_only: stats.read_only,
        tail: stats.tail,
        index: store.index().serialize(),
        floors,
        memory_pages,
    }
}

/// Restores `store` (a freshly created instance configured identically and
/// attached to the same SSD / shared-tier devices) from `checkpoint`.
///
/// # Panics
///
/// Panics if the store was created with a different hash-table size.
pub fn recover_from_checkpoint(store: &Arc<Faster>, checkpoint: &Checkpoint) {
    let log = store.log();
    log.recover_boundaries(
        checkpoint.begin,
        checkpoint.head,
        checkpoint.read_only,
        checkpoint.tail,
    );
    for (page, bytes) in &checkpoint.memory_pages {
        log.restore_page(*page, bytes);
    }
    store.index().restore(&checkpoint.index);
    store.floors.restore(&checkpoint.floors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FasterConfig;
    use shadowfax_epoch::EpochManager;
    use shadowfax_storage::SimSsd;

    #[test]
    fn checkpoint_and_recover_small_store() {
        let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 30));
        let epoch = Arc::new(EpochManager::new());
        let store = Faster::new(FasterConfig::small_for_tests(), ssd.clone(), None, epoch);
        let session = store.start_session();
        for k in 0..1000u64 {
            session.upsert(k, &(k * 3).to_le_bytes()).unwrap();
        }
        let before_version = store.current_version();
        let cp = take_checkpoint(&store, &session);
        assert_eq!(cp.version, before_version);
        assert!(store.current_version() > before_version);

        // "Crash" and recover into a fresh store sharing the same SSD.
        let epoch2 = Arc::new(EpochManager::new());
        let recovered = Faster::new(FasterConfig::small_for_tests(), ssd, None, epoch2);
        recover_from_checkpoint(&recovered, &cp);
        let session2 = recovered.start_session();
        for k in 0..1000u64 {
            let v = session2.read(k).unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), k * 3);
        }
    }

    /// A floor raised after the checkpoint read the tail is saved at the
    /// tail: the recovered store keeps the range's old records dead and
    /// its new writes live.
    #[test]
    fn checkpointed_floors_stop_at_the_saved_tail() {
        let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 30));
        let store = Faster::standalone(FasterConfig::small_for_tests(), ssd.clone());
        let session = store.start_session();
        session.upsert(1, b"before").unwrap();
        store.floors.raise(0, u64::MAX, 1 << 40);
        let cp = take_checkpoint(&store, &session);
        assert_eq!(cp.floors, vec![(0, cp.tail.raw())]);
        drop(session);

        let recovered = Faster::standalone(FasterConfig::small_for_tests(), ssd);
        recover_from_checkpoint(&recovered, &cp);
        let session = recovered.start_session();
        assert_eq!(session.read(1).unwrap(), None);
        session.upsert(1, b"after").unwrap();
        assert_eq!(session.read(1).unwrap(), Some(b"after".to_vec()));
    }

    #[test]
    fn checkpoint_captures_data_spilled_to_ssd() {
        let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 30));
        let epoch = Arc::new(EpochManager::new());
        let store = Faster::new(FasterConfig::small_for_tests(), ssd.clone(), None, epoch);
        let session = store.start_session();
        let value = vec![9u8; 256];
        for k in 0..4000u64 {
            session.upsert(k, &value).unwrap();
        }
        let cp = take_checkpoint(&store, &session);
        let epoch2 = Arc::new(EpochManager::new());
        let recovered = Faster::new(FasterConfig::small_for_tests(), ssd, None, epoch2);
        recover_from_checkpoint(&recovered, &cp);
        let session2 = recovered.start_session();
        for k in (0..4000u64).step_by(71) {
            assert_eq!(session2.read(k).unwrap().unwrap(), value);
        }
    }

    #[test]
    fn checkpoint_completes_with_concurrent_writers() {
        use std::sync::atomic::AtomicBool;
        let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 30));
        let epoch = Arc::new(EpochManager::new());
        let store = Faster::new(FasterConfig::small_for_tests(), ssd, None, epoch);
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let session = store.start_session();
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    session.rmw_add(t * 1000 + (i % 50), 1, &[0u8; 8]).unwrap();
                    i += 1;
                    session.refresh();
                }
                i
            }));
        }
        let session = store.start_session();
        // Let the writers make some progress, then checkpoint under load.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let cp = take_checkpoint(&store, &session);
        assert!(cp.version >= 1);
        stop.store(true, Ordering::SeqCst);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }

    #[test]
    fn checkpoint_version_boundary_monotonic() {
        let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 28));
        let epoch = Arc::new(EpochManager::new());
        let store = Faster::new(FasterConfig::small_for_tests(), ssd, None, epoch);
        let session = store.start_session();
        session.upsert(1, b"a").unwrap();
        let cp1 = take_checkpoint(&store, &session);
        session.upsert(2, b"b").unwrap();
        let cp2 = take_checkpoint(&store, &session);
        assert!(cp2.version > cp1.version);
        assert!(cp2.tail >= cp1.tail);
    }
}
