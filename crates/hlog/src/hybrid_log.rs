//! The HybridLog itself: allocation at the tail, region boundary maintenance
//! driven by asynchronous global cuts, flush to SSD / shared tier, and the
//! read paths for every region.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use shadowfax_epoch::{EpochManager, Guard, ThreadEpoch};
use shadowfax_storage::{Device, DeviceError, SharedTierHandle};

use crate::address::{Address, INVALID_ADDRESS};
use crate::config::LogConfig;
use crate::frame::PageFrame;
use crate::record::{RecordFlags, RecordHeader, RecordOwned, RECORD_HEADER_BYTES};

/// Errors surfaced by log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The record (header + value + padding) does not fit on one page.
    RecordTooLarge {
        /// Requested total record size.
        size: usize,
        /// Page size of this log.
        page_size: usize,
    },
    /// The address lies below the log's begin address (truncated away).
    Truncated(Address),
    /// The address is in the stable region but the backing device failed.
    Device(DeviceError),
    /// The address does not point at a parseable record.
    Corrupt(Address),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::RecordTooLarge { size, page_size } => {
                write!(f, "record of {size} bytes exceeds page size {page_size}")
            }
            LogError::Truncated(a) => write!(f, "address {a} has been truncated"),
            LogError::Device(e) => write!(f, "device error: {e}"),
            LogError::Corrupt(a) => write!(f, "no valid record at {a}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<DeviceError> for LogError {
    fn from(e: DeviceError) -> Self {
        LogError::Device(e)
    }
}

/// Where a record currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordPlace {
    /// In the in-memory mutable region: eligible for in-place updates.
    Mutable,
    /// In the in-memory read-only region: must be updated via read-copy-update.
    ReadOnly,
    /// Below the head address: on the local SSD (and the shared tier when
    /// write-through is enabled).
    Stable,
    /// Below the begin address: no longer part of the log.
    Truncated,
}

/// Point-in-time snapshot of the log's boundary addresses and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStats {
    /// Next address to be allocated.
    pub tail: Address,
    /// Boundary below which records are immutable (RCU region).
    pub read_only: Address,
    /// Boundary below which records have no in-memory frame.
    pub head: Address,
    /// Boundary below which page frames may be recycled.
    pub safe_head: Address,
    /// Boundary below which pages have been written to the SSD.
    pub flushed_until: Address,
    /// Lowest address still part of the log.
    pub begin: Address,
    /// Records appended since creation.
    pub appended_records: u64,
    /// Bytes appended since creation.
    pub appended_bytes: u64,
    /// Pages flushed to the SSD since creation.
    pub pages_flushed: u64,
}

impl LogStats {
    /// Bytes currently resident in memory (tail minus head).
    pub fn in_memory_bytes(&self) -> u64 {
        self.tail.raw().saturating_sub(self.head.raw())
    }
}

/// The hybrid log allocator.  See the crate-level docs for the region model.
///
/// A log is always used through an [`Arc`]; flush and frame-recycling actions
/// registered on global cuts hold a [`Weak`] reference back to it.
pub struct HybridLog {
    config: LogConfig,
    page_bits: u32,
    page_size: usize,
    frames: Box<[PageFrame]>,

    tail: AtomicU64,
    read_only: AtomicU64,
    head: AtomicU64,
    safe_head: AtomicU64,
    flushed_until: AtomicU64,
    begin: AtomicU64,

    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    pages_flushed: AtomicU64,

    ssd: Arc<dyn Device>,
    shared: Option<SharedTierHandle>,
    epoch: Arc<EpochManager>,
    flush_lock: Mutex<()>,
    self_ref: OnceLock<Weak<HybridLog>>,
}

impl std::fmt::Debug for HybridLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridLog")
            .field("stats", &self.stats())
            .finish()
    }
}

impl HybridLog {
    /// Creates a new, empty log.
    ///
    /// `ssd` backs the stable region; `shared` (if provided and enabled in
    /// `config`) receives a write-through copy of every flushed page, which is
    /// what lets other servers resolve indirection records against this log.
    pub fn new(
        config: LogConfig,
        ssd: Arc<dyn Device>,
        shared: Option<SharedTierHandle>,
        epoch: Arc<EpochManager>,
    ) -> Arc<Self> {
        config.validate();
        let page_size = config.page_size();
        let frames: Box<[PageFrame]> = (0..config.memory_pages)
            .map(|i| PageFrame::new(page_size, i))
            .collect();
        let first = Address::FIRST_VALID.raw();
        let log = Arc::new(Self {
            page_bits: config.page_bits,
            page_size,
            frames,
            tail: AtomicU64::new(first),
            read_only: AtomicU64::new(first),
            head: AtomicU64::new(first),
            safe_head: AtomicU64::new(first),
            flushed_until: AtomicU64::new(first),
            begin: AtomicU64::new(first),
            appended_records: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            pages_flushed: AtomicU64::new(0),
            ssd,
            shared: if config.shared_tier_write_through {
                shared
            } else {
                None
            },
            epoch,
            flush_lock: Mutex::new(()),
            self_ref: OnceLock::new(),
            config,
        });
        log.self_ref
            .set(Arc::downgrade(&log))
            .expect("self_ref initialized twice");
        log
    }

    /// The configuration this log was created with.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// The epoch manager coordinating this log's global cuts.
    pub fn epoch(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// The SSD device backing the stable region.
    pub fn ssd(&self) -> &Arc<dyn Device> {
        &self.ssd
    }

    /// The shared-tier handle, if write-through is enabled.
    pub fn shared_tier(&self) -> Option<&SharedTierHandle> {
        self.shared.as_ref()
    }

    // ------------------------------------------------------------------
    // Boundary accessors
    // ------------------------------------------------------------------

    /// Next address that will be allocated.
    pub fn tail_address(&self) -> Address {
        Address::new(self.tail.load(Ordering::SeqCst))
    }

    /// Boundary of the mutable region.
    pub fn read_only_address(&self) -> Address {
        Address::new(self.read_only.load(Ordering::SeqCst))
    }

    /// Boundary below which records are only on stable storage.
    pub fn head_address(&self) -> Address {
        Address::new(self.head.load(Ordering::SeqCst))
    }

    /// Boundary below which page frames may have been recycled.
    pub fn safe_head_address(&self) -> Address {
        Address::new(self.safe_head.load(Ordering::SeqCst))
    }

    /// Boundary below which pages are durable on the SSD.
    pub fn flushed_until_address(&self) -> Address {
        Address::new(self.flushed_until.load(Ordering::SeqCst))
    }

    /// Lowest address still part of the log.
    pub fn begin_address(&self) -> Address {
        Address::new(self.begin.load(Ordering::SeqCst))
    }

    /// A consistent-enough snapshot of all boundaries and counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            tail: self.tail_address(),
            read_only: self.read_only_address(),
            head: self.head_address(),
            safe_head: self.safe_head_address(),
            flushed_until: self.flushed_until_address(),
            begin: self.begin_address(),
            appended_records: self.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            pages_flushed: self.pages_flushed.load(Ordering::Relaxed),
        }
    }

    /// Classifies `addr` by the region it currently falls in.
    pub fn place_of(&self, addr: Address) -> RecordPlace {
        if addr < self.begin_address() {
            RecordPlace::Truncated
        } else if addr >= self.read_only_address() {
            RecordPlace::Mutable
        } else if addr >= self.head_address() {
            RecordPlace::ReadOnly
        } else {
            RecordPlace::Stable
        }
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Appends a new record and returns its address.
    ///
    /// The caller supplies the previous address in the record's hash chain
    /// (`prev`), the checkpoint `version` it belongs to, and any flags.  The
    /// record becomes visible to other threads only when the caller publishes
    /// its address (e.g. by CAS-ing it into the hash index), so the write
    /// itself needs no synchronization beyond the allocation.
    ///
    /// `thread` is the calling thread's epoch registration; the append path
    /// refreshes it while waiting for page frames to become recyclable.
    pub fn append(
        &self,
        key: u64,
        value: &[u8],
        prev: Address,
        version: u32,
        flags: RecordFlags,
        thread: &ThreadEpoch,
    ) -> Result<Address, LogError> {
        let size = RecordHeader::record_size(value.len());
        if size > self.page_size - Address::FIRST_VALID.raw() as usize {
            return Err(LogError::RecordTooLarge {
                size,
                page_size: self.page_size,
            });
        }
        let addr = self.allocate(size, thread);
        self.write_record(addr, key, value, prev, version, flags);
        self.appended_records.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes
            .fetch_add(size as u64, Ordering::Relaxed);
        Ok(addr)
    }

    /// Allocates `size` bytes at the tail.  Records never span pages: if the
    /// current page cannot fit the record the allocation skips to the next
    /// page (the skipped bytes stay zero, which scanners treat as padding).
    fn allocate(&self, size: usize, thread: &ThreadEpoch) -> Address {
        debug_assert!(size.is_multiple_of(8));
        loop {
            let cur = self.tail.load(Ordering::SeqCst);
            let cur_page = cur >> self.page_bits;
            let cur_off = (cur & ((1 << self.page_bits) - 1)) as usize;
            let start = if cur_off + size > self.page_size {
                (cur_page + 1) << self.page_bits
            } else {
                cur
            };
            let start_page = start >> self.page_bits;
            // Exactly one allocation per page starts at its first byte,
            // whether it skipped there or the last record ended there: it
            // alone opens the page.
            let opens_page = start & ((1 << self.page_bits) - 1) == 0;
            // Make sure the frame that will hold `start_page` is recyclable
            // before we commit the allocation.
            self.ensure_frame_available(start_page, thread);
            let new_tail = start + size as u64;
            if self
                .tail
                .compare_exchange(cur, new_tail, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                if opens_page {
                    self.open_page_if_needed(start_page);
                }
                // Keep the mutable region bounded: ask for the read-only
                // boundary to trail the tail page by `mutable_pages`.
                if start_page >= self.config.mutable_pages {
                    let ro_target = (start_page - self.config.mutable_pages) << self.page_bits;
                    self.publish_read_only(ro_target);
                }
                return Address::new(start);
            }
        }
    }

    /// Ensures the frame that will hold `page` holds it and is zeroed.
    fn open_page_if_needed(&self, page: u64) {
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        if frame.current_page() == page {
            return;
        }
        // Only one thread can win the allocation that first lands on `page`,
        // and every later allocation on the page spins in `write_record` until
        // the frame is published, so this zero-and-publish is single-writer.
        frame.zero();
        frame.set_current_page(page);
    }

    /// Blocks (refreshing our epoch slot) until the frame for `page` can be
    /// written: i.e. until the page `memory_pages` older than it has been
    /// flushed and its frame recycled.
    fn ensure_frame_available(&self, page: u64, thread: &ThreadEpoch) {
        if page < self.config.memory_pages {
            return;
        }
        let required = (page - self.config.memory_pages + 1) << self.page_bits;
        if self.safe_head.load(Ordering::SeqCst) >= required {
            return;
        }
        loop {
            if self.safe_head.load(Ordering::SeqCst) >= required {
                return;
            }
            // Drive the close pipeline: read-only shift -> flush (on a cut)
            // -> head shift -> safe-head shift (on a cut).
            self.publish_read_only(required);
            if self.flushed_until.load(Ordering::SeqCst) >= required {
                self.publish_head(required);
            }
            // Our own refresh is what lets the cuts complete (other threads
            // refresh from their own operation loops).
            thread.refresh();
            self.epoch.try_drain();
            std::hint::spin_loop();
        }
    }

    /// Publishes a new read-only boundary and schedules the flush of the
    /// newly read-only pages on a global cut (so no thread is still updating
    /// them in place when the flush reads the frame).
    fn publish_read_only(&self, target: u64) {
        let target = target.min(self.tail.load(Ordering::SeqCst));
        let prev = self.read_only.fetch_max(target, Ordering::SeqCst);
        if prev >= target {
            return;
        }
        let weak = self
            .self_ref
            .get()
            .expect("HybridLog used before Arc construction completed")
            .clone();
        self.epoch.bump_with_action(move || {
            if let Some(log) = weak.upgrade() {
                log.flush_through(target);
            }
        });
    }

    /// Publishes a new head boundary (pages below it lose their frames) and
    /// schedules the safe-head advance on a global cut.
    fn publish_head(&self, target: u64) {
        let target = target.min(self.flushed_until.load(Ordering::SeqCst));
        let prev = self.head.fetch_max(target, Ordering::SeqCst);
        if prev >= target {
            return;
        }
        let weak = self
            .self_ref
            .get()
            .expect("HybridLog used before Arc construction completed")
            .clone();
        self.epoch.bump_with_action(move || {
            if let Some(log) = weak.upgrade() {
                log.safe_head.fetch_max(target, Ordering::SeqCst);
            }
        });
    }

    /// Flushes all complete pages below `target` (page-aligned down) to the
    /// SSD and, write-through, to the shared tier.
    fn flush_through(&self, target: u64) {
        let _io = self.flush_lock.lock();
        let target_page = target >> self.page_bits;
        let mut from = self.flushed_until.load(Ordering::SeqCst);
        let from_page = from >> self.page_bits;
        for page in from_page..target_page {
            let frame = &self.frames[(page % self.config.memory_pages) as usize];
            debug_assert_eq!(
                frame.current_page(),
                page,
                "flush raced with frame recycling"
            );
            // One copy of the frame backs both devices.
            let bytes = frame.shared_snapshot();
            let offset = page << self.page_bits;
            self.ssd
                .write_page(offset, Arc::clone(&bytes))
                .expect("SSD write failed during page flush");
            if let Some(shared) = &self.shared {
                shared
                    .write_page(offset, bytes)
                    .expect("shared tier write failed during page flush");
            }
            self.pages_flushed.fetch_add(1, Ordering::Relaxed);
            from = (page + 1) << self.page_bits;
        }
        self.flushed_until.fetch_max(from, Ordering::SeqCst);
    }

    /// Forces every complete page below the current tail page to be flushed
    /// (checkpoint support).  Returns the flushed-until address.
    pub fn flush_all_complete_pages(&self, thread: &ThreadEpoch) -> Address {
        let tail = self.tail.load(Ordering::SeqCst);
        let target = (tail >> self.page_bits) << self.page_bits;
        self.publish_read_only(target);
        // Wait for the flush cut to complete.
        while self.flushed_until.load(Ordering::SeqCst)
            < target.min(self.read_only.load(Ordering::SeqCst))
        {
            thread.refresh();
            self.epoch.try_drain();
            std::hint::spin_loop();
        }
        self.flushed_until_address()
    }

    /// Writes an already-allocated record's bytes.
    fn write_record(
        &self,
        addr: Address,
        key: u64,
        value: &[u8],
        prev: Address,
        version: u32,
        flags: RecordFlags,
    ) {
        let page = addr.page(self.page_bits);
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        // Another thread that crossed the page boundary may still be zeroing
        // the frame; wait for it to be published for this page.
        while frame.current_page() != page {
            std::hint::spin_loop();
        }
        let header = RecordHeader {
            prev,
            flags,
            version,
            value_len: value.len() as u32,
            key,
        };
        let size = RecordHeader::record_size(value.len());
        let mut buf = vec![0u8; size];
        header.encode_into(&mut buf);
        buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + value.len()].copy_from_slice(value);
        frame.write(addr.offset(self.page_bits), &buf);
    }

    // ------------------------------------------------------------------
    // Read paths
    // ------------------------------------------------------------------

    /// Reads the record at `addr`, from memory or stable storage as needed.
    ///
    /// The guard proves the caller is epoch-protected, which keeps in-memory
    /// frames from being recycled underneath the read.
    pub fn read_record(&self, addr: Address, guard: &Guard<'_>) -> Result<RecordOwned, LogError> {
        let header = self.read_header(addr, guard)?;
        let value = self.read_value(addr, &header, guard)?;
        Ok(RecordOwned { header, value })
    }

    /// The in-memory frame holding `addr`, if it still holds that page (the
    /// head may have raced past it, and then the device has the copy).
    fn frame_of(&self, addr: Address) -> Option<&PageFrame> {
        if addr < self.head_address() {
            return None;
        }
        let page = addr.page(self.page_bits);
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        (frame.current_page() == page).then_some(frame)
    }

    /// Reads only the record header at `addr` (used for chain traversal
    /// without copying values).  Fails as [`HybridLog::read_record`] does:
    /// below the begin address the record is [`LogError::Truncated`].
    pub fn read_header(&self, addr: Address, _guard: &Guard<'_>) -> Result<RecordHeader, LogError> {
        if !addr.is_valid() {
            return Err(LogError::Corrupt(addr));
        }
        if addr < self.begin_address() {
            return Err(LogError::Truncated(addr));
        }
        let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
        match self.frame_of(addr) {
            Some(frame) => frame.read(addr.offset(self.page_bits), &mut header_bytes),
            None => self.ssd.read(addr.raw(), &mut header_bytes)?,
        }
        let h = RecordHeader::decode(&header_bytes);
        if h.is_null() {
            return Err(LogError::Corrupt(addr));
        }
        Ok(h)
    }

    /// Reads the value of the record at `addr`, whose header the caller has
    /// read with [`HybridLog::read_header`]: a chain walk reads the header of
    /// every hop and copies the value of only the record it returns.
    pub fn read_value(
        &self,
        addr: Address,
        header: &RecordHeader,
        _guard: &Guard<'_>,
    ) -> Result<Vec<u8>, LogError> {
        let vlen = header.value_len as usize;
        let mut value = vec![0u8; vlen];
        if vlen == 0 {
            return Ok(value);
        }
        match self.frame_of(addr) {
            Some(frame) => {
                let off = addr.offset(self.page_bits);
                if off + RecordHeader::record_size(vlen) > self.page_size {
                    return Err(LogError::Corrupt(addr));
                }
                frame.read(off + RECORD_HEADER_BYTES, &mut value);
            }
            None => self
                .ssd
                .read(addr.raw() + RECORD_HEADER_BYTES as u64, &mut value)?,
        }
        Ok(value)
    }

    // ------------------------------------------------------------------
    // In-place updates (mutable region only)
    // ------------------------------------------------------------------

    /// Attempts an in-place overwrite of the record's value.  Succeeds only
    /// if the record is in the mutable region and the new value has exactly
    /// the same length; otherwise the caller must perform a read-copy-update
    /// by appending a new version.
    pub fn try_update_in_place(
        &self,
        addr: Address,
        new_value: &[u8],
        _guard: &Guard<'_>,
    ) -> Result<bool, LogError> {
        if addr < self.read_only_address() {
            return Ok(false);
        }
        let page = addr.page(self.page_bits);
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        if frame.current_page() != page {
            return Ok(false);
        }
        let off = addr.offset(self.page_bits);
        let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
        frame.read(off, &mut header_bytes);
        let header = RecordHeader::decode(&header_bytes);
        if header.is_null() {
            return Err(LogError::Corrupt(addr));
        }
        if header.value_len as usize != new_value.len() {
            return Ok(false);
        }
        frame.write(off + RECORD_HEADER_BYTES, new_value);
        Ok(true)
    }

    /// Attempts an atomic in-place `fetch_add` on the 8-byte counter at
    /// `word_offset` within the record's value (the YCSB-F read-modify-write).
    /// Returns the previous counter value, or `None` if the record is not
    /// eligible for in-place updates.
    pub fn try_rmw_add_in_place(
        &self,
        addr: Address,
        word_offset: usize,
        delta: u64,
        _guard: &Guard<'_>,
    ) -> Result<Option<u64>, LogError> {
        assert_eq!(word_offset % 8, 0, "counter offset must be 8-byte aligned");
        if addr < self.read_only_address() {
            return Ok(None);
        }
        let page = addr.page(self.page_bits);
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        if frame.current_page() != page {
            return Ok(None);
        }
        let off = addr.offset(self.page_bits);
        let mut header_bytes = [0u8; RECORD_HEADER_BYTES];
        frame.read(off, &mut header_bytes);
        let header = RecordHeader::decode(&header_bytes);
        if header.is_null() {
            return Err(LogError::Corrupt(addr));
        }
        if word_offset + 8 > header.value_len as usize {
            return Ok(None);
        }
        let word = frame.word(off + RECORD_HEADER_BYTES + word_offset);
        Ok(Some(word.fetch_add(delta, Ordering::Relaxed)))
    }

    // ------------------------------------------------------------------
    // Page-level access (scan, checkpoint, recovery)
    // ------------------------------------------------------------------

    /// log2 of the page size.
    pub fn page_bits(&self) -> u32 {
        self.page_bits
    }

    /// Returns the raw bytes of `page`, reading from memory or the SSD.
    /// Returns `None` if the page has never been written or was truncated.
    pub fn page_bytes(&self, page: u64) -> Option<Vec<u8>> {
        let page_start = Address::from_page(page, self.page_bits);
        let tail = self.tail_address();
        if page_start >= tail {
            return None;
        }
        // A page still in its frame (the tail pages are only there) is read
        // from memory.
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        if frame.current_page() == page {
            return Some(frame.snapshot());
        }
        if page_start < self.flushed_until_address() {
            let mut buf = vec![0u8; self.page_size];
            if self.ssd.read(page_start.raw(), &mut buf).is_ok() {
                return Some(buf);
            }
        }
        None
    }

    /// Restores the in-memory state of `page` from `bytes` (recovery).
    pub fn restore_page(&self, page: u64, bytes: &[u8]) {
        let frame = &self.frames[(page % self.config.memory_pages) as usize];
        frame.restore(bytes);
        frame.set_current_page(page);
    }

    /// Forces the log boundaries during recovery.  Only safe before any
    /// threads start operating on the log.
    ///
    /// Every in-memory frame is invalidated first: a freshly constructed log
    /// assigns frame `i` to page `i`, and on a recovered log those claims are
    /// stale — a read of a flushed-but-not-restored page must fall back to
    /// the device rather than see an empty frame.  Frames are repopulated by
    /// the [`HybridLog::restore_page`] calls that follow, and the tail page's
    /// frame is re-armed so appends can resume even if the checkpoint carried
    /// no in-memory pages.
    pub fn recover_boundaries(
        &self,
        begin: Address,
        head: Address,
        read_only: Address,
        tail: Address,
    ) {
        for frame in self.frames.iter() {
            frame.set_current_page(u64::MAX);
        }
        self.begin.store(begin.raw(), Ordering::SeqCst);
        self.head.store(head.raw(), Ordering::SeqCst);
        self.safe_head.store(head.raw(), Ordering::SeqCst);
        self.read_only.store(read_only.raw(), Ordering::SeqCst);
        self.flushed_until
            .store(read_only.raw().max(head.raw()), Ordering::SeqCst);
        self.tail.store(tail.raw(), Ordering::SeqCst);
        // Re-arm the tail page so appends have a live frame to write into;
        // restore_page overwrites its contents if the checkpoint captured it.
        let tail_page = tail.page(self.page_bits);
        let frame = &self.frames[(tail_page % self.config.memory_pages) as usize];
        frame.restore(&vec![0u8; self.page_size]);
        frame.set_current_page(tail_page);
    }

    /// Advances the begin address (log truncation after compaction).
    pub fn truncate_until(&self, addr: Address) {
        self.begin.fetch_max(addr.raw(), Ordering::SeqCst);
    }

    /// The previous-record address stored in the record at `addr`
    /// ([`INVALID_ADDRESS`] at the end of a chain).
    pub fn chain_prev(&self, addr: Address, guard: &Guard<'_>) -> Result<Address, LogError> {
        Ok(self.read_header(addr, guard)?.prev)
    }
}

// INVALID_ADDRESS is re-exported by lib.rs; keep the import used.
const _: Address = INVALID_ADDRESS;

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax_storage::SimSsd;

    fn test_log() -> (Arc<HybridLog>, Arc<EpochManager>) {
        let epoch = Arc::new(EpochManager::new());
        let log = HybridLog::new(
            LogConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 30)),
            None,
            Arc::clone(&epoch),
        );
        (log, epoch)
    }

    #[test]
    fn append_and_read_roundtrip() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let g = t.protect();
        let a = log
            .append(7, b"value-7", INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
            .unwrap();
        let rec = log.read_record(a, &g).unwrap();
        assert_eq!(rec.key(), 7);
        assert_eq!(rec.value(), b"value-7");
        assert_eq!(rec.header.prev, INVALID_ADDRESS);
        assert_eq!(rec.header.version, 1);
    }

    #[test]
    fn records_never_span_pages() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let page_size = log.config().page_size();
        let value = vec![0xAB; 1000];
        let mut prev_page = 0;
        for i in 0..200u64 {
            let a = log
                .append(i, &value, INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
            let start_page = a.page(16);
            let end_page = (a.raw() + RecordHeader::record_size(value.len()) as u64 - 1) >> 16;
            assert_eq!(start_page, end_page, "record {i} spans a page boundary");
            assert!(start_page >= prev_page);
            prev_page = start_page;
            assert!(a.offset(16) + RecordHeader::record_size(value.len()) <= page_size);
        }
    }

    #[test]
    fn oversized_record_is_rejected() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let too_big = vec![0u8; log.config().page_size()];
        assert!(matches!(
            log.append(1, &too_big, INVALID_ADDRESS, 1, RecordFlags::empty(), &t),
            Err(LogError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn chaining_via_prev_addresses() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let g = t.protect();
        let a1 = log
            .append(1, b"v1", INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
            .unwrap();
        let a2 = log
            .append(1, b"v2", a1, 1, RecordFlags::empty(), &t)
            .unwrap();
        let a3 = log
            .append(1, b"v3", a2, 1, RecordFlags::empty(), &t)
            .unwrap();
        assert_eq!(log.chain_prev(a3, &g).unwrap(), a2);
        assert_eq!(log.chain_prev(a2, &g).unwrap(), a1);
        assert_eq!(log.chain_prev(a1, &g).unwrap(), INVALID_ADDRESS);
    }

    #[test]
    fn spill_to_ssd_and_read_back() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let value = vec![0x5A; 256];
        let mut addrs = Vec::new();
        // 8 pages of 64 KiB hold ~1870 of these 280-byte records; write enough
        // to spill several pages to "SSD".
        for i in 0..4000u64 {
            let a = log
                .append(i, &value, INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
            addrs.push((i, a));
        }
        let stats = log.stats();
        assert!(stats.head > Address::FIRST_VALID, "head never advanced");
        assert!(stats.pages_flushed > 0, "no pages were flushed");
        // Every record is still readable, wherever it lives.
        let g = t.protect();
        let mut stable = 0;
        for (k, a) in &addrs {
            let rec = log.read_record(*a, &g).unwrap();
            assert_eq!(rec.key(), *k);
            assert_eq!(rec.value().len(), 256);
            if log.place_of(*a) == RecordPlace::Stable {
                stable += 1;
            }
        }
        assert!(stable > 0, "expected some records to be read from the SSD");
    }

    #[test]
    fn regions_are_ordered() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        for i in 0..3000u64 {
            log.append(i, &[1u8; 128], INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
        }
        let s = log.stats();
        assert!(s.begin <= s.safe_head);
        assert!(s.safe_head <= s.head);
        assert!(s.head <= s.read_only);
        assert!(s.read_only <= s.tail);
        assert!(s.flushed_until >= s.head);
    }

    #[test]
    fn in_place_update_only_in_mutable_region() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let g = t.protect();
        let a = log
            .append(9, &[0u8; 64], INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
            .unwrap();
        assert!(log.try_update_in_place(a, &[7u8; 64], &g).unwrap());
        assert_eq!(log.read_record(a, &g).unwrap().value(), &[7u8; 64][..]);
        // Length mismatch falls back to RCU.
        assert!(!log.try_update_in_place(a, &[7u8; 32], &g).unwrap());
        drop(g);
        // Push the record below the read-only boundary.
        for i in 0..3000u64 {
            log.append(i, &[1u8; 128], INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
        }
        let g = t.protect();
        assert!(a < log.read_only_address());
        assert!(!log.try_update_in_place(a, &[9u8; 64], &g).unwrap());
    }

    #[test]
    fn rmw_add_in_place_is_atomic_across_threads() {
        let epoch = Arc::new(EpochManager::new());
        let log = HybridLog::new(
            LogConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 30)),
            None,
            Arc::clone(&epoch),
        );
        let t = epoch.register();
        let a = log
            .append(
                1,
                &0u64.to_le_bytes(),
                INVALID_ADDRESS,
                1,
                RecordFlags::empty(),
                &t,
            )
            .unwrap();
        drop(t);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let log = Arc::clone(&log);
            let epoch = Arc::clone(&epoch);
            handles.push(std::thread::spawn(move || {
                let t = epoch.register();
                let g = t.protect();
                for _ in 0..1000 {
                    log.try_rmw_add_in_place(a, 0, 1, &g).unwrap().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = epoch.register();
        let g = t.protect();
        let rec = log.read_record(a, &g).unwrap();
        assert_eq!(u64::from_le_bytes(rec.value().try_into().unwrap()), 4000);
    }

    #[test]
    fn flush_all_complete_pages_makes_pages_durable() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        for i in 0..500u64 {
            log.append(i, &[3u8; 200], INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
        }
        let flushed = log.flush_all_complete_pages(&t);
        let tail_page_start = (log.tail_address().raw() >> 16) << 16;
        assert!(flushed.raw() >= tail_page_start);
        assert!(log.ssd().counters().snapshot().bytes_written > 0);
    }

    /// Every flushed page reads back, equal, from the SSD and from the
    /// shared tier it was written through to, at the smallest shipped page
    /// size and at the largest (one buffer spanning 16 device chunks).
    #[test]
    fn flushed_pages_read_back_from_both_devices() {
        use crate::record::RecordView;
        use shadowfax_storage::{LogId, SharedBlobTier};

        for page_bits in [16u32, 20] {
            let config = LogConfig {
                page_bits,
                memory_pages: 4,
                mutable_pages: 2,
                ..LogConfig::small_for_tests()
            };
            let epoch = Arc::new(EpochManager::new());
            let tier = SharedBlobTier::new(1 << 28);
            let log = HybridLog::new(
                config,
                Arc::new(SimSsd::new(1 << 28)),
                Some(tier.handle(LogId(1))),
                Arc::clone(&epoch),
            );
            let t = epoch.register();
            // Ten pages' worth of records, so most of the log is evicted.
            let value_len = 1000;
            let records = (10usize << page_bits) / (value_len + RECORD_HEADER_BYTES);
            let mut addrs = Vec::new();
            for key in 0..records as u64 {
                let value = vec![key as u8; value_len];
                addrs.push(
                    log.append(key, &value, INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                        .unwrap(),
                );
            }
            let flushed = log.flush_all_complete_pages(&t).raw();
            let pages = flushed >> page_bits;
            assert!(pages >= 8, "only {pages} pages flushed");
            assert!(log.head_address().raw() > 0);
            let shared = log.shared_tier().unwrap();
            let mut on_ssd = vec![0u8; 1 << page_bits];
            let mut on_tier = vec![0u8; 1 << page_bits];
            for page in 0..pages {
                let offset = page << page_bits;
                log.ssd().read(offset, &mut on_ssd).unwrap();
                shared.read(offset, &mut on_tier).unwrap();
                assert!(on_ssd == on_tier, "page {page} differs between devices");
            }
            let mut checked = 0;
            for (key, addr) in addrs.iter().enumerate() {
                if addr.raw() + (value_len + RECORD_HEADER_BYTES) as u64 > flushed {
                    break;
                }
                let mut bytes = vec![0u8; RECORD_HEADER_BYTES + value_len];
                shared.read(addr.raw(), &mut bytes).unwrap();
                let record = RecordView::parse(&bytes);
                assert_eq!(record.key(), key as u64);
                assert!(record.value().iter().all(|&b| b == key as u8));
                checked += 1;
            }
            assert!(checked * 10 > records * 7, "{checked} of {records} checked");
            assert_eq!(
                log.ssd().counters().snapshot().bytes_written,
                shared.counters().snapshot().bytes_written
            );
        }
    }

    #[test]
    fn place_of_truncated_address() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let g = t.protect();
        let a = log
            .append(5, b"x", INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
            .unwrap();
        log.truncate_until(a.add(64));
        assert_eq!(log.place_of(a), RecordPlace::Truncated);
        assert!(matches!(
            log.read_record(a, &g),
            Err(LogError::Truncated(_))
        ));
    }

    #[test]
    fn read_header_refuses_a_truncated_address_like_read_record() {
        let (log, epoch) = test_log();
        let t = epoch.register();
        let g = t.protect();
        let a = log
            .append(5, b"x", INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
            .unwrap();
        let b = log
            .append(6, b"yy", a, 1, RecordFlags::TOMBSTONE, &t)
            .unwrap();
        let header = log.read_header(b, &g).unwrap();
        assert_eq!(header, log.read_record(b, &g).unwrap().header);
        assert_eq!((header.key, header.prev, header.value_len), (6, a, 2));
        log.truncate_until(b);
        assert_eq!(log.read_header(a, &g), Err(LogError::Truncated(a)));
        assert_eq!(log.read_header(b, &g), Ok(header));
    }

    #[test]
    fn concurrent_appends_yield_distinct_readable_records() {
        let epoch = Arc::new(EpochManager::new());
        let log = HybridLog::new(
            LogConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 30)),
            None,
            Arc::clone(&epoch),
        );
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let log = Arc::clone(&log);
            let epoch = Arc::clone(&epoch);
            handles.push(std::thread::spawn(move || {
                let t = epoch.register();
                let mut addrs = Vec::new();
                for i in 0..500u64 {
                    let key = th * 10_000 + i;
                    let a = log
                        .append(
                            key,
                            &key.to_le_bytes(),
                            INVALID_ADDRESS,
                            1,
                            RecordFlags::empty(),
                            &t,
                        )
                        .unwrap();
                    addrs.push((key, a));
                }
                addrs
            }));
        }
        let all: Vec<(u64, Address)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let mut unique: Vec<u64> = all.iter().map(|(_, a)| a.raw()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "allocations overlapped");
        let t = epoch.register();
        let g = t.protect();
        for (k, a) in all {
            let rec = log.read_record(a, &g).unwrap();
            assert_eq!(rec.key(), k);
            assert_eq!(u64::from_le_bytes(rec.value().try_into().unwrap()), k);
        }
    }
}
