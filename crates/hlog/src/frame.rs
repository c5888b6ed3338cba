//! In-memory page frames.
//!
//! The in-memory portion of the HybridLog is a circular buffer of fixed-size
//! frames.  A frame's bytes are stored as a slice of `AtomicU64` words so
//! that concurrent readers, in-place writers, and the flush path can access
//! the same memory without data races: every access is a relaxed atomic word
//! operation.  (FASTER relies on the application to synchronize in-place
//! updates; representing pages as atomics gives us the same semantics without
//! undefined behaviour.)
//!
//! Record alignment is 8 bytes and every record size is a multiple of 8, so
//! all record-granularity accesses are word-aligned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One in-memory page frame.
pub(crate) struct PageFrame {
    words: Box<[AtomicU64]>,
    /// The logical page this frame currently holds (`NO_PAGE` if none).
    current_page: AtomicU64,
}

impl PageFrame {
    pub(crate) fn new(page_size: usize, initial_page: u64) -> Self {
        assert_eq!(page_size % 8, 0);
        let words = (0..page_size / 8).map(|_| AtomicU64::new(0)).collect();
        Self {
            words,
            current_page: AtomicU64::new(initial_page),
        }
    }

    pub(crate) fn page_size(&self) -> usize {
        self.words.len() * 8
    }

    pub(crate) fn current_page(&self) -> u64 {
        self.current_page.load(Ordering::Acquire)
    }

    pub(crate) fn set_current_page(&self, page: u64) {
        self.current_page.store(page, Ordering::Release);
    }

    /// Zeroes the whole frame (done when the frame is recycled for a new
    /// page, so scanners can rely on "null header means end of data").
    pub(crate) fn zero(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Writes `data` at `offset`.  `offset` must be 8-byte aligned; the write
    /// covers whole words, zero-padding the final partial word (the padding
    /// bytes always belong to the same record, whose size is 8-aligned).
    pub(crate) fn write(&self, offset: usize, data: &[u8]) {
        assert_eq!(offset % 8, 0, "unaligned frame write");
        assert!(
            offset + data.len() <= self.page_size(),
            "frame write overflow"
        );
        let mut word_idx = offset / 8;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().unwrap());
            self.words[word_idx].store(w, Ordering::Relaxed);
            word_idx += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.words[word_idx].store(u64::from_le_bytes(last), Ordering::Relaxed);
        }
    }

    /// Reads `out.len()` bytes starting at `offset` (8-byte aligned).
    pub(crate) fn read(&self, offset: usize, out: &mut [u8]) {
        assert_eq!(offset % 8, 0, "unaligned frame read");
        assert!(
            offset + out.len() <= self.page_size(),
            "frame read overflow"
        );
        let mut word_idx = offset / 8;
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.words[word_idx].load(Ordering::Relaxed).to_le_bytes());
            word_idx += 1;
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.words[word_idx].load(Ordering::Relaxed).to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }

    /// Direct access to the 8-byte word at `offset` (must be aligned); used
    /// for atomic in-place read-modify-writes of counter values.
    pub(crate) fn word(&self, offset: usize) -> &AtomicU64 {
        assert_eq!(offset % 8, 0, "unaligned word access");
        &self.words[offset / 8]
    }

    /// Copies the whole frame into a new buffer (scan and checkpoint).
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.page_size()];
        self.read(0, &mut out);
        out
    }

    /// Copies the whole frame, once, into a new immutable buffer the
    /// devices share (flush path).
    pub(crate) fn shared_snapshot(&self) -> Arc<[u8]> {
        let mut page: Arc<[u8]> = std::iter::repeat_n(0, self.page_size()).collect();
        self.read(
            0,
            Arc::get_mut(&mut page).expect("a new buffer is unshared"),
        );
        page
    }

    /// Overwrites the whole frame from `data` (recovery path).
    pub(crate) fn restore(&self, data: &[u8]) {
        assert_eq!(data.len(), self.page_size());
        self.write(0, data);
    }
}

impl std::fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageFrame")
            .field("page_size", &self.page_size())
            .field("current_page", &self.current_page())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_word_multiple() {
        let f = PageFrame::new(4096, 0);
        let data: Vec<u8> = (0..64).collect();
        f.write(128, &data);
        let mut out = vec![0u8; 64];
        f.read(128, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn write_read_roundtrip_partial_word() {
        let f = PageFrame::new(4096, 0);
        let data: Vec<u8> = (0..13).collect();
        f.write(0, &data);
        let mut out = vec![0u8; 13];
        f.read(0, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn zero_clears_frame() {
        let f = PageFrame::new(512, 3);
        f.write(0, &[0xFF; 512]);
        f.zero();
        let mut out = vec![1u8; 512];
        f.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let f = PageFrame::new(1024, 0);
        let data: Vec<u8> = (0..1024).map(|i| (i % 255) as u8).collect();
        f.write(0, &data);
        let snap = f.snapshot();
        assert_eq!(snap, data);
        let g = PageFrame::new(1024, 1);
        g.restore(&snap);
        assert_eq!(g.snapshot(), data);
        assert_eq!(&g.shared_snapshot()[..], &data[..]);
    }

    #[test]
    fn atomic_word_updates_are_visible_to_reads() {
        let f = PageFrame::new(256, 0);
        f.write(0, &100u64.to_le_bytes());
        f.word(0).fetch_add(5, Ordering::Relaxed);
        let mut out = [0u8; 8];
        f.read(0, &mut out);
        assert_eq!(u64::from_le_bytes(out), 105);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        let f = PageFrame::new(256, 0);
        f.write(3, &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflowing_write_panics() {
        let f = PageFrame::new(256, 0);
        f.write(248, &[0u8; 16]);
    }
}
