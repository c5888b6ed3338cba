//! Per-range log floors: FASTER's begin address, kept per hash range.
//!
//! FASTER treats every record below the log's begin address as invalid.
//! Shadowfax moves ownership of hash ranges between servers, and a server
//! that takes a range (paper §3.3) becomes its only writer from that moment:
//! whatever it held for the range before is dead.  The floor table states
//! that as a log address per range of the 64-bit hash space.  A record is
//! live only at or past its range's floor; a chain walk stops there.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// The floor table over the hash space.  Every floor starts at 0; only
/// [`Floors::raise`] moves one, and never down.
pub(crate) struct Floors {
    /// The highest floor of any range.  A walk that stays at or above it
    /// never consults the table, so a store whose floors are all 0 pays one
    /// comparison per walk.  `raise` stores it (Release) after the table
    /// write; a reader that loads it (Acquire) and then needs the table
    /// finds the table that value came from.
    highest: AtomicU64,
    /// `(start, floor)` segments sorted by start, the first at 0: each runs
    /// up to the next start, the last to the top of the space (`u64::MAX`
    /// included).
    segments: RwLock<Vec<(u64, u64)>>,
}

impl Floors {
    pub(crate) fn new() -> Self {
        Floors {
            highest: AtomicU64::new(0),
            segments: RwLock::new(vec![(0, 0)]),
        }
    }

    /// An upper bound on every floor.
    #[inline]
    pub(crate) fn highest(&self) -> u64 {
        self.highest.load(Ordering::Acquire)
    }

    /// The floor of the range holding `hash`.
    pub(crate) fn floor_of(&self, hash: u64) -> u64 {
        let segments = self.segments.read();
        segments[segments.partition_point(|&(start, _)| start <= hash) - 1].1
    }

    /// Raises the floor of `[start, end)` to at least `floor` (an `end` of
    /// `u64::MAX` runs to the top of the space, as a hash range does).
    pub(crate) fn raise(&self, start: u64, end: u64, floor: u64) {
        let mut segments = self.segments.write();
        split_at(&mut segments, start);
        if end != u64::MAX {
            split_at(&mut segments, end);
        }
        for (s, f) in segments.iter_mut() {
            if *s >= start && (*s < end || end == u64::MAX) {
                *f = (*f).max(floor);
            }
        }
        segments.dedup_by(|next, prev| next.1 == prev.1);
        drop(segments);
        self.highest.fetch_max(floor, Ordering::Release);
    }

    /// The `(start, end, floor)` pieces of `[start, end)`, one per floor
    /// segment it overlaps, clipped to it.
    pub(crate) fn within(&self, start: u64, end: u64) -> Vec<(u64, u64, u64)> {
        let segments = self.segments.read();
        let ends = segments.iter().skip(1).map(|&(s, _)| s).chain([u64::MAX]);
        segments
            .iter()
            .zip(ends)
            .filter(|&(&(s, _), e)| s < end && start < e)
            .map(|(&(s, floor), e)| (s.max(start), e.min(end), floor))
            .collect()
    }

    /// The table, for a checkpoint.
    pub(crate) fn snapshot(&self) -> Vec<(u64, u64)> {
        self.segments.read().clone()
    }

    /// Replaces the table with a checkpoint's.
    pub(crate) fn restore(&self, segments: &[(u64, u64)]) {
        assert_eq!(
            segments.first().map(|s| s.0),
            Some(0),
            "floor table must start at 0"
        );
        *self.segments.write() = segments.to_vec();
        let highest = segments.iter().map(|s| s.1).max().unwrap_or(0);
        self.highest.fetch_max(highest, Ordering::Release);
    }
}

/// Makes `at` the start of a segment.
fn split_at(segments: &mut Vec<(u64, u64)>, at: u64) {
    let i = segments.partition_point(|&(start, _)| start <= at) - 1;
    if segments[i].0 != at {
        segments.insert(i + 1, (at, segments[i].1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raising_a_range_leaves_its_neighbours_alone() {
        let floors = Floors::new();
        assert_eq!((floors.highest(), floors.floor_of(u64::MAX)), (0, 0));
        floors.raise(100, 200, 7);
        assert_eq!(floors.floor_of(99), 0);
        assert_eq!(floors.floor_of(100), 7);
        assert_eq!(floors.floor_of(199), 7);
        assert_eq!(floors.floor_of(200), 0);
        assert_eq!(floors.highest(), 7);
        // Floors only rise; adjacent equal segments merge.
        floors.raise(150, 300, 5);
        assert_eq!(
            floors.snapshot(),
            vec![(0, 0), (100, 7), (200, 5), (300, 0)]
        );
        floors.raise(0, u64::MAX, 9);
        assert_eq!(floors.snapshot(), vec![(0, 9)]);
        assert_eq!(floors.floor_of(u64::MAX), 9);
    }

    #[test]
    fn within_clips_the_segments_a_range_overlaps() {
        let floors = Floors::new();
        floors.raise(100, 200, 7);
        assert_eq!(floors.within(50, 150), vec![(50, 100, 0), (100, 150, 7)]);
        assert_eq!(floors.within(120, 130), vec![(120, 130, 7)]);
        assert_eq!(
            floors.within(150, u64::MAX),
            vec![(150, 200, 7), (200, u64::MAX, 0)]
        );
        let restored = Floors::new();
        restored.restore(&floors.snapshot());
        assert_eq!((restored.highest(), restored.floor_of(150)), (7, 7));
    }
}
