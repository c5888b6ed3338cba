//! Log compaction.
//!
//! The stable region of the log accumulates stale record versions (each RCU
//! update appends a new version and leaves the old one behind) and, after
//! migrations, records for hash ranges the server no longer owns.  Compaction
//! scans a prefix of the log, re-appends the records that are still live and
//! still owned, hands records that now belong to another server to a caller
//! supplied callback (Shadowfax ships them to the current owner, paper
//! §3.3.3), and finally truncates the scanned prefix.
//!
//! Resolving and removing indirection records piggybacks on this same pass:
//! the owner-side handling lives in the `shadowfax` core crate; this module
//! only provides the scan / re-append / dispose skeleton.

use shadowfax_hlog::{Address, LogScanner, RecordOwned};

use crate::key_hash::KeyHash;
use crate::store::{Faster, FasterSession, ReadOutcome};

/// What compaction should do with a live record it encountered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Re-append the record to the tail (still owned, still wanted).
    Keep,
    /// Drop the record (no longer wanted, e.g. deleted or superseded).
    Discard,
    /// The callback has taken responsibility for the record (e.g. it was
    /// transmitted to the server that now owns its hash range).
    Handled,
}

/// Statistics reported by one compaction pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records examined in the scanned prefix.
    pub scanned: u64,
    /// Records that were stale (a newer version exists) or tombstoned.
    pub stale: u64,
    /// Live records re-appended to the tail.
    pub kept: u64,
    /// Live records dispatched to the callback (`Disposition::Handled`).
    pub handed_off: u64,
    /// Live records discarded at the callback's request.
    pub discarded: u64,
    /// New begin address after truncation.
    pub new_begin: Address,
}

/// Compacts the log prefix `[begin, until)`.
///
/// For every record in the prefix that is still the *latest* version of its
/// key (and not a tombstone), `disposer` decides whether it is kept locally,
/// discarded, or handed off.  Kept records are re-upserted so they move to the
/// tail; the prefix is then truncated.
pub fn compact_until<F>(
    store: &Faster,
    session: &FasterSession,
    until: Address,
    mut disposer: F,
) -> CompactionStats
where
    F: FnMut(&RecordOwned) -> Disposition,
{
    let log = store.log();
    let mut stats = CompactionStats::default();
    let until = until.min(log.read_only_address());
    let records: Vec<(Address, RecordOwned)> = {
        let scanner = LogScanner::new(log, log.begin_address(), until, session.thread());
        scanner.collect()
    };
    for (addr, record) in records {
        stats.scanned += 1;
        // Indirection records are keyed by a *representative hash* chosen to
        // land in a specific bucket, so the usual by-key staleness check does
        // not apply to them: they are never superseded by a newer version of
        // the same key, only dropped or kept by the disposer — and cut down
        // to the part of their hash range whose floor they are not below.
        let is_indirection = record.is_indirection();
        let live_ranges = if is_indirection {
            live_part(store, addr, &record)
        } else {
            Vec::new()
        };
        if is_indirection && live_ranges.is_empty() {
            stats.stale += 1;
            continue;
        }
        if !is_indirection {
            // Is this record still the newest version of its key?
            let latest = match store.read_record_for(record.key(), session) {
                Ok(ReadOutcome::Found { address, .. }) => address,
                _ => {
                    stats.stale += 1;
                    continue;
                }
            };
            if latest != addr || record.is_tombstone() {
                stats.stale += 1;
                continue;
            }
        } else if record.is_tombstone() {
            stats.stale += 1;
            continue;
        }
        match disposer(&record) {
            Disposition::Keep => {
                // Re-append so the record survives truncation.  Indirection
                // records must stay in the bucket their representative hash
                // names; ordinary records re-hash their key to the same place.
                if is_indirection {
                    for (start, end) in live_ranges {
                        let mut value = record.value().to_vec();
                        value[0..8].copy_from_slice(&start.to_le_bytes());
                        value[8..16].copy_from_slice(&end.to_le_bytes());
                        store
                            .insert_record_at_hash(
                                record.key(),
                                record.key(),
                                &value,
                                record.header.flags,
                                session,
                            )
                            .expect("re-append of indirection record during compaction failed");
                    }
                } else {
                    store
                        .insert_record(record.key(), record.value(), record.header.flags, session)
                        .expect("re-append during compaction failed");
                }
                stats.kept += 1;
            }
            Disposition::Handled => stats.handed_off += 1,
            Disposition::Discard => stats.discarded += 1,
        }
    }
    log.truncate_until(until);
    stats.new_begin = log.begin_address();
    stats
}

/// The pieces of an indirection record's hash range whose floor lies at or
/// below the record: re-appending it at the tail unchanged would revive it
/// for a range taken again since it was written.
fn live_part(store: &Faster, addr: Address, record: &RecordOwned) -> Vec<(u64, u64)> {
    let value = record.value();
    if value.len() < 16 {
        return Vec::new();
    }
    let word = |i: usize| u64::from_le_bytes(value[i..i + 8].try_into().unwrap());
    let pieces = store.live_pieces(word(0), word(8), addr).into_iter();
    pieces.map(|(s, e, _)| (s, e)).collect()
}

/// Convenience wrapper: compacts everything below the read-only boundary,
/// keeping every live record (single-server configuration with no ownership
/// changes).
pub fn compact_all_keep(store: &Faster, session: &FasterSession) -> CompactionStats {
    compact_until(store, session, store.log().read_only_address(), |_| {
        Disposition::Keep
    })
}

/// Returns `true` if `record`'s key hash falls outside all of the hash ranges
/// in `owned`, i.e. the record should be handed off during compaction.
/// (`owned` is a list of `[start, end)` ranges over the 64-bit hash space.)
pub fn record_is_foreign(record: &RecordOwned, owned: &[(u64, u64)]) -> bool {
    let h = KeyHash::of(record.key()).raw();
    !owned.iter().any(|(s, e)| h >= *s && h < *e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FasterConfig;
    use crate::store::Faster;
    use shadowfax_storage::SimSsd;
    use std::sync::Arc;

    fn loaded_store(n: u64) -> (Arc<Faster>, crate::store::FasterSession) {
        let store = Faster::standalone(
            FasterConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 30)),
        );
        let session = store.start_session();
        let value = vec![5u8; 200];
        for k in 0..n {
            session.upsert(k, &value).unwrap();
        }
        // Second round of updates makes the first versions stale.
        for k in 0..n / 2 {
            session.upsert(k, &value).unwrap();
        }
        (store, session)
    }

    #[test]
    fn compaction_preserves_live_data() {
        let (store, session) = loaded_store(3000);
        let before = store.approximate_key_count(&session);
        let stats = compact_all_keep(&store, &session);
        assert!(stats.scanned > 0);
        assert!(stats.new_begin > Address::FIRST_VALID);
        let after = store.approximate_key_count(&session);
        assert_eq!(before, after);
        // Every key still readable after truncation.
        for k in (0..3000u64).step_by(113) {
            assert!(session.read(k).unwrap().is_some());
        }
    }

    #[test]
    fn compaction_detects_stale_versions() {
        let (store, session) = loaded_store(2000);
        let stats = compact_all_keep(&store, &session);
        assert!(
            stats.stale > 0,
            "re-updated keys should have stale old versions"
        );
    }

    #[test]
    fn foreign_records_are_handed_off() {
        let (store, session) = loaded_store(3000);
        // Pretend we only own the lower half of the hash space.
        let owned = vec![(0u64, u64::MAX / 2)];
        let mut shipped = Vec::new();
        let stats = compact_until(&store, &session, store.log().read_only_address(), |rec| {
            if record_is_foreign(rec, &owned) {
                shipped.push(rec.key());
                Disposition::Handled
            } else {
                Disposition::Keep
            }
        });
        assert!(stats.handed_off > 0);
        assert_eq!(stats.handed_off as usize, shipped.len());
        assert!(stats.kept > 0);
    }

    #[test]
    fn record_is_foreign_respects_ranges() {
        let rec = RecordOwned::new(42, vec![1], Default::default(), 1);
        let h = KeyHash::of(42).raw();
        assert!(!record_is_foreign(&rec, &[(0, u64::MAX)]));
        assert!(record_is_foreign(&rec, &[(h + 1, h + 2)]));
        assert!(!record_is_foreign(&rec, &[(h, h + 1)]));
    }

    #[test]
    fn kept_indirection_records_survive_compaction_in_their_bucket() {
        use crate::store::ReadOutcome;
        use shadowfax_hlog::RecordFlags;

        let (store, session) = loaded_store(3000);
        // Plant an indirection record the way the migration receive path
        // does: keyed by a representative hash so it lands in a chosen
        // bucket, with a payload whose leading 16 bytes name the hash range
        // it covers (here: the whole space, so any lookup in that bucket
        // matches it).  The probe key is never inserted directly.
        let probe_key = 9_999_999u64;
        let rep = KeyHash::of(probe_key).raw();
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(b"shared-tier-pointer");
        store
            .insert_record_at_hash(rep, rep, &payload, RecordFlags::INDIRECTION, &session)
            .unwrap();
        // Push it below the read-only boundary so compaction scans it.
        for k in 10_000..12_000u64 {
            session.upsert(k, &[1u8; 200]).unwrap();
        }
        let found_before = matches!(
            store.read_record_for(probe_key, &session),
            Ok(ReadOutcome::Found { ref record, .. }) if record.is_indirection()
        );
        assert!(
            found_before,
            "test setup: indirection record not visible before compaction"
        );

        let stats = compact_until(&store, &session, store.log().read_only_address(), |_rec| {
            Disposition::Keep
        });
        assert!(stats.kept > 0);

        // The indirection record is still reachable through its bucket after
        // the compacted prefix was truncated.
        match store.read_record_for(probe_key, &session) {
            Ok(ReadOutcome::Found { record, .. }) => {
                assert!(record.is_indirection(), "indirection record lost its flag");
                assert_eq!(&record.value()[16..], b"shared-tier-pointer");
            }
            other => panic!("indirection record was dropped by compaction: {other:?}"),
        }
    }
}
