//! Indirection records (paper §3.3.2).
//!
//! During migration the source never reads its own SSD.  When a hash chain
//! extends below the in-memory head address, the source instead ships an
//! *indirection record* describing where the rest of the chain lives on the
//! cluster-shared storage tier: the chain's next address, the source's log
//! id, and the hash range being migrated.  The target inserts the indirection
//! record into its own hash index; if a later request hits it, the target
//! lazily fetches the real record from the shared tier, inserts it, and
//! completes the request.
//!
//! On the log an indirection record is an ordinary record with the
//! [`RecordFlags::INDIRECTION`] flag whose value payload is the encoding
//! produced by [`IndirectionRecord::encode_value`]: the first 16 bytes carry
//! the covered hash range (which is what the FASTER chain traversal uses to
//! decide whether a lookup "hits" the record), followed by the chain address,
//! the source log id, a representative hash used to place the record in the
//! correct bucket chain, the floor of the chain it names (the source's
//! records below it were dead there, so a fetch stops at it), and its hops:
//! a server may hold one record for the chain its source wrote and others
//! the source forwarded from earlier owners, and fewer hops is newer data.

use shadowfax_faster::{Address, RecordFlags};
use shadowfax_storage::LogId;

use crate::hash_range::HashRange;

/// Size of the encoded indirection payload.
pub const INDIRECTION_VALUE_BYTES: usize = 56;

/// A decoded indirection record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectionRecord {
    /// The hash range whose records this indirection covers (only lookups in
    /// this range follow the pointer).
    pub range: HashRange,
    /// Address of the next record in the chain, within the source's log
    /// address space (also its byte offset on the shared tier).
    pub chain_address: Address,
    /// The source log's identifier on the shared tier.
    pub source_log: LogId,
    /// A hash value that maps to the same bucket and tag as the source's
    /// bucket entry; the target inserts the record under this hash.
    pub representative_hash: u64,
    /// The source's floor for `range` when it shipped the record: the chain
    /// ends there, as the source's own walks did.
    pub floor: Address,
    /// Ownership hand-overs between the writes the chain holds and the
    /// server holding this record: fewer is newer.
    pub hops: u64,
}

impl IndirectionRecord {
    /// Encodes the payload stored as the record's value.
    pub fn encode_value(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(INDIRECTION_VALUE_BYTES);
        v.extend_from_slice(&self.range.start.to_le_bytes());
        v.extend_from_slice(&self.range.end.to_le_bytes());
        v.extend_from_slice(&self.chain_address.raw().to_le_bytes());
        v.extend_from_slice(&self.source_log.0.to_le_bytes());
        v.extend_from_slice(&self.representative_hash.to_le_bytes());
        v.extend_from_slice(&self.floor.raw().to_le_bytes());
        v.extend_from_slice(&self.hops.to_le_bytes());
        v
    }

    /// Decodes a payload produced by [`encode_value`](Self::encode_value).
    /// Returns `None` if the bytes are too short or malformed.
    pub fn decode_value(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < INDIRECTION_VALUE_BYTES {
            return None;
        }
        let read = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let start = read(0);
        let end = read(8);
        if start > end {
            return None;
        }
        Some(IndirectionRecord {
            range: HashRange::new(start, end),
            chain_address: Address::new(read(16) & ((1 << 48) - 1)),
            source_log: LogId(read(24)),
            representative_hash: read(32),
            floor: Address::new(read(40) & ((1 << 48) - 1)),
            hops: read(48),
        })
    }

    /// The record flags an indirection record is stored with.
    pub fn flags() -> RecordFlags {
        RecordFlags::INDIRECTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let rec = IndirectionRecord {
            range: HashRange::new(1000, 2000),
            chain_address: Address::new(0xABCDEF),
            source_log: LogId(7),
            representative_hash: 0x1234_5678_9ABC_DEF0,
            floor: Address::new(0x40),
            hops: 2,
        };
        let bytes = rec.encode_value();
        assert_eq!(bytes.len(), INDIRECTION_VALUE_BYTES);
        assert_eq!(IndirectionRecord::decode_value(&bytes), Some(rec));
    }

    #[test]
    fn decode_rejects_short_or_invalid_payloads() {
        assert_eq!(IndirectionRecord::decode_value(&[0u8; 8]), None);
        // start > end is rejected.
        let mut bytes = vec![0u8; INDIRECTION_VALUE_BYTES];
        bytes[0..8].copy_from_slice(&10u64.to_le_bytes());
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        assert_eq!(IndirectionRecord::decode_value(&bytes), None);
    }

    #[test]
    fn first_sixteen_bytes_are_the_covered_range() {
        // The FASTER chain traversal relies on this layout to match lookups
        // against indirection records without knowing their full structure.
        let rec = IndirectionRecord {
            range: HashRange::new(111, 222),
            chain_address: Address::new(64),
            source_log: LogId(1),
            representative_hash: 0,
            floor: Address::new(0),
            hops: 1,
        };
        let bytes = rec.encode_value();
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 111);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 222);
    }
}
