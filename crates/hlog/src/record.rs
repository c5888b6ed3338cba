//! On-log record layout.
//!
//! Every record in the HybridLog has the same shape:
//!
//! ```text
//! +----------------------------+----------------------------+--------+---------------+
//! | word 0: prev addr | flags  | word 1: version | val len  | key    | value ...pad  |
//! +----------------------------+----------------------------+--------+---------------+
//!   8 bytes                       8 bytes                      8 bytes  8-byte aligned
//! ```
//!
//! * `prev addr` (48 bits) chains records whose keys hash to the same bucket
//!   entry — the "reverse linked list" of paper Figure 2.
//! * `flags` mark tombstones (deletes), invalidated records, and Shadowfax's
//!   *indirection records* (paper §3.3.2), which carry a pointer to the shared
//!   tier instead of an inline value.
//! * `version` is the CPR checkpoint version the record was created in; the
//!   boundary between versions forms the checkpoint's global cut (paper §2.1).
//! * keys are fixed 8-byte integers (the paper's YCSB setup), values are
//!   arbitrary byte strings padded to 8-byte alignment.

use crate::address::{Address, INVALID_ADDRESS};

/// Alignment of every record in the log; also the alignment of the value
/// payload, which lets the first 8 value bytes be updated atomically in place
/// (read-modify-write counters).
pub const RECORD_ALIGNMENT: usize = 8;

/// Size of the fixed portion of a record (two header words plus the key).
pub const RECORD_HEADER_BYTES: usize = 24;

const PREV_ADDR_MASK: u64 = (1 << 48) - 1;
const FLAG_SHIFT: u32 = 48;

/// Tiny internal replacement for the `bitflags` crate (kept dependency-free).
macro_rules! bit_flags {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(
                $(#[$fmeta:meta])*
                const $flag:ident = $value:expr;
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name($ty);

        impl $name {
            $(
                $(#[$fmeta])*
                pub const $flag: $name = $name($value);
            )*

            /// No flags set.
            pub const fn empty() -> Self { Self(0) }
            /// Raw bit pattern.
            pub const fn bits(self) -> $ty { self.0 }
            /// Reconstructs flags from raw bits (unknown bits are kept).
            pub const fn from_bits(bits: $ty) -> Self { Self(bits) }
            /// `true` if every bit in `other` is set in `self`.
            pub const fn contains(self, other: Self) -> bool {
                (self.0 & other.0) == other.0
            }
            /// Union of two flag sets.
            #[must_use]
            pub const fn union(self, other: Self) -> Self { Self(self.0 | other.0) }
            /// Removes the bits in `other`.
            #[must_use]
            pub const fn difference(self, other: Self) -> Self { Self(self.0 & !other.0) }
        }

        impl std::ops::BitOr for $name {
            type Output = Self;
            fn bitor(self, rhs: Self) -> Self { self.union(rhs) }
        }
    };
}

bit_flags! {
    /// Per-record flag bits stored in the top 16 bits of header word 0.
    pub struct RecordFlags: u16 {
        /// The record is a delete marker; lookups that reach it report "not found".
        const TOMBSTONE = 0b0001;
        /// The record was superseded during an aborted insert and must be skipped.
        const INVALID = 0b0010;
        /// Shadowfax indirection record: the value is an encoded pointer into
        /// the shared tier rather than user data.
        const INDIRECTION = 0b0100;
        /// Record was copied to the tail by migration sampling (diagnostics only).
        const SAMPLED = 0b1000;
    }
}

/// The two fixed header words plus key, in their decoded form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Address of the previous record in this hash chain.
    pub prev: Address,
    /// Flag bits.
    pub flags: RecordFlags,
    /// CPR checkpoint version the record was written in.
    pub version: u32,
    /// Length of the value payload in bytes (excluding padding).
    pub value_len: u32,
    /// The record key.
    pub key: u64,
}

impl RecordHeader {
    /// Total on-log size of a record carrying `value_len` bytes of value,
    /// including padding to [`RECORD_ALIGNMENT`].
    pub fn record_size(value_len: usize) -> usize {
        let raw = RECORD_HEADER_BYTES + value_len;
        raw.div_ceil(RECORD_ALIGNMENT) * RECORD_ALIGNMENT
    }

    /// Encodes the header (without value) into `buf`, which must be at least
    /// [`RECORD_HEADER_BYTES`] long.
    pub fn encode_into(&self, buf: &mut [u8]) {
        assert!(buf.len() >= RECORD_HEADER_BYTES);
        let word0 = (self.prev.raw() & PREV_ADDR_MASK) | ((self.flags.bits() as u64) << FLAG_SHIFT);
        let word1 = (self.version as u64) | ((self.value_len as u64) << 32);
        buf[0..8].copy_from_slice(&word0.to_le_bytes());
        buf[8..16].copy_from_slice(&word1.to_le_bytes());
        buf[16..24].copy_from_slice(&self.key.to_le_bytes());
    }

    /// Decodes a header from the first [`RECORD_HEADER_BYTES`] bytes of `buf`.
    pub fn decode(buf: &[u8]) -> Self {
        assert!(buf.len() >= RECORD_HEADER_BYTES);
        let word0 = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let word1 = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let key = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        RecordHeader {
            prev: Address::new(word0 & PREV_ADDR_MASK),
            flags: RecordFlags::from_bits((word0 >> FLAG_SHIFT) as u16),
            version: (word1 & 0xFFFF_FFFF) as u32,
            value_len: (word1 >> 32) as u32,
            key,
        }
    }

    /// A header that has never been written (all zeroes) decodes to this; used
    /// by scanners to detect the end of a page's valid data.
    pub fn is_null(&self) -> bool {
        self.prev == INVALID_ADDRESS && self.key == 0 && self.value_len == 0 && self.version == 0
    }
}

/// A borrowed view of a record's bytes (header + value), e.g. inside a page
/// frame or a read buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    header: RecordHeader,
    value: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Parses a record from `bytes`, which must start at a record boundary and
    /// contain at least the full record.
    pub fn parse(bytes: &'a [u8]) -> Self {
        let header = RecordHeader::decode(bytes);
        let vlen = header.value_len as usize;
        let value = &bytes[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + vlen];
        RecordView { header, value }
    }

    /// The decoded header.
    pub fn header(&self) -> &RecordHeader {
        &self.header
    }

    /// The record key.
    pub fn key(&self) -> u64 {
        self.header.key
    }

    /// The value payload (without padding).
    pub fn value(&self) -> &'a [u8] {
        self.value
    }

    /// Address of the previous record in the hash chain.
    pub fn prev(&self) -> Address {
        self.header.prev
    }

    /// Flag bits.
    pub fn flags(&self) -> RecordFlags {
        self.header.flags
    }

    /// `true` if this record is a delete marker.
    pub fn is_tombstone(&self) -> bool {
        self.header.flags.contains(RecordFlags::TOMBSTONE)
    }

    /// Total on-log footprint of this record including padding.
    pub fn record_size(&self) -> usize {
        RecordHeader::record_size(self.header.value_len as usize)
    }

    /// Copies the record into an owned buffer.
    pub fn to_owned(&self) -> RecordOwned {
        RecordOwned {
            header: self.header,
            value: self.value.to_vec(),
        }
    }
}

/// An owned copy of a record (used for records read from SSD / the shared
/// tier, for migration batches, and for scans).  A store's chain walk makes
/// one only for the record it returns, or for an indirection record whose
/// range it must decode; it reads just the header of every hop it skips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordOwned {
    /// Decoded header.
    pub header: RecordHeader,
    /// Value payload.
    pub value: Vec<u8>,
}

impl RecordOwned {
    /// Builds a record in memory (used by tests and by migration receive
    /// paths before re-appending into a local log).
    pub fn new(key: u64, value: Vec<u8>, flags: RecordFlags, version: u32) -> Self {
        RecordOwned {
            header: RecordHeader {
                prev: INVALID_ADDRESS,
                flags,
                version,
                value_len: value.len() as u32,
                key,
            },
            value,
        }
    }

    /// The record key.
    pub fn key(&self) -> u64 {
        self.header.key
    }

    /// The value payload.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// `true` if this record is a delete marker.
    pub fn is_tombstone(&self) -> bool {
        self.header.flags.contains(RecordFlags::TOMBSTONE)
    }

    /// `true` if this is a Shadowfax indirection record.
    pub fn is_indirection(&self) -> bool {
        self.header.flags.contains(RecordFlags::INDIRECTION)
    }

    /// Serializes header + value (+ padding) into a contiguous buffer of
    /// exactly `record_size` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let size = RecordHeader::record_size(self.value.len());
        let mut buf = vec![0u8; size];
        let mut header = self.header;
        header.value_len = self.value.len() as u32;
        header.encode_into(&mut buf);
        buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + self.value.len()]
            .copy_from_slice(&self.value);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(key: u64, vlen: u32) -> RecordHeader {
        RecordHeader {
            prev: Address::new(0xABCDE),
            flags: RecordFlags::TOMBSTONE | RecordFlags::SAMPLED,
            version: 7,
            value_len: vlen,
            key,
        }
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let h = header(0xDEADBEEF, 256);
        let mut buf = [0u8; RECORD_HEADER_BYTES];
        h.encode_into(&mut buf);
        assert_eq!(RecordHeader::decode(&buf), h);
    }

    #[test]
    fn record_size_is_aligned() {
        assert_eq!(RecordHeader::record_size(0), 24);
        assert_eq!(RecordHeader::record_size(1), 32);
        assert_eq!(RecordHeader::record_size(8), 32);
        assert_eq!(RecordHeader::record_size(9), 40);
        assert_eq!(RecordHeader::record_size(256), 280);
        for len in 0..128 {
            assert_eq!(RecordHeader::record_size(len) % RECORD_ALIGNMENT, 0);
        }
    }

    #[test]
    fn view_parses_value() {
        let rec = RecordOwned::new(99, b"abcdef".to_vec(), RecordFlags::empty(), 3);
        let bytes = rec.encode();
        let view = RecordView::parse(&bytes);
        assert_eq!(view.key(), 99);
        assert_eq!(view.value(), b"abcdef");
        assert_eq!(view.header().version, 3);
        assert_eq!(view.record_size(), bytes.len());
        assert_eq!(view.to_owned().value, rec.value);
    }

    #[test]
    fn flags_behave_like_sets() {
        let f = RecordFlags::TOMBSTONE | RecordFlags::INDIRECTION;
        assert!(f.contains(RecordFlags::TOMBSTONE));
        assert!(f.contains(RecordFlags::INDIRECTION));
        assert!(!f.contains(RecordFlags::INVALID));
        assert!(!f
            .difference(RecordFlags::TOMBSTONE)
            .contains(RecordFlags::TOMBSTONE));
        assert_eq!(RecordFlags::from_bits(f.bits()), f);
    }

    #[test]
    fn null_header_detection() {
        let zero = [0u8; RECORD_HEADER_BYTES];
        assert!(RecordHeader::decode(&zero).is_null());
        let mut buf = [0u8; RECORD_HEADER_BYTES];
        header(1, 0).encode_into(&mut buf);
        assert!(!RecordHeader::decode(&buf).is_null());
    }

    #[test]
    fn tombstone_and_indirection_accessors() {
        let t = RecordOwned::new(1, vec![], RecordFlags::TOMBSTONE, 1);
        assert!(t.is_tombstone());
        assert!(!t.is_indirection());
        let i = RecordOwned::new(2, vec![1, 2, 3], RecordFlags::INDIRECTION, 1);
        assert!(i.is_indirection());
    }
}
