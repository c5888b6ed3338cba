//! Wire messages exchanged between client and server threads.
//!
//! Requests travel in [`RequestBatch`]es tagged with the client's cached view
//! number for the server; replies either carry one [`KvResponse`] per request
//! or reject the whole batch with the server's current view (paper §3.2).

/// A single key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRequest {
    /// Return the value of `key`.
    Read {
        /// Target key.
        key: u64,
    },
    /// Blindly set `key` to `value`.
    Upsert {
        /// Target key.
        key: u64,
        /// New value.
        value: Vec<u8>,
    },
    /// Add `delta` to the 8-byte counter at the head of `key`'s value
    /// (YCSB-F's read-modify-write).
    RmwAdd {
        /// Target key.
        key: u64,
        /// Increment.
        delta: u64,
    },
    /// Remove `key`.
    Delete {
        /// Target key.
        key: u64,
    },
}

impl KvRequest {
    /// The key this request targets.
    pub fn key(&self) -> u64 {
        match self {
            KvRequest::Read { key }
            | KvRequest::Upsert { key, .. }
            | KvRequest::RmwAdd { key, .. }
            | KvRequest::Delete { key } => *key,
        }
    }

    /// Approximate size of the request on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            KvRequest::Read { .. } => 12,
            KvRequest::Upsert { value, .. } => 16 + value.len(),
            KvRequest::RmwAdd { .. } => 20,
            KvRequest::Delete { .. } => 12,
        }
    }
}

/// The result of one [`KvRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// Result of a read.
    Value(Option<Vec<u8>>),
    /// New counter value after an `RmwAdd`.
    Counter(u64),
    /// Upsert acknowledged.
    Ok,
    /// Delete result (`true` if the key existed).
    Deleted(bool),
    /// The operation targets a record that has not yet arrived at this server
    /// (migration in progress); the server will answer it later.
    Pending,
    /// The server could not execute the operation.
    Error(String),
}

/// A pipelined batch of requests from one client thread to one server thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBatch {
    /// The view number the client believes the server is in.  A single
    /// integer comparison at the server validates ownership of every key in
    /// the batch (paper §3.2).
    pub view: u64,
    /// Client-assigned sequence number, used to match replies to batches.
    pub seq: u64,
    /// The operations.
    pub ops: Vec<KvRequest>,
}

impl RequestBatch {
    /// Approximate size of the batch on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        16 + self.ops.iter().map(KvRequest::wire_size).sum::<usize>()
    }
}

/// The server's reply to a [`RequestBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// Every operation was executed; one response per request, in order.
    Executed {
        /// Sequence number of the batch being answered.
        seq: u64,
        /// Per-request results.
        results: Vec<KvResponse>,
    },
    /// The batch's view did not match the server's current view.  The client
    /// must refresh its ownership mappings and re-issue the operations.
    Rejected {
        /// Sequence number of the rejected batch.
        seq: u64,
        /// The server's current view number.
        server_view: u64,
    },
}

impl BatchReply {
    /// The sequence number this reply refers to.
    pub fn seq(&self) -> u64 {
        match self {
            BatchReply::Executed { seq, .. } | BatchReply::Rejected { seq, .. } => *seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_sizes_scale_with_payload() {
        let small = KvRequest::Upsert {
            key: 1,
            value: vec![0; 8],
        };
        let big = KvRequest::Upsert {
            key: 1,
            value: vec![0; 256],
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(KvRequest::Read { key: 1 }.wire_size(), 12);
    }

    #[test]
    fn batch_wire_size_sums_requests() {
        let batch = RequestBatch {
            view: 1,
            seq: 9,
            ops: vec![
                KvRequest::Read { key: 1 },
                KvRequest::RmwAdd { key: 2, delta: 1 },
            ],
        };
        assert_eq!(batch.wire_size(), 16 + 12 + 20);
    }

    #[test]
    fn reply_seq_matches_variant() {
        let e = BatchReply::Executed {
            seq: 3,
            results: vec![],
        };
        let r = BatchReply::Rejected {
            seq: 4,
            server_view: 7,
        };
        assert_eq!(e.seq(), 3);
        assert_eq!(r.seq(), 4);
    }

    #[test]
    fn request_key_accessor() {
        assert_eq!(KvRequest::Delete { key: 42 }.key(), 42);
        assert_eq!(KvRequest::RmwAdd { key: 7, delta: 3 }.key(), 7);
    }

    #[test]
    fn batches_are_cloneable_and_comparable() {
        let batch = RequestBatch {
            view: 2,
            seq: 5,
            ops: vec![KvRequest::Upsert {
                key: 1,
                value: vec![1, 2, 3],
            }],
        };
        let copy = batch.clone();
        assert_eq!(batch, copy);
        assert_eq!(copy.ops[0].key(), 1);
    }
}
