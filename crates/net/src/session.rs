//! What a client session is configured with and calls back into
//! (paper §3.1.1): the batching and pipelining knobs, and the completion
//! callback an operation is issued with.  The session itself — batches
//! tagged with the cached view, several in flight, callbacks run as
//! replies arrive — lives in the core crate, next to the client that owns
//! one per server.

use crate::message::KvResponse;

/// A completion callback invoked with the operation's response.
pub type Callback = Box<dyn FnOnce(KvResponse) + Send>;

/// Batching and pipelining knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum operations per batch.
    pub max_batch_ops: usize,
    /// Flush a batch once its serialized size reaches this many bytes
    /// (Table 2's "batch size" column is this quantity at saturation).
    pub max_batch_bytes: usize,
    /// Maximum batches in flight before buffered operations simply accumulate
    /// (bounded queue depth; Table 2's "queue depth" column).
    pub max_inflight_batches: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_batch_ops: 512,
            max_batch_bytes: 32 * 1024,
            max_inflight_batches: 8,
        }
    }
}
