//! Client-side sessions: asynchronous requests, batching, pipelining, and
//! view-tagged batches (paper §3.1.1).
//!
//! A session connects one client thread to one server thread.  The client
//! thread *issues* operations together with a completion callback; the
//! session buffers them, sends them out in batches tagged with the cached
//! view number, keeps multiple batches in flight, and executes callbacks as
//! replies arrive.  The issuing thread never blocks — this is the paper's
//! "end-to-end asynchronous clients" property.
//!
//! The session owns one [`PeerLink`]: each batch is encoded into one frame
//! and written to the link's byte stream, so exactly the same batching,
//! pipelining and codec run over the in-process simulated fabric and over
//! real TCP sockets (`shadowfax-rpc`).
//!
//! When the server rejects a batch because of a view mismatch (ownership
//! changed), the session parks the affected operations and records a typed
//! [`SessionError::StaleView`]; the Shadowfax client library refreshes its
//! ownership mappings from the metadata store and re-routes them (possibly
//! onto a different session).

use std::collections::VecDeque;

use shadowfax_net::{BatchReply, Callback, KvRequest, RequestBatch, SessionConfig, SessionError};

use crate::wire::PeerLink;

/// Counters kept by each session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Operations issued by the application.
    pub ops_issued: u64,
    /// Operations whose callback has run.
    pub ops_completed: u64,
    /// Batches sent.
    pub batches_sent: u64,
    /// Batch rejections due to view mismatches.
    pub batches_rejected: u64,
    /// Total bytes of request batches sent.
    pub bytes_sent: u64,
}

struct InflightBatch {
    seq: u64,
    ops: Vec<(KvRequest, Callback)>,
}

/// A pipelined, batched session from one client thread to one server
/// thread, over a [`PeerLink`] on either fabric.
pub(crate) struct ClientSession {
    link: PeerLink,
    config: SessionConfig,
    /// View number the client believes the server is in; stamped on batches.
    view: u64,
    next_seq: u64,
    buffer: Vec<(KvRequest, Callback)>,
    buffer_bytes: usize,
    inflight: VecDeque<InflightBatch>,
    /// Operations from rejected batches, waiting for the owner's view to be
    /// refreshed and the ops re-routed by the client library.
    parked: Vec<(KvRequest, Callback)>,
    /// The typed rejection recorded when the server reported a newer view.
    rejection: Option<SessionError>,
    stats: SessionStats,
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession")
            .field("peer", &self.link.label())
            .field("view", &self.view)
            .field("buffered", &self.buffer.len())
            .field("inflight", &self.inflight.len())
            .field("parked", &self.parked.len())
            .finish()
    }
}

impl ClientSession {
    /// Wraps a link into a session, starting in `view`.
    pub(crate) fn new(link: PeerLink, view: u64, config: SessionConfig) -> Self {
        ClientSession {
            link,
            config,
            view,
            next_seq: 1,
            buffer: Vec::new(),
            buffer_bytes: 0,
            inflight: VecDeque::new(),
            parked: Vec::new(),
            rejection: None,
            stats: SessionStats::default(),
        }
    }

    /// Updates the view stamped on future batches (after the client library
    /// refreshed ownership mappings from the metadata store).
    pub(crate) fn set_view(&mut self, view: u64) {
        self.view = view;
        self.rejection = None;
    }

    /// If a rejection reported a newer server view, returns it.
    pub(crate) fn stale_view(&self) -> Option<u64> {
        match self.rejection {
            Some(SessionError::StaleView { server_view, .. }) => Some(server_view),
            _ => None,
        }
    }

    /// Session counters.
    pub(crate) fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Batches currently in flight.
    pub(crate) fn inflight_batches(&self) -> usize {
        self.inflight.len()
    }

    /// Operations awaiting completion (buffered, in flight, or parked).
    pub(crate) fn outstanding_ops(&self) -> usize {
        self.buffer.len()
            + self.parked.len()
            + self.inflight.iter().map(|b| b.ops.len()).sum::<usize>()
    }

    /// Issues an asynchronous operation.  Never blocks: the operation is
    /// buffered and `callback` runs when its reply arrives.
    pub(crate) fn issue(&mut self, request: KvRequest, callback: Callback) {
        self.stats.ops_issued += 1;
        self.buffer_bytes += request.wire_size();
        self.buffer.push((request, callback));
        if self.buffer.len() >= self.config.max_batch_ops
            || self.buffer_bytes >= self.config.max_batch_bytes
        {
            // A full buffer flushes eagerly; a transport failure leaves the
            // operations buffered and surfaces on the next explicit flush or
            // poll.
            let _ = self.flush();
        }
    }

    /// Sends the currently buffered operations as one batch (if the pipeline
    /// has room).  Returns `Ok(true)` if a batch was sent; a transport
    /// failure leaves the operations buffered for a later retry.
    pub(crate) fn flush(&mut self) -> Result<bool, SessionError> {
        if self.buffer.is_empty() || self.inflight.len() >= self.config.max_inflight_batches {
            return Ok(false);
        }
        let batch = RequestBatch {
            view: self.view,
            seq: self.next_seq,
            ops: self.buffer.iter().map(|(r, _)| r.clone()).collect(),
        };
        let wire_bytes = batch.wire_size() as u64;
        self.link.send_batch(batch).map_err(SessionError::from)?;
        let ops = std::mem::take(&mut self.buffer);
        self.buffer_bytes = 0;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.batches_sent += 1;
        self.stats.bytes_sent += wire_bytes;
        self.inflight.push_back(InflightBatch { seq, ops });
        Ok(true)
    }

    /// Receives any available replies and runs their callbacks.  Returns the
    /// number of operations completed by this call.
    pub(crate) fn poll(&mut self) -> Result<usize, SessionError> {
        let mut completed = 0;
        while let Some(reply) = self.link.recv_reply().map_err(SessionError::from)? {
            completed += self.handle_reply(reply);
        }
        // Keep the pipeline full.
        while !self.buffer.is_empty() && self.inflight.len() < self.config.max_inflight_batches {
            if !self.flush()? {
                break;
            }
        }
        Ok(completed)
    }

    fn handle_reply(&mut self, reply: BatchReply) -> usize {
        let seq = reply.seq();
        let Some(pos) = self.inflight.iter().position(|b| b.seq == seq) else {
            return 0;
        };
        let batch = self.inflight.remove(pos).expect("position just found");
        match reply {
            BatchReply::Executed { results, .. } => {
                debug_assert_eq!(results.len(), batch.ops.len(), "reply arity mismatch");
                let mut completed = 0;
                for ((_, cb), result) in batch.ops.into_iter().zip(results) {
                    cb(result);
                    completed += 1;
                    self.stats.ops_completed += 1;
                }
                completed
            }
            BatchReply::Rejected { server_view, .. } => {
                self.stats.batches_rejected += 1;
                self.rejection = Some(SessionError::StaleView {
                    session_view: self.view,
                    server_view,
                });
                self.parked.extend(batch.ops);
                0
            }
        }
    }

    /// Removes and returns operations parked by batch rejections so the
    /// client library can re-route them after refreshing ownership mappings.
    pub(crate) fn take_parked(&mut self) -> Vec<(KvRequest, Callback)> {
        std::mem::take(&mut self.parked)
    }

    /// Removes and returns every operation that was never put on the wire:
    /// parked operations plus the unsent send buffer.  Used when tearing
    /// down a session over a failed link — these operations can safely be
    /// re-routed because the server never saw them.  (Operations in flight
    /// have unknown outcomes and are deliberately not returned.)
    pub(crate) fn take_unsent(&mut self) -> Vec<(KvRequest, Callback)> {
        self.buffer_bytes = 0;
        let mut out = std::mem::take(&mut self.parked);
        out.extend(std::mem::take(&mut self.buffer));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::{sim_pair, FramedPeer};
    use shadowfax_net::KvResponse;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn setup(config: SessionConfig) -> (ClientSession, FramedPeer) {
        let (link, server) = sim_pair();
        (ClientSession::new(link, 1, config), server)
    }

    fn echo_server(server: &mut FramedPeer) -> usize {
        let mut handled = 0;
        for batch in server.batches() {
            let results = batch
                .ops
                .iter()
                .map(|op| match op {
                    KvRequest::Read { key } => KvResponse::Value(Some(key.to_le_bytes().to_vec())),
                    KvRequest::Upsert { .. } => KvResponse::Ok,
                    KvRequest::RmwAdd { delta, .. } => KvResponse::Counter(*delta),
                    KvRequest::Delete { .. } => KvResponse::Deleted(true),
                })
                .collect();
            handled += batch.ops.len();
            server.reply(BatchReply::Executed {
                seq: batch.seq,
                results,
            });
        }
        handled
    }

    #[test]
    fn issue_batches_when_full() {
        let config = SessionConfig {
            max_batch_ops: 4,
            max_batch_bytes: usize::MAX,
            max_inflight_batches: 8,
        };
        let (mut session, mut server) = setup(config);
        for key in 0..3u64 {
            session.issue(KvRequest::Read { key }, Box::new(|_| {}));
        }
        assert_eq!(
            session.stats().batches_sent,
            0,
            "batch sent before it was full"
        );
        session.issue(KvRequest::Read { key: 3 }, Box::new(|_| {}));
        assert_eq!(session.stats().batches_sent, 1);
        assert_eq!(server.batches().len(), 1);
    }

    #[test]
    fn callbacks_run_with_matching_results() {
        let (mut session, mut server) = setup(SessionConfig::default());
        let sum = Arc::new(AtomicU64::new(0));
        for key in 1..=10u64 {
            let sum = Arc::clone(&sum);
            session.issue(
                KvRequest::Read { key },
                Box::new(move |resp| {
                    if let KvResponse::Value(Some(bytes)) = resp {
                        sum.fetch_add(
                            u64::from_le_bytes(bytes.try_into().unwrap()),
                            Ordering::SeqCst,
                        );
                    }
                }),
            );
        }
        session.flush().unwrap();
        echo_server(&mut server);
        let completed = session.poll().unwrap();
        assert_eq!(completed, 10);
        assert_eq!(sum.load(Ordering::SeqCst), 55);
        assert!((session.outstanding_ops() == 0));
    }

    #[test]
    fn pipelining_keeps_multiple_batches_in_flight() {
        let config = SessionConfig {
            max_batch_ops: 10,
            max_batch_bytes: usize::MAX,
            max_inflight_batches: 3,
        };
        let (mut session, _server) = setup(config);
        for key in 0..35u64 {
            session.issue(KvRequest::Read { key }, Box::new(|_| {}));
        }
        // 3 batches of 10 go out; the 4th batch's worth stays buffered because
        // the pipeline is full.
        assert_eq!(session.inflight_batches(), 3);
        assert_eq!(session.buffer.len(), 5);
        assert_eq!(session.outstanding_ops(), 35);
    }

    #[test]
    fn rejection_parks_ops_and_reports_new_view() {
        let (mut session, mut server) = setup(SessionConfig::default());
        for key in 0..5u64 {
            session.issue(KvRequest::RmwAdd { key, delta: 1 }, Box::new(|_| {}));
        }
        session.flush().unwrap();
        let batch = server.batches().pop().unwrap();
        server.reply(BatchReply::Rejected {
            seq: batch.seq,
            server_view: 9,
        });
        let completed = session.poll().unwrap();
        assert_eq!(completed, 0);
        assert_eq!(session.stale_view(), Some(9));
        assert_eq!(
            session.rejection.as_ref(),
            Some(&SessionError::StaleView {
                session_view: 1,
                server_view: 9
            })
        );
        assert_eq!(session.stats().batches_rejected, 1);
        let parked = session.take_parked();
        assert_eq!(parked.len(), 5);
        assert!((session.outstanding_ops() == 0));
        session.set_view(9);
        assert_eq!(session.view, 9);
        assert_eq!(session.stale_view(), None);
        assert!(session.rejection.as_ref().is_none());
    }

    #[test]
    fn poll_refills_pipeline_after_completion() {
        let config = SessionConfig {
            max_batch_ops: 5,
            max_batch_bytes: usize::MAX,
            max_inflight_batches: 1,
        };
        let (mut session, mut server) = setup(config);
        for key in 0..10u64 {
            session.issue(KvRequest::Read { key }, Box::new(|_| {}));
        }
        assert_eq!(session.inflight_batches(), 1);
        assert_eq!(session.buffer.len(), 5);
        echo_server(&mut server);
        session.poll().unwrap();
        // The reply freed a pipeline slot, so the next batch went out.
        assert_eq!(session.inflight_batches(), 1);
        assert_eq!(session.buffer.len(), 0);
        echo_server(&mut server);
        assert_eq!(session.poll().unwrap(), 5);
        assert_eq!(session.stats().ops_completed, 10);
    }

    #[test]
    fn byte_threshold_triggers_flush() {
        let config = SessionConfig {
            max_batch_ops: usize::MAX,
            max_batch_bytes: 1024,
            max_inflight_batches: 8,
        };
        let (mut session, mut server) = setup(config);
        // Each upsert is ~272 bytes on the wire; the 4th crosses 1 KiB.
        for key in 0..4u64 {
            session.issue(
                KvRequest::Upsert {
                    key,
                    value: vec![0u8; 256],
                },
                Box::new(|_| {}),
            );
        }
        assert_eq!(session.stats().batches_sent, 1);
        assert_eq!(server.batches().len(), 1);
    }

    #[test]
    fn send_failure_is_typed_and_keeps_ops_buffered() {
        let (mut session, server) = setup(SessionConfig::default());
        drop(server);
        session.issue(KvRequest::Read { key: 1 }, Box::new(|_| {}));
        let err = session.flush().unwrap_err();
        assert!(matches!(err, SessionError::Transport(_)));
        // The operation was not lost: it is still buffered for a re-route.
        assert_eq!(session.buffer.len(), 1);
        assert!(!session.link.is_open());
    }
}
