//! Log compaction with lazy indirection-record cleanup (paper §3.3.3).
//!
//! Servers must periodically compact their logs anyway, to drop stale record
//! versions from the shared tier.  Shadowfax piggybacks the cleanup of
//! cross-log dependencies on that pass:
//!
//! * A live record whose hash range this server **no longer owns** is shipped
//!   to the range's current owner instead of being kept.  On receipt the
//!   owner inserts it only if it holds no live version of the key (an
//!   indirection record does not count), as it does a migrated record;
//!   otherwise the copy is discarded
//!   ([`crate::messages::MigrationMsg::CompactionHandoff`]).
//! * An indirection record whose contained hash range this server no longer
//!   owns is dropped (the owner keeps its own copy).
//! * Everything else that is still live is kept: it is re-appended at the
//!   tail and survives the truncation of the compacted prefix.
//!
//! Barring normal-case request processing, this is the only time records that
//! are not in main memory are read, and it happens during the sequential I/O
//! of compaction — which has to be done anyway.

use std::collections::HashMap;
use std::sync::Arc;

use shadowfax_faster::{compact_until, record_is_foreign, CompactionStats, Disposition, KeyHash};

use crate::indirection::IndirectionRecord;
use crate::messages::MigrationMsg;
use crate::server::Server;
use crate::wire::PeerLink;
use crate::ServerId;

/// The result of one [`Server::compact_log`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Raw compaction statistics (records scanned / kept / stale / ...).
    pub stats: CompactionStats,
    /// Live records handed off to their current owner because this server no
    /// longer owns their hash range.
    pub handed_off_records: u64,
    /// Indirection records dropped because their range is no longer owned.
    pub dropped_indirections: u64,
    /// Records that should have been handed off but could not be (their
    /// owner was unreachable); they were kept locally so no data is lost.
    pub kept_unreachable: u64,
}

impl Server {
    /// Compacts everything below the log's read-only boundary, handing
    /// records this server no longer owns to their current owner and dropping
    /// indirection records for ranges it no longer owns (paper §3.3.3).
    pub fn compact_log(self: &Arc<Self>) -> CompactionOutcome {
        let session = self.store.start_session();
        let owned_pairs: Vec<(u64, u64)> = self
            .owned
            .read()
            .ranges()
            .iter()
            .map(|r| (r.start, r.end))
            .collect();
        let snapshot = self.meta.snapshot();
        let my_id = self.id();

        let mut conns: HashMap<ServerId, Option<PeerLink>> = HashMap::new();
        let mut handed_off_records = 0u64;
        let mut dropped_indirections = 0u64;
        let mut kept_unreachable = 0u64;

        let until = self.store.log().read_only_address();
        let stats = compact_until(&self.store, &session, until, |record| {
            if record.is_indirection() {
                // Indirection records are keyed by a representative hash, so
                // ownership is decided by the range stored in their payload.
                let still_owned = IndirectionRecord::decode_value(record.value())
                    .map(|ind| {
                        owned_pairs
                            .iter()
                            .any(|(s, e)| ind.range.start < *e && *s < ind.range.end)
                    })
                    .unwrap_or(false);
                return if still_owned {
                    Disposition::Keep
                } else {
                    dropped_indirections += 1;
                    Disposition::Discard
                };
            }
            if !record_is_foreign(record, &owned_pairs) {
                return Disposition::Keep;
            }
            // The record belongs to a range this server migrated away: ship it
            // to whoever owns the range now.
            let hash = KeyHash::of(record.key()).raw();
            let owner = snapshot
                .owner_of(hash)
                .map(|(id, _)| id)
                .filter(|id| *id != my_id);
            let Some(owner) = owner else {
                // Unknown or self-owned (ownership raced back): keep it.
                kept_unreachable += 1;
                return Disposition::Keep;
            };
            let conn = conns.entry(owner).or_insert_with(|| {
                snapshot
                    .server(owner)
                    .and_then(|m| self.connect_migration(&m.address, owner, 0))
            });
            let handoff = MigrationMsg::CompactionHandoff {
                key: record.key(),
                value: record.value().to_vec(),
            };
            let sent = conn
                .as_mut()
                .is_some_and(|conn| conn.send_migration(handoff).is_ok());
            if !sent {
                // Nobody took the record: it stays here.
                kept_unreachable += 1;
                return Disposition::Keep;
            }
            // Drain acknowledgements/noise so the stream never backs up.
            if let Some(conn) = conn {
                while let Ok(Some(_)) = conn.recv_migration() {}
            }
            handed_off_records += 1;
            Disposition::Handled
        });

        CompactionOutcome {
            stats,
            handed_off_records,
            dropped_indirections,
            kept_unreachable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::hash_range::{HashRange, RangeSet};
    use crate::server::MigrationConnector;
    use shadowfax_net::{ByteStream, SimNetwork};

    /// Opens streams whose peer endpoint is already gone, so every send on
    /// them fails.
    struct DroppedPeer;

    impl MigrationConnector for DroppedPeer {
        fn connect_migration(&self, _: &str, _: ServerId, _: usize) -> Option<Box<dyn ByteStream>> {
            let net = SimNetwork::new();
            let listener = net.listen("gone");
            let link = net.connect("gone")?;
            drop(listener.try_accept());
            Some(Box::new(link))
        }
    }

    #[test]
    fn a_handoff_that_cannot_be_sent_keeps_the_record() {
        let cluster = Cluster::start(ClusterConfig::two_server_test());
        let server = cluster.server(ServerId(0)).unwrap();
        let session = server.store().start_session();
        let value = vec![9u8; 200];
        for key in 0..3000u64 {
            session.upsert(key, &value).unwrap();
        }
        // Server 1 owns everything now, and its endpoint is gone.
        cluster
            .meta()
            .transfer_ownership(ServerId(0), ServerId(1), &[HashRange::FULL])
            .unwrap();
        server.set_owned_ranges(RangeSet::empty());
        server.set_migration_connector(Arc::new(DroppedPeer));

        let outcome = server.compact_log();
        assert!(outcome.stats.scanned > 0, "compaction scanned nothing");
        assert_eq!(outcome.handed_off_records, 0);
        assert!(outcome.kept_unreachable > 0, "{outcome:?}");
        for key in (0..3000u64).step_by(97) {
            assert_eq!(
                session.read(key).unwrap(),
                Some(value.clone()),
                "key {key} lost by a failed hand-off"
            );
        }
        cluster.shutdown();
    }
}
