//! Server, client, and migration configuration.

use std::time::Duration;

use shadowfax_faster::FasterConfig;
use shadowfax_net::{LivenessConfig, SessionConfig};

use crate::ServerId;

/// How a server validates that it owns the records referenced by a request
/// batch (paper §3.2 / Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnershipCheck {
    /// Compare the batch's view number against the server's current view —
    /// one integer comparison per batch (Shadowfax's approach).
    ViewValidation,
    /// Hash every key in the batch and look it up in the server's set of
    /// owned hash ranges (the baseline Figure 15 compares against).
    HashValidation,
}

/// Which migration protocol the source runs during scale-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// Shadowfax: parallel migration of in-memory records; chains that extend
    /// onto the SSD are shipped as indirection records pointing at the shared
    /// tier (paper §3.3.2).
    Shadowfax,
    /// Rocksteady-style baseline: migrate in-memory records, then a single
    /// thread sequentially scans the on-SSD log and ships the remaining live
    /// records (paper §4.1, Figure 10c).
    Rocksteady,
}

/// Knobs for the migration protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Protocol variant.
    pub mode: MigrationMode,
    /// How long the source samples hot records before transferring ownership.
    pub sampling_duration: Duration,
    /// Whether sampled hot records are shipped with the ownership transfer
    /// (disable to reproduce Figure 14's "No Sampling" line).
    pub ship_sampled_records: bool,
    /// Records per migration batch sent from each source thread.
    pub records_per_batch: usize,
    /// Hash-table buckets each source thread scans per dispatch-loop
    /// iteration during the Migrate phase (bounds migration's CPU share so
    /// request processing stays prioritized).
    pub buckets_per_iteration: usize,
    /// On-SSD log bytes the Rocksteady scan reads per iteration.
    pub disk_scan_bytes_per_iteration: usize,
    /// Maximum pending operations retried per dispatch-loop iteration at the
    /// target (bounds time spent on shared-tier fetches).
    pub pending_retries_per_iteration: usize,
    /// Liveness of the migration peer: heartbeat pacing and the silence
    /// budget after which the peer is declared dead and the migration is
    /// cancelled (paper §3.3.1).  The target tolerates twice this budget
    /// before declaring the source dead, so the source (which also sees
    /// transport errors first) always wins the race to cancel cleanly.
    pub liveness: LivenessConfig,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            mode: MigrationMode::Shadowfax,
            sampling_duration: Duration::from_millis(100),
            ship_sampled_records: true,
            records_per_batch: 512,
            buckets_per_iteration: 64,
            disk_scan_bytes_per_iteration: 256 * 1024,
            pending_retries_per_iteration: 256,
            liveness: LivenessConfig::default(),
        }
    }
}

/// Configuration of one Shadowfax server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The server's cluster-wide id.
    pub id: ServerId,
    /// Number of dispatch threads (one per vCPU in the paper's deployment).
    pub threads: usize,
    /// FASTER instance sizing.
    pub faster: FasterConfig,
    /// Ownership validation strategy.
    pub ownership_check: OwnershipCheck,
    /// Migration behaviour.
    pub migration: MigrationConfig,
}

impl ServerConfig {
    /// A small configuration for tests: 2 threads, tiny FASTER instance.
    pub fn small_for_tests(id: ServerId) -> Self {
        ServerConfig {
            id,
            threads: 2,
            faster: FasterConfig::small_for_tests(),
            ownership_check: OwnershipCheck::ViewValidation,
            migration: MigrationConfig {
                sampling_duration: Duration::from_millis(20),
                ..MigrationConfig::default()
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on unusable parameter combinations.
    pub fn validate(&self) {
        assert!(self.threads >= 1, "a server needs at least one thread");
        self.faster.validate();
        assert!(self.migration.records_per_batch > 0);
        assert!(self.migration.buckets_per_iteration > 0);
    }

    /// The server's base network address.
    pub fn address(&self) -> String {
        format!("sv{}", self.id.0)
    }
}

/// Configuration of one Shadowfax client thread.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// This client thread's id; used to spread client threads across server
    /// dispatch threads.
    pub thread_id: usize,
    /// Session batching/pipelining parameters.
    pub session: SessionConfig,
}

impl ClientConfig {
    /// Builder-style thread id override.
    pub fn with_thread_id(mut self, id: usize) -> Self {
        self.thread_id = id;
        self
    }

    /// Builder-style session override.
    pub fn with_session(mut self, session: SessionConfig) -> Self {
        self.session = session;
        self
    }
}

// ServerId lives in lib.rs; re-exported here for the doc examples.
#[allow(unused_imports)]
use crate::hash_range::HashRange;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        ServerConfig::small_for_tests(ServerId(3)).validate();
        assert_eq!(ServerConfig::small_for_tests(ServerId(3)).address(), "sv3");
    }

    #[test]
    fn default_migration_config_is_shadowfax_with_sampling() {
        let m = MigrationConfig::default();
        assert_eq!(m.mode, MigrationMode::Shadowfax);
        assert!(m.ship_sampled_records);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut c = ServerConfig::small_for_tests(ServerId(0));
        c.threads = 0;
        c.validate();
    }

    #[test]
    fn client_config_builders() {
        let c = ClientConfig::default().with_thread_id(5);
        assert_eq!(c.thread_id, 5);
    }
}
